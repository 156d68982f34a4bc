"""Self-test of the engine benchmark.

Run with ``pytest enginebench/test_bench_engine.py`` (about 50 s: one
``--smoke`` pass over every workload, both traces).  It checks that every
metric ``BENCHMARK.json`` names is reported with its unit, that the
correctness gates pass, that ``--compare`` flags a 20% slowdown and passes
one of half the metric's bound, and that the benchmark refuses to run
without the engine sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BENCH = HERE / "bench_engine.py"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "enginebench" / "bench_engine.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke():
    done = _bench("--smoke", "--seed", "3")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_is_reported_with_its_unit(smoke):
    assert sorted(smoke["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        for section in ("end_to_end", "per_layer"):
            reported = smoke["workloads"][name][section]
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            assert {k: v["unit"] for k, v in reported.items()} == expected
            for metric, entry in reported.items():
                assert isinstance(entry["value"], float), (name, metric)


def test_correctness_gates_pass(smoke):
    assert smoke["correct"] is True
    assert smoke["failed"] == 0
    assert smoke["attempted"] > 0
    for name in WORKLOADS:
        gates = smoke["workloads"][name]["gates"]
        assert "trace0.prefix_matches_interpreter" in gates
        assert "trace1.zero_steady_allocations" in gates
        assert all(gates.values()), (name, gates)


def _ledger(scale: float = 1.0) -> dict:
    values = {
        "step_ms_p50": [40.0, 41.0, 40.5, 39.8, 40.2],
        "mlups": [30.0, 29.5, 30.4, 30.1, 29.9],
        "cpu_ms_per_step": [60.0, 61.0, 60.3, 59.9, 60.6],
        "setup_s": [0.10, 0.11, 0.10, 0.12, 0.10],
        "peak_rss_mb": [320.0, 321.0, 320.5, 320.2, 320.7],
        "step_ok_ratio": [1.0, 1.0, 1.0, 1.0, 1.0],
    }
    metrics = {k: [v * scale for v in vs] if k == "step_ms_p50" else vs
               for k, vs in values.items()}
    return {"sets": [{"end_to_end": {name: metrics for name in WORKLOADS}}]}


def test_compare_flags_a_20_percent_slowdown(tmp_path):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "step_ms_p50")
    prev, within, slow = (tmp_path / n for n in ("prev.json", "within.json", "slow.json"))
    prev.write_text(json.dumps(_ledger()))
    within.write_text(json.dumps(_ledger(scale=1.0 + bound / 2)))
    slow.write_text(json.dumps(_ledger(scale=1.20)))

    done = _bench("--compare", str(prev), "--against", str(within))
    assert done.returncode == 0, done.stdout
    assert "REGRESSION" not in done.stdout

    done = _bench("--compare", str(prev), "--against", str(slow))
    assert done.returncode == 1, done.stdout
    flagged = [line for line in done.stdout.splitlines() if "REGRESSION" in line]
    assert len(flagged) == len(WORKLOADS)
    assert all("step_ms_p50" in line for line in flagged)


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "enginebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
