"""Benchmark: halo recompute vs per-stage exchange across island counts.

The paper's central trade (Fig. 1, Tables 1 vs 3): scenario 1 ships
boundary planes after every stage and pays a barrier each time; scenario
2 (islands-of-cores) duplicates the transitive halo and synchronizes
once per step.  This benchmark runs both policies through the real
steady-state engine across several island counts, records per-step wall
time, shipped bytes, stage syncs and redundant points, and checks the
telemetry's measured traffic against the halo ledger's analytic
prediction on every configuration.  Writes ``BENCH_halo.json`` at the
repository root so future PRs have a perf trajectory.

Run standalone (writes the JSON):

.. code-block:: console

    python benchmarks/bench_halo.py            # full config
    python benchmarks/bench_halo.py --smoke    # tiny, no JSON

or under the benchmark suite: ``pytest benchmarks/bench_halo.py``.
"""

from __future__ import annotations

import pathlib
import sys

_HERE = str(pathlib.Path(__file__).resolve().parent)
if _HERE not in sys.path:  # also loaded by bare file path (tier-1 suite)
    sys.path.insert(0, _HERE)
import common

FULL_SHAPE = (96, 48, 16)
FULL_STEPS = 8
FULL_ISLANDS = (2, 4, 8)
SMOKE_SHAPE = (24, 16, 8)
SMOKE_STEPS = 2
SMOKE_ISLANDS = (2, 3)
POLICIES = ("recompute", "exchange")
DEFAULT_JSON = common.default_json_path("BENCH_halo.json")


def run(smoke: bool = False, json_path=None):
    """Measure both policies per island count; returns the payload dict."""
    from repro.runtime import measure_steady_state

    shape = SMOKE_SHAPE if smoke else FULL_SHAPE
    steps = SMOKE_STEPS if smoke else FULL_STEPS
    rows = []
    for islands in SMOKE_ISLANDS if smoke else FULL_ISLANDS:
        row = {"islands": islands, "policies": {}}
        for policy in POLICIES:
            report = measure_steady_state(
                shape=shape,
                steps=steps,
                islands=islands,
                backend="native",
                halo=policy,
            )
            engine = report.modes["engine"]
            row["policies"][policy] = {
                "step_time_s": engine["step_time_s"],
                "allocations_per_step": engine["allocations_per_step"],
                "exchanged_bytes_per_step": engine["exchanged_bytes_per_step"],
                "stage_syncs": engine["stage_syncs"],
                "bit_identical": report.bit_identical,
            }
        row["model_check"] = _model_check(shape, islands)
        rows.append(row)
    payload = {
        "shape": list(shape),
        "steps": steps,
        "backend": "native",
        "rows": rows,
    }
    if json_path is not None:
        common.write_json(payload, json_path)
    return payload


def _model_check(shape, islands):
    """Measured exchanged bytes vs the ledger's analytic prediction."""
    import numpy as np

    from repro.mpdata import random_state
    from repro.runtime import (
        EngineConfig,
        InMemorySink,
        MpdataIslandSolver,
        Telemetry,
    )

    sink = InMemorySink()
    config = EngineConfig(backend="native", halo="exchange")
    with MpdataIslandSolver(
        shape, islands, config=config, telemetry=Telemetry([sink])
    ) as solver:
        state = random_state(shape, seed=2017)
        solver.run(state, 1)
        ledger = solver.runner.halo_ledger
        predicted = ledger.exchanged_bytes(solver.runner.dtype.itemsize)
    measured = sink.events[-1].stats.exchanged_bytes
    assert isinstance(measured, (int, np.integer))
    return {
        "measured_bytes": int(measured),
        "predicted_bytes": int(predicted),
        "match": measured == predicted,
    }


def _render(payload):
    lines = [
        f"Halo policy duel ({'x'.join(str(n) for n in payload['shape'])}, "
        f"{payload['steps']} steps, {payload['backend']})",
        f"{'islands':>7} {'policy':<10} {'step time':>12} "
        f"{'KiB shipped':>12} {'syncs':>6} {'model':>6}",
    ]
    for row in payload["rows"]:
        for policy, numbers in row["policies"].items():
            model = "ok" if row["model_check"]["match"] else "FAIL"
            lines.append(
                f"{row['islands']:>7} {policy:<10} "
                f"{numbers['step_time_s'] * 1e3:>10.2f} ms "
                f"{numbers['exchanged_bytes_per_step'] / 1024:>12.1f} "
                f"{numbers['stage_syncs']:>6.0f} "
                f"{model if policy == 'exchange' else '':>6}"
            )
    return "\n".join(lines)


def _passed(payload, smoke):
    return all(
        row["model_check"]["match"]
        and all(n["bit_identical"] for n in row["policies"].values())
        for row in payload["rows"]
    )


def bench_halo_policies(benchmark, record_table):
    """Benchmark-suite entry: smoke-sized, records the rendered table."""
    payload = benchmark.pedantic(
        run, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    record_table(_render(payload))
    assert _passed(payload, smoke=True)


def main() -> int:
    return common.bench_main(
        __doc__,
        DEFAULT_JSON,
        run,
        sections=lambda payload: ((None, _render(payload)),),
        passed=_passed,
    )


if __name__ == "__main__":
    sys.exit(main())
