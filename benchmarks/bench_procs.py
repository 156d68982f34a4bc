"""Benchmark: threads vs procs — do islands actually use the cores?

Every in-process backend executes islands as threads of one process,
so its parallelism ends wherever the GIL is held.  The ``procs``
backend runs each island in a persistent worker process over
shared-memory arenas — the first configuration where islands-vs-(3+1)D
wall-clock reflects the paper's SMP mechanism rather than the
simulator's cost model.  This benchmark times steady-state steps on an
L3-spilling grid across island counts for three modes per count:

* ``threads``   — native backend, one thread per island;
* ``procs``     — worker processes, recompute halo (one sync per step);
* ``procs+ex``  — worker processes, per-stage halo exchange, recording
  the bytes shipped through the shared-memory stage buffers.

Speedup is threads-over-procs at equal island count.  The ≥ 2x
acceptance gate applies only on a multi-core host (``cpu_count`` is
recorded in the payload): on a single hardware core no process layout
can beat the GIL, and the benchmark only checks bit-identity there.
Writes ``BENCH_procs.json`` at the repository root.

Run standalone (writes the JSON):

.. code-block:: console

    python benchmarks/bench_procs.py            # full config
    python benchmarks/bench_procs.py --smoke    # tiny, no JSON

or under the benchmark suite: ``pytest benchmarks/bench_procs.py``.
"""

from __future__ import annotations

import os
import pathlib
import sys
import time

_HERE = str(pathlib.Path(__file__).resolve().parent)
if _HERE not in sys.path:  # also loaded by bare file path (tier-1 suite)
    sys.path.insert(0, _HERE)
import common

FULL_SHAPE = (128, 64, 32)  # ~2 MiB per field: spills a typical L3 slice
FULL_STEPS = 5
FULL_ISLANDS = (1, 2, 4)
SMOKE_SHAPE = (24, 16, 8)
SMOKE_STEPS = 2
SMOKE_ISLANDS = (2,)
DEFAULT_JSON = common.default_json_path("BENCH_procs.json")


def _island_counts(smoke: bool):
    if smoke:
        return SMOKE_ISLANDS
    counts = list(FULL_ISLANDS)
    cores = os.cpu_count() or 1
    if cores > max(counts):
        counts.append(cores)  # the workers=cores row
    return tuple(counts)


def _time_mode(config, islands, shape, state, steps):
    """Warm-up one step, time ``steps`` more; returns (final, s/step, sink)."""
    import numpy as np

    from repro.mpdata.stages import FIELD_X
    from repro.runtime import InMemorySink, MpdataIslandSolver, Telemetry

    sink = InMemorySink()
    with MpdataIslandSolver(
        shape, islands, config=config, telemetry=Telemetry([sink])
    ) as solver:
        state.validate()
        arrays = solver._arrays(state)
        arrays[FIELD_X] = np.asarray(state.x, dtype=solver.runner.dtype)
        arrays[FIELD_X] = solver.runner.step(arrays)  # warm-up
        begin = time.perf_counter()
        for _ in range(steps):
            arrays[FIELD_X] = solver.runner.step(arrays, changed={FIELD_X})
        elapsed = time.perf_counter() - begin
        final = np.array(arrays[FIELD_X], copy=True)
    return final, elapsed / steps, sink


def _mode_config(kind, islands):
    from repro.runtime import EngineConfig

    if kind == "threads":
        return EngineConfig(backend="native", threads=islands)
    if kind == "procs":
        return EngineConfig(backend="procs", procs_inner="native")
    return EngineConfig(  # procs+ex
        backend="procs", procs_inner="native", halo="exchange"
    )


def run(smoke: bool = False, json_path=None):
    """Time all modes per island count; returns the payload dict."""
    import numpy as np

    from repro.mpdata import random_state

    shape = SMOKE_SHAPE if smoke else FULL_SHAPE
    steps = SMOKE_STEPS if smoke else FULL_STEPS
    state = random_state(shape, seed=2017)
    rows = []
    for islands in _island_counts(smoke):
        row = {"islands": islands, "modes": {}}
        finals = {}
        for kind in ("threads", "procs", "procs+ex"):
            config = _mode_config(kind, islands)
            final, step_time, sink = _time_mode(
                config, islands, shape, state, steps
            )
            finals[kind] = final
            timed = sink.events[1:]
            row["modes"][kind] = {
                "step_time_s": step_time,
                "allocations_per_step": (
                    sum(e.stats.allocations for e in timed) / steps
                ),
                "exchanged_bytes_per_step": (
                    sum(e.stats.exchanged_bytes for e in timed) / steps
                ),
            }
        row["speedup"] = (
            row["modes"]["threads"]["step_time_s"]
            / row["modes"]["procs"]["step_time_s"]
            if row["modes"]["procs"]["step_time_s"]
            else float("inf")
        )
        row["bit_identical"] = all(
            bool(np.array_equal(finals["threads"], finals[kind]))
            for kind in ("procs", "procs+ex")
        )
        rows.append(row)
    payload = {
        "shape": list(shape),
        "steps": steps,
        "cpu_count": os.cpu_count() or 1,
        "rows": rows,
    }
    if json_path is not None:
        common.write_json(payload, json_path)
    return payload


def _render(payload):
    lines = [
        f"Threads vs procs ({'x'.join(str(n) for n in payload['shape'])}, "
        f"{payload['steps']} steps, {payload['cpu_count']} cpu(s))",
        f"{'islands':>7} {'mode':<10} {'step time':>12} "
        f"{'KiB shipped':>12} {'speedup':>8} {'bits':>5}",
    ]
    for row in payload["rows"]:
        for kind, numbers in row["modes"].items():
            speed = f"{row['speedup']:>7.2f}x" if kind == "procs" else ""
            bits = (
                ("ok" if row["bit_identical"] else "FAIL")
                if kind == "procs+ex"
                else ""
            )
            lines.append(
                f"{row['islands']:>7} {kind:<10} "
                f"{numbers['step_time_s'] * 1e3:>10.2f} ms "
                f"{numbers['exchanged_bytes_per_step'] / 1024:>12.1f} "
                f"{speed:>8} {bits:>5}"
            )
    return "\n".join(lines)


def _passed(payload, smoke):
    if not all(row["bit_identical"] for row in payload["rows"]):
        return False
    if smoke or payload["cpu_count"] < 4:
        # One hardware core serializes everything; only correctness is
        # checkable.  The speedup gate runs on multi-core CI.
        return True
    return any(
        row["speedup"] >= 2.0
        for row in payload["rows"]
        if row["islands"] >= 4
    )


def bench_threads_vs_procs(benchmark, record_table):
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
