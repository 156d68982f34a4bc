"""Benchmark: what does deadline supervision cost, and how fast does it act?

The ``procs`` backend's watchdog (:class:`~repro.runtime.procs.
DeadlineClock`) buys hang detection with one ``poll(timeout)`` per
island command instead of a blocking ``recv``.  This benchmark prices
that trade from both sides:

* **overhead** — fault-free steady-state steps, supervised (adaptive
  deadlines, the default) vs unsupervised (``step_deadline=None,
  deadline_factor=None``), across island counts.  The gate: supervision
  costs at most 3% on the step time.
* **storms** — runs under concentrated fault schedules with a tight
  explicit deadline: a *hang storm* (wedged workers on several steps —
  the payload records the mean detection latency actually paid), a
  *kill storm* (SIGKILLed workers, detected instantly via pipe EOF),
  and a *quarantine storm* (one island hangs repeatedly until its
  worker is retired and its islands are remapped onto the survivor).
  Every storm must finish bit-identical to the fault-free trajectory.

Writes ``BENCH_chaos.json`` at the repository root.

Run standalone (writes the JSON):

.. code-block:: console

    python benchmarks/bench_chaos.py            # full config
    python benchmarks/bench_chaos.py --smoke    # tiny, no JSON

or under the benchmark suite: ``pytest benchmarks/bench_chaos.py``.
"""

from __future__ import annotations

import math
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
FULL_REPEATS = 5
FULL_ISLANDS = (1, 2, 4)
SMOKE_SHAPE = (24, 16, 8)
SMOKE_STEPS = 2
SMOKE_REPEATS = 1
SMOKE_ISLANDS = (2,)
STORM_SHAPE = (24, 16, 8)
STORM_DEADLINE = 0.5
DEFAULT_JSON = common.default_json_path("BENCH_chaos.json")


def _timed_pass(solver, arrays, x0, steps):
    """One warm-up step, then ``steps`` timed ones; returns s/step."""
    from repro.mpdata.stages import FIELD_X

    arrays[FIELD_X] = x0
    arrays[FIELD_X] = solver.runner.step(arrays)  # warm-up
    begin = time.perf_counter()
    for _ in range(steps):
        arrays[FIELD_X] = solver.runner.step(arrays, changed={FIELD_X})
    return (time.perf_counter() - begin) / steps


def _overhead_rows(smoke):
    """Supervised-vs-unsupervised step time at 0 faults, per island count.

    The two pools stay alive together and their timed passes interleave
    (plain, watched, plain, watched, ...), min-of-``repeats`` each: the
    signal (one ``poll(timeout)`` vs one blocking ``recv`` per command)
    is microseconds, so back-to-back whole-mode blocks would measure
    machine drift, not supervision.
    """
    import numpy as np

    from repro.mpdata import random_state
    from repro.runtime import EngineConfig, MpdataIslandSolver

    shape = SMOKE_SHAPE if smoke else FULL_SHAPE
    steps = SMOKE_STEPS if smoke else FULL_STEPS
    repeats = SMOKE_REPEATS if smoke else FULL_REPEATS
    state = random_state(shape, seed=2017)
    state.validate()
    configs = {
        "unsupervised": EngineConfig(
            backend="procs",
            procs_inner="native",
            step_deadline=None,
            deadline_factor=None,
        ),
        # default adaptive supervision
        "supervised": EngineConfig(backend="procs", procs_inner="native"),
    }
    rows = []
    for islands in SMOKE_ISLANDS if smoke else FULL_ISLANDS:
        solvers, best = {}, {}
        try:
            for mode, config in configs.items():
                solver = MpdataIslandSolver(shape, islands, config=config)
                arrays = solver._arrays(state)
                x0 = np.asarray(state.x, dtype=solver.runner.dtype)
                solvers[mode] = (solver, arrays, x0)
                best[mode] = math.inf
            for _ in range(repeats):
                for mode, (solver, arrays, x0) in solvers.items():
                    best[mode] = min(
                        best[mode], _timed_pass(solver, arrays, x0, steps)
                    )
        finally:
            for solver, _, _ in solvers.values():
                solver.close()
        plain, watched = best["unsupervised"], best["supervised"]
        rows.append(
            {
                "islands": islands,
                "unsupervised_s": plain,
                "supervised_s": watched,
                "overhead_pct": (
                    (watched - plain) / plain * 100.0 if plain else 0.0
                ),
            }
        )
    return {"shape": list(shape), "steps": steps, "rows": rows}


def _storm(config, islands, steps, reference):
    """One faulted run; returns its ledger plus bit-identity vs clean."""
    import numpy as np
    from dataclasses import replace as dc_replace

    from repro.mpdata import random_state
    from repro.runtime import MpdataIslandSolver

    state = random_state(STORM_SHAPE, seed=7)
    with MpdataIslandSolver(STORM_SHAPE, islands, config=config) as solver:
        final = np.array(solver.run(state, steps), copy=True)
        stats = dc_replace(solver.runner.fault_stats)
        serial = solver.runner.backend.serial_fallback
    detected = stats.hangs_detected
    return {
        "steps": steps,
        "faults": list(config.fault_specs),
        "hangs_detected": detected,
        "mean_detect_s": (
            stats.hang_detect_seconds / detected if detected else None
        ),
        "retries": stats.retries,
        "retry_successes": stats.retry_successes,
        "quarantines": stats.quarantines,
        "islands_remapped": stats.islands_remapped,
        "serial_fallback": serial,
        "bit_identical": bool(np.array_equal(final, reference)),
    }


def _clean_reference(islands, steps):
    import numpy as np

    from repro.mpdata import random_state
    from repro.runtime import EngineConfig, MpdataIslandSolver

    state = random_state(STORM_SHAPE, seed=7)
    with MpdataIslandSolver(
        STORM_SHAPE, islands, config=EngineConfig(backend="native")
    ) as solver:
        return np.array(solver.run(state, steps), copy=True)


def _storms(smoke):
    from repro.runtime import EngineConfig

    steps = 6 if smoke else 10
    hang_faults = (
        ("hang@island=0,step=2", "hang@island=1,step=4")
        if smoke
        else (
            "hang@island=0,step=2",
            "hang@island=1,step=4",
            "hang@island=0,step=7",
        )
    )
    kill_faults = (
        ("kill@island=1,step=3",)
        if smoke
        else (
            "kill@island=0,step=2",
            "kill@island=1,step=5",
            "kill@island=0,step=8",
        )
    )
    ref2 = _clean_reference(2, steps)
    ref4 = _clean_reference(4, steps)
    return {
        "deadline_s": STORM_DEADLINE,
        "hang": _storm(
            EngineConfig(
                backend="procs",
                procs_inner="native",
                step_deadline=STORM_DEADLINE,
                max_retries=2,
                fault_specs=hang_faults,
            ),
            2, steps, ref2,
        ),
        "kill": _storm(
            EngineConfig(
                backend="procs",
                procs_inner="native",
                step_deadline=STORM_DEADLINE,
                max_retries=2,
                fault_specs=kill_faults,
            ),
            2, steps, ref2,
        ),
        "quarantine": _storm(
            EngineConfig(
                backend="procs",
                procs_inner="native",
                workers=2,
                step_deadline=STORM_DEADLINE,
                max_retries=3,
                quarantine_after=2,
                fault_specs=("hang@island=2,step=2,attempts=2",),
            ),
            4, steps, ref4,
        ),
    }


def run(smoke: bool = False, json_path=None):
    """Price supervision at 0 faults, then drive it through storms."""
    payload = {
        "cpu_count": os.cpu_count() or 1,
        "storm_shape": list(STORM_SHAPE),
        "overhead": _overhead_rows(smoke),
        "storms": _storms(smoke),
    }
    if json_path is not None:
        common.write_json(payload, json_path)
    return payload


def _render(payload):
    over = payload["overhead"]
    lines = [
        f"Supervision overhead at 0 faults "
        f"({'x'.join(str(n) for n in over['shape'])}, {over['steps']} steps)",
        f"{'islands':>7} {'unsupervised':>13} {'supervised':>11} "
        f"{'overhead':>9}",
    ]
    for row in over["rows"]:
        lines.append(
            f"{row['islands']:>7} {row['unsupervised_s'] * 1e3:>10.2f} ms "
            f"{row['supervised_s'] * 1e3:>8.2f} ms "
            f"{row['overhead_pct']:>8.2f}%"
        )
    storms = payload["storms"]
    lines.append(
        f"Fault storms (deadline {storms['deadline_s']}s, "
        f"{'x'.join(str(n) for n in payload['storm_shape'])})"
    )
    lines.append(
        f"{'storm':>10} {'hangs':>6} {'detect':>8} {'retries':>8} "
        f"{'quarant.':>8} {'remapped':>8} {'bits':>5}"
    )
    for name in ("hang", "kill", "quarantine"):
        storm = storms[name]
        detect = (
            f"{storm['mean_detect_s']:.3f}s"
            if storm["mean_detect_s"] is not None
            else "—"
        )
        lines.append(
            f"{name:>10} {storm['hangs_detected']:>6} {detect:>8} "
            f"{storm['retries']:>8} {storm['quarantines']:>8} "
            f"{storm['islands_remapped']:>8} "
            f"{'ok' if storm['bit_identical'] else 'FAIL':>5}"
        )
    return "\n".join(lines)


def _passed(payload, smoke):
    storms = payload["storms"]
    if not all(
        storms[name]["bit_identical"] for name in ("hang", "kill", "quarantine")
    ):
        return False
    # Detection latency must be finite and of the deadline's order — a
    # watchdog that only fires after the 60s warm-up grace is broken.
    hang = storms["hang"]
    if not hang["hangs_detected"]:
        return False
    if not (
        math.isfinite(hang["mean_detect_s"])
        and hang["mean_detect_s"] < 10 * storms["deadline_s"]
    ):
        return False
    if storms["quarantine"]["quarantines"] < 1:
        return False
    if smoke:
        # Smoke timings are too small to price a poll() meaningfully;
        # only the recovery behaviour is gated.
        return True
    return all(
        row["overhead_pct"] <= 3.0 for row in payload["overhead"]["rows"]
    )


def bench_chaos(benchmark, record_table):
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
