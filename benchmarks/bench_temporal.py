"""Benchmark: temporal blocking — step time vs ``--sync-every`` depth.

Temporal blocking (``--sync-every s``) trades redundant boundary compute
for synchronization: each island runs ``s`` steps from ``3s``-deep
ghosts before re-syncing, so the recompute policy's one-barrier-per-step
becomes one barrier per ``s`` steps, and the ``procs`` backend issues
one RPC round trip per super-step instead of per step.  This benchmark
sweeps step time versus ``s`` versus island count for two modes:

* ``threads`` — native backend, one thread per island (its "barrier"
  is a cheap in-process join, so blocking rarely pays);
* ``procs``   — worker processes over shared memory, where the per-step
  RPC + barrier is real wall-clock that blocking amortizes ``s``-fold.

Every configuration is checked bit-identical against the ``threads``
``s=1`` reference, and the telemetry sync ledger must show barriers
reduced exactly ``s``-fold.  The wall-clock gate — tuned ``s > 1``
beating ``s = 1`` on ``procs`` at >= 4 islands — applies only on a
multi-core host (``cpu_count`` is in the payload): with every worker
serialized on one hardware core there is no barrier idle time to
reclaim, so deep-halo redundancy can only lose; the benchmark then
checks identity and the sync ledger alone.  Writes
``BENCH_temporal.json`` at the repository root.

Run standalone (writes the JSON):

.. code-block:: console

    python benchmarks/bench_temporal.py            # full config
    python benchmarks/bench_temporal.py --smoke    # tiny, no JSON

or under the benchmark suite: ``pytest benchmarks/bench_temporal.py``.
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

FULL_SHAPE = (64, 32, 16)  # every axis >= 12: the s=4 composed halo fits
FULL_STEPS = 8
FULL_SYNCS = (1, 2, 4)
FULL_ISLANDS = (2, 4)
SMOKE_SHAPE = (24, 16, 8)  # every axis >= 6: s=2 fits, s=4 would not
SMOKE_STEPS = 4
SMOKE_SYNCS = (1, 2)
SMOKE_ISLANDS = (2,)
DEFAULT_JSON = common.default_json_path("BENCH_temporal.json")


def _island_counts(smoke: bool):
    if smoke:
        return SMOKE_ISLANDS
    counts = list(FULL_ISLANDS)
    cores = os.cpu_count() or 1
    if cores > max(counts):
        counts.append(cores)  # the workers=cores row
    return tuple(counts)


def _mode_config(kind, islands, sync_every):
    from repro.runtime import EngineConfig

    if kind == "threads":
        return EngineConfig(
            backend="native",
            threads=islands,
            sync_every=sync_every,
            reuse_output=True,  # steady state: zero allocations per step
        )
    return EngineConfig(
        backend="procs",
        procs_inner="native",
        sync_every=sync_every,
        reuse_output=True,
    )


def _time_mode(config, islands, shape, state, steps, warmup):
    """Warm-up ``warmup`` steps, then time ``steps`` time steps (strided).

    ``warmup`` is the same for every sweep point so all finals come from
    the same total step count and stay comparable bit-for-bit.  Returns
    ``(final, seconds_per_step, syncs_per_step, allocs_per_step)`` where
    the sync and allocation counts come from the telemetry ledger over
    the timed super-steps only.
    """
    import numpy as np

    from repro.mpdata.stages import FIELD_X
    from repro.runtime import InMemorySink, MpdataIslandSolver, Telemetry

    sink = InMemorySink()
    stride = config.sync_every
    with MpdataIslandSolver(
        shape, islands, config=config, telemetry=Telemetry([sink])
    ) as solver:
        state.validate()
        arrays = solver._arrays(state)
        arrays[FIELD_X] = np.asarray(state.x, dtype=solver.runner.dtype)
        done = 0
        while done < warmup:
            advance = min(stride, warmup - done)
            arrays[FIELD_X] = solver.runner.step(
                arrays, changed={FIELD_X} if done else None, steps=advance
            )
            done += advance
        warm_events = len(sink.events)
        begin = time.perf_counter()
        done = 0
        while done < steps:
            advance = min(stride, steps - done)
            arrays[FIELD_X] = solver.runner.step(
                arrays, changed={FIELD_X}, steps=advance
            )
            done += advance
        elapsed = time.perf_counter() - begin
        final = np.array(arrays[FIELD_X], copy=True)
    timed = sink.events[warm_events:]
    syncs = sum(event.stats.stage_syncs for event in timed)
    allocs = sum(event.stats.allocations for event in timed)
    return final, elapsed / steps, syncs / steps, allocs / steps


def run(smoke: bool = False, json_path=None):
    """Sweep (islands, mode, sync_every); returns the payload dict."""
    import numpy as np

    from repro.mpdata import random_state

    shape = SMOKE_SHAPE if smoke else FULL_SHAPE
    steps = SMOKE_STEPS if smoke else FULL_STEPS
    syncs = SMOKE_SYNCS if smoke else FULL_SYNCS
    state = random_state(shape, seed=2017)
    warmup = max(syncs)  # same warm-up depth everywhere: finals comparable
    rows = []
    for islands in _island_counts(smoke):
        row = {"islands": islands, "modes": {}}
        reference = None
        identical = True
        for kind in ("threads", "procs"):
            by_sync = {}
            for sync_every in syncs:
                config = _mode_config(kind, islands, sync_every)
                final, step_time, syncs_per_step, allocs = _time_mode(
                    config, islands, shape, state, steps, warmup
                )
                if reference is None:  # threads, s=1: the baseline
                    reference = final
                identical = identical and bool(
                    np.array_equal(reference, final)
                )
                by_sync[str(sync_every)] = {
                    "step_time_s": step_time,
                    "syncs_per_step": syncs_per_step,
                    "allocations_per_step": allocs,
                }
            tuned = min(
                by_sync, key=lambda key: by_sync[key]["step_time_s"]
            )
            row["modes"][kind] = {
                "by_sync": by_sync,
                "tuned": int(tuned),
                "tuned_speedup": (
                    by_sync["1"]["step_time_s"]
                    / by_sync[tuned]["step_time_s"]
                ),
            }
        row["bit_identical"] = identical
        rows.append(row)
    payload = {
        "shape": list(shape),
        "steps": steps,
        "sync_every": list(syncs),
        "cpu_count": os.cpu_count() or 1,
        "rows": rows,
    }
    if json_path is not None:
        common.write_json(payload, json_path)
    return payload


def _render(payload):
    lines = [
        f"Temporal blocking ({'x'.join(str(n) for n in payload['shape'])}, "
        f"{payload['steps']} steps, {payload['cpu_count']} cpu(s))",
        f"{'islands':>7} {'mode':<8} {'s':>3} {'step time':>12} "
        f"{'syncs/step':>10} {'vs s=1':>8} {'bits':>5}",
    ]
    for row in payload["rows"]:
        for kind, mode in row["modes"].items():
            base = mode["by_sync"]["1"]["step_time_s"]
            for key, numbers in mode["by_sync"].items():
                speed = (
                    base / numbers["step_time_s"]
                    if numbers["step_time_s"]
                    else float("inf")
                )
                tuned = "*" if int(key) == mode["tuned"] else " "
                bits = (
                    ("ok" if row["bit_identical"] else "FAIL")
                    if kind == "procs" and key == list(mode["by_sync"])[-1]
                    else ""
                )
                lines.append(
                    f"{row['islands']:>7} {kind:<8} {key:>2}{tuned} "
                    f"{numbers['step_time_s'] * 1e3:>10.2f} ms "
                    f"{numbers['syncs_per_step']:>10.3f} "
                    f"{speed:>7.2f}x {bits:>5}"
                )
    return "\n".join(lines)


def _passed(payload, smoke):
    for row in payload["rows"]:
        if not row["bit_identical"]:
            return False
        for mode in row["modes"].values():
            base_syncs = mode["by_sync"]["1"]["syncs_per_step"]
            for key, numbers in mode["by_sync"].items():
                # The ledger must show barriers amortized exactly s-fold.
                if abs(numbers["syncs_per_step"] * int(key) - base_syncs) > 1e-9:
                    return False
                if numbers["allocations_per_step"] != 0:
                    return False  # steady state must not allocate
    if smoke or payload["cpu_count"] < 4:
        # One hardware core serializes the workers, so there is no
        # barrier idle time for blocking to reclaim; only the identity
        # and sync-ledger gates are meaningful.  The wall-clock gate
        # runs on multi-core CI.
        return True
    return any(
        row["modes"]["procs"]["tuned"] > 1
        and row["modes"]["procs"]["tuned_speedup"] > 1.0
        for row in payload["rows"]
        if row["islands"] >= 4
    )


def bench_temporal_blocking(benchmark, record_table):
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
