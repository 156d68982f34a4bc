"""Benchmark: interpreter vs fused native C kernels.

The native backend lowers every stage through the kernel IR and fuses
its whole three-address chain into a single C loop nest, so each grid
point is loaded once, flows through registers, and is stored once —
where the interpreter materializes every intermediate as a full array
sweep.  This benchmark measures both levels of that claim:

* **stage kernels** — per-stage wall time of the 17 MPDATA stages on an
  L3-resident grid, interpreter vs native (timed plans, best-of-N).  The
  acceptance gate is a native speedup of >= 5x over the interpreter on
  at least one L3-resident stage (the fusion win), checked only when a
  native toolchain is present.
* **engine steps** — whole-step time across grids and island counts for
  the in-process backends (threads) and the procs pool with native
  workers, all bit-identical to the interpreter.

Writes ``BENCH_native.json`` at the repository root.  Run standalone:

.. code-block:: console

    python benchmarks/bench_native.py           # full config
    python benchmarks/bench_native.py --smoke   # tiny, no JSON

or under the benchmark suite: ``pytest benchmarks/bench_native.py``.
"""

from __future__ import annotations

import os
import pathlib
import statistics
import sys
import time

_HERE = str(pathlib.Path(__file__).resolve().parent)
if _HERE not in sys.path:  # also loaded by bare file path (tier-1 suite)
    sys.path.insert(0, _HERE)
import common

STAGE_SHAPE = (48, 40, 24)  # ~360 KiB per field: comfortably L3-resident
STAGE_REPS = 5
FULL_SHAPES = ((48, 32, 16), (96, 64, 32))
FULL_STEPS = 5
FULL_ISLANDS = (1, 2, 4)
SMOKE_SHAPE = (24, 16, 8)
SMOKE_STEPS = 2
SMOKE_ISLANDS = (2,)
DEFAULT_JSON = common.default_json_path("BENCH_native.json")


def _stage_kernel_rows(shape, reps):
    """Best-of-``reps`` per-stage seconds, interpreter and native."""
    from repro.mpdata import MpdataSolver, mpdata_program, random_state
    from repro.stencil import (
        compile_plan_native,
        execute_plan,
        required_regions,
    )

    program = mpdata_program()
    solver = MpdataSolver(shape)
    inputs = solver.prepare_inputs(random_state(shape, seed=3))
    plan = required_regions(
        program, solver.domain, domain=solver.extended_domain
    )

    interp = {}
    for _ in range(reps):
        _, stats = execute_plan(
            program, plan, inputs, reuse_buffers=True, collect_timing=True
        )
        for name, seconds in stats.stage_seconds.items():
            interp[name] = min(interp.get(name, float("inf")), seconds)

    def best_of(compiled):
        compiled(inputs)  # warm-up
        best = {}
        for _ in range(reps):
            before = dict(compiled.stage_seconds)
            compiled(inputs)
            after = compiled.stage_seconds
            for name in after:
                best[name] = min(
                    best.get(name, float("inf")),
                    after[name] - before.get(name, 0.0),
                )
        return best

    native_best = best_of(compile_plan_native(program, plan, timed=True))
    rows = []
    for stage in program.stages:
        name = stage.name
        rows.append(
            {
                "stage": name,
                "interpreter_s": interp[name],
                "native_s": native_best[name],
                "speedup_vs_interpreter": interp[name] / native_best[name],
            }
        )
    return rows


def _time_mode(config, islands, shape, state, steps):
    """Warm-up one step, time ``steps`` more; returns (final, s/step, sink)."""
    import numpy as np

    from repro.mpdata.stages import FIELD_X
    from repro.runtime import InMemorySink, MpdataIslandSolver, Telemetry

    sink = InMemorySink()
    with MpdataIslandSolver(
        shape, islands, config=config, telemetry=Telemetry([sink])
    ) as solver:
        arrays = solver._arrays(state)
        arrays[FIELD_X] = np.asarray(state.x, dtype=solver.runner.dtype)
        arrays[FIELD_X] = solver.runner.step(arrays)  # warm-up
        begin = time.perf_counter()
        for _ in range(steps):
            arrays[FIELD_X] = solver.runner.step(arrays, changed={FIELD_X})
        elapsed = time.perf_counter() - begin
        final = np.array(arrays[FIELD_X], copy=True)
    return final, elapsed / steps, sink


def _mode_configs(islands, with_native):
    from repro.runtime import EngineConfig

    modes = {
        "interpreter": EngineConfig(
            backend="interpreter", threads=islands, reuse_output=True
        ),
    }
    if with_native:
        modes["native"] = EngineConfig(
            backend="native", threads=islands, reuse_output=True
        )
        modes["procs+native"] = EngineConfig(
            backend="procs", procs_inner="native", reuse_output=True
        )
    return modes


def run(smoke: bool = False, json_path=None):
    """Measure both levels; returns the payload dict."""
    import numpy as np

    from repro.mpdata import random_state
    from repro.stencil import native_available

    with_native = native_available()
    shapes = (SMOKE_SHAPE,) if smoke else FULL_SHAPES
    steps = SMOKE_STEPS if smoke else FULL_STEPS
    island_counts = SMOKE_ISLANDS if smoke else FULL_ISLANDS

    payload = {
        "cpu_count": os.cpu_count() or 1,
        "native_available": with_native,
        "steps": steps,
        "stage_kernels": None,
        "engine_rows": [],
    }

    if with_native:
        stage_shape = SMOKE_SHAPE if smoke else STAGE_SHAPE
        rows = _stage_kernel_rows(stage_shape, STAGE_REPS)
        speedups = [r["speedup_vs_interpreter"] for r in rows]
        payload["stage_kernels"] = {
            "shape": list(stage_shape),
            "reps": STAGE_REPS,
            "rows": rows,
            "min_speedup_vs_interpreter": min(speedups),
            "median_speedup_vs_interpreter": statistics.median(speedups),
            "max_speedup_vs_interpreter": max(speedups),
        }

    for shape in shapes:
        state = random_state(shape, seed=2017)
        for islands in island_counts:
            row = {"shape": list(shape), "islands": islands, "modes": {}}
            finals = {}
            for kind, config in _mode_configs(islands, with_native).items():
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
                    "plan_cache_hits": sink.last.stats.plan_cache_hits,
                }
            reference = finals["interpreter"]
            row["bit_identical"] = all(
                bool(np.array_equal(final, reference))
                for final in finals.values()
            )
            if with_native:
                row["native_speedup_vs_interpreter"] = (
                    row["modes"]["interpreter"]["step_time_s"]
                    / row["modes"]["native"]["step_time_s"]
                )
            payload["engine_rows"].append(row)

    if json_path is not None:
        common.write_json(payload, json_path)
    return payload


def _render(payload):
    lines = [
        f"Interpreter vs native "
        f"({payload['steps']} steps, {payload['cpu_count']} cpu(s), "
        f"native {'present' if payload['native_available'] else 'ABSENT'})"
    ]
    kernels = payload["stage_kernels"]
    if kernels:
        lines.append(
            f"stage kernels on {'x'.join(map(str, kernels['shape']))} "
            f"(best of {kernels['reps']}):"
        )
        lines.append(
            f"{'stage':<16} {'interp':>10} {'native':>10} {'vs interp':>10}"
        )
        for row in kernels["rows"]:
            lines.append(
                f"{row['stage']:<16} {row['interpreter_s'] * 1e6:>8.1f} us "
                f"{row['native_s'] * 1e6:>8.1f} us "
                f"{row['speedup_vs_interpreter']:>9.1f}x"
            )
        lines.append(
            f"min {kernels['min_speedup_vs_interpreter']:.1f}x / median "
            f"{kernels['median_speedup_vs_interpreter']:.1f}x / max "
            f"{kernels['max_speedup_vs_interpreter']:.1f}x vs interpreter"
        )
    lines.append(
        f"{'shape':<12} {'islands':>7} {'mode':<13} {'step time':>12} "
        f"{'allocs':>7} {'bits':>5}"
    )
    for row in payload["engine_rows"]:
        for kind, numbers in row["modes"].items():
            bits = "ok" if row["bit_identical"] else "FAIL"
            lines.append(
                f"{'x'.join(map(str, row['shape'])):<12} "
                f"{row['islands']:>7} {kind:<13} "
                f"{numbers['step_time_s'] * 1e3:>10.2f} ms "
                f"{numbers['allocations_per_step']:>7.1f} {bits:>5}"
            )
    return "\n".join(lines)


def _passed(payload, smoke):
    if not all(row["bit_identical"] for row in payload["engine_rows"]):
        return False
    if not payload["native_available"]:
        # Correctness of the remaining tiers is all that is checkable.
        return True
    if smoke:
        return True
    # The fusion gate: at least one L3-resident stage kernel must beat
    # the interpreter by 5x (measured margin is ~15x; the cheapest
    # halo-thin stages are timer-jitter-bound and are not gated).
    return payload["stage_kernels"]["max_speedup_vs_interpreter"] >= 5.0


def bench_native_kernels(benchmark, record_table):
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
