"""Benchmark: what fault tolerance costs when nothing goes wrong.

Times the same steady-state island run three ways — no recovery layer
(baseline), numerical guards on every step, and guards plus periodic
in-memory + on-disk checkpoints — and writes ``BENCH_faults.json`` at
the repository root.  The guards are only worth having if they are
effectively free on healthy runs: the acceptance bar is **< 5 %**
step-time overhead for guards-on vs the baseline, with the trajectory
bit-identical and the runner's steady state still allocation-free.

Run standalone (writes the JSON):

.. code-block:: console

    python benchmarks/bench_faults.py            # full config
    python benchmarks/bench_faults.py --smoke    # tiny, no JSON

or under the benchmark suite: ``pytest benchmarks/bench_faults.py``.
"""

from __future__ import annotations

import pathlib
import sys
import time

_HERE = str(pathlib.Path(__file__).resolve().parent)
if _HERE not in sys.path:  # also loaded by bare file path (tier-1 suite)
    sys.path.insert(0, _HERE)
import common

FULL_SHAPE = (128, 64, 16)
FULL_STEPS = 10
SMOKE_SHAPE = (32, 16, 8)
SMOKE_STEPS = 3
ISLANDS = 4
DEFAULT_JSON = common.default_json_path("BENCH_faults.json")


def run(smoke: bool = False, json_path=None, repeats=5):
    """Measure baseline vs guards vs guards+checkpoints; returns a dict.

    The three modes are timed **interleaved** (one round measures each
    mode once, best-of-``repeats`` rounds per mode): the guards cost a
    fraction of a millisecond per step, far below the machine's slow
    drift, so back-to-back blocks would mostly measure when each block
    happened to run.  Interleaving exposes every mode to the same noise.
    """
    import tempfile

    import numpy as np

    from repro.mpdata import random_state
    from repro.runtime import EngineConfig, MpdataIslandSolver, RecoveryPolicy

    shape = SMOKE_SHAPE if smoke else FULL_SHAPE
    steps = SMOKE_STEPS if smoke else FULL_STEPS
    state = random_state(shape, seed=0)
    config = EngineConfig(reuse_output=True, max_retries=2)

    def solver():
        return MpdataIslandSolver(shape, ISLANDS, config=config)

    guards = RecoveryPolicy(
        checkpoint_every=max(1, steps // 2), check_finite=True
    )
    with tempfile.TemporaryDirectory() as checkpoint_dir, \
            solver() as baseline_solver, \
            solver() as guarded_solver, \
            solver() as checkpointed_solver:
        guards_checkpoint = RecoveryPolicy(
            checkpoint_every=max(1, steps // 2),
            checkpoint_dir=checkpoint_dir,
            check_finite=True,
            keep_last=2,
        )
        modes = [
            ("baseline", baseline_solver, None),
            ("guards", guarded_solver, guards),
            ("guards_checkpoint", checkpointed_solver, guards_checkpoint),
        ]
        finals = {}
        best = {name: float("inf") for name, _, _ in modes}
        for name, mode_solver, policy in modes:  # warm every buffer
            mode_solver.run(state, 1, recovery=policy)
        for _ in range(repeats):
            for name, mode_solver, policy in modes:
                begin = time.perf_counter()
                final = mode_solver.run(state, steps, recovery=policy)
                best[name] = min(best[name], time.perf_counter() - begin)
                finals[name] = np.array(final, copy=True)
        baseline_stats = baseline_solver.last_step_stats
        guarded_stats = guarded_solver.last_step_stats

    baseline_time = best["baseline"] / steps
    mode_numbers = {"baseline": {"step_time_s": baseline_time}}
    for name in ("guards", "guards_checkpoint"):
        step_time = best[name] / steps
        mode_numbers[name] = {
            "step_time_s": step_time,
            "overhead_vs_baseline": step_time / baseline_time - 1.0,
        }
    report = {
        "shape": list(shape),
        "islands": ISLANDS,
        "steps": steps,
        "bit_identical": bool(
            np.array_equal(finals["baseline"], finals["guards"])
            and np.array_equal(finals["baseline"], finals["guards_checkpoint"])
        ),
        "steady_state_allocations_per_step": {
            "baseline": baseline_stats.allocations,
            "guards": guarded_stats.allocations,
        },
        "modes": mode_numbers,
    }
    if json_path is not None:
        common.write_json(report, json_path)
    return report


def render(report) -> str:
    ni, nj, nk = report["shape"]
    lines = [
        "Fault-tolerance overhead on a healthy run "
        f"({ni}x{nj}x{nk}, {report['islands']} islands, "
        f"{report['steps']} steps)",
        f"{'mode':<18} {'step time':>12} {'overhead':>10}",
    ]
    for mode, numbers in report["modes"].items():
        overhead = numbers.get("overhead_vs_baseline")
        overhead_text = "—" if overhead is None else f"{overhead * 100:+.2f}%"
        lines.append(
            f"{mode:<18} {numbers['step_time_s'] * 1e3:>10.2f} ms "
            f"{overhead_text:>10}"
        )
    lines.append(
        f"bit-identical: {report['bit_identical']},  steady-state "
        f"allocs/step with guards: "
        f"{report['steady_state_allocations_per_step']['guards']}"
    )
    return "\n".join(lines)


def bench_fault_tolerance_overhead(benchmark, record_table):
    """Benchmark-suite entry: smoke-sized, records the rendered table."""
    report = benchmark.pedantic(
        run, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    record_table(render(report))
    assert report["bit_identical"]
    assert report["steady_state_allocations_per_step"]["guards"] == 0


def _passed(report, smoke: bool) -> bool:
    if not report["bit_identical"]:
        return False
    if report["steady_state_allocations_per_step"]["guards"] != 0:
        return False
    if smoke:
        # Smoke timings are microseconds of work under CI noise; the
        # < 5 % bar is only meaningful on the full configuration.
        return True
    return report["modes"]["guards"]["overhead_vs_baseline"] < 0.05


def main() -> int:
    return common.bench_main(
        __doc__,
        DEFAULT_JSON,
        run,
        sections=lambda report: [(None, render(report))],
        passed=_passed,
    )


if __name__ == "__main__":
    raise SystemExit(main())
