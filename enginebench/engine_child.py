"""One workload in a fresh process: the measured half of the engine benchmark.

``bench_engine.py`` starts this file once per role and reads the JSON
object it prints as its last line:

``prime``
    Build the workload's solver and run one step, so the on-disk native
    kernel cache is warm for every later process.
``setup``
    Time solver construction through the end of the first step (one
    ``setup_s`` sample: warm kernel cache, cold in-process plan cache).
``build``
    The same, run by the orchestrator with an empty private kernel cache
    (``stencil.kernel_build_s``).
``run``
    The measured run through ``MpdataIslandSolver.run(state, steps,
    recovery=...)``, followed by the correctness gates.  Every run takes
    one ``perf_counter`` reading per step and probes the host's speed
    between steps (:class:`StepClock`).  With ``--trace`` the benchmark
    also wraps the public entry points of each layer
    (``PartitionedRunner.step`` / ``.extend_inputs``,
    ``ResilientExecutor.run_island[_stage]``, ``create_backend``,
    ``save_checkpoint``, ``check_step_health``) and reads the engine's own
    per-stage seconds (``EngineConfig(collect_timings=True)``).

Nothing here changes the engine: the wrappers are attributes set on the
benchmark's own solver objects and module names inside this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

import numpy as np
from workloads import BY_NAME, Workload

from repro.mpdata.checkpoint import save_checkpoint
from repro.mpdata.fields import random_state
from repro.runtime import island_exec
from repro.runtime import recovery as recovery_module
from repro.runtime.config import EngineConfig
from repro.runtime.diagnostics import check_step_health
from repro.runtime.island_exec import MpdataIslandSolver
from repro.runtime.recovery import RecoveryPolicy

clock = time.perf_counter

#: Steps of the prefix checked bit for bit against the interpreter.
PREFIX_STEPS = 3
#: Largest relative mass drift accepted over a whole run.
MASS_DRIFT_LIMIT = 1e-12


def _build(
    workload: Workload,
    shape,
    seed: int,
    steps: int,
    trace: bool,
    checkpoint_dir: Optional[str],
    smoke: bool,
):
    config = EngineConfig(**workload.engine_kwargs(seed, steps, trace))
    policy = None
    kwargs = workload.recovery_kwargs(smoke)
    if kwargs is not None:
        policy = RecoveryPolicy(checkpoint_dir=checkpoint_dir, **kwargs)
    solver = MpdataIslandSolver(shape, workload.islands, config=config)
    return solver, policy


def _first_step(workload: Workload, args) -> Dict[str, Any]:
    """Construction through the end of step one (``prime``/``setup``/``build``).

    A ``setup`` sample also probes the host first, so the orchestrator
    can rescale it like the step times.
    """
    shape = workload.grid(args.smoke)
    state = random_state(shape, args.seed)
    result: Dict[str, Any] = {}
    if args.role == "setup":
        probe = HostProbe(workload.team)
        result["probe_s"] = probe.measure()
        probe.close()
        del probe  # return its arrays before the timed construction
    checkpoints = tempfile.mkdtemp(prefix="ckpt-", dir=args.workdir)
    try:
        begin = clock()
        solver, policy = _build(
            workload, shape, args.seed, args.steps, False, checkpoints,
            args.smoke,
        )
        try:
            solver.run(state, 1, recovery=policy)
            result["seconds"] = clock() - begin
        finally:
            solver.close()
    finally:
        shutil.rmtree(checkpoints, ignore_errors=True)
    return result


class HostProbe:
    """A fixed NumPy stencil sweep that measures how fast the host is now.

    The shared host's speed drifts by tens of percent over minutes, and
    every workload drifts with it.  The probe does the same work on
    every commit (it uses no engine code): one sweep over 32 MB of arrays
    per thread, well past the private caches and a large share of the L3
    the host's tenants share, so it feels the same cache and memory
    contention the stage kernels do, on as many threads as the workload
    keeps busy.  :meth:`Workload.host_factor` turns a probe time into the
    factor that rescales a time measured now to the reference host's
    speed.
    """

    SHAPE = (128, 128, 64)
    REPEATS = 2

    def __init__(self, threads: int) -> None:
        self.threads = threads
        rng = np.random.default_rng(0)
        inner = tuple(n - 2 for n in self.SHAPE)
        self.sets = [
            (rng.random(self.SHAPE) + 1.0, rng.random(self.SHAPE),
             np.empty(inner), np.empty(inner))
            for _ in range(threads)
        ]
        self.pool = ThreadPoolExecutor(threads) if threads > 1 else None

    @property
    def nbytes(self) -> int:
        """Memory the probe's arrays hold resident during the run."""
        return sum(a.nbytes for arrays in self.sets for a in arrays)

    @staticmethod
    def _sweep(arrays) -> None:
        a, b, t1, t2 = arrays
        c = a[1:-1, 1:-1, 1:-1]
        np.subtract(b[2:, 1:-1, 1:-1], b[:-2, 1:-1, 1:-1], out=t1)
        np.multiply(t1, 0.5, out=t1)
        np.add(t1, c, out=t1)
        np.subtract(b[1:-1, 2:, 1:-1], b[1:-1, :-2, 1:-1], out=t2)
        np.add(t1, t2, out=t1)
        np.subtract(b[1:-1, 1:-1, 2:], b[1:-1, 1:-1, :-2], out=t2)
        np.add(t1, t2, out=t1)
        np.abs(t1, out=t2)
        np.add(t2, 1.0, out=t2)
        np.divide(c, t2, out=t2)
        np.maximum(t1, t2, out=t1)

    def measure(self) -> float:
        """Seconds of one probe: the best of a few repeats."""
        best = float("inf")
        for _ in range(self.REPEATS):
            begin = clock()
            if self.pool is None:
                self._sweep(self.sets[0])
            else:
                for future in [self.pool.submit(self._sweep, s) for s in self.sets]:
                    future.result()
            best = min(best, clock() - begin)
        return best

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()


class StepClock:
    """One ``perf_counter`` reading per step, on traced and untraced runs.

    Every :data:`ROUND_S` seconds it runs the :class:`HostProbe` between
    two steps; the probe's time is left out of the step intervals (and
    counted in :attr:`paused`) and its CPU time is counted separately.
    It also keeps a copy of the field after step :data:`PREFIX_STEPS`, so
    the measured run itself is checked against the interpreter.
    """

    ROUND_S = 1.0

    def __init__(self, runner, probe: HostProbe, workload: Workload) -> None:
        self.intervals: List[float] = []
        self.rounds: List[int] = []  # the probe round of each interval
        self.probes: List[float] = []
        self.probe_cpu = 0.0
        self.paused = 0.0  # wall seconds spent probing inside the run
        self.prefix: Optional[np.ndarray] = None
        self.probe = probe
        self.workload = workload
        step = runner.step

        def timed_step(*args, **kwargs):
            out = step(*args, **kwargs)
            now = clock()
            self.intervals.append(now - self.last)
            self.rounds.append(len(self.probes) - 1)
            self.last = now
            if kwargs.get("step_index", 0) + kwargs.get("steps", 1) == PREFIX_STEPS:
                self.prefix = np.array(out, copy=True)
            if now - self.round_start >= self.ROUND_S:
                self._probe()
                self.paused += self.last - now
            return out

        runner.step = timed_step

    def _probe(self) -> None:
        cpu = time.process_time()
        self.probes.append(self.probe.measure())
        self.probe_cpu += time.process_time() - cpu
        self.last = self.round_start = clock()

    def start(self) -> None:
        self._probe()

    def finish(self) -> None:
        if self.rounds and self.rounds[-1] == len(self.probes) - 1:
            self._probe()  # close the last round

    def normalized(self) -> List[float]:
        """Step intervals rescaled to the reference host speed, using the
        mean of the two probes around each interval's round."""
        factors = [
            self.workload.host_factor((a + b) / 2.0)
            for a, b in zip(self.probes, self.probes[1:])
        ]
        return [dt * factors[r] for dt, r in zip(self.intervals, self.rounds)]


class LayerTrace:
    """Spans around each layer's public entry points, kept in memory.

    Per successful step it keeps ``(begin, end, ghost fills, island
    calls, step stats, retried)``; an island call is ``(island, stage,
    begin, end, kernel seconds)`` with ``stage = -1`` for a whole-step
    sweep.
    """

    def __init__(self, runner) -> None:
        self.steps: List[tuple] = []
        self.fills: List[float] = []
        self.calls: List[tuple] = []
        step = runner.step
        extend = runner.extend_inputs
        run_island = runner.resilience.run_island
        run_island_stage = runner.resilience.run_island_stage

        def kernel_seconds(result) -> float:
            return sum(result.stage_seconds.values()) if result.stage_seconds else 0.0

        def traced_extend(*args, **kwargs):
            begin = clock()
            regions = extend(*args, **kwargs)
            self.fills.append(clock() - begin)
            return regions

        def traced_island(island, *args, **kwargs):
            begin = clock()
            result = run_island(island, *args, **kwargs)
            self.calls.append(
                (island.index, -1, begin, clock(), kernel_seconds(result))
            )
            return result

        def traced_island_stage(island, stage, *args, **kwargs):
            begin = clock()
            result = run_island_stage(island, stage, *args, **kwargs)
            self.calls.append(
                (island.index, stage, begin, clock(), kernel_seconds(result))
            )
            return result

        def traced_step(*args, **kwargs):
            self.fills = []
            self.calls = []
            retries = runner.fault_stats.retries
            begin = clock()
            out = step(*args, **kwargs)
            end = clock()
            retried = runner.fault_stats.retries != retries
            self.steps.append(
                (begin, end, self.fills, self.calls, runner.last_step_stats, retried)
            )
            return out

        runner.extend_inputs = traced_extend
        runner.resilience.run_island = traced_island
        runner.resilience.run_island_stage = traced_island_stage
        runner.step = traced_step


def _timed(target, sink: List[tuple]):
    """Wrap a module-level function, recording ``(seconds, result)``."""

    def wrapper(*args, **kwargs):
        begin = clock()
        result = target(*args, **kwargs)
        sink.append((clock() - begin, result))
        return result

    return wrapper


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _interpreter_prefix(shape, seed: int) -> np.ndarray:
    """The 1-island interpreter's field after :data:`PREFIX_STEPS` steps."""
    state = random_state(shape, seed)
    config = EngineConfig(backend="interpreter")
    with MpdataIslandSolver(shape, 1, config=config) as reference:
        return np.array(reference.run(state, PREFIX_STEPS), copy=True)


def _layer_metrics(
    workload: Workload, trace: LayerTrace, runner, run_wall: float,
    checkpoints: List[tuple], guards: List[tuple], cells: int,
) -> Dict[str, Any]:
    """Per-layer numbers from the recorded spans of one traced run."""
    fill_ms, residual_ms, island_busy_ms, imbalance, rtt_ms = [], [], [], [], []
    allocs, exchanged = [], []
    fill_total = fanout_total = overhead_total = busy_total = wall_total = 0.0
    stage_totals: Dict[str, float] = defaultdict(float)
    after_retry = False
    for begin, end, fills, calls, stats, retried in trace.steps:
        wall = end - begin
        fill = sum(fills)
        fanouts: Dict[int, List[float]] = {}
        for _island, stage, t0, t1, _kernel in calls:
            span = fanouts.setdefault(stage, [t0, t1])
            span[0] = min(span[0], t0)
            span[1] = max(span[1], t1)
        fanout = sum(t1 - t0 for t0, t1 in fanouts.values())
        fill_ms.append(fill * 1e3)
        residual_ms.append((wall - fill - fanout) * 1e3)
        fill_total += fill
        fanout_total += fanout
        wall_total += wall
        # A lane (procs worker) serves its islands one command at a time,
        # so a call's round trip starts when it gets the lane, not when
        # its dispatch thread started waiting for it.
        lane_free: Dict[int, float] = {}
        busy: Dict[int, float] = defaultdict(float)
        for island, _stage, t0, t1, kernel in sorted(calls, key=lambda c: c[3]):
            lane = workload.lane(island)
            start = max(t0, lane_free.get(lane, t0))
            lane_free[lane] = t1
            rtt = t1 - start
            rtt_ms.append(rtt * 1e3)
            busy[island] += rtt
            overhead_total += rtt - kernel
        if busy:
            island_busy_ms.extend(b * 1e3 for b in busy.values())
            mean = sum(busy.values()) / len(busy)
            imbalance.append(max(busy.values()) / mean if mean else 1.0)
            busy_total += sum(busy.values())
        # A retry rebuilds the failed island's buffers, and a respawned
        # procs worker fills its other islands' buffers on the next step;
        # both allocate by design and are left out of the steady state.
        if not (retried or after_retry):
            allocs.append(stats.allocations)
        after_retry = retried
        exchanged.append(stats.exchanged_bytes)
        if stats.timings is not None:
            for name, seconds in stats.timings.stage_seconds.items():
                stage_totals[name] += seconds
    recorded = max(1, len(trace.steps))
    kernel_total = sum(stage_totals.values())
    procs = {
        "procs.rtt_ms_p50": _median(rtt_ms),
        "procs.worker_kernel_ms_per_step": kernel_total / recorded * 1e3,
        "procs.overhead_ms_per_step": overhead_total / recorded * 1e3,
    }
    if workload.engine["backend"] != "procs":
        # No procs layer: no round trips to measure.
        procs = dict.fromkeys(procs, 0.0)
    ledger = runner.halo_ledger
    computed = sum(b.size for boxes in ledger.compute_boxes for b in boxes)
    named = (
        fill_total
        + fanout_total
        + sum(s for s, _ in checkpoints)
        + sum(s for s, _ in guards)
    )
    return {
        "stage_ns_per_cell": {
            name: seconds / (recorded * cells) * 1e9
            for name, seconds in stage_totals.items()
        },
        "stage_seconds": dict(stage_totals),
        "stencil.kernel_ms_per_step": kernel_total / recorded * 1e3,
        "stencil.plan_cache_misses": runner.plan_cache_misses,
        "backends.island_ms_p50": _median(island_busy_ms),
        "backends.island_calls_per_step": sum(len(s[3]) for s in trace.steps)
        / recorded,
        "backends.team_utilization": busy_total / (workload.team * wall_total)
        if wall_total
        else 0.0,
        "backends.imbalance": _median(imbalance),
        "island_exec.ghost_fill_ms": _median(fill_ms),
        "island_exec.residual_ms": _median(residual_ms),
        "island_exec.syncs_per_step": runner.syncs_per_step,
        "island_exec.exchanged_mb_per_step": _median(exchanged) / 1e6,
        "island_exec.redundant_frac": ledger.redundant_points / computed
        if computed
        else 0.0,
        # Step one fills every buffer; the steady state is what is gated.
        "island_exec.allocs_per_step": sum(allocs[1:]) / max(1, len(allocs) - 1),
        **procs,
        "driver.unattributed_frac": 1.0 - named / run_wall,
    }


def _model_rank_rho(runner, stage_seconds: Dict[str, float]) -> float:
    """Spearman rho of measured stage seconds vs the IR cost model."""
    from repro.machine.costmodel import kernel_estimates, spearman_rank_correlation
    from repro.stencil.lowering import lower_plan

    predicted: Dict[str, float] = defaultdict(float)
    for island in runner.decomposition.islands:
        for estimate in kernel_estimates(lower_plan(runner.program, island.halo_plan)):
            predicted[estimate.name] += estimate.seconds
    names = sorted(set(predicted) & set(stage_seconds))
    return spearman_rank_correlation(
        [predicted[n] for n in names], [stage_seconds[n] for n in names]
    )


def _run(workload: Workload, args) -> Dict[str, Any]:
    shape = workload.grid(args.smoke)
    cells = shape[0] * shape[1] * shape[2]
    state = random_state(shape, args.seed)
    initial_mass = float((state.h * state.x).sum())
    trace = bool(args.trace)
    checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=args.workdir)
    create_calls: List[tuple] = []
    checkpoints: List[tuple] = []
    guards: List[tuple] = []
    checkpoint_sizes: List[int] = []
    if trace:
        island_exec.create_backend = _timed(island_exec.create_backend, create_calls)

        def sized_checkpoint(*a, **k):
            path = save_checkpoint(*a, **k)
            checkpoint_sizes.append(path.stat().st_size)
            return path

        recovery_module.save_checkpoint = _timed(sized_checkpoint, checkpoints)
        recovery_module.check_step_health = _timed(check_step_health, guards)
    probe = HostProbe(workload.team)
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result: Dict[str, Any] = {"steps": args.steps, "cells": cells}
    try:
        solver, policy = _build(
            workload, shape, args.seed, args.steps, trace, checkpoint_dir,
            args.smoke,
        )
        try:
            runner = solver.runner
            # The layer spans go on first, so the step clock's readings
            # and probes stay outside every span.
            spans = LayerTrace(runner) if trace else None
            instrument = StepClock(runner, probe, workload)
            instrument.start()
            begin = clock()
            final = solver.run(state, args.steps, recovery=policy)
            run_wall = clock() - begin - instrument.paused
            instrument.finish()
            # Under procs + reuse_output the returned field is a view of
            # shared memory that close() unmaps: copy it first.
            final = np.array(final, copy=True)
            report = solver.last_recovery_report
            faults = runner.fault_stats
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if trace:
                layers = _layer_metrics(
                    workload, spans, runner, run_wall, checkpoints, guards, cells,
                )
                rho = _model_rank_rho(runner, layers.pop("stage_seconds"))
                layers["stencil.model_rank_rho"] = rho
                layers["backends.prepare_s"] = sum(s for s, _ in create_calls)
        finally:
            solver.close()
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (
        (self_after.ru_utime - self_before.ru_utime)
        + (self_after.ru_stime - self_before.ru_stime)
        + (children_after.ru_utime - children_before.ru_utime)
        + (children_after.ru_stime - children_before.ru_stime)
    )
    probe.close()
    cpu -= instrument.probe_cpu
    peak_rss_kb -= probe.nbytes / 1024
    lost = 0
    replayed = 0
    rollbacks = 0
    if report is not None:
        lost = report.steps - report.completed_steps
        replayed = report.replayed_steps
        rollbacks = report.rollbacks
    result.update(
        {
            "step_intervals_ms": [dt * 1e3 for dt in instrument.intervals],
            "step_norm_ms": [dt * 1e3 for dt in instrument.normalized()],
            "probe_ms": [p * 1e3 for p in instrument.probes],
            "run_wall_s": run_wall,
            "cpu_s": cpu,
            "peak_rss_kb": peak_rss_kb,
            "failed_steps": lost + replayed,
            "retries": faults.retries,
            "rollbacks": rollbacks,
            "injected_kills": faults.injected_kills,
            "hangs_detected": faults.hangs_detected,
            "injected_hangs": faults.injected_hangs,
            "kills_scheduled": len(workload.kill_specs(args.seed, args.steps)),
        }
    )
    if trace:
        # Without a RecoveryPolicy nothing checkpoints or guards, so these
        # have no calls to measure and read 0.
        layers["recovery.checkpoint_ms"] = _median(s for s, _ in checkpoints) * 1e3
        layers["recovery.checkpoint_mb"] = _median(checkpoint_sizes) / 1e6
        layers["recovery.guard_ms"] = _median(s for s, _ in guards) * 1e3
        result["layers"] = layers
    result["gates"] = _gates(workload, shape, args.seed, final, state,
                             initial_mass, instrument.prefix, result, trace)
    return result


def _gates(workload, shape, seed, final, state, initial_mass, prefix,
           result, trace) -> Dict[str, bool]:
    """The correctness gates; every one must hold for a run to count."""
    mass = float((state.h * final).sum())
    gates = {
        "prefix_matches_interpreter": prefix is not None
        and bool(np.array_equal(prefix, _interpreter_prefix(shape, seed))),
        "mass_conserved": abs(mass - initial_mass) / initial_mass <= MASS_DRIFT_LIMIT,
        "finite": bool(np.isfinite(final).all()),
        "sign_preserved": float(final.min()) >= 0.0,
        "no_failed_steps": result["failed_steps"] == 0,
        "kills_fired": result["injected_kills"] == result["kills_scheduled"],
        "no_false_hangs": result["hangs_detected"] == result["injected_hangs"],
    }
    if trace:
        gates["zero_steady_allocations"] = (
            result["layers"]["island_exec.allocs_per_step"] == 0
        )
    return gates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("prime", "setup", "build", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    workload = BY_NAME[args.workload]
    if args.role == "run":
        result = _run(workload, args)
    else:
        result = _first_step(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
