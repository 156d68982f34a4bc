"""Measurement harness for the steady-state execution engine.

Runs the same partitioned MPDATA configuration twice — once in naive mode
(every step re-allocates ghost buffers, stage storage, scratch and the
output; the pre-engine behaviour) and once in steady-state mode (all of
those persist across steps) — then reports per-step wall time and
allocation counts, and checks the two trajectories are bit-identical.

This is the per-process analogue of the paper's per-step overhead
argument: Table 1's gap between the original and (3+1)D versions is halo
traffic and synchronization paid every time step; here the analogous
recurring cost is allocator traffic, and the engine eliminates it.  Used
by ``python -m repro engine``, ``benchmarks/bench_steady_state.py`` and
the tier-1 smoke test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..core import Variant, partition_grid_2d
from ..mpdata.fields import random_state
from ..mpdata.stages import FIELD_X
from ..stencil import full_box
from .config import EngineConfig
from .island_exec import MpdataIslandSolver
from .telemetry import InMemorySink, JsonlSink, TableSink, Telemetry

__all__ = [
    "SteadyStateReport",
    "measure_steady_state",
]


@dataclass
class SteadyStateReport:
    """Naive vs steady-state engine measurements for one configuration."""

    shape: Tuple[int, int, int]
    islands: int
    threads: int
    steps: int
    bit_identical: bool
    halo: str = "recompute"
    backend: str = "interpreter"
    #: mode name -> {"step_time_s", "allocations_per_step", "reused_per_step",
    #:               "warmup_allocations", "exchanged_bytes_per_step",
    #:               "stage_syncs"}  (all normalized per time step)
    modes: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def allocation_ratio(self) -> float:
        """Naive allocations per steady-state step over the engine's."""
        naive = self.modes["naive"]["allocations_per_step"]
        engine = self.modes["engine"]["allocations_per_step"]
        return naive / engine if engine else float("inf")

    @property
    def speedup(self) -> float:
        """Naive step time over engine step time (>1 means engine faster)."""
        engine = self.modes["engine"]["step_time_s"]
        return self.modes["naive"]["step_time_s"] / engine if engine else float("inf")

    def to_dict(self) -> Dict[str, object]:
        # A zero-allocation engine makes the ratio infinite; strict JSON
        # has no Infinity literal, so serialize that case as null.
        ratio = self.allocation_ratio
        return {
            "shape": list(self.shape),
            "islands": self.islands,
            "threads": self.threads,
            "steps": self.steps,
            "bit_identical": self.bit_identical,
            "halo": self.halo,
            "backend": self.backend,
            "modes": self.modes,
            "allocation_ratio": ratio if np.isfinite(ratio) else None,
            "speedup": self.speedup,
        }

    def render(self) -> str:
        ni, nj, nk = self.shape
        lines = [
            "Steady-state execution engine "
            f"({ni}x{nj}x{nk}, {self.islands} islands, "
            f"{self.threads} threads, {self.steps} steps, "
            f"backend {self.backend}, halo {self.halo})",
            f"{'mode':<8} {'step time':>12} {'allocs/step':>12} "
            f"{'reused/step':>12} {'warm-up allocs':>15}",
        ]
        for mode in ("naive", "engine"):
            numbers = self.modes[mode]
            lines.append(
                f"{mode:<8} {numbers['step_time_s'] * 1e3:>10.2f} ms "
                f"{numbers['allocations_per_step']:>12.1f} "
                f"{numbers['reused_per_step']:>12.1f} "
                f"{numbers['warmup_allocations']:>15.0f}"
            )
        ratio = self.allocation_ratio
        ratio_text = "inf" if ratio == float("inf") else f"{ratio:.1f}"
        lines.append(
            f"allocation ratio (naive/engine): {ratio_text}x,  "
            f"speedup: {self.speedup:.2f}x,  "
            f"bit-identical: {self.bit_identical}"
        )
        engine = self.modes.get("engine", {})
        if engine.get("exchanged_bytes_per_step"):
            lines.append(
                f"halo exchange: "
                f"{engine['exchanged_bytes_per_step'] / 1024:.1f} KiB/step, "
                f"{engine['stage_syncs']:.2f} stage syncs/step"
            )
        return "\n".join(lines)


def _run_mode(
    solver: MpdataIslandSolver, state, steps: int, sink: InMemorySink
) -> Tuple[np.ndarray, Dict[str, float], float]:
    """Warm up one step, then time ``steps`` more, mirroring ``run()``.

    Per-step counters come off the telemetry ``sink`` the solver was
    built with — the timing loop itself only steps, it never reads the
    runner's stats.
    """
    state.validate()
    arrays = solver._arrays(state)
    arrays[FIELD_X] = np.asarray(state.x, dtype=solver.runner.dtype)

    arrays[FIELD_X] = solver.runner.step(arrays)  # warm-up fills every buffer
    warmup_allocations = sink.last.stats.allocations

    begin = time.perf_counter()
    for _ in range(steps):
        arrays[FIELD_X] = solver.runner.step(arrays, changed={FIELD_X})
    elapsed = time.perf_counter() - begin
    timed = sink.events[1:]
    numbers = {
        "step_time_s": elapsed / steps,
        "allocations_per_step": sum(e.stats.allocations for e in timed) / steps,
        "reused_per_step": sum(e.stats.reused for e in timed) / steps,
        "warmup_allocations": float(warmup_allocations),
        "exchanged_bytes_per_step": (
            sum(e.stats.exchanged_bytes for e in timed) / steps
        ),
        "stage_syncs": sum(e.stats.stage_syncs for e in timed) / steps,
        # Per-runner constants: how much of this mode's plan compilation
        # was served from the process-wide plan cache.
        "plan_cache_hits": float(sink.last.stats.plan_cache_hits),
        "plan_cache_misses": float(sink.last.stats.plan_cache_misses),
    }
    return np.array(arrays[FIELD_X], copy=True), numbers, elapsed


def _mode_telemetry(
    jsonl_path: Optional[str],
) -> Tuple[Telemetry, InMemorySink]:
    """An in-memory spine for one measured mode, plus an optional JSONL tap."""
    sink = InMemorySink()
    sinks = [sink]
    if jsonl_path is not None:
        sinks.append(JsonlSink(jsonl_path))
    return Telemetry(sinks), sink


def measure_steady_state(
    shape: Tuple[int, int, int] = (128, 64, 16),
    steps: int = 10,
    islands: int = 4,
    threads: int = 1,
    boundary: str = "periodic",
    seed: int = 0,
    state=None,
    telemetry_jsonl: Optional[str] = None,
    halo: str = "recompute",
    halo_threshold: Optional[int] = None,
    variant: Variant = Variant.A,
    partition_grid: Optional[Tuple[int, int]] = None,
    backend: str = "interpreter",
    workers: Optional[int] = None,
    pin_workers: bool = False,
    step_deadline: Optional[float] = None,
    deadline_factor: Optional[float] = None,
    quarantine_after: Optional[int] = None,
    telemetry_table: bool = False,
) -> SteadyStateReport:
    """Measure naive vs engine stepping on one configuration.

    Both modes advance ``1 + steps`` identical time steps from the same
    initial state (one warm-up step, then the timed steady-state window)
    and must produce bit-identical trajectories.  ``telemetry_jsonl``
    additionally streams the engine mode's per-step events to a JSON
    Lines file.  ``halo`` selects the boundary policy (recompute /
    exchange / hybrid); ``partition_grid=(pi, pj)`` decomposes over a 2D
    island grid instead of 1D slabs (``variant`` must be ``GRID_2D``).
    ``backend`` is the registry key (e.g. ``"procs"``, whose worker
    count, CPU pinning and deadline
    supervision come from ``workers`` / ``pin_workers`` /
    ``step_deadline`` / ``deadline_factor`` / ``quarantine_after``;
    ``None`` for the last three keeps the config defaults, and ``0`` for
    the factor or quarantine threshold disables that half).
    """
    if state is None:
        state = random_state(shape, seed=seed)
    partition = None
    if partition_grid is not None:
        pi, pj = partition_grid
        partition = partition_grid_2d(full_box(shape), pi, pj)
        islands = partition.count
    procs = backend == "procs"
    supervision = {}
    if procs:
        if deadline_factor is not None:
            supervision["deadline_factor"] = deadline_factor or None
        if quarantine_after is not None:
            supervision["quarantine_after"] = quarantine_after or None
    base = EngineConfig(
        backend=backend,
        boundary=boundary,
        threads=threads,
        halo=halo,
        halo_threshold=halo_threshold,
        workers=workers if procs else None,
        pin_workers=pin_workers if procs else False,
        step_deadline=step_deadline if procs else None,
        **supervision,
    )
    report = SteadyStateReport(
        shape=tuple(shape),
        islands=islands,
        threads=threads,
        steps=steps,
        bit_identical=False,
        halo=halo,
        backend=backend,
    )
    results = {}
    for mode, reuse in (("naive", False), ("engine", True)):
        telemetry, sink = _mode_telemetry(
            telemetry_jsonl if mode == "engine" else None
        )
        table_sink = None
        if telemetry_table and mode == "engine":
            table_sink = TableSink()
            telemetry = telemetry.with_sinks(table_sink)
        with MpdataIslandSolver(
            shape,
            islands,
            config=replace(base, reuse_buffers=reuse, reuse_output=reuse),
            telemetry=telemetry,
            variant=variant,
            partition=partition,
        ) as solver:
            final, numbers, _ = _run_mode(solver, state, steps, sink)
        results[mode] = final
        report.modes[mode] = numbers
        if table_sink is not None:
            print("engine per-step telemetry:")
            print(table_sink.render())
            print()
    report.bit_identical = bool(np.array_equal(results["naive"], results["engine"]))
    return report
