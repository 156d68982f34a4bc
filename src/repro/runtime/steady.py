"""Measurement harness for the steady-state execution engine.

Runs one partitioned MPDATA configuration, as its
:class:`~repro.runtime.config.EngineConfig` gives it, and reports the
steady state: per-step wall time and array allocations after the first
step, which builds every buffer.  The final field is checked bit for bit
against the whole-domain :class:`~repro.mpdata.solver.MpdataSolver` (the
oracle :func:`~repro.runtime.verify.verify_islands` uses), with or
without injected faults and a :class:`~repro.runtime.recovery
.RecoveryPolicy`.

This is the per-process analogue of the paper's per-step overhead
argument: Table 1's gap between the original and (3+1)D versions is halo
traffic and synchronization paid every time step; here the analogous
recurring cost is allocator traffic, and the engine pays none of it.
Used by ``python -m repro engine``, ``benchmarks/bench_halo.py`` and the
tier-1 tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core import Variant, partition_grid_2d
from ..mpdata.fields import random_state
from ..mpdata.solver import MpdataSolver
from ..stencil import full_box
from .config import EngineConfig, resolve_engine_config
from .island_exec import MpdataIslandSolver
from .recovery import RecoveryPolicy, RecoveryReport, UnrecoverableRunError
from .telemetry import InMemorySink, StepTimings, Telemetry, TelemetrySink

__all__ = [
    "SteadyStateReport",
    "measure_steady_state",
]


@dataclass
class SteadyStateReport:
    """One engine run: its steady-state counters and its bit-for-bit
    check against the whole-domain solver.

    The per-step numbers are means over the steady-state window: every
    step the runner completed after the first (``steady_steps`` of them,
    replayed steps included).
    """

    shape: Tuple[int, int, int]
    islands: int
    steps: int
    config: EngineConfig
    bit_identical: bool = False
    steady_steps: int = 0
    step_time_s: float = 0.0
    allocations_per_step: float = 0.0
    reused_per_step: float = 0.0
    exchanged_bytes_per_step: float = 0.0
    stage_syncs: float = 0.0
    #: What the first step allocated.
    warmup_allocations: int = 0
    #: The recovery ledger, when the run had a policy.
    recovery: Optional[RecoveryReport] = None
    #: The last step's timings, when ``config.collect_timings`` is set.
    timings: Optional[StepTimings] = None
    #: Why an unrecoverable run stopped (``None``: it finished).
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "shape": list(self.shape),
            "islands": self.islands,
            "steps": self.steps,
            "config": self.config.to_dict(),
            "bit_identical": self.bit_identical,
            "steady_steps": self.steady_steps,
            "step_time_s": self.step_time_s,
            "allocations_per_step": self.allocations_per_step,
            "reused_per_step": self.reused_per_step,
            "exchanged_bytes_per_step": self.exchanged_bytes_per_step,
            "stage_syncs": self.stage_syncs,
            "warmup_allocations": self.warmup_allocations,
            "timings": None if self.timings is None else self.timings.to_dict(),
            "error": self.error,
        }

    def render(self) -> str:
        ni, nj, nk = self.shape
        config = self.config
        lines = [
            f"Engine run ({ni}x{nj}x{nk}, {self.islands} islands, "
            f"{config.threads} threads, {self.steps} steps, "
            f"backend {config.backend}, halo {config.halo})",
            f"warm-up step: {self.warmup_allocations} allocations",
        ]
        if self.steady_steps:
            lines.append(
                f"steady state ({self.steady_steps} steps): "
                f"{self.step_time_s * 1e3:.2f} ms/step, "
                f"{self.allocations_per_step:.1f} allocations/step, "
                f"{self.reused_per_step:.1f} reused/step"
            )
        if self.exchanged_bytes_per_step:
            lines.append(
                f"halo exchange: "
                f"{self.exchanged_bytes_per_step / 1024:.1f} KiB/step, "
                f"{self.stage_syncs:.2f} stage syncs/step"
            )
        if self.recovery is not None:
            lines.append(self.recovery.render())
        if self.timings is not None:
            lines += ["last step timings:", self.timings.render()]
        if self.error is not None:
            lines.append(f"UNRECOVERABLE: {self.error}")
        else:
            lines.append(
                "bit-identical to the whole-domain solver: "
                f"{self.bit_identical}"
            )
        return "\n".join(lines)


def measure_steady_state(
    config: Optional[EngineConfig] = None,
    shape: Tuple[int, int, int] = (128, 64, 16),
    steps: int = 10,
    islands: int = 4,
    *,
    variant: Variant = Variant.A,
    partition_grid: Optional[Tuple[int, int]] = None,
    recovery: Optional[RecoveryPolicy] = None,
    sinks: Sequence[TelemetrySink] = (),
) -> SteadyStateReport:
    """Run ``steps`` time steps of one configuration and report them.

    The engine runs once, through :meth:`MpdataIslandSolver.run` — under
    ``recovery`` when given — from a random state (seed 0).
    ``partition_grid=(pi, pj)`` decomposes over a 2D island grid instead
    of 1D slabs (``variant`` must be ``GRID_2D``).  ``sinks`` receive
    every step's telemetry event besides the report's own.  An
    unrecoverable run is reported, not raised: ``error`` says why it
    stopped, and ``bit_identical`` stays ``False``.
    """
    config = resolve_engine_config(config, "measure_steady_state")
    state = random_state(shape, seed=0)
    partition = None
    if partition_grid is not None:
        pi, pj = partition_grid
        partition = partition_grid_2d(full_box(shape), pi, pj)
        islands = partition.count
    report = SteadyStateReport(
        shape=tuple(shape), islands=islands, steps=steps, config=config
    )
    sink = InMemorySink()
    with MpdataIslandSolver(
        shape,
        islands,
        variant=variant,
        config=config,
        partition=partition,
        telemetry=Telemetry([sink, *sinks]),
    ) as solver:
        try:
            final = np.array(
                solver.run(state, steps, recovery=recovery), copy=True
            )
        except UnrecoverableRunError as error:
            final = None
            report.error = str(error)
        report.recovery = solver.last_recovery_report
    events = sink.events
    if events:
        report.warmup_allocations = events[0].stats.allocations
        report.timings = events[-1].stats.timings
    steady = events[1:]
    report.steady_steps = len(steady)
    if steady:
        count = len(steady)
        report.step_time_s = sum(e.wall_seconds for e in steady) / count
        report.allocations_per_step = (
            sum(e.stats.allocations for e in steady) / count
        )
        report.reused_per_step = sum(e.stats.reused for e in steady) / count
        report.exchanged_bytes_per_step = (
            sum(e.stats.exchanged_bytes for e in steady) / count
        )
        report.stage_syncs = sum(e.stats.stage_syncs for e in steady) / count
    if final is not None:
        whole = MpdataSolver(
            shape, boundary=config.boundary, dtype=config.numpy_dtype
        )
        report.bit_identical = bool(
            np.array_equal(final, whole.run(state, steps))
        )
    return report
