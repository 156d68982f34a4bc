"""Checkpointed rollback-and-replay for long island runs.

The runner's per-island retry (:class:`~repro.runtime.island_exec.
PartitionedRunner`) handles faults that die loudly inside one island
task.  Two failure modes escape it: an island that keeps failing past
its retry budget, and silent numerical corruption — a step that
"succeeds" but produces NaN/Inf or leaks mass.  Both are handled here,
one level up, with the classic long-simulation remedy the checkpoint
module cites (Sect. 3.1): keep a known-good state, verify each step
against numerical guards (:func:`~repro.runtime.diagnostics.
check_step_health`), and on failure roll back and replay.

Replay is *bit-exact* by construction: every step recomputes the same
deterministic expressions from checkpoint state, and ghost filling is
deterministic, so a recovered run's final field equals the fault-free
run's to the last bit — the fault-tolerance analogue of the
reproduction's islands-vs-whole-domain verification.  Transient faults
do not re-fire on replay (the injector counts attempts per site), and a
*persistent* fault eventually exhausts ``max_rollbacks`` and surfaces
as :class:`UnrecoverableRunError` carrying the last on-disk checkpoint,
from which a fresh process can resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Set, Tuple, Union

import numpy as np

from ..mpdata.checkpoint import save_checkpoint
from ..mpdata.reference import MpdataState
from ..mpdata.stages import FIELD_DENSITY, FIELD_X
from .diagnostics import check_step_health, field_mass
from .faults import FaultStats
from .island_exec import IslandFailure

__all__ = [
    "NumericalHealthError",
    "RecoveryPolicy",
    "RecoveryReport",
    "UnrecoverableRunError",
    "run_with_recovery",
]


class NumericalHealthError(RuntimeError):
    """A step's output failed the numerical guards."""

    def __init__(self, reason: str, step: int) -> None:
        super().__init__(f"step {step} failed health check: {reason}")
        self.reason = reason
        self.step = step


class UnrecoverableRunError(RuntimeError):
    """The rollback budget is spent; the run cannot make progress.

    Carries where the run stood so a caller (or a fresh process) can
    resume: ``checkpoint_path`` names the last on-disk checkpoint (when
    the policy wrote any) and ``checkpoint_step`` the step it holds.
    """

    def __init__(
        self,
        failed_step: int,
        checkpoint_step: int,
        checkpoint_path: Optional[Path],
        cause: BaseException,
    ) -> None:
        where = (
            f"; last checkpoint: {checkpoint_path} (step {checkpoint_step})"
            if checkpoint_path is not None
            else f"; last good step: {checkpoint_step} (no on-disk checkpoint)"
        )
        super().__init__(
            f"run unrecoverable at step {failed_step}: rollback budget "
            f"exhausted ({cause}){where}"
        )
        self.failed_step = failed_step
        self.checkpoint_step = checkpoint_step
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class RecoveryPolicy:
    """What a fault-tolerant run checks, keeps, and tolerates.

    Parameters
    ----------
    checkpoint_every:
        Steps between known-good snapshots.  The in-memory snapshot is
        what rollback replays from; when ``checkpoint_dir`` is set the
        same state also goes to disk via
        :func:`repro.mpdata.checkpoint.save_checkpoint` (atomically),
        including one for the initial state, so a killed process can
        resume.  Shorter intervals bound replay work, longer intervals
        bound checkpoint overhead — the recompute-vs-remember analogue
        of the paper's recompute-vs-communicate trade.
    checkpoint_dir:
        Directory for on-disk checkpoints (``None``: in-memory only).
    keep_last:
        Prune on-disk checkpoints down to this many newest files after
        each write (0 keeps everything).
    check_finite:
        Guard every step's output against NaN/Inf.
    mass_drift_limit:
        When set, guard ``|mass - initial mass|`` per step (the
        advected scalar is conserved, so genuine drift means numerical
        sickness).
    max_rollbacks:
        Rollback-and-replay budget for the whole run; exhausted means
        :class:`UnrecoverableRunError`.
    """

    checkpoint_every: int = 10
    checkpoint_dir: Optional[Union[str, Path]] = None
    keep_last: int = 0
    check_finite: bool = True
    mass_drift_limit: Optional[float] = None
    max_rollbacks: int = 3

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if self.keep_last < 0:
            raise ValueError("keep_last must be non-negative")
        if self.max_rollbacks < 0:
            raise ValueError("max_rollbacks must be non-negative")
        if self.mass_drift_limit is not None and self.mass_drift_limit <= 0:
            raise ValueError("mass_drift_limit must be positive")


@dataclass
class RecoveryReport:
    """What it took to finish (or abandon) a fault-tolerant run."""

    steps: int
    completed_steps: int = 0
    rollbacks: int = 0
    replayed_steps: int = 0
    guard_trips: int = 0
    checkpoints_written: int = 0
    last_checkpoint_step: int = 0
    last_checkpoint_path: Optional[Path] = None
    degraded_to_serial: bool = False
    pool_serial: bool = False
    fault_stats: FaultStats = field(default_factory=FaultStats)

    @property
    def clean(self) -> bool:
        """True when the run needed no recovery action at all."""
        return (
            self.rollbacks == 0
            and self.guard_trips == 0
            and self.fault_stats.retries == 0
            and not self.degraded_to_serial
            and not self.pool_serial
        )

    def render(self) -> str:
        stats = self.fault_stats
        checkpoint = (
            f"{self.last_checkpoint_path} (step {self.last_checkpoint_step})"
            if self.last_checkpoint_path is not None
            else "in-memory only"
        )
        return "\n".join(
            [
                f"Recovery report: {self.completed_steps}/{self.steps} "
                f"steps completed"
                + (" (clean run — no recovery needed)" if self.clean else ""),
                f"  island retries      {stats.retries}"
                f" ({stats.retry_successes} recovered,"
                f" {stats.islands_failed} exhausted)",
                f"  guard trips         {self.guard_trips}",
                f"  rollbacks           {self.rollbacks}"
                f" ({self.replayed_steps} steps replayed)",
                f"  checkpoints written {self.checkpoints_written}"
                f"  [last: {checkpoint}]",
                f"  injected faults     {stats.injected_crashes} crash,"
                f" {stats.injected_kills} kill,"
                f" {stats.injected_slowdowns} slow,"
                f" {stats.injected_corruptions} corrupt,"
                f" {stats.injected_hangs} hang",
                f"  hangs detected      {stats.hangs_detected}"
                + (
                    f" (mean detection latency "
                    f"{stats.hang_detect_seconds / stats.hangs_detected:.3f}s)"
                    if stats.hangs_detected
                    else ""
                ),
                f"  workers quarantined {stats.quarantines}"
                f" ({stats.islands_remapped} islands remapped)",
                f"  degraded to serial  "
                f"{'yes' if self.degraded_to_serial else 'no'}"
                + (" (worker pool exhausted)" if self.pool_serial else ""),
            ]
        )


def _write_checkpoint(
    policy: RecoveryPolicy,
    report: RecoveryReport,
    written: List[Path],
    x: np.ndarray,
    state: MpdataState,
    step: int,
) -> None:
    """Snapshot ``x`` at ``step`` to disk and prune old files."""
    directory = Path(policy.checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = save_checkpoint(
        directory / f"checkpoint-{step:06d}",
        MpdataState(np.array(x, copy=True), state.u1, state.u2, state.u3, state.h),
        step,
        metadata={"writer": "repro.runtime.recovery"},
    )
    written.append(path)
    report.checkpoints_written += 1
    report.last_checkpoint_path = path
    if policy.keep_last:
        while len(written) > policy.keep_last:
            stale = written.pop(0)
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - already gone
                pass


def run_with_recovery(
    solver,
    state: MpdataState,
    steps: int,
    policy: RecoveryPolicy,
) -> Tuple[np.ndarray, RecoveryReport]:
    """Advance ``steps`` MPDATA steps under the recovery policy.

    Drives ``solver.runner`` exactly like
    :meth:`~repro.runtime.island_exec.MpdataIslandSolver.run` — validate
    once, step on raw arrays, only the scalar field changes — plus the
    recovery loop: guard each step, checkpoint every
    ``policy.checkpoint_every`` steps, and on an exhausted island or a
    guard trip restore the last good scalar field and replay from there.
    A guarded run asks each step for its mass, which a batched procs
    step sums in the workers; the guard then reads the field only when
    that mass is not finite.  Returns the final field and the
    :class:`RecoveryReport`.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    runner = solver.runner
    state.validate()
    arrays = solver._arrays(state)
    x0 = np.asarray(state.x, dtype=runner.dtype)
    arrays[FIELD_X] = x0

    report = RecoveryReport(steps=steps)
    fault_base = replace(runner.fault_stats)  # report only this run's activity
    initial_mass: Optional[float] = None
    if policy.mass_drift_limit is not None:
        initial_mass = field_mass(x0, state.h)

    # The last known-good scalar field, always a private copy — never an
    # alias of the runner's recycled output buffer.
    good_x = np.array(x0, copy=True)
    good_step = 0
    written: List[Path] = []
    if policy.checkpoint_dir is not None:
        _write_checkpoint(policy, report, written, good_x, state, 0)
        report.last_checkpoint_step = 0

    guarded = policy.check_finite or policy.mass_drift_limit is not None
    weights = FIELD_DENSITY if guarded else None
    step = 0
    changed: Optional[Set[str]] = None  # first step fills every ghost buffer
    while step < steps:
        try:
            new_x = runner.step(
                arrays, changed=changed, step_index=step, weights=weights
            )
            reason = (
                check_step_health(
                    new_x,
                    h=state.h,
                    initial_mass=initial_mass,
                    check_finite=policy.check_finite,
                    mass_drift_limit=policy.mass_drift_limit,
                    mass=runner.last_step_mass,
                )
                if guarded
                else None
            )
            if reason is not None:
                report.guard_trips += 1
                raise NumericalHealthError(reason, step)
        except (IslandFailure, NumericalHealthError) as error:
            if report.rollbacks >= policy.max_rollbacks:
                report.completed_steps = good_step
                report.degraded_to_serial = runner.degraded
                report.pool_serial = runner.backend.serial_fallback
                report.fault_stats = runner.fault_stats.since(fault_base)
                solver.last_recovery_report = report
                raise UnrecoverableRunError(
                    step, good_step, report.last_checkpoint_path, error
                ) from error
            # Roll back: replay from the last good field.  A guard trip
            # means the runner's output buffer holds poison, an island
            # failure that the runner already invalidated it; either way
            # only ``x`` was rolled back.  The static inputs' ghost
            # buffers live in the runner (in shared memory under procs),
            # which no retry or respawn touches, so the replayed step
            # refills ``x`` alone.
            report.rollbacks += 1
            arrays[FIELD_X] = good_x
            report.replayed_steps += step - good_step
            step = good_step
            changed = {FIELD_X}
            continue
        step += 1
        arrays[FIELD_X] = new_x
        changed = {FIELD_X}
        if step % policy.checkpoint_every == 0 and step < steps:
            good_x = np.array(new_x, copy=True)
            good_step = step
            if policy.checkpoint_dir is not None:
                _write_checkpoint(policy, report, written, good_x, state, step)
                report.last_checkpoint_step = step

    report.completed_steps = steps
    report.degraded_to_serial = runner.degraded
    report.pool_serial = runner.backend.serial_fallback
    report.fault_stats = runner.fault_stats.since(fault_base)
    solver.last_recovery_report = report
    return arrays[FIELD_X], report
