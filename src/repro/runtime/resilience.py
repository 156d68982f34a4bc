"""Per-island retry and fault application over any backend.

The island is the unit of failure isolation: it recomputes its transitive
halo instead of communicating, so a failed island task can be re-executed
in place without touching its neighbours.  This module is that policy,
written once for every backend instead of once per execution path: a
:class:`ResilientExecutor` wraps an
:class:`~repro.runtime.backends.IslandBackend` and runs one island with
deterministic fault injection applied around the sweep, a bounded retry
loop, fresh backend resources after every failure
(:meth:`~repro.runtime.backends.IslandBackend.refresh`), and
:class:`IslandFailure` once the budget is spent.

What it deliberately does *not* do: poison the half-written output
buffer or decide how islands are scheduled — those stay with the runner,
which owns the output array and the island-level work team.  Silent
corruption and budget exhaustion are handled a level further up by
checkpointed rollback (:mod:`repro.runtime.recovery`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .backends import IslandBackend, IslandResult
from .config import EngineConfig
from .faults import (
    FaultInjector,
    FaultStats,
    WorkerHung,
    apply_post_faults,
    apply_pre_faults,
)

__all__ = ["IslandFailure", "ResiliencePolicy", "ResilientExecutor"]


class IslandFailure(RuntimeError):
    """An island task failed after exhausting its retry budget.

    The step it belonged to did **not** complete: the runner's persistent
    output buffer has been invalidated (filled with NaN and dropped from
    reuse) and ``last_step_stats`` reset to ``None``, so no caller can
    mistake the partial step for a successful one.
    """

    def __init__(
        self, island: int, step: int, attempts: int, cause: BaseException
    ) -> None:
        super().__init__(
            f"island {island} failed at step {step} after {attempts} "
            f"attempt(s): {cause!r}"
        )
        self.island = island
        self.step = step
        self.attempts = attempts


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard one island step tries before giving up.

    ``max_retries`` is the per-island retry budget within one step (an
    island fails its step after ``1 + max_retries`` attempts).  A retry
    runs at once: the failures it targets are transient task faults and
    dead or wedged workers, which a respawn clears, not contended
    external resources that waiting would free.
    """

    max_retries: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    @classmethod
    def from_config(cls, config: EngineConfig) -> "ResiliencePolicy":
        return cls(max_retries=config.max_retries)


class ResilientExecutor:
    """Run islands through a backend under a :class:`ResiliencePolicy`.

    One executor serves all of a runner's islands concurrently —
    :meth:`run_island` keeps no shared mutable state.  Fault accounting
    goes through the caller-supplied ``fault_stats`` factory so the
    runner can keep per-island slots that threaded islands never contend
    on; the factory is only invoked when there is something to count.
    """

    def __init__(
        self,
        backend: IslandBackend,
        policy: ResiliencePolicy,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.backend = backend
        self.policy = policy
        self.injector = injector

    def _attempt(
        self,
        island,
        step_index: int,
        attempt: int,
        call: Callable[[], IslandResult],
        view: Callable[[], Optional[np.ndarray]],
        fault_stats: Callable[[], FaultStats],
    ) -> IslandResult:
        """One attempt: the island's faults fired around a timed ``call``.

        A ``corrupt`` fault lands in ``view()``, the output the call just
        wrote (none when it returns ``None``).
        """
        fired = (
            self.injector.fire(step_index, island.index)
            if self.injector is not None
            else ()
        )
        if fired:
            apply_pre_faults(
                fired, fault_stats(), island.index, step_index, attempt,
                kill=self.backend.inject_kill,
                hang=self.backend.inject_hang,
            )
        begin = time.perf_counter() if self.backend.timed else 0.0
        result = call()
        if self.backend.timed:
            result.seconds = time.perf_counter() - begin
        if fired:
            written = view()
            if written is not None:
                apply_post_faults(fired, fault_stats(), written)
        return result

    def _with_retries(
        self,
        island,
        step_index: int,
        call: Callable[[], IslandResult],
        view: Callable[[], Optional[np.ndarray]],
        fault_stats: Callable[[], FaultStats],
    ) -> IslandResult:
        """The retry loop: attempt, retry within budget, or raise.

        Every failure, the last one included, leaves the island on fresh
        backend resources: a task that died mid-execution leaves its
        arena or workspace bookkeeping indeterminate, and a dead procs
        worker is respawned, so a retry, or a rollback that replays the
        step, runs on a live one.  Raises :class:`IslandFailure`
        (chained to the last error) once the island has failed
        ``1 + max_retries`` times.
        """
        attempt = 0
        while True:
            try:
                result = self._attempt(
                    island, step_index, attempt, call, view, fault_stats
                )
            except Exception as error:
                attempt += 1
                stats = fault_stats()
                if isinstance(error, WorkerHung):
                    stats.hangs_detected += 1
                    stats.hang_detect_seconds += error.waited
                self.backend.refresh(island.index)
                quarantines, remapped = self.backend.health_events()
                stats.quarantines += quarantines
                stats.islands_remapped += remapped
                if attempt > self.policy.max_retries:
                    stats.islands_failed += 1
                    raise IslandFailure(
                        island.index, step_index, attempt, error
                    ) from error
                stats.retries += 1
            else:
                if attempt:
                    fault_stats().retry_successes += 1
                return result

    def run_island(
        self,
        island,
        step_index: int,
        inputs: Mapping[str, object],
        out: np.ndarray,
        fault_stats: Callable[[], FaultStats],
    ) -> IslandResult:
        """One island's whole step, retried in place."""
        return self._with_retries(
            island,
            step_index,
            lambda: self.backend.execute_island(island, inputs, out),
            lambda: out[island.part.slices()],
            fault_stats,
        )

    def run_island_stage(
        self,
        island,
        stage_index: int,
        step_index: int,
        inputs: Mapping[str, object],
        fault_stats: Callable[[], FaultStats],
    ) -> IslandResult:
        """One island's single stage (exchange policy), retried in place.

        The retry replays only the failed stage: earlier stage buffers —
        including halo planes received from neighbours — are persistent
        backend state and remain valid, so the stage-granular retry keeps
        the same isolation the whole-step retry has under recompute.
        """
        return self._with_retries(
            island,
            step_index,
            lambda: self.backend.execute_island_stage(
                island, stage_index, inputs
            ),
            lambda: self.backend.owned_stage_view(island, stage_index),
            fault_stats,
        )
