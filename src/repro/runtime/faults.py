"""Deterministic fault injection for the partitioned runtime.

Because islands synchronize only once per time step and are otherwise
independent (Sect. 4), the island is the natural unit of *failure
isolation*: an island task that dies can be re-executed in place without
touching its neighbours, exactly as it recomputes its transitive halo
instead of communicating.  Exercising that recovery machinery requires
faults on demand, so this module provides a **deterministic** injector:
every fault names the island index, the time step, and how many attempts
it fires for, which makes each recovery path — retry, rollback, guard
trip, degradation — individually testable and every test reproducible.

Five fault kinds cover the failure modes a long stencil run actually
sees:

``crash``
    The island task raises (:class:`InjectedFault`) before computing —
    a worker dying mid-step.  Recovered by per-island retry.
``kill``
    The island's *executor* dies, not just its task: under the ``procs``
    backend the worker process SIGKILLs itself mid-step (a real process
    crash — no exception propagates from inside the worker, only a dead
    pipe); in-process backends degrade it to ``crash``.  Recovered by
    per-island retry plus executor respawn
    (:meth:`~repro.runtime.backends.IslandBackend.refresh`).
``slow``
    The island task sleeps before computing — a straggler island (the
    load-imbalance pathology of Sect. 4.1 pushed to the extreme).  Never
    wrong, only late; surfaced in :class:`FaultStats`.
``hang``
    The island's executor stops *responding* — wedged in a syscall,
    spinning, silently dropping its reply — without dying.  Unlike
    ``slow``, which completes late, a hang never completes: under the
    ``procs`` backend the worker wedges mid-step and the parent's
    deadline supervision detects it (:class:`WorkerHung`), SIGKILLs
    and respawns the worker, and the retry replays the island.
    In-process backends have no executor that can wedge recoverably,
    so they skip the fault gracefully (counted, never applied).
``corrupt``
    The island writes a non-finite value into its part of the output —
    silent data corruption.  Invisible to retry (the task "succeeds"),
    caught by the numerical guards and recovered by checkpoint rollback.

Faults are *transient* by default (``attempts=1``): they fire the first
``attempts`` times their (step, island) site executes and never again, so
a retry or a rollback-and-replay of the same logical step runs clean.
Raising ``attempts`` above the runner's retry budget makes a fault
effectively permanent, which is how the exhaustion paths are tested.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "FaultStats",
    "InjectedFault",
    "WorkerHung",
    "parse_fault_spec",
]

FAULT_KINDS = ("crash", "kill", "slow", "corrupt", "hang")


class InjectedFault(RuntimeError):
    """Raised by a ``crash`` fault inside an island task."""

    def __init__(self, island: int, step: int, attempt: int) -> None:
        super().__init__(
            f"injected crash: island {island}, step {step}, attempt {attempt}"
        )
        self.island = island
        self.step = step
        self.attempt = attempt


class WorkerHung(RuntimeError):
    """An island's executor missed its deadline and was killed.

    Raised by the parent-side watchdog of a supervised backend (the
    ``procs`` backend's deadline-driven dispatch) after it SIGKILLed the
    wedged worker: no reply arrived within ``deadline`` seconds of the
    command (or, for a freshly forked worker, no ready report within the
    warm-up grace), and the process was still alive — a hang, not a
    crash.  ``waited`` is the detection latency actually paid.  The
    resilience layer treats it like any island fault: retry triggers a
    respawn and the step replays bit-identically.

    Lives here rather than next to the backend so the resilience layer
    (which backends must not import) can account for hangs without an
    import cycle.
    """

    def __init__(
        self,
        island: int,
        worker: int,
        pid: Optional[int],
        waited: float,
        deadline: float,
    ) -> None:
        super().__init__(
            f"worker {worker} (pid {pid}) hung on island {island}: no "
            f"reply after {waited:.3f}s (deadline {deadline:.3f}s); killed"
        )
        self.island = island
        self.worker = worker
        self.pid = pid
        self.waited = waited
        self.deadline = deadline


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault site.

    Parameters
    ----------
    kind:
        ``"crash"``, ``"kill"``, ``"slow"``, ``"corrupt"`` or ``"hang"``.
    island:
        Island index the fault targets.
    step:
        Logical time step (0-based) the fault targets; ``None`` matches
        every step (the fault still stops after ``attempts`` firings).
    attempts:
        How many executions of the site the fault fires for.  ``1``
        (default) is a transient fault — the first retry runs clean.
    delay:
        Sleep duration in seconds (``slow`` only).
    value:
        The poison written into the island's output (``corrupt`` only);
        defaults to NaN.
    """

    kind: str
    island: int
    step: Optional[int] = None
    attempts: int = 1
    delay: float = 0.01
    value: float = float("nan")

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.island < 0:
            raise ValueError("island index must be non-negative")
        if self.step is not None and self.step < 0:
            raise ValueError("step must be non-negative")
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    def matches(self, step: int, island: int) -> bool:
        return island == self.island and (self.step is None or step == self.step)


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse a CLI fault spec: ``kind@island=I[,step=S][,attempts=N][,...]``.

    Examples: ``crash@island=1,step=3``, ``slow@island=0,delay=0.2``,
    ``corrupt@island=2,step=10,value=inf``, ``crash@island=1,attempts=99``.
    """
    head, _, tail = text.partition("@")
    kind = head.strip().lower()
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} in {text!r}; known: "
            f"{', '.join(FAULT_KINDS)}"
        )
    fields: Dict[str, str] = {}
    if tail.strip():
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed fault field {item!r} in {text!r}")
            fields[key.strip().lower()] = value.strip()
    if "island" not in fields:
        raise ValueError(f"fault spec {text!r} must name island=<index>")
    known = {"island", "step", "attempts", "delay", "value"}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(
            f"unknown fault field(s) {sorted(unknown)} in {text!r}; "
            f"known: {sorted(known)}"
        )
    return FaultSpec(
        kind=kind,
        island=int(fields["island"]),
        step=int(fields["step"]) if "step" in fields else None,
        attempts=int(fields.get("attempts", 1)),
        delay=float(fields.get("delay", 0.01)),
        value=float(fields.get("value", "nan")),
    )


@dataclass
class FaultStats:
    """Counters for one runner's fault-tolerance activity.

    Surfaced alongside :class:`~repro.runtime.island_exec.StepStats`: the
    step stats say what a step *allocated*, these say what it *survived*.
    """

    injected_crashes: int = 0
    injected_kills: int = 0
    injected_slowdowns: int = 0
    injected_corruptions: int = 0
    injected_hangs: int = 0
    hangs_detected: int = 0
    hang_detect_seconds: float = 0.0
    quarantines: int = 0
    islands_remapped: int = 0
    retries: int = 0
    retry_successes: int = 0
    islands_failed: int = 0
    degraded_steps: int = 0

    def absorb(self, other: "FaultStats") -> None:
        """Add another counter set into this one, in place."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def since(self, base: "FaultStats") -> "FaultStats":
        """Counter deltas relative to an earlier snapshot of the same stats."""
        return FaultStats(
            **{
                name: getattr(self, name) - getattr(base, name)
                for name in self.__dataclass_fields__
            }
        )


class FaultInjector:
    """Deterministic fault oracle shared by every island task of a runner.

    The injector never touches arrays or raises by itself — it only
    answers "which faults fire at (step, island) right now?", counting
    firings per spec so transient faults exhaust.  The runner applies the
    answer (raise / sleep / poison), keeping injection mechanics in one
    place and policy here.  ``fire`` is thread-safe: concurrent island
    tasks consult one shared injector.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._fired: Dict[int, int] = {}  # spec position -> firings so far
        self._lock = threading.Lock()

    @classmethod
    def from_strings(cls, texts: Sequence[str]) -> "FaultInjector":
        return cls(parse_fault_spec(text) for text in texts)

    def fire(self, step: int, island: int) -> List[FaultSpec]:
        """Faults firing for this execution of (step, island), in order.

        Each call counts as one execution of the site: a spec with
        ``attempts=N`` is returned for the first N matching calls only,
        so a retried (or replayed) attempt beyond the budget runs clean.
        """
        fired: List[FaultSpec] = []
        with self._lock:
            for position, spec in enumerate(self.specs):
                if not spec.matches(step, island):
                    continue
                count = self._fired.get(position, 0)
                if count >= spec.attempts:
                    continue
                self._fired[position] = count + 1
                fired.append(spec)
        return fired

    def reset(self) -> None:
        """Forget all firing counts (reuse the injector for a fresh run)."""
        with self._lock:
            self._fired.clear()

    @property
    def exhausted(self) -> bool:
        """True when every spec has fired its full attempt budget."""
        with self._lock:
            return all(
                self._fired.get(position, 0) >= spec.attempts
                for position, spec in enumerate(self.specs)
            )


def apply_pre_faults(
    fired: Sequence[FaultSpec],
    stats: FaultStats,
    island: int,
    step: int,
    attempt: int,
    kill: Optional[Callable[[int, int, int], None]] = None,
    hang: Optional[Callable[[int, int, int], None]] = None,
) -> None:
    """Apply ``slow``/``hang``, then ``kill``/``crash`` faults pre-compute.

    Sleeps are applied first so a site carrying both kinds is slow *and*
    then dies, the worst case.  ``kill`` is the backend's executor-death
    hook (:meth:`~repro.runtime.backends.IslandBackend.inject_kill`):
    the default raises :class:`InjectedFault` exactly like ``crash``,
    while the ``procs`` backend arms a real SIGKILL of the worker
    process instead of raising.  ``hang`` is the executor-wedge hook
    (:meth:`~repro.runtime.backends.IslandBackend.inject_hang`): the
    default is a graceful no-op — an in-process island cannot be wedged
    and still recovered — while the ``procs`` backend arms a worker
    that never replies, exercising the deadline watchdog.  Mutating
    ``stats`` here is safe: the caller serializes per-island accounting
    (see ``PartitionedRunner``).
    """
    for spec in fired:
        if spec.kind == "slow":
            stats.injected_slowdowns += 1
            time.sleep(spec.delay)
        elif spec.kind == "hang":
            stats.injected_hangs += 1
            if hang is not None:
                hang(island, step, attempt)
    for spec in fired:
        if spec.kind == "kill":
            stats.injected_kills += 1
            if kill is None:
                raise InjectedFault(island, step, attempt)
            kill(island, step, attempt)
        elif spec.kind == "crash":
            stats.injected_crashes += 1
            raise InjectedFault(island, step, attempt)


def apply_post_faults(
    fired: Sequence[FaultSpec],
    stats: FaultStats,
    out_view: np.ndarray,
) -> None:
    """Apply ``corrupt`` faults to an island's freshly written output.

    The first point of ``out_view`` is overwritten in place (indexing,
    not ``reshape``, which would write into a copy of a strided view).
    """
    for spec in fired:
        if spec.kind == "corrupt":
            stats.injected_corruptions += 1
            out_view[(0,) * out_view.ndim] = spec.value
