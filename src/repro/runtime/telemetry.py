"""Telemetry spine for the partitioned runtime.

One engine step produces three kinds of evidence: what it *allocated*
(:class:`StepStats`), where its wall time *went* (:class:`StepTimings`),
and what it *survived* (:class:`~repro.runtime.faults.FaultStats`).
Before this module each consumer — the CLI ``--timings`` report, the
benchmarks, the experiments — read those records straight off the runner
with its own glue.  The telemetry spine unifies them: every successful
step can be recorded as one structured :class:`StepEvent`, and pluggable
sinks decide what happens to the stream — keep it in memory
(:class:`InMemorySink`), append it to a JSONL file (:class:`JsonlSink`),
or render it as a live table (:class:`TableSink`).

Telemetry is strictly additive: a runner without sinks records nothing
and pays nothing beyond what it already paid to fill
``last_step_stats``, and recording never allocates NumPy arrays — the
steady-state 0 allocs/step guarantee is unaffected.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from .faults import FaultStats

__all__ = [
    "InMemorySink",
    "JsonlSink",
    "StepEvent",
    "StepStats",
    "StepTimings",
    "TableSink",
    "Telemetry",
    "TelemetrySink",
]


@dataclass(frozen=True)
class StepTimings:
    """Where one partitioned step's wall time went.

    Collected by :class:`~repro.runtime.island_exec.PartitionedRunner`
    when ``collect_timings`` is set, and the evidence that makes a
    kernel comparison attributable: *which* stages got cheaper, and
    which island set the step's critical path.

    Attributes
    ----------
    island_seconds:
        Compute wall time of each island's sweep this step (faults and
        retries excluded).  The maximum is the step's parallel critical
        path; the sum is the serialized compute.
    stage_seconds:
        Wall seconds per stage name, summed over islands.
        Available from the native engines (timed plans) and the
        interpreter; empty when the backend cannot attribute stages.
    """

    island_seconds: Tuple[float, ...]
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def critical_path_seconds(self) -> float:
        """Slowest island — what a perfectly parallel step would take."""
        return max(self.island_seconds, default=0.0)

    @property
    def total_compute_seconds(self) -> float:
        """Sum of all island sweeps — the serialized compute time."""
        return sum(self.island_seconds)

    def top_stages(self, count: int = 5) -> Tuple[Tuple[str, float], ...]:
        """The ``count`` most expensive stages, descending."""
        ranked = sorted(
            self.stage_seconds.items(), key=lambda item: item[1], reverse=True
        )
        return tuple(ranked[:count])

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form for telemetry sinks."""
        return {
            "island_seconds": list(self.island_seconds),
            "stage_seconds": dict(self.stage_seconds),
        }

    def render(self, top: int = 5) -> str:
        """Human-readable breakdown for the engine CLI report."""
        lines = [
            f"islands: critical path {self.critical_path_seconds * 1e3:.2f} ms, "
            f"total compute {self.total_compute_seconds * 1e3:.2f} ms "
            f"({len(self.island_seconds)} islands)"
        ]
        for index, seconds in enumerate(self.island_seconds):
            lines.append(f"  island {index}: {seconds * 1e3:8.2f} ms")
        if self.stage_seconds:
            lines.append(f"top stages (of {len(self.stage_seconds)}):")
            for name, seconds in self.top_stages(top):
                lines.append(f"  {name:<24} {seconds * 1e3:8.2f} ms")
        return "\n".join(lines)


@dataclass(frozen=True)
class StepStats:
    """Array traffic of one :meth:`PartitionedRunner.step` call.

    ``allocations`` counts every fresh NumPy array the step created
    (ghost-extended inputs, the assembled output, per-island stage storage
    and ufunc scratch); ``reused`` counts buffer-pool hits.  A warmed-up
    steady-state step reports ``allocations == 0``.

    ``timings`` (populated when the runner was built with
    ``collect_timings``) attributes the step's wall time: per-island sweep
    times and per-stage seconds — see :class:`StepTimings`.

    The halo-policy counters make the paper's computation/communication
    identity observable per run: ``exchanged_bytes`` is what this step
    shipped between island buffers (0 under pure recompute),
    ``stage_syncs`` how many inter-island barriers it took, and
    ``redundant_points`` how many stage points were computed beyond the
    once-per-point minimum (0 under pure exchange).

    ``plan_cache_hits`` / ``plan_cache_misses`` report how many of this
    runner's native plans were served from the
    process-wide plan cache at construction time (see
    :mod:`repro.stencil.plancache`).  They are a property of the runner,
    so every step of one runner reports the same numbers.
    """

    allocations: int
    reused: int
    ghost_allocations: int = 0
    output_allocations: int = 0
    stage_allocations: int = 0
    scratch_allocations: int = 0
    exchanged_bytes: int = 0
    stage_syncs: int = 0
    redundant_points: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    timings: Optional[StepTimings] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form for telemetry sinks."""
        return {
            "allocations": self.allocations,
            "reused": self.reused,
            "ghost_allocations": self.ghost_allocations,
            "output_allocations": self.output_allocations,
            "stage_allocations": self.stage_allocations,
            "scratch_allocations": self.scratch_allocations,
            "exchanged_bytes": self.exchanged_bytes,
            "stage_syncs": self.stage_syncs,
            "redundant_points": self.redundant_points,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "timings": self.timings.to_dict() if self.timings else None,
        }


@dataclass(frozen=True)
class StepEvent:
    """One successful engine step as a structured telemetry record.

    The unification the spine exists for: allocation counters
    (:class:`StepStats`, including its optional :class:`StepTimings`)
    and fault-tolerance activity (:class:`FaultStats` deltas for *this*
    step only) under one timestamped record.  Failed steps emit no
    event — a failed step is never observable as a successful one,
    telemetry included.
    """

    step: int
    wall_seconds: float
    stats: StepStats
    faults: Optional[FaultStats] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (strict JSON: no NaN/Infinity emitted here)."""
        payload: Dict[str, object] = {
            "step": self.step,
            "wall_seconds": self.wall_seconds,
        }
        payload.update(self.stats.to_dict())
        payload["faults"] = (
            {
                name: getattr(self.faults, name)
                for name in FaultStats.__dataclass_fields__
            }
            if self.faults is not None
            else None
        )
        return payload

    def render(self) -> str:
        """One table row: step, wall time, traffic, recovery activity."""
        faults = self.faults
        survived = (
            f"{faults.retries:>7d} {faults.retry_successes:>9d}"
            if faults is not None
            else f"{'—':>7} {'—':>9}"
        )
        return (
            f"{self.step:>5d} {self.wall_seconds * 1e3:>10.2f} "
            f"{self.stats.allocations:>11d} {self.stats.reused:>11d} "
            f"{self.stats.stage_syncs:>5d} {survived}"
        )

    @staticmethod
    def render_header() -> str:
        return (
            f"{'step':>5} {'wall ms':>10} {'allocs':>11} "
            f"{'reused':>11} {'syncs':>5} {'retries':>7} {'recovered':>9}"
        )


class TelemetrySink:
    """Consumer of :class:`StepEvent` records.

    Subclasses override :meth:`emit`; :meth:`close` is optional.  Sinks
    must not raise on emit — a telemetry failure must never fail a step —
    so implementations keep their failure modes (e.g. a full disk) inside
    :meth:`close`, where the caller can handle them.
    """

    def emit(self, event: StepEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (idempotent; default: nothing)."""


class InMemorySink(TelemetrySink):
    """Keep the event stream in memory (optionally only the last N).

    The default sink for benchmarks and tests: cheap, inspectable, and —
    with ``capacity`` — bounded, so a million-step run cannot grow it
    without limit.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None)")
        self.capacity = capacity
        self.events: List[StepEvent] = []

    def emit(self, event: StepEvent) -> None:
        self.events.append(event)
        if self.capacity is not None and len(self.events) > self.capacity:
            del self.events[0]

    @property
    def last(self) -> Optional[StepEvent]:
        return self.events[-1] if self.events else None


class JsonlSink(TelemetrySink):
    """Append one JSON object per step to a file (JSON Lines).

    The file is opened lazily on the first event and closed by
    :meth:`close`, so constructing a runner with a JSONL sink that never
    steps leaves no empty file behind.

    The sink is safe for concurrent producers — backend dispatch threads
    fan island timings in from worker processes, and several runners may
    share one sink: each event is serialized first and written as one
    ``write()`` call under a lock, so rows never interleave and every
    line parses.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._handle: Optional[TextIO] = None
        self._lock = threading.Lock()
        self.events_written = 0

    def emit(self, event: StepEvent) -> None:
        line = json.dumps(event.to_dict()) + "\n"
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "w")
            self._handle.write(line)
            self.events_written += 1

    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()


class TableSink(TelemetrySink):
    """Render each event as a row of a fixed-width table.

    With a ``stream`` the rows appear live (the header before the first
    row, the run summary on :meth:`close`); without one they accumulate
    and :meth:`render` returns the whole table — the form the engine CLI
    prints.  The sink keeps run-level synchronization totals as it goes:
    ``total_syncs`` over ``total_steps`` time steps, whose ratio
    :meth:`summary` reports.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream
        self.rows: List[str] = []
        self.total_steps = 0
        self.total_syncs = 0

    def emit(self, event: StepEvent) -> None:
        row = event.render()
        if self.stream is not None and not self.rows:
            print(StepEvent.render_header(), file=self.stream)
        self.rows.append(row)
        self.total_steps += 1
        self.total_syncs += event.stats.stage_syncs
        if self.stream is not None:
            print(row, file=self.stream)

    def summary(self) -> str:
        """Run-level totals: steps, syncs paid, syncs/step."""
        per_step = self.total_syncs / max(1, self.total_steps)
        return (
            f"total: {self.total_steps} steps, {self.total_syncs} syncs "
            f"({per_step:.3f} syncs/step)"
        )

    def render(self) -> str:
        lines = [StepEvent.render_header(), *self.rows]
        if self.rows:
            lines.append(self.summary())
        return "\n".join(lines)

    def close(self) -> None:
        if self.stream is not None and self.rows:
            print(self.summary(), file=self.stream)


class Telemetry:
    """A bundle of sinks the runner feeds after every successful step.

    ``Telemetry()`` (no sinks) is inert: :attr:`enabled` is False and the
    runner skips event construction entirely, so the zero-sink fast path
    costs one attribute check per step.

    ``record`` is serialized by a lock: several producers — runners in
    different threads, or dispatch threads merging worker-process results
    — may feed one spine, and each event must land in every sink as one
    unbroken record.
    """

    def __init__(self, sinks: Sequence[TelemetrySink] = ()) -> None:
        self.sinks: Tuple[TelemetrySink, ...] = tuple(sinks)
        self.last_event: Optional[StepEvent] = None
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return bool(self.sinks)

    def record(self, event: StepEvent) -> None:
        with self._lock:
            self.last_event = event
            for sink in self.sinks:
                sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

