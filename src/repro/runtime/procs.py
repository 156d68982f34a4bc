"""True multi-core islands: one persistent worker *process* per island.

Every other backend executes islands as threads under the GIL, so the
"parallelism" the simulator reports is the cost model's, not the
machine's.  This backend is the first where islands-vs-(3+1)D wall-clock
reflects the paper's mechanism: each island (or a round-robin group of
islands when ``workers`` < islands) is owned by a persistent worker
process, and all mutable grid state lives in
:mod:`multiprocessing.shared_memory` arenas mapped by parent and workers
alike:

* the **ghost-extended inputs** — the runner fills them in place through
  :meth:`~repro.runtime.backends.IslandBackend.allocate_ghost`, workers
  read them zero-copy.  Native workers under ``recompute`` keep ghost
  buffers for the static inputs only, filled once per run: they gather
  the time-varying input (MPDATA's ``x``) straight from the output
  buffer that holds it, applying the boundary as they read;
* the **assembled output** — workers publish their parts directly
  through :meth:`~repro.runtime.backends.IslandBackend.allocate_output`,
  no cross-process copy on the hot path.  Workers that gather ``x`` get
  two output buffers, which the runner alternates: each step reads one
  and writes the other, and a foreign ``x`` (the first step's, or one
  restored by a rollback) is staged into the one the step does not
  write;
* in exchange halo mode, the **per-stage buffers** — the parent's
  existing :class:`~repro.core.halo.HaloLedger` boundary-copy loop works
  on the very same bytes the workers compute into.

Workers are forked (POSIX only), so they inherit the parent's program,
decomposition and shared-memory views with no pickling; each worker then
builds its *own* islands' compute state — arenas, native plan workspaces —
in its own address space, the first-touch-style per-island initialization
of Wittmann/Hager (arXiv 0912.4506).  The step protocol is the paper's
one-barrier-per-step.  A fault-free ``recompute`` step is one round trip
per worker (:meth:`ProcsBackend.batch_step`): the calling thread sends
every live worker one command naming all of its islands, the worker runs
them back to back and replies once — with each island part's mass when
asked — and the parent waits on every pipe at once.  Every other step
(one where an injected fault can fire, an exchange stage, the rerun of a
failed batched step) issues one command per island from the runner's
pool threads, and the pipe joins are the barrier — under exchange mode
once per stage.  A worker never has more than one command in flight: a
round trip holds the worker's lock from the send to the reply, so
islands that share a worker take turns.  The interpreter/native stage
executors run inside the workers unchanged, so every trajectory is
bit-identical to the single-process backends.

Failure semantics are *real*: a worker that dies (SIGKILL, OOM, a
``kill`` fault) surfaces as :class:`WorkerCrashed` on the parent's pipe,
which the resilience layer treats like any island fault — retry,
:meth:`ProcsBackend.refresh` respawns the worker (a fresh fork rebinds
the shared-memory views), and the step replays bit-identically.
Teardown is guaranteed: segments are unlinked by :meth:`close`, by a
:func:`weakref.finalize` guard on abandonment, and at interpreter exit —
even after an exception or ``KeyboardInterrupt`` — so no ``/dev/shm``
blocks leak.  Workers never unlink (they exit via ``os._exit``), so a
crashed worker cannot take the arena down with it.

The pool is *deadline-supervised*: every command's reply is awaited
against a deadline that starts at its send — either explicit
(``step_deadline``) or adaptive (:class:`DeadlineClock`: an EWMA of
recent command durations times ``deadline_factor``, with a warm-up
deadline before the first sample) — and a command that covers n islands
gets n times the deadline.  A freshly forked worker first rebuilds its
compute state — compiling kernels on a cold cache — and then reports
ready; the parent waits for that within the warm-up grace before it
sends a command, so a deadline covers the command alone.  A worker that
misses its deadline while still alive is *hung*, not crashed — wedged
in a syscall, spinning, or silently dropping its reply — and the
watchdog SIGKILLs it and raises
:class:`~repro.runtime.faults.WorkerHung`; the resilience layer retries,
:meth:`ProcsBackend.refresh` respawns, and the replay is bit-identical.
A respawn or a quarantine opens a new pipe *generation*, and nothing
more is sent on a generation once it failed: an island whose turn comes
after its worker's failure fails as :class:`WorkerCrashed` without
sending and is retried on the respawned worker.  A per-worker health
ledger counts consecutive failures (one per pipe generation, however
many islands it failed), and a worker that keeps failing is
**quarantined** — killed for good, its islands remapped round-robin onto
surviving workers (which ``adopt`` the extra compute state) — and when
no worker survives, the pool degrades to **serial-in-parent**: the
parent builds its own inner backend over the same shared buffers and the
run finishes without worker processes at all.  Setting both ``step_deadline`` and
``deadline_factor`` to ``None`` disables supervision: replies are
awaited without a deadline.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import weakref
from dataclasses import dataclass, replace
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core import IslandDecomposition
from ..stencil.interpreter import ArrayRegion
from ..stencil.program import StencilProgram
from ..stencil.region import Box
from .backends import (
    BACKENDS,
    IslandBackend,
    IslandResult,
    StepBatch,
    require_native,
)
from .config import PROCS_INNER_KEYS, EngineConfig
from .diagnostics import field_mass
from .faults import InjectedFault, WorkerHung

__all__ = [
    "DeadlineClock",
    "ProcsBackend",
    "SharedArena",
    "WorkerCrashed",
    "live_segment_names",
]

#: Shared-memory segment names carry this prefix (leak checks key on it).
SEGMENT_PREFIX = "repro-procs"

#: Registry of every live arena's segment names, for leak diagnostics.
_LIVE_SEGMENTS: Dict[int, List[str]] = {}
_LIVE_LOCK = threading.Lock()


def live_segment_names() -> Tuple[str, ...]:
    """Names of all shared-memory segments currently owned by arenas.

    Test hook: after every backend is closed this must be empty, and any
    ``/dev/shm`` entry matching :data:`SEGMENT_PREFIX` is a leak.
    """
    with _LIVE_LOCK:
        return tuple(
            name for names in _LIVE_SEGMENTS.values() for name in names
        )


def _release_segments(arena_id: int, segments: List[object]) -> None:
    """Unlink (then close) every segment; idempotent and exception-proof.

    Runs from :meth:`SharedArena.close`, from the arena's
    ``weakref.finalize`` guard on garbage collection, or at interpreter
    exit — whichever comes first.  Unlink goes first because it is the
    leak-critical half: a closed-but-linked segment still occupies
    ``/dev/shm``, while an unlinked-but-mapped one vanishes as soon as
    its last view dies.
    """
    while segments:
        shm = segments.pop()
        try:
            shm.unlink()
        except FileNotFoundError:  # already unlinked (e.g. double close)
            pass
        except OSError:  # pragma: no cover - platform oddity; keep going
            pass
        try:
            shm.close()
        except BufferError:
            # Arrays from :meth:`SharedArena.allocate` still export the
            # mapping, so it stays mapped and they stay readable.  The
            # segment is already unlinked, so nothing leaks: the arrays
            # own the mapping now and unmap it when the last one dies.
            _hand_mapping_to_arrays(shm)
    with _LIVE_LOCK:
        _LIVE_SEGMENTS.pop(arena_id, None)


def _hand_mapping_to_arrays(shm) -> None:
    """Drop a segment handle's own references to a still-exported mapping.

    The arrays' buffer export keeps the ``mmap`` object alive (it unmaps
    itself when the last array is collected); the handle only needs to
    close its descriptor and forget the mapping, so that
    ``SharedMemory.__del__`` later finds nothing to close instead of
    failing on the export again.
    """
    shm._buf = None
    shm._mmap = None
    fd = getattr(shm, "_fd", -1)
    if fd >= 0:
        shm._fd = -1
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass


class SharedArena:
    """Owner of named shared-memory segments with guaranteed unlink.

    Allocation hands out NumPy arrays backed by fresh
    :class:`multiprocessing.shared_memory.SharedMemory` segments; the
    arena guarantees every segment is unlinked exactly once — on
    :meth:`close`, on garbage collection, or at interpreter exit — even
    if the owning backend died mid-step.  Each array holds a buffer
    export of its mapping, so an array that outlives :meth:`close` (a
    ``run()`` result under ``reuse_output``) stays readable until it is
    collected.  Forked children inherit the mappings; :meth:`disown`
    detaches the guard in a child so only the parent ever unlinks.
    """

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self._segments: List[object] = []
        self._names: List[str] = []
        self._seq = 0
        with _LIVE_LOCK:
            _LIVE_SEGMENTS[id(self)] = self._names
        self._finalizer = weakref.finalize(
            self, _release_segments, id(self), self._segments
        )

    def allocate(self, shape: Sequence[int], dtype: np.dtype) -> np.ndarray:
        """A zero-filled shared array of ``shape`` in a fresh segment."""
        from multiprocessing.shared_memory import SharedMemory

        dtype = np.dtype(dtype)
        size = max(1, int(np.prod(shape)) * dtype.itemsize)
        name = f"{self.tag}-{self._seq}"
        self._seq += 1
        shm = SharedMemory(name=name, create=True, size=size)
        self._segments.append(shm)
        self._names.append(name)
        # frombuffer holds an export of the mapping for the array's whole
        # life (np.ndarray(buffer=...) does not), which is what keeps
        # close() from unmapping memory a live array still points into.
        count = int(np.prod(shape))
        return np.frombuffer(shm.buf, dtype=dtype, count=count).reshape(
            tuple(shape)
        )

    @property
    def segment_names(self) -> Tuple[str, ...]:
        return tuple(self._names)

    def disown(self) -> None:
        """Forked-child half: never unlink the parent's segments."""
        self._finalizer.detach()
        with _LIVE_LOCK:
            _LIVE_SEGMENTS.pop(id(self), None)

    def close(self) -> None:
        """Unlink everything now (idempotent)."""
        self._finalizer()


class WorkerCrashed(RuntimeError):
    """An island's worker process died mid-command (pipe went dead).

    The process-backend analogue of an in-task exception: raised by the
    parent-side dispatch when the command pipe breaks, caught by the
    resilience layer's retry loop, and cleared by
    :meth:`ProcsBackend.refresh` respawning the worker.
    """

    def __init__(
        self, island: int, worker: int, pid: Optional[int], exitcode
    ) -> None:
        super().__init__(
            f"worker {worker} (pid {pid}, exitcode {exitcode}) died while "
            f"executing island {island}"
        )
        self.island = island
        self.worker = worker
        self.pid = pid
        self.exitcode = exitcode


#: Adaptive deadlines never drop below this many seconds: sub-second
#: command jitter (GC, scheduler) must not read as a hang.
DEADLINE_FLOOR = 1.0

#: Deadline before any duration sample exists, and the grace a freshly
#: forked worker gets to rebuild its per-island compute state —
#: compilation included — and report ready.
WARMUP_DEADLINE = 60.0

#: EWMA smoothing factor for observed command durations.
EWMA_ALPHA = 0.25


class DeadlineClock:
    """Per-command deadlines for supervised dispatch.

    ``explicit`` (seconds) wins outright when set.  Otherwise, with a
    ``factor``, the deadline adapts: an EWMA of observed command
    durations times ``factor``, floored at :data:`DEADLINE_FLOOR`, and
    :data:`WARMUP_DEADLINE` while no sample exists yet.  No deadline
    covers a fresh worker's rebuild of its compute state: the worker
    reports ready first, within :attr:`warmup` (see
    :meth:`ProcsBackend._await_ready`).  With neither set there is no
    deadline: :meth:`current` returns ``None`` and dispatch blocks
    unbounded, exactly the pre-supervision behaviour.
    """

    def __init__(
        self,
        explicit: Optional[float],
        factor: Optional[float],
        *,
        floor: float = DEADLINE_FLOOR,
        warmup: float = WARMUP_DEADLINE,
    ) -> None:
        self.explicit = explicit
        self.factor = factor
        self.floor = floor
        self.warmup = warmup
        self._ewma: Optional[float] = None
        self._lock = threading.Lock()

    @property
    def supervised(self) -> bool:
        return self.explicit is not None or self.factor is not None

    @property
    def ewma(self) -> Optional[float]:
        with self._lock:
            return self._ewma

    def current(self) -> Optional[float]:
        """The deadline for the next command (``None``: unsupervised)."""
        if self.explicit is not None:
            return self.explicit
        if self.factor is None:
            return None
        with self._lock:
            ewma = self._ewma
        if ewma is None:
            return self.warmup
        return max(self.floor, ewma * self.factor)

    def observe(self, seconds: float) -> None:
        """Feed one successful command's duration into the EWMA."""
        with self._lock:
            if self._ewma is None:
                self._ewma = seconds
            else:
                self._ewma += EWMA_ALPHA * (seconds - self._ewma)


@dataclass
class _WorkerHealth:
    """One worker's failure ledger (parent side, under ``_health_lock``).

    ``consecutive_failures`` counts hangs and crashes since the last
    successful reply; crossing ``quarantine_after`` quarantines the
    worker.  The totals persist across respawns — a worker identity is
    its slot, not its pid.
    """

    hangs: int = 0
    crashes: int = 0
    consecutive_failures: int = 0
    quarantined: bool = False


class _WorkerHandle:
    """Parent-side state of one worker process.

    ``lock`` is held from a command's send to its reply, and for a
    respawn, so a worker never has more than one command in flight and
    every reply is read by the thread that asked for it.  A respawn or a
    quarantine starts a new pipe ``generation``.  ``failed_generation``
    is the last generation whose failure the health ledger counted, and
    ``failed`` maps each island whose command failed at the pipe to the
    generation it failed in.  ``fresh`` marks a just-forked worker whose
    ``("ready",)`` the parent has not read yet.
    """

    def __init__(self, worker_id: int, islands: Tuple[int, ...]) -> None:
        self.worker_id = worker_id
        self.islands = islands
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.generation = 0
        self.failed_generation = -1
        self.failed: Dict[int, int] = {}
        self.fresh = True


def _finalize_backend(handles: List[_WorkerHandle], arena: SharedArena) -> None:
    """Last-resort teardown for an abandoned (never-closed) backend."""
    for handle in handles:
        process = handle.process
        if process is not None and process.is_alive():
            try:
                process.kill()
            except Exception:  # pragma: no cover - already reaped
                pass
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
    arena.close()


class ProcsBackend(IslandBackend):
    """Islands as pinned worker processes over shared-memory arenas."""

    key = "procs"

    def __init__(
        self,
        program: StencilProgram,
        decomposition: IslandDecomposition,
        *,
        clip_domain: Box,
        output_field: str,
        dtype: np.dtype,
        timed: bool,
        workers: Optional[int] = None,
        pin_workers: bool = False,
        inner: str = "interpreter",
        boundary: Optional[str] = None,
        step_deadline: Optional[float] = None,
        deadline_factor: Optional[float] = 8.0,
        quarantine_after: Optional[int] = 3,
    ) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the procs backend forks persistent worker processes and "
                "requires a POSIX platform"
            )
        if inner not in PROCS_INNER_KEYS:
            known = ", ".join(repr(key) for key in PROCS_INNER_KEYS)
            raise ValueError(
                f"procs inner executor must be one of {known}, got {inner!r}"
            )
        if inner == "native":
            # Checked here, in the parent: a worker that failed to build
            # its kernels after the fork would only surface as a crash.
            require_native("procs with procs_inner='native'")
        super().__init__(
            program,
            decomposition,
            clip_domain=clip_domain,
            output_field=output_field,
            dtype=dtype,
            timed=timed,
        )
        count = decomposition.count
        self.workers = count if workers is None else max(1, min(workers, count))
        self.pin_workers = pin_workers
        self.inner = inner
        #: The boundary condition native workers apply as they gather the
        #: time-varying input (``None``: every input from ghost buffers).
        self.boundary = boundary
        self.quarantine_after = quarantine_after
        self._ctx = multiprocessing.get_context("fork")
        self._arena = SharedArena(f"{SEGMENT_PREFIX}-{os.getpid()}-{id(self):x}")
        # Ghost buffers of the inputs not in raw_inputs, the output
        # buffers, and per output buffer the inputs a step reading it
        # takes (the ghost regions plus a region over that buffer for a
        # gathered input).  Built before the fork, so parent and workers
        # hold the same region objects and plan bindings stay put.
        self._input_regions: Dict[str, ArrayRegion] = {}
        self._outputs: List[np.ndarray] = []
        self._step_inputs: List[Dict[str, ArrayRegion]] = []
        self._handed_out = 0
        self._handles: List[_WorkerHandle] = []
        self._by_island: Dict[int, _WorkerHandle] = {}
        self._pending_kill: set = set()
        self._pending_hang: set = set()
        self._kill_lock = threading.Lock()
        self._clock = DeadlineClock(step_deadline, deadline_factor)
        self._health: Dict[int, _WorkerHealth] = {}
        self._health_lock = threading.Lock()
        # _remap_lock serializes quarantine decisions and island remaps;
        # it nests *outside* worker locks and round trips never take it.
        self._remap_lock = threading.Lock()
        self._quarantine_events = 0
        self._remap_events = 0
        self._serial = False
        self._parent_inner: Optional[IslandBackend] = None
        self._serial_lock = threading.Lock()
        # Held from creating a worker's pipe until its handle records the
        # parent end, so every fork sees each live parent end on a handle
        # (the child closes those; see _worker_entry).
        self._fork_lock = threading.Lock()
        self._close_grace = 5.0
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _finalize_backend, self._handles, self._arena
        )

    @classmethod
    def from_config(
        cls,
        config: EngineConfig,
        program: StencilProgram,
        decomposition: IslandDecomposition,
        *,
        clip_domain: Box,
        output_field: str,
    ) -> "ProcsBackend":
        return cls(
            program,
            decomposition,
            clip_domain=clip_domain,
            output_field=output_field,
            dtype=config.numpy_dtype,
            timed=config.collect_timings,
            workers=config.workers,
            pin_workers=config.pin_workers,
            inner=config.procs_inner,
            boundary=config.boundary,
            step_deadline=config.step_deadline,
            deadline_factor=config.deadline_factor,
            quarantine_after=config.quarantine_after,
        )

    # ------------------------------------------------------------------
    # Shared-memory layout
    # ------------------------------------------------------------------
    def _allocate_shared_io(self) -> None:
        """Carve the input and output arenas the runner will adopt.

        Every input the workers do not gather gets a ghost buffer.  A
        gathered input lives in the output buffers instead: there are
        two, and a step reads it from one and writes the other.
        """
        for field in self.program.input_fields:
            if field.name not in self.raw_inputs:
                self._input_regions[field.name] = ArrayRegion(
                    self._arena.allocate(self.clip_domain.shape, self.dtype),
                    self.clip_domain,
                )
        domain = self.decomposition.partition.domain
        for _ in range(2 if self.raw_inputs else 1):
            buffer = self._arena.allocate(domain.shape, self.dtype)
            self._outputs.append(buffer)
            step_inputs = dict(self._input_regions)
            for name in self.raw_inputs:
                step_inputs[name] = ArrayRegion(buffer, domain)
            self._step_inputs.append(step_inputs)

    def _gathered_inputs(self) -> FrozenSet[str]:
        """What native workers gather under ``recompute``: the program's
        time-varying input, when it has exactly one (the input the output
        is fed back into) and a boundary is set; otherwise nothing."""
        if self.inner != "native" or self.boundary is None:
            return frozenset()
        varying = [f.name for f in self.program.input_fields if f.time_varying]
        return frozenset(varying) if len(varying) == 1 else frozenset()

    def _allocate_stage_array(
        self, island_index: int, stage_index: int, box: Box
    ) -> np.ndarray:
        """Stage buffers live in shared memory: the parent's halo-copy
        loop and the owning worker's compute write the same bytes."""
        return self._arena.allocate(box.shape, self.dtype)

    def allocate_ghost(self, field_name: str) -> Optional[ArrayRegion]:
        return self._input_regions.get(field_name)

    def allocate_output(self) -> Optional[np.ndarray]:
        """The shared output buffers, handed out in turn."""
        buffer = self._outputs[self._handed_out % len(self._outputs)]
        self._handed_out += 1
        return buffer

    def _buffer_index(self, array: np.ndarray) -> Optional[int]:
        for index, buffer in enumerate(self._outputs):
            if array is buffer:
                return index
        return None

    def _sync_inputs(
        self, inputs: Mapping[str, ArrayRegion], out: Optional[np.ndarray]
    ) -> Tuple[int, int]:
        """Make shared memory hold the caller's data; name the buffers.

        Returns ``(source, target)``: the output buffer a gathered input
        is read from (its ``_step_inputs`` entry) and the one the step
        writes.  Through the runner this is free: the runner ghost-fills
        our input arenas in place (``allocate_ghost``) and hands over our
        output buffers, staging a foreign gathered input itself, so every
        identity check short-circuits.  A direct caller passing foreign
        regions or a foreign ``out`` pays one copy into shared memory per
        call, and the step's part is copied out to its ``out``.
        """
        for name, region in self._input_regions.items():
            given = inputs.get(name)
            if given is not None and given is not region:
                region.data[...] = given.view(region.box)
        if not self.raw_inputs:
            return 0, 0
        target = None if out is None else self._buffer_index(out)
        (name,) = self.raw_inputs
        given = inputs[name]
        source = self._buffer_index(given.data)
        if source is None:
            source = 0 if target == 1 else 1
            domain = self.decomposition.partition.domain
            np.copyto(
                self._outputs[source], given.view(domain), casting="unsafe"
            )
        if target is None or target == source:
            target = 1 - source
        return source, target

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        self.raw_inputs = self._gathered_inputs()
        self._allocate_shared_io()
        self._spawn_all()

    def _prepare_stage_state(self) -> None:
        # Called by the base prepare_exchange() after the (shared-memory)
        # stage buffers exist; the workers fork here and inherit them.
        self._allocate_shared_io()
        self._spawn_all()

    def _spawn_all(self) -> None:
        island_ids = [island.index for island in self.decomposition.islands]
        for worker_id in range(self.workers):
            mine = tuple(
                q for q in island_ids if q % self.workers == worker_id
            )
            handle = _WorkerHandle(worker_id, mine)
            self._handles.append(handle)
            self._health[worker_id] = _WorkerHealth()
            for q in mine:
                self._by_island[q] = handle
            self._start_worker(handle)

    def _start_worker(self, handle: _WorkerHandle) -> None:
        with self._fork_lock:
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=self._worker_entry,
                args=(
                    child_conn, parent_conn, handle.worker_id, handle.islands
                ),
                name=f"repro-procs-w{handle.worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            handle.process = process
            handle.conn = parent_conn
        handle.fresh = True

    def refresh(self, island_index: int) -> None:
        """Fresh compute state for one island — respawn, quarantine, remap.

        The supervision ladder, rung by rung: in serial-fallback mode the
        parent's own inner backend refreshes the island; a worker whose
        consecutive-failure count crossed ``quarantine_after`` is
        quarantined and its islands remapped onto survivors (or the pool
        degrades to serial when none remain); a live worker refreshes the
        island's inner arenas in place once no command is in flight —
        awaited with a bounded ``poll``, so a worker wedged *during
        refresh* falls through to respawn instead of deadlocking the retry
        path; a dead or unresponsive worker is reaped and re-forked, which
        rebinds its shared-memory views and rebuilds all of its islands'
        state from scratch.
        """
        if self._serial:
            self._ensure_parent_inner().refresh(island_index)
            return
        with self._remap_lock:
            if self._serial:  # lost the race to the last quarantine
                self._ensure_parent_inner().refresh(island_index)
                return
            handle = self._by_island[island_index]
            if self._should_quarantine(handle):
                self._quarantine_locked(handle)
                if self._serial:
                    self._ensure_parent_inner().refresh(island_index)
                return
        handle = self._by_island[island_index]
        deadline = self._clock.current()
        with handle.lock:
            failed = handle.failed.pop(island_index, handle.generation)
            if handle.conn is None or failed < handle.generation:
                # Quarantined, or respawned since the island failed (a
                # sibling's retry got there first): an adopter or a
                # fresh fork built the island's state from scratch.
                return
            if not self._control(
                handle,
                ("refresh", island_index),
                5.0 if deadline is None else deadline,
            ):
                self._respawn_locked(handle)

    def _control(
        self, handle: _WorkerHandle, command: tuple, timeout: float
    ) -> bool:
        """Run a refresh or adopt command (lock held).

        No other command is in flight, so the worker's pipe holds nothing
        but this command and its reply; the reply is awaited for at most
        ``timeout`` seconds.  Returns whether the worker answered ``ok``;
        a dead, never-ready or wedged worker, one whose pipe generation
        already failed, or a protocol error, returns ``False`` and the
        caller respawns it.
        """
        process = handle.process
        if process is None or not process.is_alive():
            return False
        if handle.failed_generation == handle.generation:
            return False  # killed or dying: its pipe may hold a stale reply
        try:
            if self._await_ready(handle, self._clock.warmup):
                handle.conn.send(command)
                if handle.conn.poll(timeout):
                    return handle.conn.recv()[0] == "ok"
        except (EOFError, OSError):
            pass  # died under us
        return False

    def _await_ready(
        self, handle: _WorkerHandle, timeout: Optional[float]
    ) -> bool:
        """Read a fresh worker's ``("ready",)`` (lock held).

        A forked worker rebuilds its inner backend — compiling kernels on
        a cold cache — before it reads any command, then says so.  Every
        path that talks to a worker consumes that message first, waiting
        at most ``timeout`` seconds (``None``: unbounded), so the deadline
        of the command that follows covers the command alone.  Returns
        whether the worker is ready; a dead pipe raises ``EOFError``.
        """
        if handle.fresh:
            if timeout is not None and not handle.conn.poll(timeout):
                return False
            handle.conn.recv()
            handle.fresh = False
        return True

    def _respawn_locked(self, handle: _WorkerHandle) -> None:
        self._retire_locked(handle)
        self._start_worker(handle)

    def _retire_locked(self, handle: _WorkerHandle) -> None:
        """Kill and reap the worker and close its pipe (lock held).

        Opens a new pipe generation, so a failure counted against the old
        one neither blocks nor counts for the next worker.
        """
        process = handle.process
        if process is not None:
            if process.is_alive():  # wedged rather than dead
                process.kill()
            process.join(timeout=5.0)
        handle.generation += 1
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # Health ledger, quarantine and degraded modes
    # ------------------------------------------------------------------
    def _record_failure(
        self, handle: _WorkerHandle, generation: int, *, hang: bool
    ) -> None:
        """Count one failure of a pipe generation, once.

        A worker that dies or wedges also fails its other islands' turns
        until it is respawned; those count as the same failure.
        """
        with self._health_lock:
            if handle.failed_generation == generation:
                return
            handle.failed_generation = generation
            health = self._health[handle.worker_id]
            if hang:
                health.hangs += 1
            else:
                health.crashes += 1
            health.consecutive_failures += 1

    def _record_success(self, handle: _WorkerHandle) -> None:
        with self._health_lock:
            self._health[handle.worker_id].consecutive_failures = 0

    def worker_health(self, worker_id: int) -> _WorkerHealth:
        """A snapshot copy of one worker's health ledger (test hook)."""
        with self._health_lock:
            health = self._health[worker_id]
            return _WorkerHealth(
                hangs=health.hangs,
                crashes=health.crashes,
                consecutive_failures=health.consecutive_failures,
                quarantined=health.quarantined,
            )

    def _should_quarantine(self, handle: _WorkerHandle) -> bool:
        if self.quarantine_after is None:
            return False
        with self._health_lock:
            health = self._health[handle.worker_id]
            return (
                not health.quarantined
                and health.consecutive_failures >= self.quarantine_after
            )

    def _quarantine_locked(self, handle: _WorkerHandle) -> None:
        """Retire one worker for good; remap its islands (remap_lock held).

        The worker is killed rather than respawned — ``quarantine_after``
        consecutive failures mean respawning does not help (a poisoned
        core, a broken mapping) — and its islands go round-robin onto the
        non-quarantined survivors, each of which rebuilds its inner
        backend to cover the adopted islands.  With no survivor left the
        pool enters serial-in-parent mode.
        """
        with self._health_lock:
            self._health[handle.worker_id].quarantined = True
        self._quarantine_events += 1
        with handle.lock:
            self._retire_locked(handle)
            handle.process = None
            handle.conn = None
        orphans = handle.islands
        handle.islands = ()
        with self._health_lock:
            survivors = [
                h
                for h in self._handles
                if not self._health[h.worker_id].quarantined
            ]
        self._remap_events += len(orphans)
        if not survivors:
            self._enter_serial_locked()
            return
        for position, island_index in enumerate(orphans):
            target = survivors[position % len(survivors)]
            self._by_island[island_index] = target
            target.islands = target.islands + (island_index,)
            self._adopt(target, island_index)

    def _adopt(self, handle: _WorkerHandle, island_index: int) -> None:
        """Make one surviving worker cover one more island, bounded.

        The adopt command rebuilds the worker's inner backend (compute
        state for the adopted island included) before it replies, so it
        gets the warm-up deadline, and like a refresh it waits for the
        worker's lock; an adopter that dies or wedges during the handover
        is simply respawned — its island tuple already includes the
        orphan, so the fresh fork covers it.
        """
        with handle.lock:
            if not self._control(
                handle, ("adopt", island_index), self._clock.warmup
            ):
                self._respawn_locked(handle)

    def _enter_serial_locked(self) -> None:
        """Last resort: no worker left — the parent computes everything."""
        self._serial = True
        with self._kill_lock:
            self._pending_kill.clear()
            self._pending_hang.clear()

    def _ensure_parent_inner(self) -> IslandBackend:
        """The parent's own inner backend over the full decomposition.

        Built lazily on first use (entering serial mode is rare), bound
        to the same shared buffers the workers used: ghost inputs and the
        output buffers are read/written directly, and in exchange mode the
        parent inner *adopts* the existing shared stage buffers, so the
        halo-copy loop and trajectory stay bit-identical.
        """
        with self._serial_lock:
            if self._parent_inner is None:
                self._parent_inner = self._build_inner(self.decomposition)
        return self._parent_inner

    def _build_inner(self, decomposition: IslandDecomposition) -> IslandBackend:
        """An in-process inner backend over the shared buffers.

        Native workers under ``recompute`` gather :attr:`raw_inputs` from
        the output buffers, applying the boundary as they read; every
        other input is read from its ghost buffer.  In exchange mode the
        inner backend adopts the shared stage buffers, and a native one
        gets the boundary, so its stage plans copy periodic ghosts from
        their images as in-process ones do.
        """
        inner = BACKENDS[self.inner](
            self.program,
            decomposition,
            clip_domain=self.clip_domain,
            output_field=self.output_field,
            dtype=self.dtype,
            timed=self.timed,
        )
        if self._ledger is not None:
            if self.inner == "native":
                inner.boundary = self.boundary
            inner.adopt_exchange_state(self._ledger, self._stage_buffers)
            return inner
        if self.raw_inputs:
            inner.boundary = self.boundary
            inner.gather = self.raw_inputs
        inner.prepare()
        return inner

    def health_events(self) -> Tuple[int, int]:
        """Drain ``(quarantines, islands_remapped)`` since the last call."""
        with self._remap_lock:
            events = (self._quarantine_events, self._remap_events)
            self._quarantine_events = 0
            self._remap_events = 0
        return events

    @property
    def serial_fallback(self) -> bool:
        """True once the pool degraded to serial-in-parent execution."""
        return self._serial

    @property
    def deadline_clock(self) -> DeadlineClock:
        """The supervision clock (test and benchmark hook)."""
        return self._clock

    def close(self) -> None:
        """Stop every worker and unlink every segment (idempotent).

        Shutdown is concurrent: every worker gets its close message
        first, then all are joined against *one* shared grace deadline
        (``_close_grace`` seconds total, not per worker), and whoever is
        still alive past it is SIGKILLed and reaped — so N wedged
        workers cost one grace period, not N.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            with handle.lock:
                if handle.conn is not None:
                    try:
                        handle.conn.send(("close",))
                    except (OSError, ValueError):
                        pass
        grace_until = time.monotonic() + self._close_grace
        for handle in self._handles:
            with handle.lock:
                process = handle.process
                if process is not None:
                    process.join(
                        timeout=max(0.0, grace_until - time.monotonic())
                    )
                    if process.is_alive():  # wedged: escalate immediately
                        process.kill()
                        process.join(timeout=5.0)  # reaping SIGKILL is fast
                    handle.process = None
                if handle.conn is not None:
                    try:
                        handle.conn.close()
                    except OSError:  # pragma: no cover
                        pass
                    handle.conn = None
        self._arena.close()

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def inject_kill(self, island: int, step: int, attempt: int) -> None:
        """Arm a real SIGKILL: the island's worker dies mid-step.

        In serial-fallback mode there is no worker process left to kill,
        so the fault degrades to a ``crash`` exactly like the in-process
        backends.
        """
        if self._serial:
            raise InjectedFault(island, step, attempt)
        with self._kill_lock:
            self._pending_kill.add(island)

    def inject_hang(self, island: int, step: int, attempt: int) -> None:
        """Arm a wedge: the island's worker stops replying mid-step.

        In serial-fallback mode the fault is skipped gracefully — a
        wedged parent cannot be recovered from within, the same reason
        in-process backends skip it.
        """
        if self._serial:
            return
        with self._kill_lock:
            self._pending_hang.add(island)

    def _take_kill(self, island: int) -> bool:
        with self._kill_lock:
            if island in self._pending_kill:
                self._pending_kill.discard(island)
                return True
            return False

    def _take_hang(self, island: int) -> bool:
        with self._kill_lock:
            if island in self._pending_hang:
                self._pending_hang.discard(island)
                return True
            return False

    # ------------------------------------------------------------------
    # Dispatch (parent side)
    # ------------------------------------------------------------------
    def _round_trips(self, commands: Sequence[tuple]) -> StepBatch:
        """Send each worker its command and read every reply.

        ``commands`` holds ``(handle, islands, command)``, at most one per
        worker, in worker order: the order the workers' locks are taken
        in.  Each lock is held from the command's send to its reply, so a
        worker never has more than one command in flight.  Every reply is
        awaited on all pipes at once; a command covering n islands gets n
        times the per-command deadline, from its send, and its duration
        over n feeds the adaptive clock.  EOF is a crash; a deadline
        missed by a live worker is a hang, and the worker is SIGKILLed
        (:meth:`_hang`).  Each failure lands in the batch's ``failures``.
        If the call is interrupted, every worker whose pipe may hold half
        a command or an unread reply is replaced, so no later command can
        read one, and every lock taken is released.
        """
        # Imported here: the pipes imported it already, and a run with no
        # procs backend need not load it.
        from multiprocessing.connection import wait

        batch = StepBatch()
        held: List[_WorkerHandle] = []
        sending = None
        waiting = {}
        try:
            for handle, islands, command in commands:
                handle.lock.acquire()
                held.append(handle)
                sending = handle
                try:
                    self._send_locked(handle, islands[0], command)
                except (WorkerCrashed, WorkerHung) as error:
                    batch.failures.append(error)
                else:
                    deadline = self._clock.current()
                    if deadline is not None:
                        deadline *= len(islands)
                    waiting[handle.conn] = (
                        handle, islands, handle.generation,
                        time.perf_counter(), deadline,
                    )
                sending = None
            while waiting:
                ends = [
                    begin + deadline
                    for _, _, _, begin, deadline in waiting.values()
                    if deadline is not None
                ]
                timeout = (
                    max(0.0, min(ends) - time.perf_counter()) if ends else None
                )
                ready = wait(list(waiting), timeout)
                now = time.perf_counter()
                for conn, entry in list(waiting.items()):
                    handle, islands, generation, begin, deadline = entry
                    if conn in ready:
                        self._read_reply(entry, conn, batch)
                    elif deadline is not None and now - begin >= deadline:
                        batch.failures.append(
                            self._hang(
                                handle, generation, islands[0], begin, deadline
                            )
                        )
                    else:
                        continue
                    del waiting[conn]
        except BaseException:
            unread = [entry[0] for entry in waiting.values()]
            for handle in held:
                if handle is sending or handle in unread:
                    self._respawn_locked(handle)
            raise
        finally:
            for handle in held:
                handle.lock.release()
        return batch

    def _send_locked(
        self, handle: _WorkerHandle, island_index: int, command: tuple
    ) -> None:
        """Send one command to a worker (lock held), or raise its failure.

        A fresh worker gets the warm-up grace to report ready
        (:meth:`_await_ready`) first.  A quarantined worker, or a pipe
        generation whose failure was already counted, is sent nothing:
        the :class:`WorkerCrashed` takes the caller to the retry path,
        which remaps or respawns.
        """
        generation = handle.generation
        if handle.conn is None:
            # Quarantined between our lookup and the lock: surface a
            # crash so the retry path re-resolves the remapped owner.
            raise WorkerCrashed(island_index, handle.worker_id, None, None)
        if handle.failed_generation == generation:
            raise self._crashed(handle, generation, island_index)
        try:
            grace = self._clock.warmup if self._clock.supervised else None
            begin = time.perf_counter()
            if not self._await_ready(handle, grace):
                raise self._hang(
                    handle, generation, island_index, begin, grace
                )
            handle.conn.send(command)
        except (EOFError, OSError) as error:
            raise self._crashed(handle, generation, island_index) from error

    def _read_reply(self, entry: tuple, conn, batch: StepBatch) -> None:
        """Read one worker's reply into ``batch``: the islands' results
        and masses, or the failure."""
        handle, islands, generation, begin, _ = entry
        try:
            reply = conn.recv()
        except (EOFError, OSError):
            batch.failures.append(
                self._crashed(handle, generation, islands[0])
            )
            return
        self._clock.observe((time.perf_counter() - begin) / len(islands))
        self._record_success(handle)
        if reply[0] != "ok":
            batch.failures.append(
                RuntimeError(
                    f"islands {islands} failed in worker "
                    f"{handle.worker_id}: {reply[1]}"
                )
            )
            return
        _, results, masses = reply
        batch.results.update(zip(islands, results))
        if masses is not None:
            batch.masses.update(zip(islands, masses))

    def _island_round_trip(
        self, island_index: int, command: tuple
    ) -> IslandResult:
        """One island's command on its worker: the result, or the
        failure raised."""
        handle = self._by_island[island_index]
        batch = self._round_trips([(handle, (island_index,), command)])
        if batch.failures:
            raise batch.failures[0]
        return batch.results[island_index]

    def _crashed(
        self, handle: _WorkerHandle, generation: int, island_index: int
    ) -> WorkerCrashed:
        """Record a dead pipe and build the :class:`WorkerCrashed`."""
        self._record_failure(handle, generation, hang=False)
        handle.failed[island_index] = generation
        process = handle.process if handle.generation == generation else None
        return WorkerCrashed(
            island_index,
            handle.worker_id,
            None if process is None else process.pid,
            None if process is None else process.exitcode,
        )

    def _hang(
        self,
        handle: _WorkerHandle,
        generation: int,
        island_index: int,
        begin: float,
        deadline: float,
    ) -> WorkerHung:
        """SIGKILL a live worker that missed ``deadline``; record the hang
        and build the :class:`~repro.runtime.faults.WorkerHung`."""
        waited = time.perf_counter() - begin
        process = handle.process
        pid = None if process is None else process.pid
        if process is not None and process.is_alive():
            process.kill()
        self._record_failure(handle, generation, hang=True)
        handle.failed[island_index] = generation
        return WorkerHung(
            island_index, handle.worker_id, pid, waited, deadline
        )

    def batch_step(self, inputs, out, weights=None) -> Optional[StepBatch]:
        """One ``recompute`` step as one round trip per live worker.

        Each worker gets one ``steps`` command naming all of its islands
        in index order.  It runs them back to back and replies once: the
        islands' results, each island's ``seconds`` its own sweep time,
        and — when ``weights`` names a ghost input — each part's mass
        ``sum(weights * out)``, summed while the part is still in the
        worker's cache.  A worker that crashes or hangs is recorded
        exactly as on the per-island path (health ledger, hang kill) and
        its error lands in the batch's ``failures``; the runner then
        reruns the whole step per island, which respawns, retries and
        quarantines.  That is safe: a step writes only its islands'
        parts of a buffer it does not read, so the islands that did
        finish rewrite identical bytes.  ``None`` in serial mode and
        under exchange.
        """
        if self._serial or self._ledger is not None:
            return None
        source, target = self._sync_inputs(inputs, out)
        if weights not in self._input_regions:
            weights = None
        commands = []
        for handle in self._handles:
            islands = tuple(sorted(handle.islands))
            if islands:  # a quarantined worker has none
                commands.append(
                    (
                        handle,
                        islands,
                        ("steps", islands, source, target, weights, False, False),
                    )
                )
        batch = self._round_trips(commands)
        written = self._outputs[target]
        if out is not written and not batch.failures:
            for island in self.decomposition.islands:
                out[island.part.slices()] = written[island.part.slices()]
        return batch

    def execute_island(self, island, inputs, out) -> IslandResult:
        source, target = self._sync_inputs(inputs, out)
        q = island.index
        if self._serial:
            self._take_kill(q)  # stale arms are void in serial
            self._take_hang(q)
            result = self._ensure_parent_inner().execute_island(
                island, self._step_inputs[source], self._outputs[target]
            )
        else:
            result = self._island_round_trip(
                q,
                (
                    "steps", (q,), source, target, None,
                    self._take_kill(q), self._take_hang(q),
                ),
            )
        written = self._outputs[target]
        if out is not written:  # direct caller with a foreign buffer
            out[island.part.slices()] = written[island.part.slices()]
        return result

    def _execute_stage(self, island, stage_index, inputs) -> IslandResult:
        self._sync_inputs(inputs, None)
        q = island.index
        if self._serial:
            self._take_kill(q)
            self._take_hang(q)
            inner = self._ensure_parent_inner()
            return inner._execute_stage(island, stage_index, self._input_regions)
        return self._island_round_trip(
            q,
            ("stage", q, stage_index, self._take_kill(q), self._take_hang(q)),
        )

    # ------------------------------------------------------------------
    # Worker side (runs in the forked child)
    # ------------------------------------------------------------------
    def _worker_entry(
        self, conn, parent_end, worker_id: int, islands: Tuple[int, ...]
    ):
        # The child must never run the parent's finalizers (unlinking a
        # live arena) nor any other interpreter-exit machinery, so every
        # path out of here is an os._exit.
        status = 0
        try:
            # The fork copied the parent's end of this worker's pipe and
            # of every sibling's.  Holding them would keep ``recv`` from
            # ever seeing EOF, so a SIGKILLed parent would leave this
            # worker — and, through it, the shared segments — behind.
            parent_end.close()
            for handle in self._handles:
                if handle.conn is not None:
                    handle.conn.close()
            self._worker_loop(conn, worker_id, islands)
        except BaseException:
            status = 1  # the parent sees the dead pipe, not a traceback
        finally:
            os._exit(status)

    def _worker_loop(self, conn, worker_id: int, islands: Tuple[int, ...]):
        self._arena.disown()
        self._finalizer.detach()
        if self.pin_workers:
            try:
                cpus = sorted(os.sched_getaffinity(0))
                os.sched_setaffinity(0, {cpus[worker_id % len(cpus)]})
            except (AttributeError, OSError):  # pragma: no cover - no affinity
                pass
        by_index = {
            island.index: island for island in self.decomposition.islands
        }

        def build_inner(island_ids: Tuple[int, ...]):
            # First-touch-style: this worker builds its own compute state
            # over the shared buffers inherited at fork.
            return self._build_inner(
                replace(
                    self.decomposition,
                    islands=tuple(by_index[q] for q in island_ids),
                )
            )

        mine = list(islands)
        inner = build_inner(tuple(mine))
        conn.send(("ready",))
        while True:
            command = conn.recv()
            op = command[0]
            if op == "close":
                break
            if op == "refresh":
                inner.refresh(command[1])
                conn.send(("ok", None))
            elif op == "adopt":
                # Take over a quarantined sibling's island: rebuild the
                # inner backend so its compute state covers it too.
                q = command[1]
                if q not in mine:
                    mine.append(q)
                    inner = build_inner(tuple(mine))
                conn.send(("ok", None))
            elif op in ("steps", "stage"):
                if op == "steps":
                    _, island_ids, source, target, weights, die, wedge = command
                else:
                    _, q, stage_index, die, wedge = command
                if die:
                    os.kill(os.getpid(), signal.SIGKILL)
                if wedge:
                    while True:  # hung, not dead: the pipe stays open
                        time.sleep(3600.0)
                try:
                    if op == "steps":
                        results, masses = self._run_islands(
                            inner,
                            [by_index[q] for q in island_ids],
                            source,
                            target,
                            weights,
                        )
                    else:
                        results = [
                            inner.execute_island_stage(
                                by_index[q], stage_index, self._input_regions
                            )
                        ]
                        masses = None
                except Exception as error:
                    conn.send(("err", f"{type(error).__name__}: {error}"))
                else:
                    conn.send(("ok", results, masses))
            else:  # pragma: no cover - protocol error
                conn.send(("err", f"unknown command {op!r}"))

    def _run_islands(
        self,
        inner: IslandBackend,
        islands: list,
        source: int,
        target: int,
        weights: Optional[str],
    ) -> Tuple[List[IslandResult], Optional[List[float]]]:
        """One ``steps`` command, worker side: the islands' whole steps in
        turn, each timed when the pool is, and each part's mass when
        ``weights`` is set."""
        inputs = self._step_inputs[source]
        out = self._outputs[target]
        results = []
        masses = None if weights is None else []
        for island in islands:
            begin = time.perf_counter()
            result = inner.execute_island(island, inputs, out)
            if self.timed:
                result.seconds = time.perf_counter() - begin
            results.append(result)
            if masses is not None:
                part = island.part
                masses.append(
                    field_mass(
                        out[part.slices()],
                        self._input_regions[weights].view(part),
                    )
                )
        return results, masses


BACKENDS[ProcsBackend.key] = ProcsBackend
