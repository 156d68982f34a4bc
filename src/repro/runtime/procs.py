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
  read them zero-copy;
* the **assembled output** — workers publish their parts directly
  through :meth:`~repro.runtime.backends.IslandBackend.allocate_output`,
  no cross-process copy on the hot path;
* in exchange/hybrid halo mode, the **per-stage buffers** — the parent's
  existing :class:`~repro.core.halo.HaloLedger` boundary-copy loop works
  on the very same bytes the workers compute into.

Workers are forked (POSIX only), so they inherit the parent's program,
decomposition and shared-memory views with no pickling; each worker then
builds its *own* islands' compute state — arenas, native plan workspaces —
in its own address space, the first-touch-style per-island initialization
of Wittmann/Hager (arXiv 0912.4506).  The step protocol is the paper's
one-barrier-per-step: the parent issues one command per island, the
pipe joins are the barrier, and under exchange mode the same join runs
once per stage.  The interpreter/native stage executors run inside the
workers unchanged, so every trajectory is bit-identical to the
single-process backends.

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

The pool is *deadline-supervised*: every parent-side dispatch waits for
its reply with ``poll(timeout)`` against a per-command deadline — either
explicit (``step_deadline``) or adaptive (:class:`DeadlineClock`: an
EWMA of recent command durations times ``deadline_factor``, with a
warm-up deadline before the first sample).  A freshly forked worker
first rebuilds its compute state — compiling kernels on a cold cache —
and then reports ready; the parent waits for that within the warm-up
grace before it sends a command, so a deadline covers the command
alone.  A worker that misses its deadline while still alive is *hung*,
not crashed — wedged in a syscall, spinning, or silently dropping its
reply — and the watchdog SIGKILLs it and raises
:class:`~repro.runtime.faults.WorkerHung`; the resilience layer retries,
:meth:`ProcsBackend.refresh` respawns, and the replay is bit-identical.
A per-worker health ledger counts consecutive failures: a worker that
keeps failing is **quarantined** — killed for good, its islands remapped
round-robin onto surviving workers (which ``adopt`` the extra compute
state) — and when no worker survives, the pool degrades to
**serial-in-parent**: the parent builds its own inner backend over the
same shared buffers and the run finishes without worker processes at
all.  Setting both ``step_deadline`` and ``deadline_factor`` to ``None``
disables supervision and restores the unbounded blocking dispatch.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import weakref
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, NoReturn, Optional, Sequence, Tuple

import numpy as np

from ..core import IslandDecomposition
from ..stencil.interpreter import ArrayRegion
from ..stencil.program import StencilProgram
from ..stencil.region import Box
from .backends import BACKENDS, IslandBackend, IslandResult, require_native
from .config import PROCS_INNER_KEYS, EngineConfig
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

    ``lock`` serializes every use of the pipe *and* respawning, so two
    islands multiplexed onto one worker never interleave their commands
    and never race a respawn.  ``fresh`` marks a just-forked worker
    whose ``("ready",)`` the parent has not read yet.
    """

    def __init__(self, worker_id: int, islands: Tuple[int, ...]) -> None:
        self.worker_id = worker_id
        self.islands = islands
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
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
        self.quarantine_after = quarantine_after
        self._ctx = multiprocessing.get_context("fork")
        self._arena = SharedArena(f"{SEGMENT_PREFIX}-{os.getpid()}-{id(self):x}")
        self._input_regions: Dict[str, ArrayRegion] = {}
        self._output: Optional[np.ndarray] = None
        self._handles: List[_WorkerHandle] = []
        self._by_island: Dict[int, _WorkerHandle] = {}
        self._pending_kill: set = set()
        self._pending_hang: set = set()
        self._kill_lock = threading.Lock()
        self._clock = DeadlineClock(step_deadline, deadline_factor)
        self._health: Dict[int, _WorkerHealth] = {}
        self._health_lock = threading.Lock()
        # _remap_lock serializes quarantine decisions and island remaps;
        # it nests *outside* handle locks and dispatch never takes it.
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
            step_deadline=config.step_deadline,
            deadline_factor=config.deadline_factor,
            quarantine_after=config.quarantine_after,
        )

    # ------------------------------------------------------------------
    # Shared-memory layout
    # ------------------------------------------------------------------
    def _allocate_shared_io(self) -> None:
        """Carve the input and output arenas the runner will adopt."""
        for field in self.program.input_fields:
            self._input_regions[field.name] = ArrayRegion(
                self._arena.allocate(self.clip_domain.shape, self.dtype),
                self.clip_domain,
            )
        domain = self.decomposition.partition.domain
        self._output = self._arena.allocate(domain.shape, self.dtype)

    def _allocate_stage_array(
        self, island_index: int, stage_index: int, box: Box
    ) -> np.ndarray:
        """Stage buffers live in shared memory: the parent's halo-copy
        loop and the owning worker's compute write the same bytes."""
        return self._arena.allocate(box.shape, self.dtype)

    def allocate_ghost(self, field_name: str) -> Optional[ArrayRegion]:
        return self._input_regions.get(field_name)

    def allocate_output(self) -> Optional[np.ndarray]:
        return self._output

    def _sync_inputs(self, inputs: Mapping[str, ArrayRegion]) -> None:
        """Make the shared input arenas hold the caller's data.

        Through the runner this is free: the runner ghost-fills our
        arenas in place (``allocate_ghost``), so every region *is* ours
        and the identity check short-circuits.  A direct caller passing
        foreign regions pays one copy into shared memory instead.
        """
        for name, region in self._input_regions.items():
            given = inputs.get(name)
            if given is not None and given is not region:
                region.data[...] = given.view(region.box)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prepare(self) -> None:
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
        island's inner arenas in place — awaited with a bounded ``poll``,
        so a worker wedged *during refresh* falls through to respawn
        instead of deadlocking the retry path; a dead or unresponsive
        worker is reaped and re-forked, which rebinds its shared-memory
        views and rebuilds all of its islands' state from scratch.
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
        with handle.lock:
            if handle.process is not None and handle.process.is_alive():
                try:
                    if self._await_ready(handle, self._clock.warmup):
                        handle.conn.send(("refresh", island_index))
                        deadline = self._clock.current()
                        timeout = 5.0 if deadline is None else deadline
                        if handle.conn.poll(timeout):
                            reply = handle.conn.recv()
                            if reply[0] == "ok":
                                return
                    # never ready, timeout (wedged mid-refresh) or a
                    # protocol error: fall through to respawn
                except (EOFError, OSError):
                    pass  # died under us; fall through to respawn
            self._respawn_locked(handle)

    def _await_ready(
        self, handle: _WorkerHandle, timeout: Optional[float]
    ) -> bool:
        """Read a fresh worker's ``("ready",)`` (handle lock held).

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
        process = handle.process
        if process is not None:
            if process.is_alive():  # wedged rather than dead
                process.kill()
            process.join(timeout=5.0)
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._start_worker(handle)

    # ------------------------------------------------------------------
    # Health ledger, quarantine and degraded modes
    # ------------------------------------------------------------------
    def _record_failure(self, handle: _WorkerHandle, *, hang: bool) -> None:
        with self._health_lock:
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
            process = handle.process
            if process is not None:
                if process.is_alive():
                    process.kill()
                process.join(timeout=5.0)
                handle.process = None
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
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
        gets the warm-up deadline; an adopter that dies or wedges during
        the handover is simply respawned — its island tuple already
        includes the orphan, so the fresh fork covers it.
        """
        with handle.lock:
            if handle.process is not None and handle.process.is_alive():
                try:
                    if self._await_ready(handle, self._clock.warmup):
                        handle.conn.send(("adopt", island_index))
                        if handle.conn.poll(self._clock.warmup):
                            reply = handle.conn.recv()
                            if reply[0] == "ok":
                                return
                except (EOFError, OSError):
                    pass
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
        output arena are read/written directly, and in exchange mode the
        parent inner *adopts* the existing shared stage buffers, so the
        halo-copy loop and trajectory stay bit-identical.
        """
        with self._serial_lock:
            inner = self._parent_inner
            if inner is None:
                inner = BACKENDS[self.inner](
                    self.program,
                    self.decomposition,
                    clip_domain=self.clip_domain,
                    output_field=self.output_field,
                    dtype=self.dtype,
                    timed=self.timed,
                )
                if self._ledger is not None:
                    inner.adopt_exchange_state(
                        self._ledger, self._stage_buffers
                    )
                else:
                    inner.prepare()
                self._parent_inner = inner
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
    def _dispatch(self, island_index: int, command: tuple) -> IslandResult:
        """Send one command and await its reply under the deadline.

        Three outcomes: a reply in time (success — the duration feeds
        the adaptive clock); a dead pipe (``poll`` returns instantly on
        EOF, ``recv`` raises — :class:`WorkerCrashed`); or deadline
        expiry with the process still alive — a *hang*: the watchdog
        SIGKILLs the worker and raises
        :class:`~repro.runtime.faults.WorkerHung` carrying the detection
        latency actually paid.  A fresh worker gets the warm-up grace to
        report ready (:meth:`_await_ready`) before the command is sent
        and its deadline starts.  An unsupervised pool (no deadline)
        blocks in ``recv`` exactly as before.
        """
        handle = self._by_island[island_index]
        with handle.lock:
            if handle.conn is None:
                # Quarantined between our lookup and the lock: surface a
                # crash so the retry path re-resolves the remapped owner.
                raise WorkerCrashed(
                    island_index, handle.worker_id, None, None
                )
            try:
                grace = self._clock.warmup if self._clock.supervised else None
                begin = time.perf_counter()
                if not self._await_ready(handle, grace):
                    self._hang(handle, island_index, begin, grace)
                deadline = self._clock.current()
                begin = time.perf_counter()
                handle.conn.send(command)
                if deadline is not None and not handle.conn.poll(deadline):
                    self._hang(handle, island_index, begin, deadline)
                reply = handle.conn.recv()
            except (EOFError, OSError) as error:
                self._record_failure(handle, hang=False)
                process = handle.process
                raise WorkerCrashed(
                    island_index,
                    handle.worker_id,
                    None if process is None else process.pid,
                    None if process is None else process.exitcode,
                ) from error
            self._clock.observe(time.perf_counter() - begin)
        self._record_success(handle)
        if reply[0] != "ok":
            raise RuntimeError(
                f"island {island_index} failed in worker "
                f"{handle.worker_id}: {reply[1]}"
            )
        return reply[1]

    def _hang(
        self,
        handle: _WorkerHandle,
        island_index: int,
        begin: float,
        deadline: float,
    ) -> NoReturn:
        """SIGKILL a live worker that missed ``deadline``; raise
        :class:`~repro.runtime.faults.WorkerHung`."""
        waited = time.perf_counter() - begin
        process = handle.process
        pid = None if process is None else process.pid
        if process is not None and process.is_alive():
            process.kill()
        self._record_failure(handle, hang=True)
        raise WorkerHung(
            island_index, handle.worker_id, pid, waited, deadline
        )

    def execute_island(self, island, inputs, out) -> IslandResult:
        self._sync_inputs(inputs)
        if self._serial:
            self._take_kill(island.index)  # stale arms are void in serial
            self._take_hang(island.index)
            inner = self._ensure_parent_inner()
            return inner.execute_island(island, inputs, out)
        result = self._dispatch(
            island.index,
            (
                "step",
                island.index,
                self._take_kill(island.index),
                self._take_hang(island.index),
            ),
        )
        if out is not self._output:  # direct caller with a foreign buffer
            out[island.part.slices()] = self._output[island.part.slices()]
        return result

    def _execute_stage(self, island, stage_index, inputs) -> IslandResult:
        self._sync_inputs(inputs)
        if self._serial:
            self._take_kill(island.index)
            self._take_hang(island.index)
            inner = self._ensure_parent_inner()
            return inner._execute_stage(island, stage_index, inputs)
        return self._dispatch(
            island.index,
            (
                "stage",
                island.index,
                stage_index,
                self._take_kill(island.index),
                self._take_hang(island.index),
            ),
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
        inner_cls = BACKENDS[self.inner]

        def build_inner(island_ids: Tuple[int, ...]):
            built = inner_cls(
                self.program,
                replace(
                    self.decomposition,
                    islands=tuple(by_index[q] for q in island_ids),
                ),
                clip_domain=self.clip_domain,
                output_field=self.output_field,
                dtype=self.dtype,
                timed=self.timed,
            )
            if self._ledger is not None:
                # First-touch-style: this worker binds its own compute
                # state to the shared stage buffers inherited at fork.
                built.adopt_exchange_state(self._ledger, self._stage_buffers)
            else:
                built.prepare()
            return built

        mine = list(islands)
        inner = build_inner(tuple(mine))
        conn.send(("ready",))
        inputs = self._input_regions
        out = self._output
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
            elif op == "step":
                _, q, die, wedge = command
                if die:
                    os.kill(os.getpid(), signal.SIGKILL)
                if wedge:
                    while True:  # hung, not dead: the pipe stays open
                        time.sleep(3600.0)
                try:
                    result = inner.execute_island(by_index[q], inputs, out)
                except Exception as error:
                    conn.send(("err", f"{type(error).__name__}: {error}"))
                else:
                    conn.send(("ok", result))
            elif op == "stage":
                _, q, stage_index, die, wedge = command
                if die:
                    os.kill(os.getpid(), signal.SIGKILL)
                if wedge:
                    while True:
                        time.sleep(3600.0)
                try:
                    result = inner.execute_island_stage(
                        by_index[q], stage_index, inputs
                    )
                except Exception as error:
                    conn.send(("err", f"{type(error).__name__}: {error}"))
                else:
                    conn.send(("ok", result))
            else:  # pragma: no cover - protocol error
                conn.send(("err", f"unknown command {op!r}"))


BACKENDS[ProcsBackend.key] = ProcsBackend
