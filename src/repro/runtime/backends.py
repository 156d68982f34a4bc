"""Pluggable island execution backends.

The paper's unit of execution is the island: every backend here computes
one island's part of one time step — all program stages over the part
plus its redundant halo — from the runner's ghost-extended inputs into
the shared output array.  What varies is *how* the sweep runs:

``interpreter`` (:class:`FlatInterpreterBackend`)
    Walk the stage graph per island with :func:`~repro.stencil
    .interpreter.execute_plan`, on persistent stage/scratch arenas.  The
    reference, and the path that needs no C compiler.
``native`` (:class:`NativeBackend`)
    One C call per island step
    (:func:`~repro.stencil.native.compile_plan_native`): the (3+1)D
    sweep, every stage pipelined over the island's i-planes with its
    temporaries folded into rings of planes, writing the island's part
    straight into the output array.  In-process it reads the caller's
    inputs without ghost layers and applies the boundary itself
    (:attr:`IslandBackend.raw_inputs`); procs workers do the same for the
    time-varying input alone.
``procs`` (:class:`~repro.runtime.procs.ProcsBackend`)
    True multi-core islands: each island runs in a persistent worker
    *process* over shared-memory arenas, sidestepping the GIL entirely
    (registered by :mod:`repro.runtime.procs` on package import).

All of them produce bit-identical results — every backend evaluates the
identical expressions on identical inputs — so the registry key in
:class:`~repro.runtime.config.EngineConfig` is purely a performance and
deployment choice.  The backends that build C kernels (``native`` and
``procs`` with native workers) check for cffi and a C compiler once, at
construction (:func:`require_native`), so a host without them is
rejected before any step runs.  Backends own their per-island resources
(arenas, workspaces) behind a uniform
lifecycle: :meth:`prepare` builds them, :meth:`execute_island` uses
them, :meth:`refresh` replaces one island's after a failed attempt,
:meth:`close` releases them.
Backends know nothing about retries, faults or telemetry — that is the
resilience layer's job (:mod:`repro.runtime.resilience`) — and they
never read clocks in Python: wall-time attribution happens around them,
except inside a team step, whose C driver times each task itself, and
inside a batched procs step, whose workers time each island sweep.

Besides the whole-step :meth:`IslandBackend.execute_island` used by the
``recompute`` halo policy, every backend also supports *stage-granular*
execution for the ``exchange`` policy: after
:meth:`IslandBackend.prepare_exchange` installs a
:class:`~repro.core.halo.HaloLedger`, each
:meth:`IslandBackend.execute_island_stage` call computes one stage over
the island's owned slab into a persistent per-stage buffer, and the
runner copies boundary planes between those buffers before the next
stage.  Stage buffers always persist across steps (halo copies target
them), so exchange-mode steps are allocation-free after warm-up in
every backend.  The in-process ``native`` backend can also run such a
step whole, as one C call per team member (:meth:`IslandBackend
.team_step`, :class:`TeamStep`): the members run every stage kernel,
halo copy and barrier of their islands below the interpreter.  In the
same way the ``procs`` backend runs a ``recompute`` step in one round
trip per worker (:meth:`IslandBackend.batch_step`, :class:`StepBatch`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
)

import numpy as np

from ..core import IslandDecomposition
from ..core.halo import HaloLedger
from ..stencil import execute_plan, required_regions
from ..stencil.expr import EvalArena
from ..stencil.field import Field, FieldRole
from ..stencil.interpreter import ArrayRegion, StageArena
from ..stencil.native import (
    TEAM_SYNC_WORDS,
    NativeBuildError,
    TeamProgram,
    compile_plan_native,
    native_unavailable_reason,
    team_driver,
)
from ..stencil.program import StencilProgram
from ..stencil.region import Box
from .config import EngineConfig
from .faults import InjectedFault

__all__ = [
    "BACKENDS",
    "FlatInterpreterBackend",
    "IslandBackend",
    "IslandResult",
    "NativeBackend",
    "StepBatch",
    "TeamStep",
    "create_backend",
    "require_native",
    "stage_delta",
]


def require_native(what: str) -> None:
    """Raise :class:`NativeBuildError` unless C kernels can be built here.

    ``what`` names the configuration that needs them.  Every backend that
    compiles C kernels calls this in its constructor, before it allocates
    anything or forks a worker, so a missing toolchain is a configuration
    error at construction rather than a failure partway through a run.
    """
    reason = native_unavailable_reason()
    if reason is not None:
        raise NativeBuildError(
            f"{what} is unavailable: {reason}; use the 'interpreter' "
            "backend or install cffi and a C compiler"
        )


def stage_delta(
    after: Optional[Dict[str, float]],
    before: Optional[Dict[str, float]],
) -> Optional[Dict[str, float]]:
    """Per-stage seconds of one sweep, from cumulative stage counters.

    Compiled plans accumulate ``stage_seconds`` across calls, so a single
    step's attribution is the difference of two snapshots.
    """
    if after is None:
        return None
    if not before:
        return dict(after)
    return {
        name: seconds - before.get(name, 0.0) for name, seconds in after.items()
    }


@dataclass
class IslandResult:
    """What one successful island sweep reported.

    ``seconds`` is filled by the caller that timed the sweep (the
    resilience layer, or the procs worker that ran it in a batched
    step), not by the backend; ``stage_seconds`` is only populated by
    timing-enabled backends.
    """

    stage_allocations: int = 0
    scratch_allocations: int = 0
    reused: int = 0
    seconds: float = 0.0
    stage_seconds: Optional[Dict[str, float]] = field(default=None)


class IslandBackend:
    """Base class: per-island resources behind a uniform lifecycle.

    Concrete backends register under :attr:`key` in :data:`BACKENDS` and
    are constructed via :meth:`from_config` /
    :func:`create_backend`.  ``plans`` maps island index to the backend's
    per-island execution object where one exists (the native backend's
    compiled plans); the interpreter keeps arenas instead.
    """

    key: ClassVar[str]
    #: The inputs :meth:`execute_island` takes as bare domain arrays
    #: (regions anchored at the domain), applying the boundary itself;
    #: the runner ghost-extends the others first.
    raw_inputs: FrozenSet[str] = frozenset()

    def __init__(
        self,
        program: StencilProgram,
        decomposition: IslandDecomposition,
        *,
        clip_domain: Box,
        output_field: str,
        dtype: np.dtype,
        timed: bool,
    ) -> None:
        self.program = program
        self.decomposition = decomposition
        self.clip_domain = clip_domain
        self.output_field = output_field
        self.dtype = np.dtype(dtype)
        self.timed = timed
        self.plans: Dict[int, object] = {}
        self._ledger: Optional[HaloLedger] = None
        self._stage_buffers: Dict[int, List[Optional[ArrayRegion]]] = {}
        self._stage_reads: Dict[Tuple[int, int], tuple] = {}
        self._stage_programs: Dict[int, StencilProgram] = {}

    @classmethod
    def from_config(
        cls,
        config: EngineConfig,
        program: StencilProgram,
        decomposition: IslandDecomposition,
        *,
        clip_domain: Box,
        output_field: str,
    ) -> "IslandBackend":
        return cls(
            program,
            decomposition,
            clip_domain=clip_domain,
            output_field=output_field,
            dtype=config.numpy_dtype,
            timed=config.collect_timings,
        )

    # -- lifecycle ------------------------------------------------------
    def prepare(self) -> None:
        """Build every island's persistent resources (called once)."""
        raise NotImplementedError

    def execute_island(
        self,
        island,
        inputs: Mapping[str, ArrayRegion],
        out: np.ndarray,
    ) -> IslandResult:
        """Compute one island's part into ``out``; report its traffic."""
        raise NotImplementedError

    def refresh(self, island_index: int) -> None:
        """Replace one island's persistent compute state after a failure.

        A sweep that died mid-execution leaves arena liveness bookkeeping
        or workspace bindings indeterminate, so the retry (or a rollback's
        replay) starts from fresh storage.  Only the failed island pays —
        its neighbours keep their warm buffers, exactly the isolation the
        islands approach buys.
        """
        if self._ledger is not None:
            self._refresh_stage_state(island_index)
        else:
            self._refresh_plan(island_index)

    def _refresh_plan(self, island_index: int) -> None:
        """Replace one island's whole-step compute state (recompute mode)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend-owned resources (idempotent; default: none)."""

    # -- storage hooks (shared-memory backends override) ----------------
    def allocate_ghost(self, field_name: str) -> Optional[ArrayRegion]:
        """Backend-owned storage for one ghost-extended input, or ``None``.

        The runner consults this before allocating a ghost buffer; a
        backend that needs the inputs in special storage (the ``procs``
        backend places them in shared memory so worker processes read
        them zero-copy) returns a persistent region covering the
        clip domain, which the runner then fills in place every step.
        """
        return None

    def allocate_output(self) -> Optional[np.ndarray]:
        """Backend-owned storage for the assembled output, or ``None``.

        Same contract as :meth:`allocate_ghost`: the ``procs`` backend
        hands out its shared-memory output buffers so worker processes
        publish their parts without any cross-process copy.  A backend
        that owns the output reads its :attr:`raw_inputs` only from
        those buffers, so it has two, handed out in turn: the runner
        alternates them and stages any other array into the one a step
        does not write.
        """
        return None

    # -- fault hooks ----------------------------------------------------
    def inject_kill(self, island: int, step: int, attempt: int) -> None:
        """Kill the island's *executor* (a ``kill`` fault fired).

        In-process backends have no executor separate from the task, so
        the default degrades to a ``crash``: raise
        :class:`~repro.runtime.faults.InjectedFault` here and now.  The
        ``procs`` backend overrides this to arm a real ``SIGKILL`` of
        the worker process mid-step instead of raising.
        """
        raise InjectedFault(island, step, attempt)

    def inject_hang(self, island: int, step: int, attempt: int) -> None:
        """Wedge the island's executor (a ``hang`` fault fired).

        The default is a graceful no-op: an in-process island that stops
        responding takes the whole interpreter with it, so there is
        nothing recoverable to exercise and the fault is skipped (it is
        still counted by the injector's accounting).  The ``procs``
        backend overrides this to arm a worker that never replies,
        which the deadline watchdog then detects and kills.
        """

    # -- supervision hooks (deadline-supervised backends override) ------
    def health_events(self) -> Tuple[int, int]:
        """Drain ``(quarantines, islands_remapped)`` since the last call.

        Supervised backends count quarantine decisions and island
        remaps internally (they happen inside :meth:`refresh`, below
        the resilience layer); the retry loop drains them here into
        :class:`~repro.runtime.faults.FaultStats`.  Default: nothing
        ever happens.
        """
        return (0, 0)

    @property
    def serial_fallback(self) -> bool:
        """True when a pooled backend degraded to serial-in-parent."""
        return False

    # -- stage-granular execution (exchange halo policy) ----------------
    @property
    def ledger(self) -> Optional[HaloLedger]:
        """The halo ledger installed by :meth:`prepare_exchange`."""
        return self._ledger

    def prepare_exchange(self, ledger: HaloLedger) -> None:
        """Build per-stage buffers and compute state for one halo ledger.

        Called instead of :meth:`prepare` when the halo policy is
        ``exchange``.  Each island gets one persistent
        buffer per stage, covering the ledger's buffer box (computed slab
        plus the halo received from neighbours); halo copies between
        buffers are the runner's job.
        """
        self._ledger = ledger
        for island in self.decomposition.islands:
            buffers: List[Optional[ArrayRegion]] = []
            for stage_index, box in enumerate(ledger.buffer_boxes[island.index]):
                if box.is_empty():
                    buffers.append(None)
                else:
                    buffers.append(
                        ArrayRegion(
                            self._allocate_stage_array(
                                island.index, stage_index, box
                            ),
                            box,
                        )
                    )
            self._stage_buffers[island.index] = buffers
        self._stage_reads = {}
        self._prepare_stage_state()

    def _allocate_stage_array(
        self, island_index: int, stage_index: int, box: Box
    ) -> np.ndarray:
        """Storage for one stage buffer (hook: ``procs`` carves from shm)."""
        return np.empty(box.shape, dtype=self.dtype)

    def adopt_exchange_state(
        self,
        ledger: HaloLedger,
        stage_buffers: Dict[int, List[Optional[ArrayRegion]]],
    ) -> None:
        """Install pre-allocated stage buffers and build compute state.

        The worker-process half of the ``procs`` backend's exchange mode:
        the parent already allocated every island's stage buffers in
        shared memory (:meth:`prepare_exchange`), so the worker's inner
        backend must *adopt* those regions — binding its per-stage
        compute state to them — rather than allocate fresh ones.
        """
        self._ledger = ledger
        self._stage_buffers = stage_buffers
        self._stage_reads = {}
        self._prepare_stage_state()

    def stage_buffer(
        self, island_index: int, stage_index: int
    ) -> Optional[ArrayRegion]:
        """One island's persistent buffer for one stage's output."""
        return self._stage_buffers[island_index][stage_index]

    def owned_stage_view(self, island, stage_index: int) -> Optional[np.ndarray]:
        """View of the points of one stage an island computes *and* owns.

        The computed slab within the island's part: where post-attempt
        fault corruption lands in exchange mode.  A point there is read
        on the way to the island's part of the output, so a ``corrupt``
        fault reaches the output as it does under recompute — unlike the
        slab's j/k ghost corners, which nothing reads.
        """
        comp = self._ledger.compute_boxes[island.index][stage_index]
        owned = comp.intersect(island.part)
        if owned.is_empty():
            return None
        return self._stage_buffers[island.index][stage_index].view(owned)

    def execute_island_stage(
        self,
        island,
        stage_index: int,
        inputs: Mapping[str, ArrayRegion],
    ) -> IslandResult:
        """Compute one stage of one island into its stage buffer."""
        comp = self._ledger.compute_boxes[island.index][stage_index]
        if comp.is_empty():
            return IslandResult()
        return self._execute_stage(island, stage_index, inputs)

    def _stage_inputs(
        self,
        island_index: int,
        stage_index: int,
        inputs: Mapping[str, ArrayRegion],
    ) -> Dict[str, ArrayRegion]:
        """Resolve one stage's reads: ghost inputs or earlier stage buffers.

        Resolved once per (island, stage): stage buffers are never
        replaced after :meth:`prepare_exchange`, so the same dict is
        returned again while every ghost input it took from ``inputs`` is
        still the same region object.
        """
        key = (island_index, stage_index)
        bound = self._stage_reads.get(key)
        if bound is not None:
            ghosts, resolved = bound
            if all(inputs[name] is region for name, region in ghosts):
                return resolved
        stage = self.program.stages[stage_index]
        field_map = self.program.field_map
        resolved = {}
        ghosts = []
        for name in stage.reads:
            if field_map[name].is_input:
                resolved[name] = inputs[name]
                ghosts.append((name, resolved[name]))
            else:
                resolved[name] = self._stage_buffers[island_index][
                    self.program.producer_of(name)
                ]
        self._stage_reads[key] = (tuple(ghosts), resolved)
        return resolved

    def _stage_program(self, stage_index: int) -> StencilProgram:
        """A one-stage program whose inputs are the stage's read fields."""
        cached = self._stage_programs.get(stage_index)
        if cached is None:
            stage = self.program.stages[stage_index]
            field_map = self.program.field_map
            declared = tuple(
                Field(name, FieldRole.INPUT, itemsize=field_map[name].itemsize)
                for name in stage.reads
            )
            cached = StencilProgram.build(
                f"{self.program.name}:{stage.name}",
                declared,
                (stage,),
                (stage.output,),
            )
            self._stage_programs[stage_index] = cached
        return cached

    def _prepare_stage_state(self) -> None:
        """Hook: build per-stage compute state once buffers exist."""

    def _execute_stage(
        self,
        island,
        stage_index: int,
        inputs: Mapping[str, ArrayRegion],
    ) -> IslandResult:
        raise NotImplementedError

    def _refresh_stage_state(self, island_index: int) -> None:
        """Hook: replace one island's per-stage state before a retry."""

    def team_step(
        self, size: int, inputs: Mapping[str, ArrayRegion], out: np.ndarray
    ) -> Optional["TeamStep"]:
        """A whole exchange step as one call per team member, or ``None``.

        Backends that can run every stage, halo copy and barrier of a
        step below the interpreter return a :class:`TeamStep` of ``size``
        members over ``inputs`` and ``out``; the rest (the default) keep
        the runner's stage-by-stage path.
        """
        return None

    def batch_step(
        self,
        inputs: Mapping[str, ArrayRegion],
        out: np.ndarray,
        weights: Optional[str] = None,
    ) -> Optional["StepBatch"]:
        """A whole recompute step in one round trip per worker, or ``None``.

        Backends whose islands run in worker processes (``procs``) run
        every island and return a :class:`StepBatch`; with ``weights``
        (the name of an input) it also holds each island part's mass
        ``sum(weights * out)``.  The rest (the default) keep the runner's
        per-island path.
        """
        return None


@dataclass
class StepBatch:
    """What one batched step reported (:meth:`IslandBackend.batch_step`).

    ``results`` and ``masses`` are keyed by island index; ``masses`` is
    empty unless the step was asked for them.  A non-empty ``failures``
    (the :class:`~repro.runtime.procs.WorkerCrashed` and
    :class:`~repro.runtime.faults.WorkerHung` errors of the workers that
    did not reply) voids the step: the runner reruns it per island.
    """

    results: Dict[int, IslandResult] = field(default_factory=dict)
    masses: Dict[int, float] = field(default_factory=dict)
    failures: List[Exception] = field(default_factory=list)


#: How long a team member waiting at a barrier keeps its CPU (spinning,
#: then yielding) before it blocks, when every member has a CPU of its
#: own.  Per-stage imbalance is well under this, and a blocked member's
#: CPU goes idle: waking it again (on a virtual machine, the host
#: rescheduling the virtual CPU) can take longer than a stage.  Members
#: that share CPUs block at once, so the member they wait for can run.
TEAM_KEEP_SECONDS = 2e-3


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


class TeamStep:
    """One exchange step as one native call per team member.

    Built by :meth:`NativeBackend.team_step`.  Member ``m`` runs the
    islands ``q`` with ``q % size == m``: per active stage it copies in
    the previous stage's flows whose destination is one of its islands,
    runs its islands' stage plans and waits at the barrier; after the
    last stage it copies in the last flows and its islands' parts of the
    output.  Each member copies only into its own islands, and a flow
    reads only its source island's computed box of a finished stage, so
    one barrier per stage orders every copy.

    :meth:`run` releases the GIL for the member's whole program and
    returns 0, or 1 once the step was aborted.  :meth:`abort` releases
    every member wherever it waits, so a caller that cannot start every
    member can still collect the ones it started.
    """

    def __init__(
        self,
        size: int,
        programs: List[TeamProgram],
        inputs: Tuple[Tuple[str, ArrayRegion], ...],
        out: np.ndarray,
        outputs: List[Tuple[TeamProgram, int, Box, np.ndarray]],
        launches: List[object],
        results: List[IslandResult],
        stage_names: List[List[Tuple[int, str]]],
        clocks: int,
    ) -> None:
        driver = team_driver()
        ffi = driver.ffi  # type: ignore[attr-defined]
        self._run = driver.lib._team_run  # type: ignore[attr-defined]
        self._abort = driver.lib._team_abort  # type: ignore[attr-defined]
        self.size = size
        self.out = out
        self._inputs = inputs
        self._outputs = outputs
        self._programs = programs
        self._pointers = [
            ffi.cast("long *", program.words.ctypes.data) for program in programs
        ]
        #: The launches whose argument vectors the programs point into,
        #: kept alive with everything they point into in turn.
        self._launches = launches
        self._sync = np.zeros(TEAM_SYNC_WORDS, dtype=np.int32)
        self._sync_pointer = ffi.cast("int *", self._sync.ctypes.data)
        #: Seconds a member keeps its CPU at a barrier before it blocks.
        self.keep = TEAM_KEEP_SECONDS if size <= _usable_cpus() else 0.0
        self._results = results
        self._stage_names = stage_names
        #: Per island, ``clocks`` seconds the team driver adds to: one
        #: kernel clock per active stage, then the island's wall time
        #: (none when untimed).
        self._seconds: Optional[np.ndarray] = None
        self._seconds_pointer = ffi.NULL
        if clocks:
            self._seconds = np.zeros((len(results), clocks))
            self._seconds_pointer = ffi.cast(
                "double *", self._seconds.ctypes.data
            )

    def holds(self, inputs: Mapping[str, ArrayRegion]) -> bool:
        """Whether ``inputs`` are the regions the programs were built on."""
        return all(inputs[name] is region for name, region in self._inputs)

    def point_output(self, out: np.ndarray) -> None:
        """Re-point the output copies at a new output array."""
        for program, offset, part, source in self._outputs:
            program.repoint(offset, out[part.slices()], source)
        self.out = out

    def arm(self) -> None:
        """Reset the barrier (and the clocks) before a step's members start."""
        self._sync.fill(0)
        if self._seconds is not None:
            self._seconds.fill(0.0)

    def run(self, member: int) -> int:
        """Run member ``member``'s program; 0, or 1 if the step was aborted."""
        try:
            return self._run(
                self._pointers[member], self._sync_pointer, self.size,
                self.keep, self._seconds_pointer,
            )
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        """Release every member of the current step, wherever it waits."""
        self._abort(self._sync_pointer)

    def results(self) -> List[IslandResult]:
        """Each island's result for the step just run: the launch slots
        it reused (a team step allocates nothing) and, timed, its
        seconds."""
        if self._seconds is None:
            return self._results
        results = []
        for position, result in enumerate(self._results):
            row = self._seconds[position].tolist()
            results.append(
                IslandResult(
                    reused=result.reused,
                    seconds=row[-1],
                    stage_seconds={
                        name: row[slot]
                        for slot, name in self._stage_names[position]
                    },
                )
            )
        return results


class FlatInterpreterBackend(IslandBackend):
    """Walk the stage graph per island (the reference execution path)."""

    key = "interpreter"

    def prepare(self) -> None:
        self._arenas: Dict[int, StageArena] = {}
        self._scratch: Dict[int, EvalArena] = {}
        for island in self.decomposition.islands:
            self._refresh_plan(island.index)

    def execute_island(self, island, inputs, out) -> IslandResult:
        results, stats = execute_plan(
            self.program,
            island.halo_plan,
            inputs,
            dtype=self.dtype,
            arena=self._arenas[island.index],
            scratch=self._scratch[island.index],
            collect_timing=self.timed,
        )
        out[island.part.slices()] = results[self.output_field].view(island.part)
        return IslandResult(
            stage_allocations=stats.allocations,
            scratch_allocations=stats.scratch_allocations,
            reused=stats.reused_buffers + stats.scratch_reused,
            stage_seconds=stats.stage_seconds if self.timed else None,
        )

    def _refresh_plan(self, island_index: int) -> None:
        self._arenas[island_index] = StageArena(self.dtype)
        self._scratch[island_index] = EvalArena(self.dtype)

    # -- stage-granular path (exchange) ---------------------------------
    def _prepare_stage_state(self) -> None:
        self._stage_scratch: Dict[int, EvalArena] = {}
        for island in self.decomposition.islands:
            self._refresh_stage_state(island.index)

    def _execute_stage(self, island, stage_index, inputs) -> IslandResult:
        stage = self.program.stages[stage_index]
        comp = self._ledger.compute_boxes[island.index][stage_index]
        out_view = self._stage_buffers[island.index][stage_index].view(comp)
        resolved = self._stage_inputs(island.index, stage_index, inputs)

        def resolve(field_name: str, offset) -> np.ndarray:
            return resolved[field_name].view(comp.shift(offset))

        scratch = self._stage_scratch[island.index]
        before = (scratch.allocations, scratch.reuses)
        start = perf_counter() if self.timed else 0.0
        stage.expr.evaluate(resolve, out=out_view, scratch=scratch)
        result = IslandResult(
            scratch_allocations=scratch.allocations - before[0],
            reused=scratch.reuses - before[1],
        )
        if self.timed:
            result.stage_seconds = {stage.name: perf_counter() - start}
        return result

    def _refresh_stage_state(self, island_index: int) -> None:
        self._stage_scratch[island_index] = EvalArena(self.dtype)


class NativeBackend(IslandBackend):
    """One C call per island step, persistent workspace.

    Every halo plan — whole-step, and per stage under the exchange
    policy — is compiled by
    :func:`~repro.stencil.native.compile_plan_native`.  A whole step then
    streams the island's inputs and output once, keeping every
    intermediate in a ring of planes (MODEL.md §8, §15).  Built from a
    config (in-process), its whole-step plans are *gathered*: they copy
    each input plane into a ring as the pipeline needs it, folding
    coordinates outside the domain by ``boundary``, so the runner hands
    over bare domain arrays and fills no ghost layers
    (:attr:`raw_inputs`).  ``gather`` narrows that to some inputs: procs
    workers gather the time-varying input from shared memory and read
    the static ones from parent-filled ghost buffers.  Constructed
    directly it has no ``boundary`` and reads ghost-extended inputs
    only.  Each plan's output is
    bound to the island's part of the runner's output array, so the step
    writes it in place.  Under exchange, :meth:`team_step`
    packs the bound stage plans and halo copies into one program per
    team member, so a fault-free step is one C call per member.  There
    is deliberately no silent fallback to the interpreter: a quietly
    degraded backend would invalidate any performance measurement taken
    through it.
    """

    key = "native"

    def __init__(self, *args, **kwargs) -> None:
        require_native("the 'native' backend")
        super().__init__(*args, **kwargs)
        #: The boundary condition whole-step plans apply as they gather
        #: their inputs; ``None`` keeps ghost-extended inputs.
        self.boundary: Optional[str] = None
        #: The inputs whole-step plans gather under ``boundary`` (``None``:
        #: every input).
        self.gather: Optional[FrozenSet[str]] = None

    @classmethod
    def from_config(cls, config: EngineConfig, *args, **kwargs) -> "NativeBackend":
        backend = super().from_config(config, *args, **kwargs)
        backend.boundary = config.boundary
        return backend

    def _boundary(self) -> Optional[Tuple[str, Box]]:
        """``(mode, domain)`` for :func:`compile_plan_native`, or ``None``."""
        if self.boundary is None:
            return None
        return (self.boundary, self.decomposition.partition.domain)

    def prepare(self) -> None:
        output_stage = self.program.producer_of(self.output_field)
        for island in self.decomposition.islands:
            assert island.halo_plan.stage_boxes[output_stage] == island.part
        boundary = self._boundary()
        if boundary is not None:
            self.raw_inputs = frozenset(
                field.name
                for field in self.program.input_fields
                if self.gather is None or field.name in self.gather
            )
        self.plans = {
            island.index: compile_plan_native(
                self.program,
                island.halo_plan,
                dtype=self.dtype,
                timed=self.timed,
                boundary=boundary,
                gather=self.gather,
            )
            for island in self.decomposition.islands
        }
        #: Per island, its part of the last two output arrays as
        #: ``(out, view)``: rebinding the same view keeps the plan's
        #: launch for that array valid.
        self._parts: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}

    def _part_view(self, island, out: np.ndarray) -> np.ndarray:
        parts = self._parts.setdefault(island.index, [])
        for array, view in parts:
            if array is out:
                return view
        view = out[island.part.slices()]
        parts.insert(0, (out, view))
        del parts[2:]
        return view

    def _call(self, compiled, inputs) -> IslandResult:
        """Run one plan; report its workspace traffic (and stage clock)."""
        workspace = compiled.workspace
        before = (workspace.allocations, workspace.reuses)
        stage_before = compiled.stage_seconds if self.timed else None
        compiled(inputs)
        result = IslandResult(
            stage_allocations=workspace.allocations - before[0],
            reused=workspace.reuses - before[1],
        )
        if self.timed:
            result.stage_seconds = stage_delta(
                compiled.stage_seconds, stage_before
            )
        return result

    def execute_island(self, island, inputs, out) -> IslandResult:
        compiled = self.plans[island.index]
        compiled.workspace.bind_out(
            self.output_field, self._part_view(island, out)
        )
        return self._call(compiled, inputs)

    def _refresh_plan(self, island_index: int) -> None:
        self.plans[island_index].workspace.reset()

    # -- stage-granular path (exchange) ---------------------------------
    def _prepare_stage_state(self) -> None:
        self._stage_plans: Dict[Tuple[int, int], object] = {}
        #: Team steps by team size, dropped whenever a plan is rebound.
        self._teams: Dict[int, TeamStep] = {}
        # Stage plans gather nothing: their inputs are ghost-extended
        # stage buffers and input regions, whose ghosts hold their
        # periodic images.  The boundary lets a periodic plan copy its
        # j/k ghosts from their images instead of computing them.
        boundary = self._boundary()
        for island in self.decomposition.islands:
            q = island.index
            for s in range(len(self._ledger.compute_boxes[q])):
                comp = self._ledger.compute_boxes[q][s]
                if comp.is_empty():
                    continue
                stage = self.program.stages[s]
                sub = self._stage_program(s)
                compiled = compile_plan_native(
                    sub,
                    required_regions(sub, comp),
                    dtype=self.dtype,
                    timed=self.timed,
                    boundary=boundary,
                    gather=(),
                )
                compiled.workspace.bind_out(
                    stage.output, self._stage_buffers[q][s].view(comp)
                )
                self._stage_plans[(q, s)] = compiled

    def _execute_stage(self, island, stage_index, inputs) -> IslandResult:
        return self._call(
            self._stage_plans[(island.index, stage_index)],
            self._stage_inputs(island.index, stage_index, inputs),
        )

    def _refresh_stage_state(self, island_index: int) -> None:
        self._teams.clear()
        for (q, s), compiled in self._stage_plans.items():
            if q != island_index:
                continue
            compiled.workspace.reset()
            comp = self._ledger.compute_boxes[q][s]
            compiled.workspace.bind_out(
                self.program.stages[s].output,
                self._stage_buffers[q][s].view(comp),
            )

    def team_step(self, size, inputs, out) -> Optional[TeamStep]:
        """The :class:`TeamStep` of ``size`` members, built once.

        Kept while the ghost input regions are the same objects (a check
        per input, not per plan or island) and no refresh rebound a
        plan; a new ``out`` re-points only the output copies.
        """
        if self._ledger is None:
            return None
        team = self._teams.get(size)
        if team is None or not team.holds(inputs):
            team = self._teams[size] = self._build_team(size, inputs, out)
        elif team.out is not out:
            team.point_output(out)
        return team

    def _build_team(self, size, inputs, out) -> TeamStep:
        """Pack each member's program from the bound stage plans.

        Binds every stage plan through the same checks and launch reuse
        as a call (:meth:`~repro.stencil.codegen.CompiledPlan.bind`), but
        runs no kernel.
        """
        ledger = self._ledger
        islands = self.decomposition.islands
        active = ledger.active_stages
        buffers = self._stage_buffers
        programs = [TeamProgram() for _ in range(size)]
        launches: List[object] = []
        results = [IslandResult() for _ in islands]
        stage_names: List[List[Tuple[int, str]]] = [[] for _ in islands]
        wall = len(active)

        def receive(stage: int) -> None:
            for flow in ledger.stage_flows[stage]:
                programs[flow.dst % size].copy(
                    buffers[flow.dst][stage].view(flow.box),
                    buffers[flow.src][stage].view(flow.box),
                )

        for slot, stage in enumerate(active):
            if slot:
                receive(active[slot - 1])
            name = self.program.stages[stage].name
            for position, island in enumerate(islands):
                compiled = self._stage_plans.get((island.index, stage))
                if compiled is None:
                    continue
                launch = compiled.bind(
                    self._stage_inputs(island.index, stage, inputs)
                )
                results[position].reused += launch.slots
                stage_names[position].append((slot, name))
                programs[island.index % size].task(
                    launch, position * (wall + 1) + wall,
                    position * (wall + 1) + slot,
                )
                launches.append(launch)
            for program in programs:
                program.barrier()
        receive(active[-1])
        producer = self.program.producer_of(self.output_field)
        outputs = []
        for island in islands:
            program = programs[island.index % size]
            source = buffers[island.index][producer].view(island.part)
            offset = program.copy(out[island.part.slices()], source)
            outputs.append((program, offset, island.part, source))
        for program in programs:
            program.pack()
        return TeamStep(
            size,
            programs,
            tuple(
                (field.name, inputs[field.name])
                for field in self.program.input_fields
            ),
            out,
            outputs,
            launches,
            results,
            stage_names,
            wall + 1 if self.timed else 0,
        )


BACKENDS: Dict[str, Type[IslandBackend]] = {
    backend.key: backend
    for backend in (FlatInterpreterBackend, NativeBackend)
}


def create_backend(
    config: EngineConfig,
    program: StencilProgram,
    decomposition: IslandDecomposition,
    *,
    clip_domain: Box,
    output_field: str,
    ledger: Optional[HaloLedger] = None,
) -> IslandBackend:
    """Instantiate and prepare the backend ``config.backend`` names.

    With a non-recompute ``ledger`` the backend is prepared for
    stage-granular execution (:meth:`IslandBackend.prepare_exchange`)
    instead of whole-step island sweeps.
    """
    try:
        backend_cls = BACKENDS[config.backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {config.backend!r}; known: "
            f"{', '.join(sorted(BACKENDS))}"
        ) from None
    backend = backend_cls.from_config(
        config,
        program,
        decomposition,
        clip_domain=clip_domain,
        output_field=output_field,
    )
    if ledger is not None and ledger.policy != "recompute":
        backend.prepare_exchange(ledger)
    else:
        backend.prepare()
    return backend
