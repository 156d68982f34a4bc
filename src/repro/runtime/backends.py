"""Pluggable island execution backends.

The paper's unit of execution is the island: every backend here computes
one island's part of one time step — all program stages over the part
plus its redundant halo — from the runner's ghost-extended inputs into
the shared output array.  What varies is *how* the sweep runs:

``interpreter`` (:class:`FlatInterpreterBackend`)
    Walk the stage graph per island with :func:`~repro.stencil
    .interpreter.execute_plan`, on persistent stage/scratch arenas in
    steady-state mode.  The reference, and the path that needs no C
    compiler.
``native`` (:class:`NativeBackend`)
    One fused-C step per island
    (:func:`~repro.stencil.native.compile_plan_native`) with a persistent
    workspace.
``tiled`` (:class:`TiledBackend`)
    The (3+1)D backend: each island's part is covered by cache-sized
    blocks, each with its own fused-C step and sized workspace
    (:func:`~repro.stencil.tiled_exec.compile_plan_tiled`), optionally
    swept by an intra-island thread team.
``procs`` (:class:`~repro.runtime.procs.ProcsBackend`)
    True multi-core islands: each island runs in a persistent worker
    *process* over shared-memory arenas, sidestepping the GIL entirely
    (registered by :mod:`repro.runtime.procs` on package import).

All of them produce bit-identical results — every backend evaluates the
identical expressions on identical inputs — so the registry key in
:class:`~repro.runtime.config.EngineConfig` is purely a performance and
deployment choice.  The backends that build C kernels (``native``,
``tiled`` and ``procs`` with native workers) check for cffi and a C
compiler once, at construction (:func:`require_native`), so a host
without them is rejected before any step runs.  Backends own their
per-island resources (arenas, workspaces, block plans) behind a uniform
lifecycle: :meth:`prepare` builds them, :meth:`execute_island` uses
them, :meth:`refresh` replaces one island's after a failed attempt,
:meth:`close` releases them.
Backends know nothing about retries, faults or telemetry — that is the
resilience layer's job (:mod:`repro.runtime.resilience`) — and they
never read clocks: wall-time attribution happens around them.

Besides the whole-step :meth:`IslandBackend.execute_island` used by the
``recompute`` halo policy, every backend also supports *stage-granular*
execution for the ``exchange`` and ``hybrid`` policies: after
:meth:`IslandBackend.prepare_exchange` installs a
:class:`~repro.core.halo.HaloLedger`, each
:meth:`IslandBackend.execute_island_stage` call computes one stage over
the island's owned slab into a persistent per-stage buffer, and the
runner copies boundary planes between those buffers before the next
stage.  Stage buffers always persist across steps (halo copies target
them), so exchange-mode steps are allocation-free after warm-up in
every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import ClassVar, Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from ..core import IslandDecomposition
from ..core.halo import HaloLedger
from ..stencil import execute_plan, required_regions
from ..stencil.expr import EvalArena
from ..stencil.field import Field, FieldRole
from ..stencil.interpreter import ArrayRegion, StageArena
from ..stencil.native import (
    NativeBuildError,
    compile_plan_native,
    native_unavailable_reason,
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
    "TiledBackend",
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
    resilience layer), not by the backend; ``block_seconds`` and
    ``stage_seconds`` are only populated by timing-enabled backends.
    """

    stage_allocations: int = 0
    scratch_allocations: int = 0
    reused: int = 0
    seconds: float = 0.0
    block_seconds: Tuple[float, ...] = ()
    stage_seconds: Optional[Dict[str, float]] = field(default=None)


class IslandBackend:
    """Base class: per-island resources behind a uniform lifecycle.

    Concrete backends register under :attr:`key` in :data:`BACKENDS` and
    are constructed via :meth:`from_config` /
    :func:`create_backend`.  ``plans`` maps island index to the backend's
    per-island execution object where one exists (native and tiled
    backends); the interpreter keeps arenas instead.
    """

    key: ClassVar[str]

    def __init__(
        self,
        program: StencilProgram,
        decomposition: IslandDecomposition,
        *,
        clip_domain: Box,
        output_field: str,
        dtype: np.dtype,
        reuse_buffers: bool,
        timed: bool,
    ) -> None:
        self.program = program
        self.decomposition = decomposition
        self.clip_domain = clip_domain
        self.output_field = output_field
        self.dtype = np.dtype(dtype)
        self.reuse_buffers = reuse_buffers
        self.timed = timed
        self.plans: Dict[int, object] = {}
        self._ledger: Optional[HaloLedger] = None
        self._stage_buffers: Dict[int, List[Optional[ArrayRegion]]] = {}
        self._stage_reads: Dict[Tuple[int, int], tuple] = {}
        self._stage_programs: Dict[int, StencilProgram] = {}
        self._step_plans: Optional[Tuple[Tuple[object, ...], ...]] = None
        self._recurrent: Optional[str] = None

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
            reuse_buffers=config.reuse_buffers,
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
        """Replace one island's persistent compute state before a retry.

        A sweep that died mid-execution leaves arena liveness bookkeeping
        or workspace bindings indeterminate, so the retry starts from
        fresh storage.  Only the failed island pays — its neighbours keep
        their warm buffers, exactly the isolation the islands approach
        buys.
        """
        if self._ledger is not None:
            self._refresh_stage_state(island_index)
        elif self._step_plans is not None:
            self._refresh_super(island_index)
        else:
            self._refresh_plan(island_index)

    def _refresh_plan(self, island_index: int) -> None:
        """Replace one island's whole-step compute state (recompute mode)."""
        raise NotImplementedError

    # -- super-step execution (temporal blocking, recompute policy) -----
    def prepare_super(
        self,
        step_plans: Tuple[Tuple[object, ...], ...],
        recurrent: str,
    ) -> None:
        """Build per-sub-step state for temporal-blocked super-steps.

        Called instead of :meth:`prepare` when ``sync_every > 1`` under
        the recompute policy.  ``step_plans[island]`` holds the ``s``
        composed :class:`~repro.stencil.halo.HaloPlan` objects in
        execution order (see
        :func:`repro.stencil.halo.composed_step_plans`); ``recurrent``
        names the input field that receives each sub-step's output.
        Every sub-step gets its *own* persistent compute state (arena /
        workspace): one shared arena would recycle sub-step ``k``'s
        output buffers at the start of sub-step ``k+1``, exactly while
        they are being read.
        """
        self._step_plans = step_plans
        self._recurrent = recurrent
        self._prepare_super_state()

    def _prepare_super_state(self) -> None:
        """Hook: build per-(island, sub-step) compute state."""
        raise NotImplementedError

    @property
    def temporal(self) -> bool:
        """True when prepared for super-steps (``prepare_super`` ran).

        A temporally-blocked backend has *only* per-sub-step state — no
        plain whole-step plans — so callers must route every execution
        through :meth:`execute_island_super`, even a remainder
        super-step that advances a single step.
        """
        return self._step_plans is not None

    def execute_island_super(
        self,
        island,
        inputs: Mapping[str, ArrayRegion],
        out: np.ndarray,
        steps: int,
    ) -> IslandResult:
        """Advance ``steps`` sub-steps island-locally, then write ``out``.

        Runs the first ``steps`` composed plans (``steps < sync_every``
        only on a run's remainder super-step, where the deeper plans do
        some extra redundant work but stay bit-identical), feeding each
        sub-step's output region into the next sub-step's recurrent
        input, and extracts the island's part from the last sub-step.
        """
        raise NotImplementedError

    def _refresh_super(self, island_index: int) -> None:
        """Hook: replace one island's per-sub-step state before a retry."""
        raise NotImplementedError

    def _chain_inputs(
        self,
        inputs: Mapping[str, ArrayRegion],
        produced: ArrayRegion,
    ) -> Dict[str, ArrayRegion]:
        """Next sub-step's inputs: ghost inputs + the recurrent region."""
        chained = dict(inputs)
        chained[self._recurrent] = produced
        return chained

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
        hands out its shared-memory output arena so worker processes
        publish their parts without any cross-process copy.
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

    # -- stage-granular execution (exchange / hybrid halo policies) -----
    @property
    def ledger(self) -> Optional[HaloLedger]:
        """The halo ledger installed by :meth:`prepare_exchange`."""
        return self._ledger

    def prepare_exchange(self, ledger: HaloLedger) -> None:
        """Build per-stage buffers and compute state for one halo ledger.

        Called instead of :meth:`prepare` when the halo policy is
        ``exchange`` or ``hybrid``.  Each island gets one persistent
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

    def stage_view(
        self, island_index: int, stage_index: int
    ) -> Optional[np.ndarray]:
        """View of the slab one island *computes* for one stage.

        This is where post-attempt fault corruption lands in exchange
        mode — the freshly written points, not the received halo.
        """
        comp = self._ledger.compute_boxes[island_index][stage_index]
        if comp.is_empty():
            return None
        return self._stage_buffers[island_index][stage_index].view(comp)

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

    def _flat_stage(self, stage_index: int) -> Tuple[int, int]:
        """Split a flat ledger index into ``(sub_step, local_stage)``.

        Exchange-mode ledgers built with ``sync_every = s`` flatten the
        stage axis to ``s * len(program.stages)`` entries; with the
        default ``s = 1`` this is the identity mapping.
        """
        stages = len(self.program.stages)
        return stage_index // stages, stage_index % stages

    def _stage_inputs(
        self,
        island_index: int,
        stage_index: int,
        inputs: Mapping[str, ArrayRegion],
    ) -> Dict[str, ArrayRegion]:
        """Resolve one flat stage's reads: ghost inputs, earlier stage
        buffers of the same sub-step, or — for the recurrent field after
        the first sub-step — the previous sub-step's output buffer.

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
        sub_step, local = self._flat_stage(stage_index)
        stage = self.program.stages[local]
        stages = len(self.program.stages)
        field_map = self.program.field_map
        recurrent = self._ledger.recurrent if self._ledger is not None else None
        resolved = {}
        ghosts = []
        for name in stage.reads:
            if field_map[name].is_input:
                if sub_step > 0 and name == recurrent:
                    producer = self.program.producer_of(self.output_field)
                    resolved[name] = self._stage_buffers[island_index][
                        (sub_step - 1) * stages + producer
                    ]
                else:
                    resolved[name] = inputs[name]
                    ghosts.append((name, resolved[name]))
            else:
                producer = self.program.producer_of(name)
                resolved[name] = self._stage_buffers[island_index][
                    sub_step * stages + producer
                ]
        self._stage_reads[key] = (tuple(ghosts), resolved)
        return resolved

    def _stage_program(self, stage_index: int) -> StencilProgram:
        """A one-stage program whose inputs are the stage's read fields.

        Keyed by the *local* stage index: every sub-step runs the same
        seventeen stages, so flat indices share the cached programs.
        """
        _, local = self._flat_stage(stage_index)
        cached = self._stage_programs.get(local)
        if cached is None:
            stage = self.program.stages[local]
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
            self._stage_programs[local] = cached
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


class FlatInterpreterBackend(IslandBackend):
    """Walk the stage graph per island (the reference execution path)."""

    key = "interpreter"

    def prepare(self) -> None:
        self._arenas: Dict[int, StageArena] = {}
        self._scratch: Dict[int, EvalArena] = {}
        if self.reuse_buffers:
            for island in self.decomposition.islands:
                self._arenas[island.index] = StageArena(self.dtype)
                self._scratch[island.index] = EvalArena(self.dtype)

    def execute_island(self, island, inputs, out) -> IslandResult:
        results, stats = execute_plan(
            self.program,
            island.halo_plan,
            inputs,
            dtype=self.dtype,
            arena=self._arenas.get(island.index),
            scratch=self._scratch.get(island.index),
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
        if self.reuse_buffers:
            self._arenas[island_index] = StageArena(self.dtype)
            self._scratch[island_index] = EvalArena(self.dtype)

    # -- super-step path (temporal blocking) ----------------------------
    def _prepare_super_state(self) -> None:
        self._super_arenas: Dict[Tuple[int, int], StageArena] = {}
        self._scratch = {}
        if self.reuse_buffers:
            for island in self.decomposition.islands:
                self._scratch[island.index] = EvalArena(self.dtype)
                for k in range(len(self._step_plans[island.index])):
                    self._super_arenas[(island.index, k)] = StageArena(self.dtype)

    def execute_island_super(self, island, inputs, out, steps) -> IslandResult:
        plans = self._step_plans[island.index]
        current: Mapping[str, ArrayRegion] = inputs
        total = IslandResult()
        results = None
        for k in range(steps):
            results, stats = execute_plan(
                self.program,
                plans[k],
                current,
                dtype=self.dtype,
                arena=self._super_arenas.get((island.index, k)),
                scratch=self._scratch.get(island.index),
                collect_timing=self.timed,
            )
            total.stage_allocations += stats.allocations
            total.scratch_allocations += stats.scratch_allocations
            total.reused += stats.reused_buffers + stats.scratch_reused
            if self.timed and stats.stage_seconds:
                merged = dict(total.stage_seconds or {})
                for name, seconds in stats.stage_seconds.items():
                    merged[name] = merged.get(name, 0.0) + seconds
                total.stage_seconds = merged
            if k + 1 < steps:
                current = self._chain_inputs(inputs, results[self.output_field])
        out[island.part.slices()] = results[self.output_field].view(island.part)
        return total

    def _refresh_super(self, island_index: int) -> None:
        if self.reuse_buffers:
            self._scratch[island_index] = EvalArena(self.dtype)
            for k in range(len(self._step_plans[island_index])):
                self._super_arenas[(island_index, k)] = StageArena(self.dtype)

    # -- stage-granular path (exchange / hybrid) ------------------------
    def _prepare_stage_state(self) -> None:
        self._stage_scratch: Dict[int, EvalArena] = {}
        if self.reuse_buffers:
            for island in self.decomposition.islands:
                self._stage_scratch[island.index] = EvalArena(self.dtype)

    def _execute_stage(self, island, stage_index, inputs) -> IslandResult:
        stage = self.program.stages[self._flat_stage(stage_index)[1]]
        comp = self._ledger.compute_boxes[island.index][stage_index]
        out_view = self._stage_buffers[island.index][stage_index].view(comp)
        resolved = self._stage_inputs(island.index, stage_index, inputs)

        def resolve(field_name: str, offset) -> np.ndarray:
            return resolved[field_name].view(comp.shift(offset))

        scratch = self._stage_scratch.get(island.index)
        if scratch is None:
            scratch = EvalArena(self.dtype)
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
        if self.reuse_buffers:
            self._stage_scratch[island_index] = EvalArena(self.dtype)


class NativeBackend(IslandBackend):
    """One fused-C step per island, persistent workspace.

    Every halo plan — whole-step, per sub-step under ``sync_every > 1``,
    and per stage under the exchange and hybrid policies — is compiled
    by :func:`~repro.stencil.native.compile_plan_native`.  One stage then
    costs a single memory sweep regardless of its operator-chain depth
    (MODEL.md §15).  There is deliberately no silent fallback to the
    interpreter: a quietly degraded backend would invalidate any
    performance measurement taken through it.
    """

    key = "native"

    def __init__(self, *args, **kwargs) -> None:
        require_native("the 'native' backend")
        super().__init__(*args, **kwargs)

    def prepare(self) -> None:
        self.plans = {
            island.index: compile_plan_native(
                self.program,
                island.halo_plan,
                dtype=self.dtype,
                reuse_buffers=self.reuse_buffers,
                timed=self.timed,
            )
            for island in self.decomposition.islands
        }

    def execute_island(self, island, inputs, out) -> IslandResult:
        compiled = self.plans[island.index]
        workspace = compiled.workspace
        before = (
            (workspace.allocations, workspace.reuses)
            if workspace is not None
            else (0, 0)
        )
        stage_before = compiled.stage_seconds if self.timed else None
        results = compiled(inputs)
        workspace = compiled.last_workspace
        result = IslandResult(
            stage_allocations=workspace.allocations - before[0],
            reused=workspace.reuses - before[1],
        )
        out[island.part.slices()] = results[self.output_field].view(island.part)
        if self.timed:
            result.stage_seconds = stage_delta(
                compiled.stage_seconds, stage_before
            )
        return result

    def _refresh_plan(self, island_index: int) -> None:
        compiled = self.plans[island_index]
        if compiled.persistent:
            compiled.persistent = True  # installs a fresh Workspace

    # -- super-step path (temporal blocking) ----------------------------
    def _prepare_super_state(self) -> None:
        self._super_plans: Dict[Tuple[int, int], object] = {}
        for island in self.decomposition.islands:
            for k, plan in enumerate(self._step_plans[island.index]):
                self._super_plans[(island.index, k)] = compile_plan_native(
                    self.program,
                    plan,
                    dtype=self.dtype,
                    reuse_buffers=self.reuse_buffers,
                    timed=self.timed,
                )

    def execute_island_super(self, island, inputs, out, steps) -> IslandResult:
        current: Mapping[str, ArrayRegion] = inputs
        total = IslandResult()
        results = None
        for k in range(steps):
            compiled = self._super_plans[(island.index, k)]
            workspace = compiled.workspace
            before = (
                (workspace.allocations, workspace.reuses)
                if workspace is not None
                else (0, 0)
            )
            stage_before = compiled.stage_seconds if self.timed else None
            results = compiled(current)
            workspace = compiled.last_workspace
            total.stage_allocations += workspace.allocations - before[0]
            total.reused += workspace.reuses - before[1]
            if self.timed:
                delta = stage_delta(compiled.stage_seconds, stage_before)
                if delta:
                    merged = dict(total.stage_seconds or {})
                    for name, seconds in delta.items():
                        merged[name] = merged.get(name, 0.0) + seconds
                    total.stage_seconds = merged
            if k + 1 < steps:
                current = self._chain_inputs(inputs, results[self.output_field])
        out[island.part.slices()] = results[self.output_field].view(island.part)
        return total

    def _refresh_super(self, island_index: int) -> None:
        for (q, _k), compiled in self._super_plans.items():
            if q == island_index and compiled.persistent:
                compiled.persistent = True  # installs a fresh Workspace

    # -- stage-granular path (exchange / hybrid) ------------------------
    def _prepare_stage_state(self) -> None:
        self._stage_plans: Dict[Tuple[int, int], object] = {}
        for island in self.decomposition.islands:
            q = island.index
            for s in range(len(self._ledger.compute_boxes[q])):
                comp = self._ledger.compute_boxes[q][s]
                if comp.is_empty():
                    continue
                stage = self.program.stages[self._flat_stage(s)[1]]
                sub = self._stage_program(s)
                compiled = compile_plan_native(
                    sub,
                    required_regions(sub, comp),
                    dtype=self.dtype,
                    reuse_buffers=True,
                    timed=self.timed,
                )
                compiled.workspace.bind_out(
                    stage.output, self._stage_buffers[q][s].view(comp)
                )
                self._stage_plans[(q, s)] = compiled

    def _execute_stage(self, island, stage_index, inputs) -> IslandResult:
        compiled = self._stage_plans[(island.index, stage_index)]
        workspace = compiled.workspace
        before = (workspace.allocations, workspace.reuses)
        stage_before = compiled.stage_seconds if self.timed else None
        compiled(self._stage_inputs(island.index, stage_index, inputs))
        result = IslandResult(
            stage_allocations=workspace.allocations - before[0],
            reused=workspace.reuses - before[1],
        )
        if self.timed:
            result.stage_seconds = stage_delta(
                compiled.stage_seconds, stage_before
            )
        return result

    def _refresh_stage_state(self, island_index: int) -> None:
        for (q, s), compiled in self._stage_plans.items():
            if q != island_index:
                continue
            compiled.persistent = True  # installs a fresh Workspace
            comp = self._ledger.compute_boxes[q][s]
            compiled.workspace.bind_out(
                self.program.stages[self._flat_stage(s)[1]].output,
                self._stage_buffers[q][s].view(comp),
            )


class TiledBackend(IslandBackend):
    """Cache-blocked (3+1)D sweep of each island, per-block fused-C steps."""

    key = "tiled"

    def __init__(
        self,
        program: StencilProgram,
        decomposition: IslandDecomposition,
        *,
        clip_domain: Box,
        output_field: str,
        dtype: np.dtype,
        reuse_buffers: bool,
        timed: bool,
        block_shape: Tuple[int, int, int],
        intra_threads: int = 1,
    ) -> None:
        require_native("the 'tiled' backend")
        super().__init__(
            program,
            decomposition,
            clip_domain=clip_domain,
            output_field=output_field,
            dtype=dtype,
            reuse_buffers=reuse_buffers,
            timed=timed,
        )
        self.block_shape = tuple(block_shape)
        self.intra_threads = max(1, intra_threads)

    @classmethod
    def from_config(
        cls,
        config: EngineConfig,
        program: StencilProgram,
        decomposition: IslandDecomposition,
        *,
        clip_domain: Box,
        output_field: str,
    ) -> "TiledBackend":
        if config.block_shape is None:  # EngineConfig already enforces this
            raise ValueError("the tiled backend requires block_shape")
        return cls(
            program,
            decomposition,
            clip_domain=clip_domain,
            output_field=output_field,
            dtype=config.numpy_dtype,
            reuse_buffers=config.reuse_buffers,
            timed=config.collect_timings,
            block_shape=config.block_shape,
            intra_threads=config.intra_threads,
        )

    def prepare(self) -> None:
        from ..stencil.tiled_exec import compile_plan_tiled
        from ..stencil.tiling import plan_blocks_exact

        self.plans = {
            island.index: compile_plan_tiled(
                self.program,
                island.halo_plan,
                plan_blocks_exact(self.program, island.part, self.block_shape),
                clip_domain=self.clip_domain,
                dtype=self.dtype,
                reuse_buffers=self.reuse_buffers,
                intra_threads=self.intra_threads,
                timed=self.timed,
            )
            for island in self.decomposition.islands
        }

    def execute_island(self, island, inputs, out) -> IslandResult:
        tiled = self.plans[island.index]
        before = tiled.counters()
        stage_before = tiled.stage_seconds if self.timed else None
        tiled.execute(inputs, out)
        after = tiled.counters()
        result = IslandResult(
            stage_allocations=after[0] - before[0],
            reused=after[1] - before[1],
        )
        if self.timed:
            result.block_seconds = tiled.last_block_seconds or ()
            result.stage_seconds = stage_delta(
                tiled.stage_seconds, stage_before
            )
        return result

    def _refresh_plan(self, island_index: int) -> None:
        self.plans[island_index].refresh_workspaces()

    def close(self) -> None:
        for plan in self.plans.values():
            plan.close()
        for plan in getattr(self, "_super_tiled", {}).values():
            plan.close()

    # -- super-step path (temporal blocking) ----------------------------
    # Each sub-step gets its own TiledPlan over the composed plan's
    # (deeper) target, writing into a persistent intermediate region
    # buffer; the island's part is copied out of the last sub-step's
    # buffer.  Intermediate targets exceed the island part, so the block
    # grid simply grows — block_shape stays a per-block cache bound.
    def _prepare_super_state(self) -> None:
        from ..stencil.tiled_exec import compile_plan_tiled
        from ..stencil.tiling import plan_blocks_exact

        self._super_tiled: Dict[Tuple[int, int], object] = {}
        self._super_out: Dict[Tuple[int, int], ArrayRegion] = {}
        for island in self.decomposition.islands:
            q = island.index
            for k, plan in enumerate(self._step_plans[q]):
                self._super_tiled[(q, k)] = compile_plan_tiled(
                    self.program,
                    plan,
                    plan_blocks_exact(self.program, plan.target, self.block_shape),
                    clip_domain=self.clip_domain,
                    dtype=self.dtype,
                    reuse_buffers=self.reuse_buffers,
                    intra_threads=self.intra_threads,
                    timed=self.timed,
                )
                self._super_out[(q, k)] = ArrayRegion(
                    np.empty(plan.target.shape, dtype=self.dtype), plan.target
                )

    def execute_island_super(self, island, inputs, out, steps) -> IslandResult:
        q = island.index
        current: Mapping[str, ArrayRegion] = inputs
        total = IslandResult()
        produced = None
        for k in range(steps):
            tiled = self._super_tiled[(q, k)]
            produced = self._super_out[(q, k)]
            before = tiled.counters()
            stage_before = tiled.stage_seconds if self.timed else None
            tiled.execute(current, produced.data, origin=produced.box.lo)
            after = tiled.counters()
            total.stage_allocations += after[0] - before[0]
            total.reused += after[1] - before[1]
            if self.timed:
                total.block_seconds = total.block_seconds + tuple(
                    tiled.last_block_seconds or ()
                )
                delta = stage_delta(tiled.stage_seconds, stage_before)
                if delta:
                    merged = dict(total.stage_seconds or {})
                    for name, seconds in delta.items():
                        merged[name] = merged.get(name, 0.0) + seconds
                    total.stage_seconds = merged
            if k + 1 < steps:
                current = self._chain_inputs(inputs, produced)
        out[island.part.slices()] = produced.view(island.part)
        return total

    def _refresh_super(self, island_index: int) -> None:
        for (q, _k), tiled in self._super_tiled.items():
            if q == island_index:
                tiled.refresh_workspaces()

    # -- stage-granular path (exchange / hybrid) ------------------------
    # Each stage's owned slab is covered by cache-sized blocks, each with
    # its own fused-C one-stage step writing straight into the island's
    # persistent stage buffer.  Blocks are swept serially: exchange mode
    # already barriers per stage, so the (3+1)D depth dimension collapses
    # to single-stage sweeps and only the cache blocking remains.
    def _prepare_stage_state(self) -> None:
        self._stage_plans: Dict[Tuple[int, int], Tuple[object, ...]] = {}
        for island in self.decomposition.islands:
            q = island.index
            for s in range(len(self._ledger.compute_boxes[q])):
                comp = self._ledger.compute_boxes[q][s]
                if comp.is_empty():
                    continue
                stage = self.program.stages[self._flat_stage(s)[1]]
                sub = self._stage_program(s)
                buffer = self._stage_buffers[q][s]
                compiled_blocks = []
                for block in _grid_boxes(comp, self.block_shape):
                    compiled = compile_plan_native(
                        sub,
                        required_regions(sub, block),
                        dtype=self.dtype,
                        reuse_buffers=True,
                        timed=self.timed,
                    )
                    compiled.workspace.bind_out(
                        stage.output, buffer.view(block)
                    )
                    compiled_blocks.append((block, compiled))
                self._stage_plans[(q, s)] = tuple(compiled_blocks)

    def _execute_stage(self, island, stage_index, inputs) -> IslandResult:
        stage = self.program.stages[self._flat_stage(stage_index)[1]]
        resolved = self._stage_inputs(island.index, stage_index, inputs)
        result = IslandResult()
        block_seconds = [] if self.timed else None
        total = 0.0
        for _block, compiled in self._stage_plans[(island.index, stage_index)]:
            workspace = compiled.workspace
            before = (workspace.allocations, workspace.reuses)
            start = perf_counter() if self.timed else 0.0
            compiled(resolved)
            if self.timed:
                elapsed = perf_counter() - start
                block_seconds.append(elapsed)
                total += elapsed
            result.stage_allocations += workspace.allocations - before[0]
            result.reused += workspace.reuses - before[1]
        if self.timed:
            result.block_seconds = tuple(block_seconds)
            result.stage_seconds = {stage.name: total}
        return result

    def _refresh_stage_state(self, island_index: int) -> None:
        for (q, s), compiled_blocks in self._stage_plans.items():
            if q != island_index:
                continue
            buffer = self._stage_buffers[q][s]
            for block, compiled in compiled_blocks:
                compiled.persistent = True  # installs a fresh Workspace
                compiled.workspace.bind_out(
                    self.program.stages[self._flat_stage(s)[1]].output,
                    buffer.view(block),
                )


def _grid_boxes(box: Box, block_shape: Tuple[int, int, int]) -> List[Box]:
    """Cover ``box`` with a grid of blocks of at most ``block_shape``."""
    ranges = []
    for axis in range(3):
        axis_ranges = []
        lo = box.lo[axis]
        while lo < box.hi[axis]:
            hi = min(lo + block_shape[axis], box.hi[axis])
            axis_ranges.append((lo, hi))
            lo = hi
        ranges.append(axis_ranges)
    return [
        Box((i0, j0, k0), (i1, j1, k1))
        for i0, i1 in ranges[0]
        for j0, j1 in ranges[1]
        for k0, k1 in ranges[2]
    ]


BACKENDS: Dict[str, Type[IslandBackend]] = {
    backend.key: backend
    for backend in (FlatInterpreterBackend, NativeBackend, TiledBackend)
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
    instead of whole-step island sweeps; a recompute ledger carrying
    ``sync_every > 1`` selects the temporal-blocked super-step path
    (:meth:`IslandBackend.prepare_super`).
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
    elif ledger is not None and ledger.sync_every > 1:
        backend.prepare_super(ledger.step_plans, ledger.recurrent)
    else:
        backend.prepare()
    return backend
