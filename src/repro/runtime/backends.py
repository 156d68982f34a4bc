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
    (:attr:`IslandBackend.raw_inputs`).
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
    resilience layer), not by the backend; ``stage_seconds`` is only
    populated by timing-enabled backends.
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
    #: Whether :meth:`execute_island` takes the caller's inputs as bare
    #: domain arrays (regions anchored at the domain) and applies the
    #: boundary itself; otherwise the runner ghost-extends them first.
    raw_inputs: bool = False

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
        """Replace one island's persistent compute state before a retry.

        A sweep that died mid-execution leaves arena liveness bookkeeping
        or workspace bindings indeterminate, so the retry starts from
        fresh storage.  Only the failed island pays — its neighbours keep
        their warm buffers, exactly the isolation the islands approach
        buys.
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
        """View of the slab one island *computes* for one stage."""
        comp = self._ledger.compute_boxes[island_index][stage_index]
        if comp.is_empty():
            return None
        return self._stage_buffers[island_index][stage_index].view(comp)

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

    # -- stage-granular path (exchange / hybrid) ------------------------
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

    Every halo plan — whole-step, and per stage under the exchange and
    hybrid policies — is compiled by
    :func:`~repro.stencil.native.compile_plan_native`.  A whole step then
    streams the island's inputs and output once, keeping every
    intermediate in a ring of planes (MODEL.md §8, §15).  Built from a
    config (in-process), its whole-step plans are *gathered*: they copy
    each input plane into a ring as the pipeline needs it, folding
    coordinates outside the domain by ``boundary``, so the runner hands
    over bare domain arrays and fills no ghost layers
    (:attr:`raw_inputs`).  Constructed directly — as the procs workers
    construct it, over parent-filled ghost buffers — it has no
    ``boundary`` and reads ghost-extended inputs.  Each plan's output is
    bound to the island's part of the runner's output array, so the step
    writes it in place.  There is deliberately no silent fallback to
    the interpreter: a quietly degraded backend would invalidate any
    performance measurement taken through it.
    """

    key = "native"

    def __init__(self, *args, **kwargs) -> None:
        require_native("the 'native' backend")
        super().__init__(*args, **kwargs)
        #: The boundary condition whole-step plans apply as they gather
        #: their inputs; ``None`` keeps ghost-extended inputs.
        self.boundary: Optional[str] = None

    @classmethod
    def from_config(cls, config: EngineConfig, *args, **kwargs) -> "NativeBackend":
        backend = super().from_config(config, *args, **kwargs)
        backend.boundary = config.boundary
        return backend

    def prepare(self) -> None:
        output_stage = self.program.producer_of(self.output_field)
        for island in self.decomposition.islands:
            assert island.halo_plan.stage_boxes[output_stage] == island.part
        boundary = None
        if self.boundary is not None:
            boundary = (self.boundary, self.decomposition.partition.domain)
        self.raw_inputs = boundary is not None
        self.plans = {
            island.index: compile_plan_native(
                self.program,
                island.halo_plan,
                dtype=self.dtype,
                timed=self.timed,
                boundary=boundary,
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

    # -- stage-granular path (exchange / hybrid) ------------------------
    def _prepare_stage_state(self) -> None:
        self._stage_plans: Dict[Tuple[int, int], object] = {}
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
        for (q, s), compiled in self._stage_plans.items():
            if q != island_index:
                continue
            compiled.workspace.reset()
            comp = self._ledger.compute_boxes[q][s]
            compiled.workspace.bind_out(
                self.program.stages[s].output,
                self._stage_buffers[q][s].view(comp),
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
