"""Functional execution of islands-of-cores decompositions.

These runners actually *compute* a partitioned MPDATA step with NumPy —
each island evaluating all program stages over its part plus redundant halo
— and are the correctness half of the reproduction: the machine simulator
supplies timing, these supply values.  Because every strategy evaluates the
identical expressions on identical inputs, a partitioned step must agree
with the whole-domain step to the last bit, which :mod:`repro.runtime.verify`
checks.

The runner is a thin composition of four explicit layers:

* a **backend** (:mod:`repro.runtime.backends`) owning the per-island
  compute resources — interpreter arenas or native plan workspaces —
  behind one
  ``prepare``/``execute_island``/``refresh`` lifecycle;
* a **resilience** layer (:mod:`repro.runtime.resilience`) wrapping every
  island sweep with fault injection, bounded retry and backoff;
* a **telemetry** spine (:mod:`repro.runtime.telemetry`) that can record
  each successful step as a structured event into pluggable sinks;
* one frozen **configuration** (:class:`~repro.runtime.config
  .EngineConfig`) selecting all of the above.

What stays in the runner is exactly what no layer can own alone: the
inputs shared by all islands — ghost-extended buffers, or the caller's
bare arrays for a backend that applies the boundary itself
(:attr:`~repro.runtime.backends.IslandBackend.raw_inputs`) — the
assembled output array (two of them, alternating, for such a backend),
the island-level work team (thread pool) with its degradation path, and
step-level invariants — a failed step is never observable as a
successful one.

The runner is a **steady-state execution engine**: resources that the
paper's per-step overhead analysis says must not be paid every
iteration — the work-team, ghost buffers, stage storage, ufunc scratch —
are created once and recycled across time steps.  With ``reuse_output``
enabled, a warmed-up :meth:`PartitionedRunner.step` performs **zero**
array allocations.  Per-step counters are reported via
:class:`StepStats`.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..core import IslandDecomposition, Partition, Variant, decompose
from ..mpdata.boundary import extend_array, extend_array_into, extended_box
from ..mpdata.reference import MpdataState
from ..mpdata.solver import GhostSpec
from ..mpdata.stages import FIELD_DENSITY, FIELD_X, mpdata_program
from ..stencil import ArrayRegion, Box, StencilProgram, full_box
from .backends import IslandResult, create_backend
from .config import EngineConfig, resolve_engine_config
from .faults import FaultInjector, FaultStats
from .resilience import IslandFailure, ResiliencePolicy, ResilientExecutor
from .telemetry import StepEvent, StepStats, StepTimings, Telemetry

__all__ = [
    "IslandFailure",
    "PartitionedRunner",
    "MpdataIslandSolver",
    "StepStats",
]


def _merge_result(into: IslandResult, add: IslandResult) -> IslandResult:
    """Accumulate one island's per-stage results into its step total."""
    into.stage_allocations += add.stage_allocations
    into.scratch_allocations += add.scratch_allocations
    into.reused += add.reused
    into.seconds += add.seconds
    if add.stage_seconds:
        merged = dict(into.stage_seconds or {})
        for name, seconds in add.stage_seconds.items():
            merged[name] = merged.get(name, 0.0) + seconds
        into.stage_seconds = merged
    return into


class PartitionedRunner:
    """Run any single-output stencil program with an island decomposition.

    Parameters
    ----------
    program:
        The stencil program; must declare exactly one output field.
    shape:
        Physical grid shape.
    islands, variant, partition:
        Partitioning, as in :func:`repro.core.decompose`.
    config:
        The :class:`~repro.runtime.config.EngineConfig` selecting the
        execution backend, output reuse, resilience policy and timing
        collection.  Defaults to ``EngineConfig()`` — the interpreted
        steady-state engine.
    fault_injector:
        Optional :class:`~repro.runtime.faults.FaultInjector` whose
        crash / slow / corrupt faults are applied inside island tasks,
        keyed by (step, island).  Testing hook; overrides the injector
        ``config.fault_specs`` would build.  Fault-tolerance activity is
        counted in :attr:`fault_stats`.
    telemetry:
        Optional :class:`~repro.runtime.telemetry.Telemetry` spine; every
        successful step is recorded into its sinks as a
        :class:`~repro.runtime.telemetry.StepEvent`.  Without sinks the
        runner pays nothing beyond filling :attr:`last_step_stats`.
    """

    def __init__(
        self,
        program: StencilProgram,
        shape: Tuple[int, int, int],
        islands: int = 1,
        variant: Variant = Variant.A,
        partition: Optional[Partition] = None,
        config: Optional[EngineConfig] = None,
        *,
        fault_injector: Optional[FaultInjector] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        outputs = program.output_fields
        if len(outputs) != 1:
            raise ValueError("PartitionedRunner requires a single-output program")
        config = resolve_engine_config(config, "PartitionedRunner")
        self.config = config
        self.program = program
        self.shape = tuple(shape)
        self.output_field = outputs[0].name
        # Mirrors of the config, kept as plain attributes for the
        # pre-refactor surface (callers and tests read these directly).
        self.boundary = config.boundary
        self.threads = config.threads
        self.dtype = config.numpy_dtype
        self.reuse_output = config.reuse_output
        self.collect_timings = config.collect_timings
        self.halo = config.halo
        self.fault_injector = (
            fault_injector
            if fault_injector is not None
            else config.build_fault_injector()
        )
        self.fault_stats = FaultStats()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._degraded = False  # threaded pool broke; running serial
        self._step_index = 0  # logical step counter for fault keying

        self.domain: Box = full_box(self.shape)
        self.ghosts = GhostSpec.for_program(program, self.shape)
        if self.boundary == "periodic":
            for axis in range(3):
                margin = max(self.ghosts.lo[axis], self.ghosts.hi[axis])
                if margin > self.shape[axis]:
                    raise ValueError(
                        f"grid axis {axis} ({self.shape[axis]} cells) is "
                        f"smaller than the program halo ({margin}); enlarge "
                        "the grid"
                    )
        self.extended_domain = extended_box(self.shape, self.ghosts.lo, self.ghosts.hi)
        self.decomposition: IslandDecomposition = decompose(
            program,
            self.domain,
            islands,
            variant,
            clip_domain=self.extended_domain,
            partition=partition,
        )
        if config.backend == "procs":
            # Each dispatch thread blocks in recv on its worker's pipe —
            # the fan-out join is the step barrier — so the team must
            # cover every island or procs would run them serially.
            self.threads = max(self.threads, self.decomposition.count)
        # One halo ledger per runner, always built: under ``recompute`` it
        # only carries the accounting (redundant points, zero flows); under
        # ``exchange``/``hybrid`` it is the executable stage geometry the
        # backend and the per-stage copy loop both follow.
        self.halo_ledger = self.decomposition.halo_ledger(
            config.halo, config.halo_threshold
        )
        self._redundant_points = self.halo_ledger.redundant_points
        # Snapshot the process-wide plan cache around backend construction
        # so telemetry can attribute this runner's compile reuse.
        from ..stencil.plancache import PLAN_CACHE

        cache_before = PLAN_CACHE.stats()
        self.backend = create_backend(
            config,
            program,
            self.decomposition,
            clip_domain=self.extended_domain,
            output_field=self.output_field,
            ledger=self.halo_ledger,
        )
        cache_after = PLAN_CACHE.stats()
        self.plan_cache_hits = cache_after["hits"] - cache_before["hits"]
        self.plan_cache_misses = (
            cache_after["misses"] - cache_before["misses"]
        )
        self.resilience = ResilientExecutor(
            self.backend,
            ResiliencePolicy.from_config(config),
            self.fault_injector,
        )
        # Persistent resources, materialized lazily on first use.
        self._ghost: Dict[str, ArrayRegion] = {}
        # Raw-input backends: per input, the regions of its last two
        # arrays (so alternating buffers keep their plan bindings), and
        # the staged copies of inputs the kernels cannot read as given.
        self._raw: Dict[str, List[ArrayRegion]] = {}
        self._staged: Dict[str, ArrayRegion] = {}
        # The output buffer, plus the second one a raw-input backend
        # alternates with (it reads one as ``x`` while writing the other).
        self._out: Optional[np.ndarray] = None
        self._spare: Optional[np.ndarray] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        # Exchange-mode boundary copies as view pairs (_exchange_copies).
        self._copies: Optional[Dict[int, Tuple[tuple, int]]] = None
        self._closed = False
        self.last_step_stats: Optional[StepStats] = None
        # Run-level synchronization ledger: successful steps and the
        # inter-island barriers they paid since construction.
        self.total_steps = 0
        self.total_syncs = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the persistent pools and telemetry sinks (idempotent)."""
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self.backend.close()
        self.telemetry.close()

    def __enter__(self) -> "PartitionedRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass

    def _executor(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("runner is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.threads)
        return self._pool

    # ------------------------------------------------------------------
    def extend_inputs(
        self,
        arrays: Mapping[str, np.ndarray],
        changed: Optional[Set[str]] = None,
    ) -> Dict[str, ArrayRegion]:
        """Ghost-extend the shared inputs (paper phase 1: all islands share
        all input data).

        The extended buffers persist across calls and are refilled in
        place; ``changed`` (when given) names the input fields whose
        interiors differ from the previous call, letting static fields —
        MPDATA's velocities and density — skip the copy-and-fill
        entirely.  Ghost filling is deterministic, so
        skipping an unchanged field is bit-identical to refilling it.

        A backend with :attr:`~repro.runtime.backends.IslandBackend
        .raw_inputs` applies the boundary itself, so nothing is extended:
        each input is handed over as a region anchored at the domain
        (:meth:`_raw_inputs`).
        """
        if self.backend.raw_inputs:
            return self._raw_inputs(arrays, changed)
        extended: Dict[str, ArrayRegion] = {}
        ghost_allocations = 0
        ghost_reused = 0
        for field in self.program.input_fields:
            arr = np.asarray(
                self._input_array(arrays, field.name), dtype=self.dtype
            )
            region = self._ghost.get(field.name)
            if region is None:
                # A shared-memory backend supplies the storage (workers
                # map the same bytes); the runner still fills the ghosts.
                region = self.backend.allocate_ghost(field.name)
                if region is None:
                    region = extend_array(
                        arr, self.ghosts.lo, self.ghosts.hi, self.boundary
                    )
                else:
                    extend_array_into(
                        arr, region, self.ghosts.lo, self.ghosts.hi,
                        self.boundary,
                    )
                self._ghost[field.name] = region
                ghost_allocations += 1
            elif changed is None or field.name in changed:
                extend_array_into(
                    arr, region, self.ghosts.lo, self.ghosts.hi, self.boundary
                )
                ghost_reused += 1
            else:
                ghost_reused += 1
            extended[field.name] = region
        self._last_ghost_counts = (ghost_allocations, ghost_reused)
        return extended

    def _input_array(
        self, arrays: Mapping[str, np.ndarray], name: str
    ) -> np.ndarray:
        if name not in arrays:
            raise KeyError(f"missing input array {name!r}")
        arr = np.asarray(arrays[name])
        if arr.shape != self.shape:
            raise ValueError(
                f"input {name!r} has shape {arr.shape}, expected {self.shape}"
            )
        return arr

    def _raw_inputs(
        self,
        arrays: Mapping[str, np.ndarray],
        changed: Optional[Set[str]],
    ) -> Dict[str, ArrayRegion]:
        """Each input as a region anchored at the domain, no ghosts.

        An array is handed over as it is unless its dtype differs from
        the engine's or its innermost stride is not unit; then it is
        copied into a persistent array, refilled only when ``changed``
        names it (the staged copies count as ghost buffers in
        :class:`StepStats`).  Regions are kept per input for its last two
        arrays, so a double-buffered field and the static fields come
        back as the same region objects and the backend's plan bindings
        hold.
        """
        regions: Dict[str, ArrayRegion] = {}
        allocations = 0
        reused = 0
        for field in self.program.input_fields:
            name = field.name
            arr = self._input_array(arrays, name)
            if arr.dtype != self.dtype or arr.strides[-1] != arr.itemsize:
                staged = self._staged.get(name)
                if staged is None:
                    staged = self._staged[name] = ArrayRegion(
                        np.array(arr, dtype=self.dtype), self.domain
                    )
                    allocations += 1
                else:
                    if changed is None or name in changed:
                        np.copyto(staged.data, arr, casting="unsafe")
                    reused += 1
                regions[name] = staged
                continue
            recent = self._raw.setdefault(name, [])
            for region in recent:
                if region.data is arr:
                    break
            else:
                region = ArrayRegion(arr, self.domain)
                recent.insert(0, region)
                del recent[2:]
            regions[name] = region
        self._last_ghost_counts = (allocations, reused)
        return regions

    def _output_array(
        self, inputs: Mapping[str, ArrayRegion]
    ) -> Tuple[np.ndarray, int]:
        """The array this step writes, and how many buffers it allocated.

        A raw-input backend reads the caller's arrays while it writes, so
        the output must not be one of them: the runner keeps two buffers,
        allocated together on the first step, and writes whichever shares
        no memory with any input — the one not holding the previous
        step's ``x`` when the caller feeds the output back.
        """
        if not self.reuse_output:
            return np.empty(self.shape, dtype=self.dtype), 1
        allocations = 0
        if self._out is None:
            self._out = self.backend.allocate_output()
            if self._out is None:
                self._out = np.empty(self.shape, dtype=self.dtype)
            allocations += 1
        if not self.backend.raw_inputs:
            return self._out, allocations
        if self._spare is None:
            self._spare = np.empty(self.shape, dtype=self.dtype)
            allocations += 1
        for buffer in (self._out, self._spare):
            if not any(
                np.may_share_memory(buffer, region.data)
                for region in inputs.values()
            ):
                return buffer, allocations
        # The caller passed both buffers in as inputs: write a fresh one.
        return np.empty(self.shape, dtype=self.dtype), allocations + 1

    @property
    def degraded(self) -> bool:
        """True once the broken thread pool forced serial execution."""
        return self._degraded

    @property
    def syncs_per_step(self) -> float:
        """Inter-island barriers per time step, run to date."""
        return self.total_syncs / max(1, self.total_steps)

    def _fresh_island_resources(self, island_index: int) -> None:
        """Replace one island's persistent compute state before a retry."""
        self.backend.refresh(island_index)

    def _invalidate_after_failure(self, out: np.ndarray) -> None:
        """Make a half-written step unobservable as a success.

        Some islands may already have published their parts into ``out``
        when another island failed, so the buffer holds a mix of new and
        stale values.  It is poisoned with NaN — a caller still holding
        the persistent buffer sees unambiguous garbage, never a plausible
        field — and dropped from reuse so the next step starts clean.
        Only the buffer the step was writing: with two alternating
        buffers, the one holding the step's input stays intact.
        ``last_step_stats`` is reset for the same reason.
        """
        self.last_step_stats = None
        if not self.reuse_output:
            return
        if out is self._out:
            self._out = None
        elif out is self._spare:
            self._spare = None
        else:
            return
        out.fill(np.nan)

    def _fan_out(
        self, count: int, task: Callable[[int], None]
    ) -> List[BaseException]:
        """Run ``task(0..count-1)`` across the island work team.

        Serial when the team has one thread (or after degradation).
        Otherwise the team is ``min(threads, count)`` pool tasks, one per
        member, each claiming positions from a shared counter until none
        are left; the calling thread waits for the members.  Every
        position runs even when another fails, and the errors come back
        in position order.  A broken pool flips the runner to serial
        in-process execution and reruns every position.  Members that did
        get submitted must finish (or be cancelled) first — the serial
        rerun may not race a live worker for the same island's
        resources.  Re-running a completed position is harmless:
        identical inputs rewrite identical bytes.
        """
        errors: List[BaseException] = []
        if self.threads == 1 or count == 1 or self._degraded:
            for position in range(count):
                try:
                    task(position)
                except Exception as error:
                    errors.append(error)
                    break  # the step is lost; don't compute the rest
            return errors
        outcomes: List[Optional[BaseException]] = [None] * count
        claim = itertools.count().__next__  # atomic under the GIL

        def member() -> None:
            position = claim()
            while position < count:
                try:
                    task(position)
                except Exception as error:
                    outcomes[position] = error
                position = claim()

        futures = []
        try:
            executor = self._executor()
            for _ in range(min(self.threads, count)):
                futures.append(executor.submit(member))
        except RuntimeError:
            if self._closed:
                raise
            self._degraded = True
            for future in futures:
                future.cancel()
            for future in futures:
                if not future.cancelled():
                    try:
                        future.result()
                    except Exception:
                        pass  # the serial rerun decides the outcome
            for position in range(count):
                try:
                    task(position)
                except Exception as error:
                    errors.append(error)
                    break
        else:
            # Wait for every member; one failure must not leave siblings
            # half-cancelled with buffers in flight.  Members record task
            # errors in ``outcomes``; anything else they raise comes last.
            member_errors = []
            for future in futures:
                try:
                    future.result()
                except Exception as error:
                    member_errors.append(error)
            errors = [error for error in outcomes if error is not None]
            errors += member_errors
        return errors

    def _exchange_copies(self) -> Dict[int, Tuple[tuple, int]]:
        """Each active stage's boundary copies, built once per runner.

        Maps each active stage index, in order, to its
        :class:`~repro.core.halo.StageFlow` copies as ``(destination
        view, source view)`` pairs plus their byte total.  Stage buffers
        are allocated once by the backend's ``prepare_exchange`` and
        never replaced, so the views stay valid for the runner's life,
        and the bytes equal the ledger's flows.
        """
        if self._copies is None:
            ledger = self.halo_ledger
            itemsize = self.dtype.itemsize
            copies: Dict[int, Tuple[tuple, int]] = {}
            for stage_index in ledger.active_stages:
                pairs = []
                nbytes = 0
                for flow in ledger.stage_flows[stage_index]:
                    src = self.backend.stage_buffer(flow.src, stage_index)
                    dst = self.backend.stage_buffer(flow.dst, stage_index)
                    pairs.append((dst.view(flow.box), src.view(flow.box)))
                    nbytes += flow.box.size * itemsize
                copies[stage_index] = (tuple(pairs), nbytes)
            self._copies = copies
        return self._copies

    def _run_exchange_stages(
        self,
        inputs: Mapping[str, ArrayRegion],
        out: np.ndarray,
        step_index: int,
        island_results: List[Optional[IslandResult]],
        fault_slot: Callable[[int], FaultStats],
        errors: List[BaseException],
    ) -> Tuple[int, int]:
        """One scenario-1 step: per stage, compute owned slabs, copy halos.

        Every active stage is one fan-out over all islands (each computes
        its ledger slab into its persistent stage buffer), followed by a
        barrier — the fan-out joins every island before the boundary
        copies run — and the stage's :class:`~repro.core.halo.StageFlow`
        copies between island buffers.  Returns the measured
        ``(exchanged_bytes, stage_syncs)`` of the call.
        """
        islands = self.decomposition.islands
        exchanged_bytes = 0
        stage_syncs = 0

        for stage_index, (pairs, nbytes) in self._exchange_copies().items():

            def run_stage(position: int, _stage: int = stage_index) -> None:
                result = self.resilience.run_island_stage(
                    islands[position],
                    _stage,
                    step_index,
                    inputs,
                    lambda: fault_slot(position),
                )
                merged = island_results[position]
                island_results[position] = (
                    result if merged is None else _merge_result(merged, result)
                )

            errors.extend(self._fan_out(len(islands), run_stage))
            stage_syncs += 1
            if errors:
                return exchanged_bytes, stage_syncs
            for dst, src in pairs:
                np.copyto(dst, src)
            exchanged_bytes += nbytes

        producer = self.program.producer_of(self.output_field)
        for island in islands:
            buffer = self.backend.stage_buffer(island.index, producer)
            out[island.part.slices()] = buffer.view(island.part)
        return exchanged_bytes, stage_syncs

    def step(
        self,
        arrays: Mapping[str, np.ndarray],
        changed: Optional[Set[str]] = None,
        step_index: Optional[int] = None,
    ) -> np.ndarray:
        """One partitioned time step; returns the assembled output.

        ``changed`` is forwarded to :meth:`extend_inputs`; pass the set of
        input names whose contents differ from the previous step to skip
        refilling static fields.  With ``reuse_output`` the returned
        array is one of the runner's persistent buffers: overwritten by
        the next step, or — with a raw-input backend, which alternates
        two buffers so it can read one as ``x`` while writing the other —
        by the step after next.  Copy anything kept longer.

        ``step_index`` is the logical time-step number, used to key
        injected faults; drivers that replay steps after a rollback pass
        it explicitly so a replayed step keeps its original identity.  By
        default an internal counter is used, advancing only on success —
        a caller-level re-execution of a failed step reuses the same
        index.

        On an island failure that survives the retry budget the step
        raises :class:`IslandFailure` with the buffer it was writing
        invalidated (NaN-poisoned and dropped; a buffer holding its input
        stays intact) and ``last_step_stats`` reset — a failed step is
        never observable as a successful one.  Successful steps are recorded
        into :attr:`telemetry` (when it has sinks) as
        :class:`~repro.runtime.telemetry.StepEvent` records.
        """
        if step_index is None:
            step_index = self._step_index
        observing = self.telemetry.enabled
        step_begin = time.perf_counter() if observing else 0.0
        faults_before = replace(self.fault_stats) if observing else None
        self._last_ghost_counts = (0, 0)
        inputs = self.extend_inputs(arrays, changed=changed)
        ghost_allocations, ghost_reused = self._last_ghost_counts
        out, output_allocations = self._output_array(inputs)

        islands = self.decomposition.islands
        # Per-island results and fault records, filled by index position
        # so threaded islands never contend on a shared counter.
        island_results: List[Optional[IslandResult]] = [None] * len(islands)
        island_faults: List[Optional[FaultStats]] = [None] * len(islands)

        def fault_slot(position: int) -> FaultStats:
            stats = island_faults[position]
            if stats is None:
                stats = island_faults[position] = FaultStats()
            return stats

        def run_island(position: int) -> None:
            island_results[position] = self.resilience.run_island(
                islands[position],
                step_index,
                inputs,
                out,
                lambda: fault_slot(position),
            )

        errors: List[BaseException] = []
        exchanged_bytes = 0
        stage_syncs = 1  # recompute: one synchronization per step
        try:
            if self.halo_ledger.policy != "recompute":
                exchanged_bytes, stage_syncs = self._run_exchange_stages(
                    inputs, out, step_index, island_results, fault_slot, errors
                )
            else:
                errors.extend(self._fan_out(len(islands), run_island))
        finally:
            for stats in island_faults:
                if stats is not None:
                    self.fault_stats.absorb(stats)
            if self._degraded:
                self.fault_stats.degraded_steps += 1

        if errors:
            self._invalidate_after_failure(out)
            raise errors[0]

        results = [result or IslandResult() for result in island_results]
        stage_allocations = sum(r.stage_allocations for r in results)
        scratch_allocations = sum(r.scratch_allocations for r in results)
        reused = ghost_reused + sum(r.reused for r in results)
        timings: Optional[StepTimings] = None
        if self.collect_timings:
            merged: Dict[str, float] = {}
            for result in results:
                for name, seconds in (result.stage_seconds or {}).items():
                    merged[name] = merged.get(name, 0.0) + seconds
            timings = StepTimings(
                island_seconds=tuple(r.seconds for r in results),
                stage_seconds=merged,
            )
        self.last_step_stats = StepStats(
            allocations=(
                ghost_allocations
                + output_allocations
                + stage_allocations
                + scratch_allocations
            ),
            reused=reused,
            ghost_allocations=ghost_allocations,
            output_allocations=output_allocations,
            stage_allocations=stage_allocations,
            scratch_allocations=scratch_allocations,
            exchanged_bytes=exchanged_bytes,
            stage_syncs=stage_syncs,
            redundant_points=self._redundant_points,
            plan_cache_hits=self.plan_cache_hits,
            plan_cache_misses=self.plan_cache_misses,
            timings=timings,
        )
        self.total_steps += 1
        self.total_syncs += stage_syncs
        self._step_index = step_index + 1
        if observing:
            self.telemetry.record(
                StepEvent(
                    step=step_index,
                    wall_seconds=time.perf_counter() - step_begin,
                    stats=self.last_step_stats,
                    faults=self.fault_stats.since(faults_before),
                )
            )
        return out


class MpdataIslandSolver:
    """MPDATA driver over a :class:`PartitionedRunner` (islands approach).

    Mirrors :class:`repro.mpdata.solver.MpdataSolver` but executes each step
    as P independent islands; with ``threads=P`` the islands really do run
    concurrently.  Output is bit-identical to the whole-domain solver.

    The solver is a context manager (closing releases the runner's thread
    pool).  The engine — backend, output reuse, resilience policy, timing
    collection — is selected by one :class:`~repro.runtime.config
    .EngineConfig`.  Checkpointed rollback-and-replay is enabled per run
    via :meth:`run`'s ``recovery`` policy.
    """

    def __init__(
        self,
        shape: Tuple[int, int, int],
        islands: int,
        variant: Variant = Variant.A,
        config: Optional[EngineConfig] = None,
        *,
        partition: Optional[Partition] = None,
        program: Optional[StencilProgram] = None,
        fault_injector: Optional[FaultInjector] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        config = resolve_engine_config(config, "MpdataIslandSolver")
        self.config = config
        self.runner = PartitionedRunner(
            program if program is not None else mpdata_program(),
            shape,
            islands=islands,
            variant=variant,
            partition=partition,
            config=config,
            fault_injector=fault_injector,
            telemetry=telemetry,
        )
        self.last_recovery_report = None

    @property
    def decomposition(self) -> IslandDecomposition:
        return self.runner.decomposition

    @property
    def last_step_stats(self) -> Optional[StepStats]:
        return self.runner.last_step_stats

    @property
    def telemetry(self) -> Telemetry:
        return self.runner.telemetry

    def close(self) -> None:
        self.runner.close()

    def __enter__(self) -> "MpdataIslandSolver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _arrays(self, state: MpdataState) -> Dict[str, np.ndarray]:
        return {
            FIELD_X: state.x,
            "u1": state.u1,
            "u2": state.u2,
            "u3": state.u3,
            FIELD_DENSITY: state.h,
        }

    def step(self, state: MpdataState) -> np.ndarray:
        state.validate()
        return self.runner.step(self._arrays(state))

    def run(self, state: MpdataState, steps: int, recovery=None) -> np.ndarray:
        """Advance ``steps`` time steps.

        The state is validated **once**; the loop then steps on raw
        arrays, telling the runner that only the scalar field changes
        between steps — the velocities and density are static, so their
        ghost-extended buffers (if the backend needs any) are filled
        exactly once.  The returned field is the runner's output buffer
        when ``reuse_output`` is set (see :meth:`PartitionedRunner.step`).

        With a :class:`~repro.runtime.recovery.RecoveryPolicy` as
        ``recovery`` the run adds periodic checkpoints, per-step
        numerical guards, and rollback-and-replay to the last good
        checkpoint when a step exhausts its retries or fails a guard;
        the resulting :class:`~repro.runtime.recovery.RecoveryReport`
        lands in :attr:`last_recovery_report`.  Recovered runs are
        bit-identical to fault-free ones: replayed steps recompute the
        same deterministic expressions on checkpoint state.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        if recovery is not None:
            from .recovery import run_with_recovery

            final, report = run_with_recovery(self, state, steps, recovery)
            self.last_recovery_report = report
            return final
        state.validate()
        arrays = self._arrays(state)
        arrays[FIELD_X] = np.asarray(state.x, dtype=self.runner.dtype)
        changed: Optional[Set[str]] = None  # first step fills everything
        for index in range(steps):
            arrays[FIELD_X] = self.runner.step(
                arrays, changed=changed, step_index=index
            )
            changed = {FIELD_X}
        return arrays[FIELD_X]
