"""Vectorized NumPy interpreter for stencil programs.

The interpreter executes a :class:`~repro.stencil.program.StencilProgram`
over an arbitrary target region, allocating each intermediate exactly over
the region the backward halo analysis says is needed.  Because regions live
in *global* index space, the same interpreter runs

* the whole domain at once (the reference execution),
* one (3+1)D block, or
* one island's slab including its redundant halo (scenario 2 of Fig. 1),

and in all cases performs the identical floating-point operations per point
— which is what makes bit-exact verification of the islands approach
possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .expr import EvalArena, Offset
from .halo import HaloPlan, required_regions
from .program import StencilProgram
from .region import Box

__all__ = [
    "ArrayRegion",
    "ExecutionStats",
    "StageArena",
    "execute",
    "execute_plan",
]


@dataclass(frozen=True)
class ArrayRegion:
    """A NumPy array anchored at a box in global grid-index space.

    ``data[0, 0, 0]`` corresponds to grid point ``box.lo``.
    """

    data: np.ndarray
    box: Box

    def __post_init__(self) -> None:
        if tuple(self.data.shape) != self.box.shape:
            raise ValueError(
                f"array shape {self.data.shape} does not match box {self.box}"
            )

    def view(self, box: Box) -> np.ndarray:
        """View of the sub-box ``box`` (must lie inside this region)."""
        if not self.box.contains(box):
            raise ValueError(f"requested {box} outside stored region {self.box}")
        return self.data[box.slices(self.box.lo)]

    @staticmethod
    def wrap(data: np.ndarray, lo: Tuple[int, int, int] = (0, 0, 0)) -> "ArrayRegion":
        """Wrap an array whose [0,0,0] element sits at grid point ``lo``."""
        hi = tuple(l + s for l, s in zip(lo, data.shape))
        return ArrayRegion(np.asarray(data), Box(lo, hi))  # type: ignore[arg-type]


@dataclass
class ExecutionStats:
    """Work actually performed by one interpreter run.

    ``allocations`` / ``reused_buffers`` count stage-output storage
    (pool misses / hits); ``scratch_allocations`` / ``scratch_reused``
    count the expression evaluator's ufunc scratch buffers.  A
    steady-state run over persistent arenas reports zero for both
    allocation counters after warm-up.
    """

    points_by_stage: Dict[str, int]
    flops: int
    allocations: int = 0
    reused_buffers: int = 0
    scratch_allocations: int = 0
    scratch_reused: int = 0
    #: Wall seconds per stage name (populated with ``collect_timing``).
    stage_seconds: Optional[Dict[str, float]] = None

    @property
    def points(self) -> int:
        return sum(self.points_by_stage.values())


class StageArena:
    """Capacity-pooled storage for stage outputs, reusable across runs.

    The liveness analysis in :func:`execute_plan` retires a temporary's
    buffer as soon as its last reader has run; this arena is where retired
    buffers wait, sorted ascending by capacity so a request takes the
    smallest adequate one.  Handing the *same* arena to ``execute_plan``
    on every time step makes the interpreter allocation-free in steady
    state: each call starts by recycling everything the previous call
    produced (:meth:`reset`), so after warm-up every stage output is a
    reshaped view of a pooled flat buffer.

    The arena is single-threaded by design — give each island its own.
    """

    __slots__ = ("dtype", "_pool", "_outstanding", "allocations", "reuses")

    def __init__(self, dtype: "np.dtype" = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._pool: List[np.ndarray] = []  # flat buffers, ascending by size
        self._outstanding: List[np.ndarray] = []
        self.allocations = 0
        self.reuses = 0

    def reset(self) -> None:
        """Recycle every buffer handed out since the previous reset.

        Callers must be done reading the previous call's results (the
        runners copy outputs into caller-visible arrays immediately).
        """
        for base in self._outstanding:
            self._insert(base)
        self._outstanding.clear()

    def acquire(self, need: int) -> np.ndarray:
        """A flat buffer of at least ``need`` elements."""
        for slot, base in enumerate(self._pool):
            if base.size >= need:
                del self._pool[slot]
                self.reuses += 1
                self._outstanding.append(base)
                return base
        base = np.empty(need, dtype=self.dtype)
        self.allocations += 1
        self._outstanding.append(base)
        return base

    def retire(self, base: np.ndarray) -> None:
        """Return a buffer to the pool before the run ends (dead temporary)."""
        for slot, candidate in enumerate(self._outstanding):
            if candidate is base:  # identity, not ndarray ==
                del self._outstanding[slot]
                break
        self._insert(base)

    def _insert(self, base: np.ndarray) -> None:
        position = 0
        while position < len(self._pool) and self._pool[position].size < base.size:
            position += 1
        self._pool.insert(position, base)

    @property
    def pooled(self) -> int:
        """Number of buffers currently waiting in the pool."""
        return len(self._pool)


def execute(
    program: StencilProgram,
    inputs: Mapping[str, ArrayRegion],
    target: Box,
    domain: Optional[Box] = None,
    keep_temporaries: bool = False,
    dtype: np.dtype = np.float64,
    reuse_buffers: bool = False,
) -> Tuple[Dict[str, ArrayRegion], ExecutionStats]:
    """Run ``program`` so that its outputs cover ``target``.

    Parameters
    ----------
    inputs:
        One :class:`ArrayRegion` per program input.  Each must cover the
        region the halo analysis requires (typically the target expanded by
        the program's input halo; the solver provides ghost margins).
    target:
        Output region to produce, in global index space.
    domain:
        Optional clipping bounds passed to the halo analysis.  Regions
        outside ``domain`` are assumed to be supplied via the input arrays'
        ghost cells.
    keep_temporaries:
        When True the returned dict also contains every intermediate field
        (useful for stage-level testing).

    Returns
    -------
    (results, stats):
        ``results`` maps output (and optionally temporary) field names to
        regions covering at least ``target``; ``stats`` records points and
        flops actually computed.
    """
    plan = required_regions(program, target, domain=domain)
    return execute_plan(
        program, plan, inputs, keep_temporaries=keep_temporaries, dtype=dtype,
        reuse_buffers=reuse_buffers,
    )


def execute_plan(
    program: StencilProgram,
    plan: HaloPlan,
    inputs: Mapping[str, ArrayRegion],
    keep_temporaries: bool = False,
    dtype: np.dtype = np.float64,
    reuse_buffers: bool = False,
    arena: Optional[StageArena] = None,
    scratch: Optional[EvalArena] = None,
    collect_timing: bool = False,
) -> Tuple[Dict[str, ArrayRegion], ExecutionStats]:
    """Run a program following a precomputed :class:`HaloPlan`.

    Splitting plan construction from execution lets callers (the solver,
    the islands runner) reuse the plan across time steps.

    With ``reuse_buffers`` the interpreter recycles the arrays of
    temporaries that no later stage reads — a liveness-based arena, the
    allocator-level analogue of the (3+1)D idea that dead intermediates
    should not occupy fresh storage.  Incompatible with
    ``keep_temporaries`` (recycled arrays would alias) and refused then.
    Results are bit-identical either way: every output element is fully
    overwritten before any read.

    ``arena`` (a :class:`StageArena`) makes the recycling *persistent*:
    the same arena passed on every time step supplies all stage storage
    from its pool, so steady-state calls allocate nothing.  It implies
    ``reuse_buffers`` and hands back the previous call's buffers on entry
    — callers must have copied any results they still need.  ``scratch``
    (an :class:`~repro.stencil.expr.EvalArena`) plays the same role for
    the expression evaluator's ufunc scratch; a throwaway one is used
    when omitted.  Either way every ufunc now receives an ``out=``
    buffer, which is bit-identical to letting NumPy allocate.
    """
    reuse = reuse_buffers or arena is not None
    if reuse and keep_temporaries:
        raise ValueError("reuse_buffers and keep_temporaries are exclusive")
    stage_arena: Optional[StageArena] = None
    if reuse:
        stage_arena = arena if arena is not None else StageArena(dtype)
        if stage_arena.dtype != np.dtype(dtype):
            raise ValueError(
                f"arena dtype {stage_arena.dtype} does not match run dtype "
                f"{np.dtype(dtype)}"
            )
        stage_arena.reset()
    eval_arena = scratch if scratch is not None else EvalArena(dtype)
    stage_alloc0, stage_reuse0 = (
        (stage_arena.allocations, stage_arena.reuses) if stage_arena else (0, 0)
    )
    scratch_alloc0, scratch_reuse0 = eval_arena.allocations, eval_arena.reuses
    storage: Dict[str, ArrayRegion] = {}
    for field in program.input_fields:
        required = plan.input_boxes[field.name]
        if field.name not in inputs:
            if required.is_empty():
                continue
            raise KeyError(f"missing program input {field.name!r}")
        region = inputs[field.name]
        if not required.is_empty() and not region.box.contains(required):
            raise ValueError(
                f"input {field.name!r} covers {region.box} but "
                f"{required} is required"
            )
        storage[field.name] = region

    # Liveness: the last stage index that reads each produced field.
    last_use: Dict[str, int] = {}
    if reuse:
        produced = {stage.output for stage in program.stages}
        for index, stage in enumerate(program.stages):
            for read in stage.reads:
                if read in produced:
                    last_use[read] = index

    # Stage storage comes from the arena (pooled by capacity, since stage
    # boxes differ slightly in shape) or, without reuse, from fresh
    # allocations counted in the stats.
    bases: Dict[str, np.ndarray] = {}
    points_by_stage: Dict[str, int] = {}
    flops = 0
    fresh_allocations = 0
    stage_seconds: Optional[Dict[str, float]] = {} if collect_timing else None
    if collect_timing:
        import time
    for index, stage in enumerate(program.stages):
        compute = plan.stage_boxes[index]
        points_by_stage[stage.name] = compute.size
        if compute.is_empty():
            continue
        flops += compute.size * stage.flops_per_point

        def resolve(field_name: str, offset: Offset) -> np.ndarray:
            return storage[field_name].view(compute.shift(offset))

        need = compute.size
        if stage_arena is not None:
            base = stage_arena.acquire(need)
            bases[stage.output] = base
        else:
            base = np.empty(need, dtype=dtype)
            fresh_allocations += 1
        out = base[:need].reshape(compute.shape)
        if stage_seconds is not None:
            begin = time.perf_counter()
            stage.expr.evaluate(resolve, out=out, scratch=eval_arena)
            elapsed = time.perf_counter() - begin
            stage_seconds[stage.name] = (
                stage_seconds.get(stage.name, 0.0) + elapsed
            )
        else:
            stage.expr.evaluate(resolve, out=out, scratch=eval_arena)
        storage[stage.output] = ArrayRegion(out, compute)

        if stage_arena is not None:
            # Retire temporaries whose last reader has now run; outputs
            # must survive, inputs are caller-owned.
            field_map_local = program.field_map
            for name, final_reader in last_use.items():
                if final_reader != index:
                    continue
                if not field_map_local[name].is_temporary:
                    continue
                if storage.pop(name, None) is not None:
                    stage_arena.retire(bases.pop(name))

    field_map = program.field_map
    results: Dict[str, ArrayRegion] = {}
    for name, region in storage.items():
        field = field_map[name]
        if field.is_output or (keep_temporaries and field.is_temporary):
            results[name] = region
    if stage_arena is not None:
        allocations = stage_arena.allocations - stage_alloc0
        reused = stage_arena.reuses - stage_reuse0
    else:
        allocations = fresh_allocations
        reused = 0
    return results, ExecutionStats(
        points_by_stage,
        flops,
        allocations=allocations,
        reused_buffers=reused,
        scratch_allocations=eval_arena.allocations - scratch_alloc0,
        scratch_reused=eval_arena.reuses - scratch_reuse0,
        stage_seconds=stage_seconds,
    )
