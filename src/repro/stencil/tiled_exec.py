"""Tiled (3+1)D execution of native stencil plans.

:mod:`repro.stencil.tiling` plans cache-sized blocks and the cost model
prices them; this module *executes* them.  A :class:`TiledPlan` covers one
island's target region with the blocks of a :class:`~repro.stencil.tiling
.BlockPlan` and runs **all stages of one block before touching the next**
— the paper's Sect. 3.2 inner level, where every intermediate of the 17
MPDATA stages stays cache-resident while a block is processed, and main
memory sees only the compulsory input/output streams.

Each block gets its own backward halo analysis (clipped exactly like the
island's plan) and its own fused-C step
(:func:`~repro.stencil.native.compile_plan_native`) with a *sized*
persistent :class:`~repro.stencil.codegen.Workspace`, so the steady state
allocates nothing and a block's buffers can never silently grow past the
block.  Blocks whose emitted C is the same — equal shapes and read
offsets, as interior blocks of a periodic grid have — load one shared
kernel module, so tiling adds no compiler runs per block.  Block halos
are recomputed from the island's ghost-extended inputs, never
communicated — blocks relate to the island exactly as islands relate to
the domain.

**Bit-identity.**  Every stage kernel evaluates its op chain per grid
point, so the value of any point of any stage depends only on the values
of its operand points, never on the shape of the box the kernel swept.  A
block's stage box is the same backward expansion (and the same clipping)
the island plan uses, restricted to the block, so every output element is
produced by the identical per-element operation chain as in flat
execution — tiled results equal flat results (and the interpreter's) to
the last bit, which the property tests pin.

**Intra-island work team.**  With ``intra_threads > 1`` the block list is
split into that many contiguous chunks (static chunking, i-major order
preserved per worker) and swept by a persistent thread team.  There is
deliberately *no per-stage barrier*: the per-stage sync of the original
scheme is precisely what the islands approach eliminates, and block halo
recomputation makes every block self-contained, so workers only meet at
the end of the sweep — once per island per step.  cffi releases the GIL
for every kernel call, so the team is true parallelism.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .codegen import CompiledPlan, Workspace
from .halo import HaloPlan, required_regions
from .interpreter import ArrayRegion
from .native import compile_plan_native
from .plancache import PLAN_CACHE
from .program import StencilProgram
from .region import Box
from .tiling import BlockPlan

__all__ = ["BlockTask", "TiledPlan", "compile_plan_tiled"]


@dataclass
class BlockTask:
    """One block of a tiled plan: its box, halo plan and native step."""

    index: int
    block: Box
    plan: HaloPlan
    compiled: CompiledPlan

    @property
    def workspace_bytes(self) -> int:
        """Bytes the block's persistent workspace currently holds."""
        workspace = self.compiled.workspace
        if workspace is None:
            return 0
        return int(workspace.capacity_report()["total_bytes"])


def _chunk(tasks: Sequence[BlockTask], parts: int) -> List[List[BlockTask]]:
    """Static contiguous chunking: near-equal runs in block order."""
    parts = max(1, min(parts, len(tasks)))
    base, remainder = divmod(len(tasks), parts)
    chunks: List[List[BlockTask]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < remainder else 0)
        chunks.append(list(tasks[start : start + size]))
        start += size
    return chunks


class TiledPlan:
    """A stencil program specialized to one target region, block by block.

    Produced by :func:`compile_plan_tiled`.  :meth:`execute` sweeps every
    block (optionally on an intra-island thread team) and writes each
    block's output directly into the caller's output array.  The plan is
    a context manager; :meth:`close` releases the team.

    A failed block poisons nothing by itself — but the sweep raises, and
    the caller (the island runner) must treat the *whole island step* as
    the retry unit: blocks share no state, but a half-swept island is a
    half-written output region.
    """

    def __init__(
        self,
        program: StencilProgram,
        plan: HaloPlan,
        block_plan: BlockPlan,
        tasks: Sequence[BlockTask],
        intra_threads: int = 1,
        timed: bool = False,
        dtype: np.dtype = np.float64,
    ) -> None:
        outputs = program.output_fields
        if len(outputs) != 1:
            raise ValueError("tiled execution requires a single-output program")
        self.program = program
        self.plan = plan
        self.block_plan = block_plan
        self.tasks: Tuple[BlockTask, ...] = tuple(tasks)
        self.intra_threads = max(1, intra_threads)
        self.timed = timed
        self.dtype = np.dtype(dtype)
        self.output_field = outputs[0].name
        self._chunks = _chunk(self.tasks, self.intra_threads)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._degraded = False
        self._closed = False
        #: Per-block seconds of the most recent sweep (timed plans only).
        self.last_block_seconds: Optional[Tuple[float, ...]] = None
        #: Wall seconds of the most recent whole sweep (timed plans only).
        self.last_sweep_seconds: Optional[float] = None
        #: Plan-cache hits/misses attributed to this plan's compilation
        #: (filled by :func:`compile_plan_tiled`).
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the intra-island thread team (idempotent)."""
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "TiledPlan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _executor(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("tiled plan is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=len(self._chunks))
        return self._pool

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def block_count(self) -> int:
        return len(self.tasks)

    @property
    def degraded(self) -> bool:
        """True once a broken thread team forced serial sweeping."""
        return self._degraded

    def counters(self) -> Tuple[int, int]:
        """Cumulative ``(allocations, reuses)`` over all block workspaces."""
        allocations = 0
        reuses = 0
        for task in self.tasks:
            workspace = task.compiled.last_workspace
            if workspace is not None:
                allocations += workspace.allocations
                reuses += workspace.reuses
        return allocations, reuses

    @property
    def stage_seconds(self) -> Optional[Dict[str, float]]:
        """Cumulative per-stage wall seconds summed over blocks."""
        if not self.timed:
            return None
        totals: Dict[str, float] = {}
        for task in self.tasks:
            per_stage = task.compiled.stage_seconds
            if not per_stage:
                continue
            for name, seconds in per_stage.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def workspace_bytes(self) -> int:
        """Bytes held across all block workspaces (steady-state footprint)."""
        return sum(task.workspace_bytes for task in self.tasks)

    def refresh_workspaces(self) -> None:
        """Reset every block workspace before an island-step retry.

        A block task that died mid-call leaves its workspace bindings
        indeterminate; :meth:`Workspace.reset` drops all cached buffers so
        the retry starts from pristine storage — same guarantee, no new
        ``Workspace`` objects.
        """
        for task in self.tasks:
            workspace = task.compiled.workspace
            if workspace is not None:
                workspace.reset()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        inputs: Mapping[str, ArrayRegion],
        out: np.ndarray,
        origin: Tuple[int, int, int] = (0, 0, 0),
    ) -> None:
        """Sweep all blocks, writing the output field into ``out``.

        ``inputs`` are the island's ghost-extended arrays (each must cover
        the block halo plans' required regions — the same arrays the flat
        engine takes).  ``out`` is indexed in grid coordinates relative to
        ``origin``; each block writes exactly its own box, so a full sweep
        covers exactly the plan's target region.
        """
        block_seconds = [0.0] * len(self.tasks) if self.timed else None
        sweep_begin = time.perf_counter() if self.timed else 0.0

        def run_task(task: BlockTask) -> None:
            begin = time.perf_counter() if block_seconds is not None else 0.0
            results = task.compiled(inputs)
            out[task.block.slices(origin)] = results[self.output_field].view(
                task.block
            )
            if block_seconds is not None:
                block_seconds[task.index] = time.perf_counter() - begin

        def run_chunk(chunk: List[BlockTask]) -> None:
            for task in chunk:
                run_task(task)

        if len(self._chunks) == 1 or self._degraded:
            for chunk in self._chunks:
                run_chunk(chunk)
        else:
            try:
                pool = self._executor()
                futures = [pool.submit(run_chunk, chunk) for chunk in self._chunks]
            except RuntimeError:
                if self._closed:
                    raise
                # The team itself is broken (not a deliberate close):
                # degrade to a serial sweep and stay serial.  Re-running a
                # block is harmless — identical inputs rewrite identical
                # bytes — so the serial sweep just redoes everything.
                self._degraded = True
                for chunk in self._chunks:
                    run_chunk(chunk)
            else:
                errors: List[BaseException] = []
                for future in futures:
                    try:
                        future.result()
                    except Exception as error:
                        errors.append(error)
                if errors:
                    # Every chunk has finished (or failed); the island
                    # step is the retry unit, so surface the first error.
                    raise errors[0]
        if block_seconds is not None:
            self.last_block_seconds = tuple(block_seconds)
            self.last_sweep_seconds = time.perf_counter() - sweep_begin


def compile_plan_tiled(
    program: StencilProgram,
    plan: HaloPlan,
    block_plan: BlockPlan,
    clip_domain: Optional[Box] = None,
    dtype: np.dtype = np.float64,
    reuse_buffers: bool = True,
    intra_threads: int = 1,
    timed: bool = False,
) -> TiledPlan:
    """Compile a halo plan into native block steps, swept block by block.

    Raises :class:`~repro.stencil.native.NativeBuildError` when cffi or a
    C compiler is missing.

    Parameters
    ----------
    plan:
        The island's (or whole domain's) halo plan; its target must be
        exactly the region ``block_plan`` tiles.
    block_plan:
        The (3+1)D blocking of the target (from
        :func:`~repro.stencil.tiling.plan_blocks` /
        :func:`~repro.stencil.tiling.plan_blocks_exact`).
    clip_domain:
        The region data exists in — the physical domain plus ghost layers,
        i.e. the same box the island plan was clipped to.  Blocks touching
        the domain boundary need it so their halo expansion stops where
        the ghost data stops; ``None`` (no clipping) is only correct for
        targets far from every boundary.
    reuse_buffers:
        Give every block a persistent sized workspace (steady state
        allocates nothing).  With ``False`` each call uses throwaway
        workspaces — the naive mode, bit-identical and measurable.
    intra_threads, timed:
        See :class:`TiledPlan`.
    """
    outputs = program.output_fields
    if len(outputs) != 1:
        raise ValueError("tiled execution requires a single-output program")
    if block_plan.domain != plan.target:
        raise ValueError(
            f"block plan tiles {block_plan.domain} but the halo plan "
            f"targets {plan.target}; they must match"
        )
    cache_before = PLAN_CACHE.stats()
    tasks: List[BlockTask] = []
    for index, block in enumerate(block_plan.blocks):
        block_halo = required_regions(program, block, domain=clip_domain)
        largest = max(
            (box.size for box in block_halo.stage_boxes if not box.is_empty()),
            default=0,
        )
        compiled = compile_plan_native(
            program,
            block_halo,
            dtype=dtype,
            timed=timed,
            workspace_max_elems=largest or None,
        )
        if reuse_buffers:
            compiled.use_workspace(Workspace(dtype, max_elems=largest or None))
        tasks.append(BlockTask(index, block, block_halo, compiled))
    cache_after = PLAN_CACHE.stats()
    tiled = TiledPlan(
        program,
        plan,
        block_plan,
        tasks,
        intra_threads=intra_threads,
        timed=timed,
        dtype=dtype,
    )
    tiled.plan_cache_hits = cache_after["hits"] - cache_before["hits"]
    tiled.plan_cache_misses = cache_after["misses"] - cache_before["misses"]
    return tiled
