"""Block-shape autotuning for the (3+1)D decomposition.

The heuristic planner (:func:`~repro.stencil.tiling.plan_blocks`) halves the
largest axis until the working set fits — fast and usually good.  The
autotuner instead *searches*: it enumerates candidate block shapes
(power-of-two and full-extent per axis), keeps those whose working set fits
the cache budget, scores each through the caller's cost function, and
returns the best plan with the ranked alternatives.

The default objective is the simulated pure-(3+1)D time on a machine —
block shape moves two dials at once (the per-block hand-off count and the
halo re-read traffic), and their optimum is not always where the heuristic
lands; the ``bench_ablations`` cache study shows how much that matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .program import StencilProgram
from .region import Box
from .tiling import BlockPlan, plan_blocks, plan_blocks_exact

__all__ = [
    "TuningResult",
    "candidate_shapes",
    "autotune_blocks",
    "measured_objective",
]

Shape = Tuple[int, int, int]


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a block-shape search."""

    best: BlockPlan
    best_score: float
    ranking: Tuple[Tuple[Shape, float], ...]  # (shape, score), best first
    evaluated: int

    def improvement_over(self, baseline_score: float) -> float:
        """Baseline-over-best score ratio (>1 means the search helped)."""
        if self.best_score <= 0:
            raise ValueError("scores must be positive")
        return baseline_score / self.best_score


def candidate_shapes(
    domain: Box,
    min_block: Shape = (4, 4, 4),
) -> List[Shape]:
    """Power-of-two (plus full-extent) block shapes for a domain.

    Per axis: every power of two from ``min_block`` up to the extent, plus
    the extent itself when it is not a power of two.
    """
    per_axis: List[List[int]] = []
    for axis in range(3):
        extent = domain.shape[axis]
        options = []
        size = min_block[axis]
        while size < extent:
            options.append(size)
            size *= 2
        options.append(extent)
        per_axis.append(sorted(set(options)))
    return [
        (bi, bj, bk)
        for bi in per_axis[0]
        for bj in per_axis[1]
        for bk in per_axis[2]
    ]


def autotune_blocks(
    program: StencilProgram,
    domain: Box,
    cache_bytes: int,
    score: Callable[[BlockPlan], float],
    min_block: Shape = (4, 4, 4),
    max_candidates: Optional[int] = None,
) -> TuningResult:
    """Search block shapes minimizing ``score`` under the cache budget.

    Parameters
    ----------
    score:
        Maps a candidate :class:`BlockPlan` to a cost (lower is better) —
        typically a closure over ``simulate(build_fused_plan(...,
        blocks=plan))``.
    max_candidates:
        Optional cap on evaluated (cache-feasible) candidates, cheapest
        working set first; None evaluates all.

    Raises
    ------
    ValueError
        If no candidate shape fits the cache budget.
    """
    feasible = []
    for shape in candidate_shapes(domain, min_block):
        plan = plan_blocks_exact(program, domain, shape)
        if plan.working_set <= cache_bytes:
            feasible.append(plan)
    if not feasible:
        raise ValueError(
            f"no candidate block shape fits {cache_bytes} B of cache"
        )
    feasible.sort(key=lambda plan: plan.working_set)
    if max_candidates is not None:
        feasible = feasible[-max_candidates:]  # biggest working sets last...
        # ...and biggest blocks are usually best, so keep those.

    scored: List[Tuple[float, BlockPlan]] = []
    for plan in feasible:
        scored.append((score(plan), plan))
    scored.sort(key=lambda item: item[0])

    best_score, best = scored[0]
    ranking = tuple((plan.block_shape, value) for value, plan in scored)
    return TuningResult(
        best=best,
        best_score=best_score,
        ranking=ranking,
        evaluated=len(scored),
    )


def measured_objective(
    shape: Shape,
    islands: int = 1,
    steps: int = 3,
    intra_threads: int = 1,
    boundary: str = "periodic",
    seed: int = 0,
) -> Callable[[BlockPlan], float]:
    """An :func:`autotune_blocks` objective that *times real tiled steps*.

    The default objective scores candidates through the simulator's cost
    model — cheap, but only as good as the model.  This one builds the
    actual tiled engine for each candidate block shape and measures
    wall-clock seconds per step on this machine (one warm-up step, then
    ``steps`` timed), so the search optimizes what users actually run.
    Each candidate costs ``(1 + steps)`` full MPDATA steps; keep
    ``max_candidates`` small or the grid modest.

    The same initial state (fixed ``seed``) is replayed for every
    candidate, so scores are comparable across the search.
    """
    import time as _time

    import numpy as np

    from ..mpdata.fields import random_state
    from ..mpdata.stages import FIELD_X

    state = random_state(shape, seed=seed)

    def score(plan: BlockPlan) -> float:
        # Imported lazily: autotune is a stencil-layer module and must not
        # pull the runtime layer (which imports stencil) at import time.
        from ..runtime.config import EngineConfig
        from ..runtime.island_exec import MpdataIslandSolver

        with MpdataIslandSolver(
            shape,
            islands,
            config=EngineConfig(
                backend="tiled",
                boundary=boundary,
                block_shape=plan.block_shape,
                intra_threads=intra_threads,
            ),
        ) as solver:
            arrays = solver._arrays(state)
            arrays[FIELD_X] = np.asarray(state.x, dtype=solver.runner.dtype)
            arrays[FIELD_X] = solver.runner.step(arrays)  # warm-up
            begin = _time.perf_counter()
            for _ in range(steps):
                arrays[FIELD_X] = solver.runner.step(
                    arrays, changed={FIELD_X}
                )
            elapsed = _time.perf_counter() - begin
        return elapsed / steps

    return score
