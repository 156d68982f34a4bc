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
from .tiling import BlockPlan, plan_blocks_exact

__all__ = [
    "TuningResult",
    "candidate_shapes",
    "autotune_blocks",
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
