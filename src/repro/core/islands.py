"""Island construction: partition + halo plans + work teams.

An *island* (Sect. 4.2 of the paper) is one processor's worth of cores — a
*work team* — that owns one part of the domain and executes all 17 MPDATA
stages over it independently every time step, recomputing its transitive
halo instead of communicating.  This module bundles, per island, everything
the executors and the machine scheduler need:

* the island's part of the domain,
* its :class:`~repro.stencil.halo.HaloPlan` (stage compute boxes including
  the redundant halo),
* the regions of each shared input array it reads, and
* the (3+1)D block plan of its part when a cache budget is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..stencil import (
    BlockPlan,
    Box,
    HaloPlan,
    StencilProgram,
    plan_blocks,
)
from .halo import HaloLedger, build_halo_ledger, island_halo_plans
from .partition import Partition, Variant, partition_domain
from .redundancy import RedundancyReport, redundancy_report

__all__ = ["Island", "IslandDecomposition", "decompose"]


@dataclass(frozen=True)
class Island:
    """One island: a part of the domain plus its execution plans."""

    index: int
    part: Box
    halo_plan: HaloPlan
    blocks: Optional[BlockPlan]

    @property
    def input_boxes(self) -> Dict[str, Box]:
        """Region of each shared input this island reads (incl. halo)."""
        return self.halo_plan.input_boxes

    @property
    def compute_points(self) -> int:
        """Stage points this island computes per step (redundancy included)."""
        return self.halo_plan.compute_points()

    @property
    def extra_points(self) -> int:
        """Redundant stage points (scenario-2 overhead) per step."""
        return self.halo_plan.extra_points()


@dataclass(frozen=True)
class IslandDecomposition:
    """A complete islands-of-cores decomposition of one program run.

    Halo plans are built against the *clip domain* — the physical domain
    extended by the boundary ghosts — so they are directly executable; the
    redundancy accounting (Table 2), by contrast, clips to the physical
    domain, because ghost layers exist in every execution strategy.
    """

    program: StencilProgram
    partition: Partition
    clip_domain: Box
    islands: Tuple[Island, ...]

    @property
    def count(self) -> int:
        return len(self.islands)

    def redundancy(self) -> RedundancyReport:
        """Table-2 style extra-element accounting for this decomposition."""
        return redundancy_report(self.program, self.partition)

    def max_compute_points(self) -> int:
        """Points of the most loaded island — the parallel critical path."""
        return max(island.compute_points for island in self.islands)

    def halo_ledger(self, policy: str = "recompute") -> HaloLedger:
        """Executable per-stage halo geometry for one policy.

        Built against this decomposition's clip domain, so the resulting
        compute/buffer boxes are directly runnable by the backends.
        """
        return build_halo_ledger(
            self.program,
            self.partition,
            clip_domain=self.clip_domain,
            policy=policy,
        )


def decompose(
    program: StencilProgram,
    domain: Box,
    islands: int,
    variant: Variant = Variant.A,
    clip_domain: Optional[Box] = None,
    cache_bytes: Optional[int] = None,
    partition: Optional[Partition] = None,
) -> IslandDecomposition:
    """Build an islands-of-cores decomposition.

    Parameters
    ----------
    program, domain:
        What to run and over which physical region.
    islands, variant:
        1D partitioning as in the paper (``variant`` A splits *i*, B splits
        *j*).  Ignored when an explicit ``partition`` is supplied (which is
        how the 2D future-work variant plugs in).
    clip_domain:
        The region data actually exists in — the physical domain plus ghost
        layers.  Defaults to ``domain`` (no ghosts), which is right for
        accounting; executors pass the ghost-extended box.
    cache_bytes:
        When given, each island's part also receives a (3+1)D block plan
        sized to this cache budget (the per-processor L3 in the paper).
    """
    if partition is None:
        partition = partition_domain(domain, islands, variant)
    elif partition.domain != domain:
        raise ValueError("explicit partition does not cover the given domain")
    clip = clip_domain if clip_domain is not None else domain

    built = []
    plans = island_halo_plans(program, partition, clip_domain=clip)
    for index, (part, halo_plan) in enumerate(zip(partition.parts, plans)):
        blocks = (
            plan_blocks(program, part, cache_bytes) if cache_bytes else None
        )
        built.append(Island(index, part, halo_plan, blocks))
    return IslandDecomposition(program, partition, clip, tuple(built))
