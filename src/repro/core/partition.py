"""Domain partitioning for the islands-of-cores approach.

The paper maps the MPDATA domain onto a 1D grid of processors, splitting
either the first dimension (**variant A**) or the second (**variant B**);
Sect. 4.2 argues 3D partitionings are ruled out by the array layout (only
*i*/*j* cuts transfer contiguous memory) and leaves 2D grids to future work.
We implement 1D variants A and B as primary, plus the 2D extension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from ..stencil import Box, split_axis

__all__ = ["Variant", "Partition", "partition_domain", "partition_grid_2d"]


class Variant(enum.Enum):
    """Which dimension(s) of the grid the islands split."""

    A = "A"  # split the first dimension (i) — fewer extra elements
    B = "B"  # split the second dimension (j)
    GRID_2D = "2D"  # split i and j jointly (the paper's future work)

    @property
    def axis(self) -> int:
        if self is Variant.A:
            return 0
        if self is Variant.B:
            return 1
        raise ValueError("2D variant has no single axis")


@dataclass(frozen=True)
class Partition:
    """A disjoint cover of a domain by island parts.

    ``parts[p]`` is the slab (or tile) owned by island ``p``.  Parts are
    ordered so that adjacent indices are spatial neighbours, which the
    affinity mapper relies on when assigning islands to NUMA nodes.
    """

    domain: Box
    variant: Variant
    parts: Tuple[Box, ...]

    @property
    def count(self) -> int:
        return len(self.parts)

    def validate(self) -> None:
        """Check the parts tile the domain exactly (used by tests)."""
        total = sum(p.size for p in self.parts)
        if total != self.domain.size:
            raise AssertionError(
                f"parts cover {total} points, domain has {self.domain.size}"
            )
        for a, part in enumerate(self.parts):
            if not self.domain.contains(part):
                raise AssertionError(f"part {part} escapes domain {self.domain}")
            for other in self.parts[a + 1 :]:
                if not part.intersect(other).is_empty():
                    raise AssertionError(f"parts {part} and {other} overlap")


def partition_domain(domain: Box, islands: int, variant: Variant = Variant.A) -> Partition:
    """Split ``domain`` into ``islands`` equal slabs along the variant axis.

    Matches the paper: "the MPDATA domain is decomposed into equal parts,
    where the number of parts is equal to the number of processors".
    """
    if variant is Variant.GRID_2D:
        raise ValueError("use partition_grid_2d for the 2D variant")
    if islands <= 0:
        raise ValueError("islands must be positive")
    axis = variant.axis
    length = domain.shape[axis]
    ranges = split_axis(length, islands, origin=domain.lo[axis])
    parts = []
    for start, stop in ranges:
        lo = list(domain.lo)
        hi = list(domain.hi)
        lo[axis] = start
        hi[axis] = stop
        parts.append(Box(tuple(lo), tuple(hi)))  # type: ignore[arg-type]
    return Partition(domain, variant, tuple(parts))


def partition_grid_2d(domain: Box, parts_i: int, parts_j: int) -> Partition:
    """The 2D future-work variant: an ``parts_i × parts_j`` processor grid.

    Parts are ordered serpentine (boustrophedon) in *j* within *i* so that
    consecutive indices remain spatial neighbours for affinity mapping.
    """
    if parts_i <= 0 or parts_j <= 0:
        raise ValueError("grid extents must be positive")
    i_ranges = split_axis(domain.shape[0], parts_i, origin=domain.lo[0])
    j_ranges = split_axis(domain.shape[1], parts_j, origin=domain.lo[1])
    parts = []
    for row, (i0, i1) in enumerate(i_ranges):
        ordered = j_ranges if row % 2 == 0 else list(reversed(j_ranges))
        for j0, j1 in ordered:
            parts.append(
                Box((i0, j0, domain.lo[2]), (i1, j1, domain.hi[2]))
            )
    return Partition(domain, Variant.GRID_2D, tuple(parts))
