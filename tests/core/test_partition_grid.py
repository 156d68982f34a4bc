"""2D grid partitioning.

Non-divisible extents must still tile the domain with one part per grid
cell, the serpentine order must keep consecutive parts face neighbours
(the affinity mapper relies on it), and part extents on each split axis
differ by at most one.
"""

from __future__ import annotations

import pytest

from repro.core import partition_grid_2d
from repro.stencil import full_box


def _share_a_face(a, b):
    """Whether boxes ``a`` and ``b`` overlap on two axes and touch on the
    third."""
    overlapping = touching = 0
    for axis in range(3):
        lo, hi = max(a.lo[axis], b.lo[axis]), min(a.hi[axis], b.hi[axis])
        if hi > lo:
            overlapping += 1
        elif hi == lo:
            touching += 1
    return overlapping == 2 and touching == 1


class TestNeighbours2D:
    @pytest.mark.parametrize(
        "shape,pi,pj",
        [
            ((12, 12, 4), 2, 3),  # divisible
            ((13, 11, 3), 2, 3),  # both split axes leave remainders
            ((7, 5, 2), 3, 2),  # parts of width 3/2 and 3/2
            ((9, 4, 2), 4, 4),  # j parts of width 1
        ],
    )
    def test_nondivisible_grids_tile_the_domain(self, shape, pi, pj):
        partition = partition_grid_2d(full_box(shape), pi, pj)
        partition.validate()
        assert partition.count == pi * pj

    def test_serpentine_consecutive_parts_share_a_face(self):
        partition = partition_grid_2d(full_box((13, 11, 3)), 3, 4)
        for a, b in zip(partition.parts, partition.parts[1:]):
            assert _share_a_face(a, b)

    def test_part_extents_differ_by_at_most_one(self):
        partition = partition_grid_2d(full_box((13, 11, 3)), 2, 3)
        widths_i = {p.shape[0] for p in partition.parts}
        widths_j = {p.shape[1] for p in partition.parts}
        assert max(widths_i) - min(widths_i) <= 1
        assert max(widths_j) - min(widths_j) <= 1
