"""Neighbour detection and 2D grid partitioning.

:meth:`Partition.cut_count` counts the interior cuts from
:meth:`Partition.neighbours` — so face detection must be exact on 2D
grids too: tiles that only share an edge or a corner are *not*
neighbours, and non-divisible extents must still tile the domain and
report every face-sharing pair.
"""

from __future__ import annotations

import pytest

from repro.core import Variant, partition_domain, partition_grid_2d
from repro.stencil import full_box


def _expected_grid_pairs(partition, pi, pj):
    """Face-sharing pairs of a serpentine pi x pj grid, from geometry."""
    pairs = set()
    for a in range(partition.count):
        for b in range(a + 1, partition.count):
            pa, pb = partition.parts[a], partition.parts[b]
            for axis in (0, 1):
                other = 1 - axis
                touches = pa.hi[axis] == pb.lo[axis] or pb.hi[axis] == pa.lo[axis]
                overlaps = (
                    min(pa.hi[other], pb.hi[other])
                    > max(pa.lo[other], pb.lo[other])
                )
                if touches and overlaps:
                    pairs.add((a, b))
    return pairs


class TestNeighbours1D:
    @pytest.mark.parametrize("variant", (Variant.A, Variant.B))
    def test_slabs_form_a_chain(self, variant):
        partition = partition_domain(full_box((17, 13, 4)), 4, variant)
        assert partition.neighbours() == [(0, 1), (1, 2), (2, 3)]
        assert partition.cut_count() == 3

    def test_single_island_has_no_neighbours(self):
        partition = partition_domain(full_box((8, 8, 4)), 1)
        assert partition.neighbours() == []


class TestNeighbours2D:
    def test_two_by_two_pairs(self):
        # Serpentine order: 0=(lo i, lo j), 1=(lo i, hi j),
        # 2=(hi i, hi j), 3=(hi i, lo j).
        partition = partition_grid_2d(full_box((8, 8, 4)), 2, 2)
        assert set(partition.neighbours()) == {(0, 1), (0, 3), (1, 2), (2, 3)}

    def test_diagonal_tiles_are_not_neighbours(self):
        partition = partition_grid_2d(full_box((8, 8, 4)), 2, 2)
        pairs = set(partition.neighbours())
        assert (0, 2) not in pairs  # corner contact only
        assert (1, 3) not in pairs

    @pytest.mark.parametrize(
        "shape,pi,pj",
        [
            ((12, 12, 4), 2, 3),  # divisible
            ((13, 11, 3), 2, 3),  # both split axes leave remainders
            ((7, 5, 2), 3, 2),  # parts of width 3/2 and 3/2
            ((9, 4, 2), 4, 4),  # j parts of width 1
        ],
    )
    def test_nondivisible_grids_tile_and_pair_correctly(self, shape, pi, pj):
        partition = partition_grid_2d(full_box(shape), pi, pj)
        partition.validate()
        assert partition.count == pi * pj
        pairs = partition.neighbours()
        assert all(a < b for a, b in pairs)
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == _expected_grid_pairs(partition, pi, pj)
        # A pi x pj grid has pi*(pj-1) j-cuts and pj*(pi-1) i-cuts.
        assert len(pairs) == pi * (pj - 1) + pj * (pi - 1)

    def test_serpentine_consecutive_parts_share_a_face(self):
        partition = partition_grid_2d(full_box((13, 11, 3)), 3, 4)
        pairs = set(partition.neighbours())
        for index in range(partition.count - 1):
            assert (index, index + 1) in pairs

    def test_part_extents_differ_by_at_most_one(self):
        partition = partition_grid_2d(full_box((13, 11, 3)), 2, 3)
        widths_i = {p.shape[0] for p in partition.parts}
        widths_j = {p.shape[1] for p in partition.parts}
        assert max(widths_i) - min(widths_i) <= 1
        assert max(widths_j) - min(widths_j) <= 1
