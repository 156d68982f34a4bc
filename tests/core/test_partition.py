"""Tests for domain partitioning."""

import pytest
from hypothesis import given, strategies as st

from repro.core import Partition, Variant, partition_domain, partition_grid_2d
from repro.stencil import Box, full_box


class TestVariant:
    def test_axes(self):
        assert Variant.A.axis == 0
        assert Variant.B.axis == 1

    def test_2d_has_no_axis(self):
        with pytest.raises(ValueError):
            Variant.GRID_2D.axis


class TestPartition1D:
    def test_variant_a_splits_i(self):
        partition = partition_domain(full_box((12, 4, 4)), 3, Variant.A)
        assert [p.lo[0] for p in partition.parts] == [0, 4, 8]
        assert all(p.shape[1:] == (4, 4) for p in partition.parts)

    def test_variant_b_splits_j(self):
        partition = partition_domain(full_box((4, 12, 4)), 3, Variant.B)
        assert [p.lo[1] for p in partition.parts] == [0, 4, 8]

    def test_equal_parts(self):
        partition = partition_domain(full_box((14, 4, 4)), 7)
        sizes = [p.size for p in partition.parts]
        assert len(set(sizes)) == 1

    def test_near_equal_with_remainder(self):
        partition = partition_domain(full_box((10, 4, 4)), 3)
        widths = [p.shape[0] for p in partition.parts]
        assert widths == [4, 3, 3]

    def test_single_island_is_whole_domain(self):
        domain = full_box((8, 8, 8))
        partition = partition_domain(domain, 1)
        assert partition.parts == (domain,)

    def test_validate_passes(self):
        partition_domain(full_box((16, 8, 4)), 5).validate()

    def test_too_many_islands_rejected(self):
        with pytest.raises(ValueError):
            partition_domain(full_box((4, 4, 4)), 5)

    def test_nonpositive_islands_rejected(self):
        with pytest.raises(ValueError):
            partition_domain(full_box((4, 4, 4)), 0)

    def test_2d_via_1d_entrypoint_rejected(self):
        with pytest.raises(ValueError, match="partition_grid_2d"):
            partition_domain(full_box((8, 8, 8)), 4, Variant.GRID_2D)


class TestPartition2D:
    def test_grid_tiles_domain(self):
        partition = partition_grid_2d(full_box((8, 12, 4)), 2, 3)
        partition.validate()
        assert partition.count == 6

    def test_serpentine_keeps_consecutive_parts_adjacent(self):
        partition = partition_grid_2d(full_box((8, 12, 4)), 2, 3)
        for a, b in zip(partition.parts, partition.parts[1:]):
            shared_axes = sum(
                1
                for axis in range(3)
                if max(a.lo[axis], b.lo[axis]) < min(a.hi[axis], b.hi[axis])
            )
            assert shared_axes == 2  # face neighbours

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            partition_grid_2d(full_box((8, 8, 4)), 0, 2)


class TestProperties:
    @given(
        ni=st.integers(2, 64),
        islands=st.integers(1, 8),
        variant=st.sampled_from([Variant.A, Variant.B]),
    )
    def test_cover_exactly(self, ni, islands, variant):
        shape = (ni, 32, 4) if variant is Variant.A else (32, ni, 4)
        if islands > ni:
            with pytest.raises(ValueError):
                partition_domain(full_box(shape), islands, variant)
            return
        partition = partition_domain(full_box(shape), islands, variant)
        partition.validate()
        assert partition.count == islands
