"""Tests for the functional partitioned runtime and verification."""

import sys

import numpy as np
import pytest

from repro.core import Variant, partition_grid_2d
from repro.mpdata import MpdataSolver, random_state, upwind_program
from repro.runtime import (
    EngineConfig,
    MpdataIslandSolver,
    PartitionedRunner,
    verify_islands,
    verify_variants,
)
from repro.stencil import full_box


SHAPE = (16, 12, 8)


@pytest.fixture()
def state():
    return random_state(SHAPE, seed=21)


class TestPartitionedRunner:
    def test_requires_single_output_program(self, mpdata):
        runner = PartitionedRunner(mpdata, SHAPE, islands=2)
        assert runner.output_field == "x_out"

    def test_missing_input_rejected(self, mpdata):
        runner = PartitionedRunner(mpdata, SHAPE, islands=2)
        with pytest.raises(KeyError, match="u1"):
            runner.step({"x": np.zeros(SHAPE)})

    def test_wrong_shape_rejected(self, mpdata, state):
        runner = PartitionedRunner(mpdata, SHAPE, islands=2)
        arrays = {
            "x": state.x[:-1], "u1": state.u1, "u2": state.u2,
            "u3": state.u3, "h": state.h,
        }
        with pytest.raises(ValueError, match="shape"):
            runner.step(arrays)

    def test_grid_smaller_than_program_halo_rejected(self, mpdata):
        # MPDATA's periodic ghosts are 3 deep; axis 2 has 2 cells.
        with pytest.raises(ValueError, match="smaller than the program halo"):
            PartitionedRunner(mpdata, (16, 16, 2), islands=2)

    def test_2d_partition_supported(self, mpdata, state):
        partition = partition_grid_2d(full_box(SHAPE), 2, 2)
        runner = PartitionedRunner(mpdata, SHAPE, partition=partition)
        out = runner.step(
            {
                "x": state.x, "u1": state.u1, "u2": state.u2,
                "u3": state.u3, "h": state.h,
            }
        )
        expected = MpdataSolver(SHAPE).step(state)
        np.testing.assert_array_equal(out, expected)


    def test_team_fan_out_runs_every_position_once(self, mpdata):
        """Team members claim positions from one shared counter.  With
        more members than cores and a tiny switch interval, every
        position still runs exactly once per fan-out, and every failure
        comes back, in position order."""
        count, rounds = 300, 10
        hits = [0] * count

        def task(position):
            hits[position] += 1  # a doubly claimed position shows here
            if position % 97 == 0:
                raise ValueError(position)

        runner = PartitionedRunner(
            mpdata, SHAPE, islands=2, config=EngineConfig(threads=8)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                errors = runner._fan_out(count, task)
        finally:
            sys.setswitchinterval(interval)
            runner.close()
        assert hits == [rounds] * count
        assert [error.args[0] for error in errors] == [0, 97, 194, 291]


class TestMpdataIslandSolver:
    @pytest.mark.parametrize("islands", [1, 2, 3, 4])
    def test_bit_exact_vs_whole_domain(self, state, islands):
        split = MpdataIslandSolver(SHAPE, islands)
        whole = MpdataSolver(SHAPE)
        np.testing.assert_array_equal(split.step(state), whole.step(state))

    def test_variant_b(self, state):
        split = MpdataIslandSolver(SHAPE, 3, variant=Variant.B)
        whole = MpdataSolver(SHAPE)
        np.testing.assert_array_equal(split.step(state), whole.step(state))

    def test_threaded_matches_sequential(self, state):
        threaded = MpdataIslandSolver(SHAPE, 4, config=EngineConfig(threads=4))
        sequential = MpdataIslandSolver(SHAPE, 4, config=EngineConfig(threads=1))
        np.testing.assert_array_equal(
            threaded.run(state, 3), sequential.run(state, 3)
        )

    def test_upwind_program_supported(self, state):
        split = MpdataIslandSolver(SHAPE, 2, program=upwind_program())
        whole = MpdataSolver(SHAPE, program=upwind_program())
        np.testing.assert_array_equal(split.step(state), whole.step(state))

    def test_negative_steps_rejected(self, state):
        with pytest.raises(ValueError):
            MpdataIslandSolver(SHAPE, 2).run(state, -1)

    def test_decomposition_exposed(self):
        solver = MpdataIslandSolver(SHAPE, 3)
        assert solver.decomposition.count == 3


class TestVerify:
    def test_verify_islands_passes(self, state):
        result = verify_islands(SHAPE, state, islands=3, steps=2)
        assert result.bit_exact
        assert bool(result)
        assert result.max_abs_diff == 0.0

    def test_verify_open_boundary(self, state):
        result = verify_islands(
            SHAPE, state, islands=2, steps=2, boundary="open"
        )
        assert result.bit_exact

    def test_verify_variants_covers_both(self, state):
        results = verify_variants(SHAPE, state, [2, 4], steps=1)
        assert len(results) == 4
        assert {r.variant for r in results} == {Variant.A, Variant.B}
        assert all(results)
