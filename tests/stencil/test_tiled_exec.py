"""Tests for the tiled (3+1)D execution backend.

The load-bearing property is bit-identity: a tiled sweep of native block
kernels must produce exactly the bytes the interpreter's flat sweep
produces, for any block shape — including degenerate ones (blocks larger
than the domain, unit axes, halos deeper than the block).  On top of
that: sized workspaces, static chunking, steady-state allocation
counters, and timing collection.  Block plans are compiled to C, so
everything that compiles is gated on :func:`native_available`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpdata import MpdataSolver, mpdata_program, random_state
from repro.stencil import (
    ArrayRegion,
    Box,
    compile_plan_tiled,
    execute_plan,
    heat3d,
    native_available,
    plan_blocks_exact,
    required_regions,
    smoother_chain,
)
from repro.stencil.tiled_exec import _chunk

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)


def _random_inputs(program, plan, seed=0):
    """Arrays covering exactly the plan's required input regions."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for field in program.input_fields:
        box = plan.input_boxes[field.name]
        if box.is_empty():
            continue
        inputs[field.name] = ArrayRegion(rng.standard_normal(box.shape), box)
    return inputs


def _flat_result(program, plan, inputs):
    results, _ = execute_plan(program, plan, inputs)
    output = program.output_fields[0].name
    return results[output].view(plan.target)


def _tiled_result(program, plan, inputs, block_shape, **kwargs):
    block_plan = plan_blocks_exact(program, plan.target, block_shape)
    out = np.empty(plan.target.shape)
    with compile_plan_tiled(program, plan, block_plan, **kwargs) as tiled:
        tiled.execute(inputs, out, origin=plan.target.lo)
    return out


@needs_native
class TestBitIdentity:
    @pytest.mark.parametrize(
        "block_shape",
        [
            (4, 4, 4),
            (5, 3, 2),
            (12, 10, 8),  # one block: the whole target
            (32, 32, 32),  # larger than the domain: clamped
            (12, 1, 8),  # unit axis
            (2, 2, 2),  # shallower than the transitive halo
        ],
    )
    def test_heat3d_blocks_equal_flat(self, block_shape):
        program = heat3d()
        target = Box((0, 0, 0), (12, 10, 8))
        plan = required_regions(program, target)
        inputs = _random_inputs(program, plan, seed=3)
        flat = _flat_result(program, plan, inputs)
        tiled = _tiled_result(program, plan, inputs, block_shape)
        np.testing.assert_array_equal(flat, tiled)

    def test_deep_chain_tiny_blocks(self):
        """smoother_chain's transitive halo dwarfs a 2^3 block; every
        block then reads mostly halo — correctness must not care."""
        program = smoother_chain(depth=4)
        target = Box((0, 0, 0), (8, 6, 6))
        plan = required_regions(program, target)
        inputs = _random_inputs(program, plan, seed=4)
        flat = _flat_result(program, plan, inputs)
        tiled = _tiled_result(program, plan, inputs, (2, 2, 2))
        np.testing.assert_array_equal(flat, tiled)

    def test_intra_threads_equal_serial(self):
        program = heat3d()
        target = Box((0, 0, 0), (12, 10, 8))
        plan = required_regions(program, target)
        inputs = _random_inputs(program, plan, seed=5)
        serial = _tiled_result(program, plan, inputs, (4, 4, 4))
        for workers in (2, 3, 8):
            team = _tiled_result(
                program, plan, inputs, (4, 4, 4), intra_threads=workers
            )
            np.testing.assert_array_equal(serial, team)

    def test_offset_target(self):
        """Targets not anchored at the origin (island slabs) tile and
        execute in global coordinates."""
        program = heat3d()
        target = Box((5, 2, 1), (15, 10, 7))
        plan = required_regions(program, target)
        inputs = _random_inputs(program, plan, seed=6)
        flat = _flat_result(program, plan, inputs)
        block_plan = plan_blocks_exact(program, target, (4, 4, 4))
        out = np.empty(target.shape)
        with compile_plan_tiled(program, plan, block_plan) as tiled:
            tiled.execute(inputs, out, origin=target.lo)
        np.testing.assert_array_equal(flat, out)

    @settings(max_examples=15, deadline=None)
    @given(
        bi=st.integers(1, 14),
        bj=st.integers(1, 12),
        bk=st.integers(1, 10),
        seed=st.integers(0, 100),
    )
    def test_property_any_block_shape(self, bi, bj, bk, seed):
        program = heat3d()
        target = Box((0, 0, 0), (10, 8, 6))
        plan = required_regions(program, target)
        inputs = _random_inputs(program, plan, seed=seed)
        flat = _flat_result(program, plan, inputs)
        tiled = _tiled_result(program, plan, inputs, (bi, bj, bk))
        np.testing.assert_array_equal(flat, tiled)

    def test_mpdata_clipped_plan(self, mpdata):
        """The real 17-stage program with ghost-clipped halo plans — the
        exact configuration the island runner uses."""
        shape = (14, 10, 8)
        solver = MpdataSolver(shape)
        state = random_state(shape, seed=11)
        inputs = solver.prepare_inputs(state)
        plan = required_regions(
            mpdata, solver.domain, domain=solver.extended_domain
        )
        flat = _flat_result(mpdata, plan, inputs)
        block_plan = plan_blocks_exact(mpdata, solver.domain, (5, 4, 8))
        out = np.empty(shape)
        with compile_plan_tiled(
            mpdata, plan, block_plan, clip_domain=solver.extended_domain
        ) as tiled:
            tiled.execute(inputs, out)
        np.testing.assert_array_equal(flat, out)


@needs_native
class TestWorkspaces:
    def _tiled(self, **kwargs):
        program = heat3d()
        target = Box((0, 0, 0), (12, 10, 8))
        plan = required_regions(program, target)
        block_plan = plan_blocks_exact(program, target, (4, 4, 4))
        return (
            program,
            plan,
            compile_plan_tiled(program, plan, block_plan, **kwargs),
        )

    def test_zero_allocations_in_steady_state(self):
        program, plan, tiled = self._tiled()
        inputs = _random_inputs(program, plan, seed=7)
        out = np.empty(plan.target.shape)
        with tiled:
            tiled.execute(inputs, out)  # warm-up fills every workspace
            alloc0, reuse0 = tiled.counters()
            assert alloc0 > 0
            for _ in range(3):
                tiled.execute(inputs, out)
            alloc1, reuse1 = tiled.counters()
        assert alloc1 == alloc0
        assert reuse1 > reuse0

    def test_block_plans_are_native(self):
        program, plan, tiled = self._tiled()
        with tiled:
            assert tiled.block_count > 1
            for task in tiled.tasks:
                assert "void _stage_0(" in task.compiled.source

    def test_workspaces_are_sized_to_the_block(self):
        """Every block workspace carries a cap equal to its own largest
        stage box — a block can never silently grow past itself."""
        program, plan, tiled = self._tiled()
        with tiled:
            for task in tiled.tasks:
                workspace = task.compiled.workspace
                largest = max(
                    box.size
                    for box in task.plan.stage_boxes
                    if not box.is_empty()
                )
                assert workspace.max_elems == largest

    def test_workspace_bytes_reported(self):
        program, plan, tiled = self._tiled()
        inputs = _random_inputs(program, plan, seed=8)
        out = np.empty(plan.target.shape)
        with tiled:
            assert tiled.workspace_bytes() == 0  # nothing cached yet
            tiled.execute(inputs, out)
            assert tiled.workspace_bytes() > 0

    def test_refresh_workspaces_resets_then_reuses(self):
        program, plan, tiled = self._tiled()
        inputs = _random_inputs(program, plan, seed=9)
        out = np.empty(plan.target.shape)
        with tiled:
            tiled.execute(inputs, out)
            tiled.refresh_workspaces()
            assert tiled.workspace_bytes() == 0
            alloc0, _ = tiled.counters()
            tiled.execute(inputs, out)  # re-warms (counters are cumulative)
            alloc1, _ = tiled.counters()
            assert alloc1 > alloc0

    def test_throwaway_mode_still_bit_identical(self):
        program = heat3d()
        target = Box((0, 0, 0), (12, 10, 8))
        plan = required_regions(program, target)
        inputs = _random_inputs(program, plan, seed=10)
        flat = _flat_result(program, plan, inputs)
        tiled = _tiled_result(
            program, plan, inputs, (4, 4, 4), reuse_buffers=False
        )
        np.testing.assert_array_equal(flat, tiled)


class TestChunking:
    def test_even_and_remainder(self):
        tasks = list(range(10))
        chunks = _chunk(tasks, 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [x for c in chunks for x in c] == tasks  # order preserved

    def test_more_workers_than_tasks(self):
        chunks = _chunk(list(range(3)), 8)
        assert [len(c) for c in chunks] == [1, 1, 1]

    def test_single_worker(self):
        assert _chunk(list(range(5)), 1) == [[0, 1, 2, 3, 4]]


class TestValidationAndTiming:
    def test_mismatched_block_plan_rejected(self):
        program = heat3d()
        target = Box((0, 0, 0), (12, 10, 8))
        plan = required_regions(program, target)
        other = plan_blocks_exact(program, Box((0, 0, 0), (8, 8, 8)), (4, 4, 4))
        with pytest.raises(ValueError, match="must match"):
            compile_plan_tiled(program, plan, other)

    def test_multi_output_rejected(self):
        from repro.stencil import Access, Field, FieldRole, Stage, StencilProgram

        program = StencilProgram.build(
            "two_out",
            inputs=(Field("x", FieldRole.INPUT),),
            stages=(
                Stage("s1", "y", Access("x") + 1.0),
                Stage("s2", "z", Access("x") * 2.0),
            ),
            outputs=("y", "z"),
        )
        target = Box((0, 0, 0), (4, 4, 4))
        plan = required_regions(program, target)
        block_plan = plan_blocks_exact(program, target, (4, 4, 4))
        with pytest.raises(ValueError, match="single-output"):
            compile_plan_tiled(program, plan, block_plan)

    @needs_native
    def test_closed_plan_refuses_team_sweeps(self):
        program = heat3d()
        target = Box((0, 0, 0), (8, 8, 8))
        plan = required_regions(program, target)
        block_plan = plan_blocks_exact(program, target, (4, 4, 4))
        tiled = compile_plan_tiled(program, plan, block_plan, intra_threads=2)
        inputs = _random_inputs(program, plan, seed=12)
        out = np.empty(target.shape)
        tiled.execute(inputs, out)
        tiled.close()
        with pytest.raises(RuntimeError, match="closed"):
            tiled.execute(inputs, out)

    @needs_native
    def test_timed_sweep_records_block_and_stage_seconds(self):
        program = heat3d()
        target = Box((0, 0, 0), (12, 10, 8))
        plan = required_regions(program, target)
        block_plan = plan_blocks_exact(program, target, (6, 5, 4))
        inputs = _random_inputs(program, plan, seed=13)
        out = np.empty(target.shape)
        with compile_plan_tiled(program, plan, block_plan, timed=True) as tiled:
            tiled.execute(inputs, out)
            assert len(tiled.last_block_seconds) == tiled.block_count
            assert all(t >= 0.0 for t in tiled.last_block_seconds)
            assert tiled.last_sweep_seconds >= max(tiled.last_block_seconds)
            stage_names = {stage.name for stage in program.stages}
            assert set(tiled.stage_seconds) == stage_names

    @needs_native
    def test_untimed_sweep_records_nothing(self):
        program = heat3d()
        target = Box((0, 0, 0), (8, 8, 8))
        plan = required_regions(program, target)
        block_plan = plan_blocks_exact(program, target, (4, 4, 4))
        inputs = _random_inputs(program, plan, seed=14)
        out = np.empty(target.shape)
        with compile_plan_tiled(program, plan, block_plan) as tiled:
            tiled.execute(inputs, out)
            assert tiled.last_block_seconds is None
            assert tiled.stage_seconds is None
