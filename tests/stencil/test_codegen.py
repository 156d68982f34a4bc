"""Tests for compiled stencil plans (codegen: workspace, binding, plan).

Plans are built by the native compiler, so everything that compiles is
gated on :func:`native_available` (cffi plus a system C compiler), as in
``test_native.py``; the workspace unit tests always run.
"""

import numpy as np
import pytest

from repro.mpdata import MpdataSolver, random_state
from repro.runtime import EngineConfig
from repro.stencil import (
    Access,
    ArrayRegion,
    Box,
    Field,
    FieldRole,
    Stage,
    StencilProgram,
    Workspace,
    compile_plan_native,
    execute_plan,
    full_box,
    native_available,
    required_regions,
)
from repro.stencil import native as native_module

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)


def _compile(program, target, domain=None, **kwargs):
    """Derive the halo plan for ``target``, then compile it."""
    plan = required_regions(program, target, domain=domain)
    return compile_plan_native(program, plan, **kwargs)


@needs_native
class TestCompileChain:
    def test_bit_exact_vs_interpreter(self, chain_program):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((18, 4, 4))
        inputs = {"x": ArrayRegion.wrap(x, lo=(-3, 0, 0))}
        target = Box((0, 0, 0), (12, 4, 4))
        plan = required_regions(chain_program, target)
        compiled = compile_plan_native(chain_program, plan)
        expected, _ = execute_plan(chain_program, plan, inputs)
        actual = compiled(inputs)
        np.testing.assert_array_equal(
            actual["y"].data, expected["y"].data
        )
        assert actual["y"].box == expected["y"].box

    def test_source_is_inspectable(self, chain_program):
        compiled = _compile(chain_program, Box((0, 0, 0), (8, 4, 4)))
        assert "void _stage_2(" in compiled.source
        assert "/* stage 3: s3 -> y */" in compiled.source

    def test_insufficient_input_rejected(self, chain_program):
        compiled = _compile(chain_program, Box((0, 0, 0), (8, 4, 4)))
        small = {"x": ArrayRegion.wrap(np.zeros((8, 4, 4)))}
        with pytest.raises(ValueError, match="required"):
            compiled(small)

    def test_dtype_respected(self, chain_program):
        x = np.zeros((14, 4, 4), dtype=np.float32)
        inputs = {"x": ArrayRegion.wrap(x, lo=(-3, 0, 0))}
        compiled = _compile(
            chain_program, Box((0, 0, 0), (8, 4, 4)), dtype=np.float32
        )
        assert compiled(inputs)["y"].data.dtype == np.float32


@needs_native
class TestCompileMpdata:
    def test_full_step_bit_exact(self, mpdata):
        shape = (16, 12, 8)
        solver = MpdataSolver(shape)
        state = random_state(shape, seed=5)
        inputs = solver.prepare_inputs(state)
        plan = required_regions(
            mpdata, solver.domain, domain=solver.extended_domain
        )
        compiled = compile_plan_native(mpdata, plan)
        expected, _ = execute_plan(mpdata, plan, inputs)
        actual = compiled(inputs)
        np.testing.assert_array_equal(
            actual["x_out"].data, expected["x_out"].data
        )

    def test_islands_native_backend(self):
        from repro.runtime import MpdataIslandSolver

        shape = (14, 10, 8)
        state = random_state(shape, seed=7)
        plain = MpdataIslandSolver(shape, 3).run(state, 2)
        config = EngineConfig(backend="native", threads=3)
        with MpdataIslandSolver(shape, 3, config=config) as solver:
            fast = solver.run(state, 2)
        np.testing.assert_array_equal(plain, fast)

    def test_all_17_stages_in_source(self, mpdata):
        compiled = _compile(mpdata, full_box((16, 16, 8)))
        for stage in mpdata.stages:
            assert f"-> {stage.output}" in compiled.source

    def test_clipped_plan_without_ghosts_rejected(self, mpdata):
        """Clipping to the bare domain leaves reads that escape the
        available data; compilation must fail loudly (the interpreter
        raises at run time; silent negative slices would wrap)."""
        domain = full_box((16, 16, 8))
        with pytest.raises(ValueError, match="ghost"):
            _compile(mpdata, domain, domain=domain)


class TestWorkspaceGuards:
    def test_reset_drops_buffers_but_keeps_counters(self):
        ws = Workspace()
        ws.out("a", (4, 4))
        ws.out("b", (8,))
        assert ws.allocations == 2
        ws.reset()
        assert ws.buffers == {}
        assert ws.allocations == 2  # cumulative across resets
        ws.out("a", (4, 4))
        assert ws.allocations == 3  # fresh allocation, not a stale reuse

    def test_unsized_workspace_still_reallocates_freely(self):
        ws = Workspace()
        first = ws.out("y", (4, 5))
        second = ws.out("y", (5, 4))
        assert second.shape == (5, 4)
        assert second is not first

    def test_holds_tracks_every_way_a_slot_changes_array(self):
        """A bound launch is reused only while the workspace still holds
        every array it captured: a reuse keeps that, every way a slot can
        change array breaks it, and rebinding the captured array (an
        alternating output buffer coming back) restores it."""
        ws = Workspace()
        first = ws.out("y", (4, 5))
        assert ws.holds("y", first)
        assert ws.out("y", (4, 5)) is first
        assert ws.holds("y", first)
        other = np.zeros((4, 5))
        ws.bind_out("y", other)
        assert not ws.holds("y", first)
        assert ws.holds("y", other)
        ws.bind_out("y", first)
        assert ws.holds("y", first)
        ws.reset()
        assert not ws.holds("y", first)

    def test_bound_output_of_another_dtype_rejected(self):
        ws = Workspace(np.float32)
        with pytest.raises(ValueError, match="dtype"):
            ws.bind_out("y", np.zeros((4, 5)))
        assert ws.buffers == {}

    @needs_native
    def test_stage_seconds_accumulate_when_timed(self, chain_program):
        target = Box((0, 0, 0), (8, 4, 4))
        plan = required_regions(chain_program, target)
        compiled = compile_plan_native(chain_program, plan, timed=True)
        x = np.random.default_rng(2).standard_normal((14, 4, 4))
        inputs = {"x": ArrayRegion.wrap(x, lo=(-3, 0, 0))}
        compiled(inputs)
        first = dict(compiled.stage_seconds)
        assert set(first) == {"s1", "s2", "s3"}
        compiled(inputs)
        second = compiled.stage_seconds
        assert all(second[name] >= first[name] for name in first)

    @needs_native
    def test_untimed_plan_has_no_stage_seconds(self, chain_program):
        compiled = _compile(chain_program, Box((0, 0, 0), (8, 4, 4)))
        assert compiled.timed is False
        assert compiled.stage_seconds is None


class TestCompileValidation:
    def test_reserved_field_name_rejected(self):
        program = StencilProgram.build(
            "bad",
            inputs=(Field("np", FieldRole.INPUT),),
            stages=(Stage("s", "y", Access("np")),),
            outputs=("y",),
        )
        with pytest.raises(ValueError, match="identifier"):
            _compile(program, Box((0, 0, 0), (4, 4, 4)))

    def test_underscore_field_name_rejected(self):
        program = StencilProgram.build(
            "bad",
            inputs=(Field("_x", FieldRole.INPUT),),
            stages=(Stage("s", "y", Access("_x")),),
            outputs=("y",),
        )
        with pytest.raises(ValueError, match="identifier"):
            _compile(program, Box((0, 0, 0), (4, 4, 4)))


def _chain_inputs(seed, length=18, lo=-3):
    x = np.random.default_rng(seed).standard_normal((length, 4, 4))
    return {"x": ArrayRegion.wrap(x, lo=(lo, 0, 0))}


@needs_native
class TestPlanBinding:
    """A plan checks and re-anchors its inputs once per binding and
    rebuilds the binding whenever an input it was built from changes."""

    TARGET = Box((0, 0, 0), (12, 4, 4))

    def _plan(self, program, **kwargs):
        plan = required_regions(program, self.TARGET)
        return plan, compile_plan_native(
            program, plan, reuse_buffers=True, **kwargs
        )

    def test_steady_call_skips_input_validation(
        self, chain_program, monkeypatch
    ):
        _, compiled = self._plan(chain_program)
        inputs = _chain_inputs(0)
        compiled(inputs)
        calls = []
        contains = Box.contains
        strides = native_module._strides_in_elements

        def counting_contains(box, other):
            calls.append("contains")
            return contains(box, other)

        def counting_strides(*args):
            calls.append("strides")
            return strides(*args)

        monkeypatch.setattr(Box, "contains", counting_contains)
        monkeypatch.setattr(
            native_module, "_strides_in_elements", counting_strides
        )
        reuses = compiled.workspace.reuses
        compiled(inputs)
        per_call = compiled.workspace.reuses - reuses
        compiled(inputs)
        assert calls == []
        # The bound call counts the reused output slots like a full call.
        assert per_call > 0
        assert compiled.workspace.reuses - reuses == 2 * per_call

    def test_new_input_region_rebinds(self, chain_program):
        plan, compiled = self._plan(chain_program)
        first = _chain_inputs(1)
        # Another region, anchored elsewhere: the views must be rebuilt.
        second = _chain_inputs(2, length=20, lo=-4)
        for inputs in (first, second, first):
            expected, _ = execute_plan(chain_program, plan, inputs)
            np.testing.assert_array_equal(
                compiled(inputs)["y"].data, expected["y"].data
            )

    def test_bound_views_see_in_place_updates(self, chain_program):
        plan, compiled = self._plan(chain_program)
        inputs = _chain_inputs(3)
        compiled(inputs)
        inputs["x"].data[...] *= -2.0
        expected, _ = execute_plan(chain_program, plan, inputs)
        np.testing.assert_array_equal(
            compiled(inputs)["y"].data, expected["y"].data
        )

    def test_bound_plan_still_rejects_a_too_small_region(
        self, chain_program
    ):
        plan, compiled = self._plan(chain_program)
        good = _chain_inputs(4)
        expected, _ = execute_plan(chain_program, plan, good)
        compiled(good)
        small = {"x": ArrayRegion.wrap(np.zeros((8, 4, 4)))}
        with pytest.raises(ValueError, match="required"):
            compiled(small)
        np.testing.assert_array_equal(
            compiled(good)["y"].data, expected["y"].data
        )

    def test_rebound_output_slot_is_written(self, chain_program):
        plan, compiled = self._plan(chain_program)
        inputs = _chain_inputs(5)
        expected, _ = execute_plan(chain_program, plan, inputs)
        compiled(inputs)
        target = np.zeros(self.TARGET.shape)
        compiled.workspace.bind_out("y", target)
        assert compiled(inputs)["y"].data is target
        np.testing.assert_array_equal(target, expected["y"].data)

    def test_reset_workspace_rebinds(self, chain_program):
        plan, compiled = self._plan(chain_program)
        inputs = _chain_inputs(6)
        expected, _ = execute_plan(chain_program, plan, inputs)
        compiled(inputs)
        allocations = compiled.workspace.allocations
        compiled.workspace.reset()
        result = compiled(inputs)
        assert compiled.workspace.allocations > allocations
        np.testing.assert_array_equal(result["y"].data, expected["y"].data)

    def test_ephemeral_workspace_keeps_results_independent(
        self, chain_program
    ):
        plan = required_regions(chain_program, self.TARGET)
        compiled = compile_plan_native(chain_program, plan)
        inputs = _chain_inputs(7)
        first = compiled(inputs)["y"].data
        second = compiled(inputs)["y"].data
        assert first is not second
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize(
        "plan_dtype, input_dtype",
        [(np.float32, np.float64), (np.float64, np.float32)],
        ids=["float32-plan", "float64-plan"],
    )
    def test_input_of_another_dtype_rejected(
        self, chain_program, plan_dtype, input_dtype
    ):
        """The entry point reads raw bytes, so an input of another dtype
        is refused instead of reinterpreted."""
        plan, compiled = self._plan(chain_program, dtype=plan_dtype)
        x = _chain_inputs(8)["x"].data
        with pytest.raises(ValueError, match="compiled for"):
            compiled({"x": ArrayRegion.wrap(x.astype(input_dtype), lo=(-3, 0, 0))})
        matching = {"x": ArrayRegion.wrap(x.astype(plan_dtype), lo=(-3, 0, 0))}
        expected, _ = execute_plan(chain_program, plan, matching, dtype=plan_dtype)
        np.testing.assert_array_equal(
            compiled(matching)["y"].data, expected["y"].data
        )
