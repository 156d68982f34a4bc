"""Edge-path coverage across packages: small behaviours the focused suites
skip (identity routes, Where codegen, setup overrides, error propagation)."""

import numpy as np
import pytest

from repro.core import scenario_costs, Variant, partition_domain
from repro.experiments import ExperimentSetup
from repro.machine import sgi_uv2000
from repro.mpdata import mpdata_program
from repro.runtime import EngineConfig, PartitionedRunner
from repro.stencil import (
    Access,
    ArrayRegion,
    Box,
    Const,
    Field,
    FieldRole,
    Stage,
    StencilProgram,
    Where,
    compile_plan_native,
    execute,
    full_box,
    native_available,
    required_regions,
)


class TestWhereThroughTheToolchain:
    """MPDATA never uses Where; make sure the whole chain still does."""

    @pytest.fixture()
    def clamp_program(self):
        # y = x where x > 0 else 0.25 * x[i+1]  (a leaky clamp)
        expr = Where(Access("x"), Access("x"), 0.25 * Access("x", (1, 0, 0)))
        return StencilProgram.build(
            "clamp",
            inputs=(Field("x", FieldRole.INPUT),),
            stages=(Stage("clamp", "y", expr),),
            outputs=("y",),
        )

    def test_interpreter(self, clamp_program):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 4, 4))
        inputs = {"x": ArrayRegion.wrap(x, lo=(0, 0, 0))}
        target = Box((0, 0, 0), (9, 4, 4))
        results, _ = execute(clamp_program, inputs, target)
        expected = np.where(x[:9] > 0, x[:9], 0.25 * x[1:10])
        np.testing.assert_array_equal(results["y"].view(target), expected)

    @pytest.mark.skipif(
        not native_available(), reason="needs cffi and a system C compiler"
    )
    def test_codegen_matches_interpreter(self, clamp_program):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 4, 4))
        inputs = {"x": ArrayRegion.wrap(x, lo=(0, 0, 0))}
        target = Box((0, 0, 0), (9, 4, 4))
        interpreted, _ = execute(clamp_program, inputs, target)
        compiled = compile_plan_native(
            clamp_program, required_regions(clamp_program, target)
        )
        np.testing.assert_array_equal(
            compiled(inputs)["y"].data, interpreted["y"].data
        )

    def test_islands_bit_exact(self, clamp_program):
        rng = np.random.default_rng(2)
        arrays = {"x": rng.standard_normal((16, 8, 4))}
        whole = PartitionedRunner(clamp_program, (16, 8, 4), islands=1)
        split = PartitionedRunner(clamp_program, (16, 8, 4), islands=3)
        np.testing.assert_array_equal(
            whole.step(arrays), split.step(arrays)
        )


class TestSmallBehaviours:
    def test_same_node_path_bandwidth_infinite(self):
        machine = sgi_uv2000()
        assert machine.path_bandwidth(5, 5) == float("inf")

    def test_experiment_setup_overrides(self):
        setup = ExperimentSetup.paper(
            processors=(1, 3), shape=(64, 32, 16), steps=7
        )
        assert setup.processors == (1, 3)
        assert setup.shape == (64, 32, 16)
        assert setup.steps == 7

    def test_scenario_advantage_property(self, mpdata):
        partition = partition_domain(full_box((64, 32, 8)), 2, Variant.A)
        costs = scenario_costs(mpdata, partition, 1e-9, 6.7e9, 1e-5)
        assert costs.advantage == pytest.approx(
            costs.communicate_seconds / costs.recompute_seconds
        )

    def test_threaded_runner_propagates_errors(self, mpdata):
        """An island failure must surface, not vanish in the pool."""
        runner = PartitionedRunner(
            mpdata, (16, 12, 8), islands=4, config=EngineConfig(threads=4)
        )
        bad = {
            "x": np.zeros((16, 12, 8)),
            "u1": np.zeros((16, 12, 8)),
            "u2": np.zeros((16, 12, 8)),
            # u3 missing entirely
            "h": np.ones((16, 12, 8)),
        }
        with pytest.raises(KeyError):
            runner.step(bad)

    def test_const_only_stage(self):
        program = StencilProgram.build(
            "konst",
            inputs=(Field("x", FieldRole.INPUT),),
            stages=(
                Stage("fill", "c", Const(4.0) + 0.0 * Access("x")),
                Stage("out", "y", Access("c") * 2.0),
            ),
            outputs=("y",),
        )
        arrays = {"x": np.random.default_rng(3).random((8, 4, 4))}
        out = PartitionedRunner(program, (8, 4, 4)).step(arrays)
        np.testing.assert_array_equal(out, np.full((8, 4, 4), 8.0))

    def test_program_repr_and_stage_repr(self, mpdata):
        assert "17 stages" in repr(mpdata)
        assert "flux_i" in repr(mpdata.stages[0])

    def test_box_repr(self):
        assert repr(Box((0, 0, 0), (1, 2, 3))) == "Box(lo=(0, 0, 0), hi=(1, 2, 3))"
