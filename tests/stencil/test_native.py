"""Tests for the fused compiled-C backend (:mod:`repro.stencil.native`).

The C emitter is pure Python, so source-shape tests always run; anything
that actually compiles is gated on :func:`native_available` (cffi plus a
system C compiler) and skips gracefully elsewhere.  The contract under
test is the repo's usual one: the native kernels must match the
interpreter to the last bit, while allocating nothing in the steady
state.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Variant, partition_grid_2d
from repro.mpdata import BOUNDARY_MODES, MpdataSolver, mpdata_program, random_state
from repro.mpdata.reference import MpdataState
from repro.mpdata.stages import FIELD_X
from repro.runtime import (
    EngineConfig,
    FaultInjector,
    FaultSpec,
    IslandFailure,
    MpdataIslandSolver,
)
from repro.stencil import (
    Access,
    ArrayRegion,
    Box,
    Field,
    FieldRole,
    NativeBuildError,
    Stage,
    StencilProgram,
    compile_plan_native,
    execute_plan,
    full_box,
    lower_plan,
    native_available,
    required_regions,
    smoother_chain,
)
from repro.stencil import native as native_module
from repro.stencil.codegen import CompiledPlan
from repro.stencil.expr import fmax, fmin, neg, pos
from repro.stencil.native import (
    ENTRY_SYMBOL,
    RING_ARENA,
    emit_c_source,
    plane_schedule,
)

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)

SHAPE = (16, 12, 8)


def _mpdata_setup(shape=SHAPE, seed=5):
    program = mpdata_program()
    solver = MpdataSolver(shape)
    inputs = solver.prepare_inputs(random_state(shape, seed=seed))
    plan = required_regions(
        program, solver.domain, domain=solver.extended_domain
    )
    return program, plan, inputs


class TestCSourceEmission:
    """Pure-emission checks — no compiler required."""

    def test_one_function_per_stage_with_restrict_pointers(self):
        program, plan, _ = _mpdata_setup()
        csource, cdef = emit_c_source(lower_plan(program, plan), np.float64)
        for schedule in lower_plan(program, plan).stages:
            assert f"static inline void _stage_{schedule.index}(" in csource
            # Plane kernels are internal: the module exports one entry.
            assert f"_stage_{schedule.index}" not in cdef
        assert f"void {ENTRY_SYMBOL}(" in cdef
        assert "restrict" in csource
        assert "restrict" not in cdef  # cffi's parser rejects it
        assert cdef.startswith("typedef double real;")

    def test_single_plane_rings_are_not_indexed(self):
        program = _backward_program()
        ir = lower_plan(program, required_regions(program, Box((0, 0, 0), (8, 5, 4))))
        assert plane_schedule(ir).rings["a"][0] == 1
        csource, _ = emit_c_source(ir)
        entry = csource[csource.index(f"void {ENTRY_SYMBOL}("):]
        assert "_rings + 0," in entry
        assert "%" not in entry
        ramp = _ramp_program()
        ir = lower_plan(ramp, required_regions(ramp, Box((0, 0, 0), (12, 6, 5))))
        csource, _ = emit_c_source(ir)
        entry = csource[csource.index(f"void {ENTRY_SYMBOL}("):]
        assert "% 5) *" in entry  # the five-plane ring of ``a``

    def test_float32_uses_single_precision_helpers(self):
        program, plan, _ = _mpdata_setup()
        csource, cdef = emit_c_source(lower_plan(program, plan), np.float32)
        assert cdef.startswith("typedef float real;")
        assert "fabsf" in csource or "sqrtf" in csource

    def test_ffp_contract_stays_off(self):
        # FMA contraction would break bit-identity with NumPy, which
        # evaluates every multiply and add as a separately rounded op.
        from repro.stencil.native import _COMPILE_ARGS

        assert "-ffp-contract=off" in _COMPILE_ARGS


class TestModuleCacheKey:
    """The on-disk cache must never serve a module built another way."""

    SOURCE = ("void f(void) {}", "void f(void);")

    def test_unchanged_toolchain_keeps_the_name(self):
        assert native_module._module_name(
            *self.SOURCE
        ) == native_module._module_name(*self.SOURCE)

    def test_compile_args_change_the_name(self, monkeypatch):
        before = native_module._module_name(*self.SOURCE)
        monkeypatch.setattr(
            native_module, "_COMPILE_ARGS", ("-O3", "-march=native")
        )
        assert native_module._module_name(*self.SOURCE) != before

    def test_cc_changes_the_name(self, monkeypatch):
        monkeypatch.delenv("CC", raising=False)
        before = native_module._module_name(*self.SOURCE)
        monkeypatch.setenv("CC", "another-cc -m64")
        assert native_module._module_name(*self.SOURCE) != before

    def test_compiler_binary_identity_is_part_of_the_key(self, tmp_path):
        compiler = tmp_path / "fake-cc"
        compiler.write_text("#!/bin/sh\n")
        compiler.chmod(0o755)
        identity = native_module._compiler_identity(str(compiler))
        assert str(compiler.resolve()) in identity
        assert str(compiler.stat().st_mtime_ns) in identity


@needs_native
class TestNativePlanBitIdentity:
    def test_chain_matches_interpreter(self, chain_program):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((18, 4, 4))
        inputs = {"x": ArrayRegion.wrap(x, lo=(-3, 0, 0))}
        plan = required_regions(chain_program, Box((0, 0, 0), (12, 4, 4)))
        reference, _ = execute_plan(chain_program, plan, inputs)
        native = compile_plan_native(chain_program, plan)(inputs)
        np.testing.assert_array_equal(
            native["y"].data, reference["y"].data
        )
        assert native["y"].box == reference["y"].box

    def test_mpdata_every_stage_bit_identical(self):
        """The one-stage plans exchange mode compiles: every stage's
        owned slab equals the interpreter's temporaries bit for bit."""
        program, plan, inputs = _mpdata_setup()
        reference, _ = execute_plan(
            program, plan, inputs, keep_temporaries=True
        )
        config = EngineConfig(backend="native", halo="exchange")
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            solver.run(random_state(SHAPE, seed=5), 1)
            backend = solver.runner.backend
            compared = set()
            for island in solver.runner.decomposition.islands:
                for index, stage in enumerate(program.stages):
                    view = backend.stage_view(island.index, index)
                    if view is None:
                        continue
                    comp = backend.ledger.compute_boxes[island.index][index]
                    expected = reference[stage.output]
                    assert expected.box.contains(comp)
                    np.testing.assert_array_equal(
                        view, expected.view(comp), err_msg=stage.name
                    )
                    compared.add(stage.output)
        assert compared == {stage.output for stage in program.stages}

    def test_float32_plan(self, chain_program):
        x = np.linspace(-1, 1, 18 * 16, dtype=np.float32).reshape(18, 4, 4)
        inputs = {"x": ArrayRegion.wrap(x, lo=(-3, 0, 0))}
        plan = required_regions(chain_program, Box((0, 0, 0), (12, 4, 4)))
        reference, _ = execute_plan(
            chain_program, plan, inputs, dtype=np.float32
        )
        native = compile_plan_native(chain_program, plan, dtype=np.float32)(
            inputs
        )
        assert native["y"].data.dtype == np.float32
        np.testing.assert_array_equal(native["y"].data, reference["y"].data)


@needs_native
class TestNativePlanRuntime:
    def test_steady_state_allocates_nothing(self):
        program, plan, inputs = _mpdata_setup()
        compiled = compile_plan_native(program, plan)
        compiled(inputs)  # warm-up builds the workspace
        workspace = compiled.workspace
        allocations = workspace.allocations
        for _ in range(3):
            compiled(inputs)
        assert workspace.allocations == allocations
        assert workspace.reuses > 0

    def test_timed_plan_records_per_stage_seconds(self):
        program, plan, inputs = _mpdata_setup()
        compiled = compile_plan_native(program, plan, timed=True)
        assert compiled.timed
        compiled(inputs)
        seconds = compiled.stage_seconds
        assert set(seconds) == {s.name for s in program.stages}
        assert all(v >= 0.0 for v in seconds.values())

    def test_non_unit_innermost_stride_rejected(self, chain_program):
        x = np.asfortranarray(np.zeros((18, 4, 4)))
        inputs = {"x": ArrayRegion.wrap(x, lo=(-3, 0, 0))}
        plan = required_regions(chain_program, Box((0, 0, 0), (12, 4, 4)))
        compiled = compile_plan_native(chain_program, plan)
        with pytest.raises(ValueError, match="unit innermost stride"):
            compiled(inputs)

    def test_ghost_violation_raises_the_shared_diagnostic(self):
        program = mpdata_program()
        domain = full_box(SHAPE)
        plan = required_regions(program, domain, domain=domain)
        with pytest.raises(ValueError, match="ghost"):
            compile_plan_native(program, plan)


class TestNativeBackendErrors:
    """Every configuration that builds C kernels is rejected at
    construction when the toolchain is missing, naming the fallback."""

    @pytest.fixture
    def no_toolchain(self, monkeypatch):
        import repro.runtime.backends as backends

        monkeypatch.setattr(
            backends,
            "native_unavailable_reason",
            lambda: "no C compiler found (tried cc, gcc, clang)",
        )

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(backend="native"),
            EngineConfig(backend="native", halo="exchange"),
        ],
        ids=["native", "native-exchange"],
    )
    def test_unavailable_toolchain_fails_loudly(self, no_toolchain, config):
        with pytest.raises(NativeBuildError, match="no C compiler found") as info:
            MpdataIslandSolver(SHAPE, 2, config=config)
        assert "'interpreter'" in str(info.value)

    def test_procs_native_workers_fail_before_forking(
        self, no_toolchain, monkeypatch
    ):
        import multiprocessing

        from repro.runtime.procs import live_segment_names

        started = []
        monkeypatch.setattr(
            multiprocessing.context.ForkProcess,
            "start",
            lambda process: started.append(process),
        )
        config = EngineConfig(backend="procs", workers=2, procs_inner="native")
        with pytest.raises(NativeBuildError, match="no C compiler found") as info:
            MpdataIslandSolver(SHAPE, 2, config=config)
        assert "procs_inner='native'" in str(info.value)
        assert started == []
        assert live_segment_names() == ()


@needs_native
class TestNativeEngine:
    """End-to-end: the native backend inside the island engine."""

    def _trajectory(self, config, steps=50, islands=2, seed=7):
        state = random_state(SHAPE, seed=seed)
        with MpdataIslandSolver(SHAPE, islands, config=config) as solver:
            return np.array(solver.run(state, steps), copy=True)

    @pytest.fixture(scope="class")
    def reference(self):
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(backend="interpreter")
        ) as solver:
            return np.array(solver.run(state, 50), copy=True)

    @pytest.mark.parametrize("halo", ["recompute", "exchange", "hybrid"])
    def test_50_steps_bit_identical_per_halo_policy(self, reference, halo):
        threshold = 4096 if halo == "hybrid" else None
        config = EngineConfig(
            backend="native", halo=halo, halo_threshold=threshold
        )
        np.testing.assert_array_equal(self._trajectory(config), reference)

    def test_procs_pool_with_native_workers_survives_sigkill(self):
        clean = self._trajectory(
            EngineConfig(backend="procs", procs_inner="native", workers=2)
        )
        faulty = self._trajectory(
            EngineConfig(
                backend="procs",
                procs_inner="native",
                workers=2,
                max_retries=2,
                fault_specs=("kill@island=1,step=7",),
            )
        )
        reference = self._trajectory(EngineConfig(backend="interpreter"))
        np.testing.assert_array_equal(clean, reference)
        np.testing.assert_array_equal(faulty, reference)

    def test_engine_steady_state_allocation_free(self):
        config = EngineConfig(backend="native", reuse_output=True)
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            arrays = solver._arrays(state)
            arrays[FIELD_X] = solver.runner.step(arrays)  # warm-up
            for _ in range(3):
                arrays[FIELD_X] = solver.runner.step(
                    arrays, changed={FIELD_X}
                )
                assert solver.last_step_stats.allocations == 0


def _ramp_program():
    """A temporary read at i-offsets -2 and +2 (and later at +1)."""
    stages = (
        Stage(
            "s1", "a",
            Access("x", (-1, 0, 0)) + Access("x", (1, 0, 0)) * Access("x", (0, 1, 0)),
        ),
        Stage(
            "s2", "b",
            Access("a", (-2, 0, 0)) - Access("a", (2, 0, 0)) + Access("a", (0, 0, -1)),
        ),
        Stage("s3", "y", Access("b") * Access("a", (1, 0, 0)) + Access("x")),
    )
    return StencilProgram.build(
        "ramp", inputs=(Field("x", FieldRole.INPUT),), stages=stages,
        outputs=("y",),
    )


def _two_output_program():
    """A later stage reads the first output from its full array."""
    stages = (
        Stage("s1", "o1", Access("x", (-1, 0, 0)) + Access("x", (1, 0, 0))),
        Stage("s2", "t", Access("o1", (-1, 0, 0)) * Access("o1", (1, 0, 0))),
        Stage("s3", "o2", Access("t") - Access("o1", (0, -1, 0))),
    )
    return StencilProgram.build(
        "two_out", inputs=(Field("x", FieldRole.INPUT),), stages=stages,
        outputs=("o1", "o2"),
    )


def _backward_program():
    """A stage reads a temporary only one plane back: a negative lag."""
    stages = (
        Stage("s1", "a", Access("x", (-1, 0, 0)) + Access("x", (1, 0, 0))),
        Stage(
            "s2", "y",
            Access("a", (-1, 0, 0)) * Access("x") - Access("a", (-1, 1, 0)),
        ),
    )
    return StencilProgram.build(
        "backward", inputs=(Field("x", FieldRole.INPUT),), stages=stages,
        outputs=("y",),
    )


def _random_inputs(program, plan, seed):
    rng = np.random.default_rng(seed)
    return {
        name: ArrayRegion(rng.standard_normal(box.shape), box)
        for name, box in plan.input_boxes.items()
    }


class TestPlaneSchedule:
    """Lags and rings derived from the kernel IR (no compiler needed)."""

    def test_mpdata_lags_and_rings(self):
        program, plan, _ = _mpdata_setup()
        ir = lower_plan(program, plan)
        schedule = plane_schedule(ir)
        lags = dict(zip((s.output for s in ir.stages), schedule.lags))
        assert [lags[name] for name in ("f1", "f2", "f3")] == [0, 0, 0]
        assert lags["x_ant"] == lags["v1"] == 1
        assert {lags[s.output] for s in ir.stages[5:16]} == {2}
        assert lags["x_out"] == 3
        assert set(schedule.rings) == {s.output for s in ir.stages[:-1]}
        assert sum(planes for planes, _, _ in schedule.rings.values()) == 28
        assert schedule.outputs == (("x_out", SHAPE),)

    def test_ring_spans_the_read_offsets(self):
        program = _ramp_program()
        plan = required_regions(program, Box((0, 0, 0), (12, 6, 5)))
        schedule = plane_schedule(lower_plan(program, plan))
        assert schedule.lags == (0, 2, 2)
        assert schedule.rings["a"][0] == 5  # read at -2 ... +2
        assert schedule.rings["b"][0] == 1  # read at 0 in the same tick

    def test_outputs_stay_full_arrays(self):
        program = _two_output_program()
        plan = required_regions(program, Box((0, 0, 0), (10, 6, 4)))
        schedule = plane_schedule(lower_plan(program, plan))
        assert set(schedule.rings) == {"t"}
        assert [name for name, _ in schedule.outputs] == ["o1", "o2"]

    def test_backward_read_gives_a_negative_lag(self):
        program = _backward_program()
        plan = required_regions(program, Box((0, 0, 0), (8, 5, 4)))
        schedule = plane_schedule(lower_plan(program, plan))
        assert schedule.lags == (0, -1)
        # Plane i - 1 of ``a`` is computed earlier in the tick that reads it.
        assert schedule.rings["a"][0] == 1
        # ``a``'s box spans i = -1 ... 7 (plan boxes cover offset 0 too).
        assert schedule.ticks == (-1, 8)


@needs_native
class TestPlanePipeline:
    """Folded temporaries, lagged stages: still the interpreter's bits."""

    @staticmethod
    def _assert_matches_interpreter(program, plan, inputs):
        reference, _ = execute_plan(program, plan, inputs)
        native = compile_plan_native(program, plan)
        for _ in range(2):  # the second call runs on the bound launch
            results = native(inputs)
            assert set(results) == set(reference)
            for name, region in reference.items():
                assert results[name].box == region.box
                np.testing.assert_array_equal(
                    results[name].data, region.data, err_msg=name
                )

    @pytest.mark.parametrize(
        "build, target",
        [
            (_ramp_program, Box((0, 0, 0), (12, 6, 5))),
            (_ramp_program, Box((3, -2, 1), (9, 5, 4))),
            (_two_output_program, Box((0, 0, 0), (10, 6, 4))),
            (_backward_program, Box((0, 0, 0), (8, 5, 4))),
        ],
        ids=["ring-of-5", "offset-target", "two-outputs", "backward-read"],
    )
    def test_bit_identical_to_interpreter(self, build, target):
        program = build()
        plan = required_regions(program, target)
        self._assert_matches_interpreter(
            program, plan, _random_inputs(program, plan, seed=3)
        )

    @pytest.mark.parametrize(
        "target",
        [
            Box((0, 0, 0), (1, 6, 5)),
            Box((0, 0, 0), (2, 6, 5)),
            Box((0, 0, 0), (9, 1, 5)),
            Box((0, 0, 0), (9, 6, 1)),
            Box((5, 2, 1), (15, 10, 7)),
            Box((-4, -3, -2), (3, 2, 2)),
            Box((0, 0, 0), (12, 10, 8)),
        ],
        ids=[
            "one-plane", "two-planes", "unit-j", "unit-k", "offset",
            "negative-offset", "whole",
        ],
    )
    def test_smoother_chain_targets(self, target):
        """Three chained smoothers: rings of three planes, one stage per
        lag, over targets down to a single plane (fewer planes than the
        pipeline is deep) and away from the origin."""
        program = smoother_chain(depth=3)
        plan = required_regions(program, target)
        self._assert_matches_interpreter(
            program, plan, _random_inputs(program, plan, seed=4)
        )

    @settings(max_examples=12, deadline=None)
    @given(
        lo=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
        extent=st.tuples(st.integers(1, 9), st.integers(1, 6), st.integers(1, 5)),
        seed=st.integers(0, 100),
    )
    def test_any_target_bit_identical(self, lo, extent, seed):
        program = smoother_chain(depth=2)
        target = Box(lo, tuple(a + n for a, n in zip(lo, extent)))
        plan = required_regions(program, target)
        self._assert_matches_interpreter(
            program, plan, _random_inputs(program, plan, seed=seed)
        )

    def test_mpdata_one_plane_island_plan(self):
        """A one-plane island of the 17-stage program: the pipeline is
        deeper than every stage box, and the 28 ring planes outnumber the
        planes any stage computes."""
        program = mpdata_program()
        solver = MpdataSolver(SHAPE)
        inputs = solver.prepare_inputs(random_state(SHAPE, seed=12))
        target = Box((4, 0, 0), (5,) + SHAPE[1:])
        plan = required_regions(program, target, domain=solver.extended_domain)
        assert max(box.shape[0] for box in plan.stage_boxes) < 28
        self._assert_matches_interpreter(program, plan, inputs)

    def test_paper_serial_plan_folds_its_temporaries(self):
        """One island of the paper-serial grid: the workspace holds the
        ring arena and the output, less than two full stage arrays."""
        shape = (256, 128, 32)
        config = EngineConfig(backend="native", reuse_output=True)
        with MpdataIslandSolver(shape, 1, config=config) as solver:
            solver.runner.step(solver._arrays(random_state(shape, seed=1)))
            compiled = solver.runner.backend.plans[0]
            buffers = compiled.workspace.buffers
        assert set(buffers) == {RING_ARENA, FIELD_X + "_out"}
        stage_bytes = max(box.size for box in compiled.plan.stage_boxes) * 8
        assert sum(array.nbytes for array in buffers.values()) < 2 * stage_bytes

    def test_timed_plan_clocks_every_stage(self):
        program, plan, inputs = _mpdata_setup(shape=(48, 40, 24))
        compiled = compile_plan_native(program, plan, timed=True)
        compiled(inputs)  # warm-up
        before = compiled.stage_seconds
        begin = time.perf_counter()
        for _ in range(5):
            compiled(inputs)
        wall = time.perf_counter() - begin
        after = compiled.stage_seconds
        spent = {name: after[name] - before[name] for name in after}
        assert set(spent) == {stage.name for stage in program.stages}
        assert all(seconds > 0.0 for seconds in spent.values())
        assert sum(spent.values()) == pytest.approx(wall, rel=0.10)


@needs_native
class TestNativeGeometries:
    """Island geometries beyond variant A, each bit-identical to the
    whole-domain solver."""

    def _compare(self, shape, islands, state, steps=3, program=None, **kwargs):
        dtype = kwargs.get("config", EngineConfig()).numpy_dtype
        whole = MpdataSolver(shape, program=program, dtype=dtype).run(state, steps)
        with MpdataIslandSolver(shape, islands, program=program, **kwargs) as solver:
            split = solver.run(state, steps)
        assert split.dtype == whole.dtype
        np.testing.assert_array_equal(split, whole)

    def test_variant_b(self):
        self._compare(
            SHAPE, 3, random_state(SHAPE, seed=8), variant=Variant.B,
            config=EngineConfig(backend="native"),
        )

    def test_grid_2x2(self):
        self._compare(
            SHAPE, 4, random_state(SHAPE, seed=9),
            partition=partition_grid_2d(full_box(SHAPE), 2, 2),
            config=EngineConfig(backend="native", threads=2),
        )

    def test_two_dimensional_program(self):
        shape = (20, 16, 1)
        rng = np.random.default_rng(5)
        state = MpdataState(
            rng.random(shape),
            rng.uniform(-0.08, 0.08, shape),
            rng.uniform(-0.08, 0.08, shape),
            np.zeros(shape),
            rng.uniform(0.8, 1.25, shape),
        )
        self._compare(
            shape, 3, state, program=mpdata_program(dims=2),
            config=EngineConfig(backend="native"),
        )

    def test_float32(self):
        self._compare(
            SHAPE, 2, random_state(SHAPE, seed=10),
            config=EngineConfig(backend="native", dtype="float32"),
        )

    def test_float32_exchange(self):
        """Single-precision one-stage plans over single-precision stage
        buffers."""
        self._compare(
            SHAPE, 3, random_state(SHAPE, seed=13),
            config=EngineConfig(backend="native", dtype="float32", halo="exchange"),
        )

    def test_one_plane_islands(self):
        """Sixteen islands on sixteen i-planes: every island part is a
        single plane, shallower than the stage pipeline."""
        self._compare(
            SHAPE, 16, random_state(SHAPE, seed=11),
            config=EngineConfig(backend="native"),
        )

    def test_open_boundary(self):
        state = random_state(SHAPE, seed=21)
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(boundary="open")
        ) as interpreted:
            expected = np.array(interpreted.run(state, 5), copy=True)
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(backend="native", boundary="open")
        ) as native:
            np.testing.assert_array_equal(native.run(state, 5), expected)

    def test_island_output_is_written_in_place(self):
        config = EngineConfig(backend="native", reuse_output=True)
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            arrays = solver._arrays(state)
            solver.runner.step(arrays)  # warm-up binds the outputs
            out = solver.runner.step(arrays)
            for compiled in solver.runner.backend.plans.values():
                slot = compiled.workspace.buffers[FIELD_X + "_out"]
                assert np.shares_memory(slot, out)


def _writes_in_place(runner, out):
    """Whether every island plan's output slot is a view of ``out``."""
    return all(
        np.shares_memory(compiled.workspace.buffers[FIELD_X + "_out"], out)
        for compiled in runner.backend.plans.values()
    )


@needs_native
class TestIslandOutput:
    """Island plans write into the runner's output array; every event
    that hands the runner a new array or a plan a new workspace rebinds."""

    def test_rebound_after_a_failed_step(self):
        state = random_state(SHAPE, seed=7)
        injector = FaultInjector([FaultSpec("crash", island=1, step=1)])
        config = EngineConfig(backend="native", reuse_output=True)
        with MpdataIslandSolver(
            SHAPE, 2, fault_injector=injector, config=config
        ) as solver:
            runner = solver.runner
            arrays = solver._arrays(state)
            first = runner.step(arrays)
            arrays[FIELD_X] = first.copy()  # the failure poisons ``first``
            with pytest.raises(IslandFailure):
                runner.step(arrays, changed={FIELD_X})
            out = runner.step(arrays, changed={FIELD_X})
            assert out is not first
            assert _writes_in_place(runner, out)
        np.testing.assert_array_equal(out, MpdataSolver(SHAPE).run(state, 2))

    def test_rebound_after_a_refresh(self):
        state = random_state(SHAPE, seed=8)
        config = EngineConfig(backend="native", reuse_output=True)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            runner = solver.runner
            arrays = solver._arrays(state)
            arrays[FIELD_X] = runner.step(arrays)
            workspace = runner.backend.plans[0].workspace
            runner.backend.refresh(0)  # what a retry does first
            assert runner.backend.plans[0].workspace is workspace
            assert not workspace.buffers  # reset in place
            out = runner.step(arrays, changed={FIELD_X})
            assert _writes_in_place(runner, out)
        np.testing.assert_array_equal(out, MpdataSolver(SHAPE).run(state, 2))

    def test_arrays_handed_out_earlier_are_never_overwritten(self):
        """Without ``reuse_output`` every step returns a new array."""
        state = random_state(SHAPE, seed=9)
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(backend="native")
        ) as solver:
            runner = solver.runner
            arrays = solver._arrays(state)
            outputs = []
            for _ in range(3):
                arrays[FIELD_X] = runner.step(arrays)
                outputs.append(arrays[FIELD_X])
            assert _writes_in_place(runner, outputs[-1])
        for steps, out in enumerate(outputs, start=1):
            np.testing.assert_array_equal(
                out, MpdataSolver(SHAPE).run(state, steps)
            )


def _chain_cache_entry(cache_dir, chain_program):
    """The plan, inputs and on-disk module path of one chain plan."""
    plan = required_regions(chain_program, Box((0, 0, 0), (12, 4, 4)))
    csource, cdef = emit_c_source(lower_plan(chain_program, plan))
    name = native_module._module_name(csource, cdef)
    return plan, os.path.join(cache_dir, name + native_module._ext_suffix())


@needs_native
class TestModuleCacheRepair:
    """A broken cache entry is rebuilt once, never served."""

    @pytest.fixture
    def cold_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(native_module.NATIVE_CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(native_module, "_LOADED", {})
        builds = []
        build = native_module._build_shared_object

        def counting_build(*args):
            builds.append(args[0])
            return build(*args)

        monkeypatch.setattr(native_module, "_build_shared_object", counting_build)
        return tmp_path, builds

    @pytest.mark.parametrize(
        "content", [b"", b"\x7fELF not really a shared object" * 8],
        ids=["empty", "garbage"],
    )
    def test_broken_entry_is_rebuilt_once(self, cold_cache, chain_program, content):
        cache_dir, builds = cold_cache
        plan, sopath = _chain_cache_entry(str(cache_dir), chain_program)
        with open(sopath, "wb") as handle:
            handle.write(content)
        rng = np.random.default_rng(0)
        inputs = {"x": ArrayRegion.wrap(rng.standard_normal((18, 4, 4)), lo=(-3, 0, 0))}
        native = compile_plan_native(chain_program, plan)(inputs)
        reference, _ = execute_plan(chain_program, plan, inputs)
        np.testing.assert_array_equal(native["y"].data, reference["y"].data)
        assert len(builds) == 1
        assert os.path.getsize(sopath) > len(content)

    def test_rebuilt_module_that_still_fails_raises(
        self, cold_cache, chain_program, monkeypatch
    ):
        cache_dir, builds = cold_cache

        def broken_import(modname, sopath):
            raise ImportError(f"{sopath}: file too short")

        plan, sopath = _chain_cache_entry(str(cache_dir), chain_program)
        with open(sopath, "wb"):
            pass  # an empty entry: the import fails, one rebuild follows
        monkeypatch.setattr(native_module, "_import_extension", broken_import)
        with pytest.raises(NativeBuildError, match="cannot import rebuilt"):
            compile_plan_native(chain_program, plan)
        assert len(builds) == 1

    def test_missing_cache_directory_is_created(
        self, cold_cache, chain_program, monkeypatch
    ):
        cache_dir, builds = cold_cache
        nested = os.path.join(str(cache_dir), "not", "yet", "there")
        monkeypatch.setenv(native_module.NATIVE_CACHE_ENV, nested)
        plan, sopath = _chain_cache_entry(nested, chain_program)
        rng = np.random.default_rng(1)
        inputs = {"x": ArrayRegion.wrap(rng.standard_normal((18, 4, 4)), lo=(-3, 0, 0))}
        native = compile_plan_native(chain_program, plan)(inputs)
        reference, _ = execute_plan(chain_program, plan, inputs)
        np.testing.assert_array_equal(native["y"].data, reference["y"].data)
        assert len(builds) == 1
        assert os.listdir(nested) == [os.path.basename(sopath)]

    def test_concurrent_cold_builds_leave_one_module(self, tmp_path):
        script = (
            "from repro.stencil import Box, compile_plan_native, required_regions\n"
            "from repro.stencil import Access, Field, FieldRole, Stage, StencilProgram\n"
            "stages = (Stage('s1', 'a', Access('x', (-1, 0, 0)) + Access('x', (1, 0, 0))),\n"
            "          Stage('s2', 'y', Access('a', (-1, 0, 0)) * Access('a', (1, 0, 0))))\n"
            "program = StencilProgram.build('race', (Field('x', FieldRole.INPUT),), stages, ('y',))\n"
            "compile_plan_native(program, required_regions(program, Box((0, 0, 0), (8, 4, 4))))\n"
        )
        env = dict(os.environ, REPRO_NATIVE_CACHE=str(tmp_path))
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (os.path.abspath(src), env.get("PYTHONPATH")))
        )
        workers = [
            subprocess.Popen([sys.executable, "-c", script], env=env)
            for _ in range(3)
        ]
        assert [worker.wait(timeout=300) for worker in workers] == [0, 0, 0]
        entries = sorted(os.listdir(tmp_path))
        assert len(entries) == 1 and entries[0].endswith(native_module._ext_suffix())


class TestModuleSharing:
    def test_translated_island_plans_emit_one_source(self):
        """The islands of one grid differ by a translation, so they load
        one compiled module, whole-step and per stage alike."""
        config = EngineConfig(halo="exchange")
        with MpdataIslandSolver((32, 12, 8), 4, config=config) as solver:
            runner = solver.runner
            islands = runner.decomposition.islands
            sources = {
                emit_c_source(lower_plan(runner.program, island.halo_plan))
                for island in islands
            }
            assert len(sources) == 1
            # Under exchange the edge islands own differently clipped
            # slabs; the interior ones are translations of each other.
            backend = runner.backend
            for stage_index in range(len(runner.program.stages)):
                sub = backend._stage_program(stage_index)
                stage_sources = {
                    emit_c_source(
                        lower_plan(
                            sub,
                            required_regions(
                                sub,
                                backend.ledger.compute_boxes[island.index][
                                    stage_index
                                ],
                            ),
                        )
                    )
                    for island in islands[1:-1]
                }
                assert len(stage_sources) == 1


#: Twelve special values: NaNs with distinct payloads and signs, a
#: signalling NaN, signed zeros, infinities, a subnormal and plain
#: numbers (every value meets itself, so every pair of ties is covered).
_SPECIAL_BITS = (
    0x7FF8000000000000,  # the default quiet NaN
    0x7FF8000000000123,  # a quiet NaN with another payload
    0xFFF8000000000456,  # a negative quiet NaN
    0x7FF0000000000001,  # a signalling NaN
    0x0000000000000000,  # +0
    0x8000000000000000,  # -0
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x3FF0000000000000,  # 1.0
    0xBFF0000000000000,  # -1.0
    0x0000000000000001,  # the smallest subnormal
    0x4004000000000000,  # 2.5
)


@needs_native
class TestSelectLowering:
    """``max``/``min`` and the ``pos``/``neg_part`` selectors keep NumPy's
    selection rule bit for bit: NaNs propagate with their payload, ties
    (signed zeros included) return the second operand."""

    @pytest.mark.parametrize("op", ["max", "min", "pos", "neg_part"])
    def test_special_values_match_the_interpreter(self, op):
        values = np.array(_SPECIAL_BITS, dtype=np.uint64).view(np.float64)
        n = len(values)
        a, b = Access("a"), Access("b")
        binary = op in ("max", "min")
        expr = {"max": fmax, "min": fmin}[op](a, b) if binary else (
            pos(a) if op == "pos" else neg(a)
        )
        names = ("a", "b") if binary else ("a",)
        program = StencilProgram.build(
            op,
            inputs=tuple(Field(name, FieldRole.INPUT) for name in names),
            stages=(Stage("s", "y", expr),),
            outputs=("y",),
        )
        # Every ordered pair: a[i, j] = values[i], b[i, j] = values[j].
        arrays = {
            "a": np.repeat(values, n).reshape(n, n, 1),
            "b": np.tile(values, n).reshape(n, n, 1),
        }
        inputs = {name: ArrayRegion.wrap(arrays[name]) for name in names}
        plan = required_regions(program, Box((0, 0, 0), (n, n, 1)))
        reference, _ = execute_plan(program, plan, inputs)
        native = compile_plan_native(program, plan)(inputs)
        np.testing.assert_array_equal(
            native["y"].data.view(np.uint64),
            reference["y"].data.view(np.uint64),
        )


def _raw_domain_inputs(solver, state):
    """The state's five fields as bare regions anchored at the domain."""
    return {
        name: ArrayRegion(
            np.ascontiguousarray(region.view(solver.domain)), solver.domain
        )
        for name, region in solver.prepare_inputs(state).items()
    }


@needs_native
class TestGatheredPlans:
    """Plans compiled with a boundary read bare domain arrays, applying
    the boundary as they gather input planes, and match the interpreter
    over ghost-extended inputs bit for bit."""

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    def test_domain_arrays_and_ghost_regions_bind_alike(self, mode):
        program = mpdata_program()
        solver = MpdataSolver(SHAPE, boundary=mode)
        state = random_state(SHAPE, seed=14)
        ghosted = solver.prepare_inputs(state)
        plan = required_regions(
            program, solver.domain, domain=solver.extended_domain
        )
        reference, _ = execute_plan(program, plan, ghosted)
        compiled = compile_plan_native(
            program, plan, boundary=(mode, solver.domain)
        )
        assert compiled.gathered
        for inputs in (_raw_domain_inputs(solver, state), ghosted):
            np.testing.assert_array_equal(
                compiled(inputs)["x_out"].data, reference["x_out"].data
            )

    def test_region_without_the_domain_or_the_anchor_raises(self):
        program = mpdata_program()
        solver = MpdataSolver(SHAPE)
        plan = required_regions(
            program, solver.domain, domain=solver.extended_domain
        )
        compiled = compile_plan_native(
            program, plan, boundary=("periodic", solver.domain)
        )
        inputs = _raw_domain_inputs(solver, random_state(SHAPE, seed=2))
        short = Box((1, 0, 0), SHAPE)
        inputs["u2"] = ArrayRegion(inputs["u2"].view(short), short)
        with pytest.raises(ValueError, match="neither covers"):
            compiled(inputs)

    def test_stage_clocks_sum_to_wall_time(self):
        """Each plane's gather is charged to the first stage reading the
        input, so the 17 stage clocks still add up to the plan's wall."""
        shape = (48, 40, 24)
        program = mpdata_program()
        solver = MpdataSolver(shape)
        plan = required_regions(
            program, solver.domain, domain=solver.extended_domain
        )
        compiled = compile_plan_native(
            program, plan, timed=True, boundary=("periodic", solver.domain)
        )
        inputs = _raw_domain_inputs(solver, random_state(shape, seed=3))
        compiled(inputs)  # warm-up
        before = compiled.stage_seconds
        begin = time.perf_counter()
        for _ in range(5):
            compiled(inputs)
        wall = time.perf_counter() - begin
        after = compiled.stage_seconds
        spent = {name: after[name] - before[name] for name in after}
        assert set(spent) == {stage.name for stage in program.stages}
        assert all(seconds > 0.0 for seconds in spent.values())
        assert sum(spent.values()) == pytest.approx(wall, rel=0.10)

    @pytest.mark.parametrize("mode", BOUNDARY_MODES)
    @pytest.mark.parametrize(
        "geometry",
        ["variant-a", "variant-b", "grid-2x2", "one-plane", "float32", "dims-2"],
    )
    def test_runner_geometries(self, mode, geometry):
        """The runner hands bare arrays to gathered island plans: no
        ghost buffers, and the whole-domain solver's trajectory."""
        shape, islands, program = SHAPE, 2, None
        kwargs = {}
        dtype = "float64"
        state = random_state(SHAPE, seed=16)
        if geometry == "variant-b":
            islands, kwargs = 3, {"variant": Variant.B}
        elif geometry == "grid-2x2":
            islands = 4
            kwargs = {"partition": partition_grid_2d(full_box(SHAPE), 2, 2)}
        elif geometry == "one-plane":
            islands = SHAPE[0]
        elif geometry == "float32":
            dtype = "float32"
        elif geometry == "dims-2":
            shape, islands, program = (20, 16, 1), 3, mpdata_program(dims=2)
            rng = np.random.default_rng(5)
            state = MpdataState(
                rng.random(shape),
                rng.uniform(-0.08, 0.08, shape),
                rng.uniform(-0.08, 0.08, shape),
                np.zeros(shape),
                rng.uniform(0.8, 1.25, shape),
            )
        config = EngineConfig(
            backend="native", boundary=mode, dtype=dtype, threads=2,
            reuse_output=True,
        )
        whole = MpdataSolver(
            shape, boundary=mode, program=program, dtype=config.numpy_dtype
        ).run(state, 3)
        with MpdataIslandSolver(
            shape, islands, config=config, program=program, **kwargs
        ) as solver:
            split = np.array(solver.run(state, 3), copy=True)
            assert solver.runner.backend.raw_inputs
            assert solver.runner._ghost == {}
        assert split.dtype == whole.dtype
        np.testing.assert_array_equal(split, whole)

    def test_float32_run_from_a_float64_state_allocates_nothing(self):
        config = EngineConfig(backend="native", dtype="float32", reuse_output=True)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            runner = solver.runner
            arrays = solver._arrays(random_state(SHAPE, seed=15))
            arrays[FIELD_X] = runner.step(arrays)
            # All five float64 fields were staged as float32 copies.
            assert runner.last_step_stats.ghost_allocations == 5
            for _ in range(3):
                arrays[FIELD_X] = runner.step(arrays, changed={FIELD_X})
                assert runner.last_step_stats.allocations == 0

    @pytest.mark.parametrize("threads", (1, 2))
    def test_steady_steps_bind_nothing(self, monkeypatch, threads):
        """Bind-once on the gathered path: after warm-up — the caller's
        ``x``, then each of the two output buffers as ``x`` — a step
        calls neither the input binding nor the launch builder, and each
        plan keeps one launch per output buffer."""
        config = EngineConfig(backend="native", reuse_output=True, threads=threads)
        state = random_state(SHAPE, seed=17)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            runner = solver.runner
            arrays = solver._arrays(state)
            changed = None
            for _ in range(3):
                arrays[FIELD_X] = runner.step(arrays, changed=changed)
                changed = {FIELD_X}
            calls = {"bind": 0, "launch": 0}
            bind = CompiledPlan._bind

            def counting_bind(plan, inputs):
                calls["bind"] += 1
                return bind(plan, inputs)

            monkeypatch.setattr(CompiledPlan, "_bind", counting_bind)
            plans = list(runner.backend.plans.values())
            for compiled in plans:
                build = compiled._bind_stages

                def counting_build(*args, _build=build):
                    calls["launch"] += 1
                    return _build(*args)

                monkeypatch.setattr(compiled, "_bind_stages", counting_build)
            for _ in range(4):
                arrays[FIELD_X] = runner.step(arrays, changed={FIELD_X})
                assert runner.last_step_stats.allocations == 0
            monkeypatch.undo()
            for compiled in plans:
                outputs = {
                    binding.stages.produced[FIELD_X + "_out"].ctypes.data
                    for binding in (compiled._binding, compiled._previous)
                }
                assert len(outputs) == 2
        assert calls == {"bind": 0, "launch": 0}
        np.testing.assert_array_equal(
            arrays[FIELD_X], MpdataSolver(SHAPE).run(state, 7)
        )
