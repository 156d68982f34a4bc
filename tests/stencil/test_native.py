"""Tests for the fused compiled-C backend (:mod:`repro.stencil.native`).

The C emitter is pure Python, so source-shape tests always run; anything
that actually compiles is gated on :func:`native_available` (cffi plus a
system C compiler) and skips gracefully elsewhere.  The contract under
test is the repo's usual one: the native kernels must match the
interpreter to the last bit, while allocating nothing in the steady
state.
"""

import numpy as np
import pytest

from repro.mpdata import MpdataSolver, mpdata_program, random_state
from repro.mpdata.stages import FIELD_X
from repro.runtime import EngineConfig, MpdataIslandSolver
from repro.stencil import (
    ArrayRegion,
    Box,
    NativeBuildError,
    compile_plan_native,
    execute_plan,
    full_box,
    lower_plan,
    native_available,
    required_regions,
)
from repro.stencil import native as native_module
from repro.stencil.native import emit_c_source

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
            assert f"_stage_{schedule.index}" in csource
            assert f"_stage_{schedule.index}" in cdef
        assert "restrict" in csource
        assert "restrict" not in cdef  # cffi's parser rejects it
        assert cdef.startswith("typedef double real;")

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
        program, plan, inputs = _mpdata_setup()
        reference, _ = execute_plan(
            program, plan, inputs, keep_temporaries=True
        )
        native = compile_plan_native(program, plan)(
            inputs, keep_temporaries=True
        )
        assert set(native) == set(reference)
        for name in reference:
            np.testing.assert_array_equal(
                native[name].data, reference[name].data, err_msg=name
            )

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
        compiled = compile_plan_native(program, plan, reuse_buffers=True)
        compiled(inputs)  # warm-up builds the workspace
        workspace = compiled.last_workspace
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
            EngineConfig(backend="tiled", block_shape=(8, 6, 8)),
            EngineConfig(backend="tiled", block_shape=(8, 6, 8), halo="exchange"),
        ],
        ids=["native", "tiled", "tiled-exchange"],
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
