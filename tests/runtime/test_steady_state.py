"""Tests for the steady-state execution engine in the partitioned runtime.

Covers the persistent resources (thread pool, ghost buffers, output array,
per-island arenas), the per-step allocation counters, the lifecycle API,
and the measurement harness behind ``python -m repro engine``.
"""

import numpy as np
import pytest

from repro.core import Variant
from repro.mpdata import MpdataSolver, random_state
from repro.runtime import (
    EngineConfig,
    MpdataIslandSolver,
    PartitionedRunner,
    RecoveryPolicy,
    measure_steady_state,
    native_available,
    verify_islands,
)
from repro.mpdata import mpdata_program

SHAPE = (16, 12, 8)

#: Kernel backends under test: the reference and the native fast path.
KERNEL_BACKENDS = (
    "interpreter",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="needs cffi and a system C compiler"
        ),
    ),
)


@pytest.fixture()
def state():
    return random_state(SHAPE, seed=33)


def _arrays(state):
    return {
        "x": state.x, "u1": state.u1, "u2": state.u2,
        "u3": state.u3, "h": state.h,
    }


class TestZeroAllocationSteadyState:
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_zero_allocations_after_warmup(self, state, backend):
        config = EngineConfig(backend=backend, reuse_output=True)
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=3, config=config
        ) as runner:
            arrays = _arrays(state)
            arrays["x"] = runner.step(arrays)  # warm-up allocates everything
            assert runner.last_step_stats.allocations > 0
            for _ in range(3):
                arrays["x"] = runner.step(arrays, changed={"x"})
                stats = runner.last_step_stats
                assert stats.allocations == 0
                assert stats.reused > 0

    def test_threaded_steady_state_zero_allocations(self, state):
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=4,
            config=EngineConfig(threads=4, reuse_output=True),
        ) as runner:
            arrays = _arrays(state)
            arrays["x"] = runner.step(arrays)
            arrays["x"] = runner.step(arrays, changed={"x"})
            assert runner.last_step_stats.allocations == 0

    def test_reuse_output_returns_same_buffer(self, state):
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=2,
            config=EngineConfig(reuse_output=True),
        ) as runner:
            first = runner.step(_arrays(state))
            second = runner.step(_arrays(state), changed={"x"})
            assert first is second


class TestBitIdentity:
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_engine_matches_whole_domain(self, state, backend):
        expected = MpdataSolver(SHAPE).run(state, 3)
        config = EngineConfig(backend=backend, reuse_output=True)
        with MpdataIslandSolver(SHAPE, 3, config=config) as solver:
            actual = solver.run(state, 3)
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_verify_islands_engine_configurations(self, state, backend):
        result = verify_islands(
            SHAPE, state, islands=3, steps=2, backend=backend,
            reuse_output=True,
        )
        assert result.bit_exact

    def test_changed_hint_is_bit_identical_to_full_refill(self, state):
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=2
        ) as hinted, PartitionedRunner(
            mpdata_program(), SHAPE, islands=2
        ) as refilled:
            arrays_a = _arrays(state)
            arrays_b = _arrays(state)
            arrays_a["x"] = hinted.step(arrays_a)
            arrays_b["x"] = refilled.step(arrays_b)
            for _ in range(2):
                arrays_a["x"] = hinted.step(arrays_a, changed={"x"})
                arrays_b["x"] = refilled.step(arrays_b)  # refills all 5
            np.testing.assert_array_equal(arrays_a["x"], arrays_b["x"])


class TestLifecycle:
    def test_close_is_idempotent_and_context_manager(self, state):
        runner = PartitionedRunner(
            mpdata_program(), SHAPE, islands=2, config=EngineConfig(threads=2)
        )
        runner.step(_arrays(state))
        assert runner._pool is not None  # pool persisted across the call
        runner.close()
        runner.close()
        assert runner._pool is None

    def test_threaded_step_after_close_rejected(self, state):
        runner = PartitionedRunner(
            mpdata_program(), SHAPE, islands=2, config=EngineConfig(threads=2)
        )
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            runner.step(_arrays(state))

    def test_solver_context_manager_closes_runner(self, state):
        with MpdataIslandSolver(SHAPE, 2, config=EngineConfig(threads=2)) as solver:
            solver.run(state, 2)
            pool = solver.runner._pool
            assert pool is not None
        assert solver.runner._pool is None

    def test_sequential_runner_never_builds_pool(self, state):
        with PartitionedRunner(mpdata_program(), SHAPE, islands=2) as runner:
            runner.step(_arrays(state))
            assert runner._pool is None

    def test_run_validates_state_once(self, state, monkeypatch):
        calls = {"n": 0}
        original = type(state).validate

        def counting_validate(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(type(state), "validate", counting_validate)
        with MpdataIslandSolver(SHAPE, 2) as solver:
            solver.run(state, 3)
        assert calls["n"] == 1


class TestMeasureSteadyState:
    """The harness runs one configuration as given and checks it
    against the whole-domain solver."""

    def test_measure_steady_state_smoke(self):
        config = EngineConfig(reuse_output=True)
        report = measure_steady_state(config, (24, 16, 8), steps=3, islands=2)
        assert report.bit_identical
        assert report.steps == 3
        assert report.steady_steps == 2  # every step after the first
        assert report.warmup_allocations > 0
        assert report.allocations_per_step == 0.0
        assert report.recovery is None and report.error is None
        assert "bit-identical to the whole-domain solver: True" in (
            report.render()
        )

    def test_a_differing_result_is_reported(self, monkeypatch):
        monkeypatch.setattr(
            MpdataSolver, "run", lambda self, state, steps: np.zeros(SHAPE)
        )
        report = measure_steady_state(EngineConfig(), SHAPE, 2, 2)
        assert not report.bit_identical

    def test_a_recovery_policy_heals_an_injected_crash(self):
        config = EngineConfig(fault_specs=("crash@island=1,step=2",))
        report = measure_steady_state(
            config, SHAPE, 4, 2, recovery=RecoveryPolicy(checkpoint_every=2)
        )
        assert report.error is None
        assert report.bit_identical
        assert report.recovery.completed_steps == 4
        assert report.recovery.fault_stats.injected_crashes == 1
        assert "Recovery report: 4/4 steps completed" in report.render()

    def test_an_unrecoverable_run_is_reported_not_raised(self):
        config = EngineConfig(
            max_retries=1,
            fault_specs=("crash@island=0,step=3,attempts=99",),
        )
        recovery = RecoveryPolicy(checkpoint_every=2, max_rollbacks=0)
        report = measure_steady_state(config, SHAPE, 6, 2, recovery=recovery)
        assert report.error is not None
        assert not report.bit_identical
        assert report.recovery.completed_steps < 6
        assert "UNRECOVERABLE" in report.render()

    def test_a_partition_grid_sets_the_island_count(self):
        report = measure_steady_state(
            EngineConfig(), SHAPE, 2, 1,
            variant=Variant.GRID_2D, partition_grid=(2, 2),
        )
        assert report.islands == 4
        assert report.bit_identical

    @pytest.mark.parametrize("collect", [False, True])
    def test_timings_are_the_last_steps_when_collected(self, collect):
        config = EngineConfig(collect_timings=collect)
        report = measure_steady_state(config, SHAPE, 2, 2)
        assert (report.timings is not None) == collect
        assert ("last step timings:" in report.render()) == collect
        assert report.bit_identical
