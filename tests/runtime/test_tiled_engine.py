"""Tests for the tiled (3+1)D backend wired into the partitioned runtime.

The acceptance bar: a 50-step MPDATA run through the tiled engine is
bit-identical to the interpreter under every halo policy, steady-state
steps allocate nothing, a failed block retries the whole island step
through the existing fault machinery, and the timing instrumentation
reports where the step's wall time went.  Tiled blocks are native
kernels, so the module needs cffi and a C compiler.
"""

import json

import numpy as np
import pytest

from repro.mpdata import mpdata_program, random_state
from repro.runtime import (
    EngineConfig,
    MpdataIslandSolver,
    PartitionedRunner,
    StepTimings,
    measure_tiled_engine,
)
from repro.stencil import native_available

pytestmark = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)

SHAPE = (16, 12, 8)
BLOCK = (5, 4, 8)
NATIVE = EngineConfig(backend="native")


@pytest.fixture()
def state():
    return random_state(SHAPE, seed=21)


def _arrays(state):
    return {
        "x": state.x, "u1": state.u1, "u2": state.u2,
        "u3": state.u3, "h": state.h,
    }


class _FlakyCompiled:
    """Wraps a block's compiled step; fails the first N calls."""

    def __init__(self, inner, failures=1):
        self._inner = inner
        self.failures_left = failures
        self.calls = 0

    def __call__(self, inputs):
        self.calls += 1
        if self.failures_left:
            self.failures_left -= 1
            raise RuntimeError("injected block fault")
        return self._inner(inputs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture(scope="module")
def interpreted_50():
    with MpdataIslandSolver(SHAPE, 3) as plain:
        return np.array(plain.run(random_state(SHAPE, seed=21), 50), copy=True)


class TestBitIdentity:
    @pytest.mark.parametrize("halo", ("recompute", "exchange", "hybrid"))
    def test_fifty_steps_tiled_equals_interpreter(
        self, state, interpreted_50, halo
    ):
        """The acceptance run: 50 MPDATA steps of native blocks, serial
        and on a two-thread team, bit-equal to the interpreter."""
        for intra in (1, 2):
            config = EngineConfig(
                backend="tiled",
                block_shape=BLOCK,
                intra_threads=intra,
                halo=halo,
                halo_threshold=64 if halo == "hybrid" else None,
            )
            with MpdataIslandSolver(SHAPE, 3, config=config) as tiled:
                actual = tiled.run(state, 50)
            np.testing.assert_array_equal(interpreted_50, actual)

    def test_tiled_equals_interpreted(self, state):
        with MpdataIslandSolver(SHAPE, 2) as plain:
            expected = np.array(plain.run(state, 5), copy=True)
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(backend="tiled", block_shape=(4, 4, 4))
        ) as tiled:
            actual = tiled.run(state, 5)
        np.testing.assert_array_equal(expected, actual)

    def test_tiled_with_island_threads(self, state):
        """Inter-island threads and intra-island teams compose."""
        with MpdataIslandSolver(SHAPE, 2, config=NATIVE) as flat:
            expected = np.array(flat.run(state, 4), copy=True)
        with MpdataIslandSolver(
            SHAPE,
            2,
            config=EngineConfig(
                backend="tiled",
                threads=2,
                block_shape=BLOCK,
                intra_threads=2,
            ),
        ) as tiled:
            actual = tiled.run(state, 4)
        np.testing.assert_array_equal(expected, actual)

    def test_open_boundary(self, state):
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(backend="native", boundary="open")
        ) as flat:
            expected = np.array(flat.run(state, 5), copy=True)
        with MpdataIslandSolver(
            SHAPE,
            2,
            config=EngineConfig(
                backend="tiled",
                boundary="open",
                block_shape=(4, 4, 4),
            ),
        ) as tiled:
            actual = tiled.run(state, 5)
        np.testing.assert_array_equal(expected, actual)


class TestSteadyState:
    def test_zero_allocations_after_warmup(self, state):
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=3,
            config=EngineConfig(backend="tiled", block_shape=BLOCK, reuse_output=True),
        ) as runner:
            arrays = _arrays(state)
            arrays["x"] = runner.step(arrays)  # warm-up fills workspaces
            assert runner.last_step_stats.allocations > 0
            for _ in range(3):
                arrays["x"] = runner.step(arrays, changed={"x"})
                stats = runner.last_step_stats
                assert stats.allocations == 0
                assert stats.reused > 0

    def test_intra_threads_require_block_shape(self):
        with pytest.raises(ValueError, match="block_shape"):
            PartitionedRunner(
                mpdata_program(), SHAPE, islands=2, config=EngineConfig(intra_threads=2)
            )

    def test_islands_are_swept_in_blocks(self, state):
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=2,
            config=EngineConfig(backend="tiled", block_shape=(4, 4, 4)),
        ) as runner:
            plans = runner.backend.plans
            runner.step(_arrays(state))
            assert sum(p.block_count for p in plans.values()) > 1


class TestRetryComposition:
    def test_failed_block_retries_whole_island(self, state):
        """One poisoned block fails its island's first attempt; the retry
        resets the island's workspaces, re-sweeps every block, and the
        step's result is still bit-identical to the flat engine."""
        with MpdataIslandSolver(SHAPE, 2, config=NATIVE) as flat:
            expected = np.array(flat.run(state, 3), copy=True)
        with MpdataIslandSolver(
            SHAPE,
            2,
            config=EngineConfig(backend="tiled", block_shape=BLOCK, max_retries=1),
        ) as solver:
            task = solver.runner.backend.plans[0].tasks[1]
            task.compiled = _FlakyCompiled(task.compiled, failures=1)
            actual = solver.run(state, 3)
            stats = solver.runner.fault_stats
        np.testing.assert_array_equal(expected, actual)
        assert stats.retries == 1
        assert stats.retry_successes == 1
        assert stats.islands_failed == 0

    def test_exhausted_retries_fail_the_step(self, state):
        from repro.runtime import IslandFailure

        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(backend="tiled", block_shape=BLOCK)
        ) as solver:
            task = solver.runner.backend.plans[1].tasks[0]
            task.compiled = _FlakyCompiled(task.compiled, failures=10)
            with pytest.raises(IslandFailure):
                solver.run(state, 1)

    def test_injected_crash_fault_with_tiled_backend(self, state):
        """The existing fault injector composes with tiled islands."""
        from repro.runtime import FaultInjector

        with MpdataIslandSolver(SHAPE, 2, config=NATIVE) as flat:
            expected = np.array(flat.run(state, 4), copy=True)
        injector = FaultInjector.from_strings(["crash@island=1,step=2"])
        with MpdataIslandSolver(
            SHAPE,
            2,
            fault_injector=injector,
            config=EngineConfig(backend="tiled", block_shape=BLOCK, max_retries=2),
        ) as solver:
            actual = solver.run(state, 4)
        np.testing.assert_array_equal(expected, actual)


class TestTimings:
    def test_tiled_step_timings(self, state):
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=3,
            config=EngineConfig(
                backend="tiled",
                block_shape=BLOCK,
                collect_timings=True,
            ),
        ) as runner:
            arrays = _arrays(state)
            runner.step(arrays)
            timings = runner.last_step_stats.timings
        assert isinstance(timings, StepTimings)
        assert len(timings.island_seconds) == 3
        assert timings.blocks_swept > 0
        assert timings.critical_path_seconds <= timings.total_compute_seconds
        assert len(timings.stage_seconds) == 17
        assert all(seconds >= 0.0 for seconds in timings.stage_seconds.values())

    def test_flat_native_step_timings(self, state):
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=2,
            config=EngineConfig(backend="native", collect_timings=True),
        ) as runner:
            arrays = _arrays(state)
            runner.step(arrays)
            timings = runner.last_step_stats.timings
        assert len(timings.island_seconds) == 2
        assert timings.blocks_swept == 0  # flat islands sweep no blocks
        assert len(timings.stage_seconds) == 17

    def test_interpreted_step_timings(self, state):
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=2,
            config=EngineConfig(collect_timings=True),
        ) as runner:
            arrays = _arrays(state)
            runner.step(arrays)
            timings = runner.last_step_stats.timings
        assert len(timings.island_seconds) == 2
        assert len(timings.stage_seconds) == 17

    def test_timings_off_by_default(self, state):
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=2,
            config=EngineConfig(backend="tiled", block_shape=BLOCK),
        ) as runner:
            arrays = _arrays(state)
            runner.step(arrays)
            assert runner.last_step_stats.timings is None

    def test_render_mentions_islands_blocks_and_stages(self, state):
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=2,
            config=EngineConfig(
                backend="tiled",
                block_shape=BLOCK,
                collect_timings=True,
            ),
        ) as runner:
            arrays = _arrays(state)
            runner.step(arrays)
            text = runner.last_step_stats.timings.render()
        assert "critical path" in text
        assert "blocks swept" in text
        assert "top stages" in text

    def test_bit_identity_unaffected_by_timing(self, state):
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(backend="tiled", block_shape=BLOCK)
        ) as plain:
            expected = np.array(plain.run(state, 3), copy=True)
        with MpdataIslandSolver(
            SHAPE,
            2,
            config=EngineConfig(
                backend="tiled",
                block_shape=BLOCK,
                collect_timings=True,
            ),
        ) as timed:
            actual = timed.run(state, 3)
        np.testing.assert_array_equal(expected, actual)


class TestMeasureTiledEngine:
    def test_smoke_report(self):
        report = measure_tiled_engine(
            shape=(12, 10, 8),
            steps=2,
            islands=2,
            block_shape=(4, 4, 4),
            intra_threads=2,
            collect_timings=True,
        )
        assert report.bit_identical
        assert set(report.modes) == {"flat", "tiled", "tiled+team"}
        for numbers in report.modes.values():
            assert numbers["step_time_s"] > 0
        assert report.modes["tiled"]["blocks"] > 0
        assert report.speedup("tiled") > 0
        assert report.timing_report
        json.dumps(report.to_dict())  # strict-JSON serializable
        assert "bit-identical" in report.render()

    def test_auto_block_shape(self):
        report = measure_tiled_engine(
            shape=(12, 10, 8), steps=1, islands=1,
            block_cache_bytes=256 * 1024,
        )
        assert report.block_shape is not None
        assert report.bit_identical


class TestAutotuneMeasuredObjective:
    def test_times_real_steps(self):
        from repro.stencil import (
            Box,
            autotune_blocks,
            measured_objective,
        )

        shape = (12, 10, 8)
        result = autotune_blocks(
            mpdata_program(),
            Box((0, 0, 0), shape),
            cache_bytes=10**9,
            score=measured_objective(shape, islands=1, steps=1),
            max_candidates=2,
        )
        assert result.evaluated == 2
        assert result.best_score > 0
        assert all(score > 0 for _, score in result.ranking)
