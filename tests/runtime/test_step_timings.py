"""Per-step timing collection in the partitioned runtime.

With ``collect_timings`` a step reports where its wall time went: the
sweep time of every island and the seconds of every stage, read from the
native entry point's per-stage clock or from the interpreter's stage
loop.  Timing is observation only: it never changes a result.
"""

import dataclasses

import numpy as np
import pytest

from repro.mpdata import mpdata_program, random_state
from repro.runtime import (
    EngineConfig,
    MpdataIslandSolver,
    PartitionedRunner,
    StepTimings,
)
from repro.stencil import native_available

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)

SHAPE = (16, 12, 8)


@pytest.fixture()
def state():
    return random_state(SHAPE, seed=21)


def _step_timings(state, islands, config):
    with PartitionedRunner(
        mpdata_program(), SHAPE, islands=islands, config=config
    ) as runner:
        runner.step(
            {
                "x": state.x, "u1": state.u1, "u2": state.u2,
                "u3": state.u3, "h": state.h,
            }
        )
        return runner.last_step_stats.timings


@needs_native
class TestNativeTimings:
    def test_native_step_timings(self, state):
        timings = _step_timings(
            state, 3, EngineConfig(backend="native", collect_timings=True)
        )
        assert isinstance(timings, StepTimings)
        assert len(timings.island_seconds) == 3
        assert timings.critical_path_seconds <= timings.total_compute_seconds
        assert len(timings.stage_seconds) == 17
        assert all(seconds > 0.0 for seconds in timings.stage_seconds.values())
        # The stage clocks run inside the island sweeps they add up to.
        assert sum(timings.stage_seconds.values()) <= (
            timings.total_compute_seconds
        )

    def test_timings_off_by_default(self, state):
        assert _step_timings(state, 2, EngineConfig(backend="native")) is None

    def test_render_mentions_islands_and_stages(self, state):
        timings = _step_timings(
            state, 2, EngineConfig(backend="native", collect_timings=True)
        )
        text = timings.render()
        assert "critical path" in text
        assert "island 1:" in text
        assert "top stages" in text

    def test_bit_identity_unaffected_by_timing(self, state):
        results = []
        for collect in (False, True):
            config = EngineConfig(backend="native", collect_timings=collect)
            with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
                results.append(np.array(solver.run(state, 3), copy=True))
        np.testing.assert_array_equal(results[0], results[1])


def test_interpreted_step_timings(state):
    timings = _step_timings(state, 2, EngineConfig(collect_timings=True))
    assert len(timings.island_seconds) == 2
    assert len(timings.stage_seconds) == 17


@needs_native
@pytest.mark.parametrize(
    "config",
    [
        EngineConfig(backend="native", halo="exchange"),
        EngineConfig(backend="procs", procs_inner="native"),
        EngineConfig(backend="procs", procs_inner="native", halo="exchange"),
    ],
    ids=["native-exchange", "procs-native", "procs-native-exchange"],
)
def test_every_stage_is_clocked(state, config):
    """The one-stage plans of exchange mode and the plans inside procs
    workers read the same per-stage clock as a whole-step native plan."""
    timings = _step_timings(
        state, 3, dataclasses.replace(config, collect_timings=True)
    )
    assert len(timings.island_seconds) == 3
    assert len(timings.stage_seconds) == 17
    assert all(seconds > 0.0 for seconds in timings.stage_seconds.values())
    assert sum(timings.stage_seconds.values()) <= timings.total_compute_seconds
