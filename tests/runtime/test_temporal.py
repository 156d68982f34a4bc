"""Tests for temporal blocking: ``--sync-every s`` deep-halo super-steps.

The acceptance bar is the same bit-identity that anchors the rest of the
reproduction: a trajectory advanced in super-steps of ``s`` — deeper
ghosts, one synchronization per ``s`` time steps — must equal the
per-step-sync trajectory to the last bit, for every backend and halo
policy, including partial super-steps when ``s`` does not divide the
step count.  On top sit the supporting contracts: config and grid
validation, the per-step-normalized adaptive deadline, super-steps as
the recovery replay unit, the run-level sync ledger in telemetry, and
the measured ``sync_every`` autotuner.
"""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.mpdata import random_state
from repro.mpdata.stages import FIELD_X
from repro.runtime import (
    EngineConfig,
    FaultInjector,
    FaultSpec,
    InMemorySink,
    MpdataIslandSolver,
    RecoveryPolicy,
    TableSink,
    Telemetry,
    native_available,
)
from repro.runtime.procs import DeadlineClock
from repro.stencil import tune_sync_every

SHAPE = (16, 16, 16)  # every axis >= 12: the s=4 composed halo fits
STEPS = 50  # not divisible by 4: s=4 ends on a partial super-step

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)


def _config(backend, halo, sync_every, **kwargs):
    if halo == "hybrid":
        kwargs.setdefault("halo_threshold", 64)
    if backend == "tiled":
        kwargs.setdefault("block_shape", (8, 8, 8))
    if backend == "procs-native":  # procs workers running native kernels
        backend = "procs"
        kwargs.setdefault("procs_inner", "native")
    return EngineConfig(
        backend=backend, halo=halo, sync_every=sync_every, **kwargs
    )


def _trajectory(config, steps=STEPS, islands=2, telemetry=None, seed=7):
    state = random_state(SHAPE, seed=seed)
    with MpdataIslandSolver(
        SHAPE, islands, config=config, telemetry=telemetry
    ) as solver:
        final = np.array(solver.run(state, steps), copy=True)
    return final


@pytest.fixture(scope="module")
def reference():
    return _trajectory(EngineConfig())


class TestBitIdentityMatrix:
    """ISSUE acceptance: 50-step trajectories bit-identical for every
    s in {1, 2, 4} x {recompute, exchange, hybrid} x every backend."""

    @pytest.mark.parametrize("backend", [
        "interpreter",
        pytest.param("tiled", marks=needs_native),
        "procs",
        pytest.param("procs-native", marks=needs_native),
        pytest.param("native", marks=needs_native),
    ])
    @pytest.mark.parametrize("halo", ["recompute", "exchange", "hybrid"])
    @pytest.mark.parametrize("sync_every", [1, 2, 4])
    def test_super_steps_match_per_step_sync(
        self, reference, backend, halo, sync_every
    ):
        final = _trajectory(_config(backend, halo, sync_every))
        np.testing.assert_array_equal(final, reference)


@needs_native
class TestPartialSuperSteps:
    def test_remainder_of_one_runs_through_super_path(self, reference):
        """5 steps at s=4 is one full super-step plus a remainder of 1;
        the super-prepared backend has no per-step state, so even that
        single step must run the composed path — and stay bit-exact."""
        expected = _trajectory(EngineConfig(backend="native"), steps=5)
        actual = _trajectory(_config("native", "recompute", 4), steps=5)
        np.testing.assert_array_equal(actual, expected)

    def test_step_count_within_super_step_is_validated(self):
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(
            SHAPE, 2, config=_config("native", "recompute", 2)
        ) as solver:
            arrays = solver._arrays(state)
            arrays[FIELD_X] = np.asarray(
                state.x, dtype=solver.runner.dtype
            )
            with pytest.raises(ValueError, match="steps"):
                solver.runner.step(arrays, steps=3)
            with pytest.raises(ValueError, match="steps"):
                solver.runner.step(arrays, steps=0)


class TestValidation:
    def test_sync_every_must_be_positive(self):
        with pytest.raises(ValueError, match="sync_every"):
            EngineConfig(sync_every=0)

    def test_open_boundary_rejected(self):
        """Open boundaries clamp the composed halo at the domain edge,
        which is not expressible with the rectangular ghost frame yet."""
        with pytest.raises(ValueError, match="periodic"):
            EngineConfig(sync_every=2, boundary="open")

    def test_grid_smaller_than_composed_halo_rejected(self):
        # s=4 composes MPDATA's depth-3 halo to 12; axis 2 has 8 cells.
        with pytest.raises(ValueError, match="sync-every"):
            MpdataIslandSolver(
                (16, 16, 8), 2, config=EngineConfig(sync_every=4)
            )

    def test_round_trips_through_json(self):
        config = EngineConfig(sync_every=4)
        assert EngineConfig.from_dict(config.to_dict()).sync_every == 4


class TestDeadlineClockPerStepNormalization:
    def test_observe_normalizes_by_steps(self):
        clock = DeadlineClock(None, 4.0, floor=0.0)
        clock.observe(8.0, steps=4)
        assert clock.ewma == pytest.approx(2.0)

    def test_current_scales_with_steps(self):
        clock = DeadlineClock(None, 4.0, floor=0.0)
        clock.observe(2.0)
        assert clock.current(steps=4) == pytest.approx(32.0)
        explicit = DeadlineClock(2.5, None)
        assert explicit.current(steps=4) == pytest.approx(10.0)

    def test_warmup_grace_is_not_scaled(self):
        """A fresh worker's grace covers state rebuild, which happens
        once regardless of s — scaling it by s would let a wedge inside
        a long super-step hide behind an s-times-longer deadline."""
        clock = DeadlineClock(None, 8.0, warmup=60.0)
        assert clock.current(steps=8) == 60.0
        clock.observe(0.5, steps=1)
        assert clock.current(fresh=True, steps=8) == 60.0

    def test_mixed_super_step_depths_share_one_per_step_ewma(self):
        clock = DeadlineClock(None, 1.0, floor=0.0)
        clock.observe(4.0, steps=4)  # 1.0 per step
        clock.observe(3.0, steps=1)  # ewma = 1 + 0.25 * 2 = 1.5
        assert clock.ewma == pytest.approx(1.5)


@needs_native
class TestRecoveryWithSuperSteps:
    def test_rollback_replays_super_steps_bit_identical(self, reference):
        """The super-step is the replay unit: a corruption detected at a
        super-step boundary rolls back to the checkpoint and replays in
        strides of s, landing on the fault-free bits."""
        # Step 4 is a super-step base index at s=2 (bases 0,2,4,...).
        injector = FaultInjector([FaultSpec("corrupt", island=1, step=4)])
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(
            SHAPE,
            2,
            config=_config("native", "recompute", 2),
            fault_injector=injector,
        ) as solver:
            actual = solver.run(
                state, STEPS, recovery=RecoveryPolicy(checkpoint_every=3)
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, reference)
        assert report.rollbacks == 1
        assert report.completed_steps == STEPS

    def test_checkpoints_written_when_super_step_crosses_interval(
        self, tmp_path
    ):
        """checkpoint_every=3 never coincides with an s=2 super-step
        boundary except at multiples of 6; crossing still checkpoints."""
        state = random_state(SHAPE, seed=7)
        policy = RecoveryPolicy(
            checkpoint_every=3, checkpoint_dir=tmp_path
        )
        with MpdataIslandSolver(
            SHAPE, 2, config=_config("native", "recompute", 2)
        ) as solver:
            solver.run(state, 10, recovery=policy)
            report = solver.last_recovery_report
        # Initial state plus every crossing before the final step:
        # super-step ends at 4 (crosses 3), 6 (crosses 6), 10 (final,
        # not checkpointed) -> steps 0, 4, 6, plus the crossing at 8>...
        steps = sorted(
            int(p.name.split("-")[1].split(".")[0])
            for p in tmp_path.iterdir()
        )
        assert steps[0] == 0
        assert 4 in steps  # the 2..4 super-step crossed checkpoint 3
        assert report.checkpoints_written == len(steps)


@needs_native
class TestRunLevelSyncLedger:
    def test_steps_advanced_and_syncs_per_step(self):
        sink = InMemorySink()
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(
            SHAPE,
            2,
            config=_config("native", "recompute", 2),
            telemetry=Telemetry([sink]),
        ) as solver:
            solver.run(state, 6)
            runner = solver.runner
            assert runner.total_steps_advanced == 6
            assert runner.total_syncs == 3  # one barrier per super-step
            assert runner.syncs_per_step == pytest.approx(0.5)
        assert [e.stats.steps_advanced for e in sink.events] == [2, 2, 2]
        assert all(
            e.stats.syncs_per_step == pytest.approx(0.5)
            for e in sink.events
        )
        assert all(
            e.stats.to_dict()["steps_advanced"] == 2 for e in sink.events
        )

    def test_table_sink_totals_and_summary(self):
        sink = TableSink()
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(
            SHAPE,
            2,
            config=_config("native", "recompute", 2),
            telemetry=Telemetry([sink]),
        ) as solver:
            solver.run(state, 6)
        assert sink.total_steps == 6
        assert sink.total_syncs == 3
        assert sink.summary() == "total: 6 steps, 3 syncs (0.500 syncs/step)"
        assert sink.summary() in sink.render()

    def test_steady_state_super_steps_do_not_allocate(self):
        """ISSUE acceptance: 0 steady-state allocations per step in the
        parent, with the deeper ghost frames and composed plans."""
        sink = InMemorySink()
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(
            SHAPE,
            2,
            config=_config("native", "recompute", 2, reuse_output=True),
            telemetry=Telemetry([sink]),
        ) as solver:
            solver.run(state, 8)
        assert all(e.stats.allocations == 0 for e in sink.events[1:])


class TestSyncEveryAutotuner:
    @needs_native
    def test_measured_sweep_picks_a_runnable_depth(self):
        result = tune_sync_every(
            SHAPE,
            islands=2,
            candidates=(1, 2, 8),  # s=8 needs 24-cell axes: skipped
            steps=2,
            backend="native",
        )
        assert result.skipped == (8,)
        assert result.best in (1, 2)
        assert len(result.ranking) == 2
        assert result.best_seconds_per_step > 0
        assert result.speedup_over_unblocked >= 1.0

    def test_no_runnable_candidate_raises(self):
        with pytest.raises(ValueError, match="fits grid"):
            tune_sync_every(SHAPE, islands=2, candidates=(16,), steps=1)


class TestCli:
    def test_engine_flags_parse_and_reach_the_config(self):
        args = build_parser().parse_args(
            ["engine", "--sync-every", "2", "--telemetry-table"]
        )
        assert args.sync_every == 2
        assert args.telemetry_table
        assert EngineConfig.from_cli_args(args).sync_every == 2

    def test_sync_every_defaults_to_per_step(self):
        args = build_parser().parse_args(["engine"])
        assert args.sync_every == 1
        assert not args.telemetry_table
