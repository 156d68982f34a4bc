"""Tests for numerical guards and checkpointed rollback-and-replay.

The acceptance bar: a fault-riddled run must finish with output
bit-identical to the fault-free run, and an interrupted run must resume
from its last checkpoint to the same final bits.
"""

import numpy as np
import pytest

from repro.mpdata import MpdataSolver, load_checkpoint, random_state
from repro.runtime import (
    EngineConfig,
    FaultInjector,
    FaultSpec,
    MpdataIslandSolver,
    NumericalHealthError,
    RecoveryPolicy,
    UnrecoverableRunError,
    check_step_health,
    field_mass,
    native_available,
    run_with_recovery,
)

SHAPE = (16, 12, 8)
REUSE_OUTPUT = EngineConfig(reuse_output=True)

#: Kernel backends under test: the reference and the native fast path,
#: which writes each island's part straight into the output buffer.
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


class TestCheckStepHealth:
    def test_clean_field_passes(self):
        assert check_step_health(np.ones((4, 4))) is None

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_detected(self, poison):
        x = np.ones((4, 4))
        x[2, 1] = poison
        assert check_step_health(x) == "non-finite value in field"

    def test_finite_check_can_be_disabled(self):
        x = np.full((4, 4), np.nan)
        assert check_step_health(x, check_finite=False) is None

    def test_mass_drift_guard(self):
        x = np.ones((4, 4))
        h = np.ones((4, 4))
        assert (
            check_step_health(x, h=h, initial_mass=16.0, mass_drift_limit=1e-9)
            is None
        )
        reason = check_step_health(
            x, h=h, initial_mass=15.0, mass_drift_limit=1e-9
        )
        assert reason is not None and "mass drift" in reason

    def test_mass_guard_requires_h_and_initial_mass(self):
        with pytest.raises(ValueError, match="requires"):
            check_step_health(np.ones(3), mass_drift_limit=1e-9)

    @pytest.mark.parametrize("shape", [(4, 5), (4, 5, 3)])
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("limit", [None, 1e-9])
    def test_one_pass_guard_finds_every_non_finite_value(
        self, shape, poison, limit
    ):
        """The guard sums the field once and scans it only when the sum
        is not finite; every poison value, with or without a mass limit,
        still trips it with the same message."""
        h = np.full(shape, 0.5)
        h.flat[-1] = 0.0  # 0 * inf is nan: a zero weight hides nothing
        for index in (0, h.size // 2, h.size - 1):
            x = np.ones(shape)
            x.flat[index] = poison
            x.flat[1] = -poison  # inf - inf is nan: no cancelling either
            assert check_step_health(
                x, h=h, initial_mass=float((h * np.ones(shape)).sum()),
                mass_drift_limit=limit,
            ) == "non-finite value in field"

    def test_mass_limit_without_the_finite_check(self):
        x = np.ones((4, 5, 3))
        h = np.ones((4, 5, 3))
        kwargs = dict(h=h, check_finite=False, mass_drift_limit=1e-9)
        assert check_step_health(x, initial_mass=60.0, **kwargs) is None
        reason = check_step_health(x, initial_mass=59.0, **kwargs)
        assert reason == "mass drift 1.000000e+00 exceeds limit 1.000000e-09"
        x[1, 2, 0] = np.nan  # unchecked: a nan drift trips nothing
        assert check_step_health(x, initial_mass=60.0, **kwargs) is None

    def test_overflowing_mass_of_a_finite_field_reports_drift(self):
        """Every value finite, the sum not: the exact scan clears the
        field, and the mass drift is what trips."""
        x = np.full((2, 3, 2), 1e308)
        h = np.full((2, 3, 2), 4.0)
        assert check_step_health(x) is None
        reason = check_step_health(
            x, h=h, initial_mass=1.0, mass_drift_limit=1e-9
        )
        assert reason == "mass drift inf exceeds limit 1.000000e-09"

    @pytest.mark.parametrize("limit", [None, 1e-9])
    def test_a_finite_given_mass_reads_nothing(self, limit):
        """Workers that wrote the parts report the mass: the guard takes
        it and does not touch the field at all."""
        assert check_step_health(
            None, h=None if limit is None else np.ones(3),
            initial_mass=4.0, mass_drift_limit=limit, mass=4.0,
        ) is None

    @pytest.mark.parametrize("limit", [None, 1e-9])
    def test_a_non_finite_given_mass_runs_the_exact_scan(self, limit):
        x = np.ones((4, 5, 3))
        h = np.ones((4, 5, 3))
        kwargs = dict(h=h, initial_mass=60.0, mass_drift_limit=limit)
        # A finite field passes the scan (its given mass only overflowed).
        reason = check_step_health(x, mass=np.inf, **kwargs)
        assert reason == (None if limit is None else
                          "mass drift inf exceeds limit 1.000000e-09")
        x[3, 0, 2] = np.nan
        assert check_step_health(x, mass=np.nan, **kwargs) == (
            "non-finite value in field"
        )

    def test_drift_is_measured_on_the_given_mass(self):
        x = np.ones((4, 5, 3))
        kwargs = dict(h=np.ones((4, 5, 3)), initial_mass=60.0,
                      mass_drift_limit=1e-9)
        assert check_step_health(x, mass=60.0, **kwargs) is None
        reason = check_step_health(x, mass=61.0, **kwargs)
        assert reason == "mass drift 1.000000e+00 exceeds limit 1.000000e-09"

    def test_field_mass_matches_the_elementwise_sum(self):
        rng = np.random.default_rng(3)
        x, h = rng.random((6, 5, 4)), rng.random((6, 5, 4))
        assert field_mass(x, h) == pytest.approx(float((h * x).sum()), rel=1e-14)
        assert field_mass(x[:, ::2], h[:, ::2]) == pytest.approx(
            float((h[:, ::2] * x[:, ::2]).sum()), rel=1e-14
        )


class TestRecoveryPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(checkpoint_every=0),
            dict(keep_last=-1),
            dict(max_rollbacks=-1),
            dict(mass_drift_limit=0.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs)


class TestRollbackAndReplay:
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_corruption_rolled_back_bit_identical(self, state, backend):
        expected = MpdataSolver(SHAPE).run(state, 8)
        injector = FaultInjector([FaultSpec("corrupt", island=1, step=5)])
        config = EngineConfig(backend=backend, reuse_output=True)
        with MpdataIslandSolver(
            SHAPE, 3, fault_injector=injector, config=config
        ) as solver:
            actual = solver.run(
                state, 8, recovery=RecoveryPolicy(checkpoint_every=3)
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, expected)
        assert report.guard_trips == 1
        assert report.rollbacks == 1
        # Corrupted at step 5 (0-based), last checkpoint after step 3:
        # steps 3..5 are replayed.
        assert report.replayed_steps == 2
        assert report.completed_steps == 8

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_exhausted_island_rolled_back(self, state, backend):
        """A fault outliving the retry budget is caught one level up."""
        expected = MpdataSolver(SHAPE).run(state, 6)
        injector = FaultInjector(
            [FaultSpec("crash", island=0, step=4, attempts=2)]
        )
        with MpdataIslandSolver(
            SHAPE,
            2,
            fault_injector=injector,
            config=EngineConfig(
                backend=backend, reuse_output=True, max_retries=1
            ),
        ) as solver:
            actual = solver.run(
                state, 6, recovery=RecoveryPolicy(checkpoint_every=2)
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, expected)
        assert report.fault_stats.islands_failed == 1
        assert report.rollbacks == 1

    def test_killed_worker_is_respawned_for_the_replay(self, state):
        """A kill with no retry budget exhausts the island at once; the
        worker is still respawned, so the rollback's replay completes."""
        expected = MpdataSolver(SHAPE).run(state, 6)
        config = EngineConfig(
            backend="procs", workers=2, max_retries=0,
            fault_specs=("kill@island=1,step=3",),
        )
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            actual = np.array(
                solver.run(
                    state, 6,
                    recovery=RecoveryPolicy(checkpoint_every=2, max_rollbacks=3),
                ),
                copy=True,
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, expected)
        assert report.rollbacks == 1
        assert report.fault_stats.injected_kills == 1
        assert report.fault_stats.islands_failed == 1

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_mass_drift_guard_trips_and_recovers(self, state, backend):
        # An injected finite-but-wrong value slips past the NaN check;
        # the mass guard catches it.
        expected = MpdataSolver(SHAPE).run(state, 5)
        injector = FaultInjector(
            [FaultSpec("corrupt", island=0, step=2, value=1e9)]
        )
        config = EngineConfig(backend=backend, reuse_output=True)
        with MpdataIslandSolver(
            SHAPE, 2, fault_injector=injector, config=config
        ) as solver:
            actual = solver.run(
                state,
                5,
                recovery=RecoveryPolicy(
                    checkpoint_every=2, mass_drift_limit=1.0
                ),
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, expected)
        assert report.guard_trips == 1

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_rollback_budget_exhaustion_raises(self, state, backend):
        injector = FaultInjector(
            [FaultSpec("crash", island=0, step=3, attempts=999)]
        )
        with MpdataIslandSolver(
            SHAPE,
            2,
            fault_injector=injector,
            config=EngineConfig(
                backend=backend, reuse_output=True, max_retries=1
            ),
        ) as solver:
            with pytest.raises(UnrecoverableRunError) as excinfo:
                solver.run(
                    state,
                    6,
                    recovery=RecoveryPolicy(
                        checkpoint_every=2, max_rollbacks=2
                    ),
                )
            report = solver.last_recovery_report
        assert excinfo.value.failed_step == 3
        assert excinfo.value.checkpoint_step == 2
        assert report.rollbacks == 2
        assert report.completed_steps == 2  # the last good step

    def test_clean_run_reports_clean(self, state):
        with MpdataIslandSolver(SHAPE, 2, config=REUSE_OUTPUT) as solver:
            expected = MpdataSolver(SHAPE).run(state, 4)
            actual = solver.run(
                state, 4, recovery=RecoveryPolicy(checkpoint_every=2)
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, expected)
        assert report.clean
        assert "clean run" in report.render()

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_clean_run_with_guards_stays_allocation_free(self, state, backend):
        """Guards and checkpoints never touch the runner's zero-alloc path."""
        config = EngineConfig(backend=backend, reuse_output=True, max_retries=2)
        with MpdataIslandSolver(SHAPE, 3, config=config) as solver:
            solver.run(
                state, 5, recovery=RecoveryPolicy(checkpoint_every=2)
            )
            assert solver.last_step_stats.allocations == 0


class TestAcceptance50Steps:
    def test_faults_in_two_islands_per_step_bit_identical(self, state):
        """ISSUE acceptance: faults in <= 2 islands per step, 50 steps,
        final output bit-identical to the fault-free run."""
        steps = 50
        with MpdataIslandSolver(SHAPE, 4, config=REUSE_OUTPUT) as clean:
            expected = np.array(clean.run(state, steps), copy=True)

        specs = []
        for step in range(0, steps, 5):  # two faulted islands every 5 steps
            specs.append(FaultSpec("crash", island=step % 4, step=step))
            specs.append(
                FaultSpec("corrupt", island=(step + 2) % 4, step=step)
            )
        injector = FaultInjector(specs)
        with MpdataIslandSolver(
            SHAPE,
            4,
            fault_injector=injector,
            config=EngineConfig(reuse_output=True, max_retries=2),
        ) as solver:
            actual = solver.run(
                state,
                steps,
                recovery=RecoveryPolicy(
                    checkpoint_every=5, max_rollbacks=steps
                ),
            )
            report = solver.last_recovery_report
        np.testing.assert_array_equal(actual, expected)
        assert report.completed_steps == steps
        assert report.fault_stats.injected_crashes == 10
        assert report.fault_stats.injected_corruptions == 10
        assert report.fault_stats.retry_successes == 10
        assert report.guard_trips == 10


class TestCheckpointedCrashResume:
    """Satellite: kill a run mid-flight, resume from the last checkpoint,
    and land on bit-identical final state versus an unbroken run."""

    def test_resume_after_crash_is_bit_identical(self, state, tmp_path):
        steps = 20
        with MpdataIslandSolver(SHAPE, 3, config=REUSE_OUTPUT) as clean:
            unbroken = np.array(clean.run(state, steps), copy=True)

        # A persistent fault at step 13 kills the run (no retries, no
        # rollbacks): the process "dies" mid-flight.
        injector = FaultInjector(
            [FaultSpec("crash", island=1, step=13, attempts=999)]
        )
        with MpdataIslandSolver(
            SHAPE, 3, fault_injector=injector, config=REUSE_OUTPUT
        ) as doomed:
            with pytest.raises(UnrecoverableRunError) as excinfo:
                doomed.run(
                    state,
                    steps,
                    recovery=RecoveryPolicy(
                        checkpoint_every=4,
                        checkpoint_dir=tmp_path,
                        max_rollbacks=0,
                    ),
                )
        assert excinfo.value.checkpoint_step == 12
        checkpoint = load_checkpoint(excinfo.value.checkpoint_path)
        assert checkpoint.step == 12

        # A fresh solver (fresh process, conceptually) resumes from disk.
        with MpdataIslandSolver(SHAPE, 3, config=REUSE_OUTPUT) as resumed:
            final = resumed.run(checkpoint.state, steps - checkpoint.step)
        np.testing.assert_array_equal(final, unbroken)

    def test_disk_checkpoints_pruned_to_keep_last(self, state, tmp_path):
        with MpdataIslandSolver(SHAPE, 2, config=REUSE_OUTPUT) as solver:
            solver.run(
                state,
                12,
                recovery=RecoveryPolicy(
                    checkpoint_every=2,
                    checkpoint_dir=tmp_path,
                    keep_last=2,
                ),
            )
            report = solver.last_recovery_report
        remaining = sorted(p.name for p in tmp_path.glob("*.npz"))
        assert len(remaining) == 2
        assert report.checkpoints_written == 6  # 0, 2, 4, 6, 8, 10
        assert report.last_checkpoint_path.name in remaining

    def test_checkpoint_written_at_every_interval(self, state, tmp_path):
        """The initial state and every multiple of checkpoint_every
        before the final step is checkpointed; the final step is not."""
        with MpdataIslandSolver(SHAPE, 2, config=REUSE_OUTPUT) as solver:
            solver.run(
                state,
                10,
                recovery=RecoveryPolicy(
                    checkpoint_every=3, checkpoint_dir=tmp_path
                ),
            )
            report = solver.last_recovery_report
        steps = sorted(
            int(path.name.split("-")[1].split(".")[0])
            for path in tmp_path.iterdir()
        )
        assert steps == [0, 3, 6, 9]
        assert report.checkpoints_written == 4
        assert report.last_checkpoint_step == 9


class TestRunWithRecoveryDirect:
    def test_rejects_negative_steps(self, state):
        with MpdataIslandSolver(SHAPE, 2) as solver:
            with pytest.raises(ValueError, match="non-negative"):
                run_with_recovery(solver, state, -1, RecoveryPolicy())

    def test_zero_steps_returns_initial_field(self, state):
        with MpdataIslandSolver(SHAPE, 2) as solver:
            final, report = run_with_recovery(
                solver, state, 0, RecoveryPolicy()
            )
        np.testing.assert_array_equal(final, state.x)
        assert report.completed_steps == 0
        assert report.clean

    def test_guard_trip_without_rollback_budget(self, state):
        injector = FaultInjector([FaultSpec("corrupt", island=0, step=1)])
        with MpdataIslandSolver(
            SHAPE, 2, fault_injector=injector, config=REUSE_OUTPUT
        ) as solver:
            with pytest.raises(UnrecoverableRunError) as excinfo:
                solver.run(
                    state,
                    4,
                    recovery=RecoveryPolicy(max_rollbacks=0),
                )
        assert isinstance(excinfo.value.__cause__, NumericalHealthError)


class TestRollbackRefillsOnlyX:
    """A rollback restores ``x`` alone, so the replayed step ghost-fills
    ``x`` and no static input: their buffers live in the runner (in
    shared memory under procs), which no retry or respawn touches."""

    SHAPE = (32, 16, 8)
    STEPS = 10
    FAULT = "corrupt@island=1,step=7"

    def _extensions(self, monkeypatch, state):
        """Count ghost fills per input name (``extend_array`` and
        ``extend_array_into`` alike)."""
        from repro.runtime import island_exec

        names = {
            id(state.x): "x", id(state.u1): "u1", id(state.u2): "u2",
            id(state.u3): "u3", id(state.h): "h",
        }
        counts = {}

        def counting(target):
            def wrapper(array, *args, **kwargs):
                name = names.get(id(array), "x")
                counts[name] = counts.get(name, 0) + 1
                return target(array, *args, **kwargs)

            return wrapper

        for function in ("extend_array", "extend_array_into"):
            monkeypatch.setattr(
                island_exec, function,
                counting(getattr(island_exec, function)),
            )
        return counts

    def _run(self, state, config):
        with MpdataIslandSolver(self.SHAPE, 4, config=config) as solver:
            final = np.array(
                solver.run(
                    state, self.STEPS,
                    recovery=RecoveryPolicy(checkpoint_every=5),
                ),
                copy=True,
            )
            return final, solver.last_recovery_report

    @pytest.mark.skipif(
        not native_available(), reason="needs cffi and a system C compiler"
    )
    def test_procs_native_fills_the_static_inputs_once(
        self, monkeypatch, state
    ):
        state = random_state(self.SHAPE, seed=2017)
        expected = MpdataSolver(self.SHAPE).run(state, self.STEPS)
        counts = self._extensions(monkeypatch, state)
        config = EngineConfig(
            backend="procs", procs_inner="native", workers=2,
            fault_specs=(self.FAULT,),
        )
        final, report = self._run(state, config)
        assert report.rollbacks == 1
        # x is gathered by the workers; the static inputs are filled on
        # step 0 only, not again after the rollback.
        assert counts == {"u1": 1, "u2": 1, "u3": 1, "h": 1}
        assert sum(counts.values()) == 4
        np.testing.assert_array_equal(final, expected)

    def test_interpreter_exchange_fills_the_static_inputs_once(
        self, monkeypatch, state
    ):
        state = random_state(self.SHAPE, seed=2017)
        expected = MpdataSolver(self.SHAPE).run(state, self.STEPS)
        counts = self._extensions(monkeypatch, state)
        config = EngineConfig(halo="exchange", fault_specs=(self.FAULT,))
        final, report = self._run(state, config)
        assert report.rollbacks == 1
        assert {name: counts[name] for name in ("u1", "u2", "u3", "h")} == {
            "u1": 1, "u2": 1, "u3": 1, "h": 1,
        }
        # x: once per step call, so every step, the replayed ones and the
        # step whose guard tripped.
        assert counts["x"] == (
            self.STEPS + report.replayed_steps + report.rollbacks
        )
        np.testing.assert_array_equal(final, expected)
