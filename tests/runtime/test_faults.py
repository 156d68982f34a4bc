"""Tests for deterministic fault injection and per-island retry.

The island is the unit of failure isolation: a crashed island task is
re-executed in place on a fresh arena without touching its neighbours,
a broken thread pool degrades to serial execution, and a step that
cannot complete is never observable as one that did.
"""

from concurrent.futures import Future

import numpy as np
import pytest

from repro.mpdata import MpdataSolver, mpdata_program, random_state
from repro.runtime import (
    EngineConfig,
    FaultInjector,
    FaultSpec,
    FaultStats,
    InjectedFault,
    IslandFailure,
    MpdataIslandSolver,
    PartitionedRunner,
    native_available,
    parse_fault_spec,
)

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


class TestFaultSpecParsing:
    def test_parse_full_spec(self):
        spec = parse_fault_spec("crash@island=1,step=3,attempts=2")
        assert (spec.kind, spec.island, spec.step, spec.attempts) == (
            "crash", 1, 3, 2,
        )

    def test_parse_defaults(self):
        spec = parse_fault_spec("slow@island=0")
        assert spec.kind == "slow"
        assert spec.step is None  # every step
        assert spec.attempts == 1  # transient

    def test_parse_corrupt_value(self):
        spec = parse_fault_spec("corrupt@island=2,value=inf")
        assert np.isinf(spec.value)
        assert np.isnan(parse_fault_spec("corrupt@island=2").value)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("explode@island=1", "unknown fault kind"),
            ("crash@step=3", "must name island"),
            ("crash@island=1,when=now", "unknown fault field"),
            ("crash@island=1,step", "malformed fault field"),
        ],
    )
    def test_parse_rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_fault_spec(text)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="nope", island=0),
            dict(kind="crash", island=-1),
            dict(kind="crash", island=0, step=-1),
            dict(kind="crash", island=0, attempts=0),
            dict(kind="slow", island=0, delay=-0.1),
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)


class TestFaultInjector:
    def test_fires_only_at_site_and_within_budget(self):
        injector = FaultInjector([FaultSpec("crash", island=1, step=2, attempts=2)])
        assert injector.fire(0, 1) == []
        assert injector.fire(2, 0) == []
        assert len(injector.fire(2, 1)) == 1  # first attempt
        assert len(injector.fire(2, 1)) == 1  # second attempt
        assert injector.fire(2, 1) == []  # budget spent
        assert injector.exhausted

    def test_wildcard_step_matches_every_step(self):
        injector = FaultInjector([FaultSpec("slow", island=0, attempts=3)])
        fired = [bool(injector.fire(step, 0)) for step in range(5)]
        assert fired == [True, True, True, False, False]

    def test_reset_restores_budget(self):
        injector = FaultInjector([FaultSpec("crash", island=0, step=0)])
        assert injector.fire(0, 0)
        assert not injector.fire(0, 0)
        injector.reset()
        assert injector.fire(0, 0)

    def test_from_strings(self):
        injector = FaultInjector.from_strings(
            ["crash@island=1,step=3", "corrupt@island=0,step=7"]
        )
        assert [spec.kind for spec in injector.specs] == ["crash", "corrupt"]

    def test_pending_at_an_exact_step(self):
        injector = FaultInjector([FaultSpec("crash", island=1, step=3)])
        assert [injector.pending(step) for step in range(5)] == [
            False, False, False, True, False,
        ]

    def test_pending_at_a_wildcard_step_until_exhausted(self):
        injector = FaultInjector([FaultSpec("slow", island=0, attempts=2)])
        assert injector.pending(0) and injector.pending(9)
        injector.fire(0, 0)
        assert injector.pending(1)
        injector.fire(1, 0)
        assert not injector.pending(2)

    def test_not_pending_once_attempts_are_spent(self):
        injector = FaultInjector(
            [FaultSpec("crash", island=2, step=4, attempts=2)]
        )
        injector.fire(4, 2)
        assert injector.pending(4)
        injector.fire(4, 2)
        assert not injector.pending(4)
        assert injector.exhausted

    def test_pending_never_counts_a_firing(self):
        injector = FaultInjector([FaultSpec("crash", island=0, step=1)])
        for _ in range(5):
            assert injector.pending(1)
        assert not injector.exhausted
        assert len(injector.fire(1, 0)) == 1
        assert not injector.pending(1)


class TestFaultStats:
    def test_absorb_and_since(self):
        total = FaultStats(retries=2, injected_crashes=1)
        total.absorb(FaultStats(retries=1, retry_successes=1))
        assert total.retries == 3
        assert total.retry_successes == 1
        delta = total.since(FaultStats(retries=2))
        assert delta.retries == 1
        assert delta.injected_crashes == 1


class TestPerIslandRetry:
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_transient_crash_retried_bit_identical(self, state, backend):
        expected = MpdataSolver(SHAPE).run(state, 3)
        injector = FaultInjector([FaultSpec("crash", island=1, step=1)])
        config = EngineConfig(backend=backend, reuse_output=True, max_retries=2)
        with MpdataIslandSolver(
            SHAPE, 3, fault_injector=injector, config=config
        ) as solver:
            actual = solver.run(state, 3)
            stats = solver.runner.fault_stats
        np.testing.assert_array_equal(actual, expected)
        assert stats.injected_crashes == 1
        assert stats.retries == 1
        assert stats.retry_successes == 1
        assert stats.islands_failed == 0

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_two_islands_faulted_same_step(self, state, backend):
        expected = MpdataSolver(SHAPE).run(state, 4)
        injector = FaultInjector([
            FaultSpec("crash", island=0, step=2),
            FaultSpec("crash", island=2, step=2),
        ])
        with MpdataIslandSolver(
            SHAPE,
            4,
            fault_injector=injector,
            config=EngineConfig(
                backend=backend, threads=4, reuse_output=True, max_retries=1
            ),
        ) as solver:
            actual = solver.run(state, 4)
        np.testing.assert_array_equal(actual, expected)
        assert solver.runner.fault_stats.retry_successes == 2

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_retry_budget_exhaustion_raises_island_failure(self, state, backend):
        injector = FaultInjector(
            [FaultSpec("crash", island=1, step=0, attempts=99)]
        )
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=3,
            fault_injector=injector,
            config=EngineConfig(backend=backend, max_retries=2),
        ) as runner:
            with pytest.raises(IslandFailure) as excinfo:
                runner.step(_arrays(state))
        assert excinfo.value.island == 1
        assert excinfo.value.attempts == 3  # 1 try + 2 retries
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert runner.fault_stats.islands_failed == 1

    def test_no_retry_by_default(self, state):
        injector = FaultInjector([FaultSpec("crash", island=0, step=0)])
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=2, fault_injector=injector,
        ) as runner:
            with pytest.raises(IslandFailure):
                runner.step(_arrays(state))


class TestSlowAndCorruptFaults:
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_slow_island_completes_and_is_counted(self, state, backend):
        expected = MpdataSolver(SHAPE).run(state, 2)
        injector = FaultInjector(
            [FaultSpec("slow", island=0, step=1, delay=0.001)]
        )
        config = EngineConfig(backend=backend, reuse_output=True)
        with MpdataIslandSolver(
            SHAPE, 2, fault_injector=injector, config=config
        ) as solver:
            actual = solver.run(state, 2)
        np.testing.assert_array_equal(actual, expected)
        assert solver.runner.fault_stats.injected_slowdowns == 1

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_corruption_poisons_output_without_guards(self, state, backend):
        injector = FaultInjector([FaultSpec("corrupt", island=1, step=0)])
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=3, fault_injector=injector,
            config=EngineConfig(backend=backend),
        ) as runner:
            out = runner.step(_arrays(state))
        assert not np.isfinite(out).all()
        assert runner.fault_stats.injected_corruptions == 1


class TestPartialFailureInvalidation:
    """Satellite: a failed step must never look like a successful one."""

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_stats_not_published_on_failure(self, state, backend):
        injector = FaultInjector([FaultSpec("crash", island=1, step=1)])
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=2,
            fault_injector=injector,
            config=EngineConfig(
                backend=backend, reuse_output=True
            ),
        ) as runner:
            arrays = _arrays(state)
            arrays["x"] = runner.step(arrays)
            assert runner.last_step_stats is not None
            with pytest.raises(IslandFailure):
                runner.step(arrays, changed={"x"})
            assert runner.last_step_stats is None

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_persistent_output_buffer_poisoned_and_dropped(self, state, backend):
        # Island 1 fails *after* island 0 already wrote its part: the
        # persistent buffer is half-new, half-old.  It must come back
        # unambiguously invalid (NaN), and the runner must not hand the
        # same buffer out again.
        injector = FaultInjector(
            [FaultSpec("crash", island=1, step=1, attempts=99)]
        )
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=2,
            fault_injector=injector,
            config=EngineConfig(
                backend=backend, reuse_output=True
            ),
        ) as runner:
            arrays = _arrays(state)
            first = runner.step(arrays)
            held = first  # caller keeps the persistent buffer
            arrays["x"] = first
            if backend == "native":
                # Native reads the bare input arrays, so the runner keeps
                # two buffers: the failed step was writing the other one,
                # while this one held its x and must survive intact.
                kept = held.copy()
                written = runner._spare
                with pytest.raises(IslandFailure):
                    runner.step(arrays, changed={"x"})
                assert np.isnan(written).all()
                assert runner._spare is None
                np.testing.assert_array_equal(held, kept)
                assert runner._out is held
                return
            with pytest.raises(IslandFailure):
                runner.step(arrays, changed={"x"})
            assert np.isnan(held).all()
            assert runner._out is None

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_failed_then_clean_step_recovers(self, state, backend):
        """After a failed step the runner still produces correct output."""
        expected_1 = MpdataSolver(SHAPE).run(state, 1)
        injector = FaultInjector([FaultSpec("crash", island=0, step=0)])
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=2,
            fault_injector=injector,
            config=EngineConfig(
                backend=backend, reuse_output=True
            ),
        ) as runner:
            arrays = _arrays(state)
            with pytest.raises(IslandFailure):
                runner.step(arrays)
            out = runner.step(arrays)  # fault was transient; now clean
            np.testing.assert_array_equal(out, expected_1)
            assert runner.last_step_stats is not None

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_fresh_output_failure_also_unpublishes_stats(self, state, backend):
        injector = FaultInjector([FaultSpec("crash", island=0, step=0)])
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=2,
            fault_injector=injector,
            config=EngineConfig(backend=backend, reuse_output=False),
        ) as runner:
            with pytest.raises(IslandFailure):
                runner.step(_arrays(state))
            assert runner.last_step_stats is None


class BrokenPool:
    def submit(self, *args, **kwargs):
        raise RuntimeError("cannot schedule new futures")

    def shutdown(self, wait=True):
        pass


class HalfBrokenPool:
    """Runs the first submitted task to completion, then breaks."""

    def __init__(self):
        self.calls = 0

    def submit(self, fn, *args):
        self.calls += 1
        if self.calls > 1:
            raise RuntimeError("pool broke mid-submit")
        future = Future()
        future.set_result(fn(*args))  # the first task already ran
        return future

    def shutdown(self, wait=True):
        pass


class TestGracefulDegradation:
    def test_broken_pool_degrades_to_serial(self, state):
        expected = MpdataSolver(SHAPE).run(state, 2)

        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=3,
            config=EngineConfig(threads=3, reuse_output=True),
        ) as runner:
            runner._pool = BrokenPool()
            arrays = _arrays(state)
            arrays["x"] = runner.step(arrays)
            assert runner.degraded
            arrays["x"] = runner.step(arrays, changed={"x"})
            np.testing.assert_array_equal(arrays["x"], expected)
        assert runner.fault_stats.degraded_steps == 2

    def test_pool_breaking_mid_submit_degrades_cleanly(self, state):
        """Some islands were already submitted when the pool broke; the
        serial fallback must not race them and still yields exact output."""
        expected = MpdataSolver(SHAPE).run(state, 1)

        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=3,
            config=EngineConfig(threads=3, reuse_output=True),
        ) as runner:
            runner._pool = HalfBrokenPool()
            out = runner.step(_arrays(state))
            assert runner.degraded
            np.testing.assert_array_equal(out, expected)

    def test_broken_pool_degrades_to_serial_under_exchange(self, state):
        """Every stage sync fans out: the first one finds the pool broken,
        and the rest of the run stays serial and bit-identical."""
        expected = MpdataSolver(SHAPE).run(state, 2)
        config = EngineConfig(halo="exchange", threads=3, reuse_output=True)
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=3, config=config
        ) as runner:
            runner._pool = BrokenPool()
            arrays = _arrays(state)
            arrays["x"] = runner.step(arrays)
            assert runner.degraded
            arrays["x"] = runner.step(arrays, changed={"x"})
            np.testing.assert_array_equal(arrays["x"], expected)
        assert runner.fault_stats.degraded_steps == 2

    def test_pool_breaking_mid_stage_sync_degrades_cleanly(self, state):
        """The first team member ran its stage before the pool broke at
        the second submit; the serial rerun of that stage and every later
        one stays bit-identical."""
        expected = MpdataSolver(SHAPE).run(state, 1)
        config = EngineConfig(halo="exchange", threads=3, reuse_output=True)
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=3, config=config
        ) as runner:
            pool = runner._pool = HalfBrokenPool()
            out = runner.step(_arrays(state))
            assert runner.degraded
            assert pool.calls == 2
            np.testing.assert_array_equal(out, expected)

    def test_failing_island_under_exchange_collects_every_outcome(self, state):
        """A stage task that fails on one island does not stop the team:
        every other island still runs that stage, and the step fails."""
        config = EngineConfig(
            halo="exchange", threads=2,
            fault_specs=("crash@island=0,step=0,attempts=5",),
        )
        ran = []
        with PartitionedRunner(
            mpdata_program(), SHAPE, islands=3, config=config
        ) as runner:
            run_stage = runner.resilience.run_island_stage

            def recording(island, *args, **kwargs):
                ran.append(island.index)
                return run_stage(island, *args, **kwargs)

            runner.resilience.run_island_stage = recording
            with pytest.raises(IslandFailure):
                runner.step(_arrays(state))
            assert runner.last_step_stats is None
        assert sorted(ran) == [0, 1, 2]

    def test_closed_runner_still_raises_not_degrades(self, state):
        runner = PartitionedRunner(
            mpdata_program(), SHAPE, islands=2, config=EngineConfig(threads=2)
        )
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            runner.step(_arrays(state))
        assert not runner.degraded


class TestSteadyStateWithFaultMachinery:
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_zero_allocations_with_injector_and_retry_armed(self, state, backend):
        """The fault-tolerance machinery is free when nothing fails."""
        injector = FaultInjector([])  # armed, never fires
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=3,
            fault_injector=injector,
            config=EngineConfig(
                backend=backend, reuse_output=True,
                max_retries=2,
            ),
        ) as runner:
            arrays = _arrays(state)
            arrays["x"] = runner.step(arrays)  # warm-up
            for _ in range(3):
                arrays["x"] = runner.step(arrays, changed={"x"})
                assert runner.last_step_stats.allocations == 0
        assert runner.fault_stats == FaultStats()

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_retry_after_warmup_keeps_later_steps_allocation_free(
        self, state, backend
    ):
        """A retried step pays for its fresh arena; the next steps do not."""
        injector = FaultInjector([FaultSpec("crash", island=1, step=2)])
        with PartitionedRunner(
            mpdata_program(),
            SHAPE,
            islands=3,
            fault_injector=injector,
            config=EngineConfig(
                backend=backend, reuse_output=True,
                max_retries=2,
            ),
        ) as runner:
            arrays = _arrays(state)
            arrays["x"] = runner.step(arrays)
            for index in range(1, 5):
                arrays["x"] = runner.step(arrays, changed={"x"})
            # Steps after the faulted one are allocation-free again.
            assert runner.last_step_stats.allocations == 0
