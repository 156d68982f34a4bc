"""The stage-granular halo-exchange execution path.

The acceptance bar for the pluggable halo layer: every backend, under
every policy, reproduces the recompute trajectory bit-for-bit over long
runs; the steady-state engine still allocates nothing per step; the
telemetry counters match the ledger's analytic accounting; and a failed
stage is retried in place without corrupting already-received halos.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Variant, build_halo_ledger, partition_grid_2d
from repro.mpdata import mpdata_program, random_state
from repro.mpdata.stages import FIELD_X
from repro.runtime import (
    EngineConfig,
    InMemorySink,
    MpdataIslandSolver,
    RecoveryPolicy,
    Telemetry,
)
from repro.stencil import Box, full_box, native_available
from repro.stencil import native as native_module

SHAPE = (20, 14, 8)
ISLANDS = 3

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)
#: The reference kernels plus the backend that runs native kernels.
KERNEL_BACKENDS = (
    "interpreter",
    pytest.param("native", marks=needs_native),
)


def _run(config, steps, shape=SHAPE, islands=ISLANDS, sink=None, **kwargs):
    state = random_state(shape, seed=2017)
    telemetry = Telemetry([sink]) if sink is not None else None
    with MpdataIslandSolver(
        shape, islands, config=config, telemetry=telemetry, **kwargs
    ) as solver:
        return np.array(solver.run(state, steps), copy=True)


@pytest.fixture(scope="module")
def reference_50():
    """Fault-free recompute interpreter trajectory, 50 steps."""
    return _run(EngineConfig(), steps=50)


class TestBitIdentity:
    """Acceptance: 50-step trajectories agree across every backend and
    policy — exchanged halos carry exactly the recomputed values."""

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    @pytest.mark.parametrize(
        "halo,threshold",
        [("recompute", None), ("exchange", None), ("hybrid", 600)],
    )
    def test_backend_policy_matrix(self, reference_50, backend, halo, threshold):
        config = EngineConfig(
            backend=backend,
            halo=halo,
            halo_threshold=threshold,
        )
        np.testing.assert_array_equal(_run(config, steps=50), reference_50)

    def test_threaded_exchange_matches_serial(self, reference_50):
        config = EngineConfig(halo="exchange", threads=3)
        np.testing.assert_array_equal(_run(config, steps=50), reference_50)

    def test_2d_grid_exchange_matches_whole_domain(self):
        state = random_state(SHAPE, seed=7)
        partition = partition_grid_2d(full_box(SHAPE), 2, 2)
        with MpdataIslandSolver(SHAPE, 1, config=EngineConfig()) as whole:
            expected = np.array(whole.run(state, 10), copy=True)
        config = EngineConfig(halo="exchange")
        with MpdataIslandSolver(
            SHAPE,
            partition.count,
            config=config,
            variant=Variant.GRID_2D,
            partition=partition,
        ) as split:
            np.testing.assert_array_equal(split.run(state, 10), expected)


class TestSteadyState:
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_zero_allocations_per_step_under_exchange(self, backend):
        config = EngineConfig(
            backend=backend,
            halo="exchange",
            reuse_output=True,
        )
        state = random_state(SHAPE, seed=3)
        with MpdataIslandSolver(SHAPE, ISLANDS, config=config) as solver:
            arrays = solver._arrays(state)
            arrays[FIELD_X] = solver.runner.step(arrays)  # warm-up
            for _ in range(3):
                arrays[FIELD_X] = solver.runner.step(
                    arrays, changed={FIELD_X}
                )
                assert solver.runner.last_step_stats.allocations == 0


class TestTelemetryCounters:
    def test_exchange_counters_match_the_ledger(self):
        sink = InMemorySink()
        config = EngineConfig(halo="exchange")
        _run(config, steps=4, sink=sink)
        with MpdataIslandSolver(SHAPE, ISLANDS, config=config) as solver:
            ledger = solver.runner.halo_ledger
            itemsize = solver.runner.dtype.itemsize
        assert ledger.exchanged_points() > 0
        for event in sink.events:
            assert event.stats.exchanged_bytes == ledger.exchanged_bytes(itemsize)
            assert event.stats.stage_syncs == ledger.step_syncs
            assert event.stats.redundant_points == ledger.redundant_points == 0

    def test_recompute_counters(self):
        sink = InMemorySink()
        _run(EngineConfig(), steps=2, sink=sink)
        for event in sink.events:
            assert event.stats.exchanged_bytes == 0
            assert event.stats.stage_syncs == 1
            assert event.stats.redundant_points > 0

    @pytest.mark.parametrize("halo", ["recompute", "exchange"])
    def test_run_level_sync_ledger(self, halo):
        """Every step is one time step: the runner's run-to-date
        syncs per step equal one step's barriers under either policy."""
        state = random_state(SHAPE, seed=2017)
        with MpdataIslandSolver(
            SHAPE, ISLANDS, config=EngineConfig(halo=halo)
        ) as solver:
            solver.run(state, 6)
            runner = solver.runner
            step_syncs = runner.halo_ledger.step_syncs
            assert runner.total_steps == 6
            assert runner.total_syncs == 6 * step_syncs
            assert runner.syncs_per_step == step_syncs
        assert step_syncs == (1 if halo == "recompute" else 17)

    def test_pinned_config_matches_the_analytic_model(self):
        """Measured bytes on the wire == the model's predicted shipped
        volume: over the runner's ghost-extended domain, the points
        exchange ships are exactly the points recompute duplicates (the
        Sect. 3.2 identity; its physical-domain form — equality with
        Table 2's extra elements — is pinned in the core ledger tests)."""
        sink = InMemorySink()
        config = EngineConfig(halo="exchange")
        _run(config, steps=1, sink=sink)
        with MpdataIslandSolver(SHAPE, ISLANDS, config=config) as solver:
            exchange = solver.runner.halo_ledger
            recompute = solver.runner.decomposition.halo_ledger("recompute")
            itemsize = solver.runner.dtype.itemsize
        measured = sink.events[-1].stats.exchanged_bytes
        assert measured == exchange.exchanged_bytes(itemsize)
        assert measured == recompute.redundant_points * itemsize

    def test_hybrid_counters_sit_between_the_pure_policies(self):
        from repro.core import partition_domain

        sink = InMemorySink()
        config = EngineConfig(halo="hybrid", halo_threshold=600)
        _run(config, steps=1, sink=sink)
        stats = sink.events[-1].stats
        exchange = build_halo_ledger(
            mpdata_program(),
            partition_domain(full_box(SHAPE), ISLANDS, Variant.A),
            policy="exchange",
        )
        assert exchange.exchanged_points() > 0
        assert stats.exchanged_bytes + stats.redundant_points > 0


class TestFaultsUnderExchange:
    @pytest.mark.parametrize(
        "spec",
        (
            "crash@island=0,step=1,attempts=1",
            "slow@island=2,step=3,delay=0.001",
        ),
    )
    def test_injected_faults_are_healed_stage_locally(self, reference_50, spec):
        """A fault fired during a stage is retried at stage granularity;
        the healed run is still bit-identical to the fault-free one."""
        config = EngineConfig(halo="exchange", fault_specs=(spec,), max_retries=2)
        result = _run(config, steps=50)
        np.testing.assert_array_equal(result, reference_50)

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_corruption_reaches_the_output_and_is_rolled_back(
        self, reference_50, backend
    ):
        """A stage-level corruption lands on a point the island owns, so
        it reaches the output as it does under recompute: the guard trips
        once, one rollback replays from the checkpoint, and the run ends
        bit-identical to the fault-free one."""
        config = EngineConfig(
            backend=backend, halo="exchange",
            fault_specs=("corrupt@island=1,step=2",), max_retries=2,
        )
        state = random_state(SHAPE, seed=2017)
        with MpdataIslandSolver(SHAPE, ISLANDS, config=config) as solver:
            result = np.array(
                solver.run(
                    state, 50, recovery=RecoveryPolicy(checkpoint_every=5)
                ),
                copy=True,
            )
            report = solver.last_recovery_report
        assert report.fault_stats.injected_corruptions == 1
        assert report.guard_trips == 1
        assert report.rollbacks == 1
        np.testing.assert_array_equal(result, reference_50)

    def test_fault_stats_record_stage_retries(self):
        config = EngineConfig(
            halo="exchange",
            fault_specs=("crash@island=1,step=2,attempts=1",),
            max_retries=2,
        )
        state = random_state(SHAPE, seed=2017)
        with MpdataIslandSolver(SHAPE, ISLANDS, config=config) as solver:
            solver.run(state, 4)
            stats = solver.runner.fault_stats
        assert stats.injected_crashes >= 1
        assert stats.retries >= 1
        assert stats.retry_successes >= 1
        assert stats.islands_failed == 0


class _CountingPool:
    """Delegates to a real pool and counts submitted tasks."""

    def __init__(self, pool):
        self.pool = pool
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        return self.pool.submit(*args, **kwargs)

    def shutdown(self, wait=True):
        self.pool.shutdown(wait=wait)


@needs_native
class TestBindOnceDispatch:
    """A steady-state exchange step reuses each island-stage call's
    binding: no per-call validation, and one pool task per team member
    per stage sync.  Anything a binding was built from changing forces a
    rebuild, so every invalidating path stays bit-identical."""

    SHAPE = (32, 12, 8)
    ISLANDS = 8
    BACKEND = "native"

    @pytest.fixture(scope="class")
    def reference(self):
        """The 1-island interpreter's trajectory, 6 steps."""
        return _run(EngineConfig(), steps=6, shape=self.SHAPE, islands=1)

    @pytest.mark.parametrize("threads", (1, 2))
    def test_steady_step_skips_per_call_setup(self, monkeypatch, threads):
        config = EngineConfig(
            backend=self.BACKEND, halo="exchange", threads=threads,
            reuse_output=True,
        )
        state = random_state(self.SHAPE, seed=5)
        with MpdataIslandSolver(
            self.SHAPE, self.ISLANDS, config=config
        ) as solver:
            runner = solver.runner
            arrays = solver._arrays(state)
            arrays[FIELD_X] = runner.step(arrays)
            counts = {"contains": 0, "strides": 0}
            contains = Box.contains
            strides = native_module._strides_in_elements

            def counting_contains(box, other):
                counts["contains"] += 1
                return contains(box, other)

            def counting_strides(*args):
                counts["strides"] += 1
                return strides(*args)

            monkeypatch.setattr(Box, "contains", counting_contains)
            monkeypatch.setattr(
                native_module, "_strides_in_elements", counting_strides
            )
            pool = runner._pool = (
                _CountingPool(runner._pool) if runner._pool else None
            )
            runner.step(arrays, changed={FIELD_X})
            monkeypatch.undo()
            syncs = runner.last_step_stats.stage_syncs
            assert runner.last_step_stats.allocations == 0
        assert counts["contains"] <= self.ISLANDS
        assert counts["strides"] == 0
        if threads > 1:
            assert 0 < pool.submits <= min(threads, self.ISLANDS) * syncs

    @pytest.mark.parametrize("threads", (1, 2))
    def test_crash_retry_rebuilds_the_binding(self, reference, threads):
        config = EngineConfig(
            backend=self.BACKEND, halo="exchange", threads=threads,
            fault_specs=("crash@island=3,step=2,attempts=1",),
            max_retries=1,
        )
        state = random_state(self.SHAPE, seed=2017)
        with MpdataIslandSolver(
            self.SHAPE, self.ISLANDS, config=config
        ) as solver:
            result = np.array(solver.run(state, 6), copy=True)
            retries = solver.runner.fault_stats.retries
            plans = solver.runner.backend._stage_plans
        assert retries >= 1
        np.testing.assert_array_equal(result, reference)
        if self.BACKEND == "native":
            # Each refreshed plan's workspace was reset; its launches were
            # rebuilt over the new buffers rather than kept from the old.
            for plan in plans.values():
                assert plan._binding.stages.holds()

    def test_fresh_buffers_every_step_rebind(self, reference):
        config = EngineConfig(
            backend=self.BACKEND, halo="exchange", threads=2,
            reuse_output=False,
        )
        result = _run(
            config, steps=6, shape=self.SHAPE, islands=self.ISLANDS
        )
        np.testing.assert_array_equal(result, reference)


class TestConfigSurface:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown halo policy"):
            EngineConfig(halo="mpi")

    def test_hybrid_requires_threshold(self):
        with pytest.raises(ValueError, match="halo_threshold"):
            EngineConfig(halo="hybrid")

    def test_threshold_requires_hybrid(self):
        with pytest.raises(ValueError, match="hybrid-policy option"):
            EngineConfig(halo="exchange", halo_threshold=100)

    def test_round_trip_preserves_halo(self):
        config = EngineConfig(halo="hybrid", halo_threshold=250)
        data = config.to_dict()
        assert data["halo"] == "hybrid"
        assert data["halo_threshold"] == 250
        assert EngineConfig.from_dict(data) == config

    def test_runner_mirrors_halo_config(self):
        config = EngineConfig(halo="exchange")
        with MpdataIslandSolver(SHAPE, ISLANDS, config=config) as solver:
            assert solver.runner.halo == "exchange"
            assert solver.runner.halo_ledger.policy == "exchange"


class TestSteadyReport:
    def test_measure_steady_state_reports_exchange(self):
        from repro.runtime import measure_steady_state

        config = EngineConfig(halo="exchange", reuse_output=True)
        report = measure_steady_state(config, SHAPE, steps=3, islands=ISLANDS)
        assert report.bit_identical
        assert report.config is config
        assert report.exchanged_bytes_per_step > 0
        assert report.stage_syncs > 1
        assert report.allocations_per_step == 0
        assert "halo exchange:" in report.render()
        assert report.to_dict()["config"]["halo"] == "exchange"
