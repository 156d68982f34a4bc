"""Every backend under every halo policy: one step is one time step.

A ``PartitionedRunner.step`` advances one time step and synchronizes
once (once per active stage under exchange) on every backend.
Three contracts run over the same backend x halo matrix: 50-step
trajectories equal the whole-domain solver's to the last bit, the
run-level sync ledger counts one time step per call, and the steady
state allocates nothing after the warm-up step.  The matrix runs on two
i-slabs, and again on a 2x2 grid of i x j columns, whose exchange flows
also cross edges and corners.
"""

import numpy as np
import pytest

from repro.core import Variant, partition_grid_2d
from repro.mpdata import MpdataSolver, random_state
from repro.runtime import (
    EngineConfig,
    InMemorySink,
    MpdataIslandSolver,
    Telemetry,
    native_available,
)
from repro.stencil import full_box

SHAPE = (16, 16, 16)
STEPS = 50
#: MPDATA's stages that each synchronize once under exchange.
EXCHANGE_SYNCS = 17

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)

BACKENDS = [
    "interpreter",
    "procs",
    pytest.param("procs-native", marks=needs_native),
    # Both islands on one worker: their commands take turns at it.
    pytest.param("procs-native-shared", marks=needs_native),
    pytest.param("native", marks=needs_native),
    # Two threads: exchange steps run as a team of two native
    # calls with a real barrier (the ``native`` row's team has one).
    pytest.param("native-team", marks=needs_native),
]
HALOS = ["recompute", "exchange"]


def _config(backend, halo, **kwargs):
    if backend == "procs-native-shared":
        backend = "procs-native"
        kwargs.setdefault("workers", 1)
    if backend == "native-team":
        backend = "native"
        kwargs.setdefault("threads", 2)
    if backend == "procs-native":  # procs workers running native kernels
        backend = "procs"
        kwargs.setdefault("procs_inner", "native")
    return EngineConfig(backend=backend, halo=halo, **kwargs)


def _layout(layout):
    """``(islands, solver keywords)``: 2 i-slabs, or a 2x2 grid."""
    if layout == "2x2":
        partition = partition_grid_2d(full_box(SHAPE), 2, 2)
        return partition.count, dict(
            variant=Variant.GRID_2D, partition=partition
        )
    return 2, {}


def _run(config, steps, layout, sink=None):
    """Final field after ``steps`` steps on ``layout``, plus the runner's
    run-level ``(total_steps, total_syncs, syncs_per_step, step_syncs)``."""
    telemetry = None if sink is None else Telemetry([sink])
    state = random_state(SHAPE, seed=7)
    islands, layout_kwargs = _layout(layout)
    with MpdataIslandSolver(
        SHAPE, islands, config=config, telemetry=telemetry, **layout_kwargs
    ) as solver:
        final = np.array(solver.run(state, steps), copy=True)
        runner = solver.runner
        ledger = (
            runner.total_steps,
            runner.total_syncs,
            runner.syncs_per_step,
            runner.halo_ledger.step_syncs,
        )
    return final, ledger


@pytest.fixture(scope="module")
def reference():
    return MpdataSolver(SHAPE).run(random_state(SHAPE, seed=7), STEPS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("halo", HALOS)
class TestBackendHaloMatrix:
    layout = "slabs"

    def test_trajectory_matches_whole_domain(self, reference, backend, halo):
        final, _ = _run(_config(backend, halo), STEPS, self.layout)
        np.testing.assert_array_equal(final, reference)

    def test_every_step_is_one_time_step(self, backend, halo):
        sink = InMemorySink()
        _, ledger = _run(_config(backend, halo), 6, self.layout, sink=sink)
        total_steps, total_syncs, syncs_per_step, step_syncs = ledger
        assert step_syncs == (1 if halo == "recompute" else EXCHANGE_SYNCS)
        assert total_steps == 6
        assert total_syncs == 6 * step_syncs
        assert syncs_per_step == step_syncs
        assert [e.stats.stage_syncs for e in sink.events] == [step_syncs] * 6

    def test_steady_state_does_not_allocate(self, backend, halo):
        sink = InMemorySink()
        config = _config(backend, halo, reuse_output=True)
        _run(config, 4, self.layout, sink=sink)
        assert len(sink.events) == 4
        assert sink.events[0].stats.allocations > 0  # warm-up builds all
        assert all(e.stats.allocations == 0 for e in sink.events[1:])


class TestBackendHaloMatrixOnAGrid(TestBackendHaloMatrix):
    """The same matrix on 4 islands of a 2x2 grid."""

    layout = "2x2"
