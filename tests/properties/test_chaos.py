"""Seeded chaos trajectories: every fault kind, every backend, one truth.

The targeted fault tests exercise one recovery path at a time; this
module turns the injector loose.  A seeded schedule places all five
fault kinds (``crash``, ``kill``, ``slow``, ``corrupt``, ``hang``) at
random islands and steps of a 50-step run, and the same schedule is
replayed on every backend — in-process and multi-process alike — under
the full recovery stack (per-island retry, deadline supervision,
checkpoint rollback).  The property: the final field is bit-identical
to the fault-free reference on every backend, and the recovery ledger
accounts for exactly the faults the schedule injected.  Kinds a backend
cannot apply must degrade by the documented rules — ``kill`` to
``crash`` in-process, ``hang`` skipped gracefully — without breaking
the trajectory.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.mpdata import random_state
from repro.runtime import (
    EngineConfig,
    MpdataIslandSolver,
    ProcsBackend,
    RecoveryPolicy,
    native_available,
)

SHAPE = (16, 12, 8)
STEPS = 50
ISLANDS = 2

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)

BACKENDS = [
    pytest.param(EngineConfig(backend="interpreter"), id="interpreter"),
    pytest.param(
        EngineConfig(backend="native"), id="native", marks=needs_native
    ),
    pytest.param(
        EngineConfig(backend="native", halo="exchange"),
        id="native-exchange",
        marks=needs_native,
    ),
    pytest.param(
        EngineConfig(backend="procs", step_deadline=2.0), id="procs"
    ),
    pytest.param(
        EngineConfig(backend="procs", step_deadline=2.0, procs_inner="native"),
        id="procs-native",
        marks=needs_native,
    ),
]


def _chaos_schedule(seed):
    """One fault of every kind at seed-chosen distinct (island, step) sites.

    Transient faults only (``attempts=1``): together with distinct sites
    this makes the expected ledger exact — one retry per crash/kill(/hang
    where applied), one guard trip and rollback for the corruption.
    """
    rng = random.Random(seed)
    steps = rng.sample(range(1, STEPS - 5), 5)
    specs = []
    for kind, step in zip(("crash", "kill", "slow", "corrupt", "hang"), steps):
        site = f"{kind}@island={rng.randrange(ISLANDS)},step={step}"
        if kind == "slow":
            site += ",delay=0.05"
        specs.append(site)
    return tuple(sorted(specs))


@pytest.fixture(scope="module")
def reference():
    state = random_state(SHAPE, seed=3)
    with MpdataIslandSolver(
        SHAPE, ISLANDS, config=EngineConfig(backend="interpreter")
    ) as solver:
        return np.array(solver.run(state, STEPS), copy=True)


@pytest.mark.parametrize("seed", [11, 23])
@pytest.mark.parametrize("base", BACKENDS)
def test_chaos_trajectory_bit_identical(base, seed, reference):
    schedule = _chaos_schedule(seed)
    config = replace(base, max_retries=4, fault_specs=schedule)
    state = random_state(SHAPE, seed=3)
    with MpdataIslandSolver(SHAPE, ISLANDS, config=config) as solver:
        final = np.array(
            solver.run(
                state,
                STEPS,
                recovery=RecoveryPolicy(checkpoint_every=5, max_rollbacks=20),
            ),
            copy=True,
        )
        report = solver.last_recovery_report
        procs = config.backend == "procs"
        supervised = procs and solver.runner.backend.deadline_clock.supervised
        assert not solver.runner.backend.serial_fallback

    stats = report.fault_stats
    # Every scheduled fault fired exactly once ...
    assert stats.injected_crashes == 1
    assert stats.injected_kills == 1
    assert stats.injected_slowdowns == 1
    assert stats.injected_corruptions == 1
    assert stats.injected_hangs == 1
    # ... and was recovered by the documented path for this backend.
    assert stats.hangs_detected == (1 if supervised else 0)
    assert stats.retries == (3 if procs else 2)  # crash + kill (+ hang)
    assert stats.retry_successes == stats.retries
    assert stats.islands_failed == 0
    assert report.guard_trips == 1
    assert report.rollbacks == 1
    assert report.completed_steps == STEPS

    assert np.array_equal(final, reference)


@pytest.mark.parametrize("seed", [11, 23])
@pytest.mark.parametrize(
    "inner", ["interpreter", pytest.param("native", marks=needs_native)]
)
def test_chaos_on_one_worker_bit_identical(inner, seed, reference, monkeypatch):
    """Both islands on one worker, so they take turns at its lock.  A
    ``kill`` or ``hang`` also fails the sibling's command when the
    sibling takes the lock before the respawn; those extra failures are
    counted at the per-island round trip and retried like any other."""
    failures = []
    round_trip = ProcsBackend._island_round_trip

    def counted(backend, island_index, command):
        try:
            return round_trip(backend, island_index, command)
        except Exception as error:
            failures.append((island_index, type(error).__name__))
            raise

    monkeypatch.setattr(ProcsBackend, "_island_round_trip", counted)
    config = EngineConfig(
        backend="procs",
        procs_inner=inner,
        workers=1,
        step_deadline=2.0,
        max_retries=4,
        fault_specs=_chaos_schedule(seed),
    )
    state = random_state(SHAPE, seed=3)
    with MpdataIslandSolver(SHAPE, ISLANDS, config=config) as solver:
        final = np.array(
            solver.run(
                state,
                STEPS,
                recovery=RecoveryPolicy(checkpoint_every=5, max_rollbacks=20),
            ),
            copy=True,
        )
        report = solver.last_recovery_report
        assert not solver.runner.backend.serial_fallback

    stats = report.fault_stats
    assert stats.injected_crashes == stats.injected_kills == 1
    assert stats.injected_slowdowns == stats.injected_corruptions == 1
    assert stats.injected_hangs == stats.hangs_detected == 1
    # The crash raises in the parent, before its round trip; the kill
    # and the hang fail theirs, and each may take the sibling along.
    assert sorted(kind for _, kind in failures).count("WorkerHung") == 1
    siblings = len(failures) - 2
    assert 0 <= siblings <= 2
    assert stats.retries == 3 + siblings
    assert stats.retry_successes == stats.retries
    assert stats.islands_failed == 0
    assert report.guard_trips == 1
    assert report.rollbacks == 1
    assert report.completed_steps == STEPS

    assert np.array_equal(final, reference)


def test_schedules_differ_across_seeds():
    assert _chaos_schedule(11) != _chaos_schedule(23)
    assert _chaos_schedule(11) == _chaos_schedule(11)  # deterministic
