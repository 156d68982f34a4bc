"""The batched procs step: one round trip per worker per fault-free step.

Under ``recompute`` a procs step at which no injected fault can fire is
one ``steps`` command per live worker, naming all of its islands, and
one reply, which carries the islands' results and, when a guard asks,
each island part's mass.  The contracts: bit-identity with the
whole-domain solver for every inner executor, boundary, dtype, output
mode and worker layout; exactly that traffic, with steps that carry a
pending fault on the per-island path, whose commands are one-island
``steps`` commands; a worker that dies or stops between steps fails the
batch, which is recorded like a per-island failure and rerun per island;
after a quarantine the survivor's batch covers the adopted islands; an
interrupt anywhere in a round trip leaves every worker lock free; the
summed masses are the field's mass, and the guard reads them.
"""

from __future__ import annotations

import glob
import itertools
import math
import os
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.mpdata import MpdataSolver, random_state
from repro.mpdata.stages import FIELD_DENSITY
from repro.runtime import (
    EngineConfig,
    MpdataIslandSolver,
    RecoveryPolicy,
    native_available,
)
from repro.runtime import recovery as recovery_module
from repro.runtime.diagnostics import field_mass
from repro.runtime.procs import SEGMENT_PREFIX, live_segment_names
from repro.runtime.recovery import UnrecoverableRunError

SHAPE = (16, 12, 8)
STEPS = 20

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)

INNERS = ("interpreter", pytest.param("native", marks=needs_native))


def _shm_segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-{os.getpid()}-*")


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Every test must leave /dev/shm clean of this process's segments."""
    before = set(_shm_segments())
    yield
    leaked = set(_shm_segments()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    assert not live_segment_names()


@pytest.fixture(scope="module")
def state():
    return random_state(SHAPE, seed=13)


@pytest.fixture(scope="module")
def references(state):
    """The whole-domain solver's field after ``STEPS`` steps, per
    ``(boundary, dtype)``."""
    return {
        (boundary, dtype): MpdataSolver(
            SHAPE, boundary=boundary, dtype=np.dtype(dtype)
        ).run(state, STEPS)
        for boundary, dtype in itertools.product(
            ("periodic", "open"), ("float64", "float32")
        )
    }


def _procs(inner="interpreter", workers=2, **kwargs):
    return EngineConfig(
        backend="procs", procs_inner=inner, workers=workers, **kwargs
    )


def _mark_steps(runner, log, before=None):
    """Log ``("mark", step)`` before each step; ``before(step)`` runs
    first, between steps."""
    step = runner.step

    def marked(arrays, changed=None, step_index=None, **kwargs):
        if before is not None:
            before(step_index)
        log.append(("mark", step_index))
        return step(arrays, changed, step_index, **kwargs)

    runner.step = marked


def _traffic_by_step(log):
    """Per step: the step commands sent (``("steps", islands)``) and the
    replies read (``"ok"``/``"err"``)."""
    steps = {}
    current = None
    for kind, message in log:
        if kind == "mark":
            current = steps.setdefault(message, {"sent": [], "read": []})
        elif current is None:
            continue
        elif kind == "send" and message[0] == "steps":
            current["sent"].append((message[0], message[1]))
        elif kind == "recv" and message in ("ok", "err"):
            current["read"].append(message)
    return steps


def _kill_worker(backend, worker, sig):
    process = backend._handles[worker].process
    os.kill(process.pid, sig)
    if sig == signal.SIGKILL:
        process.join()


class TestMatchesWholeDomain:
    """20 steps, bit for bit, every step batched."""

    @pytest.mark.parametrize(
        "islands, workers", ((4, 1), (4, 2), (4, 4), (8, 2))
    )
    @pytest.mark.parametrize("boundary", ("periodic", "open"))
    @pytest.mark.parametrize("inner", INNERS)
    def test_bit_identical(
        self, state, references, inner, boundary, islands, workers, pipe_log
    ):
        for dtype, reuse in itertools.product(
            ("float64", "float32"), (True, False)
        ):
            config = _procs(
                inner, workers, boundary=boundary, dtype=dtype,
                reuse_output=reuse,
            )
            pipe_log.clear()
            with MpdataIslandSolver(SHAPE, islands, config=config) as solver:
                got = np.array(solver.run(state, STEPS), copy=True)
                owned = [
                    tuple(sorted(h.islands))
                    for h in solver.runner.backend._handles
                ]
            sent = [m[:2] for kind, m in pipe_log if kind == "send"]
            # One command per worker per step, naming all of its islands.
            assert sent[: STEPS * workers] == [
                ("steps", mine) for mine in owned
            ] * STEPS
            assert {m[0] for m in sent[STEPS * workers:]} == {"close"}
            np.testing.assert_array_equal(got, references[boundary, dtype])


class TestTraffic:
    def test_one_round_trip_per_worker_per_fault_free_step(
        self, state, pipe_log
    ):
        config = _procs(fault_specs=("slow@island=1,step=2,delay=0.01",))
        with MpdataIslandSolver(SHAPE, 4, config=config) as solver:
            _mark_steps(solver.runner, pipe_log)
            solver.run(state, 5)
            stats = replace(solver.runner.fault_stats)
        traffic = _traffic_by_step(pipe_log)
        assert sorted(traffic) == [0, 1, 2, 3, 4]
        for step, seen in traffic.items():
            if step == 2:  # the slow fault can fire: per island
                assert sorted(seen["sent"]) == [
                    ("steps", (q,)) for q in range(4)
                ]
                assert seen["read"] == ["ok"] * 4
            else:
                assert seen["sent"] == [("steps", (0, 2)), ("steps", (1, 3))]
                assert seen["read"] == ["ok"] * 2
        assert stats.injected_slowdowns == 1
        assert stats.retries == 0

    @pytest.mark.parametrize("inner", INNERS)
    def test_steady_batched_step_allocates_nothing_and_is_timed(
        self, state, inner
    ):
        config = _procs(inner, reuse_output=True, collect_timings=True)
        with MpdataIslandSolver(SHAPE, 4, config=config) as solver:
            solver.run(state, 4)
            stats = solver.last_step_stats
        assert stats.allocations == 0
        assert len(stats.timings.island_seconds) == 4
        assert all(seconds > 0.0 for seconds in stats.timings.island_seconds)
        assert len(stats.timings.stage_seconds) == 17


class TestFailedBatchReruns:
    """A worker lost between steps, with no fault spec: the batch fails,
    is recorded like a per-island failure, and the step reruns per
    island, which respawns the worker."""

    def test_sigkilled_worker_reruns_the_step_per_island(
        self, state, references, pipe_log
    ):
        config = _procs(max_retries=2, step_deadline=5.0)
        with MpdataIslandSolver(SHAPE, 4, config=config) as solver:
            backend = solver.runner.backend

            def kill(step):
                if step == 5:
                    _kill_worker(backend, 1, signal.SIGKILL)

            _mark_steps(solver.runner, pipe_log, kill)
            got = np.array(solver.run(state, STEPS), copy=True)
            stats = replace(solver.runner.fault_stats)
            health = [backend.worker_health(w) for w in (0, 1)]
        assert (health[1].crashes, health[1].hangs) == (1, 0)
        assert (health[0].crashes, health[0].hangs) == (0, 0)
        assert stats.hangs_detected == 0
        assert stats.retries == stats.retry_successes >= 1
        traffic = _traffic_by_step(pipe_log)
        assert ("steps", (1,)) in traffic[5]["sent"]  # rerun per island
        for step in range(6, STEPS):
            assert traffic[step]["sent"] == [
                ("steps", (0, 2)), ("steps", (1, 3)),
            ]
        np.testing.assert_array_equal(got, references["periodic", "float64"])

    def test_sigstopped_worker_is_a_hang_detected_within_its_deadline(
        self, state, references
    ):
        deadline = 0.5
        config = _procs(max_retries=2, step_deadline=deadline)
        with MpdataIslandSolver(SHAPE, 4, config=config) as solver:
            backend = solver.runner.backend
            stopped = []

            def stop(step):
                if step == 5:
                    stopped.append(backend._handles[0].process.pid)
                    _kill_worker(backend, 0, signal.SIGSTOP)

            _mark_steps(solver.runner, [], stop)
            got = np.array(solver.run(state, STEPS), copy=True)
            stats = replace(solver.runner.fault_stats)
            health = backend.worker_health(0)
            assert backend._handles[0].process.pid != stopped[0]
        assert stats.hangs_detected == 1
        # Two islands on the worker: twice the per-command deadline.
        assert 2 * deadline <= stats.hang_detect_seconds <= 2 * deadline + 1.5
        assert (health.hangs, health.crashes) == (1, 0)
        assert backend.worker_health(1).hangs == 0
        np.testing.assert_array_equal(got, references["periodic", "float64"])

    def test_batches_cover_the_adopted_islands_after_a_quarantine(
        self, state, references, pipe_log
    ):
        config = _procs(
            max_retries=3,
            step_deadline=1.0,
            quarantine_after=2,
            fault_specs=("hang@island=2,step=5,attempts=2",),
        )
        with MpdataIslandSolver(SHAPE, 4, config=config) as solver:
            _mark_steps(solver.runner, pipe_log)
            got = np.array(solver.run(state, STEPS), copy=True)
            stats = replace(solver.runner.fault_stats)
            assert solver.runner.backend.worker_health(0).quarantined
        assert stats.quarantines == 1
        assert stats.islands_remapped == 2
        traffic = _traffic_by_step(pipe_log)
        assert all(len(islands) == 1 for _, islands in traffic[5]["sent"])
        for step in range(6, STEPS):
            assert traffic[step]["sent"] == [("steps", (0, 1, 2, 3))]
            assert traffic[step]["read"] == ["ok"]
        np.testing.assert_array_equal(got, references["periodic", "float64"])

    def test_interrupted_wait_replaces_the_unread_workers(
        self, state, references, monkeypatch
    ):
        """An exception in the wait (an interrupt) leaves replies unread;
        their workers are replaced, so the next steps read only their
        own replies and no failure is counted."""
        from multiprocessing import connection

        wait = connection.wait
        calls = []

        class Interrupted(Exception):
            pass

        def interrupting(objects, timeout=None):
            calls.append(len(objects))
            if len(calls) == 1:
                raise Interrupted
            return wait(objects, timeout)

        with MpdataIslandSolver(SHAPE, 4, config=_procs()) as solver:
            backend = solver.runner.backend
            solver.run(state, 1)
            pids = [h.process.pid for h in backend._handles]
            monkeypatch.setattr(connection, "wait", interrupting)
            with pytest.raises(Interrupted):
                solver.run(state, 1)
            assert all(
                h.process.pid != pid for h, pid in zip(backend._handles, pids)
            )
            got = np.array(solver.run(state, STEPS), copy=True)
            stats = replace(solver.runner.fault_stats)
            health = [backend.worker_health(w) for w in (0, 1)]
        assert calls[0] == 2
        assert all((h.crashes, h.hangs) == (0, 0) for h in health)
        assert stats.retries == 0
        np.testing.assert_array_equal(got, references["periodic", "float64"])

    @pytest.mark.parametrize("site", ("send", "ready"))
    def test_interrupted_send_releases_every_lock(
        self, state, references, monkeypatch, site
    ):
        """An interrupt while the batch is still sending: at worker 1's
        command, with worker 0's reply unread, or in the wait for a
        fresh worker 0's ready message, before any command.  Every lock
        the round trip took is released, so the next steps run and
        ``close`` returns within its grace period."""
        from multiprocessing.connection import Connection

        class Interrupted(Exception):
            pass

        solver = MpdataIslandSolver(SHAPE, 4, config=_procs())
        backend = solver.runner.backend
        # Closed from a thread, so a lock left held fails the test
        # instead of hanging it.
        closer = threading.Thread(target=solver.close, daemon=True)
        try:
            solver.run(state, 1)
            if site == "send":
                send = Connection.send
                sent = []

                def interrupting(conn, message):
                    if message[0] == "steps":
                        sent.append(message)
                        if len(sent) == 2:
                            raise Interrupted
                    return send(conn, message)

                monkeypatch.setattr(Connection, "send", interrupting)
            else:
                fresh = backend._handles[0]
                with fresh.lock:
                    backend._respawn_locked(fresh)

                def interrupting(conn, timeout=0.0):
                    raise Interrupted

                monkeypatch.setattr(Connection, "poll", interrupting)
            pids = [h.process.pid for h in backend._handles]
            with pytest.raises(Interrupted):
                solver.run(state, 1)
            monkeypatch.undo()
            assert not any(h.lock.locked() for h in backend._handles)
            replaced = [
                h.process.pid != pid for h, pid in zip(backend._handles, pids)
            ]
            # Every worker whose pipe the interrupt may have left a
            # command or an unread reply in is replaced.
            assert replaced == [True, site == "send"]
            got = np.array(solver.run(state, STEPS), copy=True)
            stats = replace(solver.runner.fault_stats)
            health = [backend.worker_health(w) for w in (0, 1)]
        finally:
            closer.start()
            # close() joins for one grace period, then kills and reaps.
            closer.join(timeout=backend._close_grace + 5.0)
        assert not closer.is_alive()
        assert all((h.crashes, h.hangs) == (0, 0) for h in health)
        assert stats.retries == 0
        np.testing.assert_array_equal(got, references["periodic", "float64"])


class TestReportedMass:
    @pytest.mark.parametrize("inner", INNERS)
    def test_summed_masses_are_the_field_mass(self, state, inner):
        with MpdataIslandSolver(SHAPE, 4, config=_procs(inner)) as solver:
            runner = solver.runner
            arrays = solver._arrays(state)
            changed = None
            for step in range(5):
                out = runner.step(
                    arrays, changed, step, weights=FIELD_DENSITY
                )
                expected = field_mass(out, state.h)
                assert runner.last_step_mass == pytest.approx(
                    expected, rel=1e-13
                )
                arrays["x"] = out
                changed = {"x"}

    def test_no_mass_without_a_batched_step(self, state):
        """In-process backends, and a weight whose dtype differs from
        the engine's, leave the mass to the guard."""
        for config in (
            EngineConfig(),
            _procs(dtype="float32"),
        ):
            with MpdataIslandSolver(SHAPE, 4, config=config) as solver:
                arrays = solver._arrays(state)
                solver.runner.step(arrays, weights=FIELD_DENSITY)
                assert solver.runner.last_step_mass is None

    def test_guard_takes_the_reported_mass(
        self, state, references, monkeypatch
    ):
        masses = []
        check = recovery_module.check_step_health

        def recording(x, **kwargs):
            masses.append(kwargs["mass"])
            return check(x, **kwargs)

        monkeypatch.setattr(recovery_module, "check_step_health", recording)
        policy = RecoveryPolicy(checkpoint_every=5, mass_drift_limit=1e-6)
        with MpdataIslandSolver(SHAPE, 4, config=_procs()) as solver:
            got = np.array(solver.run(state, STEPS, recovery=policy), copy=True)
        assert len(masses) == STEPS
        assert all(mass is not None and math.isfinite(mass) for mass in masses)
        np.testing.assert_array_equal(got, references["periodic", "float64"])

    def test_nan_in_one_island_trips_the_guard(self, state):
        x = np.array(state.x, copy=True)
        x[SHAPE[0] // 4 + 1, 3, 3] = np.nan  # inside island 1's part
        sick = replace(state, x=x)
        policy = RecoveryPolicy(checkpoint_every=5, max_rollbacks=1)
        with MpdataIslandSolver(SHAPE, 4, config=_procs()) as solver:
            with pytest.raises(UnrecoverableRunError):
                solver.run(sick, 5, recovery=policy)
            assert math.isnan(solver.runner.last_step_mass)
            report = solver.last_recovery_report
        assert report.guard_trips == 2
        assert report.completed_steps == 0
