"""Tests for the deadline-supervised worker pool.

Covers the supervision ladder end to end: deadline computation
(:class:`DeadlineClock` — explicit, adaptive EWMA, warm-up grace),
watchdog hang detection (a wedged worker is killed within the configured
deadline, respawned, and the island replayed bit-identically over 50
steps), the per-worker health ledger with quarantine and round-robin
island remapping onto survivors, degradation to serial-in-parent when no
worker survives, the bounded ``refresh``/``close`` paths (a SIGSTOPped
worker can no longer deadlock either), one command in flight per worker,
and the config / CLI surface.
"""

import glob
import importlib.util
import os
import pathlib
import signal
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import _validate_engine_args, build_parser
from repro.mpdata import MpdataSolver, random_state
from repro.runtime import (
    DeadlineClock,
    EngineConfig,
    FaultStats,
    FlatInterpreterBackend,
    InMemorySink,
    MpdataIslandSolver,
    RecoveryPolicy,
    RecoveryReport,
    Telemetry,
    native_available,
)
from repro.runtime.procs import SEGMENT_PREFIX, live_segment_names

SHAPE = (16, 12, 8)


def _shm_segments():
    """This process's procs segments: the arena tags every segment name
    with the pid of the process that created it."""
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-{os.getpid()}-*")


def _trajectory(config, steps=50, islands=2, telemetry=None):
    state = random_state(SHAPE, seed=7)
    with MpdataIslandSolver(
        SHAPE, islands, config=config, telemetry=telemetry
    ) as solver:
        final = np.array(solver.run(state, steps), copy=True)
        stats = replace(solver.runner.fault_stats)
    return final, stats


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Every test must leave /dev/shm clean of this process's segments."""
    before = set(_shm_segments())
    yield
    leaked = set(_shm_segments()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    assert not live_segment_names()


@pytest.fixture(scope="module")
def reference():
    final, _ = _trajectory(EngineConfig(backend="interpreter"))
    return final


class TestDeadlineClock:
    def test_explicit_deadline_wins(self):
        clock = DeadlineClock(2.5, 8.0)
        assert clock.current() == 2.5
        clock.observe(100.0)
        assert clock.current() == 2.5

    def test_unsupervised_when_both_none(self):
        clock = DeadlineClock(None, None)
        assert not clock.supervised
        assert clock.current() is None

    def test_warmup_before_any_sample(self):
        clock = DeadlineClock(None, 8.0, warmup=60.0)
        assert clock.supervised
        assert clock.current() == 60.0
        clock.observe(0.01)
        assert clock.current() == 1.0  # adapted, at the floor

    def test_adaptive_tracks_ewma_with_floor(self):
        clock = DeadlineClock(None, 4.0, floor=1.0)
        clock.observe(0.01)
        # tiny durations hit the floor, not 0.04s
        assert clock.current() == 1.0
        clock = DeadlineClock(None, 4.0, floor=1.0)
        clock.observe(2.0)
        assert clock.current() == pytest.approx(8.0)

    def test_ewma_smooths(self):
        clock = DeadlineClock(None, 1.0, floor=0.0)
        clock.observe(1.0)
        clock.observe(3.0)  # ewma = 1 + 0.25 * 2 = 1.5
        assert clock.ewma == pytest.approx(1.5)


class TestHangDetection:
    def test_hang_detected_killed_replayed_bit_identical(self, reference):
        deadline = 3.0
        config = EngineConfig(
            backend="procs",
            max_retries=2,
            step_deadline=deadline,
            fault_specs=("hang@island=1,step=7",),
        )
        begin = time.perf_counter()
        final, stats = _trajectory(config)
        elapsed = time.perf_counter() - begin
        assert stats.injected_hangs == 1
        assert stats.hangs_detected == 1
        # detected within the configured deadline (plus scheduling slack)
        assert deadline <= stats.hang_detect_seconds <= deadline + 1.0
        assert stats.retries == 1
        assert stats.retry_successes == 1
        assert elapsed < 60.0  # never waits out the warm-up deadline
        assert np.array_equal(final, reference)

    def test_worker_build_is_not_charged_to_a_command(self, monkeypatch):
        """A worker reports ready once its inner backend is built; the
        wait for that is not the first command's deadline."""
        prepare = FlatInterpreterBackend.prepare

        def slow_prepare(self):
            time.sleep(1.5)  # a cold kernel build, say
            prepare(self)

        # Patched before the backend forks, so the workers inherit it.
        monkeypatch.setattr(FlatInterpreterBackend, "prepare", slow_prepare)
        config = EngineConfig(backend="procs", step_deadline=0.5)
        final, stats = _trajectory(config, steps=3)
        assert stats.hangs_detected == 0
        expected = MpdataSolver(SHAPE).run(random_state(SHAPE, seed=7), 3)
        np.testing.assert_array_equal(final, expected)

    def test_worker_pid_changes_after_hang(self):
        config = EngineConfig(
            backend="procs",
            max_retries=2,
            step_deadline=3.0,
            fault_specs=("hang@island=0,step=2",),
        )
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            solver.run(state, 1)
            backend = solver.runner.backend
            pid = backend._handles[0].process.pid
            solver.run(state, 4)
            assert backend._handles[0].process.pid != pid
            health = backend.worker_health(0)
            assert health.hangs == 1
            assert health.consecutive_failures == 0  # reset by the replay

    def test_adaptive_deadline_detects_fast_after_warmup(self, reference):
        # Default supervision: no explicit deadline.  After a few warm
        # steps the EWMA-derived deadline is near the 1s floor, so the
        # hang is detected orders of magnitude before the 60s warm-up.
        config = EngineConfig(
            backend="procs",
            max_retries=2,
            deadline_factor=8.0,
            fault_specs=("hang@island=1,step=5",),
        )
        final, stats = _trajectory(config, steps=10)
        assert stats.hangs_detected == 1
        assert stats.hang_detect_seconds < 30.0
        ref, _ = _trajectory(EngineConfig(backend="interpreter"), steps=10)
        assert np.array_equal(final, ref)

    def test_hang_during_exchange_stage(self, reference):
        config = EngineConfig(
            backend="procs",
            halo="exchange",
            max_retries=3,
            step_deadline=3.0,
            fault_specs=("hang@island=0,step=11",),
        )
        final, stats = _trajectory(config)
        assert stats.hangs_detected == 1
        assert stats.retry_successes >= 1
        assert np.array_equal(final, reference)

    def test_in_process_backends_skip_hang_gracefully(self, reference):
        in_process = ["interpreter"]
        if native_available():
            in_process.append("native")
        for backend in in_process:
            config = EngineConfig(
                backend=backend,
                max_retries=1,
                fault_specs=("hang@island=1,step=3",),
            )
            final, stats = _trajectory(config)
            assert stats.injected_hangs == 1  # counted ...
            assert stats.hangs_detected == 0  # ... but never applied
            assert stats.retries == 0
            assert np.array_equal(final, reference)

    def test_telemetry_carries_hang_fields(self):
        sink = InMemorySink()
        config = EngineConfig(
            backend="procs",
            max_retries=2,
            step_deadline=3.0,
            fault_specs=("hang@island=0,step=4",),
        )
        _trajectory(config, steps=6, telemetry=Telemetry([sink]))
        hang_steps = [
            event
            for event in sink.events
            if event.faults and event.faults.hangs_detected
        ]
        assert len(hang_steps) == 1
        faults = hang_steps[0].to_dict()["faults"]
        assert faults["injected_hangs"] == 1
        assert faults["hangs_detected"] == 1
        assert faults["hang_detect_seconds"] > 0
        assert "quarantines" in faults
        assert "islands_remapped" in faults

    def test_unsupervised_pool_never_raises_hung(self, reference):
        # Supervision off: plain blocking dispatch, still bit-identical.
        config = EngineConfig(
            backend="procs", step_deadline=None, deadline_factor=None
        )
        final, stats = _trajectory(config)
        assert stats == FaultStats()
        assert np.array_equal(final, reference)


def _slow_sweep(monkeypatch, seconds, island=None):
    """Slow the interpreter's island sweep (of one island, or of all).
    Patched before the backend forks, so the workers inherit it."""
    execute = FlatInterpreterBackend.execute_island

    def slow(self, target, inputs, out):
        if island is None or target.index == island:
            time.sleep(seconds)
        return execute(self, target, inputs, out)

    monkeypatch.setattr(FlatInterpreterBackend, "execute_island", slow)


def _step_traffic(log):
    """``"send"`` per one-island step command, ``"batch"`` per step
    command naming several islands and ``"recv"`` per reply, in order."""
    kinds = []
    for kind, message in log:
        if kind == "send" and message[0] == "steps":
            kinds.append("send" if len(message[1]) == 1 else "batch")
        elif kind == "recv" and message in ("ok", "err"):
            kinds.append("recv")
    return kinds


class TestOneCommandInFlight:
    """Both islands on one worker.  On a step where a fault can fire,
    each island's command is a round trip under the worker's lock: the
    sibling's command is sent only once the reply is read.  A fault-free
    step is one batched command and one reply."""

    def _reference(self, steps):
        return MpdataSolver(SHAPE).run(random_state(SHAPE, seed=7), steps)

    def test_sends_and_replies_alternate(self, monkeypatch, pipe_log):
        _slow_sweep(monkeypatch, 0.2)
        config = EngineConfig(
            backend="procs",
            workers=1,
            fault_specs=(
                "slow@island=1,step=1,delay=0.01",
                "slow@island=1,step=3,delay=0.01",
            ),
        )
        final, stats = _trajectory(config, steps=4)
        batched = ["batch", "recv"]  # one send and one reply per worker
        per_island = ["send", "recv", "send", "recv"]
        assert _step_traffic(pipe_log) == (batched + per_island) * 2
        assert stats == FaultStats(injected_slowdowns=2)
        np.testing.assert_array_equal(final, self._reference(4))

    def test_kill_is_sent_after_the_sibling_reply(
        self, monkeypatch, pipe_log
    ):
        """Island 1's command waits for island 0's slow round trip; the
        worker dies when it reads it.  Island 0's reply was read before
        the kill was sent, so only island 1 fails, is retried on a fresh
        worker, and the run stays bit-identical."""
        _slow_sweep(monkeypatch, 0.3, island=0)
        config = EngineConfig(
            backend="procs",
            workers=1,
            max_retries=2,
            step_deadline=5.0,
            fault_specs=(
                "kill@island=1,step=2",
                "slow@island=1,step=2,delay=0.1",
            ),
        )
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            backend = solver.runner.backend
            pid = backend._handles[0].process.pid
            final = np.array(solver.run(state, 4), copy=True)
            stats = replace(solver.runner.fault_stats)
            assert backend._handles[0].process.pid != pid
            assert backend.worker_health(0).crashes == 1
        sends = [message for kind, message in pipe_log if kind == "send"]
        killed = next(m for m in sends if m[0] == "steps" and m[5])
        position = pipe_log.index(("send", killed))
        # Sent right after island 0's round trip.
        assert pipe_log[position - 1] == ("recv", "ok")
        assert pipe_log[position - 2][1][:2] == ("steps", (0,))
        assert stats.injected_kills == 1
        assert stats.retries == stats.retry_successes == 1
        assert stats.hangs_detected == 0
        np.testing.assert_array_equal(final, self._reference(4))

    def test_hang_is_counted_once_and_nothing_follows_it(self, pipe_log):
        """Island 0 wedges while island 1 waits for the worker's lock:
        one hang is detected and the worker's ledger counts one failure.
        Nothing is sent on the failed pipe generation — the next message
        is a fresh fork's ready — and no in-place refresh is sent.  The
        sibling's retry depends on whether it took the lock before the
        respawn (it fails without sending) or after (it never fails)."""
        config = EngineConfig(
            backend="procs",
            workers=1,
            max_retries=2,
            step_deadline=1.0,
            fault_specs=(
                "hang@island=0,step=2",
                "slow@island=1,step=2,delay=0.1",
            ),
        )
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            final = np.array(solver.run(state, 5), copy=True)
            stats = replace(solver.runner.fault_stats)
            health = solver.runner.backend.worker_health(0)
        assert stats.hangs_detected == 1
        assert 1.0 <= stats.hang_detect_seconds <= 2.0
        assert stats.retries == stats.retry_successes
        assert stats.retries in (1, 2)
        assert (health.hangs, health.crashes) == (1, 0)
        assert health.consecutive_failures == 0
        wedged = next(
            m for kind, m in pipe_log if kind == "send" and m[0] == "steps"
            and m[6]
        )
        position = pipe_log.index(("send", wedged))
        assert pipe_log[position + 1] == ("recv", "ready")
        assert not [m for kind, m in pipe_log if kind == "send" and m[0] == "refresh"]
        np.testing.assert_array_equal(final, self._reference(5))

    def test_parent_crash_refresh_waits_for_the_reply(
        self, monkeypatch, pipe_log
    ):
        """Island 1 crashes in the parent while island 0's command is in
        flight.  Its in-place refresh takes the worker's lock, so it is
        sent only once island 0's reply has been read: every reply goes
        to the command that asked for it (a misrouted one would break
        the timed results) and nothing is mistaken for a hang."""
        _slow_sweep(monkeypatch, 0.3, island=0)
        config = EngineConfig(
            backend="procs",
            workers=1,
            max_retries=2,
            step_deadline=2.0,
            collect_timings=True,
            fault_specs=(
                "crash@island=1,step=2",
                "slow@island=1,step=2,delay=0.1",
            ),
        )
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            backend = solver.runner.backend
            pid = backend._handles[0].process.pid
            final = np.array(solver.run(state, 4), copy=True)
            stats = replace(solver.runner.fault_stats)
            timings = solver.last_step_stats.timings
            assert backend._handles[0].process.pid == pid  # refreshed in place
        sent = read = 0
        refreshes = 0
        for kind, message in pipe_log:
            if kind == "send" and message[0] == "steps":
                sent += 1
            elif kind == "recv" and message != "ready":
                read += 1
            elif kind == "send" and message[0] == "refresh":
                assert sent == read  # no command in flight
                refreshes += 1
                sent += 1
        assert refreshes == 1
        assert stats.injected_crashes == 1
        assert stats.retries == stats.retry_successes == 1
        assert stats.hangs_detected == 0
        assert len(timings.island_seconds) == 2
        np.testing.assert_array_equal(final, self._reference(4))

    def test_eight_islands_on_one_worker_under_fast_thread_switching(
        self, pipe_log
    ):
        """Eight dispatch threads share one worker while the interpreter
        switches threads every few microseconds: exchange steps issue
        one command per island and stage.  A reply read by the wrong
        command would end a stage before its island was done and break
        the trajectory; sends and replies alternate, and every command
        is answered.  The run is time-bounded, so a lock that is never
        released fails the test instead of hanging it."""
        config = EngineConfig(
            backend="procs", workers=1, step_deadline=5.0, halo="exchange"
        )
        state = random_state(SHAPE, seed=7)
        seen = {}

        def run():
            with MpdataIslandSolver(SHAPE, 8, config=config) as solver:
                seen["final"] = np.array(solver.run(state, 10), copy=True)
                ledger = solver.runner.halo_ledger
                seen["commands"] = sum(
                    not ledger.compute_boxes[island][stage].is_empty()
                    for island in range(8)
                    for stage in ledger.active_stages
                )
                seen["stats"] = replace(solver.runner.fault_stats)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=300.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        final, commands, stats = seen["final"], seen["commands"], seen["stats"]
        traffic = [
            kind
            for kind, message in pipe_log
            if (kind == "send" and message[0] == "stage")
            or (kind == "recv" and message != "ready")
        ]
        assert traffic == ["send", "recv"] * (commands * 10)
        assert stats == FaultStats()
        np.testing.assert_array_equal(final, self._reference(10))

    def test_shared_workers_alternate_under_exchange(self, monkeypatch):
        """Four islands on two workers under exchange: each worker's
        pipe carries one stage command, then its reply, and so on —
        never a second command before the first reply."""
        from multiprocessing.connection import Connection

        by_pipe = {}
        parent = os.getpid()
        send, recv = Connection.send, Connection.recv

        def logged_send(conn, message):
            send(conn, message)
            if os.getpid() == parent and message[0] == "stage":
                by_pipe.setdefault(id(conn), []).append("send")

        def logged_recv(conn):
            message = recv(conn)
            if os.getpid() == parent and message[0] != "ready":
                by_pipe.setdefault(id(conn), []).append("recv")
            return message

        monkeypatch.setattr(Connection, "send", logged_send)
        monkeypatch.setattr(Connection, "recv", logged_recv)
        config = EngineConfig(
            backend="procs", workers=2, step_deadline=5.0, halo="exchange"
        )
        with MpdataIslandSolver(SHAPE, 4, config=config) as solver:
            final = np.array(
                solver.run(random_state(SHAPE, seed=7), 5), copy=True
            )
            stats = replace(solver.runner.fault_stats)
        assert len(by_pipe) == 2
        for traffic in by_pipe.values():
            assert traffic == ["send", "recv"] * (len(traffic) // 2)
            assert traffic
        assert stats == FaultStats()
        np.testing.assert_array_equal(final, self._reference(5))


class TestQuarantineAndRemap:
    def test_repeated_hangs_quarantine_and_remap(self):
        # Islands 0,2 live on worker 0; island 2 hangs twice, crossing
        # quarantine_after=2, so worker 0 is retired and both of its
        # islands move to worker 1 — without aborting the run.
        config = EngineConfig(
            backend="procs",
            workers=2,
            max_retries=3,
            step_deadline=2.0,
            quarantine_after=2,
            fault_specs=("hang@island=2,step=5,attempts=2",),
        )
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 4, config=config) as solver:
            final = np.array(solver.run(state, 50), copy=True)
            stats = replace(solver.runner.fault_stats)
            backend = solver.runner.backend
            assert backend.worker_health(0).quarantined
            assert not backend.worker_health(1).quarantined
            assert not backend.serial_fallback
            assert backend._handles[0].islands == ()
            assert sorted(backend._handles[1].islands) == [0, 1, 2, 3]
        assert stats.hangs_detected == 2
        assert stats.quarantines == 1
        assert stats.islands_remapped == 2
        ref, _ = _trajectory(EngineConfig(backend="interpreter"), islands=4)
        assert np.array_equal(final, ref)

    def test_quarantine_disabled_respawns_forever(self):
        config = EngineConfig(
            backend="procs",
            max_retries=3,
            step_deadline=2.0,
            quarantine_after=None,
            fault_specs=("hang@island=1,step=3,attempts=2",),
        )
        final, stats = _trajectory(config, steps=8)
        assert stats.hangs_detected == 2
        assert stats.quarantines == 0
        assert stats.islands_remapped == 0
        ref, _ = _trajectory(EngineConfig(backend="interpreter"), steps=8)
        assert np.array_equal(final, ref)

    def test_crashes_also_count_toward_quarantine(self):
        # kill faults (dead pipe, not hang) cross the same threshold.
        config = EngineConfig(
            backend="procs",
            workers=2,
            max_retries=3,
            step_deadline=5.0,
            quarantine_after=2,
            fault_specs=("kill@island=2,step=4,attempts=2",),
        )
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 4, config=config) as solver:
            final = np.array(solver.run(state, 10), copy=True)
            stats = replace(solver.runner.fault_stats)
            backend = solver.runner.backend
            assert backend.worker_health(0).crashes == 2
            assert backend.worker_health(0).quarantined
        assert stats.quarantines == 1
        assert stats.islands_remapped == 2
        ref, _ = _trajectory(
            EngineConfig(backend="interpreter"), steps=10, islands=4
        )
        assert np.array_equal(final, ref)


class TestSerialFallback:
    def test_pool_exhaustion_degrades_to_serial(self):
        # One worker serves both islands and keeps hanging: it gets
        # quarantined, no survivor remains, and the parent finishes the
        # run itself — with the remaining hang faults skipped gracefully.
        config = EngineConfig(
            backend="procs",
            workers=1,
            max_retries=4,
            step_deadline=2.0,
            quarantine_after=2,
            fault_specs=("hang@island=1,step=2,attempts=5",),
        )
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            final = np.array(solver.run(state, 10), copy=True)
            stats = replace(solver.runner.fault_stats)
            assert solver.runner.backend.serial_fallback
        assert stats.hangs_detected == 2
        assert stats.quarantines == 1
        assert stats.islands_remapped == 2
        assert stats.injected_hangs >= 3  # later firings skipped in serial
        ref, _ = _trajectory(EngineConfig(backend="interpreter"), steps=10)
        assert np.array_equal(final, ref)

    def test_serial_fallback_under_recovery_reports_pool_serial(self):
        config = EngineConfig(
            backend="procs",
            workers=1,
            max_retries=4,
            step_deadline=2.0,
            quarantine_after=1,
            fault_specs=("hang@island=0,step=1,attempts=2",),
        )
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            final = solver.run(
                state, 10, recovery=RecoveryPolicy(checkpoint_every=5)
            )
            report = solver.last_recovery_report
            final = np.array(final, copy=True)
        assert report.pool_serial
        assert not report.clean
        assert report.fault_stats.quarantines == 1
        assert "worker pool exhausted" in report.render()
        ref, _ = _trajectory(EngineConfig(backend="interpreter"), steps=10)
        assert np.array_equal(final, ref)

    def test_serial_fallback_exchange_mode(self):
        config = EngineConfig(
            backend="procs",
            halo="exchange",
            workers=1,
            max_retries=4,
            step_deadline=2.0,
            quarantine_after=1,
            fault_specs=("hang@island=1,step=1,attempts=2",),
        )
        final, stats = _trajectory(config, steps=8)
        assert stats.quarantines == 1
        ref, _ = _trajectory(EngineConfig(backend="interpreter"), steps=8)
        assert np.array_equal(final, ref)


class TestBoundedLifecycle:
    def test_refresh_of_wedged_worker_is_bounded(self):
        # SIGSTOP wedges the worker without killing it: the old refresh
        # blocked in recv() forever; the bounded path respawns instead.
        config = EngineConfig(backend="procs", step_deadline=2.0)
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            solver.run(state, 1)
            backend = solver.runner.backend
            handle = backend._handles[0]
            old_pid = handle.process.pid
            os.kill(old_pid, signal.SIGSTOP)
            begin = time.perf_counter()
            backend.refresh(0)
            elapsed = time.perf_counter() - begin
            assert elapsed < 15.0
            assert handle.process.pid != old_pid
            assert handle.process.is_alive()
            final = np.array(solver.run(state, 4), copy=True)
        ref, _ = _trajectory(EngineConfig(backend="interpreter"), steps=4)
        assert np.array_equal(final, ref)

    def test_close_joins_wedged_workers_concurrently(self):
        # Two SIGSTOPped workers under the old sequential 5s-per-worker
        # join cost 10s+; the shared-deadline close stays near one grace.
        config = EngineConfig(backend="procs")
        state = random_state(SHAPE, seed=7)
        solver = MpdataIslandSolver(SHAPE, 2, config=config)
        try:
            solver.run(state, 1)
            backend = solver.runner.backend
            pids = [h.process.pid for h in backend._handles]
            assert len(pids) == 2
            for pid in pids:
                os.kill(pid, signal.SIGSTOP)
            backend._close_grace = 1.0
            begin = time.perf_counter()
            solver.close()
            elapsed = time.perf_counter() - begin
            assert elapsed < 4.0
            for handle in backend._handles:
                assert handle.process is None
        finally:
            solver.close()


class TestSupervisionConfig:
    def test_defaults_supervise_adaptively(self):
        config = EngineConfig(backend="procs")
        assert config.step_deadline is None
        assert config.deadline_factor == 8.0
        assert config.quarantine_after == 3

    def test_step_deadline_requires_procs(self):
        with pytest.raises(ValueError, match="procs-backend option"):
            EngineConfig(backend="native", step_deadline=1.0)

    def test_validation_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="step_deadline"):
            EngineConfig(backend="procs", step_deadline=0.0)
        with pytest.raises(ValueError, match="deadline_factor"):
            EngineConfig(backend="procs", deadline_factor=-1.0)
        with pytest.raises(ValueError, match="quarantine_after"):
            EngineConfig(backend="procs", quarantine_after=0)

    def test_round_trips_through_dict(self):
        config = EngineConfig(
            backend="procs",
            step_deadline=1.5,
            deadline_factor=None,
            quarantine_after=5,
        )
        data = config.to_dict()
        assert data["step_deadline"] == 1.5
        assert data["deadline_factor"] is None
        assert data["quarantine_after"] == 5
        assert EngineConfig.from_dict(data) == config

    def test_cli_flags_parse_and_map(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "engine",
                "--backend", "procs",
                "--step-deadline", "2.5",
                "--deadline-factor", "4",
                "--quarantine-after", "2",
            ]
        )
        config = EngineConfig.from_cli_args(args)
        assert config.step_deadline == 2.5
        assert config.deadline_factor == 4.0
        assert config.quarantine_after == 2

    def test_cli_zero_disables_supervision_halves(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "engine",
                "--backend", "procs",
                "--deadline-factor", "0",
                "--quarantine-after", "0",
            ]
        )
        config = EngineConfig.from_cli_args(args)
        assert config.deadline_factor is None
        assert config.quarantine_after is None

    def test_cli_flags_require_procs_backend(self, capsys):
        parser = build_parser()
        for flag in (
            ["--step-deadline", "1.0"],
            ["--deadline-factor", "4"],
            ["--quarantine-after", "2"],
        ):
            args = parser.parse_args(["engine", *flag])
            with pytest.raises(SystemExit):
                _validate_engine_args(parser, args)
            assert "requires --backend procs" in capsys.readouterr().err

    def test_cli_defaults_keep_config_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["engine", "--backend", "procs"])
        config = EngineConfig.from_cli_args(args)
        assert config.deadline_factor == 8.0
        assert config.quarantine_after == 3

    def test_recovery_report_renders_supervision_lines(self):
        report = RecoveryReport(steps=10, completed_steps=10)
        report.fault_stats = FaultStats(
            injected_hangs=2,
            hangs_detected=2,
            hang_detect_seconds=3.0,
            quarantines=1,
            islands_remapped=2,
        )
        text = report.render()
        assert "2 hang" in text
        assert "hangs detected      2" in text
        assert "1.500s" in text  # mean detection latency
        assert "workers quarantined 1 (2 islands remapped)" in text


@pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)
class TestChaosBenchmarkSmoke:
    """Tier-1 smoke wiring of benchmarks/bench_chaos.py."""

    def _load_bench(self):
        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "bench_chaos.py"
        )
        spec = importlib.util.spec_from_file_location("bench_chaos", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_smoke_run_meets_acceptance(self):
        bench = self._load_bench()
        payload = bench.run(smoke=True)
        assert bench._passed(payload, smoke=True)
        storms = payload["storms"]
        assert storms["hang"]["mean_detect_s"] is not None
        assert storms["quarantine"]["islands_remapped"] == 2
        assert not storms["quarantine"]["serial_fallback"]

    def test_measure_writes_json(self, tmp_path):
        bench = self._load_bench()
        path = tmp_path / "chaos.json"
        bench.run(smoke=True, json_path=path)
        assert path.exists()
