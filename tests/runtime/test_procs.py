"""Tests for the ``procs`` backend: true multi-core islands.

Covers bit-identity of the process-parallel backend against the
interpreter under every halo policy, real SIGKILL crash recovery through
:class:`ResilientExecutor` (the worker actually dies; the respawn rebinds
shared memory), steady-state zero-allocation stepping in the parent,
worker multiplexing, shared-memory teardown (no leaked ``/dev/shm``
segments on normal exit, crash recovery, abandonment, or SIGINT), config
validation, and thread-safe telemetry recording.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core import Variant
from repro.mpdata import BOUNDARY_MODES, MpdataSolver, random_state
from repro.mpdata.stages import FIELD_X
from repro.runtime import (
    BACKENDS,
    EngineConfig,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    InMemorySink,
    JsonlSink,
    MpdataIslandSolver,
    ProcsBackend,
    RecoveryPolicy,
    SharedArena,
    Telemetry,
    native_available,
)
from repro.runtime.procs import SEGMENT_PREFIX, live_segment_names

SHAPE = (16, 12, 8)

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)


def _shm_segments():
    """This process's procs segments: the arena tags every segment name
    with the pid of the process that created it."""
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-{os.getpid()}-*")


def _trajectory(config, steps=50, islands=2, telemetry=None, injector=None):
    state = random_state(SHAPE, seed=7)
    with MpdataIslandSolver(
        SHAPE,
        islands,
        config=config,
        telemetry=telemetry,
        fault_injector=injector,
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


class TestProcsBitIdentity:
    @pytest.fixture(scope="class")
    def reference(self):
        final, _ = _trajectory(EngineConfig(backend="interpreter"))
        return final

    def test_recompute_bit_identical_50_steps(self, reference):
        final, _ = _trajectory(EngineConfig(backend="procs"))
        assert np.array_equal(final, reference)

    def test_exchange_bit_identical_50_steps(self, reference):
        final, _ = _trajectory(
            EngineConfig(backend="procs", halo="exchange")
        )
        assert np.array_equal(final, reference)

    def test_interpreter_inner_bit_identical(self, reference):
        final, _ = _trajectory(
            EngineConfig(backend="procs", procs_inner="interpreter"),
            steps=10,
        )
        ref10, _ = _trajectory(EngineConfig(), steps=10)
        assert np.array_equal(final, ref10)

    @needs_native
    def test_native_inner_bit_identical(self, reference):
        final, _ = _trajectory(
            EngineConfig(backend="procs", procs_inner="native"),
            steps=10,
        )
        ref10, _ = _trajectory(EngineConfig(), steps=10)
        assert np.array_equal(final, ref10)

    @needs_native
    def test_native_inner_exchange_50_steps(self, reference):
        final, _ = _trajectory(
            EngineConfig(backend="procs", procs_inner="native", halo="exchange")
        )
        assert np.array_equal(final, reference)

    def test_workers_fewer_than_islands(self, reference):
        final, _ = _trajectory(
            EngineConfig(backend="procs", workers=2), islands=4
        )
        ref4, _ = _trajectory(EngineConfig(), islands=4)
        assert np.array_equal(final, ref4)

    def test_non_reuse_mode_bit_identical(self, reference):
        final, _ = _trajectory(
            EngineConfig(backend="procs", reuse_output=False),
            steps=5,
        )
        ref5, _ = _trajectory(EngineConfig(), steps=5)
        assert np.array_equal(final, ref5)


@needs_native
class TestGatheredInputs:
    """Native procs workers under ``recompute`` gather ``x`` from the
    shared output buffer that holds it; the static inputs keep their
    ghost buffers, filled once per run."""

    GRID = (32, 16, 8)

    def _run(self, config, steps=50, variant=Variant.A, recovery=None):
        state = random_state(self.GRID, seed=11)
        with MpdataIslandSolver(
            self.GRID, 4, variant, config=config
        ) as solver:
            final = np.array(
                solver.run(state, steps, recovery=recovery), copy=True
            )
            runner = solver.runner
            assert runner.backend.raw_inputs == {FIELD_X}
            assert FIELD_X not in runner._ghost
            report = solver.last_recovery_report
        return final, report

    @pytest.mark.parametrize("variant", [Variant.A, Variant.B])
    @pytest.mark.parametrize("boundary", BOUNDARY_MODES)
    def test_matches_the_whole_domain_solver(self, boundary, variant):
        config = EngineConfig(
            backend="procs", procs_inner="native", workers=2,
            boundary=boundary,
        )
        final, _ = self._run(config, variant=variant)
        expected = MpdataSolver(self.GRID, boundary=boundary).run(
            random_state(self.GRID, seed=11), 50
        )
        np.testing.assert_array_equal(final, expected)

    def test_without_output_reuse(self):
        config = EngineConfig(
            backend="procs", procs_inner="native", workers=2,
            reuse_output=False,
        )
        final, _ = self._run(config, steps=10)
        expected = MpdataSolver(self.GRID).run(
            random_state(self.GRID, seed=11), 10
        )
        np.testing.assert_array_equal(final, expected)

    def test_rollback_restages_x(self):
        """A corrupted step trips the guard; the rollback feeds the
        checkpointed ``x``, a foreign array, which is staged again."""
        config = EngineConfig(
            backend="procs", procs_inner="native", workers=2,
            fault_specs=("corrupt@island=1,step=7",),
        )
        final, report = self._run(
            config, steps=12, recovery=RecoveryPolicy(checkpoint_every=5)
        )
        assert report.guard_trips == 1 and report.rollbacks == 1
        expected = MpdataSolver(self.GRID).run(
            random_state(self.GRID, seed=11), 12
        )
        np.testing.assert_array_equal(final, expected)

    def test_steady_steps_read_x_in_place(self):
        """After the first step the previous output is handed over as it
        is: nothing copies ``x`` or refills a ghost buffer."""
        config = EngineConfig(
            backend="procs", procs_inner="native", workers=2,
            reuse_output=True,
        )
        state = random_state(self.GRID, seed=11)
        with MpdataIslandSolver(self.GRID, 4, config=config) as solver:
            runner = solver.runner
            arrays = solver._arrays(state)
            arrays[FIELD_X] = runner.step(arrays)
            first = arrays[FIELD_X]
            for _ in range(4):
                inputs = runner.extend_inputs(arrays, changed={FIELD_X})
                assert inputs[FIELD_X].data is arrays[FIELD_X]
                assert runner._last_ghost_counts == (0, 4)
                arrays[FIELD_X] = runner.step(arrays, changed={FIELD_X})
                assert runner.last_step_stats.allocations == 0
            assert arrays[FIELD_X] is first  # two buffers alternate

    def test_direct_backend_calls_with_foreign_buffers(self):
        """A caller driving the backend itself, with its own ghost-extended
        inputs and output array, gets the whole-domain step."""
        config = EngineConfig(backend="procs", procs_inner="native", workers=2)
        state = random_state(self.GRID, seed=11)
        expected = MpdataSolver(self.GRID).run(state, 1)
        inputs = MpdataSolver(self.GRID).prepare_inputs(state)
        with MpdataIslandSolver(self.GRID, 4, config=config) as solver:
            backend = solver.runner.backend
            out = np.zeros(self.GRID)
            for island in solver.decomposition.islands:
                backend.execute_island(island, inputs, out)
        np.testing.assert_array_equal(out, expected)

    def test_serial_fallback_reads_the_shared_buffers(self):
        config = EngineConfig(
            backend="procs", procs_inner="native", workers=1,
            max_retries=4, step_deadline=2.0, quarantine_after=1,
            fault_specs=("hang@island=0,step=2",),
        )
        final, _ = self._run(config, steps=6)
        expected = MpdataSolver(self.GRID).run(
            random_state(self.GRID, seed=11), 6
        )
        np.testing.assert_array_equal(final, expected)


class TestProcsSteadyState:
    def test_zero_parent_allocations_per_step(self):
        state = random_state(SHAPE, seed=7)
        config = EngineConfig(backend="procs", reuse_output=True)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            arrays = solver._arrays(state)
            arrays[FIELD_X] = solver.runner.step(arrays)  # warm-up
            for _ in range(3):
                arrays[FIELD_X] = solver.runner.step(
                    arrays, changed={FIELD_X}
                )
                assert solver.last_step_stats.allocations == 0

    def test_zero_allocations_under_exchange(self):
        state = random_state(SHAPE, seed=7)
        config = EngineConfig(
            backend="procs", halo="exchange", reuse_output=True
        )
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            arrays = solver._arrays(state)
            arrays[FIELD_X] = solver.runner.step(arrays)
            arrays[FIELD_X] = solver.runner.step(arrays, changed={FIELD_X})
            stats = solver.last_step_stats
            assert stats.allocations == 0
            assert stats.exchanged_bytes > 0

    def test_threads_bumped_to_island_count(self):
        config = EngineConfig(backend="procs", threads=1)
        with MpdataIslandSolver(SHAPE, 4, config=config) as solver:
            assert solver.runner.threads == 4


class TestProcsCrashRecovery:
    """A SIGKILLed worker is a real fault, recovered bit-identically."""

    @pytest.fixture(scope="class")
    def reference(self):
        final, _ = _trajectory(EngineConfig(backend="interpreter"))
        return final

    def test_sigkill_recovery_recompute(self, reference):
        config = EngineConfig(
            backend="procs",
            max_retries=2,
            fault_specs=("kill@island=1,step=7",),
        )
        final, stats = _trajectory(config)
        assert stats.injected_kills == 1
        assert stats.retries == 1
        assert stats.retry_successes == 1
        assert np.array_equal(final, reference)

    def test_sigkill_recovery_exchange(self, reference):
        config = EngineConfig(
            backend="procs",
            halo="exchange",
            max_retries=3,
            fault_specs=("kill@island=0,step=11",),
        )
        final, stats = _trajectory(config)
        assert stats.injected_kills == 1
        assert stats.retry_successes >= 1
        assert np.array_equal(final, reference)

    def test_sigkill_on_multiplexed_worker(self, reference):
        # Two islands share the killed worker: both must come back.
        config = EngineConfig(
            backend="procs",
            workers=2,
            max_retries=3,
            fault_specs=("kill@island=2,step=5",),
        )
        final, stats = _trajectory(config, islands=4)
        ref4, _ = _trajectory(EngineConfig(), islands=4)
        assert stats.injected_kills == 1
        assert np.array_equal(final, ref4)

    def test_worker_pid_changes_after_kill(self):
        state = random_state(SHAPE, seed=7)
        config = EngineConfig(
            backend="procs",
            max_retries=2,
            fault_specs=("kill@island=1,step=2",),
        )
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            backend = solver.runner.backend
            pids_before = [h.process.pid for h in backend._handles]
            solver.run(random_state(SHAPE, seed=7), 5)
            pids_after = [h.process.pid for h in backend._handles]
            assert pids_before[0] == pids_after[0]  # island 0 untouched
            assert pids_before[1] != pids_after[1]  # island 1 respawned

    def test_kill_exhausting_retries_fails_the_step(self):
        config = EngineConfig(
            backend="procs",
            max_retries=1,
            fault_specs=("kill@island=0,step=1,attempts=5",),
        )
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            with pytest.raises(Exception, match="island 0"):
                solver.run(state, 3)

    @needs_native
    def test_kill_degrades_to_crash_in_process_backends(self):
        # In-process backends have no separate executor to kill, so the
        # kill fault must degrade to an injected crash and still recover.
        config = EngineConfig(
            backend="native",
            max_retries=2,
            fault_specs=("kill@island=1,step=3",),
        )
        final, stats = _trajectory(config, steps=10)
        ref, _ = _trajectory(EngineConfig(), steps=10)
        assert stats.injected_kills == 1
        assert stats.retry_successes == 1
        assert np.array_equal(final, ref)

    @needs_native
    def test_kill_with_no_retry_budget_raises(self):
        injector = FaultInjector([FaultSpec(kind="kill", island=0, step=0)])
        config = EngineConfig(backend="native")
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(
            SHAPE, 2, config=config, fault_injector=injector
        ) as solver:
            with pytest.raises(Exception):
                solver.run(state, 1)


class TestSharedMemoryTeardown:
    def test_normal_close_unlinks_everything(self):
        config = EngineConfig(backend="procs")
        state = random_state(SHAPE, seed=7)
        solver = MpdataIslandSolver(SHAPE, 2, config=config)
        backend = solver.runner.backend
        solver.run(state, 2)
        assert backend._arena.segment_names  # segments existed
        solver.close()
        assert not _shm_segments()
        assert not live_segment_names()

    def test_close_is_idempotent(self):
        config = EngineConfig(backend="procs")
        solver = MpdataIslandSolver(SHAPE, 2, config=config)
        solver.close()
        solver.close()
        assert not _shm_segments()

    def test_abandoned_backend_is_finalized_by_gc(self):
        config = EngineConfig(backend="procs")
        solver = MpdataIslandSolver(SHAPE, 2, config=config)
        solver.run(random_state(SHAPE, seed=7), 1)
        finalizer = solver.runner.backend._finalizer
        del solver  # never closed: the weakref.finalize guard must fire
        import gc

        gc.collect()
        assert not finalizer.alive
        assert not _shm_segments()

    def test_arena_close_survives_live_views(self):
        arena = SharedArena(f"{SEGMENT_PREFIX}-{os.getpid()}-test")
        array = arena.allocate((4, 4), np.float64)
        array[...] = 1.0
        arena.close()  # view still alive: unlink must happen anyway
        assert not _shm_segments()
        assert not live_segment_names()
        del array
        arena.close()  # idempotent

    def test_result_readable_after_close(self, tmp_path):
        """Under reuse_output, run() returns an array in shared memory;
        reading it after close() must not touch unmapped memory, and the
        segments must still be gone."""
        script = tmp_path / "read_after_close.py"
        script.write_text(
            "import numpy as np\n"
            "from repro.mpdata import random_state\n"
            "from repro.runtime import EngineConfig, MpdataIslandSolver\n"
            "from repro.runtime.procs import live_segment_names\n"
            "shape = (16, 12, 8)\n"
            "config = EngineConfig(\n"
            "    backend='procs', workers=2, reuse_output=True)\n"
            "solver = MpdataIslandSolver(shape, 2, config=config)\n"
            "final = solver.run(random_state(shape, seed=7), 3)\n"
            "copy = np.array(final, copy=True)\n"
            "names = live_segment_names()\n"
            "solver.close()\n"
            "print(bool(np.array_equal(final, copy)), final.sum() > 0)\n"
            "print(len(live_segment_names()))\n"
            "print(*names)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            env=env,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        verdict, count, names = proc.stdout.splitlines()
        assert verdict.split() + count.split() == ["True", "True", "0"]
        assert "Exception ignored" not in proc.stderr
        assert names.split()
        assert not [
            name for name in names.split() if os.path.exists(f"/dev/shm/{name}")
        ]

    def test_segments_cleaned_after_crash_recovery(self):
        config = EngineConfig(
            backend="procs",
            max_retries=2,
            fault_specs=("kill@island=0,step=1",),
        )
        _trajectory(config, steps=4)
        assert not _shm_segments()

    def test_keyboard_interrupt_leaves_no_segments(self, tmp_path):
        """SIGINT mid-run: the interpreter-exit finalizer must unlink."""
        script = tmp_path / "interrupted.py"
        script.write_text(
            "import signal, sys\n"
            "from repro.mpdata import random_state\n"
            "from repro.runtime import EngineConfig, MpdataIslandSolver\n"
            "from repro.runtime.procs import live_segment_names\n"
            "shape = (16, 12, 8)\n"
            "solver = MpdataIslandSolver(\n"
            "    shape, 2, config=EngineConfig(backend='procs'))\n"
            "state = random_state(shape, seed=7)\n"
            "solver.run(state, 1)\n"
            "print('READY', *live_segment_names(), flush=True)\n"
            "solver.run(state, 10_000)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        # The with block closes the stdout pipe on every path out.
        with subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        ) as proc:
            try:
                ready, *names = proc.stdout.readline().split()
                assert ready == "READY" and names
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert not [
            name for name in names if os.path.exists(f"/dev/shm/{name}")
        ]

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="needs Linux /proc"
    )
    def test_sigkilled_parent_leaves_no_workers_or_segments(self, tmp_path):
        """SIGKILL skips every finalizer in the parent, so the workers
        must notice the dead parent on their own: their command pipes hit
        EOF, they exit, and the segments they kept mapped are unlinked."""
        _sigkill_after_one_step(tmp_path, "")

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="needs Linux /proc"
    )
    def test_sigkilled_parent_after_respawn_leaves_no_workers(
        self, tmp_path
    ):
        """A worker re-forked after a kill inherits the parent ends of
        its siblings' pipes too; it must close them like the first."""
        forked, killed = _sigkill_after_one_step(
            tmp_path, "max_retries=2, fault_specs=('kill@island=1,step=0',)"
        )
        assert forked[0] == killed[0] and forked[1] != killed[1]


def _sigkill_after_one_step(tmp_path, extra_config):
    """Build procs with 2 workers (``extra_config`` appended to the
    ``EngineConfig`` arguments), step once, SIGKILL the process; within
    10 s the workers alive at the kill and the segments must be gone.
    Returns the worker pids at construction and at the kill."""
    script = tmp_path / "killed.py"
    script.write_text(
        "import os, signal\n"
        "from repro.mpdata import random_state\n"
        "from repro.runtime import EngineConfig, MpdataIslandSolver\n"
        "from repro.runtime.procs import live_segment_names\n"
        "shape = (16, 12, 8)\n"
        "config = EngineConfig(\n"
        f"    backend='procs', workers=2, {extra_config})\n"
        "solver = MpdataIslandSolver(shape, 2, config=config)\n"
        "handles = solver.runner.backend._handles\n"
        "print(*(handle.process.pid for handle in handles))\n"
        "solver.run(random_state(shape, seed=7), 1)\n"
        "print(*(handle.process.pid for handle in handles))\n"
        "print(*live_segment_names(), flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    # Read the three report lines, then wait for the process itself:
    # waiting for EOF instead would also wait for any worker that
    # kept the inherited stdout open.
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    with proc.stdout:
        forked = [int(pid) for pid in proc.stdout.readline().split()]
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        segments = [
            f"/dev/shm/{name}" for name in proc.stdout.readline().split()
        ]
    assert proc.wait(timeout=120) == -signal.SIGKILL
    assert len(forked) == len(pids) == 2 and segments

    def running(pid):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        return state != "Z"  # a zombie has exited; only reaping is left

    def leftovers():
        return [pid for pid in pids if running(pid)], [
            path for path in segments if os.path.exists(path)
        ]

    deadline = time.monotonic() + 10.0
    try:
        while any(leftovers()) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert leftovers() == ([], [])
    finally:
        for pid in leftovers()[0]:
            os.kill(pid, signal.SIGKILL)
    return forked, pids


class TestProcsConfig:
    def test_workers_requires_procs_backend(self):
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(backend="native", workers=2)

    def test_pin_workers_requires_procs_backend(self):
        with pytest.raises(ValueError, match="pin_workers"):
            EngineConfig(backend="interpreter", pin_workers=True)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(backend="procs", workers=0)

    def test_unknown_inner_rejected(self):
        with pytest.raises(ValueError, match="procs_inner"):
            EngineConfig(backend="procs", procs_inner="tiled")

    def test_round_trip(self):
        config = EngineConfig(
            backend="procs", workers=3, pin_workers=True,
            procs_inner="interpreter",
        )
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_registered_in_backends(self):
        assert BACKENDS["procs"] is ProcsBackend

    def test_cli_backend_procs(self):
        parser = build_parser()
        args = parser.parse_args(
            ["engine", "--backend", "procs", "--workers", "2",
             "--pin-workers"]
        )
        config = EngineConfig.from_cli_args(args)
        assert config.backend == "procs"
        assert config.workers == 2
        assert config.pin_workers is True
        assert config.procs_inner == "interpreter"

    def test_cli_backend_procs_native_inner(self):
        parser = build_parser()
        args = parser.parse_args(
            ["engine", "--backend", "procs", "--procs-inner", "native"]
        )
        config = EngineConfig.from_cli_args(args)
        assert config.backend == "procs"
        assert config.procs_inner == "native"

    def test_cli_workers_without_procs_rejected(self):
        from repro.cli import _validate_engine_args

        parser = build_parser()
        args = parser.parse_args(["engine", "--workers", "2"])
        with pytest.raises(SystemExit):
            _validate_engine_args(parser, args)

    def test_workers_clamped_to_island_count(self):
        config = EngineConfig(backend="procs", workers=64)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            assert solver.runner.backend.workers == 2


class TestTelemetryConcurrency:
    """StepEvents from many producer threads merge into intact records."""

    def test_jsonl_rows_never_interleave(self, tmp_path):
        from repro.runtime import StepEvent, StepStats

        path = tmp_path / "telemetry.jsonl"
        sink = JsonlSink(path)
        telemetry = Telemetry([sink])
        steps_per_thread = 50

        def producer(thread_id):
            for i in range(steps_per_thread):
                telemetry.record(
                    StepEvent(
                        step=thread_id * steps_per_thread + i,
                        wall_seconds=0.001,
                        stats=StepStats(allocations=thread_id, reused=i),
                    )
                )

        threads = [
            threading.Thread(target=producer, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        telemetry.close()

        lines = path.read_text().splitlines()
        assert len(lines) == 4 * steps_per_thread
        seen = set()
        for line in lines:
            row = json.loads(line)  # raises if a row was torn
            seen.add(row["step"])
        assert len(seen) == 4 * steps_per_thread

    def test_procs_step_events_merge_island_timings(self, tmp_path):
        path = tmp_path / "procs.jsonl"
        sink = InMemorySink()
        telemetry = Telemetry([sink, JsonlSink(path)])
        config = EngineConfig(backend="procs", collect_timings=True)
        _trajectory(config, steps=3, telemetry=telemetry)

        assert len(sink.events) == 3
        for event in sink.events:
            timings = event.stats.timings
            assert timings is not None
            assert len(timings.island_seconds) == 2  # one entry per island
            assert all(s > 0 for s in timings.island_seconds)
            assert timings.stage_seconds  # worker stage times crossed over
        rows = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(rows) == 3
        assert all(len(r["timings"]["island_seconds"]) == 2 for r in rows)


class TestProcsRecoveryIntegration:
    """Rollback-and-replay (checkpointed recovery) over worker processes."""

    def test_corrupt_fault_rolls_back_over_procs(self):
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(
            SHAPE, 2, config=EngineConfig(backend="interpreter")
        ) as ref_solver:
            expected = np.array(ref_solver.run(state, 12), copy=True)

        config = EngineConfig(
            backend="procs",
            max_retries=2,
            fault_specs=("corrupt@island=1,step=8",),
        )
        policy = RecoveryPolicy(checkpoint_every=4, max_rollbacks=2)
        with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
            final = solver.run(state, 12, recovery=policy)
            report = solver.last_recovery_report
        assert report.rollbacks == 1
        assert np.array_equal(final, expected)
