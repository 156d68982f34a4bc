"""The native team step: one C call per team member runs an exchange step.

Under ``exchange`` the in-process ``native`` backend runs a step as
``min(threads, islands)`` calls of the native team driver, one per
member: every stage kernel, halo copy and barrier of its islands.
The contracts: bit-identity with the whole-domain solver for every team
size, layout, boundary and dtype; every step at which an injected fault
can fire takes the stage-by-stage path, with its exact firing site; an
aborted step leaves no member waiting and is rerun; a steady-state team
step binds nothing, allocates nothing and still reports its timings.
"""

from __future__ import annotations

import itertools
import sys
import threading

import numpy as np
import pytest

from repro.core import Variant, partition_grid_2d
from repro.mpdata import MpdataSolver, random_state
from repro.mpdata.stages import FIELD_X
from repro.runtime import (
    EngineConfig,
    MpdataIslandSolver,
    RecoveryPolicy,
    native_available,
)
from repro.runtime.backends import TeamStep
from repro.stencil import CompiledPlan, full_box

pytestmark = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)

SHAPE = (32, 16, 16)
STEPS = 20
ISLANDS = 8
#: MPDATA's active stages: one barrier each under exchange.
STAGES = 17
#: Seconds a test waits for a step that must not hang.
JOIN_TIMEOUT = 60.0


@pytest.fixture(scope="module")
def state():
    return random_state(SHAPE, seed=11)


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


def _solver(threads=2, islands=ISLANDS, **kwargs):
    config = EngineConfig(
        backend="native", halo="exchange", threads=threads, **kwargs
    )
    return MpdataIslandSolver(SHAPE, islands, config=config)


def _count_stage_calls(runner):
    """Record ``run_island_stage`` calls per step index."""
    calls = {}
    run_island_stage = runner.resilience.run_island_stage

    def counting(island, stage, step_index, *args, **kwargs):
        calls[step_index] = calls.get(step_index, 0) + 1
        return run_island_stage(island, stage, step_index, *args, **kwargs)

    runner.resilience.run_island_stage = counting
    return calls


def _in_thread(target):
    """Run ``target`` in a thread; returns ``(finished, error)`` after at
    most :data:`JOIN_TIMEOUT` seconds."""
    outcome = {}

    def body():
        try:
            target()
        except BaseException as error:  # handed back to the test
            outcome["error"] = error

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(JOIN_TIMEOUT)
    return not thread.is_alive(), outcome.get("error")


class _Pool:
    """A pool that delegates to the runner's and keeps every future; the
    ``fail_at``-th submit (1-based) raises as a broken pool does."""

    def __init__(self, pool, fail_at=None):
        self.pool = pool
        self.fail_at = fail_at
        self.futures = []

    def submit(self, *args, **kwargs):
        if len(self.futures) + 1 == self.fail_at:
            raise RuntimeError("cannot schedule new futures")
        future = self.pool.submit(*args, **kwargs)
        self.futures.append(future)
        return future

    def shutdown(self, wait=True):
        self.pool.shutdown(wait=wait)


class TestMatchesWholeDomain:
    """20 steps, bit for bit, for every team size and layout."""

    @pytest.mark.parametrize("threads", (1, 2, 3, 4))
    @pytest.mark.parametrize("layout", ("A", "B", "2x2"))
    @pytest.mark.parametrize("boundary", ("periodic", "open"))
    def test_bit_identical(self, state, references, threads, layout, boundary):
        if layout == "2x2":
            partition = partition_grid_2d(full_box(SHAPE), 2, 2)
            layout_kwargs = dict(variant=Variant.GRID_2D, partition=partition)
            islands = partition.count
        else:
            layout_kwargs = dict(variant=Variant(layout))
            islands = ISLANDS
        for dtype, reuse in itertools.product(
            ("float64", "float32"), (True, False)
        ):
            config = EngineConfig(
                backend="native", halo="exchange", threads=threads,
                boundary=boundary, dtype=dtype, reuse_output=reuse,
            )
            with MpdataIslandSolver(
                SHAPE, islands, config=config, **layout_kwargs
            ) as solver:
                got = np.array(solver.run(state, STEPS), copy=True)
                teams = set(solver.runner.backend._teams)
            assert teams == {min(threads, islands)}
            np.testing.assert_array_equal(got, references[boundary, dtype])

    def test_more_members_than_cores_under_fast_thread_switching(
        self, state, references
    ):
        """Eight members, each on one island, with the interpreter
        switching threads every microsecond: a copy that raced its
        stage's barrier would change the bits."""
        result = []

        def run():
            with _solver(threads=8) as solver:
                result.append(np.array(solver.run(state, STEPS), copy=True))
                assert set(solver.runner.backend._teams) == {8}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            finished, error = _in_thread(run)
        finally:
            sys.setswitchinterval(interval)
        assert finished and error is None
        np.testing.assert_array_equal(
            result[0], references["periodic", "float64"]
        )

    def test_flows_read_only_computed_boxes(self):
        """Why one barrier per stage suffices: a flow reads only its
        source's computed box and writes only its destination's halo."""
        with _solver() as solver:
            ledger = solver.runner.halo_ledger
        for stage in ledger.active_stages:
            for flow in ledger.stage_flows[stage]:
                src = ledger.compute_boxes[flow.src][stage]
                dst = ledger.compute_boxes[flow.dst][stage]
                assert src.contains(flow.box)
                assert flow.box.intersect(dst).is_empty()


class TestFaultsTakeTheStagePath:
    def test_crash_step_runs_stage_by_stage(self, state, references):
        with _solver(
            fault_specs=("crash@island=5,step=3",), max_retries=1
        ) as solver:
            runner = solver.runner
            calls = _count_stage_calls(runner)
            teams = {}
            step = runner.step

            def recording_step(arrays, changed=None, step_index=None):
                out = step(arrays, changed=changed, step_index=step_index)
                teams[step_index] = runner.backend._teams.get(2)
                return out

            runner.step = recording_step
            got = np.array(solver.run(state, STEPS), copy=True)
            stats = runner.fault_stats
        assert calls == {3: ISLANDS * STAGES}
        assert stats.retries == 1 and stats.injected_crashes == 1
        # The retry's refresh dropped the tables; step 4 built new ones.
        assert teams[2] is not None and teams[4] is not None
        assert teams[3] is None and teams[4] is not teams[2]
        np.testing.assert_array_equal(got, references["periodic", "float64"])

    def test_corruption_is_rolled_back(self, state, references):
        with _solver(
            fault_specs=("corrupt@island=1,step=2",), max_retries=1
        ) as solver:
            got = np.array(
                solver.run(
                    state, STEPS, recovery=RecoveryPolicy(checkpoint_every=5)
                ),
                copy=True,
            )
            report = solver.last_recovery_report
        assert report.fault_stats.injected_corruptions == 1
        assert report.guard_trips == 1 and report.rollbacks == 1
        np.testing.assert_array_equal(got, references["periodic", "float64"])

    def test_wildcard_fault_keeps_only_its_first_step(self, state, references):
        with _solver(fault_specs=("slow@island=0,delay=0.001",)) as solver:
            calls = _count_stage_calls(solver.runner)
            got = np.array(solver.run(state, STEPS), copy=True)
            stats = solver.runner.fault_stats
        assert calls == {0: ISLANDS * STAGES}
        assert stats.injected_slowdowns == 1
        np.testing.assert_array_equal(got, references["periodic", "float64"])


class TestAbort:
    def test_failed_submit_degrades_and_reruns(self, state, references):
        with _solver(threads=3) as solver:
            runner = solver.runner
            arrays = solver._arrays(state)
            arrays[FIELD_X] = np.array(runner.step(arrays), copy=True)
            pool = runner._pool = _Pool(runner._pool, fail_at=2)
            result = {}

            def second_step():
                result["x"] = np.array(
                    runner.step(arrays, changed={FIELD_X}), copy=True
                )

            finished, error = _in_thread(second_step)
            if not finished:
                runner.backend._teams[3].abort()
            assert finished and error is None
            # The one member that was started left its call.
            assert len(pool.futures) == 1 and pool.futures[0].done()
            assert runner.degraded
            assert set(runner.backend._teams) == {1, 3}
            arrays[FIELD_X] = result["x"]
            for index in range(2, STEPS):
                arrays[FIELD_X] = runner.step(
                    arrays, changed={FIELD_X}, step_index=index
                )
            assert runner.fault_stats.degraded_steps == STEPS - 1
            got = np.array(arrays[FIELD_X], copy=True)
        np.testing.assert_array_equal(got, references["periodic", "float64"])

    def test_calling_thread_exception_leaves_no_member_waiting(
        self, state, references, monkeypatch
    ):
        class Interrupt(Exception):
            pass

        with _solver(threads=2) as solver:
            runner = solver.runner
            arrays = solver._arrays(state)
            arrays[FIELD_X] = np.array(runner.step(arrays), copy=True)
            pool = runner._pool = _Pool(runner._pool)
            run = TeamStep.run

            def failing_run(team, member):
                if member == 0:
                    raise Interrupt("before member 0's call")
                return run(team, member)

            monkeypatch.setattr(TeamStep, "run", failing_run)
            finished, error = _in_thread(
                lambda: runner.step(arrays, changed={FIELD_X}, step_index=1)
            )
            if not finished:
                runner.backend._teams[2].abort()
            assert finished and isinstance(error, Interrupt)
            assert pool.futures and all(f.done() for f in pool.futures)
            assert pool.futures[0].result() == 1  # released by the abort
            monkeypatch.undo()
            for index in range(1, STEPS):
                arrays[FIELD_X] = runner.step(
                    arrays, changed={FIELD_X}, step_index=index
                )
            assert not runner.degraded
            got = np.array(arrays[FIELD_X], copy=True)
        np.testing.assert_array_equal(got, references["periodic", "float64"])


class TestSteadyState:
    @pytest.mark.parametrize("threads", (1, 2))
    def test_steady_team_step_binds_nothing(self, state, monkeypatch, threads):
        with _solver(threads=threads, reuse_output=True) as solver:
            runner = solver.runner
            arrays = solver._arrays(state)
            arrays[FIELD_X] = runner.step(arrays)
            calls = {"call": 0, "bind": 0, "launch": 0}
            call, bind = CompiledPlan.__call__, CompiledPlan._bind

            def counting_call(plan, inputs):
                calls["call"] += 1
                return call(plan, inputs)

            def counting_bind(plan, inputs):
                calls["bind"] += 1
                return bind(plan, inputs)

            monkeypatch.setattr(CompiledPlan, "__call__", counting_call)
            monkeypatch.setattr(CompiledPlan, "_bind", counting_bind)
            for compiled in runner.backend._stage_plans.values():
                build = compiled._bind_stages

                def counting_build(*args, _build=build):
                    calls["launch"] += 1
                    return _build(*args)

                monkeypatch.setattr(compiled, "_bind_stages", counting_build)
            for index in range(1, 4):
                arrays[FIELD_X] = runner.step(
                    arrays, changed={FIELD_X}, step_index=index
                )
                stats = runner.last_step_stats
                assert stats.allocations == 0
                assert stats.stage_syncs == STAGES
                assert stats.exchanged_bytes == (
                    runner.halo_ledger.exchanged_bytes(runner.dtype.itemsize)
                )
        assert calls == {"call": 0, "bind": 0, "launch": 0}

    @pytest.mark.parametrize("threads", (1, 2))
    def test_timings_come_from_the_team_step(self, state, threads):
        with _solver(
            threads=threads, reuse_output=True, collect_timings=True
        ) as solver:
            runner = solver.runner
            arrays = solver._arrays(state)
            arrays[FIELD_X] = runner.step(arrays)
            for index in range(1, 4):
                arrays[FIELD_X] = runner.step(
                    arrays, changed={FIELD_X}, step_index=index
                )
                stats = runner.last_step_stats
                assert stats.allocations == 0
                timings = stats.timings
                assert len(timings.stage_seconds) == STAGES
                assert all(s > 0 for s in timings.stage_seconds.values())
                assert len(timings.island_seconds) == ISLANDS
                assert all(s > 0 for s in timings.island_seconds)
                # The kernels run inside each task's wall time.
                assert sum(timings.stage_seconds.values()) <= (
                    timings.total_compute_seconds
                )
