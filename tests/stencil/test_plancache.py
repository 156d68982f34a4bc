"""Tests for the process-wide compiled-plan cache.

Covers the :class:`~repro.stencil.plancache.PlanCache` LRU itself, the
cache keys (fingerprint + geometry + dtype: equal plans hit, any
variation misses), native plan compilation served through it, and the
per-runner hit/miss telemetry.
"""

import numpy as np
import pytest

from repro.mpdata import random_state
from repro.runtime import EngineConfig, InMemorySink, MpdataIslandSolver, Telemetry
from repro.stencil import (
    Box,
    clear_plan_cache,
    compile_plan_native,
    native_available,
    plan_cache_stats,
    program_fingerprint,
    required_regions,
)
from repro.stencil.plancache import PlanCache, plan_geometry_key

SHAPE = (16, 12, 8)

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test sees an empty cache and leaves none of its entries."""
    clear_plan_cache(reset_counters=True)
    yield
    clear_plan_cache(reset_counters=True)


def _delta(action):
    before = plan_cache_stats()
    result = action()
    after = plan_cache_stats()
    return result, {
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
    }


class TestPlanCacheUnit:
    def test_lru_eviction_at_capacity(self):
        cache = PlanCache(capacity=2)
        cache.get_or_build(("a",), lambda: 1)
        cache.get_or_build(("b",), lambda: 2)
        cache.get_or_build(("a",), lambda: 1)  # refresh a
        cache.get_or_build(("c",), lambda: 3)  # evicts b, not a
        _, hit_a = cache.get_or_build(("a",), lambda: -1)
        _, hit_b = cache.get_or_build(("b",), lambda: -2)
        assert hit_a and not hit_b
        assert cache.stats()["entries"] == 2

    def test_counters_and_clear(self):
        cache = PlanCache()
        cache.get_or_build(("k",), lambda: 1)
        cache.get_or_build(("k",), lambda: 1)
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
        cache.clear()
        assert cache.stats()["entries"] == 0
        assert cache.stats()["misses"] == 1  # counters survive a bare clear
        cache.clear(reset_counters=True)
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_builder_result_returned_on_miss(self):
        cache = PlanCache()
        value, hit = cache.get_or_build(("k",), lambda: "built")
        assert value == "built" and not hit


class TestFingerprintAndGeometry:
    def test_identical_rebuilds_share_a_fingerprint(self, chain_program):
        from repro.stencil.serialize import program_from_dict, program_to_dict

        clone = program_from_dict(program_to_dict(chain_program))
        assert program_fingerprint(clone) == program_fingerprint(chain_program)

    def test_different_programs_differ(self, chain_program, mpdata):
        assert program_fingerprint(chain_program) != program_fingerprint(mpdata)

    def test_geometry_key_tracks_target(self, chain_program):
        plan_a = required_regions(chain_program, Box((0, 0, 0), (8, 4, 4)))
        plan_b = required_regions(chain_program, Box((0, 0, 0), (12, 4, 4)))
        assert plan_geometry_key(plan_a) != plan_geometry_key(plan_b)
        assert plan_geometry_key(plan_a) == plan_geometry_key(
            required_regions(chain_program, Box((0, 0, 0), (8, 4, 4)))
        )


@needs_native
class TestCompilePlanCaching:
    def test_recompile_hits(self, chain_program):
        plan = required_regions(chain_program, Box((0, 0, 0), (8, 4, 4)))
        _, first = _delta(lambda: compile_plan_native(chain_program, plan))
        _, second = _delta(lambda: compile_plan_native(chain_program, plan))
        assert first == {"hits": 0, "misses": 1}
        assert second == {"hits": 1, "misses": 0}

    def test_cached_plans_share_no_workspace(self, chain_program):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((14, 4, 4))
        from repro.stencil import ArrayRegion

        inputs = {"x": ArrayRegion.wrap(x, lo=(-3, 0, 0))}
        plan = required_regions(chain_program, Box((0, 0, 0), (8, 4, 4)))
        one = compile_plan_native(chain_program, plan)
        two = compile_plan_native(chain_program, plan)
        one(inputs)
        two(inputs)
        assert one.workspace is not two.workspace
        np.testing.assert_array_equal(
            one(inputs)["y"].data, two(inputs)["y"].data
        )

    def test_dtype_variation_misses(self, chain_program):
        plan = required_regions(chain_program, Box((0, 0, 0), (8, 4, 4)))
        compile_plan_native(chain_program, plan)
        _, varied = _delta(
            lambda: compile_plan_native(chain_program, plan, dtype=np.float32)
        )
        assert varied["misses"] == 1 and varied["hits"] == 0

    def test_timing_is_not_part_of_the_key(self, chain_program):
        """Stage clocks are read between kernel calls, so a timed plan
        runs the very C an untimed one does."""
        plan = required_regions(chain_program, Box((0, 0, 0), (8, 4, 4)))
        compile_plan_native(chain_program, plan)
        timed, varied = _delta(
            lambda: compile_plan_native(chain_program, plan, timed=True)
        )
        assert varied == {"hits": 1, "misses": 0}
        assert timed.timed

    def test_different_geometry_misses(self, chain_program):
        compile_plan_native(
            chain_program,
            required_regions(chain_program, Box((0, 0, 0), (8, 4, 4))),
        )
        _, other = _delta(
            lambda: compile_plan_native(
                chain_program,
                required_regions(chain_program, Box((0, 0, 0), (10, 4, 4))),
            )
        )
        assert other["misses"] == 1 and other["hits"] == 0


@needs_native
class TestRunnerTelemetry:
    def _stats(self, config):
        sink = InMemorySink()
        state = random_state(SHAPE, seed=7)
        with MpdataIslandSolver(
            SHAPE, 2, config=config, telemetry=Telemetry((sink,))
        ) as solver:
            solver.run(state, 2)
        return sink.last.stats

    def test_second_runner_reports_hits(self):
        config = EngineConfig(backend="native")
        cold = self._stats(config)
        warm = self._stats(config)
        assert cold.plan_cache_hits == 0
        assert cold.plan_cache_misses > 0
        assert warm.plan_cache_hits == cold.plan_cache_misses
        assert warm.plan_cache_misses == 0

    def test_stats_appear_in_event_payload(self):
        payload = self._stats(EngineConfig(backend="native")).to_dict()
        assert "plan_cache_hits" in payload
        assert "plan_cache_misses" in payload
