"""Process-wide cache of compiled stencil plans.

Runner construction compiles one plan per island (and — under the
exchange policy — one per island and stage).  The emitted
artifact depends only on (program, plan geometry, dtype), so repeated
runner construction with the same :class:`~repro.runtime.config
.EngineConfig` — retries, benchmark sweeps — can reuse it instead of
re-lowering and re-emitting.

:func:`repro.stencil.native.compile_plan_native` caches the generated C
source, its cffi declarations and the plane schedule here; a hit skips
lowering and C emission, and the on-disk shared-object cache (see
:mod:`repro.stencil.native`) skips the ``cc`` invocation as well.  Each
hit still gets its own plan object and workspace, so cached plans never
share buffers.

Cache keys embed a content fingerprint of the program (SHA-1 of its
canonical serialized form), the plan's exact box geometry and the dtype,
so distinct programs or geometries can never collide.  Hit/miss counters
are surfaced per-runner in step telemetry
(:class:`repro.runtime.telemetry.StepStats.plan_cache_hits`).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Any, Callable, Dict, Tuple

from .halo import HaloPlan
from .program import StencilProgram
from .serialize import program_to_dict

__all__ = [
    "PlanCache",
    "PLAN_CACHE",
    "program_fingerprint",
    "plan_geometry_key",
    "plan_cache_stats",
    "clear_plan_cache",
]


@lru_cache(maxsize=256)
def program_fingerprint(program: StencilProgram) -> str:
    """Content hash of a program: stable across identical rebuilds.

    Uses the canonical serialized form, so two structurally identical
    programs constructed independently share a fingerprint (and therefore
    compiled artifacts), while any change to a stage expression, field
    set or stage order changes it.
    """
    payload = json.dumps(program_to_dict(program), sort_keys=True)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def plan_geometry_key(plan: HaloPlan) -> Tuple[Any, ...]:
    """Hashable key capturing everything geometric about a halo plan."""
    return (
        plan.target,
        tuple(plan.stage_boxes),
        tuple(sorted(plan.input_boxes.items())),
    )


class PlanCache:
    """A small thread-safe LRU mapping plan keys to compiled artifacts.

    ``capacity`` bounds the entry count (an MPDATA islands run compiles
    one plan per island, or one per island and stage under the exchange
    policy — 256 entries comfortably covers every configuration the
    benchmarks sweep while bounding memory for adversarial workloads).
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_build(
        self, key: Tuple[Any, ...], build: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """Return ``(artifact, hit)``; build and insert on miss.

        The builder runs outside the lock — plan compilation is slow and
        other threads' lookups must not stall behind it.  If two threads
        race on the same key the second build wins the slot; both results
        are equivalent by construction (same key → same artifact).
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key], True
            self.misses += 1
        artifact = build()
        with self._lock:
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return artifact, False

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }

    def clear(self, reset_counters: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            if reset_counters:
                self.hits = 0
                self.misses = 0


#: The process-wide cache every compile path shares.
PLAN_CACHE = PlanCache()


def plan_cache_stats() -> Dict[str, int]:
    """Cumulative hit/miss/entry counts of the process-wide cache."""
    return PLAN_CACHE.stats()


def clear_plan_cache(reset_counters: bool = False) -> None:
    """Drop every cached artifact (tests use this for isolation)."""
    PLAN_CACHE.clear(reset_counters=reset_counters)
