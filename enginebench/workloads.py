"""The four workloads of the engine benchmark.

Shared by the orchestrator (``bench_engine.py``) and the per-workload
process (``engine_child.py``).  Pure data plus the seeded helpers that turn
``--seed`` and ``--seconds`` into inputs; importing it starts nothing and
does not import the engine.  Why each workload was chosen is recorded in
``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

#: Settings every workload shares (EngineConfig keywords).
COMMON_ENGINE: Mapping[str, Any] = {
    "boundary": "periodic",
    "dtype": "float64",
    "sync_every": 1,
    "reuse_output": True,
}

#: RecoveryPolicy keywords of the recovery workload (the directory is
#: created fresh per run).
RECOVERY_POLICY: Mapping[str, Any] = {
    "checkpoint_every": 25,
    "keep_last": 2,
    "check_finite": True,
    "mass_drift_limit": 1e-6,
}

#: Fresh processes timed for ``setup_s``; the metric is their median.
SETUP_SAMPLES = 5

#: ``engine_child.HostProbe`` seconds on the reference host (README.md),
#: by the number of probe threads.
PROBE_REF_S = {1: 0.0135, 2: 0.0155}


@dataclass(frozen=True)
class Workload:
    """One named input set: grid, island decomposition and engine config.

    ``steps_per_second`` fixes the step count a run of ``--seconds``
    seconds executes (measured on the reference host, see README.md), so
    the amount of work is set by the benchmark and equal on every commit.
    """

    name: str
    shape: Tuple[int, int, int]
    islands: int
    engine: Mapping[str, Any]
    steps_per_second: float
    smoke_shape: Tuple[int, int, int]
    kills: int = 0
    recovery: bool = False

    def grid(self, smoke: bool) -> Tuple[int, int, int]:
        return self.smoke_shape if smoke else self.shape

    def steps(self, seconds: float, smoke: bool) -> int:
        """The fixed step count of one measured run."""
        if smoke:
            return 3
        return max(3, int(round(seconds * self.steps_per_second)))

    @property
    def team(self) -> int:
        """Execution lanes that run islands concurrently."""
        if self.engine["backend"] == "procs":
            return int(self.engine.get("workers") or self.islands)
        return min(int(self.engine.get("threads", 1)), self.islands)

    def lane(self, island: int) -> int:
        """The lane an island runs on: procs workers take islands
        round-robin, and each in-process island is its own lane."""
        if self.engine["backend"] == "procs":
            return island % self.team
        return island

    def host_factor(self, probe_s: float) -> float:
        """Rescales a time taken while the host probe took ``probe_s``
        seconds to the reference host's speed."""
        return PROBE_REF_S[self.team] / probe_s

    def kill_specs(self, seed: int, steps: int) -> Tuple[str, ...]:
        """The seeded ``kill@island=I,step=S`` fault schedule."""
        if not self.kills:
            return ()
        rng = random.Random(f"{self.name}:{seed}")
        count = min(self.kills, steps - 1)
        sites = sorted(rng.sample(range(1, steps), count))
        return tuple(
            f"kill@island={rng.randrange(self.islands)},step={step}"
            for step in sites
        )

    def engine_kwargs(
        self, seed: int, steps: int, collect_timings: bool
    ) -> Dict[str, Any]:
        kwargs = dict(COMMON_ENGINE)
        kwargs.update(self.engine)
        kwargs["fault_specs"] = self.kill_specs(seed, steps)
        kwargs["collect_timings"] = collect_timings
        return kwargs

    def recovery_kwargs(self, smoke: bool) -> Optional[Dict[str, Any]]:
        if not self.recovery:
            return None
        kwargs = dict(RECOVERY_POLICY)
        if smoke:
            kwargs["checkpoint_every"] = 2  # a 3-step run still checkpoints
        return kwargs


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="paper-native",
        shape=(256, 128, 32),
        islands=2,
        engine={"backend": "native", "threads": 2},
        steps_per_second=20.0,
        smoke_shape=(24, 16, 8),
    ),
    Workload(
        name="paper-serial",
        shape=(256, 128, 32),
        islands=1,
        engine={"backend": "native", "threads": 1},
        steps_per_second=14.0,
        smoke_shape=(24, 16, 8),
    ),
    Workload(
        name="exchange-8",
        shape=(96, 64, 32),
        islands=8,
        engine={"backend": "native", "threads": 2, "halo": "exchange"},
        steps_per_second=40.0,
        smoke_shape=(32, 12, 8),
    ),
    Workload(
        name="procs-recovery",
        shape=(128, 64, 32),
        islands=4,
        engine={
            "backend": "procs",
            "workers": 2,
            "procs_inner": "native",
            "max_retries": 2,
        },
        steps_per_second=60.0,
        smoke_shape=(16, 12, 8),
        kills=3,
        recovery=True,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
