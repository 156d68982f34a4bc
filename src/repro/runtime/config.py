"""One engine configuration for the whole partitioned runtime.

Three feature axes grew onto the runner in successive steps — backend
selection (interpreter / native / procs), resilience policy (retry
budget, backoff, injected faults) and observability (buffer reuse
accounting, timing collection) — and each
grew its own copy of the kwarg list: once on
:class:`~repro.runtime.island_exec.PartitionedRunner`, once on
:class:`~repro.runtime.island_exec.MpdataIslandSolver`, and once more as
CLI flags.  :class:`EngineConfig` is the single source of truth those
three copies collapse into: a frozen, validated, JSON-round-trippable
value describing *how* to execute — the problem itself (program, shape,
islands, variant, partition) stays a constructor argument, because a
config that names a grid is a job, not a configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.halo import HALO_POLICIES
from ..mpdata.boundary import BOUNDARY_MODES
from .faults import FaultInjector, parse_fault_spec

__all__ = [
    "BACKEND_KEYS",
    "DTYPE_KEYS",
    "PROCS_INNER_KEYS",
    "EngineConfig",
    "resolve_engine_config",
]

#: Registry keys of the execution backends (see :mod:`repro.runtime.backends`).
BACKEND_KEYS = ("interpreter", "native", "procs")

#: Element types every backend runs (the C emitter's ``real`` types).
DTYPE_KEYS = ("float64", "float32")

#: Stage executors a ``procs`` worker may run inside itself.
PROCS_INNER_KEYS = ("interpreter", "native")


@dataclass(frozen=True)
class EngineConfig:
    """How the partitioned runtime executes one island decomposition.

    Parameters
    ----------
    backend:
        Registry key of the execution backend: ``"interpreter"`` (stage
        graph walked per island; needs no C compiler), ``"native"``
        (one compiled-C call per island step, its stages pipelined over
        i-planes) or ``"procs"`` (worker processes over shared memory).
        ``native`` and ``procs`` with ``procs_inner="native"`` require
        cffi and a system C compiler.
    boundary:
        Ghost-fill mode for all inputs (``"periodic"`` or ``"open"``).
    threads:
        Island-level work team: islands execute concurrently when > 1.
    dtype:
        Element type, ``"float64"`` or ``"float32"`` (:data:`DTYPE_KEYS`),
        stored as a NumPy dtype *name* so the config round-trips through
        JSON; see :attr:`numpy_dtype`.
    reuse_output:
        Recycle the assembled output array across steps.
    max_retries, retry_backoff:
        Resilience policy: per-island retry budget within one step, and
        the base sleep before retry N (grows as ``backoff * 2**(N-1)``,
        capped at ``retry_backoff_max``).
    retry_backoff_max:
        Ceiling on one retry sleep: the exponential backoff saturates
        here (with deterministic down-jitter) instead of growing without
        bound.
    fault_specs:
        Deterministic fault injection sites as
        :func:`~repro.runtime.faults.parse_fault_spec` strings — the
        JSON-safe form of a :class:`~repro.runtime.faults.FaultInjector`
        (see :meth:`build_fault_injector`).
    collect_timings:
        Record per-island and per-stage wall times into each
        step's :class:`~repro.runtime.telemetry.StepTimings`.
    halo:
        Inter-island halo policy: ``"recompute"`` (scenario 2 — each
        island redundantly computes its transitive halo, one sync per
        step), ``"exchange"`` (scenario 1 — owned slabs only, boundary
        copies and a barrier after every stage) or ``"hybrid"``
        (exchange-vs-recompute chosen per island boundary from
        ``halo_threshold``).
    halo_threshold:
        Hybrid policy only: island boundaries shipping more than this
        many points per step are recomputed instead of exchanged.
    workers:
        ``procs`` backend only: number of persistent worker processes.
        ``None`` (default) means one worker per island; fewer workers
        multiplex islands round-robin.
    pin_workers:
        ``procs`` backend only: pin each worker to one CPU via
        ``sched_setaffinity`` (the paper's core-to-island placement).
    procs_inner:
        ``procs`` backend only: the stage executor each worker runs for
        its islands — ``"interpreter"`` (default) or ``"native"`` (fused
        C kernels; workers reload the on-disk kernel cache instead of
        recompiling).
    step_deadline:
        ``procs`` backend only: explicit supervision deadline in seconds
        for one island command (step or stage).  A worker that does not
        reply in time is declared hung, killed and respawned.  ``None``
        (default) derives the deadline adaptively from
        ``deadline_factor`` instead.
    deadline_factor:
        ``procs`` backend only: adaptive supervision — the deadline is
        an EWMA of recent command durations times this multiplier (with
        a warm-up floor before any sample exists).  ``None`` together
        with ``step_deadline=None`` disables supervision entirely
        (dispatch blocks without a deadline, as before).
    quarantine_after:
        ``procs`` backend only: a worker failing this many consecutive
        times (hangs or crashes) is quarantined — its islands are
        remapped round-robin onto surviving workers, shrinking to
        serial-in-parent as the last resort.  ``None`` never
        quarantines.
    sync_every:
        Time steps per inter-island synchronization.  Only ``1`` is
        accepted — islands sync once per step, as in the paper; the
        deep-halo temporal blocking that took larger values was removed
        because it never beat ``1`` (EXPERIMENTS.md).
    """

    backend: str = "interpreter"
    boundary: str = "periodic"
    threads: int = 1
    dtype: str = "float64"
    reuse_output: bool = False
    max_retries: int = 0
    retry_backoff: float = 0.0
    retry_backoff_max: float = 30.0
    fault_specs: Tuple[str, ...] = ()
    collect_timings: bool = False
    halo: str = "recompute"
    halo_threshold: Optional[int] = None
    workers: Optional[int] = None
    pin_workers: bool = False
    procs_inner: str = "interpreter"
    step_deadline: Optional[float] = None
    deadline_factor: Optional[float] = 8.0
    quarantine_after: Optional[int] = 3
    sync_every: int = 1

    def __post_init__(self) -> None:
        # Normalize (object.__setattr__: the dataclass is frozen) so two
        # configs built from e.g. np.float64 and "float64" compare equal.
        object.__setattr__(self, "dtype", str(np.dtype(self.dtype)))
        object.__setattr__(self, "threads", max(1, int(self.threads)))
        object.__setattr__(self, "fault_specs", tuple(self.fault_specs))
        if self.dtype not in DTYPE_KEYS:
            raise ValueError(
                f"unsupported dtype {self.dtype!r}; the engine runs "
                f"{', '.join(DTYPE_KEYS)}"
            )
        if self.backend not in BACKEND_KEYS:
            raise ValueError(
                f"unknown backend {self.backend!r}; known: "
                f"{', '.join(BACKEND_KEYS)}"
            )
        if self.boundary not in BOUNDARY_MODES:
            raise ValueError(
                f"unknown boundary mode {self.boundary!r}; known: "
                f"{', '.join(BOUNDARY_MODES)}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        object.__setattr__(
            self, "retry_backoff_max", float(self.retry_backoff_max)
        )
        if self.retry_backoff_max <= 0:
            raise ValueError("retry_backoff_max must be positive")
        for spec in self.fault_specs:
            parse_fault_spec(spec)  # raises ValueError on a malformed spec
        if self.halo not in HALO_POLICIES:
            raise ValueError(
                f"unknown halo policy {self.halo!r}; known: "
                f"{', '.join(HALO_POLICIES)}"
            )
        if self.halo_threshold is not None:
            object.__setattr__(self, "halo_threshold", int(self.halo_threshold))
        if self.halo == "hybrid":
            if self.halo_threshold is None or self.halo_threshold < 0:
                raise ValueError(
                    "the hybrid halo policy requires a non-negative "
                    "halo_threshold (shipped points per boundary per step)"
                )
        elif self.halo_threshold is not None:
            raise ValueError(
                f"halo_threshold is a hybrid-policy option; got "
                f"halo={self.halo!r}"
            )
        if self.procs_inner not in PROCS_INNER_KEYS:
            raise ValueError(
                f"unknown procs_inner {self.procs_inner!r}; known: "
                f"{', '.join(PROCS_INNER_KEYS)}"
            )
        if self.workers is not None:
            object.__setattr__(self, "workers", int(self.workers))
            if self.workers < 1:
                raise ValueError("workers must be positive (or None)")
        if self.step_deadline is not None:
            object.__setattr__(
                self, "step_deadline", float(self.step_deadline)
            )
            if self.step_deadline <= 0:
                raise ValueError("step_deadline must be positive (or None)")
        if self.deadline_factor is not None:
            object.__setattr__(
                self, "deadline_factor", float(self.deadline_factor)
            )
            if self.deadline_factor <= 0:
                raise ValueError("deadline_factor must be positive (or None)")
        if self.quarantine_after is not None:
            object.__setattr__(
                self, "quarantine_after", int(self.quarantine_after)
            )
            if self.quarantine_after < 1:
                raise ValueError(
                    "quarantine_after must be at least 1 (or None)"
                )
        if self.sync_every != 1:
            raise ValueError(
                f"sync_every must be 1, got {self.sync_every!r}: temporal "
                "blocking was removed, islands sync once per time step"
            )
        if self.backend != "procs":
            if self.workers is not None:
                raise ValueError(
                    f"workers is a procs-backend option; got "
                    f"backend={self.backend!r}"
                )
            if self.pin_workers:
                raise ValueError(
                    f"pin_workers is a procs-backend option; got "
                    f"backend={self.backend!r}"
                )
            if self.step_deadline is not None:
                raise ValueError(
                    f"step_deadline is a procs-backend option; got "
                    f"backend={self.backend!r}"
                )

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def build_fault_injector(self) -> Optional[FaultInjector]:
        """A fresh injector for :attr:`fault_specs` (``None`` if empty)."""
        if not self.fault_specs:
            return None
        return FaultInjector.from_strings(self.fault_specs)

    # ------------------------------------------------------------------
    # Round-trips
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; ``from_dict`` restores an equal config."""
        return {
            "backend": self.backend,
            "boundary": self.boundary,
            "threads": self.threads,
            "dtype": self.dtype,
            "reuse_output": self.reuse_output,
            "max_retries": self.max_retries,
            "retry_backoff": self.retry_backoff,
            "retry_backoff_max": self.retry_backoff_max,
            "fault_specs": list(self.fault_specs),
            "collect_timings": self.collect_timings,
            "halo": self.halo,
            "halo_threshold": self.halo_threshold,
            "workers": self.workers,
            "pin_workers": self.pin_workers,
            "procs_inner": self.procs_inner,
            "step_deadline": self.step_deadline,
            "deadline_factor": self.deadline_factor,
            "quarantine_after": self.quarantine_after,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown EngineConfig key(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        values = dict(data)
        if "fault_specs" in values:
            values["fault_specs"] = tuple(values["fault_specs"])
        return cls(**values)

    @classmethod
    def from_cli_args(cls, args: Any) -> "EngineConfig":
        """Build the engine configuration for ``python -m repro engine``.

        Reads the flags of the ``engine`` subcommand off the parsed
        namespace.  The output buffer is recycled across steps, so the
        steady state allocates nothing.
        """
        # Fault tolerance engages only when a fault flag was given, so a
        # run without one keeps the retry budget at zero even though
        # --retries carries a non-zero default.
        faulty = (
            getattr(args, "faults", None) is not None
            or getattr(args, "checkpoint_every", None) is not None
            or getattr(args, "checkpoint_dir", None) is not None
        )
        backend = getattr(args, "backend", None) or "interpreter"
        procs = backend == "procs"
        # Supervision flags: absent/None keeps the config defaults; an
        # explicit 0 for --deadline-factor / --quarantine-after disables
        # that half of the supervision (mapped to None here).
        supervision: Dict[str, Any] = {}
        if procs:
            factor = getattr(args, "deadline_factor", None)
            if factor is not None:
                supervision["deadline_factor"] = factor or None
            after = getattr(args, "quarantine_after", None)
            if after is not None:
                supervision["quarantine_after"] = after or None
        return cls(
            backend=backend,
            workers=getattr(args, "workers", None) if procs else None,
            pin_workers=(
                bool(getattr(args, "pin_workers", False)) if procs else False
            ),
            procs_inner=getattr(args, "procs_inner", None) or "interpreter",
            step_deadline=(
                getattr(args, "step_deadline", None) if procs else None
            ),
            **supervision,
            threads=getattr(args, "threads", 1),
            reuse_output=True,
            max_retries=getattr(args, "retries", 0) if faulty else 0,
            fault_specs=tuple(getattr(args, "faults", None) or ()),
            collect_timings=getattr(args, "timings", False),
            halo=getattr(args, "halo", "recompute") or "recompute",
            halo_threshold=getattr(args, "halo_threshold", None),
        )


def resolve_engine_config(
    config: Optional[EngineConfig], owner: str
) -> EngineConfig:
    """The configuration a runtime constructor runs with.

    ``None`` means the default engine; anything but an
    :class:`EngineConfig` is rejected here, at construction.
    """
    if config is None:
        return EngineConfig()
    if not isinstance(config, EngineConfig):
        raise TypeError(
            f"{owner}: config must be an EngineConfig, got "
            f"{type(config).__name__}"
        )
    return config
