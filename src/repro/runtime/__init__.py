"""Functional runtime: partitioned execution and bit-exact verification.

The machine simulator (:mod:`repro.machine`) answers *how long* a strategy
takes; this package answers *what it computes* — and proves partitioned
strategies compute exactly the same thing as the whole-domain reference.
It also answers *what happens when a step fails*: deterministic fault
injection (:mod:`repro.runtime.faults`), per-island retry inside the
runner, and checkpointed rollback-and-replay
(:mod:`repro.runtime.recovery`).

The runtime is layered: execution backends
(:mod:`repro.runtime.backends`) own per-island compute resources behind a
uniform lifecycle, the resilience layer
(:mod:`repro.runtime.resilience`) wraps any backend with injection and
retry, the telemetry spine (:mod:`repro.runtime.telemetry`)
records structured per-step events into pluggable sinks, and one frozen
:class:`~repro.runtime.config.EngineConfig` selects all of it — including
the halo policy (recompute / exchange) whose geometry comes from
:func:`repro.core.build_halo_ledger`.
"""

from ..stencil.native import native_available
from .backends import (
    BACKENDS,
    FlatInterpreterBackend,
    IslandBackend,
    IslandResult,
    NativeBackend,
    create_backend,
)
from .config import (
    BACKEND_KEYS,
    EngineConfig,
    resolve_engine_config,
)
from .diagnostics import (
    RunHistory,
    RunRecorder,
    StepDiagnostics,
    check_step_health,
    field_mass,
)
from .faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    FaultStats,
    InjectedFault,
    WorkerHung,
    parse_fault_spec,
)
from .island_exec import (
    MpdataIslandSolver,
    PartitionedRunner,
)
from .procs import (
    DeadlineClock,
    ProcsBackend,
    SharedArena,
    WorkerCrashed,
)
from .recovery import (
    NumericalHealthError,
    RecoveryPolicy,
    RecoveryReport,
    UnrecoverableRunError,
    run_with_recovery,
)
from .resilience import (
    IslandFailure,
    ResiliencePolicy,
    ResilientExecutor,
)
from .steady import SteadyStateReport, measure_steady_state
from .telemetry import (
    InMemorySink,
    JsonlSink,
    StepEvent,
    StepStats,
    StepTimings,
    TableSink,
    Telemetry,
    TelemetrySink,
)
from .verify import VerificationResult, verify_islands, verify_variants

__all__ = [
    "BACKEND_KEYS",
    "BACKENDS",
    "DeadlineClock",
    "EngineConfig",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "FaultStats",
    "FlatInterpreterBackend",
    "InMemorySink",
    "InjectedFault",
    "IslandBackend",
    "IslandFailure",
    "IslandResult",
    "JsonlSink",
    "MpdataIslandSolver",
    "NativeBackend",
    "NumericalHealthError",
    "PartitionedRunner",
    "ProcsBackend",
    "RecoveryPolicy",
    "RecoveryReport",
    "ResiliencePolicy",
    "ResilientExecutor",
    "RunHistory",
    "RunRecorder",
    "SharedArena",
    "StepDiagnostics",
    "StepEvent",
    "StepStats",
    "StepTimings",
    "SteadyStateReport",
    "TableSink",
    "Telemetry",
    "TelemetrySink",
    "UnrecoverableRunError",
    "VerificationResult",
    "WorkerCrashed",
    "WorkerHung",
    "check_step_health",
    "create_backend",
    "field_mass",
    "measure_steady_state",
    "native_available",
    "parse_fault_spec",
    "resolve_engine_config",
    "run_with_recovery",
    "verify_islands",
    "verify_variants",
]
