"""Per-step diagnostics for MPDATA runs.

Long advection runs are judged by their invariants: mass must stay put,
the field non-negative, extrema bounded.  :class:`RunRecorder` wraps any
solver with a ``step(state)`` method and records those quantities every
step, so examples and tests can assert on *trajectories* rather than just
endpoints (a scheme can pass an endpoint check while oscillating on the
way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Protocol, Tuple

import numpy as np

from ..mpdata.reference import MpdataState
from .telemetry import StepTimings

__all__ = [
    "StepDiagnostics",
    "StepTimings",  # moved to repro.runtime.telemetry; re-exported here
    "RunHistory",
    "RunRecorder",
    "check_step_health",
    "field_mass",
]


class _Stepper(Protocol):
    def step(self, state: MpdataState) -> np.ndarray: ...


@dataclass(frozen=True)
class StepDiagnostics:
    """Invariant snapshot after one time step."""

    step: int
    mass: float
    minimum: float
    maximum: float
    variance: float


@dataclass(frozen=True)
class RunHistory:
    """The full trajectory of a recorded run."""

    initial_mass: float
    steps: Tuple[StepDiagnostics, ...]
    final: np.ndarray

    @property
    def mass_drift(self) -> float:
        """Largest |mass(t) - mass(0)| over the run."""
        return max(
            (abs(d.mass - self.initial_mass) for d in self.steps),
            default=0.0,
        )

    @property
    def global_minimum(self) -> float:
        return min((d.minimum for d in self.steps), default=float("nan"))

    @property
    def global_maximum(self) -> float:
        return max((d.maximum for d in self.steps), default=float("nan"))

    def monotone_variance_decay(self) -> bool:
        """True when the field's variance never increases — the signature
        of a diffusive (upwind/limited) scheme on a closed domain."""
        variances = [d.variance for d in self.steps]
        return all(b <= a * (1 + 1e-12) for a, b in zip(variances, variances[1:]))


def field_mass(x: np.ndarray, h: np.ndarray) -> float:
    """The mass ``sum(h * x)``, in one pass with no full-size temporary."""
    axes = "abcdefgh"[: np.ndim(x)]
    with np.errstate(all="ignore"):  # overflow and inf - inf give inf, nan
        return float(np.einsum(f"{axes},{axes}->", h, x))


def check_step_health(
    x: np.ndarray,
    h: "np.ndarray | None" = None,
    initial_mass: "float | None" = None,
    check_finite: bool = True,
    mass_drift_limit: "float | None" = None,
    mass: "float | None" = None,
) -> "str | None":
    """Per-step numerical guard; returns a failure reason or ``None``.

    The same invariants :class:`RunHistory` records after the fact,
    checked *during* the run so a sick step can be rolled back instead of
    poisoning everything after it: every value finite, and — when
    ``mass_drift_limit`` is given — the instantaneous
    ``|mass - initial_mass|`` (the per-step term of
    :attr:`RunHistory.mass_drift`, as :func:`field_mass` computes it)
    within the limit.

    The field is read at most once: a non-finite value makes the mass
    (without a mass limit or a given ``mass``, the plain sum)
    non-finite, so the exact ``isfinite`` scan runs only when that sum
    is.  ``mass`` is the field's mass when the caller already has it
    (summed per island part by the workers that wrote them, so it may
    differ from :func:`field_mass` in the last few bits); then ``x`` is
    read only for that scan.  A finite field whose sum overflows passes
    the scan, and its mass drift is reported.
    """
    if mass_drift_limit is not None and (h is None or initial_mass is None):
        raise ValueError("mass_drift_limit requires both h and initial_mass")
    if mass is not None:
        total = mass
    elif mass_drift_limit is not None:
        total = field_mass(x, h)
    elif check_finite:
        with np.errstate(all="ignore"):
            total = float(np.sum(x))
    else:
        return None
    if check_finite and not math.isfinite(total):
        if not bool(np.isfinite(x).all()):
            return "non-finite value in field"
    if mass_drift_limit is None:
        return None
    drift = abs(total - initial_mass)
    if drift > mass_drift_limit:
        return f"mass drift {drift:.6e} exceeds limit {mass_drift_limit:.6e}"
    return None


class RunRecorder:
    """Drive a solver step by step, recording invariants.

    Works with :class:`~repro.mpdata.solver.MpdataSolver` and
    :class:`~repro.runtime.island_exec.MpdataIslandSolver` alike.
    """

    def __init__(self, solver: _Stepper) -> None:
        self._solver = solver

    def run(self, state: MpdataState, steps: int) -> RunHistory:
        if steps < 0:
            raise ValueError("steps must be non-negative")
        state.validate()
        h = state.h
        x = np.asarray(state.x, dtype=np.float64)
        initial_mass = float((h * x).sum())
        history: List[StepDiagnostics] = []
        for index in range(steps):
            x = self._solver.step(
                MpdataState(x, state.u1, state.u2, state.u3, state.h)
            )
            history.append(
                StepDiagnostics(
                    step=index + 1,
                    mass=float((h * x).sum()),
                    minimum=float(x.min()),
                    maximum=float(x.max()),
                    variance=float(x.var()),
                )
            )
        return RunHistory(initial_mass, tuple(history), x)
