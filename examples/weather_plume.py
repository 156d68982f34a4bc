"""A weather-style scenario: a tracer plume in a rotating flow.

The paper's introduction motivates MPDATA with numerical weather
prediction; this example runs the kind of composite step an atmospheric
model takes — advection by a rotating wind field *plus* turbulent
diffusion *plus* first-order scavenging (decay) — using the composed
stencil programs of :mod:`repro.mpdata.extensions`, run by the engine's
fused C kernels (needs cffi and a C compiler).

    python examples/weather_plume.py
"""

import math

import numpy as np

from repro.mpdata import (
    MpdataState,
    advection_decay_program,
    advection_diffusion_program,
    gaussian_blob,
    mpdata_program,
    rotation_velocity,
)
from repro.runtime import EngineConfig, MpdataIslandSolver

SHAPE = (48, 48, 6)
OMEGA = 2.0 * math.pi / 400.0  # corner Courant stays below 0.4/axis
STEPS = 100  # a quarter revolution


def run(program, state: MpdataState) -> np.ndarray:
    config = EngineConfig(backend="native")
    with MpdataIslandSolver(SHAPE, 1, config=config, program=program) as solver:
        return np.array(solver.run(state, STEPS), copy=True)


def stats(label: str, field: np.ndarray, h: np.ndarray) -> None:
    print(
        f"  {label:24s} mass={float((h * field).sum()):9.3f}  "
        f"peak={field.max():6.3f}  spread={field.std():6.4f}"
    )


def main() -> None:
    # A warm anomaly released off-centre in a cyclonic (rotating) wind.
    x0 = gaussian_blob(SHAPE, centre=(16.0, 24.0, 3.0), sigma=3.0)
    u1, u2, u3 = rotation_velocity(SHAPE, omega=OMEGA)
    h = np.ones(SHAPE)
    state = MpdataState(x0, u1, u2, u3, h)

    print(f"tracer plume, {STEPS} steps (quarter revolution), grid {SHAPE}")
    stats("initial", x0, h)
    print()

    print("pure advection (17-stage MPDATA):")
    advected = run(mpdata_program(), state)
    stats("after transport", advected, h)

    print("\nadvection + turbulent diffusion (nu = 0.05):")
    diffused = run(advection_diffusion_program(nu=0.05), state)
    stats("after transport", diffused, h)

    print("\nadvection + scavenging (1 %/step decay):")
    decayed = run(advection_decay_program(rate=0.01), state)
    stats("after transport", decayed, h)

    # Physical sanity, printed as assertions a forecaster would insist on.
    assert np.isclose((h * advected).sum(), (h * x0).sum(), rtol=1e-10)
    assert np.isclose((h * diffused).sum(), (h * x0).sum(), rtol=1e-10)
    assert diffused.max() < advected.max()  # diffusion flattens the plume
    expected_mass = (h * x0).sum() * (1.0 - 0.01) ** STEPS
    assert np.isclose((h * decayed).sum(), expected_mass, rtol=1e-9)
    print(
        f"\nchecks: advection and diffusion conserve mass exactly; decay "
        f"removes (1 - 0.01)^{STEPS} = "
        f"{(1 - 0.01) ** STEPS:.3f} of it, as prescribed."
    )


if __name__ == "__main__":
    main()
