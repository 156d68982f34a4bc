"""Grid-convergence tests: the defining accuracy property of MPDATA.

A smooth profile is translated by a quarter of a periodic domain; halving
the mesh spacing (with fixed Courant number, so twice the steps) must
shrink the error at first order for donor-cell upwind and at second order
for MPDATA — that is the entire point of the antidiffusive pass
(Smolarkiewicz & Margolin 1998).
"""

import math

import numpy as np
import pytest

from repro.mpdata import (
    MpdataSolver,
    MpdataState,
    mpdata_program,
    uniform_velocity,
    upwind_program,
)


def _translation_error(cells: int, program) -> float:
    """Mean |error| after translating a Gaussian by cells/4 (periodic)."""
    shape = (cells, 4, 4)
    centres = (np.arange(cells) + 0.5) / cells
    profile = np.exp(-((centres - 0.35) ** 2) / (2.0 * 0.08**2))
    x = np.tile(profile[:, None, None], (1, 4, 4))
    u1, u2, u3 = uniform_velocity(shape, (0.25, 0.0, 0.0))
    state = MpdataState(x, u1, u2, u3, np.ones(shape))
    solver = MpdataSolver(shape, program=program)
    out = solver.run(state, steps=cells)  # 0.25 * cells cells of travel
    exact = np.roll(x, cells // 4, axis=0)
    return float(np.abs(out - exact).mean())


def _order(coarse: float, fine: float) -> float:
    return math.log2(coarse / fine)


class TestConvergenceOrders:
    def test_upwind_is_first_order(self):
        order = _order(
            _translation_error(32, upwind_program()),
            _translation_error(64, upwind_program()),
        )
        assert 0.6 < order < 1.3

    def test_mpdata_is_second_order(self):
        order = _order(
            _translation_error(32, mpdata_program()),
            _translation_error(64, mpdata_program()),
        )
        assert 1.6 < order < 2.4

    def test_fct_limiter_does_not_destroy_accuracy(self):
        """The nonoscillatory option must cost almost nothing on smooth
        data (limiters only engage near extrema)."""
        limited = _translation_error(64, mpdata_program(iord=2, nonosc=True))
        basic = _translation_error(64, mpdata_program(iord=2, nonosc=False))
        assert limited <= basic * 1.05

    def test_third_pass_reduces_the_error_constant(self):
        second = _translation_error(64, mpdata_program(iord=2, nonosc=False))
        third = _translation_error(64, mpdata_program(iord=3, nonosc=False))
        assert third < second

    def test_mpdata_beats_upwind_outright(self):
        assert _translation_error(64, mpdata_program()) < 0.25 * (
            _translation_error(64, upwind_program())
        )
