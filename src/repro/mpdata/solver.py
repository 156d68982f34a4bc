"""Whole-domain MPDATA solver driving the stencil interpreter.

:class:`MpdataSolver` owns the ghost-margin bookkeeping: it derives the
required ghost widths from the program's own halo analysis, extends and
fills input arrays each step, and hands the interpreter a target covering
the physical domain.  It is the reference execution that every partitioned
strategy (blocks, islands) is verified against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..stencil import (
    ArrayRegion,
    Box,
    StencilProgram,
    full_box,
    required_regions,
)
from .boundary import extend_array, extended_box
from .reference import MpdataState
from .stages import FIELD_DENSITY, FIELD_OUTPUT, FIELD_X, mpdata_program

__all__ = ["GhostSpec", "MpdataSolver"]


@dataclass(frozen=True)
class GhostSpec:
    """Ghost widths per axis, below (``lo``) and above (``hi``) the domain."""

    lo: Tuple[int, int, int]
    hi: Tuple[int, int, int]

    @staticmethod
    def for_program(
        program: StencilProgram, shape: Tuple[int, int, int]
    ) -> "GhostSpec":
        """Derive ghost widths from the program's transitive input halo."""
        plan = required_regions(program, full_box(shape))
        lo = [0, 0, 0]
        hi = [0, 0, 0]
        for box in plan.input_boxes.values():
            if box.is_empty():
                continue
            for axis in range(3):
                lo[axis] = max(lo[axis], -box.lo[axis])
                hi[axis] = max(hi[axis], box.hi[axis] - shape[axis])
        return GhostSpec(tuple(lo), tuple(hi))  # type: ignore[arg-type]


class MpdataSolver:
    """Run MPDATA time steps over a 3D grid.

    Parameters
    ----------
    shape:
        Grid size ``(ni, nj, nk)``.
    boundary:
        ``"periodic"`` (default) or ``"open"``.
    program:
        Stencil program to run; defaults to the full 17-stage MPDATA.
    """

    def __init__(
        self,
        shape: Tuple[int, int, int],
        boundary: str = "periodic",
        program: Optional[StencilProgram] = None,
        dtype: np.dtype = np.float64,
    ) -> None:
        self.shape = tuple(shape)
        self.boundary = boundary
        self.program = program if program is not None else mpdata_program()
        self.dtype = dtype
        self.domain: Box = full_box(self.shape)
        self.ghosts = GhostSpec.for_program(self.program, self.shape)
        self.extended_domain: Box = extended_box(
            self.shape, self.ghosts.lo, self.ghosts.hi
        )
        if self.boundary == "periodic":
            for axis in range(3):
                margin = max(self.ghosts.lo[axis], self.ghosts.hi[axis])
                if margin > self.shape[axis]:
                    raise ValueError(
                        f"grid axis {axis} ({self.shape[axis]} cells) is "
                        f"smaller than the program halo ({margin}); enlarge "
                        "the grid"
                    )

    # ------------------------------------------------------------------
    def prepare_inputs(self, state: MpdataState) -> Dict[str, ArrayRegion]:
        """Ghost-extend all five input arrays for one step."""
        state.validate()
        if state.x.shape != self.shape:
            raise ValueError(
                f"state arrays have shape {state.x.shape}, solver expects "
                f"{self.shape}"
            )
        arrays = {
            FIELD_X: state.x,
            "u1": state.u1,
            "u2": state.u2,
            "u3": state.u3,
            FIELD_DENSITY: state.h,
        }
        return {
            name: extend_array(
                np.asarray(arr, dtype=self.dtype),
                self.ghosts.lo,
                self.ghosts.hi,
                self.boundary,
            )
            for name, arr in arrays.items()
        }

    def step(self, state: MpdataState) -> np.ndarray:
        """Advance one time step; returns the new scalar field."""
        from ..stencil import execute  # local import avoids cycle at module load

        inputs = self.prepare_inputs(state)
        results, _ = execute(
            self.program,
            inputs,
            target=self.domain,
            domain=self.extended_domain,
            dtype=self.dtype,
        )
        return results[FIELD_OUTPUT].view(self.domain)

    def run(self, state: MpdataState, steps: int) -> np.ndarray:
        """Advance ``steps`` time steps, re-filling ghosts every step."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        x = np.asarray(state.x, dtype=self.dtype)
        for _ in range(steps):
            x = self.step(MpdataState(x, state.u1, state.u2, state.u3, state.h))
        return x
