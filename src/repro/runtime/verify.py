"""Bit-exactness verification of partitioned execution.

The islands-of-cores transformation is only legal because scenario 2
(recompute) evaluates the *same expressions on the same values* as
scenario 1 (communicate): Sect. 4.1's example replaces a transferred
``B[c]`` with "compute the required element B[c] once more".  In IEEE
floating point that substitution is exact, so we demand array equality to
the last bit between the whole-domain run and any partitioned run — a far
stronger (and cheaper to check) oracle than tolerance comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core import Partition, Variant
from ..mpdata.reference import MpdataState
from ..mpdata.solver import MpdataSolver
from ..stencil import StencilProgram
from .config import EngineConfig
from .island_exec import MpdataIslandSolver

__all__ = ["VerificationResult", "verify_islands", "verify_variants"]


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of comparing one partitioned run against the reference."""

    islands: int
    variant: Variant
    steps: int
    bit_exact: bool
    max_abs_diff: float

    def __bool__(self) -> bool:
        return self.bit_exact


def verify_islands(
    shape: Tuple[int, int, int],
    state: MpdataState,
    islands: int,
    variant: Variant = Variant.A,
    steps: int = 1,
    boundary: str = "periodic",
    threads: int = 1,
    program: Optional[StencilProgram] = None,
    backend: str = "interpreter",
    reuse_buffers: bool = True,
    reuse_output: bool = False,
) -> VerificationResult:
    """Compare an islands run to the whole-domain run, bit for bit.

    ``backend`` / ``reuse_buffers`` / ``reuse_output`` select the
    steady-state engine configuration under test (see
    :class:`~repro.runtime.island_exec.PartitionedRunner`); every
    combination must reproduce the whole-domain reference exactly.
    """
    whole = MpdataSolver(shape, boundary=boundary, program=program)
    expected = whole.run(state, steps)
    config = EngineConfig(
        backend=backend,
        boundary=boundary,
        threads=threads,
        reuse_buffers=reuse_buffers,
        reuse_output=reuse_output,
    )
    with MpdataIslandSolver(
        shape,
        islands,
        variant=variant,
        config=config,
        program=program,
    ) as split:
        actual = split.run(state, steps)
        exact = bool(np.array_equal(expected, actual))
        diff = float(np.abs(expected - actual).max()) if not exact else 0.0
    return VerificationResult(islands, variant, steps, exact, diff)


def verify_variants(
    shape: Tuple[int, int, int],
    state: MpdataState,
    island_counts: Sequence[int],
    steps: int = 1,
    boundary: str = "periodic",
) -> Tuple[VerificationResult, ...]:
    """Verify both 1D variants across a range of island counts."""
    results = []
    for variant in (Variant.A, Variant.B):
        for islands in island_counts:
            results.append(
                verify_islands(
                    shape, state, islands, variant, steps=steps, boundary=boundary
                )
            )
    return tuple(results)
