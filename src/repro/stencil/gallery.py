"""A gallery of classic stencil programs.

The islands-of-cores machinery is application-agnostic; these standard
kernels exercise it across the pattern space — single wide stencils,
two-field leapfrogs, and deep heterogeneous chains:

* :func:`jacobi7` — 7-point 3D Jacobi smoother (the "hello world"),
* :func:`heat3d` — explicit heat equation with diffusivity ``alpha``,
* :func:`star3d` — high-order star stencil of configurable radius,
* :func:`wave3d` — leapfrog wave equation over two time levels,
* :func:`biharmonic` — Laplacian-of-Laplacian, a 2-stage chain,
* :func:`smoother_chain` — ``depth`` chained smoothers, the synthetic
  heterogeneous chain used to study redundancy growth with pipeline depth
  (each extra stage deepens the transitive halo by one).

All programs are single-output and runnable by every executor in the
library (interpreter, native, partitioned, threaded).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .expr import Access, Expr
from .field import Field, FieldRole
from .program import StencilProgram
from .stage import Stage

__all__ = [
    "jacobi7",
    "heat3d",
    "star3d",
    "wave3d",
    "biharmonic",
    "smoother_chain",
    "GALLERY",
]

_AXES = (0, 1, 2)


def _off(axis: int, distance: int) -> Tuple[int, int, int]:
    return tuple(distance if a == axis else 0 for a in _AXES)  # type: ignore[return-value]


def _neighbour_sum(field: str, radius: int = 1) -> Expr:
    """Sum of the ``6 * radius`` axis neighbours at distances 1..radius."""
    total: Expr = None  # type: ignore[assignment]
    for axis in _AXES:
        for distance in range(1, radius + 1):
            for sign in (-1, 1):
                term = Access(field, _off(axis, sign * distance))
                total = term if total is None else total + term
    return total


@lru_cache(maxsize=None)
def jacobi7() -> StencilProgram:
    """7-point Jacobi: the average of a cell and its six face neighbours."""
    expr = (Access("u") + _neighbour_sum("u")) * (1.0 / 7.0)
    return StencilProgram.build(
        "jacobi7",
        inputs=(Field("u", FieldRole.INPUT),),
        stages=(Stage("smooth", "u_out", expr),),
        outputs=("u_out",),
    )


@lru_cache(maxsize=None)
def heat3d(alpha: float = 0.1) -> StencilProgram:
    """Explicit 3D heat step: ``u + alpha * laplacian(u)``.

    Stable for ``alpha <= 1/6``.
    """
    laplacian = _neighbour_sum("u") - 6.0 * Access("u")
    expr = Access("u") + alpha * laplacian
    return StencilProgram.build(
        f"heat3d_a{alpha}",
        inputs=(Field("u", FieldRole.INPUT),),
        stages=(Stage("heat", "u_out", expr),),
        outputs=("u_out",),
    )


@lru_cache(maxsize=None)
def star3d(radius: int = 4) -> StencilProgram:
    """High-order star stencil: weighted neighbours out to ``radius``.

    The classic HPC benchmark shape (e.g. the 25-point star at radius 4);
    one stage, but a *wide* halo — the opposite regime from MPDATA's deep
    chain of narrow stages.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    total: Expr = Access("u") * 0.5
    for distance in range(1, radius + 1):
        weight = 0.5 / (6.0 * radius * distance)
        for axis in _AXES:
            for sign in (-1, 1):
                total = total + weight * Access(
                    "u", _off(axis, sign * distance)
                )
    return StencilProgram.build(
        f"star3d_r{radius}",
        inputs=(Field("u", FieldRole.INPUT),),
        stages=(Stage("star", "u_out", total),),
        outputs=("u_out",),
    )


@lru_cache(maxsize=None)
def wave3d(courant2: float = 0.1) -> StencilProgram:
    """Leapfrog wave equation: two time levels in, the next level out.

    ``u_next = 2 u - u_prev + c^2 laplacian(u)`` — a multi-input program,
    which exercises per-input halo bookkeeping (``u`` needs a halo,
    ``u_prev`` does not).
    """
    laplacian = _neighbour_sum("u") - 6.0 * Access("u")
    expr = 2.0 * Access("u") - Access("u_prev") + courant2 * laplacian
    return StencilProgram.build(
        f"wave3d_c{courant2}",
        inputs=(
            Field("u", FieldRole.INPUT),
            Field("u_prev", FieldRole.INPUT),
        ),
        stages=(Stage("leapfrog", "u_next", expr),),
        outputs=("u_next",),
    )


@lru_cache(maxsize=None)
def biharmonic(scale: float = 0.01) -> StencilProgram:
    """Biharmonic damping: ``u - scale * laplacian(laplacian(u))``.

    A genuine two-stage chain — the Laplacian is materialized, then
    differentiated again — so partitioned execution must recompute an
    intermediate, like MPDATA in miniature.
    """
    laplacian = _neighbour_sum("u") - 6.0 * Access("u")
    second = _neighbour_sum("lap") - 6.0 * Access("lap")
    expr = Access("u") - scale * second
    return StencilProgram.build(
        f"biharmonic_s{scale}",
        inputs=(Field("u", FieldRole.INPUT),),
        stages=(
            Stage("laplacian", "lap", laplacian),
            Stage("damp", "u_out", expr),
        ),
        outputs=("u_out",),
    )


@lru_cache(maxsize=None)
def smoother_chain(depth: int = 4) -> StencilProgram:
    """``depth`` chained 7-point smoothers.

    Every stage deepens the transitive halo by exactly one cell per side,
    so the chain is the controlled instrument for studying how island
    redundancy grows with pipeline depth.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    stages = []
    current = "u"
    for index in range(depth):
        output = "u_out" if index == depth - 1 else f"s{index}"
        expr = (Access(current) + _neighbour_sum(current)) * (1.0 / 7.0)
        stages.append(Stage(f"smooth{index}", output, expr))
        current = output
    return StencilProgram.build(
        f"smoother_chain_{depth}",
        inputs=(Field("u", FieldRole.INPUT),),
        stages=tuple(stages),
        outputs=("u_out",),
    )


#: Name -> zero-argument builder, for sweeping experiments over the gallery.
GALLERY = {
    "jacobi7": jacobi7,
    "heat3d": heat3d,
    "star3d": star3d,
    "wave3d": wave3d,
    "biharmonic": biharmonic,
    "smoother_chain": smoother_chain,
}
