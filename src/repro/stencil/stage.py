"""A single stencil stage: one output field defined by one expression.

MPDATA's time step is a sequence of 17 such stages (Sect. 3.1 of the paper);
each stage sweeps the grid writing one field, reading fields produced by
earlier stages or program inputs at constant offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import FrozenSet, Mapping, Set, Tuple

from .expr import Expr, Offset

__all__ = ["Stage", "AxisExtent"]


@dataclass(frozen=True)
class AxisExtent:
    """Per-axis stencil reach of a stage on one field.

    ``lo`` is how far the stage reads *below* the output point (a
    non-negative count), ``hi`` how far above.  A 3-point stencil in *i*
    reading ``f[i-1], f[i], f[i+1]`` has ``lo = hi = (1, 0, 0)``... per-axis
    values are stored as 3-tuples covering all axes at once.
    """

    lo: Offset
    hi: Offset

    @staticmethod
    def from_offsets(offsets: Set[Offset]) -> "AxisExtent":
        """The tight extent covering every offset in the set."""
        if not offsets:
            return AxisExtent((0, 0, 0), (0, 0, 0))
        lo = tuple(max(0, -min(o[a] for o in offsets)) for a in range(3))
        hi = tuple(max(0, max(o[a] for o in offsets)) for a in range(3))
        return AxisExtent(lo, hi)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Stage:
    """One stage of a stencil program.

    Parameters
    ----------
    name:
        Human-readable label (e.g. ``"flux_i"``).
    output:
        Name of the field this stage writes.
    expr:
        The per-point expression; its accesses define the stage's stencil
        pattern.
    """

    name: str
    output: str
    expr: Expr

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        if not self.output:
            raise ValueError("stage output field must be named")

    # The footprint is derived once per stage instance and kept outside
    # the dataclass fields (equality, hashing and ``replace`` ignore it),
    # so a lookup never hashes the expression tree.
    def _derived(self) -> Tuple[Mapping[str, FrozenSet[Offset]], Tuple[str, ...]]:
        cached = self.__dict__.get("_footprint_cache")
        if cached is None:
            footprint = {
                name: frozenset(offsets)
                for name, offsets in self.expr.footprint().items()
            }
            cached = (footprint, tuple(sorted(footprint)))
            object.__setattr__(self, "_footprint_cache", cached)
        return cached

    @property
    def footprint(self) -> Mapping[str, FrozenSet[Offset]]:
        """Fields read by this stage, mapped to the offsets accessed.

        A read-only view: every caller shares the one cached footprint.
        """
        return MappingProxyType(self._derived()[0])

    @property
    def reads(self) -> Tuple[str, ...]:
        """Names of fields this stage reads, in sorted order."""
        return self._derived()[1]

    def extent_on(self, field_name: str) -> AxisExtent:
        """Stencil reach of this stage on one of its read fields."""
        offsets = self.footprint.get(field_name, set())
        return AxisExtent.from_offsets(offsets)

    @property
    def flops_per_point(self) -> int:
        """Floating-point operations per output grid point (all ops)."""
        return self.expr.flops()

    @property
    def arith_flops_per_point(self) -> int:
        """Arithmetic (add/sub/mul/div/sqrt) ops per point — the convention
        of hardware FLOP counters and hence of the paper's Gflop/s."""
        return self.expr.arithmetic_flops()

    @property
    def reads_per_point(self) -> int:
        """Distinct (field, offset) loads per output grid point."""
        return sum(len(offsets) for offsets in self.footprint.values())

    def is_pointwise_on(self, field_name: str) -> bool:
        """True when every access to ``field_name`` is at offset (0,0,0)."""
        return self.footprint.get(field_name, set()) <= {(0, 0, 0)}

    def __repr__(self) -> str:
        return f"Stage({self.name!r} -> {self.output})"
