"""Scalar expression trees for stencil stages.

An :class:`Expr` describes, for one output grid point, how its value is
computed from neighbouring points of other fields.  Expressions are immutable
trees built from field accesses at constant offsets, numeric constants and a
small algebra of arithmetic / selection operators.

The tree supports three interpretations used throughout the library:

* vectorized evaluation over NumPy array views (:meth:`Expr.evaluate`),
* access-footprint extraction — which offsets of which fields are read
  (:meth:`Expr.footprint`), and
* floating-point operation counting (:meth:`Expr.flops`).

Keeping all three derivable from a single definition is what lets the
reproduction *compute* halo sizes (Table 2 of the paper) and sustained
Gflop/s (Table 4) instead of hard-coding them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple, Union

import numpy as np

Offset = Tuple[int, int, int]

__all__ = [
    "Offset",
    "EvalArena",
    "Expr",
    "Const",
    "Access",
    "Unary",
    "Binary",
    "Where",
    "as_expr",
    "fmax",
    "fmin",
    "fabs",
    "pos",
    "neg",
    "sqrt",
]


class EvalArena:
    """Recycled scratch buffers for ``out=``-aware expression evaluation.

    Naive :meth:`Expr.evaluate` lets every ufunc allocate its result, so a
    deep tree costs one fresh array per operator node, every stage, every
    time step.  An arena instead hands each operator a reshaped view of a
    pooled flat buffer; the buffer goes back on the free list as soon as
    the parent has consumed it.  A steady-state evaluator therefore holds
    only ``depth``-many scratch buffers, and — when the arena is kept
    alive across calls — performs **zero** allocations after warm-up.

    Buffers are pooled by capacity (tree nodes in one stage share a shape,
    but stages differ slightly), floats and boolean selection masks
    separately.  ``allocations`` / ``reuses`` count pool misses and hits.
    """

    __slots__ = ("dtype", "_free", "_free_mask", "_bases", "allocations", "reuses")

    def __init__(self, dtype: "np.dtype" = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._free: List[np.ndarray] = []  # flat, ascending by size
        self._free_mask: List[np.ndarray] = []
        self._bases: Dict[int, np.ndarray] = {}  # id(view) -> flat base
        self.allocations = 0
        self.reuses = 0

    # ------------------------------------------------------------------
    def _acquire_from(
        self, pool: List[np.ndarray], shape: Tuple[int, ...], dtype: "np.dtype"
    ) -> np.ndarray:
        need = 1
        for extent in shape:
            need *= extent
        for slot, base in enumerate(pool):
            if base.size >= need:
                del pool[slot]
                self.reuses += 1
                break
        else:
            base = np.empty(need, dtype=dtype)
            self.allocations += 1
        view = base[:need].reshape(shape)
        self._bases[id(view)] = base
        return view

    def acquire(self, shape: Tuple[int, ...]) -> np.ndarray:
        """A scratch array of the given shape (contents undefined)."""
        return self._acquire_from(self._free, shape, self.dtype)

    def acquire_mask(self, shape: Tuple[int, ...]) -> np.ndarray:
        """A boolean scratch array (for :class:`Where` selections)."""
        return self._acquire_from(self._free_mask, shape, np.dtype(bool))

    def release(self, value: object) -> None:
        """Return a previously acquired array to the pool.

        Anything not handed out by this arena — field views, Python
        scalars, caller-owned ``out`` arrays — is silently ignored, which
        lets evaluators release every operand unconditionally.
        """
        base = self._bases.pop(id(value), None)
        if base is None:
            return
        pool = self._free_mask if base.dtype == np.bool_ else self._free
        position = 0
        while position < len(pool) and pool[position].size < base.size:
            position += 1
        pool.insert(position, base)

    @property
    def outstanding(self) -> int:
        """Number of acquired-but-unreleased buffers (0 between stages)."""
        return len(self._bases)


class Expr:
    """Base class for all expression nodes.

    Subclasses are immutable; arithmetic operators build new trees.
    """

    # ------------------------------------------------------------------
    # Operator sugar
    # ------------------------------------------------------------------
    def __add__(self, other: "ExprLike") -> "Expr":
        return Binary("add", self, as_expr(other))

    def __radd__(self, other: "ExprLike") -> "Expr":
        return Binary("add", as_expr(other), self)

    def __sub__(self, other: "ExprLike") -> "Expr":
        return Binary("sub", self, as_expr(other))

    def __rsub__(self, other: "ExprLike") -> "Expr":
        return Binary("sub", as_expr(other), self)

    def __mul__(self, other: "ExprLike") -> "Expr":
        return Binary("mul", self, as_expr(other))

    def __rmul__(self, other: "ExprLike") -> "Expr":
        return Binary("mul", as_expr(other), self)

    def __truediv__(self, other: "ExprLike") -> "Expr":
        return Binary("div", self, as_expr(other))

    def __rtruediv__(self, other: "ExprLike") -> "Expr":
        return Binary("div", as_expr(other), self)

    def __neg__(self) -> "Expr":
        return Unary("neg", self)

    # ------------------------------------------------------------------
    # Interpretations
    # ------------------------------------------------------------------
    def evaluate(
        self,
        resolve: Callable[[str, Offset], np.ndarray],
        out: Optional[np.ndarray] = None,
        scratch: Optional[EvalArena] = None,
    ) -> np.ndarray:
        """Evaluate over array views.

        ``resolve(field, offset)`` must return the NumPy view of ``field``
        shifted by ``offset``, already restricted to the output region.

        Without ``out`` this is the naive evaluator: every operator node
        lets NumPy allocate its result.  With ``out`` the result is
        written into the given array and every intermediate ufunc receives
        an ``out=`` scratch buffer recycled from ``scratch`` (an
        :class:`EvalArena`; a throwaway arena is created when omitted).
        Both paths call the identical ufuncs on the identical operands, so
        the results are bit-identical; only the allocation behaviour
        differs.
        """
        if out is None:
            return self._evaluate(resolve)
        arena = scratch if scratch is not None else EvalArena(out.dtype)
        result = self._eval_into(resolve, arena, out)
        if result is not out:
            # Root was a leaf (Access / Const): materialize into out.
            out[...] = result
            arena.release(result)
        return out

    def _evaluate(self, resolve: Callable[[str, Offset], np.ndarray]) -> np.ndarray:
        """Naive evaluation: NumPy allocates every intermediate."""
        raise NotImplementedError

    def _eval_into(
        self,
        resolve: Callable[[str, Offset], np.ndarray],
        arena: EvalArena,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        """Arena evaluation.

        Operator nodes compute into ``out`` when given one (the root call)
        or into a buffer acquired from ``arena`` otherwise, and release
        their operands' scratch back to the arena.  Leaves ignore ``out``
        and return the raw view / scalar.
        """
        raise NotImplementedError

    def footprint(self) -> Dict[str, Set[Offset]]:
        """Map each accessed field name to the set of offsets read."""
        acc: Dict[str, Set[Offset]] = {}
        self._collect_footprint(acc)
        return acc

    def _collect_footprint(self, acc: Dict[str, Set[Offset]]) -> None:
        raise NotImplementedError

    def flops(self) -> int:
        """Floating-point operations per output point, all ops counted.

        Counts add/sub/mul/div/max/min/abs/sqrt as one flop each.  Selection
        (:class:`Where`) counts the comparison as one op.  For the
        arithmetic-only convention used by hardware FLOP counters (and hence
        by the paper's Gflop/s numbers) see :meth:`arithmetic_flops`.
        """
        return sum(self.op_counts().values())

    def arithmetic_flops(self) -> int:
        """Add/sub/mul/div/neg/sqrt operations per output point.

        Excludes max/min/abs/positive-part selections, which execute as
        compare-and-blend instructions that hardware ``FLOPS_DP`` counters
        (likwid-perfctr, used by the paper) do not count.
        """
        counts = self.op_counts()
        return sum(counts.get(op, 0) for op in _ARITHMETIC_OPS)

    def op_counts(self) -> Dict[str, int]:
        """Count every operator in the tree, keyed by op name."""
        acc: Dict[str, int] = {}
        self._collect_ops(acc)
        return acc

    def _collect_ops(self, acc: Dict[str, int]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self._format()

    def _format(self) -> str:
        raise NotImplementedError


ExprLike = Union[Expr, int, float]


def as_expr(value: ExprLike) -> Expr:
    """Coerce a Python number to a :class:`Const`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot convert {type(value).__name__} to Expr")


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal."""

    value: float

    def _evaluate(self, resolve: Callable[[str, Offset], np.ndarray]) -> np.ndarray:
        return self.value  # type: ignore[return-value]  # broadcast by NumPy

    def _eval_into(
        self,
        resolve: Callable[[str, Offset], np.ndarray],
        arena: EvalArena,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        return self.value  # type: ignore[return-value]  # broadcast by NumPy

    def _collect_footprint(self, acc: Dict[str, Set[Offset]]) -> None:
        pass

    def _collect_ops(self, acc: Dict[str, int]) -> None:
        pass

    def _format(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Access(Expr):
    """Read of ``field`` at a constant 3D offset from the output point."""

    field: str
    offset: Offset = (0, 0, 0)

    def __post_init__(self) -> None:
        if len(self.offset) != 3:
            raise ValueError(f"offset must be 3D, got {self.offset!r}")

    def _evaluate(self, resolve: Callable[[str, Offset], np.ndarray]) -> np.ndarray:
        return resolve(self.field, self.offset)

    def _eval_into(
        self,
        resolve: Callable[[str, Offset], np.ndarray],
        arena: EvalArena,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        return resolve(self.field, self.offset)

    def _collect_footprint(self, acc: Dict[str, Set[Offset]]) -> None:
        acc.setdefault(self.field, set()).add(self.offset)

    def _collect_ops(self, acc: Dict[str, int]) -> None:
        pass

    def _format(self) -> str:
        di, dj, dk = self.offset
        if (di, dj, dk) == (0, 0, 0):
            return f"{self.field}[i,j,k]"
        parts = []
        for axis, d in zip("ijk", (di, dj, dk)):
            parts.append(axis if d == 0 else f"{axis}{d:+d}")
        return f"{self.field}[{','.join(parts)}]"


_UNARY_EVAL: Mapping[str, Callable[[np.ndarray], np.ndarray]] = {
    "neg": np.negative,
    "abs": np.abs,
    "sqrt": np.sqrt,
    # positive / negative part, as used by donor-cell upwinding:
    #   pos(u) = max(u, 0),  neg(u) = min(u, 0)
    "pos": lambda a: np.maximum(a, 0.0),
    "neg_part": lambda a: np.minimum(a, 0.0),
}

#: ``out=``-aware spellings of the same table — identical ufuncs, so the
#: arena evaluator is bit-identical to the naive one.
_UNARY_OUT: Mapping[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "neg": lambda a, out: np.negative(a, out=out),
    "abs": lambda a, out: np.abs(a, out=out),
    "sqrt": lambda a, out: np.sqrt(a, out=out),
    "pos": lambda a, out: np.maximum(a, 0.0, out=out),
    "neg_part": lambda a, out: np.minimum(a, 0.0, out=out),
}

#: Ops counted by hardware FLOP counters (arithmetic vector instructions).
_ARITHMETIC_OPS = frozenset({"add", "sub", "mul", "div", "neg", "sqrt"})


@dataclass(frozen=True)
class Unary(Expr):
    """A one-operand operator: neg, abs, sqrt, pos, neg_part."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in _UNARY_EVAL:
            raise ValueError(f"unknown unary op {self.op!r}")

    def _evaluate(self, resolve: Callable[[str, Offset], np.ndarray]) -> np.ndarray:
        return _UNARY_EVAL[self.op](self.operand._evaluate(resolve))

    def _eval_into(
        self,
        resolve: Callable[[str, Offset], np.ndarray],
        arena: EvalArena,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        operand = self.operand._eval_into(resolve, arena, None)
        if out is None:
            out = arena.acquire(np.shape(operand))
        _UNARY_OUT[self.op](operand, out)
        arena.release(operand)
        return out

    def _collect_footprint(self, acc: Dict[str, Set[Offset]]) -> None:
        self.operand._collect_footprint(acc)

    def _collect_ops(self, acc: Dict[str, int]) -> None:
        acc[self.op] = acc.get(self.op, 0) + 1
        self.operand._collect_ops(acc)

    def _format(self) -> str:
        return f"{self.op}({self.operand._format()})"


_BINARY_EVAL: Mapping[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "max": np.maximum,
    "min": np.minimum,
}


@dataclass(frozen=True)
class Binary(Expr):
    """A two-operand operator: add, sub, mul, div, max, min."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINARY_EVAL:
            raise ValueError(f"unknown binary op {self.op!r}")

    def _evaluate(self, resolve: Callable[[str, Offset], np.ndarray]) -> np.ndarray:
        return _BINARY_EVAL[self.op](
            self.left._evaluate(resolve), self.right._evaluate(resolve)
        )

    def _eval_into(
        self,
        resolve: Callable[[str, Offset], np.ndarray],
        arena: EvalArena,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        left = self.left._eval_into(resolve, arena, None)
        right = self.right._eval_into(resolve, arena, None)
        if out is None:
            out = arena.acquire(np.shape(left) or np.shape(right))
        _BINARY_EVAL[self.op](left, right, out=out)
        arena.release(left)
        arena.release(right)
        return out

    def _collect_footprint(self, acc: Dict[str, Set[Offset]]) -> None:
        self.left._collect_footprint(acc)
        self.right._collect_footprint(acc)

    def _collect_ops(self, acc: Dict[str, int]) -> None:
        acc[self.op] = acc.get(self.op, 0) + 1
        self.left._collect_ops(acc)
        self.right._collect_ops(acc)

    def _format(self) -> str:
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}.get(self.op)
        if sym is not None:
            return f"({self.left._format()} {sym} {self.right._format()})"
        return f"{self.op}({self.left._format()}, {self.right._format()})"


@dataclass(frozen=True)
class Where(Expr):
    """Selection: ``if_true`` where ``condition > 0`` else ``if_false``."""

    condition: Expr
    if_true: Expr
    if_false: Expr

    def _evaluate(self, resolve: Callable[[str, Offset], np.ndarray]) -> np.ndarray:
        cond = self.condition._evaluate(resolve)
        return np.where(
            np.asarray(cond) > 0.0,
            self.if_true._evaluate(resolve),
            self.if_false._evaluate(resolve),
        )

    def _eval_into(
        self,
        resolve: Callable[[str, Offset], np.ndarray],
        arena: EvalArena,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        # np.where has no out=; an equivalent zero-allocation selection is
        # a comparison into a pooled mask plus two masked copies.  Every
        # element receives exactly the value np.where would pick, so this
        # stays bit-identical to the naive evaluator.
        cond = self.condition._eval_into(resolve, arena, None)
        if_true = self.if_true._eval_into(resolve, arena, None)
        if_false = self.if_false._eval_into(resolve, arena, None)
        shape = np.shape(cond) or np.shape(if_true) or np.shape(if_false)
        if out is None:
            out = arena.acquire(shape)
        mask = arena.acquire_mask(shape)
        np.greater(cond, 0.0, out=mask)
        np.copyto(out, if_false)
        np.copyto(out, if_true, where=mask)
        arena.release(mask)
        arena.release(cond)
        arena.release(if_true)
        arena.release(if_false)
        return out

    def _collect_footprint(self, acc: Dict[str, Set[Offset]]) -> None:
        self.condition._collect_footprint(acc)
        self.if_true._collect_footprint(acc)
        self.if_false._collect_footprint(acc)

    def _collect_ops(self, acc: Dict[str, int]) -> None:
        acc["where"] = acc.get("where", 0) + 1
        self.condition._collect_ops(acc)
        self.if_true._collect_ops(acc)
        self.if_false._collect_ops(acc)

    def _format(self) -> str:
        return (
            f"where({self.condition._format()} > 0, "
            f"{self.if_true._format()}, {self.if_false._format()})"
        )


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def _select_tree(op: str, operands: Tuple[ExprLike, ...]) -> Expr:
    """``op`` over ``operands`` as a balanced tree, in operand order.

    A left fold over n operands is a dependent chain of n - 1 selects; a
    balanced tree is ceil(log2 n) deep, so the C kernels can overlap its
    independent selects.  The bits are the same for any bracketing that
    keeps the operand order.  NumPy's rule (and the C ``_np_fmax``) is
    ``max(a, b) = (a > b or isnan(a)) ? a : b``: it returns one operand
    unchanged, the first NaN of the two, else the larger, else (a tie,
    ``-0 == +0`` included) the second.  Call that selection ``f`` over a
    sequence: the first NaN in it, else its last maximal operand.  Then
    ``f(L + R) == max(f(L), f(R))`` for any split of a sequence into a
    left part ``L`` and a right part ``R``: a NaN in ``L`` is returned
    (``f(L)`` is that first NaN); else a NaN in ``R`` is (``f(R)``);
    else the larger maximum wins, and on a tie the last maximal operand
    lies in ``R``, which is the second operand ``f(R)``.  So every tree
    over the same sequence selects the same operand, NaN payload and
    sign of zero included.  ``min`` is the same with ``<``.
    """
    if len(operands) == 1:
        return as_expr(operands[0])
    middle = len(operands) // 2
    return Binary(
        op,
        _select_tree(op, operands[:middle]),
        _select_tree(op, operands[middle:]),
    )


def fmax(a: ExprLike, b: ExprLike, *rest: ExprLike) -> Expr:
    """Elementwise maximum of two or more expressions (a balanced tree in
    operand order, bit-identical to the left fold; see
    :func:`_select_tree`)."""
    return _select_tree("max", (a, b) + rest)


def fmin(a: ExprLike, b: ExprLike, *rest: ExprLike) -> Expr:
    """Elementwise minimum of two or more expressions (a balanced tree in
    operand order, bit-identical to the left fold; see
    :func:`_select_tree`)."""
    return _select_tree("min", (a, b) + rest)


def fabs(a: ExprLike) -> Expr:
    """Elementwise absolute value."""
    return Unary("abs", as_expr(a))


def pos(a: ExprLike) -> Expr:
    """Positive part, ``max(a, 0)`` — the donor-cell upwind selector."""
    return Unary("pos", as_expr(a))


def neg(a: ExprLike) -> Expr:
    """Negative part, ``min(a, 0)``."""
    return Unary("neg_part", as_expr(a))


def sqrt(a: ExprLike) -> Expr:
    """Elementwise square root."""
    return Unary("sqrt", as_expr(a))
