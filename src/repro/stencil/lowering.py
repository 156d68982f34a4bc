"""Backend-neutral lowering of stencil programs to a typed kernel IR.

Historically the three-address lowering — walking each stage expression,
assigning every operator node an explicit destination, register-allocating
scratch slots — lived as string emission inside :mod:`repro.stencil.codegen`.
That tied the lowering decisions (slot liveness, statement order, selection
expansion) to one backend's surface syntax.  This module extracts the
lowering into explicit, typed data:

* :class:`Operand` — a tagged reference to a value: a constant literal, a
  bound input view, a numbered float scratch slot, a numbered boolean mask
  slot, or the stage's output array.
* :class:`UnaryOp` / :class:`BinaryOp` / :class:`SelectOp` / :class:`CopyOp`
  — one elementwise operation each, in program order, carrying the exact
  set of slots *released* after the op fires (``frees``).
* :class:`StageSchedule` — one stage's complete schedule: its compute box,
  the window of it the kernel computes (the rest is copied from periodic
  images), view bindings, op list and slot-liveness summary.
* :class:`KernelIR` — the whole plan's schedules plus anchor geometry.

The lowering mirrors ``Expr._eval_into`` exactly — same operation set, same
evaluation order, same selection expansion (compare, copy-else, masked
copy-then) — so any backend that executes the ops faithfully reproduces the
interpreter bit for bit.  The IR has one emitter, the fused-C one in
:mod:`repro.stencil.native`, a thin walk over this IR; the cost model
(:mod:`repro.machine.costmodel`) reads the same schedules.

Slot allocation is LIFO: ``acquire`` pops the most recently released slot
(else opens a new one), ``release`` happens the moment an operand's last
consumer has fired.  ``high_water`` therefore equals the maximum number of
simultaneously live slots — the liveness bound pinned by the property test
in ``tests/stencil/test_lowering.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .expr import Access, Binary, Const, Expr, Offset, Unary, Where
from .halo import HaloPlan
from .program import StencilProgram
from .region import Box

__all__ = [
    "Operand",
    "ViewBind",
    "UnaryOp",
    "BinaryOp",
    "SelectOp",
    "CopyOp",
    "KernelOp",
    "StageSchedule",
    "KernelIR",
    "lower_plan",
    "UNARY_OPS",
    "BINARY_OPS",
]

#: Operation names a :class:`UnaryOp` may carry (the interpreter's table).
UNARY_OPS = ("neg", "abs", "sqrt", "pos", "neg_part")

#: Operation names a :class:`BinaryOp` may carry.
BINARY_OPS = ("add", "sub", "mul", "div", "max", "min")


@dataclass(frozen=True)
class Operand:
    """A tagged reference to a value in a stage schedule.

    ``kind`` is one of:

    * ``"const"`` — a scalar literal; ``value`` holds the float, ``text``
      its ``repr`` (which C's ``strtod`` parses back to the same double).
    * ``"view"`` — a bound input view; ``text`` is the view symbol
      (``_v3``) resolved through the stage's :class:`ViewBind` list.
    * ``"slot"`` — float scratch slot ``slot``; ``text`` is ``_s{slot}``.
    * ``"mask"`` — boolean mask slot ``slot``; ``text`` is ``_m{slot}``.
    * ``"output"`` — the stage's output array; ``text`` is the field name.
    """

    kind: str
    text: str
    value: Optional[float] = None
    slot: Optional[int] = None

    def is_slot(self) -> bool:
        return self.kind in ("slot", "mask")


@dataclass(frozen=True)
class ViewBind:
    """One constant-geometry input view used by a stage.

    ``symbol`` is the view's name in generated code; ``field`` and
    ``offset`` identify the access; ``read_box`` is the global-coordinate
    box the view covers (``compute.shift(offset)``).  The emitter turns
    this into a constant base offset against the field's anchor box.
    """

    symbol: str
    field: str
    offset: Offset
    read_box: Box


@dataclass(frozen=True)
class UnaryOp:
    """``dest <- op(operand)``, elementwise."""

    op: str
    operand: Operand
    dest: Operand
    frees: Tuple[Operand, ...] = ()


@dataclass(frozen=True)
class BinaryOp:
    """``dest <- op(left, right)``, elementwise."""

    op: str
    left: Operand
    right: Operand
    dest: Operand
    frees: Tuple[Operand, ...] = ()


@dataclass(frozen=True)
class SelectOp:
    """``dest <- if_true where condition > 0 else if_false``, elementwise.

    Expands exactly like ``Where._eval_into``: compare into ``mask``, copy
    ``if_false`` into ``dest``, masked-copy ``if_true`` over it.  ``mask``
    is always a mask-slot operand and is always the first entry of
    ``frees`` (released before the float operands, mirroring the
    allocator's historical release order).
    """

    condition: Operand
    if_true: Operand
    if_false: Operand
    mask: Operand
    dest: Operand
    frees: Tuple[Operand, ...] = ()


@dataclass(frozen=True)
class CopyOp:
    """``dest <- source`` (leaf-rooted stage: pure copy into the output)."""

    source: Operand
    dest: Operand
    frees: Tuple[Operand, ...] = ()


KernelOp = Union[UnaryOp, BinaryOp, SelectOp, CopyOp]


@dataclass(frozen=True)
class StageSchedule:
    """The complete lowered schedule of one non-empty stage.

    ``index`` is the stage's position in the *program* (0-based; the
    emitted stage comments print ``index + 1``).  ``box`` is the
    stage's clipped compute box, the region its output holds.  Every op
    sweeps ``window``, the part of ``box`` the kernel computes: the whole
    box, except under a periodic boundary, where each j/k axis on which
    the box covers the domain is cut to the domain and the ghosts outside
    it are copied from their periodic images (:func:`lower_plan`).
    ``float_slots`` / ``mask_slots`` list every slot index the stage ever
    touches (sorted); ``peak_float_slots`` / ``peak_mask_slots`` are the
    allocator high-water marks — the maximum number of simultaneously
    live slots, i.e. the liveness bound.
    """

    index: int
    name: str
    output: str
    box: Box
    views: Tuple[ViewBind, ...]
    ops: Tuple[KernelOp, ...]
    float_slots: Tuple[int, ...]
    mask_slots: Tuple[int, ...]
    peak_float_slots: int
    peak_mask_slots: int
    window: Box

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.box.shape

    @property
    def points(self) -> int:
        """Points the kernel computes (its window's, not its box's)."""
        return self.window.size

    def reads(self) -> Tuple[str, ...]:
        """Distinct fields this schedule reads, in first-use order."""
        seen: List[str] = []
        for view in self.views:
            if view.field not in seen:
                seen.append(view.field)
        return tuple(seen)

    def op_histogram(self) -> Dict[str, int]:
        """Per-point operation counts by opcode (``select`` and ``copy``
        counted under those names)."""
        counts: Dict[str, int] = {}
        for op in self.ops:
            if isinstance(op, (UnaryOp, BinaryOp)):
                key = op.op
            elif isinstance(op, SelectOp):
                key = "select"
            else:
                key = "copy"
            counts[key] = counts.get(key, 0) + 1
        return counts


@dataclass(frozen=True)
class KernelIR:
    """Every non-empty stage of a plan, lowered and scheduled.

    ``anchors`` maps each live field (inputs *and* produced fields) to the
    box its backing array is anchored at; ``input_anchors`` is the subset
    for program inputs (the plan's input views).
    """

    program: StencilProgram
    plan: HaloPlan
    stages: Tuple[StageSchedule, ...]
    anchors: Dict[str, Box]
    input_anchors: Dict[str, Box]


class _SlotAllocator:
    """Compile-time register allocation for scratch / mask slots.

    LIFO reuse: the most recently released slot is handed out first, so
    ``high_water`` grows only when every previously opened slot is live —
    making it exactly the maximum concurrent-liveness bound.
    """

    def __init__(self, prefix: str, kind: str) -> None:
        self.prefix = prefix
        self.kind = kind
        self._free: List[int] = []
        self.high_water = 0
        self.used: set = set()

    def acquire(self) -> Operand:
        if self._free:
            slot = self._free.pop()
        else:
            slot = self.high_water
            self.high_water += 1
        self.used.add(slot)
        return Operand(self.kind, f"{self.prefix}{slot}", slot=slot)

    def release(self, operand: Optional[Operand], frees: List[Operand]) -> None:
        """Return ``operand``'s slot to the pool and record it in ``frees``."""
        if operand is not None and operand.kind == self.kind:
            assert operand.slot is not None
            self._free.append(operand.slot)
            frees.append(operand)


def _lower_expr(
    expr: Expr,
    views: Dict[Tuple[str, Offset], Operand],
    ops: List[KernelOp],
    floats: "_SlotAllocator",
    masks: "_SlotAllocator",
    dest: Optional[Operand],
) -> Operand:
    """Lower ``expr`` to three-address ops appended to ``ops``.

    Returns the operand holding the result.  Mirrors ``Expr._eval_into``:
    same operations, same order, same selection lowering — which is what
    keeps every backend bit-identical to the interpreter.  ``dest`` (the
    stage output operand) is used for the root node; interior nodes write
    freshly acquired scratch slots.
    """
    if isinstance(expr, Const):
        return Operand("const", repr(expr.value), value=expr.value)
    if isinstance(expr, Access):
        return views[(expr.field, expr.offset)]

    def destination() -> Operand:
        if dest is not None:
            return dest
        return floats.acquire()

    if isinstance(expr, Unary):
        operand = _lower_expr(expr.operand, views, ops, floats, masks, None)
        out = destination()
        frees: List[Operand] = []
        floats.release(operand if operand.is_slot() else None, frees)
        ops.append(UnaryOp(expr.op, operand, out, tuple(frees)))
        return out
    if isinstance(expr, Binary):
        left = _lower_expr(expr.left, views, ops, floats, masks, None)
        right = _lower_expr(expr.right, views, ops, floats, masks, None)
        out = destination()
        frees = []
        floats.release(left if left.is_slot() else None, frees)
        floats.release(right if right.is_slot() else None, frees)
        ops.append(BinaryOp(expr.op, left, right, out, tuple(frees)))
        return out
    if isinstance(expr, Where):
        cond = _lower_expr(expr.condition, views, ops, floats, masks, None)
        if_true = _lower_expr(expr.if_true, views, ops, floats, masks, None)
        if_false = _lower_expr(expr.if_false, views, ops, floats, masks, None)
        mask = masks.acquire()
        out = destination()
        frees = []
        masks.release(mask, frees)
        floats.release(cond if cond.is_slot() else None, frees)
        floats.release(if_true if if_true.is_slot() else None, frees)
        floats.release(if_false if if_false.is_slot() else None, frees)
        ops.append(SelectOp(cond, if_true, if_false, mask, out, tuple(frees)))
        return out
    raise TypeError(f"cannot lower expression node {type(expr).__name__}")


def _periodic_window(box: Box, domain: Optional[Box]) -> Box:
    """The part of ``box`` a stage computes under a periodic ``domain``.

    The IR is translation-invariant, so when every input ghost holds its
    periodic image, every stage's ghost values equal their images too.
    On each j/k axis where ``box`` covers the domain with ghosts at most
    one period deep, each ghost's image lies in the domain, so only the
    domain is computed there.  Axis i is the pipeline axis: an i ghost's
    image is another plane, which the rings need not hold.
    """
    if domain is None:
        return box
    lo, hi = list(box.lo), list(box.hi)
    for axis in (1, 2):
        start, stop = domain.lo[axis], domain.hi[axis]
        period = stop - start
        if (
            box.lo[axis] <= start
            and box.hi[axis] >= stop
            and start - box.lo[axis] <= period
            and box.hi[axis] - stop <= period
        ):
            lo[axis], hi[axis] = start, stop
    return Box(tuple(lo), tuple(hi))  # type: ignore[arg-type]


def lower_plan(
    program: StencilProgram, plan: HaloPlan, *, periodic: Optional[Box] = None
) -> KernelIR:
    """Lower every non-empty stage of ``plan`` to a :class:`KernelIR`.

    Validates what code generation requires — compilable field names and
    reads that stay inside the available (anchored) data — so a plan that
    cannot run fails here, before any C is emitted.

    ``periodic`` is the domain of a periodic boundary whose images every
    input's ghosts hold.  Each stage's ``window`` then leaves out the j/k
    ghosts its kernel can copy from their images (:func:`_periodic_window`);
    without it every window is the whole box.
    """
    for declared in program.fields:
        if not declared.name.isidentifier() or declared.name.startswith("_") or (
            declared.name in ("np",)
        ):
            raise ValueError(
                f"field name {declared.name!r} cannot be compiled to an "
                "identifier; rename the field"
            )

    # Anchor boxes: inputs are re-anchored to exactly their required
    # regions, produced fields to their stage compute boxes.
    anchors: Dict[str, Box] = {}
    input_anchors: Dict[str, Box] = {}
    for declared in program.input_fields:
        box = plan.input_boxes.get(declared.name)
        if box is None or box.is_empty():
            continue
        anchors[declared.name] = box
        input_anchors[declared.name] = box
    for index, stage in enumerate(program.stages):
        box = plan.stage_boxes[index]
        if not box.is_empty():
            anchors[stage.output] = box

    schedules: List[StageSchedule] = []
    view_counter = 0
    for index, stage in enumerate(program.stages):
        compute = plan.stage_boxes[index]
        if compute.is_empty():
            continue
        views: Dict[Tuple[str, Offset], Operand] = {}
        binds: List[ViewBind] = []
        for field_name in stage.reads:
            for offset in sorted(stage.footprint[field_name]):
                read_box = compute.shift(offset)
                if not anchors[field_name].contains(read_box):
                    # Mirrors the interpreter's runtime check: a clipped
                    # plan whose reads escape the available data cannot be
                    # executed — the caller must provide ghost layers
                    # (negative slice starts would silently wrap).
                    raise ValueError(
                        f"stage {stage.name!r} reads {field_name!r} over "
                        f"{read_box}, outside the available region "
                        f"{anchors[field_name]}; provide ghost data (see "
                        "repro.mpdata.boundary)"
                    )
                symbol = f"_v{view_counter}"
                view_counter += 1
                views[(field_name, offset)] = Operand("view", symbol)
                binds.append(ViewBind(symbol, field_name, offset, read_box))
        floats = _SlotAllocator("_s", "slot")
        masks = _SlotAllocator("_m", "mask")
        ops: List[KernelOp] = []
        out = Operand("output", stage.output)
        value = _lower_expr(stage.expr, views, ops, floats, masks, dest=out)
        if value.text != stage.output:
            # Leaf root (pure copy stage): materialize into the output.
            ops.append(CopyOp(value, out))
        schedules.append(
            StageSchedule(
                index=index,
                name=stage.name,
                output=stage.output,
                box=compute,
                views=tuple(binds),
                ops=tuple(ops),
                float_slots=tuple(sorted(floats.used)),
                mask_slots=tuple(sorted(masks.used)),
                peak_float_slots=floats.high_water,
                peak_mask_slots=masks.high_water,
                window=_periodic_window(compute, periodic),
            )
        )

    return KernelIR(
        program=program,
        plan=plan,
        stages=tuple(schedules),
        anchors=anchors,
        input_anchors=input_anchors,
    )
