"""Property tests for the kernel-IR lowering and its slot allocator.

The central invariants, checked by replaying every lowered schedule op by
op over the whole stencil gallery plus the MPDATA variants:

* **release at last use** — every slot an op frees was an operand of that
  very op, and a freed slot is never read again until it is re-acquired
  as a destination;
* **exact liveness bound** — the allocator's high-water mark
  (``peak_float_slots`` / ``peak_mask_slots``) equals the maximum number
  of simultaneously live slots observed during the replay;
* **balance** — every acquired slot is released by the end of the stage,
  and ``float_slots`` / ``mask_slots`` list exactly the slots ever used.

Plus determinism: lowering the same plan twice yields equal IR, and the
C emission over it is byte-stable.
"""

import numpy as np
import pytest

from repro.mpdata import MpdataSolver, mpdata_program
from repro.stencil import (
    GALLERY,
    Access,
    Field,
    FieldRole,
    Stage,
    StencilProgram,
    Where,
    full_box,
    lower_plan,
    required_regions,
)
from repro.stencil.lowering import (
    BinaryOp,
    CopyOp,
    SelectOp,
    UnaryOp,
)
from repro.stencil.native import emit_c_source


def _mpdata_plan():
    program = mpdata_program()
    solver = MpdataSolver((16, 12, 8))
    plan = required_regions(
        program, solver.domain, domain=solver.extended_domain
    )
    return program, plan


def _gallery_plan(name):
    program = GALLERY[name]()
    plan = required_regions(program, full_box((10, 8, 6)))
    return program, plan


def _deep_select_program():
    """Nested selections stress mask-slot reuse across subtrees."""
    x = Access("x")
    inner = Where(x - 1.0, x * 2.0, x + 3.0)
    outer = Where(inner, Where(x, inner, x / 2.0), inner - x)
    return StencilProgram.build(
        "deep_select",
        inputs=(Field("x", FieldRole.INPUT),),
        stages=(Stage("pick", "y", outer),),
        outputs=("y",),
    )


def _corpus():
    yield _mpdata_plan()
    # Deeper corrective pass: unclipped plan (ghosts implied by the
    # required regions themselves; the solver's extension is iord=2-deep).
    program = mpdata_program(iord=3, nonosc=True)
    yield program, required_regions(program, full_box((16, 12, 8)))
    for name in sorted(GALLERY):
        yield _gallery_plan(name)
    deep = _deep_select_program()
    yield deep, required_regions(deep, full_box((6, 5, 4)))


def _op_reads(op):
    """Operands an op consumes (the mask is written, not read)."""
    if isinstance(op, UnaryOp):
        return (op.operand,)
    if isinstance(op, BinaryOp):
        return (op.left, op.right)
    if isinstance(op, SelectOp):
        return (op.condition, op.if_true, op.if_false)
    if isinstance(op, CopyOp):
        return (op.source,)
    raise TypeError(type(op).__name__)


def _replay(schedule):
    """Re-execute a schedule's slot discipline; return observed peaks."""
    live = {"slot": set(), "mask": set()}
    seen = {"slot": set(), "mask": set()}
    peak = {"slot": 0, "mask": 0}

    for op in schedule.ops:
        reads = _op_reads(op)
        for operand in reads:
            if operand.is_slot():
                assert operand.slot in live[operand.kind], (
                    f"{schedule.name}: op reads {operand.text} but that "
                    "slot is not live (released too early)"
                )
        # Acquisitions: the destination (when a scratch slot) and, for a
        # selection, the mask — both live before anything is freed,
        # mirroring the allocator's acquire-then-release order.
        acquired = []
        if op.dest.is_slot():
            acquired.append(op.dest)
        if isinstance(op, SelectOp):
            assert op.mask.kind == "mask"
            acquired.append(op.mask)
        for operand in acquired:
            assert operand.slot not in live[operand.kind], (
                f"{schedule.name}: {operand.text} acquired while live"
            )
            live[operand.kind].add(operand.slot)
            seen[operand.kind].add(operand.slot)
        for kind in peak:
            peak[kind] = max(peak[kind], len(live[kind]))

        # Releases: exactly once, only of operands this op touched.
        touched = {
            (o.kind, o.slot) for o in (*reads, *acquired) if o.is_slot()
        }
        freed_here = set()
        for operand in op.frees:
            assert operand.is_slot()
            key = (operand.kind, operand.slot)
            assert key not in freed_here, (
                f"{schedule.name}: {operand.text} double-freed by one op"
            )
            freed_here.add(key)
            assert key in touched, (
                f"{schedule.name}: op frees {operand.text} without "
                "using it — not a last-use release"
            )
            assert operand.slot in live[operand.kind]
            live[operand.kind].remove(operand.slot)

    assert not live["slot"] and not live["mask"], (
        f"{schedule.name}: slots still live after the stage root: {live}"
    )
    return seen, peak


@pytest.mark.parametrize(
    "program,plan", list(_corpus()), ids=lambda value: getattr(value, "name", "")
)
class TestSlotAllocatorProperties:
    def test_release_at_last_use_and_exact_liveness_bound(self, program, plan):
        ir = lower_plan(program, plan)
        assert ir.stages, "corpus plans must lower to at least one stage"
        for schedule in ir.stages:
            seen, peak = _replay(schedule)
            assert schedule.float_slots == tuple(sorted(seen["slot"]))
            assert schedule.mask_slots == tuple(sorted(seen["mask"]))
            assert schedule.peak_float_slots == peak["slot"], (
                f"{schedule.name}: allocator high-water "
                f"{schedule.peak_float_slots} != max concurrent liveness "
                f"{peak['slot']}"
            )
            assert schedule.peak_mask_slots == peak["mask"]

    def test_slot_numbering_is_dense_from_zero(self, program, plan):
        ir = lower_plan(program, plan)
        for schedule in ir.stages:
            assert schedule.float_slots == tuple(
                range(schedule.peak_float_slots)
            )
            assert schedule.mask_slots == tuple(
                range(schedule.peak_mask_slots)
            )

    def test_lowering_and_emission_deterministic(self, program, plan):
        first = lower_plan(program, plan)
        second = lower_plan(program, plan)
        assert first.stages == second.stages
        assert first.anchors == second.anchors
        for dtype in (np.float64, np.float32):
            assert emit_c_source(first, dtype) == emit_c_source(second, dtype)
