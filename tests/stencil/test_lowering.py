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
C emission over it is byte-stable; and the periodic windows: lowered with
a periodic domain, each stage computes only the domain on the j/k axes
its box spans with ghosts at most one period deep, and its whole box
everywhere else.
"""

import numpy as np
import pytest

from repro.core import partition_grid_2d
from repro.core.halo import island_halo_plans
from repro.mpdata import MpdataSolver, mpdata_program
from repro.stencil import (
    GALLERY,
    Access,
    Box,
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


def _axis(box, axis):
    return box.lo[axis], box.hi[axis]


class TestPeriodicWindows:
    def test_paper_flux_k_computes_the_domain_of_its_box(self):
        """On the paper workloads' 256x128x32 grid, ``flux_k`` holds
        260x132x37 points and computes 260x128x32 of them."""
        program = mpdata_program()
        solver = MpdataSolver((256, 128, 32))
        plan = required_regions(
            program, solver.domain, domain=solver.extended_domain
        )
        ir = lower_plan(program, plan, periodic=solver.domain)
        (flux_k,) = [s for s in ir.stages if s.name == "flux_k"]
        assert flux_k.box.shape == (260, 132, 37)
        assert flux_k.window.shape == (260, 128, 32)
        assert flux_k.points == 260 * 128 * 32
        for schedule in ir.stages:
            assert _axis(schedule.window, 0) == _axis(schedule.box, 0)
            for axis in (1, 2):
                assert _axis(schedule.window, axis) == _axis(solver.domain, axis)

    def test_without_a_domain_every_window_is_the_box(self):
        program, plan = _mpdata_plan()
        for schedule in lower_plan(program, plan).stages:
            assert schedule.window == schedule.box
            assert schedule.points == schedule.box.size

    def test_a_grid_island_windows_k_but_not_j(self):
        """A 2x2 grid's islands span the domain on k only: their j ghosts'
        images belong to the other island of the row."""
        program = mpdata_program()
        solver = MpdataSolver((16, 12, 8))
        partition = partition_grid_2d(solver.domain, 2, 2)
        plans = island_halo_plans(
            program, partition, clip_domain=solver.extended_domain
        )
        for plan in plans:
            stages = lower_plan(program, plan, periodic=solver.domain).stages
            assert any(s.window != s.box for s in stages)
            for schedule in stages:
                for axis in (0, 1):
                    assert _axis(schedule.window, axis) == _axis(
                        schedule.box, axis
                    )
                assert _axis(schedule.window, 2) == _axis(solver.domain, 2)

    def test_a_box_deeper_than_one_period_stays_whole(self):
        """On a domain 2 cells deep in k, ``flux_k`` reaches 3 cells past
        it, so its k axis stays whole; ``pseudo_vel_i`` reaches 1 and is
        cut to the domain.  j (12 cells) is cut for both."""
        program = mpdata_program()
        domain = full_box((16, 12, 2))
        extended = Box((-3, -3, -3), (19, 15, 5))
        plan = required_regions(program, domain, domain=extended)
        stages = {
            s.name: s for s in lower_plan(program, plan, periodic=domain).stages
        }
        flux_k, pseudo = stages["flux_k"], stages["pseudo_vel_i"]
        assert _axis(flux_k.box, 2) == (-2, 5)
        assert _axis(flux_k.window, 2) == (-2, 5)
        assert _axis(pseudo.box, 2) == (-1, 3)
        assert _axis(pseudo.window, 2) == (0, 2)
        for schedule in (flux_k, pseudo):
            assert _axis(schedule.window, 1) == (0, 12)
