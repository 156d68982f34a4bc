"""Property-based tests of the compiler-side invariants.

Random multi-stage programs are pushed through the native compiler, the
transformation passes and serialization; in every case the observable semantics (array
values, to the last bit) or the structure (program equality) must survive.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stencil import (
    Access,
    ArrayRegion,
    Box,
    Field,
    FieldRole,
    Stage,
    StencilProgram,
    compile_plan_native,
    eliminate_dead_stages,
    execute_plan,
    inline_all_temporaries,
    load_program,
    dump_program,
    lower_plan,
    native_available,
    required_regions,
    schedule_by_levels,
)
from repro.mpdata.boundary import BOUNDARY_MODES, extend_array
from repro.stencil.native import plane_schedule

offsets = st.tuples(
    st.integers(-2, 2), st.integers(-2, 2), st.integers(-1, 1)
)


@st.composite
def programs(draw):
    """Random dead-stage-free chains over two inputs (see the sibling
    module for the construction)."""
    n_stages = draw(st.integers(2, 5))
    available = ["x0", "x1"]
    stages = []
    for index in range(n_stages):
        n_reads = draw(st.integers(1, 3))
        expr = None
        for read_index in range(n_reads):
            field = (
                available[-1]
                if read_index == 0
                else draw(st.sampled_from(available))
            )
            access = Access(field, draw(offsets))
            term = access * draw(
                st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
            )
            expr = term if expr is None else expr + term
        name = f"t{index}"
        stages.append(Stage(f"s{index}", name, expr))
        available.append(name)
    return StencilProgram.build(
        "random",
        inputs=(Field("x0", FieldRole.INPUT), Field("x1", FieldRole.INPUT)),
        stages=tuple(stages),
        outputs=(stages[-1].output,),
    )


def _inputs_for(program, plan, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for field in program.input_fields:
        box = plan.input_boxes[field.name]
        if box.is_empty():
            continue
        out[field.name] = ArrayRegion(
            rng.standard_normal(box.shape), box
        )
    return out


@pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)
@settings(max_examples=40, deadline=None)
@given(program=programs(), seed=st.integers(0, 1000))
def test_codegen_bit_exact_for_random_programs(program, seed):
    """Fused native kernels compute the same bits as the interpreter on
    any program."""
    target = Box((0, 0, 0), (9, 7, 4))
    plan = required_regions(program, target)
    inputs = _inputs_for(program, plan, seed)
    expected, _ = execute_plan(program, plan, inputs)
    compiled = compile_plan_native(program, plan)
    actual = compiled(inputs)
    output = program.output_fields[0].name
    np.testing.assert_array_equal(
        actual[output].data, expected[output].data
    )


@settings(max_examples=60, deadline=None)
@given(program=programs(), depth=st.integers(1, 9), data=st.data())
def test_plane_schedule_reads_only_live_planes(program, depth, data):
    """Replaying the native pipeline's schedule: every plane a stage reads
    was computed earlier (an earlier tick, or earlier in the same tick)
    and still sits in its ring slot, and every stage computes each plane
    of its stage box exactly once, for any program and target depth.
    Every input plane read of a gathered input — any subset of the
    inputs is gathered — was copied into its ring (before the loop, or
    by this or an earlier tick) and not yet overwritten; the other
    inputs get no ring."""
    ir = lower_plan(program, required_regions(program, Box((0, 0, 0), (depth, 3, 2))))
    names = sorted(field.name for field in program.input_fields)
    gather = data.draw(st.sets(st.sampled_from(names)))
    schedule = plane_schedule(ir, gather)

    def slot(name, plane):
        return (plane - ir.anchors[name].lo[0]) % schedule.rings[name][0]

    def copy_in(name, plane):
        anchor = ir.anchors[name]
        if anchor.lo[0] <= plane < anchor.hi[0]:
            held[name][slot(name, plane)] = plane

    computed = {stage.output: set() for stage in ir.stages}
    held = {name: {} for name in schedule.rings}  # ring slot -> plane
    first = schedule.ticks[0]
    for name, (newest, _) in schedule.gathers.items():
        for shift in range(newest - schedule.rings[name][0] + 1, newest):
            copy_in(name, first + shift)
    for tick in range(*schedule.ticks):
        for n, (lag, stage) in enumerate(zip(schedule.lags, ir.stages)):
            for name, (newest, reader) in schedule.gathers.items():
                if reader == n:
                    copy_in(name, tick + newest)
            i = tick - lag
            if not stage.box.lo[0] <= i < stage.box.hi[0]:
                continue
            for view in stage.views:
                plane = i + view.offset[0]
                if view.field in schedule.gathers:
                    assert held[view.field][slot(view.field, plane)] == plane
                if view.field not in computed:
                    continue  # a program input
                assert plane in computed[view.field]
                if view.field in schedule.rings:
                    assert held[view.field][slot(view.field, plane)] == plane
            assert i not in computed[stage.output]
            computed[stage.output].add(i)
            if stage.output in schedule.rings:
                held[stage.output][slot(stage.output, i)] = i
    for stage in ir.stages:
        assert computed[stage.output] == set(range(stage.box.lo[0], stage.box.hi[0]))
    assert set(schedule.gathers) == set(ir.input_anchors) & gather
    assert schedule.gathered == set(ir.input_anchors) & gather
    assert not set(ir.input_anchors) - gather & set(schedule.rings)


@pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)
@settings(max_examples=20, deadline=None)
@given(
    program=programs(),
    lo=st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 5)),
    extent=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 6)),
    mode=st.sampled_from(BOUNDARY_MODES),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_gathered_plans_bit_exact_on_domain_arrays(
    program, lo, extent, mode, seed, data
):
    """A gathered plan bound to bare domain arrays computes the bits the
    interpreter computes from ghost-extended copies of them, for any
    program, target inside the domain, boundary condition and set of
    gathered inputs (the others bound as their ghost-extended copies)."""
    shape = (12, 12, 6)
    domain = Box((0, 0, 0), shape)
    target = Box(lo, tuple(min(a + n, s) for a, n, s in zip(lo, extent, shape)))
    plan = required_regions(program, target)
    rng = np.random.default_rng(seed)
    arrays = {
        field.name: rng.standard_normal(shape) for field in program.input_fields
    }
    ghosted = {}
    for name, box in plan.input_boxes.items():
        if box.is_empty():
            continue
        ghosts_lo = tuple(max(0, d - b) for b, d in zip(box.lo, domain.lo))
        ghosts_hi = tuple(max(0, b - d) for b, d in zip(box.hi, domain.hi))
        ghosted[name] = extend_array(arrays[name], ghosts_lo, ghosts_hi, mode)
    expected, _ = execute_plan(program, plan, ghosted)
    names = sorted(arrays)
    gather = data.draw(st.sets(st.sampled_from(names), min_size=1))
    compiled = compile_plan_native(
        program, plan, boundary=(mode, domain), gather=gather
    )
    inputs = dict(ghosted)
    inputs.update(
        (name, ArrayRegion(arrays[name], domain)) for name in gather
    )
    actual = compiled(inputs)
    output = program.output_fields[0].name
    np.testing.assert_array_equal(actual[output].data, expected[output].data)


@pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)
@settings(max_examples=20, deadline=None)
@given(
    program=programs(),
    spanned=st.sampled_from(((1,), (2,), (1, 2))),
    lo=st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 5)),
    extent=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 6)),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_periodic_windows_bit_exact(program, spanned, lo, extent, seed, data):
    """A periodic plan whose target spans the domain on j, k or both
    computes each stage only over the domain there and copies the ghosts
    from their images, and still computes the interpreter's bits from
    ghost-extended inputs, for any program and set of gathered inputs
    (the others bound as their ghost-extended copies).  A stage box of
    these programs reaches at most 8 cells past the target in j and 4
    in k, so on this domain every ghost is within one period."""
    shape = (12, 12, 6)
    domain = Box((0, 0, 0), shape)
    lo = tuple(0 if axis in spanned else a for axis, a in enumerate(lo))
    hi = tuple(
        s if axis in spanned else min(a + n, s)
        for axis, (a, n, s) in enumerate(zip(lo, extent, shape))
    )
    plan = required_regions(program, Box(lo, hi))
    for schedule in lower_plan(program, plan, periodic=domain).stages:
        for axis in range(3):
            window = (schedule.window.lo[axis], schedule.window.hi[axis])
            if axis in spanned:
                assert window == (domain.lo[axis], domain.hi[axis])
            elif axis == 0:
                assert window == (schedule.box.lo[0], schedule.box.hi[0])
    rng = np.random.default_rng(seed)
    arrays = {
        field.name: rng.standard_normal(shape) for field in program.input_fields
    }
    ghosted = {}
    for name, box in plan.input_boxes.items():
        if box.is_empty():
            continue
        ghosts_lo = tuple(max(0, d - b) for b, d in zip(box.lo, domain.lo))
        ghosts_hi = tuple(max(0, b - d) for b, d in zip(box.hi, domain.hi))
        ghosted[name] = extend_array(arrays[name], ghosts_lo, ghosts_hi, "periodic")
    expected, _ = execute_plan(program, plan, ghosted)
    gather = data.draw(st.sets(st.sampled_from(sorted(arrays))))
    compiled = compile_plan_native(
        program, plan, boundary=("periodic", domain), gather=gather
    )
    inputs = dict(ghosted)
    inputs.update(
        (name, ArrayRegion(arrays[name], domain)) for name in gather
    )
    actual = compiled(inputs)
    output = program.output_fields[0].name
    np.testing.assert_array_equal(actual[output].data, expected[output].data)


@settings(max_examples=30, deadline=None)
@given(program=programs(), seed=st.integers(0, 1000))
def test_full_inlining_preserves_values(program, seed):
    """inline_all_temporaries is semantics-preserving for any program."""
    mega = inline_all_temporaries(program)
    assert len(mega.stages) == 1

    target = Box((0, 0, 0), (9, 7, 4))
    plan_orig = required_regions(program, target)
    plan_mega = required_regions(mega, target)
    # The mega plan needs at least as much input as the staged plan.
    seed_inputs = _inputs_for(mega, plan_mega, seed)
    # Widen to the union so both plans can execute on the same data.
    inputs = {}
    for field in program.input_fields:
        a = plan_orig.input_boxes[field.name]
        b = plan_mega.input_boxes[field.name]
        union = a.hull(b)
        if union.is_empty():
            continue
        rng = np.random.default_rng(seed + hash(field.name) % 1000)
        inputs[field.name] = ArrayRegion(
            rng.standard_normal(union.shape), union
        )
    output = program.output_fields[0].name
    staged, _ = execute_plan(program, plan_orig, inputs)
    inlined, _ = execute_plan(mega, plan_mega, inputs)
    np.testing.assert_array_equal(
        staged[output].view(target), inlined[output].view(target)
    )


@settings(max_examples=30, deadline=None)
@given(program=programs(), seed=st.integers(0, 1000))
def test_level_schedule_preserves_values(program, seed):
    scheduled = schedule_by_levels(program)
    target = Box((0, 0, 0), (9, 7, 4))
    plan_a = required_regions(program, target)
    plan_b = required_regions(scheduled, target)
    inputs = _inputs_for(program, plan_a, seed)
    # Level scheduling cannot change input requirements.
    assert plan_a.input_boxes == plan_b.input_boxes
    output = program.output_fields[0].name
    a, _ = execute_plan(program, plan_a, inputs)
    b, _ = execute_plan(scheduled, plan_b, inputs)
    np.testing.assert_array_equal(a[output].data, b[output].data)


@settings(max_examples=40, deadline=None)
@given(program=programs())
def test_serialization_roundtrip_identity(program):
    assert load_program(dump_program(program)) == program


@settings(max_examples=30, deadline=None)
@given(program=programs())
def test_dead_stage_elimination_idempotent(program):
    once = eliminate_dead_stages(program)
    twice = eliminate_dead_stages(once)
    assert once == twice
    # Generator guarantees no dead stages, so nothing should change.
    assert once == program


@settings(max_examples=30, deadline=None)
@given(program=programs(), seed=st.integers(0, 1000))
def test_buffer_reuse_bit_exact_for_random_programs(program, seed):
    """The liveness arena never changes results, for any program."""
    target = Box((0, 0, 0), (9, 7, 4))
    plan = required_regions(program, target)
    inputs = _inputs_for(program, plan, seed)
    plain, _ = execute_plan(program, plan, inputs)
    reused, stats = execute_plan(program, plan, inputs, reuse_buffers=True)
    output = program.output_fields[0].name
    np.testing.assert_array_equal(plain[output].data, reused[output].data)
    assert stats.allocations + stats.reused_buffers == len(
        [b for b in plan.stage_boxes if not b.is_empty()]
    )
