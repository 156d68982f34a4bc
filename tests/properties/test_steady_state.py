"""Property tests for the steady-state execution engine.

The engine's whole claim is "same bits, fewer allocations": `out=`-arena
expression evaluation — interpreted and native, ephemeral and persistent
— must be indistinguishable from naive evaluation on every program in the
stencil gallery, and repeat runs over persistent arenas must allocate
nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stencil import (
    GALLERY,
    ArrayRegion,
    Box,
    EvalArena,
    StageArena,
    compile_plan_native,
    execute_plan,
    native_available,
    required_regions,
)

TARGET = Box((0, 0, 0), (8, 6, 5))


def naive_execute(program, plan, inputs, dtype=np.float64):
    """The pre-engine interpreter: naive ``Expr.evaluate``, one fresh
    array per stage, NumPy allocating every ufunc intermediate.  Kept in
    the test as the reference semantics the engine must reproduce
    bit-for-bit."""
    storage = dict(inputs)
    for index, stage in enumerate(program.stages):
        compute = plan.stage_boxes[index]
        if compute.is_empty():
            continue

        def resolve(field_name, offset):
            return storage[field_name].view(compute.shift(offset))

        value = stage.expr.evaluate(resolve)  # no out=: naive path
        out = np.empty(compute.shape, dtype=dtype)
        out[...] = value
        storage[stage.output] = ArrayRegion(out, compute)
    return {f.name: storage[f.name] for f in program.output_fields}


def _inputs_for(program, plan, seed):
    rng = np.random.default_rng(seed)
    inputs = {}
    for field in program.input_fields:
        box = plan.input_boxes[field.name]
        if box.is_empty():
            continue
        inputs[field.name] = ArrayRegion(rng.standard_normal(box.shape), box)
    return inputs


@pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)
@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(GALLERY)), seed=st.integers(0, 1000))
def test_arena_evaluation_bit_identical_over_gallery(name, seed):
    """Interpreted (ephemeral + persistent arenas) and native
    (ephemeral + persistent workspaces) evaluation all match naive
    evaluation exactly, on every gallery program."""
    program = GALLERY[name]()
    plan = required_regions(program, TARGET)
    inputs = _inputs_for(program, plan, seed)
    output = program.output_fields[0].name
    expected = naive_execute(program, plan, inputs)[output].data

    # Interpreted, ephemeral arena (the default execute_plan path).
    plain, _ = execute_plan(program, plan, inputs)
    np.testing.assert_array_equal(plain[output].data, expected)

    # Interpreted, persistent arenas: run twice, second run must both
    # match and allocate nothing.
    arena, scratch = StageArena(), EvalArena()
    execute_plan(program, plan, inputs, arena=arena, scratch=scratch)
    warm, stats = execute_plan(program, plan, inputs, arena=arena, scratch=scratch)
    np.testing.assert_array_equal(warm[output].data, expected)
    assert stats.allocations == 0
    assert stats.scratch_allocations == 0
    assert stats.reused_buffers > 0

    # Native, fresh workspace per call.
    compiled = compile_plan_native(program, plan)
    np.testing.assert_array_equal(compiled(inputs)[output].data, expected)

    # Native, persistent workspace: second call is allocation-free and
    # still exact.
    steady = compile_plan_native(program, plan, reuse_buffers=True)
    steady(inputs)
    workspace = steady.workspace
    allocations_before = workspace.allocations
    np.testing.assert_array_equal(steady(inputs)[output].data, expected)
    assert workspace.allocations == allocations_before


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(sorted(GALLERY)), seed=st.integers(0, 1000))
def test_expr_out_evaluation_matches_naive(name, seed):
    """Expr.evaluate(resolve, out=..., scratch=...) equals naive
    Expr.evaluate(resolve) node-for-node on every gallery stage."""
    program = GALLERY[name]()
    plan = required_regions(program, TARGET)
    inputs = _inputs_for(program, plan, seed)
    storage = dict(inputs)
    scratch = EvalArena()
    for index, stage in enumerate(program.stages):
        compute = plan.stage_boxes[index]
        if compute.is_empty():
            continue

        def resolve(field_name, offset):
            return storage[field_name].view(compute.shift(offset))

        naive = np.empty(compute.shape)
        naive[...] = stage.expr.evaluate(resolve)
        out = np.empty(compute.shape)
        stage.expr.evaluate(resolve, out=out, scratch=scratch)
        np.testing.assert_array_equal(out, naive)
        assert scratch.outstanding == 0  # every scratch buffer released
        storage[stage.output] = ArrayRegion(naive, compute)
