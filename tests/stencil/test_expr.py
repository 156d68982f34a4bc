"""Unit tests for the scalar expression IR."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stencil import (
    Access,
    Binary,
    Const,
    Unary,
    Where,
    as_expr,
    fabs,
    fmax,
    fmin,
    neg,
    pos,
    sqrt,
)


def _resolver(fields):
    def resolve(name, offset):
        arr = fields[name]
        return np.roll(arr, tuple(-d for d in offset), axis=(0, 1, 2))

    return resolve


@pytest.fixture()
def fields():
    rng = np.random.default_rng(0)
    return {
        "a": rng.random((4, 3, 2)),
        "b": rng.random((4, 3, 2)) + 0.5,
    }


class TestConstruction:
    def test_as_expr_passthrough(self):
        e = Const(2.0)
        assert as_expr(e) is e

    def test_as_expr_coerces_numbers(self):
        assert as_expr(3) == Const(3.0)
        assert as_expr(2.5) == Const(2.5)

    def test_as_expr_rejects_strings(self):
        with pytest.raises(TypeError):
            as_expr("nope")

    def test_access_requires_3d_offset(self):
        with pytest.raises(ValueError):
            Access("a", (1, 2))

    def test_unknown_unary_op_rejected(self):
        with pytest.raises(ValueError):
            Unary("tanh", Const(1.0))

    def test_unknown_binary_op_rejected(self):
        with pytest.raises(ValueError):
            Binary("mod", Const(1.0), Const(2.0))

    def test_operator_sugar_builds_trees(self):
        a = Access("a")
        expr = 1.0 + a * 2.0 - a / 3.0
        assert isinstance(expr, Binary)
        assert expr.op == "sub"

    def test_negation_operator(self):
        e = -Access("a")
        assert isinstance(e, Unary)
        assert e.op == "neg"


class TestEvaluate:
    def test_constant_broadcasts(self, fields):
        out = (Const(2.0) * Access("a")).evaluate(_resolver(fields))
        np.testing.assert_array_equal(out, 2.0 * fields["a"])

    def test_arithmetic(self, fields):
        expr = (Access("a") + Access("b")) / (Access("b") - 0.25)
        out = expr.evaluate(_resolver(fields))
        expected = (fields["a"] + fields["b"]) / (fields["b"] - 0.25)
        np.testing.assert_array_equal(out, expected)

    def test_offsets_shift_values(self, fields):
        expr = Access("a", (1, 0, 0))
        out = expr.evaluate(_resolver(fields))
        np.testing.assert_array_equal(out, np.roll(fields["a"], -1, axis=0))

    def test_min_max_abs(self, fields):
        expr = fmax(Access("a"), Access("b"))
        np.testing.assert_array_equal(
            expr.evaluate(_resolver(fields)),
            np.maximum(fields["a"], fields["b"]),
        )
        expr = fmin(Access("a"), 0.5, Access("b"))
        np.testing.assert_array_equal(
            expr.evaluate(_resolver(fields)),
            np.minimum(np.minimum(fields["a"], 0.5), fields["b"]),
        )
        np.testing.assert_array_equal(
            fabs(Access("a") - 1.0).evaluate(_resolver(fields)),
            np.abs(fields["a"] - 1.0),
        )

    def test_pos_neg_parts(self, fields):
        shifted = fields["a"] - 0.5
        local = {"a": shifted}
        np.testing.assert_array_equal(
            pos(Access("a")).evaluate(_resolver(local)),
            np.maximum(shifted, 0.0),
        )
        np.testing.assert_array_equal(
            neg(Access("a")).evaluate(_resolver(local)),
            np.minimum(shifted, 0.0),
        )

    def test_sqrt(self, fields):
        np.testing.assert_array_equal(
            sqrt(Access("b")).evaluate(_resolver(fields)),
            np.sqrt(fields["b"]),
        )

    def test_where_selects_by_positive_condition(self, fields):
        expr = Where(Access("a") - 0.5, Const(1.0), Const(-1.0))
        out = expr.evaluate(_resolver(fields))
        np.testing.assert_array_equal(
            out, np.where(fields["a"] - 0.5 > 0, 1.0, -1.0)
        )


class TestFootprint:
    def test_single_access(self):
        assert Access("a", (0, 1, -1)).footprint() == {"a": {(0, 1, -1)}}

    def test_merges_offsets_per_field(self):
        expr = Access("a") + Access("a", (1, 0, 0)) * Access("b", (0, -1, 0))
        fp = expr.footprint()
        assert fp == {"a": {(0, 0, 0), (1, 0, 0)}, "b": {(0, -1, 0)}}

    def test_constants_have_empty_footprint(self):
        assert (Const(1.0) + Const(2.0)).footprint() == {}

    def test_where_collects_all_branches(self):
        expr = Where(Access("c"), Access("t"), Access("f"))
        assert set(expr.footprint()) == {"c", "t", "f"}


class TestFlops:
    def test_constants_and_accesses_are_free(self):
        assert Const(1.0).flops() == 0
        assert Access("a").flops() == 0

    def test_binary_counts_one_per_op(self):
        expr = Access("a") + Access("b") * Access("a")
        assert expr.flops() == 2

    def test_arithmetic_excludes_selections(self):
        expr = fmax(Access("a"), 0.0) + fabs(Access("b"))
        assert expr.flops() == 3  # max, abs, add
        assert expr.arithmetic_flops() == 1  # just the add

    def test_op_counts_breakdown(self):
        expr = pos(Access("a")) * Access("b") + neg(Access("a"))
        counts = expr.op_counts()
        assert counts == {"pos": 1, "neg_part": 1, "mul": 1, "add": 1}

    def test_sqrt_is_arithmetic(self):
        assert sqrt(Access("a")).arithmetic_flops() == 1


class TestFormatting:
    def test_centre_access(self):
        assert str(Access("a")) == "a[i,j,k]"

    def test_offset_access(self):
        assert str(Access("a", (-1, 0, 2))) == "a[i-1,j,k+2]"

    def test_binary_format(self):
        assert str(Access("a") + Const(1.0)) == "(a[i,j,k] + 1.0)"


def _from_bits(pattern):
    return np.array([pattern], dtype=np.uint64).view(np.float64)[0]


#: Values whose selection the bits reveal: signed zeros, infinities,
#: subnormals and a few numbers from a small pool (so ties are common),
#: quiet NaNs of either sign with distinct payloads, and any float.
_SELECT_VALUES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5, 5e-324, -5e-324,
         1e-310, -1e-310]
    ),
    st.tuples(st.integers(0, 1), st.integers(1, 2**51 - 1)).map(
        lambda sign_payload: _from_bits(
            (sign_payload[0] << 63) | 0x7FF8000000000000 | sign_payload[1]
        )
    ),
    st.floats(width=64, allow_nan=False),
)
_SELECT_OPERANDS = st.integers(1, 9).flatmap(
    lambda length: st.lists(
        st.lists(_SELECT_VALUES, min_size=length, max_size=length),
        min_size=2,
        max_size=16,
    )
)


def _depth(expr):
    if isinstance(expr, Binary):
        return 1 + max(_depth(expr.left), _depth(expr.right))
    return 0


class TestSelectTrees:
    """``fmax``/``fmin`` over many operands build a balanced tree in
    operand order, which selects the same bits as NumPy's left fold."""

    @given(_SELECT_OPERANDS)
    @settings(max_examples=200, deadline=None)
    def test_tree_selects_the_left_fold_bits(self, operands):
        arrays = {
            f"v{index}": np.array(row, dtype=np.float64)
            for index, row in enumerate(operands)
        }
        accesses = [Access(name) for name in arrays]
        for build, ufunc in ((fmax, np.maximum), (fmin, np.minimum)):
            got = build(*accesses).evaluate(lambda name, offset: arrays[name])
            fold = functools.reduce(ufunc, arrays.values())
            np.testing.assert_array_equal(
                got.view(np.uint64), fold.view(np.uint64)
            )

    @pytest.mark.parametrize("count, depth", ((2, 1), (3, 2), (14, 4), (16, 4)))
    def test_depth_is_logarithmic(self, count, depth):
        operands = [Access(f"v{index}") for index in range(count)]
        assert _depth(fmax(*operands)) == depth
        assert _depth(fmin(*operands)) == depth
