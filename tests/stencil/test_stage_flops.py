"""Tests for stage metadata and flop accounting."""

import pytest

from repro.stencil import (
    Access,
    AxisExtent,
    Stage,
    fmax,
    plan_flops,
    pos,
    program_arith_flops_per_point,
    program_cost,
    required_regions,
    Box,
)
from repro.stencil.flops import flops_by_stage_for_shape


class TestStage:
    def test_footprint_and_reads(self):
        stage = Stage("s", "y", Access("a", (1, 0, 0)) + Access("b"))
        assert stage.footprint == {"a": {(1, 0, 0)}, "b": {(0, 0, 0)}}
        assert stage.reads == ("a", "b")

    def test_footprint_is_derived_once_and_read_only(self, monkeypatch):
        stage = Stage("s", "y", Access("a", (1, 0, 0)) + Access("b"))
        footprint = stage.footprint
        with pytest.raises(TypeError):
            footprint["c"] = {(0, 0, 0)}
        with pytest.raises(AttributeError):
            footprint["a"].add((2, 0, 0))
        # Later lookups neither re-derive nor hash the expression tree.
        calls = []
        monkeypatch.setattr(
            type(stage.expr), "footprint",
            lambda expr: calls.append("footprint"),
        )
        monkeypatch.setattr(
            type(stage.expr), "__hash__", lambda expr: calls.append("hash")
        )
        assert stage.reads == ("a", "b")
        assert stage.footprint == {"a": {(1, 0, 0)}, "b": {(0, 0, 0)}}
        assert calls == []

    def test_extent_on(self):
        stage = Stage(
            "s",
            "y",
            Access("a", (-2, 0, 1)) + Access("a", (1, 0, 0)),
        )
        extent = stage.extent_on("a")
        assert extent.lo == (2, 0, 0)
        assert extent.hi == (1, 0, 1)

    def test_extent_on_unread_field_is_zero(self):
        stage = Stage("s", "y", Access("a"))
        assert stage.extent_on("zzz") == AxisExtent((0, 0, 0), (0, 0, 0))

    def test_pointwise_check(self):
        assert Stage("s", "y", Access("a")).is_pointwise_on("a")
        assert not Stage("s", "y", Access("a", (1, 0, 0))).is_pointwise_on("a")

    def test_flop_properties(self):
        stage = Stage("s", "y", pos(Access("a")) * Access("b") + 1.0)
        assert stage.flops_per_point == 3
        assert stage.arith_flops_per_point == 2
        assert stage.reads_per_point == 2


class TestAxisExtent:
    def test_from_empty_offsets(self):
        assert AxisExtent.from_offsets(set()) == AxisExtent(
            (0, 0, 0), (0, 0, 0)
        )

    def test_from_mixed_offsets(self):
        extent = AxisExtent.from_offsets({(-1, 2, 0), (3, -1, 0)})
        assert extent.lo == (1, 1, 0)
        assert extent.hi == (3, 2, 0)


class TestProgramCost:
    def test_chain_cost(self, chain_program):
        cost = program_cost(chain_program)
        assert cost.flops_per_point == 3
        assert cost.reads_per_point == 6
        assert cost.writes_per_point == 3
        assert cost.flops_for((4, 4, 4), steps=2) == 3 * 64 * 2

    def test_mpdata_flop_totals(self, mpdata):
        cost = program_cost(mpdata)
        assert cost.flops_per_point == 295
        assert program_arith_flops_per_point(mpdata) == 218

    def test_flops_by_stage(self, chain_program):
        table = flops_by_stage_for_shape(chain_program, (2, 2, 2))
        assert table == {"s1": 8, "s2": 8, "s3": 8}


class TestPlanFlops:
    def test_counts_redundancy(self, chain_program):
        target = Box((10, 0, 0), (20, 1, 1))
        plan = required_regions(chain_program, target)
        # s3: 10, s2: 12, s1: 14 points; 1 flop each.
        assert plan_flops(chain_program, plan) == 36
        assert plan_flops(chain_program, plan, arithmetic=True) == 36

    def test_arithmetic_mode_drops_selects(self, mpdata):
        target = Box((4, 4, 4), (8, 8, 8))
        plan = required_regions(mpdata, target)
        assert plan_flops(mpdata, plan, arithmetic=True) < plan_flops(
            mpdata, plan
        )
