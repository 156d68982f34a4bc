"""The shared backward-halo analysis and the halo-policy ledger.

``core.halo`` is the single source of halo geometry: the decomposition
core, the redundancy accounting, the analytic exchange plan and the
runtime backends all consume :func:`island_halo_plans` /
:func:`build_halo_ledger`.  These tests pin the dedupe (the shared
function reproduces what the former private copies computed), the
geometric invariants every policy must satisfy, and the paper's
computation/communication identity: the points scenario 1 ships are
exactly the points scenario 2 recomputes.
"""

from __future__ import annotations

import pytest

from repro.core import (
    HALO_POLICIES,
    Variant,
    build_halo_ledger,
    decompose,
    island_halo_plans,
    partition_domain,
    partition_grid_2d,
    redundancy_report,
)
from repro.mpdata import mpdata_program
from repro.stencil import Box, full_box, required_regions

DOMAIN = full_box((24, 16, 8))


def _partitions():
    return [
        partition_domain(DOMAIN, 3, Variant.A),
        partition_domain(DOMAIN, 4, Variant.B),
        partition_grid_2d(DOMAIN, 2, 2),
    ]


class TestSharedAnalysis:
    """Satellite: one backward-halo walk, shared by every consumer."""

    @pytest.mark.parametrize("partition", _partitions(), ids=("A3", "B4", "2x2"))
    def test_matches_per_part_required_regions(self, partition):
        program = mpdata_program()
        plans = island_halo_plans(program, partition)
        assert len(plans) == partition.count
        for part, plan in zip(partition.parts, plans):
            expected = required_regions(program, part, domain=DOMAIN)
            assert plan.target == expected.target
            assert plan.stage_boxes == expected.stage_boxes
            assert plan.input_boxes == expected.input_boxes

    def test_clip_domain_is_honoured(self):
        program = mpdata_program()
        partition = partition_domain(DOMAIN, 3, Variant.A)
        clip = Box((-3, -3, -3), (27, 19, 11))
        for part, plan in zip(
            partition.parts, island_halo_plans(program, partition, clip)
        ):
            expected = required_regions(program, part, domain=clip)
            assert plan.stage_boxes == expected.stage_boxes

    def test_redundancy_report_totals_still_match_plans(self):
        """The report (now a consumer of the shared analysis) is unchanged:
        every island's total equals its backward plan's compute total."""
        program = mpdata_program()
        partition = partition_domain(DOMAIN, 3, Variant.A)
        report = redundancy_report(program, partition)
        for island, plan in zip(
            report.islands, island_halo_plans(program, partition)
        ):
            assert island.total_points == plan.compute_points()

    @pytest.mark.parametrize("partition", _partitions(), ids=("A3", "B4", "2x2"))
    def test_ledger_plans_are_the_shared_analysis(self, partition):
        """Under either policy the ledger takes its per-island plans from
        :func:`island_halo_plans` and its global boxes from one backward
        walk over the whole domain."""
        program = mpdata_program()
        clip = Box((-3, -3, -3), (27, 19, 11))
        plans = island_halo_plans(program, partition, clip)
        whole = required_regions(program, DOMAIN, domain=clip)
        for policy in HALO_POLICIES:
            ledger = build_halo_ledger(
                program, partition, clip_domain=clip, policy=policy
            )
            assert ledger.plans == plans
            assert ledger.global_boxes == whole.stage_boxes

    def test_decomposition_ledger_delegates(self):
        program = mpdata_program()
        deco = decompose(program, DOMAIN, 3, Variant.A)
        ledger = deco.halo_ledger()
        assert ledger.policy == "recompute"
        assert ledger.clip_domain == deco.clip_domain
        assert ledger.plans == tuple(i.halo_plan for i in deco.islands)


class TestLedgerValidation:
    def test_policies_tuple(self):
        assert HALO_POLICIES == ("recompute", "exchange")

    def test_unknown_policy_rejected(self):
        partition = partition_domain(DOMAIN, 2, Variant.A)
        with pytest.raises(ValueError, match="unknown halo policy"):
            build_halo_ledger(mpdata_program(), partition, policy="mpi")

    def test_removed_hybrid_policy_rejected(self):
        partition = partition_domain(DOMAIN, 2, Variant.A)
        with pytest.raises(ValueError, match="unknown halo policy 'hybrid'"):
            build_halo_ledger(mpdata_program(), partition, policy="hybrid")


class TestRecomputeGeometry:
    def test_compute_is_the_backward_plan(self):
        program = mpdata_program()
        partition = partition_domain(DOMAIN, 3, Variant.A)
        ledger = build_halo_ledger(program, partition, policy="recompute")
        for plan, comp, buf in zip(
            ledger.plans, ledger.compute_boxes, ledger.buffer_boxes
        ):
            assert comp == plan.stage_boxes
            assert buf == plan.stage_boxes
        assert ledger.flows == ()
        assert ledger.exchanged_points() == 0
        assert ledger.step_syncs == 1

    def test_redundant_points_equal_table2_extras(self):
        program = mpdata_program()
        for partition in _partitions():
            ledger = build_halo_ledger(program, partition, policy="recompute")
            report = redundancy_report(program, partition)
            assert ledger.redundant_points == report.extra_points


class TestExchangeGeometry:
    @pytest.mark.parametrize("partition", _partitions(), ids=("A3", "B4", "2x2"))
    def test_compute_boxes_tile_each_stage(self, partition):
        """Pure exchange computes every stage point exactly once."""
        program = mpdata_program()
        ledger = build_halo_ledger(program, partition, policy="exchange")
        assert ledger.redundant_points == 0
        for stage, global_box in enumerate(ledger.global_boxes):
            boxes = [
                comp[stage]
                for comp in ledger.compute_boxes
                if not comp[stage].is_empty()
            ]
            assert sum(box.size for box in boxes) == global_box.size
            for i, a in enumerate(boxes):
                assert global_box.contains(a)
                for b in boxes[i + 1 :]:
                    assert a.intersect(b).is_empty()

    @pytest.mark.parametrize("partition", _partitions(), ids=("A3", "B4", "2x2"))
    def test_flows_fill_every_buffer_exactly(self, partition):
        """Computed part + incoming flows tile each island's buffer box."""
        program = mpdata_program()
        ledger = build_halo_ledger(program, partition, policy="exchange")
        for q in range(partition.count):
            for s in range(len(program.stages)):
                need = ledger.buffer_boxes[q][s]
                have = ledger.compute_boxes[q][s]
                incoming = [
                    f.box for f in ledger.stage_flows[s] if f.dst == q
                ]
                pieces = [have] + incoming if not have.is_empty() else incoming
                assert sum(p.size for p in pieces) == need.size
                for i, a in enumerate(pieces):
                    assert need.contains(a)
                    for b in pieces[i + 1 :]:
                        assert a.intersect(b).is_empty()

    def test_flows_come_from_their_computed_owner(self):
        program = mpdata_program()
        partition = partition_domain(DOMAIN, 3, Variant.A)
        ledger = build_halo_ledger(program, partition, policy="exchange")
        assert ledger.exchanged_points() > 0
        for flow in ledger.flows:
            assert flow.src != flow.dst
            assert ledger.compute_boxes[flow.src][flow.stage].contains(flow.box)

    def test_exchanged_points_equal_recompute_extras(self):
        """The computation/communication identity (Sect. 3.2): what
        scenario 1 ships is exactly what scenario 2 recomputes."""
        program = mpdata_program()
        for partition in _partitions():
            ledger = build_halo_ledger(program, partition, policy="exchange")
            report = redundancy_report(program, partition)
            assert ledger.exchanged_points() == report.extra_points

    def test_stage_pair_points_sum_to_total(self):
        program = mpdata_program()
        partition = partition_domain(DOMAIN, 3, Variant.A)
        ledger = build_halo_ledger(program, partition, policy="exchange")
        total = sum(
            count
            for s in range(len(program.stages))
            for count in ledger.stage_pair_points(s).values()
        )
        assert total == ledger.exchanged_points()

    def test_step_syncs_count_active_stages(self):
        program = mpdata_program()
        partition = partition_domain(DOMAIN, 3, Variant.A)
        ledger = build_halo_ledger(program, partition, policy="exchange")
        assert ledger.step_syncs == len(ledger.active_stages)
        assert ledger.step_syncs <= len(program.stages)

    def test_single_island_ships_nothing(self):
        program = mpdata_program()
        partition = partition_domain(DOMAIN, 1, Variant.A)
        ledger = build_halo_ledger(program, partition, policy="exchange")
        assert ledger.exchanged_points() == 0
        assert ledger.redundant_points == 0

    def test_exchanged_bytes_default_itemsize(self):
        program = mpdata_program()
        partition = partition_domain(DOMAIN, 3, Variant.A)
        ledger = build_halo_ledger(program, partition, policy="exchange")
        assert ledger.exchanged_bytes() == ledger.exchanged_points() * 8
        assert ledger.exchanged_bytes(4) == ledger.exchanged_points() * 4


class TestBoxDifference:
    """``Box.difference`` powers the flow carving; pin its contract."""

    def test_disjoint_pieces_tile_the_remainder(self):
        a = Box((0, 0, 0), (10, 10, 10))
        b = Box((3, 4, 5), (8, 12, 9))
        pieces = a.difference(b)
        inter = a.intersect(b)
        assert sum(p.size for p in pieces) == a.size - inter.size
        for i, p in enumerate(pieces):
            assert a.contains(p)
            assert p.intersect(b).is_empty()
            for q in pieces[i + 1 :]:
                assert p.intersect(q).is_empty()

    def test_no_overlap_returns_self(self):
        a = Box((0, 0, 0), (4, 4, 4))
        assert a.difference(Box((4, 0, 0), (8, 4, 4))) == (a,)

    def test_containment_returns_empty(self):
        a = Box((2, 2, 2), (4, 4, 4))
        assert a.difference(Box((0, 0, 0), (10, 10, 10))) == ()

    def test_empty_self_returns_empty(self):
        empty = Box((3, 3, 3), (3, 5, 5))
        assert empty.difference(Box((0, 0, 0), (10, 10, 10))) == ()
