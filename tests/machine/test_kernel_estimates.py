"""Validation of the IR-derived per-stage cost estimates.

The pure-model tests pin the :class:`~repro.machine.PortModel` accounting
(op counts x port cycles, traffic from reads + spilled slots) and the
hand-rolled rank statistics.  The measured test compiles the MPDATA plan
with the native backend and checks that the model's predicted per-stage
ranking matches the measured ranking of the fused C kernels — the
acceptance gate for the instruction-level extension.
"""

import pytest

from repro.machine import (
    OP_PORT_CYCLES,
    PortModel,
    default_port_model,
    kernel_estimates,
    rank_order,
    spearman_rank_correlation,
)
from repro.mpdata import MpdataSolver, mpdata_program, random_state
from repro.stencil import (
    Access,
    Box,
    Field,
    FieldRole,
    Stage,
    StencilProgram,
    compile_plan_native,
    lower_plan,
    native_available,
    required_regions,
    sqrt,
)
from repro.stencil.lowering import StageSchedule


def _single_stage_program(expr_builder):
    """A one-stage program ``y = f(x)`` for pricing isolated op mixes."""
    x = Access("x")
    return StencilProgram.build(
        "probe",
        inputs=(Field("x", FieldRole.INPUT),),
        stages=(Stage("probe", "y", expr_builder(x)),),
        outputs=("y",),
    )


def _lowered(program, shape=(8, 6, 4)):
    plan = required_regions(program, Box((0, 0, 0), shape))
    return lower_plan(program, plan)


class TestRankStatistics:
    def test_rank_order_simple(self):
        assert rank_order([3.0, 1.0, 2.0]) == (3.0, 1.0, 2.0)

    def test_rank_order_ties_average(self):
        assert rank_order([1.0, 2.0, 2.0, 5.0]) == (1.0, 2.5, 2.5, 4.0)

    def test_spearman_perfect(self):
        assert spearman_rank_correlation(
            [1.0, 2.0, 3.0], [10.0, 20.0, 30.0]
        ) == pytest.approx(1.0)

    def test_spearman_inverse(self):
        assert spearman_rank_correlation(
            [1.0, 2.0, 3.0], [30.0, 20.0, 10.0]
        ) == pytest.approx(-1.0)

    def test_spearman_rejects_constant(self):
        with pytest.raises(ValueError, match="constant"):
            spearman_rank_correlation([1.0, 1.0], [1.0, 2.0])

    def test_spearman_rejects_mismatched(self):
        with pytest.raises(ValueError, match="pair"):
            spearman_rank_correlation([1.0, 2.0], [1.0, 2.0, 3.0])


class TestPortModelAccounting:
    def test_divider_ops_cost_more_than_adders(self):
        cheap = _lowered(_single_stage_program(lambda x: x + x))
        dear = _lowered(_single_stage_program(lambda x: sqrt(x) / x))
        ports = default_port_model()
        cheap_est = ports.estimate(cheap.stages[0])
        dear_est = ports.estimate(dear.stages[0])
        assert cheap_est.points == dear_est.points
        assert dear_est.cycles_per_point > cheap_est.cycles_per_point
        assert dear_est.seconds > cheap_est.seconds

    def test_cycles_match_histogram(self):
        ir = _lowered(_single_stage_program(lambda x: (x + x) * x - x))
        schedule = ir.stages[0]
        expected = sum(
            count * OP_PORT_CYCLES[op]
            for op, count in schedule.op_histogram().items()
        )
        assert default_port_model().stage_cycles(schedule) == expected

    def test_traffic_counts_distinct_reads_plus_store(self):
        # x appears twice but streams once; + the output store.
        ir = _lowered(_single_stage_program(lambda x: x + x))
        assert default_port_model().stage_bytes(ir.stages[0]) == 2 * 8
        assert default_port_model().stage_bytes(ir.stages[0], 4) == 2 * 4

    def test_slot_pressure_past_budget_spills(self):
        def schedule_with_peak(peak):
            return StageSchedule(
                index=0,
                name="synthetic",
                output="y",
                box=Box((0, 0, 0), (4, 4, 4)),
                views=(),
                ops=(),
                float_slots=tuple(range(peak)),
                mask_slots=(),
                peak_float_slots=peak,
                peak_mask_slots=0,
                window=Box((0, 0, 0), (4, 4, 4)),
            )

        ports = PortModel(register_budget=16)
        inside = ports.stage_bytes(schedule_with_peak(16))
        spilled = ports.stage_bytes(schedule_with_peak(20))
        # 4 excess live slots -> one store + one reload each, 8 B/point.
        assert spilled - inside == 4 * 2 * 8

    def test_unknown_opcode_rejected(self):
        ir = _lowered(_single_stage_program(lambda x: x * x))
        ports = PortModel(op_cycles={"add": 1.0})
        with pytest.raises(ValueError, match="mul"):
            ports.stage_cycles(ir.stages[0])

    def test_estimate_is_roofline_max(self):
        ir = _lowered(_single_stage_program(lambda x: x + x))
        compute_bound = PortModel(cycle_rate=1.0, stream_bandwidth=1e30)
        traffic_bound = PortModel(cycle_rate=1e30, stream_bandwidth=1.0)
        c = compute_bound.estimate(ir.stages[0])
        t = traffic_bound.estimate(ir.stages[0])
        assert c.seconds == pytest.approx(c.compute_seconds)
        assert t.seconds == pytest.approx(t.traffic_seconds)
        assert c.seconds_per_point == pytest.approx(
            c.seconds / ir.stages[0].points
        )

    def test_periodic_paper_plan_prices_the_points_it_computes(self):
        """Under a periodic boundary the 256x128x32 paper plan computes
        17.14 points per domain cell, not the 18.63 its stage boxes
        hold: each stage is priced over its window."""
        program = mpdata_program()
        solver = MpdataSolver((256, 128, 32))
        plan = required_regions(
            program, solver.domain, domain=solver.extended_domain
        )
        cells = solver.domain.size
        whole = kernel_estimates(lower_plan(program, plan))
        windowed = kernel_estimates(
            lower_plan(program, plan, periodic=solver.domain)
        )
        assert sum(e.points for e in whole) / cells == pytest.approx(
            18.6346, abs=1e-4
        )
        assert sum(e.points for e in windowed) / cells == pytest.approx(
            17.1445, abs=1e-4
        )
        for a, b in zip(whole, windowed):
            assert b.seconds / b.points == pytest.approx(a.seconds / a.points)

    def test_kernel_estimates_cover_every_mpdata_stage(self):
        program = mpdata_program()
        solver = MpdataSolver((16, 12, 8))
        plan = required_regions(
            program, solver.domain, domain=solver.extended_domain
        )
        ir = lower_plan(program, plan)
        estimates = kernel_estimates(ir)
        assert len(estimates) == len(ir.stages) == len(program.stages)
        assert [e.name for e in estimates] == [s.name for s in ir.stages]
        assert all(e.seconds > 0.0 for e in estimates)


@pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)
class TestNativeRankValidation:
    def test_predicted_ranking_matches_measured_native_ranking(self):
        """The acceptance gate: the IR-derived estimates must rank the
        MPDATA stages the way the fused native kernels actually rank.

        Rank correlation (not absolute error) because the PortModel is
        calibrated only in ratios; Spearman's rho >= 0.5 over 17 stages
        is far outside chance (p < 0.02) yet tolerant of timer jitter on
        the cheapest kernels.
        """
        shape = (48, 40, 24)
        program = mpdata_program()
        solver = MpdataSolver(shape)
        state = random_state(shape, seed=11)
        inputs = solver.prepare_inputs(state)
        plan = required_regions(
            program, solver.domain, domain=solver.extended_domain
        )
        compiled = compile_plan_native(program, plan, timed=True)
        for _ in range(3):  # warm-up: page faults, branch history
            compiled(inputs)
        before = dict(compiled.stage_seconds)
        for _ in range(10):
            compiled(inputs)
        after = compiled.stage_seconds
        measured = {name: after[name] - before.get(name, 0.0) for name in after}

        estimates = kernel_estimates(lower_plan(program, plan))
        names = [e.name for e in estimates]
        assert set(names) == set(measured)
        rho = spearman_rank_correlation(
            [e.seconds for e in estimates],
            [measured[name] for name in names],
        )
        assert rho >= 0.5, (
            f"predicted/measured Spearman rho {rho:.3f} < 0.5:\n"
            + "\n".join(
                f"  {name}: predicted {e.seconds:.3e}s measured "
                f"{measured[name]:.3e}s"
                for name, e in zip(names, estimates)
            )
        )

