"""Timing constants and regime formulas for the NUMA performance model.

The simulator charges time through a small set of *regimes*, each a
mechanism the paper discusses:

* ``stream`` — a stage sweep bound by local DRAM bandwidth (the original
  version with first-touch placement: intermediates live in main memory).
* ``pool`` — all traffic served by one node's memory controller over the
  interconnect (the original version with serial initialization; Table 1's
  first row).  Effective bandwidth decays from the local stream value
  toward a contended floor as more nodes hammer the same controller.
* ``cached`` — cache-blocked compute, all 17 stages on in-cache data (the
  (3+1)D regime).  Charged per arithmetic flop at an effective node rate.
* ``team`` — the same cache-blocked compute inside an island's work team,
  slightly cheaper interconnect-wise but with scheduler overhead; the
  per-flop rate is a separately calibrated constant.

Synchronization costs: inter-node barriers follow a tree model
(``sync_log_coeff * log2(P)``); the pure (3+1)D decomposition additionally
pays a per-block-per-stage penalty for cross-node cache-line exchange and
block hand-off, the mechanism Sect. 5 blames for its collapse.

Default constants are calibrated once against four anchors of Table 1
(see :mod:`repro.analysis.calibration`, which re-derives and checks them);
everything else the model outputs is a prediction.

Instruction-level stage estimates
---------------------------------

The regime formulas above price *whole sweeps* from aggregate flop and
byte counts.  With the kernel IR of :mod:`repro.stencil.lowering` the
model can go one level deeper: :class:`PortModel` prices each lowered
stage from its exact three-address schedule — op counts weighted by
per-port reciprocal throughputs, memory traffic from the stage's distinct
field reads plus a spill term when the slot-liveness peak exceeds the
register budget — and :func:`kernel_estimates` turns a whole
:class:`~repro.stencil.lowering.KernelIR` into per-stage roofline
predictions.  The estimates are *relative* by construction (rank
validation against measured native kernels lives in
``tests/machine/test_kernel_estimates.py``); absolute seconds depend on
the calibrated rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, no import cycle at runtime
    from ..stencil.lowering import KernelIR, StageSchedule

__all__ = [
    "CostModel",
    "OP_PORT_CYCLES",
    "PortModel",
    "StageEstimate",
    "default_port_model",
    "kernel_estimates",
    "rank_order",
    "spearman_rank_correlation",
    "uv2000_costs",
]


@dataclass(frozen=True)
class CostModel:
    """Calibrated machine-behaviour constants (one node class)."""

    #: Effective node throughput for cache-blocked stencil compute,
    #: arithmetic flops/s ((3+1)D regime; from Table 1, (3+1)D at P=1).
    fused_flops: float
    #: Effective node throughput inside an island work team (P >= 2).
    #: Lower than ``fused_flops``: the proprietary scheduler's work-team
    #: management and the slab's worse block aspect ratio cost ~20 %.
    team_flops: float
    #: Per-node local DRAM stream bandwidth, bytes/s.
    stream_bandwidth: float
    #: Contended floor of a single memory controller serving all nodes
    #: (serial-initialization regime), bytes/s.
    remote_pool_floor: float
    #: Tree-barrier coefficient: one inter-node barrier costs
    #: ``sync_log_coeff * log2(P)`` seconds.
    sync_log_coeff: float
    #: Islands: fixed per-time-step orchestration cost (input sharing,
    #: output return, work redistribution), seconds.
    island_step_overhead: float
    #: Islands: additional per-time-step cost per participating node.
    island_step_overhead_per_node: float
    #: Pure (3+1)D on P nodes: fixed cost per block per stage (hand-off
    #: of the block between stages across the machine), seconds.
    block_sync_seconds: float
    #: ... plus this much per participating node (cache-line invalidation
    #: storms scale with sharers), seconds.
    block_sync_per_node: float
    #: ... plus this many bytes of boundary cache lines crossing the
    #: interconnect per block per stage.
    block_boundary_bytes: float

    # ------------------------------------------------------------------
    # Regime formulas
    # ------------------------------------------------------------------
    def stream_seconds(self, bytes_per_node: float) -> float:
        """Local-DRAM-bound sweep time for one node's share."""
        return bytes_per_node / self.stream_bandwidth

    def pool_bandwidth(self, nodes: int) -> float:
        """Effective bandwidth of one controller serving ``nodes`` nodes.

        ``floor + (local - floor) / nodes``: with one node it is the local
        stream bandwidth; as node count grows it saturates at the remote
        floor (roughly two NUMAlink ports' worth).
        """
        return self.remote_pool_floor + (
            self.stream_bandwidth - self.remote_pool_floor
        ) / nodes

    def pool_seconds(self, total_bytes: float, nodes: int) -> float:
        """Serial-initialization sweep: everything through one controller."""
        return total_bytes / self.pool_bandwidth(nodes)

    def cached_seconds(self, flops: float, nodes: int = 1, team: bool = False) -> float:
        """Cache-blocked compute time for ``flops`` arithmetic flops on one
        node (``nodes`` kept for symmetry: flops should already be the
        node's share)."""
        rate = self.team_flops if team else self.fused_flops
        return flops / rate

    def barrier_seconds(self, nodes: int) -> float:
        """One inter-node tree barrier."""
        if nodes <= 1:
            return 0.0
        return self.sync_log_coeff * math.log2(nodes)

    def island_step_seconds(self, nodes: int) -> float:
        """Per-time-step islands orchestration (phases 1, 4, 5 of
        Sect. 4.2), excluding the barrier itself."""
        if nodes <= 1:
            return 0.0
        return (
            self.island_step_overhead
            + self.island_step_overhead_per_node * nodes
        )

    def block_stage_overhead(self, nodes: int, link_bandwidth: float) -> float:
        """Pure (3+1)D: cost of pushing one block through one stage when
        ``nodes`` processors co-operate on it."""
        if nodes <= 1:
            return 0.0
        return (
            self.block_sync_seconds
            + self.block_sync_per_node * nodes
            + self.block_boundary_bytes / link_bandwidth
        )


def uv2000_costs() -> CostModel:
    """Constants calibrated for the SGI UV 2000 (see calibration module).

    Provenance of each value, all anchored to Table 1 of the paper plus the
    IR-derived work counts (218 arithmetic flops/point, 616 stream
    bytes/point for the original version):

    * ``fused_flops`` — (3+1)D, P=1: 9.0 s for 50 steps of 1024x512x64.
    * ``team_flops`` — islands row, P=2..12 slope.
    * ``stream_bandwidth`` — original (first touch), P=1: 30.4 s.
    * ``remote_pool_floor`` — original (serial init), P=14: 82.2 s.
    * ``sync_log_coeff`` — original (first touch) residuals over P.
    * island / block overheads — islands and (3+1)D rows, P >= 2.
    """
    return CostModel(
        fused_flops=4.06381e10,
        team_flops=3.29213e10,
        stream_bandwidth=3.39959e10,
        remote_pool_floor=1.09248e10,
        sync_log_coeff=1.72062e-4,
        island_step_overhead=2.13635e-3,
        island_step_overhead_per_node=0.0,
        block_sync_seconds=3.99944e-6,
        block_sync_per_node=1.22272e-6,
        block_boundary_bytes=1.6384e4,
    )


# ----------------------------------------------------------------------
# Instruction-level estimates from the kernel IR
# ----------------------------------------------------------------------

#: Reciprocal throughputs (issue cycles per elementwise result) by IR
#: opcode, scaled to the cheap FP ops.  The ratios follow the shape every
#: recent x86 core shares: adds/multiplies and min/max pipeline at one
#: result per cycle-ish, sign games are nearly free, division and square
#: root monopolize the divider for several cycles, and a lowered select
#: costs a compare plus a blend.  Only the *ratios* matter for ranking;
#: the absolute scale is carried by :attr:`PortModel.cycle_rate`.
OP_PORT_CYCLES: Mapping[str, float] = {
    "add": 1.0,
    "sub": 1.0,
    "mul": 1.0,
    "max": 1.0,
    "min": 1.0,
    "neg": 0.5,
    "abs": 0.5,
    "pos": 1.0,  # max(x, 0): one fmax
    "neg_part": 1.0,  # min(x, 0): one fmin
    "div": 7.0,
    "sqrt": 9.0,
    "select": 3.0,  # compare + two predicated moves
    "copy": 1.0,
}


@dataclass(frozen=True)
class StageEstimate:
    """Predicted cost of one lowered stage kernel.

    ``compute_seconds`` and ``traffic_seconds`` are the two roofline
    legs; ``seconds`` is their max (a fused kernel overlaps loads with
    arithmetic, so the slower resource bounds the sweep).
    """

    index: int
    name: str
    points: int
    #: Weighted op-issue cycles per grid point.
    cycles_per_point: float
    #: Bytes moved to/from memory per grid point (reads + write + spills).
    bytes_per_point: float
    compute_seconds: float
    traffic_seconds: float

    @property
    def seconds(self) -> float:
        return max(self.compute_seconds, self.traffic_seconds)

    @property
    def seconds_per_point(self) -> float:
        if self.points == 0:
            return 0.0
        return self.seconds / self.points


@dataclass(frozen=True)
class PortModel:
    """Per-port instruction pricing for fused (native) stage kernels.

    The model charges each :class:`~repro.stencil.lowering.StageSchedule`

    * **compute**: ``sum(op_histogram[op] * op_cycles[op])`` weighted
      issue cycles per point, retired at ``cycle_rate`` cycles/s — op
      counts times port reciprocal throughputs;
    * **traffic**: one streamed read per *distinct* field the stage
      touches plus the output store, at ``dtype_bytes`` each.  Scratch
      slots live in registers, so they cost nothing — *until* the
      stage's liveness peak (``peak_float_slots`` + ``peak_mask_slots``,
      straight from the slot allocator's high-water mark) exceeds
      ``register_budget``; each excess slot then spills one store and
      one reload per point.

    Both rates default to one effective lane so estimates are relative;
    calibrate ``cycle_rate`` / ``stream_bandwidth`` for absolute time.
    """

    op_cycles: Mapping[str, float] = field(
        default_factory=lambda: dict(OP_PORT_CYCLES)
    )
    #: Weighted op-issue cycles retired per second (per effective lane).
    cycle_rate: float = 4.0e9
    #: Streaming bandwidth for the traffic leg, bytes/s.
    stream_bandwidth: float = 2.0e10
    #: Architectural registers available to a fused stage kernel before
    #: live scratch values start spilling.
    register_budget: int = 16

    def stage_cycles(self, schedule: "StageSchedule") -> float:
        """Weighted issue cycles per grid point of one schedule."""
        cycles = 0.0
        for op, count in schedule.op_histogram().items():
            try:
                cycles += count * self.op_cycles[op]
            except KeyError:
                raise ValueError(
                    f"port model has no cost for opcode {op!r}"
                ) from None
        return cycles

    def stage_bytes(self, schedule: "StageSchedule", dtype_bytes: int = 8) -> float:
        """Streamed bytes per grid point: field reads, the output store,
        and register spills past the budget."""
        streams = len(schedule.reads()) + 1  # distinct inputs + output
        live_peak = schedule.peak_float_slots + schedule.peak_mask_slots
        spilled = max(0, live_peak - self.register_budget)
        return (streams + 2 * spilled) * float(dtype_bytes)

    def estimate(
        self, schedule: "StageSchedule", dtype_bytes: int = 8
    ) -> StageEstimate:
        """Price one lowered stage over the points its kernel computes:
        its window, which under a periodic boundary leaves out the j/k
        ghosts copied from their images, and is the whole box otherwise."""
        cycles = self.stage_cycles(schedule)
        traffic = self.stage_bytes(schedule, dtype_bytes)
        points = schedule.points
        return StageEstimate(
            index=schedule.index,
            name=schedule.name,
            points=points,
            cycles_per_point=cycles,
            bytes_per_point=traffic,
            compute_seconds=points * cycles / self.cycle_rate,
            traffic_seconds=points * traffic / self.stream_bandwidth,
        )


def default_port_model() -> PortModel:
    """The stock :class:`PortModel` (relative pricing, x86-shaped ratios)."""
    return PortModel()


def kernel_estimates(
    ir: "KernelIR",
    ports: Optional[PortModel] = None,
    dtype_bytes: int = 8,
) -> Tuple[StageEstimate, ...]:
    """Price every stage of a lowered plan.

    Returns one :class:`StageEstimate` per schedule in ``ir.stages``, in
    program order.  The predicted per-stage *ranking* is validated
    against measured native kernels in
    ``tests/machine/test_kernel_estimates.py``.
    """
    ports = ports or default_port_model()
    return tuple(ports.estimate(stage, dtype_bytes) for stage in ir.stages)


def rank_order(values: Iterable[float]) -> Tuple[float, ...]:
    """Fractional ranks (average on ties), smallest value -> rank 1."""
    items = list(values)
    order = sorted(range(len(items)), key=lambda i: items[i])
    ranks = [0.0] * len(items)
    position = 0
    while position < len(order):
        tail = position
        while (
            tail + 1 < len(order)
            and items[order[tail + 1]] == items[order[position]]
        ):
            tail += 1
        mean_rank = (position + tail) / 2.0 + 1.0
        for k in range(position, tail + 1):
            ranks[order[k]] = mean_rank
        position = tail + 1
    return tuple(ranks)


def spearman_rank_correlation(
    predicted: Iterable[float], measured: Iterable[float]
) -> float:
    """Spearman's rho between two paired samples (1.0 = same ranking)."""
    xs = rank_order(predicted)
    ys = rank_order(measured)
    if len(xs) != len(ys):
        raise ValueError("samples must pair up")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two pairs")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("constant sample has no rank correlation")
    return cov / math.sqrt(var_x * var_y)
