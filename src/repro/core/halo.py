"""Shared backward-halo analysis and the pluggable halo-policy ledger.

The paper's central contrast (Fig. 1, Tables 1 vs 3) is between two ways of
handling the inter-island halo:

* **exchange** (scenario 1): each stage computes only the island's owned
  slab, then boundary planes are copied between islands and every island
  synchronizes before the next stage;
* **recompute** (scenario 2): each island redundantly computes its
  transitive halo so the whole step needs a single synchronization.

Both strategies are priced — and now *executed* — from one analysis: the
backward transitive halo walk of :func:`repro.stencil.halo.required_regions`.
:func:`island_halo_plans` is the single shared entry point consumed by the
decomposition core, the redundancy accounting (Table 2), the analytic
exchange-plan builder (Table 1) and the runtime backends.

:class:`HaloLedger` materializes one policy into per-island, per-stage
geometry: the box each island *computes*, the box it must *buffer*, and the
inter-island :class:`StageFlow` copies that fill the difference, all for
one time step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..stencil import Box, HaloPlan, StencilProgram, required_regions
from .partition import Partition

__all__ = [
    "HALO_POLICIES",
    "HaloLedger",
    "StageFlow",
    "build_halo_ledger",
    "island_halo_plans",
]

#: Recognised halo policies, in documentation order.
HALO_POLICIES: Tuple[str, ...] = ("recompute", "exchange")


def island_halo_plans(
    program: StencilProgram,
    partition: Partition,
    clip_domain: Optional[Box] = None,
) -> Tuple[HaloPlan, ...]:
    """Backward halo plans for every island part of a partition.

    This is THE shared analysis: redundancy accounting clips to the
    physical domain (``clip_domain=None``), executors clip to the
    ghost-extended domain.  Every consumer sees identical geometry for
    identical arguments.
    """
    clip = clip_domain if clip_domain is not None else partition.domain
    return tuple(
        required_regions(program, part, domain=clip) for part in partition.parts
    )


@dataclass(frozen=True)
class StageFlow:
    """One boundary copy: after stage ``stage``, ``box`` of that stage's
    output moves from island ``src``'s buffer into island ``dst``'s."""

    stage: int
    src: int
    dst: int
    box: Box

    @property
    def points(self) -> int:
        return self.box.size


@dataclass(frozen=True)
class HaloLedger:
    """Per-island, per-stage halo geometry of one time step under one policy.

    Attributes
    ----------
    policy:
        One of :data:`HALO_POLICIES`.
    plans:
        The shared backward halo plans, one per island
        (:func:`island_halo_plans`): the recompute geometry targeting the
        island's part.
    global_boxes:
        Per stage, the region the whole program must compute for the full
        domain — the work no strategy can avoid.
    owned_boxes:
        Per island, its part extended outward to the clip domain on sides
        touching the physical boundary; owned boxes tile the clip domain.
    compute_boxes:
        ``compute_boxes[island][stage]`` — the box that island computes
        for that stage under this policy.
    buffer_boxes:
        ``buffer_boxes[island][stage]`` — the box the island must hold in
        memory for that stage's output (computed part plus received halo).
    stage_flows:
        ``stage_flows[stage]`` — the boundary copies to perform after that
        stage, before any island starts the next one.
    """

    program: StencilProgram
    partition: Partition
    clip_domain: Box
    policy: str
    plans: Tuple[HaloPlan, ...]
    global_boxes: Tuple[Box, ...]
    owned_boxes: Tuple[Box, ...]
    compute_boxes: Tuple[Tuple[Box, ...], ...]
    buffer_boxes: Tuple[Tuple[Box, ...], ...]
    stage_flows: Tuple[Tuple[StageFlow, ...], ...]

    # -- communication accounting ---------------------------------------
    @property
    def flows(self) -> Tuple[StageFlow, ...]:
        """All boundary copies of one step, flattened in stage order."""
        return tuple(flow for per_stage in self.stage_flows for flow in per_stage)

    def exchanged_points(self) -> int:
        """Grid points shipped between islands per time step."""
        return sum(flow.points for flow in self.flows)

    def exchanged_bytes(self, itemsize: Optional[int] = None) -> int:
        """Bytes shipped between islands per time step."""
        if itemsize is None:
            itemsize = max(field.itemsize for field in self.program.fields)
        return self.exchanged_points() * itemsize

    def stage_pair_points(self, stage: int) -> Dict[Tuple[int, int], int]:
        """Points shipped after one stage, keyed by ``(src, dst)`` island."""
        pairs: Dict[Tuple[int, int], int] = {}
        for flow in self.stage_flows[stage]:
            key = (flow.src, flow.dst)
            pairs[key] = pairs.get(key, 0) + flow.points
        return pairs

    # -- computation accounting ------------------------------------------
    @property
    def redundant_points(self) -> int:
        """Points computed beyond the once-per-point minimum, per step.

        Zero for pure exchange (owned boxes tile the domain); equals the
        Table-2 extra-element count for pure recompute over a physical
        clip domain.
        """
        computed = sum(
            box.size for per_island in self.compute_boxes for box in per_island
        )
        minimum = sum(box.size for box in self.global_boxes)
        return computed - minimum

    @property
    def active_stages(self) -> Tuple[int, ...]:
        """Stage indices that require any computation at all."""
        return tuple(
            index for index, box in enumerate(self.global_boxes) if not box.is_empty()
        )

    @property
    def step_syncs(self) -> int:
        """Inter-island synchronizations per time step under this policy."""
        if self.policy == "recompute":
            return 1
        return len(self.active_stages)


def _owned_boxes(partition: Partition, clip: Box) -> Tuple[Box, ...]:
    """Each part extended to the clip domain where it touches the physical
    boundary, so the owned boxes tile the clip domain exactly."""
    domain = partition.domain
    owned = []
    for part in partition.parts:
        lo = tuple(
            c if p == d else p for p, d, c in zip(part.lo, domain.lo, clip.lo)
        )
        hi = tuple(
            c if p == d else p for p, d, c in zip(part.hi, domain.hi, clip.hi)
        )
        owned.append(Box(lo, hi))  # type: ignore[arg-type]
    return tuple(owned)


def _stage_flows(
    compute_boxes: Tuple[Tuple[Box, ...], ...],
    buffer_boxes: Tuple[Tuple[Box, ...], ...],
    owned: Tuple[Box, ...],
) -> Tuple[Tuple[StageFlow, ...], ...]:
    """Boundary copies filling each island's buffer beyond what it computes.

    Every missing piece is carved into disjoint boxes and claimed by the
    owning island; because owned boxes tile the clip domain and every
    buffer box lies inside it, the pieces are always fully covered.
    """
    islands = len(owned)
    per_stage: List[Tuple[StageFlow, ...]] = []
    for stage in range(len(compute_boxes[0])):
        flows: List[StageFlow] = []
        for dst in range(islands):
            need = buffer_boxes[dst][stage]
            have = compute_boxes[dst][stage]
            for piece in need.difference(have):
                for src in range(islands):
                    if src == dst:
                        continue
                    part = piece.intersect(owned[src])
                    if part.is_empty():
                        continue
                    if not compute_boxes[src][stage].contains(part):
                        raise AssertionError(
                            f"flow {part} for island {dst} stage {stage} is not "
                            f"computed by its owner {src}"
                        )
                    flows.append(StageFlow(stage, src, dst, part))
        per_stage.append(tuple(flows))
    return tuple(per_stage)


def build_halo_ledger(
    program: StencilProgram,
    partition: Partition,
    *,
    clip_domain: Optional[Box] = None,
    policy: str = "recompute",
) -> HaloLedger:
    """Materialize one halo policy into executable per-stage geometry.

    Parameters
    ----------
    program, partition:
        What runs, and how the domain is split into islands.
    clip_domain:
        Where data exists (physical domain plus ghosts).  Defaults to the
        physical domain, which yields the analytic (Table 1/2) geometry;
        executors pass the ghost-extended box.
    policy:
        ``"recompute"`` computes the full backward plan per island with no
        flows; ``"exchange"`` computes owned slabs only and ships every
        boundary plane.
    """
    if policy not in HALO_POLICIES:
        raise ValueError(
            f"unknown halo policy {policy!r}; expected one of {HALO_POLICIES}"
        )
    clip = clip_domain if clip_domain is not None else partition.domain
    plans = island_halo_plans(program, partition, clip_domain=clip)
    global_boxes = required_regions(
        program, partition.domain, domain=clip
    ).stage_boxes
    owned = _owned_boxes(partition, clip)
    plan_boxes = tuple(plan.stage_boxes for plan in plans)

    if policy == "recompute":
        compute_boxes = buffer_boxes = plan_boxes
        stage_flows: Tuple[Tuple[StageFlow, ...], ...] = tuple(
            () for _ in global_boxes
        )
    else:
        # Each island computes only its owned slice of the globally
        # required region; its buffer must additionally hold the recompute
        # plan's box, which bounds every later-stage read.
        compute_boxes = tuple(
            tuple(box.intersect(own) for box in global_boxes) for own in owned
        )
        buffer_boxes = tuple(
            tuple(box.hull(comp) for box, comp in zip(plan_row, comp_row))
            for plan_row, comp_row in zip(plan_boxes, compute_boxes)
        )
        stage_flows = _stage_flows(compute_boxes, buffer_boxes, owned)
    return HaloLedger(
        program=program,
        partition=partition,
        clip_domain=clip,
        policy=policy,
        plans=plans,
        global_boxes=global_boxes,
        owned_boxes=owned,
        compute_boxes=compute_boxes,
        buffer_boxes=buffer_boxes,
        stage_flows=stage_flows,
    )
