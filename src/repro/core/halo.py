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
inter-island :class:`StageFlow` copies that fill the difference.  A
``hybrid`` policy chooses exchange or recompute per island boundary from a
shipped-volume threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..stencil import (
    Box,
    HaloPlan,
    StencilProgram,
    composed_step_plans,
    recurrent_input,
    required_regions,
)
from .partition import Partition

__all__ = [
    "HALO_POLICIES",
    "HaloLedger",
    "StageFlow",
    "build_halo_ledger",
    "island_halo_plans",
]

#: Recognised halo policies, in documentation order.
HALO_POLICIES: Tuple[str, ...] = ("recompute", "exchange", "hybrid")


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
    """Per-island, per-stage halo geometry under one policy.

    With ``sync_every = s > 1`` (temporal blocking) the stage axis is
    *flattened across sub-steps*: every per-stage tuple has length
    ``s * len(program.stages)``, where flat index ``t`` addresses stage
    ``t % stages`` of sub-step ``t // stages``.  All accounting
    (``redundant_points``, flows, the Sect. 3.2 identity) then covers one
    *super-step* of ``s`` time steps.

    Attributes
    ----------
    policy:
        One of :data:`HALO_POLICIES`.
    plans:
        The shared backward halo plans, one per island (recompute geometry
        of the *final* sub-step, targeting the island's part).
    global_boxes:
        Per flat stage, the region the whole program must compute for the
        full domain — the union of work no strategy can avoid *given one
        synchronization per super-step* (earlier sub-steps must reach
        deeper, even for a single island).
    owned_boxes:
        Per island, its part extended outward to the clip domain on sides
        touching the physical boundary; owned boxes tile the clip domain.
    compute_boxes:
        ``compute_boxes[island][t]`` — the box that island computes for
        flat stage ``t`` under this policy.
    buffer_boxes:
        ``buffer_boxes[island][t]`` — the box the island must hold in
        memory for that flat stage's output (computed part plus received
        halo).
    stage_flows:
        ``stage_flows[t]`` — the boundary copies to perform after flat
        stage ``t``, before any island starts the next one.
    sync_every:
        Time steps per super-step (1 = the paper's per-step sync).
    step_plans:
        ``step_plans[island]`` — the ``s`` composed plans in execution
        order (``step_plans[island][-1] is plans[island]``).
    recurrent:
        The input field that receives the output between sub-steps
        (``None`` only on ledgers loaded from older constructions).
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
    sync_every: int = 1
    step_plans: Tuple[Tuple[HaloPlan, ...], ...] = ()
    recurrent: Optional[str] = None

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
    def stages_per_step(self) -> int:
        """Program stages per time step (the flat axis is ``s`` times it)."""
        return len(self.program.stages)

    @property
    def redundant_points(self) -> int:
        """Points computed beyond the once-per-point minimum, per super-step.

        Zero for pure exchange (owned boxes tile the domain); equals the
        Table-2 extra-element count for pure recompute over a physical
        clip domain.  The minimum is the *composed* global plan, so this
        counts only the redundancy caused by splitting into islands, not
        the deep-halo work temporal blocking itself requires.
        """
        computed = sum(
            box.size for per_island in self.compute_boxes for box in per_island
        )
        minimum = sum(box.size for box in self.global_boxes)
        return computed - minimum

    @property
    def redundant_points_per_step(self) -> float:
        """Redundant points amortized over the super-step's time steps.

        Grows roughly linearly in ``sync_every``: sub-step ``k`` of ``s``
        recomputes a boundary wedge of depth ``(s - k) * h``, so the
        per-super-step total is ~quadratic and the per-step average
        ~linear — the price paid for ``s`` times fewer barriers.
        """
        return self.redundant_points / self.sync_every

    @property
    def active_stages(self) -> Tuple[int, ...]:
        """Flat stage indices that require any computation at all."""
        return tuple(
            index for index, box in enumerate(self.global_boxes) if not box.is_empty()
        )

    @property
    def step_syncs(self) -> int:
        """Inter-island synchronizations per *super-step* under this policy."""
        if self.policy == "recompute":
            return 1
        return len(self.active_stages)

    @property
    def syncs_per_step(self) -> float:
        """Synchronizations amortized per time step (``step_syncs / s``)."""
        return self.step_syncs / self.sync_every


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


def _touch_side(a: Box, b: Box) -> Optional[Tuple[int, int]]:
    """The (axis, side) on which face-neighbours ``a`` and ``b`` touch.

    ``side`` is +1 when ``b`` sits above ``a`` on the axis, -1 when below.
    Returns ``None`` when the boxes do not share a full face.
    """
    for axis in range(3):
        if a.hi[axis] == b.lo[axis]:
            return axis, +1
        if b.hi[axis] == a.lo[axis]:
            return axis, -1
    return None


def _stage_flows(
    stages: int,
    islands: int,
    compute_boxes: List[List[Box]],
    buffer_boxes: List[List[Box]],
    owned: Tuple[Box, ...],
) -> Tuple[Tuple[StageFlow, ...], ...]:
    """Boundary copies filling each island's buffer beyond what it computes.

    Every missing piece is carved into disjoint boxes and claimed by the
    owning island; because owned boxes tile the clip domain and every
    buffer box lies inside it, the pieces are always fully covered.
    """
    per_stage: List[Tuple[StageFlow, ...]] = []
    for stage in range(stages):
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
    hybrid_max_flow_points: Optional[int] = None,
    sync_every: int = 1,
    recurrent: Optional[str] = None,
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
        boundary plane; ``"hybrid"`` starts from exchange and converts any
        island boundary whose total shipped volume exceeds
        ``hybrid_max_flow_points`` back to recomputation.
    hybrid_max_flow_points:
        Per-boundary shipped-points threshold; required (and only allowed)
        for the hybrid policy.
    sync_every:
        Time steps per super-step (temporal blocking).  With ``s > 1``
        every per-stage axis is flattened to ``s * stages`` entries and
        all accounting covers one super-step; recompute then needs a
        single synchronization for ``s`` full time steps.
    recurrent:
        The input field that receives the output between sub-steps;
        inferred (the unique time-varying input) when omitted.
    """
    if policy not in HALO_POLICIES:
        raise ValueError(
            f"unknown halo policy {policy!r}; expected one of {HALO_POLICIES}"
        )
    if policy == "hybrid":
        if hybrid_max_flow_points is None or hybrid_max_flow_points < 0:
            raise ValueError(
                "hybrid halo policy requires a non-negative hybrid_max_flow_points"
            )
    elif hybrid_max_flow_points is not None:
        raise ValueError("hybrid_max_flow_points only applies to the hybrid policy")
    if sync_every < 1:
        raise ValueError("sync_every must be at least 1")

    clip = clip_domain if clip_domain is not None else partition.domain
    if recurrent is None and sync_every > 1:
        recurrent = recurrent_input(program)
    step_plans = tuple(
        composed_step_plans(
            program, part, domain=clip, sync_every=sync_every, recurrent=recurrent
        )
        for part in partition.parts
    )
    plans = tuple(per_island[-1] for per_island in step_plans)
    global_steps = composed_step_plans(
        program,
        partition.domain,
        domain=clip,
        sync_every=sync_every,
        recurrent=recurrent,
    )
    global_boxes = tuple(
        box for plan in global_steps for box in plan.stage_boxes
    )
    owned = _owned_boxes(partition, clip)
    stages = sync_every * len(program.stages)
    islands = partition.count
    # The island's recompute bound per flat stage: sub-step k's composed
    # plan box for that stage (deepest at k = 0).
    island_boxes = tuple(
        tuple(box for plan in per_island for box in plan.stage_boxes)
        for per_island in step_plans
    )

    if policy == "recompute":
        return HaloLedger(
            program=program,
            partition=partition,
            clip_domain=clip,
            policy=policy,
            plans=plans,
            global_boxes=global_boxes,
            owned_boxes=owned,
            compute_boxes=island_boxes,
            buffer_boxes=island_boxes,
            stage_flows=tuple(() for _ in range(stages)),
            sync_every=sync_every,
            step_plans=step_plans,
            recurrent=recurrent,
        )

    # Pure-exchange geometry: each island computes only its owned slice of
    # the globally required region; its buffer must additionally hold the
    # recompute plan's box, which bounds every later-stage read (including
    # the next sub-step's reads of the recurrent field, which the composed
    # plan targets by construction).
    compute_boxes = [
        [global_boxes[s].intersect(owned[q]) for s in range(stages)]
        for q in range(islands)
    ]
    buffer_boxes = [
        [island_boxes[q][s].hull(compute_boxes[q][s]) for s in range(stages)]
        for q in range(islands)
    ]

    if policy == "hybrid":
        flows = _stage_flows(stages, islands, compute_boxes, buffer_boxes, owned)
        volumes: Dict[Tuple[int, int], int] = {}
        for per_stage in flows:
            for flow in per_stage:
                key = (min(flow.src, flow.dst), max(flow.src, flow.dst))
                volumes[key] = volumes.get(key, 0) + flow.points
        for a, b in partition.neighbours():
            if volumes.get((a, b), 0) <= hybrid_max_flow_points:
                continue
            side = _touch_side(partition.parts[a], partition.parts[b])
            if side is None:  # pragma: no cover - neighbours() implies a face
                continue
            axis, direction = side
            for island, grow_hi in ((a, direction > 0), (b, direction < 0)):
                for s in range(stages):
                    comp = compute_boxes[island][s]
                    plan_box = island_boxes[island][s]
                    if comp.is_empty() or plan_box.is_empty():
                        continue
                    lo = list(comp.lo)
                    hi = list(comp.hi)
                    if grow_hi:
                        hi[axis] = max(hi[axis], plan_box.hi[axis])
                    else:
                        lo[axis] = min(lo[axis], plan_box.lo[axis])
                    compute_boxes[island][s] = Box(tuple(lo), tuple(hi))  # type: ignore[arg-type]
        buffer_boxes = [
            [
                island_boxes[q][s].hull(compute_boxes[q][s])
                for s in range(stages)
            ]
            for q in range(islands)
        ]

    stage_flows = _stage_flows(stages, islands, compute_boxes, buffer_boxes, owned)
    return HaloLedger(
        program=program,
        partition=partition,
        clip_domain=clip,
        policy=policy,
        plans=plans,
        global_boxes=global_boxes,
        owned_boxes=owned,
        compute_boxes=tuple(tuple(row) for row in compute_boxes),
        buffer_boxes=tuple(tuple(row) for row in buffer_boxes),
        stage_flows=stage_flows,
        sync_every=sync_every,
        step_plans=step_plans,
        recurrent=recurrent,
    )
