"""Backward transitive halo analysis.

Given a stencil program and a target region of its output, this module
computes the region of every intermediate stage (and of every input field)
that must be available.  Walking the stage list backwards and expanding each
required region by the reading stage's stencil offsets yields the *exact*
transitive footprint — the quantity the paper's islands-of-cores approach
recomputes redundantly instead of communicating (Fig. 1c).

This is the analysis behind Table 2: the "extra elements" of an island are
precisely ``compute_box(stage) - target_box`` summed over stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .expr import Offset
from .program import StencilProgram
from .region import Box

__all__ = [
    "HaloPlan",
    "program_halo_depth",
    "required_regions",
    "stage_expansions",
]


@dataclass(frozen=True)
class HaloPlan:
    """Result of a backward halo analysis for one target region.

    Attributes
    ----------
    target:
        The output region requested.
    stage_boxes:
        For each stage index, the region that stage must compute.  Stages
        whose output is not (transitively) needed map to an empty box.
    input_boxes:
        For each program input field, the region that must be readable.
    """

    target: Box
    stage_boxes: Tuple[Box, ...]
    input_boxes: Dict[str, Box]

    def compute_points(self) -> int:
        """Total points computed across all stages for this target."""
        return sum(box.size for box in self.stage_boxes)

    def extra_points(self) -> int:
        """Points computed outside the target region, summed over stages.

        This is the per-island redundant work of the islands-of-cores
        approach (scenario 2, Fig. 1c): everything a stage computes beyond
        the island's own slab exists only to feed later stages locally.
        """
        total = 0
        for box in self.stage_boxes:
            if box.is_empty():
                continue
            inside = box.intersect(self.target).size
            total += box.size - inside
        return total


def required_regions(
    program: StencilProgram,
    target: Box,
    domain: Optional[Box] = None,
) -> HaloPlan:
    """Backward-propagate a required output region through all stages.

    Parameters
    ----------
    program:
        The stencil program (validated, single-assignment).
    target:
        Region of every program *output* field that must be produced.
    domain:
        Physical domain bounds.  When given, every required region is
        clipped to it: points outside the physical domain are supplied by
        boundary conditions, not by computation, in every execution
        strategy — so they are never "extra elements".

    Returns
    -------
    HaloPlan
        Exact per-stage compute regions and per-input read regions.
    """
    needed: Dict[str, Box] = {}
    empty = Box(target.lo, target.lo)

    for field in program.output_fields:
        needed[field.name] = target

    stage_boxes = [empty] * len(program.stages)
    for index in range(len(program.stages) - 1, -1, -1):
        stage = program.stages[index]
        compute = needed.get(stage.output, empty)
        if domain is not None:
            compute = compute.clip(domain)
        stage_boxes[index] = compute
        if compute.is_empty():
            continue
        for field_name, offsets in stage.footprint.items():
            read_box = compute.expand_for_reads(offsets)
            if domain is not None:
                read_box = read_box.clip(domain)
            prior = needed.get(field_name)
            needed[field_name] = read_box if prior is None else prior.hull(read_box)

    input_boxes = {
        field.name: needed.get(field.name, empty) for field in program.input_fields
    }
    return HaloPlan(target, tuple(stage_boxes), input_boxes)


def stage_expansions(program: StencilProgram) -> Tuple[Tuple[Offset, Offset], ...]:
    """Per-stage halo depth relative to the final output region.

    For each stage, returns ``(lo_depth, hi_depth)`` 3-tuples: how many extra
    layers below / above the target region the stage must compute, on each
    axis, when nothing is clipped.  Derived by running the backward analysis
    on a probe box placed far from any boundary.
    """
    # A probe comfortably larger than any stencil reach avoids degenerate
    # empty intersections; its absolute placement is irrelevant.
    probe = Box((100, 100, 100), (110, 110, 110))
    plan = required_regions(program, probe, domain=None)
    expansions = []
    for box in plan.stage_boxes:
        if box.is_empty():
            expansions.append(((0, 0, 0), (0, 0, 0)))
            continue
        lo = tuple(p - b for p, b in zip(probe.lo, box.lo))
        hi = tuple(b - p for b, p in zip(box.hi, probe.hi))
        expansions.append((lo, hi))
    return tuple(expansions)  # type: ignore[return-value]


def program_halo_depth(program: StencilProgram) -> Tuple[Offset, Offset]:
    """Maximum transitive halo depth of the whole program, per axis/side.

    For MPDATA this is the classic "halo of 3" in *i* and *j*: computing one
    output point needs input values up to three cells away after chaining
    all 17 stages.
    """
    expansions = stage_expansions(program)
    lo = tuple(max(e[0][a] for e in expansions) for a in range(3))
    hi = tuple(max(e[1][a] for e in expansions) for a in range(3))
    return lo, hi  # type: ignore[return-value]
