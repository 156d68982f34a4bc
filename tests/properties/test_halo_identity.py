"""Property tests of the computation/communication identity.

Sect. 3.2 of the paper prices scenario 1 (ship boundary planes each
stage) and scenario 2 (recompute the transitive halo) from the same
backward analysis: *the points one ships are exactly the points the
other duplicates*.  These properties check that identity for random
stencil programs — analytically on the ledger, and end-to-end on the
runner, where the telemetry's measured byte counter must equal the
model's prediction while the two policies produce bit-identical output.
The exchange ledger's flows are built by ``Box.difference``, so its
exact-partition contract and the flows' exact fill are checked here too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core import (
    Variant,
    build_halo_ledger,
    partition_domain,
    partition_grid_2d,
    redundancy_report,
)
from repro.mpdata import GhostSpec
from repro.runtime import EngineConfig, InMemorySink, PartitionedRunner, Telemetry
from repro.stencil import Box, full_box

from .test_invariants import programs


@st.composite
def box_pairs(draw):
    """Two boxes that may nest, overlap, touch, or miss entirely."""

    def box(max_lo: int) -> Box:
        lo = tuple(draw(st.integers(-max_lo, max_lo)) for _ in range(3))
        extent = tuple(draw(st.integers(0, 6)) for _ in range(3))
        return Box(lo, tuple(a + b for a, b in zip(lo, extent)))

    return box(8), box(8)


@st.composite
def partitions(draw, shape):
    """A 1D slab cut (either paper variant) or a 2D island grid —
    islands at the domain faces are boundary-clipped either way."""
    domain = full_box(shape)
    if draw(st.booleans()):
        return partition_domain(
            domain,
            draw(st.integers(2, 4)),
            draw(st.sampled_from([Variant.A, Variant.B])),
        )
    return partition_grid_2d(
        domain, draw(st.integers(1, 3)), draw(st.integers(1, 3))
    )


@settings(max_examples=100, deadline=None)
@given(pair=box_pairs())
def test_box_difference_is_an_exact_partition(pair):
    """``a.difference(b)`` tiles ``a \\ b``: pieces lie in ``a``, miss
    ``b``, are pairwise disjoint, and their sizes sum exactly."""
    a, b = pair
    pieces = a.difference(b)
    for piece in pieces:
        assert not piece.is_empty()
        assert a.contains(piece)
        assert piece.intersect(b).is_empty()
    for i, first in enumerate(pieces):
        for second in pieces[i + 1 :]:
            assert first.intersect(second).is_empty()
    assert (
        sum(piece.size for piece in pieces)
        == a.size - a.intersect(b).size
    )


@settings(max_examples=25, deadline=None)
@given(
    program=programs(),
    shape=st.tuples(
        st.integers(10, 18), st.integers(8, 14), st.integers(3, 8)
    ),
    data=st.data(),
)
def test_stage_flows_fill_exactly_what_is_missing(program, shape, data):
    """Each stage's flows are valid copies (from the owner's computed
    region) that together cover exactly the buffered-but-not-computed
    region of the destination island."""
    partition = data.draw(partitions(shape))
    ledger = build_halo_ledger(program, partition, policy="exchange")
    assert len(ledger.stage_flows) == len(program.stages)
    for stage, flows in enumerate(ledger.stage_flows):
        for dst in range(partition.count):
            need = ledger.buffer_boxes[dst][stage]
            have = ledger.compute_boxes[dst][stage]
            incoming = [flow for flow in flows if flow.dst == dst]
            for flow in incoming:
                assert need.contains(flow.box)
                assert flow.box.intersect(have).is_empty()
                assert ledger.compute_boxes[flow.src][stage].contains(
                    flow.box
                )
                assert ledger.owned_boxes[flow.src].contains(flow.box)
            for i, first in enumerate(incoming):
                for second in incoming[i + 1 :]:
                    assert first.box.intersect(second.box).is_empty()
            assert (
                sum(flow.points for flow in incoming)
                == need.size - need.intersect(have).size
            )


@settings(max_examples=25, deadline=None)
@given(
    program=programs(),
    islands=st.integers(1, 4),
    variant=st.sampled_from([Variant.A, Variant.B]),
    shape=st.tuples(
        st.integers(10, 18), st.integers(8, 14), st.integers(3, 6)
    ),
)
def test_exchanged_points_equal_recomputed_extras(
    program, islands, variant, shape
):
    """Ledger form of the identity, physical clip: what exchange ships ==
    what recompute duplicates == Table 2's extra elements."""
    partition = partition_domain(full_box(shape), islands, variant)
    exchange = build_halo_ledger(program, partition, policy="exchange")
    recompute = build_halo_ledger(program, partition, policy="recompute")
    extras = redundancy_report(program, partition).extra_points
    assert exchange.exchanged_points() == extras
    assert recompute.redundant_points == extras
    assert exchange.redundant_points == 0


@settings(max_examples=15, deadline=None)
@given(
    program=programs(),
    grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
def test_identity_holds_on_2d_grids(program, grid):
    partition = partition_grid_2d(full_box((14, 12, 4)), *grid)
    exchange = build_halo_ledger(program, partition, policy="exchange")
    extras = redundancy_report(program, partition).extra_points
    assert exchange.exchanged_points() == extras


@settings(max_examples=15, deadline=None)
@given(
    program=programs(),
    islands=st.integers(2, 4),
    variant=st.sampled_from([Variant.A, Variant.B]),
    shape=st.tuples(
        st.integers(10, 16), st.integers(8, 12), st.integers(3, 5)
    ),
    seed=st.integers(0, 1000),
)
def test_measured_bytes_match_the_model_and_output_is_bit_exact(
    program, islands, variant, shape, seed
):
    """Runner form of the identity: the telemetry byte counter under
    ``halo="exchange"`` equals the model's predicted shipped volume (over
    the runner's ghost-extended domain, where the prediction is the
    recompute ledger's redundant points), and the trajectory matches
    recompute bit-for-bit."""
    # Periodic ghost filling wraps at most once, so the program's
    # transitive halo must fit inside the domain on every axis; a deep
    # chained stencil on a shallow axis is not a runnable configuration.
    ghosts = GhostSpec.for_program(program, shape)
    assume(
        all(g <= n for g, n in zip(ghosts.lo, shape))
        and all(g <= n for g, n in zip(ghosts.hi, shape))
    )
    rng = np.random.default_rng(seed)
    arrays = {
        "x0": rng.standard_normal(shape),
        "x1": rng.standard_normal(shape),
    }
    with PartitionedRunner(
        program, shape, islands=islands, variant=variant
    ) as recompute_runner:
        expected = np.array(recompute_runner.step(arrays), copy=True)
        predicted = (
            recompute_runner.decomposition.halo_ledger("recompute").redundant_points
            * recompute_runner.dtype.itemsize
        )
    sink = InMemorySink()
    with PartitionedRunner(
        program,
        shape,
        islands=islands,
        variant=variant,
        config=EngineConfig(halo="exchange"),
        telemetry=Telemetry([sink]),
    ) as exchange_runner:
        result = exchange_runner.step(arrays)
        ledger = exchange_runner.halo_ledger
        np.testing.assert_array_equal(result, expected)
    measured = sink.events[-1].stats.exchanged_bytes
    assert measured == ledger.exchanged_bytes(exchange_runner.dtype.itemsize)
    assert measured == predicted
