"""Benchmark: flat vs tiled (3+1)D execution of the native engine.

Times the same partitioned MPDATA configuration three ways — flat
native islands, block-by-block tiled islands, and tiled islands swept
by an intra-island thread team — across island counts, and writes
``BENCH_tiled.json`` at the repository root so future PRs have a perf
trajectory.

The grid is sized so the flat engine's per-island live set (every
intermediate of the 17 stages at island extent) overflows the last-level
cache, which is the regime the (3+1)D decomposition exists for: a block's
entire step stays cache-resident, so main memory sees only the compulsory
input/output streams (paper Sect. 3.2).  All modes are checked
bit-identical, not just fast.

Run standalone (writes the JSON):

.. code-block:: console

    python benchmarks/bench_tiled.py            # full config
    python benchmarks/bench_tiled.py --smoke    # tiny, no JSON

or under the benchmark suite: ``pytest benchmarks/bench_tiled.py``.
"""

from __future__ import annotations

import pathlib
import sys

_HERE = str(pathlib.Path(__file__).resolve().parent)
if _HERE not in sys.path:  # also loaded by bare file path (tier-1 suite)
    sys.path.insert(0, _HERE)
import common

FULL_SHAPE = (256, 128, 64)
FULL_STEPS = 3
FULL_BLOCK = (32, 32, 64)
FULL_ISLANDS = (1, 2, 4)
SMOKE_SHAPE = (32, 16, 8)
SMOKE_STEPS = 2
SMOKE_BLOCK = (8, 8, 8)
SMOKE_ISLANDS = (2,)
INTRA_THREADS = 2
DEFAULT_JSON = common.default_json_path("BENCH_tiled.json")


def run(smoke: bool = False, json_path=None):
    """Measure flat vs tiled vs tiled+team; returns {islands: report}."""
    from repro.runtime import measure_tiled_engine

    shape = SMOKE_SHAPE if smoke else FULL_SHAPE
    steps = SMOKE_STEPS if smoke else FULL_STEPS
    block = SMOKE_BLOCK if smoke else FULL_BLOCK
    island_counts = SMOKE_ISLANDS if smoke else FULL_ISLANDS
    reports = {
        islands: measure_tiled_engine(
            shape=shape,
            steps=steps,
            islands=islands,
            block_shape=block,
            intra_threads=INTRA_THREADS,
        )
        for islands in island_counts
    }
    if json_path is not None:
        common.write_json(
            {
                f"islands={islands}": report.to_dict()
                for islands, report in reports.items()
            },
            json_path,
        )
    return reports


def bench_tiled_engine(benchmark, record_table):
    """Benchmark-suite entry: smoke-sized, records the rendered tables."""
    reports = benchmark.pedantic(run, kwargs={"smoke": True}, rounds=1, iterations=1)
    record_table(
        "\n\n".join(report.render() for report in reports.values())
    )
    for report in reports.values():
        assert report.bit_identical
        for numbers in report.modes.values():
            assert numbers["allocations_per_step"] == 0.0


def main() -> int:
    return common.bench_main(
        __doc__,
        DEFAULT_JSON,
        run,
        sections=lambda reports: (
            (f"islands={islands}", report.render())
            for islands, report in reports.items()
        ),
        passed=lambda reports, smoke: all(
            r.bit_identical for r in reports.values()
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
