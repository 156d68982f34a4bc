"""Benchmark: the steady-state execution engine vs naive per-step allocation.

Times 10 steps of the Table 1 MPDATA configuration scaled to a
single-process grid (128x64x16, 4 islands) in both interpreter and
native execution, naive vs engine, and writes ``BENCH_steady_state.json``
at the repository root so future PRs have a perf trajectory.

Run standalone (writes the JSON):

.. code-block:: console

    python benchmarks/bench_steady_state.py            # full config
    python benchmarks/bench_steady_state.py --smoke    # tiny, no JSON

or under the benchmark suite: ``pytest benchmarks/bench_steady_state.py``.
The tier-1 test suite exercises the same measurement in smoke mode
(``tests/runtime/test_steady_state.py``).
"""

from __future__ import annotations

import pathlib
import sys

_HERE = str(pathlib.Path(__file__).resolve().parent)
if _HERE not in sys.path:  # also loaded by bare file path (tier-1 suite)
    sys.path.insert(0, _HERE)
import common

FULL_SHAPE = (128, 64, 16)
FULL_STEPS = 10
SMOKE_SHAPE = (32, 16, 8)
SMOKE_STEPS = 3
ISLANDS = 4
DEFAULT_JSON = common.default_json_path("BENCH_steady_state.json")


def run(smoke: bool = False, json_path=None):
    """Measure naive vs engine; returns {variant: SteadyStateReport}."""
    from repro.runtime import measure_steady_state

    shape = SMOKE_SHAPE if smoke else FULL_SHAPE
    steps = SMOKE_STEPS if smoke else FULL_STEPS
    reports = {
        "interpreted": measure_steady_state(
            shape=shape, steps=steps, islands=ISLANDS, backend="interpreter"
        ),
        "native": measure_steady_state(
            shape=shape, steps=steps, islands=ISLANDS, backend="native"
        ),
    }
    if json_path is not None:
        common.write_json(
            {name: report.to_dict() for name, report in reports.items()},
            json_path,
        )
    return reports


def bench_steady_state_engine(benchmark, record_table):
    """Benchmark-suite entry: smoke-sized, records the rendered tables."""
    reports = benchmark.pedantic(run, kwargs={"smoke": True}, rounds=1, iterations=1)
    record_table(
        "\n\n".join(report.render() for report in reports.values())
    )
    for report in reports.values():
        assert report.bit_identical
        assert report.modes["engine"]["allocations_per_step"] == 0.0


def main() -> int:
    return common.bench_main(
        __doc__,
        DEFAULT_JSON,
        run,
        sections=lambda reports: (
            (name, report.render()) for name, report in reports.items()
        ),
        passed=lambda reports, smoke: all(
            r.bit_identical for r in reports.values()
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
