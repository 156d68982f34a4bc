"""Benchmarks of the functional NumPy kernels themselves.

Unlike the table benchmarks (which time the *model pipeline*), these time
real computation: one MPDATA step through the IR interpreter, the
independent reference, and the partitioned runner — sequential vs threaded.
Useful for tracking interpreter regressions; absolute numbers say nothing
about the paper's hardware.
"""

import pytest

from repro.mpdata import MpdataSolver, random_state, reference_step
from repro.runtime import EngineConfig, MpdataIslandSolver

SHAPE = (96, 64, 32)


@pytest.fixture(scope="module")
def state():
    return random_state(SHAPE, seed=0)


def bench_ir_step(benchmark, state):
    solver = MpdataSolver(SHAPE)
    benchmark(solver.step, state)


def bench_reference_step(benchmark, state):
    benchmark(reference_step, state)


def bench_islands_step_sequential(benchmark, state):
    solver = MpdataIslandSolver(SHAPE, islands=4, config=EngineConfig(threads=1))
    benchmark(solver.step, state)


def bench_islands_step_threaded(benchmark, state):
    solver = MpdataIslandSolver(SHAPE, islands=4, config=EngineConfig(threads=4))
    benchmark(solver.step, state)


def bench_halo_analysis(benchmark):
    from repro.mpdata import mpdata_program
    from repro.stencil import full_box, required_regions

    program = mpdata_program()
    domain = full_box((1024, 512, 64))
    target = full_box((73, 512, 64))  # one of 14 islands
    benchmark(required_regions, program, target, domain)
