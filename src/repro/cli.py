"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables/figures, run the future-work
studies, verify bit-exactness, re-derive the calibration, or recommend a
strategy for a workload:

.. code-block:: console

    python -m repro table3              # Table 3 + Fig. 2 data
    python -m repro all                 # every table and figure
    python -m repro verify              # bit-exactness sweep
    python -m repro calibrate           # re-fit and print the cost model
    python -m repro recommend -P 14     # rank strategies for a config
    python -m repro engine              # steady-state engine counters
    python -m repro engine --faults crash@island=1,step=3 \\
        --checkpoint-every 5            # fault-tolerant run + recovery report
    python -m repro engine --halo exchange --variant 2D \\
        --grid 2 2                      # per-stage halo exchange, 2D grid
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Islands-of-cores reproduction (PaCT 2017): regenerate the "
            "paper's evaluation and explore the model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("table1", "original (both placements) vs pure (3+1)D times"),
        ("table2", "extra elements, variants A and B"),
        ("table3", "times + speedups (also prints Fig. 2a/2b)"),
        ("table4", "sustained Gflop/s, utilization, efficiency"),
        ("traffic", "the Sect. 3.2 traffic claim"),
        ("ablations", "variant / bandwidth / cache ablations"),
        ("future-work", "2D grids, two-level islands, cluster projection"),
        ("generality", "islands payoff across the stencil gallery"),
        ("duel", "scenario 1 vs 2 at full-application fidelity"),
        ("energy", "first-order energy estimates per strategy"),
        ("autotune", "search (3+1)D block shapes vs the heuristic"),
        ("deviation", "paper-vs-model error summary over every cell"),
        ("all", "everything above, in order"),
        ("calibrate", "re-fit the cost model from the paper anchors"),
    ):
        sub.add_parser(name, help=help_text)

    verify = sub.add_parser(
        "verify", help="bit-exactness of islands vs whole-domain execution"
    )
    verify.add_argument(
        "--shape", type=int, nargs=3, default=(24, 16, 8), metavar="N"
    )
    verify.add_argument("--steps", type=int, default=2)
    verify.add_argument(
        "--islands", type=int, nargs="+", default=(2, 3, 4)
    )

    export = sub.add_parser(
        "export", help="write Tables 1-4, Fig. 2 and the deviation audit as CSV"
    )
    export.add_argument("--dir", default="results", help="output directory")

    show = sub.add_parser(
        "show", help="describe a stencil program (stages, patterns, halos)"
    )
    show.add_argument(
        "program",
        nargs="?",
        default="mpdata",
        help="mpdata (default), upwind, or a gallery name "
        "(jacobi7, heat3d, star3d, wave3d, biharmonic, smoother_chain)",
    )
    show.add_argument("--iord", type=int, default=2)
    show.add_argument("--no-fct", action="store_true")

    recommend = sub.add_parser(
        "recommend", help="rank execution strategies for a configuration"
    )
    recommend.add_argument("-P", "--processors", type=int, default=14)
    recommend.add_argument(
        "--shape", type=int, nargs=3, default=(1024, 512, 64), metavar="N"
    )
    recommend.add_argument("--steps", type=int, default=50)

    engine = sub.add_parser(
        "engine",
        help="one engine run: steady-state allocation and step-time "
        "counters, checked bit for bit against the whole-domain solver; "
        "--faults / --checkpoint-every add faults and recovery",
    )
    engine.add_argument(
        "--shape", type=int, nargs=3, default=(128, 64, 16), metavar="N"
    )
    engine.add_argument("--steps", type=int, default=10)
    engine.add_argument(
        "--islands", type=int, default=None,
        help="island count (default 4, or PIxPJ when --grid is given)",
    )
    engine.add_argument("--threads", type=int, default=1)
    # Offer exactly what the backend registry holds, so new backends (and
    # their error messages) can never drift out of the CLI.
    from .runtime.backends import BACKENDS

    engine.add_argument(
        "--backend", choices=tuple(sorted(BACKENDS)),
        default=None,
        help="explicit execution backend, one of: "
        f"{', '.join(sorted(BACKENDS))} (default: interpreter); "
        "procs runs each island in a persistent worker process over "
        "shared memory; native runs each island step as one compiled-C "
        "call, its fused stage loop nests pipelined over i-planes "
        "(requires cffi + a C compiler)",
    )
    procs = engine.add_argument_group(
        "procs backend",
        "true multi-core islands: persistent worker processes over "
        "shared-memory arenas (--backend procs)",
    )
    procs.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker process count (default: one per island; fewer "
        "multiplex islands round-robin)",
    )
    procs.add_argument(
        "--pin-workers", action="store_true",
        help="pin each worker process to one CPU (sched_setaffinity)",
    )
    procs.add_argument(
        "--step-deadline", type=float, default=None, metavar="SECONDS",
        help="explicit supervision deadline per island command: a worker "
        "not replying in time is declared hung, killed and respawned "
        "(default: adaptive, from --deadline-factor)",
    )
    procs.add_argument(
        "--deadline-factor", type=float, default=None, metavar="X",
        help="adaptive supervision: deadline = EWMA of command durations "
        "x this factor, with a warm-up floor (default 8; 0 disables "
        "supervision together with --step-deadline unset)",
    )
    procs.add_argument(
        "--quarantine-after", type=int, default=None, metavar="N",
        help="quarantine a worker after N consecutive failures and remap "
        "its islands onto survivors, down to serial-in-parent "
        "(default 3; 0 never quarantines)",
    )
    from .runtime.config import PROCS_INNER_KEYS

    procs.add_argument(
        "--procs-inner", choices=PROCS_INNER_KEYS, default=None,
        help="stage executor each worker runs for its islands "
        "(default: interpreter)",
    )
    from .core.halo import HALO_POLICIES

    halo = engine.add_argument_group(
        "halo policy",
        "how island boundaries are satisfied each step: recompute the "
        "transitive halo once per step (scenario 2), or exchange boundary "
        "planes with a barrier per stage (scenario 1)",
    )
    halo.add_argument(
        "--halo", choices=HALO_POLICIES, default="recompute",
        help="halo policy (default recompute)",
    )
    halo.add_argument(
        "--variant", choices=("A", "B", "2D"), default="A",
        help="partition variant: A splits i, B splits j, 2D splits both "
        "(requires --grid; default A)",
    )
    halo.add_argument(
        "--grid", type=int, nargs=2, default=None, metavar=("PI", "PJ"),
        help="2D island grid extents (requires --variant 2D)",
    )
    engine.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the run's report (counters, config, bit-identity) "
        "as JSON",
    )
    engine.add_argument(
        "--telemetry-jsonl", metavar="PATH", default=None,
        help="stream per-step telemetry events (allocations, reuse, wall "
        "time, fault activity) to a JSON Lines file",
    )
    engine.add_argument(
        "--telemetry-table", action="store_true",
        help="print the per-step telemetry table (wall time, allocations, "
        "syncs) plus run-level sync totals",
    )
    engine.add_argument(
        "--timings", action="store_true",
        help="collect per-island and per-stage wall times into each "
        "step's stats (EngineConfig.collect_timings) and print the last "
        "step's",
    )
    faults = engine.add_argument_group(
        "fault tolerance",
        "inject deterministic faults and run with retry, numerical guards "
        "and checkpointed rollback; the result is still compared bit for "
        "bit against the whole-domain solver",
    )
    faults.add_argument(
        "--faults", nargs="+", default=None, metavar="SPEC",
        help="fault specs, e.g. crash@island=1,step=3 "
        "slow@island=0,delay=0.05 corrupt@island=2,step=7 "
        "(fields: island, step, attempts, delay, value)",
    )
    faults.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint interval in steps (enables recovery; default 10 "
        "with any fault flag)",
    )
    faults.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="also write checkpoints to disk (atomic .npz files)",
    )
    faults.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="per-island retry budget within a step (default 2)",
    )
    faults.add_argument(
        "--rollbacks", type=int, default=3, metavar="N",
        help="rollback-and-replay budget for the run (default 3)",
    )
    faults.add_argument(
        "--mass-drift-limit", type=float, default=None, metavar="X",
        help="guard per-step |mass - initial mass| against this limit",
    )
    faults.add_argument(
        "--no-guards", action="store_true",
        help="disable the per-step NaN/Inf health check",
    )
    return parser


def _emit(text: str) -> None:
    print(text)
    print()


def _run_tables(which: str) -> None:
    from .experiments import (
        ablations,
        autotune_study,
        deviation,
        energy_study,
        future_work,
        generality,
        scenario_duel,
        table1,
        table2,
        table3,
        table4,
        traffic_claim,
    )

    if which in ("table1", "all"):
        _emit(table1.run().render())
    if which in ("table2", "all"):
        _emit(table2.run().render())
    if which in ("table3", "all"):
        result = table3.run()
        _emit(result.render())
        _emit(result.render_fig2a())
        _emit(result.render_fig2b())
    if which in ("table4", "all"):
        _emit(table4.run().render())
    if which in ("traffic", "all"):
        _emit(traffic_claim.run().render())
    if which in ("ablations", "all"):
        _emit(ablations.run_variant_ablation().render())
        _emit(ablations.run_bandwidth_ablation().render())
        _emit(ablations.run_cache_ablation().render())
        _emit(ablations.run_placement_ablation().render())
    if which in ("future-work", "all"):
        _emit(future_work.run_partition_study().render())
        _emit(future_work.run_two_level_study().render())
        _emit(future_work.run_cluster_projection().render())
    if which in ("generality", "all"):
        _emit(generality.run_generality_study().render())
        _emit(generality.run_depth_study().render())
    if which in ("duel", "all"):
        _emit(scenario_duel.run_scenario_duel().render())
    if which in ("energy", "all"):
        _emit(energy_study.run_energy_study().render())
    if which in ("autotune", "all"):
        _emit(autotune_study.run_autotune_study().render())
    if which in ("deviation", "all"):
        _emit(deviation.run().render())


def _run_verify(shape, steps, island_counts) -> int:
    from .mpdata import random_state
    from .runtime import verify_variants

    state = random_state(tuple(shape), seed=2017)
    results = verify_variants(tuple(shape), state, island_counts, steps=steps)
    failures = 0
    for result in results:
        status = "OK " if result.bit_exact else "FAIL"
        print(
            f"[{status}] islands={result.islands:2d} variant="
            f"{result.variant.value} steps={result.steps} "
            f"max|diff|={result.max_abs_diff:.3e}"
        )
        if not result.bit_exact:
            failures += 1
    print(
        f"\n{len(results) - failures}/{len(results)} configurations "
        "bit-exact"
    )
    return 1 if failures else 0


def _run_calibrate() -> None:
    from .analysis import calibrate_uv2000

    result = calibrate_uv2000()
    print("Work counts derived from the IR:")
    print(f"  original traffic  {result.bytes_per_point} B/point/step")
    print(f"  arithmetic flops  {result.arith_flops_per_point} /point/step")
    print(f"  (3+1)D blocks     {result.block_count} for the paper domain")
    print("\nFitted cost-model constants:")
    for name in result.costs.__dataclass_fields__:
        print(f"  {name:32s} {getattr(result.costs, name):.6g}")


def _run_recommend(processors, shape, steps) -> None:
    from .core import recommend
    from .machine import sgi_uv2000, uv2000_costs
    from .mpdata import mpdata_program

    machine = sgi_uv2000()
    ranked = recommend(
        mpdata_program(), tuple(shape), steps, processors,
        machine, uv2000_costs(),
    )
    print(
        f"Strategies for {shape[0]}x{shape[1]}x{shape[2]}, {steps} steps, "
        f"P={processors} on {machine.name} (best first):"
    )
    for rank, choice in enumerate(ranked, start=1):
        print(f"  {rank}. {choice}")


def _run_show(name: str, iord: int, no_fct: bool) -> int:
    from .stencil import GALLERY, describe_program

    if name == "mpdata":
        from .mpdata import mpdata_program

        program = mpdata_program(iord=iord, nonosc=not no_fct)
    elif name == "upwind":
        from .mpdata import upwind_program

        program = upwind_program()
    elif name in GALLERY:
        program = GALLERY[name]()
    else:
        known = ", ".join(["mpdata", "upwind"] + sorted(GALLERY))
        print(f"unknown program {name!r}; known: {known}")
        return 1
    print(describe_program(program))
    return 0


#: The grid axis each 1D partition variant splits into islands.
_SPLIT_AXIS = {"A": 0, "B": 1}


def _check_split(parser, flag, parts, shape, variant, axis=None) -> None:
    """Reject more islands than the split axis has cells."""
    if axis is None:
        axis = _SPLIT_AXIS[variant]
    if parts > shape[axis]:
        parser.error(
            f"{flag}: variant {variant} cannot split axis {'ijk'[axis]} "
            f"({shape[axis]} cells) into {parts} islands; use at most "
            f"{shape[axis]}"
        )


def _validate_verify_args(parser, args) -> None:
    """Reject island counts ``verify`` cannot partition (it runs both
    variants, so every count must fit axis i and axis j)."""
    for islands in args.islands:
        if islands < 1:
            parser.error("--islands must be at least 1")
        for variant in _SPLIT_AXIS:
            _check_split(
                parser, f"--islands {islands}", islands, args.shape, variant
            )


def _validate_engine_args(parser, args) -> None:
    """Reject inconsistent ``engine`` flag combinations up front.

    These checks turn silently-ignored or late-failing flag mixes into
    immediate, actionable parser errors.
    """
    if args.grid is not None:
        pi, pj = args.grid
        if pi < 1 or pj < 1:
            parser.error("--grid extents must be at least 1")
        if args.variant != "2D":
            parser.error(
                "--grid decomposes over a 2D island grid; add --variant 2D"
            )
        flag = f"--grid {pi} {pj}"
        _check_split(parser, flag, pi, args.shape, "2D", axis=0)
        _check_split(parser, flag, pj, args.shape, "2D", axis=1)
        if args.islands is not None and args.islands != pi * pj:
            parser.error(
                f"--islands {args.islands} contradicts --grid {pi} {pj} "
                f"({pi * pj} islands); drop --islands or make them agree"
            )
        args.islands = pi * pj
    elif args.variant == "2D":
        parser.error(
            "--variant 2D needs the island grid extents; add --grid PI PJ "
            "(e.g. --grid 2 2)"
        )
    if args.islands is None:
        args.islands = 4
    if args.islands < 1:
        parser.error("--islands must be at least 1")
    if args.variant != "2D":
        _check_split(
            parser, f"--islands {args.islands}", args.islands, args.shape,
            args.variant,
        )
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    if args.backend != "procs":
        if args.workers is not None:
            parser.error("--workers requires --backend procs")
        if args.procs_inner is not None:
            parser.error("--procs-inner requires --backend procs")
        if args.pin_workers:
            parser.error("--pin-workers requires --backend procs")
        if args.step_deadline is not None:
            parser.error("--step-deadline requires --backend procs")
        if args.deadline_factor is not None:
            parser.error("--deadline-factor requires --backend procs")
        if args.quarantine_after is not None:
            parser.error("--quarantine-after requires --backend procs")
    else:
        if args.workers is not None and args.workers < 1:
            parser.error("--workers must be at least 1")
        if args.step_deadline is not None and args.step_deadline <= 0:
            parser.error("--step-deadline must be positive")
        if args.deadline_factor is not None and args.deadline_factor < 0:
            parser.error("--deadline-factor must be non-negative")
        if args.quarantine_after is not None and args.quarantine_after < 0:
            parser.error("--quarantine-after must be non-negative")


def _run_engine(args) -> int:
    """One engine run, checked bit for bit against the whole-domain solver."""
    from .core import Variant
    from .runtime import (
        EngineConfig,
        JsonlSink,
        RecoveryPolicy,
        TableSink,
        measure_steady_state,
    )

    recovery = None
    if (
        args.faults is not None
        or args.checkpoint_every is not None
        or args.checkpoint_dir is not None
    ):
        recovery = RecoveryPolicy(
            checkpoint_every=args.checkpoint_every or 10,
            checkpoint_dir=args.checkpoint_dir,
            check_finite=not args.no_guards,
            mass_drift_limit=args.mass_drift_limit,
            max_rollbacks=args.rollbacks,
        )
    sinks = []
    if args.telemetry_jsonl is not None:
        sinks.append(JsonlSink(args.telemetry_jsonl))
    table = TableSink() if args.telemetry_table else None
    if table is not None:
        sinks.append(table)
    report = measure_steady_state(
        EngineConfig.from_cli_args(args),
        tuple(args.shape),
        args.steps,
        args.islands,
        variant=Variant(args.variant),
        partition_grid=tuple(args.grid) if args.grid else None,
        recovery=recovery,
        sinks=sinks,
    )
    if table is not None and table.rows:
        print("per-step telemetry:")
        print(table.render())
        print()
    print(report.render())
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0 if report.bit_identical else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "show":
        return _run_show(args.program, args.iord, args.no_fct)
    if args.command == "export":
        from .experiments.export import export_all

        for path in export_all(args.dir):
            print(f"wrote {path}")
        return 0
    if args.command == "verify":
        _validate_verify_args(parser, args)
        return _run_verify(args.shape, args.steps, args.islands)
    if args.command == "calibrate":
        _run_calibrate()
        return 0
    if args.command == "recommend":
        _run_recommend(args.processors, args.shape, args.steps)
        return 0
    if args.command == "engine":
        _validate_engine_args(parser, args)
        return _run_engine(args)
    _run_tables(args.command)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
