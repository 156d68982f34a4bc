"""The engine benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload::

    python3 enginebench/bench_engine.py --workload paper-native --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the host.  A failed correctness gate prints
``"correct": false`` and exits 1; a run that cannot execute at all
prints no result and exits 2.

Other modes::

    --smoke                      every workload, tiny grid, 3 steps, both traces
    --collect OUT.json           --sets x --runs seeds x every workload (plus
                                 --traced-runs traced runs), one ledger file
    --compare PREV.json [--against CUR.json]
                                 medians and quartiles per workload x metric;
                                 exit 1 on a regression beyond its bound

Every measured run happens in a fresh process (``engine_child.py``) that
imports the engine from ``src/`` of this checkout.  Everything written
goes under ``.bench_build/enginebench/`` of the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from workloads import BY_NAME, SETUP_SAMPLES, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
CHILD = HERE / "engine_child.py"
SPEC = REPO / "BENCHMARK.json"

#: Everything a run writes, under one ignored directory of the checkout.
WORK = REPO / ".bench_build" / "enginebench"
NATIVE_CACHE = WORK / "native-cache"
WORK_TMP = WORK / "tmp"

#: Wall budget of one invocation, kept under three minutes.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to running incorrectly)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def _child_env(native_cache: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_NATIVE_CACHE"] = str(native_cache)
    env["TMPDIR"] = str(WORK_TMP)
    return env


#: prctl option that makes this process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Become a child subreaper, so procs workers a child process leaves
    behind are re-parented here and can be reaped at once (Linux only;
    elsewhere :func:`_kill_group` waits for the system to reap them)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _kill_group(process: subprocess.Popen) -> None:
    """Kill what is left of a child's process group (the child and any
    procs workers it forked), reap the child and wait for the group to
    empty.  Only one child runs at a time, so any process reaped while
    waiting is an adopted worker of this group."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    give_up = time.monotonic() + 5.0
    while time.monotonic() < give_up:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass
        time.sleep(0.001)


def _child(
    role: str,
    workload: Workload,
    seed: int,
    steps: int,
    *,
    trace: int,
    smoke: bool,
    deadline: float,
    native_cache: Path = NATIVE_CACHE,
) -> Dict[str, Any]:
    """Run one ``engine_child.py`` role in a fresh process group."""
    command = [
        sys.executable, str(CHILD), role,
        "--workload", workload.name, "--seed", str(seed),
        "--steps", str(steps), "--trace", str(trace),
        "--workdir", str(WORK_TMP),
    ]
    if smoke:
        command.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before the {role} process of {workload.name}")
    process = subprocess.Popen(
        command,
        cwd=str(REPO),
        env=_child_env(native_cache),
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process of {workload.name} ran out of time") from None
    finally:
        _kill_group(process)
    if process.returncode != 0:
        raise BenchError(
            f"{role} process of {workload.name} exited with {process.returncode}"
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} process of {workload.name} printed nothing")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------


def _first_line(command: Sequence[str]) -> str:
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    text = (done.stdout or done.stderr).strip().splitlines()
    return text[0] if done.returncode == 0 and text else "unavailable"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from the mount table)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 3:
                    continue
                point = parts[1]
                inside = target == point or target.startswith(point.rstrip("/") + "/")
                if inside and len(point) >= len(best):
                    best, fstype = point, parts[2]
    except OSError:
        pass
    return fstype


def host_record(workload: Workload, seed: int, smoke: bool) -> Dict[str, Any]:
    import numpy

    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = None
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    modules = len(list(NATIVE_CACHE.glob("*.so")))
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": affinity,
        "cc": _first_line(["cc", "--version"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi_version,
        "git_commit": _git_commit(),
        "workload": workload.name,
        "grid": list(workload.grid(smoke)),
        "islands": workload.islands,
        "seed": seed,
        "native_cache": f"{'warm' if modules else 'cold'} ({modules} modules)",
        "checkpoint_fs": _filesystem(WORK_TMP),
    }


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------


def _quantile_90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def _end_to_end(
    workload: Workload, seed: int, steps: int, smoke: bool, deadline: float
) -> Dict[str, Any]:
    samples = 1 if smoke else SETUP_SAMPLES
    setups = [
        _child("setup", workload, seed, steps, trace=0, smoke=smoke, deadline=deadline)
        for _ in range(samples)
    ]
    run = _child("run", workload, seed, steps, trace=0, smoke=smoke, deadline=deadline)
    raw_ms, norm_ms = run["step_intervals_ms"], run["step_norm_ms"]
    # Times are rescaled to the reference host's speed by the host probe
    # (engine_child.HostProbe) that ran between steps, or just before a
    # setup sample; the raw numbers are printed next to them.
    scale = sum(norm_ms) / sum(raw_ms)
    metrics = {
        "step_ms_p50": statistics.median(norm_ms),
        "mlups": run["cells"] * run["steps"] / sum(norm_ms) * 1e-3,
        "cpu_ms_per_step": run["cpu_s"] * scale / run["steps"] * 1e3,
        "setup_s": statistics.median(
            s["seconds"] * workload.host_factor(s["probe_s"]) for s in setups
        ),
        "peak_rss_mb": run["peak_rss_kb"] * 1024 / 1e6,
        # 1 - (steps lost + steps replayed by rollback) / steps requested:
        # the complement of a step fail ratio, so that it is never 0.
        "step_ok_ratio": (run["steps"] - run["failed_steps"]) / run["steps"],
    }
    raw = {
        "step_ms_p50": statistics.median(raw_ms),
        "mlups": run["cells"] * run["steps"] / sum(raw_ms) * 1e-3,
        "cpu_ms_per_step": run["cpu_s"] / run["steps"] * 1e3,
        "setup_s": statistics.median(s["seconds"] for s in setups),
        "host_probe_ms": statistics.median(run["probe_ms"]),
        "host_scale": scale,
        "step_samples": len(raw_ms),
    }
    return {
        "metrics": metrics,
        "raw": raw,
        "gates": run["gates"],
        "attempted": run["steps"],
        "failed": run["failed_steps"],
    }


def _per_layer(
    workload: Workload, seed: int, steps: int, smoke: bool, deadline: float
) -> Dict[str, Any]:
    cold = Path(tempfile.mkdtemp(prefix="cold-cache-", dir=WORK))
    try:
        build_s = _child("build", workload, seed, steps, trace=0, smoke=smoke,
                         deadline=deadline, native_cache=cold)["seconds"]
    finally:
        shutil.rmtree(cold, ignore_errors=True)
    # An untraced and a traced run of equal length, each half a measured
    # run, both rescaled by the host probe between their steps: their
    # step_ms_p50 ratio is the tracing overhead.
    half = steps if smoke else max(3, steps // 2)
    untraced = _child("run", workload, seed, half, trace=0, smoke=smoke,
                      deadline=deadline)
    traced = _child("run", workload, seed, half, trace=1, smoke=smoke, deadline=deadline)
    layers = dict(traced["layers"])
    for stage, value in layers.pop("stage_ns_per_cell").items():
        layers[f"stencil.{stage}.ns_per_cell"] = value
    layers.update(
        {
            "stencil.kernel_build_s": build_s,
            "island_exec.step_ms_p90": _quantile_90(untraced["step_intervals_ms"]),
            "procs.false_hangs": traced["hangs_detected"] - traced["injected_hangs"],
            "recovery.rollbacks": traced["rollbacks"],
            "resilience.retries": traced["retries"],
            "telemetry.trace_overhead_frac": statistics.median(traced["step_norm_ms"])
            / statistics.median(untraced["step_norm_ms"]) - 1.0,
        }
    )
    gates = {f"untraced.{k}": v for k, v in untraced["gates"].items()}
    gates.update(traced["gates"])
    return {
        "metrics": layers,
        "gates": gates,
        "attempted": untraced["steps"] + traced["steps"],
        "failed": untraced["failed_steps"] + traced["failed_steps"],
    }


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool,
    spec: Mapping[str, Any],
    deadline: float,
) -> Dict[str, Any]:
    """Prime, measure and check one workload; returns the result record."""
    NATIVE_CACHE.mkdir(parents=True, exist_ok=True)
    WORK_TMP.mkdir(parents=True, exist_ok=True)
    host = host_record(workload, seed, smoke)
    steps = workload.steps(seconds, smoke)
    _child("prime", workload, seed, steps, trace=0, smoke=smoke, deadline=deadline)
    measure = _per_layer if trace else _end_to_end
    measured = measure(workload, seed, steps, smoke, deadline)
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for metric in spec[section]:
        name = metric["name"]
        if name not in measured["metrics"]:
            raise BenchError(f"{workload.name} did not measure {name}")
        metrics[name] = {"value": float(measured["metrics"][name]), "unit": metric["unit"]}
    return {
        "host": host,
        "raw": measured.get("raw", {}),
        "gates": measured["gates"],
        "correct": all(measured["gates"].values()),
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }


def _print_table(name: str, record: Mapping[str, Any]) -> None:
    print(f"== {name} ==")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in record["raw"].items():
        print(f"  (unscaled) {name:<29} {value:>14.6g}")
    failed = [gate for gate, ok in record["gates"].items() if not ok]
    print(f"  gates: {'all passed' if not failed else 'FAILED ' + ', '.join(failed)}")


# ----------------------------------------------------------------------
# Ledgers: --collect and --compare
# ----------------------------------------------------------------------


def _collect_set(
    runs: int, traced_runs: int, seed_base: int, seconds: float,
    spec: Mapping[str, Any], ledger: Dict[str, Any],
) -> Dict[str, Any]:
    """One set: ``runs`` seeds × every workload, then the traced runs."""
    one: Dict[str, Any] = {
        "seeds": [seed_base + r for r in range(runs)],
        "end_to_end": {w.name: {} for w in WORKLOADS},
        "per_layer": {w.name: {} for w in WORKLOADS},
        "failures": [],
    }
    plan = [(r, w, 0) for r in range(runs) for w in WORKLOADS]
    plan += [(r, w, 1) for r in range(traced_runs) for w in WORKLOADS]
    for r, workload, trace in plan:
        seed = seed_base + r
        record = run_workload(
            workload, seed, seconds, trace, False, spec,
            time.monotonic() + RUN_BUDGET_S,
        )
        ledger["host"] = {k: v for k, v in record["host"].items()
                          if k not in ("workload", "grid", "islands", "seed")}
        section = "per_layer" if trace else "end_to_end"
        for name, entry in record["metrics"].items():
            one[section][workload.name].setdefault(name, []).append(entry["value"])
        if not record["correct"] or record["failed"]:
            one["failures"].append({"workload": workload.name, "seed": seed,
                                    "trace": trace, "gates": record["gates"]})
        print(f"{workload.name} seed={seed} trace={trace} correct={record['correct']}",
              flush=True)
    one["summary"] = {
        workload: {name: summarize(values) for name, values in metrics.items()}
        for workload, metrics in one["end_to_end"].items()
    }
    return one


def collect(
    path: Path, sets: int, runs: int, traced_runs: int, seed_base: int,
    seconds: float, spec: Mapping[str, Any],
) -> int:
    """Write a ledger of ``sets`` full sets, each with fresh seeds."""
    ledger: Dict[str, Any] = {"seconds": seconds, "sets": []}
    for index in range(sets):
        ledger["sets"].append(_collect_set(
            runs, traced_runs, seed_base + index * runs, seconds, spec, ledger
        ))
    if sets >= 2:
        # How far the last set's medians moved from the first's, as a
        # share of the first: the run-to-run agreement of one commit.
        first, last = ledger["sets"][0]["summary"], ledger["sets"][-1]["summary"]
        ledger["between_sets"] = {
            workload: {
                name: last[workload][name]["median"] / stats["median"] - 1.0
                for name, stats in metrics.items()
            }
            for workload, metrics in first.items()
        }
    with open(path, "w") as handle:
        json.dump(ledger, handle, indent=1)
    print(f"wrote {path}")
    return 0 if not any(one["failures"] for one in ledger["sets"]) else 1


def ledger_values(data: Mapping[str, Any], section: str = "end_to_end"):
    """``{workload: {metric: [values]}}``, pooling the sets of a ledger."""
    pooled: Dict[str, Dict[str, List[float]]] = {}
    for one in data["sets"]:
        for workload, metrics in one.get(section, {}).items():
            for name, values in metrics.items():
                pooled.setdefault(workload, {}).setdefault(name, []).extend(values)
    return pooled


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile spread as a share of the median."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


def compare(prev: Mapping[str, Any], cur: Mapping[str, Any], spec: Mapping[str, Any]) -> int:
    """Judge ``cur`` against ``prev`` by each metric's bound; 1 on regression."""
    before, after = ledger_values(prev), ledger_values(cur)
    regressions = 0
    print(f"{'workload':<16} {'metric':<16} " + "prev median [q1, q3]".ljust(30)
          + "cur median [q1, q3]".rjust(30) + f" {'change':>8}  verdict")
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            old = before.get(workload.name, {}).get(name)
            new = after.get(workload.name, {}).get(name)
            if not old or not new:
                print(f"{workload.name:<16} {name:<16} missing on one side")
                continue
            a, b = summarize(old), summarize(new)
            change = (b["median"] - a["median"]) / abs(a["median"])
            worse = change if lower else -change
            better_everywhere = max(new) < min(old) if lower else min(new) > max(old)
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif a["spread"] > bound and not better_everywhere:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{workload.name:<16} {name:<16} "
                f"{a['median']:>10.4g} [{a['q1']:.4g}, {a['q3']:.4g}]".ljust(64)
                + f"{b['median']:>10.4g} [{b['q1']:.4g}, {b['q3']:.4g}]".rjust(30)
                + f" {change:>+8.1%}  {verdict}"
            )
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Engine benchmark: end-to-end and per-layer metrics."
    )
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--collect", metavar="OUT.json")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=2)
    parser.add_argument("--compare", metavar="PREV.json")
    parser.add_argument("--against", metavar="CUR.json")
    args = parser.parse_args(argv)

    if not SPEC.is_file():
        print(f"no BENCHMARK.json at {REPO}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.compare and args.against:
        with open(args.compare) as a, open(args.against) as b:
            return compare(json.load(a), json.load(b), spec)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"no engine sources under {REPO / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    _adopt_orphans()
    try:
        if args.collect or args.compare:
            out = Path(args.collect) if args.collect else WORK / "current.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            status = collect(
                out, args.sets, args.runs, args.traced_runs, args.seed, seconds, spec
            )
            if not args.compare:
                return status
            with open(args.compare) as a, open(out) as b:
                return compare(json.load(a), json.load(b), spec) or status
        if args.smoke:
            return _smoke(args.seed, spec)
        if args.workload is None:
            parser.error("--workload is required (or --smoke/--collect/--compare)")
        record = run_workload(
            BY_NAME[args.workload], args.seed, seconds, args.trace, False, spec,
            time.monotonic() + RUN_BUDGET_S,
        )
    except BenchError as error:
        print(f"benchmark could not run: {error}", file=sys.stderr)
        return 2
    _print_table(args.workload, record)
    print("host: " + json.dumps(record["host"]))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def _smoke(seed: int, spec: Mapping[str, Any]) -> int:
    """Every workload on its tiny grid, untraced then traced."""
    summary: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    deadline = time.monotonic() + 10 * RUN_BUDGET_S
    for workload in WORKLOADS:
        entry = summary["workloads"][workload.name] = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            record = run_workload(workload, seed, 0.0, trace, True, spec, deadline)
            _print_table(f"{workload.name} (smoke, trace {trace})", record)
            entry[section] = record["metrics"]
            entry.setdefault("gates", {}).update(
                {f"trace{trace}.{gate}": ok for gate, ok in record["gates"].items()}
            )
            summary["correct"] = summary["correct"] and record["correct"]
            summary["attempted"] += record["attempted"]
            summary["failed"] += record["failed"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
