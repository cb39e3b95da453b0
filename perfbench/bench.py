"""Measurement, metrics and report for the energysched benchmark.

``run.py`` is the entry point: it pins the BLAS threads before this module
loads.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy

import energysched
from energysched import instance, lp, oracle, timegrid
from energysched.instance import GeneratorConfig
from energysched.rounding import SpeedRangeError

from perfbench import calibration, tracing, workloads

#: set-ups timed per run, spread evenly over it; setup_s is their median
SETUP_REPEATS = 9
#: an instance running longer than this counts as a timeout failure
TIME_CAP_S = 40.0

#: end-to-end metrics on the last line of an untraced run
E2E_UNITS = {
    "instances_per_s": "1/s",
    "instance_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: end-to-end metrics printed above the last line only: they can be 0 or n/a,
#: or, for the plain wall times, spread too much on a shared host to be gated
EXTRA_UNITS = {
    "failed_frac": "frac",
    "ratio_vs_lp_mean": "ratio",
    "ratio_vs_oracle_max": "ratio",
    "instances_per_s_wall": "1/s",
    "instance_s_p50_wall": "s",
    "setup_s_wall": "s",
    "kernel_s_p50": "s",
}

#: per-layer metrics on the last line of a traced run; values are per instance
#: run unless the unit says otherwise
LAYER_UNITS = {
    "pipeline.run_s": "s",
    "pipeline.self_s": "s",
    "cli.main_s": "s",
    "instance.parse_s": "s",
    "instance.generate_s": "s",
    "timegrid.intervals": "count",
    "lp.cols": "count",
    "lp.pinned_cols": "count",
    "lp.rows_assign": "count",
    "lp.rows_capacity": "count",
    "lp.rows_prec": "count",
    "lp.nnz": "count",
    "lp.build_s": "s",
    "lp.solve_self_s": "s",
    "lp.dump_s": "s",
    "lp.dump_bytes": "bytes",
    "simplex.solve_s": "s",
    "simplex.iterations": "count",
    "simplex.s_per_iter": "s",
    "simplex.share": "frac",
    "rounding.round_s": "s",
    "rounding.self_s": "s",
    "rounding.speed_range_errors": "count",
    "evaluate.cost_s": "s",
    "evaluate.calls": "count",
    "oracle.brute_force_s": "s",
    "oracle.permutations": "count",
    "oracle.speed_combos": "count",
    "oracle.evaluations": "count",
    "trace.overhead_frac": "frac",
    "traffic.n5.cols": "count",
    "traffic.n5.rows": "count",
    "traffic.n5.iterations": "count",
    "traffic.n10.cols": "count",
    "traffic.n10.rows": "count",
    "traffic.n10.iterations": "count",
    "traffic.baseline_match": "bool",
}

#: generate(seed=1, n, m=3, edge_density=0.3): cols, rows, simplex iterations.
#: Cols and rows are the ROADMAP baseline table's.  So are the iterations at
#: n = 5; at n = 10 the table has 302, measured with two BLAS threads, and the
#: benchmark's single pinned thread gives 291: the thread count changes the
#: order of BLAS reductions.  Both counts repeat exactly from run to run.
TRAFFIC_BASELINE = {5: (135, 50, 81), 10: (360, 202, 291)}


class InstanceTimeout(Exception):
    """An instance ran past the per-instance time cap."""


@contextlib.contextmanager
def time_cap(seconds: float):
    def expire(signum, frame):
        raise InstanceTimeout(f"exceeded the {seconds} s cap")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def attempt(call, case, cap: float) -> dict:
    """Run one instance; never raises, so one failure does not stop the loop."""
    record = {"status": "ok", "outcome": None, "detail": None}
    start = time.perf_counter()
    try:
        with time_cap(cap):
            record["outcome"] = call(case)
    except InstanceTimeout as exc:
        record.update(status="timeout", detail=str(exc))
    except SpeedRangeError as exc:
        record.update(status="SpeedRangeError", detail=str(exc))
    except Exception:
        # the loop must keep running; the traceback goes into the record
        record.update(status="error", detail=traceback.format_exc())
    record["seconds"] = time.perf_counter() - start
    return record


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def import_seconds() -> float:
    """Time to import energysched in a fresh interpreter.

    The import runs in a child, since this process has imported it already.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import energysched; print(time.perf_counter() - t)")
    src = Path(energysched.__file__).resolve().parents[1]
    return float(subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                                capture_output=True, text=True, timeout=60).stdout)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path,
            cap: float = TIME_CAP_S) -> dict:
    """Set up, run the timed loop, check the outputs; return the full record."""
    tracer = tracing.Tracer()
    specs = workload.specs(seed)
    nominal_s = calibration.NOMINAL_S[workload.kernel]
    setup_s, setup_wall_s = [], []

    def set_up() -> list:
        """One timed set-up: the import, then the instance-list build,
        adjusted like the instance runs by the kernel run just before it."""
        kernel_s = timed(workload.kernel)
        imported = import_seconds()
        tracer.instance = None
        start = time.perf_counter()
        with tracer if trace else contextlib.nullcontext():
            built = workload.setup(specs, workdir)
        setup_wall_s.append(imported + time.perf_counter() - start)
        setup_s.append(setup_wall_s[-1] * nominal_s / kernel_s)
        return built

    cases = set_up()
    runs = []         # (list position, record); traced runs keep their untraced twin
    loop_start = time.perf_counter()
    while True:
        # the other set-ups are spread over the run, like the instance runs,
        # so that a slow stretch of the host does not hit all of them
        if len(setup_s) < SETUP_REPEATS and (
                time.perf_counter() - loop_start >= len(setup_s) * seconds / SETUP_REPEATS):
            set_up()
        k = len(runs)
        case = cases[k % len(cases)]
        kernel_s = timed(workload.kernel)
        record = attempt(workload.call, case, cap)
        record["kernel_s"] = kernel_s
        if record["status"] == "ok":
            record["outcome"] = workload.keep(case, record["outcome"])
        if trace:
            tracer.instance = k
            with tracer:
                traced = attempt(workload.call, case, cap)
            record["traced_seconds"] = traced["seconds"]
            if traced["status"] != "ok" and record["status"] == "ok":
                record.update(status=traced["status"], detail=traced["detail"])
        runs.append((k % len(cases), record))
        if time.perf_counter() - loop_start >= seconds:
            break
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, checked = [], set()
    for k, record in runs:
        # a file-based workload keeps one output file per instance
        if record["status"] != "ok" or (workload.files and k in checked):
            continue
        checked.add(k)
        problems += [f"instance {k}: {p}" for p in workload.check(cases[k], record["outcome"])]
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop_s": loop_s,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "statuses": [{"position": k, "status": r["status"], "seconds": r["seconds"],
                      "kernel_s": r["kernel_s"], "detail": r["detail"]} for k, r in runs],
        "problems": problems,
    }
    result["metrics"] = (
        layer_metrics(workload, cases, runs, tracer, setup_s) if trace
        else e2e_metrics(runs, setup_s, setup_wall_s, peak_rss_mb, nominal_s)
    )
    if trace:
        result["spans"] = [vars(s) for s in tracer.spans]
    return result


def e2e_metrics(runs, setup_s: list, setup_wall_s: list, peak_rss_mb: float,
                nominal_s: float) -> dict:
    """End-to-end metrics over the distinct instances that completed.

    ``instances_per_s`` and ``instance_s_p50`` use adjusted times: each
    instance run's wall time scaled by ``nominal_s`` over the time of the
    calibration kernel run just before it, so that they read as seconds on a
    calm host (see ``calibration``).  ``instances_per_s`` takes each
    instance's time as the median of its adjusted runs; ``instance_s_p50``
    is the median over all adjusted runs, which averages over the list's
    mix of instances better than a median of 4 to 12 per-instance times.
    The plain wall-time figures, each instance's best run, are reported
    next to them.
    """
    best, adjusted, reports = {}, {}, {}
    for k, r in runs:
        if r["status"] == "ok":
            best[k] = min(best.get(k, r["seconds"]), r["seconds"])
            adjusted.setdefault(k, []).append(r["seconds"] * nominal_s / r["kernel_s"])
            if isinstance(r["outcome"], workloads.Solved):
                reports[k] = r["outcome"].report
    per_instance = [statistics.median(v) for v in adjusted.values()]
    oracle = [rep["ratio_vs_oracle"] for rep in reports.values() if "ratio_vs_oracle" in rep]
    failed = sum(r["status"] != "ok" for _, r in runs)
    return {
        "instances_per_s": len(per_instance) / sum(per_instance) if per_instance else 0.0,
        "instance_s_p50": statistics.median(itertools.chain(*adjusted.values()))
        if adjusted else None,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / len(runs),
        "ratio_vs_lp_mean": statistics.fmean(rep["ratio_vs_lp"] for rep in reports.values())
        if reports else None,
        "ratio_vs_oracle_max": max(oracle) if oracle else None,
        "instances_per_s_wall": len(best) / sum(best.values()) if best else 0.0,
        "instance_s_p50_wall": statistics.median(best.values()) if best else None,
        "setup_s_wall": statistics.median(setup_wall_s),
        "kernel_s_p50": statistics.median(r["kernel_s"] for _, r in runs),
    }


def case_counts(workload, case) -> dict:
    """LP shape and oracle work for one instance, outside any timed region."""
    grid = timegrid.build_grid(case.instance)
    model = lp.build_lp(case.instance, grid)
    kinds = [row.kind for row in model.rows]
    counts = {
        "timegrid.intervals": grid.T,
        "lp.cols": model.ncols,
        "lp.pinned_cols": int((model.upper == 0).sum()),
        "lp.rows_assign": kinds.count("assign"),
        "lp.rows_capacity": kinds.count("capacity"),
        "lp.rows_prec": kinds.count("prec"),
        "lp.nnz": sum(len(row.cols) for row in model.rows),
        "lp.dump_bytes": case.out.stat().st_size if case.out else 0,
        "oracle.permutations": 0,
        "oracle.speed_combos": 0,
        "oracle.evaluations": 0,
    }
    if workload.oracle:
        perms = sum(1 for _ in oracle._feasible_permutations(
            [j.id for j in case.instance.jobs], case.instance.precedence))
        combos = case.instance.speedset.m ** case.instance.n
        counts.update({"oracle.permutations": perms, "oracle.speed_combos": combos,
                       "oracle.evaluations": perms * combos})
    return counts


def traffic() -> dict:
    """LP shape and simplex iterations of the ROADMAP baseline instances."""
    metrics, match = {}, True
    for n, baseline in TRAFFIC_BASELINE.items():
        inst = instance.generate(1, n, 3, GeneratorConfig(edge_density=0.3))
        model = lp.build_lp(inst, timegrid.build_grid(inst))
        with tracing.Tracer() as tracer:
            lp.solve_lp(model)
        iterations = tracing.totals(tracer.spans).counts["simplex.solve.iterations"]
        got = (model.ncols, len(model.rows), iterations)
        match &= got == baseline
        for key, value in zip(("cols", "rows", "iterations"), got):
            metrics[f"traffic.n{n}.{key}"] = value
    metrics["traffic.baseline_match"] = int(match)
    return metrics


def layer_metrics(workload, cases, runs, tracer, setup_s) -> dict:
    n = len(runs)
    setup = tracing.totals([s for s in tracer.spans if s.instance is None])
    loop = tracing.totals([s for s in tracer.spans if s.instance is not None])
    sec, own = loop.seconds, loop.self_seconds
    rounding = ("rounding.saias", "rounding.saias_t")
    iterations = loop.counts["simplex.solve.iterations"]
    metrics = {
        "pipeline.run_s": sec["pipeline.run"] / n,
        "pipeline.self_s": own["pipeline.run"] / n,
        "cli.main_s": sec["cli.main"] / n,
        "instance.parse_s": (sec["instance.load"] + sec["instance.validate"]) / n,
        "instance.generate_s": setup.seconds["instance.generate"] / len(setup_s),
        "lp.build_s": sec["lp.build_lp"] / n,
        "lp.solve_self_s": own["lp.solve_lp"] / n,
        "lp.dump_s": sec["lp.lp_dump"] / n,
        "simplex.solve_s": sec["simplex.solve"] / n,
        "simplex.iterations": iterations / n,
        "simplex.s_per_iter": sec["simplex.solve"] / iterations if iterations else 0.0,
        "simplex.share": sec["simplex.solve"] / sec["pipeline.run"] if sec["pipeline.run"] else 0.0,
        "rounding.round_s": sum(sec[r] for r in rounding) / n,
        "rounding.self_s": sum(own[r] for r in rounding) / n,
        "rounding.speed_range_errors": sum(loop.errors[(r, "SpeedRangeError")] for r in rounding),
        "evaluate.cost_s": sec["evaluate.cost"] / n,
        "evaluate.calls": loop.calls["evaluate.cost"] / n,
        "oracle.brute_force_s": sec["oracle.brute_force"] / n,
    }
    per_case = {}
    for k, _ in runs:
        if k not in per_case:
            per_case[k] = case_counts(workload, cases[k])
    for key in per_case[runs[0][0]]:
        metrics[key] = sum(per_case[k][key] for k, _ in runs) / n
    untraced = sum(r["seconds"] for _, r in runs)
    metrics["trace.overhead_frac"] = sum(r["traced_seconds"] for _, r in runs) / untraced - 1
    metrics.update(traffic())
    return metrics


def environment(seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def summary_lines(result: dict) -> list:
    """Human-readable lines: every metric by name and unit, statuses, problems."""
    units = LAYER_UNITS if result["trace"] else {**E2E_UNITS, **EXTRA_UNITS}
    statuses = [s["status"] for s in result["statuses"]]
    lines = [
        f"workload {result['workload']} seed {result['seed']} "
        f"seconds {result['seconds']} trace {result['trace']}",
        "env " + " ".join(f"{k}={v}" for k, v in result.get("env", {}).items()),
        "status " + " ".join(f"{s}={statuses.count(s)}"
                             for s in ("ok", "SpeedRangeError", "error", "timeout")),
        "set-ups " + " ".join(f"{t:.4f}" for t in result["setup_s"]) + " s",
    ]
    for name, unit in units.items():
        value = result["metrics"][name]
        shown = "n/a" if value is None else f"{value:.6g}"
        note = (f" (instances={len(set(s['position'] for s in result['statuses']))}, "
                f"samples={statuses.count('ok')})" if name == "instance_s_p50" else "")
        lines.append(f"metric {name} {shown} {unit}{note}")
    if result["trace"]:
        want = " ".join(f"n={n}: {c}/{r}/{i}" for n, (c, r, i) in TRAFFIC_BASELINE.items())
        verdict = "matches" if result["metrics"]["traffic.baseline_match"] else "differs from"
        lines.append(f"traffic cols/rows/iterations {verdict} the baseline ({want}; "
                     "the ROADMAP's 302 iterations at n=10 are with two BLAS threads)")
    lines += [f"problem {p}" for p in result["problems"]]
    lines.append("check " + ("passed" if not result["problems"] else "FAILED"))
    return lines


def final_line(result: dict) -> str:
    units = LAYER_UNITS if result["trace"] else E2E_UNITS
    statuses = [s["status"] for s in result["statuses"]]
    return json.dumps({
        "correct": not result["problems"],
        "attempted": len(statuses),
        "failed": len(statuses) - statuses.count("ok"),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    })
