"""Fast self-test of the benchmark on tiny instances.

    python3 -m pytest -q perfbench/selftest.py

It is not named ``test_*.py``, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from energysched import instance, lp, pipeline, timegrid  # noqa: E402
from energysched.instance import GeneratorConfig  # noqa: E402
from energysched.rounding import SpeedRangeError  # noqa: E402

from perfbench import bench, checks, run, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "solve-mid": lambda seed, k: workloads.Spec(seed + k, 4, 2, GeneratorConfig()),
    "verify-small": lambda seed, k: workloads.Spec(
        seed + k, 4, 2, GeneratorConfig(edge_density=0.0, release_max=5.0)),
    "export-n40": lambda seed, k: workloads.Spec(
        seed + k, 5, 2, GeneratorConfig(energy_kind="table" if k % 2 else "poly")),
}


def tiny(name: str, **changes) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], size=2, pick=TINY[name], **changes)


def test_the_command_line_offers_every_workload():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert list(run.WORKLOAD_NAMES) == names == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    result = bench.measure(tiny(name), seed=1, seconds=0.05, trace=trace, workdir=tmp_path)
    last = json.loads(bench.final_line(result))
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    shown = {line.split()[1]: line.split()[3] for line in bench.summary_lines(result)
             if line.startswith("metric ")}
    units = bench.LAYER_UNITS if trace else {**bench.E2E_UNITS, **bench.EXTRA_UNITS}
    assert shown == units


def test_corrupted_lp_value_fails_the_run(tmp_path):
    def corrupted(case):
        result = pipeline.run(case.instance)
        result.report["lp_bound"] *= 1 + 1e-6
        return result

    result = bench.measure(tiny("solve-mid", call=corrupted), seed=1, seconds=0.05,
                           trace=False, workdir=tmp_path)
    assert json.loads(bench.final_line(result))["correct"] is False
    assert all("differs from the reference HiGHS optimum" in p for p in result["problems"])


def test_corrupted_dump_fails_the_check():
    inst = TINY["export-n40"](1, 0).generate()
    text = lp.lp_dump(lp.build_lp(inst, timegrid.build_grid(inst)))
    assert checks.check_dump(inst, text) == []

    lines = text.split("\n")
    tokens = lines[1].split()
    tokens[0::2] = [repr(float(t) * 1.01) for t in tokens[0::2]]
    lines[1] = "  " + " ".join(tokens)
    assert checks.check_dump(inst, "\n".join(lines))


def _implied_edge_instance():
    """A small instance with an edge implied by two others, whose
    precedence rows change the LP optimum."""
    for seed in range(100):
        inst = instance.generate(seed, 5, 2, GeneratorConfig(edge_density=0.6))
        edges = set(inst.precedence.edges)
        if any((a, b) in edges and (b, c) in edges for a, c in edges for b in range(10)):
            full = checks.reference_optimum(inst)
            if not math.isclose(_optimum_without(inst, lambda row: row.kind == "prec"), full,
                                rel_tol=1e-6):
                return inst
    raise AssertionError("no instance with an implied precedence edge")


def _optimum_without(inst, drop) -> float:
    model = lp.build_lp(inst, timegrid.build_grid(inst))
    return lp.solve_lp(dataclasses.replace(
        model, rows=tuple(r for r in model.rows if not drop(r)))).objective


def test_the_lp_check_tells_reformulations_from_wrong_lps():
    """Against the frozen reference, the program's LP may drop implied rows
    (a transitive reduction) but not rows that bind."""
    inst = _implied_edge_instance()
    edges = set(inst.precedence.edges)
    implied = {(a, c) for a, c in edges for b in range(10) if {(a, b), (b, c)} <= edges}

    def reduced(row):
        return row.kind == "prec" and row.key[:2] in implied

    result = pipeline.run(inst)
    assert checks.check_pipeline(inst, result.schedule, result.report, False) == []
    report = {**result.report, "lp_bound": _optimum_without(inst, reduced)}
    assert checks.check_pipeline(inst, result.schedule, report, False) == []
    report["lp_bound"] = _optimum_without(inst, lambda row: row.kind == "prec")
    assert checks.check_pipeline(inst, result.schedule, report, False)


def test_failures_are_counted_and_the_loop_goes_on(tmp_path):
    calls = []

    def flaky(case):
        calls.append(case)
        if len(calls) == 1:
            raise SpeedRangeError("target speed above the speed set")
        if len(calls) == 2:
            time.sleep(1.0)
        if len(calls) == 3:
            raise ValueError("bad input")
        return workloads.WORKLOADS["solve-mid"].call(case)

    result = bench.measure(tiny("solve-mid", call=flaky), seed=1, seconds=2.0,
                           trace=False, workdir=tmp_path, cap=0.2)
    statuses = [s["status"] for s in result["statuses"]]
    assert statuses[:4] == ["SpeedRangeError", "timeout", "error", "ok"]
    last = json.loads(bench.final_line(result))
    assert last["failed"] == 3 and last["attempted"] == len(statuses)
    assert result["metrics"]["failed_frac"] == 3 / len(statuses)


def test_adjusted_times_follow_the_program_not_the_host():
    def runs(host, program):
        return [(k, {"status": "ok", "outcome": None, "seconds": host * program * (1 + k),
                     "kernel_s": host * 0.01}) for k in range(3)]

    calm = bench.e2e_metrics(runs(1.0, 1.0), [0.1], [0.1], 40.0, nominal_s=0.01)
    slow_host = bench.e2e_metrics(runs(1.7, 1.0), [0.1], [0.1], 40.0, nominal_s=0.01)
    fast_program = bench.e2e_metrics(runs(1.7, 0.5), [0.1], [0.1], 40.0, nominal_s=0.01)
    assert calm["instance_s_p50"] == pytest.approx(2.0)
    assert slow_host["instance_s_p50"] == pytest.approx(calm["instance_s_p50"])
    assert slow_host["instance_s_p50_wall"] == pytest.approx(1.7 * calm["instance_s_p50_wall"])
    assert fast_program["instances_per_s"] == pytest.approx(2 * calm["instances_per_s"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *"--workload solve-mid --seed 1 --seconds 1".split()],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
