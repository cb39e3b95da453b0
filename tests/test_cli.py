import argparse
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from energysched import cli, lp, oracle, pipeline, timegrid
from energysched.energy import PolynomialEnergy, TableEnergy
from energysched.instance import (
    GeneratorConfig,
    Instance,
    Job,
    Objective,
    ParseError,
    PrecedenceDag,
    SpeedSet,
    from_dict,
    generate,
    load,
    save,
    to_dict,
)

from helpers import BUILD_LP_DIGESTS

N_CAP, M_CAP = oracle.DEFAULT_CAPS


@pytest.fixture
def inst_path(tmp_path):
    path = tmp_path / "inst.json"
    save(generate(11, 3, 2, GeneratorConfig(edge_density=0.4)), path)
    return str(path)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gen_stdout_roundtrips(capsys):
    rc, out, _ = run_cli(capsys, "gen", "--seed", "3", "--n", "4", "--m", "2")
    assert rc == 0
    data = json.loads(out)
    assert len(data["jobs"]) == 4
    assert len(data["speeds"]) == 2
    assert data == to_dict(generate(3, 4, 2))     # no flag given: the generator's defaults


def _help(capsys, parse, *argv):
    with pytest.raises(SystemExit) as stop:
        parse([*argv, "--help"])
    assert stop.value.code == 0
    return capsys.readouterr().out


def test_one_parser_serves_every_call_in_a_process(inst_path, capsys):
    fresh = cli.build_parser.__wrapped__().parse_args      # built anew, not the cached one
    expected = {argv: _help(capsys, fresh, *argv) for argv in [(), ("gen",), ("lp-dump",)]}
    rc, out, _ = run_cli(capsys, "gen", "--seed", "3", "--n", "4", "--m", "2", "--rho-max", "5")
    assert rc == 0 and json.loads(out) == to_dict(generate(3, 4, 2, GeneratorConfig(rho_max=5)))
    rc, out, _ = run_cli(capsys, "lp-dump", inst_path)
    inst = load(inst_path)
    assert rc == 0 and out == lp.lp_dump(lp.build_lp(inst, timegrid.build_grid(inst)))
    rc, out, _ = run_cli(capsys, "gen", "--seed", "3", "--n", "4", "--m", "2")   # defaults again
    assert rc == 0 and json.loads(out) == to_dict(generate(3, 4, 2, GeneratorConfig()))
    assert cli.build_parser() is cli.build_parser()
    for argv, text in expected.items():
        assert _help(capsys, cli.main, *argv) == text


def test_gen_is_seed_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "gen", "--seed", "5", "--n", "3", "--m", "2")
    _, out2, _ = run_cli(capsys, "gen", "--seed", "5", "--n", "3", "--m", "2")
    assert out1 == out2


def test_gen_to_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    rc, out, err = run_cli(capsys, "gen", "--seed", "1", "--n", "2", "--m", "2",
                           "--out", str(path))
    assert rc == 0
    assert out == ""
    assert str(path) in err
    assert len(json.loads(path.read_text())["jobs"]) == 2


def test_solve_reports_schedule_and_ratio(inst_path, capsys):
    rc, out, _ = run_cli(capsys, "solve", inst_path, "--pretty")
    assert rc == 0
    data = json.loads(out)
    assert sorted(data["jobs"].keys(), key=int) == ["1", "2", "3"]
    assert data["report"]["ratio_vs_lp"] >= 1.0 - 1e-9
    assert data["report"]["ratio_vs_lp"] <= data["report"]["theoretical_bound"] + 1e-9
    assert data["cost"]["total"] == pytest.approx(
        data["cost"]["energy"] + data["cost"]["scheduling"])


def test_solve_with_oracle_flag(inst_path, capsys):
    rc, out, _ = run_cli(capsys, "solve", inst_path, "--oracle")
    data = json.loads(out)
    assert rc == 0
    assert data["report"]["oracle_cost"] <= data["cost"]["total"] + 1e-9
    assert data["report"]["ratio_vs_oracle"] >= 1.0 - 1e-9


def test_solve_with_oracle_accepts_a_repeated_edge(tmp_path, capsys):
    # job 1's bit summed twice into job 2's predecessor mask would be job 2's
    # own bit, which no order satisfies
    path = tmp_path / "inst.json"
    save(dataclasses.replace(generate(1, 3, 2, GeneratorConfig(edge_density=0.0)),
                             precedence=PrecedenceDag(((1, 2),) * 2)), path)
    rc, out, _ = run_cli(capsys, "solve", str(path), "--oracle")
    assert rc == 0
    assert json.loads(out)["report"]["oracle_cost"] == 15.338919656681401


def test_solve_alpha_override(inst_path, capsys):
    _, out_default, _ = run_cli(capsys, "solve", inst_path)
    _, out_alpha, _ = run_cli(capsys, "solve", inst_path, "--alpha", "0.3")
    assert json.loads(out_default)["report"]["alpha"] == pytest.approx(0.5)
    assert json.loads(out_alpha)["report"]["alpha"] == pytest.approx(0.3)


def test_solve_applies_objective_alpha_and_epsilon_together(tmp_path, capsys):
    path = tmp_path / "inst.json"
    save(generate(11, 3, 4, GeneratorConfig(edge_density=0.4, delta=3.0)), path)
    rc, out, _ = run_cli(capsys, "solve", str(path), "--objective", "tardiness",
                         "--alpha", "0.45", "--epsilon", "0.8")
    assert rc == 0
    report = json.loads(out)["report"]
    assert (report["alpha"], report["epsilon"]) == (0.45, 0.8)
    assert report["gamma"] == (1 + 0.8) / (0.45 * (1 - 0.45))    # only tardiness reports it
    # the overridden instance keeps no grid of the loaded one: it solves as the same
    # instance saved with those values does
    save(dataclasses.replace(load(path), objective=Objective.TARDINESS, alpha=0.45,
                             epsilon=0.8), path)
    assert run_cli(capsys, "solve", str(path)) == (0, out, "")


def test_oracle_subcommand_matches_solve_oracle(inst_path, capsys):
    _, out_solve, _ = run_cli(capsys, "solve", inst_path, "--oracle")
    _, out_exact, _ = run_cli(capsys, "oracle", inst_path)
    assert json.loads(out_exact)["cost"] == pytest.approx(
        json.loads(out_solve)["report"]["oracle_cost"])


def test_oracle_cap_error_exit_code(inst_path, capsys):
    rc, _, err = run_cli(capsys, "oracle", inst_path, "--n-cap", "2")
    assert rc == 2
    assert "error:" in err


def test_bench_deterministic_and_bound_clean(capsys):
    argv = ["bench", "--seed", "9", "--count", "6", "--n", "4", "--m", "2",
            "--vary-n", "--oracle"]
    rc, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["aggregate"]["count"] == 6
    assert data["aggregate"]["bound_violations"] == 0
    assert data["aggregate"]["max_ratio_vs_oracle"] >= 1.0 - 1e-9


def test_bench_records_failed_instances_and_goes_on(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--objective", "tardiness", "--count", "20",
                         "--n", "5", "--m", "4", "--delta", "1.5")
    assert rc == 0
    data = json.loads(out)
    rows, agg = data["instances"], data["aggregate"]
    ok = [r for r in rows if r["status"] == "ok"]
    failed = [r for r in rows if r["status"] != "ok"]
    assert ok and failed
    assert all(r["error"] is None for r in ok)
    assert {r["status"] for r in failed} == {"SpeedRangeError"}
    assert all(r["error"] and "ratio_vs_lp" not in r for r in failed)
    assert agg["count"] == 20 and agg["failed"] == len(failed)
    ratios = [r["ratio_vs_lp"] for r in ok]
    assert agg["max_ratio_vs_lp"] == max(ratios)
    assert agg["mean_ratio_vs_lp"] == sum(ratios) / len(ratios)


def test_bench_aggregates_are_null_when_every_instance_fails(capsys):
    # the ladder may reach gamma = 6, so the batch runs, but draws stay below it
    rc, out, _ = run_cli(capsys, "bench", "--objective", "tardiness", "--count", "2",
                         "--n", "3", "--m", "2", "--delta", "5", "--oracle")
    assert rc == 0
    agg = json.loads(out)["aggregate"]
    assert agg["failed"] == 2
    assert agg["max_ratio_vs_lp"] is None and agg["mean_ratio_vs_oracle"] is None
    assert agg["bound_violations"] == 0


#: tardiness flags whose ladders cannot span gamma: (m, delta, gamma, span)
SHORT_LADDERS = {
    "": ("2", "1", "6", "2"),                         # bench's defaults
    "--m 1 --delta 5": ("1", "5", "6", "1"),
    "--m 3 --delta 0.5 --epsilon 1": ("3", "0.5", "8", "2.25"),
    "--m 2 --delta 5 --alpha 0.25": ("2", "5", "8", "6"),
}


@pytest.mark.parametrize("flags", SHORT_LADDERS)
def test_bench_refuses_tardiness_ladders_that_cannot_span_gamma(flags, capsys):
    rc, out, err = run_cli(capsys, "bench", "--objective", "tardiness", "--count", "3",
                           "--n", "4", *flags.split())
    m, delta, gamma, span = SHORT_LADDERS[flags]
    assert rc == 2
    assert out == ""
    assert err == (f"error: --objective tardiness needs speeds spanning gamma = {gamma}, "
                   f"but --m {m} and --delta {delta} give speed ladders spanning at most "
                   f"(1 + delta)**(m - 1) = {span}; raise --m or --delta\n")


def test_bench_warns_when_some_tardiness_ladders_fall_short_of_gamma(capsys):
    # at --m 4 and the default --delta 1 the widest ladder spans 8 > gamma = 6,
    # so the batch runs; the narrowest spans 1.5**3 = 3.375, and these draws fail
    rc, out, err = run_cli(capsys, "bench", "--objective", "tardiness", "--count", "3",
                           "--n", "4", "--m", "4")
    assert rc == 0
    assert [r["status"] for r in json.loads(out)["instances"]] == ["SpeedRangeError"] * 3
    assert err == ("warning: --m 4 and --delta 1 give speed ladders spanning from "
                   "(1 + delta/2)**(m - 1) = 3.375 to (1 + delta)**(m - 1) = 8; instances "
                   "whose ladder spans less than gamma = 6 fail with SpeedRangeError\n")


def test_bench_does_not_warn_when_every_tardiness_ladder_spans_gamma(capsys):
    # (1 + 3/2)**5 = 97.7 > gamma = 6: every draw spans gamma
    rc, _, err = run_cli(capsys, "bench", "--objective", "tardiness", "--count", "1",
                         "--n", "3", "--m", "6", "--delta", "3")
    assert rc == 0
    assert err == ""


def test_bench_oracle_records_size_cap_errors(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--count", "2", "--n", "8", "--m", "2", "--oracle")
    assert rc == 0
    data = json.loads(out)
    assert [r["status"] for r in data["instances"]] == ["SizeCapError"] * 2
    assert all("exceeds caps" in r["error"] for r in data["instances"])
    agg = data["aggregate"]
    assert agg["failed"] == 2
    assert agg["max_ratio_vs_lp"] is None and agg["mean_ratio_vs_lp"] is None
    assert agg["max_ratio_vs_oracle"] is None and agg["mean_ratio_vs_oracle"] is None


def test_bench_oracle_fails_only_the_oversize_rows(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--seed", "3", "--count", "6", "--n", "9",
                         "--m", "2", "--vary-n", "--oracle")
    assert rc == 0
    data = json.loads(out)
    rows = data["instances"]
    assert {r["n"] > 7 for r in rows} == {True, False}
    for r in rows:
        assert r["status"] == ("SizeCapError" if r["n"] > 7 else "ok")
    ok = [r for r in rows if r["status"] == "ok"]
    assert data["aggregate"]["failed"] == len(rows) - len(ok)
    assert data["aggregate"]["max_ratio_vs_oracle"] == max(r["ratio_vs_oracle"] for r in ok)


@pytest.mark.parametrize("n, m", [(N_CAP + 1, M_CAP), (N_CAP, M_CAP + 1)])
def test_oracle_caps_exit_code(n, m, tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    save(generate(0, n, m, GeneratorConfig()), path)
    # validation builds the energy costs; the search reads the due dates next
    monkeypatch.setattr(Instance, "due",
                        property(lambda self: pytest.fail("the search read the due dates")))
    rc, out, err = run_cli(capsys, "oracle", str(path))
    assert rc == 2 and out == ""
    assert f"n={n}, m={m} exceeds caps ({N_CAP}, {M_CAP})" in err


def test_oracle_order_code_overflow_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    save(generate(0, 16, 2, GeneratorConfig()), path)     # 2**16 combinations fit
    # validation builds the energy costs; the search reads the due dates next
    monkeypatch.setattr(Instance, "due",
                        property(lambda self: pytest.fail("the search read the due dates")))
    rc, _, err = run_cli(capsys, "oracle", str(path), "--n-cap", "20")
    assert rc == 2
    assert "overflow int64" in err


def test_lp_dump_to_file(inst_path, tmp_path, capsys):
    path = tmp_path / "model.lp"
    rc, out, _ = run_cli(capsys, "lp-dump", inst_path, "--out", str(path))
    assert rc == 0
    text = path.read_text()
    assert text.startswith("minimize")
    assert "assign_1:" in text


class _NoRow:
    """Stands in for ``lp.Row``: building any row raises."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a Row was built")

    @classmethod
    def _make(cls, iterable):
        raise AssertionError("a Row was built")


@pytest.mark.parametrize("kind, seed", BUILD_LP_DIGESTS)
def test_lp_dump_stdout_is_pinned(kind, seed, tmp_path, capsys, monkeypatch):
    # load, grid, build and dump end to end, from an instance file, building no row
    monkeypatch.setattr(lp, "Row", _NoRow)
    path = tmp_path / "inst.json"
    save(generate(seed, 40, 3, GeneratorConfig(edge_density=0.3, energy_kind=kind)), path)
    rc, out, err = run_cli(capsys, "lp-dump", str(path))
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BUILD_LP_DIGESTS[kind, seed]


def test_ids_past_int64_dump_and_solve(tmp_path, capsys):
    # the edge (-3, 10**20) is implied by -3 -> 7 -> 10**20, so the reduction
    # must tell ids apart that no int64 holds
    big = 10**20
    path = tmp_path / "big.json"
    save(Instance(jobs=(Job(-3, 2, 1.0), Job(big, 1, 2.0), Job(7, 3, 0.5)),
                  speedset=SpeedSet((1.0, 2.0), 1.0),
                  precedence=PrecedenceDag(((-3, 7), (7, big), (-3, big)))), path)
    rc, out, err = run_cli(capsys, "lp-dump", str(path))
    assert (rc, err) == (0, "")
    assert "prec_-3_7_" in out and "prec_7_100000000000000000000_" in out
    assert "prec_-3_100000000000000000000_" not in out
    # recorded when the reduction still used per-job bit masks
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "406cf39fbae089438eb887c2da9c6ef5f61c07c09f32ec11c9190a7fd57c972d")
    rc, out, err = run_cli(capsys, "solve", str(path))
    assert (rc, err) == (0, "")
    assert set(json.loads(out)["jobs"]) == {"-3", "7", str(big)}


def test_perf_records_each_seed_and_size(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "PERF_SEEDS", (1, 2))
    monkeypatch.setattr(cli, "PERF_SIZES", (3, 5))
    path = tmp_path / "BENCH_test.json"
    rc, out, err = run_cli(capsys, "perf", "--out", str(path))
    assert rc == 0 and out == "" and "wrote" in err
    rows = json.loads(path.read_text())["instances"]
    assert [(r["n"], r["seed"]) for r in rows] == [(3, 1), (3, 2), (5, 1), (5, 2)]
    for r in rows:
        inst = generate(r["seed"], r["n"], 3, GeneratorConfig(edge_density=0.3))
        model = lp.build_lp(inst, timegrid.build_grid(inst))
        sol = lp.solve_lp(model)
        assert (r["rows"], r["cols"], r["objective"]) == (len(model.rows), model.ncols, sol.objective)
        assert (r["iterations"], r["bound_flips"], r["degenerate_pivots"], r["bland"],
                r["kernel_max"]) == (sol.iterations, sol.bound_flips, sol.degenerate_pivots,
                                     sol.bland, sol.kernel_max)
        assert all(r[key] > 0 for key in ("grid_s", "build_s", "solve_s", "dump_s", "dump_bytes"))
        assert r["dump_bytes"] == len(lp.lp_dump(model).encode())


def test_missing_instance_file_exit_code(capsys):
    rc, _, err = run_cli(capsys, "solve", "/nonexistent/file.json")
    assert rc == 2
    assert "error:" in err


#: argv that reads or writes a path the OS refuses; ``{dir}`` is a directory,
#: ``{inst}`` an instance file, and the last item is the path the error names
UNUSABLE_PATHS = {
    "solve a directory": ("solve", "{dir}", "{dir}"),
    "oracle a directory": ("oracle", "{dir}", "{dir}"),
    "lp-dump a directory": ("lp-dump", "{dir}", "{dir}"),
    "gen --out a directory": ("gen", "--seed", "1", "--n", "3", "--m", "2", "--out", "{dir}",
                              "{dir}"),
    "lp-dump --out a directory": ("lp-dump", "{inst}", "--out", "{dir}", "{dir}"),
    "lp-dump --out under a file": ("lp-dump", "{inst}", "--out", "{inst}/x", "{inst}/x"),
}


@pytest.mark.parametrize("case", UNUSABLE_PATHS)
def test_unusable_path_exits_2_naming_it(case, inst_path, tmp_path, capsys):
    *argv, named = [a.format(dir=tmp_path, inst=inst_path) for a in UNUSABLE_PATHS[case]]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


def test_perf_refuses_an_unwritable_out_before_its_first_solve(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_perf_row", lambda seed, n: calls.append((seed, n)))
    rc, out, err = run_cli(capsys, "perf", "--out", str(tmp_path))
    assert (rc, out, calls) == (2, "", [])
    assert err.startswith("error: ") and str(tmp_path) in err


def test_perf_sweep_that_raises_leaves_no_record(tmp_path, capsys, monkeypatch):
    def fail(seed, n):
        raise RuntimeError("solve failed")

    monkeypatch.setattr(cli, "_perf_row", fail)
    fresh, old = tmp_path / "BENCH_new.json", tmp_path / "BENCH_old.json"
    old.write_text("{}\n")
    assert run_cli(capsys, "perf", "--out", str(fresh)) == (2, "", "error: solve failed\n")
    assert not fresh.exists()
    assert run_cli(capsys, "perf", "--out", str(old)) == (2, "", "error: solve failed\n")
    assert old.read_text() == "{}\n"                 # an earlier record stays whole


@pytest.mark.parametrize("flags, message", [
    ("--vary-n --n 0 --count 2", "--n must be at least 1, got 0"),
    ("--n -3", "--n must be at least 1, got -3"),
    ("--count -1", "--count must be at least 0, got -1"),
    ("--seed -1", "--seed must be at least 0, got -1"),
])
def test_bench_refuses_counts_it_cannot_use(flags, message, capsys, monkeypatch):
    monkeypatch.setattr(cli.instance_mod, "generate", None)     # no instance is built
    rc, out, err = run_cli(capsys, "bench", *flags.split())
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_gen_refuses_a_negative_seed(capsys):
    rc, out, err = run_cli(capsys, "gen", "--seed", "-1", "--n", "3", "--m", "2")
    assert (rc, out, err) == (2, "", "error: --seed must be at least 0, got -1\n")


def test_bench_refuses_a_tardiness_ladder_past_the_float_range(capsys):
    # (1 + delta)**(m - 1) overflowed in the ladder check, with a traceback and exit 1
    rc, out, err = run_cli(capsys, "bench", "--count", "1", "--n", "2", "--m", "6",
                           "--objective", "tardiness", "--delta", "1e200")
    assert (rc, out, err) == (2, "", "error: invalid instance: speeds must be finite, got "
                                     "[1.0, 7.559108123501283e+199, inf, inf, inf, inf]; "
                                     "speeds must be strictly increasing\n")


def test_gen_refuses_a_rho_max_past_int64(capsys):
    rc, out, err = run_cli(capsys, "gen", "--seed", "1", "--n", "3", "--m", "2",
                           "--rho-max", "100000000000000000000")
    assert (rc, out, err) == (2, "", "error: rho_max must be at most 9223372036854775807, "
                                     "got 100000000000000000000\n")


#: an instance file's text, and the message after ``error:``; ``{path}`` is the file's path
MALFORMED = {
    "missing fields": ('{"jobs": "nope"}', "missing fields ['alpha', 'beta', 'delta', 'edges', "
                                           "'epsilon', 'objective', 'speeds']"),
    "top-level list": ("[1, 2]", "instance file must contain a JSON object"),
    "truncated": ('{"jobs": [', "{path}: Expecting value: line 1 column 11 (char 10)"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_instance_exit_code(case, tmp_path, capsys):
    text, message = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc, out, err = run_cli(capsys, "solve", str(bad))
    assert rc == 2
    assert out == ""
    assert err == f"error: {message.format(path=bad)}\n"


BAD_TYPES = {
    "jobs 5": (lambda d: d.update(jobs=5), "field 'jobs' must be a list"),
    "jobs null": (lambda d: d.update(jobs=None), "field 'jobs' must be a list"),
    "speeds string": (lambda d: d.update(speeds="12"), "field 'speeds' must be a list"),
    "id 1.5": (lambda d: d["jobs"][0].update(id=1.5), "field 'id': must be an integer, got 1.5"),
    "rho 1.5": (lambda d: d["jobs"][0].update(rho=1.5), "field 'rho': must be an integer, got 1.5"),
    "edge end 1.5": (lambda d: d.update(edges=[[1.5, 2]]),
                     "field 'edges': must be an integer, got 1.5"),
    # a JSON boolean is not read as 0 or 1
    "id true": (lambda d: d["jobs"][0].update(id=True), "field 'id': must be an integer, got true"),
    "rho true": (lambda d: d["jobs"][0].update(rho=True),
                 "field 'rho': must be an integer, got true"),
    "edge end true": (lambda d: d.update(edges=[[True, 2]]),
                      "field 'edges': must be an integer, got true"),
    "energy beta true": (lambda d: d["jobs"][0]["energy"].update(beta=True),
                         "energy field 'beta': must be a number, got true"),
    **{
        f"{name} true": (edit, f"field {name!r}: must be a number, got true")
        for name, edit in {
            "weight": lambda d: d["jobs"][0].update(weight=True),
            "release": lambda d: d["jobs"][1].update(release=True),
            "deadline": lambda d: d["jobs"][2].update(deadline=True),
            "speeds[1]": lambda d: d["speeds"].__setitem__(1, True),
            "delta": lambda d: d.update(delta=True),
            "alpha": lambda d: d.update(alpha=True),
            "epsilon": lambda d: d.update(epsilon=True),
            "beta": lambda d: d.update(beta=True),
            "v": lambda d: d["jobs"][0]["energy"].update(v=True),
            "costs[1]": lambda d: d["jobs"][1].update(energy={"type": "table", "costs": [1, True]}),
        }.items()
    },
    # nor is a JSON string, and a list must not be read from one
    "weight '3'": (lambda d: d["jobs"][0].update(weight="3"),
                   "field 'weight': must be a number, got \"3\""),
    "rho '2'": (lambda d: d["jobs"][0].update(rho="2"), "field 'rho': must be an integer, got \"2\""),
    "id '1'": (lambda d: d["jobs"][0].update(id="1"), "field 'id': must be an integer, got \"1\""),
    "alpha '0.25'": (lambda d: d.update(alpha="0.25"),
                     "field 'alpha': must be a number, got \"0.25\""),
    "speeds[1] '2'": (lambda d: d["speeds"].__setitem__(1, "2"),
                      "field 'speeds[1]': must be a number, got \"2\""),
    "edge end '2'": (lambda d: d.update(edges=[[1, "2"]]),
                     "field 'edges': must be an integer, got \"2\""),
    "costs '12'": (lambda d: d["jobs"][1].update(energy={"type": "table", "costs": "12"}),
                   "job 2: energy field 'costs' must be a list, got '12'"),
    "edge '12'": (lambda d: d.update(edges=["12"]),
                  "field 'edges': each edge must be a pair of job ids, got \"12\""),
    "edge [1, 2, 3]": (lambda d: d.update(edges=[[1, 2, 3]]),
                       "field 'edges': each edge must be a pair of job ids, got [1, 2, 3]"),
    "weight 10**400": (lambda d: d["jobs"][0].update(weight=10**400),
                       "field 'weight': int too large to convert to float"),
    # the shape of a job, its energy and the objective
    "energy 5": (lambda d: d["jobs"][0].update(energy=5),
                 "job 1: energy must be an object with a 'type' field"),
    "energy type 'cubic'": (lambda d: d["jobs"][0].update(energy={"type": "cubic"}),
                            "job 1: unknown energy type 'cubic'"),
    "energy field 'w'": (lambda d: d["jobs"][0]["energy"].update(w=1.0),
                         "job 1: unknown energy fields ['w']"),
    "energy without v": (lambda d: d["jobs"][0].update(energy={"type": "poly", "beta": 2.0}),
                         "job 1: bad polynomial energy: 'v'"),
    "job 5": (lambda d: d["jobs"].__setitem__(1, 5), "jobs[1] must be an object"),
    "job field 'color'": (lambda d: d["jobs"][0].update(color="red"),
                          "jobs[0]: unknown fields ['color']"),
    "objective 'late'": (lambda d: d.update(objective="late"),
                         "field 'objective' must be one of ['completion', 'tardiness']: "
                         "'late' is not a valid Objective"),
}


@pytest.mark.parametrize("case", BAD_TYPES)
def test_bad_field_type_is_a_parse_error_naming_the_field(case):
    edit, message = BAD_TYPES[case]
    data = to_dict(generate(11, 3, 2, GeneratorConfig(edge_density=0.4)))
    edit(data)
    with pytest.raises(ParseError, match=re.escape(message)):
        from_dict(data)


@pytest.mark.parametrize("command", ["solve", "lp-dump"])
@pytest.mark.parametrize("case", BAD_TYPES)
def test_bad_field_type_exits_2_naming_the_field(case, command, tmp_path, capsys):
    edit, message = BAD_TYPES[case]
    data = to_dict(generate(11, 3, 2, GeneratorConfig(edge_density=0.4)))
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, command, str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert message in err


#: energy values that parse as numbers but lie outside the model's range, given to job 2
OUT_OF_RANGE_ENERGY = {
    "v -1": ({"type": "poly", "v": -1, "beta": 2.0}, "coefficient must be positive, got -1.0"),
    "beta 1.5": ({"type": "poly", "v": 1.0, "beta": 1.5}, "exponent must be >= 2, got 1.5"),
    "costs [-1, 2]": ({"type": "table", "costs": [-1, 2]}, "costs must be non-negative"),
    "costs []": ({"type": "table", "costs": []}, "needs at least one cost value"),
}


@pytest.mark.parametrize("surface", ["library", "solve", "lp-dump"])
@pytest.mark.parametrize("case", OUT_OF_RANGE_ENERGY)
def test_out_of_range_energy_is_a_parse_error_naming_the_job(case, surface, tmp_path, capsys):
    energy, message = OUT_OF_RANGE_ENERGY[case]
    data = to_dict(generate(11, 3, 2, GeneratorConfig(edge_density=0.4)))
    data["jobs"][1]["energy"] = energy
    if surface == "library":
        with pytest.raises(ParseError, match=r"^job 2: .*" + re.escape(message)):
            from_dict(data)
        return
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, surface, str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error: job 2: ") and message in err


def test_energy_field_parse_error_is_not_wrapped_again():
    data = to_dict(generate(11, 3, 2, GeneratorConfig(edge_density=0.4)))
    data["jobs"][1]["energy"] = {"type": "poly", "v": True, "beta": 2.0}
    with pytest.raises(ParseError) as info:
        from_dict(data)
    assert str(info.value) == "job 2: energy field 'v': must be a number, got true"


def test_corrupt_lp_solution_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "chain.json"
    save(Instance(jobs=(Job(1, 1, 1.0), Job(2, 1, 1.0)), speedset=SpeedSet((1.0,), 1.0),
                  precedence=PrecedenceDag(((1, 2),))), path)

    def successor_first(model, config=None):
        # job 2 completes in the first interval, its predecessor job 1 in the last
        x = np.zeros((2, 1, model.grid.T))
        x[0, 0, -1] = 1.0
        x[1, 0, 0] = 1.0
        return lp.LpSolution(status="optimal", x=x, objective=0.0, iterations=0)

    monkeypatch.setattr(lp, "solve_lp", successor_first)
    rc, out, err = run_cli(capsys, "solve", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert "edge 1 -> 2" in err


NON_FINITE = {
    "weight": lambda d: d["jobs"][0].update(weight=float("nan")),
    "release": lambda d: d["jobs"][1].update(release=float("inf")),
    "deadline": lambda d: d["jobs"][0].update(deadline=float("nan")),
    "speeds": lambda d: d["speeds"].__setitem__(1, float("inf")),
    "delta": lambda d: d.update(delta=float("nan")),
    "epsilon": lambda d: d.update(epsilon=float("inf")),
    "alpha": lambda d: d.update(alpha=float("nan")),
    "beta": lambda d: d.update(beta=float("nan")),
    "energy v": lambda d: d["jobs"][2].update(
        energy={"type": "poly", "v": float("inf"), "beta": 2.0}),
    "energy beta": lambda d: d["jobs"][0].update(
        energy={"type": "poly", "v": 1.0, "beta": float("nan")}),
    "energy costs[1]": lambda d: d["jobs"][1].update(
        energy={"type": "table", "costs": [1.0, float("nan")]}),
}


@pytest.mark.parametrize("field", NON_FINITE)
def test_non_finite_input_exits_2_naming_the_field(field, tmp_path, capsys):
    data = to_dict(generate(11, 3, 2, GeneratorConfig(edge_density=0.4)))
    NON_FINITE[field](data)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))      # json writes NaN and Infinity literally
    rc, out, err = run_cli(capsys, "solve", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"{field} must be finite" in err or f"{field} must lie in" in err


#: a finite energy field of job 3 in ``generate(2, 3, 2)``, and the job's costs
#: at the grid speeds 1 and 1.63 then: 1.63 ** (1e9 - 1) overflows, and
#: v * rho = 3e308 is inf
OVERFLOWING_ENERGY = {
    "beta 1e9": ("beta", 1e9, "[1.6146657961796587, inf]"),
    "v 1e308": ("v", 1e308, "[inf, inf]"),
}


@pytest.mark.parametrize("case", OVERFLOWING_ENERGY)
def test_energy_costs_past_the_float_range_exit_2_naming_the_job(case, tmp_path, capsys,
                                                                  monkeypatch):
    field, value, costs = OVERFLOWING_ENERGY[case]
    data = to_dict(generate(2, 3, 2))
    data["jobs"][2]["energy"][field] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(lp, "build_lp", _unreachable)
    rc, out, err = run_cli(capsys, "solve", str(path), "--oracle")
    assert (rc, out) == (2, "")
    assert err == ("error: invalid instance: job 3: energy costs at the grid speeds "
                   f"must be finite, got {costs}\n")


#: a job field of ``generate(1, 3, 2)``'s job 3 that w * tau_T carries past
#: the float range, and that job's tau_T: the LP objective once held inf
#: and reported nan, and the oracle once failed in ``add.reduceat``
SCHEDULE_COST_OVERFLOWS = {
    "weight": ({"weight": 1e308}, "4.324678649160119"),
    "weight and release": ({"weight": 1e300, "release": 1e10}, "13959884696.619535"),
}


@pytest.mark.parametrize("command", [["solve"], ["solve", "--oracle"], ["oracle"], ["lp-dump"]],
                         ids=" ".join)
@pytest.mark.parametrize("case", SCHEDULE_COST_OVERFLOWS)
def test_schedule_costs_past_the_float_range_exit_2_naming_the_job(case, command, tmp_path,
                                                                  capsys, monkeypatch):
    fields, tau = SCHEDULE_COST_OVERFLOWS[case]
    data = to_dict(generate(1, 3, 2))
    data["jobs"][2].update(fields)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(lp, "build_lp", _unreachable)
    monkeypatch.setattr(oracle, "brute_force", _unreachable)
    rc, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert (rc, out) == (2, "")
    assert err == ("error: invalid instance: job 3: largest energy cost plus weight * tau_T "
                   f"must be finite, got inf (tau_T = {tau})\n")


#: an instance whose theoretical bound is past the float range, and the
#: parameters the refusal names
INFINITE_BOUNDS = {
    # ((1 + eps)(1 + delta))**(beta - 1) overflows
    "tardiness beta 1000": (Objective.TARDINESS, {"beta": 1000.0},
                            "alpha=0.5, epsilon=0.5, delta=3.0, beta=1000.0"),
    # the power is finite, the division by (alpha (1 - alpha))**beta is not
    "tardiness beta 300": (Objective.TARDINESS, {"beta": 300.0},
                           "alpha=0.5, epsilon=0.5, delta=3.0, beta=300.0"),
    "completion delta 1e308": (Objective.COMPLETION_TIME, {"delta": 1e308},
                               "alpha=0.5, epsilon=0.5, delta=1e+308, beta=2.0"),
}


def _infinite_bound_instance(case):
    objective, fields, _ = INFINITE_BOUNDS[case]
    if objective is Objective.TARDINESS:
        data = to_dict(generate(1, 3, 6, GeneratorConfig(objective=objective, delta=3.0)))
    else:
        data = to_dict(generate(1, 3, 2))
    data.update(fields)
    return from_dict(data)


@pytest.mark.parametrize("case", INFINITE_BOUNDS)
def test_theoretical_bound_past_the_float_range_exits_2_before_the_lp(case, tmp_path, capsys,
                                                                      monkeypatch):
    inst = _infinite_bound_instance(case)
    assert pipeline.theoretical_bound(inst) == float("inf")   # not an OverflowError
    path = tmp_path / "inst.json"
    save(inst, path)
    monkeypatch.setattr(lp, "build_lp", _unreachable)
    rc, out, err = run_cli(capsys, "solve", str(path))
    assert (rc, out) == (2, "")
    assert err == (f"error: the theoretical bound for {INFINITE_BOUNDS[case][2]} is past "
                   "the float range; guarantee void\n")


def test_theoretical_bound_is_inf_when_its_divisor_underflows():
    inst = Instance(jobs=(Job(1, 1, 1.0),), speedset=SpeedSet((1.0,), 1e-3),
                    objective=Objective.TARDINESS, epsilon=1e-3, beta=1000.0)
    # 1.002001 ** 999 is about 7.4, and (alpha (1 - alpha)) ** 1000 = 0.25 ** 1000 is 0.0
    assert pipeline.theoretical_bound(inst) == float("inf")


def test_bench_records_an_infinite_theoretical_bound(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--count", "2", "--m", "1", "--delta", "1e308")
    assert rc == 0
    rows = json.loads(out)["instances"]
    assert [r["status"] for r in rows] == ["AssumptionError"] * 2
    assert all("theoretical bound" in r["error"] and "delta=1e+308" in r["error"] for r in rows)


@pytest.mark.parametrize("alpha", [1e-9, 1e-10, 1e-300])
def test_tiny_alpha_solves_within_the_bound(alpha, tmp_path, capsys):
    # at alpha <= the rounding's mass tolerance, an interval with no mass once
    # counted as the alpha interval, and its speed divided by zero
    data = to_dict(generate(2, 3, 2))
    data["alpha"] = alpha
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "solve", str(path), "--oracle")
    assert (rc, err) == (0, "")
    report = json.loads(out)["report"]
    assert report["alpha"] == alpha
    assert 1.0 <= report["ratio_vs_oracle"] <= report["theoretical_bound"]


def _unreachable(*args, **kwargs):
    pytest.fail("an invalid run reached the LP")


STEEP_ENERGY = {
    "poly": PolynomialEnergy(1.0, 4.0),      # exponent 4 against the instance's beta = 2
    "table": TableEnergy((1.0, 100.0)),
}


@pytest.mark.parametrize("kind", STEEP_ENERGY)
def test_energy_growth_violation_exits_2_before_the_solve(kind, tmp_path, capsys, monkeypatch):
    inst = Instance(
        jobs=(Job(1, 1, 1.0, deadline=5.0), Job(2, 2, 1.0, deadline=5.0, energy=STEEP_ENERGY[kind])),
        speedset=SpeedSet((1.0, 8.0), 7.0),   # gamma * sigma_1 = 6 fits under sigma_2
        objective=Objective.TARDINESS,
        beta=2.0,
    )
    path = tmp_path / "steep.json"
    save(inst, path)
    monkeypatch.setattr(lp, "build_lp", _unreachable)
    monkeypatch.setattr(lp, "solve_lp", _unreachable)
    rc, out, err = run_cli(capsys, "solve", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: job 2:")
    assert "growth condition" in err


@pytest.fixture
def tiny_epsilon_path(tmp_path):
    data = to_dict(generate(11, 3, 2, GeneratorConfig(edge_density=0.4)))
    data["epsilon"] = 1e-17
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command", ["solve", "lp-dump", "solve --epsilon", "gen"])
def test_tiny_epsilon_exits_2_without_building_the_grid(
        command, inst_path, tiny_epsilon_path, capsys, monkeypatch):
    argv = {
        "solve": ["solve", tiny_epsilon_path],
        "lp-dump": ["lp-dump", tiny_epsilon_path],
        "solve --epsilon": ["solve", inst_path, "--epsilon", "1e-17"],
        "gen": ["gen", "--seed", "1", "--n", "3", "--m", "2", "--epsilon", "1e-17"],
    }[command]
    build_grid, built = timegrid.build_grid, []      # the epsilon of every grid built

    def recording_build_grid(instance):
        grid = build_grid(instance)
        built.append(instance.epsilon)
        return grid

    monkeypatch.setattr(timegrid, "build_grid", recording_build_grid)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert "epsilon = 1e-17 gives a time grid of more than 1000 intervals" in err
    assert 1e-17 not in built           # validate's call stopped at the limit


def _record_grid_builds(monkeypatch) -> list:
    """The epsilon of every grid ``timegrid.build_grid`` builds from here on."""
    build_grid, built = timegrid.build_grid, []

    def recording_build_grid(instance):
        built.append(instance.epsilon)
        return build_grid(instance)

    monkeypatch.setattr(timegrid, "build_grid", recording_build_grid)
    return built


@pytest.mark.parametrize("argv, epsilons", [
    (["solve"], [0.5]),
    (["lp-dump"], [0.5]),
    (["solve", "--epsilon", "0.8"], [0.5, 0.8]),     # the loaded instance's, then the override's
])
def test_each_instance_builds_its_grid_once(argv, epsilons, inst_path, capsys, monkeypatch):
    built = _record_grid_builds(monkeypatch)
    rc, _, _ = run_cli(capsys, argv[0], inst_path, *argv[1:])
    assert rc == 0
    assert built == epsilons


def test_run_reuses_the_grid_validation_built(monkeypatch):
    inst = generate(11, 5, 3)          # generate validates the instance, which builds its grid
    built = _record_grid_builds(monkeypatch)
    result = pipeline.run(inst)
    assert built == []
    assert result.grid is inst.grid


@pytest.mark.parametrize("objective", ["completion", "tardiness"])
@pytest.mark.parametrize("alpha", ["0", "1", "1.5", "nan"])
def test_bad_alpha_override_exits_2_before_the_lp(objective, alpha, tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    save(generate(11, 3, 2, GeneratorConfig(objective=Objective(objective), edge_density=0.4)), path)
    monkeypatch.setattr(lp, "build_lp", _unreachable)
    rc, out, err = run_cli(capsys, "solve", str(path), "--alpha", alpha)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert "alpha must lie in (0, 1)" in err


def _actions(command: str) -> list:
    """The argparse actions of the subcommand ``command``."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]._actions


@pytest.mark.parametrize("command", ["gen", "bench"])
def test_each_generator_field_has_one_flag_without_a_default(command):
    actions = _actions(command)
    for field in dataclasses.fields(GeneratorConfig):
        flags = [a for a in actions if a.dest == field.name]
        assert len(flags) == 1, field.name
        # an absent flag leaves the field to GeneratorConfig's own default
        assert flags[0].default is argparse.SUPPRESS, field.name


#: a bad generator flag, and what stderr must say
BAD_GENERATOR_FLAGS = {
    "--edge-density 2": "error: edge_density must be in [0, 1], got 2.0\n",
    "--rho-max 0": "error: rho_max must be positive, got 0\n",
    "--objective tardiness --release-max 1": "error: tardiness instances cannot have release dates\n",
    "--release-max inf": "error: release_max must be finite and non-negative, got inf\n",
    "--release-max nan": "error: release_max must be finite and non-negative, got nan\n",
    "--objective tardiness --deadline-max inf":
        "error: deadline_max must be finite and non-negative, got inf\n",
    "--energy cubic": "argument --energy: invalid choice: 'cubic'",
    "--beta abc": "argument --beta: invalid float value: 'abc'",
}


@pytest.mark.parametrize("command", ["gen", "bench"])
@pytest.mark.parametrize("flags", BAD_GENERATOR_FLAGS)
def test_bad_generator_flag_exits_2(flags, command, capsys):
    try:                    # argparse exits on a value it cannot read
        rc = cli.main([command, "--seed", "1", "--n", "3", "--m", "2", *flags.split()])
    except SystemExit as stop:
        rc = stop.code
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert BAD_GENERATOR_FLAGS[flags] in err
