import json

import numpy as np
import pytest

from energysched import cli, lp, oracle, timegrid
from energysched.energy import PolynomialEnergy, TableEnergy
from energysched.instance import (
    GeneratorConfig,
    Instance,
    Job,
    Objective,
    PrecedenceDag,
    SpeedSet,
    generate,
    load,
    save,
    to_dict,
)


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


def test_solve_alpha_override(inst_path, capsys):
    _, out_default, _ = run_cli(capsys, "solve", inst_path)
    _, out_alpha, _ = run_cli(capsys, "solve", inst_path, "--alpha", "0.3")
    assert json.loads(out_default)["report"]["alpha"] == pytest.approx(0.5)
    assert json.loads(out_alpha)["report"]["alpha"] == pytest.approx(0.3)


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
    rc, out, _ = run_cli(capsys, "bench", "--objective", "tardiness", "--count", "2",
                         "--n", "3", "--m", "1", "--oracle")
    assert rc == 0
    agg = json.loads(out)["aggregate"]
    assert agg["failed"] == 2
    assert agg["max_ratio_vs_lp"] is None and agg["mean_ratio_vs_oracle"] is None
    assert agg["bound_violations"] == 0


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


def test_oracle_speed_combination_cap_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    save(generate(0, 5, 3, GeneratorConfig()), path)      # 3**5 = 243 combinations
    monkeypatch.setattr(oracle, "MAX_SPEED_COMBOS", 100)
    monkeypatch.setattr(Instance, "energy_costs",
                        property(lambda self: pytest.fail("the search read the energy costs")))
    rc, _, err = run_cli(capsys, "oracle", str(path), "--n-cap", "12", "--m-cap", "6")
    assert rc == 2
    assert "MAX_SPEED_COMBOS" in err


def test_lp_dump_to_file(inst_path, tmp_path, capsys):
    path = tmp_path / "model.lp"
    rc, out, _ = run_cli(capsys, "lp-dump", inst_path, "--out", str(path))
    assert rc == 0
    text = path.read_text()
    assert text.startswith("minimize")
    assert "assign_1:" in text


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


def test_malformed_instance_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"jobs": "nope"}')
    rc, _, err = run_cli(capsys, "solve", str(bad))
    assert rc == 2
    assert "error:" in err


def test_corrupt_lp_solution_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "chain.json"
    save(Instance(jobs=(Job(1, 1, 1.0), Job(2, 1, 1.0)), speedset=SpeedSet((1.0,), 1.0),
                  precedence=PrecedenceDag(((1, 2),))), path)

    def successor_first(model, config=None):
        # job 2 completes in the first interval, its predecessor job 1 in the last
        x = np.zeros((2, 1, model.index.T))
        x[0, 0, -1] = 1.0
        x[1, 0, 0] = 1.0
        return lp.LpSolution(x=x, objective=0.0)

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
    monkeypatch.setattr(timegrid, "build_grid", _unreachable)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert "epsilon = 1e-17" in err


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
