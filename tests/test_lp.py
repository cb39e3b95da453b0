import dataclasses
import hashlib
import re

import numpy as np
import pytest

import energysched as es
from energysched import (
    InfeasibleHorizonError,
    Instance,
    Job,
    Objective,
    PolynomialEnergy,
    PrecedenceDag,
    SpeedSet,
    build_grid,
    lp_dump,
    solve_lp,
)
from energysched.instance import GeneratorConfig, generate
from energysched.lp import build_lp, constraint_arrays, start_basis

from helpers import (
    BUILD_LP_DIGESTS,
    col,
    highs_objective,
    interval_of,
    reference_list_schedule,
    reference_lp_dump,
)


def one_job_instance():
    return Instance(
        jobs=(Job(1, 1, 1.0, energy=PolynomialEnergy(1.0, 2.0)),),
        speedset=SpeedSet((1.0,), 1.0),
        epsilon=1.0,
    )


def test_single_column_coefficient():
    inst = one_job_instance()
    grid = build_grid(inst)
    model = build_lp(inst, grid)
    # energy 1*1*1 + weight * kappa = 2
    assert model.objective[col(model, 0, 0, 1)] == pytest.approx(2.0)


def test_release_beyond_horizon_fails_early():
    inst = Instance(
        jobs=(Job(1, 1, 1.0), Job(2, 1, 1.0, release=100.0)),
        speedset=SpeedSet((1.0,), 1.0),
        epsilon=1.0,
    )
    grid = build_grid(inst)
    # shrink the grid so job 2 cannot fit anywhere
    import dataclasses
    small = dataclasses.replace(grid, tau=grid.tau[:3])
    with pytest.raises(InfeasibleHorizonError, match="job 2"):
        build_lp(inst, small)


def _kept_prec_rows(inst, grid):
    """Keys (a, b, t) of the precedence rows the LP keeps, from the instance alone.

    An edge keeps rows when no path of two or more edges joins its ends; it
    keeps the intervals t < T from the first one in which the successor can
    finish at some speed.
    """
    edges = set(inst.precedence.edges)
    ids = [j.id for j in inst.jobs]
    reach = set(edges)
    for k in ids:                                   # Warshall closure
        for i in ids:
            for j in ids:
                if (i, k) in reach and (k, j) in reach:
                    reach.add((i, j))
    kept = []
    for a, b in dict.fromkeys(inst.precedence.edges):
        if any((a, c) in edges and (c, b) in reach for c in ids):
            continue
        job = next(j for j in inst.jobs if j.id == b)
        first = min(
            t for t in range(1, grid.T + 1) for s in inst.speedset.speeds
            if grid.tau[t] >= (job.release + job.rho / s) * (1 - 1e-12)
        )
        kept += [(a, b, t) for t in range(first, grid.T)]
    return kept


def test_row_and_column_counts():
    inst = generate(3, 4, 2, GeneratorConfig(edge_density=0.5))
    grid = build_grid(inst)
    model = build_lp(inst, grid)
    n, m, T = inst.n, inst.speedset.m, grid.T
    kept = _kept_prec_rows(inst, grid)
    assert model.ncols == n * m * T
    assert len(model.rows) == n + T + len(kept)
    assert [r.key for r in model.rows if r.kind == "prec"] == kept


@pytest.mark.parametrize("seed,density,release_max", [(1, 0.8, 0.0), (2, 1.0, 0.0), (3, 0.6, 5.0)])
def test_only_non_implied_precedence_rows_are_built(seed, density, release_max):
    inst = generate(seed, 7, 2, GeneratorConfig(edge_density=density, release_max=release_max))
    grid = build_grid(inst)
    model = build_lp(inst, grid)
    prec = [r.key for r in model.rows if r.kind == "prec"]
    assert prec == _kept_prec_rows(inst, grid)
    assert len(prec) < len(inst.precedence.edges) * (grid.T - 1)


REDUCED_PREC_CASES = {
    "chain": (4, 8, 2, GeneratorConfig(edge_density=1.0)),
    "dense": (5, 9, 3, GeneratorConfig(edge_density=0.8)),
    "releases": (6, 8, 3, GeneratorConfig(edge_density=0.5, release_max=5.0)),
    "tardiness": (7, 8, 3, GeneratorConfig(objective=Objective.TARDINESS, edge_density=0.6)),
}


@pytest.mark.parametrize("case", REDUCED_PREC_CASES)
def test_reduced_lp_optimum_keeps_every_precedence_row(case):
    # the reduced LP is a relaxation of the one with a row per edge and
    # interval; its optimum meeting every one of those rows makes the optima equal
    seed, n, m, cfg = REDUCED_PREC_CASES[case]
    inst = generate(seed, n, m, cfg)
    grid = build_grid(inst)
    model = build_lp(inst, grid)
    assert sum(r.kind == "prec" for r in model.rows) < len(inst.precedence.edges) * grid.T
    prefix = np.cumsum(solve_lp(model).x.sum(axis=1), axis=1)   # (n, T): X_i(t)
    pos = {job.id: i for i, job in enumerate(inst.jobs)}
    for a, b in inst.precedence.edges:
        assert np.all(prefix[pos[a]] >= prefix[pos[b]] - 1e-9), (a, b)


def test_fixed_zero_columns_marked_not_deleted():
    inst = Instance(
        jobs=(Job(1, 2, 1.0, release=1.0),),
        speedset=SpeedSet((1.0, 2.0), 1.0),
        epsilon=0.5,
    )
    grid = build_grid(inst)
    model = build_lp(inst, grid)
    assert model.ncols == 2 * grid.T  # dense indexing retained
    c_early = col(model, 0, 0, 1)
    assert model.upper[c_early] == 0.0  # tau_1 = kappa < r + rho/sigma_1


def test_tardiness_coefficient_with_deadline_at_kappa():
    inst = Instance(
        jobs=(Job(1, 1, 2.0, deadline=1.0, energy=PolynomialEnergy(1.0, 2.0)),),
        speedset=SpeedSet((1.0,), 1.0),
        objective=Objective.TARDINESS,
        epsilon=1.0,
    )
    grid = build_grid(inst)
    model = build_lp(inst, grid)
    # tardiness term (kappa - d)^+ = 0 at t=1, so energy only
    assert model.objective[col(model, 0, 0, 1)] == pytest.approx(1.0)


def test_huge_deadline_zeroes_tardiness_terms():
    inst = generate(2, 3, 2, GeneratorConfig(objective=Objective.TARDINESS, deadline_max=1.0))
    import dataclasses
    jobs = tuple(dataclasses.replace(j, deadline=1e9) for j in inst.jobs)
    inst = dataclasses.replace(inst, jobs=jobs)
    grid = build_grid(inst)
    model = build_lp(inst, grid)
    for i, job in enumerate(inst.jobs):
        speeds = inst.speedset.speeds
        e = [es.cost_at(job.energy, job.rho, s, speeds) for s in speeds]
        for j in range(inst.speedset.m):
            for t in range(1, grid.T + 1):
                assert model.objective[col(model, i, j, t)] == pytest.approx(e[j])


def test_zero_deadline_matches_completion_coefficients():
    inst = generate(9, 3, 2, GeneratorConfig(objective=Objective.TARDINESS))
    import dataclasses
    jobs = tuple(dataclasses.replace(j, deadline=0.0) for j in inst.jobs)
    tardy = dataclasses.replace(inst, jobs=jobs)
    grid = build_grid(tardy)
    m_t = build_lp(tardy, grid)
    comp = dataclasses.replace(tardy, objective=Objective.COMPLETION_TIME)
    m_c = build_lp(comp, grid)
    assert np.allclose(m_t.objective, m_c.objective)


@pytest.mark.parametrize("seed", range(8))
def test_lower_bound_chain_small(seed):
    inst = generate(seed, 1 + seed % 4, 1 + seed % 3, GeneratorConfig(edge_density=0.4))
    grid = build_grid(inst)
    sol = solve_lp(build_lp(inst, grid))
    opt = es.brute_force(inst)
    sched = es.saias(inst, sol)
    assert sol.objective <= opt.cost * (1 + 1e-6)
    assert opt.cost <= sched.cost * (1 + 1e-6)


def test_dropping_precedence_rows_never_raises_bound():
    import dataclasses
    inst = generate(17, 4, 2, GeneratorConfig(edge_density=0.8))
    assert inst.precedence.edges
    grid = build_grid(inst)
    with_edges = solve_lp(build_lp(inst, grid)).objective
    free = dataclasses.replace(inst, precedence=es.PrecedenceDag(()))
    without = solve_lp(build_lp(free, grid)).objective
    assert without <= with_edges + 1e-9


def test_single_job_bound_is_exact_column_cost():
    inst = one_job_instance()
    grid = build_grid(inst)
    model = build_lp(inst, grid)
    sol = solve_lp(model)
    t_star = int(np.argmax(sol.x[0].sum(axis=0))) + 1
    expected = 1.0 + 1.0 * grid.lower(t_star)
    assert sol.objective == pytest.approx(expected)


def test_solution_feasibility_certified():
    inst = generate(21, 5, 3, GeneratorConfig(edge_density=0.3, release_max=3.0))
    grid = build_grid(inst)
    sol = solve_lp(build_lp(inst, grid))
    assert np.all(sol.x >= -1e-9)
    assert np.allclose(sol.x.sum(axis=(1, 2)), 1.0, atol=1e-7)


def _rho_scaled(seed, factor):
    """``generate(seed, 5, 3, rho_max=9)`` with every rho times ``factor``."""
    base = generate(seed, 5, 3, GeneratorConfig(rho_max=9))
    jobs = tuple(dataclasses.replace(j, rho=j.rho * factor) for j in base.jobs)
    return dataclasses.replace(base, jobs=jobs)


def test_long_processing_times_pass_the_relative_residual_check():
    # rho ~ 1e9 cycles puts capacity right-hand sides near 1e10, where a few
    # ulps of a row sum exceed an absolute 1e-7; the optimum itself is honest
    residuals = []
    for seed in (6, 7):
        inst = _rho_scaled(seed, 10**9)
        model = build_lp(inst, build_grid(inst))
        sol = solve_lp(model)
        A, senses, b = es.lp.constraint_arrays(model)
        residuals.append(es.lp._max_residual(A, senses, b, sol.x.ravel()))
        assert residuals[-1] <= 1e-7 * np.abs(b).max()
    # seed 7 ends past the absolute limit, so only the relative one admits it
    assert max(residuals) > 1e-7


@pytest.mark.parametrize("seed, factor", [(0, 10**9), (0, 10**10), (0, 10**12),
                                          (4, 10**8), (4, 10**10),
                                          (7, 10**10), (9, 10**11), (5, 10**11)])
def test_rho_scaled_lps_solve_to_the_highs_optimum(seed, factor):
    # the simplex tolerances are absolute; at seed 0 times 1e10 an earlier
    # simplex called a point with a capacity row broken by 0.08 "optimal".
    # Without row scaling, seed 7 times 1e10 ends "unbounded", seed 9 times
    # 1e11 comes back "optimal" 2.6e-4 below the optimum, and seed 5 times
    # 1e11 fails the residual check
    inst = _rho_scaled(seed, factor)
    model = build_lp(inst, inst.grid)
    assert solve_lp(model).objective == pytest.approx(highs_objective(model), rel=1e-9)


def _solve_from_the_list_start(model):
    """``simplex.solve`` from ``start_basis`` stopped at 5,000 iterations."""
    A, senses, b = constraint_arrays(model)
    return es.simplex.solve(model.objective, A, senses, b, upper=model.upper,
                            start=start_basis(model),
                            config=es.simplex.SolverConfig(max_iterations=5000))


def test_rho_scaled_lp_solves_from_the_list_start():
    # without row scaling, reduced-cost noise of about 1e-5 against the 1e-9
    # optimality tolerance kept solve_lp pivoting for its 1,000,000
    # iterations (about 30 s on one core)
    inst = _rho_scaled(4, 10**9)
    model = build_lp(inst, inst.grid)
    result = _solve_from_the_list_start(model)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(highs_objective(model), rel=1e-9)


@pytest.mark.xfail(strict=True, reason="no cost scaling: the LP with a cost of about 3e9 "
                                       "among costs of about 1 ends in iteration_limit")
def test_large_energy_coefficient_lp_solves_from_the_list_start():
    # job 3's energy v = 1e9.  Dividing c by max|c| would solve it, but to
    # 3000000020.829026, 1.2e-9 relative above the optimum: a bound that is
    # not a lower bound
    base = generate(2, 3, 2)
    jobs = tuple(dataclasses.replace(j, energy=PolynomialEnergy(1e9, 2.0)) if j.id == 3 else j
                 for j in base.jobs)
    inst = dataclasses.replace(base, jobs=jobs)
    model = build_lp(inst, inst.grid)
    result = _solve_from_the_list_start(model)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(highs_objective(model), rel=1e-9)


@pytest.mark.xfail(strict=True, reason="absolute optimality tolerance against costs of 1e12 "
                                       "to 8e13: the LP ends in iteration_limit")
def test_rho_scaled_seed_15_lp_solves_from_the_list_start():
    # one of the three LPs of the rho-scaling probe (seeds 0-19, rho times
    # 1e8 ... 1e12) that stall with kernel-row pricing; it makes no
    # degenerate pivot in 5,000, so Bland's rule never takes over
    inst = _rho_scaled(15, 10**12)
    model = build_lp(inst, inst.grid)
    result = _solve_from_the_list_start(model)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(highs_objective(model), rel=1e-9)


def _shift_job_1(result, b):
    """Take 1.5e-7 of job 1's mass off its largest column: more than the
    mass check allows, less than the residual limit on these right-hand sides."""
    assert 1e-7 * np.abs(b).max() >= 2e-7
    x = result.x.copy()
    first = x[:x.size // 4]                 # job 1 of 4 leads the columns
    first[first.argmax()] -= 1.5e-7
    return dataclasses.replace(result, x=x)


#: an edit of the simplex result, and the certificate failure it must raise
CERTIFICATE_FAILURES = {
    "status": (lambda result, b: dataclasses.replace(result, status="iteration_limit", x=None,
                                                     objective=None),
               "LP solve failed with status 'iteration_limit'"),
    "residual": (lambda result, b: dataclasses.replace(result, x=np.zeros_like(result.x)),
                 "LP solution residual 1.0 exceeds"),
    "mass": (_shift_job_1, "per-job mass deviates from 1"),
    # "optimal" at objective nan: every comparison with nan is false
    "nan": (lambda result, b: dataclasses.replace(result, x=np.full_like(result.x, np.nan),
                                                  objective=np.nan),
            "LP solution residual nan exceeds"),
}


@pytest.mark.parametrize("case", CERTIFICATE_FAILURES)
def test_solve_lp_refuses_an_uncertified_result(case, monkeypatch):
    edit, message = CERTIFICATE_FAILURES[case]
    solve = es.simplex.solve
    monkeypatch.setattr(es.simplex, "solve",
                        lambda c, A, senses, b, **kw: edit(solve(c, A, senses, b, **kw), b))
    inst = generate(1, 4, 2, GeneratorConfig(edge_density=0.0))
    with pytest.raises(RuntimeError, match=re.escape(message)):
        solve_lp(build_lp(inst, build_grid(inst)))


def _loop_max_residual(A, senses, b, x):
    """Row-by-row reference for the vectorized residual."""
    ax = A @ x
    worst = 0.0
    for k, s in enumerate(senses):
        if s == "=":
            worst = max(worst, abs(ax[k] - b[k]))
        elif s == "<=":
            worst = max(worst, ax[k] - b[k])
        else:
            worst = max(worst, b[k] - ax[k])
    return worst


@pytest.mark.parametrize("seed", range(5))
def test_max_residual_matches_row_loop(seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (12, 5))
    x = rng.uniform(0, 1, 5)
    b = A @ x + rng.uniform(-0.1, 0.1, 12) * (seed > 0)   # seed 0: every row tight
    senses = list(rng.choice(["=", "<=", ">="], 12))
    assert es.lp._max_residual(A, senses, b, x) == _loop_max_residual(A, senses, b, x)


def test_lp_dump_contains_named_columns_and_rows():
    inst = generate(2, 2, 2, GeneratorConfig(edge_density=1.0))
    grid = build_grid(inst)
    model = build_lp(inst, grid)
    text = lp_dump(model)
    assert "minimize" in text
    assert "x_1_1_1" in text
    assert "assign_1:" in text
    assert "capacity_1:" in text
    # job 2 cannot finish in interval 1, so the first kept row is at t = 2
    first_prec = next(line.strip() for line in text.splitlines() if "prec_" in line)
    assert first_prec.startswith("prec_1_2_2:")
    assert "bounds" in text


START_FAMILIES = {
    "completion-d0": (3, GeneratorConfig(edge_density=0.0)),
    "completion-d0.3": (3, GeneratorConfig(edge_density=0.3)),
    "completion-d1": (3, GeneratorConfig(edge_density=1.0)),
    "releases-d0": (3, GeneratorConfig(edge_density=0.0, release_max=5.0)),
    "releases-d0.3": (3, GeneratorConfig(edge_density=0.3, release_max=5.0)),
    "releases-d1": (3, GeneratorConfig(edge_density=1.0, release_max=5.0)),
    "table-d0.3": (3, GeneratorConfig(edge_density=0.3, energy_kind="table")),
    "table-releases-d1": (3, GeneratorConfig(edge_density=1.0, energy_kind="table",
                                             release_max=5.0)),
    "tardiness-d0": (4, GeneratorConfig(objective=Objective.TARDINESS, edge_density=0.0)),
    "tardiness-d0.3": (4, GeneratorConfig(objective=Objective.TARDINESS, edge_density=0.3)),
    "tardiness-d1": (4, GeneratorConfig(objective=Objective.TARDINESS, edge_density=1.0)),
    "tardiness-table-d0.3": (4, GeneratorConfig(objective=Objective.TARDINESS, edge_density=0.3,
                                                energy_kind="table")),
}


def _start_cases(family):
    """Nine seeded LPs of a family, n = 4..8: (instance, grid, model)."""
    m, cfg = START_FAMILIES[family]
    for seed in range(9):
        inst = generate(seed, 4 + seed % 5, m, cfg)
        grid = build_grid(inst)
        yield inst, grid, build_lp(inst, grid)


@pytest.mark.parametrize("family", START_FAMILIES)
def test_start_is_the_list_schedule_vertex(family):
    for inst, grid, model in _start_cases(family):
        _, speed_index, completion = reference_list_schedule(inst)
        expected = [
            col(model, i, speed_index[job.id], interval_of(grid, completion[job.id]))
            for i, job in enumerate(inst.jobs)
        ]
        assert start_basis(model).tolist() == expected + [-1] * (len(model.rows) - inst.n)


@pytest.mark.parametrize("family", START_FAMILIES)
def test_start_is_a_feasible_non_singular_basis(family):
    for inst, _, model in _start_cases(family):
        n = inst.n
        A, senses, b = constraint_arrays(model)
        start = start_basis(model)
        assert np.all(model.upper[start[:n]] == 1.0)        # no start column is pinned
        x = np.zeros(model.ncols)
        x[start[:n]] = 1.0
        assert es.lp._max_residual(A, senses, b, x) <= 1e-9 * max(1.0, np.abs(b).max())
        # row k's basic column: the start column on an assign row, else its slack
        B = np.diag(np.where(np.asarray(senses) == ">=", -1.0, 1.0))
        B[:, :n] = A[:, start[:n]]
        assert np.linalg.matrix_rank(B) == len(B)
        solve_lp(model)          # the simplex accepts it: a bad start raises ValueError


@pytest.mark.parametrize("family", START_FAMILIES)
def test_start_reaches_the_crash_start_optimum(family):
    # the optimum any start reaches, taken from HiGHS
    for _, _, model in _start_cases(family):
        expected = highs_objective(model)
        assert solve_lp(model).objective == pytest.approx(expected, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("keep", [lambda t: False, lambda t: t % 2 == 1], ids=["none", "odd-t"])
@pytest.mark.parametrize("family", ["completion-d1", "releases-d0.3", "tardiness-d1"])
def test_model_with_dropped_prec_rows_solves_to_its_own_optimum(family, keep):
    # the start sits on the assign rows, which lead, so any later row may go
    dropped = 0
    for _, _, model in _start_cases(family):
        rows = tuple(row for row in model.rows if row.kind != "prec" or keep(row.key[2]))
        dropped += len(model.rows) - len(rows)
        model = dataclasses.replace(model, rows=rows)
        expected = highs_objective(model)
        assert solve_lp(model).objective == pytest.approx(expected, rel=1e-9, abs=0.0)
    assert dropped


def _edge_value_model():
    """An n = 2, m = 2 model whose objective and bounds carry 0.0, -0.0 and
    two values equal to 12 significant digits; the dump reads both fields."""
    inst = generate(2, 2, 2, GeneratorConfig(edge_density=1.0))
    model = build_lp(inst, build_grid(inst))
    near = 0.1234567890123
    objective, upper = model.objective.copy(), model.upper.copy()
    objective[:5] = [0.0, -0.0, near, near + 1e-14, -near]
    upper[:3] = [-0.0, 0.5, near]
    assert model.ncols > 5
    return dataclasses.replace(model, objective=objective, upper=upper)


def _signed_zero_model():
    """Both zeros among the objective coefficients and the upper bounds:
    ``-0.0 == 0.0``, so a term left out or a bound formatted once per float
    value treats one of each pair wrong."""
    inst = generate(2, 2, 2, GeneratorConfig(edge_density=1.0))
    model = build_lp(inst, build_grid(inst))
    objective, upper = model.objective.copy(), model.upper.copy()
    objective[::3] = -0.0
    objective[1::3] = 0.0
    upper[:4] = [-0.0, 0.0, -0.0, 0.0]
    return dataclasses.replace(model, objective=objective, upper=upper)


def _many_values_model():
    """An objective and bounds with a distinct value per column."""
    inst = generate(2, 2, 2, GeneratorConfig(edge_density=1.0))
    model = build_lp(inst, build_grid(inst))
    rng = np.random.default_rng(3)
    objective, upper = rng.uniform(-5.0, 5.0, (2, model.ncols))
    assert np.unique(upper).size == model.ncols
    return dataclasses.replace(model, objective=objective, upper=upper)


def _late_successor_models():
    """A chain 1 -> 2 -> 3 whose job 3 is released so late that its first
    unpinned column is at t = T: the edge (2, 3) gets no prec row."""
    models = []
    for seed in range(3):
        inst = generate(seed, 3, 2, GeneratorConfig(edge_density=1.0))
        jobs = tuple(dataclasses.replace(job, release=1000.0) if job.id == 3 else job
                     for job in inst.jobs)
        inst = dataclasses.replace(inst, jobs=jobs)
        models.append(build_lp(inst, build_grid(inst)))
        assert models[-1].first[2] == models[-1].grid.T
        assert (2, 3) in models[-1].instance.precedence.reduced_edges
        assert not any(row.key[:2] == (2, 3) for row in models[-1].rows if row.kind == "prec")
    return models


def _tardiness_n40_models():
    """Tardiness at n = 40 with every fourth job's energy zero: its columns
    before the deadline have objective 0.0, which the dump leaves out."""
    models = []
    for seed in range(2):
        inst = generate(seed, 40, 3, GeneratorConfig(objective=Objective.TARDINESS,
                                                     edge_density=0.3, energy_kind="table"))
        jobs = tuple(dataclasses.replace(job, energy=es.TableEnergy((0.0, 0.0, 0.0)))
                     if k % 4 == 0 else job for k, job in enumerate(inst.jobs))
        inst = dataclasses.replace(inst, jobs=jobs)
        models.append(build_lp(inst, build_grid(inst)))
        assert np.count_nonzero(models[-1].objective == 0.0) > 0
    return models


#: generated dump families by name: (n, m, GeneratorConfig), two seeds each
GENERATED_DUMPS = {
    "n40-poly": (40, 3, GeneratorConfig(edge_density=0.3)),
    "n40-table": (40, 3, GeneratorConfig(edge_density=0.3, energy_kind="table")),
    "n40-releases": (40, 3, GeneratorConfig(edge_density=0.3, release_max=20.0)),
    "n40-d0": (40, 3, GeneratorConfig(edge_density=0.0)),
    "n40-d1": (40, 3, GeneratorConfig(edge_density=1.0)),
    "m1": (9, 1, GeneratorConfig(edge_density=0.3, release_max=5.0)),
}

HAND_MADE_DUMPS = {
    "edge-values": lambda: [_edge_value_model()],
    "signed-zeros": lambda: [_signed_zero_model()],
    "many-values": lambda: [_many_values_model()],
    "late-successor": _late_successor_models,
    "n40-tardiness": _tardiness_n40_models,
}


def _dump_models(case):
    if case in START_FAMILIES:
        return [model for _, _, model in _start_cases(case)]
    if case in HAND_MADE_DUMPS:
        return HAND_MADE_DUMPS[case]()
    n, m, cfg = GENERATED_DUMPS[case]
    return [build_lp(inst, build_grid(inst))
            for inst in (generate(seed, n, m, cfg) for seed in range(2))]


DUMP_CASES = [*START_FAMILIES, *GENERATED_DUMPS, *HAND_MADE_DUMPS]


@pytest.mark.parametrize("case", DUMP_CASES)
def test_lp_dump_is_byte_identical_to_the_reference(case):
    for model in _dump_models(case):
        assert lp_dump(model) == reference_lp_dump(model)


@pytest.mark.parametrize("case", DUMP_CASES)
def test_lp_dump_reads_the_structure_not_the_rows(case):
    for model in _dump_models(case):
        assert lp_dump(dataclasses.replace(model, rows=())) == lp_dump(model)


@pytest.mark.parametrize("kind, seed", BUILD_LP_DIGESTS)
def test_build_lp_rows_are_pinned(kind, seed):
    inst = generate(seed, 40, 3, GeneratorConfig(edge_density=0.3, energy_kind=kind))
    text = reference_lp_dump(build_lp(inst, build_grid(inst)))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILD_LP_DIGESTS[kind, seed]


#: sha256 of ``constraint_arrays(build_lp(...))`` (``A.tobytes()``, the senses'
#: repr, then ``b.tobytes()``) for ``generate(seed, 40, 3, edge_density=0.3)``
#: by energy kind and seed, recorded before ``constraint_arrays`` read the rows
#: in one pass.  The simplex reads these arrays, not the dump.
CONSTRAINT_ARRAY_DIGESTS = {
    ("poly", 0): "f4f2214dd26a5ca0f466b4ebc7a367be5312f05ad950bde89a4daca20bb52517",
    ("poly", 1): "0b037789bfcd3398d3ce3716667d4ef2b49d9c2952dbf05d2ded7d4dd59d9970",
    ("table", 0): "234fc5c197951c1d07d6204029ae5af04d49cc635f919bb6a172388ec2ef8f56",
    ("table", 1): "81e153618c5688bb7a2d3c7acfa6c63668c903ef9ec71b7bd14a34149bdd89a6",
}


@pytest.mark.parametrize("kind, seed", CONSTRAINT_ARRAY_DIGESTS)
def test_constraint_arrays_are_pinned(kind, seed):
    inst = generate(seed, 40, 3, GeneratorConfig(edge_density=0.3, energy_kind=kind))
    A, senses, b = constraint_arrays(build_lp(inst, build_grid(inst)))
    digest = hashlib.sha256(A.tobytes())
    digest.update(repr(senses).encode())
    digest.update(b.tobytes())
    assert digest.hexdigest() == CONSTRAINT_ARRAY_DIGESTS[kind, seed]
