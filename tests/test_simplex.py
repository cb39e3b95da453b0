import numpy as np
import pytest

from energysched import SolverConfig, lp, simplex, solve, timegrid
from energysched.instance import GeneratorConfig, Objective, generate
from energysched.simplex import SolveResult

from helpers import random_box_lp, vertex_enum_min


def test_forced_equality():
    res = solve([1.0], [[1.0]], ["="], [1.0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0)
    assert res.objective == pytest.approx(1.0)


def test_single_job_interval_model():
    # one job, free columns (speed fast t=1, fast t=2, slow t=2) with costs
    # 5, 5, 3 and a single completes-once row: the cheapest column wins
    c = [5.0, 5.0, 3.0]
    A = [[1.0, 1.0, 1.0]]
    res = solve(c, A, ["="], [1.0], upper=np.ones(3))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)
    assert res.x[2] == pytest.approx(1.0)


def test_infeasible_toy():
    A = [[1.0], [1.0]]
    res = solve([0.0], A, ["=", "="], [1.0, 2.0])
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = solve([-1.0], [[0.0]], ["<="], [1.0])
    assert res.status == "unbounded"


def test_upper_bounds_respected():
    # min -x1 - x2 with x1 + x2 <= 10, x <= (1, 2)
    res = solve([-1.0, -1.0], [[1.0, 1.0]], ["<="], [10.0], upper=[1.0, 2.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-3.0)


def test_ge_rows():
    # min x1 + x2 with x1 + 2 x2 >= 4
    res = solve([1.0, 1.0], [[1.0, 2.0]], [">="], [4.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)


def test_fixed_zero_columns_never_enter():
    res = solve(
        [-10.0, 1.0],
        [[1.0, 1.0]],
        ["="],
        [1.0],
        upper=[0.0, 1.0],   # attractive column pinned at zero
    )
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.0)
    assert res.objective == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(50))
def test_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    c, A, b, upper = random_box_lp(rng)
    expected, _ = vertex_enum_min(c, A, b, upper)
    senses = ["<="] * len(b)
    res = solve(c, A, senses, b, upper=upper)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_deterministic_bit_for_bit():
    rng = np.random.default_rng(99)
    c, A, b, upper = random_box_lp(rng, nvars=6, nrows=5)
    senses = ["<="] * len(b)
    first = solve(c, A, senses, b, upper=upper)
    second = solve(c, A, senses, b, upper=upper)
    assert first.objective == second.objective
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations


def test_optimality_certificate_residuals():
    rng = np.random.default_rng(3)
    c, A, b, upper = random_box_lp(rng)
    res = solve(c, A, ["<="] * len(b), b, upper=upper)
    assert res.status == "optimal"
    assert np.all(A @ res.x <= b + 1e-9)
    assert np.all(res.x >= -1e-9)
    assert np.all(res.x <= upper + 1e-9)


def test_bad_tolerance_rejected():
    with pytest.raises(ValueError):
        SolverConfig(feasibility_tolerance=0.0)


def test_iteration_limit_reported():
    rng = np.random.default_rng(5)
    c, A, b, upper = random_box_lp(rng, nvars=6, nrows=6)
    cfg = SolverConfig(max_iterations=1)
    res = solve(c, A, ["<="] * len(b), b, upper=upper, config=cfg)
    assert isinstance(res, SolveResult)
    assert res.status == "iteration_limit"


def mixed_sense_lp(rng, nvars=4):
    """A feasible LP whose slack start is infeasible on three of its rows.

    Rows: ``<=`` with b < 0, ``>=`` with b > 0, ``=``, and ``<=`` with b >= 0;
    all four hold at an interior point x0 of the box.
    """
    upper = rng.uniform(0.5, 2.0, nvars)
    x0 = upper * rng.uniform(0.3, 0.9, nvars)
    a = rng.uniform(0.1, 1.0, (4, nvars))
    A = np.vstack([-a[0], a[1], rng.uniform(-1, 1, nvars), rng.uniform(-1, 1, nvars)])
    ax = A @ x0
    b = np.array([0.8 * ax[0], 0.8 * ax[1], ax[2], ax[3] + rng.uniform(0.0, 1.0)])
    b[3] = max(b[3], 0.0)
    c = rng.uniform(-2, 2, nvars)
    return c, A, ["<=", ">=", "=", "<="], b, upper


def as_le_rows(A, senses, b):
    """The same rows as ``A x <= b`` only: ">=" negated, "=" as a pair."""
    rows, rhs = [], []
    for a, s, v in zip(A, senses, b):
        if s in ("<=", "="):
            rows.append(a)
            rhs.append(v)
        if s in (">=", "="):
            rows.append(-a)
            rhs.append(-v)
    return np.array(rows), np.array(rhs)


@pytest.mark.parametrize("seed", range(20))
def test_infeasible_slack_start_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(1000 + seed)
    c, A, senses, b, upper = mixed_sense_lp(rng)
    assert b[0] < 0 < b[1]      # neither row's slack is feasible at x = 0
    expected, _ = vertex_enum_min(c, *as_le_rows(A, senses, b), upper)
    res = solve(c, A, senses, b, upper=upper)
    assert res.status == "optimal"
    assert res.phase1_iterations > 0
    assert res.objective == pytest.approx(expected, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_feasible_slack_start_needs_no_phase_1(seed):
    rng = np.random.default_rng(seed)
    c, A, b, upper = random_box_lp(rng, nvars=6, nrows=5)
    res = solve(c, A, ["<="] * len(b), b, upper=upper)
    assert res.status == "optimal"
    assert res.phase1_iterations == 0


def test_mixed_sense_deterministic_bit_for_bit():
    c, A, senses, b, upper = mixed_sense_lp(np.random.default_rng(7), nvars=6)
    first = solve(c, A, senses, b, upper=upper)
    second = solve(c, A, senses, b, upper=upper)
    assert first.status == "optimal"
    assert np.array_equal(first.x, second.x)
    assert (first.phase1_iterations, first.phase2_iterations) == (
        second.phase1_iterations, second.phase2_iterations)


def _pipeline_model(seed, n, m, cfg):
    inst = generate(seed, n, m, cfg)
    return lp.build_lp(inst, timegrid.build_grid(inst))


# sizes at which the list-schedule start still needs more than REFACTOR_EVERY pivots
PIPELINE_LPS = [(1, n, 3, GeneratorConfig(edge_density=0.3)) for n in (10, 12, 15, 18)]
PIPELINE_LPS.append((1, 14, 6, GeneratorConfig(objective=Objective.TARDINESS, edge_density=0.3)))


@pytest.mark.parametrize(
    "seed,n,m,cfg", PIPELINE_LPS,
    ids=[f"{cfg.objective.value}-n{n}-m{m}" for _, n, m, cfg in PIPELINE_LPS],
)
def test_pipeline_lp_matches_highs(seed, n, m, cfg):
    linprog = pytest.importorskip("scipy.optimize").linprog
    model = _pipeline_model(seed, n, m, cfg)
    sol = lp.solve_lp(model)
    # more pivots than one refactor interval: B^-1 drift is exercised too
    assert sol.iterations > simplex.REFACTOR_EVERY

    A, senses, b = lp.constraint_arrays(model)
    senses = np.asarray(senses)
    flip = np.where(senses == ">=", -1.0, 1.0)   # ">=" rows as "<=" rows
    ub = senses != "="
    ref = linprog(
        model.objective,
        A_ub=(flip[:, None] * A)[ub], b_ub=(flip * b)[ub],
        A_eq=A[~ub], b_eq=b[~ub],
        bounds=np.column_stack([np.zeros(model.ncols), model.upper]),
        method="highs",
    )
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=0.0)


def test_pipeline_lp_deterministic_bit_for_bit():
    # the crash start, not solve_lp's list-schedule start, so phase 1 runs too
    model = _pipeline_model(1, 10, 3, GeneratorConfig(edge_density=0.3))
    A, senses, b = lp.constraint_arrays(model)
    first = solve(model.objective, A, senses, b, upper=model.upper)
    second = solve(model.objective, A, senses, b, upper=model.upper)
    assert np.array_equal(first.x, second.x)
    assert first.objective == second.objective
    assert first.phase1_iterations > 0 and first.phase2_iterations > 0
    assert (first.phase1_iterations, first.phase2_iterations) == (
        second.phase1_iterations, second.phase2_iterations)
    assert first.iterations == first.phase1_iterations + first.phase2_iterations


def test_pipeline_lp_warm_start_deterministic_bit_for_bit():
    model = _pipeline_model(1, 10, 3, GeneratorConfig(edge_density=0.3))
    first = lp.solve_lp(model)
    second = lp.solve_lp(model)
    assert np.array_equal(first.x, second.x)
    assert first.objective == second.objective
    assert first.phase1_iterations == 0 and first.phase2_iterations > 0
    assert first.phase2_iterations == second.phase2_iterations


def test_feasible_start_skips_phase_1():
    # the single-job model again, started on its dearest column
    c, A = [5.0, 5.0, 3.0], [[1.0, 1.0, 1.0]]
    res = solve(c, A, ["="], [1.0], upper=np.ones(3), start=[0])
    assert res.status == "optimal"
    assert res.phase1_iterations == 0 and res.phase2_iterations == 1
    assert res.objective == 3.0 and res.x[2] == 1.0


@pytest.mark.parametrize("start,match", [
    ([0, -1], "not primal feasible"),     # x0 = 1 breaks x0 <= 0.5
    ([1, -1], "not primal feasible"),     # x1 = 1 leaves the ">=" row's slack at -0.25
    ([-1, -1], "equality row"),
    ([2, -1], "outside the structurals"),
    ([1, -1, -1], "shape"),
])
def test_bad_start_raises_value_error(start, match):
    # x0 + x1 = 1, x0 >= 0.25, x0 <= 0.5: feasible, but not at these starts
    A = [[1.0, 1.0], [1.0, 0.0]]
    with pytest.raises(ValueError, match=match):
        solve([1.0, 2.0], A, ["=", ">="], [1.0, 0.25], upper=[0.5, 1.0], start=start)


@pytest.mark.parametrize("A,start", [
    ([[1.0, 1.0], [2.0, 2.0]], [0, 1]),      # dependent columns
    ([[1.0, 1.0], [1.0, -1.0]], [0, 0]),     # one column on both rows
])
def test_singular_start_raises_value_error(A, start):
    with pytest.raises(ValueError, match="singular"):
        solve([1.0, 1.0], A, ["<=", "<="], [1.0, 2.0], start=start)
