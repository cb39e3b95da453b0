import numpy as np
import pytest

from energysched import SolverConfig, lp, simplex, solve, timegrid
from energysched.instance import GeneratorConfig, Objective, generate
from energysched.simplex import SolveResult

from helpers import highs_objective, random_box_lp, vertex_enum_min


def test_forced_equality():
    res = solve([1.0], [[1.0]], ["="], [1.0], start=[0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0)
    assert res.objective == pytest.approx(1.0)


def test_single_job_interval_model():
    # one job, free columns (speed fast t=1, fast t=2, slow t=2) with costs
    # 5, 5, 3 and a single completes-once row: the cheapest column wins
    c = [5.0, 5.0, 3.0]
    A = [[1.0, 1.0, 1.0]]
    res = solve(c, A, ["="], [1.0], upper=np.ones(3), start=[0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)
    assert res.x[2] == pytest.approx(1.0)


def test_unbounded_detected():
    res = solve([-1.0], [[0.0]], ["<="], [1.0])
    assert res.status == "unbounded"


def test_beale_cycling_lp_switches_to_blands_rule():
    # Beale (1955): Dantzig's rule cycles on this LP from the slack basis
    res = solve([-0.75, 20, -0.5, 6],
                [[0.25, -8, -1, 9], [0.5, -12, -0.5, 3], [0, 0, 1, 0]],
                ["<="] * 3, [0, 0, 1])
    assert res.status == "optimal"
    assert res.bland
    assert res.objective == pytest.approx(-1.25)
    assert res.x == pytest.approx([1.0, 0.0, 1.0, 0.0])


def test_upper_bounds_respected():
    # min -x1 - x2 with x1 + x2 <= 10, x <= (1, 2)
    res = solve([-1.0, -1.0], [[1.0, 1.0]], ["<="], [10.0], upper=[1.0, 2.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-3.0)


def test_ge_rows():
    # min x1 + x2 with x1 + 2 x2 >= 4
    res = solve([1.0, 1.0], [[1.0, 2.0]], [">="], [4.0], start=[1])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)


def test_fixed_zero_columns_never_enter():
    res = solve(
        [-10.0, 1.0],
        [[1.0, 1.0]],
        ["="],
        [1.0],
        upper=[0.0, 1.0],   # attractive column pinned at zero
        start=[1],
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
    assert work(first) == work(second)


def test_optimality_certificate_residuals():
    rng = np.random.default_rng(3)
    c, A, b, upper = random_box_lp(rng)
    res = solve(c, A, ["<="] * len(b), b, upper=upper)
    assert res.status == "optimal"
    assert np.all(A @ res.x <= b + 1e-9)
    assert np.all(res.x >= -1e-9)
    assert np.all(res.x <= upper + 1e-9)


def work(result):
    """The simplex work counters of a ``SolveResult`` or ``LpSolution``."""
    return (result.bound_flips, result.degenerate_pivots, result.bland, result.kernel_max)


def test_single_step_bound_flip():
    # min -x with x <= 5 as a row and 0 <= x <= 1: x moves from bound to bound
    # and the row's slack stays basic
    res = solve([-1.0], [[1.0]], ["<="], [5.0], upper=[1.0])
    assert res.status == "optimal"
    assert res.x[0] == 1.0 and res.objective == -1.0
    assert res.iterations == 1 and res.bound_flips == 1
    assert (res.degenerate_pivots, res.bland, res.kernel_max) == (0, False, 0)


def test_iteration_limit_reported():
    rng = np.random.default_rng(5)
    c, A, b, upper = random_box_lp(rng, nvars=6, nrows=6)
    cfg = SolverConfig(max_iterations=1)
    res = solve(c, A, ["<="] * len(b), b, upper=upper, config=cfg)
    assert isinstance(res, SolveResult)
    assert res.status == "iteration_limit"


def _pipeline_model(seed, n, m, cfg):
    inst = generate(seed, n, m, cfg)
    return lp.build_lp(inst, timegrid.build_grid(inst))


# sizes at which the list-schedule start still needs more than REFACTOR_EVERY pivots
PIPELINE_LPS = [(1, n, 3, GeneratorConfig(edge_density=0.3)) for n in (10, 12, 15, 18, 30)]
PIPELINE_LPS.append((1, 14, 6, GeneratorConfig(objective=Objective.TARDINESS, edge_density=0.3)))


@pytest.mark.parametrize(
    "seed,n,m,cfg", PIPELINE_LPS,
    ids=[f"{cfg.objective.value}-n{n}-m{m}" for _, n, m, cfg in PIPELINE_LPS],
)
def test_pipeline_lp_matches_highs(seed, n, m, cfg):
    model = _pipeline_model(seed, n, m, cfg)
    expected = highs_objective(model)
    sol = lp.solve_lp(model)
    # more pivots than one refactor interval: B^-1 drift is exercised too
    assert sol.iterations > simplex.REFACTOR_EVERY
    assert sol.objective == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_pipeline_lp_warm_start_deterministic_bit_for_bit():
    model = _pipeline_model(1, 10, 3, GeneratorConfig(edge_density=0.3))
    first = lp.solve_lp(model)
    second = lp.solve_lp(model)
    assert np.array_equal(first.x, second.x)
    assert first.objective == second.objective
    assert first.iterations > 0
    assert first.iterations == second.iterations
    assert work(first) == work(second)
    assert first.kernel_max >= model.instance.n      # the start has a column per job


def test_feasible_start_skips_phase_1():
    # the single-job model again, started on its dearest column
    c, A = [5.0, 5.0, 3.0], [[1.0, 1.0, 1.0]]
    res = solve(c, A, ["="], [1.0], upper=np.ones(3), start=[0])
    assert res.status == "optimal"
    assert res.iterations == 1
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


@pytest.mark.parametrize("sense,b,match", [
    ("=", 1.0, "equality row"),
    (">=", 0.5, "not primal feasible"),       # the slack would be -0.5
])
def test_no_start_needs_a_feasible_slack_on_every_row(sense, b, match):
    with pytest.raises(ValueError, match=match) as raised:
        solve([1.0], [[1.0]], [sense], [b], upper=[1.0])
    assert "no start was given" in str(raised.value)


@pytest.mark.parametrize("sense,lower,match", [
    ("<", None, "unknown row sense '<'"),
    ("<=", [0.5], "every lower bound must be 0"),
], ids=["unknown sense", "non-zero lower"])
def test_bad_sense_or_lower_bound_raises_value_error(sense, lower, match):
    with pytest.raises(ValueError, match=match):
        solve([1.0], [[1.0]], [sense], [1.0], lower, upper=[1.0])


def _kernel_drift(kernel):
    """max |B11^-1 B11 - I| of the kernel's current inverse."""
    k = kernel.k
    B11 = kernel.A[np.ix_(kernel.rows[:k], kernel.cols[:k])]
    return np.abs(kernel.inv[:k, :k] @ B11 - np.eye(k)).max(initial=0.0)


def _spy_on_basis_changes(monkeypatch):
    """Record (case, drift after the change) of every basis change, and check
    that the pricing rows ``AK`` still hold the kernel rows of A in order."""
    seen, change = [], simplex._Kernel.change

    def spy_change(kernel, slot, q, *args):
        entering = "structural" if q < kernel.ncols else "logical"
        leaving = "structural" if slot >= kernel.nrows else "logical"
        change(kernel, slot, q, *args)
        k = kernel.k
        assert np.array_equal(kernel.AK[:k], kernel.A[kernel.rows[:k]])
        seen.append((f"{entering} for {leaving}", _kernel_drift(kernel)))

    monkeypatch.setattr(simplex._Kernel, "change", spy_change)
    return seen


# (basis change, rows and columns, seed): a box LP, all "<=" rows with b >= 0
# solved from the slack start, on which the simplex makes that change
KERNEL_CASES = [
    ("structural for logical", 3, 0),
    ("structural for structural", 3, 6),
    ("logical for structural", 3, 81),
    ("logical for logical", 4, 51),
]


@pytest.mark.parametrize(
    "case,size,seed", KERNEL_CASES, ids=[case.replace(" ", "-") for case, _, _ in KERNEL_CASES],
)
def test_each_kernel_update_reaches_the_vertex_enumeration_optimum(monkeypatch, case, size, seed):
    c, A, b, upper = random_box_lp(np.random.default_rng(seed), nvars=size, nrows=size)
    seen = _spy_on_basis_changes(monkeypatch)
    res = solve(c, A, ["<="] * size, b, upper=upper)
    assert case in [kind for kind, _ in seen]
    assert max(drift for _, drift in seen) <= 1e-12
    expected, _ = vertex_enum_min(c, A, b, upper)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_kernel_inverse_is_accurate_before_every_rebuild(monkeypatch):
    # the n = 20 pipeline LP runs several REFACTOR_EVERY intervals of updates
    factor, checked, drift = simplex._factor, set(), []

    def spy_factor(kernel, *args):
        if id(kernel) in checked:            # the first call builds the first inverse
            drift.append(_kernel_drift(kernel))
        checked.add(id(kernel))
        return factor(kernel, *args)

    monkeypatch.setattr(simplex, "_factor", spy_factor)
    sol = lp.solve_lp(_pipeline_model(1, 20, 3, GeneratorConfig(edge_density=0.3)))
    assert len(drift) >= 3
    assert max(drift) <= 1e-10


# LPs shaped like the benchmark's solve-mid list and their (iterations,
# bound_flips, degenerate_pivots, bland, kernel_max): a change to the pivot
# loop that keeps its arithmetic keeps every pivot, and so these counts
SOLVE_MID_TRACES = [
    ("completion", 1, (88, 0, 49, False, 45)),
    ("completion", 2, (57, 0, 23, False, 28)),
    ("completion", 3, (90, 0, 56, False, 56)),
    ("tardiness", 1, (38, 0, 13, False, 20)),
    ("tardiness", 2, (35, 0, 18, False, 27)),
    ("tardiness", 3, (31, 0, 19, False, 23)),
]
SOLVE_MID_SHAPES = {
    "completion": (10, 3, GeneratorConfig(edge_density=0.3)),
    "tardiness": (8, 6, GeneratorConfig(objective=Objective.TARDINESS, edge_density=0.3,
                                        delta=3.0)),
}


@pytest.mark.parametrize("kind,seed,trace", SOLVE_MID_TRACES,
                         ids=[f"{kind}-{seed}" for kind, seed, _ in SOLVE_MID_TRACES])
def test_solve_mid_pivot_trace_is_pinned(kind, seed, trace):
    n, m, cfg = SOLVE_MID_SHAPES[kind]
    model = _pipeline_model(seed, n, m, cfg)
    sol = lp.solve_lp(model)
    assert (sol.iterations, *work(sol)) == trace
    assert sol.objective == pytest.approx(highs_objective(model), rel=1e-9, abs=0.0)


def test_solve_leaves_its_inputs_unchanged():
    model = _pipeline_model(1, 10, 3, GeneratorConfig(edge_density=0.3))
    A, senses, b = lp.constraint_arrays(model)
    c, upper, start = model.objective, model.upper, lp.start_basis(model)
    # the last row, a precedence row of entries +-1, times 1e6: the solve
    # divides it back by 1e6, on a copy, and so takes the unscaled LP's pivots
    big_A, big_b = A.copy(), b.copy()
    big_A[-1] *= 1e6
    big_b[-1] *= 1e6
    assert np.abs(big_A).max() > simplex.ROW_SCALE_MAX
    results = []
    for A_, b_ in ((A, b), (big_A, big_b)):
        inputs = (c, A_, b_, upper, start)
        copies = [array.copy() for array in inputs]
        results.append(solve(c, A_, senses, b_, upper=upper, start=start))
        assert results[-1].status == "optimal" and results[-1].iterations > 0
        for array, copy in zip(inputs, copies):
            assert np.array_equal(array, copy)
    assert np.array_equal(results[0].x, results[1].x)
