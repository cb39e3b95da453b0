
import numpy as np
import pytest

import energysched as es
from energysched import (
    Instance,
    Job,
    Objective,
    PolynomialEnergy,
    PrecedenceDag,
    SpeedRangeError,
    SpeedSet,
)
from energysched.instance import GeneratorConfig, generate
from energysched.lp import LpSolution
from energysched.rounding import (
    PrecedenceOrderError,
    check_speed_range,
    compute_alpha_data,
    order_jobs,
    round_speed_energy_aware,
    round_speed_up,
    saias,
    saias_t,
)


def alpha_data(masses, alpha, speeds=None):
    """``compute_alpha_data`` on x[i, j, t] taken from a nested list, for unit jobs
    on ``speeds`` (default 1, 2, ..., m)."""
    x = np.array(masses, dtype=float)
    n, m, _ = x.shape
    inst = Instance(jobs=tuple(Job(i + 1, 1, 1.0) for i in range(n)),
                    speedset=SpeedSet(speeds or tuple(1.0 + j for j in range(m)), 1.0))
    return compute_alpha_data(
        LpSolution(status="optimal", x=x, objective=0.0, iterations=0), inst, alpha)


def test_alpha_interval_crosses_at_second():
    assert alpha_data([[[0.3, 0.4, 0.3]]], 0.5)[0].interval == 2


def test_alpha_interval_integral_solution():
    for a in (0.1, 0.5, 0.9):
        assert alpha_data([[[0.0, 1.0, 0.0]]], a)[0].interval == 2


def test_alpha_interval_monotone_in_alpha():
    rng = np.random.default_rng(1)
    for _ in range(30):
        w = rng.dirichlet(np.ones(6)).reshape(1, 2, 3)
        assert alpha_data(w, 0.2)[0].interval <= alpha_data(w, 0.9)[0].interval


def test_truncate_splits_final_interval_by_speed_order():
    # mass before = 0.3; final interval speeds hold (0.1, 0.4); alpha = 0.5
    d = alpha_data([[[0.3, 0.1], [0.0, 0.4]]], 0.5)[0]
    assert d.interval == 2
    assert d.x_trunc[0, 1] == pytest.approx(0.1)
    assert d.x_trunc[1, 1] == pytest.approx(0.1)
    assert d.x_trunc.sum() == pytest.approx(0.5)


def test_truncate_single_speed_partial():
    d = alpha_data([[[1.0]]], 0.5)[0]
    assert d.interval == 1
    assert d.x_trunc[0, 0] == pytest.approx(0.5)


def test_truncate_zero_budget_at_alpha_interval():
    # alpha is reached at the end of interval 1: interval 2 keeps nothing
    d = alpha_data([[[0.5, 0.5]]], 0.5)[0]
    assert d.interval == 1
    assert d.x_trunc.sum() == pytest.approx(0.5)
    assert d.x_trunc[0, 1] == 0.0


def test_alpha_speed_harmonic_mean():
    d = alpha_data([[[0.25, 0.25], [0.25, 0.25]]], 0.5, speeds=(1.0, 2.0))[0]
    assert d.mu.tolist() == [0.5, 0.5]
    assert d.speed == pytest.approx(4.0 / 3.0)


def test_alpha_speed_concentrated():
    d = alpha_data([[[0.0], [1.0], [0.0]]], 0.5, speeds=(1.0, 2.0, 4.0))[0]
    assert d.mu.tolist() == [0.0, 1.0, 0.0]
    assert d.speed == pytest.approx(2.0)


def test_alpha_speed_within_speed_range():
    rng = np.random.default_rng(2)
    ss = SpeedSet((1.0, 1.7, 2.9), 0.8)
    for _ in range(50):
        w = rng.dirichlet(np.ones(12)).reshape(1, 3, 4)
        s = alpha_data(w, 0.5, speeds=ss.speeds)[0].speed
        assert ss.min - 1e-12 <= s <= ss.max + 1e-12


def test_alpha_data_one_pass_keeps_jobs_apart():
    # three jobs with alpha intervals 2, 3 and 1 on speeds (1, 2, 4), alpha = 0.5
    data = alpha_data([
        [[0.125, 0.5, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.125]],   # speed 1 overfills
        [[0.125, 0.0, 0.125], [0.0, 0.0, 0.125], [0.0, 0.0, 0.625]],  # budget 0.375 split
        [[0.0, 0.25, 0.0], [0.75, 0.0, 0.0], [0.0, 0.0, 0.0]],      # speed 2, interval 1
    ], 0.5, speeds=(1.0, 2.0, 4.0))
    assert [d.interval for d in data] == [2, 3, 1]
    assert data[0].x_trunc.tolist() == [[0.125, 0.375, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert data[1].x_trunc.tolist() == [[0.125, 0.0, 0.125], [0.0, 0.0, 0.125],
                                        [0.0, 0.0, 0.125]]
    assert data[2].x_trunc.tolist() == [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert [d.mu.tolist() for d in data] == [[1.0, 0.0, 0.0], [0.5, 0.25, 0.25],
                                             [0.0, 1.0, 0.0]]
    assert [d.speed for d in data] == [1.0, 16.0 / 11.0, 2.0]


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
def test_alpha_data_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha must lie in"):
        alpha_data([[[1.0]]], alpha)


def test_alpha_data_names_a_job_short_of_alpha():
    with pytest.raises(RuntimeError, match="job at position 1 has total LP mass 0.25 < alpha=0.5"):
        alpha_data([[[0.5, 0.5]], [[0.125, 0.125]]], 0.5)


def test_order_by_intervals():
    order = order_jobs([2, 1], PrecedenceDag(()), [1, 2])
    assert order == [2, 1]


def test_order_equal_intervals_topological():
    order = order_jobs([1, 1], PrecedenceDag(((2, 1),)), [1, 2])
    assert order == [2, 1]


def test_order_equal_intervals_id_tiebreak():
    order = order_jobs([1, 1], PrecedenceDag(()), [3, 1])
    assert order == [1, 3]


def test_order_rejects_interval_inversion():
    with pytest.raises(PrecedenceOrderError):
        order_jobs([2, 1], PrecedenceDag(((1, 2),)), [1, 2])


def test_round_energy_aware_rising_costs_round_down():
    ss = SpeedSet((1.0, 2.0), 1.0)
    rising = [1.0, 2.0]
    assert round_speed_energy_aware(4.0 / 3.0, ss, rising) == 1.0
    assert round_speed_energy_aware(2.0, ss, rising) == 2.0
    with pytest.raises(ValueError, match="below sigma_1"):
        round_speed_energy_aware(0.5, ss, rising)


def test_round_energy_aware_rising_costs_within_delta():
    rng = np.random.default_rng(3)
    ss = SpeedSet((1.0, 1.4, 1.95, 2.7), 0.4)
    rising = [es.cost_at(PolynomialEnergy(1.3, 3.0), 2, s) for s in ss.speeds]
    for _ in range(100):
        s = rng.uniform(ss.min, ss.max)
        r = round_speed_energy_aware(s, ss, rising)
        assert r <= s * (1 + 1e-12)
        assert r >= s / (1 + ss.delta) * (1 - 1e-12)


def test_round_speed_up_and_overflow():
    ss = SpeedSet((1.0, 2.0), 1.0)
    assert round_speed_up(1.5, ss) == 2.0
    assert round_speed_up(2.0, ss) == 2.0
    with pytest.raises(SpeedRangeError):
        round_speed_up(2.5, ss)


def test_round_energy_aware_prefers_cheaper_endpoint():
    ss = SpeedSet((1.0, 2.0), 1.0)
    assert round_speed_energy_aware(1.5, ss, [5.0, 1.0]) == 2.0  # decreasing
    assert round_speed_energy_aware(1.5, ss, [1.0, 5.0]) == 1.0  # increasing
    assert round_speed_energy_aware(2.0, ss, [5.0, 1.0]) == 2.0  # on grid


def run_pipeline(inst):
    grid = es.build_grid(inst)
    return grid, es.solve_lp(es.build_lp(inst, grid))


def test_saias_single_job():
    inst = Instance(
        jobs=(Job(1, 1, 1.0, energy=PolynomialEnergy(1.0, 2.0)),),
        speedset=SpeedSet((1.0,), 1.0),
        epsilon=1.0,
    )
    _, sol = run_pipeline(inst)
    sched = saias(inst, sol)
    assert sched.order == (1,)
    assert sched.speed[1] == 1.0
    assert sched.start[1] == 0.0
    assert sched.cost == pytest.approx(1.0 + 1.0)


def test_saias_respects_late_release():
    inst = Instance(
        jobs=(Job(1, 1, 1.0), Job(2, 1, 1.0, release=50.0)),
        speedset=SpeedSet((1.0,), 1.0),
        epsilon=1.0,
        alpha=float(np.sqrt(2) - 1),
    )
    _, sol = run_pipeline(inst)
    sched = saias(inst, sol)
    assert sched.start[2] == pytest.approx(50.0)
    assert sched.completion[1] < 50.0  # idle gap before job 2


def test_saias_output_always_feasible():
    for seed in range(15):
        cfg = GeneratorConfig(edge_density=0.5, release_max=3.0 if seed % 2 else 0.0,
                              energy_kind="table" if seed % 3 == 0 else "poly")
        inst = generate(seed, 1 + seed % 6, 1 + seed % 3, cfg)
        _, sol = run_pipeline(inst)
        sched = saias(inst, sol)
        assert es.check_feasible(inst, sched) == []


def test_jensen_bound_every_job():
    # energy at the pooled speed never beats the pmf-average of grid energies
    for seed in range(12):
        cfg = GeneratorConfig(edge_density=0.3, energy_kind="table" if seed % 2 else "poly")
        inst = generate(seed + 100, 1 + seed % 5, 1 + seed % 3, cfg)
        _, sol = run_pipeline(inst)
        data = compute_alpha_data(sol, inst, inst.alpha)
        for job, d in zip(inst.jobs, data):
            pooled = es.cost_at(job.energy, job.rho, d.speed, inst.speedset.speeds)
            averaged = sum(
                mu_j * es.cost_at(job.energy, job.rho, s, inst.speedset.speeds)
                for mu_j, s in zip(d.mu, inst.speedset.speeds)
            )
            assert pooled <= averaged + 1e-9


def test_truncated_mass_equals_alpha():
    for seed in range(12):
        inst = generate(seed + 200, 1 + seed % 6, 1 + seed % 3,
                        GeneratorConfig(edge_density=0.4))
        _, sol = run_pipeline(inst)
        data = compute_alpha_data(sol, inst, inst.alpha)
        for d in data:
            assert d.x_trunc.sum() == pytest.approx(inst.alpha, abs=1e-9)
            assert np.all(d.x_trunc >= -1e-15)
            assert d.mu.sum() == pytest.approx(1.0, abs=1e-9)


def test_interval_order_compatible_with_precedence():
    for seed in range(12):
        inst = generate(seed + 300, 2 + seed % 5, 1 + seed % 3,
                        GeneratorConfig(edge_density=0.7))
        _, sol = run_pipeline(inst)
        taus = [d.interval for d in compute_alpha_data(sol, inst, inst.alpha)]
        tau_of = {j.id: taus[i] for i, j in enumerate(inst.jobs)}
        for a, b in inst.precedence.edges:
            assert tau_of[a] <= tau_of[b]


def test_saias_t_zero_tardiness_preserved():
    cfg = GeneratorConfig(objective=Objective.TARDINESS, deadline_max=15.0, delta=1.0)
    for seed in range(10):
        inst = generate(seed + 400, 1 + seed % 4, 6, cfg)
        grid, sol = run_pipeline(inst)
        try:
            sched = saias_t(inst, sol)
        except SpeedRangeError:
            continue
        cbar = sol.fractional_completion(grid)
        for i, job in enumerate(inst.jobs):
            lp_tardy = sum(
                job.weight * max(grid.lower(t) - job.deadline, 0.0) * sol.x[i, :, t - 1].sum()
                for t in range(1, grid.T + 1)
            )
            if lp_tardy <= 1e-12 and cbar[i] <= job.deadline + 1e-12:
                assert sched.completion[job.id] <= job.deadline + 1e-9


def test_saias_t_gamma_value():
    inst = generate(1, 2, 6, GeneratorConfig(objective=Objective.TARDINESS, epsilon=1.0))
    gamma = (1 + inst.epsilon) / (inst.alpha * (1 - inst.alpha))
    assert gamma == pytest.approx(8.0)


def test_saias_t_overflow_is_hard_error():
    # single narrow speed set: gamma-scaled speed cannot exist
    inst = Instance(
        jobs=(Job(1, 1, 1.0, deadline=0.1, energy=PolynomialEnergy(1.0, 2.0)),),
        speedset=SpeedSet((1.0,), 1.0),
        objective=Objective.TARDINESS,
        epsilon=1.0,
    )
    _, sol = run_pipeline(inst)
    with pytest.raises(SpeedRangeError):
        saias_t(inst, sol)


def test_saias_requires_matching_objective():
    inst = generate(5, 2, 2, GeneratorConfig(objective=Objective.TARDINESS))
    grid, sol = run_pipeline(inst)
    with pytest.raises(ValueError):
        saias(inst, sol)
    comp = generate(5, 2, 2, GeneratorConfig())
    grid, sol = run_pipeline(comp)
    with pytest.raises(ValueError):
        saias_t(comp, sol)


def _one_tardy_job(speeds, delta):
    return Instance(
        jobs=(Job(1, 1, 1.0, deadline=0.1, energy=PolynomialEnergy(1.0, 2.0)),),
        speedset=SpeedSet(speeds, delta),
        objective=Objective.TARDINESS,
        epsilon=0.5,
    )


def test_speed_range_check_boundary():
    # gamma = (1 + 0.5) / (0.5 * 0.5) = 6
    check_speed_range(_one_tardy_job((1.0, 6.0), 5.0))
    with pytest.raises(SpeedRangeError, match="gamma"):
        check_speed_range(_one_tardy_job((1.0, 5.9), 5.0))


def test_narrow_speed_ladder_fails_before_the_lp(monkeypatch):
    def unreachable(*args, **kwargs):
        pytest.fail("the LP was built for a ladder SAIAS-T cannot round on")

    monkeypatch.setattr(es.lp, "build_lp", unreachable)
    with pytest.raises(SpeedRangeError, match="gamma"):
        es.run(_one_tardy_job((1.0,), 1.0))
