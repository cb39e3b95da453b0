import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from energysched import (
    Instance,
    Job,
    Objective,
    PolynomialEnergy,
    PrecedenceDag,
    SpeedSet,
    brute_force,
    dual_cost,
    special_case_order,
)
from energysched.energy import TableEnergy
from energysched.evaluate import assemble
from energysched.instance import GeneratorConfig, generate
from energysched import evaluate, lp, oracle, run
from energysched.oracle import SizeCapError, _feasible_permutations
from helpers import reference_brute_force

N_CAP, M_CAP = oracle.DEFAULT_CAPS


def test_single_job_two_speeds_by_hand():
    # speed 1: energy 2, completion 2 -> 4;  speed 2: energy 8, completion 1 -> 9
    inst = Instance(
        jobs=(Job(1, 2, 1.0, energy=PolynomialEnergy(1.0, 3.0)),),
        speedset=SpeedSet((1.0, 2.0), 1.0),
    )
    res = brute_force(inst)
    assert res.cost == pytest.approx(4.0)
    assert res.speed[1] == 1.0


def test_identical_jobs_cost_is_order_independent():
    job = dict(rho=2, weight=1.5, energy=PolynomialEnergy(1.0, 2.0))
    inst = Instance(
        jobs=(Job(id=1, **job), Job(id=2, **job)),
        speedset=SpeedSet((1.0, 1.8), 1.0),
    )
    res = brute_force(inst)
    swapped = assemble(inst, res.order, res.speed)
    assert swapped.breakdown.total == pytest.approx(res.cost)


def test_precedence_prunes_permutations():
    perms = list(_feasible_permutations([1, 2, 3], PrecedenceDag(((1, 2),))))
    assert all(p.index(1) < p.index(2) for p in perms)
    assert len(perms) == 3
    # in lexicographic order of the sorted ids, which the reference's tie rule reads
    assert list(_feasible_permutations([3, 1, 2], PrecedenceDag(((3, 1),)))) == [
        (2, 3, 1), (3, 1, 2), (3, 2, 1)]


def test_brute_force_respects_edges():
    inst = generate(4, 4, 2, GeneratorConfig(edge_density=0.9))
    res = brute_force(inst)
    pos = {jid: k for k, jid in enumerate(res.order)}
    for a, b in inst.precedence.edges:
        assert pos[a] < pos[b]


def test_size_cap():
    inst = generate(0, 5, 2, GeneratorConfig())
    with pytest.raises(SizeCapError):
        brute_force(inst, n_cap=4)


def _no_search(instance):
    raise AssertionError("the search read the energy costs")


@pytest.mark.parametrize("n, m", [(N_CAP + 1, M_CAP), (N_CAP, M_CAP + 1)])
def test_caps_refuse_one_more_job_or_speed_before_the_search(n, m, monkeypatch):
    inst = generate(0, n, m, GeneratorConfig())
    monkeypatch.setattr(Instance, "energy_costs", property(_no_search))
    with pytest.raises(SizeCapError, match=rf"n={n}, m={m} exceeds caps \({N_CAP}, {M_CAP}\)"):
        brute_force(inst)


def test_caps_admit_their_own_values():
    inst = generate(0, N_CAP, M_CAP, GeneratorConfig())
    res = brute_force(inst)
    assert sorted(res.order) == [job.id for job in inst.jobs]
    assert res.cost == evaluate.cost(inst, res).total > 0


def test_dual_cost_single_job_closed_form():
    jobs = [Job(1, 1, 1.0, energy=PolynomialEnergy(1.0, 2.0))]
    # min over s of (s + 1/s) = 2
    assert dual_cost((1,), jobs, beta=2.0) == pytest.approx(2.0)


def test_dual_cost_matches_numeric_speed_optimization():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        beta = float(rng.choice([2.0, 3.0]))
        jobs = [
            Job(i + 1, int(rng.integers(1, 4)), float(rng.uniform(0.5, 3)),
                energy=PolynomialEnergy(float(rng.uniform(0.5, 2)), beta))
            for i in range(n)
        ]
        order = tuple(j.id for j in jobs)
        # numeric check: optimize each job's speed on a fine grid
        speeds = np.geomspace(1e-2, 1e2, 20000)
        total = 0.0
        suffix = sum(j.weight for j in jobs)
        for j in jobs:
            term = j.energy.v * j.rho * speeds ** (beta - 1) + suffix * j.rho / speeds
            total += term.min()
            suffix -= j.weight
        assert dual_cost(order, jobs, beta) == pytest.approx(total, rel=1e-5)


def test_special_case_equal_weights_sorts_by_size():
    jobs = [
        Job(1, 3, 1.0, energy=PolynomialEnergy(1.0, 2.0)),
        Job(2, 1, 1.0, energy=PolynomialEnergy(1.0, 2.0)),
        Job(3, 2, 1.0, energy=PolynomialEnergy(1.0, 2.0)),
    ]
    assert special_case_order(jobs, beta=2.0) == (2, 3, 1)


def test_special_case_equal_sizes_sorts_by_weight():
    jobs = [
        Job(1, 1, 1.0, energy=PolynomialEnergy(1.0, 2.0)),
        Job(2, 1, 5.0, energy=PolynomialEnergy(1.0, 2.0)),
    ]
    assert special_case_order(jobs, beta=2.0) == (2, 1)


def test_special_case_single_job():
    jobs = [Job(1, 2, 1.0, energy=PolynomialEnergy(1.0, 3.0))]
    assert special_case_order(jobs, beta=3.0) == (1,)


def test_special_case_inapplicable_raises():
    jobs = [
        Job(1, 1, 1.0, energy=PolynomialEnergy(1.0, 2.0)),
        Job(2, 2, 2.0, energy=PolynomialEnergy(1.5, 2.0)),
    ]
    with pytest.raises(ValueError):
        special_case_order(jobs, beta=2.0)


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_special_case_order_exhaustively_optimal(beta):
    rng = np.random.default_rng(int(beta))
    # equal weights, random sizes
    jobs = [
        Job(i + 1, int(rng.integers(1, 5)), 2.0,
            energy=PolynomialEnergy(float(rng.uniform(0.5, 2)), beta))
        for i in range(5)
    ]
    best = special_case_order(jobs, beta)
    f_best = dual_cost(best, jobs, beta)
    for perm in itertools.permutations([j.id for j in jobs]):
        assert f_best <= dual_cost(perm, jobs, beta) + 1e-9


def test_brute_force_dominates_lp_bound():
    import energysched as es
    for seed in range(6):
        inst = generate(seed + 50, 1 + seed % 4, 2, GeneratorConfig(edge_density=0.3))
        grid = es.build_grid(inst)
        sol = es.solve_lp(es.build_lp(inst, grid))
        assert es.brute_force(inst).cost >= sol.objective - 1e-6 * max(1, sol.objective)


def _assert_matches_reference(inst, label):
    res = brute_force(inst, n_cap=12, m_cap=6)
    cost, order, speed = reference_brute_force(inst)
    assert res.cost == cost, label               # bit for bit, no tolerance
    assert res.order == order, label
    assert list(res.speed.items()) == list(speed.items()), label


_TARDY = dict(objective=Objective.TARDINESS, delta=3.0)

# (family, GeneratorConfig fields, n for the k-th seed, m, seeds)
_DIFFERENTIAL = [
    ("completion", dict(edge_density=0.3), lambda k: 2 + k % 5, 3, range(30)),
    ("releases", dict(edge_density=0.0, release_max=5.0), lambda k: 2 + k % 5, 3, range(30)),
    ("releases-prec", dict(edge_density=0.3, release_max=3.0), lambda k: 3 + k % 3, 3, range(15)),
    ("density-0", dict(edge_density=0.0), lambda k: 2 + k % 4, 3, range(15)),
    ("chain", dict(edge_density=1.0), lambda k: 2 + k % 5, 3, range(15)),
    ("tardiness-m6", dict(edge_density=0.3, **_TARDY), lambda k: 2 + k % 4, 6, range(30)),
    ("tardiness-dense", dict(edge_density=0.0, deadline_max=4.0, **_TARDY),
     lambda k: 3 + k % 3, 4, range(15)),
    ("table", dict(edge_density=0.3, energy_kind="table"), lambda k: 2 + k % 5, 3, range(30)),
    ("table-tardiness", dict(energy_kind="table", **_TARDY), lambda k: 2 + k % 4, 4, range(15)),
    ("n1", dict(edge_density=0.0, release_max=2.0), lambda k: 1, 4, range(8)),
    ("m1", dict(edge_density=0.3), lambda k: 1 + k % 6, 1, range(8)),
    ("verify-small", dict(edge_density=0.0, release_max=5.0), lambda k: 7, 3, range(2)),
]


@pytest.mark.parametrize("family, fields, n_of, m, seeds", _DIFFERENTIAL,
                         ids=[case[0] for case in _DIFFERENTIAL])
def test_brute_force_is_bit_identical_to_full_enumeration(family, fields, n_of, m, seeds):
    cfg = GeneratorConfig(**fields)
    for k in seeds:
        inst = generate(1000 + k, n_of(k), m, cfg)
        _assert_matches_reference(inst, (family, k))
        if inst.precedence.edges:           # each edge listed three times is valid input
            thrice = PrecedenceDag(inst.precedence.edges * 3)
            _assert_matches_reference(dataclasses.replace(inst, precedence=thrice),
                                      (family, k, "edges x3"))


def test_an_edge_listed_three_times_still_allows_its_optimal_order():
    # job 1's bit summed three times into job 3's predecessor mask would carry
    # into job 2's bit and rule out the optimum (1, 3, 2)
    inst = dataclasses.replace(generate(3, 3, 2, GeneratorConfig(edge_density=0.0)),
                               precedence=PrecedenceDag(((1, 3),) * 3))
    res = brute_force(inst)
    assert (res.cost, res.order) == (15.49331218191356, (1, 3, 2))
    assert res.cost == reference_brute_force(inst)[0]
    assert run(inst, with_oracle=True).report["ratio_vs_oracle"] == 1.0


@pytest.mark.parametrize("family, fields, n_of, m, seeds", _DIFFERENTIAL,
                         ids=[case[0] for case in _DIFFERENTIAL])
def test_runs_of_one_mask_stay_bit_identical_to_full_enumeration(family, fields, n_of, m,
                                                                  seeds, monkeypatch):
    # a one-cell budget puts every mask in a run of its own, so each layer
    # with more than one mask is split across runs
    monkeypatch.setattr(oracle, "CHUNK_CELLS", 1)
    calls, split = [], oracle._runs

    def record(size, cells):
        calls.append((len(size), list(split(size, cells))))
        return calls[-1][1]

    monkeypatch.setattr(oracle, "_runs", record)
    cfg = GeneratorConfig(**fields)
    for k in seeds:
        _assert_matches_reference(generate(1000 + k, n_of(k), m, cfg), (family, k))
    assert all(hi == lo + 1 for _, runs in calls for lo, hi, _ in runs)
    # a chain, like a single job, never has two masks in one layer
    assert max(masks for masks, _ in calls) > 1 or family in ("n1", "chain")


@pytest.mark.parametrize("cells", [lambda f: f, lambda f: f * f], ids=["front", "pairs"])
def test_runs_cover_every_mask_and_fit_the_chunk(cells):
    rng = np.random.default_rng(7)
    oversize = packed = 0
    for _ in range(300):
        top = int(rng.integers(1, 2001))
        size = rng.integers(1, top + 1, size=int(rng.integers(1, 301)))
        runs = list(oracle._runs(size, cells))
        assert [lo for lo, _, _ in runs] == [0] + [hi for _, hi, _ in runs[:-1]]
        assert runs[-1][1] == len(size)
        for lo, hi, longest in runs:
            assert lo < hi and longest == size[lo:hi].max()
            if hi - lo > 1:
                assert (hi - lo) * cells(longest) <= oracle.CHUNK_CELLS
                packed += 1
            oversize += cells(longest) > oracle.CHUNK_CELLS
    # runs of many masks are drawn, and so is a front past the chunk wherever one can be
    assert packed and (oversize > 0) == (cells(2000) > oracle.CHUNK_CELLS)


def test_n12_peak_memory_stays_under_8_mb():
    inst = generate(1, 12, 3, GeneratorConfig(edge_density=0.0, release_max=5.0))
    tracemalloc.start()
    try:
        brute_force(inst, n_cap=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 10 ** 6


def _identical_jobs(objective, ids, deadline=0.0):
    # speeds 1 and 2 cost 1 and 2; a job takes 2 at speed 1 and 1 at speed 2
    job = dict(rho=2, weight=2.0, deadline=deadline, energy=TableEnergy((1.0, 2.0)))
    return Instance(
        jobs=tuple(Job(id=i, **job) for i in ids),
        speedset=SpeedSet((1.0, 2.0), 1.0),
        objective=objective,
    )


def test_ties_between_orders_and_combinations_break_as_enumerated():
    # deadline 3: (slow, fast) and (fast, slow) both cost 3, the least, in
    # either order; the first order and the lowest combination index win
    inst = _identical_jobs(Objective.TARDINESS, (2, 1), deadline=3.0)
    _assert_matches_reference(inst, "tardiness ties")
    res = brute_force(inst)
    assert res.cost == 3.0
    assert res.order == (1, 2)
    assert list(res.speed.items()) == [(1, 1.0), (2, 2.0)]
    inst = _identical_jobs(Objective.COMPLETION_TIME, (3, 1, 2))
    _assert_matches_reference(inst, "completion ties")
    assert brute_force(inst).order == (1, 2, 3)


@pytest.mark.parametrize("first_costs", [(1.0, 1.0), (1.0 + 2 ** -52, 1.0)],
                         ids=["equal", "one-ulp"])
def test_dominated_partial_schedule_with_the_smaller_label_wins_a_final_tie(first_costs):
    # every job is on time, so the cost is the energy alone.  After job 1 the
    # fast state ends earlier at no greater cost, yet the slow one (combination
    # index 0) ties at the end: 1 + 4 and (1 + 2**-52) + 4 both round to 5
    inst = Instance(
        jobs=(Job(1, 1, 1.0, deadline=10.0, energy=TableEnergy(first_costs)),
              Job(2, 1, 1.0, deadline=10.0, energy=TableEnergy((4.0, 4.0)))),
        speedset=SpeedSet((1.0, 2.0), 1.0),
        objective=Objective.TARDINESS,
    )
    _assert_matches_reference(inst, first_costs)
    res = brute_force(inst)
    assert res.cost == 5.0
    assert res.order == (1, 2)
    assert list(res.speed.items()) == [(1, 1.0), (2, 1.0)]


def test_order_codes_that_would_overflow_int64_are_refused(monkeypatch):
    inst = generate(0, 16, 2, GeneratorConfig())            # 2**16 combinations fit
    monkeypatch.setattr(Instance, "energy_costs", property(_no_search))
    with pytest.raises(SizeCapError, match="overflow int64"):
        brute_force(inst, n_cap=20)


def test_speed_codes_that_would_overflow_int64_are_refused(monkeypatch):
    inst = generate(0, 15, 19, GeneratorConfig())           # 19**15 > 2**63
    fits = generate(0, 15, 18, GeneratorConfig())           # 18**15 < 2**63
    monkeypatch.setattr(Instance, "energy_costs", property(_no_search))
    with pytest.raises(SizeCapError, match="overflow int64"):
        brute_force(inst, n_cap=15, m_cap=19)
    oracle.check_size(fits, 15, 18)


def test_negative_weight_is_refused():
    # dominance at a smaller completion time needs a cost to come that does not
    # fall as C grows; no instance with such a weight can be built
    inst = generate(3, 5, 3, GeneratorConfig(edge_density=0.2))
    jobs = list(inst.jobs)
    jobs[2] = dataclasses.replace(jobs[2], weight=-1.5)
    with pytest.raises(ValueError, match=f"job {jobs[2].id}: weight must be positive, got -1.5"):
        dataclasses.replace(inst, jobs=tuple(jobs))


def test_pipeline_checks_oracle_caps_before_the_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("the LP was built")

    monkeypatch.setattr(lp, "build_lp", no_lp)
    inst = generate(0, 8, 2, GeneratorConfig())
    with pytest.raises(SizeCapError, match="exceeds caps"):
        run(inst, with_oracle=True)


@pytest.mark.parametrize("with_oracle", [False, True])
def test_pipeline_refuses_an_invalid_instance_before_the_lp(with_oracle, monkeypatch):
    def no_lp(*args):
        raise AssertionError("the LP was built")

    monkeypatch.setattr(lp, "build_lp", no_lp)
    inst = generate(3, 7, 3, GeneratorConfig(edge_density=0.0, release_max=5.0))
    jobs = list(inst.jobs)
    jobs[2] = dataclasses.replace(jobs[2], weight=-1.5)
    with pytest.raises(ValueError, match="job 3: weight must be positive, got -1.5"):
        run(dataclasses.replace(inst, jobs=tuple(jobs)), with_oracle=with_oracle)


def test_pipeline_keeps_the_instance_without_overrides():
    # its cached energy_costs then serve every run of it
    inst = generate(1, 4, 3, GeneratorConfig())
    assert run(inst).instance is inst


def test_raised_caps_admit_what_the_speed_combination_count_refused():
    inst = generate(1, 8, 6, GeneratorConfig())             # 6**8 > 2**20
    report = run(inst, with_oracle=True, oracle_caps=(8, 6)).report
    assert report["lp_bound"] <= report["oracle_cost"] * (1 + 1e-9)
    assert report["oracle_cost"] <= report["algorithm_cost"] * (1 + 1e-12)
