import dataclasses

import numpy as np
import pytest

import energysched as es
from energysched import (
    Instance,
    Job,
    Objective,
    PolynomialEnergy,
    PrecedenceDag,
    SpeedSet,
    check_feasible,
    cost,
)
from energysched.evaluate import Schedule, assemble
from energysched.instance import GeneratorConfig, generate


def simple_instance(objective=Objective.COMPLETION_TIME, deadline=0.0):
    return Instance(
        jobs=(Job(1, 2, 1.0, deadline=deadline, energy=PolynomialEnergy(1.0, 3.0)),),
        speedset=SpeedSet((1.0,), 1.0),
        objective=objective,
    )


def test_cost_by_hand():
    inst = simple_instance()
    sched = assemble(inst, [1], {1: 1.0})
    bd = sched.breakdown
    assert bd.energy_total == pytest.approx(2.0)
    assert bd.scheduling_total == pytest.approx(2.0)
    assert bd.total == pytest.approx(4.0)


def test_tardiness_zero_when_on_time():
    inst = simple_instance(Objective.TARDINESS, deadline=5.0)
    sched = assemble(inst, [1], {1: 1.0})
    assert sched.breakdown.scheduling_total == 0.0


def test_doubling_weights_doubles_scheduling_term():
    inst = generate(3, 4, 2, GeneratorConfig(edge_density=0.2))
    res = es.run(inst)
    doubled = dataclasses.replace(
        inst, jobs=tuple(dataclasses.replace(j, weight=2 * j.weight) for j in inst.jobs)
    )
    sched = assemble(doubled, list(res.schedule.order), res.schedule.speed)
    assert sched.breakdown.scheduling_total == pytest.approx(
        2 * res.schedule.breakdown.scheduling_total
    )
    assert sched.breakdown.energy_total == pytest.approx(res.schedule.breakdown.energy_total)


def _tampered(sched, **kw):
    return Schedule(
        order=kw.get("order", sched.order),
        speed=kw.get("speed", sched.speed),
        start=kw.get("start", sched.start),
        completion=kw.get("completion", sched.completion),
        breakdown=sched.breakdown,
    )


def test_start_before_release_reported():
    inst = Instance(
        jobs=(Job(1, 1, 1.0, release=2.0),),
        speedset=SpeedSet((1.0,), 1.0),
    )
    sched = assemble(inst, [1], {1: 1.0})
    bad = _tampered(sched, start={1: 0.0}, completion={1: 1.0})
    assert any("release" in msg or "start" in msg for msg in check_feasible(inst, bad))


def test_precedence_violation_reported():
    inst = Instance(
        jobs=(Job(1, 1, 1.0), Job(2, 1, 1.0)),
        speedset=SpeedSet((1.0,), 1.0),
        precedence=PrecedenceDag(((2, 1),)),
    )
    sched = Schedule(
        order=(1, 2),
        speed={1: 1.0, 2: 1.0},
        start={1: 0.0, 2: 1.0},
        completion={1: 1.0, 2: 2.0},
        breakdown=None,
    )
    assert any("precedence" in msg for msg in check_feasible(inst, sched))


def test_overlap_with_the_previous_job_reported():
    inst = Instance(jobs=(Job(1, 1, 1.0), Job(2, 1, 1.0)), speedset=SpeedSet((1.0,), 1.0))
    sched = Schedule(order=(1, 2), speed={1: 1.0, 2: 1.0}, start={1: 0.0, 2: 0.5},
                     completion={1: 1.0, 2: 1.5}, breakdown=None)
    assert "job 2: overlaps the previous job" in check_feasible(inst, sched)


def test_order_missing_a_job_reported():
    inst = Instance(jobs=(Job(1, 1, 1.0), Job(2, 1, 1.0)), speedset=SpeedSet((1.0,), 1.0))
    sched = Schedule(order=(1,), speed={1: 1.0}, start={1: 0.0}, completion={1: 1.0},
                     breakdown=None)
    assert check_feasible(inst, sched) == ["order (1,) is not a permutation of the jobs"]


def test_off_grid_speed_reported():
    inst = simple_instance()
    sched = assemble(inst, [1], {1: 1.0})
    bad = _tampered(sched, speed={1: 1.37}, completion={1: 2 / 1.37})
    assert any("speed" in msg for msg in check_feasible(inst, bad))


def test_cost_refuses_infeasible_schedule():
    inst = simple_instance()
    sched = assemble(inst, [1], {1: 1.0})
    bad = _tampered(sched, completion={1: 0.5})
    with pytest.raises(ValueError, match="infeasible"):
        cost(inst, bad)


def test_algorithm_outputs_always_pass_checker():
    for seed in range(10):
        inst = generate(seed + 600, 1 + seed % 5, 1 + seed % 3,
                        GeneratorConfig(edge_density=0.5, release_max=2.0))
        res = es.run(inst)
        assert check_feasible(inst, res.schedule) == []


@pytest.mark.parametrize("config, m", [
    (GeneratorConfig(), 3),
    (GeneratorConfig(release_max=5.0), 3),
    (GeneratorConfig(energy_kind="table"), 3),
    (GeneratorConfig(objective=Objective.TARDINESS, delta=3.0), 6),
], ids=["completion", "releases", "table", "tardiness"])
def test_paper_bounds_hold_at_n40(config, m):
    for seed in (1, 2):                      # fixed in advance
        inst = generate(seed, 40, m, config)
        res = es.run(inst)
        assert res.report["ratio_vs_lp"] <= res.report["theoretical_bound"]
        assert check_feasible(inst, res.schedule) == []
        assert np.abs(res.solution.x.sum(axis=(1, 2)) - 1.0).max() < 1e-9


def test_oracle_cost_matches_shared_evaluator_bit_for_bit():
    inst = generate(8, 4, 2, GeneratorConfig(edge_density=0.3))
    exact = es.brute_force(inst)
    assert cost(inst, assemble(inst, exact.order, exact.speed)).total == exact.cost


def test_uniform_speedup_never_increases_tardiness():
    inst = generate(9, 4, 3, GeneratorConfig(objective=Objective.TARDINESS, deadline_max=6.0))
    order = [j.id for j in inst.jobs]
    slow = assemble(inst, order, {j.id: inst.speedset.speeds[0] for j in inst.jobs})
    fast = assemble(inst, order, {j.id: inst.speedset.speeds[-1] for j in inst.jobs})
    assert fast.breakdown.scheduling_total <= slow.breakdown.scheduling_total + 1e-12


def test_deadlines_are_ignored_under_completion_time():
    inst = generate(3, 5, 3, GeneratorConfig(edge_density=0.2))
    late = dataclasses.replace(
        inst, jobs=tuple(dataclasses.replace(j, deadline=0.5 * j.id) for j in inst.jobs)
    )
    grid = es.build_grid(inst)
    np.testing.assert_array_equal(es.build_lp(late, grid).objective,
                                  es.build_lp(inst, grid).objective)
    exact = es.brute_force(inst)
    assert cost(late, exact) == cost(inst, exact) == exact.breakdown
    assert es.brute_force(late) == exact
