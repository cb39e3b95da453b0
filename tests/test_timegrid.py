import dataclasses
import time

import numpy as np
import pytest

from energysched import Instance, Job, SpeedSet, build_grid, timegrid
from energysched.instance import GeneratorConfig, generate
from helpers import interval_of


def make(jobs, speeds, epsilon, delta=1.0):
    return Instance(jobs=tuple(jobs), speedset=SpeedSet(tuple(speeds), delta), epsilon=epsilon)


def test_single_job_two_speeds():
    # kappa = 2/2 = 1, horizon = 2/1 = 2, boundaries 1, 1, 2
    grid = build_grid(make([Job(1, 2, 1.0)], [1.0, 2.0], epsilon=1.0))
    assert grid.tau[0] == pytest.approx(1.0)
    assert grid.T == 2
    assert grid.tau == pytest.approx((1.0, 1.0, 2.0))


def test_two_identical_jobs():
    grid = build_grid(make([Job(1, 1, 1.0), Job(2, 1, 1.0)], [1.0], epsilon=1.0))
    assert grid.tau[0] == pytest.approx(1.0)
    assert grid.T == 2


def test_larger_epsilon_gives_smaller_T():
    jobs = [Job(i, 2, 1.0) for i in range(1, 6)]
    t_small = build_grid(make(jobs, [1.0, 2.0], epsilon=0.1)).T
    t_big = build_grid(make(jobs, [1.0, 2.0], epsilon=10.0)).T
    assert t_big < t_small


def test_horizon_includes_releases():
    grid = build_grid(make([Job(1, 1, 1.0, release=10.0)], [1.0], epsilon=1.0))
    assert grid.tau[-1] >= 11.0


def test_boundary_ratio_exact():
    jobs = [Job(i, 3, 1.0) for i in range(1, 9)]
    grid = build_grid(make(jobs, [1.0, 1.5], epsilon=0.37))
    tau = np.array(grid.tau)
    ratios = tau[2:] / tau[1:-1]
    assert np.all(np.abs(ratios - 1.37) <= 1e-12 * 1.37)


def test_T_is_minimal():
    inst = make([Job(1, 2, 1.0), Job(2, 3, 1.0)], [1.0, 2.0], epsilon=0.5)
    grid = build_grid(inst)
    horizon = 5.0
    assert grid.tau[-1] >= horizon * (1 - 1e-12)
    assert grid.tau[-2] < horizon


def test_interval_of_kappa_maps_to_one():
    grid = build_grid(make([Job(1, 2, 1.0)], [1.0, 2.0], epsilon=1.0))
    assert interval_of(grid, grid.tau[0]) == 1


def test_interval_of_boundary_is_right_closed():
    grid = build_grid(make([Job(i, 2, 1.0) for i in (1, 2, 3)], [1.0], epsilon=0.5))
    for t in range(2, grid.T + 1):
        assert interval_of(grid, grid.tau[t]) == t


def test_interval_of_just_above_boundary():
    grid = build_grid(make([Job(i, 2, 1.0) for i in (1, 2, 3)], [1.0], epsilon=0.5))
    t = 2
    assert interval_of(grid, grid.tau[t] * (1 + 1e-9)) == t + 1


def test_interval_of_out_of_range():
    grid = build_grid(make([Job(1, 2, 1.0)], [1.0], epsilon=1.0))
    with pytest.raises(ValueError):
        interval_of(grid, grid.tau[0] / 2)
    with pytest.raises(ValueError):
        interval_of(grid, grid.tau[-1] * 2)


def test_interval_of_monotone():
    inst = generate(5, 5, 2, GeneratorConfig(epsilon=0.8))
    grid = build_grid(inst)
    times = np.linspace(grid.tau[0], grid.tau[-1], 200)
    vals = [interval_of(grid, t) for t in times]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("epsilon", [0.05, 0.37, 1.0, 4.0])
def test_accepted_grid_has_at_most_max_intervals(epsilon):
    accepted = 0
    for seed in range(20):
        cfg = GeneratorConfig(epsilon=epsilon, release_max=5.0 if seed % 2 else 0.0)
        inst = generate(seed, 1 + seed % 9, 1 + seed % 4, cfg)
        # a tenth of 0.05 puts some grids on each side of the limit
        for eps in (epsilon, epsilon / 10):
            try:
                case = dataclasses.replace(inst, epsilon=eps)
            except ValueError as exc:
                assert str(exc).endswith("use a larger epsilon"), exc
                continue
            accepted += 1
            assert build_grid(case).T <= timegrid.MAX_INTERVALS
    assert accepted >= 20


def test_build_grid_refuses_a_grid_too_fine_within_a_second():
    # 1 + 1e-17 rounds to 1, so the boundaries never grow and only the
    # interval limit ends the loop; validation reports the refusal alone
    coarse = make([Job(1, 1, 1.0), Job(2, 3, 1.0)], [1.0, 2.0], epsilon=0.5)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^invalid instance: epsilon = 1e-17 gives a time "
                                         r"grid of more than 1000 intervals; use a larger "
                                         r"epsilon$"):
        dataclasses.replace(coarse, epsilon=1e-17)
    assert time.perf_counter() - start < 1.0
