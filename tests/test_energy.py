import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from energysched import (
    PolynomialEnergy,
    TableEnergy,
    check_assumption1,
    convexify,
    cost_at,
    quantize_speed_range,
    validate,
)
from energysched.instance import Instance, Job, Objective, SpeedSet
from energysched.pipeline import AssumptionError, run


def test_polynomial_cost_direct():
    assert cost_at(PolynomialEnergy(2.0, 3.0), 3, 2.0) == pytest.approx(24.0)


def test_polynomial_cost_past_the_float_range_is_inf():
    # 2.0 ** (1e9 - 1) raises OverflowError in Python's float power
    assert cost_at(PolynomialEnergy(1.0, 1e9), 1, 2.0) == np.inf


def test_table_midpoint_interpolation():
    e = TableEnergy((5.0, 9.0))
    assert cost_at(e, 1, 1.5, speeds=(1.0, 2.0)) == pytest.approx(7.0)


def test_table_on_grid_value():
    e = TableEnergy((5.0, 9.0, 20.0))
    speeds = (1.0, 2.0, 4.0)
    for s, c in zip(speeds, e.costs):
        assert cost_at(e, 1, s, speeds=speeds) == pytest.approx(c)


def test_table_out_of_range_errors():
    with pytest.raises(ValueError):
        cost_at(TableEnergy((1.0, 2.0)), 1, 3.0, speeds=(1.0, 2.0))


#: a table call the energy models refuse, and its message
ENERGY_MISUSE = {
    "table without speeds": (lambda: cost_at(TableEnergy((1.0, 2.0)), 1, 1.0),
                             "table energy evaluation requires the speed grid"),
    "convexify length mismatch": (lambda: convexify((1.0,), (1.0, 2.0)),
                                  "one cost per grid speed required"),
}


@pytest.mark.parametrize("case", ENERGY_MISUSE)
def test_table_misuse_errors(case):
    call, message = ENERGY_MISUSE[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_convexify_keeps_convex_table():
    assert convexify((1.0, 2.0, 4.0), (1.0, 2.0, 3.0)) == (1.0, 2.0, 4.0)


def test_convexify_spike_collapses_to_chord():
    assert convexify((0.0, 10.0, 0.0), (1.0, 2.0, 3.0)) == pytest.approx((0.0, 0.0, 0.0))


def test_convexify_single_speed_identity():
    assert convexify((7.0,), (2.0,)) == (7.0,)


def test_convexify_below_and_convex():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.integers(1, 8)
        speeds = np.cumsum(rng.uniform(0.5, 2.0, m))
        costs = rng.uniform(0, 10, m)
        env = convexify(costs, speeds)
        assert all(v <= c + 1e-12 for v, c in zip(env, costs))
        slopes = np.diff(env) / np.diff(speeds)
        assert all(b >= a - 1e-9 for a, b in zip(slopes, slopes[1:]))
        # idempotent
        assert np.allclose(convexify(env, speeds), env, atol=1e-12)


@given(
    s1=st.floats(0.5, 3.0),
    s2=st.floats(3.5, 8.0),
    lam=st.floats(0.01, 0.99),
    beta=st.floats(2.0, 4.0),
)
def test_polynomial_cost_is_convex_in_speed(s1, s2, lam, beta):
    e = PolynomialEnergy(1.3, beta)
    mid = lam * s1 + (1 - lam) * s2
    lhs = cost_at(e, 2, mid)
    rhs = lam * cost_at(e, 2, s1) + (1 - lam) * cost_at(e, 2, s2)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_assumption1_polynomial_equality_case():
    assert check_assumption1(PolynomialEnergy(1.0, 3.0), 3.0, (1.0, 2.0, 4.0))


def test_assumption1_polynomial_steeper_exponent_fails():
    assert not check_assumption1(PolynomialEnergy(1.0, 5.0), 2.0, (1.0, 2.0, 4.0))


def test_assumption1_constant_table_holds():
    for beta in (2.0, 3.0):
        assert check_assumption1(TableEnergy((4.0, 4.0, 4.0)), beta, (1.0, 1.5, 2.25))


def test_assumption1_cost_jump_fails():
    speeds = (1.0, 1.1, 1.21)
    assert not check_assumption1(TableEnergy((1.0, 1.0, 100.0)), 2.0, speeds)


def test_assumption1_polynomial_steeper_exponent_holds_on_one_speed():
    assert check_assumption1(PolynomialEnergy(1.0, 5.0), 2.0, (1.5,))
    assert not check_assumption1(PolynomialEnergy(1.0, 2.0 + 1e-6), 2.0, (1.0, 1.0001))


#: cost(1.1) = 1.22 > 1.1**2 * cost(1) = 1.21 at beta = 3; the two speeds differ
#: by a factor of 1.1, which lies between multipliers a sampled check would try
PROBE_GAP_SPEEDS = (1.0, 1.1, 1.25, 2.5, 5.0, 7.5)
PROBE_GAP_COSTS = (1.0, 1.22, 1.555, 4.5, 12.0, 20.0)


def test_assumption1_catches_a_violation_between_sampled_multipliers():
    assert not check_assumption1(TableEnergy(PROBE_GAP_COSTS), 3.0, PROBE_GAP_SPEEDS)
    inst = Instance(
        jobs=(Job(1, 1, 1.0, deadline=2.0, energy=TableEnergy(PROBE_GAP_COSTS)),
              Job(2, 1, 1.0, deadline=3.0)),
        speedset=SpeedSet(PROBE_GAP_SPEEDS, 1.0),
        objective=Objective.TARDINESS,
        beta=3.0,
    )
    assert validate(inst) == []
    with pytest.raises(AssumptionError, match="job 1"):
        run(inst)       # no theoretical_bound for a run whose assumption fails


def _holds_just_right_of_each_speed(costs, beta, speeds, step=1e-6):
    """cost(g*s) <= g**(beta-1) * cost(s) at g = 1 + step, at every grid speed but the last.

    On each envelope segment, (beta - 1) * cost(x) - x * cost'(x) is smallest
    at the segment's left end when beta >= 2 (or the segment falls, and then it
    is positive), so a violation anywhere shows just right of a grid speed.
    """
    table, g = TableEnergy(tuple(costs)), 1 + step
    return all(cost_at(table, 1, s * g, speeds) <= g ** (beta - 1) * cost_at(table, 1, s, speeds)
               for s in speeds[:-1])


@pytest.mark.parametrize("beta", [2.0, 2.5, 3.0, 4.0])
def test_assumption1_on_tables_matches_a_direct_check(beta):
    rng = np.random.default_rng(int(beta * 10))
    verdicts = []
    for _ in range(150):
        m = int(rng.integers(2, 7))
        speeds = tuple(np.cumprod(np.r_[1.0, 1 + rng.uniform(0.05, 1.0, m - 1)]).tolist())
        # each step within 0.3 to 1.3 times the largest rise the condition allows
        costs = [float(rng.uniform(0.5, 2.0))]
        for s0, s1 in zip(speeds, speeds[1:]):
            costs.append(costs[-1] * (1 + (beta - 1) * (s1 / s0 - 1) * rng.uniform(0.3, 1.3)))
        if m > 2 and rng.random() < 0.3:
            costs[int(rng.integers(1, m - 1))] *= 1.5    # above the chord: the envelope differs
        verdict = check_assumption1(TableEnergy(tuple(costs)), beta, speeds)
        assert verdict == _holds_just_right_of_each_speed(costs, beta, speeds)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)     # both verdicts are exercised


def test_quantize_degenerate_range():
    ss = quantize_speed_range(1.0, 1.0, 0.7)
    assert ss.speeds == (1.0,)


def test_quantize_powers_of_two():
    ss = quantize_speed_range(1.0, 4.0, 1.0)
    assert ss.speeds == pytest.approx((1.0, 2.0, 4.0))


def test_quantize_covers_top():
    ss = quantize_speed_range(1.0, 3.0, 1.0)
    assert ss.speeds == pytest.approx((1.0, 2.0, 4.0))
    assert ss.speeds[-1] >= 3.0


@pytest.mark.parametrize("delta", [0.3, 0.5, 1.0])
def test_quantize_output_validates_as_speedset(delta):
    ss = quantize_speed_range(0.7, 5.0, delta)
    inst = Instance(jobs=(Job(1, 1, 1.0),), speedset=ss)
    assert validate(inst) == []


@pytest.mark.parametrize(
    "speeds, energies",
    [
        # a polynomial job and a table job whose middle entry spikes above the chord
        ((1.0, 1.5, 2.25), (PolynomialEnergy(1.3, 3.0), TableEnergy((1.0, 9.0, 2.0)))),
        ((2.0,), (TableEnergy((7.0,)), PolynomialEnergy(0.5, 2.0))),
    ],
)
def test_instance_energy_costs_match_cost_at_bit_for_bit(speeds, energies):
    jobs = tuple(Job(i, 3, 1.0, energy=e) for i, e in enumerate(energies, start=1))
    inst = Instance(jobs=jobs, speedset=SpeedSet(speeds, 0.5))
    costs = inst.energy_costs
    assert costs.shape == (len(jobs), len(speeds))
    for i, job in enumerate(jobs):
        for j, s in enumerate(speeds):
            assert costs[i, j] == cost_at(job.energy, job.rho, s, speeds)
    assert inst.energy_costs is costs           # computed once per instance
    assert not costs.flags.writeable
