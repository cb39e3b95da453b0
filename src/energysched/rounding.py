"""Rounding an LP relaxation solution into a feasible schedule.

The pipeline per job: find the earliest interval by which an ``alpha``
fraction of the job's LP mass has completed, truncate the mass to exactly
``alpha``, read the truncated per-speed mass as a probability mass function
over the speed grid, and set the job's target speed to the reciprocal of the
expected reciprocal speed under that pmf.  Jobs are sequenced by their alpha
intervals (topological, lowest-id-first inside a bucket) and run back to back
at grid speeds obtained by rounding the target speeds.

``saias`` handles the weighted completion time objective: each target speed
goes to the cheaper of its two adjacent grid speeds, the lower one on a tie,
so a cost rising with speed (every polynomial cost) rounds down.  ``saias_t``
handles weighted tardiness: target speeds are scaled up by
``gamma = (1 + epsilon) / (alpha * (1 - alpha))`` and rounded up, which keeps
every job that is on time in the relaxation on time in the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evaluate
from .instance import Instance, Objective, SpeedSet, priority_order
from .lp import LpSolution

#: slack when comparing accumulated LP mass against alpha
MASS_TOL = 1e-9


class PrecedenceOrderError(RuntimeError):
    """An edge's successor got an earlier alpha interval than its predecessor.

    The LP prefix-dominance rows make this impossible for a feasible solution,
    so hitting it signals a corrupt solution, never something to repair.
    """


class SpeedRangeError(RuntimeError):
    """The scaled-up target speed exceeds the top of the speed set."""


@dataclass(frozen=True)
class AlphaData:
    """Per-job rounding data derived from the LP solution."""

    interval: int            # alpha interval index (1-based)
    x_trunc: np.ndarray      # (m, T) truncated mass, sums to alpha
    mu: np.ndarray           # (m,) pmf over speed indices
    speed: float             # alpha speed (harmonic mean under mu)


def compute_alpha_data(solution: LpSolution, instance: Instance, alpha: float) -> list:
    """Each job's alpha interval, mass truncated to alpha, speed pmf and speed.

    The alpha interval is the earliest by which an ``alpha`` fraction of the
    job's mass has completed.  The truncated mass is the full mass before it;
    at it, the budget left (alpha minus the mass before) is filled across
    speeds in increasing speed-index order.  The pmf is the truncated mass
    per speed over alpha, and the speed the reciprocal of its expected
    reciprocal speed.
    """
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    x = solution.x
    n, _, T = x.shape
    cum = x.sum(axis=1).cumsum(axis=1)                     # (n, T)
    # at alpha <= MASS_TOL an empty prefix is within tolerance, so mass is required too
    reached = (cum >= alpha - MASS_TOL) & (cum > 0)
    for i in np.flatnonzero(~reached.any(axis=1)):
        raise RuntimeError(f"job at position {i} has total LP mass {cum[i, -1]} < alpha={alpha}")
    taus = reached.argmax(axis=1)                          # zero-based alpha interval
    jobs = np.arange(n)
    xt = np.where(np.arange(T) < taus[:, None, None], x, 0.0)
    budget = alpha - np.array([x[i, :, :t].sum() for i, t in enumerate(taus)])
    at = x[jobs, :, taus]                                  # (n, m): mass at the alpha interval
    filled = np.zeros_like(at)
    filled[:, 1:] = at[:, :-1].cumsum(axis=1)
    xt[jobs, :, taus] = np.maximum(np.minimum(at, budget[:, None] - filled), 0.0)
    mu = xt.sum(axis=2) / alpha                            # time collapsed out: pmf over speeds
    inverse = 1.0 / np.asarray(instance.speedset.speeds)
    return [AlphaData(interval=int(t) + 1, x_trunc=xt[i], mu=mu[i],
                      speed=1.0 / float(np.dot(mu[i], inverse)))
            for i, t in enumerate(taus)]


def order_jobs(taus, precedence, job_ids) -> list:
    """Jobs sorted by alpha interval; topological, lowest id first, inside ties.

    ``taus`` maps each position in ``job_ids`` to its alpha interval.
    """
    tau_of = {jid: int(t) for jid, t in zip(job_ids, taus)}
    for a, b in precedence.edges:
        if tau_of[a] > tau_of[b]:
            raise PrecedenceOrderError(
                f"edge {a} -> {b} but alpha intervals {tau_of[a]} > {tau_of[b]}"
            )
    # with no interval inverted, this is the interval buckets in order, each
    # in topological order with the lowest id first
    return priority_order(job_ids, precedence.edges, key=tau_of.__getitem__)


def round_speed_up(speed: float, speedset: SpeedSet) -> float:
    for s in speedset.speeds:
        if s >= speed * (1 - 1e-12):
            return s
    raise SpeedRangeError(
        f"speed set cannot realize scaled speed {speed} "
        f"(sigma_m = {speedset.speeds[-1]}); extend the speed set"
    )


def round_speed_energy_aware(speed: float, speedset: SpeedSet, grid_costs) -> float:
    """Adjacent grid speed whose cost does not exceed the target's.

    ``grid_costs`` are the job's (envelope) costs at each grid speed; cost is
    linear between adjacent grid speeds, so one endpoint is never worse than
    the interior point.  A tie goes to the lower speed.  The target is never
    below sigma_1: it is a harmonic mean of grid speeds.
    """
    speeds = speedset.speeds
    lo_idx = None
    for j, s in enumerate(speeds):
        if s <= speed * (1 + 1e-12):
            lo_idx = j
    if lo_idx is None:
        raise ValueError(f"target speed {speed} below sigma_1 = {speeds[0]}")
    if abs(speeds[lo_idx] - speed) <= 1e-12 * speed or lo_idx == len(speeds) - 1:
        return speeds[lo_idx]
    return speeds[lo_idx] if grid_costs[lo_idx] <= grid_costs[lo_idx + 1] else speeds[lo_idx + 1]


def tardiness_gamma(epsilon: float, alpha: float) -> float:
    """SAIAS-T's speed-up factor ``(1 + epsilon) / (alpha * (1 - alpha))``."""
    return (1 + epsilon) / (alpha * (1 - alpha))


def check_speed_range(instance: Instance) -> None:
    """Raise :class:`SpeedRangeError` when SAIAS-T can round no job at all.

    Every alpha speed is a harmonic mean of grid speeds, so at least sigma_1;
    when gamma * sigma_1 already exceeds sigma_m, every ``round_speed_up``
    fails, whatever the LP solution.
    """
    gamma = tardiness_gamma(instance.epsilon, instance.alpha)
    lo, hi = instance.speedset.speeds[0], instance.speedset.speeds[-1]
    if gamma * lo * (1 - 1e-12) > hi:
        raise SpeedRangeError(
            f"gamma * sigma_1 = {gamma * lo} exceeds sigma_m = {hi} "
            f"(gamma = (1 + epsilon) / (alpha * (1 - alpha)) = {gamma}); "
            f"extend the speed set"
        )


def _round(instance: Instance, solution: LpSolution, grid_speed) -> evaluate.Schedule:
    """Order the jobs by alpha interval and run each at
    ``grid_speed(alpha speed, the job's grid costs)``."""
    data = compute_alpha_data(solution, instance, instance.alpha)
    order = order_jobs([d.interval for d in data], instance.precedence,
                       [j.id for j in instance.jobs])
    speed_by_id = {
        job.id: grid_speed(d.speed, costs)
        for job, d, costs in zip(instance.jobs, data, instance.energy_costs)
    }
    return evaluate.assemble(instance, order, speed_by_id)


def saias(instance: Instance, solution: LpSolution) -> evaluate.Schedule:
    """Weighted-completion-time rounding of the LP relaxation solution."""
    if instance.objective is not Objective.COMPLETION_TIME:
        raise ValueError("saias requires the completion-time objective")
    ss = instance.speedset
    return _round(instance, solution,
                  lambda speed, costs: round_speed_energy_aware(speed, ss, costs))


def saias_t(instance: Instance, solution: LpSolution) -> evaluate.Schedule:
    """Weighted-tardiness rounding: scale target speeds up by gamma, round up."""
    if instance.objective is not Objective.TARDINESS:
        raise ValueError("saias_t requires the tardiness objective")
    gamma, ss = tardiness_gamma(instance.epsilon, instance.alpha), instance.speedset
    return _round(instance, solution, lambda speed, _: round_speed_up(gamma * speed, ss))
