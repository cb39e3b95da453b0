"""Exact optima for small instances.

``brute_force`` enumerates every precedence-feasible processing order and,
for each, every assignment of grid speeds (vectorized over the speed
combinations), returning the exact minimum-cost schedule.  It is the ground
truth the approximation ratios are measured against.

``dual_cost`` / ``special_case_order`` cover the continuous-speed special
cases without precedence or releases: with equal weights, or with equal
``rho_i * v_i**(1/beta)``, sorting by non-increasing weight-to-size ratio is
provably optimal, which the tests verify exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance, Objective
from .rounding import Schedule, assemble

#: most speed combinations (m**n) ``brute_force`` allocates at once
MAX_SPEED_COMBOS = 2 ** 20


@dataclass(frozen=True)
class ExactResult:
    cost: float
    order: tuple
    speed: dict              # job id -> grid speed

    def schedule(self, instance: Instance) -> Schedule:
        return assemble(instance, self.order, self.speed)


class SizeCapError(ValueError):
    pass


def _feasible_permutations(ids, precedence):
    """Generate precedence-feasible permutations, pruning during generation."""
    preds = {i: set(precedence.predecessors(i)) for i in ids}

    def rec(placed, remaining):
        if not remaining:
            yield tuple(placed)
            return
        for i in sorted(remaining):
            if preds[i] <= set(placed):
                placed.append(i)
                remaining.remove(i)
                yield from rec(placed, remaining)
                remaining.add(i)
                placed.pop()

    yield from rec([], set(ids))


def brute_force(instance: Instance, n_cap: int = 7, m_cap: int = 4) -> ExactResult:
    """Exact optimum over all orders and grid-speed assignments."""
    n, m = instance.n, instance.speedset.m
    if n > n_cap or m > m_cap:
        raise SizeCapError(f"instance size n={n}, m={m} exceeds caps ({n_cap}, {m_cap})")
    if m ** n > MAX_SPEED_COMBOS:
        raise SizeCapError(f"{m}**{n} speed combinations exceed "
                           f"MAX_SPEED_COMBOS = {MAX_SPEED_COMBOS}")

    sigma = np.asarray(instance.speedset.speeds)
    tardy = instance.objective is Objective.TARDINESS
    by_id = {j.id: (j, costs) for j, costs in zip(instance.jobs, instance.energy_costs)}

    # all m**n speed-index combinations, one row per combination
    combos = np.stack(
        np.meshgrid(*[np.arange(m)] * n, indexing="ij"), axis=-1
    ).reshape(-1, n)

    best = math.inf
    best_order = None
    best_speeds = None
    for order in _feasible_permutations([j.id for j in instance.jobs], instance.precedence):
        total = np.zeros(len(combos))
        completion = np.zeros(len(combos))
        for k, jid in enumerate(order):
            job, costs = by_id[jid]
            jdx = combos[:, k]
            completion = np.maximum(completion, job.release) + job.rho / sigma[jdx]
            total += costs[jdx]
            if tardy:
                total += job.weight * np.maximum(completion - job.deadline, 0.0)
            else:
                total += job.weight * completion
        k_best = int(np.argmin(total))
        if total[k_best] < best:
            best = float(total[k_best])
            best_order = order
            best_speeds = {jid: float(sigma[combos[k_best, k]]) for k, jid in enumerate(order)}

    sched = assemble(instance, best_order, best_speeds)
    # shared evaluation path: the reported cost is evaluate.cost of the argmin
    return ExactResult(cost=sched.breakdown.total, order=best_order, speed=best_speeds)


def _xi(job, beta: float) -> float:
    return job.rho * job.energy.v ** (1.0 / beta)


def dual_cost(order, jobs, beta: float) -> float:
    """Closed-form cost of an order once continuous speeds are optimized out.

    Only defined without precedence or release constraints, for polynomial
    energy: each position contributes K * xi * (suffix weight sum)**q with
    q = (beta-1)/beta and K = beta / (beta-1)**q.
    """
    by_id = {j.id: j for j in jobs}
    q = (beta - 1.0) / beta
    K = beta / (beta - 1.0) ** q
    weights = [by_id[i].weight for i in order]
    total = 0.0
    suffix = sum(weights)
    for k, jid in enumerate(order):
        total += K * _xi(by_id[jid], beta) * suffix ** q
        suffix -= weights[k]
    return total


def special_case_order(jobs, beta: float) -> tuple:
    """Optimal order for equal weights or equal xi: non-increasing w/xi.

    Raises when neither applicability condition holds; the ordering rule is
    only proven for those cases.
    """
    weights = [j.weight for j in jobs]
    xis = [_xi(j, beta) for j in jobs]
    equal_w = max(weights) - min(weights) <= 1e-12 * max(weights)
    equal_xi = max(xis) - min(xis) <= 1e-12 * max(xis)
    if not (equal_w or equal_xi):
        raise ValueError("requires equal weights or equal rho*v^(1/beta) across jobs")
    return tuple(
        j.id for j in sorted(jobs, key=lambda j: (-(j.weight / _xi(j, beta)), j.id))
    )
