"""Exact optima for small instances.

``brute_force`` returns the exact minimum-cost schedule over every
precedence-feasible order and every assignment of grid speeds, the ground
truth the approximation ratios are measured against.  It walks the tree of
order prefixes depth first, children in sorted-id order.  A node holds the
cost and completion time of each live speed combination of its prefix; a
child broadcasts them against its job's m speeds (first position most
significant) with the floating-point operations of a full enumeration, in
the same order, so each leaf value is bit-identical to it.  A combination
dies when its cost plus a bound on the unplaced jobs (each: its cheapest
energy plus weight times the completion, or tardiness, at ``max(c, release)
+ rho / fastest speed``), shrunk by a relative 1e-9 against rounding, reaches
the best leaf so far; the bound holds only for non-negative terms and is
skipped otherwise.  Masks keep the enumeration order, so the winner is the
enumeration's: the first order with a strictly lower minimum, and in it the
lowest combination index.

``dual_cost`` / ``special_case_order`` cover the continuous-speed special
cases without precedence or releases: with equal weights, or with equal
``rho_i * v_i**(1/beta)``, sorting by non-increasing weight-to-size ratio is
provably optimal, which the tests verify exhaustively.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance, Objective
from .rounding import assemble

#: most speed combinations (m**n) ``brute_force`` may enumerate per order
MAX_SPEED_COMBOS = 2 ** 20


@dataclass(frozen=True)
class ExactResult:
    cost: float
    order: tuple
    speed: dict              # job id -> grid speed


class SizeCapError(ValueError):
    pass


def _feasible_permutations(ids, precedence):
    """Generate precedence-feasible permutations, pruning during generation."""
    preds = {i: set(precedence.predecessors(i)) for i in ids}

    def rec(placed):
        rest = sorted(set(ids) - set(placed))
        if not rest:
            yield placed
        for i in rest:
            if preds[i].issubset(placed):
                yield from rec(placed + (i,))

    return rec(())


def check_size(instance: Instance, n_cap: int = 7, m_cap: int = 4) -> None:
    """Raise :class:`SizeCapError` when ``brute_force`` would refuse ``instance``."""
    n, m = instance.n, instance.speedset.m
    if n > n_cap or m > m_cap:
        raise SizeCapError(f"instance size n={n}, m={m} exceeds caps ({n_cap}, {m_cap})")
    if m ** n > MAX_SPEED_COMBOS:
        raise SizeCapError(f"{m}**{n} speed combinations exceed "
                           f"MAX_SPEED_COMBOS = {MAX_SPEED_COMBOS}")


def brute_force(instance: Instance, n_cap: int = 7, m_cap: int = 4) -> ExactResult:
    """Exact optimum over all orders and grid-speed assignments."""
    check_size(instance, n_cap, m_cap)
    n, m = instance.n, instance.speedset.m
    sigma = np.asarray(instance.speedset.speeds)
    tardy = instance.objective is Objective.TARDINESS
    rank = sorted(range(n), key=lambda k: instance.jobs[k].id)   # position -> job
    jobs, costs = [instance.jobs[k] for k in rank], instance.energy_costs[rank]
    pos = {job.id: k for k, job in enumerate(jobs)}
    preds = [{pos[a] for a in instance.precedence.predecessors(job.id)} for job in jobs]
    proc = [job.rho / sigma for job in jobs]
    release, deadline, weight = (np.array([getattr(j, f) for j in jobs], dtype=float)
                                 for f in ("release", "deadline", "weight"))
    fastest, cheapest = np.array([p[-1] for p in proc]), costs.min(axis=1)
    prune = bool((costs >= 0).all() and (weight >= 0).all())
    best = [math.inf, (), 0]                     # cost, order, combination index

    @functools.cache
    def bound_terms(rest):
        rest = list(rest)
        return release[rest], fastest[rest], deadline[rest], weight[rest], cheapest[rest].sum()

    def lower_bound(completion, rest):
        r, p, d, w, e = bound_terms(rest)
        c = np.maximum(completion[:, None], r) + p
        return (np.maximum(c - d, 0.0) if tardy else c) @ w + e

    def visit(order, index, completion, total):
        rest = tuple(k for k in range(n) if k not in order)
        if not rest:
            k = int(np.argmin(total))
            if total[k] < best[0]:
                best[:] = float(total[k]), order, int(index[k])
        for k in rest:
            if not preds[k].issubset(order):
                continue
            job = jobs[k]
            c = (np.maximum(completion, job.release)[:, None] + proc[k]).ravel()
            t = (total[:, None] + costs[k]).ravel()
            t += job.weight * (np.maximum(c - job.deadline, 0.0) if tardy else c)
            i = (index[:, None] * m + np.arange(m)).ravel()
            left = tuple(r for r in rest if r != k)
            if prune and left and best[0] < math.inf:
                keep = t + lower_bound(c, left) < best[0] * (1 + 1e-9)
                if not keep.any():
                    continue
                c, t, i = c[keep], t[keep], i[keep]
            visit(order + (k,), i, c, t)

    visit((), np.zeros(1, dtype=np.int64), np.zeros(1), np.zeros(1))
    _, order, index = best
    best_order = tuple(jobs[k].id for k in order)
    digits = np.unravel_index(index, (m,) * n)   # speed index per position
    best_speeds = {jobs[k].id: float(sigma[s]) for k, s in zip(order, digits)}
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
