"""Shared test utilities: independent oracles, reference implementations, grid lookup."""

import itertools
from bisect import bisect_left

import numpy as np


def vertex_enum_min(c, A, b, upper):
    """Exact minimum of c@x s.t. A x <= b, 0 <= x <= upper.

    Enumerates every choice of n active constraints among the rows and the
    box faces, solves the resulting linear system, and keeps the best
    feasible solution.  Independent of the simplex implementation.
    """
    c = np.asarray(c, float)
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    upper = np.asarray(upper, float)
    n = len(c)
    cons = [(A[k], b[k]) for k in range(len(b))]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cons.append((-e, 0.0))          # x_i >= 0 active
        cons.append((e, upper[i]))      # x_i <= u_i active

    best = np.inf
    best_x = None
    for subset in itertools.combinations(range(len(cons)), n):
        M = np.array([cons[k][0] for k in subset])
        rhs = np.array([cons[k][1] for k in subset])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.any(A @ x > b + 1e-9):
            continue
        if np.any(x < -1e-9) or np.any(x > upper + 1e-9):
            continue
        val = float(c @ x)
        if val < best:
            best = val
            best_x = x
    return best, best_x


def highs_objective(model):
    """The optimum of an ``lp.LpModel`` by HiGHS; skips the test without scipy."""
    import pytest

    from energysched import lp

    linprog = pytest.importorskip("scipy.optimize").linprog
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
    return ref.fun


def reference_lp_dump(model):
    """The text ``lp.lp_dump`` must give byte for byte: one f-string per term."""
    m, T = model.index.m, model.index.T
    names = [
        f"x_{job.id}_{j}_{t}"
        for job in model.instance.jobs for j in range(1, m + 1) for t in range(1, T + 1)
    ]
    lines = ["minimize"]
    terms = [
        f"{v:+.12g} {names[c]}" for c, v in enumerate(model.objective.tolist()) if v != 0.0
    ]
    lines.append("  " + " ".join(terms))
    lines.append("subject to")
    for row in model.rows:
        label = row.kind + "_" + "_".join(str(k) for k in row.key)
        body = " ".join(
            f"{v:+.12g} {names[c]}" for c, v in zip(row.cols.tolist(), row.vals.tolist())
        )
        lines.append(f"  {label}: {body} {row.sense} {row.rhs:.12g}")
    lines.append("bounds")
    for name, hi in zip(names, model.upper.tolist()):
        lines.append(f"  0 <= {name} <= {hi:.12g}")
    return "\n".join(lines) + "\n"


def random_box_lp(rng, nvars=4, nrows=4):
    """Random bounded-feasible LP: A x <= b with b >= 0, finite box."""
    c = rng.uniform(-2, 2, nvars)
    A = rng.uniform(-1, 1, (nrows, nvars))
    b = rng.uniform(0.5, 3.0, nrows)     # x = 0 always feasible
    upper = rng.uniform(0.5, 2.0, nvars)
    return c, A, b, upper


def reference_brute_force(instance):
    """The full enumeration ``oracle.brute_force`` must agree with bit for bit.

    Every precedence-feasible order times every one of the m**n speed
    combinations (``meshgrid`` order, first position most significant); the
    winner is the first order with a strictly lower minimum and, within it,
    the lowest combination index.  Returns (cost, order, speed) as
    ``brute_force`` does.
    """
    from energysched.instance import Objective
    from energysched.oracle import _feasible_permutations
    from energysched.rounding import assemble

    n, m = instance.n, instance.speedset.m
    sigma = np.asarray(instance.speedset.speeds)
    tardy = instance.objective is Objective.TARDINESS
    by_id = {j.id: (j, costs) for j, costs in zip(instance.jobs, instance.energy_costs)}
    combos = np.stack(
        np.meshgrid(*[np.arange(m)] * n, indexing="ij"), axis=-1
    ).reshape(-1, n)

    best = np.inf
    best_order = best_speeds = None
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
    cost = assemble(instance, best_order, best_speeds).breakdown.total
    return cost, best_order, best_speeds


def interval_of(grid, time: float) -> int:
    """Index t of the interval containing ``time``; ``time == kappa`` maps to 1."""
    if time < grid.kappa * (1 - 1e-12) or time > grid.tau[-1] * (1 + 1e-12):
        raise ValueError(
            f"time {time} outside grid range [{grid.kappa}, {grid.tau[-1]}]"
        )
    if time <= grid.kappa:
        return 1
    # smallest t >= 2 with time <= tau[t]
    t = bisect_left(grid.tau, time, lo=2)
    return min(t, grid.T)


def reference_list_schedule(instance):
    """The greedy list schedule whose vertex ``lp.start_basis`` must give.

    Each job takes the speed index minimising its energy plus the total
    weight times its load; among the jobs whose predecessors are all placed,
    the largest weight-to-load ratio (the earliest deadline for tardiness)
    goes next, ties to the lowest position; the timing is
    ``rounding.assemble``'s.  Returns (order, speed index by job id,
    completion time by job id).
    """
    from energysched.instance import Objective
    from energysched.rounding import assemble

    speeds = instance.speedset.speeds
    total_weight = sum(job.weight for job in instance.jobs)
    speed_index = {}
    for job, costs in zip(instance.jobs, instance.energy_costs.tolist()):
        scores = [cost + total_weight * (job.rho / s) for cost, s in zip(costs, speeds)]
        speed_index[job.id] = scores.index(min(scores))

    def priority(k):
        job = instance.jobs[k]
        if instance.objective is Objective.TARDINESS:
            return job.deadline, k
        return -job.weight / (job.rho / speeds[speed_index[job.id]]), k

    order = []
    while len(order) < instance.n:
        ready = [
            k for k, job in enumerate(instance.jobs)
            if job.id not in order
            and all(a in order for a in instance.precedence.predecessors(job.id))
        ]
        order.append(instance.jobs[min(ready, key=priority)].id)
    speed = {jid: speeds[j] for jid, j in speed_index.items()}
    return order, speed_index, assemble(instance, order, speed).completion
