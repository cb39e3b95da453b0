"""A frozen reference formulation of energysched's LP relaxation.

The checks solve this model with HiGHS and compare its optimum with the
program's LP bound and with the optimum of the program's LP dump.  It is
written from the formulation the program had when the benchmark was
defined, and it shares no code with ``energysched.timegrid``,
``energysched.lp`` or ``energysched.energy``.  So an equivalent
reformulation of the program's LP (implied precedence rows dropped, pinned
columns left out, an array-built model) still passes, and a non-equivalent
one fails.

The model: one column per (job, speed, interval) on the geometric grid
``tau_0 = tau_1 = kappa``, ``tau_t = kappa (1 + epsilon)^(t-1)``; each job
completes once; prefix machine capacity per interval; a job's column is
pinned to 0 where the interval ends before the job could finish at that
speed; per precedence edge and interval, the predecessor's prefix mass is at
least the successor's.
"""

from __future__ import annotations

import numpy as np

from energysched.energy import TableEnergy
from energysched.instance import Objective


def grid(inst) -> np.ndarray:
    """Interval boundaries ``tau_0 .. tau_T``."""
    speeds = inst.speedset.speeds
    kappa = min(j.rho for j in inst.jobs) / max(speeds)
    horizon = (max(j.release for j in inst.jobs)
               + sum(j.rho / min(speeds) for j in inst.jobs))
    tau = [kappa, kappa]
    while tau[-1] < horizon * (1 - 1e-15):
        tau.append(tau[-1] * (1 + inst.epsilon))
    return np.array(tau)


def energy_costs(job, speeds) -> np.ndarray:
    """Cost of running the whole job at each grid speed.

    A table is read on its lower convex envelope: at each grid speed, the
    lowest chord between two tabulated points on either side of it.
    """
    s = np.asarray(speeds, dtype=float)
    if not isinstance(job.energy, TableEnergy):
        return job.energy.v * job.rho * s ** (job.energy.beta - 1)
    c = np.asarray(job.energy.costs, dtype=float)
    env = c.copy()
    for j in range(len(s)):
        for a in range(j):
            for b in range(j + 1, len(s)):
                lam = (s[j] - s[a]) / (s[b] - s[a])
                env[j] = min(env[j], (1 - lam) * c[a] + lam * c[b])
    return env


def lp_relaxation(inst):
    """``(c, rows, upper)`` of the relaxation, rows as ``(cols, vals, sense, rhs)``."""
    speeds = np.asarray(inst.speedset.speeds, dtype=float)
    tau = grid(inst)
    n, m, T = inst.n, len(speeds), len(tau) - 1
    col = np.arange(n * m * T).reshape(n, m, T)       # column of (job, speed, interval)
    lower, end = tau[:-1], tau[1:]                    # interval t: (tau_{t-1}, tau_t]
    tardy = inst.objective is Objective.TARDINESS

    c = np.empty((n, m, T))
    upper = np.ones((n, m, T))
    for i, job in enumerate(inst.jobs):
        delay = np.maximum(lower - job.deadline, 0.0) if tardy else lower
        c[i] = energy_costs(job, speeds)[:, None] + job.weight * delay[None, :]
        finish = job.release + job.rho / speeds
        upper[i][end[None, :] < finish[:, None] * (1 - 1e-12)] = 0.0

    rows = [(col[i].ravel(), np.ones(m * T), "=", 1.0) for i in range(n)]
    load = np.array([[job.rho / s for s in speeds] for job in inst.jobs])   # (n, m)
    for t in range(T):
        cols = col[:, :, : t + 1]
        vals = np.broadcast_to(load[:, :, None], cols.shape)
        rows.append((cols.ravel(), vals.ravel(), "<=", end[t]))
    position = {job.id: i for i, job in enumerate(inst.jobs)}
    for a, b in inst.precedence.edges:
        ia, ib = position[a], position[b]
        for t in range(T):
            cols = np.concatenate([col[ia, :, : t + 1].ravel(), col[ib, :, : t + 1].ravel()])
            vals = np.concatenate([np.ones(m * (t + 1)), -np.ones(m * (t + 1))])
            rows.append((cols, vals, ">=", 0.0))
    return c.ravel(), rows, upper.ravel()
