"""Interval-and-speed-indexed LP relaxation.

One variable per (job, speed, interval) triple; a job's variable at speed j
and interval t carries objective coefficient

* energy of running the whole job at speed sigma_j, plus
* ``w_i * tau_{t-1}`` (completion time) or ``w_i * (tau_{t-1} - d_i)^+``
  (tardiness).

Constraints: each job completes exactly once; prefix machine capacity per
interval; variables whose interval ends before the job could possibly finish
are pinned to zero; per precedence edge and interval, the predecessor's
prefix mass dominates the successor's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import energy as energy_mod
from .instance import Instance, Objective
from .timegrid import TimeGrid


class InfeasibleHorizonError(RuntimeError):
    """Some job has every variable pinned to zero: the grid cannot hold it."""


@dataclass(frozen=True)
class VarIndex:
    """Dense bijection (job position, speed index, interval) <-> flat column."""

    n: int
    m: int
    T: int

    @property
    def ncols(self) -> int:
        return self.n * self.m * self.T

    def col(self, i: int, j: int, t: int) -> int:
        # i, j zero-based positions; t one-based interval index
        return (i * self.m + j) * self.T + (t - 1)

    def triple(self, col: int):
        t = col % self.T + 1
        ij = col // self.T
        return ij // self.m, ij % self.m, t


@dataclass(frozen=True)
class Row:
    kind: str        # "assign" | "capacity" | "prec"
    key: tuple
    cols: np.ndarray
    vals: np.ndarray
    sense: str       # "=", "<=", ">="
    rhs: float


@dataclass(frozen=True)
class LpModel:
    instance: Instance
    grid: TimeGrid
    index: VarIndex
    objective: np.ndarray    # (ncols,)
    upper: np.ndarray        # 1.0, or 0.0 for pinned columns
    rows: tuple

    @property
    def ncols(self) -> int:
        return self.index.ncols

    def col_name(self, col: int) -> str:
        i, j, t = self.index.triple(col)
        return f"x_{self.instance.jobs[i].id}_{j + 1}_{t}"


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray            # (n, m, T), all >= 0
    objective: float
    phase1_iterations: int = 0   # simplex pivots and bound flips, per phase
    phase2_iterations: int = 0

    @property
    def iterations(self) -> int:
        return self.phase1_iterations + self.phase2_iterations

    def fractional_completion(self, grid: TimeGrid) -> np.ndarray:
        """Per-job expected interval lower bound, sum_jt tau_{t-1} * x_ijt."""
        lowers = np.array([grid.lower(t) for t in range(1, grid.T + 1)])
        return np.einsum("ijt,t->i", self.x, lowers)


def grid_energy_costs(job, speedset) -> np.ndarray:
    """Energy cost of running the whole job at each grid speed."""
    return np.array(
        [energy_mod.cost_at(job.energy, job.rho, s, speedset.speeds) for s in speedset.speeds]
    )


def _build(instance: Instance, grid: TimeGrid, tardiness: bool) -> LpModel:
    n, m, T = instance.n, instance.speedset.m, grid.T
    index = VarIndex(n, m, T)
    speeds = instance.speedset.speeds

    obj = np.zeros(index.ncols)
    upper = np.ones(index.ncols)
    for i, job in enumerate(instance.jobs):
        e = grid_energy_costs(job, instance.speedset)
        for j in range(m):
            for t in range(1, T + 1):
                c = index.col(i, j, t)
                if tardiness:
                    sched = job.weight * max(grid.lower(t) - job.deadline, 0.0)
                else:
                    sched = job.weight * grid.lower(t)
                obj[c] = e[j] + sched
                if grid.upper(t) < (job.release + job.rho / speeds[j]) * (1 - 1e-12):
                    upper[c] = 0.0
        if all(
            upper[index.col(i, j, t)] == 0.0 for j in range(m) for t in range(1, T + 1)
        ):
            raise InfeasibleHorizonError(
                f"job {job.id} cannot complete within the grid horizon "
                f"(tau_T = {grid.tau[-1]}, needs {job.release + job.rho / speeds[-1]})"
            )

    rows = []
    for i, job in enumerate(instance.jobs):
        cols = np.array([index.col(i, j, t) for j in range(m) for t in range(1, T + 1)])
        rows.append(Row("assign", (job.id,), cols, np.ones(len(cols)), "=", 1.0))

    for t in range(1, T + 1):
        cols, vals = [], []
        for i, job in enumerate(instance.jobs):
            for j in range(m):
                for u in range(1, t + 1):
                    cols.append(index.col(i, j, u))
                    vals.append(job.rho / speeds[j])
        rows.append(Row("capacity", (t,), np.array(cols), np.array(vals), "<=", grid.upper(t)))

    for a, b in instance.precedence.edges:
        ia, ib = instance.job_index(a), instance.job_index(b)
        for t in range(1, T + 1):
            cols, vals = [], []
            for j in range(m):
                for u in range(1, t + 1):
                    cols.append(index.col(ia, j, u))
                    vals.append(1.0)
                    cols.append(index.col(ib, j, u))
                    vals.append(-1.0)
            rows.append(Row("prec", (a, b, t), np.array(cols), np.array(vals), ">=", 0.0))

    return LpModel(instance, grid, index, obj, upper, tuple(rows))


def build_completion_lp(instance: Instance, grid: TimeGrid) -> LpModel:
    if instance.objective is not Objective.COMPLETION_TIME:
        raise ValueError("instance objective is not weighted completion time")
    return _build(instance, grid, tardiness=False)


def build_tardiness_lp(instance: Instance, grid: TimeGrid) -> LpModel:
    if instance.objective is not Objective.TARDINESS:
        raise ValueError("instance objective is not weighted tardiness")
    if instance.has_releases:
        raise ValueError("tardiness formulation does not support release dates")
    return _build(instance, grid, tardiness=True)


def build_lp(instance: Instance, grid: TimeGrid) -> LpModel:
    if instance.objective is Objective.TARDINESS:
        return build_tardiness_lp(instance, grid)
    return build_completion_lp(instance, grid)


def objective_lower_bound(solution: LpSolution) -> float:
    """LP optimum: a certified lower bound on the optimal schedule cost."""
    return solution.objective


def constraint_arrays(model: LpModel):
    """The rows as a dense matrix ``A``, a list of senses and a vector ``b``."""
    nrows = len(model.rows)
    A = np.zeros((nrows, model.ncols))
    b = np.zeros(nrows)
    senses = []
    for k, row in enumerate(model.rows):
        A[k, row.cols] += row.vals
        b[k] = row.rhs
        senses.append(row.sense)
    return A, senses, b


def solve_lp(model: LpModel, config=None) -> LpSolution:
    """Solve the relaxation with the embedded simplex and certify feasibility."""
    from . import simplex

    A, senses, b = constraint_arrays(model)
    result = simplex.solve(
        model.objective, A, senses, b,
        lower=np.zeros(model.ncols), upper=model.upper.copy(),
        config=config,
    )
    if result.status != "optimal":
        raise RuntimeError(f"LP solve failed with status {result.status!r}")

    x = result.x
    # relative to the right-hand sides: capacity rows grow with the horizon
    limit = 1e-7 * max(1.0, float(np.abs(b).max()))
    residual = _max_residual(A, senses, b, x)
    if residual > limit:
        raise RuntimeError(f"LP solution residual {residual} exceeds {limit}")
    n, m, T = model.index.n, model.index.m, model.index.T
    x3 = x.reshape(n, m, T)
    mass = x3.sum(axis=(1, 2))
    if np.any(np.abs(mass - 1.0) > 1e-7):
        raise RuntimeError(f"per-job mass deviates from 1: {mass}")
    return LpSolution(
        x=x3, objective=float(model.objective @ x),
        phase1_iterations=result.phase1_iterations,
        phase2_iterations=result.phase2_iterations,
    )


def _max_residual(A, senses, b, x) -> float:
    """Largest violation of any row by ``x``; 0.0 when every row holds."""
    senses = np.asarray(senses)
    gap = A @ x - b
    violation = np.where(senses == "=", np.abs(gap), np.where(senses == "<=", gap, -gap))
    return float(violation.max(initial=0.0))


def lp_dump(model: LpModel) -> str:
    """Human-readable text form: one line per row, named columns x_<id>_<j>_<t>."""
    lines = ["minimize"]
    terms = [
        f"{model.objective[c]:+.12g} {model.col_name(c)}"
        for c in range(model.ncols)
        if model.objective[c] != 0.0
    ]
    lines.append("  " + " ".join(terms))
    lines.append("subject to")
    for row in model.rows:
        label = row.kind + "_" + "_".join(str(k) for k in row.key)
        body = " ".join(
            f"{v:+.12g} {model.col_name(c)}" for c, v in zip(row.cols, row.vals)
        )
        lines.append(f"  {label}: {body} {row.sense} {row.rhs:.12g}")
    lines.append("bounds")
    for c in range(model.ncols):
        lines.append(f"  0 <= {model.col_name(c)} <= {model.upper[c]:.12g}")
    return "\n".join(lines) + "\n"
