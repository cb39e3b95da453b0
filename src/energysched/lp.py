"""Interval-and-speed-indexed LP relaxation.

One variable per (job, speed, interval) triple; a job's variable at speed j
and interval t carries objective coefficient

* energy of running the whole job at speed sigma_j, plus
* ``w_i * tau_{t-1}`` (completion time) or ``w_i * (tau_{t-1} - d_i)^+``
  (tardiness).

Variables whose interval ends before the job could possibly finish are
pinned to zero by an upper bound of 0.  With ``X_i(t)`` the job's mass in
intervals 1..t, the rows are

* ``assign``: each job completes exactly once, ``X_i(T) = 1``;
* ``capacity``: per interval t, the machine time of all mass in 1..t fits
  in ``tau_t``;
* ``prec``: per precedence edge (a, b), the predecessor's prefix mass
  dominates the successor's, ``X_a(t) >= X_b(t)``.

Only the precedence rows that no other row or bound implies are built; the
feasible region is that of the row for every edge and every t:

* an edge in the transitive closure of the other edges gets no rows, since
  prefix dominance is transitive (``X_a >= X_c >= X_b``);
* t = T gets no row, since both prefixes equal 1 by the assign rows;
* t before the successor's first interval with an unpinned column gets no
  row, since the bounds force ``X_b(t) = 0 <= X_a(t)``.

Rounding and evaluation still enforce the full edge set.

:func:`solve_lp` starts the simplex at the vertex of a greedy list schedule
(:func:`start_basis`): job i runs at a grid speed with load ``p_i``, completes
at ``C_i``, and sits at ``x_{i,j_i,t_i} = 1`` with t_i the first interval whose
end is at least C_i (capped at T).  That point is feasible:

* the jobs with t_i <= t complete by ``tau_t`` and run one after another
  from time 0 on, so their loads sum to at most ``tau_t``: capacity row t holds;
* a predecessor completes before its successor, so ``t_a <= t_b`` and
  ``X_a(t) >= X_b(t)`` at every t;
* ``C_i >= r_i + p_i``, so the column is not pinned; and the largest C_i is
  at most the grid's horizon ``max_i r_i + sum_i rho_i / sigma_1``, so T is
  reached only up to rounding.

Its basis, the start column on each assign row and the slack on every other
row, is triangular and so non-singular; the point is therefore a vertex, and
the simplex starts there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, Objective, priority_order
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


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray            # (n, m, T), all >= 0
    objective: float         # LP optimum: a lower bound on the optimal schedule cost
    iterations: int = 0          # simplex work, as in ``simplex.SolveResult``
    bound_flips: int = 0
    degenerate_pivots: int = 0
    bland: bool = False
    kernel_max: int = 0

    def fractional_completion(self, grid: TimeGrid) -> np.ndarray:
        """Per-job expected interval lower bound, sum_jt tau_{t-1} * x_ijt."""
        lowers = np.array([grid.lower(t) for t in range(1, grid.T + 1)])
        return np.einsum("ijt,t->i", self.x, lowers)


def _build(instance: Instance, grid: TimeGrid, tardiness: bool) -> LpModel:
    n, m, T = instance.n, instance.speedset.m, grid.T
    index = VarIndex(n, m, T)
    jobs = instance.jobs
    speeds = np.array(instance.speedset.speeds)
    rho = np.array([job.rho for job in jobs], dtype=float)
    weight = np.array([job.weight for job in jobs])
    release = np.array([job.release for job in jobs])
    tau = np.array(grid.tau)

    if tardiness:
        deadline = np.array([job.deadline for job in jobs])
        sched = weight[:, None] * np.maximum(tau[:-1] - deadline[:, None], 0.0)
    else:
        sched = weight[:, None] * tau[:-1]
    obj = (instance.energy_costs[:, :, None] + sched[:, None, :]).ravel()

    # a column is pinned when its interval ends before the job can finish
    load = rho[:, None] / speeds                                   # (n, m)
    free = tau[1:] >= ((release[:, None] + load) * (1 - 1e-12))[:, :, None]
    upper = free.ravel().astype(float)
    job_free = free.any(axis=1)                                    # (n, T)
    for i in np.flatnonzero(~job_free.any(axis=1)):
        raise InfeasibleHorizonError(
            f"job {jobs[i].id} cannot complete within the grid horizon "
            f"(tau_T = {grid.tau[-1]}, needs {jobs[i].release + jobs[i].rho / speeds[-1]})"
        )

    block = np.arange(index.ncols).reshape(n, m, T)   # block[i, j, t - 1] = index.col(i, j, t)
    rows = [
        Row("assign", (job.id,), block[i].ravel(), np.ones(m * T), "=", 1.0)
        for i, job in enumerate(jobs)
    ]
    for t in range(1, T + 1):
        rows.append(Row("capacity", (t,), block[:, :, :t].ravel(),
                        np.repeat(load.ravel(), t), "<=", grid.upper(t)))

    first = job_free.argmax(axis=1) + 1     # first interval with an unpinned column
    pos = {job.id: i for i, job in enumerate(jobs)}
    signs = np.tile([1.0, -1.0], m * T)      # every prec row's values are a prefix of it
    signs.flags.writeable = False
    for a, b in instance.precedence.transitive_reduction():
        pair = np.stack([block[pos[a]], block[pos[b]]], axis=-1)   # (m, T, 2)
        for t in range(first[pos[b]], T):
            rows.append(Row("prec", (a, b, t), pair[:, :t].ravel(), signs[: 2 * m * t], ">=", 0.0))

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


def _flat_rows(rows):
    """Every row's length, and the column indices and values of all rows end to end."""
    lengths = np.array([len(row.cols) for row in rows], dtype=np.intp)
    cols = np.concatenate([row.cols for row in rows])
    return lengths, cols, np.concatenate([row.vals for row in rows], dtype=float)


def constraint_arrays(model: LpModel):
    """The rows as a dense matrix ``A``, a list of senses and a vector ``b``."""
    rows = model.rows
    lengths, cols, vals = _flat_rows(rows)
    A = np.zeros((len(rows), model.ncols))
    A[np.repeat(np.arange(len(rows)), lengths), cols] = vals
    b = np.array([row.rhs for row in rows], dtype=float)
    return A, [row.sense for row in rows], b


def start_basis(model: LpModel) -> np.ndarray:
    """The simplex start at the vertex of a greedy list schedule.

    Jobs run back to back in a precedence-feasible order, each at the speed
    index ``j_i`` minimising its energy plus the total weight times its load,
    and start at ``max(release, previous completion)``.  Completion-time LPs
    take the largest weight-to-load ratio first (Smith's rule), tardiness
    LPs the earliest deadline; ties go to the lowest position.  Returns, per
    row, the column basic on it: ``(i, j_i, t_i)`` on assign row i, with t_i
    the first interval whose end ``tau_t`` is at least the completion time
    (at most T), and -1 (the row's slack) on every other row.
    """
    instance, grid = model.instance, model.grid
    jobs, n = instance.jobs, instance.n
    speeds = np.array(instance.speedset.speeds)
    rho = np.array([job.rho for job in jobs], dtype=float)
    weight = np.array([job.weight for job in jobs], dtype=float)
    load = rho[:, None] / speeds
    speed = np.argmin(instance.energy_costs + weight.sum() * load, axis=1)
    p = load[np.arange(n), speed]
    if instance.objective is Objective.TARDINESS:
        rank = [job.deadline for job in jobs]
    else:
        rank = (-weight / p).tolist()

    pos = {job.id: i for i, job in enumerate(jobs)}
    edges = [(pos[a], pos[b]) for a, b in instance.precedence.edges]
    completion = np.zeros(n)
    prev = 0.0
    for i in priority_order(range(n), edges, key=rank.__getitem__):
        prev = completion[i] = max(jobs[i].release, prev) + p[i]

    t = np.minimum(np.searchsorted(np.array(grid.tau[1:]), completion) + 1, grid.T)
    start = np.full(len(model.rows), -1)
    start[:n] = [model.index.col(i, speed[i], t[i]) for i in range(n)]   # the assign rows lead
    return start


def solve_lp(model: LpModel) -> LpSolution:
    """Solve the relaxation with the embedded simplex and certify feasibility."""
    from . import simplex

    A, senses, b = constraint_arrays(model)
    result = simplex.solve(
        model.objective, A, senses, b,
        lower=np.zeros(model.ncols), upper=model.upper.copy(), start=start_basis(model),
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
        iterations=result.iterations,
        bound_flips=result.bound_flips,
        degenerate_pivots=result.degenerate_pivots,
        bland=result.bland,
        kernel_max=result.kernel_max,
    )


def _max_residual(A, senses, b, x) -> float:
    """Largest violation of any row by ``x``; 0.0 when every row holds."""
    senses = np.asarray(senses)
    gap = A @ x - b
    violation = np.where(senses == "=", np.abs(gap), np.where(senses == "<=", gap, -gap))
    return float(violation.max(initial=0.0))


def _distinct(keys: np.ndarray):
    """The distinct keys in ascending order, and each key's index among them.

    ``np.unique(keys, return_inverse=True)`` gives the same, but it argsorts
    the keys and takes about 1.7 times as long on an n = 40 dump's keys.
    """
    ordered = np.sort(keys)
    distinct = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    return distinct, np.searchsorted(distinct, keys)


def _row_bodies(rows, names: list) -> list:
    """Each row's terms ``{v:+.12g} <name>``, joined by spaces.

    Each distinct value and each distinct (value, column) term is formatted
    once.  Values are told apart by their bit pattern, so ``-0.0`` prints
    ``-0`` and ``0.0`` prints ``+0``.
    """
    lengths, cols, vals = _flat_rows(rows)
    bits, value_id = _distinct(vals.view(np.int64))
    values = [f"{v:+.12g} " for v in bits.view(np.float64).tolist()]
    pairs, term_id = _distinct(value_id * len(names) + cols)
    value_of, col_of = np.divmod(pairs, len(names))
    terms = np.array(
        [values[v] + names[c] for v, c in zip(value_of.tolist(), col_of.tolist())], dtype=object
    )
    flat = terms[term_id].tolist()      # every row's terms, end to end
    ends = np.cumsum(lengths).tolist()
    return [" ".join(flat[start:end]) for start, end in zip([0] + ends, ends)]


def lp_dump(model: LpModel) -> str:
    """Human-readable text form: one line per row, named columns x_<id>_<j>_<t>.

    Each distinct row term and each distinct upper bound is formatted once.
    """
    m, T = model.index.m, model.index.T
    names = [
        f"x_{job.id}_{j}_{t}"
        for job in model.instance.jobs for j in range(1, m + 1) for t in range(1, T + 1)
    ]
    objective = " ".join(
        f"{v:+.12g} {names[c]}" for c, v in enumerate(model.objective.tolist()) if v != 0.0
    )
    parts = ["minimize\n  ", objective, "\nsubject to\n"]
    for row, body in zip(model.rows, _row_bodies(model.rows, names)):
        label = row.kind + "_" + "_".join(map(str, row.key))
        parts += (f"  {label}: ", body, f" {row.sense} {row.rhs:.12g}\n")
    parts.append("bounds\n")
    bounds, bound_id = _distinct(model.upper.view(np.int64))
    upper = [f" <= {hi:.12g}\n" for hi in bounds.view(np.float64).tolist()]
    for name, k in zip(names, bound_id.tolist()):
        parts += ("  0 <= ", name, upper[k])
    return "".join(parts)
