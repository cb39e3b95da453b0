"""Interval-and-speed-indexed LP relaxation.

One variable per (job, speed, interval) triple.  Jobs and speeds are
zero-based positions i < n and j < m, intervals one-based t <= T, and column
(i, j, t) is ``(i*m + j)*T + t - 1``, so a solution reshapes to (n, m, T).
The variable at speed j and interval t carries objective coefficient

* energy of running the whole job at speed sigma_j, plus
* ``w_i * (tau_{t-1} - d_i)^+``, with d_i the deadline under tardiness and
  d_i = 0 under completion time (``Instance.due``); every
  ``tau_{t-1} >= kappa > 0``, so the latter is ``w_i * tau_{t-1}``.

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

``build_lp`` also finds the vertex of a greedy list schedule, kept as
``LpModel.start``, and :func:`solve_lp` starts the simplex there.  Job i runs
at the speed index j_i minimising its energy plus the total weight times its
load ``p_i = rho_i / sigma_{j_i}``.  The jobs run back to back: of the jobs
whose predecessors are all placed, completion-time LPs take the largest
``w_i / p_i`` next (Smith's rule), tardiness LPs the earliest deadline, ties
to the lowest position.  The order reads the reduced edges, whose transitive
closure is the full set's, so the same jobs are ready at every step.  Job i
starts at ``max(r_i, previous completion)``, completes at ``C_i``, and sits at
``x_{i,j_i,t_i} = 1`` with t_i the first interval whose end is at least C_i
(capped at T).  That point is feasible:

* the jobs with t_i <= t complete by ``tau_t`` and run one after another
  from time 0 on, so their loads sum to at most ``tau_t``: capacity row t holds;
* a predecessor completes before its successor, so ``t_a <= t_b`` and
  ``X_a(t) >= X_b(t)`` at every t;
* ``C_i >= r_i + p_i``, so the column is not pinned; and the largest C_i is
  at most the grid's horizon ``max_i r_i + sum_i rho_i / sigma_1``, so T is
  reached only up to rounding.

Its basis, the start column on each assign row and the slack on every other
row, is triangular and so non-singular; the point is therefore a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import simplex
from .instance import Instance, Objective, priority_order
from .timegrid import TimeGrid


class InfeasibleHorizonError(RuntimeError):
    """Some job has every variable pinned to zero: the grid cannot hold it."""


class Row(NamedTuple):
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
    objective: np.ndarray    # (ncols,)
    upper: np.ndarray        # 1.0, or 0.0 for pinned columns
    rows: tuple
    start: np.ndarray        # (n,) the list-schedule column of each job, basic on its assign row

    @property
    def ncols(self) -> int:
        return self.objective.size


class LpSolution(simplex.SolveResult):
    """The simplex result with ``x`` as an (n, m, T) array; ``objective``, the
    LP optimum, is a lower bound on the optimal schedule cost."""

    def fractional_completion(self, grid: TimeGrid) -> np.ndarray:
        """Per-job expected interval lower bound, sum_jt tau_{t-1} * x_ijt."""
        return np.einsum("ijt,t->i", self.x, np.array(grid.tau[:-1]))


def build_lp(instance: Instance, grid: TimeGrid) -> LpModel:
    """The relaxation of ``instance`` on ``grid``, for the instance's objective."""
    n, m, T = instance.n, instance.speedset.m, grid.T
    jobs = instance.jobs
    speeds = np.array(instance.speedset.speeds)
    rho = np.array([job.rho for job in jobs], dtype=float)
    weight = np.array([job.weight for job in jobs], dtype=float)
    release = np.array([job.release for job in jobs])
    tau = np.array(grid.tau)

    sched = weight[:, None] * np.maximum(tau[:-1] - instance.due[:, None], 0.0)
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

    block = np.arange(n * m * T).reshape(n, m, T)   # block[i, j, t - 1] is column (i, j, t)
    ones = np.ones(m * T)                   # every assign row's values
    ones.flags.writeable = False
    rows = [Row("assign", (job.id,), block[i].ravel(), ones, "=", 1.0)
            for i, job in enumerate(jobs)]
    for t in range(1, T + 1):
        rows.append(Row("capacity", (t,), block[:, :, :t].ravel(),
                        np.repeat(load.ravel(), t), "<=", grid.upper(t)))

    first = job_free.argmax(axis=1) + 1     # first interval with an unpinned column
    pos = {job.id: i for i, job in enumerate(jobs)}
    edges = instance.precedence.transitive_reduction()
    src, dst = [pos[a] for a, _ in edges], [pos[b] for _, b in edges]
    # prec row t of edge (a, b) is pair[:, :, :t] flattened, with pair the
    # (m, T, 2) stack of a's and b's columns
    pair = np.stack([block[src], block[dst]], axis=-1)
    cols = [pair[:, :, :t].reshape(len(edges), 2 * m * t) for t in range(T)]
    signs = np.tile([1.0, -1.0], m * T)      # every prec row's values are a prefix of it
    signs.flags.writeable = False
    sign = [signs[: 2 * m * t] for t in range(T)]
    for e, (a, b) in enumerate(edges):
        rows += [Row._make(("prec", (a, b, t), cols[t][e], sign[t], ">=", 0.0))
                 for t in range(first[dst[e]], T)]

    # the list schedule's vertex (module docstring)
    speed = np.argmin(instance.energy_costs + weight.sum() * load, axis=1)
    p = load[np.arange(n), speed]
    rank = (instance.due if instance.objective is Objective.TARDINESS else -weight / p).tolist()
    completion = np.zeros(n)
    prev = 0.0
    for i in priority_order(range(n), zip(src, dst), key=rank.__getitem__):
        prev = completion[i] = max(release[i], prev) + p[i]
    t = np.minimum(np.searchsorted(tau[1:], completion) + 1, T)
    start = block[np.arange(n), speed, t - 1]

    return LpModel(instance, grid, obj, upper, tuple(rows), start)


def _flat(cols, vals):
    """Every row's length, and the column indices and values of all rows end to end."""
    lengths = np.fromiter(map(len, cols), dtype=np.intp, count=len(cols))
    return lengths, np.concatenate(cols), np.concatenate(vals, dtype=float)


def constraint_arrays(model: LpModel):
    """The rows as a dense matrix ``A``, a list of senses and a vector ``b``."""
    _, _, cols, vals, senses, rhs = zip(*model.rows)
    lengths, cols, vals = _flat(cols, vals)
    A = np.zeros((len(lengths), model.ncols))
    # one scatter into the flat matrix, at row offset plus column
    A.ravel()[np.repeat(np.arange(0, A.size, model.ncols), lengths) + cols] = vals
    return A, list(senses), np.array(rhs, dtype=float)


def start_basis(model: LpModel) -> np.ndarray:
    """Per row, the column basic on it at the simplex start: ``model.start``
    on the assign rows, which lead, and -1 (the row's slack) on every other row."""
    start = np.full(len(model.rows), -1)
    start[:model.instance.n] = model.start
    return start


def solve_lp(model: LpModel) -> LpSolution:
    """Solve the relaxation with the embedded simplex and certify feasibility."""
    A, senses, b = constraint_arrays(model)
    result = simplex.solve(model.objective, A, senses, b, upper=model.upper,
                           start=start_basis(model))
    if result.status != "optimal":
        raise RuntimeError(f"LP solve failed with status {result.status!r}")

    x = result.x
    # relative to the right-hand sides: capacity rows grow with the horizon
    limit = 1e-7 * max(1.0, float(np.abs(b).max()))
    residual = _max_residual(A, senses, b, x)
    if residual > limit:
        raise RuntimeError(f"LP solution residual {residual} exceeds {limit}")
    x3 = x.reshape(model.instance.n, model.instance.speedset.m, model.grid.T)
    mass = x3.sum(axis=(1, 2))
    if np.any(np.abs(mass - 1.0) > 1e-7):
        raise RuntimeError(f"per-job mass deviates from 1: {mass}")
    return LpSolution(**{**vars(result), "x": x3})


def _max_residual(A, senses, b, x) -> float:
    """Largest violation of any row by ``x``; 0.0 when every row holds."""
    # the slack sign: gap for "<=", -gap for ">=", and 0 for "=", which takes |gap|
    sign = np.fromiter(map(simplex._SLACK_SIGN.__getitem__, senses), dtype=float,
                       count=len(senses))
    gap = A @ x - b
    violation = np.where(sign == 0.0, np.abs(gap), sign * gap)
    return float(violation.max(initial=0.0))


def _distinct(keys: np.ndarray):
    """The distinct keys in ascending order, and each key's index among them.

    ``np.unique(keys, return_inverse=True)`` gives the same, but it argsorts
    the keys and takes about 1.7 times as long on an n = 40 dump's keys.
    """
    ordered = np.sort(keys)
    distinct = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    return distinct, np.searchsorted(distinct, keys)


def _row_bodies(cols, vals, names: np.ndarray):
    """The term index of the rows with ``cols`` and ``vals``: every row's
    length, a table of the distinct terms `` {v:+.12g} <name>``, and each
    nonzero's cell in that table, rows end to end.

    The table has a cell per distinct value and column, term (v, c) in cell
    ``v * ncols + c``: a nonzero finds its term by arithmetic, with no search
    over the nonzeros, and only the cells some nonzero marks are formatted.
    Values are told apart by their bit pattern, so ``-0.0`` prints ``-0``
    and ``0.0`` prints ``+0``.  An LP of ``build_lp`` has at most n m + 2 of
    them (the loads, 1 and -1), so the table stays small.
    """
    lengths, cols, vals = _flat(cols, vals)
    bits, value_id = _distinct(vals.view(np.int64))
    values = np.array([f" {v:+.12g} " for v in bits.view(np.float64).tolist()], dtype=object)
    cell = value_id * len(names) + cols
    table = np.empty(len(bits) * len(names), dtype=object)
    marked = np.zeros(table.size, dtype=bool)
    marked[cell] = True
    value_of, col_of = np.divmod(np.flatnonzero(marked), len(names))
    table[marked] = values[value_of] + names[col_of]
    return lengths, table, cell


def lp_dump(model: LpModel) -> str:
    """Human-readable text form: one line per row, named columns x_<id>_<j>_<t>.

    Each distinct row term (indexed by :func:`_row_bodies`), each distinct
    row tail (sense and right-hand side) and each distinct upper bound is
    formatted once.  Numbers are keyed by bit pattern: ``-0.0 == 0.0``, yet
    they print ``-0`` and ``0``.  The text is one join over its pieces: the
    objective, each row's label, terms and tail, and a bound line per column.
    """
    m, T = model.instance.speedset.m, model.grid.T
    suffixes = np.array([f"{j}_{t}" for j in range(1, m + 1) for t in range(1, T + 1)],
                        dtype=object)
    prefixes = np.array([f"x_{job.id}_" for job in model.instance.jobs], dtype=object)
    names = (prefixes[:, None] + suffixes).ravel()

    nonzero = np.flatnonzero(model.objective)
    terms = [None] * (2 * nonzero.size)
    terms[::2] = model.objective[nonzero].tolist()
    terms[1::2] = names[nonzero].tolist()
    objective = " ".join(["%+.12g %s"] * nonzero.size) % tuple(terms)

    kinds, keys, cols, vals, senses, rhs = zip(*model.rows)
    lengths, table, cell = _row_bodies(cols, vals, names)
    labels = {k: "  %s_" + "_".join(["%s"] * k) + ":" for k in set(map(len, keys))}
    tail_keys = list(zip(senses, np.array(rhs, dtype=float).view(np.int64).tolist()))
    tails = {key: f" {key[0]} {value:.12g}\n"
             for key, value in dict(zip(tail_keys, rhs)).items()}
    bounds, bound_id = _distinct(model.upper.view(np.int64))
    upper = np.array([f" <= {hi:.12g}\n" for hi in bounds.view(np.float64).tolist()],
                     dtype=object)

    # the objective; per row its label, terms and tail; "bounds"; a line per column
    ends = np.cumsum(lengths + 2)           # each row's tail
    starts = ends - lengths - 1             # each row's label
    pieces = np.empty(ends[-1] + 2 + len(names), dtype=object)
    pieces[0] = "minimize\n  " + objective + "\nsubject to\n"
    is_term = np.zeros(pieces.size, dtype=bool)
    is_term[1:ends[-1]] = True
    is_term[starts] = is_term[ends] = False
    pieces[is_term] = table[cell]
    # a row with no terms keeps both spaces around its empty body
    pieces[starts] = [labels[len(key)] % (kind, *key) + " " * (not length)
                      for kind, key, length in zip(kinds, keys, lengths.tolist())]
    pieces[ends] = list(map(tails.__getitem__, tail_keys))
    pieces[ends[-1] + 1] = "bounds\n"
    pieces[ends[-1] + 2:] = ("  0 <= " + names) + upper[bound_id]
    return "".join(pieces.tolist())
