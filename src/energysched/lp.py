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

``LpModel`` keeps the structure of these rows: ``load`` (n x m, the machine
time ``rho_i / sigma_j``), ``src`` and ``dst`` (the job positions of each
reduced edge) and ``first`` (per job, its first interval with an unpinned
column), with T from the grid.  ``build_lp`` builds no ``Row``: ``rows`` is
built from the structure on its first read and kept.  A solve reads it, in
:func:`constraint_arrays` and :func:`start_basis`; :func:`lp_dump` writes the
rows from the structure and the list-schedule start is found from it, so
neither ever reads ``rows``.

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

import functools
from collections.abc import Sequence
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
    rows: Sequence           # of Row, built on first read; lp_dump and the start never read it
    start: np.ndarray        # (n,) the list-schedule column of each job, basic on its assign row
    load: np.ndarray         # (n, m) rho_i / sigma_j, each capacity row's value on (i, j, t)
    src: np.ndarray          # (E,) intp position of each reduced edge's predecessor
    dst: np.ndarray          # (E,) intp position of its successor
    first: np.ndarray        # (n,) each job's first interval with an unpinned column

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
    first = job_free.argmax(axis=1) + 1     # first interval with an unpinned column
    pos = {job.id: i for i, job in enumerate(jobs)}
    edges = instance.precedence.reduced_edges
    src = np.array([pos[a] for a, _ in edges], dtype=np.intp)
    dst = np.array([pos[b] for _, b in edges], dtype=np.intp)

    # the list schedule's vertex (module docstring)
    speed = np.argmin(instance.energy_costs + weight.sum() * load, axis=1)
    p = load[np.arange(n), speed]
    rank = (instance.due if instance.objective is Objective.TARDINESS else -weight / p).tolist()
    completion = np.zeros(n)
    prev = 0.0
    for i in priority_order(range(n), zip(src.tolist(), dst.tolist()), key=rank.__getitem__):
        prev = completion[i] = max(release[i], prev) + p[i]
    t = np.minimum(np.searchsorted(tau[1:], completion) + 1, T)
    start = block[np.arange(n), speed, t - 1]

    rows = _Rows((instance, grid, load, src, dst, first))
    return LpModel(instance, grid, obj, upper, rows, start, load, src, dst, first)


def _build_rows(instance: Instance, grid: TimeGrid, load, src, dst, first) -> tuple:
    """The rows of the LP with this structure (module docstring), one ``Row``
    each: the assign rows, then capacity, then prec."""
    n, m, T = instance.n, instance.speedset.m, grid.T
    block = np.arange(n * m * T).reshape(n, m, T)   # block[i, j, t - 1] is column (i, j, t)
    ones = np.ones(m * T)                   # every assign row's values
    ones.flags.writeable = False
    rows = [Row("assign", (job.id,), block[i].ravel(), ones, "=", 1.0)
            for i, job in enumerate(instance.jobs)]
    for t in range(1, T + 1):
        rows.append(Row("capacity", (t,), block[:, :, :t].ravel(),
                        np.repeat(load.ravel(), t), "<=", grid.tau[t]))

    edges = instance.precedence.reduced_edges
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
    return tuple(rows)


class _Rows(Sequence):
    """``LpModel.rows`` as ``build_lp`` leaves it: :func:`_build_rows` of the
    LP's structure, called on the first ``len``, iteration or index and kept."""

    def __init__(self, structure: tuple):
        self._structure = structure

    @functools.cached_property
    def _rows(self) -> tuple:
        return _build_rows(*self._structure)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        return self._rows[index]

    def __iter__(self):
        return iter(self._rows)     # not Sequence's, which indexes one row at a time


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
    if not residual <= limit:               # nan fails too
        raise RuntimeError(f"LP solution residual {residual} exceeds {limit}")
    x3 = x.reshape(model.instance.n, model.instance.speedset.m, model.grid.T)
    mass = x3.sum(axis=(1, 2))
    if not np.all(np.abs(mass - 1.0) <= 1e-7):
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


def _lines(labels, strings, ends, tails):
    """Row r's pieces, row after row: ``labels[r]``, then ``strings[r, j][:ends[r, j]]``
    for each j, then ``tails[r]``; ``strings`` and ``ends`` are (rows, k) arrays."""
    cut = [s[:e] for s, e in zip(strings.ravel().tolist(), ends.ravel().tolist())]
    k = strings.shape[1]
    columns = [labels, *(cut[j::k] for j in range(k)), tails]
    pieces = [None] * sum(map(len, columns))
    for c, column in enumerate(columns):
        pieces[c::len(columns)] = column
    return pieces


def lp_dump(model: LpModel) -> str:
    """Human-readable text form: one line per row, named columns x_<id>_<j>_<t>.

    The rows are written from the structure (module docstring), never from
    ``model.rows``.  Each term is formatted with its trailing space.  Every
    (i, j) block's T capacity terms ``{load:+.12g} x_<id>_<j>_<t>`` are joined
    once, and so is, per reduced edge and speed, the run of T pairs of a
    ``+1`` predecessor and a ``-1`` successor term.  A capacity row t is then
    the t-prefix of every block and a prec row (a, b, t) the t-prefix of each
    of its edge's runs, the prefix ends being cumulative sums of term
    lengths.  Bounds are formatted once per bit pattern: ``-0.0 == 0.0``, yet
    they print ``-0`` and ``0``.
    """
    n, m, T = *model.load.shape, model.grid.T
    ids = [job.id for job in model.instance.jobs]
    suffixes = np.array([f"{j}_{t}" for j in range(1, m + 1) for t in range(1, T + 1)],
                        dtype=object)
    names = (np.array([f"x_{i}_" for i in ids], dtype=object)[:, None] + suffixes).ravel()
    name_len = np.fromiter(map(len, names), dtype=np.intp, count=names.size).reshape(n, m, T)

    nonzero = np.flatnonzero(model.objective)
    terms = [None] * (2 * nonzero.size)
    terms[::2] = model.objective[nonzero].tolist()
    terms[1::2] = names[nonzero].tolist()
    pieces = ["minimize\n  " + " ".join(["%+.12g %s"] * nonzero.size) % tuple(terms)
              + "\nsubject to\n"]
    pieces += [f"  assign_{i}: +1 " + " +1 ".join(block) + " = 1\n"
               for i, block in zip(ids, names.reshape(n, m * T).tolist())]

    loads = [f"{v:+.12g} " for v in model.load.ravel().tolist()]
    blocks = np.array([v + (" " + v).join(block) + " "
                       for v, block in zip(loads, names.reshape(n * m, T).tolist())], dtype=object)
    ends = np.cumsum(name_len.reshape(n * m, T) + [[len(v) + 1] for v in loads], axis=1)
    pieces += _lines([f"  capacity_{t}: " for t in range(1, T + 1)],
                     np.broadcast_to(blocks, (T, n * m)), ends.T,
                     [f"<= {tau:.12g}\n" for tau in model.grid.tau[1:]])

    # an edge's run at speed j: "+1 <a's name> -1 <b's name> " for t = 1..T
    head, tail = ("+1 " + names + " -1 ").reshape(n, m, T), (names + " ").reshape(n, m, T)
    runs = np.stack([head[model.src], tail[model.dst]], axis=-1).reshape(-1, 2 * T).tolist()
    runs = np.array(list(map("".join, runs)), dtype=object).reshape(-1, m)
    ends = np.cumsum(name_len[model.src] + name_len[model.dst] + 8, axis=2)
    # prec row k is edge[k]'s at interval t[k], t running from the successor's first
    count = T - model.first[model.dst]
    edge = np.repeat(np.arange(count.size), count)
    t = np.arange(edge.size) + np.repeat(T - np.cumsum(count), count)
    labels = np.array([f"  prec_{ids[a]}_{ids[b]}_" for a, b in
                       zip(model.src.tolist(), model.dst.tolist())], dtype=object)
    t_labels = np.array([f"{t}: " for t in range(T)], dtype=object)
    pieces += _lines((labels[edge] + t_labels[t]).tolist(), runs[edge],
                     ends[edge, :, t - 1], [">= 0\n"] * edge.size)

    bits, bound_id = np.unique(model.upper.view(np.int64), return_inverse=True)
    upper = np.array([f" <= {hi:.12g}\n" for hi in bits.view(np.float64).tolist()],
                     dtype=object)
    pieces.append("bounds\n")
    pieces += (("  0 <= " + names) + upper[bound_id]).tolist()
    return "".join(pieces)
