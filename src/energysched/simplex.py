"""Self-contained bounded-variable primal simplex.

A revised simplex sized for desk-scale models (up to a few thousand
columns).  The problem is put in standard form with a slack per inequality
row and an artificial per row.  Those "logical" columns are each a signed
unit vector ``±e_row``, so their part of the basis and of its inverse is
known without arithmetic; they are never stored, only the structural
columns of ``A`` are.

**The basis in block form.**  Let J be the structural columns in the basis
and K the rows on which no logical is basic (|K| = |J| = k); every other row
l in L carries exactly one basic logical, with sign ``D_l = ±1``.  Ordering
the rows K, L and the columns J, L gives

    B = [[B11, 0], [A[L, J], D]],     B11 = A[K, J]  (k x k),

so only the structural kernel B11 needs an inverse, kept dense in a
preallocated buffer (Suhl & Suhl, 1990, *Computing sparse LU factorizations
for large-scale linear programming bases*, split off the logical part in the
same way).  With ``D^-1 = D``:

* FTRAN of a column a: ``w_J = B11^-1 a_K``, then ``w_L = D (a_L - A[L, J] w_J)``;
* BTRAN of costs c: ``y_K = (c_J - (D c_L)^T A[L, J]) B11^-1`` and ``y_L = D c_L``,
  which is zero in phase 2, where logicals cost nothing.

On the pipeline LPs most basics are slacks, so k is a fraction of the row
count r: over the 48 LPs of the benchmark's solve-mid list at seed 11, k
peaks at 41 on average, on 135 rows on average; at n = 40 jobs it peaks at
363 of 1025.  Work per pivot is O(k^2 + r k) plus pricing, against O(r^2)
for an explicit B^-1.

**Basis changes.**  Each is one of four cases, all O(k^2 + r):

* a structural replaces a structural: a rank-1 Gauss-Jordan update of
  B11^-1 (the product form of Dantzig & Orchard-Hays, 1954);
* a structural replaces the logical of row l: row l and the column join the
  kernel, and B11^-1 grows by one bordered row and column through the Schur
  complement ``a_l - A[l, J] w_J``;
* a logical of kernel row i replaces a structural: row i and the column
  leave, and B11^-1 shrinks by the inverse-of-a-minor formula; the last row
  and column move into the freed places;
* the logical of kernel row i replaces the logical of row l: kernel row i
  gives way to row l, a rank-1 row update of B11^-1.  A logical never
  replaces the other logical of its own row: in phase 2 the dual of a row
  carrying a logical is 0, so no logical of it is priced in, and in phase 1
  a row carries its artificial only when its slack was infeasible at the
  start, so the two have opposite signs and the slack's reduced cost is +1.

Every update adds rounding error to B11^-1 and to x, so every
:data:`REFACTOR_EVERY` basis changes both are rebuilt from scratch with one
k x k inverse: ``x_J = B11^-1 (b - A_N x_N)_K`` and ``x_L = D (b - A_N x_N -
A[:, J] x_J)_L``.  Nonbasic logicals rest at zero.

Given a ``start`` basis (one column per row: a structural, or the row's own
slack), :func:`solve` checks that its basic solution is primal feasible,
fixes every artificial at zero and goes straight to phase 2.  The caller
vouches for the start, so a singular or infeasible one raises ``ValueError``
rather than falling back to phase 1.  ``lp.solve_lp`` starts at the vertex
of a list schedule (the ``lp.py`` docstring gives why it is one), which
removes phase 1 from every pipeline LP and shortens phase 2 as well.

Without a start, phase 1 starts from the slack ("crash") basis of Bixby
(1992), *Implementing the simplex method: the initial basis*.  Every
inequality row whose slack is feasible at the starting point -- a ``<=`` row
with ``b - A lo >= 0`` or a ``>=`` row with ``b - A lo <= 0`` -- starts on its
slack, and its artificial is fixed at zero so it is never priced.  Only the
equality rows and the rows whose slack would be negative start on an
artificial.  The crash basis has k = 0, and both phases run through the same
kernel.

Nonbasic variables rest at either bound; the ratio test allows bound flips.
Pricing is largest-reduced-cost with lowest-index tie-breaks, falling back to
Bland's rule once a run of degenerate pivots is detected, so every solve is
deterministic and terminates.  Column indices, for the tie-breaks, number
the structurals first, then the slacks in row order, then the artificials.

The entry point :func:`solve` takes the problem in row form

    minimize c @ x   s.t.   A x (sense) b,   lower <= x <= upper

with senses drawn from ``{"=", "<=", ">="}``.  Infinite uppers are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: basis changes between rebuilds of B11^-1 and x from scratch
REFACTOR_EVERY = 64

#: smallest |entry| of the entering column accepted as a pivot
PIVOT_TOL = 1e-10

#: step lengths within this distance count as ties in the ratio test
TIE_TOL = 1e-12


class SimplexError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    feasibility_tolerance: float = 1e-9
    optimality_tolerance: float = 1e-9
    max_iterations: int = 1_000_000

    def __post_init__(self):
        if self.feasibility_tolerance <= 0 or self.optimality_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class SolveResult:
    status: str                  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: np.ndarray | None
    objective: float | None
    phase1_iterations: int
    phase2_iterations: int = 0
    bound_flips: int = 0         # steps that moved the entering column from bound to bound
    degenerate_pivots: int = 0   # basis changes with a zero step
    bland: bool = False          # a degenerate run switched pricing to Bland's rule
    kernel_max: int = 0          # largest structural kernel k reached

    @property
    def iterations(self) -> int:
        return self.phase1_iterations + self.phase2_iterations


def solve(c, A, senses, b, lower=None, upper=None, config: SolverConfig | None = None,
          start=None) -> SolveResult:
    """Solve the LP; ``start`` is an optional primal feasible starting basis.

    ``start[k]`` is the structural column basic on row k, or -1 for row k's
    own slack.  With a start, phase 1 is skipped; a start whose basis is
    singular or whose basic solution breaks a bound raises ``ValueError``.
    """
    cfg = config or SolverConfig()
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    nrows, ncols = A.shape
    if lower is None:
        lower = np.zeros(ncols)
    if upper is None:
        upper = np.full(ncols, np.inf)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    sign_of = {"<=": 1.0, ">=": -1.0, "=": 0.0}
    for s in senses:
        if s not in sign_of:
            raise ValueError(f"unknown row sense {s!r}")
    row_sign = np.array([sign_of[s] for s in senses])
    slack_rows = np.flatnonzero(row_sign)
    nslack = len(slack_rows)
    nstd = ncols + nslack
    nall = nstd + nrows
    # the logical columns ncols + l: a slack per inequality row, then an
    # artificial per row signed so that it is feasible at the lower bounds
    resid = b - A @ lower
    lrow = np.concatenate([slack_rows, np.arange(nrows)])
    lsign = np.concatenate([row_sign[slack_rows], np.where(resid >= 0, 1.0, -1.0)])
    lo = np.concatenate([lower, np.zeros(nslack + nrows)])
    hi = np.concatenate([upper, np.full(nslack + nrows, np.inf)])
    at_upper = np.zeros(nall, dtype=bool)
    feas_tol = cfg.feasibility_tolerance * max(1.0, np.abs(b).max(initial=0.0))
    work = {"bound_flips": 0, "degenerate_pivots": 0, "bland": False}
    slack_of = nstd + np.arange(nrows)      # each row's slack; an equality row's artificial
    slack_of[slack_rows] = ncols + np.arange(nslack)

    def result(status, iters1, iters2=0, x=None):
        objective = None if x is None else float(c @ x)
        return SolveResult(status, x, objective, iters1, iters2, **work, kernel_max=kernel.kmax)

    if start is None:
        # slack crash: a row whose slack is feasible at the starting point
        # starts on that slack, and its artificial is fixed at zero; every
        # other row starts on its artificial
        crash = (row_sign != 0) & (resid * row_sign >= 0)
        hi[nstd + np.flatnonzero(crash)] = 0.0
        kernel = _Kernel(A, lrow, lsign, np.where(crash, slack_of, nstd + np.arange(nrows)), [], [])

        # phase 1: drive the artificials to zero
        cost = np.zeros(nall)
        cost[nstd:] = 1.0
        x = _factor(kernel, b, lo, hi, at_upper)
        status, iters1 = _iterate(kernel, b, cost, lo, hi, x, at_upper, cfg, 1, work)
        if status == "iteration_limit":
            return result(status, iters1)
        x = _factor(kernel, b, lo, hi, at_upper)
        if cost @ x > feas_tol:
            return result("infeasible", iters1)
    else:
        rows, cols = _start_kernel(start, ncols, row_sign)
        kernel = _Kernel(A, lrow, lsign, slack_of, rows, cols)
        try:
            x = _factor(kernel, b, lo, hi, at_upper)
        except SimplexError as exc:
            raise ValueError(f"start basis is singular: {exc}") from exc
        basic = kernel.basic_cols()
        xb = x[basic]
        gap = np.maximum(lo[basic] - xb, xb - hi[basic]).max(initial=0.0)
        if not gap <= feas_tol:
            raise ValueError(f"start basis is not primal feasible: a basic variable "
                             f"is {gap} outside its bounds (tolerance {feas_tol})")
        iters1 = 0

    # phase 2: pin the artificials at zero and optimize the real objective
    lo[nstd:] = 0.0
    hi[nstd:] = 0.0
    cost = np.zeros(nall)
    cost[:ncols] = c
    status, iters2 = _iterate(kernel, b, cost, lo, hi, x, at_upper, cfg, 2, work)
    return result(status, iters1, iters2, x[:ncols] if status == "optimal" else None)


def _start_kernel(start, ncols, row_sign):
    """The kernel rows and their structural columns of a ``start`` given per row."""
    start = np.asarray(start, dtype=int)
    if start.shape != row_sign.shape:
        raise ValueError(f"start has shape {start.shape}, expected ({len(row_sign)},)")
    if np.any((start < -1) | (start >= ncols)):
        raise ValueError("start names a column outside the structurals")
    if np.any((start == -1) & (row_sign == 0)):
        raise ValueError("start puts an equality row on a slack it does not have")
    rows = np.flatnonzero(start >= 0)
    return rows, start[rows]


class _Kernel:
    """The basis in block form: B11^-1 of the structural kernel, logicals implicit.

    A basic slot is a row (slots 0..r-1, its basic logical) or a kernel
    position p (slot r + p).  Position p pairs structural column ``cols[p]``
    (of J) with row ``rows[p]`` (of K); ``inv[:k, :k]`` is B11^-1, its rows
    indexed by column position and its columns by row position, and
    ``AJt[p]`` is ``A[:, cols[p]]``.  ``logical[i]`` is the logical column
    basic on row i and ``dsign[i]`` its sign; on a kernel row dsign is 0 and
    ``logical`` names the row's artificial, which is then nonbasic at zero.
    """

    def __init__(self, A, lrow, lsign, logical, rows, cols):
        nrows, ncols = A.shape
        cap = min(nrows, ncols)
        self.A, self.nrows, self.ncols = A, nrows, ncols
        self.lrow, self.lsign = lrow, lsign
        self.inv = np.empty((cap, cap))
        self.outer = np.empty((cap, cap))
        self.AJt = np.empty((cap, nrows))
        self.basic = np.empty(nrows + cap, dtype=np.intp)   # the column in each slot
        self.logical, self.cols = self.basic[:nrows], self.basic[nrows:]
        self.w = np.empty(nrows + cap)                      # FTRAN, by slot
        self.rows = np.empty(cap, dtype=np.intp)
        self.kpos = np.full(nrows, -1)
        self.artificial = ncols + len(lrow) - nrows + np.arange(nrows)
        self.logical[:] = logical
        self.dsign = lsign[self.logical - ncols]
        k = self.k = self.kmax = len(rows)
        self.cols[:k], self.rows[:k] = cols, rows
        self.kpos[rows] = np.arange(k)
        self.AJt[:k] = A[:, cols].T
        self.dsign[rows] = 0.0
        self.logical[rows] = self.artificial[rows]

    def basic_cols(self) -> np.ndarray:
        return self.basic[:self.nrows + self.k]

    def in_basis(self, nall: int) -> np.ndarray:
        basic = np.zeros(nall, dtype=bool)
        basic[self.cols[:self.k]] = True
        basic[self.logical[self.dsign != 0]] = True
        return basic

    def ftran(self, a):
        """The column ``w = B^-1 a`` by slot, and ``a - A[:, J] w_J``."""
        r, k = self.nrows, self.k
        w = self.w[:r + k]
        wJ = w[r:]
        np.matmul(self.inv[:k, :k], a[self.rows[:k]], out=wJ)
        wr = a - wJ @ self.AJt[:k]
        np.multiply(self.dsign, wr, out=w[:r])
        return w, wr

    def btran(self, cost) -> np.ndarray:
        """The duals ``y = c_B B^-1``."""
        k = self.k
        y = self.dsign * cost[self.logical]
        u = cost[self.cols[:k]]
        if y.any():
            u = u - self.AJt[:k] @ y
        y[self.rows[:k]] = u @ self.inv[:k, :k]
        return y

    def change(self, slot, q, a, w, wr):
        """Column ``q`` (dense column ``a``, with ``w, wr`` from :meth:`ftran`)
        replaces the basic of ``slot``."""
        r, k, ncols, inv = self.nrows, self.k, self.ncols, self.inv
        wJ = w[r:]
        outer = self.outer[:k, :k]
        if q >= ncols:
            i = self.lrow[q - ncols]             # the entering logical's row
            qsign = self.lsign[q - ncols]
        if slot >= r and q < ncols:              # structural for structural
            p = slot - r
            piv = inv[p, :k] / wJ[p]
            np.multiply.outer(wJ, piv, out=outer)
            inv[:k, :k] -= outer
            inv[p, :k] = piv
            self.cols[p] = q
            self.AJt[p] = a
        elif slot >= r:                          # logical of kernel row i for structural
            p, pi, last = slot - r, self.kpos[i], k - 1
            np.multiply.outer(inv[:k, pi], inv[p, :k] / inv[p, pi], out=outer)
            inv[:k, :k] -= outer
            self.kpos[i] = -1
            if p != last:                        # the last position fills the gap
                inv[p, :k] = inv[last, :k]
                self.cols[p] = self.cols[last]
                self.AJt[p] = self.AJt[last]
            if pi != last:
                inv[:last, pi] = inv[:last, last]
                self.rows[pi] = self.rows[last]
                self.kpos[self.rows[pi]] = pi
            self.k = last
            self.logical[i], self.dsign[i] = q, qsign
        elif q < ncols:                          # structural for the logical of row l
            l = slot
            s = wr[l]
            z = self.AJt[:k, l] @ inv[:k, :k]
            np.multiply.outer(wJ, z / s, out=outer)
            inv[:k, :k] += outer
            inv[:k, k] = -wJ / s
            inv[k, :k] = -z / s
            inv[k, k] = 1.0 / s
            self.cols[k], self.rows[k], self.kpos[l] = q, l, k
            self.AJt[k] = a
            self.logical[l], self.dsign[l] = self.artificial[l], 0.0
            self.k = k + 1
            self.kmax = max(self.kmax, k + 1)
        else:                                    # kernel row i gives way to row l
            l, pi = slot, self.kpos[i]
            z = self.AJt[:k, l] @ inv[:k, :k]
            col = inv[:k, pi] / z[pi]
            np.multiply.outer(col, z, out=outer)
            inv[:k, :k] -= outer
            inv[:k, pi] = col
            self.rows[pi], self.kpos[l], self.kpos[i] = l, pi, -1
            self.logical[l], self.dsign[l] = self.artificial[l], 0.0
            self.logical[i], self.dsign[i] = q, qsign


def _factor(kernel: _Kernel, b, lo, hi, at_upper) -> np.ndarray:
    """Rebuild B11^-1 from scratch and return the point of the basis."""
    k, A = kernel.k, kernel.A
    rows, cols = kernel.rows[:k], kernel.cols[:k]
    try:
        kernel.inv[:k, :k] = np.linalg.inv(A[np.ix_(rows, cols)])
    except np.linalg.LinAlgError as exc:
        raise SimplexError(f"singular basis: {exc}") from exc
    x = np.where(at_upper, np.where(np.isfinite(hi), hi, lo), lo)
    x[cols] = 0.0
    rhs = b - A @ x[:kernel.ncols]      # nonbasic logicals rest at zero
    x[cols] = xJ = kernel.inv[:k, :k] @ rhs[rows]
    # on a kernel row dsign is 0, and logical names a nonbasic artificial
    x[kernel.logical] = kernel.dsign * (rhs - xJ @ kernel.AJt[:k])
    return x


def _iterate(kernel: _Kernel, b, cost, lo, hi, x, at_upper, cfg: SolverConfig,
             phase: int, work: dict):
    """Pivot from the kernel's basis to a final status.

    ``x`` enters as the point of the basis; it, ``at_upper`` and the kernel
    are updated in place, and ``work`` counts bound flips, degenerate pivots
    and whether Bland's rule took over.
    """
    nrows, ncols = len(b), kernel.ncols
    tol = cfg.optimality_tolerance
    degen_run = 0
    bland = False
    # only columns that can move are priced: fixed ones never enter
    cols = np.flatnonzero(hi - lo > PIVOT_TOL)
    ns = int(np.searchsorted(cols, ncols))          # cols[:ns] are structurals
    At = np.ascontiguousarray(kernel.A[:, cols[:ns]].T)
    lrow, lsign = kernel.lrow[cols[ns:] - ncols], kernel.lsign[cols[ns:] - ncols]
    cost_cols = cost[cols]
    position = np.full(len(lo), -1)         # of each column in cols
    position[cols] = np.arange(len(cols))
    # +1 at lower, -1 at upper, 0 when basic: the eligible columns are those
    # with direction * d < -tol, and the most negative has the largest |d|
    direction = np.where(kernel.in_basis(len(lo))[cols], 0.0, np.where(at_upper[cols], -1.0, 1.0))
    score = np.empty(len(cols))
    since_refactor = 0

    for it in range(cfg.max_iterations):
        if since_refactor >= REFACTOR_EVERY:
            x[...] = _factor(kernel, b, lo, hi, at_upper)
            since_refactor = 0

        y = kernel.btran(cost)
        np.matmul(At, y, out=score[:ns])
        np.multiply(lsign, y[lrow], out=score[ns:])
        np.subtract(cost_cols, score, out=score)   # the reduced costs
        score *= direction
        j = int((score < -tol).argmax()) if bland else int(score.argmin())
        if not score[j] < -tol:
            return "optimal", it
        q = int(cols[j])
        sign = direction[j]                  # entering moves up from lower / down from upper
        if j < ns:
            a = At[j]
        else:
            a = np.zeros(nrows)
            a[lrow[j - ns]] = lsign[j - ns]
        w, wr = kernel.ftran(a)

        # ratio test over the steps above PIVOT_TOL: the basic that first
        # hits a bound; among steps within TIE_TOL of the shortest, the
        # lowest column index leaves
        basic = kernel.basic_cols()
        slots = (np.abs(w) > PIVOT_TOL).nonzero()[0]
        step = sign * w[slots]               # x_B decreases by step * t
        moving = basic[slots]
        xb = x[moving]
        ratio = np.where(step > 0, xb - lo[moving], hi[moving] - xb) / np.abs(step)
        np.maximum(ratio, 0.0, out=ratio)
        t_best = ratio.min() if len(slots) else np.inf
        leave = -1                           # -1: bound flip of the entering column
        if t_best < np.inf:
            ties = (ratio <= t_best + TIE_TOL).nonzero()[0]
            leave = int(ties[moving[ties].argmin()])
            t_best = ratio[leave]
        if hi[q] - lo[q] < t_best - TIE_TOL:
            t_best = hi[q] - lo[q]
            leave = -1
        if not t_best < np.inf:
            return ("infeasible" if phase == 1 else "unbounded"), it

        degen_run = degen_run + 1 if t_best <= TIE_TOL else 0
        if degen_run > 3 * nrows and not bland:
            bland = work["bland"] = True

        x[basic] -= (t_best * sign) * w
        if leave == -1:
            at_upper[q] = ~at_upper[q]
            x[q] = hi[q] if at_upper[q] else lo[q]
            direction[j] = -direction[j]
            work["bound_flips"] += 1
            continue
        if t_best <= TIE_TOL:
            work["degenerate_pivots"] += 1
        x[q] += sign * t_best
        bl = moving[leave]
        # leaving variable parks at whichever of its bounds the ratio test hit
        at_upper[bl] = step[leave] < 0
        x[bl] = hi[bl] if at_upper[bl] else lo[bl]
        at_upper[q] = False
        direction[j] = 0.0
        if position[bl] >= 0:
            direction[position[bl]] = -1.0 if at_upper[bl] else 1.0
        kernel.change(int(slots[leave]), q, a, w, wr)
        since_refactor += 1

    return "iteration_limit", cfg.max_iterations
