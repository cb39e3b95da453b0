"""Self-contained bounded-variable primal simplex.

A revised simplex sized for desk-scale models (up to a few thousand
columns).  The problem is put in standard form with a slack per inequality
row.  A slack is a signed unit vector ``±e_row``, so its part of the basis
and of its inverse is known without arithmetic; slacks are never stored,
only the structural columns of ``A`` are.

**The basis in block form.**  Let J be the structural columns in the basis
and K the rows on which no slack is basic (|K| = |J| = k); every other row
l in L carries its own slack, with sign ``D_l = ±1``.  Ordering the rows K,
L and the columns J, L gives

    B = [[B11, 0], [A[L, J], D]],     B11 = A[K, J]  (k x k),

so only the structural kernel B11 needs an inverse, kept as a dense k x k
array that a change of k replaces (Suhl & Suhl, 1990, *Computing sparse LU
factorizations for large-scale linear programming bases*, split off the
logical part in the same way).  With ``D^-1 = D``:

* FTRAN of a column a: ``w_J = B11^-1 a_K``, then ``w_L = D (a_L - A[L, J] w_J)``;
* BTRAN of costs c: ``y_K = c_J B11^-1`` and ``y_L = 0``, as slacks cost
  nothing, so pricing needs only ``A^T y = A[K]^T y_K``, the kernel rows
  ``AK`` (Maros, 2003, *Computational Techniques of the Simplex Method*, ch. 9).

On the pipeline LPs most basics are slacks, so k is a fraction of the row
count r: over the 48 LPs of the benchmark's solve-mid list at seed 11, k
peaks at 41 on average, on 135 rows on average; at n = 40 jobs it peaks at
363 of 1025.  Work per pivot is O(k^2 + r k) plus O(k ncols) for pricing,
against O(r^2 + r ncols) with an explicit B^-1.

The basic variables are kept by slot, a row or a kernel position: x_B,
each basic's upper bound and its column sit in preallocated per-slot
arrays, so the ratio test and the primal update are a fixed run of in-place
numpy calls over every slot, with no gather through the basic columns (the
bounded ratio test of Maros, ch. 9).  The primal update is skipped on a zero
step, and x over the structurals is built only by a rebuild and at exit.
At the solve-mid sizes (k about 40, r about 130) a numpy call costs more in
call overhead than in arithmetic, so the few dozen calls a pivot makes, not
the O(.) term, set its time; from about n = 20 jobs on, the arithmetic of
pricing and of the kernel updates takes over.

**Basis changes.**  Each is one of four cases, all O(k^2 + r):

* a structural replaces a structural: a rank-1 Gauss-Jordan update of
  B11^-1 (the product form of Dantzig & Orchard-Hays, 1954);
* a structural replaces the slack of row l: row l and the column join the
  kernel, and B11^-1 grows by one bordered row and column through the Schur
  complement ``a_l - A[l, J] w_J``;
* the slack of kernel row i replaces a structural: row i and the column
  leave, and B11^-1 shrinks by the inverse-of-a-minor formula; the last row
  and column move into the freed places;
* the slack of kernel row i replaces the slack of row l: kernel row i gives
  way to row l, a rank-1 row update of B11^-1.

Every update adds rounding error to B11^-1 and to x_B, so every
:data:`REFACTOR_EVERY` basis changes both are rebuilt from scratch with one
k x k inverse: ``x_J = B11^-1 (b - A_N x_N)_K`` and ``x_L = D (b - A_N x_N -
A[:, J] x_J)_L``.  Nonbasic slacks rest at zero.

**The start.**  :func:`solve` takes a ``start`` basis, one column per row: a
structural, or the row's own slack.  It checks that the basis is
non-singular and that its basic solution is primal feasible, and raises
``ValueError`` otherwise; there is no phase 1 to fall back to.  Without a
start every row starts on its slack, which needs every row to be an
inequality whose slack is feasible at zero.  ``lp.solve_lp``
starts at the vertex of a list schedule (the ``lp.py`` docstring gives why
it is one).  A kernel row has no basic slack; its slot names one
placeholder column, fixed at zero, that never enters.

Nonbasic variables rest at either bound; the ratio test allows bound flips.
Pricing is largest-reduced-cost with lowest-index tie-breaks, falling back to
Bland's rule once a run of degenerate pivots is detected, so every solve is
deterministic and terminates.  Column indices, for pricing and its
tie-breaks, number the structurals first, then the slacks in row order, then
the placeholder.  The tolerances are module constants: :data:`FEASIBILITY_TOL`,
times ``max(1, max|b|)``, for the start's bounds; :data:`PIVOT_TOL`, times
``max(1, max|w|)``, for pivots; the absolute :data:`OPTIMALITY_TOL` for
reduced costs and :data:`TIE_TOL` for steps.  Because those two are absolute,
each row whose largest |entry| exceeds :data:`ROW_SCALE_MAX` is divided, with
its right-hand side, by that entry before the solve, on a copy; x and the
objective are those of the LP as given.

The entry point :func:`solve` takes the problem in row form

    minimize c @ x   s.t.   A x (sense) b,   0 <= x <= upper

with senses drawn from ``{"=", "<=", ">="}``.  Infinite uppers are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: basis changes between rebuilds of B11^-1 and x from scratch
REFACTOR_EVERY = 64

#: smallest |entry| / max(1, max|entry|) of the entering column taken as a pivot
PIVOT_TOL = 1e-10

#: step lengths within this distance count as ties in the ratio test
TIE_TOL = 1e-12

#: a start's basic variable may break a bound by this times max(1, max|b|)
FEASIBILITY_TOL = 1e-9

#: a column enters only when its reduced cost improves by more than this
OPTIMALITY_TOL = 1e-9

#: a row whose largest |entry| exceeds this is solved divided by that entry
ROW_SCALE_MAX = 1e4


class SimplexError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 1_000_000


@dataclass(frozen=True)
class SolveResult:
    status: str                  # "optimal" | "unbounded" | "iteration_limit"
    x: np.ndarray | None
    objective: float | None
    iterations: int              # pivots and bound flips
    bound_flips: int = 0         # steps that moved the entering column from bound to bound
    degenerate_pivots: int = 0   # basis changes with a zero step
    bland: bool = False          # a degenerate run switched pricing to Bland's rule
    kernel_max: int = 0          # largest structural kernel k reached


#: the slack sign of each row sense; an equality row has no slack
_SLACK_SIGN = {"<=": 1.0, ">=": -1.0, "=": 0.0}


def solve(c, A, senses, b, lower=None, upper=None, config: SolverConfig | None = None,
          start=None) -> SolveResult:
    """Solve the LP from ``start``, a primal feasible basis.

    ``start[k]`` is the structural column basic on row k, or -1 for row k's
    own slack; ``None`` puts every row on its slack.  A start whose basis is
    singular or whose basic solution breaks a bound raises ``ValueError``.
    ``lower`` may only be ``None`` or zeros: every lower bound is 0.
    """
    cfg = config or SolverConfig()
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    nrows, ncols = A.shape
    # sum(a^2) bounds every a^2 and takes one BLAS pass, cheaper than A.max()
    # and A.min() on solve-mid; vdot gives inf on overflow, with no warning
    flat = A.ravel()
    if np.vdot(flat, flat) > ROW_SCALE_MAX ** 2:
        scale = np.abs(A).max(axis=1)
        scale[scale <= ROW_SCALE_MAX] = 1.0
        A, b = A / scale[:, None], b / scale
    if lower is not None and np.any(np.asarray(lower, dtype=float) != 0.0):
        raise ValueError("every lower bound must be 0")
    upper = np.full(ncols, np.inf) if upper is None else np.asarray(upper, dtype=float)
    try:
        row_sign = np.fromiter(map(_SLACK_SIGN.__getitem__, senses), dtype=float)
    except KeyError as exc:
        raise ValueError(f"unknown row sense {exc.args[0]!r}") from None
    nslack = np.count_nonzero(row_sign)
    # the columns: structurals, a slack per inequality row, the placeholder
    hi = np.concatenate([upper, np.full(nslack, np.inf), [0.0]])
    at_upper = np.zeros(len(hi), dtype=bool)
    feas_tol = FEASIBILITY_TOL * max(1.0, np.abs(b).max(initial=0.0))
    work = {"bound_flips": 0, "degenerate_pivots": 0, "bland": False}

    try:
        rows, cols = _start_kernel(np.full(nrows, -1) if start is None else start, ncols, row_sign)
        kernel = _Kernel(A, row_sign, rows, cols, hi, c)
        try:
            _factor(kernel, b, at_upper)
        except SimplexError as exc:
            raise ValueError(f"start basis is singular: {exc}") from exc
        n = nrows + kernel.k
        xb = kernel.xB[:n]
        gap = np.maximum(-xb, xb - kernel.hiB[:n]).max(initial=0.0)
        if not gap <= feas_tol:
            raise ValueError(f"start basis is not primal feasible: a basic variable "
                             f"is {gap} outside its bounds (tolerance {feas_tol})")
    except ValueError as exc:
        if start is not None:
            raise
        raise ValueError(f"{exc} (no start was given, so every row starts on its slack)") from None

    status, iterations = _iterate(kernel, b, at_upper, cfg, work)
    x = kernel.point(at_upper) if status == "optimal" else None
    objective = None if x is None else float(c @ x)
    return SolveResult(status, x, objective, iterations, **work, kernel_max=kernel.kmax)


def _start_kernel(start, ncols, row_sign):
    """The kernel rows and their structural columns of a ``start`` given per row."""
    start = np.asarray(start, dtype=int)
    if start.shape != row_sign.shape:
        raise ValueError(f"start has shape {start.shape}, expected ({len(row_sign)},)")
    if ((start < -1) | (start >= ncols)).any():
        raise ValueError("start names a column outside the structurals")
    if ((start == -1) & (row_sign == 0)).any():
        raise ValueError("start puts an equality row on a slack it does not have")
    rows = (start >= 0).nonzero()[0]
    return rows, start[rows]


class _Kernel:
    """The basis in block form: B11^-1 of the structural kernel, logicals implicit.

    A basic slot is a row (slots 0..r-1, its basic logical) or a kernel
    position p (slot r + p).  Position p pairs structural column ``cols[p]``
    (of J) with row ``rows[p]`` (of K); ``inv`` is B11^-1, a k x k array,
    new whenever k changes, with its rows indexed by column position and
    its columns by row position; ``AJt[p]`` is ``A[:, cols[p]]`` and
    ``AK[p]`` is ``A[rows[p]]``, the row that pricing multiplies by ``yK[p]``.
    ``logical[i]`` is the slack basic on row i and ``dsign[i]`` its sign; on
    a kernel row dsign is 0 and ``logical`` names the placeholder column,
    nonbasic and fixed at zero.  Slack ``ncols + l`` sits on row ``lrow[l]``
    with sign ``lsign[l]``.

    The basic variables live by slot: slot s holds column ``basic[s]`` at
    value ``xB[s]`` below its upper bound ``hiB[s]``, and the FTRAN column
    is ``w[s]``.  A kernel row's slot holds the placeholder at 0 <= 0, and
    every slot past r + k has w = 0, so the ratio test and the primal update
    run over all slots, without a gather or a cut to k.  ``cB[p]`` is the
    cost of ``cols[p]``, and ``y`` holds the duals, zero off the kernel rows.
    """

    def __init__(self, A, row_sign, rows, cols, hi, c):
        nrows, ncols = A.shape
        cap = min(nrows, ncols)
        nslots = nrows + cap
        self.A, self.nrows, self.ncols, self.hi, self.c = A, nrows, ncols, hi, c
        self.lrow = row_sign.nonzero()[0]
        self.lsign = row_sign[self.lrow]
        self.placeholder = ncols + len(self.lrow)
        self.AJt = np.empty((cap, nrows))
        self.AK = np.empty((cap, ncols))
        self.rows = np.empty(cap, dtype=np.intp)
        self.kpos = np.full(nrows, -1)
        self.dsign = row_sign.copy()
        self.cB = np.empty(cap)
        self.y = np.zeros(nrows)
        self.wr = np.empty(nrows)        # a - A[:, J] w_J of the last FTRAN
        self.yK = np.empty(cap)
        # by slot: the basic column, its value and upper bound, the FTRAN
        # column, and the ratio test's scratch
        self.basic = np.full(nslots, self.placeholder)
        self.logical, self.cols = self.basic[:nrows], self.basic[nrows:]
        self.xB = np.zeros(nslots)
        self.hiB = np.zeros(nslots)
        self.w = np.zeros(nslots)
        self.xL, self.wL = self.xB[:nrows], self.w[:nrows]
        self.absw, self.num, self.ratio = np.empty(nslots), np.empty(nslots), np.empty(nslots)
        self.play, self.up = np.empty(nslots, dtype=bool), np.empty(nslots, dtype=bool)
        self.logical[self.lrow] = ncols + np.arange(len(self.lrow))
        k = self.k = self.kmax = len(rows)
        self.inv = np.empty((k, k))
        self.cols[:k], self.rows[:k] = cols, rows
        self.kpos[rows] = np.arange(k)
        self.AJt[:k] = A[:, cols].T
        self.AK[:k] = A[rows]
        self.dsign[rows] = 0.0
        self.logical[rows] = self.placeholder
        self.cB[:k] = c[cols]
        self.hiB[:nrows + k] = hi[self.basic[:nrows + k]]

    def point(self, at_upper) -> np.ndarray:
        """The structurals' values: nonbasics at their bounds, basics from x_B."""
        ncols, r, k = self.ncols, self.nrows, self.k
        x = np.where(at_upper[:ncols], self.hi[:ncols], 0.0)
        x[self.cols[:k]] = self.xB[r:r + k]
        return x

    def ftran(self, a):
        """Fill ``w = B^-1 a`` by slot, and ``wr = a - A[:, J] w_J``."""
        r, k, wr = self.nrows, self.k, self.wr
        wJ = self.w[r:r + k]
        np.matmul(self.inv, a[self.rows[:k]], out=wJ)
        np.matmul(wJ, self.AJt[:k], out=wr)
        np.subtract(a, wr, out=wr)
        np.multiply(self.dsign, wr, out=self.wL)

    def btran(self) -> np.ndarray:
        """The duals ``y = c_B B^-1``; zero off the kernel rows."""
        k = self.k
        self.y[self.rows[:k]] = np.matmul(self.cB[:k], self.inv, out=self.yK[:k])
        return self.y

    def ratio_test(self, sign):
        """The slot whose basic first hits a bound as the entering column moves
        by ``sign`` (x_B falls by ``sign * w`` per unit), and the step.

        Only slots with |w| above PIVOT_TOL times max(1, max|w|) take part,
        so rounding noise in a long column is no pivot; the others get an
        infinite step.  Among steps within TIE_TOL of the shortest, the lowest
        column index leaves.  Returns ``(-1, inf)`` when no basic limits the
        step.
        """
        w, xB, absw, play, num, ratio = self.w, self.xB, self.absw, self.play, self.num, self.ratio
        np.abs(w, out=absw)
        np.greater(absw, PIVOT_TOL * max(1.0, absw.max()), out=play)
        (np.greater if sign > 0 else np.less)(w, 0.0, out=self.up)   # falls to 0
        np.subtract(self.hiB, xB, out=num)
        np.copyto(num, xB, where=self.up)
        ratio.fill(np.inf)
        np.divide(num, absw, out=ratio, where=play)
        # steps are clipped at zero after the minimum: max(., 0) keeps the order
        slot = ratio.argmin()
        t = max(ratio[slot], 0.0)
        if not t < np.inf:
            return -1, t
        ties = np.less_equal(ratio, t + TIE_TOL, out=play).nonzero()[0]
        if len(ties) > 1:
            slot = ties[self.basic[ties].argmin()]
        return int(slot), max(ratio[slot], 0.0)

    def step(self, t):
        """Move x_B by ``-t * w``."""
        np.subtract(self.xB, np.multiply(self.w, t, out=self.num), out=self.xB)

    def change(self, slot, q, a, xq):
        """Column ``q`` (dense column ``a``, with ``w, wr`` from :meth:`ftran`)
        replaces the basic of ``slot`` and takes the value ``xq``."""
        r, k, ncols, inv = self.nrows, self.k, self.ncols, self.inv
        wJ = self.w[r:r + k]
        if q >= ncols:
            i = self.lrow[q - ncols]             # the entering slack's row
            qsign = self.lsign[q - ncols]
        if slot >= r and q < ncols:              # structural for structural
            p = slot - r
            piv = inv[p] / wJ[p]
            inv -= np.multiply.outer(wJ, piv)
            inv[p] = piv
            self.cols[p], self.cB[p] = q, self.c[q]
            self.xB[slot], self.hiB[slot] = xq, self.hi[q]
            self.AJt[p] = a
        elif slot >= r:                          # slack of kernel row i for structural
            p, pi, last = slot - r, self.kpos[i], k - 1
            inv -= np.multiply.outer(inv[:, pi], inv[p] / inv[p, pi])
            self.kpos[i] = -1
            if p != last:                        # the last position fills the gap
                inv[p] = inv[last]
                self.cols[p], self.cB[p] = self.cols[last], self.cB[last]
                self.xB[slot], self.hiB[slot] = self.xB[r + last], self.hiB[r + last]
                self.AJt[p] = self.AJt[last]
            if pi != last:
                inv[:last, pi] = inv[:last, last]
                self.rows[pi] = self.rows[last]
                self.AK[pi] = self.AK[last]
                self.kpos[self.rows[pi]] = pi
            self.inv = inv[:last, :last].copy()
            self.k = last
            self.w[r + last] = 0.0               # the freed slot leaves the ratio test
            self._enter_slack(i, q, qsign, xq)
        elif q < ncols:                          # structural for the slack of row l
            l = slot
            s = self.wr[l]
            zs = np.matmul(self.AJt[:k, l], inv) / s
            inv += np.multiply.outer(wJ, zs)
            grown = self.inv = np.empty((k + 1, k + 1))
            grown[:k, :k] = inv
            np.divide(wJ, -s, out=grown[:k, k])
            np.negative(zs, out=grown[k, :k])
            grown[k, k] = 1.0 / s
            self.cols[k], self.rows[k], self.kpos[l], self.cB[k] = q, l, k, self.c[q]
            self.xB[r + k], self.hiB[r + k] = xq, self.hi[q]
            self.AJt[k], self.AK[k] = a, self.A[l]
            self._leave_slack(l)
            self.k = k + 1
            self.kmax = max(self.kmax, k + 1)
        else:                                    # kernel row i gives way to row l
            l, pi = slot, self.kpos[i]
            z = np.matmul(self.AJt[:k, l], inv)
            col = inv[:, pi] / z[pi]
            inv -= np.multiply.outer(col, z)
            inv[:, pi] = col
            self.rows[pi], self.kpos[l], self.kpos[i] = l, pi, -1
            self.AK[pi] = self.A[l]
            self._leave_slack(l)
            self._enter_slack(i, q, qsign, xq)

    def _leave_slack(self, l):
        """Row l joins the kernel: its slot holds the placeholder."""
        self.logical[l], self.dsign[l] = self.placeholder, 0.0
        self.xB[l] = self.hiB[l] = 0.0

    def _enter_slack(self, i, q, qsign, xq):
        """Row i leaves the kernel, with its slack ``q`` basic at ``xq``."""
        self.logical[i], self.dsign[i] = q, qsign
        self.xB[i], self.hiB[i] = xq, np.inf
        self.y[i] = 0.0


def _factor(kernel: _Kernel, b, at_upper) -> None:
    """Rebuild B11^-1 from scratch, and x_B from the nonbasics' bounds."""
    A, r, k = kernel.A, kernel.nrows, kernel.k
    rows, cols = kernel.rows[:k], kernel.cols[:k]
    try:
        kernel.inv[...] = np.linalg.inv(A[np.ix_(rows, cols)])
    except np.linalg.LinAlgError as exc:
        raise SimplexError(f"singular basis: {exc}") from exc
    x = np.where(at_upper[:kernel.ncols], kernel.hi[:kernel.ncols], 0.0)
    x[cols] = 0.0
    # nonbasic slacks rest at zero; with every structural at zero too, A x is 0
    rhs = b - A @ x if x.any() else b
    xJ = kernel.xB[r:r + k]
    np.matmul(kernel.inv, rhs[rows], out=xJ)
    # on a kernel row dsign is 0, and the slot holds the placeholder
    np.multiply(kernel.dsign, rhs - xJ @ kernel.AJt[:k], out=kernel.xL)


def _iterate(kernel: _Kernel, b, at_upper, cfg: SolverConfig, work: dict):
    """Pivot from the kernel's basis to a final status.

    The kernel's x_B enters as the point of the basis; it, ``at_upper`` and
    the kernel are updated in place, and ``work`` counts bound flips,
    degenerate pivots and whether Bland's rule took over.  Pricing costs
    O(k ncols): the structurals' reduced costs are ``c - y_K AK``.
    """
    nrows, ncols, hi = kernel.nrows, kernel.ncols, kernel.hi
    tol = OPTIMALITY_TOL
    degen_run = 0
    bland = False
    lrow, slack_cost = kernel.lrow, -kernel.lsign
    # +1 at lower, -1 at upper, 0 when basic or fixed: the eligible columns are
    # those with direction * d < -tol, and the most negative has the largest |d|
    direction = np.where(at_upper, -1.0, 1.0)
    direction[hi <= PIVOT_TOL] = 0.0
    direction[kernel.basic[:nrows + kernel.k]] = 0.0
    score = np.zeros(len(hi))
    score_s, score_l = score[:ncols], score[ncols:kernel.placeholder]
    unit = np.zeros(nrows)                  # the column of an entering slack
    since_refactor = 0

    for it in range(cfg.max_iterations):
        if since_refactor >= REFACTOR_EVERY:
            _factor(kernel, b, at_upper)
            since_refactor = 0

        y, k = kernel.btran(), kernel.k
        np.matmul(kernel.yK[:k], kernel.AK[:k], out=score_s)   # y is zero off the kernel rows
        np.subtract(kernel.c, score_s, out=score_s)             # the reduced costs
        np.multiply(slack_cost, y[lrow], out=score_l)
        score *= direction
        q = int((score < -tol).argmax()) if bland else int(score.argmin())
        if not score[q] < -tol:
            return "optimal", it
        sign = float(direction[q])           # entering moves up from lower / down from upper
        if q < ncols:
            a = kernel.A[:, q]
            kernel.ftran(a)
        else:                                # a slack's change needs no column
            a = unit
            unit[lrow[q - ncols]] = kernel.lsign[q - ncols]
            kernel.ftran(a)
            unit[lrow[q - ncols]] = 0.0

        slot, t_best = kernel.ratio_test(sign)   # slot -1: bound flip of the entering column
        if hi[q] < t_best - TIE_TOL:
            t_best = hi[q]
            slot = -1
        if not t_best < np.inf:
            return "unbounded", it

        degen_run = degen_run + 1 if t_best <= TIE_TOL else 0
        if degen_run > 3 * nrows and not bland:
            bland = work["bland"] = True

        if t_best != 0.0:                    # half the pivots or more are degenerate
            kernel.step(t_best * sign)
        if slot == -1:
            at_upper[q] = ~at_upper[q]
            direction[q] = -direction[q]
            work["bound_flips"] += 1
            continue
        if t_best <= TIE_TOL:
            work["degenerate_pivots"] += 1
        xq = (hi[q] if at_upper[q] else 0.0) + sign * t_best
        bl = kernel.basic[slot]
        # leaving variable parks at whichever of its bounds the ratio test hit
        at_upper[bl] = sign * kernel.w[slot] < 0
        at_upper[q] = False
        direction[q] = 0.0
        if hi[bl] > PIVOT_TOL:
            direction[bl] = -1.0 if at_upper[bl] else 1.0
        kernel.change(slot, q, a, xq)
        since_refactor += 1

    return "iteration_limit", cfg.max_iterations
