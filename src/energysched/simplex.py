"""Self-contained bounded-variable primal simplex.

A revised simplex sized for desk-scale models (up to a few thousand
columns).  It keeps the explicit basis inverse B^-1 as a dense matrix and
changes it after each basis change by one rank-1 Gauss-Jordan eta update,
the product-form update of Dantzig & Orchard-Hays (1954).  The duals, the
reduced costs and the entering column then cost O(r^2) or O(r*N) per
iteration, not a fresh O(r^3) solve.  Only columns that can move are priced.
The basic solution is carried along the same way: each step moves the basics
by the entering column times the step length.

Every eta update adds rounding error to B^-1 and to x.  So every
:data:`REFACTOR_EVERY` basis changes both are rebuilt from scratch, with one
inverse: x_B = B^-1 (b - A_N x_N).  The interval trades the O(r^3) rebuild
against that drift: at r = 200 rows one rebuild costs about ten pivots, and
after 64 updates max|B^-1 B - I| stays below 3e-13 on the pipeline LPs up to
n = 20 jobs, far inside the 1e-9 tolerances.

Given a ``start`` basis (one column per row: a structural, or the row's own
slack), :func:`solve` checks that its basic solution is primal feasible,
fixes every artificial at zero and goes straight to phase 2.  The caller
vouches for the start, so a singular or infeasible one raises ``ValueError``
rather than falling back to phase 1.  ``lp.solve_lp`` starts at the vertex
of a list schedule (the ``lp.py`` docstring gives why it is one), which
removes phase 1 from every pipeline LP and, being a good schedule, shortens
phase 2 as well: over the 48 LPs of the benchmark's solve-mid list at seed
11 the pivots fell from 7,423 to 3,239.

Without a start, phase 1 starts from the slack ("crash") basis of Bixby
(1992), *Implementing the simplex method: the initial basis*.  Every
inequality row whose slack is feasible at the starting point -- a ``<=`` row
with ``b - A lo >= 0`` or a ``>=`` row with ``b - A lo <= 0`` -- starts on its
slack, and its artificial is fixed at zero so it is never priced.  Only the
equality rows and the rows whose slack would be negative start on an
artificial.  Phase 2 then starts from phase 1's basis, rebuilt once.

Nonbasic variables rest at either bound; the ratio test allows bound flips.
Pricing is largest-reduced-cost with lowest-index tie-breaks, falling back to
Bland's rule once a run of degenerate pivots is detected, so every solve is
deterministic and terminates.

The entry point :func:`solve` takes the problem in row form

    minimize c @ x   s.t.   A x (sense) b,   lower <= x <= upper

with senses drawn from ``{"=", "<=", ">="}``.  Infinite uppers are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: basis changes between rebuilds of B^-1 and x from scratch
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

    # standard form: append a slack per inequality row
    sign_of = {"<=": 1.0, ">=": -1.0, "=": 0.0}
    for s in senses:
        if s not in sign_of:
            raise ValueError(f"unknown row sense {s!r}")
    row_sign = np.array([sign_of[s] for s in senses])
    slack_rows = np.flatnonzero(row_sign)
    slack_signs = row_sign[slack_rows]
    nslack = len(slack_rows)
    nstd = ncols + nslack
    nall = nstd + nrows
    slack_cols = np.arange(ncols, nstd)
    # one array for the structurals, the slacks and an artificial per row
    Aall = np.zeros((nrows, nall))
    Aall[:, :ncols] = A
    Aall[slack_rows, slack_cols] = slack_signs
    lo = np.concatenate([lower, np.zeros(nslack + nrows)])
    hi = np.concatenate([upper, np.full(nslack + nrows, np.inf)])
    at_upper = np.zeros(nall, dtype=bool)
    feas_tol = cfg.feasibility_tolerance * max(1.0, np.abs(b).max(initial=0.0))

    if start is None:
        # slack crash: a row whose slack is feasible at the starting point
        # starts on that slack, and its artificial is fixed at zero; every
        # other row starts on an artificial signed so that it is feasible
        resid = b - Aall[:, :nstd] @ lo[:nstd]
        basis = np.arange(nstd, nall)
        Aall[np.arange(nrows), basis] = np.where(resid >= 0, 1.0, -1.0)
        crash = resid[slack_rows] * slack_signs >= 0
        basis[slack_rows[crash]] = slack_cols[crash]
        hi[nstd + slack_rows[crash]] = 0.0

        # phase 1: drive the artificials to zero
        c1 = np.zeros(nall)
        c1[nstd:] = 1.0
        Binv, x = _factor(Aall, b, lo, hi, basis, at_upper)
        status, iters1 = _iterate(Aall, b, c1, lo, hi, basis, at_upper, Binv, x, cfg, phase=1)
        if status == "iteration_limit":
            return SolveResult("iteration_limit", None, None, iters1)
        Binv, x = _factor(Aall, b, lo, hi, basis, at_upper)
        if c1 @ x > feas_tol:
            return SolveResult("infeasible", None, None, iters1)
    else:
        basis = _start_basis(start, ncols, row_sign, slack_rows, slack_cols)
        try:
            Binv, x = _factor(Aall, b, lo, hi, basis, at_upper)
        except SimplexError as exc:
            raise ValueError(f"start basis is singular: {exc}") from exc
        xb = x[basis]
        gap = np.maximum(lo[basis] - xb, xb - hi[basis]).max(initial=0.0)
        if not gap <= feas_tol:
            raise ValueError(f"start basis is not primal feasible: a basic variable "
                             f"is {gap} outside its bounds (tolerance {feas_tol})")
        iters1 = 0

    # phase 2: pin the artificials at zero and optimize the real objective
    lo[nstd:] = 0.0
    hi[nstd:] = 0.0
    c2 = np.zeros(nall)
    c2[:ncols] = c
    status, iters2 = _iterate(Aall, b, c2, lo, hi, basis, at_upper, Binv, x, cfg, phase=2)
    if status != "optimal":
        return SolveResult(status, None, None, iters1, iters2)
    xs = x[:ncols]
    return SolveResult("optimal", xs, float(c @ xs), iters1, iters2)


def _start_basis(start, ncols, row_sign, slack_rows, slack_cols) -> np.ndarray:
    """Standard-form basis columns of a ``start`` given per row."""
    start = np.asarray(start, dtype=int)
    if start.shape != row_sign.shape:
        raise ValueError(f"start has shape {start.shape}, expected ({len(row_sign)},)")
    if np.any((start < -1) | (start >= ncols)):
        raise ValueError("start names a column outside the structurals")
    on_slack = start == -1
    if np.any(on_slack & (row_sign == 0)):
        raise ValueError("start puts an equality row on a slack it does not have")
    slack_of_row = np.full(len(row_sign), -1)
    slack_of_row[slack_rows] = slack_cols
    return np.where(on_slack, slack_of_row, start)


def _factor(A, b, lo, hi, basis, at_upper):
    """B^-1 of ``basis`` and the point it gives, x_B = B^-1 (b - A_N x_N)."""
    try:
        Binv = np.linalg.inv(A[:, basis])
    except np.linalg.LinAlgError as exc:
        raise SimplexError(f"singular basis: {exc}") from exc
    x = np.where(at_upper, np.where(np.isfinite(hi), hi, lo), lo)
    x[basis] = 0.0
    x[basis] = Binv @ (b - A @ x)
    return Binv, x


def _iterate(A, b, c, lo, hi, basis, at_upper, Binv, x, cfg: SolverConfig, phase: int):
    """Pivot from ``basis`` to a final status.

    ``Binv`` and ``x`` enter as B^-1 and the point of ``basis``; all four,
    and ``at_upper``, are updated in place.
    """
    nrows, nall = A.shape
    tol = cfg.optimality_tolerance
    degen_run = 0
    bland = False
    in_basis = np.zeros(nall, dtype=bool)
    in_basis[basis] = True
    # only columns that can move are priced: fixed ones never enter
    cols = np.flatnonzero(hi - lo > PIVOT_TOL)
    A_cols, c_cols = A[:, cols], c[cols]
    outer = np.empty((nrows, nrows))
    since_refactor = 0

    for it in range(cfg.max_iterations):
        if since_refactor >= REFACTOR_EVERY:
            Binv[...], x[...] = _factor(A, b, lo, hi, basis, at_upper)
            since_refactor = 0

        y = c[basis] @ Binv
        d = c_cols - y @ A_cols
        eligible = ~in_basis[cols] & np.where(at_upper[cols], d > tol, d < -tol)
        if not eligible.any():
            return "optimal", it
        if bland:
            q = int(cols[np.argmax(eligible)])
        else:
            q = int(cols[np.argmax(np.where(eligible, np.abs(d), 0.0))])
        sign = -1.0 if at_upper[q] else 1.0  # entering moves up from lower / down from upper

        w = Binv @ A[:, q]
        step = sign * w                      # x_B decreases by step * t

        # ratio test: the basic that first hits a bound; among steps within
        # TIE_TOL of the shortest, the lowest column index leaves
        xb = x[basis]
        ratio = np.full(nrows, np.inf)
        np.divide(xb - lo[basis], step, out=ratio, where=step > PIVOT_TOL)
        np.divide(hi[basis] - xb, -step, out=ratio, where=step < -PIVOT_TOL)
        np.maximum(ratio, 0.0, out=ratio)
        t_best = ratio.min()
        leave = -1                           # -1: bound flip of the entering column
        if np.isfinite(t_best):
            ties = np.flatnonzero(ratio <= t_best + TIE_TOL)
            leave = int(ties[np.argmin(basis[ties])])
            t_best = ratio[leave]
        if np.isfinite(hi[q]) and hi[q] - lo[q] < t_best - TIE_TOL:
            t_best = hi[q] - lo[q]
            leave = -1
        if not np.isfinite(t_best):
            return ("infeasible" if phase == 1 else "unbounded"), it

        degen_run = degen_run + 1 if t_best <= TIE_TOL else 0
        if degen_run > 3 * nrows:
            bland = True

        x[basis] -= t_best * step
        if leave == -1:
            at_upper[q] = ~at_upper[q]
            x[q] = hi[q] if at_upper[q] else lo[q]
            continue
        x[q] += sign * t_best
        bl = basis[leave]
        # leaving variable parks at whichever of its bounds the ratio test hit
        at_upper[bl] = step[leave] < 0
        x[bl] = hi[bl] if at_upper[bl] else lo[bl]
        in_basis[bl] = False
        in_basis[q] = True
        at_upper[q] = False
        basis[leave] = q

        # Gauss-Jordan eta update: B^-1 of the new basis from the old one
        piv = Binv[leave] / w[leave]
        np.multiply.outer(w, piv, out=outer)
        Binv -= outer
        Binv[leave] = piv
        since_refactor += 1

    return "iteration_limit", cfg.max_iterations
