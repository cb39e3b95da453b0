"""Correctness checks on the program's outputs, run after the timed loop.

Each check compares optima, schedules or ratios, never the LP's layout: an
equivalent reformulation (implied precedence rows dropped, pinned columns
left out, rows reordered) still passes, and the dump text is never hashed.
LP optima are compared with the HiGHS optimum (``scipy.optimize.linprog``)
of ``reference.lp_relaxation``, a formulation frozen inside the benchmark,
so a non-equivalent change to the program's LP fails.
"""

from __future__ import annotations

import math

import numpy as np

from energysched import evaluate

from . import reference

#: relative tolerance between an LP optimum and the HiGHS optimum of the same LP
LP_REL_TOL = 1e-7
#: slack on the ratio checks, which compare floating-point costs
RATIO_TOL = 1e-9


def highs_optimum(c, rows, upper) -> float:
    """Optimum of ``min c x`` s.t. ``rows``, ``0 <= x <= upper``.

    ``rows`` holds ``(cols, vals, sense, rhs)`` tuples with senses
    ``"="``, ``"<="`` and ``">="``.
    """
    # imported here, after the timed loop, so scipy stays out of peak_rss_mb
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    parts = {"ub": ([], [], [], []), "eq": ([], [], [], [])}
    for cols, vals, sense, rhs in rows:
        kind = "eq" if sense == "=" else "ub"
        sign = -1.0 if sense == ">=" else 1.0
        r, cc, vv, b = parts[kind]
        r.extend([len(b)] * len(cols))
        cc.extend(cols)
        vv.extend(sign * np.asarray(vals, dtype=float))
        b.append(sign * rhs)
    ncols = len(c)
    mats = {}
    for kind, (r, cc, vv, b) in parts.items():
        mats[kind] = (
            (coo_matrix((vv, (r, cc)), shape=(len(b), ncols)).tocsr(), np.array(b))
            if b else (None, None)
        )
    bounds = np.column_stack([np.zeros(ncols), np.asarray(upper, dtype=float)])
    res = linprog(
        c,
        A_ub=mats["ub"][0], b_ub=mats["ub"][1],
        A_eq=mats["eq"][0], b_eq=mats["eq"][1],
        bounds=bounds, method="highs",
    )
    if res.status != 0:
        raise ValueError(f"HiGHS did not reach an optimum: {res.message}")
    return float(res.fun)


def reference_optimum(inst) -> float:
    return highs_optimum(*reference.lp_relaxation(inst))


def parse_dump(text: str):
    """Read ``lp.lp_dump`` text back into ``(c, rows, upper)``.

    Columns are matched by name, so the dump may list them in any order and
    may leave out columns that appear nowhere.  A column without a bounds
    line gets ``[0, inf)``.
    """
    names: dict = {}

    def col(name: str) -> int:
        return names.setdefault(name, len(names))

    def terms(tokens):
        return [col(t) for t in tokens[1::2]], [float(t) for t in tokens[0::2]]

    objective, rows, bounds = ([], []), [], {}
    section = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped in ("minimize", "subject to", "bounds"):
            section = stripped
        elif not stripped:
            continue
        elif section == "minimize":
            cols, vals = terms(stripped.split())
            objective[0].extend(cols)
            objective[1].extend(vals)
        elif section == "subject to":
            body = stripped.split(": ", 1)[1].split()
            cols, vals = terms(body[:-2])
            rows.append((cols, vals, body[-2], float(body[-1])))
        elif section == "bounds":
            lo, _, name, _, hi = stripped.split()
            if float(lo) != 0.0:
                raise ValueError(f"unexpected lower bound in {stripped!r}")
            bounds[col(name)] = float(hi)
        else:
            raise ValueError(f"line outside any section: {stripped!r}")
    c = np.zeros(len(names))
    np.add.at(c, objective[0], objective[1])
    upper = np.full(len(names), np.inf)
    for k, hi in bounds.items():
        upper[k] = hi
    return c, rows, upper


def _same_optimum(what: str, got: float, want: float) -> list:
    if math.isclose(got, want, rel_tol=LP_REL_TOL, abs_tol=0.0):
        return []
    return [f"{what} {got!r} differs from the reference HiGHS optimum {want!r}"]


def check_pipeline(inst, schedule, report: dict, with_oracle: bool) -> list:
    """Problems with one ``pipeline.run`` outcome; empty when it is correct."""
    problems = [f"infeasible schedule: {p}" for p in evaluate.check_feasible(inst, schedule)]
    problems += _same_optimum("LP optimum", report["lp_bound"], reference_optimum(inst))
    if report["ratio_vs_lp"] < 1 - RATIO_TOL:
        problems.append(f"ratio_vs_lp {report['ratio_vs_lp']!r} below 1")
    if with_oracle and report["ratio_vs_oracle"] > report["theoretical_bound"] * (1 + RATIO_TOL):
        problems.append(
            f"ratio_vs_oracle {report['ratio_vs_oracle']!r} exceeds the "
            f"theoretical bound {report['theoretical_bound']!r}"
        )
    return problems


def check_dump(inst, dump_text: str) -> list:
    """The dumped LP of ``inst``, saved and loaded by the program, must have
    the reference optimum."""
    return _same_optimum("dumped LP optimum", highs_optimum(*parse_dump(dump_text)),
                         reference_optimum(inst))
