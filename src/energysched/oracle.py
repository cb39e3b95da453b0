"""Exact optima for small instances.

``brute_force`` returns the exact minimum-cost schedule over every
precedence-feasible order and every assignment of grid speeds, the ground
truth the approximation ratios are measured against.  It is a forward
dynamic program over job subsets (Held & Karp, 1962; Lawler & Moore, 1969):
the cost still to come after a set S of placed jobs depends only on S and the
completion time C, so each precedence-closed S keeps a front of partial
schedules (C, cost T, label).  A child repeats a full enumeration's
floating-point steps in the same order, so each path's value is
bit-identical to its enumeration leaf.  The label, an order code
(``parent * n + k``, jobs numbered in sorted-id order) then a speed code
(``parent * m + s``), ranks paths as the enumeration visits them.  Both
codes must fit int64 (n**n and m**n), which at m <= n means n <= 15.

State b is dropped when some a has C_a <= C_b, T_a <= T_b, and a smaller
label or T_b - T_a > ``margin = 8 n eps U``, U a bound on every partial sum.
Rounding is monotone, so b never ends below a; each of the n steps left
narrows the gap by at most 2 ulp(U), so b can only tie a, and only within
the margin.  The rule needs a cost to come that does not fall as C grows,
which the positive weights of every ``Instance`` give.  The least cost
wins, ties to the smallest label: the enumeration's first order with the
lowest value, and in it the lowest combination index.

The program runs one popcount layer at a time.  Layer L holds the fronts of
every precedence-closed S with L jobs (each S a bitmask, a "mask"), stored
end to end with a size per mask.  A step pairs each S with each job k
outside it whose predecessors lie in S, builds the child states of many
masks in one pass and sorts them by (child mask, C), in any order within an
equal C: what a front keeps depends only on its set of (C, T, label)
states.  It then prunes each child's front on padded arrays: first the
states more than the margin above the least T at a C no larger, on
(masks x longest front) arrays, then the dominated states, on
(masks x front x front) arrays.  That pairwise pass is skipped when every
front trades C for T strictly (C rises and T falls from each state to the
next), since then no state can dominate another.  It works through the
child masks in runs whose padded arrays hold at most ``CHUNK_CELLS``
cells, which bounds the memory a step takes; the tests hold the
tracemalloc peak at n = 12 under 8 MB.

``dual_cost`` / ``special_case_order`` cover the continuous-speed special
cases without precedence or releases: with equal weights, or with equal
``rho_i * v_i**(1/beta)``, sorting by non-increasing weight-to-size ratio is
provably optimal, which the tests verify exhaustively.
"""

from __future__ import annotations

import itertools

import numpy as np

from .evaluate import Schedule, assemble
from .instance import Instance

#: default (n_cap, m_cap): most jobs and most speeds ``brute_force`` accepts
DEFAULT_CAPS = (7, 4)

#: most cells in one padded block of a layer step, (masks x longest front) or
#: (masks x front x front): the step works through its masks in runs of this
#: size, which bounds the memory it takes
CHUNK_CELLS = 1 << 15


class SizeCapError(ValueError):
    pass


def _feasible_permutations(ids, precedence):
    """The orders of ``ids`` that put every edge's predecessor first, in
    lexicographic order."""
    return (order for order in itertools.permutations(sorted(ids))
            if all(order.index(a) < order.index(b) for a, b in precedence.edges))


def check_size(instance: Instance, n_cap: int, m_cap: int) -> None:
    """Raise :class:`SizeCapError` when ``brute_force`` would refuse ``instance``."""
    n, m = instance.n, instance.speedset.m
    if n > n_cap or m > m_cap:
        raise SizeCapError(f"instance size n={n}, m={m} exceeds caps ({n_cap}, {m_cap})")
    if max(n, m) ** n > 2 ** 63:                 # at m <= n: n > 15
        raise SizeCapError(f"n={n}, m={m}: order codes up to n**n and speed codes "
                           f"up to m**n overflow int64")


def _runs(size, cells):
    """Split consecutive masks into runs whose padded block fits ``CHUNK_CELLS``.

    A mask whose front holds F states takes ``cells(F)`` cells, so a run of
    masks takes its length times the cells of its longest front.  Each run
    takes as many masks as fit at the longest front of all, at least one.
    Yields (lo, hi, longest) per run.
    """
    step = max(1, CHUNK_CELLS // cells(size.max()))
    for lo in range(0, len(size), step):
        yield lo, min(lo + step, len(size)), size[lo:lo + step].max()


def _cells(size):
    """Each state's (row, column) in a padded (masks x longest front) array
    whose rows hold the fronts of these sizes, stored end to end."""
    row = np.repeat(np.arange(len(size)), size)
    return row, np.arange(len(row)) - (np.cumsum(size) - size)[row]


def _below_margin(c, t, size, margin):
    """States whose T exceeds the least T at a C no larger by at most
    ``margin``; each front is sorted by C, in any order within an equal C."""
    at = _cells(size)
    low = np.full((len(size), size.max()), np.inf)
    low[at] = t
    low = np.minimum.accumulate(low, axis=1)[at]
    # the least T at C no larger is the prefix minimum at the last state of C's run
    last = np.append(c[1:] != c[:-1], True)
    last[np.cumsum(size) - 1] = True                    # a front's last state ends a run
    end = np.flatnonzero(last)[np.cumsum(last) - last]  # each state's run end
    return t - low[end] <= margin


def _undominated(c, t, oc, sc, size):
    """States that no other state of the same mask dominates: C and T no
    larger, and a smaller label.  Each front is sorted by C."""
    falls = (c[1:] > c[:-1]) & (t[1:] < t[:-1])
    falls[np.cumsum(size)[:-1] - 1] = True              # no pair spans two fronts
    if falls.all():         # each front trades C for T strictly: no pair dominates
        return np.ones(len(c), bool)
    return _pairwise_undominated(c, t, oc, sc, size)


def _pairwise_undominated(c, t, oc, sc, size):
    """:func:`_undominated` by comparing every pair of states of a mask."""
    rank = np.empty(len(c))                 # labels are distinct within a mask
    rank[np.lexsort((sc, oc))] = np.arange(len(c))
    keep, end = [], np.cumsum(size)
    for lo, hi, longest in _runs(size, lambda f: f * f):
        part, at = slice(end[lo] - size[lo], end[hi - 1]), _cells(size[lo:hi])
        block = np.full((3, hi - lo, longest), np.inf)      # padding dominates no state
        block[:, at[0], at[1]] = c[part], t[part], rank[part]
        a, b = block[..., None], block[:, :, None]          # every (a, b) pair of a mask
        beaten = ((a[0] <= b[0]) & (a[1] <= b[1]) & (a[2] < b[2])).any(axis=1)
        keep.append(~beaten[at])
    return np.concatenate(keep)


def _sizes(keep, size):
    return np.add.reduceat(keep, np.cumsum(size) - size, dtype=np.int64)


def brute_force(instance: Instance, n_cap: int = DEFAULT_CAPS[0],
                m_cap: int = DEFAULT_CAPS[1]) -> Schedule:
    """Exact optimum over all orders and grid-speed assignments, assembled."""
    check_size(instance, n_cap, m_cap)
    n, m = instance.n, instance.speedset.m
    sigma = np.asarray(instance.speedset.speeds)
    rank = sorted(range(n), key=lambda k: instance.jobs[k].id)   # position -> job
    jobs, costs = [instance.jobs[k] for k in rank], instance.energy_costs[rank]
    pos = {job.id: k for k, job in enumerate(jobs)}
    need = np.zeros(n, np.int64)            # per job the bit mask of its predecessors
    for a, b in instance.precedence.edges:  # |=, so a repeated edge sets its bit once
        need[pos[b]] |= 1 << pos[a]
    proc = np.array([job.rho / sigma for job in jobs])
    release, weight = (np.array([getattr(j, f) for j in jobs], dtype=float)
                       for f in ("release", "weight"))
    due = instance.due[rank]
    horizon = release.max() + proc.max(axis=1).sum()
    bound = np.abs(costs).max(axis=1) + weight * (horizon + np.abs(due))
    margin = 8 * n * np.finfo(float).eps * bound.sum()

    def grow(front, k, first, count, size):
        """The pruned fronts of one run of child masks, stored end to end.

        Pair j adds job k[j] at every speed to the parent states first[j] up
        to first[j] + count[j]; the pairs come by child mask, then by k, and
        child mask i gets size[i] states.
        """
        state = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
        c, t, oc, sc = (x[state] for x in front)
        k = np.repeat(k, count)
        c = (np.maximum(c, release[k])[:, None] + proc[k]).ravel()
        t = (t[:, None] + costs[k]).ravel()
        oc, sc = (oc * n + k).repeat(m), (sc[:, None] * m + np.arange(m)).ravel()
        k = k.repeat(m)
        t += weight[k] * np.maximum(c - due[k], 0.0)
        # the states come grouped by child mask: order each group by C with one
        # unstable sort on C, then a stable (radix) sort on the mask index, which
        # fits uint16 (at n <= 15 a layer holds at most C(15, 7) = 6,435 masks)
        s = np.argsort(c)
        s = s[np.argsort(np.repeat(np.arange(len(size), dtype=np.uint16), size)[s],
                         kind="stable")]
        c, t, oc, sc = c[s], t[s], oc[s], sc[s]
        s = _below_margin(c, t, size, margin)
        c, t, oc, sc, size = c[s], t[s], oc[s], sc[s], _sizes(s, size)
        s = _undominated(c, t, oc, sc, size)
        return c[s], t[s], oc[s], sc[s], _sizes(s, size)

    bits = 1 << np.arange(n)
    masks, size = np.zeros(1, np.int64), np.ones(1, np.int64)
    front = np.zeros(1), np.zeros(1), np.zeros(1, np.int64), np.zeros(1, np.int64)
    for _ in range(n):                               # one popcount layer per step
        # (k, parent) pairs whose child mask is precedence-closed, by child, then k
        k, p = np.nonzero(((masks & bits[:, None]) == 0) & ((need[:, None] & ~masks) == 0))
        child = masks[p] | bits[k]
        s = np.argsort(child * n + k)
        k, p, child = k[s], p[s], child[s]
        edge = np.flatnonzero(np.diff(child, prepend=-1, append=-1))   # each child's pairs
        start, children = np.cumsum(size) - size, np.add.reduceat(size[p], edge[:-1]) * m
        runs = []
        for lo, hi, _ in _runs(children, lambda f: f):
            q = slice(edge[lo], edge[hi])
            runs.append(grow(front, k[q], start[p[q]], size[p[q]], children[lo:hi]))
        *front, size = (np.concatenate(x) for x in zip(*runs))
        masks = child[edge[:-1]]
    _, t, oc, sc = front
    best = np.lexsort((sc, oc, t))[0]
    order = [int(k) for k in np.unravel_index(oc[best], (n,) * n)]
    digits = np.unravel_index(sc[best], (m,) * n)   # speed index per position
    best_order = tuple(jobs[k].id for k in order)
    best_speeds = {jobs[k].id: float(sigma[s]) for k, s in zip(order, digits)}
    return assemble(instance, best_order, best_speeds)


def _xi(job, beta: float) -> float:
    return job.rho * job.energy.v ** (1.0 / beta)


def dual_cost(order, jobs, beta: float) -> float:
    """Closed-form cost of an order once continuous speeds are optimized out.

    Only defined without precedence or release constraints, for polynomial
    energy: each position contributes K * xi * (suffix weight sum)**q with
    q = (beta-1)/beta and K = beta / (beta-1)**q.
    """
    by_id = {j.id: j for j in jobs}
    q = (beta - 1.0) / beta
    K = beta / (beta - 1.0) ** q
    weights = [by_id[i].weight for i in order]
    total = 0.0
    suffix = sum(weights)
    for k, jid in enumerate(order):
        total += K * _xi(by_id[jid], beta) * suffix ** q
        suffix -= weights[k]
    return total


def special_case_order(jobs, beta: float) -> tuple:
    """Optimal order for equal weights or equal xi: non-increasing w/xi.

    Raises when neither applicability condition holds; the ordering rule is
    only proven for those cases.
    """
    weights = [j.weight for j in jobs]
    xis = [_xi(j, beta) for j in jobs]
    equal_w = max(weights) - min(weights) <= 1e-12 * max(weights)
    equal_xi = max(xis) - min(xis) <= 1e-12 * max(xis)
    if not (equal_w or equal_xi):
        raise ValueError("requires equal weights or equal rho*v^(1/beta) across jobs")
    return tuple(
        j.id for j in sorted(jobs, key=lambda j: (-(j.weight / _xi(j, beta)), j.id))
    )
