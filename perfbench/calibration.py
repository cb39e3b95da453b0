"""Fixed calibration kernels that pace the host's speed during a run.

On a shared host the same computation runs up to 1.8x slower for stretches
of seconds to minutes, long enough that whole runs land in a slow stretch.
The benchmark therefore runs, right before each instance run, a short kernel
that does the same kind of work as the workload's dominant layer, and times
the instance run relative to it.  The kernels are frozen: they share no code
with ``energysched``, so a change to the program moves the program's time
and not the kernel's.

``NOMINAL_S`` is each kernel's time on a calm host (the tenth percentile over
seven minutes on the 2-core Xeon VM the benchmark was defined on).  A run's
adjusted time for an instance run is its wall time scaled by
``NOMINAL_S / kernel time``: seconds on a host running at that calm speed.
"""

from __future__ import annotations

import numpy as np

_RNG = np.random.default_rng(7)

# brute force over speed combinations, as in oracle.brute_force
_SPEEDS = np.array([1.0, 2.0, 4.0])
_COMBOS = np.stack(np.meshgrid(*[np.arange(3)] * 7, indexing="ij"), -1).reshape(-1, 7)
_ENERGY = _RNG.random((7, 3))
_WEIGHT = _RNG.random(7) + 0.5
_RHO = _RNG.integers(1, 4, 7).astype(float)
_RELEASE = _RNG.random(7) * 5


def oracle_kernel() -> float:
    best = np.inf
    for order in range(240):
        total = np.zeros(len(_COMBOS))
        completion = np.zeros(len(_COMBOS))
        for k in range(7):
            j = (k + order) % 7
            speed = _COMBOS[:, k]
            completion = np.maximum(completion, _RELEASE[j]) + _RHO[j] / _SPEEDS[speed]
            total += _ENERGY[j][speed]
            total += _WEIGHT[j] * completion
        best = min(best, float(total[int(np.argmin(total))]))
    return best


# dense tableau pivots, as in simplex.solve
_TABLEAU = _RNG.random((200, 560))


def simplex_kernel() -> float:
    total = 0.0
    for _ in range(3):      # 40 pivots take only about 10 ms: too short to time alone
        t = _TABLEAU.copy()
        for _ in range(40):
            q = int(np.argmin(t[-1, :-1]))
            col = t[:-1, q]
            safe = np.where(col > 1e-9, col, 1.0)
            r = int(np.argmin(np.where(col > 1e-9, t[:-1, -1] / safe, np.inf)))
            row = t[r] / t[r, q]
            t -= np.outer(t[:, q], row)
            t[r] = row
        total += t[-1, -1]
    return float(total)


# text terms of named columns, as in lp.lp_dump
_VALUES = _RNG.random(20000) * 50 - 25


def dump_kernel() -> int:
    return len(" ".join(f"{v:+.12g} x_{k % 40}_{k % 3 + 1}_{k % 15 + 1}"
                        for k, v in enumerate(_VALUES)))


#: kernel -> its time on a calm host, in seconds (the simplex kernel's is
#: three times that of its 40 pivots)
NOMINAL_S = {oracle_kernel: 0.030, simplex_kernel: 0.030, dump_kernel: 0.025}
