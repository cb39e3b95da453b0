"""Geometric time grid underlying the interval-indexed formulation.

The horizon is cut into geometrically growing intervals.  The first interval
is the closed singleton ``[kappa, kappa]`` where ``kappa = rho_min / sigma_max``
is the earliest any job can complete; interval ``t >= 2`` is the half-open
``(tau_{t-1}, tau_t]`` with ``tau_t = kappa * (1 + epsilon)**(t-1)``.  The grid
extends just far enough to hold every job at the slowest speed after the last
release.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .instance import Instance


@dataclass(frozen=True)
class TimeGrid:
    kappa: float
    tau: tuple       # boundaries tau[0] .. tau[T]; tau[0] == tau[1] == kappa

    @property
    def T(self) -> int:
        return len(self.tau) - 1

    def lower(self, t: int) -> float:
        """Lower completion-time bound for interval t (tau_{t-1})."""
        return self.tau[t - 1]

    def upper(self, t: int) -> float:
        return self.tau[t]


#: most intervals :func:`interval_count` may give before ``validate`` rejects
#: the instance.  The LP has n*m*T columns and a capacity block of about
#: n*m*T^2/2 nonzeros, so no solve is within reach past this.
MAX_INTERVALS = 1000


def _span(instance: Instance) -> tuple:
    """``kappa`` and the horizon ``max_i r_i + sum_i rho_i / sigma_1``."""
    kappa = min(j.rho for j in instance.jobs) / instance.speedset.max
    horizon = max(j.release for j in instance.jobs) + sum(
        j.rho / instance.speedset.min for j in instance.jobs
    )
    return kappa, horizon


def interval_count(instance: Instance) -> float:
    """T of :func:`build_grid` in closed form, without building the grid.

    ``1 + ceil(log(horizon / kappa) / log1p(epsilon))``; it can differ from
    the built grid by one where rounding decides the last boundary, and it
    is ``inf`` when epsilon is too small for the quotient to be finite.
    """
    kappa, horizon = _span(instance)
    steps = math.log(horizon / kappa) / math.log1p(instance.epsilon)
    return 1 + math.ceil(steps) if math.isfinite(steps) else math.inf


def build_grid(instance: Instance) -> TimeGrid:
    """Smallest grid covering ``max_i r_i + sum_i rho_i / sigma_1``."""
    kappa, horizon = _span(instance)
    tau = [kappa, kappa]
    # repeated multiplication: each boundary ratio is (1 + epsilon) to 1 ulp
    while tau[-1] < horizon * (1 - 1e-15):
        tau.append(tau[-1] * (1 + instance.epsilon))
    return TimeGrid(kappa=kappa, tau=tuple(tau))
