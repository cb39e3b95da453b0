"""Geometric time grid underlying the interval-indexed formulation.

The horizon is cut into geometrically growing intervals.  The first interval
is the closed singleton ``[kappa, kappa]`` where ``kappa = rho_min / sigma_max``
is the earliest any job can complete; interval ``t >= 2`` is the half-open
``(tau_{t-1}, tau_t]`` with ``tau_t = kappa * (1 + epsilon)**(t-1)``.  The grid
extends just far enough to hold every job at the slowest speed after the last
release, and to at most ``MAX_INTERVALS`` intervals: a finer grid is refused.
"""

from __future__ import annotations

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


#: most intervals :func:`build_grid` builds before it refuses the instance.
#: The LP has n*m*T columns and a capacity block of about n*m*T^2/2
#: nonzeros, so no solve is within reach past this.
MAX_INTERVALS = 1000


def build_grid(instance: Instance) -> TimeGrid:
    """Smallest grid covering ``max_i r_i + sum_i rho_i / sigma_1``.

    Raises ``ValueError`` naming epsilon once the grid would have more than
    :data:`MAX_INTERVALS` intervals.
    """
    speeds = instance.speedset.speeds
    kappa = min(j.rho for j in instance.jobs) / speeds[-1]
    horizon = max(j.release for j in instance.jobs) + sum(j.rho / speeds[0] for j in instance.jobs)
    tau = [kappa, kappa]
    # repeated multiplication: each boundary ratio is (1 + epsilon) to 1 ulp
    while tau[-1] < horizon * (1 - 1e-15):
        if len(tau) > MAX_INTERVALS:
            raise ValueError(
                f"epsilon = {instance.epsilon} gives a time grid of more than "
                f"{MAX_INTERVALS} intervals; use a larger epsilon"
            )
        tau.append(tau[-1] * (1 + instance.epsilon))
    return TimeGrid(kappa=kappa, tau=tuple(tau))
