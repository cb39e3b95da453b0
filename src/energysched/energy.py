"""Energy-cost models for speed-scaled jobs.

Two descriptor variants are supported:

* :class:`PolynomialEnergy` -- the classic CPU power model, where running a
  job of ``rho`` cycles entirely at speed ``s`` costs ``v * rho * s**(beta-1)``.
* :class:`TableEnergy` -- arbitrary non-negative, job-dependent costs given
  at each grid speed.  Off-grid evaluation happens on the lower convex
  envelope of the tabulated points (linear in between grid speeds).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence, Union


@dataclass(frozen=True)
class PolynomialEnergy:
    """Cost ``v * rho * s**(beta - 1)`` of running a job entirely at speed s."""

    v: float
    beta: float

    def __post_init__(self) -> None:
        if self.v <= 0:
            raise ValueError(f"polynomial energy coefficient must be positive, got {self.v}")
        if self.beta < 2:
            raise ValueError(f"growth exponent must be >= 2, got {self.beta}")


@dataclass(frozen=True)
class TableEnergy:
    """Job-dependent cost tabulated at each grid speed (one value per speed)."""

    costs: tuple

    def __post_init__(self) -> None:
        if len(self.costs) == 0:
            raise ValueError("table energy needs at least one cost value")
        if any(c < 0 for c in self.costs):
            raise ValueError("table energy costs must be non-negative")


EnergyCostDescriptor = Union[PolynomialEnergy, TableEnergy]


def _interpolate(speeds: Sequence[float], values: Sequence[float], speed: float) -> float:
    """The piecewise-linear function through ``(speeds[j], values[j])`` at ``speed``."""
    lo, hi = speeds[0], speeds[-1]
    if speed < lo * (1 - 1e-12) or speed > hi * (1 + 1e-12):
        raise ValueError(f"speed {speed} outside tabulated range [{lo}, {hi}]")
    speed = min(max(speed, lo), hi)
    if len(speeds) == 1:
        return values[0]
    k = min(bisect_right(speeds, speed), len(speeds) - 1)
    s0, s1 = speeds[k - 1], speeds[k]
    c0, c1 = values[k - 1], values[k]
    lam = (speed - s0) / (s1 - s0)
    return (1 - lam) * c0 + lam * c1


def convexify(costs: Sequence[float], speeds: Sequence[float]) -> tuple:
    """Lower convex envelope of the points ``(speeds[j], costs[j])`` at every grid speed.

    Uses an Andrew-monotone-chain sweep to find the lower hull, then reads the
    hull back at every grid speed.  The result is pointwise <= the raw costs
    and has non-decreasing slopes between consecutive grid speeds.
    """
    if len(costs) != len(speeds):
        raise ValueError("one cost per grid speed required")
    pts = list(zip(speeds, costs))
    if len(pts) <= 2:
        return tuple(float(c) for c in costs)
    hull = []
    for p in pts:  # speeds already sorted ascending
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    xs, ys = zip(*hull)
    return tuple(_interpolate(xs, ys, s) for s in speeds)


def cost_at(
    energy: EnergyCostDescriptor,
    rho: float,
    speed: float,
    speeds: Sequence[float] | None = None,
) -> float:
    """Cost of running a job of size ``rho`` entirely at ``speed``.

    A polynomial cost past the float range is ``inf``.  Table descriptors
    are evaluated on their lower convex envelope, which requires the grid
    ``speeds`` the table refers to.
    """
    if isinstance(energy, PolynomialEnergy):
        try:
            return energy.v * rho * speed ** (energy.beta - 1)
        except OverflowError:                   # speed ** (beta - 1) past the float range
            return math.inf
    if speeds is None:
        raise ValueError("table energy evaluation requires the speed grid")
    return _interpolate(speeds, convexify(energy.costs, speeds), speed)


def check_assumption1(energy: EnergyCostDescriptor, beta: float, speeds: Sequence[float]) -> bool:
    """Check the growth-regularity condition cost(g*s) <= g**(beta-1) * cost(s).

    It must hold for every g >= 1 and every s with s and g*s on the grid's
    range, that is, cost(s) / s**(beta-1) must not increase there.  For the
    polynomial variant that holds exactly when the descriptor's exponent is
    at most ``beta``, or when there is one speed.  A table's lower convex
    envelope is linear between grid speeds s_j < s_{j+1}; with its values
    c_j, the ratio does not increase over that segment exactly when

        (c_{j+1} - c_j) * s_j <= (beta - 1) * c_j * (s_{j+1} - s_j),

    which is checked for every segment, to a relative 1e-9.
    """
    if isinstance(energy, PolynomialEnergy):
        return energy.beta <= beta or len(speeds) == 1
    c = convexify(energy.costs, speeds)
    return all(
        (c1 - c0) * s0 <= (beta - 1) * c0 * (s1 - s0) * (1 + 1e-9) + 1e-12
        for s0, s1, c0, c1 in zip(speeds, speeds[1:], c, c[1:])
    )

