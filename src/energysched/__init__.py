"""Energy-aware single-machine scheduling.

Minimizes weighted completion time (or weighted tardiness) plus job-dependent
energy cost on a speed-scalable machine: an interval-indexed LP relaxation is
solved with an embedded bounded-variable simplex, then rounded into a
feasible schedule with a constant-factor guarantee.  Exact brute-force
oracles verify the ratios on small instances.
"""

from .energy import (
    PolynomialEnergy,
    TableEnergy,
    check_assumption1,
    convexify,
    cost_at,
)
from .evaluate import check_feasible, cost
from .instance import (
    GeneratorConfig,
    Instance,
    Job,
    Objective,
    ParseError,
    PrecedenceDag,
    SpeedSet,
    generate,
    load,
    quantize_speed_range,
    save,
    validate,
)
from .lp import (
    InfeasibleHorizonError,
    build_lp,
    lp_dump,
    solve_lp,
)
from .oracle import brute_force, dual_cost, special_case_order
from .pipeline import run, theoretical_bound
from .rounding import SpeedRangeError, saias
from .simplex import SolveResult, SolverConfig, solve
from .timegrid import build_grid

__version__ = "0.1.0"
