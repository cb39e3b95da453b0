"""End-to-end solve: grid -> LP -> simplex -> rounding -> evaluation.

Also computes the a-priori approximation guarantee for the run's parameters,
which the benchmark harness asserts against realized ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import energy as energy_mod
from . import evaluate, lp, oracle, rounding, timegrid
from .instance import Instance, Objective


class AssumptionError(RuntimeError):
    """A job's energy cost grows too fast for the tardiness guarantee."""


def theoretical_bound(instance: Instance) -> float:
    """Worst-case ratio of algorithm cost to the exact optimum."""
    a, eps, delta, beta = instance.alpha, instance.epsilon, instance.speedset.delta, instance.beta
    if instance.objective is Objective.TARDINESS:
        return ((1 + eps) * (1 + delta)) ** (beta - 1) / (a * (1 - a)) ** beta
    if instance.has_releases:
        return (1 + a) * (1 + eps) * (1 + delta) / (a * (1 - a))
    return (1 + eps) * (1 + delta) / (a * (1 - a))


@dataclass(frozen=True)
class PipelineResult:
    instance: Instance
    grid: "timegrid.TimeGrid"
    model: "lp.LpModel"
    solution: "lp.LpSolution"
    schedule: "evaluate.Schedule"
    report: dict


def check_energy_assumption(instance: Instance) -> None:
    """Tardiness speed-scaling needs bounded cost growth for every job."""
    for job in instance.jobs:
        if not energy_mod.check_assumption1(job.energy, instance.beta, instance.speedset.speeds):
            raise AssumptionError(
                f"job {job.id}: energy cost violates the growth condition "
                f"cost(g*s) <= g**(beta-1) * cost(s) for beta={instance.beta}; "
                f"tardiness guarantee void"
            )


def run(instance: Instance, with_oracle: bool = False,
        oracle_caps: tuple = oracle.DEFAULT_CAPS) -> PipelineResult:
    """Solve ``instance``: time grid, LP build, simplex, rounding, evaluation.

    The rounding is SAIAS for completion time and SAIAS-T for tardiness; the
    schedule's cost is evaluated as it is assembled.  The report holds the LP
    bound, the schedule's cost, their ratio and the theoretical bound.

    ``with_oracle`` also runs ``oracle.brute_force`` under ``oracle_caps =
    (n_cap, m_cap)`` and adds the exact cost and the ratio to it to the report.

    These are raised before the LP is built: for tardiness,
    ``AssumptionError`` when a job's energy cost grows too fast and
    ``SpeedRangeError`` when the speed set cannot hold any scaled-up speed;
    with the oracle, ``SizeCapError`` when the instance exceeds
    ``oracle_caps``.
    """
    # these checks fail fast: none depends on the LP solution
    tardy = instance.objective is Objective.TARDINESS
    if tardy:
        check_energy_assumption(instance)
        rounding.check_speed_range(instance)
    if with_oracle:
        oracle.check_size(instance, *oracle_caps)

    model = lp.build_lp(instance, instance.grid)
    solution = lp.solve_lp(model)
    schedule = (rounding.saias_t if tardy else rounding.saias)(instance, solution)

    lp_bound = solution.objective
    report = {
        "lp_bound": lp_bound,
        "algorithm_cost": schedule.cost,
        "ratio_vs_lp": schedule.cost / lp_bound if lp_bound > 0 else float("inf"),
        "theoretical_bound": theoretical_bound(instance),
        "alpha": instance.alpha,
        "epsilon": instance.epsilon,
        "delta": instance.speedset.delta,
    }
    if tardy:
        report["gamma"] = rounding.tardiness_gamma(instance.epsilon, instance.alpha)
    if with_oracle:
        exact = oracle.brute_force(instance, *oracle_caps)
        report["oracle_cost"] = exact.cost
        report["ratio_vs_oracle"] = schedule.cost / exact.cost if exact.cost > 0 else 1.0
    return PipelineResult(instance, instance.grid, model, solution, schedule, report)


def schedule_to_dict(result: PipelineResult) -> dict:
    sched = result.schedule
    jobs = {}
    for job in result.instance.jobs:
        c = sched.completion[job.id]
        jobs[str(job.id)] = {
            "speed": sched.speed[job.id],
            "start": sched.start[job.id],
            "completion": c,
            "tardiness": max(c - job.deadline, 0.0),
        }
    return {
        "order": list(sched.order),
        "jobs": jobs,
        "cost": {
            "energy": sched.breakdown.energy_total,
            "scheduling": sched.breakdown.scheduling_total,
            "total": sched.breakdown.total,
        },
        "report": dict(result.report),
    }
