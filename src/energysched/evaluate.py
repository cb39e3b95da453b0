"""Schedule feasibility checking and exact cost evaluation.

This is the single evaluation path shared by the rounding algorithms, the
exact oracle and the benchmark harness, so every reported ratio compares
like with like.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, Objective

_TIME_TOL = 1e-9


@dataclass(frozen=True)
class CostBreakdown:
    energy_total: float
    scheduling_total: float      # sum w_i C_i, or sum w_i (C_i - d_i)^+

    @property
    def total(self) -> float:
        return self.energy_total + self.scheduling_total


def check_feasible(instance: Instance, schedule) -> list:
    """Report-style feasibility check; empty list means feasible."""
    report = []
    ids = [j.id for j in instance.jobs]
    if sorted(schedule.order) != sorted(ids):
        report.append(f"order {schedule.order} is not a permutation of the jobs")
        return report

    speeds = instance.speedset.speeds
    for jid in schedule.order:
        s = schedule.speed[jid]
        if not any(abs(s - g) <= 1e-9 * g for g in speeds):
            report.append(f"job {jid}: speed {s} is not in the speed set")

    by_id = {job.id: job for job in instance.jobs}
    prev_completion = 0.0
    for jid in schedule.order:
        job = by_id[jid]
        expected_start = max(job.release, prev_completion)
        if abs(schedule.start[jid] - expected_start) > _TIME_TOL:
            report.append(
                f"job {jid}: start {schedule.start[jid]} != "
                f"max(release, previous completion) = {expected_start}"
            )
        if schedule.start[jid] < job.release - _TIME_TOL:
            report.append(f"job {jid}: starts before its release date")
        if schedule.start[jid] < prev_completion - _TIME_TOL:
            report.append(f"job {jid}: overlaps the previous job")
        expected_completion = schedule.start[jid] + job.rho / schedule.speed[jid]
        if abs(schedule.completion[jid] - expected_completion) > _TIME_TOL:
            report.append(
                f"job {jid}: completion {schedule.completion[jid]} != "
                f"start + rho/speed = {expected_completion}"
            )
        prev_completion = schedule.completion[jid]

    pos = {jid: k for k, jid in enumerate(schedule.order)}
    for a, b in instance.precedence.edges:
        if pos[a] > pos[b]:
            report.append(f"precedence edge {a} -> {b} violated")
    return report


def cost(instance: Instance, schedule) -> CostBreakdown:
    """Exact objective value of a feasible schedule."""
    problems = check_feasible(instance, schedule)
    if problems:
        raise ValueError("infeasible schedule: " + "; ".join(problems))
    speeds = np.asarray(instance.speedset.speeds)
    energy_total = 0.0
    scheduling_total = 0.0
    for job, costs in zip(instance.jobs, instance.energy_costs):
        # the grid speed check_feasible matched: the nearest one
        energy_total += float(costs[np.abs(speeds - schedule.speed[job.id]).argmin()])
        c = schedule.completion[job.id]
        if instance.objective is Objective.TARDINESS:
            scheduling_total += job.weight * max(c - job.deadline, 0.0)
        else:
            scheduling_total += job.weight * c
    return CostBreakdown(energy_total=energy_total, scheduling_total=scheduling_total)
