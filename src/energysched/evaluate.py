"""Schedules: assembly from an order and speeds, feasibility checking and
exact cost evaluation.

This is the single evaluation path shared by the rounding algorithms, the
exact oracle and the benchmark harness, so every reported ratio compares
like with like.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .instance import Instance

_TIME_TOL = 1e-9


@dataclass(frozen=True)
class CostBreakdown:
    energy_total: float
    scheduling_total: float      # sum w_i (C_i - d_i)^+, d_i = Instance.due

    @property
    def total(self) -> float:
        return self.energy_total + self.scheduling_total


@dataclass(frozen=True)
class Schedule:
    order: tuple             # job ids in processing order
    speed: dict              # job id -> chosen grid speed
    start: dict              # job id -> start time
    completion: dict         # job id -> completion time
    breakdown: CostBreakdown

    @property
    def cost(self) -> float:
        return self.breakdown.total


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
    for job, costs, due in zip(instance.jobs, instance.energy_costs, instance.due.tolist()):
        # the grid speed check_feasible matched: the nearest one
        energy_total += float(costs[np.abs(speeds - schedule.speed[job.id]).argmin()])
        scheduling_total += job.weight * max(schedule.completion[job.id] - due, 0.0)
    return CostBreakdown(energy_total=energy_total, scheduling_total=scheduling_total)


def assemble(instance: Instance, order, speed_by_id) -> Schedule:
    """Run jobs in order, each starting at max(release, previous completion)."""
    by_id = {job.id: job for job in instance.jobs}
    start, completion = {}, {}
    prev = 0.0
    for jid in order:
        job = by_id[jid]
        start[jid] = max(job.release, prev)
        completion[jid] = start[jid] + job.rho / speed_by_id[jid]
        prev = completion[jid]
    sched = Schedule(tuple(order), dict(speed_by_id), start, completion, breakdown=None)
    # cost reads every field but the breakdown
    return dataclasses.replace(sched, breakdown=cost(instance, sched))
