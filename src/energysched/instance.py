"""Problem instances: domain types, validation, JSON round-trip, random generation.

An instance bundles the jobs, the discrete speed ladder the machine can run
at, a precedence DAG, the objective (weighted completion time or weighted
tardiness, each plus energy cost), and the rounding/grid parameters
``alpha``, ``epsilon`` and ``beta``.

Instances are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import enum
import functools
import heapq
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import timegrid
from .energy import EnergyCostDescriptor, PolynomialEnergy, TableEnergy, convexify, cost_at


class Objective(enum.Enum):
    COMPLETION_TIME = "completion"
    TARDINESS = "tardiness"


@dataclass(frozen=True)
class Job:
    id: int
    rho: int            # processing requirement in machine cycles
    weight: float       # cost per unit of completion time / tardiness
    release: float = 0.0
    deadline: float = 0.0
    energy: EnergyCostDescriptor = PolynomialEnergy(1.0, 2.0)


@dataclass(frozen=True)
class SpeedSet:
    """Strictly increasing speeds with declared ladder spacing ``delta``.

    ``delta`` is part of the contract (the approximation bounds quote it), so
    it is stored and validated rather than inferred from the speeds.
    """

    speeds: tuple
    delta: float

    @property
    def m(self) -> int:
        return len(self.speeds)


def quantize_speed_range(sigma_min: float, sigma_max: float, delta: float) -> SpeedSet:
    """Geometric speed ladder covering ``[sigma_min, sigma_max]``.

    Starts at ``sigma_min`` and multiplies by ``(1 + delta)`` until the top of
    the range is covered; the last rung may overshoot ``sigma_max``.
    """
    if sigma_min <= 0 or sigma_max < sigma_min:
        raise ValueError(f"invalid speed range [{sigma_min}, {sigma_max}]")
    if delta <= 0:
        raise ValueError(f"ladder spacing must be positive, got {delta}")
    speeds = [sigma_min]
    while speeds[-1] < sigma_max * (1 - 1e-12):
        speeds.append(speeds[-1] * (1 + delta))
    return SpeedSet(tuple(speeds), delta)


@dataclass(frozen=True)
class PrecedenceDag:
    """Edges ``(i1, i2)`` meaning job i1 must complete before job i2."""

    edges: tuple = ()

    @functools.cached_property
    def reduced_edges(self) -> tuple:
        """The edges that no path of two or more other edges implies, computed once per
        DAG; a cycle raises ``ValueError``, and validation checks for none elsewhere.

        Warshall's recurrence closes the adjacency matrix into ``reach``; edge
        (a, b) is implied when a reaches a job that reaches b (Aho, Garey and
        Ullman, 1972).  Edges keep their order; a repeated edge is kept once.
        """
        edges = tuple(dict.fromkeys(self.edges))
        # ids are arbitrary Python ints, so they are numbered, not cast to int64
        index = {v: k for k, v in enumerate(dict.fromkeys(v for edge in edges for v in edge))}
        a, b = np.array([(index[u], index[v]) for u, v in edges], dtype=np.intp).reshape(-1, 2).T
        reach = np.zeros((len(index), len(index)), dtype=bool)
        reach[a, b] = True
        for k in range(len(index)):
            reach |= reach[:, k, None] & reach[k]
        if reach.diagonal().any():
            raise ValueError("precedence graph has a cycle")
        implied = (reach[a] & reach[:, b].T).any(axis=1)
        return tuple(edge for edge, skip in zip(edges, implied.tolist()) if not skip)


@dataclass(frozen=True)
class Instance:
    """One scheduling problem, valid by construction: building one runs :func:`validate`,
    which builds ``grid`` and ``energy_costs``; ``due`` is computed on first use.
    Each is computed from the frozen fields once, and kept for every later use."""
    jobs: tuple
    speedset: SpeedSet
    precedence: PrecedenceDag = PrecedenceDag()
    objective: Objective = Objective.COMPLETION_TIME
    alpha: float = 0.5
    epsilon: float = 0.5
    beta: float = 2.0

    def __post_init__(self):
        problems = validate(self)
        if problems:
            raise ValueError("invalid instance: " + "; ".join(problems))

    @property
    def n(self) -> int:
        return len(self.jobs)

    @functools.cached_property
    def energy_costs(self) -> np.ndarray:
        """Read-only (n, m) cost of running job i entirely at grid speed j.

        Tabulated costs are read on their lower convex envelope; a polynomial
        cost past the float range is ``inf``.  Raises ``ValueError`` naming
        the first job with a cost that is not finite.
        """
        speeds = self.speedset.speeds
        costs = np.array([
            convexify(job.energy.costs, speeds)
            if isinstance(job.energy, TableEnergy)
            else [cost_at(job.energy, job.rho, s) for s in speeds]
            for job in self.jobs
        ], dtype=float)
        for i in np.flatnonzero(~np.isfinite(costs).all(axis=1)):
            raise ValueError(f"job {self.jobs[i].id}: energy costs at the grid speeds "
                             f"must be finite, got {costs[i].tolist()}")
        costs.flags.writeable = False
        return costs

    @functools.cached_property
    def due(self) -> np.ndarray:
        """Read-only (n,) due dates: the deadlines under tardiness, 0 under
        completion time, so both objectives cost ``weight * max(C - due, 0)``."""
        tardy = self.objective is Objective.TARDINESS
        due = np.array([job.deadline if tardy else 0.0 for job in self.jobs], dtype=float)
        due.flags.writeable = False
        return due

    @functools.cached_property
    def grid(self) -> timegrid.TimeGrid:
        return timegrid.build_grid(self)

    @property
    def has_releases(self) -> bool:
        return any(j.release > 0 for j in self.jobs)


def priority_order(items: Sequence, edges, key=lambda item: 0) -> list:
    """Kahn's topological sort of ``items`` under the acyclic ``edges``: of the items whose
    predecessors are all placed, the least by ``(key(item), item)`` goes next."""
    waiting = {i: 0 for i in items}
    succ = {i: [] for i in items}
    for a, b in edges:
        waiting[b] += 1
        succ[a].append(b)
    ready = [(key(i), i) for i in items if waiting[i] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        _, i = heapq.heappop(ready)
        out.append(i)
        for b in succ[i]:
            waiting[b] -= 1
            if waiting[b] == 0:
                heapq.heappush(ready, (key(b), b))
    return out


def _job_numbers(job: Job) -> dict:
    """A job's real-valued fields, energy parameters included, by name."""
    numbers = {"weight": job.weight, "release": job.release, "deadline": job.deadline}
    if isinstance(job.energy, PolynomialEnergy):
        numbers.update({"energy v": job.energy.v, "energy beta": job.energy.beta})
    else:
        numbers.update({f"energy costs[{k}]": c for k, c in enumerate(job.energy.costs)})
    return numbers


def validate(instance: Instance) -> list:
    """Report-style validation: returns the list of violated invariants.

    An empty list means the instance is valid.  Building an ``Instance`` runs
    this once and raises ``ValueError`` on a non-empty list, so no invalid
    instance exists.
    """
    report = []
    if not instance.jobs:
        report.append("instance has no jobs")
    ids = [j.id for j in instance.jobs]
    if len(set(ids)) != len(ids):
        report.append("job ids are not unique")
    for job in instance.jobs:
        for name, value in _job_numbers(job).items():
            if not math.isfinite(value):
                report.append(f"job {job.id}: {name} must be finite, got {value}")
        if not isinstance(job.rho, (int, np.integer)) or job.rho < 1:
            report.append(f"job {job.id}: rho must be a positive integer, got {job.rho!r}")
        if job.weight <= 0:
            report.append(f"job {job.id}: weight must be positive, got {job.weight}")
        if job.release < 0:
            report.append(f"job {job.id}: release must be non-negative, got {job.release}")
        if job.deadline < 0:
            report.append(f"job {job.id}: deadline must be non-negative, got {job.deadline}")
        if isinstance(job.energy, TableEnergy) and len(job.energy.costs) != instance.speedset.m:
            report.append(
                f"job {job.id}: table energy has {len(job.energy.costs)} entries "
                f"for {instance.speedset.m} speeds"
            )

    ss = instance.speedset
    if not all(math.isfinite(s) for s in ss.speeds):
        report.append(f"speeds must be finite, got {list(ss.speeds)}")
    # alpha needs no entry: its range check below already rejects nan and inf
    for name, value in (("delta", ss.delta), ("epsilon", instance.epsilon),
                        ("beta", instance.beta)):
        if not math.isfinite(value):
            report.append(f"{name} must be finite, got {value}")
    if ss.m < 1:
        report.append("speed set is empty")
    if any(s <= 0 for s in ss.speeds):
        report.append("all speeds must be positive")
    if any(b <= a for a, b in zip(ss.speeds, ss.speeds[1:])):
        report.append("speeds must be strictly increasing")
    if ss.delta <= 0:
        report.append(f"delta must be positive, got {ss.delta}")
    for a, b in zip(ss.speeds, ss.speeds[1:]):
        if b > (1 + ss.delta) * a * (1 + 1e-12):
            report.append(f"speed spacing violated: {b} > (1+{ss.delta})*{a}")

    id_set = set(ids)
    for a, b in instance.precedence.edges:
        if a not in id_set or b not in id_set:
            report.append(f"precedence edge ({a}, {b}) references unknown job id")

    if not (0 < instance.alpha < 1):
        report.append(f"alpha must lie in (0, 1), got {instance.alpha}")
    if instance.epsilon <= 0:
        report.append(f"epsilon must be positive, got {instance.epsilon}")
    if instance.beta < 2:
        report.append(f"beta must be >= 2, got {instance.beta}")
    if instance.objective is Objective.TARDINESS and any(j.release > 0 for j in instance.jobs):
        report.append("tardiness objective requires all release dates to be 0")
    if not report:                  # the reduction, the grid and the energy costs need valid fields
        try:                        # each kept for every later stage; a build that raises keeps nothing
            instance.precedence.reduced_edges
            instance.grid
            instance.energy_costs
        except ValueError as exc:   # a cycle, a grid too fine to build, or a cost past the float range
            report.append(str(exc))
        else:                       # their sum bounds every LP coefficient and every schedule cost
            tau = instance.grid.tau[-1]
            worst = [max(costs) + job.weight * tau
                     for job, costs in zip(instance.jobs, instance.energy_costs.tolist())]
            report += [f"job {job.id}: largest energy cost plus weight * tau_T must be finite, "
                       f"got {cost} (tau_T = {tau})"
                       for job, cost in zip(instance.jobs, worst) if not math.isfinite(cost)]
            if not report and not math.isfinite(sum(worst)):
                report.append(f"the sum over jobs of largest energy cost plus weight * tau_T "
                              f"must be finite, got {sum(worst)} (tau_T = {tau})")
    return report


class ParseError(ValueError):
    """Raised when an instance file is malformed."""


_JOB_FIELDS = {"id", "rho", "weight", "release", "deadline", "energy"}
_TOP_FIELDS = {"jobs", "speeds", "delta", "edges", "objective", "alpha", "epsilon", "beta"}


def _energy_from_dict(d, job_id) -> EnergyCostDescriptor:
    if not isinstance(d, dict) or "type" not in d:
        raise ParseError(f"job {job_id}: energy must be an object with a 'type' field")
    kind = d["type"]
    if kind not in ("poly", "table"):
        raise ParseError(f"job {job_id}: unknown energy type {kind!r}")
    extra = set(d) - ({"type", "v", "beta"} if kind == "poly" else {"type", "costs"})
    if extra:
        raise ParseError(f"job {job_id}: unknown energy fields {sorted(extra)}")
    where = f"job {job_id}: energy "
    try:
        if kind == "poly":
            return PolynomialEnergy(_field(where, "v", _real, d["v"]),
                                    _field(where, "beta", _real, d["beta"]))
        if not isinstance(d["costs"], list):
            raise ParseError(f"{where}field 'costs' must be a list, got {d['costs']!r}")
        return TableEnergy(tuple(_field(where, f"costs[{k}]", _real, c)
                                 for k, c in enumerate(d["costs"])))
    except ParseError:
        raise                              # names the field already
    except KeyError as exc:
        name = "polynomial" if kind == "poly" else "table"
        raise ParseError(f"job {job_id}: bad {name} energy: {exc}") from exc
    except ValueError as exc:              # a value the energy model rejects
        raise ParseError(f"job {job_id}: {exc}") from exc


def _energy_to_dict(e: EnergyCostDescriptor) -> dict:
    if isinstance(e, PolynomialEnergy):
        return {"type": "poly", "v": e.v, "beta": e.beta}
    return {"type": "table", "costs": list(e.costs)}


def to_dict(instance: Instance) -> dict:
    return {
        "jobs": [
            {
                "id": j.id,
                "rho": j.rho,
                "weight": j.weight,
                "release": j.release,
                "deadline": j.deadline,
                "energy": _energy_to_dict(j.energy),
            }
            for j in instance.jobs
        ],
        "speeds": list(instance.speedset.speeds),
        "delta": instance.speedset.delta,
        "edges": [list(e) for e in instance.precedence.edges],
        "objective": instance.objective.value,
        "alpha": instance.alpha,
        "epsilon": instance.epsilon,
        "beta": instance.beta,
    }


def _integer(value) -> int:
    """``int(value)`` of a number, refusing a float with a fractional part rather than
    truncating it, and a boolean or a string rather than reading it as a number."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, got {json.dumps(value)}")
    return int(value)


def _real(value) -> float:
    """``float(value)`` of a number, refusing a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {json.dumps(value)}")
    return float(value)


def _edge(pair) -> tuple:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"each edge must be a pair of job ids, got {json.dumps(pair)}")
    return _integer(pair[0]), _integer(pair[1])


def _field(where: str, name: str, convert, value):
    """``convert(value)``; a failure is a :class:`ParseError` naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:     # an integer too large for a float
        raise ParseError(f"{where}field {name!r}: {exc}") from exc


def from_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise ParseError("instance file must contain a JSON object")
    extra = set(data) - _TOP_FIELDS
    if extra:
        raise ParseError(f"unknown top-level fields {sorted(extra)}")
    missing = _TOP_FIELDS - set(data)
    if missing:
        raise ParseError(f"missing fields {sorted(missing)}")

    for name in ("jobs", "speeds", "edges"):
        if not isinstance(data[name], list):
            raise ParseError(f"field {name!r} must be a list, got {data[name]!r}")
    jobs = []
    for k, jd in enumerate(data["jobs"]):
        if not isinstance(jd, dict):
            raise ParseError(f"jobs[{k}] must be an object")
        extra = set(jd) - _JOB_FIELDS
        if extra:
            raise ParseError(f"jobs[{k}]: unknown fields {sorted(extra)}")
        def conv(name, fn, default=None):
            return _field(f"jobs[{k}]: ", name, fn, jd.get(name, default))

        jobs.append(
            Job(
                id=conv("id", _integer),
                rho=conv("rho", _integer),
                weight=conv("weight", _real),
                release=conv("release", _real, Job.release),
                deadline=conv("deadline", _real, Job.deadline),
                energy=_energy_from_dict(jd.get("energy"), jd.get("id", k)),
            )
        )

    try:
        objective = Objective(data["objective"])
    except ValueError as exc:
        raise ParseError(f"field 'objective' must be one of "
                         f"{[o.value for o in Objective]}: {exc}") from exc
    edges = _field("", "edges", lambda pairs: tuple(map(_edge, pairs)), data["edges"])
    speeds = tuple(_field("", f"speeds[{k}]", _real, s) for k, s in enumerate(data["speeds"]))
    real = {name: _field("", name, _real, data[name])
            for name in ("delta", "alpha", "epsilon", "beta")}
    try:
        return Instance(
            jobs=tuple(jobs),
            speedset=SpeedSet(speeds, real["delta"]),
            precedence=PrecedenceDag(edges),
            objective=objective,
            alpha=real["alpha"],
            epsilon=real["epsilon"],
            beta=real["beta"],
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def save(instance: Instance, path) -> None:
    Path(path).write_text(json.dumps(to_dict(instance), indent=2) + "\n")


def load(path) -> Instance:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return from_dict(data)


@dataclass(frozen=True)
class GeneratorConfig:
    objective: Objective = Objective.COMPLETION_TIME
    edge_density: float = 0.3
    rho_max: int = 3
    release_max: float = 0.0        # 0 disables release dates
    deadline_max: float = 10.0      # tardiness only
    energy_kind: str = "poly"       # "poly" or "table"
    beta: float = 2.0
    delta: float = 1.0
    epsilon: float = 0.5
    alpha: float | None = None      # None: objective/release-dependent default

    def __post_init__(self):
        if not (0 <= self.edge_density <= 1):
            raise ValueError(f"edge_density must be in [0, 1], got {self.edge_density}")
        if self.rho_max < 1:
            raise ValueError(f"rho_max must be positive, got {self.rho_max}")
        for name in ("release_max", "deadline_max"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)}")
        if self.energy_kind not in ("poly", "table"):
            raise ValueError(f"unknown energy kind {self.energy_kind!r}")
        if self.objective is Objective.TARDINESS and self.release_max > 0:
            raise ValueError("tardiness instances cannot have release dates")


def default_alpha(objective: Objective, with_releases: bool) -> float:
    """Ratio-optimizing alpha: 1/2, except sqrt(2)-1 when releases are present."""
    if objective is Objective.COMPLETION_TIME and with_releases:
        return float(np.sqrt(2) - 1)
    return 0.5


def generate(seed: int, n: int, m: int, config: GeneratorConfig | None = None) -> Instance:
    """Deterministic random instance: random DAG, delta-spaced speed ladder."""
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 jobs and m >= 1 speeds, got n={n}, m={m}")
    cfg = config or GeneratorConfig()
    rng = np.random.default_rng(seed)

    speeds = [1.0]
    for _ in range(m - 1):
        # random ratio in (1, 1+delta]: keeps the ladder strictly increasing
        speeds.append(speeds[-1] * (1 + cfg.delta * rng.uniform(0.5, 1.0)))
    speedset = SpeedSet(tuple(speeds), cfg.delta)

    jobs = []
    for i in range(1, n + 1):
        release = 0.0
        if cfg.release_max > 0 and cfg.objective is Objective.COMPLETION_TIME:
            release = float(rng.uniform(0, cfg.release_max))
        deadline = 0.0
        if cfg.objective is Objective.TARDINESS:
            deadline = float(rng.uniform(0, cfg.deadline_max))
        if cfg.energy_kind == "poly":
            energy = PolynomialEnergy(float(rng.uniform(0.2, 2.0)), cfg.beta)
        else:
            energy = TableEnergy(tuple(float(c) for c in rng.uniform(0, 10.0, m)))
        jobs.append(
            Job(
                id=i,
                rho=int(rng.integers(1, cfg.rho_max + 1)),
                weight=float(rng.uniform(0.1, 4.0)),
                release=release,
                deadline=deadline,
                energy=energy,
            )
        )

    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if rng.random() < cfg.edge_density:
                edges.append((a, b))  # oriented low -> high id, hence acyclic

    with_releases = any(j.release > 0 for j in jobs)
    alpha = cfg.alpha if cfg.alpha is not None else default_alpha(cfg.objective, with_releases)
    # a config field, such as a tiny epsilon, can make the instance invalid
    return Instance(
        jobs=tuple(jobs),
        speedset=speedset,
        precedence=PrecedenceDag(tuple(edges)),
        objective=cfg.objective,
        alpha=alpha,
        epsilon=cfg.epsilon,
        beta=cfg.beta,
    )
