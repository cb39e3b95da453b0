
import dataclasses
import functools
import hashlib
import json
import random
import re

import pytest

from energysched import (
    GeneratorConfig,
    Instance,
    Job,
    Objective,
    ParseError,
    PolynomialEnergy,
    PrecedenceDag,
    SpeedSet,
    TableEnergy,
    generate,
    load,
    quantize_speed_range,
    save,
    validate,
)
from energysched import instance as instance_mod
from energysched import pipeline
from energysched.instance import from_dict, to_dict
from energysched.lp import build_lp

from helpers import reference_transitive_reduction


def minimal_instance(**kw):
    defaults = dict(
        jobs=(Job(id=1, rho=1, weight=1.0),),
        speedset=SpeedSet((1.0,), 0.5),
    )
    defaults.update(kw)
    return Instance(**defaults)


def test_minimal_instance_is_valid():
    assert validate(minimal_instance()) == []


def test_two_cycle_reported():
    with pytest.raises(ValueError, match="precedence graph has a cycle"):
        minimal_instance(
            jobs=(Job(1, 1, 1.0), Job(2, 1, 1.0)),
            precedence=PrecedenceDag(((1, 2), (2, 1))),
        )


def test_transitive_reduction_drops_implied_and_repeated_edges():
    # 1 -> 2 -> 3 -> 4 implies 1 -> 3, 1 -> 4 and 2 -> 4; 5 -> 4 stands alone
    dag = PrecedenceDag(((1, 3), (1, 2), (2, 3), (1, 4), (3, 4), (2, 4), (5, 4), (1, 2)))
    assert dag.reduced_edges == ((1, 2), (2, 3), (3, 4), (5, 4))
    assert PrecedenceDag().reduced_edges == ()


def test_transitive_reduction_rejects_a_cycle():
    with pytest.raises(ValueError, match="cycle"):
        PrecedenceDag(((1, 2), (2, 3), (3, 1))).reduced_edges


def test_a_cycle_is_reported_once_every_other_field_is_valid():
    cyclic = dict(jobs=(Job(1, 1, 1.0), Job(2, 1, 1.0)),
                  precedence=PrecedenceDag(((1, 2), (2, 1))))
    with pytest.raises(ValueError, match=r"^invalid instance: alpha must lie in \(0, 1\), got 2.0$"):
        minimal_instance(alpha=2.0, **cyclic)
    with pytest.raises(ValueError, match="^invalid instance: precedence graph has a cycle$"):
        minimal_instance(**cyclic)


def test_the_reduction_is_computed_once_per_dag(monkeypatch):
    generated = generate(1, 8, 2, GeneratorConfig(edge_density=0.5))
    reduce, reduced = PrecedenceDag.reduced_edges.func, []

    def recording_reduce(dag):
        reduced.append(dag)
        return reduce(dag)

    counted = functools.cached_property(recording_reduce)
    counted.__set_name__(PrecedenceDag, "reduced_edges")
    monkeypatch.setattr(PrecedenceDag, "reduced_edges", counted)
    dag = PrecedenceDag(generated.precedence.edges)
    inst = Instance(generated.jobs, generated.speedset, dag)    # validation reduces the DAG
    assert len(reduced) == 1 and reduced[0] is dag
    finer = dataclasses.replace(inst, epsilon=0.25)             # shares the DAG
    model = build_lp(finer, finer.grid)
    assert len(reduced) == 1
    assert any(row.kind == "prec" for row in model.rows)


def test_a_finite_cost_per_job_with_an_infinite_sum_is_refused():
    # tau_T = 1.125, so each job's term is 1.125e308 + 2.0, and their sum is inf
    jobs = tuple(Job(i, 1, 1e308) for i in (1, 2))
    with pytest.raises(ValueError, match=re.escape(
            "the sum over jobs of largest energy cost plus weight * tau_T must be finite, "
            "got inf")):
        minimal_instance(jobs=jobs, speedset=SpeedSet((2.0,), 0.5))


def _reduction_or_error(reduce, dag):
    try:
        return reduce(dag)
    except ValueError as exc:
        return str(exc)


#: ids a precedence edge may carry: negative, zero, past int64 and past uint64
ID_POOL = [-7, -1, 0, 1, 2, 3, 5, 9, 40, 41, 1000, 2**63 + 7, 10**20, -(10**20)]


def _random_edges(rng):
    """Edges among 1-14 shuffled ids: forward edges of a random order, some
    repeated, with a back edge in about 10 % and a self-loop in about 2 %."""
    ids = rng.sample(ID_POOL, rng.randint(1, 14))
    edges = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:] if rng.random() < 0.4]
    edges += rng.choices(edges, k=rng.randint(0, len(edges)))
    rng.shuffle(edges)
    if edges and rng.random() < 0.1:
        a, b = rng.choice(edges)
        edges.insert(rng.randint(0, len(edges)), (b, a))
    if rng.random() < 0.02:
        v = rng.choice(ids)
        edges.insert(rng.randint(0, len(edges)), (v, v))
    return tuple(edges)


def test_transitive_reduction_matches_the_reference_on_random_edges():
    rng = random.Random(2024)
    cycles = 0
    for _ in range(2500):
        dag = PrecedenceDag(_random_edges(rng))
        expected = _reduction_or_error(reference_transitive_reduction, dag)
        assert _reduction_or_error(lambda d: d.reduced_edges, dag) == expected, dag
        cycles += isinstance(expected, str)
    assert cycles > 100                   # the error path is exercised too


@pytest.mark.parametrize("n", [40, 80, 120])
@pytest.mark.parametrize("density", [0.3, 0.8])
def test_transitive_reduction_matches_the_reference_on_generated_dags(n, density):
    for seed in (1, 2):
        dag = generate(seed, n, 3, GeneratorConfig(edge_density=density)).precedence
        assert dag.reduced_edges == reference_transitive_reduction(dag)


def test_speed_spacing_violation():
    with pytest.raises(ValueError, match=re.escape("speed spacing violated: 4.0 > (1+1.0)*1.0")):
        minimal_instance(speedset=SpeedSet((1.0, 4.0), 1.0))


def test_zero_weight_rejected():
    with pytest.raises(ValueError, match="job 1: weight must be positive, got 0.0"):
        minimal_instance(jobs=(Job(1, 1, 0.0),))


def test_tardiness_with_releases_rejected():
    with pytest.raises(ValueError,
                       match="tardiness objective requires all release dates to be 0"):
        minimal_instance(
            jobs=(Job(1, 1, 1.0, release=2.0, deadline=5.0),),
            objective=Objective.TARDINESS,
        )


#: one invalid field per case, on an otherwise valid one-job instance
INVALID = {
    "instance has no jobs": dict(jobs=()),
    "job ids are not unique": dict(jobs=(Job(1, 1, 1.0), Job(1, 2, 1.0))),
    "job 1: release must be non-negative": dict(jobs=(Job(1, 1, 1.0, release=-1.0),)),
    "job 1: deadline must be non-negative": dict(jobs=(Job(1, 1, 1.0, deadline=-1.0),)),
    "job 1: table energy has 2 entries for 1 speeds":
        dict(jobs=(Job(1, 1, 1.0, energy=TableEnergy((1.0, 2.0))),)),
    "speed set is empty": dict(speedset=SpeedSet((), 0.5)),
    "all speeds must be positive": dict(speedset=SpeedSet((0.0, 1.0), 0.5)),
    "speeds must be strictly increasing": dict(speedset=SpeedSet((1.0, 1.0), 0.5)),
    "delta must be positive": dict(speedset=SpeedSet((1.0,), 0.0)),
    "precedence edge (1, 9) references unknown job id": dict(precedence=PrecedenceDag(((1, 9),))),
    "epsilon must be positive": dict(epsilon=0.0),
    "beta must be >= 2": dict(beta=1.5),
}


@pytest.mark.parametrize("message", INVALID)
def test_validate_names_each_invalid_field(message):
    # the message opens one entry of the report: the first, or one after a "; "
    with pytest.raises(ValueError, match=f"(^invalid instance: |; ){re.escape(message)}"):
        minimal_instance(**INVALID[message])


@pytest.fixture
def validated(monkeypatch):
    """The instances ``instance.validate`` is called on, in call order."""
    seen = []

    def spy(inst):
        seen.append(inst)
        return validate(inst)

    monkeypatch.setattr(instance_mod, "validate", spy)
    return seen


#: each way an instance is built, from a generated instance saved at a path
BUILDS = {
    "Instance": lambda inst, path: Instance(inst.jobs, inst.speedset, inst.precedence),
    "replace": lambda inst, path: dataclasses.replace(inst, epsilon=0.25),
    "generate": lambda inst, path: generate(2, 5, 3),
    "load": lambda inst, path: load(path),
}


@pytest.mark.parametrize("build", BUILDS)
def test_each_built_instance_is_validated_once(build, tmp_path, request):
    inst, path = generate(1, 5, 3), tmp_path / "inst.json"
    save(inst, path)
    validated = request.getfixturevalue("validated")      # spies from here on
    built = BUILDS[build](inst, path)
    assert len(validated) == 1 and validated[0] is built


@pytest.mark.parametrize("with_oracle", [False, True])
def test_pipeline_run_validates_nothing(with_oracle, request):
    inst = generate(1, 5, 3, GeneratorConfig(release_max=3.0))
    validated = request.getfixturevalue("validated")      # spies from here on
    pipeline.run(inst, with_oracle=with_oracle)
    assert validated == []


def test_roundtrip_identity(tmp_path):
    inst = Instance(
        jobs=(
            Job(1, 2, 1.5, release=0.5, energy=PolynomialEnergy(1.2, 3.0)),
            Job(2, 1, 2.0, energy=TableEnergy((1.0, 4.0))),
            Job(3, 3, 0.7),
        ),
        speedset=SpeedSet((1.0, 1.9), 1.0),
        precedence=PrecedenceDag(((1, 3),)),
        objective=Objective.COMPLETION_TIME,
        alpha=0.4,
        epsilon=0.25,
        beta=3.0,
    )
    path = tmp_path / "inst.json"
    save(inst, path)
    assert load(path) == inst


def test_malformed_field_names_field(tmp_path):
    path = tmp_path / "bad.json"
    inst = minimal_instance()
    d = to_dict(inst)
    d["jobs"][0]["rho"] = "two"
    with pytest.raises(ParseError, match="rho"):
        from_dict(d)


def test_negative_rho_rejected():
    d = to_dict(minimal_instance())
    d["jobs"][0]["rho"] = -1
    with pytest.raises(ParseError, match="rho"):
        from_dict(d)


def test_unknown_fields_rejected():
    d = to_dict(minimal_instance())
    d["machines"] = 2
    with pytest.raises(ParseError, match="machines"):
        from_dict(d)


def test_generate_deterministic():
    cfg = GeneratorConfig(edge_density=0.5)
    assert generate(7, 4, 2, cfg) == generate(7, 4, 2, cfg)


def test_generate_zero_density_has_no_edges():
    inst = generate(3, 5, 2, GeneratorConfig(edge_density=0.0))
    assert inst.precedence.edges == ()


def test_generate_single_job():
    inst = generate(11, 1, 1)
    assert inst.n == 1
    assert validate(inst) == []


#: the message of each generator setting that is refused before any draw
BAD_GENERATOR = {
    "edge_density must be in [0, 1], got 1.5": lambda: GeneratorConfig(edge_density=1.5),
    "rho_max must be positive, got 0": lambda: GeneratorConfig(rho_max=0),
    "unknown energy kind 'cubic'": lambda: GeneratorConfig(energy_kind="cubic"),
    "release_max must be finite and non-negative, got inf":
        lambda: GeneratorConfig(release_max=float("inf")),
    "release_max must be finite and non-negative, got nan":
        lambda: GeneratorConfig(release_max=float("nan")),
    "release_max must be finite and non-negative, got -1.0":
        lambda: GeneratorConfig(release_max=-1.0),
    "deadline_max must be finite and non-negative, got inf":
        lambda: GeneratorConfig(objective=Objective.TARDINESS, deadline_max=float("inf")),
    "deadline_max must be finite and non-negative, got -2.0":
        lambda: GeneratorConfig(deadline_max=-2.0),
    "tardiness instances cannot have release dates":
        lambda: GeneratorConfig(objective=Objective.TARDINESS, release_max=1.0),
    "need n >= 1 jobs and m >= 1 speeds, got n=0, m=2": lambda: generate(1, 0, 2),
}


@pytest.mark.parametrize("message", BAD_GENERATOR)
def test_generator_refuses_each_bad_setting(message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BAD_GENERATOR[message]()


#: the message of each (sigma_min, sigma_max, delta) the speed ladder refuses
BAD_SPEED_RANGE = {
    "invalid speed range [0.0, 2.0]": (0.0, 2.0, 1.0),
    "invalid speed range [-1.0, 2.0]": (-1.0, 2.0, 1.0),
    "invalid speed range [2.0, 1.0]": (2.0, 1.0, 1.0),
    "ladder spacing must be positive, got 0.0": (1.0, 2.0, 0.0),
    "ladder spacing must be positive, got -0.5": (1.0, 2.0, -0.5),
}


@pytest.mark.parametrize("message", BAD_SPEED_RANGE)
def test_speed_ladder_refuses_each_bad_range(message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        quantize_speed_range(*BAD_SPEED_RANGE[message])


@pytest.mark.parametrize("seed", range(20))
def test_generated_instances_validate(seed):
    cfg = GeneratorConfig(
        objective=Objective.TARDINESS if seed % 2 else Objective.COMPLETION_TIME,
        energy_kind="table" if seed % 3 == 0 else "poly",
        edge_density=0.4,
    )
    inst = generate(seed, 1 + seed % 6, 1 + seed % 3, cfg)
    assert validate(inst) == []


#: the first 16 hex digits of the sha256 of the JSON of ``generate(seed, 6, 4, cfg)``
#: at seeds 1, 2 and 3.  They pin the generator's draws and their ranges, on which
#: the acceptance fixtures depend.
GENERATOR_DIGESTS = {
    ("poly", "completion"): "e0baef680ad54783",
    ("poly", "releases"): "e8b7d27c97220813",
    ("poly", "tardiness"): "40035de95541a096",
    ("table", "completion"): "12f709ff3a35c841",
    ("table", "releases"): "bcadc2c61c26aeaa",
    ("table", "tardiness"): "7f85c34432992251",
}
GENERATOR_SETTINGS = {
    "completion": {},
    "releases": {"edge_density": 0.0, "release_max": 5.0},
    "tardiness": {"objective": Objective.TARDINESS},
}


@pytest.mark.parametrize("kind, setting", GENERATOR_DIGESTS)
def test_generated_instances_are_unchanged(kind, setting):
    cfg = GeneratorConfig(energy_kind=kind, **GENERATOR_SETTINGS[setting])
    text = json.dumps([to_dict(generate(seed, 6, 4, cfg)) for seed in (1, 2, 3)])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == GENERATOR_DIGESTS[kind, setting]


@pytest.mark.parametrize("seed", range(10))
def test_generated_instances_roundtrip(seed, tmp_path):
    inst = generate(seed, 4, 3, GeneratorConfig(energy_kind="table"))
    path = tmp_path / "g.json"
    save(inst, path)
    again = load(path)
    assert again == inst
    assert again.speedset.delta == inst.speedset.delta
    assert (again.alpha, again.epsilon, again.beta) == (inst.alpha, inst.epsilon, inst.beta)


def test_deadlines_ignored_for_completion_objective():
    # deadlines may be present; only the tardiness objective reads them
    inst = minimal_instance(jobs=(Job(1, 1, 1.0, deadline=3.0),))
    assert validate(inst) == []
