"""The benchmark's workloads: seeded instance lists and the call each one makes.

Each workload is a fixed list of instances from ``instance.generate``, with
sub-seeds derived from the workload seed; the program only sees the
generated instances.  README.md records why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from energysched import cli, instance, pipeline, timegrid
from energysched.instance import GeneratorConfig, Instance, Objective

from . import calibration, checks

#: generator draws tried per list position when a workload fixes the LP shape
_SHAPE_SCAN = 1000


@dataclass(frozen=True)
class Case:
    """One entry of a workload's instance list."""

    instance: Instance
    path: Path | None = None     # the instance saved as JSON (file-based workloads)
    out: Path | None = None      # where the first LP dump of that file is saved


class Spec(NamedTuple):
    """The ``instance.generate`` arguments of one list position."""

    seed: int
    n: int
    m: int
    config: GeneratorConfig

    def generate(self) -> Instance:
        return instance.generate(self.seed, self.n, self.m, self.config)


@dataclass(frozen=True)
class Workload:
    name: str
    size: int                                  # distinct instances in the list
    pick: Callable[[int, int], Spec]           # (workload seed, list position) -> spec
    call: Callable[[Case], object]             # the timed call for one instance
    keep: Callable[[Case, object], object]     # what the check needs of a call's result (untimed)
    check: Callable[[Case, object], list]      # problems with a kept outcome; empty when correct
    kernel: Callable[[], object]               # calibration kernel run before each instance run
    files: bool = False                        # save each instance as JSON during set-up;
                                               # the check reads the first run's output file
    oracle: bool = False                       # the call runs ``oracle.brute_force``

    def specs(self, seed: int) -> list:
        """The list's generator arguments; not part of the timed set-up."""
        return [self.pick(seed, k) for k in range(self.size)]

    def setup(self, specs: list, workdir: Path) -> list:
        """Generate the instances and, for file-based workloads, save them."""
        cases = []
        for k, spec in enumerate(specs):
            inst = spec.generate()
            if self.files:
                path = workdir / f"instance-{k}.json"
                instance.save(inst, path)
                cases.append(Case(inst, path, workdir / f"instance-{k}.lp"))
            else:
                cases.append(Case(inst))
        return cases


def subseed(seed: int, position: int, draw: int = 0) -> int:
    return (seed * 1000 + position) * _SHAPE_SCAN + draw


def shaped(seed: int, position: int, n: int, m: int, cfg: GeneratorConfig,
           edges: int, intervals: int) -> Spec:
    """First generator draw with exactly ``edges`` precedence edges and a
    time grid of ``intervals`` intervals.

    Those two set the LP's row count, and the simplex's cost per iteration
    grows with its cube, so they are the main cause of solve-time spread
    between instances of one size.  Fixing them keeps a run's figures steady
    across workload seeds, while the DAG, sizes, weights and energies still
    vary with the seed.  The scan runs before set-up is timed.
    """
    for draw in range(_SHAPE_SCAN):
        spec = Spec(subseed(seed, position, draw), n, m, cfg)
        inst = spec.generate()
        if (len(inst.precedence.edges) == edges
                and timegrid.build_grid(inst).T == intervals):
            return spec
    raise RuntimeError(f"no instance with {edges} edges and {intervals} intervals "
                       f"in {_SHAPE_SCAN} draws at n={n}")


_COMPLETION = GeneratorConfig(edge_density=0.3)
# delta = 3 spaces the six speeds so that sigma_6 >= 6.25 * sigma_4 > gamma * sigma_4
# (gamma = 6): SAIAS-T then stays inside the speed set unless the LP runs a job
# faster than sigma_4, which no sampled instance did.  At the default delta = 1
# about a third of these instances end in SpeedRangeError.
_TARDINESS = GeneratorConfig(objective=Objective.TARDINESS, edge_density=0.3, delta=3.0)
_RELEASES = GeneratorConfig(edge_density=0.0, release_max=5.0)


def _solve_mid_spec(seed: int, k: int) -> Spec:
    if k % 4 == 3:
        return shaped(seed, k, 8, 6, _TARDINESS, edges=8, intervals=23)
    return shaped(seed, k, 10, 3, _COMPLETION, edges=14, intervals=12)


def _export_spec(seed: int, k: int) -> Spec:
    cfg = GeneratorConfig(edge_density=0.3, energy_kind="table" if k % 2 else "poly")
    return shaped(seed, k, 40, 3, cfg, edges=235, intervals=15)


class Solved(NamedTuple):
    """What the checks read from one ``pipeline.run`` result.

    Keeping only this, and not the model and LP solution, stops earlier
    results from piling up in ``peak_rss_mb``.
    """

    schedule: object
    report: dict


def _keep_solved(case: Case, result) -> Solved:
    return Solved(result.schedule, result.report)


def _check_solved(case: Case, solved: Solved, with_oracle: bool) -> list:
    return checks.check_pipeline(case.instance, solved.schedule, solved.report, with_oracle)


def _lp_dump(case: Case) -> str:
    """``energysched lp-dump <file>``; the dump goes to stdout, captured in
    memory, so no disk write is timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(["lp-dump", str(case.path)])
    if status != 0:
        raise RuntimeError(f"lp-dump exited with {status}: {err.getvalue().strip()}")
    return out.getvalue()


def _keep_dump(case: Case, text: str) -> None:
    # every run of an instance dumps the same text; the first one is checked
    if not case.out.exists():
        case.out.write_text(text)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-mid",
            size=48,
            pick=_solve_mid_spec,
            call=lambda case: pipeline.run(case.instance),
            keep=_keep_solved,
            check=lambda case, solved: _check_solved(case, solved, with_oracle=False),
            kernel=calibration.simplex_kernel,
        ),
        Workload(
            name="verify-small",
            size=4,
            pick=lambda seed, k: Spec(subseed(seed, k), 7, 3, _RELEASES),
            call=lambda case: pipeline.run(case.instance, with_oracle=True),
            keep=_keep_solved,
            check=lambda case, solved: _check_solved(case, solved, with_oracle=True),
            kernel=calibration.oracle_kernel,
            oracle=True,
        ),
        Workload(
            name="export-n40",
            size=4,
            pick=_export_spec,
            call=_lp_dump,
            keep=_keep_dump,
            check=lambda case, _: checks.check_dump(case.instance, case.out.read_text()),
            kernel=calibration.dump_kernel,
            files=True,
        ),
    )
}

