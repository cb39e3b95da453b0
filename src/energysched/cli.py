"""Command-line surface: gen, solve, oracle, bench, lp-dump, perf.

All commands print machine-readable JSON on stdout (``--pretty`` for an
indented human mode) and diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import platform
import sys
import time

import numpy as np

from . import instance as instance_mod
from . import lp, oracle, pipeline, rounding, timegrid
from .instance import GeneratorConfig, Objective


#: ``energysched perf`` solves ``generate(seed, n, 3)`` at every one of these
#: seeds and sizes
PERF_SEEDS = (1, 2, 3)
PERF_SIZES = (5, 10, 15, 20, 30, 40, 60, 80)


def _emit(data: dict, pretty: bool) -> None:
    print(json.dumps(data, indent=2 if pretty else None, sort_keys=pretty))


def _generator_config(args) -> GeneratorConfig:
    """The generator flags given, on the defaults of ``GeneratorConfig``."""
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(GeneratorConfig) if hasattr(args, f.name)}
    if "objective" in given:
        given["objective"] = Objective(given["objective"])
    return GeneratorConfig(**given)


def _add_generator_flags(p) -> None:
    """One flag per ``GeneratorConfig`` field, with no default of its own."""
    flag = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--objective", choices=[o.value for o in Objective])
    flag("--edge-density", type=float)
    flag("--rho-max", type=int)
    flag("--release-max", type=float)
    flag("--deadline-max", type=float)
    flag("--energy", choices=["poly", "table"], dest="energy_kind")
    flag("--beta", type=float)
    flag("--delta", type=float)
    flag("--epsilon", type=float)
    flag("--alpha", type=float)


def cmd_gen(args) -> int:
    cfg = _generator_config(args)
    inst = instance_mod.generate(args.seed, args.n, args.m, cfg)
    if args.out:
        instance_mod.save(inst, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        _emit(instance_mod.to_dict(inst), args.pretty)
    return 0


def cmd_solve(args) -> int:
    inst = instance_mod.load(args.instance)
    given = {"alpha": args.alpha, "epsilon": args.epsilon,
             "objective": args.objective and Objective(args.objective)}
    overrides = {k: v for k, v in given.items() if v is not None}
    if overrides:       # a replaced instance builds its grid anew; keep the loaded one's
        inst = dataclasses.replace(inst, **overrides)
    result = pipeline.run(inst, with_oracle=args.oracle)
    _emit(pipeline.schedule_to_dict(result), args.pretty)
    return 0


def cmd_oracle(args) -> int:
    inst = instance_mod.load(args.instance)
    exact = oracle.brute_force(inst, args.n_cap, args.m_cap)
    _emit({"cost": exact.cost, "order": list(exact.order),
           "speeds": {str(k): v for k, v in exact.speed.items()}}, args.pretty)
    return 0


def _check_tardiness_ladder(cfg: GeneratorConfig, m: int) -> None:
    """Refuse a tardiness batch whose speed ladders cannot span gamma, and
    warn on stderr when only some of them can.

    ``generate`` draws each speed step between 1 + delta/2 and 1 + delta
    apart, so sigma_m / sigma_1 lies between (1 + delta/2)**(m - 1) and
    (1 + delta)**(m - 1); ``check_speed_range`` refuses every instance whose
    ladder falls below gamma.
    """
    alpha = cfg.alpha if cfg.alpha is not None else instance_mod.default_alpha(cfg.objective, False)
    gamma, span = rounding.tardiness_gamma(cfg.epsilon, alpha), (1 + cfg.delta) ** (m - 1)
    if gamma * (1 - 1e-12) > span:
        raise ValueError(
            f"--objective tardiness needs speeds spanning gamma = {gamma:g}, but --m {m} "
            f"and --delta {cfg.delta:g} give speed ladders spanning at most "
            f"(1 + delta)**(m - 1) = {span:g}; raise --m or --delta"
        )
    narrowest = (1 + cfg.delta / 2) ** (m - 1)
    if gamma * (1 - 1e-12) > narrowest:
        print(f"warning: --m {m} and --delta {cfg.delta:g} give speed ladders spanning "
              f"from (1 + delta/2)**(m - 1) = {narrowest:g} to (1 + delta)**(m - 1) = "
              f"{span:g}; instances whose ladder spans less than gamma = {gamma:g} "
              f"fail with SpeedRangeError", file=sys.stderr)


def cmd_bench(args) -> int:
    cfg = _generator_config(args)
    if cfg.objective is Objective.TARDINESS:
        _check_tardiness_ladder(cfg, args.m)
    rows = []
    for k in range(args.count):
        seed = args.seed + k
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, args.n + 1)) if args.vary_n else args.n
        inst = instance_mod.generate(seed, n, args.m, cfg)
        row = {"seed": seed, "n": n, "m": args.m}
        try:
            result = pipeline.run(inst, with_oracle=args.oracle)
        except (RuntimeError, oracle.SizeCapError) as exc:   # recorded; the batch goes on
            rows.append({**row, "status": type(exc).__name__, "error": str(exc)})
            continue
        rows.append({**row, "status": "ok", "error": None, **result.report})
    ok = [r for r in rows if r["status"] == "ok"]
    agg = {"count": len(rows), "failed": len(rows) - len(ok)}
    for key in ["ratio_vs_lp"] + (["ratio_vs_oracle"] if args.oracle else []):
        values = [r[key] for r in ok]           # null when no instance succeeded
        agg[f"max_{key}"] = max(values, default=None)
        agg[f"mean_{key}"] = sum(values) / len(values) if values else None
    if args.oracle:
        agg["bound_violations"] = sum(
            1 for r in ok if r["ratio_vs_oracle"] > r["theoretical_bound"] * (1 + 1e-9)
        )
    _emit({"instances": rows, "aggregate": agg}, args.pretty)
    return 0


def cmd_lpdump(args) -> int:
    inst = instance_mod.load(args.instance)
    text = lp.lp_dump(lp.build_lp(inst, inst.grid))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _perf_row(seed: int, n: int) -> dict:
    """Grid, LP build, solve and dump of ``generate(seed, n, 3)``, each timed."""
    inst = instance_mod.generate(seed, n, 3)
    t0 = time.perf_counter()
    grid = timegrid.build_grid(inst)     # not inst.grid: generate has cached it
    t1 = time.perf_counter()
    model = lp.build_lp(inst, grid)
    t2 = time.perf_counter()
    sol = lp.solve_lp(model)
    t3 = time.perf_counter()
    text = lp.lp_dump(model)
    t4 = time.perf_counter()
    return {
        "seed": seed, "n": n, "m": 3, "rows": len(model.rows), "cols": model.ncols,
        "iterations": sol.iterations,
        "bound_flips": sol.bound_flips, "degenerate_pivots": sol.degenerate_pivots,
        "bland": sol.bland, "kernel_max": sol.kernel_max, "objective": sol.objective,
        "grid_s": t1 - t0, "build_s": t2 - t1, "solve_s": t3 - t2,
        "dump_s": t4 - t3, "dump_bytes": len(text.encode()),
    }


def cmd_perf(args) -> int:
    _perf_row(PERF_SEEDS[0], PERF_SIZES[0])      # untimed warm-up: the first row runs warm too
    rows = [_perf_row(seed, n) for n in PERF_SIZES for seed in PERF_SEEDS]
    env = {
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    with open(args.out, "w") as fh:
        json.dump({"env": env, "instances": rows}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="energysched",
        description="Energy-aware single-machine scheduling via LP rounding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", default=None)
    _add_generator_flags(p)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve an instance file end to end")
    p.add_argument("instance")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--objective", choices=[o.value for o in Objective], default=None)
    p.add_argument("--oracle", action="store_true", help="also compute the exact optimum")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact brute-force optimum of an instance file")
    p.add_argument("instance")
    p.add_argument("--n-cap", type=int, default=oracle.DEFAULT_CAPS[0])
    p.add_argument("--m-cap", type=int, default=oracle.DEFAULT_CAPS[1])
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="seeded batch of random instances with ratio report")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--vary-n", action="store_true", help="draw n uniformly from 1..n per instance")
    p.add_argument("--oracle", action="store_true")
    _add_generator_flags(p)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("lp-dump", help="write the LP relaxation in text form")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lpdump)

    p = sub.add_parser("perf", help="time grid, LP build, solve and dump at fixed seeds and sizes")
    p.add_argument("--out", required=True, help="JSON record to write, BENCH_<tag>.json")
    p.set_defaults(func=cmd_perf)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        instance_mod.ParseError,
        FileNotFoundError,
        ValueError,
        RuntimeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
