#!/usr/bin/env python3
"""Benchmark for energysched: one closed-loop caller, one process.

    python3 perfbench/run.py --workload solve-mid --seed 1 --seconds 35 --trace 0

Builds the workload's instance list from ``--seed``, then calls the program
on one instance after another (cycling through the list) until ``--seconds``
have passed, and checks every output after the timed loop.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` each instance runs once untraced and once traced, and the last
line carries the per-layer metrics.  The full record, with the environment,
every instance's status and the spans, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("solve-mid", "verify-small", "export-n40")

#: One BLAS thread: the benchmark is a single closed-loop caller, a second
#: thread gains nothing at these sizes, and it would make timings depend on
#: the load on the other cores.  Simplex iteration counts depend on this
#: setting, because it changes the order of BLAS reductions.
BLAS_THREADS = 1
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "energysched" / "__init__.py").is_file():
        print(f"error: no energysched sources under {SRC}", file=sys.stderr)
        return 2

    # before numpy loads here or in a child, or the pin has no effect
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench, workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = bench.measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir)
    result["env"] = bench.environment(args.seed)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, default=str) + "\n")
    print("\n".join(bench.summary_lines(result)))
    print(f"record {record.relative_to(ROOT)}")
    print(bench.final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
