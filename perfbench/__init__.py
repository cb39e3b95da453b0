"""End-to-end and per-layer benchmark for energysched.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; README.md describes the
workloads and metrics.
"""
