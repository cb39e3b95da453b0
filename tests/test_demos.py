"""Every demo script runs to completion against the package in ``src``.

The demos import public names that no other test touches, so deleting or
renaming one of them shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "benchmark_ratios.py",
    "completion_walkthrough.py",
    "energy_models.py",
    "tardiness_walkthrough.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
