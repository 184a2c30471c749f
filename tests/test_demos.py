"""Each demo script runs to completion against the imported package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import germsum

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_truncated_series_and_division.py",
    "02_blowups_and_gevrey_orders.py",
    "03_borel_laplace_summation.py",
    "04_differential_equation_checks.py",
])
def test_demo_runs(name):
    # the child imports the same germsum as this process, installed or from src/
    env = dict(os.environ)
    package_root = str(Path(germsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
