"""The narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trisol

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_grid_and_poisson.py", "02_spectrum.py",
                                  "03_truncation_and_energy.py", "04_minimizers.py",
                                  "05_mountain_pass.py", "06_full_pipeline.py",
                                  "07_shooting_oracle.py"])
def test_demo_runs(tmp_path, name):
    src = str(Path(trisol.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
