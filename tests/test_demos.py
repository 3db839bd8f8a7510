"""The fast API-tour demos run to completion as a user runs them.

Demos 03-05 train full runs (seconds each); the commands they drive are
covered by the CLI and harness tests, so only 01 and 02 run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_autodiff_basics.py", "02_distillation_losses.py"])
def test_demo_runs(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
