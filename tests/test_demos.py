"""The fast API-tour demos run to completion as a user runs them.

Demos 03-05 train full runs (seconds each); the commands they drive are
covered by the CLI and harness tests, so only 01 and 02 run here. Every
demo's imports from ukd are checked, so a renamed API cannot break one
unnoticed.
"""

import ast
import importlib.util
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


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_exist(demo):
    tree = ast.parse((ROOT / "demos" / demo).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "ukd":
                    importlib.import_module(a.name)  # raises when the module is gone
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ukd":
            module = importlib.import_module(node.module)
            for a in node.names:  # a name the module defines, or a submodule of a package
                if not (hasattr(module, a.name) or hasattr(module, "__path__") and
                        importlib.util.find_spec(f"{node.module}.{a.name}") is not None):
                    missing.append(f"{node.module}.{a.name}")
    assert missing == []
