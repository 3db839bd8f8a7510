"""Shared pytest plumbing: the acceptance-criteria summary block.

Acceptance tests register one line per criterion; the hook prints them after
the normal test report so the verdicts are visible without -s. A last line
reports the size of the package: its source lines, public names and CLI options.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

ACCEPTANCE_LINES = []
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def acceptance_log():
    def log(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
    return log


def _surface() -> str:
    lines = sum(p.read_bytes().count(b"\n") for p in (SRC / "ukd").glob("*.py"))
    # a fresh interpreter, so submodules imported by tests are not counted
    count = subprocess.run(
        [sys.executable, "-c",
         "import ukd; print(sum(not n.startswith('_') for n in vars(ukd)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}).stdout.strip()
    from ukd.cli import build_parser

    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices.values()
    options = sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
                  for command in commands for a in command._actions)
    return f"surface: src/ukd {lines} lines, {count} public names, {options} cli options"


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    terminalreporter.write_line(_surface())
