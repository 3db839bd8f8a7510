"""Run a ukd command up to its first training step, print the clock, exit.

Usage: python3 perfbench/probe.py UKD_ARGS...

measure.py starts this in a fresh interpreter and subtracts its own
``time.monotonic()`` reading, taken just before the start, from the one
printed here. The difference is the set-up time a user pays: interpreter
start, ``import ukd``, CLI parsing, data generation and network
construction. The first training step begins when the harness asks for
the first epoch's batches.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ukd.cli  # noqa: E402
import ukd.harness  # noqa: E402


class FirstStep(BaseException):
    """Raised in place of the first batch; BaseException so no handler eats it."""


def _stop(*args, **kwargs):
    raise FirstStep


def main() -> None:
    ukd.harness.batches = _stop
    try:
        code = ukd.cli.main(sys.argv[1:])
    except FirstStep:
        print(repr(time.monotonic()))
        return
    raise SystemExit(f"probe: ukd exited with code {code} before a training step")


if __name__ == "__main__":
    main()
