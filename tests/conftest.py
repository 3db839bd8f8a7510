"""Shared pytest plumbing: the acceptance-criteria summary block.

Acceptance tests register one line per criterion; the hook prints them after
the normal test report so the verdicts are visible without -s. A last line
reports the size of the package (its source lines, public names and CLI
options), the graph nodes one default dual step builds, the row softmaxes
it computes and the Python function calls it makes.
"""

import argparse
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ACCEPTANCE_LINES = []
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def acceptance_log():
    def log(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
    return log


def _reachable_nodes(loss) -> int:
    seen, stack, count = {id(loss)}, [loss], 0
    while stack:
        t = stack.pop()
        if t.node is not None:
            count += 1
            for p in t.node.parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
    return count


def _dual_step():
    """One batch of a default dual-mode train on fresh networks, as a no-argument call.

    It does in one process what train and its teacher producer do per
    computed batch: wrap the batch in one Tensor, run the frozen teacher on
    it, and run train_step_dual on the teacher's logits.
    _dual_step_calls leaves out the frame of this plumbing function itself.
    """
    import numpy as np

    from ukd import harness
    from ukd.gradcore import Tensor
    from ukd.nets import build, forward
    from ukd.optim import SgdState

    config = harness.TrainConfig(mode="dual")
    teacher = build(config.teacher_spec, 1).freeze()
    students = [build(config.student1_spec, 2), build(config.student2_spec, 3)]
    opts = [SgdState(s.parameters, 0.1, 0.9, 0.0) for s in students]
    rng = np.random.default_rng(0)
    x = rng.normal(size=(config.batch_size, config.dataset.feature_dim))
    y = rng.integers(0, config.dataset.num_classes, config.batch_size)

    def step():
        xt = Tensor(x)
        return harness.train_step_dual(forward(teacher, xt), *students, (xt, y), config, *opts)
    return step


def _dual_step_graph() -> tuple[int, list[int], int]:
    """Nodes one default dual-mode train_step_dual creates, per loss those backward
    reaches, and the row log-softmaxes it computes."""
    from ukd import gradcore, harness

    step = _dual_step()
    reached, softmaxes = [], []
    log_softmax_data = gradcore._log_softmax_data

    def counting_backward(loss):
        reached.append(_reachable_nodes(loss))
        gradcore.backward(loss)

    def counting_log_softmax_data(zd, t):
        softmaxes.append(t)
        return log_softmax_data(zd, t)

    original, harness.backward = harness.backward, counting_backward
    gradcore._log_softmax_data = counting_log_softmax_data
    try:
        first = next(gradcore._SEQ)
        step()
        created = next(gradcore._SEQ) - first - 1
    finally:
        harness.backward = original
        gradcore._log_softmax_data = log_softmax_data
    return created, reached, len(softmaxes)


@pytest.fixture
def dual_step_graph():
    return _dual_step_graph()


def _dual_step_calls() -> Counter:
    """Python function calls of one warm default dual step, by the file defining each."""
    step = _dual_step()
    step()  # the counted step then meets no first-call work
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is not step.__code__:
            calls[Path(frame.f_code.co_filename).as_posix()] += 1

    sys.setprofile(profile)
    try:
        step()
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture
def dual_step_calls():
    return _dual_step_calls()


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
    created, _, softmaxes = _dual_step_graph()
    calls = sum(_dual_step_calls().values())
    return (f"surface: src/ukd {lines} lines, {count} public names, {options} cli options, "
            f"{created} nodes per dual step, {softmaxes} softmaxes per dual step, "
            f"{calls} python calls per dual step")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    terminalreporter.write_line(_surface())
