"""The benchmark's span tracing still fits the ukd functions it wraps.

perfbench/spans.py wraps ukd functions by name and its hooks read their
positional arguments. A tiny traced `ukd ablate` shows here, instead of only
in a traced benchmark run, when a refactor breaks one of those hooks.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

import ukd.cli  # noqa: E402

TINY = ["--classes", "4", "--per-class", "40", "--dim", "8", "--sigma", "0.5",
        "--teacher-epochs", "2", "--epochs", "2", "--batch-size", "32"]


def test_every_traced_layer_records_a_span(tmp_path, capsys):
    tracer = spans.Tracer()
    restore = spans.install(tracer, spans.LAYERS)
    try:  # looked up at call time, so the wrapper of cli.main sees the call
        code = ukd.cli.main(["ablate", "--seeds", "1", "--out", str(tmp_path / "abl")] + TINY)
    finally:
        restore()
    assert code == 0
    rep = tracer.take()
    expected = {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
                for module, names in spans.LAYERS for name in names}
    # the forward hook names each span by the role of the network it runs
    expected = (expected - {"nets.forward"}) | {"nets.forward_teacher", "nets.forward_student"}
    assert expected <= {name for name, *_ in rep.spans}
    metrics = spans.layer_metrics(rep)
    assert all(math.isfinite(value) for value in metrics.values())
    for count in ("gradcore.nodes_per_dual_step", "harness.evaluate_rows",
                  "harness.checkpoint_bytes"):
        assert metrics[count] > 0
