"""In-memory span tracing of ukd's layers, installed from outside the package.

A traced function is replaced by a wrapper in the namespace that defines it
and in ``ukd.harness``, ``ukd.cli`` and the ``ukd`` package wherever they
hold the same object. harness and cli bind names such as ``forward`` or
``train`` at import time, so patching only the defining module would miss
every call they make.

Spans are kept in memory as ``[name, start, end, parent]`` lists and
written out when the run ends. A span's self time is its duration minus its children's.
Wrapped functions are called positionally everywhere in ukd; the hooks
below rely on that.
"""

from __future__ import annotations

import gzip
import os
import statistics
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import ukd
from ukd import cli, data, distill, gradcore, harness, nets, optim

# Enough to split a run into its teacher and student phases.
PHASES = ((harness, ("train", "pretrain_teacher")),)

LAYERS = (
    (data, ("generate", "batches", "augment")),
    (nets, ("forward",)),
    (gradcore, ("backward", "zero_grad", "log_softmax")),
    (distill, ("uncertainty_stats", "hard_loss", "teacher_loss", "peer_loss", "total_loss")),
    (optim, ("sgd_step",)),
    (harness, ("ablate", "train", "pretrain_teacher", "train_step_dual", "evaluate",
               "save_checkpoint")),
    (cli, ("main",)),
)

# Node counts are taken on the first few dual-mode steps of a repeat only:
# walking the graph costs about as much as a small backward.
NODE_SAMPLE_STEPS = 3

# Counts that must repeat exactly between repeats of one commit.
EXACT_COUNTS = ("nets.forward_calls", "gradcore.backward_calls",
                "gradcore.nodes_per_dual_step", "distill.calls_hard",
                "distill.calls_teacher", "distill.calls_peer", "optim.sgd_step_calls",
                "harness.steps", "harness.evaluate_rows", "harness.checkpoint_bytes")


def graph_nodes(loss) -> int:
    """Tensors with a graph node reachable from loss, as backward walks them."""
    seen, stack, count = {id(loss)}, [loss], 0
    while stack:
        t = stack.pop()
        if t.node is None:
            continue
        count += 1
        for p in t.node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return count


@dataclass
class Repeat:
    """What one repeat recorded: its spans and the counts hooks collected."""

    spans: list[list] = field(default_factory=list)  # [name, start, end, parent]
    node_counts: list[int] = field(default_factory=list)  # per sampled dual step
    evaluate_rows: int = 0
    checkpoint_bytes: int = 0


class Tracer:
    """Records into ``rec``; ``take`` hands the finished Repeat over."""

    def __init__(self):
        self.rec = Repeat()
        self._open: list[int] = []
        self._pretrain_depth = 0
        self._step_nodes: int | None = None

    def take(self) -> Repeat:
        rec, self.rec = self.rec, Repeat()
        return rec

    def _wrap(self, span: str, fn):
        key = span.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = (before(args) if before else None) or span
            spans = self.rec.spans
            idx = len(spans)
            spans.append([name, clock(), 0.0, self._open[-1] if self._open else -1])
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                self._open.pop()
                if after:
                    after(args)

        traced.__wrapped__ = fn
        return traced

    # Hooks, keyed by span name. A before-hook may return a span name.

    def _before_nets_forward(self, args):
        teacher = args[0].frozen or self._pretrain_depth > 0
        return "nets.forward_teacher" if teacher else "nets.forward_student"

    def _before_harness_pretrain_teacher(self, args):
        self._pretrain_depth += 1

    def _after_harness_pretrain_teacher(self, args):
        self._pretrain_depth -= 1

    def _before_harness_train_step_dual(self, args):
        if args[4].mode == "dual" and len(self.rec.node_counts) < NODE_SAMPLE_STEPS:
            self._step_nodes = 0

    def _after_harness_train_step_dual(self, args):
        if self._step_nodes is not None:
            self.rec.node_counts.append(self._step_nodes)
            self._step_nodes = None

    def _before_gradcore_backward(self, args):
        if self._step_nodes is not None:
            self._step_nodes += graph_nodes(args[0])

    def _after_harness_evaluate(self, args):
        self.rec.evaluate_rows += len(args[1].split_indices(args[2]))

    def _after_harness_save_checkpoint(self, args):
        self.rec.checkpoint_bytes += os.path.getsize(args[1])


def install(tracer: Tracer, targets) -> Callable[[], None]:
    """Wrap every (module, names) target; returns a function that undoes it."""
    undo = []
    for module, names in targets:
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            fn = getattr(module, name)
            traced = tracer._wrap(f"{layer}.{name}", fn)
            for ns in (module, harness, cli, ukd):
                if getattr(ns, name, None) is fn:
                    undo.append((ns, name, fn))
                    setattr(ns, name, traced)

    def restore():
        for ns, name, fn in reversed(undo):
            setattr(ns, name, fn)
    return restore


def _durations(spans) -> tuple[Counter, Counter, Counter]:
    """Total time, self time and call count per span name."""
    total, own, calls = Counter(), Counter(), Counter()
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for (name, start, end, _), covered in zip(spans, children):
        total[name] += end - start
        own[name] += end - start - covered
        calls[name] += 1
    return total, own, calls


def phase_walls(rep: Repeat) -> tuple[float, int, float, int]:
    """(teacher wall, pretrain calls, student wall, train calls) of one repeat.

    The student phase is the self time of ``harness.train``: the whole call
    minus any teacher pretraining nested in it.
    """
    total, own, calls = _durations(rep.spans)
    return (total["harness.pretrain_teacher"], calls["harness.pretrain_teacher"],
            own["harness.train"], calls["harness.train"])


def layer_metrics(rep: Repeat) -> dict[str, float]:
    """Per-layer seconds and counts of one traced repeat (step percentiles aside)."""
    total, own, calls = _durations(rep.spans)
    return {
        "data.generate_s": total["data.generate"],
        "data.batches_s": total["data.batches"],
        "data.augment_s": total["data.augment"],
        "nets.forward_teacher_s": total["nets.forward_teacher"],
        "nets.forward_student_s": total["nets.forward_student"],
        "nets.forward_calls": calls["nets.forward_teacher"] + calls["nets.forward_student"],
        "gradcore.backward_s": total["gradcore.backward"],
        "gradcore.zero_grad_s": total["gradcore.zero_grad"],
        "gradcore.log_softmax_s": total["gradcore.log_softmax"],
        "gradcore.backward_calls": calls["gradcore.backward"],
        "gradcore.nodes_per_dual_step": rep.node_counts[0],
        "distill.uncertainty_stats_s": total["distill.uncertainty_stats"],
        "distill.hard_loss_s": total["distill.hard_loss"],
        "distill.teacher_loss_s": total["distill.teacher_loss"],
        "distill.peer_loss_s": total["distill.peer_loss"],
        "distill.total_loss_s": total["distill.total_loss"],
        "distill.calls_hard": calls["distill.hard_loss"],
        "distill.calls_teacher": calls["distill.teacher_loss"],
        "distill.calls_peer": calls["distill.peer_loss"],
        "optim.sgd_step_s": total["optim.sgd_step"],
        "optim.sgd_step_calls": calls["optim.sgd_step"],
        "harness.step_self_s": own["harness.train_step_dual"],
        "harness.steps": calls["harness.train_step_dual"],
        "harness.evaluate_s": total["harness.evaluate"],
        "harness.evaluate_rows": rep.evaluate_rows,
        "harness.pretrain_teacher_s": total["harness.pretrain_teacher"],
        "harness.save_checkpoint_s": total["harness.save_checkpoint"],
        "harness.checkpoint_bytes": rep.checkpoint_bytes,
        "cli.self_s": own["cli.main"],
    }


def step_seconds(rep: Repeat) -> list[float]:
    return [end - start for name, start, end, _ in rep.spans
            if name == "harness.train_step_dual"]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by the inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def write_spans(path: Path, reps: list[Repeat]) -> None:
    """One line per span: repeat, index, name, start, end, parent index."""
    with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
        fh.write("repeat\tindex\tname\tstart\tend\tparent\n")
        for r, rep in enumerate(reps):
            for i, (name, start, end, parent) in enumerate(rep.spans):
                fh.write(f"{r}\t{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
