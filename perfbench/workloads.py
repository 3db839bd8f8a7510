"""The three benchmark workloads and the checks on what they write.

Each workload turns a seed into a ukd command line, run through
``ukd.cli.main`` as a user runs it. ``ukd.cli.main`` is looked up at call
time, so wrappers installed by ``spans.install`` see the call. ``run.py``
imports this module only after it has pinned the BLAS thread count and put
``src`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import ukd.cli
import ukd.harness
from ukd import DatasetSpec, LayerSpec, Seeds, TrainConfig, evaluate, generate, load_checkpoint
from ukd.cli import render_config

RUN_FILES = ("metrics.csv", "summary.json", "teacher.ukdc",
             "student_s1_final.ukdc", "student_s1_best.ukdc",
             "student_s2_final.ukdc", "student_s2_best.ukdc")


class CheckFailed(Exception):
    """A repeat's artifacts are incomplete, inconsistent or implausible."""


def _mlp(in_dim: int, out_dim: int, hidden: list[int]) -> list[LayerSpec]:
    dims = [in_dim] + hidden + [out_dim]
    return [LayerSpec(dims[i], dims[i + 1], "relu" if i + 2 < len(dims) else "none")
            for i in range(len(dims) - 1)]


def _dual_default(block: int) -> TrainConfig:
    seeds = Seeds.from_block(block)
    return TrainConfig(mode="dual", seeds=seeds, dataset=DatasetSpec(seed=seeds.data))


def _wide_batch(block: int) -> TrainConfig:
    seeds = Seeds.from_block(block)
    return TrainConfig(
        mode="dual", seeds=seeds, batch_size=512, teacher_epochs=2, epochs=2,
        dataset=DatasetSpec(seed=seeds.data, feature_dim=64, samples_per_class=2000),
        teacher_spec=_mlp(64, 10, [512, 512, 512]),
        student1_spec=_mlp(64, 10, [256, 256]),
        student2_spec=_mlp(64, 10, [128]),
    )


@dataclass(frozen=True)
class Workload:
    """One named ukd command: `ukd train` on a rendered config, or the ladder.

    The ladder is `ukd ablate --seeds 1`; the other workloads write their
    TrainConfig as a config file with ukd.cli.render_config, which parses
    back to the identical config, and run `ukd train --config FILE`.
    """

    name: str
    make_config: Callable[[int], TrainConfig]
    ladder: bool = False

    def block(self, seed: int) -> int:
        # `ukd ablate --seeds 1` always runs seed block 0; the CLI has no flag
        # that picks another block, so the ladder's inputs ignore the seed.
        return 0 if self.ladder else seed % 1000

    def config(self, seed: int) -> TrainConfig:
        return self.make_config(self.block(seed))

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        """The ukd command line; writes the config file it names, if any."""
        if self.ladder:
            return ["ablate", "--seeds", "1", "--out", str(out_dir)]
        path = out_dir.parent / f"{out_dir.name}.ini"
        path.write_text(render_config(self.config(seed)), encoding="ascii")
        return ["train", "--config", str(path), "--out", str(out_dir)]

    def run_dirs(self, out_dir: Path) -> list[Path]:
        if not self.ladder:
            return [out_dir]
        return [out_dir / f"{mode}-block0" for mode in ukd.harness.ABLATION_ROWS]

    def phase_rows(self, seed: int) -> tuple[int, int]:
        """Rows processed per pretrain_teacher call and per train call."""
        config = self.config(seed)
        train_rows = len(generate(config.dataset).train_indices)
        return train_rows * config.teacher_epochs, train_rows * config.epochs


def run(argv: list[str]) -> None:
    """The timed call: one whole ukd command, its printout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = ukd.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ukd {argv[0]} exited with code {code}")


WORKLOADS = {w.name: w for w in (
    Workload("dual-default", _dual_default),
    Workload("ladder-block", _dual_default, ladder=True),
    Workload("wide-batch", _wide_batch),
)}


def digest(out_dir: Path) -> str:
    """sha256 over the reproducible artifacts under out_dir.

    Covers metrics.csv, *.ukdc, ablation.csv and summary.json without its
    one wall-clock field, keyed by relative path.
    """
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.name == "summary.json":
            summary = json.loads(path.read_text(encoding="ascii"))
            summary.pop("total_wall_seconds")
            blob = json.dumps(summary, sort_keys=True).encode("ascii")
        elif path.name in ("metrics.csv", "ablation.csv") or path.suffix == ".ukdc":
            blob = path.read_bytes()
        else:
            continue
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def check(workload: Workload, seed: int, out_dir: Path) -> tuple[float, float]:
    """Check the artifacts of one repeat; return the reported (s1, s2) val top-1.

    Every run directory must hold the full artifact set with one metrics row
    per student and epoch; the final checkpoints must reload and score the
    accuracy the summary reports; that accuracy must beat chance; and the
    ladder's ablation.csv must agree with its run summaries. The accuracy
    returned is the last run's, which on the ladder is the `dual` row.
    """
    config = workload.config(seed)
    ds = generate(config.dataset)
    chance = 1.0 / config.dataset.num_classes
    finals = {}
    for run_dir in workload.run_dirs(out_dir):
        missing = [f for f in RUN_FILES if not (run_dir / f).is_file()]
        if missing:
            raise CheckFailed(f"{run_dir.name}: missing {missing}")
        rows = (run_dir / "metrics.csv").read_text(encoding="ascii").splitlines()
        if len(rows) != 1 + 2 * config.epochs:
            raise CheckFailed(f"{run_dir.name}: metrics.csv has {len(rows)} lines")
        summary = json.loads((run_dir / "summary.json").read_text(encoding="ascii"))
        for name in ("s1", "s2"):
            reported = summary["students"][name]["final_val_top1"]
            net = load_checkpoint(run_dir / f"student_{name}_final.ukdc")
            scored = evaluate(net, ds, "val")["top1"]
            if scored != reported:
                raise CheckFailed(f"{run_dir.name}/{name}: checkpoint scores "
                                  f"{scored}, summary says {reported}")
            if not reported > 2 * chance:
                raise CheckFailed(f"{run_dir.name}/{name}: val top-1 {reported} "
                                  "is within 2x of chance")
        finals[run_dir.name] = summary["students"]
    if workload.ladder:
        lines = (out_dir / "ablation.csv").read_text(encoding="ascii").splitlines()[1:]
        for line in lines:
            row, student, mean = line.split(",")[:3]
            if float(mean) != finals[f"{row}-block0"][student]["final_val_top1"]:
                raise CheckFailed(f"ablation.csv {row}/{student} disagrees with summary")
    last = finals[workload.run_dirs(out_dir)[-1].name]
    return last["s1"]["final_val_top1"], last["s2"]["final_val_top1"]
