"""Command-line surface: dataset generation, training runs, the ablation
ladder, checkpoint evaluation, and run-comparison reports.

Every command is deterministic given its flags; all randomness is seeded
through the config. Exit codes are a stable contract: 0 success, 2 for
usage, config or OS errors and API misuse, 3 for a numeric abort
(divergence). Config files mirror TrainConfig; command-line flags win over
config-file values.

The default output root is ./runs, overridable with UKD_RUN_ROOT.
No command writes into a non-empty directory it did not just create,
except explicit -o targets.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from .data import DatasetSpec, bayes_oracle_accuracy, generate, load_dataset, save_dataset
from .errors import DataError, NumericError, SpecError, UkdError
from .harness import (
    Seeds,
    TrainConfig,
    ablate,
    evaluate,
    load_checkpoint,
    pretrain_teacher,
    save_checkpoint,
    train,
)
from .nets import LayerSpec, compression_ratio, param_count

MODE_FLAGS = {"hard": "hard_only", "kd": "baseline_kd", "ukd": "uncertainty_kd",
              "dual": "dual"}


# ------------------------------------------------------------- config files


def _scalar_fields(cls) -> dict[str, type]:
    """The int, float and str fields of a dataclass, in order, with their types.

    An optional field (``float | None``) counts with its first type.
    """
    kinds = {name: (get_args(hint) or (hint,))[0] for name, hint in get_type_hints(cls).items()}
    return {f.name: kinds[f.name] for f in fields(cls) if kinds[f.name] in (int, float, str)}


# Sections whose keys are the scalar fields of a dataclass, with their value types.
_FIELDS = {"run": _scalar_fields(TrainConfig), "dataset": _scalar_fields(DatasetSpec),
           "seeds": _scalar_fields(Seeds)}
_ARCH_KEYS = ("teacher", "student1", "student2")
_KNOWN_SECTIONS = {**_FIELDS, "run": [*_FIELDS["run"], "out"], "architecture": _ARCH_KEYS}


def _spec_from_widths(in_dim: int, out_dim: int, widths: list[int]) -> list[LayerSpec]:
    dims = [in_dim] + list(widths) + [out_dim]
    return [LayerSpec(dims[i], dims[i + 1],
                      "relu" if i + 2 < len(dims) else "none")
            for i in range(len(dims) - 1)]


def _widths_from_spec(spec: list[LayerSpec]) -> list[int]:
    widths = [layer.out_dim for layer in spec[:-1]]
    if spec != _spec_from_widths(spec[0].in_dim, spec[-1].out_dim, widths):
        raise SpecError("architecture not expressible as hidden widths "
                        "(relu hidden layers, linear output)")
    return widths


def render_config(config: TrainConfig, out: str | None = None) -> str:
    """Write a TrainConfig as a config file; parse_config inverts this exactly."""
    lines = []
    for section, part in (("run", config), ("dataset", config.dataset),
                          ("seeds", config.seeds)):
        # str of a python float is its shortest round-tripping repr
        lines += [f"[{section}]"] + [f"{key} = {getattr(part, key)}"
                                     for key in _FIELDS[section]]
        if section == "run" and out is not None:
            lines.append(f"out = {out}")
        lines.append("")
    lines.append("[architecture]")
    for key in _ARCH_KEYS:
        widths = _widths_from_spec(getattr(config, f"{key}_spec"))
        lines.append(f"{key} = {','.join(map(str, widths))}")
    return "\n".join(lines) + "\n"


def _convert(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError:
        raise SpecError(f"bad value {raw!r} for {key} in [{section}]") from None


def _parse_widths(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    return [_convert("architecture", "widths", w, int) for w in raw.split(",")]


def parse_config(text: str) -> tuple[TrainConfig, str | None]:
    """Config file -> (TrainConfig, output dir). Unknown keys are rejected."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise SpecError(f"malformed config: {err}") from None
    for section in cp.sections():
        if section not in _KNOWN_SECTIONS:
            raise SpecError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _KNOWN_SECTIONS[section]:
                raise SpecError(f"unknown key {key!r} in [{section}]")
    if not cp.has_option("run", "mode"):
        raise SpecError("config missing mode in [run]")
    given = {
        section: {key: _convert(section, key, cp[section][key], kind)
                  for key, kind in kinds.items() if cp.has_option(section, key)}
        for section, kinds in _FIELDS.items()
    }
    dataset = DatasetSpec(**given["dataset"])
    if cp.has_section("seeds"):
        seeds = Seeds(**given["seeds"])
    else:
        seeds = Seeds.from_block(0)

    specs = {}
    for key in _ARCH_KEYS:
        if cp.has_option("architecture", key):
            widths = _parse_widths(cp["architecture"][key])
            specs[f"{key}_spec"] = _spec_from_widths(
                dataset.feature_dim, dataset.num_classes, widths)

    out = cp["run"].get("out") if cp.has_option("run", "out") else None
    config = TrainConfig(seeds=seeds, dataset=dataset, **given["run"], **specs)
    return config, out


# -------------------------------------------------------------- assembling


_DATASET_FLAGS = (("classes", "num_classes"), ("per_class", "samples_per_class"),
                  ("dim", "feature_dim"), ("sigma", "overlap_sigma"),
                  ("val_fraction", "val_fraction"))


def _assemble_config(args, default_mode: str | None = None) -> tuple[TrainConfig, str | None]:
    """Config file plus flag overrides -> a validated TrainConfig. Flags win."""
    # every [run] field but mode has a flag whose dest is the field name
    overrides = {key: getattr(args, key) for key in _FIELDS["run"]
                 if key != "mode" and getattr(args, key, None) is not None}

    mode_flag = getattr(args, "mode", None)
    block = getattr(args, "seed_block", None)

    config_path = getattr(args, "config", None)
    if config_path is not None:
        config, out = parse_config(Path(config_path).read_text(encoding="utf-8"))
        seeds = config.seeds if block is None else Seeds.from_block(block)
        dataset = config.dataset
        if block is not None:
            dataset = replace(dataset, seed=seeds.data)
        ds_over = {field: getattr(args, attr)
                   for attr, field in _DATASET_FLAGS
                   if getattr(args, attr, None) is not None}
        if ds_over:
            dataset = replace(dataset, **ds_over)
        mode = MODE_FLAGS[mode_flag] if mode_flag else config.mode
        config = replace(config, mode=mode, seeds=seeds, dataset=dataset, **overrides)
    else:
        mode = MODE_FLAGS[mode_flag] if mode_flag else default_mode
        if mode is None:
            raise SpecError("either --mode or --config is required")
        seeds = Seeds.from_block(block if block is not None else 0)
        ds_kw = {field: getattr(args, attr)
                 for attr, field in _DATASET_FLAGS
                 if getattr(args, attr, None) is not None}
        dataset = DatasetSpec(seed=seeds.data, **ds_kw)
        config = TrainConfig(mode=mode, seeds=seeds, dataset=dataset, **overrides)
        out = None
    if getattr(args, "out", None) is not None:
        out = args.out
    return config, out


def _run_root() -> Path:
    return Path(os.environ.get("UKD_RUN_ROOT", "runs"))


def _claim_dir(path) -> Path:
    p = Path(path)
    if p.exists() and any(p.iterdir()):
        raise DataError(f"refusing to write into existing non-empty directory {p}")
    p.mkdir(parents=True, exist_ok=True)
    return p


# ---------------------------------------------------------------- commands


def cmd_gen_data(args) -> int:
    spec = DatasetSpec(num_classes=args.classes, samples_per_class=args.per_class,
                       feature_dim=args.dim, overlap_sigma=args.sigma,
                       seed=args.seed, val_fraction=args.val_fraction)
    ds = generate(spec)
    out = Path(args.output)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out)
    print(f"wrote {out}")
    print(f"samples: {ds.features.shape[0]}")
    print(f"classes: {ds.num_classes}")
    print(f"dim: {ds.features.shape[1]}")
    print(f"bayes_oracle_estimate: {bayes_oracle_accuracy(spec):.4f}")
    return 0


def cmd_pretrain_teacher(args) -> int:
    config, out = _assemble_config(args, default_mode="hard_only")
    run_dir = _claim_dir(out if out is not None
                         else _run_root() / f"teacher-seed{config.seeds.teacher}")
    teacher, val_top1 = pretrain_teacher(config)
    save_checkpoint(teacher, run_dir / "teacher.ukdc")
    print(f"wrote {run_dir / 'teacher.ukdc'}")
    print(f"teacher params: {param_count(teacher)}")
    print(f"teacher val_top1: {val_top1:.4f}")
    return 0


def cmd_train(args) -> int:
    config, out = _assemble_config(args)
    run_dir = _claim_dir(out if out is not None
                         else _run_root() / f"{config.mode}-seed{config.seeds.data}")
    result = train(config, run_dir)
    print(f"run: {run_dir}")
    print(f"teacher val_top1: {result.summary['teacher']['val_top1']:.4f}")
    for name in ("s1", "s2"):
        block = result.summary["students"][name]
        print(f"{name} val_top1: {block['final_val_top1']:.4f} "
              f"(best {block['best_val_top1']:.4f}, "
              f"{block['param_count']} params, {block['compression_ratio']:.2f}x)")
    return 0


def cmd_ablate(args) -> int:
    config, out = _assemble_config(args, default_mode="dual")
    root = _claim_dir(out if out is not None else _run_root() / "ablation")
    result = ablate(config, list(range(args.seeds)), out_root=root, jobs=args.jobs)
    print(result.table_text(), end="")
    print(f"wrote {root / 'ablation.csv'}")
    return 0


def cmd_eval(args) -> int:
    net = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data, val_fraction=args.val_fraction)
    result = evaluate(net, ds, args.split)
    print(f"top1: {result['top1']:.4f}")
    print(f"top5: {result['top5']:.4f}")
    return 0


def _read_run(run_dir) -> tuple[dict, list[dict]]:
    run_dir = Path(run_dir)
    summary_path = run_dir / "summary.json"
    metrics_path = run_dir / "metrics.csv"
    if not summary_path.exists() or not metrics_path.exists():
        raise DataError(f"{run_dir} is not a run directory "
                        "(missing summary.json or metrics.csv)")
    with open(summary_path, encoding="ascii") as fh:
        summary = json.load(fh)
    with open(metrics_path, encoding="ascii", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return summary, rows


def cmd_report(args) -> int:
    base_summary, base_rows = _read_run(args.baseline)
    ours_summary, ours_rows = _read_run(args.ours)
    if set(base_summary["students"]) != set(ours_summary["students"]):
        raise SpecError("run directories disagree on student names")
    if base_summary["epochs"] != ours_summary["epochs"]:
        raise SpecError(f"run directories disagree on epochs "
                        f"({base_summary['epochs']} vs {ours_summary['epochs']})")
    out = _claim_dir(args.out if args.out is not None else _run_root() / "report")

    table = [f"{'student':<9}{'baseline':>10}{'ours':>10}{'delta':>10}"]
    for name in sorted(base_summary["students"]):
        base = base_summary["students"][name]["final_val_top1"]
        ours = ours_summary["students"][name]["final_val_top1"]
        table.append(f"{name:<9}{base:>10.4f}{ours:>10.4f}{ours - base:>+10.4f}")
    text = "\n".join(table) + "\n"
    print(text, end="")
    (out / "report.txt").write_text(text, encoding="ascii")

    for label, rows in (("baseline", base_rows), ("ours", ours_rows)):
        for student in sorted(base_summary["students"]):
            path = out / f"series_{label}_{student}.csv"
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write("epoch,val_top1,val_top5,mean_entropy,mean_weight\n")
                for row in rows:
                    if row["student"] != student:
                        continue
                    fh.write(",".join(row[k] for k in (
                        "epoch", "val_top1", "val_top5",
                        "mean_entropy", "mean_weight")) + "\n")

    for spec in args.compression or []:
        parts = spec.split("/")
        if len(parts) != 2:
            raise SpecError(f"compression spec must be TEACHER/STUDENT, got {spec!r}")
        try:
            teacher_n, student_n = (float(p) for p in parts)
        except ValueError:
            raise SpecError(f"compression spec must be numeric, got {spec!r}") from None
        print(f"compression {spec} = {compression_ratio(teacher_n, student_n):.2f}x")
    return 0


# ------------------------------------------------------------------ parser


def _add_hyper_flags(p: argparse.ArgumentParser, with_mode: bool = True) -> None:
    if with_mode:
        p.add_argument("--mode", choices=sorted(MODE_FLAGS),
                       help="training mode: hard=labels only, kd=fixed-weight "
                            "distillation, ukd=confidence-weighted, dual=two "
                            "students with peer term (default: from config)")
    p.add_argument("--config", metavar="FILE", help="config file (flags win)")
    p.add_argument("--out", metavar="DIR", help="output directory "
                   "(default: $UKD_RUN_ROOT or ./runs, auto-named)")
    p.add_argument("--seed-block", type=int, metavar="N",
                   help="derive the five seed streams from block N: data=N*1000, "
                        "teacher=+1, student1=+2, student2=+3, shuffle=+4 (default: 0)")
    p.add_argument("--alpha", type=float, help="hard-label loss weight "
                   "(default: per mode; dual: 0.4)")
    p.add_argument("--beta", type=float, help="teacher distillation weight "
                   "(default: per mode; dual: 0.4)")
    p.add_argument("--gamma", type=float, help="peer distillation weight "
                   "(default: per mode; dual: 0.2)")
    p.add_argument("--tau", type=float, help="softening temperature (default: 4.0)")
    p.add_argument("--epochs", type=int, help="student epochs (default: 30)")
    p.add_argument("--batch-size", type=int, help="batch size (default: 64)")
    p.add_argument("--eta0", type=float, help="initial learning rate (default: 0.1)")
    p.add_argument("--momentum", type=float, help="SGD momentum (default: 0.9)")
    p.add_argument("--weight-decay", type=float,
                   help="coupled L2 weight decay (default: 0.0001)")
    p.add_argument("--kl-direction", choices=("as_paper", "conventional"),
                   help="KL argument order (default: as_paper)")
    p.add_argument("--teacher-epochs", type=int,
                   help="teacher pretraining epochs (default: 30)")
    p.add_argument("--augment-strength", type=float,
                   help="train-time Gaussian noise sigma (default: 0.1)")
    _add_dataset_flags(p)


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, help="number of classes (default: 10)")
    p.add_argument("--per-class", type=int, help="samples per class (default: 500)")
    p.add_argument("--dim", type=int, help="feature dimension (default: 16)")
    p.add_argument("--sigma", type=float, help="class overlap sigma (default: 0.6)")
    p.add_argument("--val-fraction", type=float,
                   help="held-out fraction per class (default: 0.1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ukd",
        description="Uncertainty-weighted dual-student distillation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and save a synthetic dataset")
    p.add_argument("--classes", type=int, default=10, help="number of classes (default: 10)")
    p.add_argument("--per-class", type=int, default=500, help="samples per class (default: 500)")
    p.add_argument("--dim", type=int, default=16, help="feature dimension (default: 16)")
    p.add_argument("--sigma", type=float, default=0.6, help="class overlap sigma (default: 0.6)")
    p.add_argument("--seed", type=int, default=0, help="dataset seed (default: 0)")
    p.add_argument("--val-fraction", type=float, default=0.1,
                   help="held-out fraction per class (default: 0.1)")
    p.add_argument("-o", "--output", required=True, metavar="FILE",
                   help="output dataset file (.ukdd)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain-teacher", help="train and save a frozen teacher")
    _add_hyper_flags(p, with_mode=False)
    p.set_defaults(func=cmd_pretrain_teacher)

    p = sub.add_parser("train", help="one full training run")
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="the 4-row loss-component ladder")
    _add_hyper_flags(p, with_mode=False)
    p.add_argument("--seeds", type=int, default=5,
                   help="number of seed blocks, 0..k-1 (default: 5)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel runs across seed blocks (default: 1)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True, metavar="FILE", help=".ukdc file")
    p.add_argument("--data", required=True, metavar="FILE", help=".ukdd file")
    p.add_argument("--split", choices=("train", "val"), default="val",
                   help="split to score (default: val)")
    p.add_argument("--val-fraction", type=float, default=0.1,
                   help="held-out fraction used to split the file (default: 0.1)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="compare two runs and emit plot series")
    p.add_argument("--baseline", required=True, metavar="DIR", help="baseline run dir")
    p.add_argument("--ours", required=True, metavar="DIR", help="comparison run dir")
    p.add_argument("--out", metavar="DIR", help="report output dir "
                   "(default: $UKD_RUN_ROOT/report)")
    p.add_argument("--compression", action="append", metavar="T/S",
                   help="print the ratio for a TEACHER/STUDENT parameter-count "
                        "pair; repeatable")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericError as err:
        print(f"numeric abort: {err}", file=sys.stderr)
        return 3
    except (UkdError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
