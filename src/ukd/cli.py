"""Command-line surface: dataset generation, training runs, the ablation
ladder, checkpoint evaluation, and run-comparison reports.

Every command is deterministic given its flags; all randomness is seeded
through the config. Exit codes are a stable contract: 0 success, 2 for
usage, config or OS errors and API misuse, 3 for a numeric abort
(divergence). A run's TrainConfig is built once, from a config file's values
with the flags given merged over them; each command takes only the flags it reads.

The default output root is ./runs, overridable with UKD_RUN_ROOT.
No command writes into an existing non-empty directory, except explicit -o
targets, and an output directory appears with its first file. A config that
cannot run is refused when it is built (exit 2), and a flag value that
cannot be used (--seeds 0, --jobs 0) when it is parsed,
before any directory is claimed or any work starts.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

from .data import (
    DatasetSpec,
    _write_atomic,
    bayes_oracle_accuracy,
    generate,
    load_dataset,
    save_dataset,
)
from .distill import KL_DIRECTIONS
from .errors import DataError, NumericError, SpecError, UkdError
from .harness import (
    MODES,
    Seeds,
    TrainConfig,
    _write_diverged,
    ablate,
    evaluate,
    load_checkpoint,
    pretrain_teacher,
    save_checkpoint,
    train,
)
from .nets import DEFAULT_WIDTHS, LayerSpec, mlp_spec, param_count

# The seed block of a run given neither --seed-block nor a [seeds] section.
_DEFAULT_BLOCK = 0


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
_ARCH_KEYS = tuple(DEFAULT_WIDTHS)
# The config file keys each ablation row sets itself: its mode and loss
# weights, and the seed streams of its seed block.
_ROW_KEYS = (*[("run", key) for key in ("mode", "alpha", "beta", "gamma")],
             ("dataset", "seed"), *[("seeds", key) for key in _FIELDS["seeds"]])


def _widths_from_spec(spec: list[LayerSpec]) -> list[int]:
    widths = [layer.out_dim for layer in spec[:-1]]
    if spec != mlp_spec(spec[0].in_dim, widths, spec[-1].out_dim):
        raise SpecError("architecture not expressible as hidden widths "
                        "(relu hidden layers, linear output)")
    return widths


def render_config(config: TrainConfig) -> str:
    """Write a TrainConfig as a config file; ``train --config`` reads it back exactly."""
    lines = []
    for section, part in (("run", config), ("dataset", config.dataset),
                          ("seeds", config.seeds)):
        # str of a python float is its shortest round-tripping repr
        lines += [f"[{section}]"] + [f"{key} = {getattr(part, key)}"
                                     for key in _FIELDS[section]]
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
    return [int(w) for w in raw.split(",")] if raw.strip() else []


# Every config file section, with the converter of each of its keys.
_SECTIONS = {**_FIELDS, "run": {**_FIELDS["run"], "out": str},
             "architecture": dict.fromkeys(_ARCH_KEYS, _parse_widths)}


def _read_config(text: str) -> tuple[dict[str, dict], str | None]:
    """Config file -> (its values per section, output dir). Unknown keys are rejected."""
    cp = configparser.ConfigParser(interpolation=None, default_section="")  # [DEFAULT] is unknown
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise SpecError(f"malformed config: {err}") from None
    given = {section: {} for section in _SECTIONS}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise SpecError(f"unknown config section [{section}]")
        for key, raw in cp[section].items():
            if key not in _SECTIONS[section]:
                raise SpecError(f"unknown key {key!r} in [{section}]")
            given[section][key] = _convert(section, key, raw, _SECTIONS[section][key])
    return given, given["run"].pop("out", None)


def _build_config(given: dict[str, dict], block: int | None) -> TrainConfig:
    """The one constructor of a run's TrainConfig, from values per section.

    A seed block stands in for [seeds] and the dataset seed. The dataset
    seed defaults to the data stream.
    """
    if given["run"].get("mode") is None:
        raise SpecError("no mode: pass --mode or --config with mode in [run]")
    dataset = given["dataset"]
    if block is not None:
        seeds = Seeds.from_block(block)
        dataset = {**dataset, "seed": seeds.data}
    elif given["seeds"]:
        missing = [key for key in _FIELDS["seeds"] if key not in given["seeds"]]
        if missing:
            raise SpecError(f"[seeds] lacks {', '.join(missing)}: "
                            "give all five streams or none")
        seeds = Seeds(**given["seeds"])
    else:
        seeds = Seeds.from_block(_DEFAULT_BLOCK)
    dataset = DatasetSpec(**{"seed": seeds.data, **dataset})
    specs = {f"{key}_spec": mlp_spec(dataset.feature_dim, widths, dataset.num_classes)
             for key, widths in given["architecture"].items()}
    return TrainConfig(seeds=seeds, dataset=dataset, **given["run"], **specs)


# -------------------------------------------------------------- assembling


def _given(args, section: str) -> dict:
    """The flags given for one config section's fields, by field name."""
    return {key: value for key, value in vars(args).items() if key in _FIELDS[section]}


def _assemble_config(args, default_mode: str | None = None,
                     fixed=()) -> tuple[TrainConfig, str | None]:
    """Config file, then the flags given over its values -> (TrainConfig, output dir).

    The file may not set a (section, key) of fixed: the command sets those itself.
    """
    flags = vars(args)  # only flags given: a run flag's default is argparse.SUPPRESS
    try:
        text = Path(flags["config"]).read_text(encoding="utf-8") if "config" in flags else ""
    except UnicodeDecodeError as err:
        raise SpecError(f"config file {flags['config']} is not UTF-8: {err}") from None
    given, out = _read_config(text)
    clash = [f"{key} in [{section}]" for section, key in fixed if key in given[section]]
    if clash:
        raise SpecError(f"{args.command} sets {', '.join(clash)} itself; "
                        "remove them from the config file")
    for section in _FIELDS:
        given[section].update(_given(args, section))
    given["run"].setdefault("mode", default_mode)
    return _build_config(given, flags.get("seed_block")), flags.get("out", out)


def _run_root() -> Path:
    return Path(os.environ.get("UKD_RUN_ROOT", "runs"))


def _claim_dir(path) -> Path:
    """path, if it is an empty directory or one that can be made; it is not made
    here, but appears with its first file."""
    p = Path(path)
    if p.exists() and any(p.iterdir()):
        raise DataError(f"refusing to write into existing non-empty directory {p}")
    base = next(a for a in (p, *p.parents) if a.exists())
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise DataError(f"cannot make directory {p}: {base} is not a writable directory")
    return p


# ---------------------------------------------------------------- commands


def cmd_gen_data(args) -> int:
    spec = DatasetSpec(**_given(args, "dataset"))
    ds = generate(spec)
    out = Path(args.output)
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
    try:
        teacher, val_top1 = pretrain_teacher(config)
    except NumericError as err:
        _write_diverged(run_dir, config, "teacher", err)
        raise
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
    config, out = _assemble_config(args, default_mode="dual", fixed=_ROW_KEYS)
    root = _claim_dir(out if out is not None else _run_root() / "ablation")
    result = ablate(config, list(range(args.seeds)), out_root=root, jobs=args.jobs)
    print(result.table_text(), end="")
    print(f"wrote {root / 'ablation.csv'}")
    return 0


def cmd_eval(args) -> int:
    net = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    result = evaluate(net, ds, args.split)
    print(f"top1: {result['top1']:.4f}")
    print(f"top5: {result['top5']:.4f}")
    return 0


# The metrics.csv columns of report's series files; report also reads student.
_SERIES_COLUMNS = ("epoch", "val_top1", "val_top5", "mean_entropy", "mean_weight")


def _read_run(run_dir) -> tuple[dict, list[dict]]:
    """A finished run's summary and metrics rows, holding everything report reads.

    Anything less, or a diverged run, is a DataError naming the directory.
    The summary is read first, so a diverged run that left no metrics.csv
    (a teacher that diverged) is named as diverged.
    """
    run_dir = Path(run_dir)
    summary_path = run_dir / "summary.json"
    metrics_path = run_dir / "metrics.csv"
    if not summary_path.exists():
        raise DataError(f"{run_dir} is not a run directory (missing summary.json)")
    try:
        summary = json.loads(summary_path.read_text(encoding="ascii"))
    except ValueError as err:  # bad JSON and non-ASCII bytes are ValueErrors
        raise DataError(f"{run_dir} holds an unreadable run file: {err}") from None
    if not isinstance(summary, dict):
        raise DataError(f"{summary_path} is not a JSON object")
    if summary.get("status") == "diverged":
        raise DataError(f"{run_dir} is a diverged run (phase {summary.get('phase')}, "
                        f"epoch {summary.get('epoch')}, batch {summary.get('batch')}): "
                        f"{summary.get('error')}")
    if not metrics_path.exists():
        raise DataError(f"{run_dir} is not a run directory (missing metrics.csv)")
    try:
        with open(metrics_path, encoding="ascii", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except (ValueError, csv.Error) as err:
        raise DataError(f"{run_dir} holds an unreadable run file: {err}") from None
    students = summary.get("students")
    if "epochs" not in summary or not isinstance(students, dict) or not all(
            isinstance(block, dict) and isinstance(block.get("final_val_top1"), (int, float))
            for block in students.values()):
        raise DataError(f"{summary_path} lacks epochs or a numeric final_val_top1 per student")
    missing = [column for column in ("student", *_SERIES_COLUMNS)
               if column not in (reader.fieldnames or ())]
    if missing:
        raise DataError(f"{metrics_path} lacks the column(s) {', '.join(missing)}")
    if any(None in row.values() for row in rows):
        raise DataError(f"{metrics_path} has a row with too few fields")
    return summary, rows


def cmd_report(args) -> int:
    base_summary, base_rows = _read_run(args.baseline)
    ours_summary, ours_rows = _read_run(args.ours)
    for what, base, ours in (
            ("student names", sorted(base_summary["students"]), sorted(ours_summary["students"])),
            ("epochs", base_summary["epochs"], ours_summary["epochs"])):
        if base != ours:
            raise SpecError(f"{args.baseline} and {args.ours} disagree on {what} ({base} vs {ours})")
    out = _claim_dir(args.out if args.out is not None else _run_root() / "report")

    table = [f"{'student':<9}{'baseline':>10}{'ours':>10}{'delta':>10}"]
    for name in sorted(base_summary["students"]):
        base = base_summary["students"][name]["final_val_top1"]
        ours = ours_summary["students"][name]["final_val_top1"]
        table.append(f"{name:<9}{base:>10.4f}{ours:>10.4f}{ours - base:>+10.4f}")
    text = "\n".join(table) + "\n"
    print(text, end="")
    _write_atomic(out / "report.txt", text.encode("ascii"))

    for label, rows in (("baseline", base_rows), ("ours", ours_rows)):
        for student in sorted(base_summary["students"]):
            lines = [",".join(_SERIES_COLUMNS)] + [
                ",".join(row[k] for k in _SERIES_COLUMNS)
                for row in rows if row["student"] == student]
            _write_atomic(out / f"series_{label}_{student}.csv",
                          ("\n".join(lines) + "\n").encode("ascii"))
    return 0


# ------------------------------------------------------------------ parser


# The flags commands share, by dest: (flag, help, argparse settings). A config
# field's flag has the field name as dest and shows the dataclass default.
_FLAGS = {
    "mode": ("--mode", "training mode, a row of the README's mode table "
             "(default: from config)", {"choices": tuple(MODES)}),
    "config": ("--config", "config file (flags win)", {"metavar": "FILE"}),
    "out": ("--out", "output directory (default: $UKD_RUN_ROOT or ./runs, auto-named)",
            {"metavar": "DIR"}),
    "seed_block": ("--seed-block", "derive the five seed streams from block N: data=N*1000, "
                   "teacher=+1, student1=+2, student2=+3, shuffle=+4 "
                   f"(default: {_DEFAULT_BLOCK})", {"type": int, "metavar": "N"}),
    "alpha": ("--alpha", "hard-label loss weight", {}),
    "beta": ("--beta", "teacher distillation weight", {}),
    "gamma": ("--gamma", "peer distillation weight", {}),
    "tau": ("--tau", "softening temperature", {}),
    "epochs": ("--epochs", "student epochs", {}),
    "batch_size": ("--batch-size", "batch size", {}),
    "eta0": ("--eta0", "initial learning rate", {}),
    "momentum": ("--momentum", "SGD momentum", {}),
    "weight_decay": ("--weight-decay", "coupled L2 weight decay", {}),
    "kl_direction": ("--kl-direction", "KL argument order",
                     {"choices": KL_DIRECTIONS, "metavar": None}),
    "teacher_epochs": ("--teacher-epochs", "teacher pretraining epochs", {}),
    "augment_strength": ("--augment-strength", "train-time Gaussian noise sigma", {}),
    "num_classes": ("--classes", "number of classes", {}),
    "samples_per_class": ("--per-class", "samples per class", {}),
    "feature_dim": ("--dim", "feature dimension", {}),
    "overlap_sigma": ("--sigma", "class overlap sigma", {}),
    "seed": ("--seed", "dataset seed", {}),
    "val_fraction": ("--val-fraction", "held-out fraction per class", {}),
}


def _at_least_one(text: str) -> int:
    """argparse type of a count flag: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _add_flags(p: argparse.ArgumentParser, dests) -> None:
    """Add the flags of dests; a flag not given stays out of the parsed namespace."""
    kinds = {**_FIELDS["run"], **_FIELDS["dataset"]}
    defaults = {f.name: f.default for cls in (TrainConfig, DatasetSpec) for f in fields(cls)}
    defaults.update(zip(("alpha", "beta", "gamma"),  # the loss weights follow the mode
                        map("per mode; dual: {}".format, MODES["dual"][0])))
    for dest in dests:
        flag, text, kw = _FLAGS[dest]
        if dest in kinds and dest != "mode":  # mode has no default to show
            text = f"{text} (default: {defaults[dest]})"
            kw = {"type": kinds[dest], "metavar": flag[2:].replace("-", "_").upper(), **kw}
        p.add_argument(flag, dest=dest, default=argparse.SUPPRESS, help=text, **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ukd",
        description="Uncertainty-weighted dual-student distillation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_flags = [key for key in _FLAGS if key != "seed"]  # a run's dataset seed follows its seeds

    p = sub.add_parser("gen-data", help="generate and save a synthetic dataset")
    _add_flags(p, _FIELDS["dataset"])
    p.add_argument("-o", "--output", required=True, metavar="FILE",
                   help="output dataset file (.ukdd)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain-teacher", help="train and save a frozen teacher")
    _add_flags(p, [key for key in run_flags if key not in (  # what the teacher ignores
        "mode", "alpha", "beta", "gamma", "tau", "epochs", "kl_direction")])
    p.set_defaults(func=cmd_pretrain_teacher)

    p = sub.add_parser("train", help="one full training run")
    _add_flags(p, run_flags)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help=f"the {len(MODES)}-row loss-component ladder")
    _add_flags(p, [key for key in run_flags  # each row sets these itself
                   if ("run", key) not in _ROW_KEYS and key != "seed_block"])
    p.add_argument("--seeds", type=_at_least_one, default=5,
                   help="number of seed blocks, 0..k-1 (default: %(default)s)")
    p.add_argument("--jobs", type=_at_least_one,
                   help="parallel runs across seed blocks, each worker on one BLAS "
                        "thread (default: usable cores)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True, metavar="FILE", help=".ukdc file")
    p.add_argument("--data", required=True, metavar="FILE", help=".ukdd file")
    p.add_argument("--split", choices=("train", "val"), default="val",
                   help="split to score (default: %(default)s)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="compare two runs and emit plot series")
    p.add_argument("--baseline", required=True, metavar="DIR", help="baseline run dir")
    p.add_argument("--ours", required=True, metavar="DIR", help="comparison run dir")
    p.add_argument("--out", metavar="DIR", help="report output dir "
                   "(default: $UKD_RUN_ROOT/report)")
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
