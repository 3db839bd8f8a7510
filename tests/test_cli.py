"""Command-line tests, run in-process through ukd.cli.main.

Exit codes are part of the contract: 0 success, 2 usage/config, 3 numeric
abort. Determinism is checked at the file-byte level.
"""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ukd import harness
from ukd.cli import _assemble_config, build_parser, main, render_config
from ukd.data import DatasetSpec, generate, load_dataset
from ukd.distill import KL_DIRECTIONS
from ukd.errors import ContractError, NumericError, SpecError
from ukd.harness import (
    MODES,
    Seeds,
    TrainConfig,
    evaluate,
    load_checkpoint,
    pretrain_teacher,
    train,
)
from ukd.nets import DEFAULT_WIDTHS, mlp_spec

TINY_TEACHER = ["--classes", "4", "--per-class", "40", "--dim", "8", "--sigma", "0.5",
                "--teacher-epochs", "2", "--batch-size", "32"]
TINY = TINY_TEACHER + ["--epochs", "2"]


@pytest.fixture(autouse=True)
def run_root(tmp_path, monkeypatch):
    """Keep every command's default output inside the test's tmp dir."""
    monkeypatch.setenv("UKD_RUN_ROOT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- gen-data


def test_gen_data_round_trip(tmp_path, capsys):
    out = tmp_path / "ds.ukdd"
    rc = main(["gen-data", "--classes", "10", "--per-class", "50", "--dim", "16",
               "--sigma", "0.6", "--seed", "1", "-o", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "samples: 500" in printed
    assert "classes: 10" in printed
    assert "dim: 16" in printed
    assert re.search(r"bayes_oracle_estimate: 0\.\d{4}", printed)
    ds = load_dataset(out)
    ref = generate(DatasetSpec(num_classes=10, samples_per_class=50,
                               feature_dim=16, overlap_sigma=0.6, seed=1))
    assert np.array_equal(ds.features, ref.features)
    assert np.array_equal(ds.labels, ref.labels)


def test_gen_data_is_deterministic(tmp_path):
    flags = ["gen-data", "--classes", "4", "--per-class", "30", "--dim", "8",
             "--sigma", "0.5", "--seed", "9"]
    assert main(flags + ["-o", str(tmp_path / "a.ukdd")]) == 0
    assert main(flags + ["-o", str(tmp_path / "b.ukdd")]) == 0
    assert sha(tmp_path / "a.ukdd") == sha(tmp_path / "b.ukdd")


def test_gen_data_requires_output(capsys):
    assert main(["gen-data", "--classes", "4", "--per-class", "30"]) == 2


def test_gen_data_bad_spec_exits_2(tmp_path):
    rc = main(["gen-data", "--classes", "1", "-o", str(tmp_path / "x.ukdd")])
    assert rc == 2


# ------------------------------------------------------------ config files


def tiny_config(**kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("teacher_epochs", 2)
    kw.setdefault("batch_size", 32)
    kw.setdefault("dataset", DatasetSpec(num_classes=4, samples_per_class=40,
                                         feature_dim=8, overlap_sigma=0.5, seed=0))
    return TrainConfig(**kw)


def with_out(text: str, out: str) -> str:
    """A rendered config file with an output directory under [run]."""
    return text.replace("[run]\n", f"[run]\nout = {out}\n", 1)


def read_back(text: str):
    """(TrainConfig, output dir) of a config file, as `ukd train --config` reads it."""
    Path("read_back.cfg").write_text(text)  # the run_root fixture made cwd a tmp dir
    return _assemble_config(build_parser().parse_args(["train", "--config", "read_back.cfg"]))


def test_config_round_trip_every_mode():
    for mode in ("hard_only", "baseline_kd", "uncertainty_kd", "dual"):
        cfg = tiny_config(mode=mode)
        parsed, out = read_back(render_config(cfg))
        assert parsed == cfg
        assert out is None
    parsed, out = read_back(with_out(render_config(tiny_config(mode="dual")), "x/y"))
    assert out == "x/y"


def test_config_round_trip_nondefault_values():
    cfg = tiny_config(mode="dual", alpha=0.5, beta=0.25, gamma=0.25, tau=2.5,
                      eta0=0.05, momentum=0.8, weight_decay=3e-5,
                      kl_direction="conventional", augment_strength=0.0,
                      seeds=Seeds.from_block(2),
                      dataset=DatasetSpec(num_classes=4, samples_per_class=40,
                                          feature_dim=8, overlap_sigma=0.5,
                                          seed=2000))
    parsed, _ = read_back(render_config(cfg))
    assert parsed == cfg


_SCALAR_VALUES = {
    bool: st.booleans(),
    int: st.integers(min_value=0, max_value=10**6),
    float: st.floats(min_value=0.0, allow_infinity=False),
    str: st.sampled_from((*MODES, *KL_DIRECTIONS)),
}


def _draw_scalars(data, obj):
    """obj with each bool, int, float and str field redrawn where the result is valid."""
    for f in fields(obj):
        kind = type(getattr(obj, f.name))
        if kind in _SCALAR_VALUES:
            try:
                obj = replace(obj, **{f.name: data.draw(_SCALAR_VALUES[kind], label=f.name)})
            except SpecError:
                pass
    return obj


def _draw_config(data):
    # Fields are found by type, so a field added later is drawn here too.
    seeds = _draw_scalars(data, Seeds.from_block(0))
    dataset = replace(_draw_scalars(data, DatasetSpec()), seed=seeds.data)
    base = TrainConfig(mode=data.draw(st.sampled_from(tuple(MODES))), seeds=seeds, dataset=dataset)
    return _draw_scalars(data, base)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_config_round_trip_any_scalar_fields(data):
    cfg = _draw_config(data)
    parsed, _ = read_back(render_config(cfg))
    assert parsed == cfg


def test_config_unknown_key_rejected():
    text = render_config(tiny_config(mode="dual")) + "\n[run]\nlearning = fast\n"
    with pytest.raises(SpecError, match="malformed|unknown"):
        read_back(text)
    text = render_config(tiny_config(mode="dual")).replace(
        "tau = 4.0", "tau = 4.0\nwarmup = 3")
    with pytest.raises(SpecError, match="unknown key"):
        read_back(text)


def test_config_unknown_section_rejected():
    text = render_config(tiny_config(mode="dual")) + "\n[plotting]\nstyle = xkcd\n"
    with pytest.raises(SpecError, match="unknown config section"):
        read_back(text)


@pytest.mark.parametrize("text", ["[DEFAULT]\nepochs = 1\nbogus = 3\n",
                                  "[DEFAULT]\nepochs = 1\n[run]\nmode = dual\n"],
                         ids=["alone", "beside-run"])
def test_config_default_section_is_an_unknown_section(capsys, text):
    Path("d.ini").write_text(text, encoding="ascii")
    assert main(["train", "--mode", "dual", "--config", "d.ini", "--out", "refused"] + TINY) == 2
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err
    assert not Path("refused").exists()


LATIN1_CONFIG = "[run]\nmode = dual\n# caf\xe9\n".encode("latin-1")


def test_config_file_that_is_not_utf8_exits_2(capsys):
    Path("latin1.ini").write_bytes(LATIN1_CONFIG)
    assert main(["train", "--config", "latin1.ini", "--out", "refused"] + TINY) == 2
    assert capsys.readouterr().err.startswith("error: config file latin1.ini is not UTF-8")
    assert not Path("refused").exists()


def test_config_bad_value_rejected():
    text = render_config(tiny_config(mode="dual")).replace(
        "epochs = 2", "epochs = many")
    with pytest.raises(SpecError, match="bad value"):
        read_back(text)


@pytest.mark.parametrize("out", ["runs/100%", "runs/a%%b"])
def test_config_percent_in_a_value_round_trips(out):
    cfg = tiny_config(mode="dual")
    assert read_back(with_out(render_config(cfg), out)) == (cfg, out)


def test_config_interpolation_syntax_is_a_bad_value(tmp_path, capsys):
    path = tmp_path / "c.ini"
    path.write_text(render_config(tiny_config(mode="dual")).replace(
        "tau = 4.0", "tau = %(x)s"), encoding="ascii")
    assert main(["train", "--config", str(path)]) == 2
    assert "bad value '%(x)s' for tau in [run]" in capsys.readouterr().err


def test_config_missing_mode_rejected():
    with pytest.raises(SpecError, match="mode"):
        read_back("[run]\ntau = 4.0\n")


def test_config_architecture_widths():
    cfg = tiny_config(mode="dual")
    parsed, _ = read_back(render_config(cfg))
    assert parsed.student1_spec == mlp_spec(8, DEFAULT_WIDTHS["student1"], 4)
    # a non-canonical architecture cannot be rendered
    from ukd.nets import LayerSpec
    odd = tiny_config(mode="dual", student1_spec=[
        LayerSpec(8, 6, "none"), LayerSpec(6, 4, "none")])
    with pytest.raises(SpecError, match="hidden widths"):
        render_config(odd)


# ------------------------------------------------------------------- train


def test_train_and_rerun_identical(tmp_path):
    args = ["train", "--mode", "dual"] + TINY
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("metrics.csv", "student_s1_final.ukdc", "student_s2_final.ukdc",
                 "teacher.ukdc"):
        assert sha(tmp_path / "a" / name) == sha(tmp_path / "b" / name)


def test_train_mode_weight_conflict_exits_2(capsys):
    assert main(["train", "--mode", "baseline_kd", "--gamma", "0.2"] + TINY) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: baseline_kd requires gamma = 0 (the mode has no such term)")


def test_train_without_mode_or_config_exits_2(capsys):
    assert main(["train"] + TINY) == 2
    assert "--mode or --config" in capsys.readouterr().err


def test_train_bad_tau_exits_2():
    assert main(["train", "--mode", "dual", "--tau", "0"] + TINY) == 2


@pytest.mark.parametrize("flag,value", [
    ("--alpha", "nan"), ("--beta", "inf"), ("--gamma", "inf"), ("--tau", "inf"),
    ("--eta0", "nan"), ("--momentum", "nan"), ("--weight-decay", "inf"),
    ("--augment-strength", "nan"),
])
def test_train_non_finite_hyperparameter_exits_2(monkeypatch, capsys, flag, value):
    def no_training(*args, **kwargs):
        raise AssertionError("config was accepted")

    monkeypatch.setattr("ukd.cli.train", no_training)
    assert main(["train", "--mode", "dual", flag, value] + TINY) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["train", "--mode", "dual", "--eta0", "0"], "eta0"),
    (["train", "--mode", "dual", "--eta0", "-1"], "eta0"),
    (["train", "--mode", "dual", "--classes", "1"], "num_classes"),
    (["train", "--mode", "dual", "--sigma", "0"], "overlap_sigma"),
    (["train", "--mode", "dual", "--val-fraction", "1.5"], "val_fraction"),
    (["train", "--mode", "dual", "--tau", "1e200"], "tau"),
    (["train", "--mode", "baseline_kd", "--tau", "1e-200"], "tau"),
    (["train", "--mode", "dual", "--config", "zero-width.ini"], "student1_spec"),
    (["ablate", "--seeds", "1", "--eta0", "0"], "eta0"),
    (["ablate", "--seeds", "0"], "--seeds"),
    (["ablate", "--seeds", "-2"], "--seeds"),
    (["ablate", "--jobs", "0"], "--jobs"),
    (["train", "--mode", "dual", "--classes", "3", "--dim", "4", "--per-class", "4"],
     "val_fraction"),
    (["train", "--mode", "dual", "--per-class", "1", "--val-fraction", "0.9"], "val_fraction"),
    (["train", "--mode", "bogus"], "[--mode {hard_only,baseline_kd,uncertainty_kd,dual}]"),
], ids=["eta0-zero", "eta0-negative", "one-class", "zero-sigma", "val-fraction",
        "tau-square-overflows", "tau-square-underflows", "zero-width-student", "ablate-eta0-zero", "ablate-no-seeds",
        "ablate-negative-seeds", "ablate-no-jobs", "val-split-rounds-empty",
        "train-split-rounds-empty", "unknown-mode"])
def test_a_config_that_cannot_run_claims_no_directory(monkeypatch, capsys, argv, named):
    def no_work(*args, **kwargs):
        raise AssertionError("a config that cannot run was accepted")

    monkeypatch.setattr("ukd.cli.train", no_work)
    monkeypatch.setattr("ukd.cli.ablate", no_work)
    Path("zero-width.ini").write_text("[architecture]\nstudent1 = 0\n", encoding="ascii")
    assert main(argv + ["--out", "refused"]) == 2
    err = capsys.readouterr().err.splitlines()
    # the error line names the fault; an unknown mode is named by the usage line it breaks
    assert named in (err[0] if named.startswith("[--mode") else err[-1])
    assert not Path("refused").exists()


@pytest.mark.parametrize("error,code", [
    (NumericError("loss diverged"), 3),
    (ContractError("sgd_step called before gradients were populated"), 2),
])
def test_exit_code_follows_error_kind(monkeypatch, capsys, error, code):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr("ukd.cli.train", failing)
    assert main(["train", "--mode", "dual"] + TINY) == code
    prefix = "numeric abort: " if code == 3 else "error: "
    assert capsys.readouterr().err.startswith(prefix)


def test_train_numeric_abort_exits_3(capsys):
    rc = main(["train", "--mode", "dual", "--eta0", "1e30",
               "--out", "diverged"] + TINY)
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric abort" in err
    summary = json.loads(Path("diverged", "summary.json").read_text())
    assert (summary["status"], summary["phase"]) == ("diverged", "teacher")
    assert err == f"numeric abort: {summary['error']}\n"


def test_train_names_the_network_whose_evaluation_diverged(capsys):
    # one batch per epoch, so the teacher's last update overflows before its val evaluation
    rc = main(["train", "--mode", "dual", "--eta0", "1e30", "--out", "diverged"]
              + TINY + ["--batch-size", "1000"])
    assert rc == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric abort: teacher evaluation diverged: dense produced [^\n]*\n",
                        err)
    summary = json.loads(Path("diverged", "summary.json").read_text())
    assert err == f"numeric abort: {summary['error']}\n"


def test_a_dead_ladder_worker_exits_2_without_a_traceback(monkeypatch, capfd):
    real_train = harness.train

    def train_or_die(config, out_dir, spill):  # the pool's workers are forked and inherit it
        if config.seeds == harness.Seeds.from_block(1):
            os._exit(7)
        return real_train(config, out_dir, spill)

    monkeypatch.setattr(harness, "train", train_or_die)
    assert main(["ablate", "--seeds", "2", "--jobs", "2", "--out", "abl"] + TINY) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: a ladder worker ended before its seed block did (")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", [["train", "--mode", "dual"],
                                     ["ablate", "--seeds", "2", "--jobs", "2"]])
def test_numeric_abort_is_the_only_line_on_stderr(tmp_path, command):
    # a subprocess, because pytest's warning capture would hide a RuntimeWarning from capsys
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "ukd.cli", *command, "--eta0", "1e30", "--out", "run", *TINY],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 3
    assert re.fullmatch(r"numeric abort: teacher forward diverged: [^\n]*\n", done.stderr)


def test_the_module_entry_point_keeps_the_exit_codes(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    (tmp_path / "latin1.ini").write_bytes(LATIN1_CONFIG)
    helped, refused = (subprocess.run(
        [sys.executable, "-m", "ukd.cli", *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120)
        for argv in (["--help"], ["train", "--config", "latin1.ini", *TINY]))
    assert helped.returncode == 0 and "gen-data" in helped.stdout
    assert refused.returncode == 2 and refused.stderr.startswith("error: config file")
    assert "Traceback" not in refused.stderr


def test_train_refuses_occupied_directory(tmp_path, capsys):
    target = tmp_path / "occupied"
    target.mkdir()
    (target / "keep.txt").write_text("precious")
    rc = main(["train", "--mode", "dual", "--out", str(target)] + TINY)
    assert rc == 2
    assert "non-empty" in capsys.readouterr().err
    assert (target / "keep.txt").read_text() == "precious"


def test_train_interrupted_in_pretraining_leaves_no_run_directory(tmp_path, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "pretrain_teacher", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--mode", "dual", "--out", str(tmp_path / "run")] + TINY)
    assert not (tmp_path / "run").exists()


def test_train_refuses_an_out_dir_it_cannot_make_before_any_work(tmp_path, monkeypatch, capsys):
    def pretrain(*args):
        raise AssertionError("the teacher was pretrained for a run with nowhere to go")

    monkeypatch.setattr(harness, "pretrain_teacher", pretrain)
    (tmp_path / "afile").write_text("")
    rc = main(["train", "--mode", "dual", "--out", str(tmp_path / "afile" / "run")] + TINY)
    assert rc == 2
    assert "is not a writable directory" in capsys.readouterr().err


def test_train_from_config_file(tmp_path, capsys):
    cfg = tiny_config(mode="uncertainty_kd")
    path = tmp_path / "run.cfg"
    path.write_text(with_out(render_config(cfg), str(tmp_path / "from_cfg")))
    assert main(["train", "--config", str(path)]) == 0
    assert (tmp_path / "from_cfg" / "metrics.csv").exists()
    with open(tmp_path / "from_cfg" / "summary.json") as fh:
        assert json.load(fh)["mode"] == "uncertainty_kd"


def test_flags_override_config(tmp_path):
    cfg = tiny_config(mode="dual")
    path = tmp_path / "run.cfg"
    path.write_text(render_config(cfg))
    out = tmp_path / "longer"
    assert main(["train", "--config", str(path), "--epochs", "3",
                 "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 3  # three epochs, not the config's two


def _dims(spec):
    return [spec[0][0]] + [layer[1] for layer in spec]


@pytest.mark.parametrize("architecture,widths", [
    ("", {"teacher": [128, 128, 128], "student1": [64, 64], "student2": [32]}),
    ("[architecture]\nteacher = 32\nstudent1 = 24,12\nstudent2 = 16\n",
     {"teacher": [32], "student1": [24, 12], "student2": [16]}),
])
def test_dataset_flags_shape_the_specs_of_a_config_file(tmp_path, architecture, widths):
    # the file describes 16 features and 10 classes; the flags ask for 8 and 4
    text = render_config(TrainConfig(mode="dual", epochs=1, teacher_epochs=1, batch_size=32,
                                     dataset=DatasetSpec(samples_per_class=40)))
    path = tmp_path / "run.cfg"
    path.write_text(text[: text.index("[architecture]")] + architecture)
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--classes", "4", "--dim", "8",
                 "--out", str(out)]) == 0
    echo = json.loads((out / "summary.json").read_text())["config"]
    for name, hidden in widths.items():
        assert _dims(echo[f"{name}_spec"]) == [8, *hidden, 4]


@pytest.mark.parametrize("dataset_seed,code", [(None, 0), (5, 2)])
def test_dataset_seed_defaults_to_the_data_stream(tmp_path, capsys, dataset_seed, code):
    text = render_config(tiny_config(mode="dual", seeds=Seeds.from_block(1), dataset=DatasetSpec(
        num_classes=4, samples_per_class=40, feature_dim=8, overlap_sigma=0.5, seed=1000)))
    explicit = "" if dataset_seed is None else f"seed = {dataset_seed}\n"
    path = tmp_path / "run.cfg"
    path.write_text(text.replace("seed = 1000\n", explicit))
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == code
    if code == 0:
        assert json.loads((out / "summary.json").read_text())["config"]["dataset"]["seed"] == 1000
    else:
        assert "must equal seeds.data" in capsys.readouterr().err


@pytest.mark.parametrize("dropped", [["shuffle"], ["teacher", "student2"]])
def test_partial_seeds_section_exits_2_naming_missing_streams(tmp_path, capsys, dropped):
    text = render_config(tiny_config(mode="dual"))
    text = text[: text.index("[architecture]")]  # its keys share names with seed streams
    for key in dropped:
        text = re.sub(rf"^{key} = \d+\n", "", text, flags=re.MULTILINE)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [seeds] lacks")
    assert all(key in err for key in dropped)


def test_seed_block_flag_rewires_all_streams(tmp_path):
    out = tmp_path / "blk"
    assert main(["train", "--mode", "dual", "--seed-block", "7",
                 "--out", str(out)] + TINY) == 0
    with open(out / "summary.json") as fh:
        echo = json.load(fh)["config"]
    assert echo["seeds"] == {"data": 7000, "teacher": 7001, "student1": 7002,
                             "student2": 7003, "shuffle": 7004}
    assert echo["dataset"]["seed"] == 7000


def test_default_out_dir_uses_run_root(tmp_path, capsys):
    assert main(["train", "--mode", "dual"] + TINY) == 0
    assert (tmp_path / "root" / "dual-seed0" / "metrics.csv").exists()


def test_train_help_lists_defaults(capsys):
    assert main(["train", "--help"]) == 0
    text = capsys.readouterr().out
    for fragment in ("default: 4.0", "default: 0.1", "default: 0.9",
                     "default: 0.0001", "default: 30", "default: 64"):
        assert fragment in text


# ---------------------------------------------------------- other commands


def test_pretrain_teacher_command(tmp_path, capsys):
    out = tmp_path / "teach"
    rc = main(["pretrain-teacher", "--out", str(out)] + TINY_TEACHER)
    assert rc == 0
    printed = capsys.readouterr().out
    assert (out / "teacher.ukdc").exists()
    assert "teacher val_top1:" in printed
    assert "teacher params:" in printed
    assert main(["pretrain-teacher"] + TINY_TEACHER) == 0  # no --out: under the run root
    assert (tmp_path / "root" / "teacher-seed1" / "teacher.ukdc").read_bytes() == (
        out / "teacher.ukdc").read_bytes()


def test_diverged_pretrain_teacher_leaves_a_summary(capsys):
    argv = ["pretrain-teacher", "--eta0", "1e10", "--teacher-epochs", "2", "--classes", "3",
            "--dim", "4", "--per-class", "40", "--out", "teach"]
    assert main(argv) == 3
    summary = json.loads(Path("teach", "summary.json").read_text(encoding="ascii"))
    assert sorted(Path("teach").iterdir()) == [Path("teach", "summary.json")]
    assert capsys.readouterr().err == f"numeric abort: {summary['error']}\n"
    assert summary["error"].startswith("teacher ")
    assert (summary["status"], summary["phase"], summary["mode"]) == (
        "diverged", "teacher", "hard_only")
    assert isinstance(summary["epoch"], int) and isinstance(summary["batch"], int)
    assert summary["config"]["eta0"] == 1e10
    # train with the same flags stops at the same place and says so the same way
    assert main(["train", "--mode", "hard_only", *argv[1:-1], "run"]) == 3
    assert json.loads(Path("run", "summary.json").read_text(encoding="ascii")) == summary
    capsys.readouterr()
    # there is no metrics.csv, and report names the divergence, not the missing file
    assert main(["report", "--baseline", "teach", "--ours", "run"]) == 2
    assert capsys.readouterr().err == (
        f"error: teach is a diverged run (phase teacher, epoch {summary['epoch']}, "
        f"batch {summary['batch']}): {summary['error']}\n")


@pytest.mark.parametrize("flag,value", [
    ("--alpha", "0.5"), ("--beta", "0.5"), ("--gamma", "0.5"), ("--tau", "2.0"),
    ("--epochs", "0"), ("--kl-direction", "conventional"),
])
def test_pretrain_teacher_rejects_flags_it_does_not_read(capsys, flag, value):
    assert main(["pretrain-teacher", flag, value] + TINY_TEACHER) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_eval_command(tmp_path, capsys):
    ds_file = tmp_path / "ds.ukdd"
    assert main(["gen-data", "--classes", "4", "--per-class", "40", "--dim", "8",
                 "--sigma", "0.5", "--seed", "0", "-o", str(ds_file)]) == 0
    run = tmp_path / "run"
    assert main(["train", "--mode", "dual", "--out", str(run)] + TINY) == 0
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(run / "student_s1_final.ukdc"),
               "--data", str(ds_file)])
    assert rc == 0
    printed = capsys.readouterr().out
    top1 = float(re.search(r"top1: ([\d.]+)", printed).group(1))
    top5 = float(re.search(r"top5: ([\d.]+)", printed).group(1))
    # same spec and seed as the training dataset: the checkpoint transfers
    assert top5 >= top1 > 0.25
    with open(run / "summary.json") as fh:
        final = json.load(fh)["students"]["s1"]["final_val_top1"]
    assert top1 == pytest.approx(final, abs=1e-12)
    # --split train scores the rows the run trained on, as its last epoch did
    checkpoint = str(run / "student_s1_final.ukdc")
    assert main(["eval", "--checkpoint", checkpoint, "--data", str(ds_file),
                 "--split", "train"]) == 0
    with open(run / "metrics.csv", newline="") as fh:
        train_top1 = [float(row["train_top1"]) for row in csv.DictReader(fh)
                      if row["student"] == "s1"][-1]
    assert f"top1: {train_top1:.4f}\n" in capsys.readouterr().out
    # a file made at another fraction is scored on its own split
    half_file = tmp_path / "half.ukdd"
    assert main(["gen-data", "--classes", "4", "--per-class", "40", "--dim", "8",
                 "--sigma", "0.5", "--seed", "0", "--val-fraction", "0.5",
                 "-o", str(half_file)]) == 0
    assert half_file.read_bytes() != ds_file.read_bytes()
    capsys.readouterr()
    assert main(["eval", "--checkpoint", checkpoint, "--data", str(half_file)]) == 0
    half = evaluate(load_checkpoint(checkpoint), generate(DatasetSpec(
        num_classes=4, samples_per_class=40, feature_dim=8, overlap_sigma=0.5, seed=0,
        val_fraction=0.5)), "val")
    assert capsys.readouterr().out == f"top1: {half['top1']:.4f}\ntop5: {half['top5']:.4f}\n"
    # the split comes from the file, so eval takes no fraction
    assert main(["eval", "--checkpoint", checkpoint, "--data", str(ds_file),
                 "--val-fraction", "0.5"]) == 2
    assert "unrecognized arguments: --val-fraction" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_2(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "no.ukdc"),
                 "--data", str(tmp_path / "no.ukdd")]) == 2


def test_eval_directory_checkpoint_exits_2(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path), "--data", "x"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_ablate_single_seed_equals_manual_trains(tmp_path):
    root = tmp_path / "abl"
    assert main(["ablate", "--seeds", "1", "--out", str(root)] + TINY) == 0
    assert (root / "ablation.csv").exists()
    table = (root / "ablation.txt").read_text().splitlines()
    assert len(table) == 1 + 4 * 2
    for mode in MODES:
        manual = tmp_path / f"manual-{mode}"
        assert main(["train", "--mode", mode, "--seed-block", "0",
                     "--out", str(manual)] + TINY) == 0
        ladder_csv = root / f"{mode}-block0" / "metrics.csv"
        assert ladder_csv.read_bytes() == (manual / "metrics.csv").read_bytes()
        # the mode from a config file writes the same run as the flag
        Path(f"{mode}.cfg").write_text(f"[run]\nmode = {mode}\n", encoding="ascii")
        assert main(["train", "--config", f"{mode}.cfg", "--out", f"config-{mode}"]
                    + TINY) == 0
        assert _run_files(Path(f"config-{mode}")) == _run_files(manual)
        # the mode a run records, and the one a rendered config holds, go back to --mode
        recorded = json.loads((manual / "summary.json").read_text(encoding="ascii"))["mode"]
        rendered = re.search(r"^mode = (.*)$", render_config(TrainConfig(mode=mode)), re.M)[1]
        for name in (recorded, rendered):
            args = build_parser().parse_args(["train", "--mode", name])
            assert _assemble_config(args)[0].mode == mode
    # a name that is no mode's is refused before any directory is claimed
    assert main(["train", "--mode", "kd", "--out", "short"] + TINY) == 2
    assert not Path("short").exists()


def _run_files(run: Path) -> dict:
    """Every file of a run, with the wall-clock total dropped from summary.json."""
    files = {p.name: p.read_bytes() for p in run.iterdir()}
    summary = json.loads(files["summary.json"])
    del summary["total_wall_seconds"]
    files["summary.json"] = summary
    return files


@pytest.mark.parametrize("flag", ["--alpha", "--beta", "--gamma", "--seed-block"])
def test_ablate_rejects_flags_each_row_sets(capsys, flag):
    assert main(["ablate", "--seeds", "1", flag, "1"] + TINY) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


_BLOCK3_SEEDS = "[seeds]\n" + "".join(
    f"{key} = {value}\n" for key, value in vars(Seeds.from_block(3)).items())


@pytest.mark.parametrize("text,named", [
    ("[run]\nmode = dual\n", ["mode in [run]"]),
    ("[run]\nalpha = 0.9\n", ["alpha in [run]"]),
    ("[run]\nbeta = 0.9\n", ["beta in [run]"]),
    ("[run]\ngamma = 0.1\n", ["gamma in [run]"]),
    ("[dataset]\nseed = 0\n", ["seed in [dataset]"]),
    (_BLOCK3_SEEDS, [f"{key} in [seeds]" for key in vars(Seeds.from_block(3))]),
], ids=["mode", "alpha", "beta", "gamma", "dataset-seed", "seeds"])
def test_ablate_rejects_config_keys_each_row_sets(tmp_path, capsys, text, named):
    path = tmp_path / "ladder.cfg"
    path.write_text(text)
    out = tmp_path / "abl"
    assert main(["ablate", "--seeds", "1", "--config", str(path), "--out", str(out)]
                + TINY) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(name in err for name in named)
    assert not out.exists()


def test_ablate_config_keys_every_row_shares_reach_each_row(tmp_path):
    path = tmp_path / "ladder.cfg"
    path.write_text(
        "[run]\ntau = 2.0\nepochs = 2\nteacher_epochs = 2\nbatch_size = 32\n"
        "[dataset]\nnum_classes = 4\nsamples_per_class = 40\nfeature_dim = 8\n"
        "overlap_sigma = 0.5\n"
        "[architecture]\nteacher = 16\nstudent1 = 12,12\nstudent2 = 8\n")
    root = tmp_path / "abl"
    assert main(["ablate", "--seeds", "1", "--config", str(path), "--out", str(root)]) == 0
    for mode in MODES:
        with open(root / f"{mode}-block0" / "summary.json") as fh:
            echo = json.load(fh)["config"]
        assert echo["mode"] == mode
        assert (echo["tau"], echo["epochs"], echo["teacher_epochs"], echo["batch_size"]) == \
            (2.0, 2, 2, 32)
        assert {k: echo["dataset"][k] for k in ("num_classes", "samples_per_class",
                                                 "feature_dim", "overlap_sigma")} == \
            {"num_classes": 4, "samples_per_class": 40, "feature_dim": 8, "overlap_sigma": 0.5}
        assert echo["student1_spec"] == [[8, 12, "relu"], [12, 12, "relu"], [12, 4, "none"]]
        assert echo["teacher_spec"] == [[8, 16, "relu"], [16, 4, "none"]]
        assert echo["student2_spec"] == [[8, 8, "relu"], [8, 4, "none"]]


def test_ablate_csv_stable_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    flags = ["ablate", "--seeds", "2"] + TINY
    assert main(flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b)]) == 0
    assert sha(a / "ablation.csv") == sha(b / "ablation.csv")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("tiny") / "run"
    assert main(["train", "--mode", "dual", "--out", str(run)] + TINY) == 0
    return run


def test_report_compression_is_a_usage_error_before_any_write(tiny_run, tmp_path, capsys):
    capsys.readouterr()
    rep = tmp_path / "rep"
    rc = main(["report", "--baseline", str(tiny_run), "--ours", str(tiny_run),
               "--out", str(rep), "--compression", "2/1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --compression" in err
    assert not rep.exists()


def test_report_command(tmp_path, capsys):
    base, ours, rep = tmp_path / "base", tmp_path / "ours", tmp_path / "rep"
    assert main(["train", "--mode", "baseline_kd", "--out", str(base)] + TINY) == 0
    assert main(["train", "--mode", "dual", "--out", str(ours)] + TINY) == 0
    capsys.readouterr()
    rc = main(["report", "--baseline", str(base), "--ours", str(ours), "--out", str(rep)])
    assert rc == 0
    printed = capsys.readouterr().out
    # stdout is exactly the delta table, the same text as report.txt
    assert printed == (rep / "report.txt").read_text()
    header, *rows = printed.splitlines()
    assert header == f"{'student':<9}{'baseline':>10}{'ours':>10}{'delta':>10}"
    assert [line[:2] for line in rows] == ["s1", "s2"]
    # delta column is exactly ours - baseline
    with open(base / "summary.json") as fh:
        base_summary = json.load(fh)
    with open(ours / "summary.json") as fh:
        ours_summary = json.load(fh)
    for line in rows:
        m = re.fullmatch(r"(s\d)\s+([\d.]+)\s+([\d.]+)\s+([+-][\d.]+)", line)
        assert m, line
        student, b_val, o_val, delta = m.group(1), *map(float, m.groups()[1:])
        assert b_val == pytest.approx(
            base_summary["students"][student]["final_val_top1"], abs=5e-5)
        assert o_val == pytest.approx(
            ours_summary["students"][student]["final_val_top1"], abs=5e-5)
        assert delta == pytest.approx(o_val - b_val, abs=1e-4)
    for label in ("baseline", "ours"):
        for student in ("s1", "s2"):
            series = (rep / f"series_{label}_{student}.csv").read_text().splitlines()
            assert series[0] == "epoch,val_top1,val_top5,mean_entropy,mean_weight"
            assert len(series) == 1 + 2  # header + one row per epoch


def test_report_missing_dir_exits_2(tmp_path, capsys):
    assert main(["report", "--baseline", str(tmp_path / "gone"),
                 "--ours", str(tmp_path / "gone2")]) == 2
    assert "not a run directory" in capsys.readouterr().err


def test_report_on_a_diverged_run_exits_2(tmp_path, capsys):
    good, bad = tmp_path / "good", tmp_path / "bad"
    assert main(["train", "--mode", "baseline_kd", "--out", str(good)] + TINY) == 0
    # a sane teacher, then students at a runaway rate: summary.json and a
    # header-only metrics.csv are left behind
    cfg = TrainConfig(mode="dual", epochs=2, teacher_epochs=2, batch_size=32,
                      dataset=DatasetSpec(num_classes=4, samples_per_class=40,
                                          feature_dim=8, overlap_sigma=0.5))
    teacher, _ = pretrain_teacher(cfg)
    with pytest.raises(NumericError):
        train(replace(cfg, eta0=1e30), bad, teacher=teacher)
    capsys.readouterr()
    assert main(["report", "--baseline", str(good), "--ours", str(bad)]) == 2
    assert "is a diverged run (phase students, epoch 0, batch " in capsys.readouterr().err


def _damaged(run, name, damage):
    """A copy of run's summary.json and metrics.csv with one of them rewritten by
    damage, or left out where damage returns None."""
    copy = Path(f"damaged-{name.replace('.', '-')}")
    copy.mkdir()
    for file in ("summary.json", "metrics.csv"):
        text = (run / file).read_text(encoding="ascii")
        text = damage(text) if file == name else text
        if text is not None:
            (copy / file).write_text(text, encoding="utf-8")
    return copy


@pytest.mark.parametrize("name,damage,named", [
    ("summary.json", lambda text: text[: len(text) // 2], "unreadable run file"),
    ("summary.json", lambda text: "[]\n", "is not a JSON object"),
    ("summary.json", lambda text: text.replace('"final_val_top1"', '"final"'),
     "final_val_top1"),
    ("metrics.csv", lambda text: text.replace("val_top1", "val_acc"), "val_top1"),
    ("metrics.csv", lambda text: text + "1,s1,0.5\n", "too few fields"),
    ("metrics.csv", lambda text: None, "missing metrics.csv"),
    ("metrics.csv", lambda text: text + "# caf\xe9\n", "unreadable run file"),
])
def test_report_refuses_a_damaged_run_before_claiming_out(tiny_run, capsys, name, damage,
                                                         named):
    bad = _damaged(tiny_run, name, damage)
    for baseline, ours in ((tiny_run, bad), (bad, tiny_run)):
        capsys.readouterr()
        assert main(["report", "--baseline", str(baseline), "--ours", str(ours),
                     "--out", "rep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}") and named in err
        assert not Path("rep").exists()


def test_report_refuses_runs_that_disagree_on_student_names(tiny_run, capsys):
    renamed = _damaged(tiny_run, "summary.json", lambda text: text.replace('"s2"', '"s3"'))
    assert main(["report", "--baseline", str(tiny_run), "--ours", str(renamed),
                 "--out", "rep"]) == 2
    err = capsys.readouterr().err
    assert f"error: {tiny_run} and {renamed} disagree on student names" in err
    assert "['s1', 's2'] vs ['s1', 's3']" in err
    assert not Path("rep").exists()


def test_report_incompatible_epochs_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--mode", "baseline_kd", "--out", str(a)] + TINY) == 0
    assert main(["train", "--mode", "dual", "--out", str(b), "--epochs", "3",
                 "--classes", "4", "--per-class", "40", "--dim", "8",
                 "--sigma", "0.5", "--teacher-epochs", "2",
                 "--batch-size", "32"]) == 0
    capsys.readouterr()
    assert main(["report", "--baseline", str(a), "--ours", str(b)]) == 2
    assert f"error: {a} and {b} disagree on epochs (2 vs 3)" in capsys.readouterr().err


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2
