"""Training harness tests.

The expensive guarantees live here: a dual step reproduced by hand with
scalar arithmetic, bitwise mode reductions, teacher immutability, run
reproducibility down to file bytes, and the checkpoint format.
"""

import errno
import hashlib
import io
import json
import math
import os
import pickle
import signal
import struct
import tempfile
from contextlib import closing, nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ukd import gradcore, harness
from ukd.data import Dataset, DatasetSpec, batches, generate, load_dataset, save_dataset
from ukd.errors import DataError, FormatError, NumericError, ParameterError, SpecError
from ukd.gradcore import Tensor, backward, zero_grad
from ukd.harness import (
    ABLATION_ROWS,
    METRICS_HEADER,
    MODES,
    MetricsRecord,
    Seeds,
    TrainConfig,
    ablate,
    confidence_for_mode,
    evaluate,
    load_checkpoint,
    pretrain_teacher,
    save_checkpoint,
    train,
    train_step_dual,
)
from ukd.nets import (LayerSpec, Network, build, compression_ratio, forward, mlp_spec,
                      param_count)
from ukd.optim import SgdState, lr_at, sgd_step
from ukd.distill import UncertaintyStats, hard_loss

SMALL_DATA = DatasetSpec(num_classes=4, samples_per_class=40, feature_dim=8,
                         overlap_sigma=0.5, seed=0, val_fraction=0.1)


def small_config(mode, **kw):
    kw.setdefault("epochs", 3)
    kw.setdefault("teacher_epochs", 3)
    kw.setdefault("batch_size", 32)
    kw.setdefault("dataset", SMALL_DATA)
    return TrainConfig(mode=mode, **kw)


def net_digest(net):
    h = hashlib.sha256()
    for p in net.parameters:
        h.update(p.data.tobytes())
    return h.hexdigest()


def clone_net(net):
    params = [Tensor(p.data.copy(), requires_grad=True) for p in net.parameters]
    return Network(list(net.layers), params)


def dual_step(teacher, s1, s2, batch, cfg, opt1, opt2):
    """What train and its producer do per computed batch: the teacher's logits,
    then the dual step."""
    x = Tensor(batch[0])
    return train_step_dual(forward(teacher, x), s1, s2, (x, batch[1]), cfg, opt1, opt2)


# ------------------------------------------------------------------ config


def test_mode_weight_defaults():
    assert (small_config("hard_only").alpha, small_config("hard_only").beta,
            small_config("hard_only").gamma) == (1.0, 0.0, 0.0)
    kd = small_config("baseline_kd")
    assert (kd.alpha, kd.beta, kd.gamma) == (0.3, 0.7, 0.0)
    ukd = small_config("uncertainty_kd")
    assert (ukd.alpha, ukd.beta, ukd.gamma) == (0.3, 0.7, 0.0)
    dual = small_config("dual")
    assert (dual.alpha, dual.beta, dual.gamma) == (0.4, 0.4, 0.2)


def test_explicit_weights_override_defaults():
    cfg = small_config("dual", alpha=0.5, beta=0.3, gamma=0.2)
    assert (cfg.alpha, cfg.beta, cfg.gamma) == (0.5, 0.3, 0.2)


@pytest.mark.parametrize("kw", [
    dict(mode="hard_only", beta=0.1),
    dict(mode="hard_only", gamma=0.1),
    dict(mode="baseline_kd", gamma=0.2),
    dict(mode="uncertainty_kd", gamma=0.2),
    dict(mode="nonsense"),
    dict(mode="dual", tau=0.0),
    dict(mode="dual", tau=-1.0),
    dict(mode="dual", epochs=0),
    dict(mode="dual", batch_size=0),
    dict(mode="dual", teacher_epochs=0),
    dict(mode="dual", momentum=-0.1),
    dict(mode="dual", weight_decay=-1e-4),
    dict(mode="dual", augment_strength=-0.1),
    dict(mode="dual", alpha=-0.4),
    dict(mode="dual", kl_direction="backwards"),
    dict(mode="dual", eta0=0.0),
    dict(mode="dual", tau=1e200),
    dict(mode="dual", tau=1e-200),
    dict(mode="dual", student1_spec=mlp_spec(8, [0], 4)),
    dict(mode="dual", student1_spec=[LayerSpec(8, 4, "relu")]),
])
def test_config_rejects(kw):
    with pytest.raises(SpecError):
        small_config(**kw)


def test_dataset_seed_must_match_data_stream():
    with pytest.raises(SpecError, match="seeds.data"):
        TrainConfig(mode="dual", dataset=DatasetSpec(seed=5))


def test_identical_student_specs_rejected():
    spec = [LayerSpec(16, 32, "relu"), LayerSpec(32, 10, "none")]
    with pytest.raises(SpecError, match="heterogeneous"):
        TrainConfig(mode="dual", student1_spec=spec, student2_spec=list(spec))


def test_spec_dimension_mismatch_rejected():
    bad = [LayerSpec(7, 32, "relu"), LayerSpec(32, 10, "none")]
    with pytest.raises(SpecError, match="student1_spec"):
        TrainConfig(mode="dual", student1_spec=bad)


def test_default_specs_follow_dataset_dims():
    cfg = small_config("dual")
    assert cfg.teacher_spec[0].in_dim == 8
    assert cfg.teacher_spec[-1].out_dim == 4
    assert cfg.student1_spec != cfg.student2_spec


def test_seed_block_arithmetic():
    s = Seeds.from_block(3)
    assert (s.data, s.teacher, s.student1, s.student2, s.shuffle) == (
        3000, 3001, 3002, 3003, 3004)
    with pytest.raises(SpecError):
        Seeds.from_block(-1)
    with pytest.raises(SpecError):
        Seeds(0, 1, -2, 3, 4)


def _tiny_ladder(blocks, jobs=1):
    return ablate(small_config("dual", epochs=1, teacher_epochs=1), blocks, jobs=jobs)


# Every count, size and seed a spec holds, as a call that builds with the given value.
COUNTS = {
    "num_classes": lambda v: DatasetSpec(num_classes=v),
    "feature_dim": lambda v: DatasetSpec(feature_dim=v),
    "samples_per_class": lambda v: DatasetSpec(samples_per_class=v),
    "dataset seed": lambda v: DatasetSpec(seed=v),
    **{f"seed {name}": (lambda v, i=i: Seeds(*(v if j == i else j for j in range(5))))
       for i, name in enumerate(("data", "teacher", "student1", "student2", "shuffle"))},
    "seed block": Seeds.from_block,
    "epochs": lambda v: small_config("dual", epochs=v),
    "batch_size": lambda v: small_config("dual", batch_size=v),
    "teacher_epochs": lambda v: small_config("dual", teacher_epochs=v),
    "in_dim": lambda v: build([LayerSpec(v, 3, "none")], 0),
    "out_dim": lambda v: build([LayerSpec(3, v, "none")], 0),
    "ablate jobs": lambda v: _tiny_ladder([0], jobs=v),
    "ablate seed block": lambda v: _tiny_ladder([v]),
}


@pytest.mark.parametrize("make", COUNTS.values(), ids=COUNTS)
def test_a_count_must_be_an_integer(make):
    for value in (2.0, 1.5, "3"):
        with pytest.raises(SpecError, match="must be an integer >="):
            make(value)
    make(np.int64(7))  # numpy integers are integers


# Every real-valued field a spec holds, as a call that builds with the given value.
REALS = {
    **{name: (lambda v, name=name: small_config("dual", **{name: v}))
       for name in ("alpha", "beta", "gamma", "tau", "eta0", "momentum", "weight_decay",
                    "augment_strength")},
    **{name: (lambda v, name=name: DatasetSpec(**{name: v}))
       for name in ("overlap_sigma", "val_fraction")},
}


@pytest.mark.parametrize("value", ["4", None])
@pytest.mark.parametrize("name", REALS)
def test_a_real_field_must_be_a_real_number(name, value):
    weights = dict(zip(("alpha", "beta", "gamma"), MODES["dual"][0]))
    if value is None and name in weights:
        assert getattr(REALS[name](value), name) == weights[name]
        return  # a None loss weight takes the mode's default
    with pytest.raises(SpecError, match=f"^{name} must be a real number, got {value!r}$"):
        REALS[name](value)
    REALS[name](np.float64(0.25))  # numpy floats are real numbers


def test_a_config_of_numpy_integers_runs_and_keeps_python_ints(tmp_path):
    seeds = Seeds(*np.arange(5))
    cfg = small_config("dual", epochs=np.int64(1), teacher_epochs=np.int64(1),
                       batch_size=np.int64(32), seeds=seeds,
                       dataset=replace(SMALL_DATA, num_classes=np.int64(4), seed=np.int64(0)),
                       student2_spec=mlp_spec(np.int64(8), [np.int64(16)], np.int64(4)))
    counts = (cfg.epochs, cfg.batch_size, cfg.teacher_epochs, cfg.dataset.num_classes,
              cfg.dataset.seed, cfg.seeds.data, cfg.seeds.shuffle,
              cfg.student2_spec[0].in_dim, cfg.student2_spec[-1].out_dim)
    assert all(type(n) is int for n in counts)
    train(cfg, tmp_path / "run")
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["config"]["batch_size"] == 32


def test_students_given_as_a_tuple_and_a_list_of_one_spec_are_not_heterogeneous():
    spec = mlp_spec(8, [16], 4)
    with pytest.raises(SpecError, match="heterogeneous"):
        small_config("dual", student1_spec=tuple(spec), student2_spec=list(spec))


def test_a_teacher_pretrained_from_a_tuple_spec_config_is_accepted_by_train():
    cfg = small_config("dual", epochs=1, teacher_epochs=1,
                       teacher_spec=tuple(mlp_spec(8, [16, 16], 4)))
    teacher = pretrain_teacher(cfg)[0]
    assert train(cfg, None, teacher=teacher).teacher is teacher


def test_confidence_policy_per_mode():
    stats = UncertaintyStats(entropy=np.array([0.3, 0.9]), weight=np.array([0.75, 0.2]))
    for mode in ("hard_only", "baseline_kd"):
        assert np.array_equal(confidence_for_mode(mode, stats), np.ones(2))
    for mode in ("uncertainty_kd", "dual"):
        assert confidence_for_mode(mode, stats) is stats.weight


# ------------------------------------------------------------- teacher


def test_pretrain_teacher_is_frozen_and_deterministic():
    cfg = small_config("dual")
    t1, val1 = pretrain_teacher(cfg)
    t2, val2 = pretrain_teacher(cfg)
    assert t1.frozen
    assert all(not p.requires_grad for p in t1.parameters)
    assert net_digest(t1) == net_digest(t2)
    assert val1 == val2
    assert val1 > 1.0 / cfg.dataset.num_classes  # must clear chance


# ------------------------------------------------------ dual step by hand


def _log_softmax2(a, b, tau):
    a, b = a / tau, b / tau
    m = max(a, b)
    lse = m + math.log(math.exp(a - m) + math.exp(b - m))
    return a - lse, b - lse


def _kl2(lq, lp):
    return sum(math.exp(q) * (q - p) for q, p in zip(lq, lp))


def _one_layer(weight, bias, seed=0):
    net = build([LayerSpec(2, 2, "none")], seed)
    net.parameters[0].data[:] = weight
    net.parameters[1].data[:] = bias
    return net


def test_dual_step_matches_scalar_transcript():
    """Two samples, two classes, one-layer nets; every number recomputed with
    math.* scalar arithmetic and compared at 1e-10."""
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    wt = np.array([[2.0, 0.0], [0.0, 1.0]])
    w1 = np.array([[0.5, -0.5], [0.25, 0.75]])
    w2 = np.array([[-0.2, 0.4], [0.6, 0.3]])
    b1 = np.array([0.1, -0.1])
    b2 = np.array([0.0, 0.2])
    teacher = _one_layer(wt, np.zeros(2)).freeze()
    s1 = _one_layer(w1, b1, seed=1)
    s2 = _one_layer(w2, b2, seed=2)
    cfg = TrainConfig(mode="dual", tau=2.0)
    opt1 = SgdState(s1.parameters, 0.05, 0.0, 0.0)
    opt2 = SgdState(s2.parameters, 0.05, 0.0, 0.0)
    bd1, bd2, stats = dual_step(teacher, s1, s2, (x, y), cfg, opt1, opt2)

    hard = {1: [], 2: []}
    teach = {1: [], 2: []}
    peer = {1: [], 2: []}
    for i in range(2):
        t = x[i] @ wt
        z = {1: x[i] @ w1 + b1, 2: x[i] @ w2 + b2}
        p_raw = [math.exp(v) for v in _log_softmax2(t[0], t[1], 1.0)]
        ent = -sum(p * math.log(p) for p in p_raw)
        conf = min(max(1.0 - ent / math.log(2), 0.0), 1.0)
        assert abs(stats.entropy[i] - ent) < 1e-12
        assert abs(stats.weight[i] - conf) < 1e-12
        lp = _log_softmax2(t[0], t[1], 2.0)
        lq = {k: _log_softmax2(z[k][0], z[k][1], 2.0) for k in (1, 2)}
        for k in (1, 2):
            hard[k].append(-_log_softmax2(z[k][0], z[k][1], 1.0)[y[i]])
            teach[k].append(conf * _kl2(lq[k], lp))
        peer[1].append(_kl2(lq[1], lq[2]))
        peer[2].append(_kl2(lq[2], lq[1]))
    for k, bd in ((1, bd1), (2, bd2)):
        h = sum(hard[k]) / 2
        t_term = 4.0 * sum(teach[k]) / 2
        p_term = 4.0 * sum(peer[k]) / 2
        assert abs(bd.hard - h) < 1e-10
        assert abs(bd.teacher - t_term) < 1e-10
        assert abs(bd.peer - p_term) < 1e-10
        assert abs(bd.total - (0.4 * h + 0.4 * t_term + 0.2 * p_term)) < 1e-10


def test_dual_step_builds_thirteen_graph_nodes(dual_step_graph):
    created, reached, _ = dual_step_graph
    # per student: one dense node per layer (3 and 2), three loss terms, one sum
    assert reached == [3 + 3 + 1, 2 + 3 + 1]
    # nothing else is recorded: not the frozen teacher's forward, not the peer targets
    assert created == 13


def test_dual_step_computes_six_row_softmaxes(dual_step_graph):
    # s1 and s2 at 1 and tau, the teacher at tau and 1: each logit set once per
    # temperature, where recomputing every side of every term takes 11
    assert dual_step_graph[2] == 6


def test_warm_dual_step_makes_at_most_127_python_calls(dual_step_calls):
    # one Tensor for the batch, one loop over the students and a list scan
    # in Network.frozen took it from 170 to 155; checking the teacher is
    # frozen once per run, not per batch, to 153; an op output that is its
    # own graph node, with no Node built for its 13 ops, to 140; the step
    # taking the teacher's statistics and making both updates itself, with
    # no helper frame for either, to 137; folding the leaf sum into one
    # walk, to 127
    assert sum(dual_step_calls.values()) <= 127


def test_warm_dual_step_makes_no_numpy_wrapper_calls(dual_step_calls):
    # .sum/.mean/.max/.all/.any, np.all and np.clip pass through Python wrappers
    # on their way to a ufunc, and np.errstate and np.zeros_like are Python
    # too; the step calls the ufuncs and C functions directly
    numpy_dir = Path(np.__file__).parent.as_posix() + "/"
    into_numpy = {name: n for name, n in dual_step_calls.items() if name.startswith(numpy_dir)}
    assert into_numpy == {}
    assert dual_step_calls[Path(harness.__file__).as_posix()] > 0  # the step was profiled


def test_dual_step_leaves_teacher_untouched():
    ds = generate(SMALL_DATA)
    cfg = small_config("dual")
    teacher, _ = pretrain_teacher(cfg, ds)
    before = net_digest(teacher)
    s1 = build(cfg.student1_spec, cfg.seeds.student1)
    s2 = build(cfg.student2_spec, cfg.seeds.student2)
    opt1 = SgdState(s1.parameters, 0.1, 0.9, 1e-4)
    opt2 = SgdState(s2.parameters, 0.1, 0.9, 1e-4)
    for batch in batches(ds, 32, cfg.seeds.shuffle, 0):
        dual_step(teacher, s1, s2, batch, cfg, opt1, opt2)
    assert net_digest(teacher) == before


def test_dual_step_stats_within_bounds():
    ds = generate(SMALL_DATA)
    cfg = small_config("dual")
    teacher, _ = pretrain_teacher(cfg, ds)
    s1 = build(cfg.student1_spec, cfg.seeds.student1)
    s2 = build(cfg.student2_spec, cfg.seeds.student2)
    opt1 = SgdState(s1.parameters, 0.1, 0.9, 0.0)
    opt2 = SgdState(s2.parameters, 0.1, 0.9, 0.0)
    batch = next(batches(ds, 32, 4, 0))
    bd1, bd2, stats = dual_step(teacher, s1, s2, batch, cfg, opt1, opt2)
    assert np.all(stats.weight >= 0.0) and np.all(stats.weight <= 1.0)
    assert np.all(stats.entropy >= 0.0)
    assert np.all(stats.entropy <= math.log(SMALL_DATA.num_classes) + 1e-12)
    for bd in (bd1, bd2):
        assert abs(bd.total - (bd.alpha * bd.hard + bd.beta * bd.teacher
                               + bd.gamma * bd.peer)) <= 1e-12


def test_dual_without_peer_updates_students_independently():
    # gamma=0 must make the dual step two independent updates: swapping in a
    # different partner leaves a student's parameters and velocity untouched
    ds = generate(SMALL_DATA)
    cfg = small_config("dual", gamma=0.0)
    teacher, _ = pretrain_teacher(cfg, ds)
    a1 = build(cfg.student1_spec, cfg.seeds.student1)
    a2 = build(cfg.student2_spec, cfg.seeds.student2)
    b1, b2 = clone_net(a1), build(cfg.student2_spec, 99)
    c1, c2 = build(cfg.student1_spec, 98), clone_net(a2)
    assert net_digest(b2) != net_digest(a2) and net_digest(c1) != net_digest(a1)
    mk = lambda net: SgdState(net.parameters, 0.1, 0.9, 1e-4)
    opts = {id(net): mk(net) for net in (a1, a2, b1, b2, c1, c2)}
    for batch in batches(ds, 32, 4, 0):
        for n1, n2 in ((a1, a2), (b1, b2), (c1, c2)):
            dual_step(teacher, n1, n2, batch, cfg, opts[id(n1)], opts[id(n2)])
    assert net_digest(a1) == net_digest(b1)
    assert net_digest(a2) == net_digest(c2)
    for (x, y) in ((a1, b1), (a2, c2)):
        for vx, vy in zip(opts[id(x)].velocity, opts[id(y)].velocity):
            assert vx.tobytes() == vy.tobytes()


def test_hard_only_step_is_plain_supervised():
    ds = generate(SMALL_DATA)
    cfg = small_config("hard_only")
    teacher, _ = pretrain_teacher(cfg, ds)
    a1 = build(cfg.student1_spec, cfg.seeds.student1)
    a2 = build(cfg.student2_spec, cfg.seeds.student2)
    b1, b2 = clone_net(a1), clone_net(a2)
    mk = lambda net: SgdState(net.parameters, 0.1, 0.9, 1e-4)
    oa1, oa2, ob1, ob2 = mk(a1), mk(a2), mk(b1), mk(b2)
    for batch in batches(ds, 32, 4, 0):
        dual_step(teacher, a1, a2, batch, cfg, oa1, oa2)
        for net, opt in ((b1, ob1), (b2, ob2)):
            x, y = batch
            loss = hard_loss(forward(net, Tensor(x)), y)
            zero_grad(net.parameters)
            backward(loss)
            sgd_step(opt)
    assert net_digest(a1) == net_digest(b1)
    assert net_digest(a2) == net_digest(b2)


def test_baseline_equals_uncertainty_with_unit_weights(monkeypatch):
    ds = generate(SMALL_DATA)
    kd_cfg = small_config("baseline_kd")
    ukd_cfg = small_config("uncertainty_kd")
    teacher, _ = pretrain_teacher(kd_cfg, ds)
    a1 = build(kd_cfg.student1_spec, kd_cfg.seeds.student1)
    a2 = build(kd_cfg.student2_spec, kd_cfg.seeds.student2)
    b1, b2 = clone_net(a1), clone_net(a2)
    mk = lambda net: SgdState(net.parameters, 0.1, 0.9, 1e-4)
    oa1, oa2, ob1, ob2 = mk(a1), mk(a2), mk(b1), mk(b2)
    for batch in batches(ds, 32, 4, 0):
        dual_step(teacher, a1, a2, batch, kd_cfg, oa1, oa2)
    monkeypatch.setattr("ukd.harness.confidence_for_mode",
                        lambda mode, stats: np.ones_like(stats.weight))
    for batch in batches(ds, 32, 4, 0):
        dual_step(teacher, b1, b2, batch, ukd_cfg, ob1, ob2)
    assert net_digest(a1) == net_digest(b1)
    assert net_digest(a2) == net_digest(b2)


@pytest.mark.parametrize("term", ["hard", "teacher", "peer"])
def test_diverging_term_names_itself(monkeypatch, term):
    ds = generate(SMALL_DATA)
    cfg = small_config("dual")
    teacher, _ = pretrain_teacher(cfg, ds)
    s1 = build(cfg.student1_spec, 1)
    s2 = build(cfg.student2_spec, 2)

    def explode(*a, **kw):
        raise NumericError("exp produced a non-finite value")

    monkeypatch.setattr(f"ukd.harness.{term}_loss", explode)
    with pytest.raises(NumericError, match=f"{term} loss term"):
        dual_step(teacher, s1, s2, next(batches(ds, 32, 4, 0)), cfg,
                  SgdState(s1.parameters, 0.1, 0.0, 0.0),
                  SgdState(s2.parameters, 0.1, 0.0, 0.0))


def test_runaway_lr_aborts_with_numeric_error():
    cfg = small_config("dual", eta0=1e30, epochs=2)
    with pytest.raises(NumericError):
        train(cfg, None)


def _diverged_summary(run_dir, err):
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["error"] == str(err)
    assert summary["config"]["eta0"] == 1e30
    return summary["phase"], summary["epoch"], summary["batch"]


# train reports the error, and numpy warns of nothing on the way to it
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverged_student_phase_leaves_a_summary(tmp_path):
    teacher, _ = pretrain_teacher(small_config("dual"))  # trained at a sane rate
    cfg = small_config("dual", eta0=1e30, epochs=2)
    # the first step's update overflows s1's weights, so its next forward fails
    with pytest.raises(NumericError, match="^s1 forward diverged: dense produced") as info:
        train(cfg, tmp_path / "run", teacher=teacher)
    phase, epoch, batch = _diverged_summary(tmp_path / "run", info.value)
    assert (phase, epoch) == ("students", 0)
    assert 0 <= batch < math.ceil(len(generate(SMALL_DATA).train_indices) / cfg.batch_size)
    # no epoch finished, so metrics.csv holds its header only
    assert (tmp_path / "run" / "metrics.csv").read_text() == METRICS_HEADER + "\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_injected_teacher_that_overflows_in_evaluation_leaves_a_summary(tmp_path):
    cfg = small_config("dual")
    teacher = build(cfg.teacher_spec, 0)
    for p in teacher.parameters[::2]:
        p.data *= 1e200
    with pytest.raises(NumericError,
                       match="^teacher evaluation diverged: dense produced non-finite values$"
                       ) as info:
        train(cfg, tmp_path / "run", teacher=teacher.freeze())
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert (summary["status"], summary["phase"], summary["epoch"], summary["batch"]) == \
        ("diverged", "teacher", None, None)
    assert summary["error"] == str(info.value)
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["summary.json"]


@pytest.mark.parametrize("epoch", [0, 2])
def test_interrupted_student_phase_keeps_exactly_its_finished_epochs(tmp_path, monkeypatch,
                                                                     epoch):
    cfg = small_config("dual")
    teacher, _ = pretrain_teacher(cfg)
    whole = train(cfg, None, teacher=teacher)
    real_evaluate, calls = harness.evaluate, []

    def interrupting(net, ds, split):
        calls.append(split)
        # the teacher's val evaluation, 4 per finished epoch, then s2's train evaluation
        if len(calls) == 1 + 4 * epoch + 3:
            raise KeyboardInterrupt
        return real_evaluate(net, ds, split)

    monkeypatch.setattr(harness, "evaluate", interrupting)
    with pytest.raises(KeyboardInterrupt):
        train(cfg, tmp_path / "run", teacher=teacher)
    finished = [r.csv_row() for r in whole.records if r.epoch < epoch]
    assert len(finished) == 2 * epoch
    assert (tmp_path / "run" / "metrics.csv").read_text().splitlines() == \
        [METRICS_HEADER] + finished
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["metrics.csv"]


RUN_FILES = sorted(["metrics.csv", "summary.json", "teacher.ukdc", "student_s1_final.ukdc",
                    "student_s2_final.ukdc", "student_s1_best.ukdc", "student_s2_best.ukdc"])


def _metrics_replacements(monkeypatch, act=lambda dst: None):
    """Each os.replace onto a metrics.csv, as (inode, link count) of the copy it replaces
    (None for a first write), calling act(dst) before the rename."""
    real_replace, seen = os.replace, []

    def replacing(src, dst):
        if Path(dst).name == "metrics.csv":
            st = os.stat(dst) if os.path.exists(dst) else None
            seen.append(st and (st.st_ino, st.st_nlink))
            act(Path(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replacing)
    return seen


def test_rewriting_metrics_frees_no_copy_and_leaves_only_the_run_files(tmp_path, monkeypatch):
    cfg = small_config("dual", epochs=5)
    teacher, _ = pretrain_teacher(cfg)
    whole = train(cfg, None, teacher=teacher)
    replaced = _metrics_replacements(monkeypatch)
    train(cfg, tmp_path / "run", teacher=teacher)
    assert len(replaced) == 1 + cfg.epochs  # the header, then once per epoch
    assert replaced[0] is None
    # every later rename replaces a copy the spare still links, so it frees nothing,
    # and the run's metrics.csv alternates between two files
    assert all(nlink == 2 for _, nlink in replaced[1:])
    assert len({ino for ino, _ in replaced[1:]}) <= 2
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == RUN_FILES
    assert (tmp_path / "run" / "metrics.csv").read_text().splitlines() == \
        [METRICS_HEADER] + [r.csv_row() for r in whole.records]


@pytest.mark.parametrize("write", [2, 3])  # epoch 0's rewrite, then epoch 1's
def test_interrupt_between_keeping_and_replacing_metrics_keeps_finished_epochs(
        tmp_path, monkeypatch, write):
    cfg = small_config("dual")
    teacher, _ = pretrain_teacher(cfg)
    whole = train(cfg, None, teacher=teacher)

    def interrupting(dst):
        if len(replaced) == write:
            raise KeyboardInterrupt

    replaced = _metrics_replacements(monkeypatch, interrupting)
    with pytest.raises(KeyboardInterrupt):
        train(cfg, tmp_path / "run", teacher=teacher)
    assert replaced[-1][1] == 2  # interrupted with the spare kept as a second link
    finished = [r.csv_row() for r in whole.records if r.epoch < write - 2]
    assert (tmp_path / "run" / "metrics.csv").read_text().splitlines() == \
        [METRICS_HEADER] + finished
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["metrics.csv"]


def test_an_out_dir_that_is_a_file_is_refused_as_it_exists(tmp_path):
    cfg = small_config("dual", epochs=1, teacher_epochs=1)
    (tmp_path / "run").write_bytes(b"")
    with pytest.raises(FileExistsError) as info:
        train(cfg, tmp_path / "run")
    assert info.value.__context__ is None  # no second error from removing the spare


def test_metrics_without_hard_links_are_written_as_before(tmp_path, monkeypatch):
    cfg = small_config("dual")
    teacher, _ = pretrain_teacher(cfg)
    train(cfg, tmp_path / "linked", teacher=teacher)

    def no_links(src, dst):
        raise OSError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(os, "link", no_links)
    replaced = _metrics_replacements(monkeypatch)
    train(cfg, tmp_path / "unlinked", teacher=teacher)
    assert all(nlink == 1 for _, nlink in replaced[1:])  # each rename frees the old copy
    assert sorted(p.name for p in (tmp_path / "unlinked").iterdir()) == RUN_FILES
    assert (tmp_path / "linked" / "metrics.csv").read_bytes() == \
        (tmp_path / "unlinked" / "metrics.csv").read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverged_teacher_phase_leaves_a_summary(tmp_path):
    cfg = small_config("dual", eta0=1e30, epochs=2)
    with pytest.raises(NumericError, match="^teacher forward diverged: dense produced") as info:
        train(cfg, tmp_path / "run")
    phase, epoch, batch = _diverged_summary(tmp_path / "run", info.value)
    assert (phase, epoch) == ("teacher", 0) and batch >= 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["summary.json"]
    # ablate's workers pickle it back to the parent process
    again = pickle.loads(pickle.dumps(info.value))
    assert (type(again), str(again), again.at) == (NumericError, str(info.value), (0, batch))
    with pytest.raises(NumericError, match="^teacher forward diverged: "):
        pretrain_teacher(cfg)  # on its own, as `ukd pretrain-teacher` runs it


# forked workers inherit the filter, so a warning there would fail the test too
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverged_teacher_in_a_parallel_ladder_is_a_numeric_error():
    cfg = small_config("dual", eta0=1e30, epochs=2)
    with pytest.raises(NumericError, match="^teacher forward diverged: "):
        ablate(cfg, [0, 1], out_root=None, jobs=2)


# one batch per epoch, so an update that overflows is first met by the evaluation after it
ONE_BATCH = dict(batch_size=1000, teacher_epochs=2, epochs=2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_teacher_that_diverges_in_its_evaluation_is_named(tmp_path):
    cfg = small_config("dual", eta0=1e30, **ONE_BATCH)
    # the last pretraining update overflows the teacher, so its val evaluation fails
    with pytest.raises(NumericError, match="^teacher evaluation diverged: dense produced") as info:
        train(cfg, tmp_path / "run")
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert (summary["phase"], summary["epoch"], summary["batch"], summary["error"]) == (
        "teacher", None, None, str(info.value))
    with pytest.raises(NumericError, match="^teacher evaluation diverged: "):
        pretrain_teacher(cfg)  # on its own, as `ukd pretrain-teacher` runs it


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_student_that_diverges_in_its_evaluation_is_named(tmp_path):
    teacher, _ = pretrain_teacher(small_config("dual", **ONE_BATCH))  # trained at a sane rate
    cfg = small_config("dual", eta0=1e200, **ONE_BATCH)
    # the epoch's one update overflows s1, so its train evaluation fails before any forward
    with pytest.raises(NumericError, match="^s1 evaluation diverged: dense produced") as info:
        train(cfg, tmp_path / "run", teacher=teacher)
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert (summary["phase"], summary["epoch"], summary["batch"], summary["error"]) == (
        "students", 0, None, str(info.value))
    assert (tmp_path / "run" / "metrics.csv").read_text() == METRICS_HEADER + "\n"


def test_a_dead_ladder_worker_is_a_child_process_error(monkeypatch):
    real_train = harness.train

    def train_or_die(config, out_dir, spill):  # the pool's workers are forked and inherit it
        if config.seeds == Seeds.from_block(1):
            os._exit(7)
        return real_train(config, out_dir, spill)

    monkeypatch.setattr(harness, "train", train_or_die)
    with pytest.raises(ChildProcessError, match="^a ladder worker ended before its seed block"):
        ablate(small_config("dual", epochs=1, teacher_epochs=1), [0, 1], out_root=None, jobs=2)


def test_diverged_ladder_teacher_leaves_a_summary(tmp_path):
    # the hard_only row's train pretrains the block's teacher, so it records the divergence
    cfg = small_config("dual", eta0=1e30, epochs=2)
    with pytest.raises(NumericError) as info:
        ablate(cfg, [0], out_root=tmp_path)
    phase, epoch, batch = _diverged_summary(tmp_path / "hard_only-block0", info.value)
    assert (phase, epoch) == ("teacher", 0) and batch >= 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hard_only-block0"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_of_an_overflowing_net_is_a_numeric_error_only():
    net = build(small_config("dual").student1_spec, 0)
    for p in net.parameters[::2]:
        p.data *= 1e200
    with pytest.raises(NumericError, match="dense produced non-finite values"):
        evaluate(net, generate(SMALL_DATA), "val")


# ---------------------------------------------------------------- evaluate


def one_hot_dataset(copies=3):
    feats = np.tile(np.eye(10), (copies, 1))
    labels = np.tile(np.arange(10), copies).astype(np.int64)
    n = 10 * copies
    return Dataset(features=feats, labels=labels,
                   train_indices=np.arange(n - 10), val_indices=np.arange(n - 10, n),
                   norm_mean=np.zeros(10), norm_std=np.ones(10), num_classes=10,
                   val_fraction=1 / copies)


def linear_net(weight, bias):
    net = build([LayerSpec(10, 10, "none")], 0)
    net.parameters[0].data[:] = weight
    net.parameters[1].data[:] = bias
    return net


def test_evaluate_perfect_predictor():
    ds = one_hot_dataset()
    net = linear_net(np.eye(10), np.zeros(10))
    for split in ("train", "val"):
        result = evaluate(net, ds, split)
        assert result == {"top1": 1.0, "top5": 1.0}


def test_evaluate_constant_logits_balanced():
    ds = one_hot_dataset()
    net = linear_net(np.zeros((10, 10)), np.zeros(10))
    result = evaluate(net, ds, "val")
    assert result["top1"] == pytest.approx(0.1, abs=1e-15)
    assert result["top5"] == pytest.approx(0.5, abs=1e-15)


def test_evaluate_ties_take_lowest_class_index():
    ds = one_hot_dataset()
    bias = np.zeros(10)
    bias[2] = bias[5] = 1.0  # tied top logits at classes 2 and 5
    net = linear_net(np.zeros((10, 10)), bias)
    feats = ds.features.copy()
    labels = np.full(ds.labels.shape, 2, dtype=np.int64)
    tied = Dataset(features=feats, labels=labels, train_indices=ds.train_indices,
                   val_indices=ds.val_indices, norm_mean=ds.norm_mean,
                   norm_std=ds.norm_std, num_classes=10, val_fraction=ds.val_fraction)
    assert evaluate(net, tied, "val")["top1"] == 1.0
    labels5 = np.full(ds.labels.shape, 5, dtype=np.int64)
    tied5 = Dataset(features=feats, labels=labels5, train_indices=ds.train_indices,
                    val_indices=ds.val_indices, norm_mean=ds.norm_mean,
                    norm_std=ds.norm_std, num_classes=10, val_fraction=ds.val_fraction)
    assert evaluate(net, tied5, "val")["top1"] == 0.0  # class 2 wins the tie
    assert evaluate(net, tied5, "val")["top5"] == 1.0


def test_evaluate_topk_covers_all_classes_when_c_small():
    ds = generate(SMALL_DATA)  # 4 classes, so k = 4 and top-k is always 1
    net = build([LayerSpec(8, 4, "none")], 5)
    result = evaluate(net, ds, "val")
    assert result["top5"] == 1.0
    assert 0.0 <= result["top1"] <= 1.0


def test_evaluate_scores_a_net_with_another_class_count():
    ds = one_hot_dataset()
    wide = build([LayerSpec(10, 12, "none")], 0)  # logits 10 and 11 match no label
    wide.parameters[0].data[:] = np.eye(10, 12)
    wide.parameters[1].data[:] = 0.0
    assert evaluate(wide, ds, "val") == {"top1": 1.0, "top5": 1.0}
    narrow = build([LayerSpec(10, 4, "none")], 0)  # labels 4..9 have no logit: misses
    narrow.parameters[0].data[:] = np.eye(10, 4)
    narrow.parameters[1].data[:] = 0.0
    assert evaluate(narrow, ds, "val") == {"top1": 0.4, "top5": 0.4}


def test_evaluate_empty_split_is_a_data_error(tmp_path):
    ds = one_hot_dataset()
    empty = Dataset(features=ds.features, labels=ds.labels,
                    train_indices=ds.train_indices,
                    val_indices=np.array([], dtype=np.int64),
                    norm_mean=ds.norm_mean, norm_std=ds.norm_std, num_classes=10,
                    val_fraction=ds.val_fraction)
    net = linear_net(np.eye(10), np.zeros(10))
    with pytest.raises(DataError, match="empty"):
        evaluate(net, empty, "val")
    with pytest.raises(ParameterError, match="split must be one of"):
        evaluate(net, ds, "test")
    # a spec refuses a split that rounds to empty, so only a file can give one
    save_dataset(replace(generate(DatasetSpec(num_classes=2, samples_per_class=10, feature_dim=4,
                                              overlap_sigma=0.5, seed=1)), val_fraction=0.04),
                 tmp_path / "ds.ukdd")
    starved = load_dataset(tmp_path / "ds.ukdd")
    with pytest.raises(DataError, match="split 'val' is empty"):
        evaluate(build([LayerSpec(4, 2, "none")], 0), starved, "val")


def _whole_split_scores(net, ds, split):
    """evaluate as it was: normalize the whole split, stack its 512-row chunks'
    logits, and place each label in a stable descending sort."""
    idx = ds.split_indices(split)
    feats, labels = (ds.features[idx] - ds.norm_mean) / ds.norm_std, ds.labels[idx]
    logits = np.vstack([forward(net, Tensor(feats[i: i + 512])).data
                        for i in range(0, idx.size, 512)])
    k = min(5, logits.shape[1])
    order = np.argsort(-logits, axis=1, kind="stable")
    return {"top1": float((order[:, 0] == labels).mean()),
            "top5": float((order[:, :k] == labels[:, None]).any(axis=1).mean())}


def test_evaluate_equals_the_whole_split_scoring():
    # 1,102 train rows: two whole 512-row chunks and a partial one
    spec = DatasetSpec(num_classes=6, samples_per_class=204, feature_dim=8,
                       overlap_sigma=0.9, seed=0)
    ds = generate(spec)
    teacher, _ = pretrain_teacher(small_config("dual", dataset=spec,
                                               teacher_spec=mlp_spec(8, [32], 6)), ds)
    # and nets with fewer and with more logits than the data has classes
    for net in (teacher, build(mlp_spec(8, [32], 3), 1), build(mlp_spec(8, [32], 9), 2)):
        for split in ("train", "val"):
            got, want = evaluate(net, ds, split), _whole_split_scores(net, ds, split)
            assert ({k: np.float64(v).tobytes() for k, v in got.items()}
                    == {k: np.float64(v).tobytes() for k, v in want.items()})


# -------------------------------------------------------------------- train


def test_train_record_and_row_counts(tmp_path):
    cfg = small_config("dual")
    result = train(cfg, tmp_path / "run")
    assert len(result.records) == 2 * cfg.epochs
    lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_HEADER == (
        "epoch,student,hard,teacher,peer,total,train_top1,val_top1,val_top5,"
        "mean_entropy,mean_weight,lr")
    assert len(lines) == 1 + 2 * cfg.epochs
    for epoch in range(cfg.epochs):
        students = [r.student for r in result.records if r.epoch == epoch]
        assert students == ["s1", "s2"]
    for line in lines[1:]:  # every numeric cell must be a plain float literal
        cells = line.split(",")
        assert cells[1] in ("s1", "s2")
        for cell in cells[2:]:
            float(cell)


def test_train_lr_column_follows_schedule(tmp_path):
    cfg = small_config("uncertainty_kd", epochs=5)
    result = train(cfg, None)
    for record in result.records:
        assert record.lr == lr_at(cfg.eta0, cfg.epochs, record.epoch)


def test_train_is_bit_reproducible(tmp_path):
    cfg = small_config("dual")
    train(cfg, tmp_path / "a")
    train(cfg, tmp_path / "b")
    for name in ("metrics.csv", "teacher.ukdc", "student_s1_final.ukdc",
                 "student_s2_final.ukdc", "student_s1_best.ukdc",
                 "student_s2_best.ukdc"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_teacher_unchanged_and_shareable(tmp_path):
    cfg = small_config("dual")
    teacher, _ = pretrain_teacher(cfg)
    before = net_digest(teacher)
    train(cfg, tmp_path / "a", teacher=teacher)
    assert net_digest(teacher) == before
    train(cfg, tmp_path / "b")  # pretrains its own, same seeds
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
           (tmp_path / "b" / "metrics.csv").read_bytes()


def test_train_rejects_unfrozen_teacher():
    cfg = small_config("dual")
    with pytest.raises(SpecError, match="frozen"):
        train(cfg, None, teacher=build(cfg.teacher_spec, 0))


def test_train_rejects_teacher_whose_layers_differ_from_the_config(tmp_path):
    cfg = small_config("dual")
    narrow = mlp_spec(cfg.dataset.feature_dim, [16], cfg.dataset.num_classes)
    assert narrow != cfg.teacher_spec
    with pytest.raises(SpecError, match="teacher_spec"):
        train(cfg, tmp_path / "run", teacher=build(narrow, 0).freeze())
    assert not (tmp_path / "run").exists()


def test_train_breakdowns_recombine():
    cfg = small_config("dual", epochs=2)
    result = train(cfg, None)
    for name in ("s1", "s2"):
        assert result.breakdowns[name]
        for bd in result.breakdowns[name]:
            lhs = bd.alpha * bd.hard + bd.beta * bd.teacher + bd.gamma * bd.peer
            assert abs(bd.total - lhs) <= 1e-12


def test_train_stat_columns_bounded():
    cfg = small_config("dual", epochs=2)
    result = train(cfg, None)
    cap = math.log(cfg.dataset.num_classes)
    for r in result.records:
        assert 0.0 <= r.mean_weight <= 1.0
        assert 0.0 <= r.mean_entropy <= cap + 1e-12


def test_train_summary_contents(tmp_path):
    cfg = small_config("dual")
    result = train(cfg, tmp_path / "run")
    s = result.summary
    teacher_params = param_count(result.teacher)
    assert s["teacher"]["param_count"] == teacher_params
    for name, net in result.students.items():
        block = s["students"][name]
        assert block["param_count"] == param_count(net)
        assert block["compression_ratio"] == compression_ratio(
            teacher_params, param_count(net))
        per_epoch = [r.val_top1 for r in result.records if r.student == name]
        assert block["final_val_top1"] == per_epoch[-1]
        assert block["best_val_top1"] == max(per_epoch)
    assert s["total_wall_seconds"] > 0.0
    assert s["config"]["mode"] == "dual"
    assert "status" not in s  # only a diverged run's summary has one
    assert (tmp_path / "run" / "summary.json").exists()


def test_train_final_checkpoint_matches_live_net(tmp_path):
    cfg = small_config("dual", epochs=2)
    result = train(cfg, tmp_path / "run")
    x = np.random.default_rng(9).normal(size=(6, 8))
    for name in ("s1", "s2"):
        loaded = load_checkpoint(tmp_path / "run" / f"student_{name}_final.ukdc")
        live = forward(result.students[name], Tensor(x)).data
        assert np.array_equal(forward(loaded, Tensor(x)).data, live)


def test_validation_pipeline_never_augments(monkeypatch, tmp_path):
    import ukd.harness as hmod
    from ukd.data import augment as real_augment
    log = tmp_path / "augments"

    def counting(x, strength, rng):
        # the producer process augments the student phase's batches, so each
        # call appends its row count to a file
        with open(log, "a") as fh:
            fh.write(f"{x.shape[0]}\n")
        return real_augment(x, strength, rng)

    monkeypatch.setattr(hmod, "augment", counting)
    cfg = small_config("dual", epochs=2, teacher_epochs=2)
    ds = generate(cfg.dataset)
    n_train_batches = len(list(batches(ds, cfg.batch_size, 0, 0)))
    train(cfg, None)
    calls = [int(line) for line in log.read_text().splitlines()]
    # one call per train batch, for teacher pretraining plus the student phase
    assert len(calls) == (cfg.teacher_epochs + cfg.epochs) * n_train_batches
    n_train = len(ds.train_indices)
    assert sum(calls) == (cfg.teacher_epochs + cfg.epochs) * n_train


# -------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bytes(tmp_path):
    net = build([LayerSpec(8, 16, "relu"), LayerSpec(16, 4, "none")], 3)
    p1, p2 = tmp_path / "a.ukdc", tmp_path / "b.ukdc"
    save_checkpoint(net, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_loads_trainable():
    import tempfile
    net = build([LayerSpec(4, 4, "none")], 0).freeze()
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/t.ukdc"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
    assert not loaded.frozen
    assert all(p.requires_grad for p in loaded.parameters)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=10))
def test_checkpoint_round_trip_any_architecture(widths, seed):
    import tempfile
    dims = [3] + widths + [2]
    spec = [LayerSpec(dims[i], dims[i + 1],
                      "relu" if i + 2 < len(dims) else "none")
            for i in range(len(dims) - 1)]
    net = build(spec, seed)
    with tempfile.TemporaryDirectory() as d:
        p1, p2 = f"{d}/a.ukdc", f"{d}/b.ukdc"
        save_checkpoint(net, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


class _HalfWriter:
    """A file that stores half of its first write, then reports a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, blob):
        self._fh.write(blob[: len(blob) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("save,make", [
    (save_checkpoint, lambda seed: build([LayerSpec(4, 3, "relu"), LayerSpec(3, 2, "none")], seed)),
    (save_dataset, lambda seed: generate(DatasetSpec(num_classes=2, samples_per_class=10,
                                                     feature_dim=2, seed=seed))),
], ids=["checkpoint", "dataset"])
def test_failed_write_leaves_no_partial_or_temp_file(tmp_path, monkeypatch, save, make):
    import ukd.data as dmod
    kept = tmp_path / "kept"
    save(make(1), kept)
    before = kept.read_bytes()
    opened = []

    def full_disk(path, mode):
        opened.append(Path(path))
        return _HalfWriter(open(path, mode))

    monkeypatch.setattr(dmod, "open", full_disk, raising=False)
    for target in (kept, tmp_path / "fresh"):
        with pytest.raises(OSError, match="No space"):
            save(make(2), target)
    assert [p.parent for p in opened] == [tmp_path, tmp_path]  # temp files beside target
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
    assert kept.read_bytes() == before


def test_a_reused_spare_is_overwritten_whole(tmp_path):
    from ukd.data import _write_atomic
    path, spare = tmp_path / "f", tmp_path / ".f.spare"
    for blob in (b"a" * 100, b"b" * 100, b"c"):  # the last reuses the 100-byte first copy
        _write_atomic(path, blob, spare)
        assert path.read_bytes() == blob
    assert spare.read_bytes() == b"b" * 100 and spare.stat().st_nlink == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [".f.spare", "f"]


def _ckpt_bytes(tmp_path):
    net = build([LayerSpec(4, 3, "relu"), LayerSpec(3, 2, "none")], 1)
    path = tmp_path / "n.ukdc"
    save_checkpoint(net, path)
    return bytearray(path.read_bytes())


@pytest.mark.parametrize("mutate,fragment", [
    (lambda b: b"XKDC" + bytes(b[4:]), "offset 0"),
    (lambda b: bytes(b[:4]) + (99).to_bytes(4, "little") + bytes(b[8:]), "offset 4"),
    (lambda b: bytes(b[:20]), "truncated"),
    (lambda b: bytes(b[:11]), "header needs 12 bytes"),
    (lambda b: bytes(b[:8]) + struct.pack("<I", 0) + bytes(b[12:]),
     "implausible layer count 0 at offset 8"),
    # the first layer's out_dim, at offset 16, becomes 0
    (lambda b: bytes(b[:16]) + struct.pack("<I", 0) + bytes(b[20:]),
     "bad layer dims 4x0 at offset 12"),
    (lambda b: bytes(b) + b"\x00", "trailing"),
    (lambda b: bytes(b[:20]) + b"\x07" + bytes(b[21:]), "activation code"),
    # the second layer's activation code, none -> relu: build refuses such a net
    (lambda b: bytes(b[:29]) + b"\x01" + bytes(b[30:]), "final layer .* offset 29"),
    # one none layer of (2^32 - 1) x (2^32 - 1): its byte count overflows int64
    (lambda b: b"UKDC" + struct.pack("<IIIIB", 1, 1, 2**32 - 1, 2**32 - 1, 0),
     "truncated at offset 21 reading weight_0"),
    # the parameters start at offset 30: weight_0[0, 1] is NaN, bias_1[1] is -inf
    (lambda b: bytes(b[:38]) + struct.pack("<d", math.nan) + bytes(b[46:]),
     "non-finite weight_0 value at offset 38"),
    (lambda b: bytes(b[:206]) + struct.pack("<d", -math.inf),
     "non-finite bias_1 value at offset 206"),
])
def test_checkpoint_corruption_detected(tmp_path, mutate, fragment):
    blob = _ckpt_bytes(tmp_path)
    bad = tmp_path / "bad.ukdc"
    bad.write_bytes(mutate(blob))
    with pytest.raises(FormatError, match=fragment):
        load_checkpoint(bad)


def test_checkpoint_layout_is_pinned(tmp_path):
    # header, layer table with code = index in ACTIVATIONS, then W0, b0, W1, b1;
    # the weights are redrawn here so that neither order is taken from the code
    path = tmp_path / "n.ukdc"
    save_checkpoint(build([LayerSpec(4, 3, "relu"), LayerSpec(3, 2, "none")], 1), path)
    rng = np.random.default_rng(1)
    w0 = rng.normal(0.0, math.sqrt(2.0 / 4), (4, 3))
    w1 = rng.normal(0.0, math.sqrt(2.0 / 3), (3, 2))
    arrays = (w0, np.zeros(3), w1, np.zeros(2))
    assert path.read_bytes() == (
        b"UKDC" + struct.pack("<II", 1, 2) + struct.pack("<IIB", 4, 3, 1)
        + struct.pack("<IIB", 3, 2, 0) + b"".join(a.astype("<f8").tobytes() for a in arrays))


def test_checkpoint_broken_chain_detected(tmp_path):
    blob = _ckpt_bytes(tmp_path)
    # second layer's in_dim lives at offset 12 + 9; corrupt it to 5
    blob[21:25] = (5).to_bytes(4, "little")
    bad = tmp_path / "chain.ukdc"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="chain"):
        load_checkpoint(bad)


# ------------------------------------------------------------------ ablate


def test_ablation_structure_and_hard_row(tmp_path):
    base = small_config("dual", epochs=2, teacher_epochs=2)
    result = ablate(base, [0, 1], out_root=tmp_path / "abl")
    assert result.rows == list(ABLATION_ROWS)
    for row in result.rows:
        for student in ("s1", "s2"):
            assert len(result.finals[row][student]) == 2
    # the first rung must equal independent hard-only runs with the same seeds
    for i, block in enumerate([0, 1]):
        seeds = Seeds.from_block(block)
        solo = train(small_config(
            "hard_only", epochs=2, teacher_epochs=2, seeds=seeds,
            dataset=DatasetSpec(num_classes=4, samples_per_class=40, feature_dim=8,
                                overlap_sigma=0.5, seed=seeds.data,
                                val_fraction=0.1)), None)
        for student in ("s1", "s2"):
            assert result.finals["hard_only"][student][i] == \
                solo.summary["students"][student]["final_val_top1"]
    csv_lines = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 4 * 2
    assert csv_lines[0].startswith("row,student,mean_val_top1,std_val_top1")
    table_lines = (tmp_path / "abl" / "ablation.txt").read_text().splitlines()
    assert len(table_lines) == 1 + 4 * 2  # header plus one line per row and student
    assert (tmp_path / "abl" / "hard_only-block0" / "metrics.csv").exists()


def test_ablation_parallel_matches_sequential(tmp_path):
    base = small_config("dual", epochs=2, teacher_epochs=2)
    seq = ablate(base, [0, 1], out_root=None, jobs=1)
    par = ablate(base, [0, 1], out_root=None, jobs=2)
    assert seq.finals == par.finals


def _report_blas_threads(*args):
    threads = harness._openblas("get_num_threads")()
    return {row: {"s1": threads, "s2": threads} for row in ABLATION_ROWS}


def test_ablation_workers_run_one_blas_thread(monkeypatch):
    set_threads = harness._openblas("set_num_threads")
    if set_threads is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    before = harness._openblas("get_num_threads")()
    monkeypatch.setattr(harness, "_run_block", _report_blas_threads)
    set_threads(2)  # the workers must not inherit this
    try:
        result = ablate(small_config("dual"), [0, 1], out_root=None, jobs=2)
    finally:
        set_threads(before)
    assert result.finals["dual"] == {"s1": [1, 1], "s2": [1, 1]}


def _run_files(run_dir):
    """Every file of a run directory, summary.json without its wall-clock field."""
    files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
    summary = json.loads(files.pop("summary.json"))
    summary.pop("total_wall_seconds")
    return files, summary


def _on_teacher_pass(act):
    """harness.forward, calling act() first on each teacher pass: a forward of the
    frozen teacher outside evaluate's no_grad, in whichever process runs it."""
    real_forward = harness.forward

    def forward_(net, x):
        if net.frozen and gradcore._GRAD_ENABLED:
            act()
        return real_forward(net, x)
    return forward_


def test_ladder_rows_replaying_the_teacher_stream_equal_plain_runs(tmp_path, monkeypatch):
    base = small_config("dual", epochs=2, teacher_epochs=2)
    log = tmp_path / "passes"

    def count():  # a producer process runs the passes, so each appends a line to a file
        with open(log, "a") as fh:
            fh.write(".\n")

    def passes():
        return log.read_text().splitlines() if log.exists() else []

    monkeypatch.setattr(harness, "forward", _on_teacher_pass(count))
    ablate(base, [1], out_root=tmp_path / "abl")
    # the teacher runs for the hard_only row's batches only; the spill is never visible
    per_row = base.epochs * math.ceil(len(generate(replace(SMALL_DATA, seed=1000))
                                          .train_indices) / base.batch_size)
    assert len(passes()) == per_row
    assert sorted(p.name for p in (tmp_path / "abl").iterdir()) == sorted(
        ["ablation.csv", "ablation.txt"] + [f"{mode}-block1" for mode in ABLATION_ROWS])
    teacher = None
    for mode in ABLATION_ROWS:
        solo = train(harness._ablation_config(base, mode, 1), tmp_path / mode, teacher=teacher)
        teacher = solo.teacher
        assert _run_files(tmp_path / "abl" / f"{mode}-block1") == _run_files(tmp_path / mode)
    assert len(passes()) == 5 * per_row  # each plain run computes the stream itself


def test_a_ladder_block_draws_each_student_phase_batch_once(tmp_path, monkeypatch):
    base = small_config("dual", epochs=2, teacher_epochs=2)
    log, real_batches = tmp_path / "epochs", harness._augmented_batches

    def drawn(ds, config, stream, epoch):
        with open(log, "a") as fh:  # the producer draws too, so each epoch appends its pid
            fh.write(f"{os.getpid()}\n")
        return real_batches(ds, config, stream, epoch)

    monkeypatch.setattr(harness, "_augmented_batches", drawn)
    ablate(base, [0])
    pids = [int(line) for line in log.read_text().splitlines()]
    assert len(pids) == base.teacher_epochs + base.epochs
    # the main process draws the teacher's batches only; the producer, the students'
    assert pids.count(os.getpid()) == base.teacher_epochs


class _LoggedFile:
    """A file that appends the pid of the process making each write to log."""

    def __init__(self, file, log):
        self.file, self.log = file, log

    def __getattr__(self, name):
        return getattr(self.file, name)

    def _logged(self, write, data):
        with open(self.log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return write(data)

    def write(self, data):
        return self._logged(self.file.write, data)

    def writelines(self, lines):
        return self._logged(self.file.writelines, lines)


def _spying_on_spills(monkeypatch, log):
    """The spill files ablate opens, as (keyword arguments, _LoggedFile) pairs;
    every write to them appends its pid to log."""
    opened, real = [], tempfile.TemporaryFile

    def spy(*args, **kwargs):
        opened.append((kwargs, _LoggedFile(real(*args, **kwargs), log)))
        return opened[-1][1]

    monkeypatch.setattr(tempfile, "TemporaryFile", spy)
    return opened


@pytest.mark.parametrize("ending,rows_left", [
    (None, ABLATION_ROWS),
    (NumericError("s1 forward diverged: dense produced non-finite values"), ["hard_only"]),
    (KeyboardInterrupt(), ["hard_only", "baseline_kd", "uncertainty_kd"]),
])
def test_the_teacher_spill_leaves_nothing_however_a_block_ends(tmp_path, monkeypatch,
                                                               ending, rows_left):
    opened = _spying_on_spills(monkeypatch, tmp_path / "writes")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    real_step, steps = harness.train_step_dual, []

    def step(*args):
        steps.append(args[4].mode)
        # a NumericError in the recording row's second batch, or an interrupt
        # in the first replayed batch of the third row
        if ending is not None and steps[-1] == rows_left[-1] and (
                isinstance(ending, KeyboardInterrupt) or steps.count("hard_only") == 2):
            raise ending
        return real_step(*args)

    monkeypatch.setattr(harness, "train_step_dual", step)
    base = small_config("dual", epochs=2, teacher_epochs=2)
    for out_root in (tmp_path / "abl", None):
        steps.clear()
        if ending is None:
            ablate(base, [0], out_root=out_root)
        else:
            with pytest.raises(type(ending)):
                ablate(base, [0], out_root=out_root)
        assert opened[-1][0] == {} and opened[-1][1].closed  # in tempfile.tempdir
    assert len(opened) == 2
    ablation_files = ["ablation.csv", "ablation.txt"] if ending is None else []
    assert sorted(p.name for p in (tmp_path / "abl").iterdir()) == sorted(
        ablation_files + [f"{mode}-block0" for mode in rows_left])
    assert list((tmp_path / "tmp").iterdir()) == []


def _in_process_stream(teacher, ds, config, spill=None):
    """The whole teacher stream, written up front in the calling process (and
    to spill, if given) and read from memory: the reference the producer is
    compared with."""
    frames = io.BytesIO()
    harness._produce(teacher, ds, config, frames, spill)
    frames.seek(0)
    return harness._TeacherStream(frames, config)


def _teacher_pass_fails(at, fail):
    """harness.forward, calling fail() in place of the at-th teacher pass (from 1)."""
    passes = []

    def count():
        passes.append(1)
        if len(passes) == at:
            fail()
    return _on_teacher_pass(count)


def _run_bytes(run_dir):
    """Every file of a run directory, a finished run's summary.json as _run_files reads it."""
    files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
    if "student_s1_final.ukdc" in files:
        files["summary.json"] = _run_files(run_dir)[1]
    return files


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _diverge():
    raise NumericError("dense produced non-finite values")


@pytest.mark.parametrize("ending", ["finished", "student diverged", "interrupted",
                                    "producer diverged"])
def test_the_producer_is_reaped_however_a_run_ends(tmp_path, monkeypatch, ending):
    opened = _spying_on_spills(monkeypatch, tmp_path / "writes")
    base = small_config("dual", epochs=2, teacher_epochs=2)
    real_step, steps = harness.train_step_dual, []

    def step(*args):
        steps.append(1)
        if len(steps) == 3 and ending == "student diverged":
            raise NumericError("s1 forward diverged: dense produced non-finite values")
        if len(steps) == 3 and ending == "interrupted":
            raise KeyboardInterrupt  # mid-epoch: the hard_only row has 5 batches per epoch
        return real_step(*args)

    monkeypatch.setattr(harness, "train_step_dual", step)
    if ending == "producer diverged":  # the second epoch's second batch
        monkeypatch.setattr(harness, "forward", _teacher_pass_fails(7, _diverge))
    raises = {"finished": None, "interrupted": KeyboardInterrupt}.get(ending, NumericError)
    runs = {}
    for name in ("producer", "in-process"):
        if name == "in-process":
            monkeypatch.setattr(harness, "_fork_producer", _in_process_stream)
        steps.clear()
        with pytest.raises(raises) if raises else nullcontext():
            ablate(base, [0], out_root=tmp_path / name)
        _no_child_is_left()
        assert opened[-1][1].closed
        runs[name] = {d.name: _run_bytes(d) for d in sorted((tmp_path / name).glob("*-block0"))}
    rows = ABLATION_ROWS if ending == "finished" else ["hard_only"]
    assert sorted(runs["producer"]) == sorted(f"{mode}-block0" for mode in rows)
    assert runs["producer"] == runs["in-process"]
    if ending == "producer diverged":
        summary = tmp_path / "producer" / "hard_only-block0" / "summary.json"
        reference = tmp_path / "in-process" / "hard_only-block0" / "summary.json"
        assert summary.read_bytes() == reference.read_bytes()
        diverged = json.loads(summary.read_text())
        assert (diverged["phase"], diverged["epoch"], diverged["batch"], diverged["error"]) == (
            "students", 1, 1, "teacher forward diverged: dense produced non-finite values")


def test_only_the_producer_writes_the_spill(tmp_path, monkeypatch):
    opened = _spying_on_spills(monkeypatch, tmp_path / "writes")
    recorded, real_train = [], harness.train

    def recording(config, out_dir, spill):
        result = real_train(config, out_dir, spill)
        if config.mode == "hard_only":
            spill.file.seek(0)
            recorded.append((result.teacher, config, spill.file.read()))
        return result

    monkeypatch.setattr(harness, "train", recording)
    ablate(small_config("dual", epochs=2, teacher_epochs=2), [0])
    assert len(opened) == 1 and opened[0][1].closed
    writers = {int(line) for line in (tmp_path / "writes").read_text().splitlines()}
    assert len(writers) == 1 and os.getpid() not in writers  # the producer, alone
    (teacher, config, spilled), = recorded
    frames = io.BytesIO()
    harness._produce(teacher, generate(config.dataset), config, frames)
    assert spilled == frames.getvalue()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts fds in /proc/self/fd")
def test_a_failed_fork_leaks_no_pipe(monkeypatch):
    config = small_config("dual", epochs=1, teacher_epochs=1)
    teacher, _ = pretrain_teacher(config)

    def refused():
        raise BlockingIOError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refused)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with pytest.raises(BlockingIOError):
            train(config, None, teacher)
    assert len(os.listdir("/proc/self/fd")) == before


def test_ablate_runs_where_cpu_affinity_is_unknown(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS, which has os.fork
    result = ablate(small_config("dual", epochs=1, teacher_epochs=1), [0])
    assert result.seeds == [0] and list(result.means) == list(ABLATION_ROWS)


@pytest.mark.parametrize("stop,code", [(lambda: os._exit(9), 9),
                                       (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
                         ids=["exits", "killed"])
def test_a_producer_that_stops_early_is_an_error(monkeypatch, stop, code):
    monkeypatch.setattr(harness, "forward", _teacher_pass_fails(3, stop))

    def hung(signum, frame):
        raise TimeoutError("train waited 60 s for a stopped producer")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(ChildProcessError, match=rf"ended before .* \(exit code {code}\)"):
            train(small_config("dual", epochs=2, teacher_epochs=2), None)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _no_child_is_left()


def test_a_replay_refuses_a_stream_that_does_not_fit(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = small_config("hard_only", epochs=2, teacher_epochs=2)
    kd = replace(cfg, mode="baseline_kd", alpha=None, beta=None, gamma=None)
    narrow = mlp_spec(cfg.dataset.feature_dim, [16], cfg.dataset.num_classes)
    with closing(harness._TeacherSpill()) as spill:
        teacher = train(cfg, None, spill).teacher
        replayed = train(kd, None, spill)
        assert replayed.teacher is teacher
        assert replayed.records == train(kd, None, teacher).records
        # the stream's own inputs, then configs that would build another teacher
        for other in (replace(kd, batch_size=16),
                      replace(kd, seeds=replace(kd.seeds, shuffle=99)),
                      replace(kd, augment_strength=0.2),
                      replace(kd, epochs=3),
                      replace(kd, teacher_spec=narrow),
                      replace(kd, teacher_epochs=3),
                      replace(kd, seeds=replace(kd.seeds, teacher=99))):
            with pytest.raises(SpecError, match="spilled teacher stream was recorded for"):
                train(other, None, spill)
        spill.file.truncate(spill.file.seek(0, 2) - 8)  # one weight short
        with pytest.raises(DataError, match="spilled teacher stream ends before"):
            train(kd, None, spill)
    assert list(tmp_path.iterdir()) == []


def test_a_run_the_spill_refuses_leaves_no_run_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = small_config("hard_only", epochs=2, teacher_epochs=2)
    kd = replace(cfg, mode="baseline_kd", alpha=None, beta=None, gamma=None)
    with closing(harness._TeacherSpill()) as spill:
        train(cfg, None, spill)
        with pytest.raises(SpecError, match="spilled teacher stream was recorded for"):
            train(replace(kd, batch_size=16), tmp_path / "run", spill)
    assert list(tmp_path.iterdir()) == []


def test_a_run_interrupted_in_pretraining_leaves_no_run_directory(tmp_path, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "pretrain_teacher", interrupted)
    config = small_config("dual", epochs=2, teacher_epochs=2)
    with pytest.raises(KeyboardInterrupt):
        train(config, tmp_path / "run")
    # nor does a ladder, though its unnamed spill file is opened before pretraining
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(KeyboardInterrupt):
        ablate(config, [0], out_root=tmp_path / "abl")
    assert list(tmp_path.iterdir()) == []


def test_a_ladder_block_pretrains_and_evaluates_its_teacher_once(monkeypatch):
    pretrained, teacher_evals, results = [], [], []
    real_pretrain, real_evaluate, real_train = (harness.pretrain_teacher, harness.evaluate,
                                                harness.train)

    def pretrain(*args):
        pretrained.append(real_pretrain(*args))
        return pretrained[-1]

    def evaluate_spy(net, ds, split):
        if net.frozen:
            teacher_evals.append(split)
        return real_evaluate(net, ds, split)

    monkeypatch.setattr(harness, "pretrain_teacher", pretrain)
    monkeypatch.setattr(harness, "evaluate", evaluate_spy)
    monkeypatch.setattr(harness, "train",
                        lambda *args: results.append(real_train(*args)) or results[-1])
    ablate(small_config("dual", epochs=2, teacher_epochs=2), [0])
    assert len(pretrained) == 1
    assert teacher_evals == ["val"]  # pretrain_teacher's own evaluation, and no other
    assert [r.summary["config"]["mode"] for r in results] == list(ABLATION_ROWS)
    assert all(r.teacher is pretrained[0][0] for r in results)


@pytest.mark.parametrize("blocks", [[0, 0], [-1], [0.5]],
                         ids=["repeated", "negative", "non-integer"])
def test_ablate_refuses_seed_blocks_before_it_creates_out_root(tmp_path, blocks):
    with pytest.raises(SpecError, match="distinct nonnegative seed blocks"):
        ablate(small_config("dual", epochs=2, teacher_epochs=2), blocks,
               out_root=tmp_path / "abl")
    assert not (tmp_path / "abl").exists()


def test_ablate_takes_numpy_seed_blocks():
    assert _tiny_ladder(np.arange(2)) == _tiny_ladder([0, 1])


def test_ablation_input_validation():
    base = small_config("dual")
    with pytest.raises(SpecError):
        ablate(base, [])
    with pytest.raises(SpecError):
        ablate(base, [0], jobs=0)
