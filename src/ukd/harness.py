"""Training protocols: teacher pretraining, the dual student step, full runs
with metrics and checkpoints, and the loss-component ablation ladder.

Reproducibility rests on named RNG streams. The dataset comes from
seeds.data, teacher init and pretraining order from seeds.teacher, student
inits from seeds.student1/student2, and the shared batch order plus
augmentation noise from seeds.shuffle. No step consumes randomness anywhere
else, which is what makes the mode-reduction equivalences hold bit for bit:
every ladder row is the dual step with some loss weights at zero, and with
gamma=0 neither student's updates depend on the other student.

A run gets its frozen teacher, the teacher's val top-1 and its teacher
stream from _teacher_phase, and from nowhere else. The stream, each batch
with its teacher logits, is the student phase's only source of batches,
and train_step_dual computes the statistics of those logits itself. A
computed one comes from a producer process forked once the teacher is
frozen, which alone draws the batches and runs the teacher beside the
students' steps. The rows of one ladder block share the data, the teacher
and seeds.shuffle, so the first row's producer also writes its stream to
the block's _TeacherSpill; the later rows get the same teacher and read
the spill, with no batch drawn, no teacher pass and no fork.

Metrics CSVs must be byte-identical across repeated runs, so they hold no
timing; the one wall-clock value is total_wall_seconds in the run summary.
"""

from __future__ import annotations

import ctypes
import fcntl
import json
import math
import os
import struct
import sys
import tempfile
import time
import traceback
from contextlib import closing, suppress
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (Dataset, DatasetSpec, _check_finite, _read_header, _write_atomic, augment,
                   batches, generate)
from .distill import (
    KL_DIRECTIONS,
    LossBreakdown,
    UncertaintyStats,
    hard_loss,
    peer_loss,
    teacher_loss,
    total_loss,
    uncertainty_stats,
)
from .errors import DataError, FormatError, NumericError, SpecError, _check_count, _check_real
from .gradcore import Tensor, backward, log_softmax, no_grad, row_softmax, zero_grad
from .nets import (
    ACTIVATIONS,
    DEFAULT_WIDTHS,
    LayerSpec,
    Network,
    _validate_spec,
    build,
    compression_ratio,
    forward,
    mlp_spec,
    param_count,
)
from .optim import SgdState, lr_at, sgd_step

# The one table of modes, in ladder order: each row adds one loss component to
# the row before. Per mode: its default loss weights (alpha, beta, gamma), where
# a weight whose default is 0 must stay 0 (the mode has no such term); and the
# source of its teacher term's per-sample weights, "ones" or "entropy" (the
# teacher's confidence, UncertaintyStats.weight).
MODES = {
    "hard_only": ((1.0, 0.0, 0.0), "ones"),
    "baseline_kd": ((0.3, 0.7, 0.0), "ones"),
    "uncertainty_kd": ((0.3, 0.7, 0.0), "entropy"),
    "dual": ((0.4, 0.4, 0.2), "entropy"),
}
ABLATION_ROWS = tuple(MODES)

UKDC_MAGIC = b"UKDC"
UKDC_VERSION = 1

# The entry points that report a NumericError run under it (see gradcore).
_QUIET_FP = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class Seeds:
    """The five independent RNG stream roots of one run, each an int >= 0."""

    data: int
    teacher: int
    student1: int
    student2: int
    shuffle: int

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            object.__setattr__(self, name, _check_count(getattr(self, name), f"seed {name}", 0))

    @classmethod
    def from_block(cls, block: int) -> "Seeds":
        """Block n covers seeds n*1000 .. n*1000+4, one per stream."""
        base = _check_count(block, "seed block", 0) * 1000
        return cls(base, base + 1, base + 2, base + 3, base + 4)


@dataclass
class TrainConfig:
    """Everything a run depends on; a run is a pure function of this object.

    Every field is checked when the config is built, and a None loss weight
    or network spec is filled from the mode's row of MODES or from
    DEFAULT_WIDTHS, so a config that builds can run. Each count is kept as
    an int and each network spec as a list, whatever integer or sequence
    type was given.
    """

    mode: str
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    tau: float = 4.0
    epochs: int = 30
    batch_size: int = 64
    eta0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    kl_direction: str = "as_paper"
    teacher_epochs: int = 30
    augment_strength: float = 0.1
    seeds: Seeds = field(default_factory=lambda: Seeds.from_block(0))
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    teacher_spec: list[LayerSpec] | None = None
    student1_spec: list[LayerSpec] | None = None
    student2_spec: list[LayerSpec] | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise SpecError(f"mode {self.mode!r} not in {tuple(MODES)}")
        for name, default in zip(("alpha", "beta", "gamma"), MODES[self.mode][0]):
            if getattr(self, name) is None:
                setattr(self, name, default)
            elif default == 0.0 and getattr(self, name) != 0.0:
                raise SpecError(f"{self.mode} requires {name} = 0 (the mode has no such term)")
        for name in ("alpha", "beta", "gamma", "tau", "eta0", "momentum",
                     "weight_decay", "augment_strength"):
            if not math.isfinite(_check_real(getattr(self, name), name)):
                raise SpecError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise SpecError(f"{name} must be nonnegative")
        if not self.tau > 0:
            raise SpecError(f"tau must be positive, got {self.tau}")
        if not sys.float_info.min <= self.tau * self.tau < math.inf:
            raise SpecError(f"tau^2 must neither overflow nor underflow, got tau = {self.tau}")
        if not self.eta0 > 0:
            raise SpecError(f"eta0 must be positive, got {self.eta0}")
        for name in ("epochs", "batch_size", "teacher_epochs"):
            setattr(self, name, _check_count(getattr(self, name), name, 1))
        if self.momentum < 0 or self.weight_decay < 0 or self.augment_strength < 0:
            raise SpecError("momentum, weight_decay, augment_strength must be nonnegative")
        if self.kl_direction not in KL_DIRECTIONS:
            raise SpecError(f"kl_direction {self.kl_direction!r} invalid")
        if self.dataset.seed != self.seeds.data:
            raise SpecError(
                f"dataset.seed ({self.dataset.seed}) must equal seeds.data ({self.seeds.data}); "
                "the data stream has exactly one root"
            )
        dim, c = self.dataset.feature_dim, self.dataset.num_classes
        for net, widths in DEFAULT_WIDTHS.items():
            name = f"{net}_spec"
            spec = getattr(self, name)
            spec = _validate_spec(mlp_spec(dim, widths, c) if spec is None else spec, name)
            setattr(self, name, spec)
            if spec[0].in_dim != dim or spec[-1].out_dim != c:
                raise SpecError(f"{name} must map feature_dim {dim} to num_classes {c}")
        if self.student1_spec == self.student2_spec:
            raise SpecError("students must be heterogeneous (identical specs given)")


@dataclass
class MetricsRecord:
    """One (epoch, student) row of the metrics CSV."""

    epoch: int
    student: str
    hard: float
    teacher: float
    peer: float
    total: float
    train_top1: float
    val_top1: float
    val_top5: float
    mean_entropy: float
    mean_weight: float
    lr: float

    def csv_row(self) -> str:
        # str of a python float is its shortest round-tripping repr
        return ",".join(str(getattr(self, f.name)) for f in fields(self))


METRICS_HEADER = ",".join(f.name for f in fields(MetricsRecord))


@dataclass
class RunResult:
    """Everything a finished run produced, with or without a run directory."""

    records: list[MetricsRecord]
    breakdowns: dict[str, list[LossBreakdown]]
    summary: dict
    teacher: Network
    students: dict[str, Network]


def confidence_for_mode(mode: str, stats: UncertaintyStats) -> np.ndarray:
    """Per-sample teacher weighting, by the weight source in the mode's row of MODES.

    "entropy" gives the teacher's confidence (stats.weight), "ones" all ones.
    """
    if MODES[mode][1] == "entropy":
        return stats.weight
    return np.ones_like(stats.weight)


# What the producer writes before each batch's frame, or before the message of
# a NumericError in the teacher's forward pass that ends its stream.
_FRAME, _DIVERGED = b"\0", b"\1"


class _TeacherStream:
    """One student phase's batches, each with its frozen teacher's logits, read from file.

    Each frame is a status byte, then the augmented x (float64), y (int64)
    and the teacher's logits on x (float64), raw. A computed stream reads
    the pipe of the producer process pid, which alone draws the phase's
    batches; a replayed one reads a ladder block's spill. Called with a
    batch's row count, it returns (x, y, t_logits), with x and t_logits as
    leaves. A NumericError in the producer's forward pass is raised here at
    the same batch, as "teacher forward diverged: ...". A stream that ends
    before the run's batches is a ChildProcessError from a producer and a
    DataError from a spill. close() closes a producer's pipe, so a producer
    still writing stops on EPIPE, and reaps it; a spill stays open for the
    block's next row.
    """

    def __init__(self, file, config: TrainConfig, pid: int | None = None):
        self.file, self.pid, self.status = file, pid, None
        self.dim, self.classes = config.dataset.feature_dim, config.dataset.num_classes

    def __call__(self, n: int) -> tuple[Tensor, np.ndarray, Tensor]:
        head = self.file.read(1)
        if head == _DIVERGED:
            raise NumericError(f"teacher forward diverged: {self.file.read().decode()}")
        frame = np.empty((n, self.dim)), np.empty(n, np.int64), np.empty((n, self.classes))
        if head != _FRAME or any(self.file.readinto(a) != a.nbytes for a in frame):
            if self.pid is None:
                raise DataError("the spilled teacher stream ends before this run's batches")
            raise ChildProcessError("the teacher producer ended before this run's batches "
                                    f"(exit code {os.waitstatus_to_exitcode(self.close())})")
        x, y, logits = frame
        t_logits = Tensor(logits)
        # nothing writes into logits, so the leaf may keep its τ pair as an
        # op output does, and both students' teacher terms share one softmax
        t_logits.rows = {}
        return Tensor(x), y, t_logits

    def close(self) -> int | None:
        """Close a producer's pipe and reap it; returns its wait status (None: a spill)."""
        if self.pid is not None and self.status is None:
            self.file.close()
            self.status = os.waitpid(self.pid, 0)[1]
        return self.status


def _produce(teacher: Network, ds: Dataset, config: TrainConfig, out, spill=None) -> None:
    """Write the student phase's frames to out, each to spill first when given,
    flushing each, so out's reader gets a frame only once the spill holds it.
    A NumericError in a forward pass ends out's stream with its message."""
    try:
        for epoch in range(config.epochs):
            for x, y in _augmented_batches(ds, config, config.seeds.shuffle, epoch):
                frame = (_FRAME, x, y, forward(teacher, Tensor(x)).data)
                for f in (out,) if spill is None else (spill, out):
                    f.writelines(frame)
                    f.flush()
    except NumericError as err:
        out.write(_DIVERGED + str(err).encode())


def _fork_producer(teacher: Network, ds: Dataset, config: TrainConfig, spill=None):
    """The student phase's _TeacherStream, from a producer process forked now.

    The producer writes each frame to spill, if given, then to the pipe. It
    runs BLAS on one thread, so that it and the main process each keep a
    core, and never returns into the caller's code. The main process closing
    the pipe (EPIPE) or an interrupt (SIGINT) ends it silently; anything
    else prints its traceback and exits 1. The pipe's buffer is 1 MiB (a
    512-row, 64-dim x is 256 KiB) where the system has F_SETPIPE_SZ and
    allows it; elsewhere the bytes are the same, and wide batches slower.
    """
    read_end, write_end = os.pipe()
    try:
        with suppress(AttributeError, OSError):  # no F_SETPIPE_SZ, or refused
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 1 << 20)
        pid = os.fork()
    except BaseException:  # no child exists, so nothing else closes the pipe
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            _one_blas_thread()
            with open(write_end, "wb") as pipe:
                _produce(teacher, ds, config, pipe, spill)
            code = 0
        except (BrokenPipeError, KeyboardInterrupt):
            code = 0
        except Exception:  # the boundary of the process: report, never propagate
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write_end)
    return _TeacherStream(open(read_end, "rb"), config, pid)


class _TeacherSpill:
    """One ladder block's teacher, its val top-1 and its stream, spilled to an unnamed file.

    The first train given the spill runs the teacher phase, and its
    producer writes every frame into the file before the pipe; each later
    train gets the same teacher and val top-1 and reads the file with a
    _TeacherStream of its own, with no batch drawn and no teacher pass. All
    three are a function of the config apart from its mode and loss weights:
    a run that differs elsewhere is refused, and so is a stream that ends
    early. The file is opened with the spill, in the system's temporary
    directory (TMPDIR) and without a name, so it is never visible and a
    crash leaves nothing behind.
    """

    def __init__(self):
        self.file = tempfile.TemporaryFile()
        self.fit = self.teacher = self.teacher_val = None  # fit: what all three are made for

    def open(self, config: TrainConfig, ds: Dataset):
        """The run's teacher phase, as _teacher_phase: records its stream if empty, else replays."""
        fit = replace(config, mode=ABLATION_ROWS[0], alpha=None, beta=None, gamma=None)
        if self.fit is None:
            self.teacher, self.teacher_val, stream = _teacher_phase(config, ds, None, self.file)
            self.fit = fit
            return self.teacher, self.teacher_val, stream
        if fit != self.fit:
            raise SpecError("the spilled teacher stream was recorded for a config that "
                            "differs beyond its mode and loss weights")
        self.file.seek(0)
        return self.teacher, self.teacher_val, _TeacherStream(self.file, config)

    def close(self) -> None:
        self.file.close()


def _augmented_batches(ds: Dataset, config: TrainConfig, stream: int, epoch: int):
    """One epoch of noise-augmented train batches.

    Batch order comes from [stream, epoch] and noise from [stream, epoch, 1],
    so the teacher (seeds.teacher) and the students (seeds.shuffle) each
    draw from their own stream.
    """
    rng = np.random.default_rng([stream, epoch, 1])
    for x, y in batches(ds, config.batch_size, stream, epoch):
        yield augment(x, config.augment_strength, rng), y


def train_step_dual(t_logits: Tensor, s1: Network, s2: Network, batch, config: TrainConfig,
                    opt1: SgdState, opt2: SgdState,
                    ) -> tuple[LossBreakdown, LossBreakdown, UncertaintyStats]:
    """The dual step: both students see one batch, build their losses, then update.

    t_logits is the frozen teacher's logits on the batch, and batch is (x, y)
    with x the Tensor the teacher saw; no forward writes into it. In order:
    the uncertainty statistics of the teacher's raw softmax, whose weights
    scale each row's teacher term where the mode's weight source in MODES
    is "entropy" (confidence_for_mode); s1's and s2's
    forwards; each student's terms of nonzero weight and their sum, s1
    first; then s1 updates, then s2. Each treats the other's logits as a
    fixed (gradient-stopped) target, so neither update leaks into the other.
    A NumericError names its stage: "teacher forward" for the teacher's
    logits, as in its forward pass, or "s2 peer loss term".
    """
    x, y = batch
    if x.data.shape[0] == 0:
        raise DataError("empty batch")
    stage = "teacher forward"
    try:
        # log_softmax checks the teacher's log-probabilities are finite and
        # keeps the row pair on t_logits, so row_softmax takes no second exp
        log_softmax(t_logits, 1.0)
        stats = uncertainty_stats(row_softmax(t_logits, 1.0))
        stage = "s1 forward"
        z1 = forward(s1, x)
        stage = "s2 forward"
        z2 = forward(s2, x)
        w = confidence_for_mode(config.mode, stats)
        losses = []
        for name, z, other in (("s1", z1, z2), ("s2", z2, z1)):
            hard = teach = peer = None
            stage = f"{name} hard loss term"
            if config.alpha != 0.0:
                hard = hard_loss(z, y)
            stage = f"{name} teacher loss term"
            if config.beta != 0.0:
                teach = teacher_loss(z, t_logits, w, config.tau, config.kl_direction)
            stage = f"{name} peer loss term"
            if config.gamma != 0.0:
                peer = peer_loss(z, other, config.tau, config.kl_direction)
            stage = f"{name} loss sum"
            losses.append(total_loss(hard, teach, peer, config.alpha, config.beta,
                                     config.gamma, tau=config.tau))
    except NumericError as err:
        raise NumericError(f"{stage} diverged: {err}") from err
    (loss1, bd1), (loss2, bd2) = losses
    for loss, opt in ((loss1, opt1), (loss2, opt2)):
        zero_grad(opt.params)
        backward(loss)
        sgd_step(opt)
    return bd1, bd2, stats


@_QUIET_FP
def pretrain_teacher(config: TrainConfig, ds: Dataset | None = None,
                     ) -> tuple[Network, float]:
    """Supervised training of the teacher, then freeze; returns (net, val top-1).

    All of the teacher's randomness (init, batch order, augmentation) comes
    from seeds.teacher, leaving the student streams untouched.
    """
    if ds is None:
        ds = generate(config.dataset)
    teacher = build(config.teacher_spec, config.seeds.teacher)
    opt = SgdState(teacher.parameters, lr_at(config.eta0, config.teacher_epochs, 0),
                   config.momentum, config.weight_decay)
    for epoch in range(config.teacher_epochs):
        opt.lr = lr_at(config.eta0, config.teacher_epochs, epoch)
        for batch, (x, y) in enumerate(
                _augmented_batches(ds, config, config.seeds.teacher, epoch)):
            stage = "teacher forward"
            try:
                logits = forward(teacher, Tensor(x))
                stage = "teacher hard loss term"
                loss = hard_loss(logits, y)
            except NumericError as err:
                diverged = NumericError(f"{stage} diverged: {err}")
                diverged.at = (epoch, batch)  # where train's diverged summary says it stopped
                raise diverged from err
            zero_grad(opt.params)
            backward(loss)
            sgd_step(opt)
    teacher.freeze()
    return teacher, _evaluated("teacher", teacher, ds, "val")["top1"]


def _teacher_phase(config: TrainConfig, ds: Dataset, teacher: Network | None, spill=None):
    """(frozen teacher, val top-1, its _TeacherStream); None pretrains the teacher.

    The producer forks once the teacher is frozen and evaluated; it writes to spill too.
    """
    if teacher is None:
        teacher, teacher_val = pretrain_teacher(config, ds)
    else:
        teacher_val = _evaluated("teacher", teacher, ds, "val")["top1"]
    return teacher, teacher_val, _fork_producer(teacher, ds, config, spill)


def _evaluated(name: str, net: Network, ds: Dataset, split: str) -> dict[str, float]:
    """evaluate(net, ds, split), a NumericError naming the network it stopped in."""
    try:
        return evaluate(net, ds, split)
    except NumericError as err:
        raise NumericError(f"{name} evaluation diverged: {err}") from err


@_QUIET_FP
def evaluate(net: Network, ds: Dataset, split: str) -> dict[str, float]:
    """Top-1 and top-k accuracy (k = min(5, C)); ties go to the lowest class.

    A row whose label has no logit (label >= C) is a miss. The split's rows
    are normalized, run and ranked in 512-row chunks, so the only
    whole-split array held is one rank per row. The chunk size can change
    the logits' last bits: with OpenBLAS on one thread, the default
    teacher's logits in 512-row chunks equal those of 64-row batches bit for
    bit, but in chunks of 896 rows or more (4,500 included) they do not.
    """
    idx = ds.split_indices(split)
    if idx.size == 0:
        raise DataError(f"split {split!r} is empty")
    ranks = np.empty(idx.size, dtype=np.int64)
    with no_grad():
        for i in range(0, idx.size, 512):
            rows = idx[i: i + 512]
            logits = forward(net, Tensor(ds.normalized(rows))).data
            ranks[i: i + 512] = _label_ranks(logits, ds.labels[rows])
    k = min(5, net.layers[-1].out_dim)
    return {"top1": float(np.add.reduce(ranks == 0) / idx.size),
            "top5": float(np.add.reduce(ranks < k) / idx.size)}


def _label_ranks(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's label rank: top-1 is rank 0 and top-k is rank < k, with no sort.

    A label's rank is the number of classes with a higher logit, or an equal
    logit and a lower index: its position in a stable descending sort. A
    label outside [0, C) has no logit and ranks C, a miss at every k <= C,
    as it is in the sort.
    """
    n, c = logits.shape
    safe = np.clip(labels, 0, c - 1)
    own = logits[np.arange(n), safe][:, None]
    ahead = (logits > own) | ((logits == own) & (np.arange(c) < safe[:, None]))
    return np.where(labels == safe, np.add.reduce(ahead, axis=1), c)


@_QUIET_FP
def train(config: TrainConfig, out_dir=None,
          teacher: Network | _TeacherSpill | None = None) -> RunResult:
    """Run one full training per the config; write metrics/checkpoints if out_dir.

    The teacher phase gives the run its frozen teacher, its val top-1 and
    its stream of batches with their teacher logits, which train hands to
    train_step_dual as they come. teacher is None (pretrain here), a
    frozen Network that shares pretraining across runs, or a ladder block's
    _TeacherSpill. A Network must be byte-identical to what
    pretrain_teacher(config) would build, which holds whenever data and
    teacher seeds (and teacher hypers) match; its frozen state and its
    layers are checked before anything is written. An empty spill records
    the computed stream; a full one hands back its teacher and replays it,
    and a replayed run's files are byte-identical to a computed one's. A
    computed stream's producer process is reaped before train returns or
    raises, however the run ends.

    The run lives in memory, and each file in out_dir is written whole from
    it by _write_atomic: metrics.csv after every student epoch, so a killed
    run keeps exactly its finished epochs. Each rewrite reuses the copy it
    replaced last time as its temp file, and that spare is removed however
    the run ends, so a run frees one metrics file. out_dir appears with its
    first file, the metrics header once the teacher phase is done, so a run
    refused or killed before then leaves no directory. A NumericError in the
    teacher phase (pretraining, or an injected teacher's evaluation) or the
    student phase leaves a summary.json with status "diverged", the phase,
    the epoch and batch it stopped at (null where it stopped in an
    evaluation) and the error; then it propagates.
    """
    started = time.perf_counter()
    run_dir = Path(out_dir) if out_dir is not None else None
    ds = generate(config.dataset)
    if isinstance(teacher, Network) and not teacher.frozen:
        raise SpecError("injected teacher must be frozen")
    if isinstance(teacher, Network) and teacher.layers != config.teacher_spec:
        raise SpecError("injected teacher's layers differ from config.teacher_spec")
    students = {
        "s1": build(config.student1_spec, config.seeds.student1),
        "s2": build(config.student2_spec, config.seeds.student2),
    }
    opts = {
        name: SgdState(net.parameters, lr_at(config.eta0, config.epochs, 0), config.momentum,
                       config.weight_decay)
        for name, net in students.items()
    }
    records: list[MetricsRecord] = []
    breakdowns: dict[str, list[LossBreakdown]] = {"s1": [], "s2": []}
    best: dict[str, tuple[float, list[np.ndarray]]] = {"s1": (-1.0, []), "s2": (-1.0, [])}
    phase, epoch, batch, teach = "teacher", None, None, None
    n_train, size = ds.train_indices.size, config.batch_size
    try:
        teacher, teacher_val, teach = (teacher.open(config, ds)
                                       if isinstance(teacher, _TeacherSpill)
                                       else _teacher_phase(config, ds, teacher))
        phase = "students"
        _write_metrics(run_dir, records)
        for epoch in range(config.epochs):
            lr = lr_at(config.eta0, config.epochs, epoch)
            opts["s1"].lr = opts["s2"].lr = lr
            sums = {name: [0.0] * 4 for name in students}  # hard, teacher, peer, total
            entropy_sum = weight_sum = 0.0
            for batch, start in enumerate(range(0, n_train, size)):
                n = min(size, n_train - start)  # the last partial batch is kept
                x, y, t_logits = teach(n)
                bd1, bd2, stats = train_step_dual(t_logits, students["s1"], students["s2"],
                                                  (x, y), config, opts["s1"], opts["s2"])
                for name, bd in (("s1", bd1), ("s2", bd2)):
                    breakdowns[name].append(bd)
                    sums[name] = [s + n * v for s, v in
                                  zip(sums[name], (bd.hard, bd.teacher, bd.peer, bd.total))]
                entropy_sum += np.add.reduce(stats.entropy)
                weight_sum += np.add.reduce(stats.weight)
            batch = None
            for name, net in students.items():
                train_eval = _evaluated(name, net, ds, "train")
                val_eval = _evaluated(name, net, ds, "val")
                means = [s / n_train for s in sums[name]]
                records.append(MetricsRecord(
                    epoch=epoch, student=name, hard=means[0],
                    teacher=means[1], peer=means[2], total=means[3],
                    train_top1=train_eval["top1"],
                    val_top1=val_eval["top1"], val_top5=val_eval["top5"],
                    mean_entropy=float(entropy_sum / n_train),
                    mean_weight=float(weight_sum / n_train),
                    lr=lr,
                ))
                if val_eval["top1"] > best[name][0]:
                    best[name] = (val_eval["top1"], [p.data.copy() for p in net.parameters])
            _write_metrics(run_dir, records)
    except NumericError as err:
        if run_dir is not None:
            _write_diverged(run_dir, config, phase, err, epoch, batch)
        raise
    finally:
        if run_dir is not None and run_dir.is_dir():
            _metrics_spare(run_dir).unlink(missing_ok=True)
        if teach is not None:
            teach.close()

    summary = _summarize(config, teacher, teacher_val, students, records, best,
                         time.perf_counter() - started)
    if run_dir is not None:
        save_checkpoint(teacher, run_dir / "teacher.ukdc")
        for name, net in students.items():
            save_checkpoint(net, run_dir / f"student_{name}_final.ukdc")
            snapshot = Network(net.layers, [Tensor(a) for a in best[name][1]])
            save_checkpoint(snapshot, run_dir / f"student_{name}_best.ukdc")
        _write_summary(run_dir, summary)
    return RunResult(records, breakdowns, summary, teacher, students)


def _write_metrics(run_dir: Path | None, records: list[MetricsRecord]) -> None:
    if run_dir is not None:
        text = "".join(f"{line}\n" for line in [METRICS_HEADER, *(r.csv_row() for r in records)])
        _write_atomic(run_dir / "metrics.csv", text.encode("ascii"), _metrics_spare(run_dir))


def _metrics_spare(run_dir: Path) -> Path:
    """Where this process keeps metrics.csv's replaced copy for its next rewrite."""
    return run_dir / f".metrics.csv.{os.getpid()}.spare"


def _write_summary(run_dir: Path, summary: dict) -> None:
    _write_atomic(run_dir / "summary.json",
                  (json.dumps(summary, indent=2) + "\n").encode("ascii"))


def _write_diverged(run_dir: Path, config: TrainConfig, phase: str, err: NumericError,
                    epoch: int | None = None, batch: int | None = None) -> None:
    """The summary.json of a run that err stopped in phase, at (epoch, batch)."""
    if phase == "teacher":  # pretraining says where it stopped; an evaluation does not
        epoch, batch = getattr(err, "at", (None, None))
    _write_summary(run_dir, {
        "status": "diverged", "phase": phase, "epoch": epoch, "batch": batch,
        "error": str(err), "mode": config.mode, "config": _config_echo(config),
    })


def _summarize(config, teacher, teacher_val, students, records, best, wall_total):
    teacher_params = param_count(teacher)
    final = {r.student: r for r in records if r.epoch == config.epochs - 1}
    student_block = {}
    for name, net in students.items():
        pc = param_count(net)
        student_block[name] = {
            "param_count": pc,
            "compression_ratio": compression_ratio(teacher_params, pc),
            "final_val_top1": final[name].val_top1,
            "final_val_top5": final[name].val_top5,
            "best_val_top1": best[name][0],
            "final_train_loss": final[name].total,
        }
    any_final = final["s1"]
    return {
        "mode": config.mode,
        "epochs": config.epochs,
        "teacher": {"param_count": teacher_params, "val_top1": teacher_val},
        "students": student_block,
        "uncertainty": {
            "final_mean_entropy": any_final.mean_entropy,
            "final_mean_weight": any_final.mean_weight,
            "max_entropy": float(np.log(config.dataset.num_classes)),
        },
        "config": _config_echo(config),
        "total_wall_seconds": wall_total,
    }


def _config_echo(config: TrainConfig) -> dict:
    echo = asdict(config)
    for name in ("teacher_spec", "student1_spec", "student2_spec"):
        echo[name] = [[s.in_dim, s.out_dim, s.activation] for s in getattr(config, name)]
    return echo


# ---------------------------------------------------------------- ablation


@dataclass
class AblationResult:
    """Final val top-1 per ladder row, student and seed block; the rest is read from it."""

    seeds: list[int]
    finals: dict[str, dict[str, list[float]]]  # row -> student -> per-block values

    @property
    def rows(self) -> list[str]:
        return list(self.finals)

    @property
    def means(self) -> dict[str, dict[str, float]]:
        return {row: {s: float(np.mean(v)) for s, v in by.items()}
                for row, by in self.finals.items()}

    def csv_text(self) -> str:
        lines = ["row,student,mean_val_top1,std_val_top1," +
                 ",".join(f"seed{s}" for s in self.seeds)]
        for row, by in self.finals.items():
            for student, vals in by.items():
                lines.append(",".join(
                    [row, student, repr(float(np.mean(vals))), repr(float(np.std(vals)))]
                    + [repr(v) for v in vals]))
        return "\n".join(lines) + "\n"

    def table_text(self) -> str:
        width = max(map(len, self.finals)) + 2
        lines = [f"{'row':<{width}}{'student':<9}{'val_top1 (mean +/- std)':<26}"]
        for row, by in self.finals.items():
            for student, vals in by.items():
                cell = f"{np.mean(vals):.4f} +/- {np.std(vals):.4f}"
                lines.append(f"{row:<{width}}{student:<9}{cell:<26}")
        return "\n".join(lines) + "\n"


def _ablation_config(base: TrainConfig, mode: str, block: int) -> TrainConfig:
    seeds = Seeds.from_block(block)
    return replace(
        base, mode=mode, alpha=None, beta=None, gamma=None, seeds=seeds,
        dataset=replace(base.dataset, seed=seeds.data),
    )


def _run_block(base: TrainConfig, block: int, out_root) -> dict[str, dict[str, float]]:
    """All four ladder rows for one seed block, on one teacher and one teacher pass per batch.

    Every row's train takes the block's spill as its teacher: the first
    row's pretrains the teacher and its producer records the stream's
    frames, and the later rows get the same teacher and replay them. The
    spill is closed, and so gone, however the block ends. out_root is not
    created here: it appears with the first row's first file.
    """
    finals: dict[str, dict[str, float]] = {}
    with closing(_TeacherSpill()) as spill:
        for mode in ABLATION_ROWS:
            run_dir = None if out_root is None else Path(out_root) / f"{mode}-block{block}"
            summary = train(_ablation_config(base, mode, block), run_dir, spill).summary
            finals[mode] = {name: summary["students"][name]["final_val_top1"]
                            for name in ("s1", "s2")}
    return finals


def ablate(base_config: TrainConfig, seeds: list[int], out_root=None,
           jobs: int | None = None) -> AblationResult:
    """The four-row loss-component ladder, each row's finals kept per seed block.

    Rows: the modes of MODES, in its order, each with its default loss
    weights and weight source, so each adds one loss component. Each block
    pretrains one teacher reused across its rows and draws each batch, and
    runs the teacher on it, once: the later rows replay the first row's
    stream. jobs > 1 (None: the usable cores) runs up to one process per
    block, each on one BLAS thread so that the workers do not compete for
    the cores; results are merged in block order either way, and a worker
    that dies is a ChildProcessError. out_root appears with its first file,
    so a ladder stopped before then leaves none.
    """
    seeds = [_check_count(b, "each of ablate's distinct nonnegative seed blocks", 0)
             for b in seeds]
    if not seeds or len(set(seeds)) < len(seeds):
        raise SpecError(f"ablate needs one or more distinct nonnegative seed blocks, got {seeds}")
    if jobs is None:  # the usable cores, or all of them where affinity is unknown
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    jobs = _check_count(jobs, "jobs", 1)
    if jobs == 1 or len(seeds) == 1:
        per_block = [_run_block(base_config, b, out_root) for b in seeds]
    else:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=min(jobs, len(seeds)),
                                     initializer=_one_blas_thread) as pool:
                per_block = list(pool.map(_run_block, *zip(*[
                    (base_config, b, out_root) for b in seeds])))
        except BrokenExecutor as err:  # a worker died, as a producer can: exit 2, not a traceback
            raise ChildProcessError(f"a ladder worker ended before its seed block did ({err})")
    result = AblationResult(seeds, {
        row: {student: [blk[row][student] for blk in per_block] for student in ("s1", "s2")}
        for row in ABLATION_ROWS})
    if out_root is not None:
        _write_atomic(Path(out_root) / "ablation.csv", result.csv_text().encode("ascii"))
        _write_atomic(Path(out_root) / "ablation.txt", result.table_text().encode("ascii"))
    return result


def _openblas(name: str):
    """OpenBLAS's ``openblas_<name>`` in the copy Linux numpy wheels bundle, or None."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}{name}{suffix}", None)
                if fn is not None:
                    return fn
    return None


def _one_blas_thread() -> None:
    """Run BLAS on one thread in this process, whatever its parent set."""
    set_threads = _openblas("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


# ---------------------------------------------------------------- artifacts


def save_checkpoint(net: Network, path) -> None:
    """UKDC: magic, version, layer table, net.parameters; activation codes index ACTIVATIONS."""
    parts = [UKDC_MAGIC, struct.pack("<II", UKDC_VERSION, len(net.layers))]
    parts += [struct.pack("<IIB", layer.in_dim, layer.out_dim,
                          ACTIVATIONS.index(layer.activation)) for layer in net.layers]
    parts += [np.ascontiguousarray(p.data, "<f8") for p in net.parameters]
    _write_atomic(path, b"".join(parts))  # one copy: the join reads the arrays' buffers


def load_checkpoint(path) -> Network:
    """Rebuild a trainable network from a UKDC file; parameters are bit-exact.

    A file that build would refuse, such as one ending in a relu layer, or
    one with a NaN or infinite parameter, raises FormatError naming the offset.
    """
    blob = Path(path).read_bytes()
    (n_layers,) = _read_header(blob, UKDC_MAGIC, UKDC_VERSION, "<II")
    if not 1 <= n_layers <= 1024:
        raise FormatError(f"implausible layer count {n_layers} at offset 8")
    offset = 12
    layers: list[LayerSpec] = []
    for i in range(n_layers):
        if offset + 9 > len(blob):
            raise FormatError(f"file truncated at offset {offset} in layer table")
        in_dim, out_dim, code = struct.unpack("<IIB", blob[offset: offset + 9])
        if code >= len(ACTIVATIONS):
            raise FormatError(f"unknown activation code {code} at offset {offset + 8}")
        if in_dim < 1 or out_dim < 1:
            raise FormatError(f"bad layer dims {in_dim}x{out_dim} at offset {offset}")
        if layers and layers[-1].out_dim != in_dim:
            raise FormatError(f"broken dimension chain at offset {offset}")
        layers.append(LayerSpec(in_dim, out_dim, ACTIVATIONS[code]))
        offset += 9
    if layers[-1].activation != "none":
        raise FormatError(f"final layer activation {layers[-1].activation!r} at offset "
                          f"{offset - 1}, expected 'none'")
    parameters: list[Tensor] = []
    for i, layer in enumerate(layers):
        for name, shape in ((f"weight_{i}", (layer.in_dim, layer.out_dim)),
                            (f"bias_{i}", (layer.out_dim,))):
            size = 8 * math.prod(shape)  # Python ints: a huge layer cannot wrap
            if offset + size > len(blob):
                raise FormatError(f"file truncated at offset {offset} reading {name}")
            arr = np.frombuffer(blob, "<f8", count=size // 8, offset=offset).reshape(shape)
            _check_finite(arr, offset, f"{name} value")  # else it fails in its first forward
            parameters.append(Tensor(arr.copy(), requires_grad=True))
            offset += size
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes at offset {offset}")
    return Network(layers, parameters)
