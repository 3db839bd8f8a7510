"""Distillation losses and uncertainty statistics.

Three loss components drive each student: hard cross-entropy against the
labels, temperature-scaled KL toward the frozen teacher weighted per sample
by the teacher's own confidence, and temperature-scaled KL toward the other
student with gradients stopped through the peer. Confidence is one minus
normalized predictive entropy of the teacher's raw (temperature 1) softmax.

KL argument order follows the uncommon student-first convention by default;
``direction="conventional"`` flips to reference-first. Both keep the
gradient path through the live student distribution only.

Each term, and the weighted sum, validates its inputs once and builds its
own fused graph node, labelled ``nll_loss``, ``kl_loss`` or ``weighted_sum``.
A node reads the row-softmax memo through ``gradcore._softmax_rows`` and is
checked and linked by ``gradcore._result``; its value and gradient are
bit-identical to the gradcore primitive chain log_softmax, exp, sub, mul,
row_sum, mean and scale, which remains their reference. Bad arguments raise
``ShapeError``, ``LabelError`` or ``ParameterError`` (τ² overflowing or
underflowing included); ``NumericError`` means the arithmetic overflowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContractError, DistributionError, LabelError, NumericError,
                     ParameterError, ShapeError)
from .gradcore import Tensor, _check_logits, _log_softmax_adjoint, _result, _softmax_rows

KL_DIRECTIONS = ("as_paper", "conventional")
_TAU2_MIN = float(np.finfo(np.float64).tiny)  # sys.float_info.min: tau² below it underflows


@dataclass
class UncertaintyStats:
    """Per-sample predictive entropy (nats) and confidence weights."""

    entropy: np.ndarray
    weight: np.ndarray


@dataclass
class LossBreakdown:
    """One batch's loss components and the weights that combined them."""

    hard: float
    teacher: float
    peer: float
    total: float
    alpha: float
    beta: float
    gamma: float
    tau: float

    def __post_init__(self):
        vals = (self.hard, self.teacher, self.peer, self.total)
        if not all(map(math.isfinite, vals)):
            raise NumericError(f"non-finite loss component in {vals}")
        if min(vals) < -1e-12:
            raise ContractError(f"negative loss component in {vals}")


def _as_probs(probs) -> np.ndarray:
    p = probs.data if isinstance(probs, Tensor) else np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ShapeError(f"need [batch, C>=2] probabilities, got shape {p.shape}")
    if not np.logical_and.reduce(p >= 0.0, axis=None):
        raise DistributionError("probabilities must be nonnegative")
    sums = np.add.reduce(p, axis=1)
    if not np.maximum.reduce(np.abs(sums - 1.0), axis=None) <= 1e-9:
        raise DistributionError(f"rows must sum to 1 within 1e-9, worst sum {sums[np.abs(sums - 1.0).argmax()]!r}")
    return p


def entropy(probs) -> np.ndarray:
    """Per-row -sum(p ln p) in nats, with 0·ln0 taken as 0."""
    return _entropy(_as_probs(probs))


def _entropy(p: np.ndarray) -> np.ndarray:
    # log only where p > 0, 0 elsewhere: 0·ln0 is 0 and no log(0) is taken
    terms = p * np.log(p, out=np.zeros(p.shape), where=p > 0.0)
    return np.maximum(-np.add.reduce(terms, axis=1), 0.0)


def confidence_weight(H, num_classes: int) -> np.ndarray:
    """w = 1 - H/ln(num_classes), clamped into [0, 1]."""
    if num_classes < 2:
        raise ParameterError(f"num_classes must be >= 2, got {num_classes}")
    h = np.asarray(H, dtype=np.float64)
    max_h = np.log(num_classes)
    if not np.logical_and.reduce((h >= -1e-9) & (h <= max_h + 1e-9), axis=None):
        raise DistributionError(f"entropy outside [0, ln {num_classes}]")
    # clip(·, 0, 1) bit for bit: 1 - h/max_h is finite and never -0.0 here
    return np.minimum(np.maximum(1.0 - h / max_h, 0.0), 1.0)


def uncertainty_stats(probs) -> UncertaintyStats:
    """Entropy and confidence of each row of a probability matrix."""
    p = _as_probs(probs)
    h = _entropy(p)
    return UncertaintyStats(entropy=h, weight=confidence_weight(h, p.shape[1]))


def _check_log_dist(ld: np.ndarray, name: str) -> None:
    sums = np.exp(ld).sum(axis=1)
    if not np.abs(sums - 1.0).max() <= 1e-9:
        raise DistributionError(f"{name} is not a log-distribution (exp-row-sum off by > 1e-9)")


def kl_div(log_q, log_p) -> np.ndarray:
    """Per-row KL(q || p) from two log-distributions; a plain value, no graph."""
    lq = log_q.data if isinstance(log_q, Tensor) else np.asarray(log_q, dtype=np.float64)
    lp = log_p.data if isinstance(log_p, Tensor) else np.asarray(log_p, dtype=np.float64)
    if lq.shape != lp.shape or lq.ndim != 2:
        raise ShapeError(f"log-distributions must share a [batch, C] shape, got {lq.shape} and {lp.shape}")
    _check_log_dist(lq, "log_q")
    _check_log_dist(lp, "log_p")
    return (np.exp(lq) * (lq - lp)).sum(axis=1)


def hard_loss(student_logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of the unsoftened student distribution vs labels.

    One node, labelled ``nll_loss``: -mean(row_sum(log_softmax(z, 1) * onehot)).
    """
    labels = np.asarray(labels)
    if not issubclass(labels.dtype.type, np.integer):
        raise LabelError(f"labels must be integers, got dtype {labels.dtype}")
    t = _check_logits(student_logits, 1.0)
    batch, c = student_logits.data.shape
    if batch == 0:
        raise ShapeError("hard_loss needs a batch of at least one row")
    if labels.shape != (batch,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {batch}")
    if (np.logical_or.reduce(labels < 0, axis=None)
            or np.logical_or.reduce(labels >= c, axis=None)):
        raise LabelError(f"labels must lie in [0, {c})")
    onehot = np.zeros((batch, c))
    onehot[np.arange(batch), labels] = 1.0
    ls, probs = _softmax_rows(student_logits, t)
    picked = np.add.reduce(ls * onehot, axis=1)

    def grad_fn(g):
        return (_log_softmax_adjoint((float(g * -1.0) / batch) * onehot, probs, t),)

    return _result("nll_loss", np.asarray(np.add.reduce(picked) / batch) * -1.0,
                   (student_logits,), grad_fn)


def _kl_loss(z: Tensor, ref_logits: Tensor, tau: float, w: np.ndarray | None,
             direction: str) -> Tensor:
    """tau² · mean_i(w_i · KL_i) between the row softmaxes of z/tau and ref_logits/tau.

    One node, labelled ``kl_loss``; w=None weights every row by 1. KL_i is
    KL(q_i || p_i) with q from z under "as_paper", else KL(p_i || q_i). Only
    z takes a gradient: ref_logits is read as a constant however it was
    produced.
    """
    t = _check_logits(z, tau)
    if not _TAU2_MIN <= t * t < math.inf:
        raise ParameterError(f"tau^2 must neither overflow nor underflow, got tau = {tau}")
    if direction not in KL_DIRECTIONS:
        raise ParameterError(f"direction {direction!r} not in {KL_DIRECTIONS}")
    batch = z.data.shape[0]
    if batch == 0:
        raise ShapeError("a KL loss term needs a batch of at least one row")
    if ref_logits.data.shape != z.data.shape:
        raise ShapeError(f"kl_loss needs equal logit shapes, got {z.shape} and {ref_logits.shape}")
    if w is not None:
        if w.shape != (batch,):
            raise ShapeError(f"weight shape {w.shape} does not match batch {batch}")
        if not np.logical_and.reduce((w >= 0.0) & (w <= 1.0), axis=None):
            raise ParameterError("confidence weights must lie in [0, 1]")
    as_paper = direction == "as_paper"
    lq, probs = _softmax_rows(z, t)
    lp, ref_probs = _softmax_rows(ref_logits, t)
    if as_paper:
        e, d = probs, lq - lp
    else:
        e, d = ref_probs, lp - lq
    rows = np.add.reduce(e * d, axis=1)
    if w is not None:
        rows = rows * w
    value = np.asarray(np.add.reduce(rows) / batch) * (t * t)

    def grad_fn(g):
        g_rows = float(g * (t * t)) / batch
        if w is not None:
            g_rows = (g_rows * w)[:, None]
        if as_paper:
            g_lq = (g_rows * e) + ((g_rows * d) * e)
        else:
            g_lq = -(g_rows * e)
        return (_log_softmax_adjoint(g_lq, probs, t),)

    return _result("kl_loss", value, (z,), grad_fn)


def teacher_loss(student_logits: Tensor, teacher_logits: Tensor, w, tau: float,
                 direction: str = "as_paper") -> Tensor:
    """Confidence-weighted KL between softened student and teacher distributions.

    Per sample: w_i · tau² · KL_i, averaged over the batch. Gradients flow
    into the student logits only; the teacher side is detached regardless of
    how its logits were produced.
    """
    return _kl_loss(student_logits, teacher_logits, tau, np.asarray(w, dtype=np.float64),
                    direction)


def peer_loss(self_logits: Tensor, peer_logits: Tensor, tau: float,
              direction: str = "as_paper") -> Tensor:
    """Mean tau²-scaled KL toward the other student, gradients stopped at the peer."""
    return _kl_loss(self_logits, peer_logits, tau, None, direction)


def total_loss(hard: Tensor | None, teacher: Tensor | None, peer: Tensor | None,
               alpha: float, beta: float, gamma: float, *,
               tau: float = 1.0) -> tuple[Tensor, LossBreakdown]:
    """alpha·hard + beta·teacher + gamma·peer as one scalar, plus the record.

    The live terms are summed left to right as one node, labelled
    ``weighted_sum``. A zero-weighted component never enters it, so it
    cannot perturb gradients or reproducibility; its value is still recorded
    when the tensor was computed. A None component requires weight zero.
    """
    weights = {"alpha": alpha, "beta": beta, "gamma": gamma}
    for name, value in weights.items():
        if not 0 <= value < math.inf:
            raise ParameterError(f"{name} must be finite and nonnegative, got {value}")
    live, live_weights, floats, total = [], [], [], None
    for term, weight in ((hard, alpha), (teacher, beta), (peer, gamma)):
        if term is None:
            if weight != 0.0:
                raise ParameterError("a missing loss component must have weight 0")
            floats.append(0.0)
            continue
        floats.append(float(term.data))
        if weight != 0.0:
            c = float(weight)
            total = term.data * c if total is None else total + term.data * c
            live.append(term)
            live_weights.append(c)

    def grad_fn(g):
        return [g * c for c in live_weights]

    if live:
        combined = _result("weighted_sum", np.asarray(total), tuple(live), grad_fn)
    else:
        combined = Tensor(0.0)
    breakdown = LossBreakdown(
        hard=floats[0], teacher=floats[1], peer=floats[2], total=float(combined.data),
        alpha=float(alpha), beta=float(beta), gamma=float(gamma), tau=float(tau),
    )
    return combined, breakdown
