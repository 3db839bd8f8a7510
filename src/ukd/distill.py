"""Distillation losses and uncertainty statistics.

Three loss components drive each student: hard cross-entropy against the
labels, temperature-scaled KL toward the frozen teacher weighted per sample
by the teacher's own confidence, and temperature-scaled KL toward the other
student with gradients stopped through the peer. Confidence is one minus
normalized predictive entropy of the teacher's raw (temperature 1) softmax.

KL argument order follows the uncommon student-first convention by default;
``direction="conventional"`` flips to reference-first. Both keep the
gradient path through the live student distribution only.

This module validates inputs and chooses what to build; each term, and the
weighted sum, is one fused gradcore node (``nll_loss``, ``kl_loss``,
``weighted_sum``) whose values and gradients are bit-identical to the
primitive chain log_softmax, exp, sub, mul, row_sum, mean and scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContractError, DistributionError, LabelError, NumericError,
                     ParameterError, ShapeError)
from .gradcore import Tensor, kl_loss, nll_loss, weighted_sum

KL_DIRECTIONS = ("as_paper", "conventional")


@dataclass
class UncertaintyStats:
    """Per-sample predictive entropy (nats) and confidence weights, with means."""

    entropy: np.ndarray
    weight: np.ndarray
    mean_entropy: float
    mean_weight: float
    num_classes: int


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
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
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
    """Entropy and confidence of each row of a probability matrix, plus means."""
    p = _as_probs(probs)
    h = _entropy(p)
    w = confidence_weight(h, p.shape[1])
    return UncertaintyStats(
        entropy=h,
        weight=w,
        mean_entropy=float(np.add.reduce(h) / h.size),
        mean_weight=float(np.add.reduce(w) / w.size),
        num_classes=p.shape[1],
    )


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


def _check_tau(tau: float) -> float:
    if not tau > 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    return float(tau)


def _check_direction(direction: str) -> str:
    if direction not in KL_DIRECTIONS:
        raise ParameterError(f"direction {direction!r} not in {KL_DIRECTIONS}")
    return direction


def hard_loss(student_logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of the unsoftened student distribution vs labels."""
    labels = np.asarray(labels)
    if not issubclass(labels.dtype.type, np.integer):
        raise LabelError(f"labels must be integers, got dtype {labels.dtype}")
    batch, c = student_logits.data.shape
    if labels.shape != (batch,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {batch}")
    if (np.logical_or.reduce(labels < 0, axis=None)
            or np.logical_or.reduce(labels >= c, axis=None)):
        raise LabelError(f"labels must lie in [0, {c})")
    onehot = np.zeros((batch, c))
    onehot[np.arange(batch), labels] = 1.0
    return nll_loss(student_logits, onehot)


def teacher_loss(student_logits: Tensor, teacher_logits: Tensor, w, tau: float,
                 direction: str = "as_paper") -> Tensor:
    """Confidence-weighted KL between softened student and teacher distributions.

    Per sample: w_i · tau² · KL_i, averaged over the batch. Gradients flow
    into the student logits only; the teacher side is detached regardless of
    how its logits were produced.
    """
    tau = _check_tau(tau)
    _check_direction(direction)
    w = np.asarray(w, dtype=np.float64)
    batch = student_logits.data.shape[0]
    if w.shape != (batch,):
        raise ShapeError(f"weight shape {w.shape} does not match batch {batch}")
    if not np.logical_and.reduce((w >= 0.0) & (w <= 1.0), axis=None):
        raise ParameterError("confidence weights must lie in [0, 1]")
    return kl_loss(student_logits, teacher_logits, tau, w, direction == "as_paper")


def peer_loss(self_logits: Tensor, peer_logits: Tensor, tau: float,
              direction: str = "as_paper") -> Tensor:
    """Mean tau²-scaled KL toward the other student, gradients stopped at the peer."""
    tau = _check_tau(tau)
    _check_direction(direction)
    return kl_loss(self_logits, peer_logits, tau, None, direction == "as_paper")


def total_loss(hard: Tensor | None, teacher: Tensor | None, peer: Tensor | None,
               alpha: float, beta: float, gamma: float, *,
               tau: float = 1.0) -> tuple[Tensor, LossBreakdown]:
    """alpha·hard + beta·teacher + gamma·peer as one scalar, plus the record.

    A zero-weighted component never enters the combined graph, so it cannot
    perturb gradients or reproducibility; its value is still recorded when
    the tensor was computed. A None component requires weight zero.
    """
    weights = {"alpha": alpha, "beta": beta, "gamma": gamma}
    for name, value in weights.items():
        if not value >= 0:
            raise ParameterError(f"{name} must be nonnegative, got {value}")
    live, live_weights, floats = [], [], []
    for term, weight in ((hard, alpha), (teacher, beta), (peer, gamma)):
        if term is None:
            if weight != 0.0:
                raise ParameterError("a missing loss component must have weight 0")
            floats.append(0.0)
            continue
        floats.append(float(term.data))
        if weight != 0.0:
            live.append(term)
            live_weights.append(weight)
    combined = weighted_sum(live, live_weights) if live else Tensor(0.0)
    breakdown = LossBreakdown(
        hard=floats[0], teacher=floats[1], peer=floats[2], total=float(combined.data),
        alpha=float(alpha), beta=float(beta), gamma=float(gamma), tau=float(tau),
    )
    return combined, breakdown
