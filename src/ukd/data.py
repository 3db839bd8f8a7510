"""Seeded Gaussian-mixture classification data with batching and augmentation.

Class means sit on the unit sphere; samples spread around them with an
isotropic overlap_sigma. The overlap is the point: it makes some regions
genuinely ambiguous, so a trained classifier's confidence varies from sample
to sample instead of saturating at 1. A DatasetSpec checks its fields when
it is built, down to both splits holding rows, so generate takes any spec
that exists.

Only the raw features are held, one copy. Normalization statistics come
from the training split only; rows are normalized with them as they are used,
one batch (batches) or one 512-row chunk (harness.evaluate) at a time, never a
whole split. Normalization is elementwise, so a row's normalized bits do not
depend on which rows share its batch. The split itself is a pure function of
the label layout (the last val-fraction of each class's rows), so a dataset
exported to a file and re-imported reconstructs the identical split and
statistics.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError, SpecError

UKDD_MAGIC = b"UKDD"
UKDD_VERSION = 1
SPLITS = ("train", "val")


@dataclass(frozen=True)
class DatasetSpec:
    """Generation recipe, checked when built; every field participates in reproducibility."""

    num_classes: int = 10
    samples_per_class: int = 500
    feature_dim: int = 16
    overlap_sigma: float = 0.6
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.num_classes < 2:
            raise SpecError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.feature_dim < 2:
            raise SpecError(f"feature_dim must be >= 2, got {self.feature_dim}")
        if self.samples_per_class < 1:
            raise SpecError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if not 0 < self.overlap_sigma < math.inf:
            raise SpecError(f"overlap_sigma must be positive and finite, got {self.overlap_sigma}")
        if not 0.0 < self.val_fraction < 1.0:
            raise SpecError(f"val_fraction must lie in (0,1), got {self.val_fraction}")
        held_out = _val_count(self.val_fraction, self.samples_per_class)
        if not 1 <= held_out < self.samples_per_class:
            raise SpecError(f"val_fraction {self.val_fraction} holds out {held_out} of "
                            f"{self.samples_per_class} rows per class; each split needs one")
        if self.seed < 0:
            raise SpecError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class Dataset:
    """Immutable-by-convention sample store with split indices and norm stats."""

    features: np.ndarray
    labels: np.ndarray
    train_indices: np.ndarray
    val_indices: np.ndarray
    norm_mean: np.ndarray
    norm_std: np.ndarray
    num_classes: int

    def split_indices(self, split: str) -> np.ndarray:
        if split not in SPLITS:
            raise ParameterError(f"split must be one of {SPLITS}, got {split!r}")
        return self.train_indices if split == "train" else self.val_indices

    def normalized(self, rows: np.ndarray) -> np.ndarray:
        """A new array of the given rows' features, normalized with the train stats."""
        return (self.features[rows] - self.norm_mean) / self.norm_std


def class_means(spec: DatasetSpec) -> np.ndarray:
    """The true class means on the unit sphere, as generate() draws them."""
    return _draw_means(np.random.default_rng(spec.seed), spec.num_classes, spec.feature_dim)


def _draw_means(rng: np.random.Generator, c: int, dim: int) -> np.ndarray:
    raw = rng.standard_normal((c, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    if norms.min() < 1e-12:
        raise DataError("degenerate zero-norm class mean draw")
    return raw / norms


def generate(spec: DatasetSpec) -> Dataset:
    """Draw the mixture: means first, then each class's rows in place, then split."""
    rng = np.random.default_rng(spec.seed)
    means = _draw_means(rng, spec.num_classes, spec.feature_dim)
    features = np.empty((spec.num_classes * spec.samples_per_class, spec.feature_dim))
    for mean, block in zip(means, features.reshape(spec.num_classes, -1, spec.feature_dim)):
        rng.standard_normal(out=block)  # block is a view: its class's rows of features
        block *= spec.overlap_sigma
        block += mean
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.samples_per_class)
    return _assemble(features, labels, spec.num_classes, spec.val_fraction)


def _val_count(val_fraction: float, rows: int) -> int:
    """How many of a class's rows the split holds out for val."""
    return int(round(val_fraction * rows))


def _assemble(features: np.ndarray, labels: np.ndarray, num_classes: int,
              val_fraction: float) -> Dataset:
    """Stratified split (last val-fraction rows of each class) plus train-only stats.

    Only the classes present are visited, so the time taken follows the rows,
    not num_classes; a class with no rows adds nothing to either split.
    """
    if not 0.0 < val_fraction < 1.0:
        raise SpecError(f"val_fraction must lie in (0,1), got {val_fraction}")
    train_parts, val_parts = [], []
    order = np.argsort(labels, kind="stable")  # each class's rows, in row order
    present, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    for c, start, count in zip(present, starts, counts):
        if 0 <= c < num_classes:
            idx = order[start: start + count]
            val_count = _val_count(val_fraction, idx.size)
            train_parts.append(idx[: idx.size - val_count])
            val_parts.append(idx[idx.size - val_count:])
    train_idx = np.concatenate(train_parts) if train_parts else np.empty(0, dtype=np.int64)
    val_idx = np.concatenate(val_parts) if val_parts else np.empty(0, dtype=np.int64)
    if train_idx.size == 0:
        raise DataError("training split is empty")
    train_feats = features[train_idx]
    mean = train_feats.mean(axis=0)
    std = train_feats.std(axis=0)
    if std.min() <= 0.0:
        raise DataError("degenerate training split: a feature has zero spread")
    return Dataset(
        features=features,
        labels=labels,
        train_indices=train_idx,
        val_indices=val_idx,
        norm_mean=mean,
        norm_std=std,
        num_classes=num_classes,
    )


def batches(ds: Dataset, split: str, batch_size: int, shuffle_seed: int,
            epoch: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Normalized (features, labels) batches; train order is a per-epoch permutation.

    Validation order is fixed. The last partial batch is kept. Arguments are
    checked now; each batch is normalized when the iterator draws it.
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if epoch < 0 or shuffle_seed < 0:
        raise ParameterError("shuffle_seed and epoch must be nonnegative")
    idx = ds.split_indices(split)
    if idx.size == 0:
        raise DataError(f"split {split!r} is empty")
    if split == "train":
        idx = idx[np.random.default_rng([shuffle_seed, epoch]).permutation(idx.size)]
    return ((ds.normalized(idx[i: i + batch_size]), ds.labels[idx[i: i + batch_size]])
            for i in range(0, idx.size, batch_size))


def augment(x: np.ndarray, strength: float, rng: np.random.Generator) -> np.ndarray:
    """Additive N(0, strength^2) noise."""
    if not strength >= 0:
        raise ParameterError(f"strength must be nonnegative, got {strength}")
    return x + rng.normal(0.0, strength, x.shape)


def bayes_oracle_accuracy(spec: DatasetSpec, mc_samples: int = 20_000,
                          mc_seed: int = 2_000_000) -> float:
    """Monte Carlo accuracy of the true-posterior classifier on fresh draws.

    Equal priors and isotropic equal covariance make the Bayes rule exactly
    nearest-class-mean; this estimates the ceiling any trained model can reach.
    """
    if mc_samples < 1:
        raise ParameterError(f"mc_samples must be >= 1, got {mc_samples}")
    means = class_means(spec)
    rng = np.random.default_rng([spec.seed, mc_seed])
    labels = rng.integers(0, spec.num_classes, mc_samples)
    points = means[labels] + spec.overlap_sigma * rng.standard_normal((mc_samples, spec.feature_dim))
    predicted = nearest_mean_classify(points, means)
    return float((predicted == labels).mean())


def nearest_mean_classify(points: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Index of the closest mean per row (squared Euclidean)."""
    d2 = ((points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


# ---------------------------------------------------------------- file formats


def _write_atomic(path, blob: bytes) -> None:
    """Write blob to a temp file beside path, then rename it over path.

    A failed write leaves neither a partial path nor the temp file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # a no-op once the rename has happened


def save_dataset(ds: Dataset, path) -> None:
    """Flat binary export: UKDD magic, version, C, N, dim, labels, raw features."""
    n, dim = ds.features.shape
    _write_atomic(path, b"".join([  # one copy: the join reads the arrays' buffers
        UKDD_MAGIC, struct.pack("<IIII", UKDD_VERSION, ds.num_classes, n, dim),
        np.ascontiguousarray(ds.labels, "<u4"), np.ascontiguousarray(ds.features, "<f8")]))


def load_dataset(path, val_fraction: float = 0.1) -> Dataset:
    """Rebuild a Dataset from a UKDD file; split and stats are recomputed."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20:
        raise FormatError(f"file truncated at offset {len(blob)}: header needs 20 bytes")
    if blob[:4] != UKDD_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r} at offset 0, expected {UKDD_MAGIC!r}")
    version, num_classes, n, dim = struct.unpack("<IIII", blob[4:20])
    if version != UKDD_VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    if num_classes < 2 or dim < 2 or n < 1:
        raise FormatError(f"implausible dimensions C={num_classes} N={n} dim={dim} at offset 8")
    labels_end = 20 + 4 * n
    total = labels_end + 8 * n * dim
    if len(blob) != total:
        raise FormatError(
            f"expected {total} bytes for C={num_classes} N={n} dim={dim}, got {len(blob)} "
            f"(payload starts at offset 20)"
        )
    labels = np.frombuffer(blob, "<u4", count=n, offset=20).astype(np.int64)
    if (labels >= num_classes).any():
        raise FormatError(f"label out of range [0, {num_classes}) at offset 20")
    features = np.frombuffer(blob, "<f8", count=n * dim, offset=labels_end).reshape(n, dim).copy()
    del blob  # features and labels own their bytes: free the file's before the split
    return _assemble(features, labels, num_classes, val_fraction)
