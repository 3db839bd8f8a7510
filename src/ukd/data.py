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
the label layout and the val fraction (the last val-fraction of each class's
rows), and a dataset file records its fraction, so a dataset exported to a
file and re-imported reconstructs the identical split and statistics by
itself.
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
UKDD_VERSION = 2
_UKDD_HEADER = "<IIIId"  # after the magic: version, num_classes, N, dim, val_fraction
SPLITS = ("train", "val")
_ORACLE_SAMPLES, _ORACLE_STREAM = 20_000, 2_000_000  # bayes_oracle_accuracy's draws


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
    """Immutable-by-convention sample store with split indices and norm stats.

    val_fraction is the fraction the split was made with; save_dataset
    records it, so load_dataset remakes the same split.
    """

    features: np.ndarray
    labels: np.ndarray
    train_indices: np.ndarray
    val_indices: np.ndarray
    norm_mean: np.ndarray
    norm_std: np.ndarray
    num_classes: int
    val_fraction: float

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
    val_fraction is checked by the callers: DatasetSpec for generate, the
    file's header for load_dataset.
    """
    train_parts, val_parts = [], []
    order = np.argsort(labels, kind="stable")  # each class's rows, in row order
    _, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    for start, count in zip(starts, counts):  # every label lies in [0, num_classes)
        idx = order[start: start + count]
        val_count = _val_count(val_fraction, idx.size)
        train_parts.append(idx[: idx.size - val_count])
        val_parts.append(idx[idx.size - val_count:])
    train_idx, val_idx = np.concatenate(train_parts), np.concatenate(val_parts)
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
        val_fraction=val_fraction,
    )


def batches(ds: Dataset, batch_size: int, shuffle_seed: int,
            epoch: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Normalized (features, labels) batches of the train split, shuffled per epoch.

    The order comes from [shuffle_seed, epoch]. The last partial batch is
    kept. Arguments are checked now; each batch is normalized when drawn.
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if epoch < 0 or shuffle_seed < 0:
        raise ParameterError("shuffle_seed and epoch must be nonnegative")
    idx = np.random.default_rng([shuffle_seed, epoch]).permutation(ds.train_indices)
    return ((ds.normalized(idx[i: i + batch_size]), ds.labels[idx[i: i + batch_size]])
            for i in range(0, idx.size, batch_size))


def augment(x: np.ndarray, strength: float, rng: np.random.Generator) -> np.ndarray:
    """Additive N(0, strength^2) noise."""
    if not strength >= 0:
        raise ParameterError(f"strength must be nonnegative, got {strength}")
    return x + rng.normal(0.0, strength, x.shape)


def bayes_oracle_accuracy(spec: DatasetSpec) -> float:
    """Monte Carlo accuracy of the true-posterior classifier on fresh draws.

    Equal priors and isotropic equal covariance make the Bayes rule exactly
    nearest-class-mean; this estimates the ceiling any trained model can
    reach from 20,000 points drawn from the stream [spec.seed, 2_000_000].
    """
    means = class_means(spec)
    rng = np.random.default_rng([spec.seed, _ORACLE_STREAM])
    labels = rng.integers(0, spec.num_classes, _ORACLE_SAMPLES)
    points = means[labels] + spec.overlap_sigma * rng.standard_normal((_ORACLE_SAMPLES, spec.feature_dim))
    predicted = nearest_mean_classify(points, means)
    return float((predicted == labels).mean())


def nearest_mean_classify(points: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Index of the closest mean per row (squared Euclidean), a chunk of rows at a time."""
    step = max(1, 2**18 // means.size)  # rows per chunk: memory follows it, not rows x means
    return np.concatenate([
        ((chunk[:, None, :] - means[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        for chunk in np.split(points, range(step, len(points), step))])


# ---------------------------------------------------------------- file formats


def _write_atomic(path, blob: bytes) -> None:
    """Write blob to a temp file beside path, then rename it over path.

    path's directory is created if missing, so a directory appears with its
    first file. A failed write leaves neither a partial path nor the temp
    file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # a no-op once the rename has happened


def _read_header(blob: bytes, magic: bytes, version: int, fmt: str) -> list:
    """The header fields after the magic and version of a file's bytes.

    fmt is the little-endian struct format of the header after the magic,
    version first. A blob too short for the header, with another magic or
    another version is a FormatError naming the offset.
    """
    size = 4 + struct.calcsize(fmt)
    if len(blob) < size:
        raise FormatError(f"file truncated at offset {len(blob)}: header needs {size} bytes")
    if blob[:4] != magic:
        raise FormatError(f"bad magic {blob[:4]!r} at offset 0, expected {magic!r}")
    found, *fields = struct.unpack_from(fmt, blob, 4)
    if found != version:
        raise FormatError(f"unsupported version {found} at offset 4")
    return fields


def _check_finite(values: np.ndarray, offset: int, what: str) -> None:
    """Refuse values read from offset if one is NaN or ±inf, naming the first one's offset."""
    finite = np.isfinite(values)  # float64 values, 8 bytes each
    if not finite.all():
        raise FormatError(f"non-finite {what} at offset {offset + 8 * int(finite.argmin())}")


def save_dataset(ds: Dataset, path) -> None:
    """Flat binary export: UKDD magic, version, C, N, dim, val_fraction, labels, raw features."""
    _write_atomic(path, b"".join([  # one copy: the join reads the arrays' buffers
        UKDD_MAGIC, struct.pack(_UKDD_HEADER, UKDD_VERSION, ds.num_classes, *ds.features.shape,
                                ds.val_fraction),
        np.ascontiguousarray(ds.labels, "<u4"), np.ascontiguousarray(ds.features, "<f8")]))


def load_dataset(path) -> Dataset:
    """Rebuild a Dataset from a UKDD file; the split is remade at the file's val_fraction."""
    blob = Path(path).read_bytes()
    num_classes, n, dim, val_fraction = _read_header(blob, UKDD_MAGIC, UKDD_VERSION, _UKDD_HEADER)
    if num_classes < 2 or dim < 2 or n < 1:
        raise FormatError(f"implausible dimensions C={num_classes} N={n} dim={dim} at offset 8")
    if not 0.0 < val_fraction < 1.0:  # NaN too
        raise FormatError(f"val_fraction {val_fraction} outside (0, 1) at offset 20")
    labels_end = 28 + 4 * n
    total = labels_end + 8 * n * dim
    if len(blob) != total:
        raise FormatError(
            f"expected {total} bytes for C={num_classes} N={n} dim={dim}, got {len(blob)} "
            f"(payload starts at offset 28)"
        )
    labels = np.frombuffer(blob, "<u4", count=n, offset=28).astype(np.int64)
    if (labels >= num_classes).any():
        raise FormatError(f"label out of range [0, {num_classes}) at offset 28")
    features = np.frombuffer(blob, "<f8", count=n * dim, offset=labels_end).reshape(n, dim).copy()
    del blob  # features and labels own their bytes: free the file's before the split
    _check_finite(features, labels_end, "feature")  # the split's statistics would turn NaN
    return _assemble(features, labels, num_classes, val_fraction)
