"""Dataset generation, splits, batching, augmentation, and the UKDD format."""

import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ukd.data import (
    SPLITS,
    Dataset,
    DatasetSpec,
    augment,
    batches,
    bayes_oracle_accuracy,
    class_means,
    generate,
    load_dataset,
    nearest_mean_classify,
    save_dataset,
)
from ukd.errors import DataError, FormatError, ParameterError, SpecError

SMALL = DatasetSpec(num_classes=4, samples_per_class=50, feature_dim=8,
                    overlap_sigma=0.5, seed=11, val_fraction=0.1)


def _dataset_bytes(ds: Dataset) -> bytes:
    return b"".join(
        np.ascontiguousarray(a).tobytes()
        for a in (ds.features, ds.labels, ds.train_indices, ds.val_indices,
                  ds.norm_mean, ds.norm_std)
    )


# ---------------------------------------------------------------- generate


def test_spec_validation_rejects_each_bad_field():
    good = dict(num_classes=4, samples_per_class=10, feature_dim=8,
                overlap_sigma=0.5, seed=1, val_fraction=0.2)
    for bad in (dict(num_classes=1), dict(feature_dim=1), dict(samples_per_class=0),
                dict(overlap_sigma=0.0), dict(overlap_sigma=np.inf), dict(val_fraction=0.0),
                dict(val_fraction=1.0), dict(seed=-1)):
        with pytest.raises(SpecError):  # when built, before any generate
            DatasetSpec(**{**good, **bad})


# round() halves to even: 5 rows at 0.1 hold out none, 15 rows hold out 2
@pytest.mark.parametrize("per_class,fraction,val_rows", [
    (4, 0.1, 0), (5, 0.1, 0), (10, 0.04, 0), (10, 0.1, 1), (15, 0.1, 2), (2, 0.5, 1),
    (1, 0.9, 1), (2, 0.75, 2),
])
def test_a_spec_builds_exactly_when_both_splits_hold_rows(per_class, fraction, val_rows):
    kw = dict(num_classes=3, samples_per_class=per_class, feature_dim=4, val_fraction=fraction)
    if not 1 <= val_rows < per_class:
        with pytest.raises(SpecError, match="val_fraction"):
            DatasetSpec(**kw)
        return
    ds = generate(DatasetSpec(**kw))
    assert (ds.val_indices.size, ds.train_indices.size) == (3 * val_rows,
                                                             3 * (per_class - val_rows))


def test_generate_is_bit_reproducible():
    assert _dataset_bytes(generate(SMALL)) == _dataset_bytes(generate(SMALL))
    other = DatasetSpec(**{**SMALL.__dict__, "seed": 12})
    assert _dataset_bytes(generate(SMALL)) != _dataset_bytes(generate(other))


def _generate_by_blocks(spec):
    """generate's features as they were built: a list of class blocks, stacked."""
    rng = np.random.default_rng(spec.seed)
    rng.standard_normal((spec.num_classes, spec.feature_dim))  # the class means' draw
    means = class_means(spec)
    blocks = [means[c] + spec.overlap_sigma
              * rng.standard_normal((spec.samples_per_class, spec.feature_dim))
              for c in range(spec.num_classes)]
    return np.vstack(blocks)


@pytest.mark.parametrize("spec", [SMALL, DatasetSpec(), DatasetSpec(
    num_classes=7, samples_per_class=13, feature_dim=3, overlap_sigma=2.5, seed=4)])
def test_generate_fills_the_features_the_block_stack_built(spec):
    want = _generate_by_blocks(spec)
    got = generate(spec).features
    assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


def test_labels_exactly_balanced_before_split():
    ds = generate(SMALL)
    np.testing.assert_array_equal(np.bincount(ds.labels), [50, 50, 50, 50])


def test_split_disjoint_exhaustive_and_stratified():
    ds = generate(SMALL)
    merged = np.concatenate([ds.train_indices, ds.val_indices])
    assert np.array_equal(np.sort(merged), np.arange(200))
    for c in range(4):
        assert (ds.labels[ds.val_indices] == c).sum() == 5  # round(0.1 * 50)


def _per_class_split(labels, num_classes, val_fraction):
    """The split rule written plainly: the last val-fraction of each class's rows."""
    train, val = [], []
    for c in range(num_classes):
        idx = np.flatnonzero(labels == c)
        held = int(round(val_fraction * idx.size))
        train.append(idx[: idx.size - held])
        val.append(idx[idx.size - held:])
    return np.concatenate(train), np.concatenate(val)


@pytest.mark.parametrize("spec", [SMALL, DatasetSpec(), DatasetSpec(
    num_classes=7, samples_per_class=13, feature_dim=3, seed=4, val_fraction=0.3)])
def test_split_is_the_per_class_rule(spec):
    ds = generate(spec)
    train, val = _per_class_split(ds.labels, spec.num_classes, spec.val_fraction)
    assert ds.train_indices.tobytes() == train.tobytes()
    assert ds.val_indices.tobytes() == val.tobytes()


def test_split_of_interleaved_labels_with_absent_classes_is_the_per_class_rule(tmp_path):
    ds = generate(SMALL)
    labels = np.random.default_rng(3).choice([0, 2, 5], ds.labels.size)  # 1, 3, 4 absent
    path = tmp_path / "sparse.ukdd"
    save_dataset(Dataset(ds.features, labels, ds.train_indices, ds.val_indices,
                         ds.norm_mean, ds.norm_std, 6), path)
    back = load_dataset(path, val_fraction=0.25)
    train, val = _per_class_split(labels, 6, 0.25)
    assert back.train_indices.tobytes() == train.tobytes()
    assert back.val_indices.tobytes() == val.tobytes()


def test_normalized_train_split_is_standardized():
    ds = generate(DatasetSpec())
    feats = ds.normalized(ds.train_indices)
    assert np.abs(feats.mean(axis=0)).max() < 1e-9
    assert np.abs(feats.std(axis=0) - 1.0).max() < 1e-9


def test_norm_stats_come_from_training_split_only():
    ds = generate(SMALL)
    train_raw = ds.features[ds.train_indices]
    np.testing.assert_array_equal(ds.norm_mean, train_raw.mean(axis=0))
    np.testing.assert_array_equal(ds.norm_std, train_raw.std(axis=0))
    val_feats = ds.normalized(ds.val_indices)
    assert np.abs(val_feats.mean(axis=0)).max() > 1e-9  # val is not self-normalized


def test_class_means_lie_on_unit_sphere_and_match_generate():
    means = class_means(SMALL)
    np.testing.assert_allclose(np.linalg.norm(means, axis=1), 1.0, rtol=0, atol=1e-12)
    tight = DatasetSpec(**{**SMALL.__dict__, "overlap_sigma": 1e-9})
    ds = generate(tight)
    tight_means = class_means(tight)
    for c in range(4):
        rows = ds.features[ds.labels == c]
        np.testing.assert_allclose(rows, np.tile(tight_means[c], (rows.shape[0], 1)),
                                   rtol=0, atol=1e-7)


def test_vanishing_overlap_makes_val_separable():
    spec = DatasetSpec(**{**SMALL.__dict__, "overlap_sigma": 1e-9})
    ds = generate(spec)
    predicted = nearest_mean_classify(ds.features[ds.val_indices], class_means(spec))
    assert (predicted == ds.labels[ds.val_indices]).mean() == 1.0


def test_bayes_oracle_ceiling_on_default_dataset():
    spec = DatasetSpec()
    est = bayes_oracle_accuracy(spec)
    assert 0.1 < est < 1.0
    again = bayes_oracle_accuracy(spec, mc_seed=2_000_001)
    assert abs(est - again) < 0.02
    ds = generate(spec)
    val_acc = (nearest_mean_classify(ds.features[ds.val_indices], class_means(spec))
               == ds.labels[ds.val_indices]).mean()
    assert abs(val_acc - est) < 0.05


# ---------------------------------------------------------------- batches


def test_batches_partition_the_split():
    ds = generate(SMALL)
    got = list(batches(ds, "train", 32, shuffle_seed=3, epoch=0))
    feats, labels = ds.normalized(ds.train_indices), ds.labels[ds.train_indices]
    cat_feats = np.vstack([b[0] for b in got])
    cat_labels = np.concatenate([b[1] for b in got])
    assert cat_feats.shape == feats.shape
    order_got = np.lexsort(cat_feats.T)
    order_want = np.lexsort(feats.T)
    np.testing.assert_array_equal(cat_feats[order_got], feats[order_want])
    np.testing.assert_array_equal(np.sort(cat_labels), np.sort(labels))


def _whole_split_batches(ds, split, batch_size, shuffle_seed, epoch):
    """batches as it was: normalize the whole split, permute it, then slice it."""
    idx = ds.split_indices(split)
    feats, labels = (ds.features[idx] - ds.norm_mean) / ds.norm_std, ds.labels[idx]
    if split == "train":
        order = np.random.default_rng([shuffle_seed, epoch]).permutation(idx.size)
        feats, labels = feats[order], labels[order]
    return [(feats[i: i + batch_size], labels[i: i + batch_size])
            for i in range(0, idx.size, batch_size)]


WIDE = generate(DatasetSpec(num_classes=5, samples_per_class=120, feature_dim=6,
                            overlap_sigma=1.3, seed=8))  # 540 train rows, 60 val


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPLITS), st.integers(1, 600), st.integers(0, 2**32 - 1),
       st.integers(0, 200))
def test_batches_are_slices_of_the_whole_normalized_split(split, batch_size, seed, epoch):
    got = list(batches(WIDE, split, batch_size, seed, epoch))
    want = _whole_split_batches(WIDE, split, batch_size, seed, epoch)
    assert len(got) == len(want)
    for (x, y), (wx, wy) in zip(got, want):
        assert np.array_equal(x, wx) and x.tobytes() == wx.tobytes()
        assert np.array_equal(y, wy) and y.dtype == wy.dtype


def test_batches_keep_last_partial_batch():
    ds = generate(DatasetSpec(num_classes=4, samples_per_class=25, feature_dim=4,
                              overlap_sigma=0.5, seed=2, val_fraction=0.1))
    got = batches(ds, "train", 10, shuffle_seed=0, epoch=0)
    sizes = [b[0].shape[0] for b in got]
    assert sum(sizes) == 92  # 4 * (25 - round(2.5)) with banker's rounding
    assert sizes[-1] == 2 and all(s == 10 for s in sizes[:-1])


def test_batches_deterministic_per_seed_epoch_and_distinct_across_epochs():
    ds = generate(DatasetSpec(num_classes=4, samples_per_class=50, feature_dim=4,
                              overlap_sigma=0.5, seed=5, val_fraction=0.1))
    flat = lambda bs: np.vstack([b[0] for b in bs]).tobytes()
    assert flat(batches(ds, "train", 16, 7, 3)) == flat(batches(ds, "train", 16, 7, 3))
    assert flat(batches(ds, "train", 16, 7, 3)) != flat(batches(ds, "train", 16, 8, 3))
    # 180 train samples: identical permutations across epochs are (1/180!)-likely.
    assert flat(batches(ds, "train", 16, 7, 0)) != flat(batches(ds, "train", 16, 7, 1))


def test_val_batches_keep_fixed_order_across_epochs():
    ds = generate(SMALL)
    a = list(batches(ds, "val", 8, shuffle_seed=1, epoch=0))
    b = list(batches(ds, "val", 8, shuffle_seed=9, epoch=5))
    feats, labels = ds.normalized(ds.val_indices), ds.labels[ds.val_indices]
    np.testing.assert_array_equal(np.vstack([x[0] for x in a]), feats)
    np.testing.assert_array_equal(np.vstack([x[0] for x in b]), feats)
    np.testing.assert_array_equal(np.concatenate([x[1] for x in a]), labels)


def test_batches_reject_bad_arguments_and_empty_split(tmp_path):
    ds = generate(SMALL)
    with pytest.raises(ParameterError):
        batches(ds, "train", 0, 1, 0)
    with pytest.raises(ParameterError):
        batches(ds, "train", 8, 1, -1)
    with pytest.raises(ParameterError):
        batches(ds, "test", 8, 1, 0)
    # a spec refuses a split that rounds to empty, so only a file can give one
    save_dataset(generate(DatasetSpec(num_classes=2, samples_per_class=10, feature_dim=4,
                                      overlap_sigma=0.5, seed=1)), tmp_path / "ds.ukdd")
    starved = load_dataset(tmp_path / "ds.ukdd", val_fraction=0.04)
    with pytest.raises(DataError):
        batches(starved, "val", 8, 1, 0)


# ---------------------------------------------------------------- augment


def test_augment_identity_when_inactive():
    x = np.random.default_rng(3).uniform(-2, 2, (20, 8))
    out = augment(x, 0.0, np.random.default_rng(1))
    np.testing.assert_array_equal(out, x)


def test_augment_noise_mean_shift_bounded():
    rng = np.random.default_rng(21)
    sample = rng.uniform(-2, 2, 16)
    copies = np.tile(sample, (10_000, 1))
    out = augment(copies, 0.3, np.random.default_rng(100))
    shift = np.abs(out.mean(axis=0) - sample)
    assert shift.max() < 3.0 * 0.3 / np.sqrt(10_000)


def test_augment_rejects_negative_strength():
    with pytest.raises(ParameterError):
        augment(np.zeros((2, 2)), -0.1, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        augment(np.zeros((2, 2)), np.nan, np.random.default_rng(0))


# ---------------------------------------------------------------- UKDD format


def test_ukdd_round_trip_reconstructs_everything(tmp_path):
    ds = generate(SMALL)
    path = tmp_path / "ds.ukdd"
    save_dataset(ds, path)
    back = load_dataset(path, val_fraction=SMALL.val_fraction)
    assert _dataset_bytes(back) == _dataset_bytes(ds)
    assert back.num_classes == ds.num_classes
    again = tmp_path / "again.ukdd"
    save_dataset(back, again)
    assert path.read_bytes() == again.read_bytes()


def test_ukdd_rejects_corruption(tmp_path):
    ds = generate(SMALL)
    path = tmp_path / "ds.ukdd"
    save_dataset(ds, path)
    blob = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.ukdd"
    bad_magic.write_bytes(b"XKDD" + bytes(blob[4:]))
    with pytest.raises(FormatError, match="offset 0"):
        load_dataset(bad_magic)

    bad_version = tmp_path / "version.ukdd"
    bad_version.write_bytes(blob[:4] + b"\x63\x00\x00\x00" + bytes(blob[8:]))
    with pytest.raises(FormatError, match="version"):
        load_dataset(bad_version)

    truncated = tmp_path / "short.ukdd"
    truncated.write_bytes(bytes(blob[:-8]))
    with pytest.raises(FormatError, match="offset|bytes"):
        load_dataset(truncated)

    trailing = tmp_path / "long.ukdd"
    trailing.write_bytes(bytes(blob) + b"\x00")
    with pytest.raises(FormatError):
        load_dataset(trailing)

    rogue_label = bytearray(blob)
    rogue_label[20] = 200  # first label becomes >= num_classes
    bad_label = tmp_path / "label.ukdd"
    bad_label.write_bytes(bytes(rogue_label))
    with pytest.raises(FormatError, match="label"):
        load_dataset(bad_label)


def test_a_huge_declared_class_count_loads_in_time_of_its_rows(tmp_path):
    # C = 2^32 - 1, N = 2, dim 2: 60 bytes; visiting every declared class would take minutes
    path = tmp_path / "wide.ukdd"
    path.write_bytes(b"UKDD" + struct.pack("<IIII", 1, 2**32 - 1, 2, 2)
                     + struct.pack("<II", 7, 2**32 - 2)
                     + struct.pack("<4d", 0.0, 1.0, 2.0, 5.0))
    assert path.stat().st_size == 60
    started = time.perf_counter()
    ds = load_dataset(path)
    assert time.perf_counter() - started < 5.0
    assert ds.num_classes == 2**32 - 1
    assert ds.train_indices.tolist() == [0, 1]  # one row per class, round(0.1) = 0 held out
    assert ds.val_indices.size == 0
