"""The data path holds one copy of the features.

tracemalloc counts every numpy buffer, so these peaks are deterministic.
Each is measured from a start where the dataset already exists, and
bounded against the bytes of one normalized train split: one epoch of
batches and one evaluate pass normalize a batch or a 512-row chunk at a
time, so neither comes near a whole split. generate fills its features in
place, and load_dataset frees the file's bytes once it has copied them out;
either peak is the features plus what the train statistics take.
"""

import gc
import tracemalloc

from ukd.data import DatasetSpec, bayes_oracle_accuracy, generate, load_dataset, save_dataset
from ukd.harness import TrainConfig, _augmented_batches, evaluate
from ukd.nets import build, mlp_spec

# 20,700 train rows of 64 dims: one normalized train split is 10.6 MB
SPEC = DatasetSpec(num_classes=10, samples_per_class=2300, feature_dim=64, seed=3)


def _peak_bytes(fn) -> int:
    """The most memory fn held at once beyond what existed when it began."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _split_bytes(ds) -> int:
    return ds.train_indices.size * ds.features.shape[1] * ds.features.itemsize


def test_an_epoch_of_batches_holds_no_normalized_split():
    ds = generate(SPEC)
    config = TrainConfig(mode="dual", batch_size=512)

    def epoch():
        for _ in _augmented_batches(ds, config, 7, 0):
            pass

    assert _peak_bytes(epoch) < _split_bytes(ds) / 4


def test_evaluate_holds_no_normalized_split():
    ds = generate(SPEC)
    net = build(mlp_spec(SPEC.feature_dim, [128], SPEC.num_classes), 0)
    assert _peak_bytes(lambda: evaluate(net, ds, "train")) < _split_bytes(ds) / 4


def test_generate_holds_the_features_once():
    features_bytes = SPEC.num_classes * SPEC.samples_per_class * SPEC.feature_dim * 8
    assert _peak_bytes(lambda: generate(SPEC)) <= 3 * features_bytes


def test_load_dataset_holds_the_features_once(tmp_path):
    ds = generate(SPEC)
    save_dataset(ds, tmp_path / "ds.ukdd")
    features_bytes = ds.features.nbytes
    del ds
    assert _peak_bytes(lambda: load_dataset(tmp_path / "ds.ukdd")) <= 3 * features_bytes


def test_the_bayes_estimate_scores_its_points_a_chunk_at_a_time():
    # 20,000 points against 40 means in 32 dims: 205 MB if scored in one broadcast
    spec = DatasetSpec(num_classes=40, feature_dim=32)
    points_bytes = 20_000 * spec.feature_dim * 8
    assert _peak_bytes(lambda: bayes_oracle_accuracy(spec)) < 4 * points_bytes
