"""IDX IO, the non-iid shard partition, and the synthetic corpus."""

import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from demlearn.data import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    ConfigurationError,
    Dataset,
    IdxFormatError,
    concat_datasets,
    load_idx,
    partition_shards,
    synthetic_dataset,
)
from demlearn.metrics import accuracy
from demlearn.models import LOGISTIC, ModelSpec, init_params, local_solve


def write_idx(ds: Dataset, images_path, labels_path) -> None:
    """Inverse of load_idx for fixtures: features are written as rows x 1 images.

    Features must be byte-representable, i.e. lie in [0, 1].  A `.gz` path is
    gzipped with mtime pinned, so re-writing the same data is byte-identical.
    """
    n, d = ds.features.shape
    if ds.features.min() < 0.0 or ds.features.max() > 1.0:
        raise ValueError("write_idx requires feature values in [0, 1]")
    pixels = np.rint(ds.features * 255.0).astype(np.uint8)
    img = struct.pack(">iiii", IDX_IMAGE_MAGIC, n, d, 1) + pixels.tobytes()
    lbl = struct.pack(">ii", IDX_LABEL_MAGIC, n) + ds.labels.astype(np.uint8).tobytes()
    for path, payload in ((images_path, img), (labels_path, lbl)):
        if str(path).endswith(".gz"):
            with gzip.GzipFile(path, "wb", mtime=0) as f:
                f.write(payload)
        else:
            with open(path, "wb") as f:
                f.write(payload)


def fixture_dataset():
    # 2 tiny "images" with exact byte-representable pixels
    feats = np.array([[0.0, 1.0, 128 / 255], [17 / 255, 0.0, 255 / 255]])
    labels = np.array([3, 7], dtype=np.int64)
    return Dataset(feats, labels, 8)


def test_idx_round_trip(tmp_path):
    ds = fixture_dataset()
    img, lbl = tmp_path / "img-idx3-ubyte", tmp_path / "lbl-idx1-ubyte"
    write_idx(ds, img, lbl)
    back = load_idx(img, lbl)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_idx_round_trip_gzip(tmp_path):
    ds = fixture_dataset()
    img, lbl = tmp_path / "img.gz", tmp_path / "lbl.gz"
    write_idx(ds, img, lbl)
    back = load_idx(img, lbl)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_write_idx_rejects_out_of_range_features(tmp_path):
    bad = Dataset(np.array([[-0.5, 2.0]]), np.array([0]), 1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        write_idx(bad, tmp_path / "img", tmp_path / "lbl")


def test_idx_exact_fixture_bytes(tmp_path):
    # hand-crafted 2-image file: 2 images of 2x1 pixels
    img = tmp_path / "img"
    lbl = tmp_path / "lbl"
    img.write_bytes(struct.pack(">iiii", 2051, 2, 2, 1) + bytes([0, 255, 10, 20]))
    lbl.write_bytes(struct.pack(">ii", 2049, 2) + bytes([1, 0]))
    ds = load_idx(img, lbl)
    assert ds.features.shape == (2, 2)
    assert np.allclose(ds.features, np.array([[0, 1.0], [10 / 255, 20 / 255]]))
    assert list(ds.labels) == [1, 0]


def test_idx_magic_mismatch(tmp_path):
    img = tmp_path / "img"
    lbl = tmp_path / "lbl"
    img.write_bytes(struct.pack(">iiii", 2051, 1, 1, 1) + bytes([5]))
    # an images magic where labels are expected
    lbl.write_bytes(struct.pack(">ii", 2051, 1) + bytes([0]))
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx(img, lbl)


def test_idx_count_mismatch(tmp_path):
    img = tmp_path / "img"
    lbl = tmp_path / "lbl"
    img.write_bytes(struct.pack(">iiii", 2051, 2, 1, 1) + bytes([5, 6]))
    lbl.write_bytes(struct.pack(">ii", 2049, 1) + bytes([0]))
    with pytest.raises(IdxFormatError, match="items"):
        load_idx(img, lbl)


def test_idx_truncated(tmp_path):
    img = tmp_path / "img"
    lbl = tmp_path / "lbl"
    img.write_bytes(struct.pack(">iiii", 2051, 2, 2, 2) + bytes([1, 2, 3]))
    lbl.write_bytes(struct.pack(">ii", 2049, 2) + bytes([0, 1]))
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx(img, lbl)


def balanced_dataset(n_per_class=120, num_classes=10, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    feats = rng.random((len(labels), dim))
    return Dataset(feats, labels, num_classes)


def test_partition_protocol_shape():
    ds = balanced_dataset(n_per_class=400)
    shards = partition_shards(ds, 50, 2, 80, 0.2, seed=7)
    assert len(shards) == 50
    for s in shards:
        assert len(s.label_set) == 2
        assert len(s.train) + len(s.test) == 80
        assert len(s.test) == 16
        got = set(np.unique(s.train.labels)) | set(np.unique(s.test.labels))
        assert got <= s.label_set


def test_partition_no_duplicate_assignment():
    ds = balanced_dataset(n_per_class=400)
    shards = partition_shards(ds, 50, 2, 80, 0.2, seed=7)
    seen: set[bytes] = set()
    for s in shards:
        for feats in (s.train.features, s.test.features):
            for row in feats:
                key = row.tobytes()
                assert key not in seen
                seen.add(key)


def test_partition_deterministic():
    ds = balanced_dataset()
    a = partition_shards(ds, 20, 2, 40, 0.25, seed=11)
    b = partition_shards(ds, 20, 2, 40, 0.25, seed=11)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.train.features, sb.train.features)
        assert np.array_equal(sa.test.labels, sb.test.labels)
        assert sa.label_set == sb.label_set


def test_partition_single_client_all_labels():
    ds = balanced_dataset(n_per_class=20, num_classes=4)
    shards = partition_shards(ds, 1, 4, 40, 0.2, seed=3)
    assert len(shards) == 1
    s = shards[0]
    assert s.label_set == {0, 1, 2, 3}
    assert len(s.test) == 8 and len(s.train) == 32


def test_partition_infeasible_demand():
    ds = balanced_dataset(n_per_class=3, num_classes=2)
    with pytest.raises(ConfigurationError):
        partition_shards(ds, 10, 2, 50, 0.2, seed=0)


@settings(max_examples=60, deadline=None)
@given(
    num_classes=st.integers(2, 6),
    samples_per_class=st.integers(5, 80),
    n_clients=st.integers(1, 12),
    labels_per_client=st.integers(1, 3),
    samples_per_client=st.integers(1, 30),
    test_frac=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_partition_equal_train_sizes_and_ordered_ids(
    num_classes, samples_per_class, n_clients, labels_per_client, samples_per_client,
    test_frac, seed,
):
    # FedAvg's sample-count weights equal its agent-count weights only
    # because every client holds the same number of training samples
    ds = synthetic_dataset(num_classes, 2, samples_per_class, 5.0, seed=0)
    try:
        shards = partition_shards(
            ds, n_clients, labels_per_client, samples_per_client, test_frac, seed
        )
    except ConfigurationError:
        reject()
    assert [s.client_id for s in shards] == list(range(n_clients))
    assert len({len(s.train) for s in shards}) == 1


def test_partition_median_near_target():
    ds = balanced_dataset(n_per_class=400)
    shards = partition_shards(ds, 50, 2, 80, 0.2, seed=5)
    totals = [len(s.train) + len(s.test) for s in shards]
    assert abs(np.median(totals) - 80) <= 0.2 * 80


def test_partition_test_split_stratified():
    ds = balanced_dataset()
    shards = partition_shards(ds, 10, 2, 40, 0.2, seed=9)
    for s in shards:
        # 20 per label, 4 test each
        vals, counts = np.unique(s.test.labels, return_counts=True)
        assert len(vals) == 2
        assert all(c == 4 for c in counts)


def test_synthetic_balanced_and_deterministic():
    a = synthetic_dataset(3, 8, 10, 2.0, seed=4)
    b = synthetic_dataset(3, 8, 10, 2.0, seed=4)
    assert len(a) == 30
    assert np.array_equal(a.features, b.features)
    vals, counts = np.unique(a.labels, return_counts=True)
    assert list(vals) == [0, 1, 2] and all(c == 10 for c in counts)
    assert np.all(np.isfinite(a.features))


def test_synthetic_separable_limit_trains_to_full_accuracy():
    ds = synthetic_dataset(4, 8, 30, 40.0, seed=6)
    spec = ModelSpec(LOGISTIC, 8, 4)
    w = init_params(spec, 0)[None]
    local_solve(spec, w, [ds], [], 0.0, 60, 16, 0.1, [1])
    assert accuracy(spec, w[0], ds) == 1.0


def test_synthetic_argument_validation():
    with pytest.raises(ValueError):
        synthetic_dataset(1, 8, 10, 2.0, 0)
    with pytest.raises(ValueError):
        synthetic_dataset(3, 1, 10, 2.0, 0)
    with pytest.raises(ValueError):
        synthetic_dataset(3, 8, 0, 2.0, 0)
    with pytest.raises(ValueError):
        synthetic_dataset(3, 8, 10, 0.0, 0)


def _mnist_paths():
    from demlearn.training import resolve_idx_paths

    return resolve_idx_paths("data")


@pytest.mark.skipif(
    not all(map(__import__("os").path.exists, _mnist_paths())),
    reason="MNIST IDX files not present",
)
def test_load_real_mnist_headers():
    images, labels = _mnist_paths()
    ds = load_idx(images, labels)
    assert len(ds) == 60000
    assert ds.input_dim == 784
    assert ds.num_classes == 10


def test_concat_datasets():
    a = balanced_dataset(n_per_class=2, num_classes=2, seed=1)
    b = balanced_dataset(n_per_class=3, num_classes=2, seed=2)
    c = concat_datasets([a, b])
    assert len(c) == len(a) + len(b)
    assert np.array_equal(c.features[: len(a)], a.features)
    assert np.array_equal(c.labels[len(a) :], b.labels)
    with pytest.raises(ValueError):
        concat_datasets([a, balanced_dataset(num_classes=3, seed=3)])
    with pytest.raises(ValueError):
        concat_datasets([])
