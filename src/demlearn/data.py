"""Dataset ingestion and the non-iid label-shard partition.

Covers three concerns: bit-exact IDX file IO (big-endian, optional gzip by
extension), the few-labels-per-client shard partition with per-client
train/test splits, and a synthetic Gaussian-blob dataset for network-free
runs.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


class IdxFormatError(ValueError):
    """Malformed IDX input: wrong magic, inconsistent counts, or bad size."""


class ConfigurationError(ValueError):
    """A configuration that no run can use: a bad config value or key, a
    combination of values that rules out a stable run, or a partition that
    the dataset cannot satisfy.  The CLI exits 1 on it."""


@dataclass
class Dataset:
    """Feature matrix (N x input_dim) with integer labels.

    IDX-loaded pixel data lives in [0,1]; synthetic blob features keep their
    natural Gaussian scale.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class ClientShard:
    """One client's slice of the corpus, already split into train and test."""

    client_id: int
    train: Dataset
    test: Dataset


def _read_bytes(path) -> bytes:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as f:
        return f.read()


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset with pixels in [0,1]."""
    raw_img = _read_bytes(images_path)
    if len(raw_img) < 16:
        raise IdxFormatError(f"image file {images_path} truncated: no header")
    magic, n, rows, cols = struct.unpack(">iiii", raw_img[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(
            f"image file {images_path} has magic {magic}, expected {IDX_IMAGE_MAGIC}"
        )
    expected = n * rows * cols
    body = raw_img[16:]
    if len(body) < expected:
        raise IdxFormatError(
            f"image file {images_path} truncated: {len(body)} payload bytes, expected {expected}"
        )
    if len(body) > expected:
        raise IdxFormatError(
            f"image file {images_path} has {len(body) - expected} trailing bytes"
        )

    raw_lbl = _read_bytes(labels_path)
    if len(raw_lbl) < 8:
        raise IdxFormatError(f"label file {labels_path} truncated: no header")
    lmagic, ln = struct.unpack(">ii", raw_lbl[:8])
    if lmagic != IDX_LABEL_MAGIC:
        raise IdxFormatError(
            f"label file {labels_path} has magic {lmagic}, expected {IDX_LABEL_MAGIC}"
        )
    lbody = raw_lbl[8:]
    if len(lbody) < ln:
        raise IdxFormatError(
            f"label file {labels_path} truncated: {len(lbody)} payload bytes, expected {ln}"
        )
    if len(lbody) > ln:
        raise IdxFormatError(
            f"label file {labels_path} has {len(lbody) - ln} trailing bytes"
        )
    if n != ln:
        raise IdxFormatError(
            f"image file holds {n} items but label file holds {ln}"
        )

    features = np.frombuffer(body, dtype=np.uint8).astype(np.float64) / 255.0
    features = features.reshape(n, rows * cols)
    labels = np.frombuffer(lbody, dtype=np.uint8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if n else 0
    return Dataset(features, labels, num_classes)


def concat_datasets(parts: Sequence[Dataset]) -> Dataset:
    if not parts:
        raise ValueError("cannot concatenate zero datasets")
    num_classes = parts[0].num_classes
    if any(p.num_classes != num_classes for p in parts):
        raise ValueError("datasets disagree on num_classes")
    features = np.concatenate([p.features for p in parts], axis=0)
    labels = np.concatenate([p.labels for p in parts], axis=0)
    return Dataset(features, labels, num_classes)


def _take(ds: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(ds.features[idx], ds.labels[idx], ds.num_classes)


def _repair_duplicate_labels(
    assignment: list[list[int]], shard_labels: list[int]
) -> None:
    """Swap shards between clients so label sets are distinct where possible.

    Random dealing occasionally hands a client two shards of the same label;
    a deterministic greedy pass trades one of them to another client whose
    own label set stays duplicate-free.  Best effort: an impossible demand
    (e.g. labels_per_client > num_classes) is left as dealt.
    """
    for cid, shard_ids in enumerate(assignment):
        labels = [shard_labels[s] for s in shard_ids]
        for slot in range(len(shard_ids)):
            if labels.count(labels[slot]) <= 1:
                continue
            for other in range(len(assignment)):
                if other == cid:
                    continue
                other_ids = assignment[other]
                other_labels = [shard_labels[s] for s in other_ids]
                for oslot in range(len(other_ids)):
                    cand = other_labels[oslot]
                    if cand in labels:
                        continue
                    rest = other_labels[:oslot] + other_labels[oslot + 1 :]
                    if labels[slot] in rest:
                        continue
                    shard_ids[slot], other_ids[oslot] = other_ids[oslot], shard_ids[slot]
                    labels[slot] = cand
                    break
                else:
                    continue
                break


def partition_shards(
    ds: Dataset,
    n_clients: int,
    labels_per_client: int,
    samples_per_client_target: int,
    test_frac: float,
    seed,
) -> list[ClientShard]:
    """Deal single-label shards to clients and split each client 80/20-style.

    Samples are label-sorted (stable) and cut into pure single-label shards of
    size N // (n_clients * labels_per_client); each client receives
    labels_per_client shards by seeded shuffle and draws an equal portion of
    its target from each.  Unused samples are discarded.  The test split is
    stratified per label.
    """
    if n_clients < 1:
        raise ConfigurationError("n_clients must be at least 1")
    if labels_per_client < 1:
        raise ConfigurationError("labels_per_client must be at least 1")
    if samples_per_client_target < 1:
        raise ConfigurationError("samples_per_client_target must be at least 1")
    if not 0.0 < test_frac < 1.0:
        raise ConfigurationError("test_frac must lie strictly between 0 and 1")

    rng = np.random.default_rng(seed)
    n_shards_needed = n_clients * labels_per_client
    if len(ds) < n_shards_needed:
        raise ConfigurationError(
            f"dataset of {len(ds)} samples cannot supply {n_shards_needed} shards"
        )

    order = np.argsort(ds.labels, kind="stable")
    sorted_labels = ds.labels[order]
    per_label = [order[sorted_labels == lbl] for lbl in range(ds.num_classes)]

    # largest equal shard size whose pure-label cut still yields enough shards
    shard_size = len(ds) // n_shards_needed
    while shard_size > 0 and sum(len(p) // shard_size for p in per_label) < n_shards_needed:
        shard_size -= 1
    if shard_size == 0:
        raise ConfigurationError(
            f"label distribution cannot be cut into {n_shards_needed} single-label shards "
            f"(short by {n_shards_needed - sum(len(p) > 0 for p in per_label)} even at size 1)"
        )

    shards: list[np.ndarray] = []
    shard_labels: list[int] = []
    for lbl, idx in enumerate(per_label):
        for j in range(len(idx) // shard_size):
            shards.append(idx[j * shard_size : (j + 1) * shard_size])
            shard_labels.append(lbl)

    base = samples_per_client_target // labels_per_client
    draws = [
        base + (1 if j < samples_per_client_target % labels_per_client else 0)
        for j in range(labels_per_client)
    ]
    if max(draws) > shard_size:
        raise ConfigurationError(
            f"per-shard draw of {max(draws)} exceeds shard size {shard_size} "
            f"(short by {max(draws) - shard_size} samples per shard)"
        )

    deal = rng.permutation(len(shards))
    assignment = [
        list(deal[i * labels_per_client : (i + 1) * labels_per_client])
        for i in range(n_clients)
    ]
    _repair_duplicate_labels(assignment, shard_labels)

    out: list[ClientShard] = []
    for cid, shard_ids in enumerate(assignment):
        train_idx: list[np.ndarray] = []
        test_idx: list[np.ndarray] = []
        for shard_id, draw in zip(shard_ids, draws):
            picks = rng.permutation(shards[shard_id])[:draw]
            n_test = int(round(test_frac * draw))
            n_test = min(n_test, draw - 1)  # keep at least one training sample
            test_idx.append(picks[:n_test])
            train_idx.append(picks[n_test:])
        if not sum(map(len, test_idx)):
            raise ConfigurationError(
                f"client {cid} gets no test samples: per-label draws of {draws} "
                f"at test_frac={test_frac} each round to 0 test samples"
            )
        train = _take(ds, np.concatenate(train_idx))
        test = _take(ds, np.concatenate(test_idx))
        out.append(ClientShard(cid, train, test))
    return out


_BLOB_GAIN = 3.0  # post-mixing feature scale; keeps SGD steps effective at small lr


def synthetic_dataset(
    num_classes: int,
    input_dim: int,
    samples_per_class: int,
    class_separation: float,
    seed,
) -> Dataset:
    """Balanced Gaussian blobs on a latent circle, observed through a fixed
    saturating random mixing.

    Class c is centered at radius class_separation, angle 2*pi*c/num_classes,
    in a 2-D latent space with unit noise; the observation is
    tanh(latent @ P) scaled by a constant gain, with P a seed-fixed random
    projection into input_dim dimensions.  Neighboring classes overlap (so
    per-client data keeps a gradient signal) and all classes share the
    low-dimensional manifold (so overfitting a label pair visibly degrades
    the others, as with natural image data).
    """
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    if input_dim < 2:
        raise ValueError("input_dim must be at least 2")
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be positive")
    if not 0.0 < class_separation < np.inf:  # NaN fails both comparisons
        raise ValueError(f"class_separation must be positive and finite, got {class_separation}")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    angles = 2.0 * np.pi * labels / num_classes
    latent = np.stack(
        [class_separation * np.cos(angles), class_separation * np.sin(angles)], axis=1
    )
    latent = latent + rng.standard_normal((len(labels), 2))
    mixing = rng.standard_normal((2, input_dim)) / np.sqrt(2.0)
    features = np.tanh(latent @ mixing) * _BLOB_GAIN
    return Dataset(features, labels, num_classes)
