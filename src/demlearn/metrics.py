"""Per-round evaluation: client/group specialization and generalization.

Specialization is accuracy on a model's own constituency (a client's local
test shard, or the union of a group's members' shards); generalization is
accuracy on the collective test data of all clients.  The root model's score
on the collective set is reported separately as the global metric.  Every
algorithm has a tree; FedAvg and FedProx have one level, so their group
series are empty and the root is their global model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ClientShard, Dataset, concat_datasets
from .hierarchy import HierarchyTree
from .models import ModelSpec, cross_entropy, forward


@dataclass
class RoundMetrics:
    t: int
    c_spe: float
    c_gen: float
    g_spe: tuple[float, ...]
    g_gen: tuple[float, ...]
    global_acc: float
    global_loss: float


def evaluate(spec: ModelSpec, w: np.ndarray, ds: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) in a single forward pass.

    Argmax ties resolve to the lowest class index.
    """
    probs = forward(spec, w, ds)
    preds = np.argmax(probs, axis=1)
    acc = float(np.mean(preds == ds.labels))
    return acc, cross_entropy(probs, ds.labels)


def accuracy(spec: ModelSpec, w: np.ndarray, test: Dataset) -> float:
    """`evaluate`'s accuracy without its cross-entropy.  The argmax stays on
    the softmax, not the logits: rounding can tie two probabilities whose
    logits differ, and the tie goes to the lowest class index."""
    return float(np.mean(np.argmax(forward(spec, w, test), axis=1) == test.labels))


def c_spe(spec: ModelSpec, block: np.ndarray, shards: Sequence[ClientShard]) -> float:
    """Mean over clients of their model (row of `block`) on their own test shard."""
    return float(np.mean([accuracy(spec, w, s.test) for w, s in zip(block, shards, strict=True)]))


def c_gen(spec: ModelSpec, block: np.ndarray, global_test: Dataset) -> float:
    """Mean over clients of their model (row of `block`) on the collective test set."""
    return float(np.mean([accuracy(spec, w, global_test) for w in block]))


def g_metrics(
    spec: ModelSpec,
    tree: HierarchyTree,
    shards: Sequence[ClientShard],
    global_test: Dataset,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-level group accuracies for levels 1..K-1 (the root is reported globally).

    Returns (g_spe, g_gen), each indexed by level-1.
    """
    spe, gen = [], []
    for level, members in zip(tree.levels[:-1], tree.members):
        spe_accs, gen_accs = [], []
        for model, clients in zip(level.models, members):
            member_test = concat_datasets([shards[c].test for c in clients])
            spe_accs.append(accuracy(spec, model, member_test))
            gen_accs.append(accuracy(spec, model, global_test))
        spe.append(float(np.mean(spe_accs)))
        gen.append(float(np.mean(gen_accs)))
    return tuple(spe), tuple(gen)


def round_metrics(
    spec: ModelSpec,
    t: int,
    block: np.ndarray,
    shards: Sequence[ClientShard],
    global_test: Dataset,
    tree: HierarchyTree,
) -> RoundMetrics:
    """Assemble the full metric record for one round; client i is row i of
    `block` with shard `shards[i]`.

    Group metrics cover levels 1..K-1 (none when K = 1) and the global score
    comes from the root.
    """
    g_spe, g_gen = g_metrics(spec, tree, shards, global_test)
    global_acc, global_loss = evaluate(spec, tree.root, global_test)
    return RoundMetrics(
        t=t,
        c_spe=c_spe(spec, block, shards),
        c_gen=c_gen(spec, block, global_test),
        g_spe=g_spe,
        g_gen=g_gen,
        global_acc=global_acc,
        global_loss=global_loss,
    )
