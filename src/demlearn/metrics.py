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


def c_spe(spec: ModelSpec, clients: Sequence) -> float:
    """Mean over clients of their model's accuracy on their own test shard."""
    return float(np.mean([accuracy(spec, c.w0, c.shard.test) for c in clients]))


def c_gen(spec: ModelSpec, clients: Sequence, global_test: Dataset) -> float:
    """Mean over clients of their model's accuracy on the collective test set."""
    return float(np.mean([accuracy(spec, c.w0, global_test) for c in clients]))


def g_metrics(
    spec: ModelSpec,
    tree: HierarchyTree,
    shards: Sequence[ClientShard],
    global_test: Dataset,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-level group accuracies for levels 1..K-1 (the root is reported globally).

    Returns (g_spe, g_gen), each indexed by level-1.
    """
    by_id = {s.client_id: s for s in shards}
    spe, gen = [], []
    for level in range(1, tree.K):
        spe_accs, gen_accs = [], []
        for node in tree.levels[level]:
            member_test = concat_datasets([by_id[c].test for c in node.clients])
            spe_accs.append(accuracy(spec, node.model, member_test))
            gen_accs.append(accuracy(spec, node.model, global_test))
        spe.append(float(np.mean(spe_accs)))
        gen.append(float(np.mean(gen_accs)))
    return tuple(spe), tuple(gen)


def round_metrics(
    spec: ModelSpec,
    t: int,
    clients: Sequence,
    global_test: Dataset,
    tree: HierarchyTree,
) -> RoundMetrics:
    """Assemble the full metric record for one round.

    Group metrics cover levels 1..K-1 (none when K = 1) and the global score
    comes from the root.
    """
    cs = c_spe(spec, clients)
    cg = c_gen(spec, clients, global_test)
    g_spe, g_gen = g_metrics(spec, tree, [c.shard for c in clients], global_test)
    global_acc, global_loss = evaluate(spec, tree.root.model, global_test)
    return RoundMetrics(
        t=t,
        c_spe=cs,
        c_gen=cg,
        g_spe=g_spe,
        g_gen=g_gen,
        global_acc=global_acc,
        global_loss=global_loss,
    )
