"""Per-round evaluation: client/group specialization and generalization.

Specialization is accuracy on a model's own constituency (a client's local
test shard, or the union of a group's members' shards); generalization is
accuracy on the collective test data of all clients.  The root model's score
on the collective set is reported separately as the global metric.  Every
algorithm has a tree; FedAvg and FedProx have one level, so their group
series are empty and the root is their global model.

Every accuracy takes its labels from `models.predict_block`, which equals
the argmax of the softmax bit for bit (ties to the lowest class index) but
finishes the softmax only on rows where a second class lies within
`models._TIE_MARGIN` of the max logit.  It cannot be a plain argmax of the
logits: the softmax rounds logits [0.15755812732057958, -0.5968275940478756,
0.1575581273205796] to a tie that class 0 wins, where the logits pick
class 2.  Each metric checks a data set once, however many models it
scores, and `predict_block` stacks the models whose sets have equal length:
C-SPE is one stacked predict, since every client's test split has the same
length, while C-GEN scores its one shared set a model at a time.
`evaluate` alone keeps the full softmax, for the cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ClientShard, Dataset, concat_datasets
from .hierarchy import HierarchyTree, members
from .models import ModelSpec, cross_entropy, forward, predict_block


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


def _accuracies(spec: ModelSpec, block: np.ndarray, tests: Sequence[Dataset]) -> list[float]:
    """The share of `tests[i]` that row i of `block` labels right, for every
    row: `evaluate`'s accuracy without the softmax on the rows where one
    class clearly leads.  Each distinct test set is checked once, not once
    per row."""
    preds = predict_block(spec, block, tests)
    # an exact count over the set's length: the bits of np.mean, a lot sooner
    return [np.count_nonzero(p == test.labels) / len(p) for p, test in zip(preds, tests)]


def c_spe(spec: ModelSpec, block: np.ndarray, shards: Sequence[ClientShard]) -> float:
    """Mean over clients of their model (row of `block`) on their own test shard."""
    return float(np.mean(_accuracies(spec, block, [s.test for s in shards])))


def c_gen(spec: ModelSpec, block: np.ndarray, global_test: Dataset) -> float:
    """Mean over clients of their model (row of `block`) on the collective test set."""
    return float(np.mean(_accuracies(spec, block, [global_test] * len(block))))


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
    for level in tree.levels[:-1]:
        groups = members(level.group)
        group_tests = [concat_datasets([shards[c].test for c in clients]) for clients in groups]
        spe.append(float(np.mean(_accuracies(spec, level.models, group_tests))))
        gen.append(float(np.mean(_accuracies(spec, level.models, [global_test] * len(groups)))))
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
