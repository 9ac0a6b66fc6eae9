"""Per-round evaluation: client/group specialization and generalization.

Specialization is accuracy on a model's own constituency (a client's local
test split, or the union of a group's members' splits); generalization is
accuracy on the collective test data of all clients.  The root model's score
on the collective set is reported separately as the global metric.  Every
algorithm has a tree; FedAvg and FedProx have one level, so their group
series are empty and the root is their global model.

Every accuracy counts the right labels of `models.predict_block`, which
equals the argmax of the softmax bit for bit (ties to the lowest class
index) but finishes the softmax only on rows where a second class lies
within `models._TIE_MARGIN` of the max logit.  It cannot be a plain argmax
of the logits: the softmax rounds logits [0.15755812732057958,
-0.5968275940478756, 0.1575581273205796] to a tie that class 0 wins, where
the logits pick class 2.  The test splits are a (C, m) stack like the model
block, and the collective set is that stack read as one set.  C-SPE and
G-SPE are each one stacked predict, G-SPE of each client's group model on
the client's split, with the right labels summed per group.  C-GEN and
G-GEN run a model at a time on the collective set.  `evaluate` alone keeps
the full softmax, for the cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .hierarchy import HierarchyTree
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


def _right_counts(spec: ModelSpec, block: np.ndarray, data: Dataset) -> np.ndarray:
    """How many samples row i of `block` labels right, for every row: on set
    i of a stack, or on one shared set, counted a row at a time."""
    preds = predict_block(spec, block, data)
    if data.labels.ndim == 2:
        return np.count_nonzero(preds == data.labels, axis=1)
    return np.array([np.count_nonzero(p == data.labels) for p in preds])


def c_spe(spec: ModelSpec, block: np.ndarray, test: Dataset) -> float:
    """Mean over clients of their model (row of `block`) on their own test
    split (row of the `test` stack)."""
    # exact counts over the split's length: the bits of np.mean, a lot sooner
    return float(np.mean(_right_counts(spec, block, test) / test.labels.shape[1]))


def c_gen(spec: ModelSpec, block: np.ndarray, union: Dataset) -> float:
    """Mean over clients of their model (row of `block`) on the collective test set."""
    return float(np.mean(_right_counts(spec, block, union) / len(union)))


def g_metrics(
    spec: ModelSpec, tree: HierarchyTree, test: Dataset, union: Dataset
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-level group accuracies for levels 1..K-1 (the root is reported globally).

    A group's own data is its members' test splits: its right labels summed
    over them, divided by size * m, as on the splits joined.  Returns
    (g_spe, g_gen), each indexed by level-1.
    """
    spe, gen = [], []
    m = test.labels.shape[1]
    for level in tree.levels[:-1]:
        groups = len(level.models)
        right = _right_counts(spec, level.models[level.group], test)
        size = np.bincount(level.group, minlength=groups)
        spe.append(float(np.mean(np.bincount(level.group, right, groups) / (size * m))))
        gen.append(c_gen(spec, level.models, union))
    return tuple(spe), tuple(gen)


def round_metrics(
    spec: ModelSpec, t: int, block: np.ndarray, test: Dataset, tree: HierarchyTree
) -> RoundMetrics:
    """Assemble the full metric record for one round; client i is row i of
    `block` and of the `test` stack.

    Group metrics cover levels 1..K-1 (none when K = 1) and the global score
    comes from the root, on the collective test set.
    """
    union = test.union()
    g_spe, g_gen = g_metrics(spec, tree, test, union)
    global_acc, global_loss = evaluate(spec, tree.root, union)
    return RoundMetrics(
        t=t,
        c_spe=c_spe(spec, block, test),
        c_gen=c_gen(spec, block, union),
        g_spe=g_spe,
        g_gen=g_gen,
        global_acc=global_acc,
        global_loss=global_loss,
    )
