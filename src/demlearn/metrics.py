"""Per-round evaluation: client/group specialization and generalization.

Specialization is accuracy on a model's own constituency (a client's local
test split, or the union of a group's members' splits); generalization is
accuracy on the collective test data of all clients.  The root model's score
on the collective set is reported separately as the global metric.  Every
algorithm has a tree; FedAvg and FedProx have one level, so their group
series are empty and the root is their global model.

Every accuracy counts, with `models._right_counts`, the right labels of
`models.predict_block`, which equal the argmax of the softmax bit for bit
(ties to the lowest class index) but finish the softmax only on rows where
a second class lies within `models._TIE_MARGIN` of the max logit.  It
cannot be a plain argmax of the logits: the softmax rounds logits
[0.15755812732057958, -0.5968275940478756, 0.1575581273205796] to a tie
that class 0 wins, where the logits pick class 2.  The test splits are a
(C, m) stack like the model block, and the collective set is that stack
read as one set.  C-SPE and C-GEN come from the right counts that
`models.local_solve` takes where each client trains.  G-SPE is one stacked
predict per level of every client's group model on the client's split,
the right labels summed per group.  G-GEN runs each level's group models
in one call, a model at a time on the collective set, in
`models.predict_block`'s chunks of samples; a group of one child is that
child's model bit for bit (`propagate_up` scales it by 1.0), so there it
takes the child's count and does not predict.  `evaluate` alone keeps the
full softmax, for the cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .hierarchy import HierarchyTree
from .models import ModelSpec, _right_counts, cross_entropy, forward


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


def round_metrics(
    spec: ModelSpec,
    t: int,
    right: np.ndarray,
    test: Dataset,
    tree: HierarchyTree,
) -> RoundMetrics:
    """Assemble the full metric record for one round from the (C, 2) counts
    of the labels each client's model gets right on its own split and on the
    collective set, as `models.local_solve` returns them; client i is row i
    of `right` and of the `test` stack.

    Group metrics cover levels 1..K-1 (none when K = 1).  A group's own data
    is its members' test splits: its right labels summed over them, divided
    by size * m, as on the splits joined.
    """
    union = test.union()
    m, g_spe, g_gen = test.labels.shape[1], [], []
    global_acc, global_loss = evaluate(spec, tree.root, union)
    # each client's group one level down and its count: at first the
    # client's own model's
    group, below = np.arange(len(right)), right[:, 1]
    for level in tree.levels[:-1]:
        groups = len(level.models)
        own = np.bincount(level.group, _right_counts(spec, level.models[level.group], test), groups)
        g_spe.append(float(np.mean(own / (np.bincount(level.group, minlength=groups) * m))))
        counts = np.empty(groups, dtype=np.intp)
        counts[level.group] = below  # right for a group of one child, whose members all share its count
        first = np.unique(group, return_index=True)[1]  # a client of each child group
        rest = np.bincount(level.group[first], minlength=groups) != 1  # the groups of more than one child
        if rest.any():
            counts[rest] = _right_counts(spec, level.models[rest], union)
        g_gen.append(float(np.mean(counts / len(union))))
        group, below = level.group, counts[level.group]
    return RoundMetrics(
        t=t,
        # exact counts over each denominator: the bits of np.mean, a lot sooner
        c_spe=float(np.mean(right[:, 0] / m)),
        c_gen=float(np.mean(right[:, 1] / len(union))),
        g_spe=tuple(g_spe),
        g_gen=tuple(g_gen),
        global_acc=global_acc,
        global_loss=global_loss,
    )
