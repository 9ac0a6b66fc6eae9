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
`models.local_solve` takes where each client trains.  A group of one child is that child's model bit for bit
(`propagate_up` scales it by 1.0), so it takes the child's counts; for the
other groups, G-SPE is one stacked predict of each member's group model on
the member's split, with the right labels summed per group, and G-GEN runs
the predicting group models of every level in one call, a model at a time
on the collective set, in `models.predict_block`'s chunks of samples.  Once
a run's `models.Helpers` have forked, they split G-GEN's rows among them
while the calling process evaluates the root and counts G-SPE.  `evaluate`
alone keeps the full softmax, for the cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .hierarchy import HierarchyTree
from .models import Helpers, ModelSpec, _right_counts, cross_entropy, forward


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


def g_metrics(
    spec: ModelSpec,
    tree: HierarchyTree,
    test: Dataset,
    union: Dataset,
    right: np.ndarray,
    helpers: Helpers | None = None,
    meanwhile=lambda: None,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-level group accuracies for levels 1..K-1 (the root is reported
    globally), given the clients' (C, 2) right counts `right` on their own
    splits and on the collective set `union`.

    A group's own data is its members' test splits: its right labels summed
    over them, divided by size * m, as on the splits joined.  A group of one
    child (a client at level 1) is that child's model bit for bit, so it
    takes the child's counts; only the other groups predict.  The
    predicting groups of every level are scored on `union` in one call.
    Where a `models.Helpers` set has forked for this spec and `test`, its
    helpers score them, in ranges of rows, on `test` read as one set, which
    `union` must then be, while this process runs `meanwhile()`, the
    caller's own work, and scores the members' splits; without the
    helpers, it does all three in turn.  Returns (g_spe, g_gen), each
    indexed by level-1.
    """
    levels = tree.levels[:-1]
    # each level's parent of each group below it, and its groups that predict
    parents, rests = [], []
    n_below, group = len(right), np.arange(len(right))  # the clients: one-member groups
    for level in levels:
        parent = np.empty(n_below, dtype=np.intp)
        parent[group] = level.group
        parents.append(parent)
        rests.append(np.bincount(parent, minlength=len(level.models)) != 1)
        n_below, group = len(level.models), level.group
    m, n = test.labels.shape[1], len(union)
    # each level's right labels of its predicting groups on their members' splits
    members = [np.empty(0, dtype=np.intp)] * len(levels)

    def own_part() -> None:  # `meanwhile()`, then each member's group model on its split
        meanwhile()
        for i, (level, rest) in enumerate(zip(levels, rests)):
            rows = np.flatnonzero(rest[level.group])
            if rows.size:
                own = Dataset(test.features[rows], test.labels[rows], test.num_classes)
                counts = _right_counts(spec, level.models[level.group[rows]], own)
                members[i] = np.bincount(level.group[rows], counts, len(level.models))[rest]

    sizes = [np.count_nonzero(rest) for rest in rests]
    block = np.concatenate([level.models[rest] for level, rest in zip(levels, rests)] or [np.empty((0, spec.param_count))])
    scores = None
    if len(block) and helpers is not None:
        scores = helpers.scores(spec, block, test, own_part)
    if scores is None:
        own_part()
        scores = _right_counts(spec, block, union) if len(block) else np.empty(0, dtype=np.intp)
    scores = np.split(scores, np.cumsum(sizes)[:-1])

    spe, gen = [], []
    below = right
    for level, parent, rest, level_members, level_scores in zip(levels, parents, rests, members, scores):
        groups = len(level.models)
        counts = np.empty((groups, 2), dtype=np.intp)
        copies = ~rest[parent]
        counts[parent[copies]] = below[copies]
        counts[rest, 0] = level_members
        counts[rest, 1] = level_scores
        size = np.bincount(level.group, minlength=groups)
        spe.append(float(np.mean(counts[:, 0] / (size * m))))
        gen.append(float(np.mean(counts[:, 1] / n)))
        below = counts
    return tuple(spe), tuple(gen)


def round_metrics(
    spec: ModelSpec,
    t: int,
    right: np.ndarray,
    test: Dataset,
    tree: HierarchyTree,
    helpers: Helpers | None = None,
) -> RoundMetrics:
    """Assemble the full metric record for one round from the (C, 2) counts
    of the labels each client's model gets right on its own split and on the
    collective set, as `models.local_solve` returns them; client i is row i
    of `right` and of the `test` stack.

    Group metrics cover levels 1..K-1 (none when K = 1), their collective
    scores split over the helpers of `helpers` where it has forked, and
    the global score comes from the root, on the collective test set,
    evaluated in this process meanwhile.
    """
    union = test.union()
    root = []  # the root's accuracy and loss, evaluated while the helpers score the groups
    g_spe, g_gen = g_metrics(spec, tree, test, union, right, helpers, lambda: root.extend(evaluate(spec, tree.root, union)))
    global_acc, global_loss = root
    return RoundMetrics(
        t=t,
        # exact counts over each denominator: the bits of np.mean, a lot sooner
        c_spe=float(np.mean(right[:, 0] / test.labels.shape[1])),
        c_gen=float(np.mean(right[:, 1] / len(union))),
        g_spe=g_spe,
        g_gen=g_gen,
        global_acc=global_acc,
        global_loss=global_loss,
    )
