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
from .models import Batch, ModelSpec, forward

_LOG_FLOOR = 1e-12


@dataclass
class RoundMetrics:
    t: int
    c_spe: float
    c_gen: float
    g_spe: tuple[float, ...]
    g_gen: tuple[float, ...]
    global_acc: float
    c_spe_loss: float
    c_gen_loss: float
    g_spe_loss: tuple[float, ...]
    g_gen_loss: tuple[float, ...]
    global_loss: float


def evaluate(spec: ModelSpec, w: np.ndarray, ds: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) in a single forward pass.

    Argmax ties resolve to the lowest class index.
    """
    probs = forward(spec, w, Batch(ds.features, ds.labels))
    preds = np.argmax(probs, axis=1)
    acc = float(np.mean(preds == ds.labels))
    picked = probs[np.arange(len(ds)), ds.labels]
    nll = float(-np.mean(np.log(np.maximum(picked, _LOG_FLOOR))))
    return acc, nll


def accuracy(spec: ModelSpec, w: np.ndarray, test: Dataset) -> float:
    return evaluate(spec, w, test)[0]


def c_spe(spec: ModelSpec, clients: Sequence) -> tuple[float, float]:
    """Mean over clients of their model's score on their own test shard."""
    pairs = [evaluate(spec, c.w0, c.shard.test) for c in clients]
    return _mean_pairs(pairs)


def c_gen(spec: ModelSpec, clients: Sequence, global_test: Dataset) -> tuple[float, float]:
    """Mean over clients of their model's score on the collective test set."""
    pairs = [evaluate(spec, c.w0, global_test) for c in clients]
    return _mean_pairs(pairs)


def g_metrics(
    spec: ModelSpec,
    tree: HierarchyTree,
    shards: Sequence[ClientShard],
    global_test: Dataset,
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Per-level group scores for levels 1..K-1 (the root is reported globally).

    Returns (g_spe, g_gen, g_spe_loss, g_gen_loss), each indexed by level-1.
    """
    by_id = {s.client_id: s for s in shards}
    spe_acc, gen_acc, spe_loss, gen_loss = [], [], [], []
    for level in range(1, tree.K):
        spe_pairs, gen_pairs = [], []
        for node in tree.levels[level]:
            member_test = concat_datasets([by_id[c].test for c in node.clients])
            spe_pairs.append(evaluate(spec, node.model, member_test))
            gen_pairs.append(evaluate(spec, node.model, global_test))
        sa, sl = _mean_pairs(spe_pairs)
        ga, gl = _mean_pairs(gen_pairs)
        spe_acc.append(sa)
        spe_loss.append(sl)
        gen_acc.append(ga)
        gen_loss.append(gl)
    return tuple(spe_acc), tuple(gen_acc), tuple(spe_loss), tuple(gen_loss)


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
    cs_acc, cs_loss = c_spe(spec, clients)
    cg_acc, cg_loss = c_gen(spec, clients, global_test)
    shards = [c.shard for c in clients]
    gs, gg, gsl, ggl = g_metrics(spec, tree, shards, global_test)
    ga, gl = evaluate(spec, tree.root.model, global_test)
    return RoundMetrics(
        t=t,
        c_spe=cs_acc,
        c_gen=cg_acc,
        g_spe=gs,
        g_gen=gg,
        global_acc=ga,
        c_spe_loss=cs_loss,
        c_gen_loss=cg_loss,
        g_spe_loss=gsl,
        g_gen_loss=ggl,
        global_loss=gl,
    )


def _mean_pairs(pairs: Sequence[tuple[float, float]]) -> tuple[float, float]:
    return (
        float(np.mean([p[0] for p in pairs])),
        float(np.mean([p[1] for p in pairs])),
    )
