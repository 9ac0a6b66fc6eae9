"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: plain loops, brute-force
recomputation, and finite differences.  The flat FedAvg loop reuses only the
client solver, `local_solve`.
"""

from __future__ import annotations

import numpy as np

from demlearn.models import ProxAnchor, local_solve


def central_diff(f, w: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate."""
    g = np.zeros_like(w)
    for i in range(len(w)):
        wp = w.copy()
        wm = w.copy()
        wp[i] += h
        wm[i] -= h
        g[i] = (f(wp) - f(wm)) / (2.0 * h)
    return g


def naive_euclidean(a, b) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return total**0.5


def naive_weighted_mean(models, counts) -> np.ndarray:
    total = float(sum(counts))
    out = np.zeros_like(models[0])
    for m, c in zip(models, counts):
        out += (c / total) * m
    return out


def brute_force_upgma(dm: np.ndarray):
    """Reference average-linkage clustering.

    Keeps explicit member lists and recomputes every cluster-cluster distance
    as the mean of all cross-pair leaf distances from the original matrix.
    Ties break on the lexicographically smallest (min_id, max_id).

    Returns a list of (left, right, height, new_id, size) tuples.
    """
    n = dm.shape[0]
    members = {i: [i] for i in range(n)}
    active = list(range(n))
    merges = []
    next_id = n
    while len(active) > 1:
        best = None
        for ii in range(len(active)):
            for jj in range(ii + 1, len(active)):
                a, b = active[ii], active[jj]
                lo, hi = min(a, b), max(a, b)
                dist = float(
                    np.mean([dm[p, q] for p in members[lo] for q in members[hi]])
                )
                cand = (dist, lo, hi)
                if best is None or cand < best:
                    best = cand
        dist, a, b = best
        members[next_id] = members[a] + members[b]
        merges.append((a, b, dist, next_id, len(members[next_id])))
        active = [c for c in active if c not in (a, b)]
        active.append(next_id)
        next_id += 1
    return merges


def leaf_weighted_mean(node, client_models) -> np.ndarray:
    """Direct mean over a group node's leaf descendants (each leaf counts once)."""
    models = [client_models[c] for c in node.clients]
    return naive_weighted_mean(models, [1] * len(models))


def plain_fedavg(spec, models, shards, rounds, mu, epochs, batch_size, lr, client_rng):
    """FedAvg (mu = 0) or FedProx as a flat loop, with no group tree.

    The global model is the training-sample-weighted mean of the client
    models, from the initial ones on.  Each round broadcasts it and solves
    every client against one proximal anchor of weight 1 at it.
    `client_rng(client_id, t)` gives a client's rng for round t.  Returns the
    final global model and the final client models.
    """
    counts = [len(s.train) for s in shards]
    w_global = naive_weighted_mean(models, counts)
    for t in range(rounds):
        anchors = [ProxAnchor(w_global, 1.0)]
        models = [
            local_solve(
                spec,
                w_global.copy(),
                s.train,
                anchors,
                mu,
                epochs,
                batch_size,
                lr,
                client_rng(s.client_id, t),
            )
            for s in shards
        ]
        w_global = naive_weighted_mean(models, counts)
    return w_global, models
