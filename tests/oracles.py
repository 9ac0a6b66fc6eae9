"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: plain loops, brute-force
recomputation, and finite differences.  `scalar_local_solve` is the
per-client SGD loop on 2-D arrays that the library's lockstep solver must
match row for row, bit for bit; the flat FedAvg loop runs on it.
"""

from __future__ import annotations

import numpy as np

from demlearn.models import LOGISTIC


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
        anchors = [(w_global, 1.0)]
        models = [
            scalar_local_solve(
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


# ------------------------------------------------ one client at a time
# The SGD loop and step kernels on one client's 2-D arrays, as the library
# ran them before its kernels took a leading client axis.  An anchor is a
# (model, coeff) pair.


def _scalar_views(spec, w):
    d, c = spec.input_dim, spec.num_classes
    if spec.kind == LOGISTIC:
        return w[: d * c].reshape(d, c), w[d * c :]
    h = spec.hidden_dim
    o = 0
    w1 = w[o : o + d * h].reshape(d, h)
    o += d * h
    b1 = w[o : o + h]
    o += h
    w2 = w[o : o + h * c].reshape(h, c)
    o += h * c
    return w1, b1, w2, w[o:]


def _scalar_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def scalar_grad(spec, w, x, y):
    """Gradient of one client's mean cross-entropy on (x, y), 2-D arrays."""
    b = x.shape[0]
    if spec.kind == LOGISTIC:
        wt, bias = _scalar_views(spec, w)
        probs, hidden = _scalar_softmax(x @ wt + bias), None
    else:
        w1, b1, w2, b2 = _scalar_views(spec, w)
        hidden = np.tanh(x @ w1 + b1)
        probs = _scalar_softmax(hidden @ w2 + b2)
    dlogits = probs.copy()
    dlogits[np.arange(b), y] -= 1.0
    dlogits /= b

    g = np.empty_like(w)
    d, c = spec.input_dim, spec.num_classes
    if spec.kind == LOGISTIC:
        g[: d * c] = (x.T @ dlogits).ravel()
        g[d * c :] = dlogits.sum(axis=0)
        return g
    h = spec.hidden_dim
    dw2 = hidden.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ w2.T
    dpre = dhidden * (1.0 - hidden * hidden)
    dw1 = x.T @ dpre
    db1 = dpre.sum(axis=0)
    o = 0
    g[o : o + d * h] = dw1.ravel()
    o += d * h
    g[o : o + h] = db1
    o += h
    g[o : o + h * c] = dw2.ravel()
    o += h * c
    g[o:] = db2
    return g


def scalar_prox_grad(spec, w, x, y, anchors, mu):
    """`scalar_grad` plus mu * coeff * (w - anchor) for each anchor in turn."""
    g = scalar_grad(spec, w, x, y)
    if mu == 0.0:
        return g
    for anchor, coeff in anchors:
        g += mu * coeff * (w - anchor)
    return g


def scalar_local_solve(spec, w_init, train, anchors, mu, epochs, batch_size, lr, rng):
    """One client's mini-batch SGD: reshuffle once per epoch, keep the
    trailing partial batch, step w -= lr * g."""
    w = np.array(w_init, dtype=np.float64)
    x, y = train.features, train.labels
    rng = np.random.default_rng(rng)
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            w -= lr * scalar_prox_grad(spec, w, x[idx], y[idx], anchors, mu)
    return w


def client_anchors(levels, i):
    """Client i's (model, coeff) anchors from a list of `AnchorLevel`s."""
    return [(level.models[level.group[i]], float(level.coeff[i])) for level in levels]
