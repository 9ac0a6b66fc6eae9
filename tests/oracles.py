"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: plain loops, brute-force
recomputation, and finite differences.  `loss` and `prox_objective` are
the objectives whose gradients the step kernels must match by finite
differences.  `scalar_local_solve` is the per-client SGD loop on 2-D arrays
that the library's lockstep solver must match row for row, bit for bit; the
flat FedAvg loop runs on it.  Its proximal pull is folded as the library
folds it, into s * w - A (`scalar_fold`); `scalar_pull_solve` is the same
loop on a pull already folded, which a round-loop test runs whole runs with
in place of the solver.  `levelwise_pull` adds mu * coeff * (w - anchor) one
level at a time, which the folded pull must equal to a few ulps.
`pairwise_distance_matrix` and `dict_upgma` are the one-pair-at-a-time
server side that the vectorised distances and matrix UPGMA must equal.
`frontier_cut` and `recursive_format_dendrogram` walk the merge children
node by node; the label-array cut and the one-pass text must equal them, and
`labels_of` turns such group lists into the label array `build_tree` takes.
`node_tree` and its queries are the group tree as a graph of nodes, one
client at a time, that the library's per-level arrays must equal; its
`group_average` is the count-weighted mean of one group's children.
`softmax_predict` is the argmax of the full softmax, which `predict_block`
must equal without computing it on most rows; `softmax_round_metrics` builds
a round's metrics on it, one model and one data set at a time, and
`concat_group_metrics` scores each group model on its members' test splits
joined by `concat_datasets`, where the library counts per member.
`client_sets` splits a stack of sets into one `Dataset` per client.
"""

from __future__ import annotations

import numpy as np

from demlearn.data import Dataset
from demlearn.metrics import RoundMetrics
from demlearn.models import LOGISTIC, cross_entropy, forward


def concat_datasets(parts) -> Dataset:
    """The sets one after another, as one set."""
    if not parts:
        raise ValueError("cannot concatenate zero datasets")
    num_classes = parts[0].num_classes
    if any(p.num_classes != num_classes for p in parts):
        raise ValueError("datasets disagree on num_classes")
    features = np.concatenate([p.features for p in parts], axis=0)
    labels = np.concatenate([p.labels for p in parts], axis=0)
    return Dataset(features, labels, num_classes)


def client_sets(stack) -> list[Dataset]:
    """Set i of a (C, N, d) stack as its own (N, d) `Dataset`, for each i."""
    return [Dataset(x, y, stack.num_classes) for x, y in zip(stack.features, stack.labels)]


def softmax_predict(spec, w, data) -> np.ndarray:
    """Each sample's class: the argmax of its softmax row, lowest index on ties."""
    return np.argmax(forward(spec, w, data), axis=1)


def _softmax_accuracy(spec, w, ds) -> float:
    return float(np.mean(softmax_predict(spec, w, ds) == ds.labels))


def concat_group_metrics(spec, tree, tests, union):
    """(g_spe, g_gen) for levels 1..K-1: each group model on the concatenation
    of its members' test sets `tests[c]` and on `union`, a group at a time."""
    g_spe, g_gen = [], []
    for level in tree.levels[:-1]:
        groups = [np.flatnonzero(level.group == g) for g in range(len(level.models))]
        own = [concat_datasets([tests[c] for c in clients]) for clients in groups]
        g_spe.append(float(np.mean([_softmax_accuracy(spec, w, ds) for w, ds in zip(level.models, own)])))
        g_gen.append(float(np.mean([_softmax_accuracy(spec, w, union) for w in level.models])))
    return tuple(g_spe), tuple(g_gen)


def softmax_round_metrics(spec, t, block, test, tree) -> RoundMetrics:
    """A round's metrics with every accuracy taken from `softmax_predict`, on
    the stack `test` split into its clients' sets."""
    tests = client_sets(test)
    union = concat_datasets(tests)
    g_spe, g_gen = concat_group_metrics(spec, tree, tests, union)
    probs = forward(spec, tree.root, union)
    picked = probs[np.arange(len(union)), union.labels]
    return RoundMetrics(
        t=t,
        c_spe=float(np.mean([_softmax_accuracy(spec, w, ds) for w, ds in zip(block, tests)])),
        c_gen=float(np.mean([_softmax_accuracy(spec, w, union) for w in block])),
        g_spe=g_spe,
        g_gen=g_gen,
        global_acc=_softmax_accuracy(spec, tree.root, union),
        global_loss=float(-np.mean(np.log(np.maximum(picked, 1e-12)))),
    )


def loss(spec, w, data) -> float:
    """Mean cross-entropy of one model over a data set."""
    return cross_entropy(forward(spec, w, data), data.labels)


def prox_objective(spec, w, trains, levels, mu) -> np.ndarray:
    """Per client i of the (C, M) block: loss(w[i]) +
    (mu/2) * sum_levels coeff[i] * ||w[i] - models[group[i]]||^2."""
    values = np.array([loss(spec, wi, data) for wi, data in zip(w, trains, strict=True)])
    for i, wi in enumerate(w):
        penalty = 0.0
        for anchor, coeff in client_anchors(levels, i):
            diff = wi - anchor
            penalty += coeff * float(diff @ diff)
        values[i] += 0.5 * mu * penalty
    return values


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


def plain_fedavg(spec, models, train, rounds, mu, epochs, batch_size, lr, client_rng):
    """FedAvg (mu = 0) or FedProx as a flat loop, with no group tree.

    The global model is the training-sample-weighted mean of the client
    models, from the initial ones on.  Each round broadcasts it and solves
    every client against one proximal anchor of weight 1 at it, client i on
    set i of the stack `train`.  `client_rng(client_id, t)` gives a client's
    rng for round t.  Returns the final global model and the final client
    models.
    """
    trains = client_sets(train)
    counts = [len(ds) for ds in trains]
    w_global = naive_weighted_mean(models, counts)
    for t in range(rounds):
        anchors = [(w_global, 1.0)]
        models = [
            scalar_local_solve(
                spec,
                w_global.copy(),
                ds,
                anchors,
                mu,
                epochs,
                batch_size,
                lr,
                client_rng(cid, t),
            )
            for cid, ds in enumerate(trains)
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


def scalar_fold(anchors, mu):
    """One client's pull target (s, A): with m = mu * coeff per anchor,
    s = sum m and A = sum m * anchor, each added in the order given."""
    (anchor, coeff), *rest = anchors
    s = mu * coeff
    target = anchor * s
    for anchor, coeff in rest:
        m = mu * coeff
        s += m
        target += anchor * m
    return s, target


def levelwise_pull(w, anchors, mu):
    """The pull sum of mu * coeff * (w - anchor), added one anchor at a
    time: the unfolded sum that the folded pull must equal to a few ulps."""
    pull = np.zeros_like(w)
    for anchor, coeff in anchors:
        pull += mu * coeff * (w - anchor)
    return pull


def scalar_prox_grad(spec, w, x, y, pull):
    """`scalar_grad` plus the folded pull s * w - A of `pull` = (s, A)."""
    g = scalar_grad(spec, w, x, y)
    if pull is None:
        return g
    s, target = pull
    g += w * s - target
    return g


def scalar_local_solve(spec, w_init, train, anchors, mu, epochs, batch_size, lr, rng):
    """One client's mini-batch SGD: reshuffle once per epoch, keep the
    trailing partial batch, step w -= lr * g."""
    pull = scalar_fold(anchors, mu) if mu != 0.0 and anchors else None
    return scalar_pull_solve(spec, w_init, train, pull, epochs, batch_size, lr, rng)


def scalar_pull_solve(spec, w_init, train, pull, epochs, batch_size, lr, rng):
    """`scalar_local_solve` on the client's folded pull (s, A), or None."""
    w = np.array(w_init, dtype=np.float64)
    x, y = train.features, train.labels
    rng = np.random.default_rng(rng)
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            w -= lr * scalar_prox_grad(spec, w, x[idx], y[idx], pull)
    return w


def client_anchors(levels, i):
    """Client i's (model, coeff) anchors from a list of `AnchorLevel`s."""
    return [(level.models[level.group[i]], float(level.coeff[i])) for level in levels]


# ------------------------------------------------ server-side clustering
# The pair loop and the dict-of-pairs UPGMA that the library's vectorised
# distances and matrix UPGMA must equal bit for bit.


def weight_distance(w_a, w_b) -> float:
    """Euclidean distance between two flat parameter vectors."""
    if w_a.shape != w_b.shape:
        raise ValueError(f"length mismatch: {w_a.shape} vs {w_b.shape}")
    return float(np.linalg.norm(w_a - w_b))


def gradient_similarity(g_a, g_b) -> float:
    """Cosine of the angle between two update directions."""
    if g_a.shape != g_b.shape:
        raise ValueError(f"length mismatch: {g_a.shape} vs {g_b.shape}")
    na = float(np.linalg.norm(g_a))
    nb = float(np.linalg.norm(g_b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for a zero-norm vector")
    return float(g_a @ g_b) / (na * nb)


def pairwise_distance_matrix(x, metric) -> np.ndarray:
    """Distance matrix between the rows of `x`, filled one pair at a time:
    Euclidean for "weights", 1 - cosine for "gradients"."""
    n = len(x)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if metric == "weights":
                val = weight_distance(x[i], x[j])
            else:
                val = 1.0 - gradient_similarity(x[i], x[j])
            d[i, j] = d[j, i] = val
    return d


def dict_upgma(d):
    """UPGMA by the Lance-Williams update over a dict of id pairs.

    Reads only the upper triangle.  Each step scans every active pair for the
    smallest (distance, min_id, max_id) and merges it.  Returns a list of
    (left, right, height, new_id, size) tuples.
    """
    n = d.shape[0]
    dist = {(i, j): float(d[i, j]) for i in range(n) for j in range(i + 1, n)}
    sizes = {i: 1 for i in range(n)}
    active = list(range(n))
    merges = []
    next_id = n
    while len(active) > 1:
        best = None
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                i, j = active[ai], active[aj]
                key = (min(i, j), max(i, j))
                cand = (dist[key], key[0], key[1])
                if best is None or cand < best:
                    best = cand
        h, i, j = best
        size = sizes[i] + sizes[j]
        merges.append((i, j, h, next_id, size))
        for c in active:
            if c in (i, j):
                continue
            dic = dist[(min(i, c), max(i, c))]
            djc = dist[(min(j, c), max(j, c))]
            dist[(min(next_id, c), max(next_id, c))] = (sizes[i] * dic + sizes[j] * djc) / size
        active = [c for c in active if c not in (i, j)]
        active.append(next_id)
        sizes[next_id] = size
        next_id += 1
    return merges


# ------------------------------------------------ the dendrogram cut as lists
# The cut as the library made it before it returned label arrays: a frontier
# walk that lists each level's groups as member lists, with a fresh walk down
# the merge children for every node's leaves.


def _merge_children(dend):
    return {m.new_id: (m.left, m.right) for m in dend.merges}


def walk_leaves(dend, node):
    """Leaf ids under a node, ascending."""
    kids = _merge_children(dend)
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        if node < dend.n_leaves:
            out.append(node)
        else:
            stack.extend(kids[node])
    return sorted(out)


def frontier_cut(dend, K):
    """`{level: [members of each group]}` for levels 1..K.  The root is the
    one level-K group; each level down expands every internal frontier node
    into its two merge children, and a leaf stays a group of its own."""
    kids = _merge_children(dend)
    frontier, groups = [dend.root_id], {}
    for level in range(K, 0, -1):
        groups[level] = [walk_leaves(dend, node) for node in frontier]
        nxt = []
        for node in frontier:
            nxt.extend([node] if node < dend.n_leaves else kids[node])
        frontier = nxt
    return groups


def recursive_format_dendrogram(dend) -> str:
    """The dendrogram text by recursion from the root, left child first."""
    kids = _merge_children(dend)
    heights = {m.new_id: m.height for m in dend.merges}
    lines = [f"dendrogram leaves={dend.n_leaves}"]

    def visit(node, indent):
        pad = "  " * indent
        if node < dend.n_leaves:
            lines.append(f"{pad}leaf id={node}")
            return
        members = ",".join(str(c) for c in walk_leaves(dend, node))
        lines.append(f"{pad}node id={node} height={heights[node]!r} members=[{members}]")
        left, right = kids[node]
        visit(left, indent + 1)
        visit(right, indent + 1)

    visit(dend.root_id, 0)
    return "\n".join(lines) + "\n"


def labels_of(groups):
    """The (K, C) label array of `{level: [members of each group]}` for
    levels 1..K, where every level lists each client 0..C-1 once: row k - 1
    holds each client's place in the level-k list."""
    K = max(groups)
    n = sum(len(members) for members in groups[K])
    labels = np.empty((K, n), dtype=np.intp)
    for level, gs in groups.items():
        assert sorted(c for members in gs for c in members) == list(range(n)), level
        for g, members in enumerate(gs):
            labels[level - 1, members] = g
    return labels


# ------------------------------------------------ the group tree as nodes
# The tree as the library built it before its levels became `AnchorLevel`s:
# a graph of group nodes and each client's path of ancestors, with client
# models keyed by id.


class GroupNode:
    """One group at one level; children are GroupNodes, or client ids at level 1."""

    def __init__(self, level, clients, children):
        self.level = level
        self.member_count = len(clients)
        self.clients = clients
        self.children = children
        self.model = None


class NodeTree:
    def __init__(self, K, levels):
        self.K = K
        self.levels = levels  # level -> [GroupNode]
        self.root = levels[K][0]
        self.paths = {}  # client id -> ancestor nodes for levels 1..K
        for level in range(1, K + 1):
            for node in levels[level]:
                for cid in node.clients:
                    self.paths.setdefault(cid, [None] * K)[level - 1] = node


def group_average(children_models, children_counts) -> np.ndarray:
    """Count-weighted mean; weights are normalized first so they sum to 1,
    and the children are added one at a time in the order given."""
    if len(children_models) == 0:
        raise ValueError("cannot average an empty children list")
    if len(children_models) != len(children_counts):
        raise ValueError("models and counts differ in length")
    shape = children_models[0].shape
    for m in children_models:
        if m.shape != shape:
            raise ValueError("children models differ in length")
    counts = np.asarray(children_counts, dtype=np.float64)
    if np.any(counts < 1):
        raise ValueError("member counts must be at least 1")
    weights = counts / counts.sum()
    acc = children_models[0] * weights[0]
    for m, w in zip(children_models[1:], weights[1:]):
        acc += m * w
    return acc


def node_tree(groups, client_models) -> NodeTree:
    """Build the node graph of a laminar `{level: [members of each group]}`
    for levels 1..K and average it up."""
    K = max(groups)
    levels = {1: [GroupNode(1, sorted(m), sorted(m)) for m in groups[1]]}
    for level in range(2, K + 1):
        group_of = {c: gi for gi, members in enumerate(groups[level - 1]) for c in members}
        levels[level] = []
        for members in groups[level]:
            kids = sorted({group_of[c] for c in members})
            levels[level].append(
                GroupNode(level, sorted(members), [levels[level - 1][gi] for gi in kids])
            )
    tree = NodeTree(K, levels)
    node_propagate_up(tree, client_models)
    return tree


def node_propagate_up(tree, client_models) -> None:
    for node in tree.levels[1]:
        models = [client_models[cid] for cid in node.children]
        node.model = group_average(models, [1] * len(models))
    for level in range(2, tree.K + 1):
        for node in tree.levels[level]:
            node.model = group_average(
                [child.model for child in node.children],
                [child.member_count for child in node.children],
            )


def node_anchor_levels(tree, client_ids):
    """Per level 1..K: (stacked group models, each client's group row, and
    1 / that group's member count)."""
    out = []
    for level in range(1, tree.K + 1):
        nodes = tree.levels[level]
        ancestors = [tree.paths[cid][level - 1] for cid in client_ids]
        out.append(
            (
                np.stack([node.model for node in nodes]),
                np.array([nodes.index(node) for node in ancestors], dtype=np.intp),
                1.0 / np.array([node.member_count for node in ancestors], dtype=np.float64),
            )
        )
    return out


def node_generalized_blend(tree, client_id):
    """One client's ancestor models mixed with weights 1/N normalized by
    their sum B; returns (blend, B)."""
    path = tree.paths[client_id]
    coeffs = np.array([1.0 / node.member_count for node in path])
    b = float(coeffs.sum())
    weights = coeffs / b
    blend = path[0].model * weights[0]
    for node, w in zip(path[1:], weights[1:]):
        blend += node.model * w
    return blend, b


def node_format_tree(tree) -> str:
    lines = [f"tree K={tree.K} clients={tree.root.member_count}"]
    for level in range(tree.K, 0, -1):
        for gi, node in enumerate(tree.levels[level]):
            members = ",".join(str(c) for c in node.clients)
            lines.append(
                f"level={level} group={gi} size={node.member_count} "
                f"norm={float(np.linalg.norm(node.model)):.6f} members=[{members}]"
            )
    return "\n".join(lines) + "\n"
