"""Agent similarity, average-linkage agglomeration, and level truncation.

Clients are compared either by Euclidean distance between their flat model
vectors or by 1 - cosine similarity between their last update directions,
both from one Gram matrix of dot products taken in tiles small enough that
BLAS runs each on one thread; the near pairs of the Euclidean metric take
their differences instead.  Average linkage runs as a Lance-Williams
update on the (n, n) matrix, ties going to the smallest pair of cluster ids.
A step finds its merge in a few whole-matrix passes (argmin, compare, and a
row-wise any when the minimum is tied), without listing the tied pairs, so
n - 1 steps cost O(n^3) even when every distance is equal.
Points that all tie at 0, like identical initial models, need no matrix.
The merge history (dendrogram) is cut K-1 generations below the root into
a (K, C) label array, row k - 1 numbering each client's level-k group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

WEIGHT_METRIC = "weights"
GRADIENT_METRIC = "gradients"

# `_gram`'s tiles have products of at most this many multiply-adds, the
# size up to which OpenBLAS runs a gemm on one thread (65,536 x its
# GEMM_MULTITHREAD_THRESHOLD of 4).  A threaded product can round another
# way, and can take ~8 ms where one thread takes ~0.03 (a 68 x 68 x 170
# tile did, with OpenBLAS 0.3.31 on 2 CPUs).
_TILE = 262_144
# A pair this near, as a share of |a|^2 + |b|^2, takes its squared distance
# from a - b.  The Gram form's rounding error is at most ~(M + 2) 2^-52
# (|a|^2 + |b|^2), so at any other pair the relative error of its squared
# distance is at most (M + 2) 2^-52 / _CLOSE, and of its distance half
# that: 1e-5 at the MLP-32's M = 874 in the worst case, against 1.4e-11 on
# the merge heights of the protocol's runs.
_CLOSE = 1e-8


class Merge(NamedTuple):
    left: int
    right: int
    height: float
    new_id: int
    size: int


@dataclass
class Dendrogram:
    """Full merge history: leaves are ids 0..n-1, merges mint n..2n-2, and
    `merges[i]` mints id n + i."""

    n_leaves: int
    merges: list[Merge]

    @property
    def root_id(self) -> int:
        return 2 * self.n_leaves - 2

    def leaf_lists(self) -> list[list[int]]:
        """Each node id's leaf ids, ascending, from one pass over the merges."""
        out = [[leaf] for leaf in range(self.n_leaves)]
        for m in self.merges:
            out.append(sorted(out[m.left] + out[m.right]))
        return out


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row of `a` with the same row of `b` (or with 1-D `b`) as a
    stacked matmul, which equals the 1-D `a[k] @ b[k]` bit for bit; `einsum`
    and `(a * b).sum(1)` can differ in the last ulp and move merge heights."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _gram(x: np.ndarray) -> np.ndarray:
    """The dot products of the rows of the (n, M) `x`, right of and on the
    diagonal, from square tiles of rows whose products have at most `_TILE`
    multiply-adds (a row each at the least); zeros left of it.  The tiles
    depend only on the shape of `x`, so no bit depends on how many
    processes or BLAS threads a run has."""
    n, m = x.shape
    t = max(1, math.isqrt(_TILE // m))
    g = np.zeros((n, n))
    for i in range(0, n, t):
        for j in range(i, n, t):
            g[i : i + t, j : j + t] = x[i : i + t] @ x[j : j + t].T
    return g


def build_distance_matrix(x: np.ndarray, metric: str = WEIGHT_METRIC) -> np.ndarray:
    """Symmetric pairwise dissimilarity between the rows of a (C, M) block,
    with a zero diagonal, from the dot products of `_gram`.

    `weights` takes the model block and uses Euclidean distance, the square
    root of |a|^2 + |b|^2 - 2 a.b, except that a pair with a squared
    distance of at most `_CLOSE` (|a|^2 + |b|^2) takes it from the
    difference a - b: identical rows are exactly 0 apart.  `gradients`
    takes the update-delta block and uses 1 - a.b / (|a| |b|) (every row
    must have a nonzero norm).  Row i is client i.
    """
    if len(x) < 2:
        raise ValueError("need at least 2 clients to build a distance matrix")
    sq = _dots(x, x)
    if metric == GRADIENT_METRIC:
        norms = np.sqrt(sq)
        if np.any(norms == 0.0):
            cid = int(np.argmax(norms == 0.0))
            raise ValueError(f"client {cid} has a zero-norm update delta; cosine is undefined")
    elif metric != WEIGHT_METRIC:
        raise ValueError(f"unknown clustering metric {metric!r}")

    n = len(x)
    i, j = np.triu_indices(n, k=1)
    g = _gram(x)[i, j]
    if metric == GRADIENT_METRIC:
        v = 1.0 - g / (norms[i] * norms[j])
    else:
        scale = sq[i] + sq[j]
        v = scale - 2.0 * g
        near = np.flatnonzero(v <= _CLOSE * scale)
        step = max(1, _TILE // x.shape[1])
        for lo in range(0, len(near), step):  # a bounded batch of differences at a time
            k = near[lo : lo + step]
            diff = x[i[k]] - x[j[k]]
            v[k] = _dots(diff, diff)
        v = np.sqrt(np.maximum(v, 0.0))
    d = np.zeros((n, n))
    d[i, j] = v
    d[j, i] = v
    return d


def _check_distance_matrix(dm: np.ndarray) -> np.ndarray:
    d = np.asarray(dm, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("distance matrix contains non-finite entries")
    if not np.array_equal(d, d.T):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diag(d) != 0.0):
        raise ValueError("distance matrix must have a zero diagonal")
    return d


def agglomerate(dm: np.ndarray) -> Dendrogram:
    """Average-linkage (UPGMA) dendrogram via the Lance-Williams update.

    Row p of an (n, n) matrix holds the distances of the cluster at position
    p; the diagonal and merged-away rows and columns hold inf.  Each step
    merges at the minimum h; among all pairs at exactly h, the smallest
    (min_id, max_id) of cluster ids, not row positions, wins.  A step takes
    the argmin and the mask of entries equal to h, O(n^2) each.  Two hits are
    one pair seen from both sides; otherwise the lower id is the smallest id
    among rows with a hit and its partner the smallest id among that row's
    hits, one row-wise any and two O(n) lookups.  The survivor's row and
    column become d(ab,c) = (n_a d(a,c) + n_b d(b,c)) / (n_a + n_b), the
    exact unweighted mean of cross-pair leaf distances.
    """
    d = _check_distance_matrix(dm).copy()
    n = d.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points to agglomerate")
    np.fill_diagonal(d, np.inf)
    ids = np.arange(n)
    sizes = [1] * n
    merges: list[Merge] = []
    for new_id in range(n, 2 * n - 1):
        k = d.argmin()
        h = d.flat[k]
        hit = d == h
        # one pair, seen from both sides: the usual case once models differ,
        # where the row-wise any below would make a step ~1.5x slower
        if np.count_nonzero(hit) == 2:
            p, q = divmod(k, n)
        else:  # the lowest id among rows at h, with its lowest-id partner
            rows = np.flatnonzero(hit.any(axis=1))
            p = rows[ids[rows].argmin()]
            cols = np.flatnonzero(hit[p])
            q = cols[ids[cols].argmin()]
        if ids[p] > ids[q]:
            p, q = q, p
        n_p, n_q = sizes[p], sizes[q]
        size = n_p + n_q
        merges.append(Merge(int(ids[p]), int(ids[q]), float(h), new_id, size))
        row = (n_p * d[p] + n_q * d[q]) / size  # inf at p and q
        d[p] = row
        d[:, p] = row
        d[q] = np.inf
        d[:, q] = np.inf
        ids[p] = new_id
        sizes[p] = size
    return Dendrogram(n, merges)


def tied_dendrogram(n: int) -> Dendrogram:
    """`agglomerate`'s dendrogram of n points at distance 0 from each other.
    Every pair ties, so the two lowest live ids merge and the new id, the
    highest yet, queues at the back: merge i pairs ids 2i and 2i + 1."""
    sizes = [1] * n
    merges = []
    for i in range(n - 1):
        sizes.append(sizes[2 * i] + sizes[2 * i + 1])
        merges.append(Merge(2 * i, 2 * i + 1, 0.0, n + i, sizes[-1]))
    return Dendrogram(n, merges)


def truncate(dend: Dendrogram, K: int) -> np.ndarray:
    """Keep the top K generations of the dendrogram as a (K, C) label array:
    row k - 1 holds each client's level-k group.

    The root is the single level-K group 0; each step down a level expands
    every internal frontier node into its (left, right) merge children, and a
    group's number is its node's place in the frontier.  A leaf reached early
    stays its own group at every remaining lower level.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    n, leaves = dend.n_leaves, dend.leaf_lists()
    labels = np.empty((K, n), dtype=np.intp)
    frontier = [dend.root_id]
    for row in range(K - 1, -1, -1):
        for g, node in enumerate(frontier):
            labels[row, leaves[node]] = g
        frontier = [
            kid
            for node in frontier
            for kid in ((node,) if node < n else dend.merges[node - n][:2])  # (left, right)
        ]
    return labels


def format_dendrogram(dend: Dendrogram) -> str:
    """Nested text rendering (ids, merge heights, member lists) for plotting."""
    n, leaves = dend.n_leaves, dend.leaf_lists()
    lines = [f"dendrogram leaves={n}"]
    stack = [(dend.root_id, 0)]  # pre-order, left child first
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if node < n:
            lines.append(f"{pad}leaf id={node}")
            continue
        m = dend.merges[node - n]
        members = ",".join(map(str, leaves[node]))
        lines.append(f"{pad}node id={node} height={m.height!r} members=[{members}]")
        stack += [(m.right, depth + 1), (m.left, depth + 1)]
    return "\n".join(lines) + "\n"
