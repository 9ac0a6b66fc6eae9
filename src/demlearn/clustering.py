"""Agent similarity, average-linkage agglomeration, and level truncation.

Clients are compared either by Euclidean distance between their flat model
vectors or by 1 - cosine similarity between their last update directions,
one stacked matmul per matrix row.  Average linkage runs as a Lance-Williams
update on the (n, n) matrix, ties going to the smallest pair of cluster ids.
The merge history (dendrogram) is cut K-1 generations below the root to
yield one nested partition of the clients per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

WEIGHT_METRIC = "weights"
GRADIENT_METRIC = "gradients"


class Merge(NamedTuple):
    left: int
    right: int
    height: float
    new_id: int
    size: int


@dataclass
class Dendrogram:
    """Full merge history: leaves are ids 0..n-1, merges mint n..2n-2."""

    n_leaves: int
    merges: list[Merge]

    @property
    def root_id(self) -> int:
        return 2 * self.n_leaves - 2

    def children(self) -> dict[int, tuple[int, int]]:
        return {m.new_id: (m.left, m.right) for m in self.merges}

    def leaf_members(self, node_id: int) -> list[int]:
        """Leaf ids under a node, ascending."""
        kids = self.children()
        out: list[int] = []
        stack = [node_id]
        while stack:
            node = stack.pop()
            if node < self.n_leaves:
                out.append(node)
            else:
                stack.extend(kids[node])
        return sorted(out)


@dataclass
class LevelAssignment:
    """Nested client partitions for levels 1..K; level K is a single group."""

    K: int
    groups: dict[int, list[list[int]]]
    group_of: dict[int, dict[int, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.group_of = {
            level: {c: gi for gi, members in enumerate(gs) for c in members}
            for level, gs in self.groups.items()
        }

    @property
    def client_ids(self) -> list[int]:
        return sorted(self.group_of[self.K])


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row of `a` with the same row of `b` (or with 1-D `b`) as a
    stacked matmul, which equals the 1-D `a[k] @ b[k]` bit for bit; `einsum`
    and `(a * b).sum(1)` can differ in the last ulp and move merge heights."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def build_distance_matrix(x: np.ndarray, metric: str = WEIGHT_METRIC) -> np.ndarray:
    """Symmetric pairwise dissimilarity between the rows of a (C, M) block.

    `weights` takes the model block and uses Euclidean distance; `gradients`
    takes the update-delta block and uses 1 - cosine (every row must have a
    nonzero norm).  Row i is client i.
    """
    if len(x) < 2:
        raise ValueError("need at least 2 clients to build a distance matrix")
    if metric == GRADIENT_METRIC:
        norms = np.sqrt(_dots(x, x))
        if np.any(norms == 0.0):
            cid = int(np.argmax(norms == 0.0))
            raise ValueError(f"client {cid} has a zero-norm update delta; cosine is undefined")
    elif metric != WEIGHT_METRIC:
        raise ValueError(f"unknown clustering metric {metric!r}")

    n = len(x)
    d = np.zeros((n, n))
    for i in range(n - 1):
        if metric == WEIGHT_METRIC:
            diff = x[i + 1 :] - x[i]
            row = np.sqrt(_dots(diff, diff))
        else:
            row = 1.0 - _dots(x[i + 1 :], x[i]) / (norms[i] * norms[i + 1 :])
        d[i, i + 1 :] = d[i + 1 :, i] = row
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
    (min_id, max_id) of cluster ids, not row positions, wins.  The survivor's
    row and column become d(ab,c) = (n_a d(a,c) + n_b d(b,c)) / (n_a + n_b),
    the exact unweighted mean of cross-pair leaf distances.
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
        h = d.min()
        rows, cols = np.divmod(np.flatnonzero(d == h), n)  # 2-D nonzero is slower
        a, b = ids[rows], ids[cols]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        k = np.lexsort((hi, lo))[0]
        p, q = (rows[k], cols[k]) if a[k] == lo[k] else (cols[k], rows[k])
        n_p, n_q = sizes[p], sizes[q]
        size = n_p + n_q
        merges.append(Merge(int(lo[k]), int(hi[k]), float(h), new_id, size))
        row = (n_p * d[p] + n_q * d[q]) / size  # inf at p and q
        d[p] = row
        d[:, p] = row
        d[q] = np.inf
        d[:, q] = np.inf
        ids[p] = new_id
        sizes[p] = size
    return Dendrogram(n, merges)


def truncate(dend: Dendrogram, K: int) -> LevelAssignment:
    """Keep the top K generations of the dendrogram as nested level groups.

    The root is the single level-K group; each step down a level expands every
    internal frontier node into its two merge children.  A leaf reached early
    stays its own group at every remaining lower level.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    kids = dend.children()
    frontier: list[int] = [dend.root_id]
    groups: dict[int, list[list[int]]] = {}
    for depth in range(K):
        level = K - depth
        groups[level] = [dend.leaf_members(node) for node in frontier]
        nxt: list[int] = []
        for node in frontier:
            if node < dend.n_leaves:
                nxt.append(node)
            else:
                nxt.extend(kids[node])
        frontier = nxt
    return LevelAssignment(K, groups)


def format_dendrogram(dend: Dendrogram) -> str:
    """Nested text rendering (ids, merge heights, member lists) for plotting."""
    kids = dend.children()
    lines = [f"dendrogram leaves={dend.n_leaves}"]
    heights = {m.new_id: m.height for m in dend.merges}

    def visit(node: int, indent: int) -> None:
        pad = "  " * indent
        if node < dend.n_leaves:
            lines.append(f"{pad}leaf id={node}")
            return
        members = ",".join(str(c) for c in dend.leaf_members(node))
        lines.append(
            f"{pad}node id={node} height={heights[node]!r} members=[{members}]"
        )
        left, right = kids[node]
        visit(left, indent + 1)
        visit(right, indent + 1)

    visit(dend.root_id, 0)
    return "\n".join(lines) + "\n"
