"""The K-level group tree over the rows of a (C, M) model block.

The tree is built from a (K, C) label array whose row k - 1 numbers each
client's level-k group.  Client i is row i of the block, and tree level k is
one `AnchorLevel`: its (G, M) group models, each client's group row, and each
client's weight 1 / (its group's member count).  The levels are the whole
tree: `members` reads a level's groups off its group row.  Group models are
count-weighted means of their children, where counts are numbers of member
agents (leaves count one).  Summation order is fixed -- children in
ascending group index, leaves in ascending client id -- so runs are
bit-reproducible.  A client's ancestors enter its restart blend
(`generalized_blend`) and its proximal pull (`anchor_pull`), one weighted
sum gathered in level order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


class AnchorLevel(NamedTuple):
    """One tree level: client i's level model is `models[group[i]]`, the
    model of its group, and `coeff[i]` is 1 / that group's member count."""

    models: np.ndarray  # (G, M) group models
    group: np.ndarray  # (C,) integer rows of `models`
    coeff: np.ndarray  # (C,) weights in (0, 1]


@dataclass(eq=False)
class HierarchyTree:
    """`levels[k - 1]` is level k.  `propagate_up` rewrites the group models
    in place."""

    levels: list[AnchorLevel]

    @property
    def K(self) -> int:
        return len(self.levels)

    @property
    def root(self) -> np.ndarray:
        """The root model, a row view of the single level-K group."""
        return self.levels[-1].models[0]


def members(group: np.ndarray) -> list[np.ndarray]:
    """Each group's members, ascending, from a row numbering every member's
    group 0..G-1."""
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(np.bincount(group)).tolist()
    return [order[start:end] for start, end in zip([0, *ends], ends)]


def build_tree(labels: np.ndarray, block: np.ndarray) -> HierarchyTree:
    """Materialize a (K, C) label array over the rows of `block` as a tree and
    populate its group models.  Row k - 1 numbers each client's level-k group
    0..G-1, none empty; the top row is all 0, and each lower group lies in one
    upper group."""
    if labels.ndim != 2 or labels.shape[1] != len(block):
        raise ValueError(
            f"labels of shape {labels.shape} do not fit a model block of {len(block)} rows"
        )
    if not len(labels) or np.any(labels[-1]):
        raise ValueError("level K must contain exactly one group")
    levels = []
    for k, group in enumerate(labels):
        if group.dtype.kind not in "iu" or np.any(group < 0):
            raise ValueError(f"level {k + 1} has a label that is not a non-negative integer")
        sizes = np.bincount(group)
        if not sizes.all():
            raise ValueError(f"level {k + 1} has no member in group {int(np.argmin(sizes))}")
        if k:
            below = labels[k - 1]
            parent = np.empty(len(levels[-1].models), dtype=np.intp)
            parent[below] = group
            if not np.array_equal(parent[below], group):
                raise ValueError(
                    f"labels are not laminar at level {k + 1}: "
                    f"a level-{k} group spans two level-{k + 1} groups"
                )
        levels.append(AnchorLevel(np.empty((len(sizes), block.shape[1])), group, 1.0 / sizes[group]))
    return propagate_up(HierarchyTree(levels), block)


def propagate_up(tree: HierarchyTree, block: np.ndarray) -> HierarchyTree:
    """Recompute every group model bottom-up from the client models in `block`.

    A level-k group's children are the level-(k - 1) groups inside it (the
    clients at level 1), each weighted by its member count over the group's.
    A group model is its first child's weighted model plus the others', one
    at a time in ascending order, so a column of -0.0 keeps its sign.
    """
    n = len(tree.levels[0].group)
    if len(block) != n:
        raise ValueError(f"the tree has {n} clients but the model block has {len(block)} rows")
    # the clients are level 0: n groups of one member each
    below, group, counts = block, np.arange(n), np.ones(n, dtype=np.intp)
    for level in tree.levels:
        parent = np.empty(len(below), dtype=np.intp)
        parent[group] = level.group
        sizes = np.bincount(level.group)
        weighted = below * (counts / sizes[parent])[:, None]
        for model, kids in zip(level.models, members(parent)):
            model[:] = weighted[kids[0]]
            for kid in kids[1:]:
                model += weighted[kid]
        below, group, counts = level.models, level.group, sizes
    return tree


def _ancestor_sum(tree: HierarchyTree, weights: Sequence[np.ndarray]) -> np.ndarray:
    """The (C, M) sum over levels k of weights[k][:, None] times each
    client's level-k group model, added in level order."""
    first, *rest = tree.levels
    # "clip" never alters a group row, which `build_tree` numbers; "raise" would copy
    total = np.take(first.models, first.group, axis=0, mode="clip")
    total *= weights[0][:, None]
    gathered = np.empty_like(total)
    for level, weight in zip(rest, weights[1:]):
        np.take(level.models, level.group, axis=0, out=gathered, mode="clip")
        gathered *= weight[:, None]
        total += gathered
    return total


def generalized_blend(tree: HierarchyTree) -> np.ndarray:
    """Every client's normalized mix of its ancestor models, as a (C, M) block.

    Each level contributes weight 1/N_group; the total B = sum of those
    weights normalizes the mix so it stays in the range of the inputs.
    """
    coeff = np.stack([level.coeff for level in tree.levels], axis=1)
    # each row's sum of a contiguous 1-D run, so pairwise from K = 8 on
    weights = coeff / coeff.sum(axis=1)[:, None]
    return _ancestor_sum(tree, weights.T)


def anchor_pull(tree: HierarchyTree, mu: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Every client's proximal pull sum_k m_k * (w - its level-k model), with
    m_k = mu * coeff_k, folded as s * w - A for `models.local_solve`: s is
    the (C, 1) sum of the m_k and A the (C, M) sum of m_k times the level-k
    models, each added in level order.  None if mu is 0."""
    if not (np.isfinite(mu) and mu >= 0.0):
        raise ValueError(f"mu must be finite and non-negative, got {mu}")
    if mu == 0.0:
        return None
    weights = [mu * level.coeff for level in tree.levels]
    return sum(weights[1:], weights[0])[:, None], _ancestor_sum(tree, weights)


def format_tree(tree: HierarchyTree) -> str:
    """One-line-per-group snapshot: sizes, members, model norms."""
    lines = [f"tree K={tree.K} clients={len(tree.levels[0].group)}"]
    for k in range(tree.K, 0, -1):
        level = tree.levels[k - 1]
        for gi, clients in enumerate(members(level.group)):
            norm = float(np.linalg.norm(level.models[gi]))
            lines.append(
                f"level={k} group={gi} size={len(clients)} "
                f"norm={norm:.6f} members=[{','.join(str(c) for c in clients)}]"
            )
    return "\n".join(lines) + "\n"
