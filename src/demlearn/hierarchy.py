"""The K-level group tree over the rows of a (C, M) model block.

The tree is built from a (K, C) label array whose row k - 1 numbers each
client's level-k group.  Client i is row i of the block, and tree level k is
one `AnchorLevel`: its (G, M) group models, each client's group row, and each
client's weight 1 / (its group's member count) -- the arrays the lockstep
solver takes as they are.  Group models are count-weighted means of their
children, where counts are numbers of member agents (leaves count one).
Summation order is fixed -- children in ascending group index, leaves in
ascending client id -- so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import AnchorLevel


@dataclass(eq=False)
class HierarchyTree:
    """`levels[k - 1]` is level k; `members[k - 1][g]` lists level-k group g's
    clients ascending, and `children[k - 2][g]` the level-(k - 1) groups under
    level-k group g, ascending.  `propagate_up` rewrites the group models in
    place."""

    levels: list[AnchorLevel]
    members: list[list[np.ndarray]]
    children: list[list[list[int]]]

    @property
    def K(self) -> int:
        return len(self.levels)

    @property
    def root(self) -> np.ndarray:
        """The root model, a row view of the single level-K group."""
        return self.levels[-1].models[0]


def group_average(
    children_models: Sequence[np.ndarray], children_counts: Sequence[int]
) -> np.ndarray:
    """Count-weighted mean; weights are normalized first so they sum to 1."""
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
    levels, members, children = [], [], []
    for k, group in enumerate(labels):
        sizes = np.bincount(group)
        if not sizes.all():
            raise ValueError(f"level {k + 1} has no member in group {int(np.argmin(sizes))}")
        models = np.empty((len(sizes), block.shape[1]))
        levels.append(AnchorLevel(models, group, 1.0 / sizes[group]))
        members.append(np.split(np.argsort(group, kind="stable"), np.cumsum(sizes)[:-1]))
        if k:
            below = labels[k - 1]
            parent = np.empty(len(members[k - 1]), dtype=np.intp)
            parent[below] = group
            if not np.array_equal(parent[below], group):
                raise ValueError(
                    f"labels are not laminar at level {k + 1}: "
                    f"a level-{k} group spans two level-{k + 1} groups"
                )
            kids = np.split(np.argsort(parent, kind="stable"), np.cumsum(np.bincount(parent))[:-1])
            children.append([g.tolist() for g in kids])
    return propagate_up(HierarchyTree(levels, members, children), block)


def one_group_tree(block: np.ndarray, k_levels: int) -> HierarchyTree:
    """A tree whose every level 1..k_levels is one group of all clients."""
    return build_tree(np.zeros((k_levels, len(block)), dtype=np.intp), block)


def propagate_up(tree: HierarchyTree, block: np.ndarray) -> HierarchyTree:
    """Recompute every group model bottom-up from the client models in `block`."""
    n = len(tree.levels[0].group)
    if len(block) != n:
        raise ValueError(f"the tree has {n} clients but the model block has {len(block)} rows")
    models = tree.levels[0].models
    for g, members in enumerate(tree.members[0]):
        models[g] = group_average(block[members], [1] * len(members))
    for k in range(1, tree.K):
        below, models = models, tree.levels[k].models
        sizes = [len(m) for m in tree.members[k - 1]]
        for g, kids in enumerate(tree.children[k - 1]):
            models[g] = group_average(below[kids], [sizes[gi] for gi in kids])
    return tree


def generalized_blend(tree: HierarchyTree) -> np.ndarray:
    """Every client's normalized mix of its ancestor models, as a (C, M) block.

    Each level contributes weight 1/N_group; the total B = sum of those
    weights normalizes the mix so it stays in the range of the inputs.
    """
    coeff = np.stack([level.coeff for level in tree.levels], axis=1)
    # each row's sum of a contiguous 1-D run, so pairwise from K = 8 on
    weights = coeff / coeff.sum(axis=1)[:, None]
    first = tree.levels[0]
    blend = first.models[first.group] * weights[:, :1]
    for k, level in enumerate(tree.levels[1:], start=1):
        blend += level.models[level.group] * weights[:, k : k + 1]
    return blend


def format_tree(tree: HierarchyTree) -> str:
    """One-line-per-group snapshot: sizes, members, model norms."""
    lines = [f"tree K={tree.K} clients={len(tree.levels[0].group)}"]
    for k in range(tree.K, 0, -1):
        models = tree.levels[k - 1].models
        for gi, members in enumerate(tree.members[k - 1]):
            norm = float(np.linalg.norm(models[gi]))
            lines.append(
                f"level={k} group={gi} size={len(members)} "
                f"norm={norm:.6f} members=[{','.join(str(c) for c in members)}]"
            )
    return "\n".join(lines) + "\n"
