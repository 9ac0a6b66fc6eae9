"""The K-level group tree: construction, bottom-up averaging, anchor queries.

Group models are count-weighted means of their children, where counts are
numbers of member agents (leaves count one).  Summation order is fixed --
children in ascending group index, leaves in ascending client id -- so runs
are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .clustering import LevelAssignment
from .models import AnchorLevel


@dataclass(eq=False)
class GroupNode:
    """One group at one level; children are GroupNodes, or client ids at level 1."""

    level: int
    member_count: int
    clients: list[int]
    children: list
    model: np.ndarray | None = None


@dataclass(eq=False)
class HierarchyTree:
    root: GroupNode
    K: int
    levels: dict[int, list[GroupNode]]
    paths: dict[int, list[GroupNode]] = field(init=False)

    def __post_init__(self) -> None:
        self.paths = {}
        for level in range(1, self.K + 1):
            for node in self.levels[level]:
                for cid in node.clients:
                    self.paths.setdefault(cid, [None] * self.K)[level - 1] = node

    def path_for(self, client_id: int) -> list[GroupNode]:
        """Ancestor nodes for levels 1..K, ascending."""
        try:
            return self.paths[client_id]
        except KeyError:
            raise ValueError(f"unknown client id {client_id}") from None


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


def build_tree(
    assign: LevelAssignment, client_models: Mapping[int, np.ndarray]
) -> HierarchyTree:
    """Materialize the level assignment as a tree and populate group models."""
    K = assign.K
    if len(assign.groups.get(K, [])) != 1:
        raise ValueError("level K must contain exactly one group")
    for cid in assign.client_ids:
        if cid not in client_models:
            raise ValueError(f"missing model for client {cid}")

    levels: dict[int, list[GroupNode]] = {
        1: [
            GroupNode(1, len(members), sorted(members), sorted(members))
            for members in assign.groups[1]
        ]
    }
    claimed: dict[int, list[int]] = {}
    for level in range(2, K + 1):
        claimed[level - 1] = [0] * len(levels[level - 1])
        nodes: list[GroupNode] = []
        for members in assign.groups[level]:
            child_idx = sorted({assign.group_of[level - 1][c] for c in members})
            child_nodes = [levels[level - 1][gi] for gi in child_idx]
            for gi in child_idx:
                claimed[level - 1][gi] += 1
            covered = sorted(c for nd in child_nodes for c in nd.clients)
            if covered != sorted(members):
                raise ValueError(
                    f"assignment is not laminar at level {level}: group {sorted(members)} "
                    f"does not split cleanly into level-{level - 1} groups"
                )
            nodes.append(GroupNode(level, len(members), sorted(members), child_nodes))
        levels[level] = nodes
    for level, counts in claimed.items():
        if any(c != 1 for c in counts):
            raise ValueError(
                f"assignment is not laminar between levels {level} and {level + 1}"
            )

    tree = HierarchyTree(levels[K][0], K, levels)
    propagate_up(tree, client_models)
    return tree


def propagate_up(
    tree: HierarchyTree, client_models: Mapping[int, np.ndarray]
) -> HierarchyTree:
    """Recompute every group model bottom-up from the current client models."""
    for node in tree.levels[1]:
        models = []
        for cid in node.children:
            if cid not in client_models:
                raise ValueError(f"missing model for client {cid}")
            models.append(client_models[cid])
        node.model = group_average(models, [1] * len(models))
    for level in range(2, tree.K + 1):
        for node in tree.levels[level]:
            node.model = group_average(
                [child.model for child in node.children],
                [child.member_count for child in node.children],
            )
    return tree


def anchor_levels(tree: HierarchyTree, client_ids: Sequence[int]) -> list[AnchorLevel]:
    """The proximal targets of a stack of clients, one `AnchorLevel` per level 1..K.

    At each level a client is anchored to its ancestor group's model with
    weight 1 / that group's member count.
    """
    paths = [tree.path_for(cid) for cid in client_ids]
    levels = []
    for level in range(1, tree.K + 1):
        nodes = tree.levels[level]
        row = {id(node): gi for gi, node in enumerate(nodes)}
        ancestors = [path[level - 1] for path in paths]
        levels.append(
            AnchorLevel(
                np.stack([node.model for node in nodes]),
                np.array([row[id(node)] for node in ancestors], dtype=np.intp),
                1.0 / np.array([node.member_count for node in ancestors], dtype=np.float64),
            )
        )
    return levels


def generalized_blend(tree: HierarchyTree, client_id: int) -> tuple[np.ndarray, float]:
    """Normalized mix of a client's ancestor models.

    Each level contributes weight 1/N_group; the total B = sum of those
    weights normalizes the mix so it stays in the range of the inputs.
    """
    path = tree.path_for(client_id)
    coeffs = np.array([1.0 / node.member_count for node in path])
    b = float(coeffs.sum())
    weights = coeffs / b
    blend = path[0].model * weights[0]
    for node, w in zip(path[1:], weights[1:]):
        blend += node.model * w
    return blend, b


def format_tree(tree: HierarchyTree) -> str:
    """One-line-per-group snapshot: sizes, members, model norms."""
    lines = [f"tree K={tree.K} clients={tree.root.member_count}"]
    for level in range(tree.K, 0, -1):
        for gi, node in enumerate(tree.levels[level]):
            norm = float(np.linalg.norm(node.model)) if node.model is not None else float("nan")
            members = ",".join(str(c) for c in node.clients)
            lines.append(
                f"level={level} group={gi} size={node.member_count} "
                f"norm={norm:.6f} members=[{members}]"
            )
    return "\n".join(lines) + "\n"
