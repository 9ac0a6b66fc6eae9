"""Group tree construction, bottom-up averaging, anchors, and blends."""

import numpy as np
import pytest

from demlearn.clustering import LevelAssignment
from demlearn.hierarchy import (
    anchor_levels,
    build_tree,
    format_tree,
    generalized_blend,
    group_average,
    propagate_up,
)

from oracles import leaf_weighted_mean, naive_weighted_mean


def assign_k1(client_ids):
    return LevelAssignment(1, {1: [sorted(client_ids)]})


def assign_pairs_k2():
    return LevelAssignment(2, {2: [[0, 1, 2, 3]], 1: [[0, 1], [2, 3]]})


def models_for(ids, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return {i: rng.normal(0, 1, dim) for i in ids}


def random_assignment(n, k, rng):
    """A random laminar family built by repeatedly splitting groups."""
    groups = {k: [list(range(n))]}
    for level in range(k - 1, 0, -1):
        next_groups = []
        for g in groups[level + 1]:
            if len(g) >= 2 and rng.random() < 0.7:
                cut = int(rng.integers(1, len(g)))
                parts = [sorted(g[:cut]), sorted(g[cut:])]
            else:
                parts = [sorted(g)]
            next_groups.extend(parts)
        groups[level] = next_groups
    return LevelAssignment(k, groups)


# ------------------------------------------------------------ group_average


def test_group_average_identical_children():
    w = np.array([1.0, -2.0])
    out = group_average([w.copy(), w.copy(), w.copy()], [1, 5, 2])
    assert np.allclose(out, w, atol=1e-15)


def test_group_average_scalar_weighted_mean():
    out = group_average([np.array([0.0]), np.array([4.0])], [1, 3])
    assert out[0] == pytest.approx(3.0, abs=1e-15)


def test_group_average_matches_naive_sum():
    rng = np.random.default_rng(1)
    models = [rng.normal(0, 1, 7) for _ in range(5)]
    counts = [int(rng.integers(1, 9)) for _ in range(5)]
    got = group_average(models, counts)
    assert np.allclose(got, naive_weighted_mean(models, counts), atol=1e-12)


def test_group_average_empty_children():
    with pytest.raises(ValueError):
        group_average([], [])


# ------------------------------------------------------------ build_tree


def test_build_tree_k1_root_holds_everyone():
    models = models_for(range(5))
    tree = build_tree(assign_k1(range(5)), models)
    assert tree.K == 1
    assert tree.root.member_count == 5
    assert tree.root.clients == [0, 1, 2, 3, 4]


def test_build_tree_two_pairs():
    models = models_for(range(4))
    tree = build_tree(assign_pairs_k2(), models)
    assert tree.root.member_count == 4
    assert [c.member_count for c in tree.root.children] == [2, 2]
    assert [c.clients for c in tree.root.children] == [[0, 1], [2, 3]]


def test_build_tree_rebuild_is_idempotent():
    models = models_for(range(4))
    t1 = build_tree(assign_pairs_k2(), models)
    t2 = build_tree(assign_pairs_k2(), models)
    for level in (1, 2):
        for a, b in zip(t1.levels[level], t2.levels[level]):
            assert a.clients == b.clients
            assert np.array_equal(a.model, b.model)


def test_build_tree_rejects_non_laminar():
    bad = LevelAssignment(2, {2: [[0, 1, 2, 3]], 1: [[0, 1], [1, 2, 3]]})
    with pytest.raises(ValueError):
        build_tree(bad, models_for(range(4)))


def test_build_tree_rejects_missing_model():
    with pytest.raises(ValueError):
        build_tree(assign_pairs_k2(), models_for(range(3)))


# ------------------------------------------------------------ propagate_up


def test_propagate_identical_models():
    w = np.array([0.25, -1.0, 2.0])
    models = {i: w.copy() for i in range(6)}
    assign = LevelAssignment(2, {2: [[0, 1, 2, 3, 4, 5]], 1: [[0, 1, 2], [3, 4, 5]]})
    tree = build_tree(assign, models)
    for level in (1, 2):
        for node in tree.levels[level]:
            assert np.allclose(node.model, w, atol=1e-15)


def test_root_equals_unweighted_client_mean():
    rng = np.random.default_rng(2)
    for trial in range(25):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, 5))
        models = {i: rng.normal(0, 1, 5) for i in range(n)}
        tree = build_tree(random_assignment(n, k, rng), models)
        mean = np.mean([models[i] for i in range(n)], axis=0)
        assert np.max(np.abs(tree.root.model - mean)) < 1e-9


def test_every_node_is_leaf_descendant_mean():
    rng = np.random.default_rng(3)
    models = {i: rng.normal(0, 1, 4) for i in range(6)}
    assign = LevelAssignment(
        3, {3: [[0, 1, 2, 3, 4, 5]], 2: [[0, 1, 2], [3, 4, 5]], 1: [[0], [1, 2], [3, 4], [5]]}
    )
    tree = build_tree(assign, models)
    for level in (1, 2, 3):
        for node in tree.levels[level]:
            assert np.allclose(node.model, leaf_weighted_mean(node, models), atol=1e-12)


def test_duplicating_clients_leaves_ancestors_unchanged():
    # count-weighting means doubling every group's membership (same models)
    # changes no group model anywhere in the tree
    rng = np.random.default_rng(4)
    models = {i: rng.normal(0, 1, 3) for i in range(4)}
    assign = LevelAssignment(2, {2: [[0, 1, 2, 3]], 1: [[0, 1], [2, 3]]})
    tree = build_tree(assign, models)
    dup_models = dict(models)
    for i in range(4):
        dup_models[4 + i] = models[i].copy()
    dup_assign = LevelAssignment(
        2, {2: [[0, 1, 2, 3, 4, 5, 6, 7]], 1: [[0, 1, 4, 5], [2, 3, 6, 7]]}
    )
    dup_tree = build_tree(dup_assign, dup_models)
    for level in (1, 2):
        for orig, dup in zip(tree.levels[level], dup_tree.levels[level]):
            assert dup.member_count == 2 * orig.member_count
            assert np.allclose(dup.model, orig.model, atol=1e-12)


def test_propagate_missing_client_model():
    tree = build_tree(assign_pairs_k2(), models_for(range(4)))
    with pytest.raises(ValueError):
        propagate_up(tree, models_for(range(3)))


# ------------------------------------------------------------ anchors & blend


def test_anchors_k1():
    models = models_for(range(8))
    tree = build_tree(assign_k1(range(8)), models)
    levels = anchor_levels(tree, [3])
    assert len(levels) == 1
    assert levels[0].coeff[0] == pytest.approx(1.0 / 8.0)
    assert np.array_equal(levels[0].models[levels[0].group[0]], tree.root.model)


def test_anchor_coeff_one_for_singleton_group():
    assign = LevelAssignment(2, {2: [[0, 1, 2]], 1: [[0], [1, 2]]})
    tree = build_tree(assign, models_for(range(3)))
    levels = anchor_levels(tree, [0])
    assert levels[0].coeff[0] == 1.0
    assert levels[1].coeff[0] == pytest.approx(1.0 / 3.0)


def test_anchor_coeffs_match_subtree_sizes():
    rng = np.random.default_rng(5)
    models = {i: rng.normal(0, 1, 4) for i in range(6)}
    assign = LevelAssignment(
        3, {3: [[0, 1, 2, 3, 4, 5]], 2: [[0, 1, 2], [3, 4, 5]], 1: [[0], [1, 2], [3, 4], [5]]}
    )
    tree = build_tree(assign, models)
    levels = anchor_levels(tree, [4])
    assert [lv.coeff[0] for lv in levels] == [pytest.approx(1 / 2), pytest.approx(1 / 3), pytest.approx(1 / 6)]
    with pytest.raises(ValueError):
        anchor_levels(tree, [99])


def test_anchor_levels_gather_each_clients_ancestors():
    rng = np.random.default_rng(6)
    models = {i: rng.normal(0, 1, 4) for i in range(6)}
    assign = LevelAssignment(
        3, {3: [[0, 1, 2, 3, 4, 5]], 2: [[0, 1, 2], [3, 4, 5]], 1: [[0], [1, 2], [3, 4], [5]]}
    )
    tree = build_tree(assign, models)
    ids = [5, 0, 3, 2]  # any order, any subset
    levels = anchor_levels(tree, ids)
    assert [len(lv.models) for lv in levels] == [4, 2, 1]
    for i, cid in enumerate(ids):
        for lv, node in zip(levels, tree.path_for(cid)):
            assert lv.models[lv.group[i]].tobytes() == node.model.tobytes()
            assert lv.coeff[i] == 1.0 / node.member_count


def test_blend_all_ancestors_equal():
    w = np.array([1.5, -0.5])
    models = {i: w.copy() for i in range(4)}
    tree = build_tree(assign_pairs_k2(), models)
    blend, b = generalized_blend(tree, 2)
    assert np.allclose(blend, w, atol=1e-15)


def test_blend_k1_is_root():
    models = models_for(range(5))
    tree = build_tree(assign_k1(range(5)), models)
    blend, b = generalized_blend(tree, 0)
    assert np.array_equal(blend, tree.root.model)
    assert b == pytest.approx(1.0 / 5.0)


def test_blend_scalar_example():
    # level-1 model 2 (group of 2), level-2 model 8 (group of 4):
    # B = 1/2 + 1/4 = 3/4, blend = ((1/2)*2 + (1/4)*8) / (3/4) = 4
    assign = assign_pairs_k2()
    models = {i: np.zeros(1) for i in range(4)}
    tree = build_tree(assign, models)
    tree.levels[1][0].model = np.array([2.0])
    tree.levels[2][0].model = np.array([8.0])
    blend, b = generalized_blend(tree, 0)
    assert b == pytest.approx(0.75, abs=1e-15)
    assert blend[0] == pytest.approx(4.0, abs=1e-12)


def test_blend_inside_ancestor_envelope():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, 5))
        models = {i: rng.normal(0, 1, 6) for i in range(n)}
        tree = build_tree(random_assignment(n, k, rng), models)
        cid = int(rng.integers(0, n))
        blend, _ = generalized_blend(tree, cid)
        path = tree.path_for(cid)
        stack = np.stack([node.model for node in path])
        assert np.all(blend >= stack.min(axis=0) - 1e-12)
        assert np.all(blend <= stack.max(axis=0) + 1e-12)


def test_format_tree_lists_every_level():
    models = models_for(range(4))
    tree = build_tree(assign_pairs_k2(), models)
    text = format_tree(tree)
    assert "level=2" in text and "level=1" in text
    assert "members=[0,1]" in text
