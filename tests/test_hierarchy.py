"""Group tree construction, bottom-up averaging, anchors, blends and pulls."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demlearn.hierarchy import (
    anchor_pull,
    build_tree,
    format_tree,
    generalized_blend,
    members,
    propagate_up,
)

from oracles import (
    group_average,
    labels_of,
    naive_weighted_mean,
    node_anchor_levels,
    node_format_tree,
    node_generalized_blend,
    node_tree,
)


def labels_k1(n):
    return np.zeros((1, n), dtype=np.intp)


def labels_pairs_k2():
    return labels_of({2: [[0, 1, 2, 3]], 1: [[0, 1], [2, 3]]})


GROUPS_K3_SIX = {3: [[0, 1, 2, 3, 4, 5]], 2: [[0, 1, 2], [3, 4, 5]], 1: [[0], [1, 2], [3, 4], [5]]}


def models_for(n, dim=3, seed=0):
    return np.random.default_rng(seed).normal(0, 1, (n, dim))


def random_labels(n, k, rng):
    """The labels of a random laminar family built by repeatedly splitting groups."""
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
    return labels_of(groups)


# ------------------------------------------------------------ group_average
# the node graph's mean, which every level of the tree must equal bit for bit


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
    tree = build_tree(labels_k1(5), models_for(5))
    assert tree.K == 1
    assert [m.tolist() for m in members(tree.levels[0].group)] == [[0, 1, 2, 3, 4]]
    assert tree.root.tobytes() == tree.levels[0].models[0].tobytes()


def test_build_tree_two_pairs():
    tree = build_tree(labels_pairs_k2(), models_for(4))
    assert [m.tolist() for m in members(tree.levels[1].group)] == [[0, 1, 2, 3]]
    assert [m.tolist() for m in members(tree.levels[0].group)] == [[0, 1], [2, 3]]


def test_build_tree_rebuild_is_idempotent():
    models = models_for(4)
    t1 = build_tree(labels_pairs_k2(), models)
    t2 = build_tree(labels_pairs_k2(), models)
    for k in range(2):
        assert t1.levels[k].group.tobytes() == t2.levels[k].group.tobytes()
        assert np.array_equal(t1.levels[k].models, t2.levels[k].models)


def test_build_tree_rejects_non_laminar():
    # level-1 group {2, 3} straddles level-2 groups {0, 1, 2} and {3, 4, 5}
    bad = labels_of(
        {3: [[0, 1, 2, 3, 4, 5]], 2: [[0, 1, 2], [3, 4, 5]], 1: [[0, 1], [2, 3], [4, 5]]}
    )
    with pytest.raises(ValueError, match="not laminar at level 2: a level-1 group spans"):
        build_tree(bad, models_for(6))
    # each level on its own is fine: the top two levels, and the bottom one
    build_tree(bad[1:], models_for(6))
    build_tree(np.vstack([bad[:1], np.zeros((1, 6), np.intp)]), models_for(6))


def test_build_tree_rejects_an_unused_group_number():
    with pytest.raises(ValueError, match="level 1 has no member in group 1"):
        build_tree(np.array([[0, 0, 2, 2], [0, 0, 0, 0]]), models_for(4))
    # negative or non-integer numbers are not groups either
    not_a_label = "level {} has a label that is not a non-negative integer"
    with pytest.raises(ValueError, match=not_a_label.format(1)):
        build_tree(np.array([[0, 0, -1, -1], [0, 0, 0, 0]]), models_for(4))
    with pytest.raises(ValueError, match=not_a_label.format(2)):
        build_tree(np.array([[0, 1, 2, 3], [0, 0, -1, -1], [0, 0, 0, 0]]), models_for(4))
    with pytest.raises(ValueError, match=not_a_label.format(1)):
        build_tree(np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]]), models_for(4))


def test_build_tree_rejects_a_top_row_with_two_groups():
    two_roots = labels_of({2: [[0, 1], [2, 3]], 1: [[0, 1], [2, 3]]})
    with pytest.raises(ValueError, match="level K must contain exactly one group"):
        build_tree(two_roots, models_for(4))
    with pytest.raises(ValueError, match="level K must contain exactly one group"):
        build_tree(np.zeros((0, 4), np.intp), models_for(4))


def test_build_tree_rejects_missing_model():
    # the labels name 4 clients but the block has rows for 3, or for 5
    with pytest.raises(ValueError, match=r"labels of shape \(2, 4\) do not fit a model block of 3 rows"):
        build_tree(labels_pairs_k2(), models_for(3))
    with pytest.raises(ValueError, match="do not fit a model block of 5 rows"):
        build_tree(labels_pairs_k2(), models_for(5))
    with pytest.raises(ValueError, match="do not fit"):
        build_tree(np.zeros(4, np.intp), models_for(4))


# ------------------------------------------------------------ propagate_up


def test_propagate_identical_models():
    w = np.array([0.25, -1.0, 2.0])
    labels = labels_of({2: [[0, 1, 2, 3, 4, 5]], 1: [[0, 1, 2], [3, 4, 5]]})
    tree = build_tree(labels, np.tile(w, (6, 1)))
    for level in tree.levels:
        for model in level.models:
            assert np.allclose(model, w, atol=1e-15)


def test_root_equals_unweighted_client_mean():
    rng = np.random.default_rng(2)
    for trial in range(25):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, 5))
        models = rng.normal(0, 1, (n, 5))
        tree = build_tree(random_labels(n, k, rng), models)
        mean = np.mean(models, axis=0)
        assert np.max(np.abs(tree.root - mean)) < 1e-9


def test_every_node_is_leaf_descendant_mean():
    rng = np.random.default_rng(3)
    models = rng.normal(0, 1, (6, 4))
    tree = build_tree(labels_of(GROUPS_K3_SIX), models)
    for level in tree.levels:
        for model, clients in zip(level.models, members(level.group)):
            leaf_mean = naive_weighted_mean(list(models[clients]), [1] * len(clients))
            assert np.allclose(model, leaf_mean, atol=1e-12)


def test_duplicating_clients_leaves_ancestors_unchanged():
    # count-weighting means doubling every group's membership (same models)
    # changes no group model anywhere in the tree
    rng = np.random.default_rng(4)
    models = rng.normal(0, 1, (4, 3))
    tree = build_tree(labels_pairs_k2(), models)
    dup_labels = labels_of({2: [[0, 1, 2, 3, 4, 5, 6, 7]], 1: [[0, 1, 4, 5], [2, 3, 6, 7]]})
    dup_tree = build_tree(dup_labels, np.vstack([models, models]))
    for k in range(2):
        for orig, dup in zip(members(tree.levels[k].group), members(dup_tree.levels[k].group)):
            assert len(dup) == 2 * len(orig)
        assert np.allclose(dup_tree.levels[k].models, tree.levels[k].models, atol=1e-12)


def test_propagate_missing_client_model():
    tree = build_tree(labels_pairs_k2(), models_for(4))
    with pytest.raises(ValueError):
        propagate_up(tree, models_for(3))


# ------------------------------------------------------------ anchors & blend


def test_anchors_k1():
    tree = build_tree(labels_k1(8), models_for(8))
    assert len(tree.levels) == 1
    level = tree.levels[0]
    assert level.coeff[3] == pytest.approx(1.0 / 8.0)
    assert np.array_equal(level.models[level.group[3]], tree.root)


def test_anchor_coeff_one_for_singleton_group():
    tree = build_tree(labels_of({2: [[0, 1, 2]], 1: [[0], [1, 2]]}), models_for(3))
    assert tree.levels[0].coeff[0] == 1.0
    assert tree.levels[1].coeff[0] == pytest.approx(1.0 / 3.0)


def test_anchor_coeffs_match_subtree_sizes():
    rng = np.random.default_rng(5)
    tree = build_tree(labels_of(GROUPS_K3_SIX), rng.normal(0, 1, (6, 4)))
    assert [lv.coeff[4] for lv in tree.levels] == [pytest.approx(1 / 2), pytest.approx(1 / 3), pytest.approx(1 / 6)]
    # a client the model block has no row for
    with pytest.raises(ValueError, match="do not fit a model block of 6 rows"):
        build_tree(labels_k1(7), rng.normal(0, 1, (6, 4)))


def test_anchor_levels_gather_each_clients_ancestors():
    rng = np.random.default_rng(6)
    models = rng.normal(0, 1, (6, 4))
    tree = build_tree(labels_of(GROUPS_K3_SIX), models)
    nodes = node_tree(GROUPS_K3_SIX, dict(enumerate(models)))
    assert [len(lv.models) for lv in tree.levels] == [4, 2, 1]
    for cid in [5, 0, 3, 2]:
        for lv, node in zip(tree.levels, nodes.paths[cid]):
            assert lv.models[lv.group[cid]].tobytes() == node.model.tobytes()
            assert lv.coeff[cid] == 1.0 / node.member_count


def test_blend_all_ancestors_equal():
    w = np.array([1.5, -0.5])
    tree = build_tree(labels_pairs_k2(), np.tile(w, (4, 1)))
    assert np.allclose(generalized_blend(tree)[2], w, atol=1e-15)


def test_blend_k1_is_root():
    tree = build_tree(labels_k1(5), models_for(5))
    blend = generalized_blend(tree)
    assert blend.shape == (5, 3)
    for row in blend:
        assert np.array_equal(row, tree.root)
    assert sum(lv.coeff[0] for lv in tree.levels) == pytest.approx(1.0 / 5.0)


def test_blend_scalar_example():
    # level-1 model 2 (group of 2), level-2 model 8 (group of 4):
    # B = 1/2 + 1/4 = 3/4, blend = ((1/2)*2 + (1/4)*8) / (3/4) = 4
    tree = build_tree(labels_pairs_k2(), np.zeros((4, 1)))
    tree.levels[0].models[0] = 2.0
    tree.levels[1].models[0] = 8.0
    assert sum(lv.coeff[0] for lv in tree.levels) == pytest.approx(0.75, abs=1e-15)
    assert generalized_blend(tree)[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_blend_inside_ancestor_envelope():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, 5))
        tree = build_tree(random_labels(n, k, rng), rng.normal(0, 1, (n, 6)))
        blend = generalized_blend(tree)
        for cid in range(n):
            stack = np.stack([lv.models[lv.group[cid]] for lv in tree.levels])
            assert np.all(blend[cid] >= stack.min(axis=0) - 1e-12)
            assert np.all(blend[cid] <= stack.max(axis=0) + 1e-12)


def test_anchor_pull_checks_mu_and_pulls_nothing_at_zero():
    tree = build_tree(labels_pairs_k2(), models_for(4))
    assert anchor_pull(tree, 0.0) is None
    for mu in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"mu must be finite and non-negative, got {mu}"):
            anchor_pull(tree, mu)


def test_format_tree_lists_every_level():
    tree = build_tree(labels_pairs_k2(), models_for(4))
    text = format_tree(tree)
    assert "level=2" in text and "level=1" in text
    assert "members=[0,1]" in text


# ------------------------------------------------------------ node-graph oracle


@st.composite
def laminar_assignments(draw):
    """Any laminar family over clients 0..n-1 as `{level: [members of each
    group]}`, with a model block: each level splits every group of the level
    above into random parts of random members, and lists the groups in
    random order."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = {k: [rng.permutation(n).tolist()]}
    for level in range(k - 1, 0, -1):
        parts = []
        for g in groups[level + 1]:
            n_cuts = min(len(g) - 1, int(rng.integers(0, 3)))
            cuts = np.sort(rng.choice(np.arange(1, len(g)), size=n_cuts, replace=False))
            parts.extend(np.split(rng.permutation(g), cuts))
        groups[level] = [parts[i].tolist() for i in rng.permutation(len(parts))]
    m = draw(st.integers(1, 20))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e8]))
    return groups, rng.normal(0.0, scale, (n, m))


@settings(max_examples=150, deadline=None)
@given(laminar_assignments())
# a column of -0.0 in every client: each mean starts from its first child, so
# the sign survives, as in the node graph (a sum from +0.0 would lose it)
@example(({3: [[0, 1, 2, 3, 4]], 2: [[0, 1], [2, 3, 4]], 1: [[0], [1], [2, 4], [3]]},
          np.column_stack([np.arange(1.0, 6.0), np.full(5, -0.0)])))
@example(({4: [[0, 1, 2, 3, 4, 5, 6]], 3: [[5, 0, 3], [1, 2, 4, 6]], 2: [[0, 3], [5], [2, 6, 4], [1]],
           1: [[3], [0], [5], [4, 2], [6], [1]]}, np.linspace(-1.0, 2.0, 7)[:, None]))  # one parameter wide
def test_tree_levels_blend_and_text_equal_the_node_graph_bit_for_bit(case):
    groups, block = case
    tree = build_tree(labels_of(groups), block)
    nodes = node_tree(groups, dict(enumerate(block)))
    n = len(block)
    for level, (models, group, coeff) in zip(tree.levels, node_anchor_levels(nodes, range(n))):
        assert level.models.tobytes() == models.tobytes()
        assert level.group.tobytes() == group.tobytes()
        assert level.coeff.tobytes() == coeff.tobytes()
    expected = np.stack([node_generalized_blend(nodes, cid)[0] for cid in range(n)])
    assert generalized_blend(tree).tobytes() == expected.tobytes()
    assert format_tree(tree) == node_format_tree(nodes)
