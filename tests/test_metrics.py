"""Specialization/generalization metric suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demlearn import models
from demlearn.data import Dataset
from demlearn.hierarchy import build_tree
from demlearn.metrics import _right_counts, evaluate, round_metrics
from demlearn.models import LOGISTIC, MLP, ModelSpec

from oracles import client_sets, concat_datasets, concat_group_metrics, labels_of, softmax_round_metrics
from test_hierarchy import laminar_assignments
from test_models import chunks_of, near_tie_bias, stack

SPEC = ModelSpec(LOGISTIC, 2, 3)


def clients(*pairs):
    """(model, test set) pairs as a (C, M) model block and a stack of C test splits."""
    return np.stack([w for w, _ in pairs]), stack([test for _, test in pairs])


def logits_model(rows, bias):
    """Pack a hand-set 2x3 weight matrix + bias into a flat vector."""
    w = np.zeros(SPEC.param_count)
    w[:6] = np.asarray(rows, dtype=float).ravel()
    w[6:] = bias
    return w


def ds(features, labels):
    return Dataset(np.asarray(features, dtype=float), np.asarray(labels), 3)


def counts(spec, block, test):
    """The (C, 2) right counts that `models.local_solve` returns, by the
    predicting path: each row on its own split and on the collective set."""
    return np.stack([_right_counts(spec, block, test), _right_counts(spec, block, test.union())], axis=1)


def client_metrics(block, test):
    """A round's metrics for the clients of `block` on the `test` stack,
    in one group of all."""
    tree = build_tree(np.zeros((1, len(block)), np.intp), block)
    return round_metrics(SPEC, 0, counts(SPEC, block, test), test, tree)


def accuracy(spec, w, data):
    """One model's accuracy on `data`: C-GEN of a block of one client."""
    return float(_right_counts(spec, w[None], data)[0] / len(data))


def test_accuracy_tie_breaks_to_lowest_class():
    w = np.zeros(SPEC.param_count)  # uniform probabilities, argmax -> class 0
    data = ds([[0.3, -0.1], [1.0, 2.0]], [0, 0])
    assert accuracy(SPEC, w, data) == 1.0
    assert accuracy(SPEC, w, ds([[0.3, -0.1]], [1])) == 0.0


def test_accuracy_single_sample():
    w = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    assert accuracy(SPEC, w, ds([[1.0, 0.0]], [0])) == 1.0


def test_accuracy_hand_counted_fixture():
    # weights route class by sign of the first feature; second feature ignored
    w = logits_model([[2.0, 0.0, -2.0], [0.0, 0.0, 0.0]], [0.0, 0.1, 0.0])
    data = ds(
        [[1.0, 0.0], [-1.0, 0.0], [2.0, 1.0], [0.0, 3.0], [-2.0, -1.0]],
        [0, 2, 0, 1, 2],
    )
    # logits: x>0 -> class 0 wins; x<0 -> class 2 wins; x=0 -> class 1 (bias 0.1)
    assert accuracy(SPEC, w, data) == pytest.approx(1.0)
    flipped = ds([[1.0, 0.0], [-1.0, 0.0]], [2, 0])
    assert accuracy(SPEC, w, flipped) == 0.0


def test_evaluate_loss_matches_uniform():
    w = np.zeros(SPEC.param_count)
    acc, nll = evaluate(SPEC, w, ds([[0.5, 0.5]], [2]))
    assert nll == pytest.approx(math.log(3), abs=1e-12)


def test_c_spe_single_and_perfect():
    w = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    acc = client_metrics(*clients((w, ds([[1.0, 0.0]], [0])))).c_spe
    assert acc == 1.0
    acc2 = client_metrics(*clients((w, ds([[1.0, 0.0]], [0])), (w.copy(), ds([[-1.0, 0.0]], [2])))).c_spe
    assert acc2 == 1.0


def test_c_spe_is_mean_over_clients():
    w = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    right = (w, ds([[1.0, 0.0]], [0]))
    wrong = (w.copy(), ds([[1.0, 0.0]], [1]))
    acc = client_metrics(*clients(right, wrong)).c_spe
    assert acc == pytest.approx(0.5)


def test_c_gen_shared_model_equals_union_accuracy():
    w = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    union = ds([[1.0, 0.0], [-1.0, 0.0], [1.0, 1.0]], [0, 2, 1])
    # three clients of one sample each, whose collective set is `union`
    acc = client_metrics(*clients(*[(w, ds([x], [y])) for x, y in zip(union.features, union.labels)])).c_gen
    assert acc == pytest.approx(accuracy(SPEC, w, union))


def test_c_gen_two_client_hand_count():
    w_good = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    w_zero = np.zeros(SPEC.param_count)
    # 2/2 correct; ties -> class 0: 1/2 correct on the collective set
    acc = client_metrics(*clients((w_good, ds([[1.0, 0.0]], [0])), (w_zero, ds([[-1.0, 0.0]], [2])))).c_gen
    assert acc == pytest.approx((1.0 + 0.5) / 2)


def test_round_metrics_k1_has_empty_group_series():
    w = np.zeros(SPEC.param_count)
    block, test = clients(*[(w, ds([[1.0, 0.0]], [0]))] * 2)
    tree = build_tree(np.zeros((1, 2), np.intp), block)
    m = round_metrics(SPEC, 0, counts(SPEC, block, test), test, tree)
    assert m.g_spe == () and m.g_gen == ()


def test_round_metrics_identical_models_groups_match_global():
    w = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    split = ds([[1.0, 0.0], [-1.0, 0.0], [0.5, 1.0]], [0, 2, 0])
    block, test = clients(*[(w, split)] * 4)
    tree = build_tree(labels_of({2: [[0, 1, 2, 3]], 1: [[0, 1], [2, 3]]}), block)
    m = round_metrics(SPEC, 0, counts(SPEC, block, test), test, tree)
    ga, _ = evaluate(SPEC, tree.root, test.union())
    assert m.global_acc == ga
    assert all(v == pytest.approx(ga) for v in m.g_gen)
    assert ga == pytest.approx(accuracy(SPEC, w, split))


def test_round_metrics_two_group_hand_count():
    w_good = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    w_anti = logits_model([[-5.0, 0.0, 5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    t_pos = ds([[1.0, 0.0]], [0])
    t_neg = ds([[1.0, 0.0]], [2])
    block, test = clients((w_good, t_pos), (w_good, t_pos), (w_anti, t_neg), (w_anti, t_neg))
    tree = build_tree(labels_of({2: [[0, 1, 2, 3]], 1: [[0, 1], [2, 3]]}), block)
    m = round_metrics(SPEC, 0, counts(SPEC, block, test), test, tree)
    # each group model is its members' (identical) model: fits own shard,
    # scores 1/2 on the union
    assert m.g_spe[0] == pytest.approx(1.0)
    assert m.g_gen[0] == pytest.approx(0.5)


def test_round_metrics_invariant_under_client_reordering():
    rng = np.random.default_rng(0)
    tests = [ds(rng.normal(0, 1, (3, 2)), rng.integers(0, 3, 3)) for _ in range(4)]
    block, test = clients(*[(rng.normal(0, 0.5, SPEC.param_count), t) for t in tests])
    tree = build_tree(labels_of({2: [[0, 1, 2, 3]], 1: [[0, 1], [2, 3]]}), block)
    m1 = round_metrics(SPEC, 0, counts(SPEC, block, test), test, tree=tree)
    # client i becomes client 3 - i: reversed rows and splits, groups relabelled
    rev_tree = build_tree(labels_of({2: [[0, 1, 2, 3]], 1: [[2, 3], [0, 1]]}), block[::-1])
    m2 = round_metrics(SPEC, 0, counts(SPEC, block[::-1], stack(tests[::-1])), stack(tests[::-1]), tree=rev_tree)
    assert m1.c_spe == m2.c_spe and m1.c_gen == m2.c_gen
    assert m1.g_spe == m2.g_spe and m1.global_acc == m2.global_acc


def test_round_metrics_baseline_path():
    # FedAvg / FedProx keep a one-level tree: no group series, root is global
    rng = np.random.default_rng(1)
    split = ds(rng.normal(0, 1, (5, 2)), rng.integers(0, 3, 5))
    block, test = clients(*[(np.zeros(SPEC.param_count), split)] * 2)
    tree = build_tree(np.zeros((1, 2), np.intp), block)
    m = round_metrics(SPEC, 3, counts(SPEC, block, test), test, tree)
    assert m.t == 3
    assert m.g_spe == () and m.g_gen == ()
    assert m.global_acc == pytest.approx(accuracy(SPEC, np.zeros(SPEC.param_count), split))
    with pytest.raises(TypeError):
        round_metrics(SPEC, 0, counts(SPEC, block, test), test)


def test_the_collective_set_is_the_splits_in_client_order_without_a_copy():
    rng = np.random.default_rng(2)
    splits = [ds(rng.normal(0, 1, (3, 2)), rng.integers(0, 3, 3)) for _ in range(4)]
    test = stack(splits)
    union = test.union()
    joined = concat_datasets(splits)
    assert union.features.tobytes() == joined.features.tobytes()
    assert union.labels.tobytes() == joined.labels.tobytes()
    assert np.shares_memory(union.features, test.features)
    assert np.shares_memory(union.labels, test.labels)


def random_round(spec, n, rng, m=None):
    """A model block and a stack of n test splits of m samples each.  m is a
    power of two, so each C-SPE term is a dyadic fraction and their mean is
    exact in any order."""
    block = rng.normal(0.0, 0.7, (n, spec.param_count))
    m = m or int(rng.choice([4, 8, 16]))
    labels = rng.integers(0, spec.num_classes, (n, m))
    features = rng.normal(0.0, 1.0, (n, m, spec.input_dim))
    return block, Dataset(features, labels, spec.num_classes)


@settings(max_examples=80, deadline=None)
@given(laminar_assignments(), st.sampled_from([LOGISTIC, MLP]), st.data())
def test_round_metrics_equal_the_softmax_oracle_in_any_client_order(case, kind, drawn):
    labels = labels_of(case[0])
    spec = ModelSpec(kind, 3, 4, 5 if kind == MLP else 0)
    rng = np.random.default_rng(drawn.draw(st.integers(0, 2**32 - 1)))
    block, test = random_round(spec, labels.shape[1], rng)
    tree = build_tree(labels, block)
    m = round_metrics(spec, 7, counts(spec, block, test), test, tree)
    assert m == softmax_round_metrics(spec, 7, block, test, tree)
    # new client j is old client order[j]; the tree is relabelled to match
    order = np.array(drawn.draw(st.permutations(range(len(block)))))
    moved = Dataset(test.features[order], test.labels[order], test.num_classes)
    moved_tree = build_tree(labels[:, order], block[order])
    m2 = round_metrics(spec, 7, counts(spec, block[order], moved), moved, moved_tree)
    assert m2 == softmax_round_metrics(spec, 7, block[order], moved, moved_tree)
    assert m2.c_spe == m.c_spe
    # C-GEN's terms share the denominator C * m, which need not be a power of
    # two, so their mean may round by order; each client's own term may not
    own = [accuracy(spec, w, test.union()) for w in block]
    assert [accuracy(spec, w, moved.union()) for w in block[order]] == [own[i] for i in order]


def copy_lone_groups(tree, block):
    """Make each group of one child that child's model again, bottom-up, as
    `propagate_up` leaves it: the clients are the children at level 1."""
    below = block
    group = np.arange(len(block))
    for level in tree.levels:
        children = [np.unique(group[level.group == g]) for g in range(len(level.models))]
        for model, kids in zip(level.models, children):
            if len(kids) == 1:
                model[:] = below[kids[0]]
        below, group = level.models, level.group


@settings(max_examples=60, deadline=None)
@given(laminar_assignments(), st.sampled_from([LOGISTIC, MLP]), st.data())
def test_a_group_of_one_child_is_its_model_and_takes_its_counts(case, kind, drawn):
    labels = labels_of(case[0])
    spec = ModelSpec(kind, 3, 4, 5 if kind == MLP else 0)
    rng = np.random.default_rng(drawn.draw(st.integers(0, 2**32 - 1)))
    block, test = random_round(spec, labels.shape[1], rng)
    tree = build_tree(labels, block)
    # a child's model: the client's row at level 1, the child group's above
    below, group = block, np.arange(len(block))
    for level in tree.levels:
        for g, model in enumerate(level.models):
            kids = np.unique(group[level.group == g])
            if len(kids) == 1:
                assert model.tobytes() == below[kids[0]].tobytes()
        below, group = level.models, level.group
    # the counts every group model gets by predicting, as the oracle joins them
    m = round_metrics(spec, 0, counts(spec, block, test), test, tree)
    assert (m.g_spe, m.g_gen) == concat_group_metrics(spec, tree, client_sets(test), test.union())


@settings(max_examples=100, deadline=None)
@given(laminar_assignments(), st.sampled_from([LOGISTIC, MLP]), st.data())
def test_group_series_of_a_round_are_the_joined_splits_bit_for_bit(case, kind, drawn):
    labels = labels_of(case[0])
    spec = ModelSpec(kind, 3, 4, 5 if kind == MLP else 0)
    rng = np.random.default_rng(drawn.draw(st.integers(0, 2**32 - 1)))
    block, test = random_round(spec, labels.shape[1], rng, m=drawn.draw(st.integers(1, 12)))
    tree = build_tree(labels, block)
    for level in tree.levels[:-1]:
        for w in level.models:
            if rng.random() < 0.3:  # logits of near-tied classes on every sample
                w[:] = 0.0
                w[-spec.num_classes :] = near_tie_bias(rng, spec.num_classes)
    copy_lone_groups(tree, block)
    # G-GEN runs on the collective set in the chunks of the bound, or in
    # chunks of a few samples with a partial last one
    with chunks_of(spec, drawn.draw(st.none() | st.integers(1, 7))):
        m = round_metrics(spec, 0, counts(spec, block, test), test, tree)
    expected = concat_group_metrics(spec, tree, client_sets(test), test.union())
    assert [[v.hex() for v in series] for series in (m.g_spe, m.g_gen)] == [
        [v.hex() for v in series] for series in expected
    ]


def test_round_metrics_checks_data_a_fixed_number_of_times_whatever_the_clients(monkeypatch):
    calls = []
    check = models._check_data

    def counted(spec, data, *args, **kwargs):
        calls.append(data.features.ndim)
        return check(spec, data, *args, **kwargs)

    monkeypatch.setattr(models, "_check_data", counted)
    checks = []
    rng = np.random.default_rng(8)
    for n in (4, 6, 24):
        halves = [list(range(n // 2)), list(range(n // 2, n))]
        singles = [[c] for c in range(n)]
        labels = labels_of({3: [list(range(n))], 2: halves, 1: singles})
        block, test = random_round(SPEC, n, rng)
        right = counts(SPEC, block, test)
        calls.clear()
        round_metrics(SPEC, 0, right, test, build_tree(labels, block))
        checks.append(len(calls))
    # the root's evaluate, one stacked G-SPE predict for each of levels 1
    # and 2, and one G-GEN call for the groups of level 2 on the collective
    # set: the singletons of level 1 are their clients' models and take
    # their counts there.  Each call checks a whole stack or set, however
    # many clients it holds.
    assert checks == [1 + 2 + 1] * 3
