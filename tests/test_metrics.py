"""Specialization/generalization metric suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demlearn import models
from demlearn.data import Dataset
from demlearn.hierarchy import build_tree
from demlearn.metrics import (
    c_gen,
    c_spe,
    evaluate,
    g_metrics,
    round_metrics,
)
from demlearn.models import LOGISTIC, MLP, ModelSpec

from oracles import labels_of, softmax_round_metrics
from test_hierarchy import laminar_assignments

SPEC = ModelSpec(LOGISTIC, 2, 3)


class FakeShard:
    def __init__(self, test):
        self.test = test


def clients(*pairs):
    """(model, test set) pairs as a (C, M) model block and C shards."""
    return np.stack([w for w, _ in pairs]), [FakeShard(test) for _, test in pairs]


def logits_model(rows, bias):
    """Pack a hand-set 2x3 weight matrix + bias into a flat vector."""
    w = np.zeros(SPEC.param_count)
    w[:6] = np.asarray(rows, dtype=float).ravel()
    w[6:] = bias
    return w


def ds(features, labels):
    return Dataset(np.asarray(features, dtype=float), np.asarray(labels), 3)


def accuracy(spec, w, data):
    """One model's accuracy on `data`: C-GEN of a block of one client."""
    return c_gen(spec, w[None], data)


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
    acc = c_spe(SPEC, *clients((w, ds([[1.0, 0.0]], [0]))))
    assert acc == 1.0
    acc2 = c_spe(SPEC, *clients((w, ds([[1.0, 0.0]], [0])), (w.copy(), ds([[-1.0, 0.0]], [2]))))
    assert acc2 == 1.0


def test_c_spe_is_mean_over_clients():
    w = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    right = (w, ds([[1.0, 0.0]], [0]))
    wrong = (w.copy(), ds([[1.0, 0.0]], [1]))
    acc = c_spe(SPEC, *clients(right, wrong))
    assert acc == pytest.approx(0.5)


def test_c_gen_shared_model_equals_union_accuracy():
    w = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    union = ds([[1.0, 0.0], [-1.0, 0.0], [1.0, 1.0]], [0, 2, 1])
    acc = c_gen(SPEC, np.stack([w] * 3), union)
    assert acc == pytest.approx(accuracy(SPEC, w, union))


def test_c_gen_two_client_hand_count():
    w_good = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    w_zero = np.zeros(SPEC.param_count)
    union = ds([[1.0, 0.0], [-1.0, 0.0]], [0, 2])
    block = np.stack([w_good, w_zero])  # 2/2 correct; ties -> class 0: 1/2 correct
    acc = c_gen(SPEC, block, union)
    assert acc == pytest.approx((1.0 + 0.5) / 2)




def test_g_metrics_k1_empty():
    w = np.zeros(SPEC.param_count)
    union = ds([[1.0, 0.0]], [0])
    block, shards = clients(*[(w, union)] * 2)
    tree = build_tree(np.zeros((1, 2), np.intp), block)
    gs, gg = g_metrics(SPEC, tree, shards, union)
    assert gs == () and gg == ()


def test_g_metrics_identical_models_match_global():
    w = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    union = ds([[1.0, 0.0], [-1.0, 0.0], [0.5, 1.0]], [0, 2, 0])
    block, shards = clients(*[(w, union)] * 4)
    tree = build_tree(labels_of({2: [[0, 1, 2, 3]], 1: [[0, 1], [2, 3]]}), block)
    gs, gg = g_metrics(SPEC, tree, shards, union)
    ga, _ = evaluate(SPEC, tree.root, union)
    assert all(v == pytest.approx(ga) for v in gg)
    assert ga == pytest.approx(accuracy(SPEC, w, union))


def test_g_metrics_two_group_hand_count():
    w_good = logits_model([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    w_anti = logits_model([[-5.0, 0.0, 5.0], [0.0, 0.0, 0.0]], [0.0, 0.0, 0.0])
    t_pos = ds([[1.0, 0.0]], [0])
    t_neg = ds([[1.0, 0.0]], [2])
    union = ds([[1.0, 0.0], [1.0, 0.0]], [0, 2])
    block, shards = clients((w_good, t_pos), (w_good, t_pos), (w_anti, t_neg), (w_anti, t_neg))
    tree = build_tree(labels_of({2: [[0, 1, 2, 3]], 1: [[0, 1], [2, 3]]}), block)
    gs, gg = g_metrics(SPEC, tree, shards, union)
    # each group model is its members' (identical) model: fits own shard,
    # scores 1/2 on the union
    assert gs[0] == pytest.approx(1.0)
    assert gg[0] == pytest.approx(0.5)


def test_round_metrics_invariant_under_client_reordering():
    rng = np.random.default_rng(0)
    union = ds(rng.normal(0, 1, (6, 2)), rng.integers(0, 3, 6))
    tests = [ds(rng.normal(0, 1, (3, 2)), rng.integers(0, 3, 3)) for _ in range(4)]
    block, shards = clients(*[(rng.normal(0, 0.5, SPEC.param_count), t) for t in tests])
    tree = build_tree(labels_of({2: [[0, 1, 2, 3]], 1: [[0, 1], [2, 3]]}), block)
    m1 = round_metrics(SPEC, 0, block, shards, union, tree=tree)
    # client i becomes client 3 - i: reversed rows and shards, groups relabelled
    rev_tree = build_tree(labels_of({2: [[0, 1, 2, 3]], 1: [[2, 3], [0, 1]]}), block[::-1])
    m2 = round_metrics(SPEC, 0, block[::-1], shards[::-1], union, tree=rev_tree)
    assert m1.c_spe == m2.c_spe and m1.c_gen == m2.c_gen
    assert m1.g_spe == m2.g_spe and m1.global_acc == m2.global_acc


def test_round_metrics_baseline_path():
    # FedAvg / FedProx keep a one-level tree: no group series, root is global
    rng = np.random.default_rng(1)
    union = ds(rng.normal(0, 1, (5, 2)), rng.integers(0, 3, 5))
    block, shards = clients(*[(np.zeros(SPEC.param_count), union)] * 2)
    tree = build_tree(np.zeros((1, 2), np.intp), block)
    m = round_metrics(SPEC, 3, block, shards, union, tree)
    assert m.t == 3
    assert m.g_spe == () and m.g_gen == ()
    assert m.global_acc == pytest.approx(accuracy(SPEC, np.zeros(SPEC.param_count), union))
    with pytest.raises(TypeError):
        round_metrics(SPEC, 0, block, shards, union)


def random_round(spec, n, rng):
    """A model block, shards and a global test set for n clients.  Every test
    set has a power-of-two size, so each accuracy is a dyadic fraction and a
    mean over clients is exact in any order."""
    block = rng.normal(0.0, 0.7, (n, spec.param_count))

    def test_set(size):
        labels = rng.integers(0, spec.num_classes, size)
        return Dataset(rng.normal(0.0, 1.0, (size, spec.input_dim)), labels, spec.num_classes)

    shards = [FakeShard(test_set(int(rng.choice([4, 8, 16])))) for _ in range(n)]
    return block, shards, test_set(int(rng.choice([16, 32])))


@settings(max_examples=80, deadline=None)
@given(laminar_assignments(), st.sampled_from([LOGISTIC, MLP]), st.data())
def test_round_metrics_equal_the_softmax_oracle_in_any_client_order(case, kind, drawn):
    labels = labels_of(case[0])
    spec = ModelSpec(kind, 3, 4, 5 if kind == MLP else 0)
    rng = np.random.default_rng(drawn.draw(st.integers(0, 2**32 - 1)))
    block, shards, union = random_round(spec, labels.shape[1], rng)
    tree = build_tree(labels, block)
    m = round_metrics(spec, 7, block, shards, union, tree)
    assert m == softmax_round_metrics(spec, 7, block, shards, union, tree)
    # new client j is old client order[j]; the tree is relabelled to match
    order = np.array(drawn.draw(st.permutations(range(len(block)))))
    moved_shards = [shards[i] for i in order]
    moved_tree = build_tree(labels[:, order], block[order])
    m2 = round_metrics(spec, 7, block[order], moved_shards, union, moved_tree)
    assert m2 == softmax_round_metrics(spec, 7, block[order], moved_shards, union, moved_tree)
    assert (m2.c_spe, m2.c_gen) == (m.c_spe, m.c_gen)


def test_round_metrics_checks_data_a_fixed_number_of_times_whatever_the_clients(monkeypatch):
    calls = []
    check = models._check_data

    def counted(spec, sets):
        calls.append(len(sets))
        return check(spec, sets)

    monkeypatch.setattr(models, "_check_data", counted)
    counts = []
    rng = np.random.default_rng(8)
    for n in (2, 6, 24):
        halves = [list(range(n // 2)), list(range(n // 2, n))]
        singles = [[c] for c in range(n)]
        labels = labels_of({3: [list(range(n))], 2: halves, 1: singles})
        block, shards, union = random_round(SPEC, n, rng)
        calls.clear()
        round_metrics(SPEC, 0, block, shards, union, build_tree(labels, block))
        counts.append(len(calls))
    # c_spe, c_gen, the root's evaluate and two per group level
    assert counts == [1 + 1 + 1 + 2 * 2] * 3
