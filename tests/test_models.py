"""Model core: forward/grad, predict, the proximal pull, and the lockstep solver."""

import contextlib
import math
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from demlearn import metrics, models
from demlearn.data import Dataset
from demlearn.hierarchy import AnchorLevel, HierarchyTree, anchor_pull
from demlearn.models import (
    LOGISTIC,
    MLP,
    Helpers,
    ModelSpec,
    forward,
    grad,
    init_params,
    local_solve,
    predict_block,
    prox_grad,
)

from oracles import (
    central_diff,
    client_anchors,
    client_sets,
    levelwise_pull,
    loss,
    prox_objective,
    scalar_local_solve,
    softmax_predict,
)

LOG10 = ModelSpec(LOGISTIC, 4, 10)
SMALL = ModelSpec(LOGISTIC, 1, 2)  # 4 parameters
MLP_SPEC = ModelSpec(MLP, 3, 4, hidden_dim=5)
SERVER_120 = ModelSpec(LOGISTIC, 16, 10)
PROTOCOL = ModelSpec(MLP, 16, 10, hidden_dim=32)


def predict(spec, w, data):
    """One model's labels on one data set: `predict_block` on a block of one row."""
    return next(iter(predict_block(spec, [w], data)))


def data(spec, features, labels):
    return Dataset(np.asarray(features, dtype=float), np.asarray(labels), spec.num_classes)


def stack(sets):
    """Equal-size sets as one stack, set i at row i."""
    return Dataset(
        np.stack([d.features for d in sets]), np.stack([d.labels for d in sets]), sets[0].num_classes
    )


def rows(ds, index):
    """The sets of a stack at `index`, as a stack."""
    return Dataset(ds.features[index], ds.labels[index], ds.num_classes)


def random_data(spec, n, rng, scale=1.0):
    return data(
        spec,
        rng.normal(0.0, scale, (n, spec.input_dim)),
        rng.integers(0, spec.num_classes, n),
    )


def anchored(*anchors):
    """One client's (model, coeff) anchors as a stack of one, a level each."""
    return [AnchorLevel(a[None], np.zeros(1, dtype=np.intp), np.array([c])) for a, c in anchors]


def fold(levels, mu):
    """The levels' pull (s, A), as `hierarchy.anchor_pull` folds a tree's;
    None for no levels."""
    return anchor_pull(HierarchyTree(levels), mu) if levels else None


def grad1(spec, w, x, y):
    return grad(spec, x[None], y[None], models._Workspace(spec, w[None], len(y)))[0]


def prox_grad1(spec, w, x, y, levels, mu):
    """`prox_grad` on a stack of one, on the levels' folded pull."""
    work = models._Workspace(spec, w[None], len(y))
    return prox_grad(spec, x[None], y[None], fold(levels, mu), work)[0]


def prox_objective1(spec, w, batch, levels, mu):
    return prox_objective(spec, w[None], [batch], levels, mu)[0]


def solve1(spec, w, train, pull, epochs, batch_size, lr, seed, seeds=None):
    """`local_solve` on a stack of one, with the seed row [seed] unless
    `seeds` is given, scored on its training set; returns the new model, w
    untouched."""
    block = np.array(w, dtype=np.float64)[None]
    seeds = [[seed]] if seeds is None else seeds
    local_solve(spec, block, stack([train]), pull, epochs, batch_size, lr, seeds, stack([train]))
    return block[0]


def test_param_count_is_deterministic():
    assert LOG10.param_count == 4 * 10 + 10
    assert MLP_SPEC.param_count == 3 * 5 + 5 + 5 * 4 + 4


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("cnn", 4, 10)
    with pytest.raises(ValueError):
        ModelSpec(LOGISTIC, 4, 10, hidden_dim=3)
    with pytest.raises(ValueError):
        ModelSpec(MLP, 4, 10, hidden_dim=0)


def test_forward_zero_weights_is_uniform():
    w = np.zeros(LOG10.param_count)
    batch = random_data(LOG10, 7, np.random.default_rng(0))
    probs = forward(LOG10, w, batch)
    assert np.allclose(probs, 0.1, atol=1e-12)


def test_forward_rows_are_distributions():
    rng = np.random.default_rng(1)
    for spec in (LOG10, MLP_SPEC):
        w = rng.normal(0, 1, spec.param_count)
        probs = forward(spec, w, random_data(spec, 11, rng))
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_forward_is_deterministic_per_row():
    rng = np.random.default_rng(2)
    w = rng.normal(0, 1, MLP_SPEC.param_count)
    x = rng.normal(0, 1, (1, MLP_SPEC.input_dim))
    probs = forward(MLP_SPEC, w, data(MLP_SPEC, np.vstack([x, x]), [0, 0]))
    assert np.array_equal(probs[0], probs[1])


def test_forward_extreme_logit_gap():
    # 2-class logistic with huge weights approximates a hard (1, 0) output;
    # the oracle is a direct scalar softmax computation
    spec = ModelSpec(LOGISTIC, 1, 2)
    w = np.array([50.0, -50.0, 0.0, 0.0])  # W=(50,-50), b=0
    x = np.array([[1.0]])
    probs = forward(spec, w, data(spec, x, [0]))
    z0, z1 = 50.0, -50.0
    direct = math.exp(z0 - z0) / (math.exp(z0 - z0) + math.exp(z1 - z0))
    assert probs[0, 0] == pytest.approx(direct, abs=1e-15)
    assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(probs))


def test_forward_finite_for_large_features():
    rng = np.random.default_rng(3)
    for spec in (LOG10, MLP_SPEC):
        w = rng.normal(0, 1, spec.param_count)
        x = np.full((2, spec.input_dim), 1e3)
        probs = forward(spec, w, data(spec, x, [0, 0]))
        assert np.all(np.isfinite(probs))


def test_forward_does_not_depend_on_the_feature_layout():
    # the checks take a C-ordered copy of a set, so a set scored alone must
    # give the same bits whatever its layout; a Fortran-ordered gemm rounds
    # differently
    rng = np.random.default_rng(22)
    spec = ModelSpec(LOGISTIC, 16, 10)
    x, y = rng.normal(0.0, 1.0, (50, 16)), rng.integers(0, 10, 50)
    w = rng.normal(0.0, 1.0, spec.param_count)
    c_order = forward(spec, w, data(spec, x, y))
    assert forward(spec, w, data(spec, np.asfortranarray(x), y)).tobytes() == c_order.tobytes()


def test_forward_dimension_mismatch():
    w = np.zeros(LOG10.param_count)
    with pytest.raises(ValueError):
        forward(LOG10, w, data(LOG10, np.zeros((2, 5)), [0, 0]))
    with pytest.raises(ValueError):
        forward(LOG10, np.zeros(3), data(LOG10, np.zeros((2, 4)), [0, 0]))
    with pytest.raises(ValueError):
        forward(LOG10, w, data(LOG10, np.zeros((2, 4)), [0, 0, 0]))


def test_loss_zero_weights_balanced_batch():
    w = np.zeros(LOG10.param_count)
    rng = np.random.default_rng(4)
    balanced = data(LOG10, rng.normal(0, 1, (10, 4)), np.arange(10))
    assert loss(LOG10, w, balanced) == pytest.approx(math.log(10), abs=1e-9)


def test_loss_perfect_predictor_limit():
    spec = ModelSpec(LOGISTIC, 1, 2)
    w = np.array([80.0, -80.0, 0.0, 0.0])
    assert loss(spec, w, data(spec, [[1.0], [1.0]], [0, 0])) < 1e-12


def test_loss_matches_scalar_recomputation():
    # fixed 3-sample batch, hand-set weights, brute-force softmax + log loop
    spec = ModelSpec(LOGISTIC, 2, 3)
    w = np.array([0.3, -0.2, 0.5, 0.1, 0.4, -0.6, 0.05, -0.1, 0.2])
    x = np.array([[1.0, 2.0], [-1.0, 0.5], [0.0, -2.0]])
    y = np.array([0, 2, 1])
    expected = 0.0
    wt = w[:6].reshape(2, 3)
    bias = w[6:]
    for i in range(3):
        logits = [
            x[i][0] * wt[0][k] + x[i][1] * wt[1][k] + bias[k] for k in range(3)
        ]
        m = max(logits)
        exps = [math.exp(z - m) for z in logits]
        p = exps[y[i]] / sum(exps)
        expected -= math.log(p)
    expected /= 3
    assert loss(spec, w, data(spec, x, y)) == pytest.approx(expected, rel=1e-12)


def test_grad_matches_finite_differences_logistic():
    spec = SMALL  # 4 parameters < 10, plus a 10-param variant below
    rng = np.random.default_rng(5)
    for spec in (SMALL, ModelSpec(LOGISTIC, 4, 2)):  # 4 and 10 parameters
        w = rng.normal(0, 0.5, spec.param_count)
        batch = random_data(spec, 6, rng)
        g = grad1(spec, w, batch.features, batch.labels)
        fd = central_diff(lambda v: loss(spec, v, batch), w)
        assert np.max(np.abs(g - fd) / (np.abs(fd) + 1e-4)) < 1e-5


def test_grad_matches_finite_differences_mlp():
    rng = np.random.default_rng(6)
    w = rng.normal(0, 0.5, MLP_SPEC.param_count)
    batch = random_data(MLP_SPEC, 5, rng)
    g = grad1(MLP_SPEC, w, batch.features, batch.labels)
    fd = central_diff(lambda v: loss(MLP_SPEC, v, batch), w)
    assert np.max(np.abs(g - fd) / (np.abs(fd) + 1e-4)) < 1e-5


def test_grad_vanishes_at_perfect_fit():
    spec = ModelSpec(LOGISTIC, 1, 2)
    w = np.array([80.0, -80.0, 0.0, 0.0])
    x, y = np.array([[1.0], [2.0]]), np.array([0, 0])
    assert np.linalg.norm(grad1(spec, w, x, y)) < 1e-12


def test_grad_mean_invariant_under_duplication():
    rng = np.random.default_rng(7)
    w = rng.normal(0, 0.5, LOG10.param_count)
    batch = random_data(LOG10, 5, rng)
    x, y = batch.features, batch.labels
    doubled = grad1(LOG10, w, np.vstack([x, x]), np.concatenate([y, y]))
    assert np.allclose(grad1(LOG10, w, x, y), doubled, atol=1e-14)


def test_prox_objective_mu_zero_equals_loss():
    rng = np.random.default_rng(8)
    w = rng.normal(0, 0.5, LOG10.param_count)
    batch = random_data(LOG10, 4, rng)
    anchors = anchored((rng.normal(0, 1, LOG10.param_count), 0.5))
    assert prox_objective1(LOG10, w, batch, anchors, 0.0) == loss(LOG10, w, batch)


def test_prox_objective_zero_penalty_at_anchor():
    rng = np.random.default_rng(9)
    w = rng.normal(0, 0.5, LOG10.param_count)
    batch = random_data(LOG10, 4, rng)
    anchors = anchored((w.copy(), 0.25), (w.copy(), 1.0))
    assert prox_objective1(LOG10, w, batch, anchors, 3.7) == pytest.approx(
        loss(LOG10, w, batch), abs=1e-15
    )


def test_prox_objective_analytic_penalty():
    # w = anchor + e_0, coeff 0.5, mu 2 -> penalty (2/2)*0.5*1 = 0.5
    rng = np.random.default_rng(10)
    anchor = rng.normal(0, 1, LOG10.param_count)
    w = anchor.copy()
    w[0] += 1.0
    batch = random_data(LOG10, 4, rng)
    got = prox_objective1(LOG10, w, batch, anchored((anchor, 0.5)), 2.0)
    assert got - loss(LOG10, w, batch) == pytest.approx(0.5, abs=1e-12)


def test_prox_grad_mu_zero_is_plain_grad():
    rng = np.random.default_rng(11)
    w = rng.normal(0, 0.5, LOG10.param_count)
    batch = random_data(LOG10, 4, rng)
    anchors = anchored((rng.normal(0, 1, LOG10.param_count), 0.5))
    x, y = batch.features, batch.labels
    g0 = prox_grad1(LOG10, w, x, y, anchors, 0.0)
    assert g0.tobytes() == grad1(LOG10, w, x, y).tobytes()
    assert prox_grad1(LOG10, w, x, y, [], 0.3).tobytes() == g0.tobytes()  # no levels


def test_prox_grad_penalty_only_direction():
    # at a perfect local fit the data gradient vanishes; the prox pull remains
    spec = ModelSpec(LOGISTIC, 1, 2)
    w = np.array([80.0, -80.0, 0.0, 0.0])
    anchor = w - np.array([1.0, 0.0, -2.0, 0.0])
    g = prox_grad1(spec, w, np.array([[1.0]]), np.array([0]), anchored((anchor, 0.5)), 0.2)
    assert np.allclose(g, 0.2 * 0.5 * (w - anchor), atol=1e-12)


def test_prox_grad_matches_finite_differences():
    rng = np.random.default_rng(12)
    w = rng.normal(0, 0.5, LOG10.param_count)
    batch = random_data(LOG10, 4, rng)
    anchors = anchored(
        (rng.normal(0, 1, LOG10.param_count), 0.5),
        (rng.normal(0, 1, LOG10.param_count), 0.125),
    )
    g = prox_grad1(LOG10, w, batch.features, batch.labels, anchors, 0.1)
    fd = central_diff(lambda v: prox_objective1(LOG10, v, batch, anchors, 0.1), w)
    assert np.max(np.abs(g - fd) / (np.abs(fd) + 1e-4)) < 1e-5


@st.composite
def pull_problems(draw):
    """A (C, M) block and 1-4 anchor levels, as (w, levels, mu).  Clients
    share groups, a level may repeat the one before it, and one column is
    -0.0 in the block and in every anchor model."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    w = rng.normal(0.0, scale, (c, m))
    levels = []
    for _ in range(draw(st.integers(1, 4))):
        if levels and draw(st.booleans()):
            levels.append(levels[-1])
            continue
        g = draw(st.integers(1, c))
        levels.append(
            AnchorLevel(rng.normal(0.0, scale, (g, m)), rng.integers(0, g, c), rng.uniform(0.01, 1.0, c))
        )
    zero = draw(st.integers(0, m - 1))
    w[:, zero] = -0.0
    for level in levels:
        level.models[:, zero] = -0.0
    return w, levels, draw(st.sampled_from([1e-3, 0.05, 0.7, 5.0]))


@settings(max_examples=200, deadline=None)
@given(pull_problems())
def test_the_folded_pull_is_the_levelwise_pull_to_a_few_ulps(problem):
    # the step's pull s * w - A against sum_k mu * coeff_k * (w - anchor_k)
    # added level by level: both round each of their few operations once
    w, levels, mu = problem
    s, target = fold(levels, mu)
    folded = w * s - target
    for i in range(len(w)):
        anchors = client_anchors(levels, i)
        size = sum(mu * coeff * (np.abs(w[i]) + np.abs(a)) for a, coeff in anchors)
        error = np.abs(folded[i] - levelwise_pull(w[i], anchors, mu))
        assert np.all(error <= 8 * np.finfo(np.float64).eps * size), f"client {i}"


def test_local_solve_lr_zero_returns_init():
    rng = np.random.default_rng(13)
    w = rng.normal(0, 0.5, LOG10.param_count)
    train = random_data(LOG10, 8, rng)
    out = solve1(LOG10, w, train, None, 3, 4, 0.0, 13)
    assert np.array_equal(out, w)


def test_local_solve_descends_on_full_batches():
    rng = np.random.default_rng(14)
    w = init_params(LOG10, rng)
    train = random_data(LOG10, 16, rng)
    before = prox_objective1(LOG10, w, train, [], 0.0)
    out = solve1(LOG10, w, train, None, 20, 16, 0.05, 14)
    after = prox_objective1(LOG10, out, train, [], 0.0)
    assert after <= before


def test_local_solve_one_full_batch_step_matches_manual():
    rng = np.random.default_rng(15)
    w = rng.normal(0, 0.5, LOG10.param_count)
    train = random_data(LOG10, 6, rng)
    anchors = anchored((rng.normal(0, 1, LOG10.param_count), 0.5))
    out = solve1(LOG10, w, train, fold(anchors, 0.3), 1, 6, 0.1, 99)
    # one epoch at batch_size == n is a single step on the permuted batch
    perm = np.random.default_rng(99).permutation(6)
    manual = w - 0.1 * prox_grad1(
        LOG10, w, train.features[perm], train.labels[perm], anchors, 0.3
    )
    assert np.array_equal(out, manual)


def test_sgd_update_rule_reaches_quadratic_minimizer():
    # 1-D surrogate: loss (w-a)^2 with one anchor b; the same update rule
    # w <- w - lr (2(w-a) + mu c (w-b)) must approach the closed-form optimum
    a, bval, c, mu, lr = 1.5, -0.5, 0.5, 2.0, 0.05
    w = 0.0
    for _ in range(200):
        w -= lr * (2.0 * (w - a) + mu * c * (w - bval))
    target = (2.0 * a + mu * c * bval) / (2.0 + mu * c)
    assert abs(w - target) < 1e-4


def test_local_solve_deterministic_given_seed():
    rng_data = np.random.default_rng(16)
    w = rng_data.normal(0, 0.5, LOG10.param_count)
    train = random_data(LOG10, 10, rng_data)
    a = solve1(LOG10, w, train, None, 3, 4, 0.05, 1234)
    b = solve1(LOG10, w, train, None, 3, 4, 0.05, 1234)
    assert a.tobytes() == b.tobytes()


def test_local_solve_rejects_empty_training_set():
    w = np.zeros(LOG10.param_count)
    empty = data(LOG10, np.zeros((0, 4)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        solve1(LOG10, w, empty, None, 1, 4, 0.1, 0)


def test_local_solve_result_is_finite():
    rng = np.random.default_rng(17)
    w = init_params(MLP_SPEC, rng)
    train = random_data(MLP_SPEC, 12, rng)
    out = solve1(MLP_SPEC, w, train, None, 5, 4, 0.1, 17)
    assert np.all(np.isfinite(out))


def test_local_solve_rejects_bad_inputs_at_entry():
    rng = np.random.default_rng(18)
    w = np.zeros(LOG10.param_count)
    train = random_data(LOG10, 6, rng)
    x, y = train.features, train.labels
    pull = fold(anchored((np.zeros(LOG10.param_count), 0.5)), 0.1)

    def solve(w=w, train=train, pull=pull, lr=0.1, seeds=((0,),)):
        return solve1(LOG10, w, train, pull, 2, 4, lr, None, seeds)

    solve()  # the unaltered inputs are accepted
    m = LOG10.param_count
    bad_inputs = [
        ("model block", dict(w=np.zeros(m + 1))),
        ("feature matrix", dict(train=data(LOG10, np.zeros((6, 5)), y))),
        ("label vector", dict(train=data(LOG10, x, y[:5]))),
        ("labels must lie", dict(train=data(LOG10, x, np.r_[y[:5], 10]))),
        ("labels must lie", dict(train=data(LOG10, x, np.r_[y[:5], -1]))),
        (rf"pull has shapes \(1, 1\) and \(1, {m - 1}\), expected \(1, 1\) and \(1, {m}\)",
         dict(pull=(pull[0], pull[1][:, 1:]))),
        (rf"pull has shapes \(1,\) and \(1, {m}\)", dict(pull=(pull[0][:, 0], pull[1]))),
        # a NaN lr used to return an all-NaN block; an inf lr ruins the first step
        ("lr must be finite and non-negative, got nan", dict(lr=math.nan)),
        ("lr must be finite and non-negative, got inf", dict(lr=math.inf)),
        ("lr must be finite and non-negative, got -0.1", dict(lr=-0.1)),
        # seed rows cross to a helper process as int64: nothing may wrap
        (r"seeds have shape \(2,\) and dtype int64, expected an integer \(1, S\) array", dict(seeds=[0, 1])),
        (r"seeds have shape \(2, 1\) and dtype int64, expected an integer \(1, S\) array", dict(seeds=[[0], [1]])),
        (r"seeds have shape \(1, 0\) and dtype float64, expected an integer \(1, S\) array", dict(seeds=[[]])),
        (r"seeds have shape \(1, 1\) and dtype float64", dict(seeds=[[0.5]])),
        (r"seeds have shape \(1, 2\) and dtype object", dict(seeds=[[2**64, 1]])),
        (rf"seeds must lie in \[0, {2**63 - 1}\]", dict(seeds=np.array([[2**63, 1]], dtype=np.uint64))),
        (rf"seeds must lie in \[0, {2**63 - 1}\]", dict(seeds=[[-1, 1]])),
    ]
    for message, kwargs in bad_inputs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any step can warn
            with pytest.raises(ValueError, match=message):
                solve(**kwargs)


@pytest.mark.parametrize("labels", [[0.5, 1.7, 2.2], [0.0, 1.0, 2.0]])
def test_non_integer_labels_are_rejected_at_entry(labels):
    # float labels used to be truncated to [0, 1, 2] by the solver, which
    # trained on them, while the loss died on them with a bare IndexError
    spec = ModelSpec(LOGISTIC, 2, 3)
    train = Dataset(np.zeros((3, 2)), np.asarray(labels), 3)
    w = np.zeros(spec.param_count)
    calls = [
        lambda: solve1(spec, w, train, None, 1, 2, 0.1, 0),
        lambda: forward(spec, w, train),
        lambda: predict(spec, w, train),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="labels must have an integer dtype, got float64"):
            call()


def test_local_solve_checks_inputs_once_whatever_the_epochs(monkeypatch):
    calls = []
    for name, fn in list(vars(models).items()):
        if name.startswith("_check_") and callable(fn):

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(models, name, counted)
    rng = np.random.default_rng(19)
    w = rng.normal(0, 0.5, MLP_SPEC.param_count)
    train = random_data(MLP_SPEC, 12, rng)
    pull = fold(anchored((rng.normal(0, 1, MLP_SPEC.param_count), 0.5)), 0.1)
    counts = []
    for epochs in (1, 7):
        calls.clear()
        solve1(MLP_SPEC, w, train, pull, epochs, 4, 0.1, 0)
        counts.append(sorted(calls))
    assert counts[0], "no check helper ran"
    assert counts[0] == counts[1]


def test_local_solve_takes_only_a_stack_of_one_set_per_client():
    rng = np.random.default_rng(20)
    w = np.zeros((3, LOG10.param_count))
    train = stack([random_data(LOG10, 6, rng) for _ in range(3)])
    bad_trains = [
        # one set, not a stack of one set per client
        (r"feature matrix has shape \(6, 4\), expected \(C, B, 4\)", client_sets(train)[0]),
        ("3 models need 3 training sets, got 2", rows(train, slice(2))),
    ]
    for message, bad in bad_trains:
        with pytest.raises(ValueError, match=message):
            local_solve(LOG10, w, bad, None, 1, 4, 0.1, [[0], [1], [2]], train)
    assert not w.any()  # rejected before any step


def test_local_solve_rejects_mismatched_stacks():
    rng = np.random.default_rng(21)
    train = stack([random_data(LOG10, 6, rng) for _ in range(2)])
    w = np.zeros((2, LOG10.param_count))
    one_client_pull = fold(anchored((np.zeros(LOG10.param_count), 0.5)), 0.1)
    bad_calls = [
        ("2 models need 2 training sets, got 1", dict(train=rows(train, slice(1)))),
        (r"seeds have shape \(1, 1\) and dtype int64, expected an integer \(2, S\) array", dict(seeds=[[0]])),
        (r"pull has shapes \(1, 1\) and \(1, 50\), expected \(2, 1\) and \(2, 50\)", dict(pull=one_client_pull)),
        ("model block", dict(w=np.zeros((2, LOG10.param_count), dtype=np.float32))),
        ("model block", dict(w=np.zeros((LOG10.param_count, 2)).T)),
        ("2 models need 2 test sets, got 1", dict(test=rows(train, slice(1)))),
    ]
    for message, kwargs in bad_calls:
        args = dict(w=w, train=train, pull=None, seeds=[[0], [1]], test=train)
        args.update(kwargs)
        with pytest.raises(ValueError, match=message):
            local_solve(LOG10, args["w"], args["train"], args["pull"], 1, 4, 0.1, args["seeds"], args["test"])


@st.composite
def lockstep_problems(draw, clients=st.integers(1, 6)):
    """A stack of C clients' training sets and 1-4 anchor levels, as
    (spec, models, train, levels, mu, epochs, batch_size, lr, seed)."""
    kind = draw(st.sampled_from([LOGISTIC, MLP]))
    spec = ModelSpec(
        kind,
        draw(st.integers(1, 4)),
        draw(st.integers(2, 4)),
        draw(st.integers(1, 4)) if kind == MLP else 0,
    )
    c = draw(clients)
    n = draw(st.integers(1, 10))
    batches = {
        "divides": [b for b in range(1, n + 1) if n % b == 0],
        "partial": [b for b in range(2, n) if n % b],
        "exceeds": [n + 1, n + 5],
    }
    mode = draw(st.sampled_from(sorted(batches)))
    batch_size = draw(st.sampled_from(batches[mode] or [n]))  # n < 3 has no partial
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.5, (c, spec.param_count))
    train = stack([random_data(spec, n, rng) for _ in range(c)])
    levels = []
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.integers(1, c))
        levels.append(
            AnchorLevel(
                rng.normal(0.0, 1.0, (g, spec.param_count)),
                rng.integers(0, g, c),
                rng.uniform(0.01, 1.0, c),
            )
        )
    mu = draw(st.sampled_from([0.0, 0.05, 0.7]))
    epochs = draw(st.integers(1, 3))
    lr = draw(st.sampled_from([0.0, 0.1, 0.5]))
    return spec, w, train, levels, mu, epochs, batch_size, lr, seed


def width_problem(spec, seed=5):
    """A fixed lockstep problem of 3 clients whose batches of 10, 10 and 1
    take numpy's gemv and pairwise-sum paths where a layer is 1 wide."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.5, (3, spec.param_count))
    train = stack([random_data(spec, 21, rng) for _ in range(3)])
    levels = [AnchorLevel(rng.normal(0.0, 1.0, (2, spec.param_count)), np.array([0, 1, 1]), np.full(3, 0.5))]
    return spec, w, train, levels, 0.05, 2, 10, 0.5, seed


@settings(max_examples=80, deadline=None)
@given(lockstep_problems())
@example(width_problem(ModelSpec(LOGISTIC, 1, 3)))
@example(width_problem(ModelSpec(MLP, 1, 3, hidden_dim=2)))
@example(width_problem(ModelSpec(MLP, 3, 3, hidden_dim=1)))
def test_lockstep_rows_match_the_scalar_solver_bitwise(problem):
    spec, w, train, levels, mu, epochs, batch_size, lr, seed = problem
    block = w.copy()
    seeds = [[seed, i] for i in range(len(w))]
    local_solve(spec, block, train, fold(levels, mu), epochs, batch_size, lr, seeds, train)
    trains = client_sets(train)
    for i in range(len(w)):
        alone = scalar_local_solve(
            spec, w[i], trains[i], client_anchors(levels, i), mu, epochs, batch_size, lr,
            np.random.default_rng([seed, i]),
        )
        assert block[i].tobytes() == alone.tobytes(), f"client {i}"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 70))
def test_permuted_rows_are_successive_permutation_draws(seed, epochs, n):
    # `local_solve` draws a client's orders for all its epochs in one
    # `permuted` call; the scalar solver draws one `permutation` per epoch
    drawn = np.random.default_rng(seed).permuted(np.broadcast_to(np.arange(n), (epochs, n)), axis=1)
    rng = np.random.default_rng(seed)
    assert drawn.tolist() == [rng.permutation(n).tolist() for _ in range(epochs)]


@settings(max_examples=60, deadline=None)
@given(lockstep_problems(), st.data())
def test_lockstep_solve_is_independent_of_client_order(problem, drawn):
    spec, w, train, levels, mu, epochs, batch_size, lr, seed = problem
    order = np.array(drawn.draw(st.permutations(range(len(w)))))

    def solve(index):
        block = w[index].copy()
        permuted = [AnchorLevel(lv.models, lv.group[index], lv.coeff[index]) for lv in levels]
        seeds = [[seed, i] for i in index]
        local_solve(spec, block, rows(train, index), fold(permuted, mu), epochs, batch_size, lr, seeds, rows(train, index))
        return block

    assert solve(order).tobytes() == solve(np.arange(len(w)))[order].tobytes()


# ------------------------------------- the solve split over forked processes


@contextlib.contextmanager
def split_solves(cpus):
    """Solves as if this process could run on `cpus` CPUs; yields the list
    of pids that called `os.fork`."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        mp.setattr(os, "fork", counted_fork)
        yield forks
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def scoring_stack(spec, clients, seed, m=3):
    """A stack of m-sample test sets, one per client."""
    rng = np.random.default_rng([seed, 1])
    return stack([random_data(spec, m, rng) for _ in range(clients)])


def solved(problem, m=3, owned=True):
    """The problem's block after `local_solve`, with client i's seed row
    [seed, i], and the counts it scored on a stack of m-sample test sets;
    the solve is given a `Helpers` set of its stacks, or none if not
    `owned`."""
    spec, w, train, levels, mu, epochs, batch_size, lr, seed = problem
    block = w.copy()
    seeds = [[seed, i] for i in range(len(w))]
    test = scoring_stack(spec, len(w), seed, m)
    with Helpers(spec, train, test) as helpers:
        right = local_solve(spec, block, train, fold(levels, mu), epochs, batch_size, lr, seeds, test, helpers if owned else None)
    return block, right


def misaligned_problem():
    """One-sample clients of an 11-parameter MLP, on which OpenBLAS's
    Prescott kernels gave a helper's row 1 other bits than the whole solve
    while the helpers' rows in the shared map lay at the other 16-byte
    alignment from the caller's."""
    spec, rng = ModelSpec(MLP, 2, 4, hidden_dim=1), np.random.default_rng(0)
    w = rng.normal(0.0, 0.5, (5, spec.param_count))
    train = stack([random_data(spec, 1, rng) for _ in range(5)])
    levels = [AnchorLevel(rng.normal(0.0, 1.0, (2, spec.param_count)), rng.integers(0, 2, 5), rng.uniform(0.01, 1.0, 5))]
    return spec, w, train, levels, 0.0, 1, 1, 0.1, 0


@settings(max_examples=60, deadline=None)
@given(lockstep_problems(clients=st.integers(4, 9)), st.sampled_from([2, 3]))
@example(misaligned_problem(), 2)
def test_a_split_solve_is_the_unsplit_solve_bit_for_bit(problem, parts):
    # ranges of unequal length, e.g. rows 0-1, 2-4 and 5-7 of 8
    assume(len(problem[1]) % parts)
    with split_solves(1) as forks:
        alone, alone_right = solved(problem)
    assert forks == []
    with split_solves(parts) as forks:
        split, split_right = solved(problem)
    assert forks == [os.getpid()] * (parts - 1)
    assert split.tobytes() == alone.tobytes()
    assert split_right.tolist() == alone_right.tolist()


def test_every_array_of_the_shared_map_starts_on_a_64_byte_boundary():
    # as a block numpy allocates starts on a 16-byte one, so a row of the
    # helpers' block lies at the alignment it has in the caller's
    spec, w, train, *_ = misaligned_problem()
    with split_solves(2) as forks, Helpers(spec, train, train) as helpers:
        local_solve(spec, w, train, None, 1, 1, 0.1, np.zeros((5, 1), dtype=int), train, helpers)
        assert len(forks) == 1
        assert [a.ctypes.data % 64 for a in helpers._map] == [0] * len(helpers._map)


@settings(max_examples=40, deadline=None)
@given(lockstep_problems(clients=st.integers(4, 9)), st.sampled_from([1, 2, 3]))
def test_each_process_scores_its_rows_as_the_predicting_path(problem, parts):
    assume(parts == 1 or len(problem[1]) % parts)  # unequal ranges
    spec = problem[0]
    with split_solves(parts) as forks:
        block, right = solved(problem)
    assert len(forks) == parts - 1
    test = scoring_stack(spec, len(block), problem[-1])
    own, collective = metrics._right_counts(spec, block, test), metrics._right_counts(spec, block, test.union())
    assert right.tolist() == np.stack([own, collective], axis=1).tolist()


def test_each_process_seeds_and_draws_the_orders_of_its_own_rows_only(monkeypatch):
    problem = guard_problem(MLP_SPEC, 7, 5, 2, 2)
    caller, seeded, drawn = os.getpid(), [], []
    default_rng, draw_orders = np.random.default_rng, models._draw_orders

    def counted_rng(seed):
        if os.getpid() == caller:
            seeded.append(seed)
        return default_rng(seed)

    def counted_orders(seeds, first, epochs, n):
        if os.getpid() == caller:
            drawn.append((first, len(seeds)))
        return draw_orders(seeds, first, epochs, n)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    monkeypatch.setattr(models, "_draw_orders", counted_orders)
    with split_solves(2) as forks:
        solved(problem)
    assert len(forks) == 1
    # the helper solves rows 0-2; this process seeds and orders rows 3-6,
    # after the rng of the problem's test stack
    assert drawn == [(3, 4)]
    assert seeded == [[23, 1], *([23, i] for i in range(3, 7))]


def test_a_range_with_a_diverged_row_is_not_scored():
    spec, w, train, *_ = guard_problem(MLP_SPEC, 5, 4, 1, 2)
    test = scoring_stack(MLP_SPEC, 5, 0, m=4)
    with split_solves(2) as forks, Helpers(spec, train, test) as helpers:
        # a helper scores rows 0-1, first where they are finite
        assert local_solve(MLP_SPEC, w.copy(), train, None, 1, 2, 0.0, np.arange(5)[:, None], test, helpers).any()
        w[1] = 1e200  # finite entries whose squared norm overflows
        right = local_solve(MLP_SPEC, w, train, None, 1, 2, 0.0, np.arange(5)[:, None], test, helpers)
    assert len(forks) == 1
    assert right[:2].tolist() == [[0, 0]] * 2
    own, collective = metrics._right_counts(spec, w[2:], rows(test, slice(2, 5))), metrics._right_counts(spec, w[2:], test.union())
    assert right[2:].tolist() == np.stack([own, collective], axis=1).tolist()


@pytest.mark.parametrize(
    "clients, rows, chunks", [(50, 25, [800]), (97, 49, [1552]), (98, 49, [1562, 6]), (200, 100, [1562, 1562, 76])]
)
def test_the_split_scores_the_collective_set_in_each_process_in_chunks_of_small_products(clients, rows, chunks):
    # PROTOCOL's widest product is 16 x 32 a sample, so a chunk of the
    # collective set, 16 test samples a client, holds at most
    # `_SPLIT_SCORING` // 512 = 1,562 samples
    problem = guard_problem(PROTOCOL, clients, 2, 1, 2)
    shapes = []  # the (models, samples) of each of this process's predicts
    predict = models._predict

    def counted(spec, w, x, work):
        shapes.append(x.shape[:2])
        return predict(spec, w, x, work)

    with split_solves(2) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_predict", counted)
        block, right = solved(problem, m=16)
    assert len(forks) == 1
    # its rows on their own splits in one stack, then each on the collective set
    assert shapes == [(rows, 16)] + [(1, size) for size in chunks] * rows
    union = scoring_stack(PROTOCOL, clients, problem[-1], m=16).union()
    assert right[:, 1].tolist() == [np.count_nonzero(softmax_predict(PROTOCOL, w, union) == union.labels) for w in block]


def guard_problem(spec, clients, n, epochs, batch_size):
    rng = np.random.default_rng(23)
    w = rng.normal(0.0, 0.5, (clients, spec.param_count))
    levels = [
        AnchorLevel(rng.normal(0.0, 1.0, (2, spec.param_count)), rng.integers(0, 2, clients), np.full(clients, 0.5))
    ]
    train = stack([random_data(spec, n, rng) for _ in range(clients)])
    return spec, w, train, levels, 0.1, epochs, batch_size, 0.1, 23


@pytest.mark.parametrize("clients", [1, 2, 5])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_a_solve_forks_one_helper_per_extra_process_only_through_its_set(cpus, clients):
    problem = guard_problem(MLP_SPEC, clients, 5, 2, 2)
    with split_solves(4) as made:  # no set: whole in this process
        alone = solved(problem, owned=False)
    assert made == []
    with split_solves(cpus) as made:
        block, right = solved(problem)
    assert len(made) == min(cpus, clients) - 1
    assert block.tobytes() == alone[0].tobytes()
    assert right.tolist() == alone[1].tolist()


# The same rule on the shapes of real rounds: through its set, a solve forks
# min(cpus, clients) - 1 helpers, and its block and counts are the whole
# solve's bit for bit.
@pytest.mark.parametrize(
    "cpus, spec, clients, n, epochs, batch_size, m, forks",
    [
        # server-120's round: 4 steps, scored on 1 + 120 or 16 + 1,920
        # samples a client
        (2, SERVER_120, 120, 64, 1, 16, 1, 1),
        (2, SERVER_120, 120, 64, 1, 16, 16, 1),
        (1, SERVER_120, 120, 64, 1, 16, 1, 0),
        (3, SERVER_120, 120, 64, 1, 16, 1, 2),
        # logistic solves of 40 steps, scored on 1 or 16 samples a client
        (2, SERVER_120, 16, 640, 1, 16, 1, 1),
        (2, SERVER_120, 16, 640, 1, 16, 16, 1),
        (2, SERVER_120, 32, 640, 1, 16, 1, 1),
        (2, SERVER_120, 32, 640, 1, 16, 16, 1),
        (2, SERVER_120, 64, 640, 1, 16, 1, 1),
        (2, SERVER_120, 64, 640, 1, 16, 16, 1),
        (2, SERVER_120, 128, 640, 1, 16, 1, 1),
        (2, SERVER_120, 128, 640, 1, 16, 16, 1),
        (3, SERVER_120, 2, 640, 1, 16, 1, 1),
        # MLP-32 rounds of 80 steps, up to the protocol's 50 clients
        (2, PROTOCOL, 4, 64, 20, 16, 16, 1),
        (2, PROTOCOL, 8, 64, 20, 16, 16, 1),
        (2, PROTOCOL, 12, 64, 20, 16, 16, 1),
        (2, PROTOCOL, 32, 64, 20, 16, 16, 1),
        (2, PROTOCOL, 50, 64, 20, 16, 16, 1),
        (4, PROTOCOL, 3, 64, 20, 16, 16, 2),
        (4, PROTOCOL, 50, 64, 20, 16, 16, 3),
    ],
)
def test_a_solve_forks_once_per_extra_process(cpus, spec, clients, n, epochs, batch_size, m, forks):
    problem = guard_problem(spec, clients, n, epochs, batch_size)
    with split_solves(1):
        alone = solved(problem, m)
    with split_solves(cpus) as made:
        block, right = solved(problem, m)
    assert block.tobytes() == alone[0].tobytes()
    assert right.tolist() == alone[1].tolist()
    assert len(made) == forks


def test_a_solve_does_not_fork_while_another_thread_is_alive():
    problem = guard_problem(MLP_SPEC, 4, 5, 1, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with split_solves(2) as forks:
            solved(problem)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    with split_solves(2) as forks:  # the same solve, once the thread is gone
        solved(problem)
    assert len(forks) == 1


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_a_solve_does_not_split_where_the_platform_cannot(missing):
    problem = guard_problem(MLP_SPEC, 4, 5, 1, 2)
    with split_solves(1):
        alone = solved(problem)
    with split_solves(2) as forks, pytest.MonkeyPatch.context() as mp:
        mp.delattr(os, missing)
        assert solved(problem)[0].tobytes() == alone[0].tobytes()
    assert forks == []


def rows_of(orders):
    """The first client row that a `_train_rows` call trains."""
    return int(orders[0, 0].min()) // orders.shape[2]


def raise_in_child():
    raise ValueError("no good at rows 2-3")


def kill_child():  # as the kernel's out-of-memory killer would
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "fail, message",
    [
        (raise_in_child, r"rows 2-3 \(exit code 1\) failed: ValueError: no good at rows 2-3$"),
        (kill_child, rf"rows 2-3 \(exit code -{signal.SIGKILL:d}\) failed: no message$"),
    ],
)
def test_a_failing_child_is_named_and_quoted_in_the_error(fail, message):
    problem = guard_problem(MLP_SPEC, 6, 5, 2, 2)
    train_rows = models._train_rows

    def failing(spec, w, features, labels, orders, *rest):
        if rows_of(orders) == 2:
            fail()
        train_rows(spec, w, features, labels, orders, *rest)

    with split_solves(3) as forks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "_train_rows", failing)
            with pytest.raises(RuntimeError, match=f"the forked solve of client {message}"):
                solved(problem)
    assert len(forks) == 2


@pytest.mark.parametrize("error", [ValueError("the parent's rows failed"), KeyboardInterrupt()])
def test_a_failing_parent_kills_and_reaps_its_children(error):
    problem = guard_problem(MLP_SPEC, 6, 5, 2, 2)
    parent = os.getpid()

    def failing(*args):
        if os.getpid() == parent:
            raise error
        time.sleep(60)  # a child outlives the call unless it is killed

    started = time.monotonic()
    with split_solves(3) as forks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "_train_rows", failing)
            with pytest.raises(type(error)) as raised:
                solved(problem)
    assert raised.value is error
    assert len(forks) == 2
    assert time.monotonic() - started < 30


@pytest.mark.parametrize("parts", [2, 3])
def test_solves_through_one_helper_set_are_whole_solves_bit_for_bit(parts):
    # each solve starts from another block, with another pull (or none), lr
    # and batch size, and ends on a partial batch of the 5 samples: a
    # helper that read a stale row of the shared map would differ
    spec, w, train, levels, mu, *_ = guard_problem(MLP_SPEC, 7, 5, 2, 2)
    test = scoring_stack(spec, 7, 0, m=4)
    other = np.random.default_rng(5)
    calls = [
        (fold(levels, mu), 2, 0.1),
        (None, 3, 0.05),
        ((other.uniform(0.0, 1.0, (7, 1)), other.normal(0.0, 1.0, w.shape)), 2, 0.2),
    ]

    def solves(helpers):
        block, noise, out = w.copy(), np.random.default_rng(6), []
        for i, (pull, batch_size, lr) in enumerate(calls):
            block += noise.normal(0.0, 0.1, block.shape)
            seeds = [[i, row] for row in range(7)]
            right = local_solve(spec, block, train, pull, 2, batch_size, lr, seeds, test, helpers)
            out.append((block.tobytes(), right.tolist()))
        return out

    with split_solves(1):
        alone = solves(None)
    with split_solves(parts) as forks, Helpers(spec, train, test) as helpers:
        split = solves(helpers)
    assert forks == [os.getpid()] * (parts - 1)  # forked at the first solve only
    assert split == alone


def test_a_solve_on_other_stacks_does_not_use_the_sets_helpers():
    spec, w, train, levels, mu, epochs, batch_size, lr, _ = guard_problem(MLP_SPEC, 6, 5, 2, 2)
    test = scoring_stack(spec, 6, 0)
    other = rows(train, np.arange(6)[::-1])  # the same sets in reverse order

    def solve(stack, helpers=None):
        block = w.copy()
        right = local_solve(spec, block, stack, fold(levels, mu), epochs, batch_size, lr, np.arange(6)[:, None], test, helpers)
        return block.tobytes(), right.tolist()

    with split_solves(1):
        alone = solve(train), solve(other)
    with split_solves(2) as forks, Helpers(spec, train, test) as helpers:
        assert solve(train, helpers) == alone[0]
        assert len(forks) == 1
        # the set's helpers hold `train`, not `other`, which is solved whole
        assert solve(other, helpers) == alone[1]
        assert len(forks) == 1
        assert solve(train, helpers) == alone[0]
    assert len(forks) == 1


@pytest.mark.parametrize("parts", [2, 3])
def test_a_helper_failing_in_its_solve_is_named_and_reaped(parts):
    spec, w, train, levels, mu, epochs, batch_size, lr, _ = guard_problem(MLP_SPEC, 6, 5, 2, 2)
    test = scoring_stack(spec, 6, 0)
    caller, train_rows = os.getpid(), models._train_rows

    def solve(helpers=None):
        block = w.copy()
        right = local_solve(spec, block, train, fold(levels, mu), epochs, batch_size, lr, np.arange(6)[:, None], test, helpers)
        return block.tobytes(), right.tolist()

    def failing(spec, w, features, labels, orders, *rest):
        if os.getpid() != caller:
            raise ValueError(f"no good at row {rows_of(orders)}")
        train_rows(spec, w, features, labels, orders, *rest)

    # the helpers' ranges of 6 clients: 0-2 of 2 processes; 0-1 and 2-3 of 3
    message = {2: r"client rows 0-2 \(exit code 1\) failed: ValueError: no good at row 0$",
               3: r"client rows 0-1 \(exit code 1\), 2-3 \(exit code 1\) failed: ValueError: no good at row 0; "
                  r"ValueError: no good at row 2$"}[parts]
    with split_solves(1):
        alone = solve()
    with split_solves(parts) as forks, Helpers(spec, train, test) as helpers:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "_train_rows", failing)  # the helpers fork with it
            with pytest.raises(RuntimeError, match=r"^the forked solve of " + message):
                solve(helpers)
        assert helpers._helpers == []  # killed and reaped
        assert len(forks) == parts - 1
        # the next solve through the set forks its helpers anew, without the fault
        assert solve(helpers) == alone
        assert len(forks) == 2 * (parts - 1)


# -------------------------------------------- the solver's class-major softmax


SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 130), st.integers(0, 2**32 - 1), st.lists(st.lists(SPECIAL, min_size=1, max_size=3), max_size=3))
@example(7, 1, [[math.inf], [math.nan]])
@example(8, 2, [[-math.inf]])
@example(127, 3, [[math.inf, -math.inf]])
@example(128, 4, [[math.nan, math.inf]])
@example(130, 5, [[-math.inf] * 3])
def test_the_class_major_softmax_is_the_softmax_bit_for_bit(k, seed, specials):
    # from 8 classes the pairwise sum differs from a running sum; from 128,
    # numpy splits the run in halves and the helper takes its plain sum
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, rng.uniform(0.1, 40.0), (5 + len(specials), k))
    z[0] = -math.inf  # every class at -inf
    for row, values in enumerate(specials, start=5):  # rows with inf and NaN logits
        values = values[:k]
        z[row, rng.choice(k, size=len(values), replace=False)] = values
    by_row, by_class = z.copy(), z.T.copy()
    with np.errstate(invalid="ignore"):  # inf - inf
        models._softmax(by_row)
        models._class_softmax(by_class)
    assert by_class.T.tobytes() == np.ascontiguousarray(by_row).tobytes()


# ------------------------------------------------ predict: the softmax argmax


def assert_same_labels(spec, w, ds):
    got, expected = predict(spec, w, ds), softmax_predict(spec, w, ds)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def near_tie_bias(rng, k):
    """Bias-only logistic logits: 2..k classes at random positions lie 0 to 4
    ulps above a random base; the rest lie well below or among them."""
    base = rng.normal(0.0, 1.0)
    bias = base - rng.uniform(0.0, 2.0, k)
    for c in rng.choice(k, size=rng.integers(2, k + 1), replace=False):
        bias[c] = base
        for _ in range(rng.integers(0, 5)):
            bias[c] = np.nextafter(bias[c], np.inf)
    return bias


@st.composite
def prediction_cases(draw):
    """(spec, model, data): random models of both kinds, bias-only logistic
    models with near-tied logits, and zero models, whose classes all tie."""
    case = draw(st.sampled_from(["random", "near-tie", "zero"]))
    kind = LOGISTIC if case == "near-tie" else draw(st.sampled_from([LOGISTIC, MLP]))
    spec = ModelSpec(
        kind,
        draw(st.integers(1, 5)),
        draw(st.integers(2, 12)),
        draw(st.integers(1, 6)) if kind == MLP else 0,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = random_data(spec, draw(st.integers(1, 40)), rng, scale=draw(st.sampled_from([0.1, 1.0, 10.0])))
    w = np.zeros(spec.param_count)
    if case == "random":
        w = rng.normal(0.0, draw(st.sampled_from([1e-3, 0.3, 3.0, 30.0])), spec.param_count)
    elif case == "near-tie":
        w[spec.input_dim * spec.num_classes :] = near_tie_bias(rng, spec.num_classes)
    return spec, w, ds


@settings(max_examples=300, deadline=None)
@given(prediction_cases())
def test_predict_is_the_softmax_argmax_bit_for_bit(case):
    assert_same_labels(*case)


def test_predict_keeps_the_softmax_tie_that_a_logit_argmax_breaks():
    # the softmax rounds classes 0 and 2 to one probability, so class 0 wins
    # although class 2 has the larger logit
    spec = ModelSpec(LOGISTIC, 1, 3)
    w = np.zeros(spec.param_count)
    w[3:] = [0.15755812732057958, -0.5968275940478756, 0.1575581273205796]
    ds = data(spec, [[0.0], [2.0]], [0, 0])
    assert np.argmax(w[3:]) == 2
    assert softmax_predict(spec, w, ds).tolist() == [0, 0]
    assert_same_labels(spec, w, ds)


@settings(max_examples=60, deadline=None)
@given(prediction_cases())
def test_predict_fallback_alone_is_the_softmax_argmax(case):
    # with an infinite margin every class is near, so every row is finished
    # by the softmax fallback
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "_TIE_MARGIN", np.inf)
        assert_same_labels(*case)


def labels_and_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        labels = fn(*args)
    return labels, {(w.category, str(w.message)) for w in caught}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([LOGISTIC, MLP]), st.integers(0, 2**32 - 1))
def test_predict_on_non_finite_logits_is_the_oracle_and_warns_no_more(kind, seed):
    # parameters mixing normal, huge, infinite and NaN entries drive logits
    # to +-inf and NaN (inf - inf), in the matmuls and in the max subtraction
    spec = ModelSpec(kind, 3, 5, 4 if kind == MLP else 0)
    rng = np.random.default_rng(seed)
    pool = np.array([0.5, -2.0, 1e300, -1e300, np.inf, -np.inf, np.nan])
    w = rng.choice(pool, spec.param_count, p=[0.3, 0.3, 0.1, 0.1, 0.08, 0.08, 0.04])
    ds = random_data(spec, 30, rng, scale=10.0)
    expected, oracle_warnings = labels_and_warnings(softmax_predict, spec, w, ds)
    got, new_warnings = labels_and_warnings(predict, spec, w, ds)
    assert got.tobytes() == expected.tobytes()
    assert new_warnings <= oracle_warnings
    with np.errstate(over="ignore", invalid="ignore"):
        assert predict(spec, w, ds).tobytes() == expected.tobytes()


def test_predict_block_checks_its_data_once_in_either_layout(monkeypatch):
    rng = np.random.default_rng(4)
    block = rng.normal(0.0, 1.0, (5, MLP_SPEC.param_count))
    splits = [random_data(MLP_SPEC, 9, rng) for _ in range(5)]
    shared = random_data(MLP_SPEC, 14, rng)
    checked = []
    check = models._check_data

    def counted(spec, data, *args, **kwargs):
        checked.append(data.features.ndim)
        return check(spec, data, *args, **kwargs)

    monkeypatch.setattr(models, "_check_data", counted)
    for data_, sets, ndim in ((stack(splits), splits, 3), (shared, [shared] * 5, 2)):
        expected = [softmax_predict(MLP_SPEC, w, ds).tobytes() for w, ds in zip(block, sets)]
        checked.clear()
        got = [p.tobytes() for p in predict_block(MLP_SPEC, block, data_)]
        assert got == expected
        assert checked == [ndim]  # one check, whatever the row count


@st.composite
def prediction_blocks(draw):
    """(spec, block, data, sets): rows of every `prediction_cases` kind on
    one spec, on a stack of one set per row or on one set that every row
    shares, and the set of each row."""
    kind = draw(st.sampled_from([LOGISTIC, MLP]))
    spec = ModelSpec(
        kind,
        draw(st.integers(1, 5)),
        draw(st.integers(2, 12)),
        draw(st.integers(1, 6)) if kind == MLP else 0,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(1, 12))
    n = draw(st.integers(1, 20))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    if draw(st.booleans()):
        sets = [random_data(spec, n, rng, scale) for _ in range(c)]
        data_ = stack(sets)
    else:
        data_ = random_data(spec, n, rng, scale)
        sets = [data_] * c
    block = np.zeros((c, spec.param_count))
    for w in block:
        case = draw(st.sampled_from(["random", "near-tie", "zero"]))
        if case == "random":
            w[:] = rng.normal(0.0, draw(st.sampled_from([1e-3, 0.3, 3.0, 30.0])), spec.param_count)
        elif case == "near-tie":
            # with the output weights zero, the last bias is the logits
            w[-spec.num_classes :] = near_tie_bias(rng, spec.num_classes)
    return spec, block, data_, sets


@contextlib.contextmanager
def chunks_of(spec, samples):
    """Predictions on a shared set in chunks of `samples` samples, by a
    `_SPLIT_SCORING` patched to that many of `spec`'s widest products; with
    `samples` None, in the chunks of the bound as it is."""
    with pytest.MonkeyPatch.context() as patch:
        if samples is not None:
            patch.setattr(models, "_SPLIT_SCORING", samples * max(a * b for a, b in models._layers(spec)))
        yield


@settings(max_examples=150, deadline=None)
@given(prediction_blocks(), st.none() | st.integers(1, 7))
def test_predict_block_stacks_are_the_softmax_argmax_bit_for_bit(case, chunk):
    spec, block, data_, sets = case
    expected = [softmax_predict(spec, w, ds).tobytes() for w, ds in zip(block, sets)]
    with chunks_of(spec, chunk), pytest.MonkeyPatch.context() as patch:
        assert [p.tobytes() for p in predict_block(spec, block, data_)] == expected
        patch.setattr(models, "_TIE_MARGIN", np.inf)  # every row takes the fallback
        assert [p.tobytes() for p in predict_block(spec, block, data_)] == expected


def test_predict_block_runs_a_stack_at_once_and_a_shared_set_a_row_at_a_time(monkeypatch):
    rng = np.random.default_rng(5)
    block = rng.normal(0.0, 1.0, (6, MLP_SPEC.param_count))
    splits = [random_data(MLP_SPEC, 4, rng) for _ in range(6)]
    union = random_data(MLP_SPEC, 24, rng)
    own = [predict(MLP_SPEC, w, ds).tobytes() for w, ds in zip(block, splits)]
    shared = [predict(MLP_SPEC, w, union).tobytes() for w in block]
    stacks = []
    logits = models._logits

    def counted(spec, layers, x, out, hidden):
        stacks.append(len(layers[0]))
        return logits(spec, layers, x, out, hidden)

    monkeypatch.setattr(models, "_logits", counted)
    assert [p.tobytes() for p in predict_block(MLP_SPEC, block, stack(splits))] == own
    assert stacks == [6]  # equal test splits: one stack
    stacks.clear()
    rows_labels = predict_block(MLP_SPEC, block, union)
    for i, labels in enumerate(rows_labels):
        # each row runs when it is asked for, so no two rows' labels are held
        assert stacks == [1] * (i + 1)
        assert labels.tobytes() == shared[i]
    assert stacks == [1] * 6


def test_predict_rejects_bad_inputs():
    w = np.zeros(LOG10.param_count)
    good = data(LOG10, np.zeros((2, 4)), [0, 9])
    with pytest.raises(ValueError, match=r"model block has shape \(1, 3\)"):
        predict(LOG10, np.zeros(3), good)
    with pytest.raises(ValueError, match="feature matrix"):
        predict(LOG10, w, data(LOG10, np.zeros((2, 5)), [0, 0]))
    with pytest.raises(ValueError, match="2 models need 2 data sets, got 1"):
        predict_block(LOG10, np.stack([w, w]), stack([good]))
    # one reduction checks the labels of every set of a stack at once
    with pytest.raises(ValueError, match="labels must lie"):
        predict_block(LOG10, np.stack([w, w]), stack([good, data(LOG10, np.zeros((2, 4)), [10, 0])]))
