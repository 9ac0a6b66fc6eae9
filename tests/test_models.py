"""Model core: forward/loss/grad, proximal objective, and the local solver."""

import math

import numpy as np
import pytest

from demlearn import models
from demlearn.data import Dataset
from demlearn.models import (
    LOGISTIC,
    MLP,
    ModelSpec,
    ProxAnchor,
    forward,
    grad,
    init_params,
    local_solve,
    loss,
    prox_grad,
    prox_objective,
)

from oracles import central_diff

LOG10 = ModelSpec(LOGISTIC, 4, 10)
SMALL = ModelSpec(LOGISTIC, 1, 2)  # 4 parameters
MLP_SPEC = ModelSpec(MLP, 3, 4, hidden_dim=5)


def data(spec, features, labels):
    return Dataset(np.asarray(features, dtype=float), np.asarray(labels), spec.num_classes)


def random_data(spec, n, rng, scale=1.0):
    return data(
        spec,
        rng.normal(0.0, scale, (n, spec.input_dim)),
        rng.integers(0, spec.num_classes, n),
    )


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
        g = grad(spec, w, batch.features, batch.labels)
        fd = central_diff(lambda v: loss(spec, v, batch), w)
        assert np.max(np.abs(g - fd) / (np.abs(fd) + 1e-4)) < 1e-5


def test_grad_matches_finite_differences_mlp():
    rng = np.random.default_rng(6)
    w = rng.normal(0, 0.5, MLP_SPEC.param_count)
    batch = random_data(MLP_SPEC, 5, rng)
    g = grad(MLP_SPEC, w, batch.features, batch.labels)
    fd = central_diff(lambda v: loss(MLP_SPEC, v, batch), w)
    assert np.max(np.abs(g - fd) / (np.abs(fd) + 1e-4)) < 1e-5


def test_grad_vanishes_at_perfect_fit():
    spec = ModelSpec(LOGISTIC, 1, 2)
    w = np.array([80.0, -80.0, 0.0, 0.0])
    x, y = np.array([[1.0], [2.0]]), np.array([0, 0])
    assert np.linalg.norm(grad(spec, w, x, y)) < 1e-12


def test_grad_mean_invariant_under_duplication():
    rng = np.random.default_rng(7)
    w = rng.normal(0, 0.5, LOG10.param_count)
    batch = random_data(LOG10, 5, rng)
    x, y = batch.features, batch.labels
    doubled = grad(LOG10, w, np.vstack([x, x]), np.concatenate([y, y]))
    assert np.allclose(grad(LOG10, w, x, y), doubled, atol=1e-14)


def test_prox_objective_mu_zero_equals_loss():
    rng = np.random.default_rng(8)
    w = rng.normal(0, 0.5, LOG10.param_count)
    batch = random_data(LOG10, 4, rng)
    anchors = [ProxAnchor(rng.normal(0, 1, LOG10.param_count), 0.5)]
    assert prox_objective(LOG10, w, batch, anchors, 0.0) == loss(LOG10, w, batch)


def test_prox_objective_zero_penalty_at_anchor():
    rng = np.random.default_rng(9)
    w = rng.normal(0, 0.5, LOG10.param_count)
    batch = random_data(LOG10, 4, rng)
    anchors = [ProxAnchor(w.copy(), 0.25), ProxAnchor(w.copy(), 1.0)]
    assert prox_objective(LOG10, w, batch, anchors, 3.7) == pytest.approx(
        loss(LOG10, w, batch), abs=1e-15
    )


def test_prox_objective_analytic_penalty():
    # w = anchor + e_0, coeff 0.5, mu 2 -> penalty (2/2)*0.5*1 = 0.5
    rng = np.random.default_rng(10)
    anchor = rng.normal(0, 1, LOG10.param_count)
    w = anchor.copy()
    w[0] += 1.0
    batch = random_data(LOG10, 4, rng)
    got = prox_objective(LOG10, w, batch, [ProxAnchor(anchor, 0.5)], 2.0)
    assert got - loss(LOG10, w, batch) == pytest.approx(0.5, abs=1e-12)


def test_prox_objective_rejects_negative_mu():
    w = np.zeros(LOG10.param_count)
    with pytest.raises(ValueError):
        prox_objective(LOG10, w, data(LOG10, np.zeros((1, 4)), [0]), [], -0.1)


def test_prox_anchor_coeff_range():
    with pytest.raises(ValueError):
        ProxAnchor(np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        ProxAnchor(np.zeros(4), 1.5)


def test_prox_grad_mu_zero_is_plain_grad():
    rng = np.random.default_rng(11)
    w = rng.normal(0, 0.5, LOG10.param_count)
    batch = random_data(LOG10, 4, rng)
    anchors = [ProxAnchor(rng.normal(0, 1, LOG10.param_count), 0.5)]
    x, y = batch.features, batch.labels
    g0 = prox_grad(LOG10, w, x, y, anchors, 0.0)
    assert g0.tobytes() == grad(LOG10, w, x, y).tobytes()


def test_prox_grad_penalty_only_direction():
    # at a perfect local fit the data gradient vanishes; the prox pull remains
    spec = ModelSpec(LOGISTIC, 1, 2)
    w = np.array([80.0, -80.0, 0.0, 0.0])
    anchor = w - np.array([1.0, 0.0, -2.0, 0.0])
    g = prox_grad(spec, w, np.array([[1.0]]), np.array([0]), [ProxAnchor(anchor, 0.5)], 0.2)
    assert np.allclose(g, 0.2 * 0.5 * (w - anchor), atol=1e-12)


def test_prox_grad_matches_finite_differences():
    rng = np.random.default_rng(12)
    w = rng.normal(0, 0.5, LOG10.param_count)
    batch = random_data(LOG10, 4, rng)
    anchors = [
        ProxAnchor(rng.normal(0, 1, LOG10.param_count), 0.5),
        ProxAnchor(rng.normal(0, 1, LOG10.param_count), 0.125),
    ]
    g = prox_grad(LOG10, w, batch.features, batch.labels, anchors, 0.1)
    fd = central_diff(lambda v: prox_objective(LOG10, v, batch, anchors, 0.1), w)
    assert np.max(np.abs(g - fd) / (np.abs(fd) + 1e-4)) < 1e-5


def test_local_solve_lr_zero_returns_init():
    rng = np.random.default_rng(13)
    w = rng.normal(0, 0.5, LOG10.param_count)
    train = random_data(LOG10, 8, rng)
    out = local_solve(LOG10, w, train, [], 0.0, 3, 4, 0.0, rng)
    assert np.array_equal(out, w)


def test_local_solve_descends_on_full_batches():
    rng = np.random.default_rng(14)
    w = init_params(LOG10, rng)
    train = random_data(LOG10, 16, rng)
    before = prox_objective(LOG10, w, train, [], 0.0)
    out = local_solve(LOG10, w, train, [], 0.0, 20, 16, 0.05, rng)
    after = prox_objective(LOG10, out, train, [], 0.0)
    assert after <= before


def test_local_solve_one_full_batch_step_matches_manual():
    rng = np.random.default_rng(15)
    w = rng.normal(0, 0.5, LOG10.param_count)
    train = random_data(LOG10, 6, rng)
    anchors = [ProxAnchor(rng.normal(0, 1, LOG10.param_count), 0.5)]
    out = local_solve(LOG10, w, train, anchors, 0.3, 1, 6, 0.1, 99)
    # one epoch at batch_size == n is a single step on the permuted batch
    perm = np.random.default_rng(99).permutation(6)
    manual = w - 0.1 * prox_grad(
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
    a = local_solve(LOG10, w, train, [], 0.0, 3, 4, 0.05, 1234)
    b = local_solve(LOG10, w, train, [], 0.0, 3, 4, 0.05, 1234)
    assert a.tobytes() == b.tobytes()


def test_local_solve_rejects_empty_training_set():
    w = np.zeros(LOG10.param_count)
    empty = data(LOG10, np.zeros((0, 4)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        local_solve(LOG10, w, empty, [], 0.0, 1, 4, 0.1, 0)


def test_local_solve_result_is_finite():
    rng = np.random.default_rng(17)
    w = init_params(MLP_SPEC, rng)
    train = random_data(MLP_SPEC, 12, rng)
    out = local_solve(MLP_SPEC, w, train, [], 0.0, 5, 4, 0.1, rng)
    assert np.all(np.isfinite(out))


def test_local_solve_rejects_bad_inputs_at_entry():
    rng = np.random.default_rng(18)
    w = np.zeros(LOG10.param_count)
    train = random_data(LOG10, 6, rng)
    x, y = train.features, train.labels
    anchor = [ProxAnchor(np.zeros(LOG10.param_count), 0.5)]

    def solve(w=w, train=train, anchors=anchor, mu=0.1):
        return local_solve(LOG10, w, train, anchors, mu, 2, 4, 0.1, 0)

    solve()  # the unaltered inputs are accepted
    bad_inputs = [
        ("parameter vector", dict(w=np.zeros(LOG10.param_count + 1))),
        ("feature matrix", dict(train=data(LOG10, np.zeros((6, 5)), y))),
        ("label vector", dict(train=data(LOG10, x, y[:5]))),
        ("labels must lie", dict(train=data(LOG10, x, np.r_[y[:5], 10]))),
        ("labels must lie", dict(train=data(LOG10, x, np.r_[y[:5], -1]))),
        ("anchor has shape", dict(anchors=[ProxAnchor(np.zeros(LOG10.param_count - 1), 0.5)])),
        ("mu must be", dict(mu=-0.1)),
    ]
    for message, kwargs in bad_inputs:
        with pytest.raises(ValueError, match=message):
            solve(**kwargs)


def test_local_solve_checks_inputs_once_whatever_the_epochs(monkeypatch):
    calls = []
    for name, fn in list(vars(models).items()):
        if name.startswith("_check_") and callable(fn):

            def counted(*args, _name=name, _fn=fn):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(models, name, counted)
    rng = np.random.default_rng(19)
    w = rng.normal(0, 0.5, MLP_SPEC.param_count)
    train = random_data(MLP_SPEC, 12, rng)
    anchors = [ProxAnchor(rng.normal(0, 1, MLP_SPEC.param_count), 0.5)]
    counts = []
    for epochs in (1, 7):
        calls.clear()
        local_solve(MLP_SPEC, w, train, anchors, 0.1, epochs, 4, 0.1, 0)
        counts.append(sorted(calls))
    assert counts[0], "no check helper ran"
    assert counts[0] == counts[1]
