"""Differentiable classifiers over a single flat parameter vector.

All model state lives in one 1-D float64 array so that clustering and
hierarchical averaging can treat a model as a point in R^M.  The layout is
row-major and fixed per ModelSpec:

    multinomial-logistic: [W: input_dim*num_classes | b: num_classes]
    mlp-1hidden:          [W1: input_dim*hidden_dim | b1: hidden_dim |
                           W2: hidden_dim*num_classes | b2: num_classes]

Gradients are analytic (softmax cross-entropy backprop by hand); the local
solver is plain mini-batch SGD with an optional sum of proximal penalties
pulling the iterate toward a set of anchor models.

Inputs are validated once, where they enter: `forward`, `loss`,
`prox_objective` and `local_solve` take a `Dataset` and check the parameter
length, the feature width, the labels, a non-empty set, the anchor shapes and
mu >= 0.  `grad` and `prox_grad` are the SGD step kernels on array slices;
they trust their inputs and check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset

LOGISTIC = "multinomial-logistic"
MLP = "mlp-1hidden"

INIT_VARIANCE = 0.01  # parameters start from N(0, 0.01), i.e. std 0.1
_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor; the parameter count is a pure function of it."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (LOGISTIC, MLP):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.kind == LOGISTIC and self.hidden_dim != 0:
            raise ValueError("multinomial-logistic uses hidden_dim=0")
        if self.kind == MLP and self.hidden_dim < 1:
            raise ValueError("mlp-1hidden needs hidden_dim >= 1")

    @property
    def param_count(self) -> int:
        if self.kind == LOGISTIC:
            return (self.input_dim + 1) * self.num_classes
        return (self.input_dim + 1) * self.hidden_dim + (self.hidden_dim + 1) * self.num_classes


@dataclass(frozen=True)
class ProxAnchor:
    """One proximal target: an ancestor group model plus its 1/N_group weight."""

    anchor: np.ndarray
    coeff: float

    def __post_init__(self) -> None:
        if not 0.0 < self.coeff <= 1.0:
            raise ValueError(f"anchor coeff must lie in (0, 1], got {self.coeff}")


def init_params(spec: ModelSpec, rng) -> np.ndarray:
    """Gaussian(0, INIT_VARIANCE) initial parameter vector."""
    rng = np.random.default_rng(rng)
    return rng.normal(0.0, np.sqrt(INIT_VARIANCE), size=spec.param_count)


def _check_params(spec: ModelSpec, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != spec.param_count:
        raise ValueError(
            f"parameter vector has shape {w.shape}, expected ({spec.param_count},)"
        )
    return w


def _check_data(spec: ModelSpec, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(data.features, dtype=np.float64)
    y = np.asarray(data.labels)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature matrix has shape {x.shape}, expected (B, {spec.input_dim})"
        )
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError(
            f"label vector has shape {y.shape}, expected ({x.shape[0]},)"
        )
    if x.shape[0] < 1:
        raise ValueError("data set must contain at least one sample")
    if y.min() < 0 or y.max() >= spec.num_classes:
        raise ValueError("labels must lie in [0, num_classes)")
    return x, y


def _views(spec: ModelSpec, w: np.ndarray):
    """Row-major views into the flat vector, per the documented layout."""
    d, c = spec.input_dim, spec.num_classes
    if spec.kind == LOGISTIC:
        wt = w[: d * c].reshape(d, c)
        b = w[d * c :]
        return wt, b
    h = spec.hidden_dim
    o = 0
    w1 = w[o : o + d * h].reshape(d, h)
    o += d * h
    b1 = w[o : o + h]
    o += h
    w2 = w[o : o + h * c].reshape(h, c)
    o += h * c
    b2 = w[o:]
    return w1, b1, w2, b2


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _forward_cached(spec: ModelSpec, w: np.ndarray, x: np.ndarray):
    """Probabilities plus the hidden activations needed for backprop."""
    if spec.kind == LOGISTIC:
        wt, b = _views(spec, w)
        return _softmax(x @ wt + b), None
    w1, b1, w2, b2 = _views(spec, w)
    hidden = np.tanh(x @ w1 + b1)
    return _softmax(hidden @ w2 + b2), hidden


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true labels (clamped at 1e-12)."""
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, _LOG_FLOOR))))


def forward(spec: ModelSpec, w: np.ndarray, data: Dataset) -> np.ndarray:
    """Class probabilities, one softmax row per sample."""
    w = _check_params(spec, w)
    x, _ = _check_data(spec, data)
    probs, _ = _forward_cached(spec, w, x)
    return probs


def loss(spec: ModelSpec, w: np.ndarray, data: Dataset) -> float:
    """Mean cross-entropy over the data set."""
    return cross_entropy(forward(spec, w, data), data.labels)


def grad(spec: ModelSpec, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradient of `loss` on samples (x, y) w.r.t. the flat vector.

    A step kernel: it trusts that w, x and y fit `spec` and checks nothing.
    """
    b = x.shape[0]
    probs, hidden = _forward_cached(spec, w, x)
    dlogits = probs.copy()
    dlogits[np.arange(b), y] -= 1.0
    dlogits /= b

    g = np.empty_like(w)
    d, c = spec.input_dim, spec.num_classes
    if spec.kind == LOGISTIC:
        g[: d * c] = (x.T @ dlogits).ravel()
        g[d * c :] = dlogits.sum(axis=0)
        return g
    h = spec.hidden_dim
    w1, b1, w2, b2 = _views(spec, w)
    dw2 = hidden.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ w2.T
    dpre = dhidden * (1.0 - hidden * hidden)
    dw1 = x.T @ dpre
    db1 = dpre.sum(axis=0)
    o = 0
    g[o : o + d * h] = dw1.ravel()
    o += d * h
    g[o : o + h] = db1
    o += h
    g[o : o + h * c] = dw2.ravel()
    o += h * c
    g[o:] = db2
    return g


def _check_anchors(spec: ModelSpec, anchors: Sequence[ProxAnchor], mu: float) -> None:
    if mu < 0.0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    for a in anchors:
        if a.anchor.shape != (spec.param_count,):
            raise ValueError(
                f"anchor has shape {a.anchor.shape}, expected ({spec.param_count},)"
            )


def prox_objective(
    spec: ModelSpec,
    w: np.ndarray,
    data: Dataset,
    anchors: Sequence[ProxAnchor],
    mu: float,
) -> float:
    """loss(w) + (mu/2) * sum_k coeff_k * ||w - anchor_k||^2"""
    w = _check_params(spec, w)
    _check_anchors(spec, anchors, mu)
    value = loss(spec, w, data)
    if mu == 0.0:
        return value
    penalty = 0.0
    for a in anchors:
        diff = w - a.anchor
        penalty += a.coeff * float(diff @ diff)
    return value + 0.5 * mu * penalty


def prox_grad(
    spec: ModelSpec,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    anchors: Sequence[ProxAnchor],
    mu: float,
) -> np.ndarray:
    """Gradient of `prox_objective` on samples (x, y); bitwise `grad` at mu == 0.

    A step kernel like `grad`: it checks nothing.
    """
    g = grad(spec, w, x, y)
    if mu == 0.0:
        return g
    for a in anchors:
        g += mu * a.coeff * (w - a.anchor)
    return g


def local_solve(
    spec: ModelSpec,
    w_init: np.ndarray,
    train: Dataset,
    anchors: Sequence[ProxAnchor],
    mu: float,
    epochs: int,
    batch_size: int,
    lr: float,
    rng,
) -> np.ndarray:
    """Mini-batch SGD on `prox_objective`, deterministic given the rng seed.

    The index order is reshuffled once per epoch; the trailing partial batch
    is kept.  lr == 0 walks the schedule without moving the iterate.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if lr < 0.0:
        raise ValueError("lr must be non-negative")
    w = _check_params(spec, w_init).copy()
    x, y = _check_data(spec, train)  # rejects the empty training set
    _check_anchors(spec, anchors, mu)
    rng = np.random.default_rng(rng)
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            g = prox_grad(spec, w, x[idx], y[idx], anchors, mu)
            w -= lr * g
    return w
