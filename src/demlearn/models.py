"""Differentiable classifiers over flat parameter vectors, stacked by client.

All model state lives in flat float64 vectors so that clustering and
hierarchical averaging can treat a model as a point in R^M.  The layout is
row-major and fixed per ModelSpec:

    multinomial-logistic: [W: input_dim*num_classes | b: num_classes]
    mlp-1hidden:          [W1: input_dim*hidden_dim | b1: hidden_dim |
                           W2: hidden_dim*num_classes | b2: num_classes]

The kernels work on a stack of C clients at once: the models are one (C, M)
block, a mini-batch is (C, B, input_dim) features with (C, B) labels, and
every product is a stacked (C, ., .) @ (C, ., .) matmul.  Each row comes out
bit for bit as it would for that client alone: numpy runs the same gemm on
every slice, and every other step is elementwise or a sum within one
client.  `forward` and `loss` evaluate one model as a stack of one.
Gradients are analytic (softmax cross-entropy backprop by hand);
`local_solve` runs plain mini-batch SGD for all C clients in lockstep, with
an optional sum of proximal penalties pulling each client toward its anchor
models, given one `AnchorLevel` per tree level.

Inputs are validated once, where they enter: `forward`, `loss`,
`prox_objective` and `local_solve` check the parameter length, the feature
width, the labels, non-empty sets, the anchor shapes and mu >= 0.
`local_solve` also requires every client's training set to have the same
length, because a lockstep batch has one shape, and it updates its model
block in place.  `grad` and `prox_grad` are the SGD step kernels; they trust
their inputs and check nothing.
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
class AnchorLevel:
    """The proximal targets of a stack of clients at one tree level.

    Client i is pulled toward `models[group[i]]`, the model of its group at
    this level, with weight `coeff[i]` (1 / that group's member count).
    """

    models: np.ndarray  # (G, M) group models
    group: np.ndarray  # (C,) integer rows of `models`
    coeff: np.ndarray  # (C,) weights in (0, 1]

    def __post_init__(self) -> None:
        if self.models.ndim != 2:
            raise ValueError(f"anchor models have shape {self.models.shape}, expected (G, M)")
        if (
            self.group.ndim != 1
            or self.coeff.shape != self.group.shape
            or not np.issubdtype(self.group.dtype, np.integer)
        ):
            raise ValueError("anchor group and coeff must be equal-length 1-D arrays of ints and floats")
        if np.any((self.group < 0) | (self.group >= len(self.models))):
            raise ValueError(f"anchor group index out of range [0, {len(self.models)})")
        if not np.all((self.coeff > 0.0) & (self.coeff <= 1.0)):
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


def _check_block(spec: ModelSpec, w: np.ndarray) -> None:
    if (
        not isinstance(w, np.ndarray)
        or w.dtype != np.float64
        or w.ndim != 2
        or w.shape[0] < 1
        or w.shape[1] != spec.param_count
        or not w.flags.c_contiguous
    ):
        shape = getattr(w, "shape", None)
        raise ValueError(
            f"model block has shape {shape}, expected a C-contiguous float64 "
            f"(C, {spec.param_count}) array with C >= 1"
        )


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


def _check_anchors(
    spec: ModelSpec, levels: Sequence[AnchorLevel], mu: float, clients: int
) -> None:
    if mu < 0.0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    for level in levels:
        if level.models.shape[1] != spec.param_count:
            raise ValueError(
                f"anchor models have shape {level.models.shape}, "
                f"expected (G, {spec.param_count})"
            )
        if len(level.group) != clients:
            raise ValueError(
                f"anchor level covers {len(level.group)} clients, expected {clients}"
            )


def _views(spec: ModelSpec, w: np.ndarray):
    """Per-part views into a (C, M) block, per the documented layout:
    (C, rows, cols) weight stacks and (C, n) bias stacks."""
    c = w.shape[0]
    d, k = spec.input_dim, spec.num_classes
    if spec.kind == LOGISTIC:
        return w[:, : d * k].reshape(c, d, k), w[:, d * k :]
    h = spec.hidden_dim
    o = 0
    w1 = w[:, o : o + d * h].reshape(c, d, h)
    o += d * h
    b1 = w[:, o : o + h]
    o += h
    w2 = w[:, o : o + h * k].reshape(c, h, k)
    o += h * k
    b2 = w[:, o:]
    return w1, b1, w2, b2


class _Workspace:
    """Scratch arrays for C clients and batches of up to B samples.

    A step on a smaller batch works in leading views of the same arrays.  The
    proximal pull shares memory with the two backprop activations, which are
    dead by the time `prox_grad` computes it.
    """

    def __init__(self, spec: ModelSpec, c: int, b: int) -> None:
        m, size = spec.param_count, c * b * spec.hidden_dim
        shared = np.empty(max(2 * size, c * m))
        self.hidden = shared[:size].reshape(c, b, spec.hidden_dim)
        self.dhidden = shared[size : 2 * size].reshape(c, b, spec.hidden_dim)
        self.prox = shared[: c * m].reshape(c, m)
        self.probs = np.empty((c, b, spec.num_classes))
        self.grad = np.empty((c, m))
        self.client = np.arange(c)[:, None]
        self.sample = np.arange(b)


def _softmax(z: np.ndarray) -> None:
    """Softmax over the last axis, in place."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)


def _forward_cached(
    spec: ModelSpec, w: np.ndarray, x: np.ndarray, probs: np.ndarray, hidden: np.ndarray
) -> None:
    """Fill `probs` (C, B, classes) and, for the MLP, the hidden activations
    `hidden` (C, B, hidden_dim) that backprop needs."""
    if spec.kind == LOGISTIC:
        wt, b = _views(spec, w)
        np.matmul(x, wt, out=probs)
        probs += b[:, None, :]
    else:
        w1, b1, w2, b2 = _views(spec, w)
        np.matmul(x, w1, out=hidden)
        hidden += b1[:, None, :]
        np.tanh(hidden, out=hidden)
        np.matmul(hidden, w2, out=probs)
        probs += b2[:, None, :]
    _softmax(probs)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true labels (clamped at 1e-12)."""
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, _LOG_FLOOR))))


def forward(spec: ModelSpec, w: np.ndarray, data: Dataset) -> np.ndarray:
    """Class probabilities of one model, one softmax row per sample."""
    w = _check_params(spec, w)
    x, _ = _check_data(spec, data)
    n = x.shape[0]
    probs = np.empty((1, n, spec.num_classes))
    _forward_cached(spec, w[None], x[None], probs, np.empty((1, n, spec.hidden_dim)))
    return probs[0]


def loss(spec: ModelSpec, w: np.ndarray, data: Dataset) -> float:
    """Mean cross-entropy over the data set."""
    return cross_entropy(forward(spec, w, data), data.labels)


def grad(
    spec: ModelSpec,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    work: _Workspace | None = None,
) -> np.ndarray:
    """Analytic gradients of each client's mean cross-entropy on its samples.

    w is (C, M), x (C, B, input_dim) and y (C, B); row i of the (C, M) result
    is the gradient of `loss` for w[i] on (x[i], y[i]).  A step kernel: it
    trusts its inputs and checks nothing.  The result lives in `work`, the
    scratch arrays of a solve, and the next step overwrites it.
    """
    c, b = y.shape
    if work is None:
        work = _Workspace(spec, c, b)
    dlogits = work.probs[:, :b]
    hidden = work.hidden[:, :b]
    _forward_cached(spec, w, x, dlogits, hidden)
    dlogits[work.client, work.sample[:b], y] -= 1.0
    dlogits /= b

    g = work.grad
    xt = x.transpose(0, 2, 1)
    if spec.kind == LOGISTIC:
        gw, gb = _views(spec, g)
        np.matmul(xt, dlogits, out=gw)
        np.sum(dlogits, axis=1, out=gb)
        return g
    w2 = _views(spec, w)[2]
    gw1, gb1, gw2, gb2 = _views(spec, g)
    np.matmul(hidden.transpose(0, 2, 1), dlogits, out=gw2)
    np.sum(dlogits, axis=1, out=gb2)
    dpre = work.dhidden[:, :b]
    np.matmul(dlogits, w2.transpose(0, 2, 1), out=dpre)
    # dpre = dhidden * (1 - hidden^2), overwriting hidden on the way
    hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    dpre *= hidden
    np.matmul(xt, dpre, out=gw1)
    np.sum(dpre, axis=1, out=gb1)
    return g


def prox_objective(
    spec: ModelSpec,
    w: np.ndarray,
    trains: Sequence[Dataset],
    levels: Sequence[AnchorLevel],
    mu: float,
) -> np.ndarray:
    """Per client i: loss(w[i]) + (mu/2) * sum_levels coeff[i] * ||w[i] - models[group[i]]||^2"""
    _check_block(spec, w)
    _check_anchors(spec, levels, mu, len(w))
    values = np.array([loss(spec, wi, data) for wi, data in zip(w, trains, strict=True)])
    if mu == 0.0:
        return values
    penalty = np.zeros(len(w))
    for level in levels:
        diff = w - level.models[level.group]
        penalty += level.coeff * np.einsum("ij,ij->i", diff, diff)
    return values + 0.5 * mu * penalty


def prox_grad(
    spec: ModelSpec,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    levels: Sequence[AnchorLevel],
    mu: float,
    work: _Workspace | None = None,
) -> np.ndarray:
    """Gradients of `prox_objective` on samples (x, y); bitwise `grad` at mu == 0.

    A step kernel like `grad`: it checks nothing.  Each level's pull
    mu * coeff * (w - anchor) is added in turn, in the order given.
    """
    if work is None:
        work = _Workspace(spec, *y.shape)
    g = grad(spec, w, x, y, work)
    if mu == 0.0:
        return g
    pull = work.prox
    for level in levels:
        # "clip" never alters an index checked at entry; "raise" would copy
        np.take(level.models, level.group, axis=0, out=pull, mode="clip")
        np.subtract(w, pull, out=pull)
        pull *= (mu * level.coeff)[:, None]
        g += pull
    return g


def local_solve(
    spec: ModelSpec,
    w: np.ndarray,
    trains: Sequence[Dataset],
    levels: Sequence[AnchorLevel],
    mu: float,
    epochs: int,
    batch_size: int,
    lr: float,
    rngs: Sequence,
) -> None:
    """Mini-batch SGD on `prox_objective` for C clients in lockstep.

    `w` is the C-contiguous (C, M) block of starting models and is updated
    in place; row i trains on `trains[i]`, shuffled by `rngs[i]`.  Each
    client's index order is reshuffled once per epoch from its own rng, and
    each step moves every client on its next batch; the trailing partial
    batch is kept.  Every training set must have the same length.  Row i
    ends bitwise equal to the same solve of client i alone, deterministic
    given its rng seed.  lr == 0 walks the schedule without moving.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if lr < 0.0:
        raise ValueError("lr must be non-negative")
    _check_block(spec, w)
    c = w.shape[0]
    if len(trains) != c or len(rngs) != c:
        raise ValueError(
            f"{c} models need {c} training sets and rngs, got {len(trains)} and {len(rngs)}"
        )
    data = [_check_data(spec, train) for train in trains]  # rejects empty sets
    # labels as intp, the dtype of the label buffer `np.take` fills
    data = [(x, y.astype(np.intp, copy=False)) for x, y in data]
    n = len(data[0][1])
    for i, (_, labels) in enumerate(data):
        if len(labels) != n:
            raise ValueError(
                f"client {i} has {len(labels)} training samples but client 0 has {n}; "
                "the lockstep solver needs equal-size training sets"
            )
    _check_anchors(spec, levels, mu, c)
    rngs = [np.random.default_rng(rng) for rng in rngs]

    x = np.empty((c, n, spec.input_dim))
    y = np.empty((c, n), dtype=np.intp)
    work = _Workspace(spec, c, min(batch_size, n))
    for _ in range(epochs):
        for i, ((features, labels), rng) in enumerate(zip(data, rngs)):
            order = rng.permutation(n)
            np.take(features, order, axis=0, out=x[i], mode="clip")
            np.take(labels, order, out=y[i], mode="clip")
        for start in range(0, n, batch_size):
            end = start + batch_size
            g = prox_grad(spec, w, x[:, start:end], y[:, start:end], levels, mu, work)
            g *= lr
            w -= g
