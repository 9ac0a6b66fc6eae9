"""Differentiable classifiers over flat parameter vectors, stacked by client.

All model state lives in flat float64 vectors so that clustering and
hierarchical averaging can treat a model as a point in R^M.  The layout is
row-major and fixed per ModelSpec:

    multinomial-logistic: [W: input_dim*num_classes | b: num_classes]
    mlp-1hidden:          [W1: input_dim*hidden_dim | b1: hidden_dim |
                           W2: hidden_dim*num_classes | b2: num_classes]

The logistic model is the MLP's output layer applied to the features: every
kernel runs the tanh hidden layer only where hidden_dim > 0.
The kernels work on a stack of C clients at once: the models are one (C, M)
block, a mini-batch is (C, B, input_dim) features with (C, B) labels, and
every product is a stacked (C, ., .) @ (C, ., .) matmul.  Each row comes out
bit for bit as it would for that client alone: numpy runs the same gemm on
every slice, and every other step is elementwise or a sum within one
client.  `forward` evaluates one model as a stack of one.
Gradients are analytic (softmax cross-entropy backprop by hand);
`local_solve` runs plain mini-batch SGD for all C clients in lockstep, with
an optional proximal pull s * w - A given as its (s, A): the form into
which `hierarchy.anchor_pull` folds the penalties toward a client's tree
ancestors, three passes over the block a step whatever the level count.
It takes the C training sets as one (C, n, input_dim) stack, reads
it as one (C * n, input_dim) set, draws each client's orders for all epochs
in one call of the rng of its integer seed row, and cuts every step's C
batches with one gather per array.  A step's activations are batch-major,
(B, C, width), and its softmax runs on a class-major copy, so no reduction
runs along a short axis.  The solve also counts each row's right labels on
the test splits, for C-SPE and C-GEN.  A solve given a `Helpers` set of
its stacks, such as a run's, trains and scores ranges of its rows in
processes that the set forks once, one per CPU, each of which seeds and
orders its own rows; the set's helpers then also fill the distance rows of
`clustering.build_distance_matrix` and the group models' collective scores
of `metrics.g_metrics`, each task through one wake with its tag and one
answer.  A solve without such a set runs whole in the calling process.  A
row depends only on its own data, seed row and pull, so no bit depends on
the split.

`predict_block` gives each row of a block its labels, bit for bit the
argmax of `forward`'s softmax rows, but finishes the softmax only on rows
where a second class lies within `_TIE_MARGIN` of the max logit.  On a
stack of C sets, row i runs on set i, all in one stacked product; on one
shared set, a row at a time, in chunks of samples whose layer products stay
within `_SPLIT_SCORING` multiply-adds.  `forward`, the solver and
`predict_block` share one logits kernel.

Inputs are validated where they enter: `forward`, `predict_block`
and `local_solve` check the parameter length, the data layout and feature
width, the labels (an integer dtype, each in range, all in one reduction),
non-empty sets, and, for the solver, the pull's shapes.  `local_solve`
also requires a finite lr >= 0, and it updates its model block in place.
`grad` and `prox_grad` are the SGD step kernels; they trust their inputs
and check nothing.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import BinaryIO, Iterable, NamedTuple

import numpy as np

from .clustering import distance_rows, row_norms
from .data import Dataset

LOGISTIC = "multinomial-logistic"
MLP = "mlp-1hidden"

INIT_VARIANCE = 0.01  # parameters start from N(0, 0.01), i.e. std 0.1
_LOG_FLOOR = 1e-12
# Within this of its row's max, a logit may round to the max's probability.
# A row with one class this near is that class in the softmax argmax too:
# every other class has d = z - max < -2**-40, so exp(d) <= 1 - 2**-41 and,
# divided by the same row sum s, rounds strictly below fl(1 / s).
_TIE_MARGIN = 2.0**-40
# `predict_block` runs a shared set in chunks whose layer products have at
# most this many multiply-adds.  From ~1M, numpy's OpenBLAS runs a product
# on several threads, and split processes that each did so ran 2-4x slower
# than one process on 2 CPUs (MLP-32 on 1,800 samples, 0.92M, gained; on
# 2,000, 1.02M, it did not).
_SPLIT_SCORING = 800_000


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
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in _layers(self))


def _layers(spec: ModelSpec) -> list[tuple[int, int]]:
    """(fan-in, fan-out) of each dense layer in layout order: the hidden
    layer where hidden_dim > 0, then the output layer."""
    dims = [spec.input_dim, *([spec.hidden_dim] if spec.hidden_dim else []), spec.num_classes]
    return list(zip(dims, dims[1:]))


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


def _check_data(spec: ModelSpec, data: Dataset, ndims: tuple[int, ...] = (2, 3)) -> tuple[np.ndarray, np.ndarray]:
    """Check one data set, (N, input_dim) features with (N,) labels, or a
    stack of C sets, (C, N, input_dim) with (C, N), as `ndims`, the feature
    dimensions allowed, says; returns its (features, labels) arrays."""
    # contiguous, so a set runs the same gemm whatever its layout and a
    # stack reads as one set without a copy
    x = np.ascontiguousarray(data.features, dtype=np.float64)
    y = np.asarray(data.labels)
    if y.dtype.kind not in "iu":  # signed or unsigned integers
        raise ValueError(f"labels must have an integer dtype, got {y.dtype}")
    if x.ndim not in ndims or x.shape[-1] != spec.input_dim:
        layouts = {2: f"(B, {spec.input_dim})", 3: f"(C, B, {spec.input_dim})"}
        expected = " or ".join(layouts[n] for n in ndims)
        raise ValueError(f"feature matrix has shape {x.shape}, expected {expected}")
    if y.shape != x.shape[:-1]:
        raise ValueError(f"label vector has shape {y.shape}, expected {x.shape[:-1]}")
    if y.size == 0:
        raise ValueError("data set must contain at least one sample")
    if y.min() < 0 or y.max() >= spec.num_classes:
        raise ValueError("labels must lie in [0, num_classes)")
    return x, y


def _views(spec: ModelSpec, w: np.ndarray) -> list[np.ndarray]:
    """Views into a (C, M) block, per the documented layout: each layer's
    (C, fan_in, fan_out) weight stack and (C, fan_out) bias stack, in order."""
    c, o, views = w.shape[0], 0, []
    for fan_in, fan_out in _layers(spec):
        end = o + fan_in * fan_out
        views += [w[:, o:end].reshape(c, fan_in, fan_out), w[:, end : end + fan_out]]
        o = end + fan_out
    return views


class _Workspace:
    """Scratch arrays and views for SGD steps of the (C, M) block `w` on
    batches of up to B samples, built once per solve.

    The activations are batch-major, (B, C, width): a smaller batch works
    in leading views, and bias adds and sums run over rows of C * width.
    The softmax's class-major copy `by_class` shares memory with `dhidden`,
    written after the softmax, and the pull s * w - A with both activations,
    dead by the time `prox_grad` computes it.
    """

    def __init__(self, spec: ModelSpec, w: np.ndarray, b: int) -> None:
        c, m = w.shape
        size, classes = b * c * spec.hidden_dim, b * c * spec.num_classes
        shared = np.empty(max(2 * size, size + classes, c * m))
        self.hidden = shared[:size].reshape(b, c, spec.hidden_dim)
        self.dhidden = shared[size : 2 * size].reshape(b, c, spec.hidden_dim)
        self.by_class = shared[size : size + classes]
        self.prox = shared[: c * m].reshape(c, m)
        self.logits = np.empty((b, c, spec.num_classes))
        self.sample = np.arange(b * c)
        self.w, self.grad = w, np.empty((c, m))
        self.layers, self.grads = _views(spec, w), _views(spec, self.grad)
        # the layers with contiguous copies of the biases, refreshed each step
        self.biases = [np.empty(bias.shape) for bias in self.layers[1::2]]
        self.inputs = list(self.layers)
        self.inputs[1::2] = self.biases


def _softmax(z: np.ndarray) -> None:
    """Softmax over the last axis, in place."""
    z -= z.max(axis=-1, keepdims=True)
    _exp_normalize(z)


def _exp_normalize(d: np.ndarray) -> None:
    """The rest of `_softmax`, on rows from which their max is subtracted."""
    np.exp(d, out=d)
    d /= d.sum(axis=-1, keepdims=True)


def _class_softmax(d: np.ndarray) -> None:
    """`_softmax` of the columns of a class-major (classes, N) array, in
    place, bit for bit: every reduction runs along the N samples."""
    d -= d.max(axis=0)  # a max has the same bits in any order
    np.exp(d, out=d)
    d /= _class_sum(d)


def _class_sum(d: np.ndarray) -> np.ndarray:
    """The column sums of a class-major (k, N) array, in numpy's pairwise
    order over a contiguous run of k: in order below 8 classes; up to 128,
    eight running sums added as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the rest in order; from 128 on, numpy's own sum of a row-major copy."""
    k = len(d)
    if k >= 128:
        return d.T.copy().sum(axis=1)
    width = 8 if k >= 8 else 1  # how many running sums
    runs, rest = d[:width].copy(), k - k % width
    for i in range(width, rest, width):
        runs += d[i : i + width]
    while len(runs) > 1:
        runs = runs[0::2] + runs[1::2]
    total = runs[0]
    for row in d[rest:]:
        total += row
    return total


def _logits(
    spec: ModelSpec, layers: list[np.ndarray], x: np.ndarray, out: np.ndarray, hidden: np.ndarray
) -> None:
    """Fill `out` (C, B, classes) with the logits of the model `layers`
    (`_views` of a block, or biases copied from it) and, for the MLP, the
    hidden activations `hidden` (C, B, hidden_dim) that backprop needs."""
    *hidden_layer, w_out, b_out = layers
    if spec.hidden_dim:
        w1, b1 = hidden_layer
        np.matmul(x, w1, out=hidden)
        hidden += b1[:, None, :]
        np.tanh(hidden, out=hidden)
        x = hidden
    np.matmul(x, w_out, out=out)
    out += b_out[:, None, :]


class _PredictWork:
    """Scratch arrays for `_predict` on up to n samples in all, which the
    chunks of the rows on a shared set reuse one after another."""

    def __init__(self, spec: ModelSpec, n: int) -> None:
        k = spec.num_classes
        self.logits = np.empty(n * k)
        self.hidden = np.empty(n * spec.hidden_dim)
        self.by_class = np.empty(k * n)
        # rows of ones and of class indices: `tally @ near` counts each
        # sample's near classes and sums their indices in one product
        self.tally = np.stack([np.ones(k), np.arange(k, dtype=np.float64)])


def _predict(spec: ModelSpec, w: np.ndarray, x: np.ndarray, work: _PredictWork) -> np.ndarray:
    """`predict_block` on checked inputs for a stack: Q models (Q, M) on Q
    sets of m samples each (Q, m, input_dim); returns (Q, m) labels."""
    q, m = x.shape[:2]
    k, n = spec.num_classes, q * m
    z = work.logits[: n * k].reshape(q, m, k)
    _logits(spec, _views(spec, w), x, z, work.hidden[: n * spec.hidden_dim].reshape(q, m, spec.hidden_dim))
    d = work.by_class[: k * n].reshape(k, n)  # each reduction over classes runs along the samples
    np.copyto(d, z.reshape(n, k).T)
    d -= d.max(axis=0)  # the subtraction `_softmax` makes, element for element
    near = d >= -_TIE_MARGIN  # never true of NaN
    count, index_sum = work.tally @ near
    labels = index_sum.astype(np.intp)  # the near class, where it is the only one
    rest = np.flatnonzero(count != 1.0)
    if rest.size:
        probs = d[:, rest].T.copy()
        _exp_normalize(probs)
        labels[rest] = np.argmax(probs, axis=1)
    return labels.reshape(q, m)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true labels (clamped at 1e-12)."""
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, _LOG_FLOOR))))


def forward(spec: ModelSpec, w: np.ndarray, data: Dataset) -> np.ndarray:
    """Class probabilities of one model, one softmax row per sample."""
    w = _check_params(spec, w)
    x, _ = _check_data(spec, data, ndims=(2,))
    n = x.shape[0]
    probs = np.empty((1, n, spec.num_classes))
    _logits(spec, _views(spec, w[None]), x[None], probs, np.empty((1, n, spec.hidden_dim)))
    _softmax(probs)
    return probs[0]


def predict_block(spec: ModelSpec, block: np.ndarray, data: Dataset) -> Iterable[np.ndarray]:
    """The class labels of each row of the (C, M) models, bit for bit
    `np.argmax(forward(...), axis=1)`: on a stack of C sets, row i's labels
    on set i, as one (C, m) array from one stacked product; on one shared
    set, a generator that runs a row at a time, so that the C rows' labels
    are never held together, in chunks of at most `_SPLIT_SCORING` //
    (the widest fan_in x fan_out) samples, so that no product is large
    enough for BLAS to run it on several threads.

    A sample where only the max logit's class lies within `_TIE_MARGIN` of
    the max takes that class; the softmax is finished only on the others.
    """
    w = np.ascontiguousarray(block, dtype=np.float64)
    _check_block(spec, w)
    x, y = _check_data(spec, data)
    if x.ndim == 3:
        if len(x) != len(w):
            raise ValueError(f"{len(w)} models need {len(w)} data sets, got {len(x)}")
        return _predict(spec, w, x, _PredictWork(spec, y.size))
    chunk = max(1, _SPLIT_SCORING // max(a * b for a, b in _layers(spec)))
    work, starts = _PredictWork(spec, min(chunk, len(x))), range(0, len(x), chunk)
    return (np.concatenate([_predict(spec, row[None], x[None, i : i + chunk], work)[0] for i in starts]) for row in w)


def grad(spec: ModelSpec, x: np.ndarray, y: np.ndarray, work: _Workspace) -> np.ndarray:
    """Analytic gradients of each client's mean cross-entropy on its samples.

    `work` holds the (C, M) block w; x is (C, B, input_dim) and y (C, B),
    and row i of the (C, M) result is the gradient of `loss` for w[i] on
    (x[i], y[i]).  A step kernel: it trusts its inputs and checks nothing.
    The result lives in `work`, and the next step overwrites it.
    """
    b, c = y.shape[1], len(work.w)
    n, k = b * c, spec.num_classes
    for bias, view in zip(work.biases, work.layers[1::2]):
        np.copyto(bias, view)
    logits, hidden = work.logits[:b], work.hidden[:b]  # batch-major
    _logits(spec, work.inputs, x, logits.transpose(1, 0, 2), hidden.transpose(1, 0, 2))
    # the softmax and the label's -1 on the class-major copy, whose column
    # j * C + i is client i's sample j
    d = work.by_class[: k * n].reshape(k, n)
    np.copyto(d, logits.reshape(n, k).T)
    _class_softmax(d)
    work.by_class[y.T.ravel() * n + work.sample[:n]] -= 1.0
    d /= b
    np.copyto(logits.reshape(n, k), d.T)

    *hidden_grad, gw_out, gb_out = work.grads
    # the output layer's inputs: the hidden activations, or the features
    inputs = hidden.transpose(1, 0, 2) if spec.hidden_dim else x
    _layer_grad(inputs, logits, gw_out, gb_out)
    if not spec.hidden_dim:
        return work.grad
    gw1, gb1 = hidden_grad
    dpre = work.dhidden[:b]
    np.matmul(logits.transpose(1, 0, 2), work.layers[-2].transpose(0, 2, 1), out=dpre.transpose(1, 0, 2))
    # dpre = dhidden * (1 - hidden^2), overwriting hidden on the way
    hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    dpre *= hidden
    _layer_grad(x, dpre, gw1, gb1)
    return work.grad


def _layer_grad(inputs: np.ndarray, deltas: np.ndarray, gw: np.ndarray, gb: np.ndarray) -> None:
    """gw = inputs^T @ deltas and gb = deltas summed over the batch, for
    (C, B, fan_in) inputs and batch-major (B, C, fan_out) deltas, bit for
    bit as on one client's arrays.  Where a side is 1 wide, numpy's order
    follows the layout (gemv for the product, a pairwise sum over B for
    fan_out = 1), so both then run on client-major copies."""
    if 1 in gw.shape[1:]:
        inputs = np.ascontiguousarray(inputs)
        deltas = np.ascontiguousarray(deltas.transpose(1, 0, 2))
        np.add.reduce(deltas, axis=1, out=gb)
    else:
        np.add.reduce(deltas, axis=0, out=gb)
        deltas = deltas.transpose(1, 0, 2)
    np.matmul(inputs.transpose(0, 2, 1), deltas, out=gw)


def prox_grad(
    spec: ModelSpec,
    x: np.ndarray,
    y: np.ndarray,
    pull: tuple[np.ndarray, np.ndarray] | None,
    work: _Workspace,
) -> np.ndarray:
    """`grad` plus the proximal pull s * w - A of `pull` = (s, A), the (C, 1)
    and (C, M) arrays that `hierarchy.anchor_pull` folds from every tree
    level; bitwise `grad` when `pull` is None.

    A step kernel like `grad`: it checks nothing, and adds the pull of every
    level in three passes over the block.
    """
    g = grad(spec, x, y, work)
    if pull is None:
        return g
    s, target = pull
    p = np.multiply(work.w, s, out=work.prox)
    p -= target
    g += p
    return g


def local_solve(
    spec: ModelSpec,
    w: np.ndarray,
    train: Dataset,
    pull: tuple[np.ndarray, np.ndarray] | None,
    epochs: int,
    batch_size: int,
    lr: float,
    seeds: np.ndarray,
    test: Dataset,
    helpers: Helpers | None = None,
) -> np.ndarray:
    """Mini-batch SGD for C clients in lockstep, on each client's mean
    cross-entropy plus the proximal penalty whose gradient is the pull
    s * w - A of `pull` = (s, A), a (C, 1) and a (C, M) array, or none if
    `pull` is None.  `hierarchy.anchor_pull` folds (mu/2) * sum_levels
    coeff * ||w - anchor||^2 into this form.

    `w` is the C-contiguous (C, M) block of starting models and is updated
    in place; row i trains on set i of the (C, n, input_dim) stack `train`,
    shuffled by the rng `np.random.default_rng(seeds[i].tolist())` of row i
    of the integer (C, S) array `seeds`.  Each client's index order is
    reshuffled once per epoch from its own rng (its e-th successive
    `permutation(n)`, all epochs drawn in one `permuted` call), and each
    step moves every client on its next batch; the trailing partial batch
    is kept.  Row i ends bitwise equal to the same solve of client i alone,
    a function of its seed row.  lr == 0 walks the schedule without moving.

    The solve also scores each trained row on the (C, m, input_dim) stack
    `test` and returns the (C, 2) counts of the labels it gets right (the
    argmax of `forward`'s softmax): on its own test set and on the
    collective set, the stack read as one set.  A range of rows in which a
    model's squared norm is not finite is not scored, and its counts read 0.

    Given `helpers`, a `Helpers` set of this spec and these two stacks, P
    contiguous ranges of rows train and score in P processes (see
    `_processes` for P): this one runs the last range, and the set's
    helpers the others.  Without such a set, the solve runs whole here.
    Each process draws the orders of its own rows, and no output bit
    depends on P.  A helper's failure raises a RuntimeError that names its
    client rows.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if not (np.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"lr must be finite and non-negative, got {lr}")
    _check_block(spec, w)
    c = w.shape[0]
    x, y = _check_data(spec, train, ndims=(3,))  # rejects empty sets
    if len(x) != c:
        raise ValueError(f"{c} models need {c} training sets, got {len(x)}")
    seeds = _check_seeds(seeds, c)
    if pull is not None and (pull[0].shape != (c, 1) or pull[1].shape != w.shape):
        raise ValueError(
            f"pull has shapes {pull[0].shape} and {pull[1].shape}, expected ({c}, 1) and {w.shape}"
        )
    test_y = _check_data(spec, test, ndims=(3,))[1]
    if len(test_y) != c:
        raise ValueError(f"{c} models need {c} test sets, got {len(test_y)}")
    right = np.zeros((c, 2), dtype=np.intp)

    # client i's samples are rows i*n .. (i+1)*n - 1 of the stack read as one set
    n = x.shape[1]
    labels = y.reshape(-1).astype(np.intp, copy=False)
    inputs = _Inputs(spec, x.reshape(c * n, -1), labels, test)
    parts = 1 if helpers is None or not helpers.owns(spec, train, test) else _processes(c)
    if parts == 1:
        inputs.solve(0, w, seeds, epochs, pull, batch_size, lr, right)
    else:
        helpers.split(inputs, parts, w, pull, epochs, batch_size, lr, seeds, right)
    return right


def _check_seeds(seeds, c: int) -> np.ndarray:
    """The seed rows of C clients as an int64 (C, S) array, S >= 1, each in
    [0, 2**63 - 1]: the width at which they cross to a helper."""
    s = np.asarray(seeds)
    if s.dtype.kind not in "iu" or s.ndim != 2 or len(s) != c or s.shape[1] < 1:
        raise ValueError(
            f"seeds have shape {s.shape} and dtype {s.dtype}, expected an integer ({c}, S) array with S >= 1"
        )
    if s.min() < 0 or s.max() > np.iinfo(np.int64).max:
        raise ValueError(f"seeds must lie in [0, {np.iinfo(np.int64).max}]")
    return s.astype(np.int64, copy=False)


def _draw_orders(seeds: np.ndarray, first: int, epochs: int, n: int) -> np.ndarray:
    """The (rows, epochs, n) batch orders of clients first, first + 1, ...
    from their seed rows: client i's order in epoch e is its rng's e-th
    successive permutation(n), shifted to its rows of the stacked set."""
    out = np.empty((len(seeds), epochs, n), dtype=np.int32)
    every_epoch = np.broadcast_to(np.arange(n), (epochs, n))
    # a row of Python ints seeds an rng ~10% faster than an int64 row
    for row, seed in zip(out, seeds.tolist()):
        row[...] = np.random.default_rng(seed).permuted(every_epoch, axis=1)
    out += (np.arange(first, first + len(out), dtype=np.int32) * n)[:, None, None]
    return out


@dataclass(frozen=True)
class _Inputs:
    """What every process of a solve reads and no solve changes: the
    training stack read as one set, and the test stack."""

    spec: ModelSpec
    features: np.ndarray
    labels: np.ndarray
    test: Dataset

    def solve(self, lo, w, seeds, epochs, pull, batch_size, lr, right) -> None:
        """Train the clients of `w`, rows lo, lo + 1, ... of the block, for
        `epochs` epochs on the orders of their seed rows and on rows of the
        pull, then write their counts into `right`, zeros for a range with a
        non-finite row."""
        n = len(self.labels) // len(self.test.labels)  # each client's training samples
        orders = _draw_orders(seeds, lo, epochs, n)
        _train_rows(self.spec, w, self.features, self.labels, orders, pull, batch_size, lr)
        right[...] = 0
        if _finite(w):
            hi, test = lo + len(w), self.test
            own = Dataset(test.features[lo:hi], test.labels[lo:hi], test.num_classes)
            right[:, 0] = _right_counts(self.spec, w, own)
            right[:, 1] = _right_counts(self.spec, w, test.union())


def _train_rows(spec, w, features, labels, orders, pull, batch_size, lr) -> None:
    """`local_solve`'s SGD steps for the clients of `w`, a range of rows of
    its block, with their (rows, epochs, n) orders into the stacked set and
    the same rows of the pull's (s, A)."""
    c, epochs, n = orders.shape
    b_max = min(batch_size, n)
    x_buf = np.empty(c * b_max * spec.input_dim)
    y_buf = np.empty(c * b_max, dtype=np.intp)
    work = _Workspace(spec, w, b_max)
    for e in range(epochs):
        for start in range(0, n, batch_size):
            rows = orders[:, e, start : start + batch_size]
            b = rows.shape[1]
            # leading views of the flat buffers: the (C, b, .) features and
            # the batch-major (b, C) labels
            x = x_buf[: c * b * spec.input_dim].reshape(c, b, spec.input_dim)
            y = y_buf[: c * b].reshape(b, c)
            np.take(features, rows, axis=0, out=x, mode="clip")
            np.take(labels, rows.T, out=y, mode="clip")
            g = prox_grad(spec, x, y.T, pull, work)
            g *= lr
            w -= g


def _finite(w: np.ndarray) -> bool:
    """Whether every row of `w` has a finite squared norm; the labels of one
    that has not are meaningless, so `local_solve` does not score its range."""
    return bool(np.isfinite(np.einsum("ij,ij->i", w, w)).all())


def _right_counts(spec: ModelSpec, block: np.ndarray, data: Dataset) -> np.ndarray:
    """How many samples row i of `block` labels right, for every row: on set
    i of a stack, or on one shared set, counted a row at a time."""
    preds = predict_block(spec, block, data)
    if data.labels.ndim == 2:
        return np.count_nonzero(preds == data.labels, axis=1)
    return np.array([np.count_nonzero(p == data.labels) for p in preds], dtype=np.intp)


def _processes(rows: int) -> int:
    """How many processes share a split solve of `rows` rows: one per CPU
    it may run on, each with at least one row; one where the platform
    cannot fork, or while another thread is alive (a child could inherit
    its locks)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), rows)


class _Helper(NamedTuple):
    pid: int
    wake: int  # the write end of the pipe the helper waits on
    status: BinaryIO  # the read end of the pipe it answers on
    lo: int  # the client rows it solves
    hi: int


class _Map(NamedTuple):
    """The arrays of a set's shared map, for C clients of M parameters, of
    which the helpers solve the first k, with seed rows of width S."""

    header: np.ndarray  # a solve's lr, batch size, whether it pulls and epochs; a scoring's rows
    block: np.ndarray  # (C, M): the helpers' rows of a solve, the points of distances, or models to score
    s: np.ndarray  # (k, 1) and (k, M): the helpers' rows of a solve's pull
    target: np.ndarray
    counts: np.ndarray  # (C, 2): the helpers' rows of a solve's counts; a scoring's in column 1
    seeds: np.ndarray  # (k, S)
    distances: np.ndarray  # (C, C): the rows of a distance matrix, above the diagonal


def _edges(rows: int, parts: int) -> list[int]:
    """The edges of `parts` contiguous ranges of about equal numbers of rows."""
    return [rows * p // parts for p in range(parts + 1)]


class Helpers:
    """Forked helper processes that share the per-client work of rounds on
    one spec and one pair of train and test stacks, such as every round of
    a run: all but the last range of rows of the solve, all but the last
    stripe of the distance rows of a rebuild, and the group models' scores
    on the collective set.

    The set forks its P - 1 helpers at the first solve it is given where
    P > 1 (see `_processes`), and each inherits the stacks, which must not
    change while the set is open.  Each task copies what the helpers read
    into one anonymous shared map, wakes each helper with its one-byte tag
    on the helper's pipe, does its own part, reads each helper's status
    line and takes the helpers' results from the map.  A solve copies the helpers' rows of the block, of the
    pull's (s, A) and of the seeds; a distance matrix, the whole (C, M)
    block of points; a scoring, its models, which only the helpers score
    while this process does other work.  A solve with another P or seed
    width forks the set anew.  Distances and scores split exactly when the
    set has forked.  A failure kills and reaps the helpers; `close`, or
    leaving a `with` block, closes their pipes, on whose EOF each exits,
    and reaps them.
    """

    def __init__(self, spec: ModelSpec, train: Dataset, test: Dataset) -> None:
        self.spec, self.train, self.test = spec, train, test
        self._helpers: list[_Helper] = []
        self._layout = None  # the (P, seed width) the helpers were forked for
        self._map: _Map | None = None

    def __enter__(self) -> Helpers:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def owns(self, spec: ModelSpec, train: Dataset, test: Dataset) -> bool:
        return spec == self.spec and train is self.train and test is self.test

    def close(self) -> None:
        """End the helpers: each exits on EOF of its pipe, and is reaped."""
        self._end(kill=False)

    def _end(self, kill: bool) -> None:
        import signal

        helpers, self._helpers = self._helpers, []
        self._layout, self._map = None, None
        for helper in helpers:
            if kill:
                os.kill(helper.pid, signal.SIGKILL)
            os.close(helper.wake)
        for helper in helpers:
            helper.status.close()
            os.waitpid(helper.pid, 0)

    def split(self, inputs: _Inputs, parts, w, pull, epochs, batch_size, lr, seeds, right) -> None:
        """`local_solve`'s solve and scoring of the block `w` over `parts`
        processes, the counts written into `right`."""
        if self._layout != (parts, seeds.shape[1]):
            self._end(kill=False)
            self._start(inputs, parts, seeds.shape[1])
        m = self._map
        k = len(m.seeds)  # the helpers' rows
        np.copyto(m.seeds, seeds[:k])
        np.copyto(m.block[:k], w[:k])
        if pull is not None:
            np.copyto(m.s, pull[0][:k])
            np.copyto(m.target, pull[1][:k])
        m.header[:4] = lr, batch_size, pull is not None, epochs
        own_pull = None if pull is None else (pull[0][k:], pull[1][k:])
        self._run(b"s", lambda: inputs.solve(k, w[k:], seeds[k:], epochs, own_pull, batch_size, lr, right[k:]))
        w[:k] = m.block[:k]
        right[:k] = m.counts[:k]

    def distances(self, x: np.ndarray, norms: np.ndarray | None) -> np.ndarray | None:
        """`distance_rows` of all rows of the (C, M) points `x`, with
        `norms` for the cosine metric or None for the Euclidean, striped
        over the P processes: process p fills rows p, p + P, ..., and this
        one the last stripe, so each gets long and short rows alike.  The
        (C, C) matrix, zero on and below the diagonal; None where the set
        has not forked or `x` is not a C-contiguous float64 (C, M) array,
        the layout of its copy in the map."""
        m = self._map
        if not self._helpers or x.shape != m.block.shape or x.dtype != m.block.dtype or not x.flags.c_contiguous:
            return None
        np.copyto(m.block, x)
        parts = len(self._helpers) + 1
        own = range(parts - 1, len(x) - 1, parts)
        self._run(b"e" if norms is None else b"c", lambda: distance_rows(x, norms, own, m.distances))
        return m.distances.copy()

    def scores(self, spec: ModelSpec, block: np.ndarray, test: Dataset, meanwhile) -> np.ndarray | None:
        """`_right_counts` of each row of the models `block` on the stack
        `test` read as one set, in ranges of about equal rows, one per
        helper, while this process runs `meanwhile()`; None, running
        nothing, where the set has not forked for this spec and test stack,
        or `block` has more rows than the stack has sets."""
        m = self._map
        if not self._helpers or spec != self.spec or test is not self.test or len(block) > len(m.block):
            return None
        q = len(block)
        np.copyto(m.block[:q], block)
        m.header[4] = q
        self._run(b"g", meanwhile)
        return m.counts[:q, 1].copy()

    def _run(self, tag: bytes, own) -> None:
        """Wake every helper on the task `tag`, do this process's part,
        `own()`, and take every helper's answer; a failure kills and reaps
        the helpers."""
        try:
            for helper in self._helpers:
                try:
                    os.write(helper.wake, tag)
                except BrokenPipeError:  # a dead helper: its exit code tells
                    pass
            own()
            self._answers(tag)
        except BaseException:
            self._end(kill=True)
            raise

    def _start(self, inputs: _Inputs, parts: int, width: int) -> None:
        # imported here, so that a run that never splits does not load it
        import mmap

        c, m = len(self.train.labels), self.spec.param_count
        edges = _edges(c, parts)
        k = edges[-2]
        layout = [((5,), np.float64), ((c, m), np.float64), ((k, 1), np.float64), ((k, m), np.float64),
                  ((c, 2), np.intp), ((k, width), np.int64), ((c, c), np.float64)]
        sizes = [int(np.prod(shape)) * np.dtype(dtype).itemsize for shape, dtype in layout]
        mapping, offsets = mmap.mmap(-1, sum(sizes)), np.cumsum([0, *sizes]).tolist()
        self._map = _Map(*(
            np.frombuffer(mapping, dtype, int(np.prod(shape)), o).reshape(shape)
            for (shape, dtype), o in zip(layout, offsets)
        ))
        self._layout = parts, width
        try:
            for p, (lo, hi) in enumerate(zip(edges, edges[1:-1])):
                wake, woken = os.pipe()
                status, answer = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    for fd in (wake, woken, status, answer):
                        os.close(fd)
                    raise
                if pid == 0:  # the helper never returns
                    # this process's ends of its pipes and of the earlier helpers'
                    ends = [woken, status, *(fd for h in self._helpers for fd in (h.wake, h.status.fileno()))]
                    _serve(inputs, self._map, p, parts, wake, answer, ends)
                os.close(wake)
                os.close(answer)
                self._helpers.append(_Helper(pid, woken, open(status, "rb"), lo, hi))
        except BaseException:
            self._end(kill=True)
            raise

    def _answers(self, tag: bytes) -> None:
        """Read each helper's status line, and raise naming the task and
        the rows of every helper that failed, which has exited and is
        reaped."""
        failed, lines = [], []
        for helper in list(self._helpers):
            line = helper.status.readline()
            if line == b"\n":
                continue
            # an error's text, read to EOF, or nothing from a helper killed
            lines += (line + helper.status.read()).decode(errors="replace").splitlines()
            self._helpers.remove(helper)
            os.close(helper.wake)
            helper.status.close()
            code = os.waitstatus_to_exitcode(os.waitpid(helper.pid, 0)[1])
            failed.append(f"{helper.lo}-{helper.hi - 1} (exit code {code})")
        if failed:
            task = {b"s": "solve", b"g": "group scoring"}.get(tag, "distance rows")
            rows, message = ", ".join(failed), "; ".join(lines)
            raise RuntimeError(f"the forked {task} of client rows {rows} failed: {message or 'no message'}")


def _serve(inputs: _Inputs, m: _Map, p: int, parts: int, wake: int, answer: int, ends: list[int]) -> None:
    """Helper p's life, once it has closed the caller's pipe `ends`: each
    time a tag arrives on `wake`, do its range of that task from the shared
    map `m` and answer with an empty status line; on an error, answer its
    text and exit 1; on EOF, exit 0.  The tags: b"s" solves the helper's
    client rows, b"e" and b"c" fill its stripe of Euclidean or cosine
    distance rows, p, p + P, ..., and b"g" scores its range of the group
    models, which the P - 1 helpers share."""
    code = 1
    try:
        for fd in ends:
            os.close(fd)
        c = len(m.block)
        lo, hi = _edges(c, parts)[p : p + 2]
        while tag := os.read(wake, 1):
            if tag == b"s":
                lr, batch_size, pulls, epochs, _ = m.header
                pull = (m.s[lo:hi], m.target[lo:hi]) if pulls else None
                inputs.solve(lo, m.block[lo:hi], m.seeds[lo:hi], int(epochs), pull, int(batch_size), lr, m.counts[lo:hi])
            elif tag == b"g":
                q = int(m.header[4])
                a, b = _edges(q, parts - 1)[p : p + 2]
                if b > a:
                    m.counts[a:b, 1] = _right_counts(inputs.spec, m.block[a:b], inputs.test.union())
            else:
                distance_rows(m.block, row_norms(m.block) if tag == b"c" else None, range(p, c - 1, parts), m.distances)
            os.write(answer, b"\n")
        code = 0
    except BaseException as exc:
        os.write(answer, f"{type(exc).__name__}: {exc}\n".encode())
    finally:
        os._exit(code)
