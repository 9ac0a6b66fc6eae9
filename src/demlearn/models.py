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
in one call of its rng, and cuts every step's C batches with one gather per
array.  A solve with enough work trains ranges of its rows in forked
processes, one per CPU; a row depends only on its own data, orders and
pull, so no bit depends on that.

`predict_block` gives each row of a block its labels, bit for bit the
argmax of `forward`'s softmax rows, but finishes the softmax only on rows
where a second class lies within `_TIE_MARGIN` of the max logit.  On a
stack of C sets, row i runs on set i, all in one stacked product; on one
shared set, a row at a time.  `forward`, the solver and `predict_block`
share one logits kernel.

Inputs are validated once, where they enter: `forward`, `predict_block`
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
from typing import Iterable, Sequence

import numpy as np

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
# A solve is split over processes only with at least this much work, rows x
# steps x param_count, per process: a 2-way split of a batch-16 solve breaks
# even against a fork, exit and wait at ~0.2M (170 parameters) to ~0.4M (874).
_MIN_WORK = 400_000


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
    """Scratch arrays for C clients and batches of up to B samples.

    A step on a smaller batch works in leading views of the same arrays.  The
    proximal pull s * w - A shares memory with the two backprop activations,
    which are dead by the time `prox_grad` computes it.
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
    _exp_normalize(z)


def _exp_normalize(d: np.ndarray) -> None:
    """The rest of `_softmax`, on rows from which their max is subtracted."""
    np.exp(d, out=d)
    d /= d.sum(axis=-1, keepdims=True)


def _logits(
    spec: ModelSpec, w: np.ndarray, x: np.ndarray, out: np.ndarray, hidden: np.ndarray
) -> None:
    """Fill `out` (C, B, classes) with the logits and, for the MLP, the hidden
    activations `hidden` (C, B, hidden_dim) that backprop needs."""
    *hidden_layer, w_out, b_out = _views(spec, w)
    if spec.hidden_dim:
        w1, b1 = hidden_layer
        np.matmul(x, w1, out=hidden)
        hidden += b1[:, None, :]
        np.tanh(hidden, out=hidden)
        x = hidden
    np.matmul(x, w_out, out=out)
    out += b_out[:, None, :]


class _PredictWork:
    """Scratch arrays for `_predict` on n samples in all, which the rows on
    a shared set reuse one after another."""

    def __init__(self, spec: ModelSpec, n: int) -> None:
        k = spec.num_classes
        self.logits = np.empty(n * k)
        self.hidden = np.empty(n * spec.hidden_dim)
        self.by_class = np.empty((k, n))
        # rows of ones and of class indices: `tally @ near` counts each
        # sample's near classes and sums their indices in one product
        self.tally = np.stack([np.ones(k), np.arange(k, dtype=np.float64)])


def _predict(spec: ModelSpec, w: np.ndarray, x: np.ndarray, work: _PredictWork) -> np.ndarray:
    """`predict_block` on checked inputs for a stack: Q models (Q, M) on Q
    sets of m samples each (Q, m, input_dim); returns (Q, m) labels."""
    q, m = x.shape[:2]
    z = work.logits.reshape(q, m, spec.num_classes)
    _logits(spec, w, x, z, work.hidden.reshape(q, m, spec.hidden_dim))
    d = work.by_class  # (classes, q * m): each reduction over classes runs along the samples
    np.copyto(d, z.reshape(q * m, -1).T)
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
    _logits(spec, w[None], x[None], probs, np.empty((1, n, spec.hidden_dim)))
    _softmax(probs)
    return probs[0]


def predict_block(spec: ModelSpec, block: np.ndarray, data: Dataset) -> Iterable[np.ndarray]:
    """The class labels of each row of the (C, M) models, bit for bit
    `np.argmax(forward(...), axis=1)`: on a stack of C sets, row i's labels
    on set i, as one (C, m) array from one stacked product; on one shared
    set, a generator that runs a row at a time, so that the C rows' labels
    are never held together.

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
    work = _PredictWork(spec, len(x))
    return (_predict(spec, row[None], x[None], work)[0] for row in w)


def grad(
    spec: ModelSpec,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    work: _Workspace,
) -> np.ndarray:
    """Analytic gradients of each client's mean cross-entropy on its samples.

    w is (C, M), x (C, B, input_dim) and y (C, B); row i of the (C, M) result
    is the gradient of `loss` for w[i] on (x[i], y[i]).  A step kernel: it
    trusts its inputs and checks nothing.  The result lives in `work`, the
    scratch arrays of a solve, and the next step overwrites it.
    """
    b = y.shape[1]
    dlogits = work.probs[:, :b]
    hidden = work.hidden[:, :b]
    _logits(spec, w, x, dlogits, hidden)
    _softmax(dlogits)
    dlogits[work.client, work.sample[:b], y] -= 1.0
    dlogits /= b

    g = work.grad
    *hidden_grad, gw_out, gb_out = _views(spec, g)
    # the output layer's inputs: the hidden activations, or the features
    inputs = hidden if spec.hidden_dim else x
    np.matmul(inputs.transpose(0, 2, 1), dlogits, out=gw_out)
    np.sum(dlogits, axis=1, out=gb_out)
    if not spec.hidden_dim:
        return g
    gw1, gb1 = hidden_grad
    dpre = work.dhidden[:, :b]
    np.matmul(dlogits, _views(spec, w)[-2].transpose(0, 2, 1), out=dpre)
    # dpre = dhidden * (1 - hidden^2), overwriting hidden on the way
    hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    dpre *= hidden
    np.matmul(x.transpose(0, 2, 1), dpre, out=gw1)
    np.sum(dpre, axis=1, out=gb1)
    return g


def prox_grad(
    spec: ModelSpec,
    w: np.ndarray,
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
    g = grad(spec, w, x, y, work)
    if pull is None:
        return g
    s, target = pull
    p = np.multiply(w, s, out=work.prox)
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
    rngs: Sequence,
) -> None:
    """Mini-batch SGD for C clients in lockstep, on each client's mean
    cross-entropy plus the proximal penalty whose gradient is the pull
    s * w - A of `pull` = (s, A), a (C, 1) and a (C, M) array, or none if
    `pull` is None.  `hierarchy.anchor_pull` folds (mu/2) * sum_levels
    coeff * ||w - anchor||^2 into this form.

    `w` is the C-contiguous (C, M) block of starting models and is updated
    in place; row i trains on set i of the (C, n, input_dim) stack `train`,
    shuffled by `rngs[i]`.  Each client's index order is reshuffled once per
    epoch from its own rng (its e-th successive `permutation(n)`, all epochs
    drawn in one `permuted` call), and each step moves every client on its
    next batch; the trailing partial batch is kept.  Row i ends bitwise
    equal to the same solve of client i alone, deterministic given its rng
    seed.  lr == 0 walks the schedule without moving.

    With enough work, P - 1 forked children and the caller train P
    contiguous ranges of rows (see `_processes` for P).  The rngs are drawn
    before the fork, and no output bit depends on P.  A
    child's failure raises a RuntimeError that names its client rows.
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
    if len(x) != c or len(rngs) != c:
        raise ValueError(
            f"{c} models need {c} training sets and rngs, got {len(x)} and {len(rngs)}"
        )
    if pull is not None and (pull[0].shape != (c, 1) or pull[1].shape != w.shape):
        raise ValueError(
            f"pull has shapes {pull[0].shape} and {pull[1].shape}, expected ({c}, 1) and {w.shape}"
        )

    # client i's samples are rows i*n .. (i+1)*n - 1 of the stack read as one set
    n = x.shape[1]
    features = x.reshape(c * n, -1)
    labels = y.reshape(-1).astype(np.intp, copy=False)
    # orders[i, e] is client i's order in epoch e, as its rng's e-th
    # successive permutation(n), shifted to its rows of the stacked set
    orders = np.empty((c, epochs, n), dtype=np.int32)
    every_epoch = np.broadcast_to(np.arange(n), (epochs, n))
    for i, rng in enumerate(rngs):
        orders[i] = np.random.default_rng(rng).permuted(every_epoch, axis=1)
    orders += (np.arange(c, dtype=np.int32) * n)[:, None, None]

    def solve(lo: int, hi: int) -> None:
        rows = None if pull is None else (pull[0][lo:hi], pull[1][lo:hi])
        _train_rows(spec, w[lo:hi], features, labels, orders[lo:hi], rows, batch_size, lr)

    parts = _processes(c * epochs * -(-n // batch_size) * spec.param_count)
    if parts == 1:
        solve(0, c)
    else:
        _train_forked(w, [c * p // parts for p in range(parts + 1)], solve)


def _train_rows(spec, w, features, labels, orders, pull, batch_size, lr) -> None:
    """`local_solve`'s SGD steps for the clients of `w`, a range of rows of
    its block, with their (rows, epochs, n) orders into the stacked set and
    the same rows of the pull's (s, A)."""
    c, epochs, n = orders.shape
    b_max = min(batch_size, n)
    x_buf = np.empty(c * b_max * spec.input_dim)
    y_buf = np.empty(c * b_max, dtype=np.intp)
    work = _Workspace(spec, c, b_max)
    for e in range(epochs):
        for start in range(0, n, batch_size):
            rows = orders[:, e, start : start + batch_size]
            b = rows.shape[1]
            # leading views of the flat buffers are contiguous (C, b, .) batches
            x = x_buf[: c * b * spec.input_dim].reshape(c, b, spec.input_dim)
            y = y_buf[: c * b].reshape(c, b)
            np.take(features, rows, axis=0, out=x, mode="clip")
            np.take(labels, rows, out=y, mode="clip")
            g = prox_grad(spec, w, x, y, pull, work)
            g *= lr
            w -= g


def _processes(work: int) -> int:
    """How many processes share a solve of `work` = rows x steps x
    param_count: one per CPU it may run on, each with at least `_MIN_WORK`;
    one where the platform cannot fork, or while another thread is alive (a
    child could inherit its locks)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), work // _MIN_WORK))


def _train_forked(w: np.ndarray, edges: list[int], train) -> None:
    """`train(lo, hi)` for each range edges[p]:edges[p + 1] of the block `w`:
    forked children train all but the last, which this process trains, and
    pass their rows back through an anonymous shared mapping."""
    # imported here, so that a run that never splits does not load them (~60 KB)
    import mmap
    import signal

    split = edges[-2]
    out = np.frombuffer(mmap.mmap(-1, w[:split].nbytes)).reshape(split, -1)
    read, write = os.pipe()  # the children's error messages
    with open(read, "rb") as errors, open(write, "wb", buffering=0) as pipe:
        children = []  # (pid, lo, hi) of every child not yet reaped
        try:
            for lo, hi in zip(edges, edges[1:-1]):
                pid = os.fork()
                if pid == 0:  # the child never returns
                    try:
                        train(lo, hi)
                        out[lo:hi] = w[lo:hi]
                        os._exit(0)
                    except BaseException as exc:
                        pipe.write(f"{type(exc).__name__}: {exc}\n".encode())
                    finally:
                        os._exit(1)
                children.append((pid, lo, hi))
            pipe.close()
            train(split, len(w))
            # read to EOF, which comes once every child has exited
            message = "; ".join(errors.read().decode(errors="replace").splitlines())
            failed = []
            while children:
                pid, lo, hi = children[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                children.pop(0)
                if code:
                    failed.append(f"{lo}-{hi - 1} (exit code {code})")
            if failed:
                rows = ", ".join(failed)
                raise RuntimeError(f"the forked solve of client rows {rows} failed: {message or 'no message'}")
        except BaseException:
            for pid, _, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
    w[:split] = out
