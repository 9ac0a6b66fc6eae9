"""The round loop shared by all four algorithms, and run orchestration.

One round: every client restarts from a decaying blend of its ancestor
group models, runs a few epochs of proximal SGD against those ancestors
(the pull that `hierarchy.anchor_pull` folds from the tree), then (every
tau rounds) the server re-clusters the clients and finally re-averages
every group model bottom-up.  FedAvg and FedProx are the same loop over a
fixed one-group tree of all clients: each round restarts every client from
the root model (beta = 1), pulls it toward the root with weight 1
(FedProx's mu/2 ||w - w_global||^2), and never re-clusters.

Client i is row i of two (C, M) blocks, its model and its last update
delta, allocated once per run and updated in place, of the train and test
stacks that the shard partition deals, and of every tree level.  One call
of the lockstep solver `models.local_solve` trains every client of a
round and counts each trained model's right labels for C-SPE and C-GEN.
Client i's rng in round t is seeded by the row [run.seed, 1, i, t].
On a host with several CPUs every solve of a run trains and scores ranges
of its clients in helper processes, one per CPU up to one per client,
which `run` forks once, at round 0's solve, and ends when it returns or
raises (no fork while another thread runs).  The rest of a round runs in
the calling process.  No output byte depends on the CPU count.
A round whose solve leaves a model with a non-finite squared norm (a
non-finite entry, or entries so large that distances overflow) fails at
once, naming the client, the round, lr and mu; so does a re-clustering
round under metric=gradients in which a client's update is zero.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import clustering, hierarchy
from .clustering import GRADIENT_METRIC, WEIGHT_METRIC, Dendrogram
from .data import ConfigurationError, Dataset, load_idx, partition_shards, synthetic_dataset
from .hierarchy import HierarchyTree, build_tree, generalized_blend, propagate_up
from .metrics import RoundMetrics, round_metrics
from .models import LOGISTIC, MLP, Helpers, ModelSpec, init_params, local_solve

ALGORITHMS = ("demlearn", "demlearn-p", "fedavg", "fedprox")
HIERARCHICAL = ("demlearn", "demlearn-p")
DATA_DIR_ENV = "DEMLEARN_DATA_DIR"

# stream tags for per-purpose rng derivation from the run seed
_INIT_STREAM = 0
_CLIENT_STREAM = 1


def _key(key: str, flag: str, default, *, choices: tuple = (), low=None, high=None):
    """A config field: its dotted key, CLI flag and default, and its one-field
    rule, a tuple of `choices` or inclusive `low`/`high` bounds."""
    rule = dict(key=key, flag=flag, choices=choices, low=low, high=high)
    return field(default=default, metadata=rule)


@dataclass
class RunConfig:
    """Everything a run depends on; metric history is a pure function of this.

    Each field is one config key, declared with its flag and one-field rule;
    `harness.CONFIG_KEYS`, and so the CLI flags, are read from the fields."""

    algorithm: str = _key("run.algorithm", "--algorithm", "demlearn", choices=ALGORITHMS)
    rounds: int = _key("run.rounds", "--rounds", 60, low=0)
    k_levels: int = _key("run.k", "--k", 4, low=1)
    tau: int = _key("run.tau", "--tau", 2, low=1)
    mu: float = _key("run.mu", "--mu", 0.0)
    beta0: float = _key("run.beta0", "--beta0", 1.0, low=0, high=1)
    beta_decay: float = _key("run.beta_decay", "--beta-decay", 0.995, low=0, high=1)
    beta_min: float = _key("run.beta_min", "--beta-min", 0.5, low=0, high=1)
    epochs: int = _key("run.epochs", "--epochs", 20, low=1)
    batch_size: int = _key("run.batch_size", "--batch-size", 16, low=1)
    lr: float = _key("run.lr", "--lr", 0.1, low=0)
    metric: str = _key(
        "run.metric", "--metric", WEIGHT_METRIC, choices=(WEIGHT_METRIC, GRADIENT_METRIC)
    )
    fixed_structure: bool = _key("run.fixed_structure", "--fixed-structure", False)
    # both give the same model, because every client holds the same number
    # of training samples
    fedavg_weighting: str = _key(
        "run.fedavg_weighting", "--fedavg-weighting", "sample", choices=("sample", "agent")
    )
    # a client's rng seed row crosses to a helper process as int64
    seed: int = _key("run.seed", "--seed", 42, low=0, high=2**63 - 1)
    model_kind: str = _key("model.kind", "--model-kind", LOGISTIC, choices=(LOGISTIC, MLP))
    hidden_dim: int = _key("model.hidden_dim", "--hidden-dim", 32)
    data_source: str = _key(
        "data.source", "--data-source", "synthetic", choices=("synthetic", "idx")
    )
    data_dir: str = _key("data.dir", "--data-dir", "data")
    data_seed: int = _key("data.seed", "--data-seed", 17, low=0)
    n_clients: int = _key("data.clients", "--clients", 50, low=1)
    labels_per_client: int = _key("data.labels_per_client", "--labels-per-client", 2, low=1)
    samples_per_client: int = _key("data.samples_per_client", "--samples-per-client", 80, low=1)
    test_frac: float = _key("data.test_frac", "--test-frac", 0.2)
    num_classes: int = _key("synthetic.classes", "--classes", 10, low=2)
    input_dim: int = _key("synthetic.input_dim", "--input-dim", 16, low=2)
    samples_per_class: int = _key("synthetic.samples_per_class", "--samples-per-class", 400, low=1)
    class_separation: float = _key("synthetic.separation", "--separation", 6.0)

    def validate(self) -> None:
        # a NaN passes every comparison, and an inf lr or mu ruins the first
        # step; either would only surface as a diverged client, as would the
        # NaN features of a non-finite separation
        for f in fields(self):
            meta, value = f.metadata, getattr(self, f.name)
            key, choices, low, high = meta["key"], meta["choices"], meta["low"], meta["high"]
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{key} must be finite, got {value}")
            if choices and value not in choices:
                words = ", ".join(choices)
                raise ConfigurationError(f"{key} must be one of {words}, got {value!r}")
            if low is not None and value < low:
                raise ConfigurationError(f"{key} must be at least {low}, got {value}")
            if high is not None and value > high:
                raise ConfigurationError(f"{key} must lie in [{low}, {high}], got {value}")
        # strict bounds: at 0 every class sits on the same point, and a
        # client needs both a train and a test split
        if self.class_separation <= 0.0:
            raise ConfigurationError(
                f"synthetic.separation must be positive, got {self.class_separation}"
            )
        if not 0.0 < self.test_frac < 1.0:
            raise ConfigurationError(
                f"data.test_frac must lie strictly between 0 and 1, got {self.test_frac}"
            )
        # the rules below each tie two fields together
        if self.model_kind == MLP and self.hidden_dim < 1:
            raise ConfigurationError(
                f"model.hidden_dim must be at least 1 for model.kind = {MLP}, got {self.hidden_dim}"
            )
        if self.algorithm == "demlearn" and self.mu != 0.0:
            raise ConfigurationError("demlearn requires mu = 0 (use algorithm=demlearn-p for mu > 0)")
        if self.algorithm == "demlearn-p" and self.mu <= 0.0:
            raise ConfigurationError("demlearn-p requires mu > 0")
        if self.algorithm == "fedavg" and self.mu != 0.0:
            raise ConfigurationError("fedavg takes no proximal term (mu must be 0)")
        if self.algorithm == "fedprox" and self.mu < 0.0:
            raise ConfigurationError("fedprox requires mu >= 0")
        # the proximal step alone scales w - anchor by 1 - lr * mu * sum(coeff),
        # and sum(coeff) <= K; past 2 it overshoots further every step
        if self.algorithm == "fedprox" and self.lr * self.mu >= 2.0:
            raise ConfigurationError(
                f"fedprox needs lr * mu < 2 for a stable proximal step, got lr={self.lr}, mu={self.mu}"
            )
        if self.algorithm == "demlearn-p" and self.lr * self.mu * self.k_levels >= 2.0:
            raise ConfigurationError(
                "demlearn-p needs lr * mu * k_levels < 2 for a stable proximal step, "
                f"got lr={self.lr}, mu={self.mu}, k_levels={self.k_levels}"
            )
        if self.algorithm in HIERARCHICAL and self.metric == GRADIENT_METRIC and self.lr == 0.0:
            raise ConfigurationError(
                "metric=gradients needs lr > 0: with lr = 0 every update is zero "
                "and their cosine distances are undefined"
            )


@dataclass
class RoundState:
    """Mutable loop state; `dendrogram` is set only in a round that re-clustered.

    Client i owns row i of `train`, `test`, `model_block` and `delta_block`.
    """

    t: int
    train: Dataset
    test: Dataset
    spec: ModelSpec
    tree: HierarchyTree
    model_block: np.ndarray
    delta_block: np.ndarray
    dendrogram: Optional[Dendrogram] = None
    metrics: Optional[RoundMetrics] = None


@dataclass
class RunResult:
    metrics: list[RoundMetrics]
    state: RoundState
    dendrograms: list[tuple[int, Dendrogram]] = field(default_factory=list)
    tree_snapshots: list[tuple[int, str]] = field(default_factory=list)


def beta_schedule(t: int, cfg: RunConfig) -> float:
    """Geometric decay with a floor: max(beta_min, beta0 * beta_decay^t).

    With beta_min > beta0 the floor wins from round 0 on, so beta is constant
    at beta_min.  beta0 = 0 turns the restart blend off whatever beta_min is.
    """
    if t < 0:
        raise ValueError("round index must be non-negative")
    if cfg.beta0 == 0.0:
        return 0.0
    return max(cfg.beta_min, cfg.beta0 * cfg.beta_decay**t)


def _client_seeds(cfg: RunConfig, n: int, t: int) -> np.ndarray:
    """The (n, 4) seed rows of the clients' rngs in round t: client i's is
    [run.seed, _CLIENT_STREAM, i, t]."""
    seeds = np.full((n, 4), [cfg.seed, _CLIENT_STREAM, 0, t], dtype=np.int64)
    seeds[:, 2] = np.arange(n)
    return seeds


def _rebuild_structure(
    models: np.ndarray, deltas: np.ndarray, cfg: RunConfig, t: int
) -> tuple[HierarchyTree, Optional[Dendrogram]]:
    """Cluster the clients by their models or their update deltas, and cut
    the dendrogram into a K-level tree.

    With K = 1 or a lone client there is nothing to cluster: the tree is one
    group of all clients at every level, and no dendrogram is built.  A zero
    update has no cosine distance, so under metric=gradients it fails naming
    the client and round t.
    """
    if cfg.k_levels == 1 or len(models) == 1:
        return build_tree(np.zeros((cfg.k_levels, len(models)), dtype=np.intp), models), None
    x = models if cfg.metric == WEIGHT_METRIC else deltas
    if cfg.metric == GRADIENT_METRIC:
        still = np.einsum("ij,ij->i", x, x) == 0.0
        if still.any():
            raise FloatingPointError(
                f"client {np.flatnonzero(still)[0]} made a zero update in round {t}: "
                f"metric=gradients needs a nonzero update delta for its cosine distance (lr={cfg.lr})"
            )
    dend = clustering.agglomerate(clustering.build_distance_matrix(x, cfg.metric))
    return build_tree(clustering.truncate(dend, cfg.k_levels), models), dend


def run_round(state: RoundState, cfg: RunConfig, helpers: Helpers | None = None) -> RoundState:
    """One global round of any algorithm.

    Order: client restart and local proximal solve, delta recording, periodic
    restructuring, bottom-up model propagation, metrics.  The solve splits
    over the helper processes of `helpers`, if given, and runs whole
    without.
    """
    n = len(state.model_block)
    hierarchical = cfg.algorithm in HIERARCHICAL
    beta_t = beta_schedule(state.t, cfg) if hierarchical else 1.0
    w, start = state.model_block, state.delta_block
    # restart from (1 - beta) w + beta * blend; beta = 0 keeps w unblended
    if beta_t != 0.0:
        blend = generalized_blend(state.tree)
        if beta_t != 1.0:
            blend = (1.0 - beta_t) * w + beta_t * blend
        np.copyto(w, blend)
    np.copyto(start, w)
    if hierarchical:
        pull = hierarchy.anchor_pull(state.tree, cfg.mu)
    elif cfg.mu:  # a flat algorithm pulls every client toward the root, its global model
        pull = np.full((n, 1), cfg.mu), np.broadcast_to(cfg.mu * state.tree.root, w.shape)
    else:
        pull = None
    right = local_solve(
        state.spec,
        w,
        state.train,
        pull,
        cfg.epochs,
        cfg.batch_size,
        cfg.lr,
        _client_seeds(cfg, n, state.t),
        state.test,
        helpers,
    )
    # a model whose squared norm overflows has diverged even if every entry is
    # finite: its distances and averages are no longer meaningful numbers
    finite = np.isfinite(np.einsum("ij,ij->i", w, w))
    if not finite.all():
        raise FloatingPointError(
            f"client {np.flatnonzero(~finite)[0]} diverged in round {state.t}: the squared "
            f"norm of its model is not finite after local training (lr={cfg.lr}, mu={cfg.mu})"
        )
    # the delta block held the start models; it now takes the updates
    if cfg.lr > 0:
        np.subtract(w, start, out=start)
        start /= cfg.lr
    else:
        start.fill(0.0)

    # fixed mode keeps the structure that exists at t=0 (built from the
    # initial models) so group membership is constant across all rounds
    state.dendrogram = None
    if hierarchical and not cfg.fixed_structure and state.t % cfg.tau == 0:
        state.tree, state.dendrogram = _rebuild_structure(w, start, cfg, state.t)
    propagate_up(state.tree, w)

    state.metrics = round_metrics(state.spec, state.t, right, state.test, state.tree)
    state.t += 1
    return state


def build_client_data(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """Load or synthesize the corpus and deal the clients' (train, test) stacks."""
    if cfg.data_source == "synthetic":
        ds = synthetic_dataset(
            cfg.num_classes,
            cfg.input_dim,
            cfg.samples_per_class,
            cfg.class_separation,
            cfg.data_seed,
        )
    else:
        ds = load_idx(*resolve_idx_paths(cfg.data_dir))
    return partition_shards(
        ds,
        cfg.n_clients,
        cfg.labels_per_client,
        cfg.samples_per_client,
        cfg.test_frac,
        cfg.data_seed,
    )


def resolve_idx_paths(data_dir: str) -> tuple[str, str]:
    """Locate the standard training IDX pair, honoring the data-dir env var."""
    base = os.environ.get(DATA_DIR_ENV, data_dir)
    images = os.path.join(base, "train-images-idx3-ubyte")
    labels = os.path.join(base, "train-labels-idx1-ubyte")
    if not os.path.exists(images) and os.path.exists(images + ".gz"):
        images += ".gz"
    if not os.path.exists(labels) and os.path.exists(labels + ".gz"):
        labels += ".gz"
    return images, labels


def initial_state(cfg: RunConfig) -> RoundState:
    """Client data, identical client inits, and the bootstrap structure."""
    cfg.validate()
    train, test = build_client_data(cfg)
    hidden_dim = cfg.hidden_dim if cfg.model_kind == MLP else 0
    spec = ModelSpec(cfg.model_kind, train.input_dim, train.num_classes, hidden_dim)
    w_init = init_params(spec, np.random.default_rng([cfg.seed, _INIT_STREAM]))
    model_block = np.tile(w_init, (len(train), 1))
    delta_block = np.zeros_like(model_block)
    # identical initial models: the tie rule alone fixes the dendrogram, so
    # nothing needs clustering.  FedAvg and FedProx cut it to one group of all
    # clients, never re-clustered, whose 1/n leaf weights equal the
    # sample-count weights, as train sets are equal
    k = cfg.k_levels if cfg.algorithm in HIERARCHICAL else 1
    dend = clustering.tied_dendrogram(len(model_block))
    tree = build_tree(clustering.truncate(dend, k), model_block)
    return RoundState(0, train, test, spec, tree, model_block, delta_block)


def run(cfg: RunConfig) -> RunResult:
    """Execute the configured number of rounds and collect the metric history.

    A hierarchical run also keeps each round's dendrogram (if it re-clustered)
    and a snapshot of its tree.  The helper processes of the split solves
    fork in round 0's solve and end with the run, whether it returns or
    raises.
    """
    state = initial_state(cfg)
    result = RunResult([], state)
    record = cfg.algorithm in HIERARCHICAL
    with Helpers(state.spec, state.train, state.test) as helpers:
        for _ in range(cfg.rounds):
            t = state.t
            run_round(state, cfg, helpers)
            result.metrics.append(state.metrics)
            if record:
                if state.dendrogram is not None:
                    result.dendrograms.append((t, state.dendrogram))
                result.tree_snapshots.append((t, hierarchy.format_tree(state.tree)))
    return result
