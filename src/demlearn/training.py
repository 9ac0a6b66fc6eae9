"""The round loop shared by all four algorithms, and run orchestration.

One round: every client re-initializes from a decaying blend of its ancestor
group models, runs a few epochs of proximal SGD against those ancestors,
then (every tau rounds) the server re-clusters the clients and finally
re-averages every group model bottom-up.  FedAvg and FedProx are the same
loop over a fixed one-group tree of all clients: each round restarts every
client from the root model (beta = 1), anchors it to the root with weight 1
(FedProx's mu/2 ||w - w_global||^2), and never re-clusters.

The client models and their last update deltas live in two (C, M) blocks,
allocated once per run and updated in place; each `ClientState.w0` and
`last_delta` is a row view into them.  One call of the lockstep solver
`models.local_solve` trains every client of a round, so every client's
shard must hold the same number of training samples (the shard partition
deals them so).  A round whose solve leaves a model with a non-finite
squared norm (a non-finite entry, or entries so large that distances
overflow) fails at once, naming the client, the round, lr and mu.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import clustering, hierarchy
from .clustering import Dendrogram, LevelAssignment
from .data import ClientShard, ConfigurationError, Dataset, concat_datasets, load_idx, partition_shards, synthetic_dataset
from .hierarchy import HierarchyTree, anchor_levels, build_tree, generalized_blend, propagate_up
from .metrics import RoundMetrics, round_metrics
from .models import LOGISTIC, MLP, AnchorLevel, ModelSpec, init_params, local_solve

ALGORITHMS = ("demlearn", "demlearn-p", "fedavg", "fedprox")
HIERARCHICAL = ("demlearn", "demlearn-p")
DATA_DIR_ENV = "DEMLEARN_DATA_DIR"

# stream tags for per-purpose rng derivation from the run seed
_INIT_STREAM = 0
_CLIENT_STREAM = 1


@dataclass
class RunConfig:
    """Everything a run depends on; metric history is a pure function of this."""

    algorithm: str = "demlearn"
    rounds: int = 60
    k_levels: int = 4
    tau: int = 2
    mu: float = 0.0
    beta0: float = 1.0
    beta_decay: float = 0.995
    beta_min: float = 0.5
    epochs: int = 20
    batch_size: int = 16
    lr: float = 0.1
    metric: str = clustering.WEIGHT_METRIC
    fixed_structure: bool = False
    # "sample" or "agent"; both give the same model, because every client
    # shard holds the same number of training samples
    fedavg_weighting: str = "sample"
    seed: int = 42
    # model
    model_kind: str = LOGISTIC
    hidden_dim: int = 32
    # data
    data_source: str = "synthetic"  # or "idx"
    data_dir: str = "data"
    data_seed: int = 17
    n_clients: int = 50
    labels_per_client: int = 2
    samples_per_client: int = 80
    test_frac: float = 0.2
    # synthetic source
    num_classes: int = 10
    input_dim: int = 16
    samples_per_class: int = 400
    class_separation: float = 6.0

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "demlearn" and self.mu != 0.0:
            raise ConfigurationError(
                "demlearn requires mu = 0 (use algorithm=demlearn-p for mu > 0)"
            )
        if self.algorithm == "demlearn-p" and self.mu <= 0.0:
            raise ConfigurationError("demlearn-p requires mu > 0")
        if self.algorithm == "fedavg" and self.mu != 0.0:
            raise ConfigurationError("fedavg takes no proximal term (mu must be 0)")
        if self.algorithm == "fedprox" and self.mu < 0.0:
            raise ConfigurationError("fedprox requires mu >= 0")
        if self.k_levels < 1:
            raise ConfigurationError("k_levels must be at least 1")
        if self.tau < 1:
            raise ConfigurationError("tau must be at least 1")
        if not 0.0 <= self.beta0 <= 1.0:
            raise ConfigurationError("beta0 must lie in [0, 1]")
        if not 0.0 <= self.beta_decay <= 1.0:
            raise ConfigurationError("beta_decay must lie in [0, 1]")
        if not 0.0 <= self.beta_min <= 1.0:
            raise ConfigurationError("beta_min must lie in [0, 1]")
        if self.rounds < 0:
            raise ConfigurationError("rounds must be non-negative")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.lr < 0.0:
            raise ConfigurationError("lr must be non-negative")
        if self.metric not in (clustering.WEIGHT_METRIC, clustering.GRADIENT_METRIC):
            raise ConfigurationError(f"unknown clustering metric {self.metric!r}")
        if self.fedavg_weighting not in ("sample", "agent"):
            raise ConfigurationError("fedavg_weighting must be 'sample' or 'agent'")
        if self.model_kind not in (LOGISTIC, MLP):
            raise ConfigurationError(f"unknown model kind {self.model_kind!r}")
        if self.data_source not in ("synthetic", "idx"):
            raise ConfigurationError(f"unknown data source {self.data_source!r}")
        if (
            self.algorithm in HIERARCHICAL
            and self.metric == clustering.GRADIENT_METRIC
            and self.lr == 0.0
        ):
            raise ConfigurationError(
                "metric=gradients needs lr > 0: with lr = 0 every update is zero "
                "and their cosine distances are undefined"
            )


@dataclass
class ClientState:
    """One agent: its data shard, personalized model, and last update delta.

    In a run, `w0` and (after the first round) `last_delta` are row views of
    `RoundState.model_block` / `delta_block`, so each round changes them in
    place; copy one to keep it.
    """

    id: int
    shard: ClientShard
    w0: np.ndarray
    last_delta: Optional[np.ndarray] = None


@dataclass
class RoundState:
    """Mutable loop state; `dendrogram` is set only in a round that re-clustered.

    Row i of `model_block` / `delta_block` belongs to `clients[i]`.
    """

    t: int
    clients: list[ClientState]
    spec: ModelSpec
    union_test: Dataset
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
    """Geometric decay with a floor: max(beta_min, beta0 * beta_decay^t)."""
    if t < 0:
        raise ValueError("round index must be non-negative")
    if cfg.beta0 == 0.0:
        return 0.0
    return max(cfg.beta_min, cfg.beta0 * cfg.beta_decay**t)


def local_init(client: ClientState, tree: HierarchyTree, beta_t: float) -> np.ndarray:
    """Blend the client's prior model with its ancestors' generalized mix."""
    if beta_t == 0.0:
        return client.w0.copy()
    blend, _ = generalized_blend(tree, client.id)
    if beta_t == 1.0:
        return blend
    return (1.0 - beta_t) * client.w0 + beta_t * blend


def _client_rng(cfg: RunConfig, client_id: int, t: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, _CLIENT_STREAM, client_id, t])


def _client_models(clients: list[ClientState]) -> dict[int, np.ndarray]:
    return {c.id: c.w0 for c in clients}


def _one_group_tree(clients: list[ClientState], k_levels: int) -> HierarchyTree:
    """A tree whose every level 1..k_levels is one group of all clients."""
    ids = [c.id for c in clients]
    assign = LevelAssignment(k_levels, {level: [ids] for level in range(1, k_levels + 1)})
    return build_tree(assign, _client_models(clients))


def _rebuild_structure(
    clients: list[ClientState], cfg: RunConfig, metric: Optional[str] = None
) -> tuple[HierarchyTree, Optional[Dendrogram]]:
    """Cluster clients and cut the dendrogram into a K-level tree.

    With K = 1 or a lone client there is nothing to cluster: the tree is one
    group of all clients at every level, and no dendrogram is built.
    """
    if cfg.k_levels == 1 or len(clients) == 1:
        return _one_group_tree(clients, cfg.k_levels), None
    metric = metric or cfg.metric
    dm = clustering.build_distance_matrix(clients, metric)
    dend = clustering.agglomerate(dm)
    assign = clustering.truncate(dend, cfg.k_levels)
    return build_tree(assign, _client_models(clients)), dend


def run_round(state: RoundState, cfg: RunConfig) -> RoundState:
    """One global round of any algorithm.

    Order: client re-init and local proximal solve, delta recording, periodic
    restructuring, bottom-up model propagation, metrics.
    """
    spec = state.spec
    clients = state.clients
    hierarchical = cfg.algorithm in HIERARCHICAL
    beta_t = beta_schedule(state.t, cfg) if hierarchical else 1.0
    w, start = state.model_block, state.delta_block
    for i, client in enumerate(clients):
        start[i] = local_init(client, state.tree, beta_t)
    np.copyto(w, start)
    if hierarchical:
        levels = anchor_levels(state.tree, [c.id for c in clients])
    else:
        # a flat algorithm anchors every client to the root, its global model
        n = len(clients)
        levels = [AnchorLevel(state.tree.root.model[None], np.zeros(n, np.intp), np.ones(n))]
    local_solve(
        spec,
        w,
        [c.shard.train for c in clients],
        levels,
        cfg.mu,
        cfg.epochs,
        cfg.batch_size,
        cfg.lr,
        [_client_rng(cfg, c.id, state.t) for c in clients],
    )
    # a model whose squared norm overflows has diverged even if every entry is
    # finite: its distances and averages are no longer meaningful numbers
    finite = np.isfinite(np.einsum("ij,ij->i", w, w))
    if not finite.all():
        bad = clients[np.flatnonzero(~finite)[0]].id
        raise FloatingPointError(
            f"client {bad} diverged in round {state.t}: the squared norm of its "
            f"model is not finite after local training (lr={cfg.lr}, mu={cfg.mu})"
        )
    # the delta block held the start models; it now takes the updates
    if cfg.lr > 0:
        np.subtract(w, start, out=start)
        start /= cfg.lr
    else:
        start.fill(0.0)
    for client, delta in zip(clients, start):
        client.last_delta = delta

    # fixed mode keeps the structure that exists at t=0 (built from the
    # initial models) so group membership is constant across all rounds
    state.dendrogram = None
    if hierarchical and not cfg.fixed_structure and state.t % cfg.tau == 0:
        state.tree, state.dendrogram = _rebuild_structure(state.clients, cfg)
    propagate_up(state.tree, _client_models(state.clients))

    state.metrics = round_metrics(spec, state.t, state.clients, state.union_test, state.tree)
    state.t += 1
    return state


def build_client_data(cfg: RunConfig) -> list[ClientShard]:
    """Load or synthesize the corpus and partition it into client shards."""
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
    """Shards, identical client inits, and the bootstrap structure."""
    cfg.validate()
    shards = build_client_data(cfg)
    sample = shards[0].train
    spec = ModelSpec(
        cfg.model_kind,
        sample.input_dim,
        sample.num_classes,
        cfg.hidden_dim if cfg.model_kind == MLP else 0,
    )
    w_init = init_params(spec, np.random.default_rng([cfg.seed, _INIT_STREAM]))
    model_block = np.tile(w_init, (len(shards), 1))
    clients = [ClientState(s.client_id, s, w) for s, w in zip(shards, model_block)]
    union_test = concat_datasets([s.test for s in shards])
    if cfg.algorithm in HIERARCHICAL:
        # bootstrap structure from the (identical) initial models; every
        # distance is zero so the cut is the deterministic lowest-index one
        tree, _ = _rebuild_structure(clients, cfg, metric=clustering.WEIGHT_METRIC)
    else:
        # FedAvg / FedProx: one group of all clients, never re-clustered; its
        # 1/n leaf weights equal the sample-count weights, as shards are equal
        tree = _one_group_tree(clients, 1)
    return RoundState(0, clients, spec, union_test, tree, model_block, np.zeros_like(model_block))


def run(cfg: RunConfig) -> RunResult:
    """Execute the configured number of rounds and collect the metric history.

    A hierarchical run also keeps each round's dendrogram (if it re-clustered)
    and a snapshot of its tree.
    """
    state = initial_state(cfg)
    result = RunResult([], state)
    record = cfg.algorithm in HIERARCHICAL
    for _ in range(cfg.rounds):
        t = state.t
        run_round(state, cfg)
        result.metrics.append(state.metrics)
        if record:
            if state.dendrogram is not None:
                result.dendrograms.append((t, state.dendrogram))
            result.tree_snapshots.append((t, hierarchy.format_tree(state.tree)))
    return result
