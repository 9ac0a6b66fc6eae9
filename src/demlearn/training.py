"""The round loop shared by all four algorithms, and run orchestration.

One round: every client restarts from a decaying blend of its ancestor
group models, runs a few epochs of proximal SGD against those ancestors,
then (every tau rounds) the server re-clusters the clients and finally
re-averages every group model bottom-up.  FedAvg and FedProx are the same
loop over a fixed one-group tree of all clients: each round restarts every
client from the root model (beta = 1), anchors it to the root with weight 1
(FedProx's mu/2 ||w - w_global||^2), and never re-clusters.

Client i is shard i and row i of two (C, M) blocks, its model and its last
update delta, allocated once per run and updated in place; tree level k is
one `AnchorLevel` over those rows, which the solver takes as it is.  One
call of the lockstep solver `models.local_solve` trains every client of a
round, so every client's shard must hold the same number of training
samples (the shard partition deals them so).  On a host with several CPUs
a long solve of many clients trains ranges of them in forked processes (no
split while another thread runs); no output byte depends on the CPU count.
A round whose solve leaves a model with a non-finite squared norm (a
non-finite entry, or entries so large that distances overflow) fails at
once, naming the client, the round, lr and mu; so does a re-clustering
round under metric=gradients in which a client's update is zero.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import clustering, hierarchy
from .clustering import Dendrogram
from .data import ClientShard, ConfigurationError, Dataset, concat_datasets, load_idx, partition_shards, synthetic_dataset
from .hierarchy import HierarchyTree, build_tree, generalized_blend, one_group_tree, propagate_up
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
        # a NaN passes every comparison below, and an inf lr or mu ruins the
        # first step; either would only surface as a diverged client, as would
        # the NaN features of a non-finite separation
        if not np.isfinite(self.lr):
            raise ConfigurationError(f"lr must be finite, got {self.lr}")
        if not np.isfinite(self.mu):
            raise ConfigurationError(f"mu must be finite, got {self.mu}")
        if not np.isfinite(self.class_separation):
            raise ConfigurationError(f"synthetic.separation must be finite, got {self.class_separation}")
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
class RoundState:
    """Mutable loop state; `dendrogram` is set only in a round that re-clustered.

    Client i owns `shards[i]` and row i of `model_block` / `delta_block`.
    """

    t: int
    shards: list[ClientShard]
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
    """Geometric decay with a floor: max(beta_min, beta0 * beta_decay^t).

    With beta_min > beta0 the floor wins from round 0 on, so beta is constant
    at beta_min.  beta0 = 0 turns the restart blend off whatever beta_min is.
    """
    if t < 0:
        raise ValueError("round index must be non-negative")
    if cfg.beta0 == 0.0:
        return 0.0
    return max(cfg.beta_min, cfg.beta0 * cfg.beta_decay**t)


def _client_rng(cfg: RunConfig, client_id: int, t: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, _CLIENT_STREAM, client_id, t])


def _rebuild_structure(
    models: np.ndarray, deltas: np.ndarray, cfg: RunConfig, t: int, metric: Optional[str] = None
) -> tuple[HierarchyTree, Optional[Dendrogram]]:
    """Cluster the clients by their models or their update deltas, and cut
    the dendrogram into a K-level tree.

    With K = 1 or a lone client there is nothing to cluster: the tree is one
    group of all clients at every level, and no dendrogram is built.  A zero
    update has no cosine distance, so under metric=gradients it fails naming
    the client and round t.
    """
    if cfg.k_levels == 1 or len(models) == 1:
        return one_group_tree(models, cfg.k_levels), None
    metric = metric or cfg.metric
    x = models if metric == clustering.WEIGHT_METRIC else deltas
    if metric == clustering.GRADIENT_METRIC:
        still = np.einsum("ij,ij->i", x, x) == 0.0
        if still.any():
            raise FloatingPointError(
                f"client {np.flatnonzero(still)[0]} made a zero update in round {t}: "
                f"metric=gradients needs a nonzero update delta for its cosine distance (lr={cfg.lr})"
            )
    dend = clustering.agglomerate(clustering.build_distance_matrix(x, metric))
    return build_tree(clustering.truncate(dend, cfg.k_levels), models), dend


def run_round(state: RoundState, cfg: RunConfig) -> RoundState:
    """One global round of any algorithm.

    Order: client restart and local proximal solve, delta recording, periodic
    restructuring, bottom-up model propagation, metrics.
    """
    n = len(state.shards)
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
        levels = state.tree.levels
    else:
        # a flat algorithm anchors every client to the root, its global model
        levels = [AnchorLevel(state.tree.levels[0].models, np.zeros(n, np.intp), np.ones(n))]
    local_solve(
        state.spec,
        w,
        [s.train for s in state.shards],
        levels,
        cfg.mu,
        cfg.epochs,
        cfg.batch_size,
        cfg.lr,
        [_client_rng(cfg, i, state.t) for i in range(n)],
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

    state.metrics = round_metrics(state.spec, state.t, w, state.shards, state.union_test, state.tree)
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
    delta_block = np.zeros_like(model_block)
    union_test = concat_datasets([s.test for s in shards])
    if cfg.algorithm in HIERARCHICAL:
        # bootstrap structure from the (identical) initial models; every
        # distance is zero so the cut is the deterministic lowest-index one
        tree, _ = _rebuild_structure(model_block, delta_block, cfg, 0, metric=clustering.WEIGHT_METRIC)
    else:
        # FedAvg / FedProx: one group of all clients, never re-clustered; its
        # 1/n leaf weights equal the sample-count weights, as shards are equal
        tree = one_group_tree(model_block, 1)
    return RoundState(0, shards, spec, union_test, tree, model_block, delta_block)


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
