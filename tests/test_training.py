"""The round loop: beta schedule, local init, baselines, determinism."""

import dataclasses

import numpy as np
import pytest

from demlearn import clustering, training
from demlearn.data import ConfigurationError
from demlearn.hierarchy import build_tree, group_average
from demlearn.training import (
    RunConfig,
    beta_schedule,
    initial_state,
    local_init,
    run,
    run_round,
)

from oracles import plain_fedavg


def tiny_cfg(**kw):
    base = dict(
        algorithm="demlearn",
        rounds=3,
        k_levels=2,
        tau=2,
        n_clients=5,
        labels_per_client=2,
        samples_per_client=20,
        num_classes=4,
        input_dim=6,
        samples_per_class=40,
        class_separation=5.0,
        epochs=2,
        batch_size=8,
        lr=0.05,
        model_kind="multinomial-logistic",
    )
    base.update(kw)
    return RunConfig(**base)


# ------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ConfigurationError):
        tiny_cfg(algorithm="demlearn", mu=0.1).validate()
    with pytest.raises(ConfigurationError):
        tiny_cfg(algorithm="demlearn-p", mu=0.0).validate()
    with pytest.raises(ConfigurationError):
        tiny_cfg(algorithm="fedavg", mu=0.1).validate()
    with pytest.raises(ConfigurationError):
        tiny_cfg(tau=0).validate()
    with pytest.raises(ConfigurationError):
        tiny_cfg(k_levels=0).validate()
    with pytest.raises(ConfigurationError):
        tiny_cfg(beta0=1.5).validate()
    for algorithm, mu in (("demlearn", 0.0), ("demlearn-p", 0.1)):
        # zero updates have no cosine distance
        with pytest.raises(ConfigurationError, match="gradients needs lr > 0"):
            tiny_cfg(algorithm=algorithm, mu=mu, metric="gradients", lr=0.0).validate()
    tiny_cfg(algorithm="fedavg", metric="gradients", lr=0.0).validate()  # never clusters
    tiny_cfg(metric="gradients").validate()
    tiny_cfg().validate()


# ------------------------------------------------------------ beta schedule


def test_beta_schedule_constant_one():
    cfg = tiny_cfg(beta0=1.0, beta_decay=1.0, beta_min=0.0)
    assert [beta_schedule(t, cfg) for t in range(4)] == [1.0] * 4


def test_beta_schedule_zero():
    cfg = tiny_cfg(beta0=0.0, beta_decay=0.5, beta_min=0.0)
    assert [beta_schedule(t, cfg) for t in range(4)] == [0.0] * 4


def test_beta_schedule_geometric_with_floor():
    cfg = tiny_cfg(beta0=1.0, beta_decay=0.5, beta_min=0.1)
    got = [beta_schedule(t, cfg) for t in range(6)]
    assert got == [1.0, 0.5, 0.25, 0.125, 0.1, 0.1]


def test_beta_schedule_non_increasing():
    cfg = tiny_cfg(beta0=0.9, beta_decay=0.8, beta_min=0.05)
    vals = [beta_schedule(t, cfg) for t in range(30)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------ local init


def test_local_init_beta_zero_keeps_model():
    state = initial_state(tiny_cfg())
    client = state.clients[0]
    client.w0 = client.w0 + 0.5
    out = local_init(client, state.tree, 0.0)
    assert np.array_equal(out, client.w0)
    assert out is not client.w0


def test_local_init_beta_one_is_blend():
    state = initial_state(tiny_cfg(k_levels=1))
    client = state.clients[2]
    client.w0 = client.w0 + 1.0
    out = local_init(client, state.tree, 1.0)
    # K=1: the blend is exactly the root model
    assert np.array_equal(out, state.tree.root.model)


def test_local_init_scalar_blend_arithmetic():
    state = initial_state(tiny_cfg(k_levels=1))
    client = state.clients[0]
    client.w0 = np.zeros_like(client.w0)
    state.tree.root.model = np.full_like(client.w0, 4.0)
    out = local_init(client, state.tree, 0.5)
    assert np.allclose(out, 2.0, atol=1e-15)


# ------------------------------------------------------------ baselines


def test_fedavg_single_client_global_is_client_model():
    cfg = tiny_cfg(algorithm="fedavg", n_clients=1, rounds=1)
    state = initial_state(cfg)
    run_round(state, cfg)
    assert np.array_equal(state.tree.root.model, state.clients[0].w0)


def test_fedavg_identical_clients_symmetry(monkeypatch):
    cfg = tiny_cfg(algorithm="fedavg", rounds=1)
    state = initial_state(cfg)
    # give every client the same shard so local solves coincide up to rng
    shard = state.clients[0].shard
    for c in state.clients:
        c.shard = dataclasses.replace(shard, client_id=c.id)
    # same rng per client requires same (seed, id, t); force the stream of id 0
    client_rng = training._client_rng
    monkeypatch.setattr(training, "_client_rng", lambda cfg, cid, t: client_rng(cfg, 0, t))
    run_round(state, cfg)
    first = state.clients[0].w0
    for c in state.clients[1:]:
        assert np.array_equal(c.w0, first)
    assert np.allclose(state.tree.root.model, first, atol=1e-12)


def test_weighted_mean_example():
    out = group_average(
        [np.array([0.0]), np.array([2.0]), np.array([5.0])], [1, 1, 2]
    )
    assert out[0] == pytest.approx(3.0, abs=1e-15)


def test_fedprox_mu_zero_matches_fedavg():
    cfg_a = tiny_cfg(algorithm="fedavg", rounds=3)
    cfg_p = tiny_cfg(algorithm="fedprox", mu=0.0, rounds=3)
    ra = run(cfg_a)
    rp = run(cfg_p)
    assert ra.state.tree.root.model.tobytes() == rp.state.tree.root.model.tobytes()
    for ca, cp in zip(ra.state.clients, rp.state.clients):
        assert ca.w0.tobytes() == cp.w0.tobytes()


def test_fedprox_pins_clients_toward_global():
    cfg = tiny_cfg(algorithm="fedprox", mu=50.0, rounds=1, lr=0.01)
    cfg_free = tiny_cfg(algorithm="fedavg", rounds=1, lr=0.01)
    s_prox = initial_state(cfg)
    s_free = initial_state(cfg_free)
    g = s_prox.tree.root.model.copy()
    run_round(s_prox, cfg)
    run_round(s_free, cfg_free)
    for cp, cf in zip(s_prox.clients, s_free.clients):
        assert np.linalg.norm(cp.w0 - g) < np.linalg.norm(cf.w0 - g)


@pytest.mark.parametrize(
    "algorithm, mu, model_kind",
    [
        ("fedavg", 0.0, "multinomial-logistic"),
        ("fedprox", 0.5, "multinomial-logistic"),
        ("fedprox", 0.2, "mlp-1hidden"),
    ],
)
def test_flat_run_matches_plain_reference_bitwise(algorithm, mu, model_kind):
    cfg = tiny_cfg(algorithm=algorithm, mu=mu, model_kind=model_kind, hidden_dim=5, rounds=3)
    start = initial_state(cfg)
    w_global, models = plain_fedavg(
        start.spec,
        [c.w0 for c in start.clients],
        [c.shard for c in start.clients],
        cfg.rounds,
        cfg.mu,
        cfg.epochs,
        cfg.batch_size,
        cfg.lr,
        lambda cid, t: training._client_rng(cfg, cid, t),
    )
    result = run(cfg)
    assert result.state.tree.root.model.tobytes() == w_global.tobytes()
    for client, model in zip(result.state.clients, models):
        assert client.w0.tobytes() == model.tobytes()


def test_flat_run_keeps_one_group_and_records_no_structures():
    cfg = tiny_cfg(algorithm="fedprox", mu=0.1, rounds=3, tau=1, k_levels=3)
    result = run(cfg)
    tree = result.state.tree
    assert tree.K == 1
    assert [n.clients for n in tree.levels[1]] == [[0, 1, 2, 3, 4]]
    assert result.dendrograms == [] and result.tree_snapshots == []
    assert all(m.g_spe == () and m.g_gen == () for m in result.metrics)


# ------------------------------------------------------------ demlearn loop


def test_run_round_fixed_point_when_nothing_moves():
    cfg = tiny_cfg(lr=0.0, beta0=0.0, rounds=1)
    state = initial_state(cfg)
    before = [c.w0.copy() for c in state.clients]
    run_round(state, cfg)
    for b, c in zip(before, state.clients):
        assert np.array_equal(b, c.w0)


def test_run_is_deterministic():
    cfg = tiny_cfg(rounds=4)
    r1 = run(cfg)
    r2 = run(cfg)
    for m1, m2 in zip(r1.metrics, r2.metrics):
        assert m1 == m2
    for c1, c2 in zip(r1.state.clients, r2.state.clients):
        assert c1.w0.tobytes() == c2.w0.tobytes()


def test_run_zero_rounds():
    result = run(tiny_cfg(rounds=0))
    assert result.metrics == []
    first = result.state.clients[0].w0
    for c in result.state.clients[1:]:
        assert np.array_equal(c.w0, first)


def test_run_one_round_equals_manual_round():
    cfg = tiny_cfg(rounds=1)
    manual = initial_state(cfg)
    run_round(manual, cfg)
    result = run(cfg)
    assert result.metrics == [manual.metrics]
    for ca, cb in zip(result.state.clients, manual.clients):
        assert ca.w0.tobytes() == cb.w0.tobytes()


def test_structure_constant_between_rebuilds():
    cfg = tiny_cfg(rounds=4, tau=2, n_clients=6, k_levels=2)
    state = initial_state(cfg)
    memberships = []
    for _ in range(4):
        run_round(state, cfg)
        memberships.append(
            tuple(tuple(n.clients) for n in state.tree.levels[1])
        )
    # rounds 0-1 share the structure built in round 0; rounds 2-3 the next one
    assert memberships[0] == memberships[1]
    assert memberships[2] == memberships[3]


def test_fixed_structure_never_changes_membership():
    cfg = tiny_cfg(rounds=5, fixed_structure=True, n_clients=6, k_levels=2)
    state = initial_state(cfg)
    initial = tuple(tuple(n.clients) for n in state.tree.levels[1])
    for _ in range(5):
        run_round(state, cfg)
        assert tuple(tuple(n.clients) for n in state.tree.levels[1]) == initial


def test_fedavg_reduction_bitwise():
    # hierarchical loop with K=1, mu=0, beta identically 1 == FedAvg with
    # agent-count weights, bit for bit
    common = dict(
        rounds=5,
        n_clients=5,
        k_levels=1,
        beta0=1.0,
        beta_decay=1.0,
        beta_min=1.0,
        fedavg_weighting="agent",
    )
    dem_cfg = tiny_cfg(algorithm="demlearn", **common)
    fed_cfg = tiny_cfg(algorithm="fedavg", **common)
    dem_state = initial_state(dem_cfg)
    fed_state = initial_state(fed_cfg)
    for _ in range(5):
        run_round(dem_state, dem_cfg)
        run_round(fed_state, fed_cfg)
        for cd, cf in zip(dem_state.clients, fed_state.clients):
            assert cd.w0.tobytes() == cf.w0.tobytes()
        assert dem_state.tree.root.model.tobytes() == fed_state.tree.root.model.tobytes()


def test_single_client_hierarchical_run():
    # a lone client forms every group by itself; no clustering is possible
    cfg = tiny_cfg(rounds=2, n_clients=1, k_levels=3, samples_per_client=16)
    result = run(cfg)
    assert len(result.metrics) == 2
    tree = result.state.tree
    for level in (1, 2, 3):
        assert [n.clients for n in tree.levels[level]] == [[0]]
    assert np.array_equal(tree.root.model, result.state.clients[0].w0)


def test_hierarchical_k1_skips_clustering_with_the_same_models(monkeypatch):
    cfg = tiny_cfg(rounds=3, tau=1, k_levels=1, n_clients=5)

    def no_clustering(*args):
        raise AssertionError("a K=1 run clustered")

    with monkeypatch.context() as m:
        m.setattr(clustering, "agglomerate", no_clustering)
        skipped = run(cfg)
    assert skipped.dendrograms == []
    assert [n.clients for n in skipped.state.tree.levels[1]] == [[0, 1, 2, 3, 4]]

    def clustered(clients, cfg, metric=None):
        dend = clustering.agglomerate(
            clustering.build_distance_matrix(clients, metric or cfg.metric)
        )
        models = {c.id: c.w0 for c in clients}
        return build_tree(clustering.truncate(dend, cfg.k_levels), models), dend

    monkeypatch.setattr(training, "_rebuild_structure", clustered)
    forced = run(cfg)
    assert [t for t, _ in forced.dendrograms] == [0, 1, 2]
    assert skipped.tree_snapshots == forced.tree_snapshots
    assert skipped.metrics == forced.metrics
    assert skipped.state.tree.root.model.tobytes() == forced.state.tree.root.model.tobytes()
    for a, b in zip(skipped.state.clients, forced.state.clients):
        assert a.w0.tobytes() == b.w0.tobytes()


def test_gradient_metric_clustering_runs():
    cfg = tiny_cfg(rounds=3, metric="gradients", n_clients=6, k_levels=3)
    result = run(cfg)
    assert len(result.metrics) == 3


def test_training_loss_non_increasing_after_warmup():
    # smoke-level convergence on a well-separated corpus at default-ish lr:
    # the root model's loss on the pooled training data settles monotonically
    cfg = tiny_cfg(
        rounds=10,
        n_clients=8,
        k_levels=3,
        class_separation=8.0,
        samples_per_class=60,
        epochs=4,
    )
    from demlearn.data import concat_datasets
    from demlearn.models import loss

    state = initial_state(cfg)
    union_train = concat_datasets([c.shard.train for c in state.clients])
    losses = []
    for _ in range(cfg.rounds):
        run_round(state, cfg)
        losses.append(loss(state.spec, state.tree.root.model, union_train))
    for a, b in zip(losses[3:], losses[4:]):
        assert b <= a + 1e-9
