"""The round loop: beta schedule, local init, baselines, determinism."""

import dataclasses
import math
import os
import re
import signal

import numpy as np
import pytest

from demlearn import clustering, models, training
from demlearn.data import ConfigurationError
from demlearn.harness import metrics_csv_lines
from demlearn.hierarchy import build_tree, members
from demlearn.models import Helpers
from demlearn.training import (
    RunConfig,
    beta_schedule,
    initial_state,
    run,
    run_round,
)

from oracles import client_sets, concat_datasets, loss, plain_fedavg, scalar_pull_solve, softmax_predict
from test_models import split_solves


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
    # the proximal step is stable only below lr * mu = 2, or lr * mu * K for K levels
    with pytest.raises(ConfigurationError, match="lr \\* mu < 2"):
        tiny_cfg(algorithm="fedprox", mu=20.0, lr=0.1).validate()
    tiny_cfg(algorithm="fedprox", mu=19.99, lr=0.1).validate()
    with pytest.raises(ConfigurationError, match="lr \\* mu \\* k_levels < 2"):
        tiny_cfg(algorithm="demlearn-p", mu=10.0, lr=0.1, k_levels=2).validate()
    tiny_cfg(algorithm="demlearn-p", mu=9.99, lr=0.1, k_levels=2).validate()
    tiny_cfg(metric="gradients").validate()
    tiny_cfg().validate()
    # an MLP needs a hidden unit; a logistic model ignores hidden_dim
    with pytest.raises(ConfigurationError, match="model.hidden_dim must be at least 1"):
        tiny_cfg(model_kind="mlp-1hidden", hidden_dim=0).validate()
    tiny_cfg(hidden_dim=0).validate()
    with pytest.raises(ConfigurationError, match="synthetic.separation must be positive, got 0.0"):
        tiny_cfg(class_separation=0.0).validate()
    # a client needs a train and a test split
    for test_frac in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ConfigurationError, match=f"data.test_frac must lie strictly between 0 and 1, got {test_frac}"):
            tiny_cfg(test_frac=test_frac).validate()


def _field_rule_cases():
    """(field, value, key or None) for every one-field rule: a value that
    passes, or that must fail naming the dotted key."""
    for f in dataclasses.fields(RunConfig):
        meta, real = f.metadata, isinstance(f.default, float)
        key = meta["key"]
        for bound, sign in ((meta["low"], -1), (meta["high"], 1)):
            if bound is not None:
                past = math.nextafter(bound, sign * math.inf) if real else bound + sign
                yield pytest.param(f.name, type(f.default)(bound), None, id=f"{key}={bound}")
                yield pytest.param(f.name, past, key, id=f"{key}={past}")
        if meta["choices"]:
            yield pytest.param(f.name, "no-such-choice", key, id=f"{key}=no-such-choice")
        if real:
            for bad in (math.nan, math.inf):
                yield pytest.param(f.name, bad, key, id=f"{key}={bad}")


@pytest.mark.parametrize("name, value, key", _field_rule_cases())
def test_each_field_rule_holds_at_its_bound_and_names_its_key_past_it(name, value, key):
    cfg = RunConfig(**{name: value})
    if key is None:
        cfg.validate()
    else:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(key)} must "):
            cfg.validate()


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
    # beta = 0 restarts every client from its own model, unblended, and lr = 0
    # keeps it there through the round
    cfg = tiny_cfg(beta0=0.0, lr=0.0, rounds=1)
    state = initial_state(cfg)
    state.model_block += np.arange(5.0)[:, None]
    before = state.model_block.copy()
    run_round(state, cfg)
    assert np.array_equal(state.model_block, before)


def test_local_init_beta_one_is_blend():
    cfg = tiny_cfg(k_levels=1, beta0=1.0, beta_decay=1.0, lr=0.0, rounds=1)
    state = initial_state(cfg)
    state.model_block += np.arange(5.0)[:, None]
    root = state.tree.root.copy()
    run_round(state, cfg)
    # K=1: the blend is exactly the root model, for every client
    for row in state.model_block:
        assert np.array_equal(row, root)


def test_local_init_scalar_blend_arithmetic():
    cfg = tiny_cfg(k_levels=1, beta0=0.5, beta_decay=1.0, beta_min=0.0, lr=0.0, rounds=1)
    state = initial_state(cfg)
    state.model_block[:] = 0.0
    state.tree.root[:] = 4.0
    run_round(state, cfg)
    assert np.allclose(state.model_block, 2.0, atol=1e-15)


# ------------------------------------------------------------ baselines


def test_fedavg_single_client_global_is_client_model():
    cfg = tiny_cfg(algorithm="fedavg", n_clients=1, rounds=1)
    state = initial_state(cfg)
    run_round(state, cfg)
    assert np.array_equal(state.tree.root, state.model_block[0])


def test_fedavg_identical_clients_symmetry(monkeypatch):
    cfg = tiny_cfg(algorithm="fedavg", rounds=1)
    state = initial_state(cfg)
    # give every client client 0's training set so local solves coincide up to rng
    train = state.train
    state.train = dataclasses.replace(
        train, features=np.repeat(train.features[:1], len(train), axis=0),
        labels=np.repeat(train.labels[:1], len(train), axis=0),
    )
    # same rng per client requires same (seed, id, t); force the stream of id 0
    client_seeds = training._client_seeds
    monkeypatch.setattr(training, "_client_seeds", lambda cfg, n, t: client_seeds(cfg, n, t) * [1, 1, 0, 1])
    run_round(state, cfg)
    first = state.model_block[0]
    for row in state.model_block[1:]:
        assert np.array_equal(row, first)
    assert np.allclose(state.tree.root, first, atol=1e-12)


def test_weighted_mean_example():
    # the root's children hold 1, 1 and 2 clients, with models 0, 2 and 5
    labels = np.array([[0, 1, 2, 2], [0, 0, 0, 0]])
    tree = build_tree(labels, np.array([[0.0], [2.0], [5.0], [5.0]]))
    assert tree.root[0] == pytest.approx(3.0, abs=1e-15)


def test_fedprox_mu_zero_matches_fedavg():
    cfg_a = tiny_cfg(algorithm="fedavg", rounds=3)
    cfg_p = tiny_cfg(algorithm="fedprox", mu=0.0, rounds=3)
    ra = run(cfg_a)
    rp = run(cfg_p)
    assert ra.state.tree.root.tobytes() == rp.state.tree.root.tobytes()
    assert ra.state.model_block.tobytes() == rp.state.model_block.tobytes()


def test_fedprox_pins_clients_toward_global():
    cfg = tiny_cfg(algorithm="fedprox", mu=50.0, rounds=1, lr=0.01)
    cfg_free = tiny_cfg(algorithm="fedavg", rounds=1, lr=0.01)
    s_prox = initial_state(cfg)
    s_free = initial_state(cfg_free)
    g = s_prox.tree.root.copy()
    run_round(s_prox, cfg)
    run_round(s_free, cfg_free)
    for wp, wf in zip(s_prox.model_block, s_free.model_block):
        assert np.linalg.norm(wp - g) < np.linalg.norm(wf - g)


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
        list(start.model_block),
        start.train,
        cfg.rounds,
        cfg.mu,
        cfg.epochs,
        cfg.batch_size,
        cfg.lr,
        lambda cid, t: np.random.default_rng([cfg.seed, 1, cid, t]),
    )
    result = run(cfg)
    assert result.state.tree.root.tobytes() == w_global.tobytes()
    for row, model in zip(result.state.model_block, models):
        assert row.tobytes() == model.tobytes()


def per_client_local_solve(spec, w, train, pull, epochs, batch_size, lr, seeds, test, helpers=None):
    """`models.local_solve` as a loop of one-client solves, row by row, each
    on its row (s_i, A_i) of the pull and the rng of its seed row, and
    scored by the softmax argmax on its own split and on the splits joined."""
    for i, (ds, seed) in enumerate(zip(client_sets(train), seeds, strict=True)):
        row = None if pull is None else (pull[0][i, 0], pull[1][i])
        w[i] = scalar_pull_solve(spec, w[i], ds, row, epochs, batch_size, lr, np.random.default_rng(seed.tolist()))
    tests = client_sets(test)
    union = concat_datasets(tests)
    right = [
        [np.count_nonzero(softmax_predict(spec, row, data) == data.labels) for data in (own, union)]
        for row, own in zip(w, tests)
    ]
    return np.array(right)


@pytest.mark.parametrize(
    "cfg",
    [
        # 16 training samples in batches of 5: the trailing batch holds one
        tiny_cfg(algorithm="demlearn-p", mu=0.1, k_levels=3, tau=1, batch_size=5,
                 model_kind="mlp-1hidden", hidden_dim=5),
        tiny_cfg(algorithm="fedavg"),
    ],
    ids=["demlearn-p", "fedavg"],
)
def test_round_loop_outputs_equal_the_per_client_solver_bytewise(monkeypatch, cfg):
    # pins each client's rng stream and epoch order through `run_round`
    result = run(cfg)
    monkeypatch.setattr(training, "local_solve", per_client_local_solve)
    oracle = run(cfg)
    assert metrics_csv_lines("r", result) == metrics_csv_lines("r", oracle)
    assert result.tree_snapshots == oracle.tree_snapshots
    assert result.state.model_block.tobytes() == oracle.state.model_block.tobytes()


def test_flat_run_keeps_one_group_and_records_no_structures():
    cfg = tiny_cfg(algorithm="fedprox", mu=0.1, rounds=3, tau=1, k_levels=3)
    result = run(cfg)
    tree = result.state.tree
    assert tree.K == 1
    assert [m.tolist() for m in members(tree.levels[0].group)] == [[0, 1, 2, 3, 4]]
    assert result.dendrograms == [] and result.tree_snapshots == []
    assert all(m.g_spe == () and m.g_gen == () for m in result.metrics)


# ------------------------------------------------------------ demlearn loop


@pytest.mark.parametrize("algorithm", ["demlearn-p", "fedprox"])
def test_divergent_round_fails_naming_client_round_lr_mu(algorithm):
    # a stable proximal step (lr * mu = 1e-10), but a step so long that the
    # models' squared norms overflow in the first round
    cfg = tiny_cfg(algorithm=algorithm, mu=1e-170, lr=1e160)
    with pytest.raises(FloatingPointError, match=r"client 0 diverged in round 0.*lr=1e\+160, mu=1e-170"):
        run(cfg)


def test_divergence_check_names_the_first_bad_client():
    # beta = 0 and lr = 0 keep each client's own model through the round
    cfg = tiny_cfg(beta0=0.0, lr=0.0, rounds=1)
    state = initial_state(cfg)
    state.model_block[3:] = 1e200  # finite entries whose squared norm overflows
    with pytest.raises(FloatingPointError, match="client 3 diverged in round 0"):
        run_round(state, cfg)


def test_a_client_diverged_in_a_forked_range_is_named_by_the_caller(capfd):
    cfg = tiny_cfg(beta0=0.0, lr=0.0, rounds=1)
    state = initial_state(cfg)
    # a child trains rows 0-1 and the caller rows 2-4; neither scores a
    # range with a diverged row, which would warn on its non-finite logits
    state.model_block[[1, 4]] = 1e200
    with split_solves(2) as forks, Helpers(state.spec, state.train, state.test) as helpers:
        with pytest.raises(FloatingPointError, match=r"^client 1 diverged in round 0: "):
            run_round(state, cfg, helpers)
    assert len(forks) == 1
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize(
    "cfg",
    [RunConfig(algorithm="demlearn-p", mu=0.005, model_kind="mlp-1hidden", rounds=3), tiny_cfg()],
    ids=["protocol-shape", "tiny"],
)
def test_a_run_forks_its_helpers_once_and_writes_what_one_cpu_writes(cfg):
    with split_solves(1) as forks:
        alone = run(cfg)
    assert forks == []
    with split_solves(2) as forks:
        split = run(cfg)
    assert forks == [os.getpid()]
    assert metrics_csv_lines("r", split) == metrics_csv_lines("r", alone)
    assert split.tree_snapshots == alone.tree_snapshots


def fail_in_round_1(monkeypatch, error):
    """Make this process raise `error` as it trains its rows in round 1,
    while the helpers train theirs."""
    caller, train_rows, calls = os.getpid(), models._train_rows, []

    def failing(*args):
        if os.getpid() == caller:
            calls.append(None)
            if len(calls) == 2:
                raise error
        train_rows(*args)

    monkeypatch.setattr(models, "_train_rows", failing)


def fail_metrics_of_round_1(monkeypatch, error):
    round_metrics = training.round_metrics

    def failing(spec, t, *args):
        if t == 1:
            raise error
        return round_metrics(spec, t, *args)

    monkeypatch.setattr(training, "round_metrics", failing)


@pytest.mark.parametrize(
    "fail, error",
    [
        (fail_in_round_1, KeyboardInterrupt()),
        (fail_in_round_1, ValueError("the caller's rows failed")),
        (fail_metrics_of_round_1, ValueError("no metrics")),
    ],
)
def test_a_run_that_fails_in_the_caller_leaves_no_child(monkeypatch, fail, error):
    fail(monkeypatch, error)
    with split_solves(2) as forks:
        with pytest.raises(type(error)) as raised:
            run(tiny_cfg())
    assert raised.value is error
    assert len(forks) == 1  # and `split_solves` found every child reaped


def test_a_divergent_split_run_leaves_no_child():
    cfg = tiny_cfg(algorithm="demlearn-p", mu=1e-170, lr=1e160)
    with split_solves(2) as forks:
        with pytest.raises(FloatingPointError, match="client 0 diverged in round 0"):
            run(cfg)
    assert len(forks) == 1


def test_a_helper_killed_between_rounds_fails_the_next_round_naming_its_rows():
    cfg = tiny_cfg()
    state = initial_state(cfg)
    message = rf"^the forked solve of client rows 0-1 \(exit code -{signal.SIGKILL:d}\) failed: no message$"
    with split_solves(2) as forks, Helpers(state.spec, state.train, state.test) as helpers:
        run_round(state, cfg, helpers)
        os.kill(helpers._helpers[0].pid, signal.SIGKILL)  # as the kernel's out-of-memory killer would
        with pytest.raises(RuntimeError, match=message):
            run_round(state, cfg, helpers)
    assert len(forks) == 1


def test_run_round_fixed_point_when_nothing_moves():
    cfg = tiny_cfg(lr=0.0, beta0=0.0, rounds=1)
    state = initial_state(cfg)
    before = state.model_block.copy()
    run_round(state, cfg)
    assert np.array_equal(before, state.model_block)


def test_run_is_deterministic():
    cfg = tiny_cfg(rounds=4)
    r1 = run(cfg)
    r2 = run(cfg)
    for m1, m2 in zip(r1.metrics, r2.metrics):
        assert m1 == m2
    assert r1.state.model_block.tobytes() == r2.state.model_block.tobytes()


def test_run_zero_rounds():
    result = run(tiny_cfg(rounds=0))
    assert result.metrics == []
    first = result.state.model_block[0]
    for row in result.state.model_block[1:]:
        assert np.array_equal(row, first)


def test_run_one_round_equals_manual_round():
    cfg = tiny_cfg(rounds=1)
    manual = initial_state(cfg)
    run_round(manual, cfg)
    result = run(cfg)
    assert result.metrics == [manual.metrics]
    assert result.state.model_block.tobytes() == manual.model_block.tobytes()


def test_structure_constant_between_rebuilds():
    cfg = tiny_cfg(rounds=4, tau=2, n_clients=6, k_levels=2)
    state = initial_state(cfg)
    memberships = []
    for _ in range(4):
        run_round(state, cfg)
        memberships.append(
            tuple(tuple(m.tolist()) for m in members(state.tree.levels[0].group))
        )
    # rounds 0-1 share the structure built in round 0; rounds 2-3 the next one
    assert memberships[0] == memberships[1]
    assert memberships[2] == memberships[3]


def test_fixed_structure_never_changes_membership():
    cfg = tiny_cfg(rounds=5, fixed_structure=True, n_clients=6, k_levels=2)
    state = initial_state(cfg)
    initial = tuple(tuple(m.tolist()) for m in members(state.tree.levels[0].group))
    for _ in range(5):
        run_round(state, cfg)
        assert tuple(tuple(m.tolist()) for m in members(state.tree.levels[0].group)) == initial


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
        assert dem_state.model_block.tobytes() == fed_state.model_block.tobytes()
        assert dem_state.tree.root.tobytes() == fed_state.tree.root.tobytes()


def test_single_client_hierarchical_run():
    # a lone client forms every group by itself; no clustering is possible
    cfg = tiny_cfg(rounds=2, n_clients=1, k_levels=3, samples_per_client=16)
    result = run(cfg)
    assert len(result.metrics) == 2
    tree = result.state.tree
    for level in tree.levels:
        assert [m.tolist() for m in members(level.group)] == [[0]]
    assert np.array_equal(tree.root, result.state.model_block[0])


def test_hierarchical_k1_skips_clustering_with_the_same_models(monkeypatch):
    cfg = tiny_cfg(rounds=3, tau=1, k_levels=1, n_clients=5)

    def no_clustering(*args):
        raise AssertionError("a K=1 run clustered")

    with monkeypatch.context() as m:
        m.setattr(clustering, "agglomerate", no_clustering)
        skipped = run(cfg)
    assert skipped.dendrograms == []
    assert [m.tolist() for m in members(skipped.state.tree.levels[0].group)] == [[0, 1, 2, 3, 4]]

    def clustered(models, deltas, cfg, t, helpers=None):
        dend = clustering.agglomerate(clustering.build_distance_matrix(models, cfg.metric, helpers))
        return build_tree(clustering.truncate(dend, cfg.k_levels), models), dend

    monkeypatch.setattr(training, "_rebuild_structure", clustered)
    forced = run(cfg)
    assert [t for t, _ in forced.dendrograms] == [0, 1, 2]
    assert skipped.tree_snapshots == forced.tree_snapshots
    assert skipped.metrics == forced.metrics
    assert skipped.state.tree.root.tobytes() == forced.state.tree.root.tobytes()
    assert skipped.state.model_block.tobytes() == forced.state.model_block.tobytes()


@pytest.mark.parametrize("algorithm, mu", [("demlearn", 0.0), ("demlearn-p", 0.01)])
@pytest.mark.parametrize("metric", ["weights", "gradients"])
def test_setup_clusters_nothing_and_builds_the_all_zero_upgma_tree(
    monkeypatch, algorithm, mu, metric
):
    def no_clustering(*args):
        raise AssertionError("set-up clustered")

    for n in (1, 2, 7, 50):
        for k in (1, 2, 4, 12):
            cfg = tiny_cfg(
                algorithm=algorithm,
                mu=mu,
                metric=metric,
                n_clients=n,
                k_levels=k,
                samples_per_class=300,
            )
            with monkeypatch.context() as m:
                m.setattr(clustering, "build_distance_matrix", no_clustering)
                m.setattr(clustering, "agglomerate", no_clustering)
                state = initial_state(cfg)
            # one client has no matrix to agglomerate: one group at every level
            if n == 1:
                labels = np.zeros((k, 1), np.intp)
            else:
                labels = clustering.truncate(clustering.agglomerate(np.zeros((n, n))), k)
            want = build_tree(labels, state.model_block)
            assert state.tree.K == k
            for got, exp in zip(state.tree.levels, want.levels):
                assert got.group.tobytes() == exp.group.tobytes()
                assert got.coeff.tobytes() == exp.coeff.tobytes()
                assert got.models.tobytes() == exp.models.tobytes()


def test_gradient_metric_clustering_runs():
    cfg = tiny_cfg(rounds=3, metric="gradients", n_clients=6, k_levels=3)
    result = run(cfg)
    assert len(result.metrics) == 3


def test_gradient_metric_zero_update_names_client_and_round(monkeypatch):
    # client 4 keeps its restart model from round 1 on: its update delta is 0
    cfg = tiny_cfg(rounds=3, metric="gradients", n_clients=6, k_levels=3, tau=1)
    real_solve, calls = training.local_solve, []

    def solve_freezing_client_4(spec, w, *args):
        kept = w[4].copy()
        right = real_solve(spec, w, *args)
        if calls:
            w[4] = kept
        calls.append(None)
        return right

    monkeypatch.setattr(training, "local_solve", solve_freezing_client_4)
    with pytest.raises(FloatingPointError, match=r"client 4 made a zero update in round 1: metric=gradients"):
        run(cfg)
    assert len(calls) == 2


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
    state = initial_state(cfg)
    union_train = state.train.union()
    losses = []
    for _ in range(cfg.rounds):
        run_round(state, cfg)
        losses.append(loss(state.spec, state.tree.root, union_train))
    for a, b in zip(losses[3:], losses[4:]):
        assert b <= a + 1e-9
