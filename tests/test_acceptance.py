"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 6-10 run the 50-client protocol (K=4, tau=2, T=60, MLP).  They use
the MNIST IDX files when present (data dir from DEMLEARN_DATA_DIR or ./data)
and otherwise fall back to the synthetic 10-class blob corpus with the
documented fallback thresholds.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from demlearn.clustering import agglomerate, truncate
from demlearn.data import Dataset
from demlearn.harness import ExperimentPlan, run_plan
from demlearn.hierarchy import build_tree
from demlearn.models import (
    LOGISTIC,
    MLP,
    AnchorLevel,
    ModelSpec,
    prox_grad,
    prox_objective,
)
from demlearn.training import RunConfig, resolve_idx_paths, run

from oracles import brute_force_upgma, central_diff

SYNTH_GLOBAL_AT_30 = 0.85
MNIST_GLOBAL_AT_30 = 0.90


def report(cid: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def mnist_available() -> bool:
    images, labels = resolve_idx_paths("data")
    return os.path.exists(images) and os.path.exists(labels)


def protocol_config(**kw) -> RunConfig:
    base = dict(
        rounds=60,
        k_levels=4,
        tau=2,
        model_kind=MLP,
        hidden_dim=32,
        n_clients=50,
        labels_per_client=2,
        test_frac=0.2,
        samples_per_client=80,
    )
    if mnist_available():
        base["data_source"] = "idx"
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    checked = 0
    while checked < 100:
        if rng.random() < 0.5:
            spec = ModelSpec(
                LOGISTIC, int(rng.integers(1, 9)), int(rng.integers(2, 6))
            )
        else:
            spec = ModelSpec(
                MLP, int(rng.integers(1, 5)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
            )
        if spec.param_count > 50:
            continue
        w = rng.normal(0, 0.6, spec.param_count)
        b = int(rng.integers(1, 9))
        batch = Dataset(
            rng.normal(0, 1, (b, spec.input_dim)),
            rng.integers(0, spec.num_classes, b),
            spec.num_classes,
        )
        n_anchors = int(rng.integers(0, 4))
        # one client: a stack of one, each anchor its own level
        anchors = [
            AnchorLevel(
                rng.normal(0, 1, (1, spec.param_count)),
                np.zeros(1, dtype=np.intp),
                np.array([rng.uniform(0.05, 1.0)]),
            )
            for _ in range(n_anchors)
        ]
        mu = float(rng.uniform(0, 0.5))
        g = prox_grad(spec, w[None], batch.features[None], batch.labels[None], anchors, mu)[0]
        fd = central_diff(lambda v: prox_objective(spec, v[None], [batch], anchors, mu)[0], w)
        rel = np.max(np.abs(g - fd) / (np.abs(fd) + 1e-4))
        worst = max(worst, rel)
        checked += 1
    elapsed = time.time() - start
    ok = worst < 1e-5 and elapsed < 10.0
    assert report(
        1, ok, f"{checked} instances, worst rel err {worst:.2e}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_clustering_oracle():
    rng = np.random.default_rng(202)
    start = time.time()
    mism = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pts = rng.normal(0, 1, (n, 3))
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d[i, j] = d[j, i] = float(np.linalg.norm(pts[i] - pts[j]))
        got = agglomerate(d).merges
        ref = brute_force_upgma(d)
        for gm, (left, right, height, new_id, size) in zip(got, ref):
            if (gm.left, gm.right, gm.new_id, gm.size) != (left, right, new_id, size):
                mism += 1
            elif abs(gm.height - height) > 1e-12:
                mism += 1
    fixture = np.zeros((4, 4))
    for i, a in enumerate([0.0, 1.0, 3.0, 7.0]):
        for j, b in enumerate([0.0, 1.0, 3.0, 7.0]):
            fixture[i, j] = abs(a - b)
    heights = [m.height for m in agglomerate(fixture).merges]
    fixture_ok = (
        abs(heights[0] - 1.0) < 1e-12
        and abs(heights[1] - 2.5) < 1e-12
        and abs(heights[2] - 17.0 / 3.0) < 1e-12
    )
    elapsed = time.time() - start
    ok = mism == 0 and fixture_ok and elapsed < 10.0
    assert report(
        2,
        ok,
        f"200 matrices, {mism} mismatches, fixture heights {[round(h, 4) for h in heights]}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 3


def random_assignment(n, k, rng):
    groups = {k: [list(range(n))]}
    for level in range(k - 1, 0, -1):
        nxt = []
        for g in groups[level + 1]:
            if len(g) >= 2 and rng.random() < 0.7:
                cut = int(rng.integers(1, len(g)))
                nxt.extend([sorted(g[:cut]), sorted(g[cut:])])
            else:
                nxt.append(sorted(g))
        groups[level] = nxt
    from demlearn.clustering import LevelAssignment

    return LevelAssignment(k, groups)


def test_criterion_3_hierarchy_identity():
    rng = np.random.default_rng(303)
    worst_root = 0.0
    worst_node = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, 5))
        models = {i: rng.normal(0, 1, 6) for i in range(n)}
        tree = build_tree(random_assignment(n, k, rng), models)
        mean = np.mean([models[i] for i in range(n)], axis=0)
        worst_root = max(worst_root, float(np.max(np.abs(tree.root.model - mean))))
        for level in range(1, k + 1):
            for node in tree.levels[level]:
                leaf_mean = np.mean([models[c] for c in node.clients], axis=0)
                worst_node = max(
                    worst_node, float(np.max(np.abs(node.model - leaf_mean)))
                )
    ok = worst_root < 1e-9 and worst_node < 1e-9
    assert report(
        3, ok, f"100 trees, worst root dev {worst_root:.2e}, worst node dev {worst_node:.2e}"
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_fedavg_reduction():
    common = dict(
        rounds=5,
        n_clients=5,
        k_levels=1,
        beta0=1.0,
        beta_decay=1.0,
        beta_min=1.0,
        mu=0.0,
        fedavg_weighting="agent",
        data_source="synthetic",
        num_classes=4,
        input_dim=6,
        samples_per_class=40,
        samples_per_client=20,
        epochs=2,
        batch_size=8,
        model_kind=LOGISTIC,
        hidden_dim=0,
    )
    dem = run(RunConfig(algorithm="demlearn", **common))
    fed = run(RunConfig(algorithm="fedavg", **common))
    same = dem.state.tree.root.model.tobytes() == fed.state.tree.root.model.tobytes()
    for cd, cf in zip(dem.state.clients, fed.state.clients):
        same = same and cd.w0.tobytes() == cf.w0.tobytes()
    assert report(4, same, "5 rounds, client and global trajectories bitwise equal")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_plan_determinism(tmp_path):
    cfg = protocol_config()
    files = {}
    for tag in ("one", "two"):
        out = tmp_path / tag
        plan = ExperimentPlan([("protocol", cfg)], out_dir=str(out))
        assert run_plan(plan) == 0
        files[tag] = (out / "protocol_metrics.csv").read_bytes()
    ok = files["one"] == files["two"]
    assert report(5, ok, f"two executions, {len(files['one'])} CSV bytes compared")


# ---------------------------------------------------------------- criteria 6-10


@pytest.fixture(scope="module")
def protocol_runs():
    runs = {}
    t0 = time.time()
    runs["demlearn"] = run(protocol_config()).metrics
    runs["fedavg"] = run(protocol_config(algorithm="fedavg")).metrics
    runs["demlearn-p"] = run(protocol_config(algorithm="demlearn-p", mu=0.005)).metrics
    for mu in (0.002, 0.01, 0.05):
        runs[f"mu_{mu}"] = run(
            protocol_config(algorithm="demlearn-p", mu=mu)
        ).metrics
    runs["fixed"] = run(protocol_config(fixed_structure=True)).metrics
    runs["_elapsed"] = time.time() - t0
    return runs


def test_criterion_6_global_accuracy(protocol_runs):
    dem = protocol_runs["demlearn"]
    threshold = MNIST_GLOBAL_AT_30 if mnist_available() else SYNTH_GLOBAL_AT_30
    best = max(m.global_acc for m in dem[:31])
    ok = best >= threshold
    assert report(
        6,
        ok,
        f"global acc {best:.3f} by round 30 (threshold {threshold}), "
        f"protocol batch took {protocol_runs['_elapsed']:.0f}s",
    )


def test_criterion_7_cgen_gap_over_fedavg(protocol_runs):
    dem = protocol_runs["demlearn"][59]
    fed = protocol_runs["fedavg"][59]
    gap = dem.c_gen - fed.c_gen
    ok = gap >= 0.05
    assert report(
        7,
        ok,
        f"C-GEN@60 demlearn {dem.c_gen:.3f} vs fedavg {fed.c_gen:.3f}, gap {gap:+.3f} "
        f"(need >= +0.050; known-red at desk scale, see decisions ledger)",
    )


def test_criterion_8_demlearn_p_specialization(protocol_runs):
    dem = protocol_runs["demlearn"][59]
    demp = protocol_runs["demlearn-p"][59]
    ok = demp.c_spe >= dem.c_spe - 0.01
    assert report(
        8, ok, f"C-SPE@60 demlearn-p {demp.c_spe:.3f} vs demlearn {dem.c_spe:.3f} (1-pt slack)"
    )


def test_criterion_9_mu_sweep_generalization(protocol_runs):
    series = [protocol_runs[f"mu_{mu}"][59].c_gen for mu in (0.002, 0.01, 0.05)]
    ok = series[1] <= series[0] + 0.01 and series[2] <= series[1] + 0.01
    assert report(
        9, ok, f"C-GEN@60 by mu {[round(v, 3) for v in series]} non-increasing within 1 pt"
    )


def test_criterion_10_fixed_vs_self_organizing(protocol_runs):
    dem = protocol_runs["demlearn"]
    fixed = protocol_runs["fixed"]
    osc = lambda ms: float(np.std(np.diff([m.c_gen for m in ms])))
    cond_a = dem[59].c_gen >= fixed[59].c_gen - 0.01
    cond_b = osc(fixed) >= osc(dem)
    ok = cond_a and cond_b
    assert report(
        10,
        ok,
        f"C-GEN@60 self {dem[59].c_gen:.3f} vs fixed {fixed[59].c_gen:.3f}; "
        f"oscillation fixed {osc(fixed):.4f} vs self {osc(dem):.4f}",
    )
