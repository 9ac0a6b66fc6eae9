"""Config resolution, plans, output files, and CLI entry points."""

import json
import time
from dataclasses import fields

import pytest

from demlearn import cli, training
from demlearn.cli import _build_parser, main
from demlearn.data import ConfigurationError
from demlearn.harness import (
    CONFIG_KEYS,
    ExperimentPlan,
    compare_plan,
    config_echo,
    parse_config,
    run_plan,
    sweep_mu,
)
from demlearn.training import RunConfig


def tiny_overrides(**extra):
    o = {
        "run.rounds": 2,
        "data.clients": 4,
        "synthetic.classes": 4,
        "synthetic.input_dim": 6,
        "synthetic.samples_per_class": 40,
        "data.samples_per_client": 20,
        "run.epochs": 1,
        "run.k": 2,
    }
    o.update(extra)
    return o


# ------------------------------------------------------------ parse_config


def test_parse_config_defaults():
    cfg = parse_config(None, {})
    assert cfg == RunConfig()


def test_parse_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("# nothing but comments\n\n")
    assert parse_config(str(p), {}) == RunConfig()


def test_parse_file_values(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("run.algorithm = fedavg\nrun.rounds = 7\nmodel.kind = mlp-1hidden\n")
    cfg = parse_config(str(p), {})
    assert cfg.algorithm == "fedavg"
    assert cfg.rounds == 7
    assert cfg.model_kind == "mlp-1hidden"


def test_flag_overrides_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("run.rounds = 7\n")
    cfg = parse_config(str(p), {"run.rounds": 3})
    assert cfg.rounds == 3


def test_repeated_key_rejected_naming_both_lines(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("run.rounds = 1\n# a comment\nrun.k = 2\n run.rounds = 0\n")
    with pytest.raises(ConfigurationError, match=r"run.cfg:4: key 'run.rounds' is already set on line 1"):
        parse_config(str(p), {})
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 1
    assert "key 'run.rounds' is already set on line 1" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("run.bogus = 1\n")
    with pytest.raises(ConfigurationError, match="run.bogus"):
        parse_config(str(p), {})
    with pytest.raises(ConfigurationError, match="data.nope"):
        parse_config(None, {"data.nope": 2})


def test_demlearn_with_mu_rejected():
    with pytest.raises(ConfigurationError, match="demlearn-p"):
        parse_config(None, {"run.algorithm": "demlearn", "run.mu": 0.1})


def test_demlearn_p_gets_default_mu():
    cfg = parse_config(None, {"run.algorithm": "demlearn-p"})
    assert cfg.mu == pytest.approx(0.005)
    with pytest.raises(ConfigurationError):
        parse_config(None, {"run.algorithm": "demlearn-p", "run.mu": 0.0})


def test_shipped_protocol_config_parses():
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "configs" / "protocol.cfg"
    cfg = parse_config(str(path), {})
    assert cfg.n_clients == 50
    assert cfg.k_levels == 4
    assert cfg.tau == 2
    assert cfg.rounds == 60
    assert cfg.model_kind == "mlp-1hidden"


def test_config_echo_round_trips_keys():
    cfg = parse_config(None, {"run.tau": 5, "run.fixed_structure": True})
    echo = config_echo(cfg)
    assert echo["run.tau"] == 5
    assert echo["run.fixed_structure"] is True


# ------------------------------------------------------------ plans


def test_sweep_mu_zero_is_demlearn():
    plan = sweep_mu(RunConfig(), [0])
    assert len(plan.runs) == 1
    name, cfg = plan.runs[0]
    assert cfg.algorithm == "demlearn" and cfg.mu == 0.0


def test_sweep_mu_three_values():
    plan = sweep_mu(RunConfig(), [0.002, 0.01, 0.05])
    assert [name for name, _ in plan.runs] == ["mu_0.002", "mu_0.01", "mu_0.05"]
    for _, cfg in plan.runs:
        assert cfg.algorithm == "demlearn-p" and cfg.mu > 0


def test_compare_plan_has_four_algorithms():
    plan = compare_plan(RunConfig())
    assert [name for name, _ in plan.runs] == [
        "demlearn",
        "demlearn-p",
        "fedavg",
        "fedprox",
    ]
    plan.validate()


def test_plan_rejects_duplicate_names():
    plan = ExperimentPlan([("a", RunConfig()), ("a", RunConfig())])
    with pytest.raises(ConfigurationError):
        plan.validate()


# a second valid value for every key that fixes the data partition
PARTITION_CHANGES = {
    "data.source": "idx",
    "data.dir": "elsewhere",
    "data.seed": 5,
    "data.clients": 7,
    "data.labels_per_client": 3,
    "data.samples_per_client": 60,
    "data.test_frac": 0.3,
    "synthetic.classes": 8,
    "synthetic.input_dim": 12,
    "synthetic.samples_per_class": 300,
    "synthetic.separation": 4.0,
}


@pytest.mark.parametrize("key", sorted(PARTITION_CHANGES))
def test_plan_rejects_partition_mismatch(key):
    other = parse_config(None, {key: PARTITION_CHANGES[key]})
    plan = ExperimentPlan([("a", RunConfig()), ("b", other)])
    with pytest.raises(ConfigurationError, match=f"run 'b' breaks the shared partition: {key} differs"):
        plan.validate()


def test_plan_runs_may_differ_in_run_and_model_keys():
    other = parse_config(
        None,
        {
            "run.algorithm": "fedprox", "run.mu": 0.01, "run.rounds": 3, "run.k": 2,
            "run.seed": 9, "run.lr": 0.05, "model.kind": "mlp-1hidden", "model.hidden_dim": 8,
        },
    )
    ExperimentPlan([("a", RunConfig()), ("b", other)]).validate()


# ------------------------------------------------------------ run_plan


def test_run_plan_trivial_run_is_fast(tmp_path):
    cfg = parse_config(None, tiny_overrides())
    plan = ExperimentPlan([("tiny", cfg)], out_dir=str(tmp_path))
    start = time.time()
    assert run_plan(plan) == 0
    assert time.time() - start < 5.0
    csv = (tmp_path / "tiny_metrics.csv").read_text().splitlines()
    assert len(csv) == 1 + cfg.rounds
    assert csv[0].startswith("run,t,c_spe,c_gen,g_spe_1,g_gen_1,global_acc")
    summary = json.loads((tmp_path / "tiny_summary.json").read_text())
    assert summary["run"] == "tiny"
    assert summary["config"]["run.tau"] == cfg.tau
    assert (tmp_path / "tiny_dendrogram_t0.txt").exists()
    assert (tmp_path / "tiny_tree.txt").exists()


def test_run_plan_byte_identical_reruns(tmp_path):
    cfg = parse_config(None, tiny_overrides())
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run_plan(ExperimentPlan([("r", cfg)], out_dir=str(out1))) == 0
    assert run_plan(ExperimentPlan([("r", cfg)], out_dir=str(out2))) == 0
    assert (out1 / "r_metrics.csv").read_bytes() == (out2 / "r_metrics.csv").read_bytes()
    assert (out1 / "r_summary.json").read_bytes() == (out2 / "r_summary.json").read_bytes()


def test_run_plan_four_runs_emit_four_csvs(tmp_path):
    base = parse_config(None, tiny_overrides())
    plan = compare_plan(base)
    plan.out_dir = str(tmp_path)
    assert run_plan(plan) == 0
    csvs = sorted(p.name for p in tmp_path.glob("*_metrics.csv"))
    assert csvs == [
        "demlearn-p_metrics.csv",
        "demlearn_metrics.csv",
        "fedavg_metrics.csv",
        "fedprox_metrics.csv",
    ]


def test_run_plan_infeasible_partition_exits_one(tmp_path):
    cfg = parse_config(None, tiny_overrides(**{"synthetic.samples_per_class": 2}))
    plan = ExperimentPlan([("bad", cfg)], out_dir=str(tmp_path))
    assert run_plan(plan) == 1


# ------------------------------------------------------------ CLI


def test_data_dir_env_var(monkeypatch, tmp_path):
    from demlearn.training import DATA_DIR_ENV, resolve_idx_paths

    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    images, labels = resolve_idx_paths("ignored-default")
    assert images.startswith(str(tmp_path))
    assert labels.startswith(str(tmp_path))


def cli_args(out, extra=()):
    return [
        "--rounds", "2", "--clients", "4", "--classes", "4", "--input-dim", "6",
        "--samples-per-class", "40", "--samples-per-client", "20",
        "--epochs", "1", "--k", "2", "--out", str(out), *extra,
    ]


def test_cli_run(tmp_path):
    assert main(["run", "--name", "demo", *cli_args(tmp_path)]) == 0
    assert (tmp_path / "demo_metrics.csv").exists()


def test_cli_rejects_bad_flag_as_config_error(tmp_path):
    assert main(["run", "--bogus-flag", "1"]) == 1
    assert main(["run", "--algorithm", "demlearn", "--mu", "0.1"]) == 1


def test_cli_sweep(tmp_path):
    assert main(["sweep-mu", "--mu-values", "0,0.01", *cli_args(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.glob("*_metrics.csv"))
    assert names == ["mu_0.01_metrics.csv", "mu_0_metrics.csv"]


def test_cli_export_dendrogram(tmp_path):
    out_file = tmp_path / "dend.txt"
    args = ["export-dendrogram", "--rounds", "1", "--clients", "4", "--classes", "4",
            "--input-dim", "6", "--samples-per-class", "40",
            "--samples-per-client", "20", "--epochs", "1", "--k", "2",
            "--out-file", str(out_file)]
    assert main(args) == 0
    assert out_file.read_text().startswith("dendrogram leaves=4")


def test_cli_k1_builds_no_dendrogram(tmp_path, capsys):
    # with one level there is nothing to cluster: no dendrogram files, and
    # export-dendrogram has nothing to export
    assert main(["run", "--name", "k1", *cli_args(tmp_path, ["--k", "1"])]) == 0
    assert (tmp_path / "k1_tree.txt").exists()
    assert list(tmp_path.glob("k1_dendrogram_t*.txt")) == []
    capsys.readouterr()
    out_file = tmp_path / "dend.txt"
    args = ["export-dendrogram", "--rounds", "2", "--clients", "4", "--classes", "4",
            "--input-dim", "6", "--samples-per-class", "40",
            "--samples-per-client", "20", "--epochs", "1", "--k", "1",
            "--out-file", str(out_file)]
    assert main(args) == 1
    assert "no dendrogram to export: run.k = 1" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "extra, cause",
    [
        (["--fixed-structure"], "run.fixed_structure keeps the initial tree and never re-clusters"),
        (["--rounds", "0"], "run.rounds = 0 runs no round"),
        (["--clients", "1"], "data.clients = 1 leaves one client"),
    ],
)
def test_cli_export_dendrogram_names_why_none_is_built_before_running(
    tmp_path, capsys, monkeypatch, extra, cause
):
    def no_run(cfg):
        raise AssertionError("export-dendrogram ran a run that clusters nothing")

    monkeypatch.setattr(cli, "run", no_run)
    out_file = tmp_path / "dend.txt"
    args = ["export-dendrogram", "--rounds", "2", "--clients", "4", "--classes", "4",
            "--input-dim", "6", "--samples-per-class", "40",
            "--samples-per-client", "20", "--epochs", "1", "--k", "2",
            "--out-file", str(out_file), *extra]
    assert main(args) == 1
    assert f"config error: export-dendrogram has no dendrogram to export: {cause}" in capsys.readouterr().err
    assert not out_file.exists()


def test_cli_gradients_metric_with_zero_lr_exits_before_any_round(tmp_path, capsys):
    argv = ["run", "--name", "g0", *cli_args(tmp_path, ["--metric", "gradients", "--lr", "0"])]
    assert main(argv) == 1
    assert "gradients needs lr > 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "extra",
    [
        ["--samples-per-client", "2"],
        ["--samples-per-client", "1", "--labels-per-client", "1", "--test-frac", "0.5"],
    ],
)
def test_cli_tiny_shards_exit_1_before_any_round(tmp_path, capsys, extra):
    # a one-sample draw per label rounds to no test sample at all
    assert main(["run", "--name", "tiny", *cli_args(tmp_path, extra)]) == 1
    captured = capsys.readouterr()
    assert "client 0 gets no test samples" in captured.out + captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("algorithm", ["demlearn-p", "fedprox"])
def test_cli_divergent_run_exits_2_and_writes_no_csv(tmp_path, capsys, algorithm):
    # a stable proximal step (lr * mu = 1e-10) whose models still overflow
    extra = ["--algorithm", algorithm, "--mu", "1e-170", "--lr", "1e160"]
    assert main(["run", "--name", "div", *cli_args(tmp_path, extra)]) == 2
    assert "client 0 diverged in round 0" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []  # no CSV, no summary


def test_cli_zero_update_under_gradients_exits_2_naming_client_and_round(tmp_path, capsys, monkeypatch):
    real_solve = training.local_solve

    def solve_freezing_client_1(spec, w, *args):
        kept = w[1].copy()
        real_solve(spec, w, *args)
        w[1] = kept

    monkeypatch.setattr(training, "local_solve", solve_freezing_client_1)
    assert main(["run", "--name", "z", *cli_args(tmp_path, ["--metric", "gradients"])]) == 2
    assert "client 1 made a zero update in round 0: metric=gradients" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("algorithm", ["demlearn-p", "fedprox"])
def test_cli_unstable_proximal_step_exits_1_before_any_round(tmp_path, capsys, algorithm):
    # lr * mu = 100: the proximal step would overshoot a hundredfold every step
    extra = ["--algorithm", algorithm, "--mu", "1000", "--lr", "0.1"]
    assert main(["run", "--name", "div", *cli_args(tmp_path, extra)]) == 1
    captured = capsys.readouterr()
    assert "for a stable proximal step" in captured.out + captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--lr", "nan"], "lr must be finite, got nan"),
        (["run", "--lr", "inf"], "lr must be finite, got inf"),
        (["run", "--algorithm", "fedprox", "--lr", "0", "--mu", "inf"], "mu must be finite, got inf"),
        (["run", "--algorithm", "demlearn-p", "--mu", "nan"], "mu must be finite, got nan"),
        (["sweep-mu", "--mu-values", "nan"], "mu must be finite, got nan"),
        (["sweep-mu", "--mu-values", "0.01,nan"], "mu must be finite, got nan"),
        (["run", "--separation", "nan"], "synthetic.separation must be finite, got nan"),
        (["run", "--separation", "inf"], "synthetic.separation must be finite, got inf"),
    ],
)
def test_cli_non_finite_lr_or_mu_exits_1_before_any_round(tmp_path, capsys, argv, message):
    # a NaN passes every range and stability check; it used to train a whole
    # round and then exit 2 with a diverged client, blaming lr and mu
    assert main([*argv, *cli_args(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--classes", "1"], "synthetic.classes must be at least 2, got 1"),
        (["--input-dim", "1"], "synthetic.input_dim must be at least 2, got 1"),
        (["--samples-per-class", "0"], "synthetic.samples_per_class must be at least 1, got 0"),
        (["--separation", "-1"], "synthetic.separation must be positive, got -1.0"),
        (
            ["--model-kind", "mlp-1hidden", "--hidden-dim", "0"],
            "model.hidden_dim must be at least 1 for model.kind = mlp-1hidden, got 0",
        ),
        (["--seed", "-1"], "run.seed must be at least 0, got -1"),
        (["--data-seed", "-1"], "data.seed must be at least 0, got -1"),
    ],
)
def test_cli_value_outside_its_rule_exits_1_before_any_round(tmp_path, capsys, extra, message):
    # each of these used to pass the config and fail inside the data, model or
    # rng code, exiting 2 as a runtime failure under an internal name
    assert main(["run", *cli_args(tmp_path, extra)]) == 1
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert list(tmp_path.iterdir()) == []


def test_config_keys_are_the_run_config_fields():
    # a repeated dotted key would silently collapse into one entry
    assert len(CONFIG_KEYS) == len(fields(RunConfig))
    assert [attr for attr, _, _ in CONFIG_KEYS.values()] == [f.name for f in fields(RunConfig)]


def test_cli_fixed_structure_echo(tmp_path):
    assert (
        main(["run", "--name", "fx", "--fixed-structure", *cli_args(tmp_path)]) == 0
    )
    summary = json.loads((tmp_path / "fx_summary.json").read_text())
    assert summary["config"]["run.fixed_structure"] is True


def test_cli_flags_are_the_config_keys(tmp_path):
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    flags = {
        a.dest: a.option_strings
        for a in sub.choices["run"]._actions
        if a.dest in CONFIG_KEYS
    }
    assert set(flags) == set(CONFIG_KEYS)
    assert all(opts == [CONFIG_KEYS[key][1]] for key, opts in flags.items())

    # one non-default value per flag, every one echoed into the summary
    values = {
        "run.algorithm": "fedprox", "run.rounds": 1, "run.k": 3, "run.tau": 3,
        "run.mu": 0.02, "run.beta0": 0.9, "run.beta_decay": 0.99,
        "run.beta_min": 0.4, "run.epochs": 1, "run.batch_size": 4, "run.lr": 0.05,
        "run.metric": "gradients", "run.fixed_structure": True,
        "run.fedavg_weighting": "agent", "run.seed": 5, "model.kind": "mlp-1hidden",
        "model.hidden_dim": 4, "data.source": "synthetic", "data.dir": "elsewhere",
        "data.seed": 3, "data.clients": 4, "data.labels_per_client": 1,
        "data.samples_per_client": 20, "data.test_frac": 0.25, "synthetic.classes": 4,
        "synthetic.input_dim": 6, "synthetic.samples_per_class": 40,
        "synthetic.separation": 5.0,
    }
    assert set(values) == set(CONFIG_KEYS)
    argv = ["run", "--name", "all", "--out", str(tmp_path)]
    for key, value in values.items():
        flag = CONFIG_KEYS[key][1]
        argv += [flag] if value is True else [flag, str(value)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "all_summary.json").read_text())
    assert summary["config"] == values
