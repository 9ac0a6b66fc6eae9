"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)

from checks import check_metrics_csv, check_summary  # noqa: E402
from hostspeed import REFERENCE_LOOP_S, rescale  # noqa: E402
from run import Repeat, check_determinism, check_outputs  # noqa: E402
from stats import median, percentile  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402


# -- percentile helper --------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile(list(range(1, 11)), 90) == pytest.approx(9.1)
    assert percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0], [5.0, 1.0, 4.0, 2.0], [0.5] * 6])
def test_median_agrees_with_statistics(values):
    assert median(values) == statistics.median(values)


def test_percentile_rejects_empty_sample_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # 0 ── 1 ── 3
    #  └── 2
    parents = [-1, 0, 0, 1]
    durations = [100, 30, 20, 5]
    assert self_times(parents, durations) == [50, 25, 20, 5]


def test_self_times_sum_to_root_duration():
    parents = [-1, 0, 1, 1, 0, 4]
    durations = [90, 40, 10, 15, 30, 30]
    assert sum(self_times(parents, durations)) == durations[0]


# -- tracer ---------------------------------------------------------------------


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")
    user = types.ModuleType("fakepkg.user")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n"
        "def _private(x):\n    return x\n",
        layer.__dict__,
    )
    user.outer = layer.outer
    user.TABLE = {"go": layer.outer}
    mods = {"fakepkg": pkg, "fakepkg.layer": layer, "fakepkg.user": user}
    sys.modules.update(mods)
    yield layer, user
    for name in mods:
        sys.modules.pop(name, None)


def test_tracer_links_spans_and_patches_every_reference(fake_package):
    layer, user = fake_package
    original = layer.outer
    tracer = Tracer("fakepkg", ["layer"])
    tracer.install()
    assert user.outer(1) == 4
    assert user.TABLE["go"](2) == 6
    names = [tracer.names[n] for n in tracer.span_name]
    assert names == ["layer.outer", "layer.inner", "layer.outer", "layer.inner"]
    assert list(tracer.span_parent) == [-1, 0, -1, 2]
    assert "layer._private" not in tracer.names
    summary = tracer.summary()
    assert summary["layer.outer"]["calls"] == 2
    assert summary["layer.outer"]["self_ns"] == (
        summary["layer.outer"]["busy_ns"] - summary["layer.inner"]["busy_ns"]
    )
    assert user.outer is not original and user.TABLE["go"] is user.outer


def test_tracer_reports_absent_names_without_failing(fake_package):
    tracer = Tracer(
        "fakepkg", ["layer", "gone"], only=("layer.inner", "layer.removed_function")
    )
    tracer.install()
    assert not tracer.wrap_reference("user", "no_such_name", "user.call_site")
    assert tracer.absent == ["gone", "layer.removed_function", "user.call_site"]
    assert tracer.names == ["layer.inner"]


def test_tracer_survives_a_failing_observer(fake_package):
    layer, _ = fake_package

    def broken(args, kwargs, result):
        raise KeyError("groups")

    tracer = Tracer("fakepkg", ["layer"], observers={"layer.inner": broken})
    tracer.install()
    assert layer.outer(1) == 4
    assert "layer.inner" in tracer.observer_errors


# -- output checks ------------------------------------------------------------

_HEADER = "run,t,c_spe,c_gen,g_spe_1,g_gen_1,global_acc,global_loss"


def _csv(rows):
    return "\n".join([_HEADER] + rows) + "\n"


_GOOD_ROWS = [
    "w,0,0.9,0.2,0.8,0.3,0.5,1.7",
    "w,1,0.95,0.3,0.85,0.4,0.6,1.2",
]


def test_valid_csv_has_no_findings():
    assert check_metrics_csv(_csv(_GOOD_ROWS), "w", 2) == []


@pytest.mark.parametrize(
    "rows, needle",
    [
        (_GOOD_ROWS[:1], "1 rows for 2 rounds"),
        ([_GOOD_ROWS[0], "w,1,0.95,nan,0.85,0.4,0.6,1.2"], "not finite"),
        ([_GOOD_ROWS[0], "w,1,0.95,0.3,1.5,0.4,0.6,1.2"], "outside [0, 1]"),
        ([_GOOD_ROWS[0], "w,1,0.95,0.3,0.85,0.4,0.6,inf"], "not finite"),
        ([_GOOD_ROWS[0], "w,3,0.95,0.3,0.85,0.4,0.6,1.2"], "expected 1"),
        ([_GOOD_ROWS[0], "w,1,0.95,0.3,0.85,0.4,0.6"], "cells"),
    ],
)
def test_altered_csv_is_reported(rows, needle):
    errors = check_metrics_csv(_csv(rows), "w", 2)
    assert any(needle in e for e in errors), errors


def test_summary_echo_must_match_pinned_values():
    pinned = {"run.mu": 0.005, "run.k": 4, "run.fixed_structure": False}
    echo = dict(pinned, **{"run.new_key": 1})
    good = json.dumps({"config": echo, "rounds_completed": 3})
    assert check_summary(good, pinned, 3) == ([], ["run.new_key"])
    drifted = json.dumps({"config": dict(echo, **{"run.mu": 0.01}), "rounds_completed": 3})
    errors, _ = check_summary(drifted, pinned, 3)
    assert errors == ["config echo run.mu=0.01, workload pins 0.005"]


def _write_repeat(out, wl, pinned, csv_text):
    rounds = pinned["run.rounds"]
    os.makedirs(out)
    with open(os.path.join(out, "report.json"), "w") as f:
        json.dump({
            "round_s": [0.5] * rounds,
            "tail_s": 0.0,
            "loop_s": [REFERENCE_LOOP_S] * (rounds + 2),
        }, f)
    with open(os.path.join(out, f"{wl.name}_metrics.csv"), "w") as f:
        f.write(csv_text)
    with open(os.path.join(out, f"{wl.name}_summary.json"), "w") as f:
        json.dump({"config": pinned, "rounds_completed": rounds}, f)


def _history(name, rounds):
    rows = [f"{name},{t},0.9,{0.2 if t == 0 else 0.3},0.5,0.5" for t in range(rounds)]
    return "\n".join(["run,t,c_spe,c_gen,global_acc,global_loss"] + rows) + "\n"


def test_a_csv_altered_on_purpose_fails_the_run(tmp_path):
    wl = WORKLOADS["flat-fedavg"]
    pinned = wl.pinned(3)
    text = _history(wl.name, pinned["run.rounds"])
    repeats = []
    for i, csv_text in enumerate([text, text, text.replace("0.9", "0.91", 1)]):
        rep = Repeat(i, traced=False, seed=3)
        out = str(tmp_path / f"rep{i}")
        _write_repeat(out, wl, pinned, csv_text)
        check_outputs(rep, wl, pinned, out)
        repeats.append(rep)
    assert all(r.ok for r in repeats)
    assert repeats[0].target_round == 1  # the 0.25 C-GEN target is first met at t=1
    check_determinism(repeats)
    assert [r.ok for r in repeats] == [True, True, False]

    broken = Repeat(3, traced=False, seed=3)
    out = str(tmp_path / "rep3")
    _write_repeat(out, wl, pinned, text.replace("0.5,0.5\n", "1.5,0.5\n", 1))
    check_outputs(broken, wl, pinned, out)
    assert not broken.ok


def test_determinism_compares_repeats_of_one_seed_only(tmp_path):
    wl = WORKLOADS["flat-fedavg"]
    rounds = wl.config["run.rounds"]
    text = _history(wl.name, rounds)
    other = text.replace("0.9", "0.8")
    repeats = []
    for i, (seed, csv_text) in enumerate([(3, text), (3, text), (1, other), (3, other)]):
        rep = Repeat(i, traced=False, seed=seed)
        out = str(tmp_path / f"rep{i}")
        _write_repeat(out, wl, wl.pinned(seed), csv_text)
        check_outputs(rep, wl, wl.pinned(seed), out)
        repeats.append(rep)
    check_determinism(repeats)
    # the reference seed may differ from --seed; a changed history of --seed may not
    assert [r.ok for r in repeats] == [True, True, True, False]


def test_phases_are_rescaled_by_the_readings_around_them():
    from run import rescaled

    rep = Repeat(0, traced=False, seed=3)
    ref = REFERENCE_LOOP_S
    # set-up between readings 0 and 1, round 0 between 1 and 2, round 1
    # between 2 and 3, the tail after 3; a host twice as slow halves a phase
    rep.report = {"setup_s": 1.0, "round_s": [2.0, 3.0], "tail_s": 0.5,
                  "loop_s": [ref, 3 * ref, ref, 2 * ref]}
    setup, rounds, tail = rescaled(rep)
    assert setup == pytest.approx(0.5)
    assert rounds == pytest.approx([1.0, 2.0])
    assert tail == pytest.approx(0.25)
    assert rescale(1.0, ref, ref) == 1.0


def test_a_repeat_without_a_reading_per_phase_fails(tmp_path):
    wl = WORKLOADS["flat-fedavg"]
    pinned = wl.pinned(3)
    out = str(tmp_path / "rep0")
    _write_repeat(out, wl, pinned, _history(wl.name, pinned["run.rounds"]))
    path = tmp_path / "rep0" / "report.json"
    report = json.loads(path.read_text())
    report["loop_s"].pop()
    path.write_text(json.dumps(report))
    rep = Repeat(0, traced=False, seed=3)
    check_outputs(rep, wl, pinned, out)
    assert not rep.ok


def test_workloads_pin_every_config_key():
    sys.path.insert(0, SRC)
    from demlearn.harness import CONFIG_KEYS

    for wl in WORKLOADS.values():
        assert set(wl.pinned(1)) == set(CONFIG_KEYS), wl.name


# -- the child against the plain CLI ------------------------------------------


def test_child_writes_the_same_csv_as_demlearn_run(tmp_path):
    wl = WORKLOADS["protocol-demlearn-p"]
    pinned = dict(wl.pinned(5), **{"run.rounds": 2, "data.clients": 6, "run.epochs": 2})
    cfg = tmp_path / "small.cfg"
    cfg.write_text(config_text(pinned))
    env = dict(os.environ, PYTHONPATH=SRC)
    outputs = []
    for trace in ("0", "1"):
        out = tmp_path / f"child{trace}"
        subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), "--src", SRC,
             "--config", str(cfg), "--name", "small", "--out", str(out),
             "--report", str(tmp_path / f"report{trace}.json"), "--trace", trace],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append((out / "small_metrics.csv").read_bytes())
    cli_out = tmp_path / "cli"
    subprocess.run(
        [sys.executable, "-m", "demlearn.cli", "run", "--config", str(cfg),
         "--name", "small", "--out", str(cli_out)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    assert outputs[0] == outputs[1] == (cli_out / "small_metrics.csv").read_bytes()

    traced = json.loads((tmp_path / "report1.json").read_text())
    assert traced["layers"]["models.local_solve.calls"] == 12
    assert traced["layers"]["training.round.calls"] == 2
    assert len(traced["round_s"]) == 2
    plain = json.loads((tmp_path / "report0.json").read_text())
    assert len(plain["round_s"]) == 2 and len(plain["loop_s"]) == 4
    assert (tmp_path / "child1" / "spans.csv").exists()


# -- the benchmark definition -------------------------------------------------


def test_benchmark_json_lists_what_the_code_reports(tmp_path):
    from child import Counters, layer_metrics
    from run import end_to_end

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }

    wl = WORKLOADS["flat-fedavg"]
    pinned = wl.pinned(3)
    rep = Repeat(0, traced=False, seed=3)
    out = str(tmp_path / "rep0")
    _write_repeat(out, wl, pinned, _history(wl.name, pinned["run.rounds"]))
    check_outputs(rep, wl, pinned, out)
    rep.report.update(setup_s=0.1, run_s=10.0, peak_rss_mb=40.0)
    values, _ = end_to_end([rep], rep, pinned)
    assert {m["name"] for m in spec["end_to_end"]} == set(values) | {"run_success_ratio"}

    # the final accuracies are the reference repeat's, whatever --seed gives
    ref = Repeat(2, traced=False, seed=1)
    out = str(tmp_path / "rep2")
    _write_repeat(out, wl, wl.pinned(1), _history(wl.name, pinned["run.rounds"]).replace(
        "0.5,0.5\n", "0.75,0.5\n"))
    check_outputs(ref, wl, wl.pinned(1), out)
    ref.report.update(setup_s=0.1, run_s=10.0, peak_rss_mb=40.0)
    values, _ = end_to_end([rep, ref], ref, pinned)
    assert values["final_global_acc"] == 0.75

    layers, _ = layer_metrics(Tracer("demlearn", []), Counters(), 0, 10**9)
    assert {m["name"] for m in spec["per_layer"]} == set(layers) | {"trace.overhead_ratio"}


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-fedavg",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
