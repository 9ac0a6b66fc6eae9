"""The demlearn benchmark: time one workload end to end, or trace its layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload protocol-demlearn-p --seed 1 --seconds 40 --trace 0

Each repeat is a fresh child process (`child.py`) that runs the workload's
pinned config through `harness.run_plan`, as `demlearn run --config` does.
Repeats run one at a time, for about `--seconds` seconds and at least three
times: the third runs the workload's fixed reference seed, whose final
accuracies the run reports, and the others run `--seed`.  Untraced repeats
read a fixed host-speed loop between their phases, and their times are
rescaled by it (see `hostspeed.py`).  Every repeat's outputs are checked
(see `checks.py`), and repeats of one seed must write byte-identical
metrics CSVs.  With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics; with
`--trace 1`, repeats alternate untraced and traced, and it holds the
per-layer metrics.  Metric names and units come from BENCHMARK.json;
README.md in this directory says what each one measures.  Everything a run
writes goes under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from checks import check_metrics_csv, check_summary, csv_column
from hostspeed import REFERENCE_LOOP_S, rescale
from stats import median, percentile
from workloads import REFERENCE_SEED, WORKLOADS, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
HARD_LIMIT_S = 170.0  # the whole benchmark must end within 180 s
# two repeats of --seed for the determinism check, then the reference seed
REFERENCE_INDEX = 2
MIN_REPEATS = 3
MAX_FAILURES = 3  # a program that fails this often will not recover in this run


class Repeat:
    """One child process: its seed, mode, report, outputs and the problems found."""

    def __init__(self, index: int, traced: bool, seed: int) -> None:
        self.index = index
        self.traced = traced
        self.seed = seed
        self.errors: list[str] = []
        self.report: dict = {}
        self.csv = ""
        self.wall_s = 0.0
        self.target_round = None

    @property
    def ok(self) -> bool:
        return not self.errors


def child_env(src: str, nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("DEMLEARN_DATA_DIR", None)
    return env


def write_config(wl, seed: int, out: str) -> str:
    path = os.path.join(out, f"workload-seed-{seed}.cfg")
    with open(path, "w", encoding="utf-8") as f:
        f.write(config_text(wl.pinned(seed)))
    return path


def run_repeat(rep: Repeat, wl, paths, env, deadline) -> None:
    mode = "traced" if rep.traced else "plain"
    out = os.path.join(paths["out"], f"rep{rep.index}-seed-{rep.seed}-{mode}")
    os.makedirs(out)
    report_path = os.path.join(out, "report.json")
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--src", paths["src"],
        "--config", write_config(wl, rep.seed, paths["out"]),
        "--name", wl.name,
        "--run-id", f"{wl.name}/seed-{rep.seed}/rep{rep.index}",
        "--out", out,
        "--report", report_path,
        "--trace", "1" if rep.traced else "0",
    ]
    t0 = time.monotonic()
    with open(os.path.join(out, "child.log"), "wb") as log:
        try:
            code = subprocess.run(
                cmd, env=env, cwd=paths["root"], stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - t0),
            ).returncode
        except subprocess.TimeoutExpired:
            rep.errors.append("child timed out and was killed")
            code = None
    rep.wall_s = time.monotonic() - t0
    if code is not None and code != 0:
        rep.errors.append(f"child exited with code {code}")
    if not rep.errors:
        check_outputs(rep, wl, wl.pinned(rep.seed), out)


def check_outputs(rep: Repeat, wl, pinned: dict, out: str) -> None:
    """Read one repeat's report and outputs; record every problem in `rep`."""
    rounds = pinned["run.rounds"]
    try:
        with open(os.path.join(out, "report.json"), encoding="utf-8") as f:
            rep.report = json.load(f)
        with open(os.path.join(out, f"{wl.name}_metrics.csv"), encoding="utf-8") as f:
            rep.csv = f.read()
        with open(os.path.join(out, f"{wl.name}_summary.json"), encoding="utf-8") as f:
            summary = f.read()
    except (OSError, ValueError) as exc:
        rep.errors.append(f"missing or unreadable output: {exc}")
        return
    rep.errors += check_metrics_csv(rep.csv, wl.name, rounds)
    problems, unpinned = check_summary(summary, pinned, rounds)
    rep.errors += problems
    rep.report["unpinned_keys"] = unpinned
    if rep.errors:
        return
    seen = len(rep.report["round_s"])
    if seen != rounds:
        rep.errors.append(f"saw {seen} round_metrics calls for {rounds} rounds")
        return
    readings = len(rep.report["loop_s"])
    if not rep.traced and readings != rounds + 2:
        rep.errors.append(f"{readings} host-speed readings for {rounds} rounds, not {rounds + 2}")
        return
    cgen = csv_column(rep.csv, "c_gen")
    hit = next((i for i, v in enumerate(cgen) if v >= wl.cgen_target), None)
    if hit is None:
        rep.errors.append(f"C-GEN never reached the target {wl.cgen_target}")
    else:
        rep.target_round = hit


def check_determinism(repeats: list[Repeat]) -> None:
    """Fail every passing repeat whose metrics CSV is not byte-identical to
    the first passing one of its seed: the history is a pure function of the
    config."""
    first: dict[int, Repeat] = {}
    for r in repeats:
        if not r.ok:
            continue
        if r.seed not in first:
            first[r.seed] = r
        elif r.csv != first[r.seed].csv:
            r.errors.append("metrics CSV differs from the first repeat of this seed")


def rescaled(rep: Repeat) -> tuple[float, list[float], float]:
    """Set-up, each round, and the tail after the last round of one untraced
    repeat, each rescaled to the reference host speed by the host-speed
    readings taken on either side of it."""
    loop = rep.report["loop_s"]
    setup = rescale(rep.report["setup_s"], loop[0], loop[1])
    rounds = [rescale(d, loop[i + 1], loop[i + 2]) for i, d in enumerate(rep.report["round_s"])]
    tail = rescale(rep.report["tail_s"], loop[-1], loop[-1])
    return setup, rounds, tail


def end_to_end(timed: list[Repeat], reference: Repeat, pinned: dict) -> tuple[dict, dict]:
    """Metric values, and the sample counts and raw wall times behind them.
    Timings are medians over `timed`, the untraced repeats, of times
    rescaled to the reference host speed; the final accuracies and the round
    that first meets the C-GEN target are those of the reference seed, so
    they do not depend on --seed."""
    phases = [rescaled(r) for r in timed]
    run_s = median([sum(rounds) + tail for _, rounds, tail in phases])
    pooled = [d for _, rounds, _ in phases for d in rounds]
    hit = reference.target_round
    last = {col: csv_column(reference.csv, col)[-1] for col in ("c_gen", "c_spe", "global_acc")}
    values = {
        "setup_s": median([setup for setup, _, _ in phases]),
        "run_s": run_s,
        "round_ms_p50": percentile(pooled, 50) * 1e3,
        "round_ms_p75": percentile(pooled, 75) * 1e3,
        "client_updates_per_s": pinned["data.clients"] * pinned["run.rounds"] / run_s,
        "time_to_cgen_target_s": median([sum(rounds[: hit + 1]) for _, rounds, _ in phases]),
        "peak_rss_mb": median([r.report["peak_rss_mb"] for r in timed]),
        "final_c_gen": last["c_gen"],
        "final_c_spe": last["c_spe"],
        "final_global_acc": last["global_acc"],
    }
    notes = {
        "repeats": len(timed),
        "rounds": len(pooled),
        "raw_setup_s": median([r.report["setup_s"] for r in timed]),
        "raw_run_s": median([r.report["run_s"] for r in timed]),
        "loop_s": median([x for r in timed for x in r.report["loop_s"]]),
    }
    return values, notes


def per_layer(plain: list[Repeat], traced: list[Repeat]) -> dict:
    layers = {
        name: median([r.report["layers"][name] for r in traced])
        for name in traced[0].report["layers"]
    }
    layers["trace.overhead_ratio"] = median([r.report["run_s"] for r in traced]) / median(
        [r.report["run_s"] for r in plain]
    )
    return layers


# what the traced run should show about each workload (informational)
PURPOSE = {
    "protocol-demlearn-p": (
        "local_solve busy > 1/2 of run_s",
        lambda sh: sh["local_solve"] > 0.5,
    ),
    "server-120": (
        "clustering busy > 1/2 of run_s",
        lambda sh: sh["clustering"] > 0.5,
    ),
    "flat-fedavg": (
        "no clustering or tree calls",
        lambda sh: sh["clustering_calls"] == 0 and sh["tree_calls"] == 0,
    ),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "demlearn", "__init__.py")):
        print(f"no demlearn package under {src}; run from a checkout root", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    pinned = wl.pinned(args.seed)
    out = os.path.join(root, ".perfbench", wl.name, f"seed-{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    paths = {"root": root, "src": src, "out": out}
    nproc = len(os.sched_getaffinity(0))
    env = child_env(src, nproc)

    budget_end = started + args.seconds
    deadline = started + HARD_LIMIT_S
    repeats: list[Repeat] = []
    while True:
        traced = bool(args.trace) and len(repeats) % 2 == 1
        same_mode = [r.wall_s for r in repeats if r.traced == traced]
        estimate = max(same_mode) if same_mode else 0.0
        now = time.monotonic()
        failures = sum(not r.ok for r in repeats)
        if failures >= MAX_FAILURES or now + estimate > deadline:
            break
        if len(repeats) >= MIN_REPEATS and now + estimate > budget_end:
            break
        index = len(repeats)
        seed = REFERENCE_SEED if index == REFERENCE_INDEX else args.seed
        rep = Repeat(index, traced, seed)
        run_repeat(rep, wl, paths, env, deadline)
        repeats.append(rep)

    check_determinism(repeats)
    ok = [r for r in repeats if r.ok]
    plain = [r for r in ok if not r.traced]
    traced = [r for r in ok if r.traced]
    reference = next((r for r in ok if r.index == REFERENCE_INDEX), None)
    failed = len(repeats) - len(ok)
    complete = (
        reference is not None
        and (bool(traced) or not args.trace)
        and len(ok) >= MIN_REPEATS
    )

    metrics: dict = {}
    notes: dict = {}
    if complete and not args.trace:
        values, notes = end_to_end(plain, reference, pinned)
        values["run_success_ratio"] = len(ok) / len(repeats)
        metrics = values
    elif complete:
        metrics = per_layer(plain, traced)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0 and complete,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }

    env_info = ok[0].report["env"] if ok else {}
    details = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "reference_seed": REFERENCE_SEED,
        "trace": args.trace,
        "config": pinned,
        "cgen_target": wl.cgen_target,
        "env": env_info,
        "notes": notes,
        "repeats": [
            {"index": r.index, "seed": r.seed, "traced": r.traced, "wall_s": r.wall_s,
             "errors": r.errors,
             "report": {k: v for k, v in r.report.items() if k != "env"}}
            for r in repeats
        ],
        "result": result,
    }
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as f:
        json.dump(details, f, indent=1)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(repeats)} repeats, {failed} failed; details in {os.path.relpath(out, root)}")
    for r in repeats:
        for err in r.errors:
            print(f"  repeat {r.index}: {err}")
    if env_info:
        print("env: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    if notes:
        print(f"samples: timings are medians over {notes['repeats']} untraced repeats "
              f"({notes['rounds']} rounds pooled for round_ms), rescaled to "
              f"the reference host speed; time_to_cgen_target_s ends at round "
              f"{reference.target_round}, the first in which reference seed {REFERENCE_SEED} "
              f"has C-GEN >= {wl.cgen_target}; run_success_ratio base {len(repeats)} "
              f"attempted; final accuracies from the reference seed")
        print(f"raw wall time: setup_s {notes['raw_setup_s']:.4g}, run_s "
              f"{notes['raw_run_s']:.4g}; host-speed loop {notes['loop_s'] * 1e3:.4g} ms "
              f"(reference {REFERENCE_LOOP_S * 1e3:.4g} ms)")
    unpinned = sorted({k for r in ok for k in r.report.get("unpinned_keys", [])})
    if unpinned:
        print(f"warning: the program has config keys this workload does not pin: {unpinned}")
    absent = sorted({a for r in ok for a in r.report.get("absent", [])})
    if absent:
        print(f"absent from the program (reported as 0): {absent}")
    if traced:
        shares = traced[0].report["shares"]
        claim, holds = PURPOSE[wl.name]
        print("shares: " + " ".join(f"{k}={v:.3g}" for k, v in shares.items()))
        print(f"purpose: {claim}: {'confirmed' if holds(shares) else 'NOT confirmed'}")
        for r in traced:
            for name, err in r.report.get("observer_errors", {}).items():
                print(f"  counter at {name} failed: {err}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
