"""One repeat of a workload, in a fresh process.

Runs the config through the same path as `demlearn run --config`
(`harness.parse_config`, then `harness.run_plan` with file outputs) and
writes a JSON report next to the outputs.  Untraced, only the two public
functions that bound the timed phases are wrapped: `training.initial_state`
(set-up) and `metrics.round_metrics` (the end of each round); the host-speed
loop (`hostspeed.py`) runs before set-up and after each of them, outside the
timed phases.  Traced, every public function of every layer is wrapped and
the spans are written out.

Usage: python3 child.py --src SRC --config CFG --name NAME --out DIR
                        --report JSON [--run-id ID] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

from hostspeed import calibrate
from stats import percentile
from tracer import Tracer

PACKAGE = "demlearn"
LAYERS = ("models", "data", "clustering", "hierarchy", "metrics", "training", "harness")
SETUP_SPAN = "training.initial_state"
ROUND_END_SPAN = "metrics.round_metrics"
# the round loop's entry points; fedavg_round and fedprox_round may be folded
# into run_round, so whichever exist form the `training.round` span
ROUND_SPANS = ("training.run_round", "training.fedavg_round", "training.fedprox_round")
TREE_FUNCTIONS = ("build_tree", "propagate_up", "anchors_for", "generalized_blend", "format_tree")
# every function a per-layer metric reads; one the program drops is reported
# as absent and its metrics read 0
METRIC_SOURCES = (
    "models.local_solve",
    "models.prox_grad",
    "clustering.build_distance_matrix",
    "clustering.agglomerate",
    "clustering.truncate",
    "metrics.round_metrics",
    "metrics.evaluate",
    *(f"hierarchy.{fn}" for fn in TREE_FUNCTIONS),
    "training.initial_state",
    "data.synthetic_dataset",
    "data.partition_shards",
    "data.concat_datasets",
    *ROUND_SPANS,
    "harness.write_run_outputs",
)


def _env_info(threads: str) -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_cap": threads,
    }


class HostSpeed:
    """Readings of the host-speed loop, each with the time it ended; a timed
    phase starts when the reading before it ends."""

    def __init__(self) -> None:
        self.marks: list[tuple[int, float]] = []

    def read(self, *_) -> None:
        loop_s = calibrate()
        self.marks.append((time.perf_counter_ns(), loop_s))


class Counters:
    """Work counts gathered by tracer observers at layer boundaries."""

    def __init__(self) -> None:
        self.distance_pairs = 0
        self.rebuilds = 0
        self.rebuilds_changed = 0
        self._last_partition = None
        self.eval_samples = 0
        self.group_concat_keys: set = set()
        self.bytes_written = 0

    def observers(self) -> dict:
        return {
            "clustering.build_distance_matrix": self._distances,
            "clustering.truncate": self._truncate,
            "metrics.evaluate": self._evaluate,
            "metrics.group_test_concat": self._group_concat,
            "harness.write_run_outputs": self._written,
        }

    def _distances(self, args, kwargs, result) -> None:
        n = len(result)
        self.distance_pairs += n * (n - 1) // 2

    def _truncate(self, args, kwargs, result) -> None:
        level1 = frozenset(frozenset(g) for g in result.groups[1])
        if self._last_partition is not None:
            self.rebuilds += 1
            self.rebuilds_changed += level1 != self._last_partition
        self._last_partition = level1

    def _evaluate(self, args, kwargs, result) -> None:
        ds = args[2] if len(args) > 2 else kwargs["ds"]
        self.eval_samples += len(ds)

    def _group_concat(self, args, kwargs, result) -> None:
        parts = args[0] if args else kwargs["parts"]
        self.group_concat_keys.add(tuple(id(p) for p in parts))

    def _written(self, args, kwargs, result) -> None:
        self.bytes_written += sum(os.path.getsize(p) for p in result)


def layer_metrics(
    tracer: Tracer, counters: Counters, run_start_ns: int, run_end_ns: int
) -> tuple[dict, dict]:
    """The per-layer figures the benchmark reports, by metric name, and the
    shares of run_s and call counts that say what a workload stresses."""
    s = tracer.summary()
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations_ns": []}

    def get(name):
        return s.get(name, empty)

    def busy(name):
        return get(name)["busy_ns"] / 1e9

    def p50(name, scale):
        d = get(name)["durations_ns"]
        return percentile(d, 50) / scale if d else 0.0

    out = {}
    for name, unit_scale, suffix in (
        ("models.local_solve", 1e6, "ms_p50"),
        ("models.prox_grad", 1e3, "us_p50"),
        ("clustering.build_distance_matrix", 1e6, "ms_p50"),
        ("clustering.agglomerate", 1e6, "ms_p50"),
        ("metrics.round_metrics", 1e6, "ms_p50"),
    ):
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.{suffix}"] = p50(name, unit_scale)
    out["models.local_solve.self_s"] = get("models.local_solve")["self_ns"] / 1e9
    out["clustering.distance_pairs"] = counters.distance_pairs
    out["clustering.truncate.busy_s"] = busy("clustering.truncate")
    out["clustering.rebuild_changed_ratio"] = (
        counters.rebuilds_changed / counters.rebuilds if counters.rebuilds else 0.0
    )
    out["metrics.evaluate.calls"] = get("metrics.evaluate")["calls"]
    out["metrics.evaluate.samples"] = counters.eval_samples
    out["metrics.evaluate.busy_s"] = busy("metrics.evaluate")
    concat_calls = get("metrics.group_test_concat")["calls"]
    out["metrics.group_test_concat.calls"] = concat_calls
    out["metrics.group_test_concat.distinct_ratio"] = (
        len(counters.group_concat_keys) / concat_calls if concat_calls else 0.0
    )
    for fn in TREE_FUNCTIONS:
        out[f"hierarchy.{fn}.busy_s"] = busy(f"hierarchy.{fn}")
    out["training.initial_state.busy_s"] = busy("training.initial_state")
    out["data.synthetic_dataset.busy_s"] = busy("data.synthetic_dataset")
    out["data.partition_shards.busy_s"] = busy("data.partition_shards")
    out["data.concat_datasets.calls"] = get("data.concat_datasets")["calls"]
    rounds = [get(n) for n in ROUND_SPANS]
    out["training.round.calls"] = sum(r["calls"] for r in rounds)
    out["training.round.busy_s"] = sum(r["busy_ns"] for r in rounds) / 1e9
    out["training.round.self_s"] = sum(r["self_ns"] for r in rounds) / 1e9
    out["harness.write_run_outputs.busy_s"] = busy("harness.write_run_outputs")
    out["harness.bytes_written"] = counters.bytes_written
    # shares of run_s (set-up excluded), for checking what each workload stresses
    run_ns = run_end_ns - run_start_ns

    def share(names):
        return sum(tracer.busy_ns(n, since_ns=run_start_ns) for n in names) / run_ns

    server = [f"clustering.{fn}" for fn in ("build_distance_matrix", "agglomerate", "truncate")]
    tree = [f"hierarchy.{fn}" for fn in TREE_FUNCTIONS]
    shares = {
        "local_solve": share(["models.local_solve"]),
        "clustering": share(server),
        "round_metrics": share(["metrics.round_metrics"]),
        "clustering_calls": sum(get(n)["calls"] for n in server),
        "tree_calls": sum(get(n)["calls"] for n in tree),
    }
    return out, shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--name", required=True)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--out", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import demlearn
    from demlearn import harness

    if not os.path.realpath(demlearn.__file__).startswith(src + os.sep):
        print(f"imported {demlearn.__file__}, not the package under {src}", file=sys.stderr)
        return 3

    counters = Counters()
    speed = HostSpeed()
    if args.trace:
        tracer = Tracer(PACKAGE, LAYERS, observers=counters.observers())
        tracer.install()
        tracer.wrap_reference("metrics", "concat_datasets", "metrics.group_test_concat")
        tracer.absent += [n for n in METRIC_SOURCES if n not in tracer.names]
    else:
        tracer = Tracer(
            PACKAGE, LAYERS, only=(SETUP_SPAN, ROUND_END_SPAN),
            observers={SETUP_SPAN: speed.read, ROUND_END_SPAN: speed.read},
        )
        tracer.install()
    if SETUP_SPAN in tracer.absent or ROUND_END_SPAN in tracer.absent:
        print(f"cannot time set-up and rounds: {tracer.absent} are absent", file=sys.stderr)
        return 3

    cfg = harness.parse_config(args.config)
    plan = harness.ExperimentPlan([(args.name, cfg)], out_dir=args.out)
    if not args.trace:
        speed.read()
    status = harness.run_plan(plan)
    t_done = time.perf_counter_ns()
    sys.stdout.flush()

    setup_idx = tracer.spans_of(SETUP_SPAN)
    round_idx = tracer.spans_of(ROUND_END_SPAN)
    setup_end = tracer.end[setup_idx[-1]] if setup_idx else t_done
    round_ends = [tracer.end[i] for i in round_idx]
    # each round starts where the last phase, or the reading after it, ended
    starts = [m[0] for m in speed.marks[1:]] if speed.marks else [setup_end] + round_ends
    round_s = [(end - start) / 1e9 for start, end in zip(starts, round_ends)]
    tail_s = (t_done - starts[len(round_ends)]) / 1e9 if len(starts) > len(round_ends) else 0.0
    report = {
        "status": status,
        "env": _env_info(os.environ.get("OMP_NUM_THREADS", "")),
        # the set-up `run_plan` performs, as in a plain `demlearn run`
        "setup_s": sum(tracer.end[i] - tracer.start[i] for i in setup_idx) / 1e9,
        # wall time of each round, then from the last round to the end of
        # the run (its output files); readings of the host-speed loop excluded
        "round_s": round_s,
        "tail_s": tail_s,
        "run_s": sum(round_s) + tail_s,
        # host-speed readings: before set-up, after set-up, after each round
        "loop_s": [m[1] for m in speed.marks],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": sorted(set(tracer.absent)),
    }
    if args.trace:
        layers, shares = layer_metrics(tracer, counters, setup_end, t_done)
        report["layers"] = layers
        report["shares"] = shares
        report["bases"] = {
            "clustering.rebuild_changed_ratio": counters.rebuilds,
            "metrics.group_test_concat.distinct_ratio": layers["metrics.group_test_concat.calls"],
        }
        report["observer_errors"] = tracer.observer_errors
        report["spans"] = len(tracer.start)
        tracer.write_spans(os.path.join(args.out, "spans.csv"), args.run_id)
    with open(args.report, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
