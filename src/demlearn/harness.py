"""Experiment orchestration: config resolution, plans, and file emission.

Configs resolve in three layers (built-in defaults, then a flat key=value
file with dotted keys, then command-line flags).  Each key, with its flag,
parser, default and one-field rule, is declared once, as a `RunConfig`
field; `CONFIG_KEYS` is read from those fields.  A plan is a named list of
runs sharing one data partition; each run emits a per-round metrics CSV, a
summary record and, for the hierarchical algorithms, per-rebuild dendrogram
snapshots and a tree log, written by one loop in `write_run_outputs`.
`report_failure` gives every failure, in a plan or at the CLI, its exit code
(1 for a `ConfigurationError`, 2 otherwise) and prints it on stderr.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Callable, Optional, Sequence

from .clustering import format_dendrogram
from .data import ConfigurationError
from .training import RunConfig, RunResult, run

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


# a field's annotation names the parser of its file values; a `parse_bool`
# key's flag takes no value and sets True
_PARSERS = {"str": str, "int": int, "float": float, "bool": parse_bool}

# dotted config key -> (RunConfig attribute, CLI flag, parser for file values),
# read from RunConfig's fields
CONFIG_KEYS: dict[str, tuple[str, str, Callable[[str], object]]] = {
    f.metadata["key"]: (f.name, f.metadata["flag"], _PARSERS[f.type]) for f in fields(RunConfig)
}

# the config sections that fix the data partition, which a plan's runs share
_PARTITION_SECTIONS = ("data.", "synthetic.")

DEMLEARN_P_DEFAULT_MU = 0.005


def read_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and # comments ignored.  A key
    may appear once."""
    values: dict[str, str] = {}
    line_of: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if key in line_of:
                raise ConfigurationError(
                    f"{path}:{lineno}: key {key!r} is already set on line {line_of[key]}"
                )
            line_of[key] = lineno
            values[key] = value.strip()
    return values


def parse_config(
    path: Optional[str] = None, overrides: Optional[dict[str, object]] = None
) -> RunConfig:
    """Resolve defaults < file < flag overrides into a validated RunConfig.

    `overrides` is keyed by dotted config key with already-typed values.
    Unknown keys in either layer are rejected with their key path.
    """
    provided: dict[str, object] = {}
    if path is not None:
        for key, raw in read_config_file(path).items():
            if key not in CONFIG_KEYS:
                raise ConfigurationError(f"unknown config key {key!r}")
            attr, _, parser = CONFIG_KEYS[key]
            try:
                provided[attr] = parser(raw)
            except ValueError as exc:
                raise ConfigurationError(f"bad value for {key!r}: {exc}") from None
    for key, value in (overrides or {}).items():
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
        provided[CONFIG_KEYS[key][0]] = value

    algorithm = provided.get("algorithm", RunConfig.algorithm)
    if algorithm in ("demlearn-p", "fedprox") and "mu" not in provided:
        provided["mu"] = DEMLEARN_P_DEFAULT_MU
    cfg = RunConfig(**provided)
    cfg.validate()
    return cfg


def config_echo(cfg: RunConfig) -> dict[str, object]:
    """The resolved config as dotted keys, as written into summaries."""
    return {key: getattr(cfg, attr) for key, (attr, _, _) in CONFIG_KEYS.items()}


@dataclass
class ExperimentPlan:
    """Named runs plus output destination.

    Names must be unique, and every run must use the same data partition:
    the runs may differ in `run.*` and `model.*` keys, not in `data.*` or
    `synthetic.*` ones.
    """

    runs: list[tuple[str, RunConfig]]
    out_dir: str = "results"

    def validate(self) -> None:
        names = [name for name, _ in self.runs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate run names in plan: {names}")
        for _, cfg in self.runs:
            cfg.validate()
        if self.runs:
            first = config_echo(self.runs[0][1])
            for name, cfg in self.runs[1:]:
                for key, value in config_echo(cfg).items():
                    if key.startswith(_PARTITION_SECTIONS) and value != first[key]:
                        raise ConfigurationError(
                            f"run {name!r} breaks the shared partition: {key} differs"
                        )


def sweep_mu(base: RunConfig, values: Sequence[float]) -> ExperimentPlan:
    """One run per proximal strength, sharing partition and seeds.

    mu = 0 degenerates to the non-proximal algorithm.
    """
    if not values:
        raise ConfigurationError("sweep needs at least one mu value")
    runs = []
    for v in values:
        if v < 0:
            raise ConfigurationError(f"mu must be non-negative, got {v}")
        if v == 0:
            cfg = replace(base, algorithm="demlearn", mu=0.0)
        else:
            cfg = replace(base, algorithm="demlearn-p", mu=float(v))
        runs.append((f"mu_{v:g}", cfg))
    return ExperimentPlan(runs)


def compare_plan(base: RunConfig) -> ExperimentPlan:
    """The four algorithms on one shared partition."""
    prox_mu = base.mu if base.mu > 0 else DEMLEARN_P_DEFAULT_MU
    return ExperimentPlan([
        ("demlearn", replace(base, algorithm="demlearn", mu=0.0)),
        ("demlearn-p", replace(base, algorithm="demlearn-p", mu=prox_mu)),
        ("fedavg", replace(base, algorithm="fedavg", mu=0.0)),
        ("fedprox", replace(base, algorithm="fedprox", mu=prox_mu)),
    ])


def metrics_csv_lines(name: str, result: RunResult) -> list[str]:
    k = result.state.tree.K
    g_cols = [f"g_spe_{i}" for i in range(1, k)] + [f"g_gen_{i}" for i in range(1, k)]
    header = ["run", "t", "c_spe", "c_gen", *g_cols, "global_acc", "global_loss"]
    lines = [",".join(header)]
    for m in result.metrics:
        # the fields in order, a per-level series spread over its columns
        cells = [v for value in astuple(m) for v in (value if isinstance(value, tuple) else (value,))]
        lines.append(",".join([name, *map(repr, cells)]))
    return lines


def summary_record(name: str, cfg: RunConfig, result: RunResult) -> str:
    payload = {"run": name, "rounds_completed": len(result.metrics), "config": config_echo(cfg)}
    if result.metrics:
        payload["final"] = asdict(result.metrics[-1])
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_run_outputs(out_dir: str, name: str, cfg: RunConfig, result: RunResult) -> list[str]:
    """Write the run's metrics CSV, summary, each dendrogram and, for a
    hierarchical run, its tree log, in that order; returns their paths."""
    base = os.path.join(out_dir, name)
    texts = {  # path -> text
        f"{base}_metrics.csv": "\n".join(metrics_csv_lines(name, result)) + "\n",
        f"{base}_summary.json": summary_record(name, cfg, result),
    }
    for t, dend in result.dendrograms:
        texts[f"{base}_dendrogram_t{t}.txt"] = format_dendrogram(dend)
    if result.tree_snapshots:
        texts[f"{base}_tree.txt"] = "".join(f"round t={t}\n{snap}\n" for t, snap in result.tree_snapshots)
    os.makedirs(out_dir, exist_ok=True)
    for path, text in texts.items():
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return list(texts)


def report_failure(exc: Exception, run_name: Optional[str] = None) -> int:
    """Print a failure, naming its run if it has one, on stderr; returns its
    exit code: 1 for a ConfigurationError, 2 for anything else."""
    config = isinstance(exc, ConfigurationError)
    if run_name is None:
        where = "config error" if config else "error"
    else:
        where = f"config error in run {run_name!r}" if config else f"run {run_name!r} failed"
    print(f"{where}: {exc}", file=sys.stderr)
    return 1 if config else 2


def run_plan(plan: ExperimentPlan) -> int:
    """Execute every run in the plan; 0 on success, or the exit code of the
    first failure (see `report_failure`), which ends the plan.

    Outputs are flushed per run, so a failure keeps everything completed so far.
    """
    try:
        plan.validate()
    except ConfigurationError as exc:
        return report_failure(exc)
    for name, cfg in plan.runs:
        try:
            result = run(cfg)
        except Exception as exc:  # noqa: BLE001 - report and abort with status
            return report_failure(exc, name)
        write_run_outputs(plan.out_dir, name, cfg, result)
        if result.metrics:
            last = result.metrics[-1]
            print(
                f"{name}: t={last.t} c_spe={last.c_spe:.4f} c_gen={last.c_gen:.4f} "
                f"global={last.global_acc:.4f}"
            )
        else:
            print(f"{name}: no rounds executed")
    return 0
