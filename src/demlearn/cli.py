"""Command-line interface: run, sweep-mu, compare, export-dendrogram.

Flags mirror the dotted config keys and win over the config file, which wins
over built-in defaults.  Exit codes: 0 success, 1 config error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .data import ConfigurationError
from .clustering import format_dendrogram
from .harness import (
    CONFIG_KEYS,
    ExperimentPlan,
    compare_plan,
    parse_bool,
    parse_config,
    run_plan,
    sweep_mu,
)
from .training import HIERARCHICAL, RunConfig, run


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we treat that as a config error."""

    def error(self, message):
        raise ConfigurationError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    for key, (_, flag, parser) in CONFIG_KEYS.items():
        if parser is parse_bool:
            p.add_argument(flag, dest=key, action="store_const", const=True, help=f"set {key}")
        else:
            p.add_argument(flag, dest=key, type=parser, help=f"override {key}")


def _config_from_args(args: argparse.Namespace):
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key) is not None}
    return parse_config(args.config, overrides)


def _no_dendrogram_cause(cfg: RunConfig) -> Optional[str]:
    """Why a hierarchical run of `cfg` would re-cluster in no round, if it
    would not; otherwise None.  Round 0 re-clusters in every other run."""
    if cfg.rounds == 0:
        return "run.rounds = 0 runs no round"
    if cfg.k_levels == 1:
        return "run.k = 1 keeps every client in one group and clusters nothing"
    if cfg.n_clients == 1:
        return "data.clients = 1 leaves one client and nothing to cluster"
    if cfg.fixed_structure:
        return "run.fixed_structure keeps the initial tree and never re-clusters"
    return None


def _build_parser() -> _Parser:
    parser = _Parser(prog="demlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single configured run")
    _add_config_flags(p_run)
    p_run.add_argument("--name", default="run", help="run name used in output files")
    p_run.add_argument("--out", default="results", help="output directory")

    p_sweep = sub.add_parser("sweep-mu", help="one run per proximal strength")
    _add_config_flags(p_sweep)
    p_sweep.add_argument(
        "--mu-values",
        default="0.002,0.01,0.05",
        help="comma-separated mu values",
    )
    p_sweep.add_argument("--out", default="results", help="output directory")

    p_cmp = sub.add_parser(
        "compare", help="demlearn / demlearn-p / fedavg / fedprox on one partition"
    )
    _add_config_flags(p_cmp)
    p_cmp.add_argument("--out", default="results", help="output directory")

    p_dend = sub.add_parser(
        "export-dendrogram", help="run and write the last rebuild's dendrogram"
    )
    _add_config_flags(p_dend)
    p_dend.add_argument("--out-file", default=None, help="path (default: stdout)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if args.command == "export-dendrogram":
            if cfg.algorithm not in HIERARCHICAL:
                raise ConfigurationError(
                    "export-dendrogram requires a hierarchical algorithm"
                )
            cause = _no_dendrogram_cause(cfg)
            if cause:
                raise ConfigurationError(f"export-dendrogram has no dendrogram to export: {cause}")
            _, dend = run(cfg).dendrograms[-1]
            text = format_dendrogram(dend)
            if args.out_file:
                with open(args.out_file, "w", encoding="utf-8") as f:
                    f.write(text)
            else:
                sys.stdout.write(text)
            return 0
        if args.command == "run":
            plan = ExperimentPlan([(args.name, cfg)])
        elif args.command == "sweep-mu":
            plan = sweep_mu(cfg, [float(v) for v in args.mu_values.split(",") if v.strip()])
        else:
            plan = compare_plan(cfg)
        plan.out_dir = args.out
        return run_plan(plan)
    except ValueError as exc:  # ConfigurationError included
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
