"""Output checks applied to every repeat; any finding fails the repeat."""

from __future__ import annotations

import json
import math

# metric CSV columns that hold accuracies and so must lie in [0, 1]
_FIXED_ACCURACY_COLUMNS = ("c_spe", "c_gen", "global_acc")


def _is_accuracy(column: str) -> bool:
    return column in _FIXED_ACCURACY_COLUMNS or column.startswith(("g_spe_", "g_gen_"))


def check_metrics_csv(text: str, name: str, rounds: int) -> list[str]:
    """One row per round, rows in round order, every value finite and every
    accuracy in [0, 1].  Returns the problems found, empty when none."""
    lines = text.splitlines()
    if not lines:
        return ["metrics CSV is empty"]
    header = lines[0].split(",")
    errors = []
    for col in ("run", "t", "c_spe", "c_gen", "global_acc", "global_loss"):
        if col not in header:
            errors.append(f"metrics CSV has no {col!r} column")
    if errors:
        return errors
    rows = lines[1:]
    if len(rows) != rounds:
        errors.append(f"metrics CSV has {len(rows)} rows for {rounds} rounds")
    for i, line in enumerate(rows):
        cells = line.split(",")
        if len(cells) != len(header):
            errors.append(f"row {i}: {len(cells)} cells under {len(header)} columns")
            continue
        row = dict(zip(header, cells))
        if row["run"] != name:
            errors.append(f"row {i}: run {row['run']!r}, expected {name!r}")
        if row["t"] != str(i):
            errors.append(f"row {i}: t={row['t']!r}, expected {i}")
        for col in header[2:]:
            try:
                value = float(row[col])
            except ValueError:
                errors.append(f"row {i}: {col}={row[col]!r} is not a number")
                continue
            if not math.isfinite(value):
                errors.append(f"row {i}: {col}={row[col]} is not finite")
            elif _is_accuracy(col) and not 0.0 <= value <= 1.0:
                errors.append(f"row {i}: accuracy {col}={value!r} outside [0, 1]")
    return errors


def csv_column(text: str, column: str) -> list[float]:
    lines = text.splitlines()
    idx = lines[0].split(",").index(column)
    return [float(line.split(",")[idx]) for line in lines[1:]]


def check_summary(text: str, pinned: dict, rounds: int) -> tuple[list[str], list[str]]:
    """Compare the run's config echo with the workload's pinned values.

    Returns (problems, keys the program has that the workload does not pin).
    A pinned key echoed with another value, or not echoed, is a problem: the
    run did not execute the workload as defined.
    """
    try:
        summary = json.loads(text)
        echo = summary["config"]
        completed = summary["rounds_completed"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"summary JSON unreadable: {exc}"], []
    errors = []
    if completed != rounds:
        errors.append(f"summary reports {completed} rounds completed, expected {rounds}")
    for key, value in pinned.items():
        if key not in echo:
            errors.append(f"config echo has no key {key!r}")
        elif echo[key] != value or type(echo[key]) is not type(value):
            errors.append(f"config echo {key}={echo[key]!r}, workload pins {value!r}")
    return errors, sorted(set(echo) - set(pinned))
