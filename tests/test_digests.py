"""Outputs are byte-identical: a SHA-256 digest manifest of short CLI runs.

Each case runs `cli.main` in-process on its argv, writing into a fresh
directory, and is recorded as its exit code plus one digest each of its
stdout, its stderr and every file it wrote.  `digests.json` holds those
records and the host they were made on: the numpy version, the BLAS name and
version, numpy's SIMD dispatch targets and the number of CPUs the process may
run on.  The last bits of `tanh`, `exp` and a gemm can differ with any of
these, so on a host whose record differs the tests skip and name the fields
that differ; they never pass against another host's bytes.

A change that moves output bytes on purpose regenerates the manifest,

    PYTHONPATH=src python tests/test_digests.py --write

which first prints each case and entry whose digest differs from the old
manifest, and names each changed digest in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from demlearn import cli

MANIFEST = Path(__file__).with_name("digests.json")
PROTOCOL = str(Path(__file__).resolve().parents[1] / "configs" / "protocol.cfg")
# 20 of the protocol's clients, 5 epochs a round
SMALL = ["--config", PROTOCOL, "--clients", "20", "--epochs", "5", "--rounds", "3", "--out", "{out}"]

# name -> argv, in which "{out}" stands for the case's output directory
CASES = {
    "compare-mlp-k4": ["compare", "--config", PROTOCOL, "--rounds", "2", "--epochs", "5", "--out", "{out}"],
    "compare-logistic": ["compare", *SMALL, "--model-kind", "multinomial-logistic"],
    "gradients": ["run", *SMALL, "--metric", "gradients"],
    "fixed-structure": ["run", *SMALL, "--algorithm", "demlearn-p", "--fixed-structure"],
    "k1": ["run", *SMALL, "--algorithm", "demlearn-p", "--k", "1"],
    "k12": ["run", *SMALL, "--algorithm", "demlearn-p", "--k", "12", "--mu", "0.01"],
    # every model stays at the shared initial one, so every merge is a tie
    "lr-0": ["run", *SMALL, "--lr", "0"],
    "sweep-mu": ["sweep-mu", *SMALL, "--mu-values", "0,0.002,0.05"],
    "export-dendrogram": ["export-dendrogram", *SMALL[:-2], "--out-file", "{out}/dendrogram.txt"],
    # 50 clients x 20 epochs x 4 steps x 874 parameters: split over 2 CPUs
    "fork": ["run", "--config", PROTOCOL, "--algorithm", "demlearn-p", "--rounds", "2", "--out", "{out}"],
    "exit-1": ["run", *SMALL, "--algorithm", "demlearn", "--mu", "0.1"],
    # a stable proximal step (lr * mu = 1e-10) whose models still overflow
    "exit-2": ["run", *SMALL, "--algorithm", "fedprox", "--mu", "1e-170", "--lr", "1e160"],
}
# repeated in a child process that may run on one CPU only
ONE_CPU_CASE = "fork"


def host_record() -> dict[str, object]:
    """What the output bytes may depend on besides the program and its argv."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
        simd = config["SIMD Extensions"]
        targets = [*simd["baseline"], *simd["found"]]
    except (TypeError, KeyError):  # a numpy without show_config(mode="dicts")
        blas_name, targets = "unknown", ["unknown"]
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "simd_targets": targets,
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str) -> dict[str, object]:
    """Run one case in this process; its exit code and digests."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.format(out=tmp) for arg in CASES[name]])
        files = {p.name: _sha(p.read_bytes()) for p in sorted(Path(tmp).iterdir())}
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": files,
    }


def _manifest() -> dict:
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    here = host_record()
    differs = [key for key in manifest["host"] if manifest["host"][key] != here.get(key)]
    if differs:
        pytest.skip(
            "the digest manifest was made on another host: "
            + "; ".join(f"{key} {manifest['host'][key]} here {here.get(key)}" for key in differs)
        )
    return manifest


def _changed(got: dict, want: dict) -> list[str]:
    """The entries of a case whose record differs: exit, stdout, stderr and
    the names of its files."""
    changed = [key for key in ("exit", "stdout", "stderr") if got[key] != want.get(key)]
    files = want.get("files", {})
    for fname in sorted(set(got["files"]) | set(files)):
        if got["files"].get(fname) != files.get(fname):
            changed.append(fname)
    return changed


def _assert_same(name: str, got: dict, want: dict) -> None:
    changed = _changed(got, want)
    assert not changed, f"case {name!r} changed: {', '.join(changed)}"


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_the_digest_manifest(name):
    manifest = _manifest()
    _assert_same(name, run_case(name), manifest["cases"][name])


def test_the_manifest_covers_every_case():
    assert sorted(json.loads(MANIFEST.read_text(encoding="utf-8"))["cases"]) == sorted(CASES)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_a_one_cpu_child_writes_the_same_bytes():
    # the case forks its solve on this host's CPUs; on one CPU it cannot
    manifest = _manifest()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, __file__, "--one-cpu", ONE_CPU_CASE],
        capture_output=True, text=True, env=env, check=True,
    )
    _assert_same(ONE_CPU_CASE, json.loads(proc.stdout), manifest["cases"][ONE_CPU_CASE])


def _main(argv: list[str]) -> int:
    if argv[:1] == ["--write"]:
        cases = {name: run_case(name) for name in CASES}
        old = json.loads(MANIFEST.read_text(encoding="utf-8"))["cases"] if MANIFEST.exists() else {}
        for name, record in cases.items():
            changed = _changed(record, old.get(name, {}))
            if changed:
                print(f"case {name!r} changed: {', '.join(changed)}")
        manifest = {"host": host_record(), "cases": cases}
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(cases)} cases to {MANIFEST}")
        return 0
    if argv[:1] == ["--one-cpu"] and len(argv) == 2:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        print(json.dumps(run_case(argv[1])))
        return 0
    print("usage: test_digests.py --write | --one-cpu CASE", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
