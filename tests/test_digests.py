"""Outputs are byte-identical: a SHA-256 digest manifest of short CLI runs.

Each case runs `cli.main` in-process on its argv, writing into a fresh
directory, and is recorded as its exit code plus one digest each of its
stdout, its stderr and every file it wrote.  `digests.json` holds those
records and the host they were made on: the numpy version, the BLAS name and
version, a fingerprint of the BLAS kernel, numpy's SIMD dispatch targets and
the number of CPUs the process may run on.  The last bits of `tanh`, `exp`
and a gemm can differ with any of these, so on a host whose record differs
the tests skip and name the fields that differ; they never pass against
another host's bytes.  A field that reads "unknown" matches nothing, not
even another host's "unknown".

Two more tests re-run the path-equality tests, whose bits must not depend
on the kernel, in a child process under another kernel, where the digest
cases must skip, naming what differs: OpenBLAS's Haswell kernel (the
fingerprint), and numpy's X86_V3 dispatch (the SIMD targets).

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
# tests whose bits must be equal on every kernel: split and whole solves,
# zero distances between identical rows, group metrics, chunked and whole
# predictions, the class-major and the plain softmax, and the lockstep and
# the scalar solver; with one digest case, which skips on a kernel other
# than the manifest's
KERNEL_TESTS = [
    "tests/test_models.py::test_a_split_solve_is_the_unsplit_solve_bit_for_bit",
    "tests/test_clustering.py::test_identical_rows_are_exactly_0_apart",
    "tests/test_metrics.py::test_group_series_of_a_round_are_the_joined_splits_bit_for_bit",
    "tests/test_models.py::test_the_split_scores_the_collective_set_in_each_process_in_chunks_of_small_products",
    "tests/test_models.py::test_predict_block_stacks_are_the_softmax_argmax_bit_for_bit",
    "tests/test_models.py::test_the_class_major_softmax_is_the_softmax_bit_for_bit",
    "tests/test_models.py::test_lockstep_rows_match_the_scalar_solver_bitwise",
    "tests/test_digests.py::test_outputs_match_the_digest_manifest[k1]",
]


def blas_fingerprint() -> str:
    """The SHA-256 of a few fixed products of odd shapes: a gemm, a gemv, a
    1-D dot and a stacked matmul.  Their last bits tell apart kernels that
    one BLAS library chooses among at run time, such as OpenBLAS's SkylakeX
    and Haswell kernels, which its name and version do not."""
    rng = np.random.default_rng(0)
    a, b, v = rng.normal(size=(37, 53)), rng.normal(size=(53, 29)), rng.normal(size=53)
    products = [a @ b, a @ v, np.dot(rng.normal(size=101), rng.normal(size=101)),
                rng.normal(size=(5, 7, 13)) @ rng.normal(size=(5, 13, 11))]
    return _sha(b"".join(np.asarray(p).tobytes() for p in products))


def host_record() -> dict[str, object]:
    """What the output bytes may depend on besides the program and its argv."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
        simd = config["SIMD Extensions"]
        targets = [*simd["baseline"], *simd["found"]]
    except (TypeError, KeyError):  # a numpy without show_config(mode="dicts")
        blas_name, targets = "unknown", "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_fingerprint": blas_fingerprint(),
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
    differs = [key for key, want in manifest["host"].items() if want == "unknown" or want != here.get(key)]
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


def _kernel_child(env: dict[str, str], record_field: str) -> None:
    """Run `KERNEL_TESTS` in a child pytest under the environment `env`,
    which selects another kernel; the digest case there skips, naming the
    host record's `record_field`, unless the manifest was made under it."""
    root = Path(__file__).resolve().parents[1]
    env = {
        **os.environ,
        **env,
        "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider", *KERNEL_TESTS],
        cwd=root, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert "skipped" not in proc.stdout or record_field in proc.stdout


@pytest.mark.skipif("openblas" not in host_record()["blas"].lower(), reason="numpy's BLAS is not OpenBLAS")
def test_paths_are_equal_bit_for_bit_under_another_openblas_kernel():
    _kernel_child({"OPENBLAS_CORETYPE": "Haswell"}, "blas_fingerprint")


@pytest.mark.skipif("X86_V4" not in host_record()["simd_targets"], reason="numpy dispatches no X86_V4 kernels here")
def test_paths_are_equal_bit_for_bit_under_numpys_x86_v3_dispatch():
    # numpy's float64 tanh and exp, among others, then run their AVX2 kernels
    _kernel_child({"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"}, "simd_targets")


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
