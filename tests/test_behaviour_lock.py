"""The behaviour lock: every output byte of three fixed specs, checked against committed SHA-256 digests.

The specs are ``conftest``'s ``lock_spec`` (the builtin logistic under all six
solvers), ``quadratic_spec`` with diagnostics and ``step_below_L_spec`` (certificates
that fail). The manifest holds the digest of every file their runs write and of each
``pnewton certify --trace`` replay of their traces: its stdout, stderr and exit code,
with the output directory masked. A change that moves an output byte on purpose
rewrites the manifest and names each moved file in CHANGES.md:

    PYTHONPATH=src python tests/test_behaviour_lock.py

The bytes depend on the BLAS build as well as on this source: OpenBLAS's
``DYNAMIC_ARCH`` picks its kernels for the CPU, and they round differently. So the
manifest records the environment that wrote it, and on any other environment the
test skips, naming the field that differs.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from conftest import lock_spec, quadratic_spec, step_below_L_spec  # first: conftest pins the BLAS threads

import numpy as np
import pytest
import scipy

from pnewton.harness import cli_main, run_experiment

MANIFEST = Path(__file__).with_name("behaviour_lock.json")
SPECS = {"lock": lock_spec, "quadratic": lambda out: quadratic_spec(out, diagnostics=True),
         "step_below_L": step_below_L_spec}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_core(pkg) -> str | None:
    """The kernel set OpenBLAS picked for this CPU in the library ``pkg`` bundles; None if it cannot be read."""
    for lib in sorted((Path(pkg.__file__).parents[1] / f"{pkg.__name__}.libs").glob("*openblas*")):
        blas = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            corename = getattr(blas, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def environment() -> dict:
    """What the output bytes depend on besides the source: the BLAS that numpy and scipy load, and its threads."""
    env = {}
    for pkg in (np, scipy):
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env |= {f"{pkg.__name__} blas {key}": blas.get(key) for key in ("name", "version", "openblas configuration")}
        env[f"{pkg.__name__} blas core"] = _blas_core(pkg)
    return env | {var: os.environ.get(var) for var in THREAD_VARS}


def digests(workdir: Path) -> dict:
    """Run each spec into ``workdir`` and replay each trace; the SHA-256 of every file written and every replay."""
    out = {}
    for name, spec in SPECS.items():
        run_experiment(spec(workdir / name))
        for path in sorted((workdir / name).iterdir()):
            out[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((workdir / name).glob("*.trace.csv")):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main(["certify", "--trace", str(path)])
            replay = f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}".replace(str(workdir), "<out>")
            out[f"{name}/{path.name} certify"] = hashlib.sha256(replay.encode()).hexdigest()
    return out


def test_outputs_match_the_committed_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    here = environment()
    for field, value in manifest["environment"].items():
        if here.get(field) != value:
            pytest.skip(f"not comparable here: {field} is {here.get(field)!r}, the manifest was written with {value!r}")
    written, locked = digests(tmp_path), manifest["digests"]
    moved = sorted(name for name in written.keys() | locked.keys() if written.get(name) != locked.get(name))
    assert not moved, f"outputs differ from {MANIFEST.name} (missing on one side, or changed): {', '.join(moved)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        manifest = {"environment": environment(), "digests": digests(Path(workdir))}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest['digests'])} digests to {MANIFEST}", file=sys.stderr)
