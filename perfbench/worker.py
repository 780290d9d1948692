"""Closed-loop op runner: one process, one client, ops back to back.

An *op* is one pass of the workload's CLI journey: ``pnewton run spec.json``,
plus ``pnewton certify --trace`` on every pnm/anm trace for replay
workloads. The first op warms caches and is not timed into the metrics.
Every op, the warm-up included, goes through the correctness gate. In an
untraced run, set-up probes (``setup_probe.py``, each a fresh interpreter)
run between the ops, so set-up and ops are timed in the same window.

Usage (``run.py`` starts it with the pinned BLAS environment):

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1> <workdir> <src>

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import pnewton
from pnewton.harness.cli import cli_main
from pnewton.harness.datasets import load_dataset

from tracer import SpanIndex, Tracer
from workloads import ALL_SOLVERS, ALPHA, TOL, WORKLOADS, Workload

# The only wrappers in an untraced op: they time the calls that end-to-end
# metrics sum (solvers.run, certify_*), nothing below them.
E2E_BINDINGS = [
    ("pnewton.solvers", "run", "solvers.run"),
    ("pnewton.diagnostics", "certify_penalty_contraction", "diagnostics.certify"),
    ("pnewton.diagnostics", "certify_augmented_contraction", "diagnostics.certify"),
]

GAP_RANGE = (-1e-12, 1e-10)
RIDGE_TOL = 1e-10

# set-up probes after every op of an untraced run, and at least this many in all
PROBES_PER_GAP = 3
MIN_PROBES = 12
PROBE_TIMEOUT_S = 30


def blas_info() -> dict:
    """BLAS vendor from NumPy's build config, and the thread counts its libraries report."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            try:
                threads[pkg.__name__] = int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
            except (OSError, AttributeError):
                pass
    return {
        "vendor": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
        "threads_reported": threads,
        "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def environment(w: Workload, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pnewton": pnewton.__version__,
        "blas": blas_info(),
        "PN_THREADS": os.environ.get("PN_THREADS"),
        "seed": seed,
        "workload": w.name,
        "sizes": w.sizes(),
    }


def ridge_fstar(w: Workload) -> float:
    """Closed-form optimum of the squared-link GLM on the matrix ``load_dataset`` returns."""
    A, y = load_dataset(w.data_file, "libsvm", link=w.link)
    n, m = A.shape
    x = np.linalg.solve(A @ A.T / m + ALPHA * np.eye(n), A @ y / m)
    r = A.T @ x - y
    return float(0.5 * (r @ r) / m + 0.5 * ALPHA * (x @ x))


def setup_probe(w: Workload, seed: int) -> float:
    """``setup_s`` of one fresh interpreter; it inherits the pinned environment."""
    # subprocess.run kills and reaps the probe when the timeout expires
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"), w.name, str(seed), "."],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.trace.csv")) + sorted(out.glob("*.cert.json")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_op(w: Workload, run_rc: int, summary: dict, replays, ridge: float | None) -> list[str]:
    """Every correctness check of one op; returns the failures found."""
    errs = []
    if run_rc != 0:
        errs.append(f"pnewton run exited {run_rc}")
    names = [s["name"] for s in summary.get("solvers", [])]
    if names != w.solver_names() or summary.get("failed"):
        errs.append(f"solvers ran {names}, failed {summary.get('failed')}")
    for s in summary.get("solvers", []):
        gap = s["final_gap"]
        if s["termination"] != "converged" or not s["final_grad_norm"] <= TOL:
            errs.append(f"{s['name']}: {s['termination']}, ||grad|| = {s['final_grad_norm']!r}")
        if gap is None or not GAP_RANGE[0] <= gap <= GAP_RANGE[1]:
            errs.append(f"{s['name']}: gap {gap!r} outside {GAP_RANGE}")
        if w.diagnostics and s["method"] in ("pnm", "anm"):
            cert = s["certification"]
            if cert is None or cert["all_certified"] is not True:
                errs.append(f"{s['name']}: certification {cert}")
    if ridge is not None:
        f_star = summary.get("f_star")
        if f_star is None or not abs(f_star - ridge) <= RIDGE_TOL * max(1.0, abs(ridge)):
            errs.append(f"f* {f_star!r} differs from the closed-form ridge optimum {ridge!r}")
    for name, rc, text in replays:
        if rc != 0 or "matches stored certification: True" not in text:
            errs.append(f"certify replay of {name} exited {rc}: {text.strip()[-200:]}")
    return errs


def run_op(w: Workload, tracer: Tracer, ridge: float | None) -> dict:
    out = Path("out")
    shutil.rmtree(out, ignore_errors=True)
    replayed = [s for s in w.solver_names() if w.replay and s.startswith(("pnm", "anm"))]
    sink = io.StringIO()
    replays = []
    with tracer:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), tracer.span("op"):
            run_rc = cli_main(["run", "spec.json"])
            for name in replayed:
                start = sink.tell()
                rc = cli_main(["certify", "--trace", str(out / f"{name}.trace.csv")])
                replays.append((name, rc, sink.getvalue()[start:]))
        wall = time.perf_counter() - t0
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
    errs = check_op(w, run_rc, summary, replays, ridge)
    if run_rc != 0:
        errs.append(sink.getvalue().strip()[-300:])
    certs = [json.loads(p.read_text()) for p in sorted(out.glob("*.cert.json"))]
    replayed_certs = [json.loads((out / f"{name}.cert.json").read_text()) for name in replayed]
    return {
        "wall_s": wall,
        "errors": errs,
        "digest": output_digest(out),
        "bytes_written": sum(p.stat().st_size for p in out.iterdir()),
        "summary": summary,
        "certs": certs + replayed_certs,
    }


def op_spans(tracer: Tracer, op_id: int):
    return [s for s in tracer.spans if s.op == op_id]


def e2e_times(spans) -> dict:
    solve = sum(s.duration_ns for s in spans if s.name == "solvers.run")
    certify = sum(s.duration_ns for s in spans if s.name == "diagnostics.certify")
    return {"solve_s": solve * 1e-9, "certify_s": certify * 1e-9}


def layer_metrics(w: Workload, spans, op: dict) -> tuple[dict, dict]:
    """Per-layer (times, counts) of one traced op."""
    idx = SpanIndex(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.duration_ns for s in named(name)) * 1e-9

    def self_s(*names):
        return sum(idx.self_ns(s) for n in names for s in named(n)) * 1e-9

    def under(name, prefix):
        return sum(1 for s in named(name) if idx.has_ancestor(s, prefix))

    summary = op["summary"]
    per_solver = {s["name"]: s["iterations"] for s in summary["solvers"]}
    iters = sum(per_solver.values())
    entries = [e for cert in op["certs"] for e in cert["entries"]]
    certified = len(entries)

    counts = {
        "objective.value.calls": len(named("objective.value")),
        "objective.gradient.calls": len(named("objective.gradient")),
        "objective.hessian.calls": len(named("objective.hessian")),
        "linalg.spd_solve.calls": len(named("linalg.spd_solve")),
        "linalg.cholesky_retries": len(named("linalg.cho_factor")) - len(named("linalg.spd_solve")),
        "linalg.eigh.calls": len(named("linalg.eigh")),
        "linalg.as_symmetric.calls": len(named("linalg.as_symmetric")),
        "solvers.iters": iters,
        **{f"solvers.iters.{name}": per_solver.get(name, 0) for name in ALL_SOLVERS},
        "solvers.fstar.iters": summary["f_star_provenance"]["iterations"],
        "diagnostics.certified_iterates": certified,
        "diagnostics.vacuous": sum(e["vacuous"] for e in entries),
        "diagnostics.unsatisfied": sum(not e["satisfied"] and not e["vacuous"] for e in entries),
        "harness.experiment.bytes_written": op["bytes_written"],
        "harness.datasets.load.calls": len(named("harness.datasets.load")),
        # ratios of exact counts; they repeat exactly as well
        "objective.hessian_per_iter": under("objective.hessian", "solvers.run") / iters,
        "objective.gradient_per_iter": under("objective.gradient", "solvers.run") / iters,
        "objective.hessian.gflop_computed": len(named("objective.hessian")) * 2.0 * w.n**2 * w.m / 1e9,
        "diagnostics.eigh_per_iterate": under("linalg.eigh", "diagnostics.certify") / certified if certified else 0.0,
        "diagnostics.hessian_per_iterate": (
            under("objective.hessian", "diagnostics.certify") / certified if certified else 0.0
        ),
    }
    times = {
        "objective.busy_s": sum(s.duration_ns for s in idx.outermost("objective.")) * 1e-9,
        "linalg.spd_solve.busy_s": busy("linalg.spd_solve"),
        "linalg.eigh.busy_s": busy("linalg.eigh"),
        "linalg.as_symmetric.busy_s": busy("linalg.as_symmetric"),
        "solvers.run.busy_s": busy("solvers.run"),
        "solvers.self_s": self_s("solvers.run", "solvers.fstar"),
        "solvers.fstar.busy_s": busy("solvers.fstar"),
        "diagnostics.certify.busy_s": busy("diagnostics.certify"),
        "diagnostics.certify.self_s": self_s("diagnostics.certify"),
        "harness.experiment.self_s": self_s("harness.experiment.run", "harness.experiment.solver"),
        "harness.replay.self_s": self_s("harness.replay"),
        "harness.datasets.load.busy_s": busy("harness.datasets.load"),
        "harness.datasets.generate.busy_s": busy("harness.datasets.generate"),
    }
    return times, counts


def main(argv) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    workdir, src = Path(argv[4]), Path(argv[5]).resolve()
    if src not in Path(pnewton.__file__).resolve().parents:
        print(f"pnewton imported from {pnewton.__file__}, not from {src}", file=sys.stderr)
        return 2
    w = WORKLOADS[workload]
    os.chdir(workdir)
    ridge = ridge_fstar(w) if w.replay else None

    ops, errors = [], []
    reference_digest = reference_counts = None
    untraced_walls, traced_walls, solve, certify, setups = [], [], [], [], []
    layer_times: dict[str, list[float]] = {}
    traced_tracers = []
    start = None
    op_id = 0
    while True:
        # op 0 warms up; in a traced run, untraced and traced ops alternate
        traced = trace and op_id % 2 == 0 and op_id > 0
        tracer = Tracer() if traced else Tracer(E2E_BINDINGS)
        tracer.op = op_id
        try:
            op = run_op(w, tracer, ridge)
        except Exception as exc:  # an op that crashes counts as failed; keep measuring
            op = {"wall_s": float("nan"), "errors": [f"{type(exc).__name__}: {exc}"], "digest": None}
        if reference_digest is None:
            reference_digest = op["digest"]
        elif op["digest"] != reference_digest:
            op["errors"].append("trace/cert bytes differ from the first op")
        if traced and not op["errors"]:
            times, counts = layer_metrics(w, op_spans(tracer, op_id), op)
            if reference_counts is None:
                reference_counts = counts
            elif counts != reference_counts:
                op["errors"].append(f"counts differ between traced ops: {counts} != {reference_counts}")
            for key, value in times.items():
                layer_times.setdefault(key, []).append(value)
            traced_tracers.append(tracer)
        ops.append(op)
        errors.extend(f"op {op_id}: {e}" for e in op["errors"])
        if op_id > 0:
            (traced_walls if traced else untraced_walls).append(op["wall_s"])
            if not traced:
                times = e2e_times(op_spans(tracer, op_id))
                solve.append(times["solve_s"])
                certify.append(times["certify_s"])
        else:
            start = time.perf_counter()
        op_id += 1
        if not trace:
            setups.extend(setup_probe(w, seed) for _ in range(PROBES_PER_GAP))
        if trace:
            enough = len(traced_walls) >= 2 and len(untraced_walls) >= 2
        else:
            enough = len(untraced_walls) >= 3 and len(setups) >= MIN_PROBES
        if enough and time.perf_counter() - start >= seconds:
            break

    with open("spans.jsonl", "w", encoding="utf-8") as fh:
        for tracer in traced_tracers:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")

    result = {
        "attempted": len(ops),
        "failed": sum(bool(op["errors"]) for op in ops),
        "errors": errors[:20],
        "environment": environment(w, seed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setups,
        "wall_s": untraced_walls,
        "solve_s": solve,
        "certify_s": certify,
    }
    if trace:
        result["traced_wall_s"] = traced_walls
        result["layer_times"] = layer_times
        result["layer_counts"] = reference_counts
        overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
        result["layer_times"]["trace.overhead_s"] = [overhead]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
