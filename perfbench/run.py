"""pnewton benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload tall-oracle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; pnewton is imported from ``src/``.
The run writes its inputs and outputs under ``.bench_build/perfbench/``,
then runs the workload's ops in one pinned-BLAS process for ``--seconds``
seconds, timing set-up in fresh interpreters between the ops. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the run must end within 180 s; leave room for writing inputs and reporting
WORKER_TIMEOUT_S = 160

# BENCHMARK.json lists these same names; the unit of each metric is here.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "objective.value.calls": "count",
    "objective.gradient.calls": "count",
    "objective.hessian.calls": "count",
    "objective.busy_s": "s",
    "objective.hessian_per_iter": "ratio",
    "objective.gradient_per_iter": "ratio",
    "objective.hessian.gflop_computed": "GFLOP",
    "linalg.spd_solve.calls": "count",
    "linalg.spd_solve.busy_s": "s",
    "linalg.cholesky_retries": "count",
    "linalg.eigh.calls": "count",
    "linalg.eigh.busy_s": "s",
    "linalg.as_symmetric.calls": "count",
    "linalg.as_symmetric.busy_s": "s",
    "solvers.iters": "count",
    "solvers.iters.newton": "count",
    "solvers.iters.damped_newton": "count",
    "solvers.iters.pnm_identity": "count",
    "solvers.iters.pnm_diag": "count",
    "solvers.iters.anm_identity": "count",
    "solvers.iters.anm_diag": "count",
    "solvers.run.busy_s": "s",
    "solvers.self_s": "s",
    "solvers.fstar.busy_s": "s",
    "solvers.fstar.iters": "count",
    "diagnostics.certify.busy_s": "s",
    "diagnostics.certify.self_s": "s",
    "diagnostics.certified_iterates": "count",
    "diagnostics.eigh_per_iterate": "ratio",
    "diagnostics.hessian_per_iterate": "ratio",
    "diagnostics.vacuous": "count",
    "diagnostics.unsatisfied": "count",
    "harness.experiment.self_s": "s",
    "harness.experiment.bytes_written": "bytes",
    "harness.replay.self_s": "s",
    "harness.datasets.load.calls": "count",
    "harness.datasets.load.busy_s": "s",
    "harness.datasets.generate.busy_s": "s",
    "trace.overhead_s": "s",
}


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` when there is one."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def pinned_env(root: Path) -> dict:
    """BLAS on 1 thread and one ``PN_THREADS`` worker: one busy core of two."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PN_THREADS"] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def tail(samples) -> dict:
    """The highest percentile with at least ten samples beyond it, else the max."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return {"tail_percentile": 100.0, "tail_s": ordered[-1]}
    return {"tail_percentile": 100.0 * (n - 10) / n, "tail_s": ordered[n - 11]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pnewton" / "__init__.py").is_file():
        print(f"error: {root} holds no pnewton sources (src/pnewton); run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    # inputs are generated here too: same BLAS threading as the workload process
    os.environ.update(pinned_env(root))
    from workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    workdir = root / ".bench_build" / "perfbench" / f"{w.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    prepare(workdir, w, args.seed)
    # own session, so a timeout kills the set-up probe the worker may be running too
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), w.name, str(args.seed), str(args.seconds),
         str(args.trace), str(workdir), str(root / "src")],
        env=pinned_env(root), cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: worker.py ran over {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(stderr, file=sys.stderr)
        print(f"error: worker.py exited {proc.returncode}", file=sys.stderr)
        return 1
    res = last_json_line(stdout)

    env_record = dict(res["environment"], commit=git_commit(root))
    walls = res["wall_s"]
    detail = {
        "environment": env_record,
        "setup_s": res["setup_s"],
        "wall_s": dict(median=statistics.median(walls), samples=walls, **tail(walls)),
        "solve_s": res["solve_s"],
        "certify_s": res["certify_s"],
        "errors": res["errors"],
    }
    if args.trace:
        detail["traced_wall_s"] = res["traced_wall_s"]
        detail["layer_counts"] = res["layer_counts"]
        values = {k: statistics.median(v) for k, v in res["layer_times"].items()}
        values.update(res["layer_counts"] or {})
        # a metric is missing only when every traced op failed the gate
        metrics = {k: {"value": values.get(k), "unit": unit} for k, unit in LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(res["setup_s"]),
            "wall_s": statistics.median(walls),
            "solve_s": statistics.median(res["solve_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in E2E_UNITS.items()}

    (workdir / "result.json").write_text(json.dumps({"detail": detail, "metrics": metrics}, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
