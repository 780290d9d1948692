"""Experiment assembly and execution: specs, trace files, certification round trips.

Outputs per solver, under the experiment's output directory:

  <name>.trace.csv  one row per iteration, header ``k,f,gap,grad_norm,rho,
                    step_norm_G,lyapunov,elapsed_ns``
  <name>.meta.json  everything needed to re-run diagnostics offline: the
                    resolved solver config, problem description, f*, and the
                    full iterate/penalty history
  <name>.cert.json  contraction certification report (penalty/augmented
                    methods with diagnostics enabled)

plus a single ``summary.json``. Trace bytes are deterministic for a fixed
spec and seed: floats are written with shortest round-trip repr and the
elapsed column stays zero unless timing is explicitly requested.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .. import diagnostics, solvers
# glm_constants stays bound here: perfbench's tracer patches this binding
from ..objective import glm_build, glm_constants, quadratic_model  # noqa: F401
from .datasets import load_dataset, make_logistic_dataset, make_quadratic_matrix

__all__ = [
    "SolverSpec",
    "ExperimentSpec",
    "TRACE_HEADER",
    "run_experiment",
    "write_trace_csv",
    "read_trace_csv",
    "certify_trace",
]

TRACE_HEADER = "k,f,gap,grad_norm,rho,step_norm_G,lyapunov,elapsed_ns"

_PRECOND_ALIASES = {
    "identity": "identity",
    "diag": "hessian_diagonal",
    "hessian_diagonal": "hessian_diagonal",
}


@dataclass
class SolverSpec:
    """One solver configuration within an experiment."""

    name: str
    method: str = "pnm"
    precond: str = "identity"
    rho0: float = 1.0
    c: float = 2.0
    rho_max: float = 1e12
    step_L: float | None = None
    tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        if self.name in ("", ".", "..") or "/" in self.name or os.sep in self.name:
            raise ValueError(f"solver name {self.name!r} is not a plain file name")
        if self.precond not in _PRECOND_ALIASES:
            raise ValueError(f"unknown preconditioner {self.precond!r}; choose identity or diag")
        self.to_config(1.0)  # a bad method, penalty, step, tolerance or budget fails on load

    def to_config(self, default_step_L: float) -> solvers.SolverConfig:
        kind = _PRECOND_ALIASES[self.precond]
        return solvers.SolverConfig(
            method=self.method,
            precond=solvers.PreconditionerPolicy(kind),
            schedule=solvers.PenaltySchedule(rho0=self.rho0, c=self.c, rho_max=self.rho_max),
            step_L=self.step_L if self.step_L is not None else default_step_L,
            max_iters=self.max_iters,
            grad_tol=self.tol,
        )


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment.

    ``problem`` is either ``{"path": ..., "format": "csv"|"libsvm"}`` for a
    dataset on disk or ``{"builtin": "logistic"|"quadratic", "n": ..., "m": ...}``
    for a seeded synthetic instance. ``fstar`` is ``{"policy": "oracle"}`` or
    ``{"policy": "provided", "value": ...}``.
    """

    problem: dict
    solvers: list[SolverSpec]
    link: str = "logistic"
    alpha: float = 0.1
    seed: int = 0
    out: str = "results"
    diagnostics: bool = False
    timing: bool = False
    fstar: dict = field(default_factory=lambda: {"policy": "oracle"})

    def __post_init__(self):
        if not self.solvers:
            raise ValueError("experiment needs at least one solver")
        names = [s.name for s in self.solvers]
        if len(set(names)) != len(names):
            raise ValueError(f"solver names must be unique, got {names}")
        policy = self.fstar.get("policy")
        if policy not in ("oracle", "provided"):
            raise ValueError(f"unknown fstar policy {policy!r}")
        if policy == "provided" and "value" not in self.fstar:
            raise ValueError("fstar policy 'provided' needs a 'value'")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = dict(d)
        d["solvers"] = [SolverSpec(**s) for s in d.get("solvers", [])]
        return cls(**d)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


def _problem_desc(spec: ExperimentSpec) -> dict:
    """The problem description a run writes to its meta and summary files."""
    problem = spec.problem
    kind = problem.get("builtin")
    if kind is not None and spec.link != "logistic":
        raise ValueError(f"a builtin problem takes only the default link 'logistic', got {spec.link!r}")
    if kind == "quadratic":
        return {"builtin": "quadratic", "n": int(problem.get("n", 8)), "seed": spec.seed}
    if kind == "logistic":
        return {
            "builtin": "logistic",
            "n": int(problem.get("n", 20)),
            "m": int(problem.get("m", 200)),
            "seed": spec.seed,
            "alpha": spec.alpha,
        }
    if kind is not None or "path" not in problem:
        raise ValueError('problem must be {"path": ..., "format": "csv"|"libsvm"} or '
                         f'{{"builtin": "quadratic"|"logistic", "n": ..., "m": ...}}, got {problem}')
    return {
        "path": str(problem["path"]),
        "format": problem.get("format", "csv"),
        "link": spec.link,
        "alpha": spec.alpha,
    }


def _build_model(problem: dict):
    """The objective model of a problem description: a spec's for a run, a meta file's for a replay."""
    kind = problem.get("builtin")
    if kind == "quadratic":
        return quadratic_model(make_quadratic_matrix(problem["n"], seed=problem["seed"]))
    if kind == "logistic":
        A, labels = make_logistic_dataset(problem["n"], problem["m"], seed=problem["seed"])
        return glm_build(A, "logistic", problem["alpha"], labels).model()
    A, labels = load_dataset(problem["path"], problem["format"], link=problem["link"])
    return glm_build(A, problem["link"], problem["alpha"], labels).model()


def _resolve_fstar(spec: ExperimentSpec, model):
    """``model`` with f* attached, and the record of where f* came from."""
    if spec.fstar["policy"] == "provided":
        return replace(model, optimum=(None, float(spec.fstar["value"]))), {"policy": "provided"}
    if model.f_star is not None:
        return model, {"policy": "known"}
    result = solvers.fstar_oracle(model)
    info = {
        "policy": "oracle",
        "terminal_grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    return model.with_optimum(result.x_star, result.f_star), info


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:  # streamed: no whole-document string in memory
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def write_trace_csv(trace: solvers.IterateTrace, path, timing: bool = False) -> None:
    """Write a trace in the documented CSV schema (deterministic bytes by default)."""
    lines = [TRACE_HEADER]
    for rec in trace.records:
        gap = None if trace.f_star is None else rec.f - trace.f_star
        floats = [rec.f, gap, rec.grad_norm, rec.rho, rec.step_norm_g_sq, rec.lyapunov]
        lines.append(",".join([str(rec.k), *map(_fmt, floats), str(rec.elapsed_ns if timing else 0)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace_csv(path) -> list[dict]:
    """Parse a trace CSV back into a list of per-iteration dicts."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text or text[0] != TRACE_HEADER:
        raise ValueError(f"{path} does not start with the trace header {TRACE_HEADER!r}")
    keys = TRACE_HEADER.split(",")
    rows = []
    for line in text[1:]:
        fields = line.split(",")
        row = {}
        for key, val in zip(keys, fields):
            if val == "":
                row[key] = None
            elif key in ("k", "elapsed_ns"):
                row[key] = int(val)
            else:
                row[key] = float(val)
        rows.append(row)
    return rows


def _write_meta(path, spec: ExperimentSpec, sspec: SolverSpec, trace, problem_desc, step_L, fstar_info):
    meta = {
        "solver": asdict(sspec),
        "resolved_step_L": step_L,
        "problem": problem_desc,
        "link": spec.link,
        "alpha": spec.alpha,
        "seed": spec.seed,
        "method": trace.method,
        "termination": trace.termination,
        "steps_taken": trace.steps_taken,
        "f_star": trace.f_star,
        "f_star_provenance": fstar_info,
        "iterates": [[float(v) for v in rec.x] for rec in trace.records],
        "fs": [rec.f for rec in trace.records],
        "rhos": [None if not np.isfinite(rec.rho) else rec.rho for rec in trace.records],
    }
    _write_json(path, meta)


# method -> certifier, looked up on ``diagnostics`` per call so a wrapped attribute is the one called
_CERTIFIERS = {"pnm": "certify_penalty_contraction", "anm": "certify_augmented_contraction"}


def _certify(trace, model, config: solvers.SolverConfig) -> diagnostics.ContractionReport:
    certify = getattr(diagnostics, _CERTIFIERS[trace.method])
    return certify(trace, model, config.precond, model.constants[1], config.step_L)


def _start_point(problem_desc: dict, dim: int) -> np.ndarray:
    """The point every solver of a run starts from; the f* oracle starts at zeros too."""
    # zeros is the conventional GLM start; the builtin quadratic is minimized
    # at the origin, so start it from the all-ones point instead
    if problem_desc.get("builtin") == "quadratic":
        return np.ones(dim)
    return np.zeros(dim)


def _share_start(model, x0: np.ndarray):
    """``model`` with ``f``, ``grad f`` and ``hess f`` at ``x0`` evaluated once, here.

    A call at exactly ``x0`` (equal bytes) returns the stored result, arrays
    read-only; a call anywhere else goes through to ``model``.
    """
    key = x0.tobytes()

    def shared(fn):
        at_x0 = fn(x0)
        if isinstance(at_x0, np.ndarray):
            at_x0 = at_x0.view()
            at_x0.setflags(write=False)
        return lambda x: at_x0 if np.asarray(x, dtype=float).tobytes() == key else fn(x)

    return replace(
        model, value=shared(model.value), gradient=shared(model.gradient), hessian=shared(model.hessian)
    )


def _run_one(spec: ExperimentSpec, sspec: SolverSpec, model, problem_desc, fstar_info, outdir: Path):
    config = sspec.to_config(model.constants[0])
    trace = solvers.run(model, _start_point(problem_desc, model.dim), config)
    write_trace_csv(trace, outdir / f"{sspec.name}.trace.csv", timing=spec.timing)
    _write_meta(
        outdir / f"{sspec.name}.meta.json",
        spec, sspec, trace, problem_desc, config.step_L, fstar_info,
    )
    cert_summary = None
    if spec.diagnostics and trace.method in _CERTIFIERS:
        cert = _certify(trace, model, config).to_dict()
        _write_json(outdir / f"{sspec.name}.cert.json", cert)
        cert_summary = cert["aggregate"]
    final = trace.final
    return {
        "name": sspec.name,
        "method": sspec.method,
        "termination": trace.termination,
        "iterations": trace.steps_taken,
        "final_f": final.f,
        "final_gap": None if trace.f_star is None else final.f - trace.f_star,
        "final_grad_norm": final.grad_norm,
        "certification": cert_summary,
    }


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run every solver in the spec, write traces/meta/cert files and summary.json.

    The problem is built and f* resolved before the output directory is
    created, so a spec that fails there leaves nothing on disk.
    The f* oracle, every solver and every certifier share one evaluation of
    ``f``, ``grad f`` and ``hess f`` at the start point. Solvers may run in
    parallel workers (capped by the ``PN_THREADS`` environment variable,
    default 1); each worker owns its output files.
    Every solver runs even when an earlier one fails, so the outputs do not
    depend on the worker count; the first failure is raised after
    ``summary.json`` is written.
    """
    problem_desc = _problem_desc(spec)
    model = _build_model(problem_desc)
    model, fstar_info = _resolve_fstar(spec, _share_start(model, _start_point(problem_desc, model.dim)))
    outdir = Path(spec.out)
    outdir.mkdir(parents=True, exist_ok=True)

    workers = min(len(spec.solvers), max(1, int(os.environ.get("PN_THREADS", "1"))))

    def attempt(sspec: SolverSpec):
        """``(summary entry, None)``, or ``(None, (name, error))`` when the solver fails."""
        try:
            return _run_one(spec, sspec, model, problem_desc, fstar_info, outdir), None
        except Exception as exc:
            return None, (sspec.name, exc)

    if workers == 1:
        outcomes = [attempt(sspec) for sspec in spec.solvers]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, spec.solvers))
    errors = [error for _, error in outcomes if error is not None]

    summary = {
        "problem": problem_desc,
        "seed": spec.seed,
        "f_star": model.f_star,
        "f_star_provenance": fstar_info,
        "constants": {"L": model.constants[0], "mu": model.constants[1]},
        "solvers": [entry for entry, _ in outcomes if entry is not None],
        "failed": [{"name": name, "error": str(exc)} for name, exc in errors],
    }
    _write_json(outdir / "summary.json", summary)
    if errors:
        raise errors[0][1]
    return summary


def certify_trace(trace_path, meta_path=None) -> tuple[diagnostics.ContractionReport, bool | None]:
    """Re-run contraction certification for a written trace.

    Rebuilds the problem from the meta sidecar, reconstructs the recorded
    iterates exactly and recomputes the certification report. Returns the
    report plus, when a cert file already sits next to the trace, whether the
    recomputed report reproduces it exactly (None when no cert exists).
    """
    trace_path = Path(trace_path)
    if meta_path is None:
        meta_path = trace_path.with_name(trace_path.name.replace(".trace.csv", ".meta.json"))
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta["method"] not in _CERTIFIERS:
        raise ValueError(f"certification applies to pnm/anm traces, not {meta['method']!r}")

    model = _build_model(meta["problem"])
    trace = solvers.IterateTrace(method=meta["method"], f_star=meta["f_star"])
    for k, (x, f, rho) in enumerate(zip(meta["iterates"], meta["fs"], meta["rhos"])):
        trace.records.append(
            solvers.IterateRecord(
                k=k,
                x=np.asarray(x, dtype=float),
                f=float(f),
                grad_norm=np.nan,
                rho=np.inf if rho is None else float(rho),
                step_norm_g_sq=np.nan,
                lyapunov=None,
                elapsed_ns=0,
            )
        )

    config = SolverSpec(**meta["solver"]).to_config(meta["resolved_step_L"])
    report = _certify(trace, model, config)

    cert_path = trace_path.with_name(trace_path.name.replace(".trace.csv", ".cert.json"))
    matches = None
    if cert_path.exists():
        with open(cert_path, "r", encoding="utf-8") as fh:
            existing = json.load(fh)
        matches = existing == report.to_dict()
    return report, matches
