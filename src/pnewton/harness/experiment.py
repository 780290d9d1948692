"""Experiment assembly and execution: specs, trace files, certification round trips.

Outputs per solver, under the experiment's output directory:

  <name>.trace.csv  one row per iteration, header ``k,f,gap,grad_norm,rho,
                    step_norm_G,lyapunov,elapsed_ns``
  <name>.meta.json  what a replay needs to re-run the solver (its settings, the
                    problem description and f*; not L) and its final iterate
  <name>.cert.json  contraction certification report (a method of
                    ``diagnostics.CERTIFIERS``, with diagnostics enabled)

plus a single ``summary.json``. Trace bytes are deterministic for a fixed
spec and seed: floats are written with shortest round-trip repr and the
elapsed column stays zero unless timing is explicitly requested.
"""

from __future__ import annotations

import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .. import diagnostics, solvers
from ..errors import ReplayMismatch
from ..linalg import is_integer, is_number, positive_integer
# glm_constants stays bound here: perfbench's tracer patches this binding
from ..objective import ObjectiveModel, glm_build, glm_constants, quadratic_model  # noqa: F401
from .datasets import DEFAULT_FORMAT, MAX_FEATURES, READERS, load_dataset, make_logistic_dataset, make_quadratic_matrix

__all__ = [
    "SolverSpec",
    "ExperimentSpec",
    "TRACE_HEADER",
    "run_experiment",
    "write_trace_csv",
    "certify_trace",
]

TRACE_HEADER = "k,f,gap,grad_norm,rho,step_norm_G,lyapunov,elapsed_ns"

#: Builtin problem -> its sizes and their defaults; the first is ``solve``'s default.
BUILTINS = {"quadratic": {"n": 8}, "logistic": {"n": 20, "m": 200}}


@dataclass
class SolverSpec:
    """One solver of an experiment: a file ``name`` and ``SolverConfig``'s fields and defaults, with ``tol`` for
    ``grad_tol``, a ``step_L`` of None for the model's ``L``, and a ``max_iters`` of its own."""

    name: str
    method: str = solvers.SolverConfig.method
    precond: str = solvers.SolverConfig.precond
    rho0: float = solvers.SolverConfig.rho0
    c: float = solvers.SolverConfig.c
    rho_max: float = solvers.SolverConfig.rho_max
    step_L: float | None = None
    tol: float = solvers.SolverConfig.grad_tol
    max_iters: int = 500  # the harness's own budget, on purpose above the library's 100

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name in ("", ".", "..") or {"/", os.sep, "\0"} & set(self.name):
            raise ValueError(f"solver name {self.name!r} is not a plain file name")
        if isinstance(self.precond, np.ndarray):  # a spec names its G; a matrix is refused as its JSON list is
            self.precond = self.precond.tolist()
        self.to_config(1.0)  # a bad preconditioner, method, penalty, step, tolerance or budget fails on load

    def to_config(self, default_step_L: float) -> solvers.SolverConfig:
        return solvers.SolverConfig(
            method=self.method, precond=self.precond, rho0=self.rho0, c=self.c, rho_max=self.rho_max,
            step_L=default_step_L if self.step_L is None else self.step_L, max_iters=self.max_iters, grad_tol=self.tol)


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment.

    ``problem`` is either ``{"path": ..., "format": ...}`` (a non-empty path, a
    format of ``READERS``) for a dataset on disk or ``{"builtin": ..., "n": ...,
    "m": ...}`` (one of ``BUILTINS``, integer sizes >= 1, ``n`` at most ``MAX_FEATURES``) for a seeded synthetic
    instance; it is checked on construction (a key outside its description is
    an error) and stored as the description every meta file and the summary
    record. ``fstar`` is
    ``{"policy": "oracle"}`` or ``{"policy": "provided", "value": <number>}``.
    ``alpha`` is a finite number, ``seed`` an integer >= 0, ``out`` a non-empty
    string, ``diagnostics`` and ``timing`` bools.
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
        fstar = self.fstar if isinstance(self.fstar, dict) else {}
        provided = fstar.keys() == {"policy", "value"} and fstar["policy"] == "provided" and is_number(fstar["value"])
        if fstar != {"policy": "oracle"} and not provided:
            raise ValueError('fstar must be {"policy": "oracle"} or '
                             f'{{"policy": "provided", "value": <finite number>}}, got {self.fstar!r}')
        for name, ok, wanted in (("alpha", is_number(self.alpha), "a finite number"),
                                 ("seed", is_integer(self.seed) and self.seed >= 0, "an integer >= 0"),
                                 ("out", isinstance(self.out, str) and self.out != "", "a non-empty string"),
                                 ("out", "\0" not in str(self.out), "free of NUL bytes"),
                                 ("diagnostics", isinstance(self.diagnostics, bool), "true or false"),
                                 ("timing", isinstance(self.timing, bool), "true or false")):
            if not ok:
                raise ValueError(f"{name} must be {wanted}, got {getattr(self, name)!r}")
        self.problem = _problem_desc(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        if not isinstance(d, dict):
            raise ValueError(f"a spec must be a JSON object, got {d!r}")
        solver_dicts = d.get("solvers", [])
        if not isinstance(solver_dicts, list) or not all(isinstance(s, dict) for s in solver_dicts):
            raise ValueError(f"solvers must be a list of objects, got {solver_dicts!r}")
        spec = cls(**{**d, "solvers": [SolverSpec(**s) for s in solver_dicts]})
        # checked here, not on construction, so dataclasses.replace(spec, seed=...) re-derives the description
        given = d["problem"]
        for key in ("seed", "alpha", "link"):
            if key in given and given[key] != spec.problem[key]:
                raise ValueError(f"problem {key} {given[key]!r} differs from the spec's {key} {spec.problem[key]!r}")
        return spec

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentSpec":
        return cls.from_dict(_read_json(path))


def _size(problem: dict, key: str, default: int) -> int:
    return positive_integer(f"a builtin problem's {key}", problem.get(key, default))


def _problem_desc(spec: ExperimentSpec) -> dict:
    """The problem description of ``spec`` that meta and summary files record; a description maps to itself."""
    problem = spec.problem if isinstance(spec.problem, dict) else {}
    kind = problem.get("builtin")
    if kind is not None and spec.link != "logistic":
        raise ValueError(f"a builtin problem takes only the default link 'logistic', got {spec.link!r}")
    if isinstance(kind, str) and kind in BUILTINS:
        sizes = {key: _size(problem, key, default) for key, default in BUILTINS[kind].items()}
        if sizes["n"] > MAX_FEATURES:
            raise ValueError(f"a builtin problem's n {sizes['n']} exceeds the limit of {MAX_FEATURES}")
        desc = {"builtin": kind, **sizes, "seed": spec.seed}
        if kind == "logistic":
            desc["alpha"] = spec.alpha
    elif kind is not None or "path" not in problem:
        raise ValueError(f'problem must be {{"path": ..., "format": {"|".join(map(json.dumps, READERS))}}} or '
                         f'{{"builtin": {"|".join(map(json.dumps, BUILTINS))}, "n": ..., "m": ...}}, '
                         f'got {spec.problem!r}')
    else:
        desc = {"path": problem["path"], "format": problem.get("format", DEFAULT_FORMAT),
                "link": spec.link, "alpha": spec.alpha}
        if not (isinstance(desc["path"], str) and desc["path"]):
            raise ValueError(f"problem path must be a non-empty string, got {desc['path']!r}")
        if "\0" in desc["path"]:
            raise ValueError(f"problem path must be free of NUL bytes, got {desc['path']!r}")
        if not (isinstance(desc["format"], str) and desc["format"] in READERS):
            raise ValueError(f"unknown problem format {desc['format']!r}; choose {' or '.join(READERS)}")
    unknown = [key for key in problem if key not in desc]
    if unknown:
        raise ValueError(f"unknown problem key {unknown[0]!r}; this problem takes only {list(desc)}")
    return desc


def _build_model(problem: dict):
    """The objective model of a problem description: a spec's for a run, a meta file's for a replay."""
    kind = problem.get("builtin")
    if kind == "quadratic":
        return quadratic_model(make_quadratic_matrix(problem["n"], seed=problem["seed"]))
    if kind == "logistic":
        A, labels = make_logistic_dataset(problem["n"], problem["m"], seed=problem["seed"])
    else:
        A, labels = load_dataset(problem["path"], problem["format"], link=problem["link"])
    A.setflags(write=False)  # nothing else holds A, so GlmProblem keeps it instead of copying it
    return glm_build(A, problem.get("link", "logistic"), problem["alpha"], labels).model()


def _resolve_fstar(spec: ExperimentSpec, model):
    """``model`` with f* attached, and the record of where f* came from."""
    if spec.fstar["policy"] == "provided":
        return replace(model, f_star=float(spec.fstar["value"])), {"policy": "provided"}
    if model.f_star is not None:
        return model, {"policy": "known"}
    trace = solvers.fstar_oracle(model)
    info = {
        "policy": "oracle",
        "terminal_grad_norm": trace.final.grad_norm,
        "iterations": trace.steps_taken,
        "converged": trace.termination == "converged",
    }
    return replace(model, f_star=trace.final.f), info


def _read_json(path):
    """The JSON document in the file at ``path``; a document that does not parse is an error naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError while reading
            raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:  # streamed: no whole-document string in memory
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _trace_lines(trace: solvers.IterateTrace, timing: bool) -> list[str]:
    """The lines of ``trace``'s CSV file, header first; ``elapsed_ns`` is 0 unless ``timing``."""
    lines = [TRACE_HEADER]
    for rec in trace.records:
        gap = None if trace.f_star is None else rec.f - trace.f_star
        floats = [rec.f, gap, rec.grad_norm, rec.rho, rec.step_norm_g_sq, rec.lyapunov]
        lines.append(",".join([str(rec.k), *map(_fmt, floats), str(rec.elapsed_ns if timing else 0)]))
    return lines


def write_trace_csv(trace: solvers.IterateTrace, path, timing: bool = False) -> None:
    """Write a trace in the documented CSV schema (deterministic bytes by default)."""
    Path(path).write_text("\n".join(_trace_lines(trace, timing)) + "\n", encoding="utf-8")


def _write_meta(path, spec: ExperimentSpec, sspec: SolverSpec, trace, fstar_info):
    meta = {
        "solver": asdict(sspec),
        "problem": spec.problem,
        "termination": trace.termination,
        "steps_taken": trace.steps_taken,
        "f_star": trace.f_star,
        "f_star_provenance": fstar_info,
        "x_final": trace.final.x.tolist(),
    }
    _write_json(path, meta)


def _certify(trace, model) -> diagnostics.ContractionReport:
    # looked up on ``diagnostics`` per call, so a wrapped certifier is the one called
    return getattr(diagnostics, diagnostics.CERTIFIERS[trace.config.method])(trace, model)


def _start_point(problem: dict, dim: int) -> np.ndarray:
    """The point every solver of a run starts from; the f* oracle starts at zeros too."""
    # zeros is the conventional GLM start; the builtin quadratic is minimized
    # at the origin, so start it from the all-ones point instead
    if problem.get("builtin") == "quadratic":
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


def _run_one(spec: ExperimentSpec, sspec: SolverSpec, model, fstar_info, outdir: Path):
    trace = solvers.run(model, _start_point(spec.problem, model.dim), sspec.to_config(model.constants.L))
    write_trace_csv(trace, outdir / f"{sspec.name}.trace.csv", timing=spec.timing)
    _write_meta(outdir / f"{sspec.name}.meta.json", spec, sspec, trace, fstar_info)
    cert_summary = None
    if spec.diagnostics and trace.config.method in diagnostics.CERTIFIERS:
        cert = _certify(trace, model).to_dict()
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
    threads = os.environ.get("PN_THREADS", "1")
    if not threads.strip().isdecimal() or int(threads) < 1:
        raise ValueError(f"PN_THREADS must be an integer >= 1, got {threads!r}")
    workers = min(len(spec.solvers), int(threads))
    model = _build_model(spec.problem)
    model, fstar_info = _resolve_fstar(spec, _share_start(model, _start_point(spec.problem, model.dim)))
    outdir = Path(spec.out)
    outdir.mkdir(parents=True, exist_ok=True)

    def attempt(sspec: SolverSpec):
        """``(summary entry, None)``, or ``(None, (name, error))`` when the solver fails."""
        try:
            return _run_one(spec, sspec, model, fstar_info, outdir), None
        except Exception as exc:
            return None, (sspec.name, exc)

    if workers == 1:
        outcomes = [attempt(sspec) for sspec in spec.solvers]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, spec.solvers))
    errors = [error for _, error in outcomes if error is not None]

    summary = {
        "problem": spec.problem,
        "f_star": model.f_star,
        "f_star_provenance": fstar_info,
        "constants": model.constants._asdict(),
        "solvers": [entry for entry, _ in outcomes if entry is not None],
        "failed": [{"name": name, "error": str(exc)} for name, exc in errors],
    }
    _write_json(outdir / "summary.json", summary)
    if errors:
        raise errors[0][1]
    return summary


def _read_meta(meta_path) -> tuple[ObjectiveModel, dict, SolverSpec, object]:
    """The model with f*, problem, solver and ``x_final`` of a meta file; an error in all but ``x_final`` names it."""
    meta = _read_json(meta_path)
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path} does not hold a JSON object")
    try:
        solver, problem, f_star, x_final = (meta[key] for key in ("solver", "problem", "f_star", "x_final"))
    except KeyError as exc:
        raise ValueError(f"{meta_path} has no {exc} key") from None
    try:
        if not isinstance(solver, dict):
            raise ValueError(f"solver must be an object, got {solver!r}")
        sspec, given = SolverSpec(**solver), problem if isinstance(problem, dict) else {}
        spec = ExperimentSpec(problem, [sspec], **{k: given[k] for k in ("link", "alpha", "seed") if k in given})
        if spec.problem != problem:
            raise ValueError(f"problem {problem!r} is not the description a run records, {spec.problem!r}")
        if not is_number(f_star):
            raise ValueError(f"f_star must be a finite number, got {f_star!r}")
        if sspec.method not in (certified := diagnostics.CERTIFIERS):
            raise ValueError(f"certification applies to {'/'.join(certified)} traces, not {sspec.method!r}")
        model = replace(_build_model(problem), f_star=f_star)  # the library may refuse: no file, a bad alpha or link
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    return model, problem, sspec, x_final


def certify_trace(trace_path) -> tuple[diagnostics.ContractionReport, bool | None]:
    """Re-run the solver of a written trace ``<name>.trace.csv`` as a run does, and certify the re-run.

    The meta ``<name>.meta.json`` gives the solver settings, the problem and
    f*; one that no run writes is an input error naming the file. A re-run
    that does not reproduce the trace's bytes (any digits in ``elapsed_ns``,
    which ``--timing`` fills, aside) or the meta's ``x_final`` bit for bit
    raises :class:`ReplayMismatch`, naming the first differing, missing or
    extra line, or the key. Returns the report plus whether it reproduces
    ``<name>.cert.json`` (None when there is none).
    """
    trace_path = Path(trace_path)
    stem = trace_path.name.removesuffix(".trace.csv")
    if stem == trace_path.name:
        raise ValueError(f"{trace_path} is not named <name>.trace.csv, so it has no meta or cert file")
    meta_path = trace_path.with_name(f"{stem}.meta.json")
    lines = [re.sub(rb",\d+\Z", b",0", line) for line in trace_path.read_bytes().splitlines()]
    model, problem, sspec, x_final = _read_meta(meta_path)
    trace = solvers.run(model, _start_point(problem, model.dim), sspec.to_config(model.constants.L))
    rerun = [line.encode() for line in _trace_lines(trace, timing=False)]
    for lineno, (want, got) in enumerate(zip_longest(rerun, lines), start=1):
        if got != want:
            what = "is missing" if got is None else "is extra" if want is None else "differs"
            raise ReplayMismatch(f"{trace_path} line {lineno} {what}, against the re-run of {meta_path} "
                                 f"({len(rerun)} lines)")
    if json.dumps(x_final) != json.dumps(trace.final.x.tolist()):
        raise ReplayMismatch(f"{meta_path}: x_final is not the re-run's final iterate")
    report = _certify(trace, model)
    cert_path = trace_path.with_name(f"{stem}.cert.json")
    return report, _read_json(cert_path) == report.to_dict() if cert_path.exists() else None
