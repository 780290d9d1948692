"""Property tests: solver invariants on random small GLMs, parser fuzzing and the run contract.

Every property runs derandomized, so a failing draw reproduces on every run.
"""

import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import fixed_rho, rand_glm
from pnewton.diagnostics import _whiten, certify_penalty_contraction
from pnewton.errors import BadLabel, EmptyDataset, ParseError
from pnewton.harness import cli_main, load_dataset
from pnewton.harness.cli import parse_polynomial
from pnewton.harness.datasets import READERS
from pnewton.harness.experiment import ExperimentSpec, _build_model
from pnewton.linalg import as_symmetric, precond_apply, shifted, weighted_norm_sq
from pnewton.objective import LINK_CURVATURE, glm_build
from pnewton.solvers import METHODS, PRECONDITIONERS, SolverConfig, fstar_oracle, run

GLMS = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "n": st.integers(1, 6),
    "m": st.integers(1, 40),
    "alpha": st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0]),
    "link": st.sampled_from(["logistic", "squared"]),
})

SOLVERS = [("newton", "identity"), ("damped_newton", "identity")] + [
    (method, precond) for method in ("pnm", "anm") for precond in PRECONDITIONERS
]

GLM_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)


def _model_with_fstar(glm):
    _, model = rand_glm(**glm)
    return dataclasses.replace(model, f_star=fstar_oracle(model).final.f)


def _config(method, precond, model, max_iters=200, **kwargs):
    return SolverConfig(
        method=method, precond=precond, step_L=model.constants[0],
        max_iters=max_iters, **kwargs,
    )


@GLM_SETTINGS
@given(glm=GLMS)
def test_every_method_records_a_finite_trace(glm):
    model = _model_with_fstar(glm)
    for method, precond in SOLVERS:
        trace = run(model, np.zeros(model.dim), _config(method, precond, model, max_iters=50))
        assert trace.termination != "diverged", (method, precond)
        for rec in trace.records:
            columns = [rec.f, rec.grad_norm, rec.step_norm_g_sq]
            if method in ("pnm", "anm"):
                columns += [rec.rho, rec.lyapunov]
            assert np.isfinite(rec.x).all() and np.isfinite(columns).all(), (method, precond, rec.k)


@GLM_SETTINGS
@given(glm=GLMS)
def test_damped_newton_never_increases_f(glm):
    _, model = rand_glm(**glm)
    trace = run(model, np.zeros(model.dim), _config("damped_newton", "identity", model))
    fs = [rec.f for rec in trace.records]
    assert all(b <= a for a, b in zip(fs, fs[1:])), fs


@GLM_SETTINGS
@given(
    glm=GLMS,
    rho=st.sampled_from([1e-2, 0.1, 1.0, 10.0, 1e3]),
    precond=st.sampled_from(PRECONDITIONERS),
)
def test_pnm_eta_stays_below_newtons_mu_over_l_at_finite_rho(glm, rho, precond):
    # eta = (mu/L) xi (1 + beta/rho), with xi <= t and beta/rho = 1 - t for t = rho lam_max / (1 + rho lam_max) on
    # the whitened spectrum, so eta <= (mu/L) (1 - (1 - t)^2) < mu/L: the penalty factor never reaches Newton's.
    # lam_max is read here off the generalized problem H v = lam G v, not the certifier's whitening
    model = _model_with_fstar(glm)
    L, mu = model.constants
    trace = run(model, np.zeros(model.dim), _config("pnm", precond, model, max_iters=20,
                                                    **fixed_rho(rho)))
    for e in certify_penalty_contraction(trace, model).entries:
        H, G = trace.config.step_inputs(model, trace.records[e.k].x)
        lam_max = scipy.linalg.eigh(H, np.diag(G) if G.ndim == 1 else G, eigvals_only=True)[-1]
        t = rho * lam_max / (1.0 + rho * lam_max)
        bound = mu / L * t * (2.0 - t)  # 1 - (1 - t)^2, without its cancellation at small t
        assert e.eta <= bound * (1.0 + 1e-12) and bound < mu / L, (e.k, e.eta, bound, mu / L)


# Drawn by the property below: at k = 42 the gap sits at one ulp of f
# (1.1e-16) on both sides of the step, so the recorded V rises by 3.5e-19,
# from the step term alone. V is computed from the rounded f, so it is monotone
# only up to the rounding of f - f*.
FLOAT_FLOOR_CASE = dict(
    glm={"seed": 0, "n": 1, "m": 1, "alpha": 10.0, "link": "logistic"}, rho=0.1, precond="identity",
)


def _anm_lyapunov(glm, rho, precond):
    model = _model_with_fstar(glm)
    config = _config("anm", precond, model, **fixed_rho(rho))
    trace = run(model, np.zeros(model.dim), config)
    return [rec.lyapunov for rec in trace.records], model.f_star


@GLM_SETTINGS
@given(
    glm=GLMS,
    rho=st.sampled_from([0.1, 1.0, 10.0, 1e3]),
    precond=st.sampled_from(PRECONDITIONERS),
)
@example(**FLOAT_FLOOR_CASE)
def test_anm_lyapunov_never_increases_at_fixed_rho(glm, rho, precond):
    values, f_star = _anm_lyapunov(glm, rho, precond)
    rounding = 4.0 * np.finfo(float).eps * (1.0 + abs(f_star))
    assert all(b <= a + rounding for a, b in zip(values, values[1:])), values


@pytest.mark.xfail(strict=True, reason="V rises by 3.5e-19 once f - f* is one ulp of f")
def test_anm_lyapunov_strictly_monotone_at_the_float_floor():
    values, _ = _anm_lyapunov(**FLOAT_FLOOR_CASE)
    assert all(b <= a for a, b in zip(values, values[1:]))


def _same_bits(a, b) -> bool:
    """Equal values, NaN in the same places and the same sign on every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


# The fast routes below must reproduce their dense references bit for bit:
# run traces, meta and cert files are pinned byte for byte.
BITWISE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@BITWISE_SETTINGS
@given(glm=GLMS, zeros=st.sampled_from([0.0, 0.3, 0.9]))
def test_hessian_in_place_matches_dense_expression(glm, zeros):
    rng = np.random.default_rng(glm["seed"])
    n, m = glm["n"], glm["m"]
    A = np.where(rng.random((n, m)) < zeros, 0.0, rng.standard_normal((n, m)))
    labels = np.where(rng.random(m) < 0.5, 1.0, -1.0) if glm["link"] == "logistic" else rng.standard_normal(m)
    problem = glm_build(A, glm["link"], glm["alpha"], labels)
    x = np.where(rng.random(n) < zeros, 0.0, 3.0 * rng.standard_normal(n))
    _, _, d2 = problem._loss_terms(A.T @ x)
    H_ref = (A * d2) @ A.T / m + glm["alpha"] * np.eye(n)
    H = problem.hessian(x)
    assert _same_bits(H, 0.5 * (H_ref + H_ref.T))
    assert as_symmetric(H) is H  # exactly symmetric, so it passes through uncopied


def _signed_zeros(rng, a, frac):
    """``a`` with a fraction ``frac`` of its entries set to +0.0 or -0.0."""
    return np.where(rng.random(a.shape) < frac, np.where(rng.random(a.shape) < 0.5, 0.0, -0.0), a)


@BITWISE_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 9),
    zeros=st.sampled_from([0.0, 0.3, 0.9]),
    g_scale=st.sampled_from([1.0, 1e-150, 1e150]),
    rho=st.sampled_from([1e-3, 1.0, 7.5, 1e12]),
)
def test_diagonal_g_vector_routes_match_dense_diag(seed, n, zeros, g_scale, rho):
    rng = np.random.default_rng(seed)
    B = _signed_zeros(rng, rng.standard_normal((n, n)), zeros)
    H = np.where(np.tri(n, dtype=bool), B, B.T)  # symmetric, zeros of both signs included
    g = g_scale * rng.uniform(0.25, 4.0, n)
    # no product g_i v_i underflows to zero: there a fused multiply-add in the
    # BLAS kernel keeps the sign of the exact product, a plain multiply does not
    v = _signed_zeros(rng, rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n), zeros)
    G = np.diag(g)
    assert _same_bits(precond_apply(g, v), G @ v)
    assert _same_bits(shifted(H, g, rho), G / rho + H)
    assert _same_bits(weighted_norm_sq(v, g), weighted_norm_sq(v, G))
    # the rescaling route as it read when G came as a dense diagonal matrix
    s = 1.0 / np.sqrt(np.diag(G))
    W_ref = (H * s[:, None]) * s[None, :]
    c, W = _whiten(H, g)
    assert _same_bits(c, np.sqrt(g))
    assert _same_bits(W, 0.5 * (W_ref + W_ref.T))


INPUT_ERRORS = (ParseError, EmptyDataset, BadLabel, ValueError)

POLY_TEXT = st.one_of(st.text(alphabet="x^+-*.0123456789 e", max_size=24), st.text(max_size=12))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=POLY_TEXT)
def test_polynomial_parser_raises_only_input_errors(text):
    try:
        parse_polynomial(text)
    except INPUT_ERRORS:
        # the CLI parses before iterating, so this costs no root finding
        assert cli_main(["demo-root", f"--poly={text}", "--x0", "1"]) == 2


CSV_BYTES = st.one_of(
    st.text(alphabet="0123456789.,-+e \nnaif", max_size=60).map(str.encode),
    st.binary(max_size=40),
)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=CSV_BYTES)
def test_csv_reader_raises_only_input_errors(tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    try:
        load_dataset(path, "csv", link="logistic")
    except INPUT_ERRORS:
        # loading fails before any solver runs
        code = cli_main(["solve", "--method", "pnm", "--dataset", str(path), "--link", "logistic",
                         "--out", str(tmp_path / "out")])
        assert code == 2


LIBSVM_BYTES = st.one_of(
    st.text(alphabet="0123456789.:-+e #\nnaif", max_size=60).map(str.encode),
    st.text(max_size=30).map(str.encode),
    st.binary(max_size=40),
)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=LIBSVM_BYTES)
@example(data=b"1 2000000:1\n")
@example(data=b"1 1:0.5 3:1 3:2\n")
def test_libsvm_reader_raises_only_input_errors(tmp_path, data):
    path = tmp_path / "fuzz.libsvm"
    path.write_bytes(data)
    try:
        load_dataset(path, "libsvm", link="logistic")
    except INPUT_ERRORS:
        # loading fails before any solver runs
        code = cli_main(["solve", "--method", "pnm", "--dataset", str(path), "--format", "libsvm",
                         "--link", "logistic", "--out", str(tmp_path / "out")])
        assert code == 2


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


RUN_FIELDS = {
    "alpha": _log_uniform(1e-3, 10.0),
    "seed": st.integers(0, 2**16),
    "diagnostics": st.just(True),
    "timing": st.booleans(),
    "solvers": st.lists(st.fixed_dictionaries({
        "method": st.sampled_from(["pnm", "anm"]),
        "precond": st.sampled_from(sorted(PRECONDITIONERS)),
        "rho0": _log_uniform(1e-2, 1e2),
        "c": st.floats(1.0, 4.0),
        "rho_max": st.sampled_from([SolverConfig.rho_max, float("inf")]),  # inf: an uncapped penalty
        "step_L": st.one_of(st.none(), st.floats(1.0, 4.0)),  # null, or a multiple of the model's L (see below)
        "max_iters": st.integers(1, 200),  # small alpha needs thousands of steps: keep exit 1 cheap
    }), min_size=1, max_size=3).map(lambda solvers: [{"name": f"s{i}", **s} for i, s in enumerate(solvers)]),
}

RUN_SPECS = st.fixed_dictionaries({
    "problem": st.one_of(  # the quadratic knows its f* and starts at ones, the logistic at zeros
        st.fixed_dictionaries({"builtin": st.just("quadratic"), "n": st.integers(1, 11)}),
        st.fixed_dictionaries({"builtin": st.just("logistic"), "n": st.integers(1, 11), "m": st.integers(1, 39)}),
    ),
    **RUN_FIELDS,
})

#: a dataset spec's problem holds the file's format and sizes until the test writes the file it names
DATASET_SPECS = st.fixed_dictionaries({
    "problem": st.fixed_dictionaries({"format": st.sampled_from(sorted(READERS)), "n": st.integers(1, 6),
                                      "m": st.integers(1, 30)}),
    "link": st.sampled_from(sorted(LINK_CURVATURE)),
    **RUN_FIELDS,
})


def _write_dataset(path: Path, fmt: str, n: int, m: int, link: str, seed: int) -> None:
    """A seeded n x m matrix and its labels (0/1 for the logistic link, real for the squared) as a dataset file."""
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((n, m)) / np.sqrt(n)).T.tolist()  # one row per sample
    labels = rng.integers(0, 2, m).astype(float) if link == "logistic" else rng.standard_normal(m)
    if fmt == "csv":
        rows = [",".join(map(repr, [*a, y])) for a, y in zip(A, labels.tolist())]
    else:
        rows = [" ".join([repr(y), *(f"{i}:{v!r}" for i, v in enumerate(a, start=1))])
                for a, y in zip(A, labels.tolist())]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _zero_elapsed(name: str, data: bytes) -> bytes:
    """``data`` of the output file ``name``, a trace's ``elapsed_ns`` column zeroed as an untimed run writes it."""
    return re.sub(rb",\d+$", b",0", data, flags=re.M) if name.endswith(".trace.csv") else data


def _check_run_contract(tmp: Path, monkeypatch, capsys, spec: dict, provided: bool) -> None:
    """Run ``spec`` in ``tmp`` at ``PN_THREADS=1`` and ``=2``: exit codes, equal bytes, and every replay matching."""
    model = _build_model(ExperimentSpec.from_dict(spec).problem)
    # a drawn step_L is a multiple >= 1 of the model's L: the replay runs both the L it derives and the L it is given
    spec = {**spec, "solvers": [{**s, "step_L": None if s["step_L"] is None else s["step_L"] * model.constants[0]}
                                for s in spec["solvers"]]}
    if provided:  # the oracle's own value, so the run converges as with the oracle
        spec = {**spec, "fstar": {"policy": "provided", "value": fstar_oracle(model).final.f}}
    written = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("PN_THREADS", threads)
        out = tmp / threads
        path = tmp / f"spec{threads}.json"
        path.write_text(json.dumps({**spec, "out": str(out)}))
        code = cli_main(["run", str(path)])
        summary = json.loads((out / "summary.json").read_text())
        converged = all(entry["termination"] == "converged" for entry in summary["solvers"])
        assert code == (0 if converged else 1), summary
        written[threads] = {p.name: _zero_elapsed(p.name, p.read_bytes()) for p in sorted(out.iterdir())}
    assert written["1"] == written["2"]
    capsys.readouterr()
    for solver in spec["solvers"]:
        assert cli_main(["certify", "--trace", str(out / f"{solver['name']}.trace.csv")]) == 0
        assert capsys.readouterr().out.endswith("matches stored certification: True\n"), solver


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=RUN_SPECS, provided=st.booleans())
def test_run_contract_over_builtin_specs(tmp_path, monkeypatch, capsys, spec, provided):
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        _check_run_contract(Path(tmp), monkeypatch, capsys, spec, provided)


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=DATASET_SPECS, provided=st.booleans())
def test_run_contract_over_dataset_specs(tmp_path, monkeypatch, capsys, spec, provided):
    # csv and libsvm files under both links; the replay reads the file again through the meta's problem path
    fmt, n, m = (spec["problem"][key] for key in ("format", "n", "m"))
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        data = Path(tmp) / f"data.{fmt}"
        _write_dataset(data, fmt, n, m, spec["link"], spec["seed"])
        _check_run_contract(Path(tmp), monkeypatch, capsys, {**spec, "problem": {"path": str(data), "format": fmt}},
                            provided)


ACCEPTED_SPECS = st.fixed_dictionaries({
    "problem": st.one_of(
        st.fixed_dictionaries({"builtin": st.just("quadratic"), "n": st.integers(1, 9)}),
        st.fixed_dictionaries({"builtin": st.just("logistic"), "n": st.integers(1, 11), "m": st.integers(1, 39)}),
    ),
    "alpha": _log_uniform(1e-3, 10.0),
    "seed": st.integers(0, 2**16),
    "diagnostics": st.booleans(),
    "timing": st.booleans(),
    "fstar": st.just({"policy": "oracle"}),
    "solvers": st.lists(st.fixed_dictionaries({
        "method": st.sampled_from(METHODS),
        "precond": st.sampled_from(sorted(PRECONDITIONERS)),
        "rho0": _log_uniform(1e-2, 1e2),
        "c": st.floats(1.0, 4.0),
        "tol": _log_uniform(1e-12, 1e-4),
        "max_iters": st.integers(1, 200),
    }), min_size=1, max_size=3).map(lambda solvers: [{"name": f"s{i}", **s} for i, s in enumerate(solvers)]),
})

#: (field, a value the spec reader refuses, the words of the error line that name the field);
#: ``n`` and ``m`` sit in the problem, a solver's fields in one of the solvers, the rest at the top
REFUSALS = [
    ("n", 0, "problem's n "), ("n", -3, "problem's n "), ("n", 2.5, "problem's n "), ("m", 0, "problem's m "),
    ("alpha", "0.1", "alpha "), ("seed", -1, "seed "), ("out", "", "out "), ("diagnostics", "no", "diagnostics "),
    ("timing", 1, "timing "), ("fstar", {"policy": "oracle", "value": 3}, "fstar "),
    ("name", "a/b", "solver name "), ("method", "bfgs", "method "), ("precond", "hessian_diagonal", "preconditioner "),
    ("rho0", 0.0, "rho0 "), ("c", 0.5, "growth factor c "), ("rho_max", 1e-3, "rho_max "),
    ("step_L", float("inf"), "step constant L "), ("tol", -1.0, "tol "), ("max_iters", 0, "max_iters "),
]

#: an accepted quadratic spec, tried with every refusal: its n = 0 must be refused like the logistic's
QUADRATIC = {"problem": {"builtin": "quadratic", "n": 8}, "alpha": 0.1, "seed": 0, "diagnostics": False,
             "timing": False, "fstar": {"policy": "oracle"},
             "solvers": [{"name": "s0", "method": "pnm", "precond": "identity", "rho0": 1.0, "c": 2.0, "tol": 1e-8,
                          "max_iters": 100}]}


@pytest.mark.parametrize("field, value, words", REFUSALS, ids=[f"{f}={v!r}" for f, v, _ in REFUSALS])
@settings(max_examples=4, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=ACCEPTED_SPECS, which=st.integers(0, 2))
@example(spec=QUADRATIC, which=0)
def test_a_refused_field_exits_2_naming_it_before_any_output(tmp_path, monkeypatch, capsys, field, value, words,
                                                            spec, which):
    assume(field != "m" or "m" in spec["problem"])
    monkeypatch.setattr("pnewton.solvers.fstar_oracle", lambda model: pytest.fail("the f* oracle ran"))
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        out = Path(tmp) / "out"
        spec = json.loads(json.dumps({**spec, "out": str(out)}))  # a deep copy: QUADRATIC is shared by every case
        if field in ("n", "m"):
            spec["problem"][field] = value
        elif field in spec:
            spec[field] = value
        else:
            spec["solvers"][which % len(spec["solvers"])][field] = value
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli_main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert words in captured.err, captured.err
        assert not out.exists() and not any(p.is_dir() for p in Path(tmp).iterdir())
