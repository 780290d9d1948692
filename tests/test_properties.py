"""Property tests: solver invariants on random small GLMs, and parser fuzzing.

Every property runs derandomized, so a failing draw reproduces on every run.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import rand_glm
from pnewton.diagnostics import _whiten
from pnewton.errors import BadLabel, EmptyDataset, ParseError
from pnewton.harness import cli_main, load_dataset
from pnewton.harness.cli import parse_polynomial
from pnewton.linalg import as_symmetric, precond_apply, shifted, weighted_norm_sq
from pnewton.objective import glm_build
from pnewton.solvers import PenaltySchedule, PreconditionerPolicy, SolverConfig, fstar_oracle, run

GLMS = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "n": st.integers(1, 6),
    "m": st.integers(1, 40),
    "alpha": st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0]),
    "link": st.sampled_from(["logistic", "squared"]),
})

SOLVERS = [("newton", "identity"), ("damped_newton", "identity")] + [
    (method, precond) for method in ("pnm", "anm") for precond in ("identity", "hessian_diagonal")
]

GLM_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)


def _model_with_fstar(glm):
    _, model = rand_glm(**glm)
    res = fstar_oracle(model)
    return model.with_optimum(res.x_star, res.f_star)


def _config(method, precond, model, max_iters=200, **kwargs):
    return SolverConfig(
        method=method, precond=PreconditionerPolicy(precond), step_L=model.constants[0],
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


# Drawn by the property below: at k = 42 the gap sits at one ulp of f
# (1.1e-16) on both sides of the step, so the recorded V rises by 3.5e-19,
# from the step term alone. V is computed from the rounded f, so it is monotone
# only up to the rounding of f - f*.
FLOAT_FLOOR_CASE = dict(
    glm={"seed": 0, "n": 1, "m": 1, "alpha": 10.0, "link": "logistic"}, rho=0.1, precond="identity",
)


def _anm_lyapunov(glm, rho, precond):
    model = _model_with_fstar(glm)
    config = _config("anm", precond, model, schedule=PenaltySchedule.fixed(rho))
    trace = run(model, np.zeros(model.dim), config)
    return [rec.lyapunov for rec in trace.records], model.f_star


@GLM_SETTINGS
@given(
    glm=GLMS,
    rho=st.sampled_from([0.1, 1.0, 10.0, 1e3]),
    precond=st.sampled_from(["identity", "hessian_diagonal"]),
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
