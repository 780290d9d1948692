import dataclasses
import re
import types

import numpy as np
import pytest

from conftest import fixed_rho, rand_glm
from pnewton.errors import (
    DenominatorVanished,
    MaxIterationsExceeded,
    NotPositiveDefinite,
    RangeViolation,
)
from pnewton.harness import make_logistic_dataset
from pnewton.harness.experiment import _resolve_fstar
from pnewton.linalg import spd_solve, weighted_norm_sq
from pnewton.objective import GlmProblem, ObjectiveModel, glm_build, quadratic_model
from pnewton.solvers import (
    BT_BETA,
    SolverConfig,
    anm_step_dual,
    anm_step_momentum,
    fstar_oracle,
    newton_step,
    pnm_step,
    root_augmented_newton,
    root_penalty_newton,
    run,
)

SCALAR = quadratic_model(np.eye(1))


def with_fstar(model):
    return dataclasses.replace(model, f_star=fstar_oracle(model).final.f)


# ---------------------------------------------------------------------------
# Newton baselines
# ---------------------------------------------------------------------------

def test_newton_step_exact_on_quadratic():
    model = quadratic_model(np.eye(2))
    assert np.allclose(newton_step(model, np.array([2.0, 2.0]), 1.0), 0.0)
    assert np.allclose(newton_step(model, np.array([2.0, 2.0]), 2.0), [1.0, 1.0])


def test_newton_step_agrees_with_direct_solve_on_glm():
    # PD Hessian: the pseudo-inverse route must match a plain SPD solve
    _, model = rand_glm(3, n=6, m=30)
    L = model.constants[0]
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(6)
        via_pinv = newton_step(model, x, L)
        via_solve = x - spd_solve(model.hessian(x), model.gradient(x)) / L
        assert np.linalg.norm(via_pinv - via_solve) <= 1e-8


def test_newton_step_range_violation():
    model = ObjectiveModel(
        dim=2,
        value=lambda x: float(x[1]),
        gradient=lambda x: np.array([0.0, 1.0]),
        hessian=lambda x: np.diag([1.0, 0.0]),
    )
    with pytest.raises(RangeViolation):
        newton_step(model, np.zeros(2), 1.0)


def test_damped_newton_one_step_on_quadratic():
    model = quadratic_model(np.eye(2))
    trace = run(model, np.array([3.0, -4.0]), SolverConfig(method="damped_newton"))
    assert trace.termination == "converged"
    assert trace.steps_taken == 1
    assert np.allclose(trace.final.x, 0.0)


def test_damped_newton_logistic_regression_fixture():
    _, model = rand_glm(21, n=5, m=40)
    cfg = SolverConfig(method="damped_newton", grad_tol=1e-10, max_iters=30)
    trace = run(model, np.zeros(5), cfg)
    assert trace.termination == "converged"
    assert trace.final.grad_norm <= 1e-10
    assert trace.steps_taken <= 30


def test_damped_newton_monotone_f():
    _, model = rand_glm(22, n=6, m=50)
    trace = run(model, np.zeros(6), SolverConfig(method="damped_newton"))
    fs = [r.f for r in trace.records]
    assert all(b <= a for a, b in zip(fs, fs[1:]))


def test_damped_newton_stall_on_jump_model():
    # value jumps up everywhere away from the start, so no step can be accepted: the line search tries
    # t = 1, 1/2, ..., 2^-53, 54 trials, and stops at 2^-54, the first power of 1/2 below 1e-16
    trials = []

    def value(x):
        if x[0] != 0.0:
            trials.append(float(x[0]))
        return 0.0 if x[0] == 0.0 else 1.0

    model = ObjectiveModel(dim=1, value=value, gradient=lambda x: np.array([-1.0]), hessian=lambda x: np.eye(1))
    trace = run(model, np.zeros(1), SolverConfig(method="damped_newton"))
    assert trace.termination == "stalled" and trace.steps_taken == 0
    assert len(trace.records) == 1 and np.array_equal(trace.final.x, [0.0])  # the partial trace ends where it stalled
    assert len(trials) == 54 and trials[-1] == 2.0**-53


@pytest.mark.parametrize("excess, halvings", [(8, 0), (32, 1)])
def test_damped_newton_ties_within_16_eps_of_f_and_no_more(excess, halvings):
    # the Newton decrement (1e-24) is far below the resolution of f = 1, so only the tie band 16 eps (1 + |f|)
    # decides: a full step that raises f by 8 eps (1 + |f|) is taken, one that raises it by 32 eps (1 + |f|) halved
    eps, d = np.finfo(float).eps, 1e-12
    model = ObjectiveModel(
        dim=1,
        value=lambda x: 1.0 + excess * eps * 2.0 if x[0] == -d else (1.0 if x[0] == 0.0 else 0.5),
        gradient=lambda x: np.array([d]),
        hessian=lambda x: np.eye(1),
    )
    trace = run(model, np.zeros(1), SolverConfig(method="damped_newton", grad_tol=1e-300, max_iters=1))
    assert trace.steps_taken == 1 and trace.final.x[0] == -d * BT_BETA**halvings


# ---------------------------------------------------------------------------
# Penalty Newton
# ---------------------------------------------------------------------------

def test_pnm_step_scalar_hand_arithmetic():
    x = pnm_step(SCALAR, np.array([2.0]), rho=1.0, G=np.eye(1), step_L=1.0)
    assert x[0] == pytest.approx(1.0, abs=1e-15)


def test_pnm_step_newton_limit_scalar():
    x = pnm_step(SCALAR, np.array([2.0]), rho=1e12, G=np.eye(1), step_L=1.0)
    assert abs(x[0]) <= 1e-11


def test_pnm_step_fixed_point_at_stationarity():
    model = quadratic_model(np.eye(3))
    x = np.zeros(3)
    assert np.array_equal(pnm_step(model, x, 7.0, np.eye(3), 1.0), x)


def test_pnm_run_halving_trace():
    cfg = SolverConfig(
        method="pnm", rho0=1.0, c=1.0, grad_tol=1e-300, max_iters=4
    )
    trace = run(SCALAR, np.array([2.0]), cfg)
    xs = [r.x[0] for r in trace.records]
    assert np.allclose(xs, [2.0, 1.0, 0.5, 0.25, 0.125], rtol=1e-14, atol=0.0)
    ratios = [b / a for a, b in zip(xs, xs[1:])]
    assert np.allclose(ratios, 0.5, rtol=1e-14, atol=0.0)


def test_pnm_run_matches_closed_form_recurrence():
    # growing penalty: x_{k+1} = x_k / (1 + rho_k), rho_{k+1} = 10 rho_k
    cfg = SolverConfig(
        method="pnm", rho0=1.0, c=10.0, grad_tol=1e-300, max_iters=5
    )
    trace = run(SCALAR, np.array([2.0]), cfg)
    x, rho, expected = 2.0, 1.0, [2.0]
    for _ in range(5):
        x = x / (1.0 + rho)
        rho = min(10.0 * rho, 1e12)
        expected.append(x)
    xs = [r.x[0] for r in trace.records]
    assert np.allclose(xs, expected, rtol=0.0, atol=1e-12)


def test_pnm_run_on_glm_monotone_and_converged():
    _, model = rand_glm(30, n=6, m=60)
    model = with_fstar(model)
    cfg = SolverConfig(method="pnm", step_L=model.constants[0], grad_tol=1e-8, max_iters=300)
    trace = run(model, np.zeros(6), cfg)
    assert trace.termination == "converged"
    assert trace.final.grad_norm <= 1e-8
    gaps = [r.f - model.f_star for r in trace.records]
    assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))


def test_pnm_newton_limit_on_glm_states():
    _, model = rand_glm(31, n=5, m=40)
    L = model.constants[0]
    rng = np.random.default_rng(31)
    for _ in range(8):
        x = rng.standard_normal(5)
        nm = newton_step(model, x, L)
        pn = pnm_step(model, x, 1e12, np.eye(5), L)
        assert np.linalg.norm(pn - nm) <= 1e-6 * (1.0 + np.linalg.norm(nm))


# ---------------------------------------------------------------------------
# Augmented Newton
# ---------------------------------------------------------------------------

def test_anm_step_dual_hand_arithmetic():
    x_next, z_next = anm_step_dual(SCALAR, np.array([2.0]), np.zeros(1), rho=1.0, G=np.eye(1), step_L=1.0)
    assert np.allclose(z_next, [1.0])
    assert np.allclose(x_next, [1.0])


def test_anm_step_dual_stationary_fixed_point():
    model = quadratic_model(np.eye(2))
    x = np.zeros(2)
    x_next, z_next = anm_step_dual(model, x, np.zeros(2), 3.0, np.eye(2), 1.0)
    assert np.array_equal(x_next, x)
    assert np.allclose(z_next, 0.0)


def test_anm_dual_and_momentum_forms_agree_pointwise():
    # multiplier convention z = x_prev - x, so the matching history is x + z
    _, model = rand_glm(40, n=6, m=30)
    L = model.constants[0]
    rng = np.random.default_rng(40)
    for _ in range(10):
        x = rng.standard_normal(6)
        z = rng.standard_normal(6)
        x_dual, _ = anm_step_dual(model, x, z, 2.0, np.eye(6), L)
        x_mom = anm_step_momentum(model, x, x + z, 2.0, np.eye(6), L)
        assert np.linalg.norm(x_dual - x_mom) <= 1e-10


def test_anm_step_momentum_hand_arithmetic():
    # zero momentum reduces to the penalty step
    x = anm_step_momentum(SCALAR, np.array([2.0]), np.array([2.0]), 1.0, np.eye(1), 1.0)
    assert x[0] == pytest.approx(1.0, abs=1e-15)
    # with history: rhs = grad - G(x - x_prev) = 1 - (-1) = 2; step = 1 - 2/2 = 0
    x = anm_step_momentum(SCALAR, np.array([1.0]), np.array([2.0]), 1.0, np.eye(1), 1.0)
    assert x[0] == pytest.approx(0.0, abs=1e-12)


def test_anm_step_momentum_newton_limit():
    _, model = rand_glm(41, n=5, m=40)
    L = model.constants[0]
    rng = np.random.default_rng(41)
    for _ in range(8):
        x = rng.standard_normal(5)
        x_prev = x + rng.standard_normal(5)
        nm = newton_step(model, x, L)
        am = anm_step_momentum(model, x, x_prev, 1e12, np.eye(5), L)
        assert np.linalg.norm(am - nm) <= 1e-8 * (1.0 + np.linalg.norm(nm))


def test_anm_run_scalar_trace():
    cfg = SolverConfig(
        method="anm", **fixed_rho(1.0), grad_tol=1e-300, max_iters=1
    )
    trace = run(SCALAR, np.array([2.0]), cfg)
    xs = [r.x[0] for r in trace.records]
    assert xs[:2] == [2.0, 2.0]  # x1 defaults to x0
    assert xs[2] == pytest.approx(1.0, abs=1e-15)


def test_anm_forms_agree_along_full_traces():
    _, model = rand_glm(42, n=6, m=40)
    L = model.constants[0]
    cfg = SolverConfig(method="anm", step_L=L, grad_tol=1e-300, max_iters=40)
    x0 = 0.7 * np.ones(6)
    x1 = np.zeros(6)  # distinct starts: z_1 = x0 - x1 carries momentum from step one
    tr_mom = run(model, x0, cfg, x1=x1)
    # the primal/dual route, driven by hand along the same penalty schedule
    xs_dual, x, z, rho = [x0, x1], x1, x0 - x1, cfg.rho0
    for _ in range(cfg.max_iters):
        G = np.diag(cfg.step_inputs(model, x)[1])  # the dual route takes G as a matrix
        x, z = anm_step_dual(model, x, z, rho, G, L)
        rho = min(cfg.c * rho, cfg.rho_max)
        xs_dual.append(x)
    assert len(tr_mom.records) == len(xs_dual)
    for a, x_dual in zip(tr_mom.records, xs_dual):
        assert np.linalg.norm(a.x - x_dual) <= 1e-10


@pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf, True], ids=str)
def test_anm_step_dual_refuses_a_penalty_that_is_not_finite_and_positive(rho):
    # the dual route takes no rho -> inf limit: (rho/L) grad f and (1/rho) (G/rho + H)^{-1} u have none there
    with pytest.raises(ValueError, match=rf"^rho must be finite and > 0, got {re.escape(repr(rho))}$"):
        anm_step_dual(SCALAR, np.array([1.0]), np.zeros(1), rho, np.eye(1), 1.0)


#: One bad input each, over x = 1, x_prev = 0 (so the multiplier z = x_prev - x = -1), G = I and L = 1.
DUAL_BAD_INPUTS = {
    "L-zero": {"step_L": 0.0}, "L-negative": {"step_L": -1.0}, "L-nan": {"step_L": np.nan},
    "G-diag-zero": {"G": np.diag([1.0, 0.0, 2.0])}, "G-diag-negative": {"G": np.diag([1.0, -0.5, 2.0])},
    "G-dense-indefinite": {"G": np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])},
    "x-shape": {"x": np.ones(2)}, "z-shape": {"z": np.ones(4), "x_prev": np.ones(4)},
}


@pytest.mark.parametrize("bad", sorted(DUAL_BAD_INPUTS))
def test_the_dual_step_refuses_what_the_momentum_step_refuses(bad):
    # both forms check their settings with one SolverConfig, so a bad input gets the same error type from each
    inputs = {"x": np.ones(3), "x_prev": np.zeros(3), "z": -np.ones(3), "G": np.eye(3), "step_L": 1.0}
    x, x_prev, z, G, step_L = ({**inputs, **DUAL_BAD_INPUTS[bad]}[k] for k in inputs)
    model = quadratic_model(np.diag([2.0, 1.0, 3.0]))
    with pytest.raises((ValueError, NotPositiveDefinite)) as momentum:
        anm_step_momentum(model, x, x_prev, 2.0, G, step_L)
    with pytest.raises(momentum.type) as dual:
        anm_step_dual(model, x, z, 2.0, G, step_L)
    assert type(dual.value) is momentum.type


def test_anm_multiplier_identity_along_dual_trace():
    _, model = rand_glm(43, n=5, m=30)
    L = model.constants[0]
    rng = np.random.default_rng(43)
    x = rng.standard_normal(5)
    z = rng.standard_normal(5)
    for _ in range(20):
        x_next, z = anm_step_dual(model, x, z, 2.0, np.eye(5), L)
        assert np.abs(z - (x - x_next)).max() <= 1e-12
        x = x_next


def test_anm_lyapunov_monotone_fixed_rho():
    _, model = rand_glm(44, n=6, m=50)
    model = with_fstar(model)
    cfg = SolverConfig(
        method="anm", step_L=model.constants[0], **fixed_rho(1.0),
        grad_tol=1e-8, max_iters=300,
    )
    trace = run(model, np.zeros(6), cfg)
    lyap = [r.lyapunov for r in trace.records[1:]]
    assert lyap and all(v is not None for v in lyap)
    assert all(b <= a + 1e-12 for a, b in zip(lyap, lyap[1:]))


def test_anm_fixed_point_needs_matching_history():
    model = quadratic_model(np.eye(2))
    x = np.zeros(2)
    same = anm_step_momentum(model, x, x, 2.0, np.eye(2), 1.0)
    assert np.array_equal(same, x)
    moved = anm_step_momentum(model, x, np.ones(2), 2.0, np.eye(2), 1.0)
    assert np.linalg.norm(moved - x) > 1e-3


# ---------------------------------------------------------------------------
# The single-step functions are one step of ``run``
# ---------------------------------------------------------------------------

TINY_G = np.array([[1e-300]])
STEPS = {
    "newton": lambda model, x: newton_step(model, x, 1.0),
    "pnm": lambda model, x: pnm_step(model, x, 1.0, TINY_G, 1.0),
    "anm": lambda model, x: anm_step_momentum(model, x, x, 1.0, TINY_G, 1.0),
}


def _finite_only_at_the_start(bad):
    """A 1-D model, started at x = 2, whose step reaches a point where ``bad`` (x, f or grad f) is not finite."""
    if bad == "x":  # a huge gradient over a tiny curvature: the step lands at -inf
        return ObjectiveModel(dim=1, value=lambda x: 0.0, gradient=lambda x: np.array([1e300]),
                              hessian=lambda x: np.array([[1e-300]]))
    return ObjectiveModel(
        dim=1,
        value=lambda x: float(x @ x) if bad != "f" or x[0] == 2.0 else np.inf,
        gradient=lambda x: 2.0 * x if bad != "grad" or x[0] == 2.0 else np.array([np.nan]),
        hessian=lambda x: 2.0 * np.eye(1),
    )


# Newton's pseudo-inverse route refuses the "x" model's gradient as outside Range(H) before it steps
@pytest.mark.parametrize("method, bad", [
    (method, bad) for method in sorted(STEPS) for bad in ("x", "f", "grad") if (method, bad) != ("newton", "x")
])
def test_a_step_to_a_non_finite_point_raises(method, bad):
    with pytest.raises(FloatingPointError, match=f"{method} step: an iterate, or f or grad f there, is not finite"):
        STEPS[method](_finite_only_at_the_start(bad), np.array([2.0]))


@pytest.mark.parametrize("method", ["pnm", "anm"])
def test_penalty_steps_reject_what_run_rejects(method):
    model = quadratic_model(10.0 * np.eye(2))

    def step(G, rho=1.0, L=1.0, x0=np.ones(2)):
        if method == "pnm":
            return pnm_step(model, x0, rho, G, L)
        return anm_step_momentum(model, np.zeros(2), x0, rho, G, L)  # x_prev = x0 is ANM's start

    with pytest.raises(NotPositiveDefinite):  # G/rho + H is still PD, but G is not
        step(np.diag([1.0, -0.5]))
    for rho in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="rho0 must be finite and > 0"):
            step(np.eye(2), rho=rho)
    with pytest.raises(ValueError, match="step constant L must be finite and > 0"):
        step(np.eye(2), L=0.0)
    with pytest.raises(ValueError, match="starting point"):
        step(np.eye(2), x0=np.array([np.nan, 1.0]))


@pytest.mark.parametrize("call, message", [
    (lambda m: run(m, np.ones(3), SolverConfig()), r"x0 must have shape \(2,\), got \(3,\)"),
    (lambda m: run(m, np.ones((2, 1)), SolverConfig(method="newton")), r"x0 must have shape \(2,\), got \(2, 1\)"),
    (lambda m: run(m, np.ones(2), SolverConfig(method="anm"), x1=np.ones(3)), r"x1 must have shape \(2,\), got \(3,\)"),
    (lambda m: run(m, np.ones(2), SolverConfig(precond=np.eye(3))), r"precond must have shape \(2, 2\), got \(3, 3\)"),
    (lambda m: pnm_step(m, np.ones(2), 1.0, np.eye(3), 1.0), r"precond must have shape \(2, 2\), got \(3, 3\)"),
    (lambda m: anm_step_momentum(m, np.ones(2), np.ones(2), 1.0, np.eye(3), 1.0), r"precond must have shape \(2, 2\)"),
    (lambda m: anm_step_dual(m, np.ones(3), np.ones(2), 1.0, np.eye(2), 1.0), r"x must have shape \(2,\), got \(3,\)"),
    (lambda m: anm_step_dual(m, np.ones(2), np.ones((2, 1)), 1.0, np.eye(2), 1.0), r"z must have shape \(2,\), got \(2, 1"),
], ids=["x0", "x0-column", "x1", "precond", "pnm_step-G", "anm_step_momentum-G", "anm_step_dual-x", "anm_step_dual-z"])
def test_a_start_or_g_of_the_wrong_shape_is_named(call, message):
    # checked once where run (or the dual step) starts, before NumPy meets the shapes in a product
    with pytest.raises(ValueError, match=f"^{message}"):
        call(quadratic_model(2.0 * np.eye(2)))


@pytest.mark.parametrize("method", ["newton", "damped_newton", "pnm"])
def test_x1_is_refused_by_every_method_but_anm(method):
    # only ANM has a second start; any other method would step from x0 and drop it
    with pytest.raises(ValueError, match=rf"^x1 is the second start of anm; {method} starts from x0 alone$"):
        run(quadratic_model(np.diag([2.0, 1.0])), np.ones(2), SolverConfig(method=method), x1=np.zeros(2))


# ---------------------------------------------------------------------------
# The shared run loop: oracle work per iterate, divergence
# ---------------------------------------------------------------------------

def _counted(model):
    """``model`` with its value/gradient/Hessian calls counted in the returned dict."""
    calls = {"value": 0, "gradient": 0, "hessian": 0}

    def counting(kind, fn):
        def wrapped(x):
            calls[kind] += 1
            return fn(x)

        return wrapped

    oracles = {kind: counting(kind, getattr(model, kind)) for kind in calls}
    return dataclasses.replace(model, **oracles), calls


def _case_id(value):
    """A case's test id: ``diag``, ``G = diag(H)``, is named for the Hessian's diagonal."""
    return "hessian_diagonal" if value == "diag" else None


RUN_CASES = [
    ("newton", "identity"),
    ("damped_newton", "identity"),
    ("pnm", "identity"),
    ("pnm", "diag"),
    ("anm", "identity"),
    ("anm", "diag"),
]


@pytest.mark.parametrize("method,precond", [*RUN_CASES, ("fstar_oracle", "identity")], ids=_case_id)
def test_run_one_hessian_per_step_one_gradient_per_record(method, precond):
    _, base = rand_glm(70, n=6, m=50)
    model, calls = _counted(base)
    if method == "fstar_oracle":  # damped Newton run by the oracle, from zeros to its own tolerance
        trace = fstar_oracle(model)
    else:
        cfg = SolverConfig(
            method=method, precond=precond, step_L=base.constants[0], max_iters=200
        )
        trace = run(model, np.zeros(6), cfg)
    assert trace.termination == "converged" and trace.steps_taken >= 1
    assert calls["hessian"] == trace.steps_taken
    assert calls["gradient"] == len(trace.records)
    if trace.config.method != "damped_newton":
        assert calls["value"] == len(trace.records)


@pytest.mark.parametrize("precond", ["identity", "diag"], ids=_case_id)
def test_anm_run_from_two_points_reuses_the_first_hessian(precond):
    _, base = rand_glm(71, n=6, m=50)
    model, calls = _counted(base)
    cfg = SolverConfig(
        method="anm", precond=precond, step_L=base.constants[0], max_iters=200
    )
    trace = run(model, 0.5 * np.ones(6), cfg, x1=np.zeros(6))
    assert trace.termination == "converged" and trace.steps_taken >= 1
    assert len(trace.records) == trace.steps_taken + 2
    assert calls["hessian"] == trace.steps_taken
    assert calls["gradient"] == len(trace.records)


def test_damped_newton_values_are_records_plus_line_search_trials():
    _, base = rand_glm(70, n=6, m=50, alpha=1e-3)
    model, calls = _counted(base)
    cfg = SolverConfig(method="damped_newton", max_iters=200)
    trace = run(model, 10.0 * np.ones(6), cfg)
    assert trace.termination == "converged"
    # step k accepted t = BT_BETA^j after j rejected trials, so it tried j + 1
    # points; the accepted trial's value is the record's, so only x0 adds one
    shrinks = []
    for rec, nxt in zip(trace.records, trace.records[1:]):
        d = np.linalg.pinv(base.hessian(rec.x)) @ base.gradient(rec.x)
        t = np.linalg.norm(nxt.x - rec.x) / np.linalg.norm(d)
        shrinks.append(int(round(np.log(t) / np.log(BT_BETA))))
    assert sum(shrinks) > 0  # the line search did backtrack
    assert calls["value"] == 1 + sum(j + 1 for j in shrinks)
    assert calls["hessian"] == trace.steps_taken
    assert calls["gradient"] == len(trace.records)


LOSS_TERM_CASES = [(method, precond, None) for method, precond in RUN_CASES] + [
    ("anm", "identity", "x1"),
    ("anm", "diag", "x1"),
    ("damped_newton", "identity", "backtracking"),
]


@pytest.mark.parametrize("method,precond,start", LOSS_TERM_CASES, ids=_case_id)
def test_run_one_loss_term_pass_per_point(monkeypatch, method, precond, start):
    _, base = rand_glm(70, n=6, m=50, alpha=1e-3 if start == "backtracking" else 0.3)
    points = []

    def logged(fn):
        def wrapped(x):
            points.append(np.asarray(x, dtype=float).tobytes())
            return fn(x)

        return wrapped

    model, calls = _counted(dataclasses.replace(
        base, **{kind: logged(getattr(base, kind)) for kind in ("value", "gradient", "hessian")}
    ))
    passes = []
    real = GlmProblem._loss_terms

    def counting(self, t):
        passes.append(t)
        return real(self, t)

    monkeypatch.setattr(GlmProblem, "_loss_terms", counting)
    cfg = SolverConfig(
        method=method, precond=precond, step_L=base.constants[0], max_iters=200
    )
    if start == "x1":
        trace = run(model, 0.5 * np.ones(6), cfg, x1=np.zeros(6))
    elif start == "backtracking":
        trace = run(model, 10.0 * np.ones(6), SolverConfig(method=method, max_iters=200))
    else:
        trace = run(model, np.zeros(6), cfg)
    assert trace.termination == "converged" and trace.steps_taken >= 1
    # one pass per maximal run of consecutive oracle calls at the same point
    runs = 1 + sum(a != b for a, b in zip(points, points[1:]))
    assert len(passes) == runs
    if method == "damped_newton":
        assert len(passes) == calls["value"]
        if start == "backtracking":
            assert calls["value"] > len(trace.records)  # rejected trials were evaluated
    else:
        repeated_x1 = method == "anm" and start is None  # x1 = x0 is recorded twice
        assert len(passes) == len(trace.records) - repeated_x1
        assert calls["value"] == len(trace.records)
    assert calls["gradient"] == len(trace.records)
    assert calls["hessian"] == trace.steps_taken


@pytest.mark.parametrize("method", ["pnm", "anm"])
def test_run_stops_diverged_and_keeps_finite_records(method):
    # a step constant far below L overshoots on a nearly unregularized GLM
    A, labels = make_logistic_dataset(20, 10, seed=0)
    model = glm_build(A, "logistic", 1e-9, labels).model()
    cfg = SolverConfig(method=method, step_L=1e-3, max_iters=500)
    trace = run(model, np.zeros(20), cfg)
    assert trace.termination == "diverged"
    assert trace.steps_taken == len(trace.records) - (2 if method == "anm" else 1)
    for rec in trace.records:
        assert np.isfinite(rec.x).all()
        assert np.isfinite([rec.f, rec.grad_norm, rec.rho, rec.step_norm_g_sq]).all()


def test_run_rejects_non_finite_start():
    with pytest.raises(ValueError):
        run(SCALAR, np.array([np.nan]), SolverConfig(method="pnm"))


# ---------------------------------------------------------------------------
# Special-case formulas, coded independently
# ---------------------------------------------------------------------------

def _levenberg(model, x, rho, L):
    H = model.hessian(x)
    return x - np.linalg.solve(np.eye(len(x)) / rho + H, model.gradient(x)) / L


def _levenberg_marquardt(model, x, rho, L):
    H = model.hessian(x)
    D = np.diag(np.diag(H))
    return x - np.linalg.solve(D / rho + H, model.gradient(x)) / L


def _aug_levenberg(model, x, x_prev, rho, L):
    H = model.hessian(x)
    M = np.eye(len(x)) / rho + H
    return x - np.linalg.solve(M, model.gradient(x)) / L + np.linalg.solve(M, x - x_prev) / rho


def _aug_levenberg_marquardt(model, x, x_prev, rho, L):
    H = model.hessian(x)
    D = np.diag(np.diag(H))
    M = D / rho + H
    return x - np.linalg.solve(M, model.gradient(x)) / L + np.linalg.solve(M, D @ (x - x_prev)) / rho


def test_special_case_identities():
    _, model = rand_glm(50, n=6, m=40)
    L = model.constants[0]
    rng = np.random.default_rng(50)
    for trial in range(20):
        x = rng.standard_normal(6)
        x_prev = x + 0.5 * rng.standard_normal(6)
        rho = [0.5, 1.0, 10.0, 100.0][trial % 4]
        H = model.hessian(x)
        D = np.diag(np.diag(H))
        assert np.abs(pnm_step(model, x, rho, np.eye(6), L) - _levenberg(model, x, rho, L)).max() <= 1e-12
        assert np.abs(pnm_step(model, x, rho, D, L) - _levenberg_marquardt(model, x, rho, L)).max() <= 1e-12
        assert np.abs(
            anm_step_momentum(model, x, x_prev, rho, np.eye(6), L) - _aug_levenberg(model, x, x_prev, rho, L)
        ).max() <= 1e-12
        assert np.abs(
            anm_step_momentum(model, x, x_prev, rho, D, L) - _aug_levenberg_marquardt(model, x, x_prev, rho, L)
        ).max() <= 1e-12


def test_anm_run_specializations_match_reference_loops():
    _, model = rand_glm(51, n=5, m=30)
    L = model.constants[0]
    rho = 2.0
    for precond, reference in (
        ("identity", _aug_levenberg),
        ("diag", _aug_levenberg_marquardt),
    ):
        cfg = SolverConfig(
            method="anm", precond=precond, **fixed_rho(rho),
            step_L=L, grad_tol=1e-300, max_iters=15,
        )
        trace = run(model, 0.5 * np.ones(5), cfg)
        x_prev = 0.5 * np.ones(5)
        x = 0.5 * np.ones(5)
        for rec in trace.records[2:]:
            x_next = reference(model, x, x_prev, rho, L)
            assert np.abs(rec.x - x_next).max() <= 1e-12
            x_prev, x = x, x_next


# ---------------------------------------------------------------------------
# Scalar root finding
# ---------------------------------------------------------------------------

def test_root_penalty_first_step_is_exact():
    _, xs = root_penalty_newton(lambda v: v * v - 2.0, lambda v: 2.0 * v, 2.0, rho=1.0, tol=1e-10)
    assert xs[1] == 1.6


def test_root_penalty_converges_to_sqrt2():
    root, xs = root_penalty_newton(lambda v: v * v - 2.0, lambda v: 2.0 * v, 2.0, rho=10.0, tol=1e-10)
    assert abs(root - np.sqrt(2.0)) <= 1e-10
    assert abs(root * root - 2.0) <= 1e-10
    assert len(xs) - 1 <= 100


def test_root_penalty_linear_large_rho():
    root, xs = root_penalty_newton(lambda v: v, lambda v: 1.0, 5.0, rho=1e12, tol=1e-10)
    assert len(xs) == 2
    assert abs(root) <= 1e-10


def test_root_augmented_matches_penalty_on_first_step():
    f, fp = (lambda v: v * v - 2.0), (lambda v: 2.0 * v)
    _, xs_a = root_augmented_newton(f, fp, 2.0, 2.0, rho=1.0, tol=1e-10)
    _, xs_p = root_penalty_newton(f, fp, 2.0, rho=1.0, tol=1e-10)
    assert xs_a[1] == xs_p[1] == 1.6


def test_root_augmented_converges_to_sqrt2():
    root, xs = root_augmented_newton(
        lambda v: v * v - 2.0, lambda v: 2.0 * v, 2.0, 2.0, rho=10.0, tol=1e-10
    )
    assert abs(root - np.sqrt(2.0)) <= 1e-10
    assert len(xs) - 1 <= 100


def test_root_denominator_vanished():
    with pytest.raises(DenominatorVanished):
        root_penalty_newton(lambda v: v + 10.0, lambda v: -1.0, 0.0, rho=1.0)


def test_root_max_iterations():
    with pytest.raises(MaxIterationsExceeded):
        root_penalty_newton(lambda v: v * v + 1.0, lambda v: 2.0 * v, 1.0, rho=1.0, max_iters=3)


# ---------------------------------------------------------------------------
# Configuration objects and trace invariants
# ---------------------------------------------------------------------------

def test_schedule_growth_and_cap():
    # rho_{k+1} = min(c * rho_k, rho_max), recorded per iterate
    cfg = SolverConfig(method="pnm", rho0=1.0, c=10.0, rho_max=500.0, grad_tol=1e-300, max_iters=4)
    assert [r.rho for r in run(SCALAR, np.array([2.0]), cfg).records] == [1.0, 10.0, 100.0, 500.0, 500.0]
    with pytest.raises(ValueError, match=r"^rho0 must be finite and > 0, got -1.0$"):
        SolverConfig(rho0=-1.0)
    with pytest.raises(ValueError, match=r"^growth factor c must be finite and >= 1, got 0.5$"):
        SolverConfig(c=0.5)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="cg")
    with pytest.raises(ValueError):
        SolverConfig(step_L=0.0)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=0.0)


def test_preconditioner_policies():
    model = quadratic_model(np.array([[2.0, 0.3], [0.3, 1.0]]))
    x = np.zeros(2)
    # identity and diag carry G as its 1-D diagonal; a matrix is read as it is; a Newton step reads the identity
    assert np.array_equal(SolverConfig(precond="identity").step_inputs(model, x)[1], np.ones(2))
    assert np.array_equal(SolverConfig(precond="diag").step_inputs(model, x)[1], np.array([2.0, 1.0]))
    fixed = SolverConfig(precond=np.diag([1.0, 3.0]))
    assert np.array_equal(fixed.step_inputs(model, x)[1], np.diag([1.0, 3.0]))
    assert np.array_equal(SolverConfig(method="newton", precond="diag").step_inputs(model, x)[1], np.ones(2))
    with pytest.raises(NotPositiveDefinite):
        SolverConfig(precond=np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        SolverConfig(precond="diag").step_inputs(quadratic_model(np.diag([1.0, 0.0])), x)
    with pytest.raises(ValueError, match=r"^unknown preconditioner 'bogus'; choose identity or diag$"):
        SolverConfig(precond="bogus")
    # a matrix precond is an np.ndarray; a nested list, as a spec's JSON would give, is no spelling
    listed = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match=rf"^unknown preconditioner {re.escape(repr(listed))}; choose identity or diag$"):
        SolverConfig(precond=listed)


def test_a_matrix_precond_is_pd_by_the_rank_rule():
    # lambda_min = 1.1e-16 > 0, but nonzero_mask counts it as zero, and the certificate's Cholesky whitening fails
    G = np.array([[1.0 + 2.3e-16, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPositiveDefinite, match=r"^preconditioner matrix must be PD \(lambda_min = 1\.110e-16\)$"):
        SolverConfig(method="pnm", precond=G)


def test_fixed_preconditioner_keeps_its_own_copy():
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    config = SolverConfig(precond=M)
    assert not np.shares_memory(config.precond, M)
    M[0, 0] = -7.0  # the caller reuses its array
    assert np.array_equal(config.step_inputs(quadratic_model(np.eye(2)), np.zeros(2))[1], [[2.0, 0.5], [0.5, 1.0]])
    # and the copy is read-only, so the G every step and certificate reads is the one pd_preconditioner accepted
    with pytest.raises(ValueError, match="read-only"):
        config.precond[1, 1] = -1.0


def test_trace_invariants():
    _, model = rand_glm(60, n=5, m=30)
    model = with_fstar(model)
    cfg = SolverConfig(method="pnm", step_L=model.constants[0], grad_tol=1e-8, max_iters=200)
    trace = run(model, np.zeros(5), cfg)
    ks = [r.k for r in trace.records]
    rhos = [r.rho for r in trace.records]
    assert ks == list(range(len(ks)))
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))
    for r in trace.records:
        assert np.isfinite(r.f) and np.isfinite(r.grad_norm) and np.isfinite(r.x).all()
    # recorded G-weighted step norms match recomputation
    for prev, curr in zip(trace.records, trace.records[1:]):
        expected = weighted_norm_sq(curr.x - prev.x, np.eye(5))
        assert curr.step_norm_g_sq == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_fstar_oracle_provenance():
    _, model = rand_glm(61, n=6, m=40)
    trace = fstar_oracle(model)
    assert trace.config.method == "damped_newton" and trace.termination == "converged"
    assert trace.final.grad_norm <= 1e-13 and trace.f_star is None
    assert trace.final.f <= model.value(np.zeros(6))
    _, info = _resolve_fstar(types.SimpleNamespace(fstar={"policy": "oracle"}), model)
    assert info == {"policy": "oracle", "terminal_grad_norm": trace.final.grad_norm,
                    "iterations": trace.steps_taken, "converged": True}


def test_fstar_oracle_returns_the_start_when_its_line_search_stalls():
    # the Newton step from 0 always raises f = 1 + 1e20 |x|, so backtracking underflows at once
    model = ObjectiveModel(
        dim=1,
        value=lambda x: 1.0 + 1e20 * abs(float(x[0])),
        gradient=lambda x: np.ones(1),
        hessian=lambda x: np.ones((1, 1)),
    )
    trace = fstar_oracle(model)
    assert trace.steps_taken == 0 and trace.termination == "stalled"
    assert trace.final.f == 1.0 and np.array_equal(trace.final.x, [0.0])
    resolved, info = _resolve_fstar(types.SimpleNamespace(fstar={"policy": "oracle"}), model)
    assert resolved.f_star == 1.0
    assert info == {"policy": "oracle", "terminal_grad_norm": 1.0, "iterations": 0, "converged": False}
