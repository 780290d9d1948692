import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixed_rho, rand_glm, rand_pd, rand_psd
from pnewton import diagnostics
from pnewton.diagnostics import (
    CERTIFIERS,
    SLACK_TOL,
    _spectrum,
    _whiten,
    certify_augmented_contraction,
    certify_penalty_contraction,
    filtered_curvature,
    momentum_matrix,
    rate_constants,
    shifted_inverse,
    verify_gradient_energy_bound,
    verify_inverse_identities,
    verify_spectrum_match,
    verify_step_energy_bound,
)
from pnewton.errors import ConvergenceFailure, MissingOptimum, NotPositiveDefinite, ZeroHessian
from pnewton.linalg import inv_sqrt_pd, lambda_min_pos, psd_sqrt, sym_eig, weighted_norm_sq
from pnewton.objective import GlmProblem, check_relative_bounds, quadratic_model
from pnewton.solvers import (
    FSTAR_SLACK,
    METHODS,
    SolverConfig,
    anm_step_dual,
    anm_step_momentum,
    composite_value,
    fstar_oracle,
    in_level_set,
    pnm_step,
    run,
)

H_DIAG = np.diag([4.0, 1.0, 0.0])
#: rho values of the acceptance criterion 01/02 sweep (seed 2024 there too).
CRITERION_RHOS = (0.1, 1.0, 10.0, 1e4)


def sweep_instances(n_instances, rhos, seed=123, n_range=(2, 11)):
    rng = np.random.default_rng(seed)
    for trial in range(n_instances):
        n = int(rng.integers(*n_range))
        rank = int(rng.integers(1, n + 1))
        H = rand_psd(rng, n, rank)
        G = rand_pd(rng, n)
        yield H, G, rhos[trial % len(rhos)]


# ---------------------------------------------------------------------------
# Spectral objects
# ---------------------------------------------------------------------------

def test_shifted_inverse_diagonal():
    K = shifted_inverse(H_DIAG, np.eye(3), 1.0)
    assert np.allclose(K, np.diag([0.2, 0.5, 1.0]), atol=1e-14)


def test_shifted_inverse_zero_hessian():
    K = shifted_inverse(np.zeros((3, 3)), np.eye(3), 7.5)
    assert np.allclose(K, 7.5 * np.eye(3), atol=1e-12)


def test_shifted_inverse_residual_self_check():
    for seed, n, rank, rho in [(17, 6, 4, 3.0), (77, 5, 3, 2.0)]:
        rng = np.random.default_rng(seed)
        H = rand_psd(rng, n, rank)
        G = rand_pd(rng, n)
        K = shifted_inverse(H, G, rho)
        assert np.linalg.norm(K @ (G / rho + H) - np.eye(n), "fro") <= 1e-9
        assert np.linalg.eigvalsh(K)[0] > 0.0
        assert np.linalg.eigvalsh(filtered_curvature(H, G, rho))[0] >= -1e-12


@pytest.mark.parametrize("n", [1, 7])
def test_diagonal_g_whitening_matches_cholesky_route(n):
    rng = np.random.default_rng(90 + n)
    H = rand_psd(rng, n)
    for g in (np.ones(n), rng.uniform(0.25, 4.0, n)):
        C_ref = scipy.linalg.cholesky(np.diag(g), lower=True)
        X = scipy.linalg.solve_triangular(C_ref, H, lower=True)
        W_ref = scipy.linalg.solve_triangular(C_ref, X.T, lower=True)
        W_ref = 0.5 * (W_ref + W_ref.T)
        c, W = _whiten(H, g)  # a diagonal G is passed as its 1-D diagonal
        assert np.array_equal(np.diag(c), C_ref)
        assert np.linalg.norm(W - W_ref) <= 1e-15 * np.linalg.norm(W_ref)


_H2, _G2, _X2 = np.diag([1.0, 2.0]), np.eye(2), np.array([1.0, -1.0])
#: every public function that takes a penalty rho, called at H = diag(1, 2), G = I and a step from 0 to x
RHO_READERS = {
    "shifted_inverse": lambda rho: shifted_inverse(_H2, _G2, rho),
    "filtered_curvature": lambda rho: filtered_curvature(_H2, _G2, rho),
    "rate_constants": lambda rho: rate_constants(_H2, _G2, rho),
    "momentum_matrix": lambda rho: momentum_matrix(_H2, _G2, rho),
    "verify_inverse_identities": lambda rho: verify_inverse_identities(_H2, _G2, rho),
    "verify_spectrum_match": lambda rho: verify_spectrum_match(_H2, _G2, rho),
    "verify_gradient_energy_bound": lambda rho: verify_gradient_energy_bound(quadratic_model(_H2), _X2, _G2, rho),
    "verify_step_energy_bound": lambda rho: verify_step_energy_bound(_X2, np.zeros(2), _H2, _G2, rho),
    "in_level_set": lambda rho: in_level_set(quadratic_model(_H2), _X2, _X2, _X2, np.zeros(2), _G2, rho, 1.0),
}


@pytest.mark.parametrize("rho", [0.0, -1.0, -2.0, -np.inf, np.nan, True], ids=str)
@pytest.mark.parametrize("name", sorted(RHO_READERS))
def test_a_penalty_that_is_not_positive_is_refused(name, rho):
    # a penalty is a number > 0 or inf (the rho -> inf limit), checked by linalg's one rule where rho comes in
    with pytest.raises(ValueError, match=rf"^rho must be > 0 or inf, got {re.escape(repr(rho))}$"):
        RHO_READERS[name](rho)
    RHO_READERS[name](np.inf)  # the limit is taken, not refused


@pytest.mark.parametrize("step_L", [0.0, -1.0, np.nan, np.inf], ids=str)
def test_in_level_set_refuses_a_step_constant_that_is_not_positive(step_L):
    with pytest.raises(ValueError, match=rf"^step constant L must be finite and > 0, got {re.escape(repr(step_L))}$"):
        in_level_set(quadratic_model(_H2), _X2, _X2, _X2, np.zeros(2), _G2, 1.0, step_L)


def test_filtered_curvature_diagonal():
    F = filtered_curvature(H_DIAG, np.eye(3), 1.0)
    assert np.allclose(F, np.diag([0.8, 0.5, 0.0]), atol=1e-14)


def test_filtered_curvature_zero_hessian():
    assert np.allclose(filtered_curvature(np.zeros((2, 2)), np.eye(2), 4.0), 0.0)


def test_filtered_curvature_at_rho_inf_takes_the_limit_on_a_singular_hessian():
    # lam / (1/rho + lam) is 0/0 on a zero eigenvalue at rho = inf; its limit there is 0, and 1 where lam > 0
    H = np.diag([1.0, 0.0])
    assert np.array_equal(filtered_curvature(H, np.eye(2), np.inf), H)
    check = verify_step_energy_bound(np.array([1.0, 0.0]), np.zeros(2), H, np.eye(2), np.inf)
    assert check.ok and check.values["lhs"] == 1.0 == check.values["rhs"]


def test_filtered_curvature_at_rho_inf_counts_zero_eigenvalues_by_the_rank_rule():
    # the limit is 0 on each eigenvalue that nonzero_mask counts as zero, as xi counts it: 1e-20 is one
    assert np.array_equal(filtered_curvature(np.diag([1.0, 1e-20]), np.eye(2), np.inf), np.diag([1.0, 0.0]))
    # rotated diag(0, 0, 1, 2, 3): the zero eigenvalues come out at rounding level, of either sign
    for seed in range(10):
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((5, 5)))
        H = Q @ np.diag([0.0, 0.0, 1.0, 2.0, 3.0]) @ Q.T
        H = 0.5 * (H + H.T)
        F = filtered_curvature(H, np.eye(5), np.inf)
        assert np.allclose(np.linalg.eigvalsh(F), [0.0, 0.0, 1.0, 1.0, 1.0], atol=1e-12), seed
        check = verify_step_energy_bound(Q[:, 0], np.zeros(5), H, np.eye(5), np.inf)  # along a null direction
        assert abs(check.values["lhs"]) <= 1e-12 and not check.precondition_ok, seed


def test_shifted_inverse_at_rho_inf_refuses_a_singular_hessian():
    # (G/rho + H)^{-1} is H^{-1} at rho = inf, which a singular H does not have
    for fn in (shifted_inverse, verify_inverse_identities, verify_spectrum_match):
        with pytest.raises(NotPositiveDefinite, match="rho = inf"):
            fn(np.diag([1.0, 0.0]), np.eye(2), np.inf)
    assert np.array_equal(shifted_inverse(np.diag([2.0, 4.0]), np.eye(2), np.inf), np.diag([0.5, 0.25]))


def test_rate_constants_examples():
    assert rate_constants(H_DIAG, np.eye(3), 1.0) == (pytest.approx(0.5), pytest.approx(0.2), False)
    rng = np.random.default_rng(2)
    H = rand_pd(rng, 5)
    assert abs(rate_constants(H, np.eye(5), 1e12).xi - 1.0) <= 1e-10


def test_rate_constants_at_infinite_rho_are_their_limits():
    # rho*lam / (1 + rho*lam) is inf/inf at rho = inf; its limit is 1, and beta's is 1/lam_max
    xi, beta, _ = rate_constants(H_DIAG, np.eye(3), np.inf)
    assert xi == 1.0
    assert beta == 1.0 / float(np.max(np.diag(H_DIAG)))


def _xi_dual_route(H, G, rho):
    """``xi`` as the smallest nonzero eigenvalue of ``H^{1/2} K H^{1/2}``, built from roots."""
    S = psd_sqrt(H)
    P = S @ shifted_inverse(H, G, rho) @ S
    return lambda_min_pos(0.5 * (P + P.T))


def _beta_root_route(H, G, rho):
    """``beta`` as the smallest eigenvalue of ``K^{1/2} G K^{1/2}``, built from roots."""
    Ks = psd_sqrt(shifted_inverse(H, G, rho))
    B = Ks @ G @ Ks
    return sym_eig(0.5 * (B + B.T))[0][0]


def test_rate_constants_xi_matches_the_dual_route():
    for H, G, rho in sweep_instances(40, [0.1, 1.0, 10.0], seed=3):
        xi = rate_constants(H, G, rho).xi
        assert abs(xi - _xi_dual_route(H, G, rho)) <= 1e-8
        assert 0.0 < xi <= 1.0


def test_rate_constants_xi_is_monotone_in_rho():
    rng = np.random.default_rng(4)
    H = rand_psd(rng, 6, 4)
    G = rand_pd(rng, 6)
    xis = [rate_constants(H, G, rho).xi for rho in (0.01, 0.1, 1.0, 10.0, 1e4)]
    assert all(b > a for a, b in zip(xis, xis[1:]))


def test_rate_constants_refuse_a_zero_hessian():
    # xi has no nonzero eigenvalue to take a minimum over, at any rho, so the whole triple is refused
    for rho in (1.0, np.inf):
        with pytest.raises(ZeroHessian):
            rate_constants(np.zeros((3, 3)), np.eye(3), rho)


@pytest.mark.parametrize("solver, read", [("eigvalsh", rate_constants), ("eigh", shifted_inverse)])
def test_an_eigensolver_that_does_not_converge_is_a_convergence_failure(monkeypatch, solver, read):
    # the spectrum's eigensolve, with or without eigenvectors, names the failure instead of leaking LinAlgError
    def diverge(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, solver, diverge)
    with pytest.raises(ConvergenceFailure, match="^eigendecomposition did not converge: Eigenvalues did not converge$"):
        read(H_DIAG, np.eye(3), 1.0)


@pytest.mark.parametrize("form", ["dense", "diag"])
def test_rate_constants_make_one_eigvalsh_and_factor_only_a_dense_g(monkeypatch, form):
    rng = np.random.default_rng(91)
    H = rand_psd(rng, 5)
    calls = {"eigvalsh": [], "eigh": [], "cholesky": []}
    monkeypatch.setattr(np.linalg, "eigvalsh", _recording(calls["eigvalsh"], np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", _recording(calls["eigh"], np.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "cholesky", _recording(calls["cholesky"], scipy.linalg.cholesky))
    if form == "dense":  # + pd_preconditioner's eigh of the dense G where it enters
        rate_constants(H, rand_pd(rng, 5), 2.0)
    else:  # a diagonal G reaches the kernel as its 1-D diagonal, as SolverConfig.step_inputs makes it
        _spectrum(H, rng.uniform(0.25, 4.0, 5), False).rates(2.0)
    dense = int(form == "dense")
    assert {name: len(seen) for name, seen in calls.items()} == {"eigvalsh": 1, "eigh": dense, "cholesky": dense}


@pytest.mark.parametrize(
    "verify, eigh",
    [  # each count includes pd_preconditioner's eigh of G where it enters
        (lambda model, x, H, G: verify_inverse_identities(H, G, 2.0), 2),
        (lambda model, x, H, G: verify_step_energy_bound(x, np.zeros_like(x), H, G, 2.0), 2),
        (lambda model, x, H, G: verify_gradient_energy_bound(model, x, G, 2.0), 3),  # + pinv_apply's eigh of H
        (lambda model, x, H, G: verify_spectrum_match(H, G, 2.0), 6),  # + two reference roots, two compared spectra
    ],
    ids=["inverse_identities", "step_energy", "gradient_energy", "spectrum_match"],
)
def test_each_verifier_whitens_and_eigensolves_its_matrices_once(monkeypatch, verify, eigh):
    rng = np.random.default_rng(92)
    _, model = rand_glm(92, n=5)  # ridge term: H is PD, so the step check needs no range test
    x = rng.standard_normal(5)
    H, G = model.hessian(x), rand_pd(rng, 5)
    calls = {"cholesky": [], "eigh": [], "eigvalsh": []}
    monkeypatch.setattr(scipy.linalg, "cholesky", _recording(calls["cholesky"], scipy.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "eigh", _recording(calls["eigh"], np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", _recording(calls["eigvalsh"], np.linalg.eigvalsh))
    assert verify(model, x, H, G)
    assert {name: len(seen) for name, seen in calls.items()} == {"cholesky": 1, "eigh": eigh, "eigvalsh": 0}


def test_closed_form_filter_map():
    # nonzero spectrum of H^{1/2} K H^{1/2} is rho*lam/(1+rho*lam) of the whitened Hessian
    for H, G, rho in sweep_instances(30, [0.1, 1.0, 10.0], seed=5):
        Gis = inv_sqrt_pd(G)
        W = Gis @ H @ Gis
        lam, _ = sym_eig(0.5 * (W + W.T))
        lam = lam[lam > 1e-10 * max(lam[-1], 0.0)]
        expected = np.sort(rho * lam / (1.0 + rho * lam))
        S = psd_sqrt(H)
        M = S @ shifted_inverse(H, G, rho) @ S
        got, _ = sym_eig(0.5 * (M + M.T))
        got = got[got > 1e-10 * max(got[-1], 0.0)]
        assert got.size == expected.size
        assert np.abs(np.sort(got) - expected).max() <= 1e-8


def test_rate_constants_beta_matches_the_root_route():
    # beta = 1/(1/rho + lam_max) against lambda_min(K^{1/2} G K^{1/2}) built from roots
    for H, G, rho in sweep_instances(100, CRITERION_RHOS, seed=2024):
        beta_root = _beta_root_route(H, G, rho)
        assert abs(rate_constants(H, G, rho).beta - beta_root) <= 1e-9 * abs(beta_root)


def test_certifier_entries_match_spectral_definitions():
    # on a quadratic the Hessian is constant, so every entry has the same xi/beta; both are checked
    # against the routes built from roots, not against rate_constants, the certifier's own kernel
    for H, G, rho in sweep_instances(100, CRITERION_RHOS, seed=2024):
        model = quadratic_model(H)
        xi, beta = _xi_dual_route(H, G, rho), _beta_root_route(H, G, rho)
        x0 = np.random.default_rng(0).standard_normal(H.shape[0])
        for method, certify in (("pnm", certify_penalty_contraction), ("anm", certify_augmented_contraction)):
            cfg = SolverConfig(
                method=method, precond=G,
                **fixed_rho(rho), grad_tol=1e-300, max_iters=3,
            )
            report = certify(run(model, x0, cfg), model)
            assert report.entries
            for e in report.entries:
                assert abs(e.xi - xi) <= 1e-8
                if method == "pnm":
                    assert abs(e.beta - beta) <= 1e-9 * abs(beta)


# ---------------------------------------------------------------------------
# Identity and spectrum checks
# ---------------------------------------------------------------------------

def test_inverse_identities_diagonal_tight():
    assert verify_inverse_identities(H_DIAG, np.eye(3), 1.0, tol=1e-10)


def test_inverse_identities_sweep():
    count = 0
    for H, G, rho in sweep_instances(100, [0.1, 1.0, 10.0], seed=6):
        assert verify_inverse_identities(H, G, rho, tol=1e-8)
        count += 1
    assert count == 100


def test_inverse_identities_at_rho_inf_take_their_limit():
    # divided by rho, G K G = rho G - rho F reads F = G at rho = inf for a PD H; no inf * 0 is formed
    check = verify_inverse_identities(np.diag([2.0, 4.0]), np.eye(2), np.inf)
    assert check and check.values["res_hk"] <= 1e-15 and check.values["res_gkg"] <= 1e-15
    rng = np.random.default_rng(12)
    H, G = rand_pd(rng, 4), rand_pd(rng, 4)
    assert verify_inverse_identities(H, G, np.inf, tol=1e-8)
    bad = verify_inverse_identities(H, G, np.inf, F=2.0 * G)
    assert not bad and bad.values["res_gkg"] == pytest.approx(np.linalg.norm(G, "fro"), rel=1e-12)


def test_inverse_identities_reject_corrupted_matrix():
    rng = np.random.default_rng(7)
    H = rand_psd(rng, 4, 3)
    G = rand_pd(rng, 4)
    K = shifted_inverse(H, G, 1.0)
    K_bad = K.copy()
    K_bad[1, 2] += 1e-3
    K_bad[2, 1] += 1e-3
    check = verify_inverse_identities(H, G, 1.0, tol=1e-8, K=K_bad)
    assert not check
    assert check.values["res_hk"] > 1e-8


def test_spectrum_match_diagonal():
    check = verify_spectrum_match(H_DIAG, np.eye(3), 1.0)
    assert check
    assert check.values["count_lhs"] == 2.0  # rank-2 Hessian: exactly two nonzero eigenvalues


def test_spectrum_match_sweep():
    for H, G, rho in sweep_instances(100, [0.1, 1.0, 10.0], seed=8):
        assert verify_spectrum_match(H, G, rho)


@st.composite
def spectral_instances(draw):
    """Random PSD H of any rank, SPD G (dense, diagonal or I) and rho in [1e-3, 1e4]."""
    n = draw(st.integers(1, 8))
    rank = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rand_psd(rng, n, rank)
    G = {
        "dense": lambda: rand_pd(rng, n),
        "diagonal": lambda: np.diag(rng.uniform(0.25, 4.0, n)),
        "identity": lambda: np.eye(n),
    }[draw(st.sampled_from(["dense", "diagonal", "identity"]))]()
    return H, G, 10.0 ** draw(st.floats(-3.0, 4.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spectral_instances())
def test_identities_and_spectra_hold_through_whitening(instance):
    H, G, rho = instance
    assert verify_inverse_identities(H, G, rho, tol=1e-8)
    assert verify_spectrum_match(H, G, rho)


def test_spectrum_match_rank_bookkeeping():
    rng = np.random.default_rng(9)
    H = rand_psd(rng, 5, 2)
    G = rand_pd(rng, 5)
    check = verify_spectrum_match(H, G, 2.0)
    assert check
    assert check.values["count_lhs"] == 2.0
    assert check.values["count_rhs"] == 2.0


# ---------------------------------------------------------------------------
# Energy bounds
# ---------------------------------------------------------------------------

def test_gradient_energy_bound_zero_gradient():
    model = quadratic_model(np.eye(2))
    assert verify_gradient_energy_bound(model, np.zeros(2), np.eye(2), 1.0)


def test_gradient_energy_bound_isotropic_equality():
    model = quadratic_model(np.eye(3))
    x = np.array([1.0, -2.0, 0.5])
    check = verify_gradient_energy_bound(model, x, np.eye(3), 1.0)
    assert check
    assert check.values["lhs"] == pytest.approx(check.values["rhs"], rel=1e-12)
    assert check.values["xi"] == pytest.approx(0.5)


def test_gradient_energy_bound_along_glm_trace():
    _, model = rand_glm(70, n=6, m=40)
    cfg = SolverConfig(method="pnm", step_L=model.constants[0], grad_tol=1e-8, max_iters=60)
    trace = run(model, np.zeros(6), cfg)
    for rec in trace.records:
        rho = rec.rho if np.isfinite(rec.rho) else 1.0
        assert verify_gradient_energy_bound(model, rec.x, np.eye(6), rho)


def test_step_energy_bound_zero_step():
    assert verify_step_energy_bound(np.ones(2), np.ones(2), np.eye(2), np.eye(2), 1.0)


def test_step_energy_bound_isotropic_equality():
    x, x_prev = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    check = verify_step_energy_bound(x, x_prev, np.eye(2), np.eye(2), 1.0)
    assert check
    assert abs(check.values["lhs"] - check.values["rhs"]) <= 1e-12


def test_step_energy_bound_along_glm_trace():
    _, model = rand_glm(71, n=5, m=30)
    cfg = SolverConfig(
        method="anm", step_L=model.constants[0], **fixed_rho(2.0),
        grad_tol=1e-10, max_iters=60,
    )
    trace = run(model, 0.5 * np.ones(5), cfg)
    for prev, curr in zip(trace.records, trace.records[1:]):
        H = model.hessian(curr.x)
        check = verify_step_energy_bound(curr.x, prev.x, H, np.eye(5), 2.0)
        assert check.precondition_ok and check


def test_step_energy_bound_flags_range_violation():
    H = np.diag([1.0, 0.0])
    check = verify_step_energy_bound(np.array([0.0, 1.0]), np.zeros(2), H, np.eye(2), 1.0)
    assert not check.precondition_ok


@pytest.mark.parametrize("shortfall, ok", [(1e-9, False), (1e-11, True)])
def test_step_energy_bound_allows_a_shortfall_of_energy_tol_and_no_more(shortfall, ok):
    # a step in Null(H) has no filtered energy, lhs = 0, and rhs = xi ||d||^2 = shortfall with xi = 1/2
    check = verify_step_energy_bound(np.array([0.0, np.sqrt(2.0 * shortfall)]), np.zeros(2), np.diag([1.0, 0.0]),
                                     np.eye(2), 1.0)
    assert check.values["lhs"] == 0.0 and check.values["rhs"] == pytest.approx(shortfall, rel=1e-12)
    assert check.ok is ok


def test_step_energy_bound_reads_pd_off_the_whitened_spectrum_as_the_certificate_does():
    # H's own spectrum puts 1e-11 below the rank cutoff; whitened by a G that pd_preconditioner accepts it is
    # W = diag(1, 1e-2), whose spectrum counts both eigenvalues as nonzero
    H, G = np.diag([1.0, 1e-11]), np.diag([1.0, 1e-9])
    check = verify_step_energy_bound(np.array([0.0, 1e4]), np.zeros(2), H, G, 1.0)
    xi, _, pd = rate_constants(H, G, 1.0)
    assert lambda_min_pos(H) == 1.0  # H alone is rank-deficient
    assert pd and check.precondition_ok is True
    assert check.values["xi"] == xi


@pytest.mark.parametrize("H, pd", [(np.diag([2.0, 1.0]), True), (np.diag([2.0, 0.0]), False)], ids=["pd", "singular"])
def test_pd_and_precondition_ok_are_python_bools(H, pd):
    # a cert file holds precondition_ok, and json cannot serialize a numpy bool
    check = verify_step_energy_bound(np.ones(2), np.zeros(2), H, np.eye(2), 1.0)
    assert rate_constants(H, np.eye(2), 1.0).pd is pd
    assert _spectrum(H, np.ones(2), False).rates(1.0).pd is pd  # G as its 1-D diagonal, as the certifiers receive it
    assert check.precondition_ok is pd


# ---------------------------------------------------------------------------
# Lyapunov value and certifications
# ---------------------------------------------------------------------------

def test_composite_value_examples():
    # composite_value(gap, ||x_k - x_{k-1}||^2_G, rho, L); a too-high f* is refused before any V is scored
    # (test_certifiers_refuse_an_fstar_above_the_lowest_recorded_f), so only the clamp band is left here
    assert composite_value(0.0, 0.0, 1.0, 1.0) == 0.0
    assert composite_value(1.0, 2.0, 1.0, 1.0) == pytest.approx(2.0)
    assert composite_value(-0.5 * FSTAR_SLACK, 0.0, 1.0, 1.0) == 0.0  # float noise below f* reads 0
    assert composite_value(-2.0 * FSTAR_SLACK, 0.0, 1.0, 1.0) == -2.0 * FSTAR_SLACK  # a wrong f* shows
    assert composite_value(-FSTAR_SLACK, 0.0, 1.0, 1.0) == -FSTAR_SLACK  # the band is open: its edge is kept


def _scalar_pnm_trace(n_steps=4):
    model = quadratic_model(np.eye(1))
    cfg = SolverConfig(
        method="pnm", **fixed_rho(1.0), grad_tol=1e-300, max_iters=n_steps
    )
    return model, run(model, np.array([2.0]), cfg)


def test_certify_penalty_scalar_quadratic_tight():
    model, trace = _scalar_pnm_trace()
    report = certify_penalty_contraction(trace, model)
    assert report.aggregate.all_certified
    assert report.aggregate.n_vacuous == 0
    for e in report.entries:
        assert e.xi == pytest.approx(0.5, abs=1e-12)
        assert e.beta == pytest.approx(0.5, abs=1e-12)
        assert e.eta == pytest.approx(0.75, abs=1e-12)
        assert e.bound == pytest.approx(0.25, abs=1e-12)
        assert e.lhs == pytest.approx(0.25, abs=1e-12)  # the bound is tight here
        assert e.satisfied


def test_certify_penalty_single_point_trace():
    model = quadratic_model(np.eye(2))
    cfg = SolverConfig(method="pnm", grad_tol=1.0, max_iters=5)
    trace = run(model, np.zeros(2), cfg)  # converged immediately
    report = certify_penalty_contraction(trace, model)
    assert report.entries == []
    assert report.aggregate.all_certified
    assert report.aggregate.fraction_satisfied == 1.0


def test_certify_penalty_flags_vacuous_bound():
    # an inflated mu drives eta above 1; the report must flag, not fake, it. mu is raised through the model
    # (L with it, since mu <= L), so the run's own step_L = 1 is the one scored
    model, trace = _scalar_pnm_trace()
    report = certify_penalty_contraction(trace, dataclasses.replace(model, constants=(10.0, 10.0)))
    assert report.aggregate.n_vacuous == len(report.entries) > 0
    assert report.aggregate.fraction_satisfied == 1.0  # nothing scored


def test_certify_penalty_missing_optimum():
    _, model = rand_glm(72, n=4, m=20)  # no optimum attached
    cfg = SolverConfig(method="pnm", step_L=model.constants[0], max_iters=5, grad_tol=1e-8)
    trace = run(model, np.zeros(4), cfg)
    with pytest.raises(MissingOptimum):
        certify_penalty_contraction(trace, model)


def test_certifiers_refuse_a_model_without_constants():
    # mu is the model's, so a model that carries no (L, mu) cannot be certified
    model = dataclasses.replace(quadratic_model(np.eye(2)), constants=None)
    for method, certify in (("pnm", certify_penalty_contraction), ("anm", certify_augmented_contraction)):
        trace = run(model, np.ones(2), SolverConfig(method=method, max_iters=3))
        with pytest.raises(ValueError, match=r"^certification needs mu; give the model its constants \(L, mu\)$"):
            certify(trace, model)


def test_a_certificate_scores_the_runs_own_g():
    # G comes from the trace's config: a diag run is scored with G_k = diag(H_k), not the identity
    _, model = rand_glm(73, n=6, m=50)
    model = dataclasses.replace(model, f_star=fstar_oracle(model).final.f)
    cfg = SolverConfig(method="pnm", precond="diag", step_L=model.constants.L)
    trace = run(model, np.zeros(6), cfg)
    report = certify_penalty_contraction(trace, model)
    assert len(report.entries) >= 3
    identity_gaps = []
    for e in report.entries:
        H_k, rho_k = model.hessian(trace.records[e.k].x), trace.records[e.k].rho
        assert e.xi == pytest.approx(rate_constants(H_k, np.diag(np.diag(H_k)), rho_k).xi, rel=1e-10, abs=0.0)
        identity_gaps.append(abs(e.xi - rate_constants(H_k, np.eye(6), rho_k).xi) / e.xi)
    assert max(identity_gaps) > 1e-3, identity_gaps


def test_certify_penalty_glm_run():
    _, model = rand_glm(73, n=6, m=50)
    model = dataclasses.replace(model, f_star=fstar_oracle(model).final.f)
    L, mu = model.constants
    cfg = SolverConfig(
        method="pnm", step_L=L, **fixed_rho(1.0), grad_tol=1e-8, max_iters=200
    )
    trace = run(model, np.zeros(6), cfg)
    report = certify_penalty_contraction(trace, model)
    assert report.aggregate.all_certified
    assert report.aggregate.n_vacuous == 0
    assert report.aggregate.worst_slack >= 0.0


def _scalar_anm_trace():
    model = quadratic_model(np.eye(1))
    cfg = SolverConfig(
        method="anm", **fixed_rho(1.0), grad_tol=1e-300, max_iters=3
    )
    return model, run(model, np.array([2.0]), cfg)


def test_certify_augmented_scalar_quadratic():
    model, trace = _scalar_anm_trace()
    report = certify_augmented_contraction(trace, model)
    assert report.aggregate.all_certified
    first = report.entries[0]
    assert first.bound == pytest.approx(0.5, abs=1e-12)
    assert first.lhs == pytest.approx(0.5, abs=1e-12)  # V halves exactly here
    assert all(e.precondition_ok for e in report.entries)


@pytest.mark.parametrize("kind", ["penalty", "augmented"])
def test_a_raised_mu_fails_an_attained_bound_by_its_scale(kind):
    # where the bound is attained, scoring with mu raised by a relative delta moves the slack by
    # -delta * factor * v_k: the entry fails, and its slack shows SLACK_TOL, not some looser slack. mu is raised
    # through the model (L with it, since mu <= L), so the run's own step_L = 1 is the one scored
    if kind == "penalty":
        model, trace = _scalar_pnm_trace()
        certify, v = certify_penalty_contraction, [r.f - trace.f_star for r in trace.records]
    else:
        model, trace = _scalar_anm_trace()
        certify, v = certify_augmented_contraction, [r.lyapunov for r in trace.records]
    delta = 0.01
    base = certify(trace, model)
    raised = certify(trace, dataclasses.replace(model, constants=(1.0 + delta, 1.0 + delta)))
    shifts = []
    for e, entry in zip(base.entries, raised.to_dict()["entries"]):
        if abs(e.lhs - e.bound) <= 1e-12:  # attained
            shifts.append(delta * (1.0 - e.bound) * v[e.k])
            assert entry["satisfied"] is False and abs(entry["slack"] - (SLACK_TOL - shifts[-1])) <= 1e-12
    assert max(shifts) > 1e-3  # so a slack of 1e-3 in place of SLACK_TOL cannot pass the entry either
    assert base.aggregate.all_certified and not raised.aggregate.all_certified


def test_certify_augmented_at_optimum():
    model = quadratic_model(np.eye(2))
    cfg = SolverConfig(method="anm", **fixed_rho(1.0), grad_tol=1e-300, max_iters=3)
    trace = run(model, np.zeros(2), cfg)
    report = certify_augmented_contraction(trace, model)
    assert report.aggregate.all_certified
    for e in report.entries:
        assert e.satisfied


def test_certify_augmented_refuses_a_one_record_trace():
    model = quadratic_model(np.eye(2))
    cfg = SolverConfig(method="anm", max_iters=5)
    trace = run(model, np.ones(2), cfg)
    trace = dataclasses.replace(trace, records=trace.records[:1])  # x0 alone: no x_{k-1} to score V_k against
    with pytest.raises(ValueError, match="^augmented certification needs a trace with at least two points$"):
        certify_augmented_contraction(trace, model)


@pytest.mark.parametrize("method", METHODS)
def test_each_certifier_takes_only_its_own_methods_traces(method):
    # the gap bound holds for pnm and, at its rho = inf limit, for newton; the composite-value bound for anm
    model = quadratic_model(np.diag([1.0, 3.0]))
    trace = run(model, np.ones(2), SolverConfig(method=method, max_iters=3))
    certifiers = {"penalty": (certify_penalty_contraction, ("pnm", "newton")),
                  "augmented": (certify_augmented_contraction, ("anm",))}
    for kind, (certify, methods) in certifiers.items():
        if method in methods:
            report = certify(trace, model)
            assert report.entries and report.aggregate.all_certified and report.aggregate.n_vacuous == 0
        else:
            refusal = f"^{kind} certification applies to {'/'.join(methods)} traces, not '{method}'$"
            with pytest.raises(ValueError, match=refusal):
                certify(trace, model)


@pytest.mark.parametrize("method", list(CERTIFIERS))
def test_certifiers_refuse_an_fstar_above_the_lowest_recorded_f(method):
    # an f* above f(x_k) makes every later gap negative, so a contraction of it means nothing: an f* more than
    # FSTAR_SLACK (1e-9) above the lowest recorded f is refused for either kind, and one within it is scored
    _, model = rand_glm(75, n=6, m=50)
    f_star = fstar_oracle(model).final.f
    certify = getattr(diagnostics, CERTIFIERS[method])
    config = SolverConfig(method=method, step_L=model.constants.L, grad_tol=1e-8, max_iters=200)
    for shift in (1e-6, 1e-10):
        shifted = dataclasses.replace(model, f_star=f_star + shift)
        trace = run(shifted, np.zeros(6), config)
        if shift > FSTAR_SLACK:
            f_low = min(record.f for record in trace.records)
            refusal = f"f_star = {f_star + shift!r} exceeds the lowest recorded f(x) = {f_low!r} beyond tolerance"
            with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
                certify(trace, shifted)
        else:
            assert certify(trace, shifted).entries


def _glm_with_fstar(seed):
    _, model = rand_glm(seed, n=6, m=50)
    return dataclasses.replace(model, f_star=fstar_oracle(model).final.f)


def test_a_newton_certificate_scores_newtons_factor_on_every_entry():
    # a newton trace records rho = inf on every row, where the penalty certificate takes its limits: xi = 1 and
    # eta = mu/L, the factor 1 - mu/L of Newton's method at step 1/L
    model = _glm_with_fstar(76)
    L, mu = model.constants
    trace = run(model, np.zeros(6), SolverConfig(method="newton", step_L=L, grad_tol=1e-8, max_iters=200))
    report = certify_penalty_contraction(trace, model)
    assert len(report.entries) >= 3 and report.aggregate.all_certified and report.aggregate.n_vacuous == 0
    for e in report.entries:
        assert trace.records[e.k].rho == np.inf
        assert e.xi == 1.0 and e.eta == mu / L and e.bound == 1.0 - mu / L


def test_a_newton_run_on_a_singular_hessian_certifies_with_the_g_its_step_read():
    # diag(H) has a zero entry, so diag cannot form a G here; a newton step reads none (the identity),
    # the run converges in one step, and its certificate scores that step without asking the preconditioner
    model = quadratic_model(np.diag([1.0, 0.0]))
    cfg = SolverConfig(method="newton", precond="diag")
    trace = run(model, np.array([1.0, 0.0]), cfg)
    assert trace.termination == "converged" and trace.steps_taken == 1
    assert trace.records[1].step_norm_g_sq == 1.0  # the identity-weighted step
    report = certify_penalty_contraction(trace, model)
    assert [e.k for e in report.entries] == [0] and report.aggregate.all_certified
    assert report.entries[0].xi == 1.0 and report.entries[0].beta == 1.0


def test_pnm_eta_at_a_huge_penalty_is_newtons_mu_over_l():
    model = _glm_with_fstar(77)
    L, mu = model.constants
    cfg = SolverConfig(method="pnm", step_L=L, **fixed_rho(1e12), grad_tol=1e-8, max_iters=200)
    report = certify_penalty_contraction(run(model, np.zeros(6), cfg), model)
    assert len(report.entries) >= 3
    for e in report.entries:
        assert e.eta == pytest.approx(mu / L, rel=1e-9, abs=0.0)


def test_certify_augmented_glm_run():
    _, model = rand_glm(74, n=6, m=50)
    model = dataclasses.replace(model, f_star=fstar_oracle(model).final.f)
    L, mu = model.constants
    cfg = SolverConfig(
        method="anm", step_L=L, **fixed_rho(1.0), grad_tol=1e-8, max_iters=200
    )
    trace = run(model, np.zeros(6), cfg)
    report = certify_augmented_contraction(trace, model)
    assert report.aggregate.all_certified
    assert report.aggregate.n_vacuous == 0


def _recording(calls, fn):
    """``fn``, recording a copy of its last positional argument on each call."""
    def wrapped(*args, **kwargs):
        calls.append(np.array(args[-1]))
        return fn(*args, **kwargs)
    return wrapped


def _certify_glm_run(method, precond, patch):
    """Run ``method`` on a PD GLM, call ``patch()``, then certify the trace."""
    _, model = rand_glm(78, n=6, m=40)  # ridge term: every Hessian is PD
    model = dataclasses.replace(model, f_star=fstar_oracle(model).final.f)
    L, mu = model.constants
    cfg = SolverConfig(method=method, precond=precond, step_L=L, grad_tol=1e-10, max_iters=50)
    trace = run(model, np.zeros(6), cfg)
    patch()
    return getattr(diagnostics, CERTIFIERS[method])(trace, model)


@pytest.mark.parametrize("method", ["pnm", "anm", "newton"])
@pytest.mark.parametrize(
    "precond", ["identity", "diag"], ids=["identity", "diag"]
)
def test_certify_one_eigensolve_per_iterate_none_on_g(monkeypatch, method, precond):
    solved, hessians, steps = [], [], []
    # installed before the model binds GlmProblem.hessian; counted from certification on
    monkeypatch.setattr(GlmProblem, "hessian", _recording(hessians, GlmProblem.hessian))
    monkeypatch.setattr(SolverConfig, "step_inputs", _recording(steps, SolverConfig.step_inputs))

    def patch():
        hessians.clear()
        steps.clear()
        monkeypatch.setattr(np.linalg, "eigh", _recording(solved, np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", _recording(solved, np.linalg.eigvalsh))

    report = _certify_glm_run(method, precond, patch)
    assert len(report.entries) >= 3
    # one (H, G) from step_inputs, one Hessian and one whitened eigensolve per certified entry
    assert len(solved) == len(report.entries)
    assert len(hessians) == len(report.entries)
    assert len(steps) == len(report.entries)
    assert all(e.precondition_ok for e in report.entries)
    # G is diagonal here and the whitened Hessian is not, so no solve saw G
    assert not any(np.array_equal(M, np.diag(np.diag(M))) for M in solved)


@pytest.mark.parametrize("method", ["pnm", "anm"])
@pytest.mark.parametrize(
    "precond, cholesky_per_entry",
    [
        ("identity", 0),
        ("diag", 0),
        (rand_pd(np.random.default_rng(79), 6), 1),
    ],
    ids=["identity", "diag", "dense"],
)
def test_certify_factors_only_a_dense_g(monkeypatch, method, precond, cholesky_per_entry):
    factored, solved = [], []

    def patch():
        monkeypatch.setattr(scipy.linalg, "cholesky", _recording(factored, scipy.linalg.cholesky))
        monkeypatch.setattr(scipy.linalg, "solve_triangular", _recording(solved, scipy.linalg.solve_triangular))

    report = _certify_glm_run(method, precond, patch)
    assert len(report.entries) >= 3
    assert len(factored) == cholesky_per_entry * len(report.entries)
    assert len(solved) == 2 * cholesky_per_entry * len(report.entries)


@pytest.mark.parametrize(
    "precond",
    ["identity", "diag",
     rand_pd(np.random.default_rng(79), 6)],
    ids=["identity", "diag", "dense"],
)
def test_augmented_certificate_reads_the_step_norm_the_run_recorded(monkeypatch, precond):
    _, model = rand_glm(78, n=6, m=40)
    model = dataclasses.replace(model, f_star=fstar_oracle(model).final.f)
    cfg = SolverConfig(method="anm", precond=precond, step_L=model.constants.L, grad_tol=1e-10, max_iters=50)
    trace = run(model, np.zeros(6), cfg)
    records = trace.records
    # the run weighs x_{k+1} - x_k with the G_k of x_k, bitwise the norm V_{k+1} needs
    for k in range(1, len(records) - 1):
        G_k = cfg.step_inputs(model, records[k].x)[1]
        assert records[k + 1].step_norm_g_sq == weighted_norm_sq(records[k + 1].x - records[k].x, G_k)
    weighed = []
    monkeypatch.setattr(diagnostics, "weighted_norm_sq", _recording(weighed, diagnostics.weighted_norm_sq))
    report = certify_augmented_contraction(trace, model)
    # so each entry weighs one step, x_k - x_{k-1} for V_k, and reads V_{k+1}'s from the trace
    assert len(report.entries) >= 3 and len(weighed) == len(report.entries)


def test_report_serialization_round_trip():
    import json

    model, trace = _scalar_pnm_trace()
    report = certify_penalty_contraction(trace, model)
    blob = json.dumps(report.to_dict())
    loaded = json.loads(blob)
    assert loaded == report.to_dict()
    assert loaded["aggregate"]["all_certified"] is True


def test_undefined_report_values_serialize_as_null():
    import json

    # converged at its start: no entries, so xi_min is NaN and worst_slack inf before serialization
    model = quadratic_model(np.eye(2))
    trace = run(model, np.zeros(2), SolverConfig(method="pnm"))
    report = certify_penalty_contraction(trace, model)
    assert report.entries == [] and np.isnan(report.aggregate.xi_min) and report.aggregate.worst_slack == np.inf
    blob = json.dumps(report.to_dict(), allow_nan=False)
    assert '"nan"' not in blob and '"inf"' not in blob
    aggregate = json.loads(blob)["aggregate"]
    assert aggregate["xi_min"] is None and aggregate["worst_slack"] is None and aggregate["beta_min"] is None


# ---------------------------------------------------------------------------
# Momentum matrix
# ---------------------------------------------------------------------------

def test_momentum_matrix_limits():
    assert np.allclose(momentum_matrix(np.zeros((2, 2)), np.eye(2), 3.0), np.eye(2), atol=1e-12)
    assert momentum_matrix(np.eye(1), np.eye(1), 1.0)[0, 0] == pytest.approx(0.5)


def test_momentum_matrix_matches_step_decomposition():
    _, model = rand_glm(75, n=5, m=30)
    L = model.constants[0]
    rng = np.random.default_rng(75)
    for _ in range(5):
        x = rng.standard_normal(5)
        x_prev = x + rng.standard_normal(5)
        H = model.hessian(x)
        G = rand_pd(rng, 5)
        K = shifted_inverse(H, G, 2.0)
        theta = momentum_matrix(H, G, 2.0)
        decomposed = x - K @ model.gradient(x) / L + theta @ (x - x_prev)
        direct = anm_step_momentum(model, x, x_prev, 2.0, G, L)
        assert np.linalg.norm(decomposed - direct) <= 1e-10


def test_momentum_matrix_spectral_radius_below_one():
    rng = np.random.default_rng(76)
    for _ in range(10):
        H = rand_pd(rng, 4)
        G = rand_pd(rng, 4)
        theta = momentum_matrix(H, G, 1.0)
        assert np.abs(np.linalg.eigvals(theta)).max() < 1.0


# ---------------------------------------------------------------------------
# Validation where a matrix enters
# ---------------------------------------------------------------------------

Q_GOOD = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.2], [0.0, 0.2, 1.0]])
BAD_MATRICES = {
    "asymmetric": Q_GOOD + np.triu(np.full((3, 3), 0.1), 1),
    "nan": np.where(np.eye(3, dtype=bool), Q_GOOD, np.nan),
}


@pytest.mark.parametrize("bad", sorted(BAD_MATRICES))
@pytest.mark.parametrize("method", METHODS)
def test_bad_hessian_raises_where_it_is_received(method, bad):
    good = quadratic_model(Q_GOOD)
    model = dataclasses.replace(good, hessian=lambda x: BAD_MATRICES[bad])
    x0 = np.ones(3)
    with pytest.raises(ValueError):
        run(model, x0, SolverConfig(method=method))
    for certified, certify in (("pnm", certify_penalty_contraction), ("anm", certify_augmented_contraction)):
        trace = run(good, x0, SolverConfig(method=certified, max_iters=3))  # a trace of the certifier's own method
        assert len(trace.records) == 4 + (certified == "anm")
        with pytest.raises(ValueError, match="not symmetric" if bad == "asymmetric" else "non-finite"):
            certify(trace, model)
    with pytest.raises(ValueError):
        check_relative_bounds(model, x0, np.zeros(3), 1.0, 1.0)
    with pytest.raises(ValueError, match="not symmetric" if bad == "asymmetric" else "non-finite"):
        quadratic_model(BAD_MATRICES[bad])  # Q enters through as_symmetric, as a matrix precond does


G_ENTRY_ROUTES = {
    "shifted_inverse": lambda G: shifted_inverse(Q_GOOD, G, 2.0),
    "filtered_curvature": lambda G: filtered_curvature(Q_GOOD, G, 2.0),
    "rate_constants_xi": lambda G: rate_constants(Q_GOOD, G, 2.0).xi,
    "rate_constants_beta": lambda G: rate_constants(Q_GOOD, G, 2.0).beta,
    "momentum_matrix": lambda G: momentum_matrix(Q_GOOD, G, 2.0),
    "pnm_step": lambda G: pnm_step(quadratic_model(Q_GOOD), np.ones(3), 2.0, G, 1.0),
    "anm_step_momentum": lambda G: anm_step_momentum(quadratic_model(Q_GOOD), np.ones(3), np.zeros(3), 2.0, G, 1.0),
    "anm_step_dual": lambda G: anm_step_dual(quadratic_model(Q_GOOD), np.ones(3), np.ones(3), 2.0, G, 1.0),
    "in_level_set": lambda G: in_level_set(
        quadratic_model(Q_GOOD), np.ones(3), np.zeros(3), np.ones(3), np.zeros(3), G, 2.0, 1.0
    ),
    "verify_inverse_identities": lambda G: verify_inverse_identities(Q_GOOD, G, 2.0),
    "verify_spectrum_match": lambda G: verify_spectrum_match(Q_GOOD, G, 2.0),
    # a zero gradient or step needs no spectrum, but its G is still checked where it enters
    "verify_gradient_energy_bound_zero": lambda G: verify_gradient_energy_bound(
        quadratic_model(Q_GOOD), np.zeros(3), G, 2.0
    ),
    "verify_gradient_energy_bound": lambda G: verify_gradient_energy_bound(quadratic_model(Q_GOOD), np.ones(3), G, 2.0),
    "verify_step_energy_bound_zero": lambda G: verify_step_energy_bound(np.ones(3), np.ones(3), Q_GOOD, G, 2.0),
    "verify_step_energy_bound": lambda G: verify_step_energy_bound(np.ones(3), np.zeros(3), Q_GOOD, G, 2.0),
    "inv_sqrt_pd": inv_sqrt_pd,
}


@pytest.mark.parametrize(
    "G",
    [
        np.diag([1.0, 0.0, 2.0]),
        np.diag([1.0, -0.5, 2.0]),
        np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.diag([1.0, 1e-12, 1.0]),  # lambda_min below 1e-10 * lambda_max; a Cholesky factors it
        np.array([[1.0 + 2.3e-16, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # lambda_min = 1.1e-16 > 0
    ],
    ids=["diag-zero", "diag-negative", "dense-indefinite", "diag-below-rank-cutoff", "dense-near-singular"],
)
@pytest.mark.parametrize("route", sorted(G_ENTRY_ROUTES))
def test_non_pd_preconditioner_raises(route, G):
    # every route that takes a G refuses one that pd_preconditioner refuses where it enters, as the asymmetric one
    # below: one rule (nonzero_mask's rank cutoff on lambda_min) decides whether a matrix G is PD
    with pytest.raises(NotPositiveDefinite):
        G_ENTRY_ROUTES[route](G)


@pytest.mark.parametrize("bad", sorted(BAD_MATRICES))
def test_verifiers_check_their_hessian_at_a_zero_vector(bad):
    # a zero gradient or a zero step is no reason to skip the check of H where it enters
    match = "not symmetric" if bad == "asymmetric" else "non-finite"
    model = dataclasses.replace(quadratic_model(Q_GOOD), hessian=lambda x: BAD_MATRICES[bad])
    with pytest.raises(ValueError, match=match):
        verify_gradient_energy_bound(model, np.zeros(3), np.eye(3), 2.0)
    with pytest.raises(ValueError, match=match):
        verify_step_energy_bound(np.ones(3), np.ones(3), BAD_MATRICES[bad], np.eye(3), 2.0)


@pytest.mark.parametrize("route", sorted(G_ENTRY_ROUTES))
def test_asymmetric_g_raises_where_it_enters(route):
    G = np.eye(3)
    G_ENTRY_ROUTES[route](G)  # the symmetric G passes
    G[0, 2] = 0.1
    with pytest.raises(ValueError, match="not symmetric"):
        G_ENTRY_ROUTES[route](G)
