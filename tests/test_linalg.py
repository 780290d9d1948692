import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_psd
from pnewton.errors import ConvergenceFailure, NotPSD, NotPositiveDefinite
from pnewton.linalg import (
    DEFAULT_RANK_TOL,
    as_symmetric,
    inv_sqrt_pd,
    lambda_min_pos,
    nonzero_eigenvalues,
    nonzero_mask,
    pinv_apply,
    psd_spectrum,
    psd_sqrt,
    range_check,
    spd_solve,
    sym_eig,
    weighted_norm_sq,
)


def test_as_symmetric_symmetrizes_and_validates():
    M = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    out = as_symmetric(M)
    assert np.array_equal(out, out.T)

    with pytest.raises(ValueError, match="not symmetric"):
        as_symmetric(np.array([[1.0, 2.0], [0.5, 3.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        as_symmetric(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        as_symmetric(np.ones((2, 3)))


def test_as_symmetric_returns_an_exactly_symmetric_input_uncopied():
    M = np.array([[2.0, -0.0, 1.5], [-0.0, 1.0, 0.25], [1.5, 0.25, 3.0]])
    assert as_symmetric(M) is M


def test_as_symmetric_symmetrizes_a_slightly_skewed_input_into_a_new_array():
    M = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    before = M.copy()
    out = as_symmetric(M)
    assert not np.shares_memory(out, M)
    assert np.array_equal(out, 0.5 * (M + M.T))
    assert np.array_equal(M, before)


@pytest.mark.parametrize(
    "M, message",
    [
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "matrix has non-finite entries"),
        (np.array([[1.0, 0.0], [np.nan, 1.0]]), "matrix has non-finite entries"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "matrix has non-finite entries"),
        (np.array([[1.0, 0.0], [0.0, -np.inf]]), "matrix has non-finite entries"),
        (
            np.array([[1.0, 2.0], [0.5, 3.0]]),
            "matrix is not symmetric: max |M - M^T| = 1.500e+00 exceeds 1e-12 * max|M| = 3.000e-12",
        ),
        (
            np.array([[-4.0, 0.0], [1e-11, 1.0]]),
            "matrix is not symmetric: max |M - M^T| = 1.000e-11 exceeds 1e-12 * max|M| = 4.000e-12",
        ),
    ],
    ids=["nan", "nan-skewed", "inf", "minus-inf", "skew", "skew-negative-scale"],
)
def test_as_symmetric_error_messages(M, message):
    with pytest.raises(ValueError) as info:
        as_symmetric(M)
    assert str(info.value) == message


def test_spd_solve_identity():
    assert np.allclose(spd_solve(np.eye(3), np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_spd_solve_diagonal():
    x = spd_solve(np.diag([2.0, 5.0]), np.array([4.0, 10.0]))
    assert np.allclose(x, [2.0, 2.0])


def test_spd_solve_random_residual():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((6, 6))
    M = as_symmetric(A.T @ A + np.eye(6))
    b = rng.standard_normal(6)
    x = spd_solve(M, b)
    res = np.linalg.norm(M @ x - b)
    assert res <= 1e-8 * (np.linalg.norm(M, "fro") * np.linalg.norm(x) + np.linalg.norm(b))


def test_spd_solve_residual_sweep():
    rng = np.random.default_rng(7)
    for trial in range(120):
        n = int(rng.integers(2, 21))
        A = rng.standard_normal((n, n))
        M = as_symmetric(A.T @ A + np.eye(n))
        b = rng.standard_normal(n)
        x = spd_solve(M, b)
        res = np.linalg.norm(M @ x - b)
        assert res <= 1e-8 * (np.linalg.norm(M, "fro") * np.linalg.norm(x) + np.linalg.norm(b))


def test_spd_solve_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        spd_solve(np.diag([1.0, -1.0]), np.ones(2))


def test_spd_solve_rejects_an_rhs_of_the_wrong_length():
    with pytest.raises(ValueError, match="rhs length 3 does not match order 2"):
        spd_solve(np.eye(2), np.ones(3))


@pytest.mark.parametrize("M, message", [
    ([[-1.0]], "after 0 jittered retries (final jitter 0.000e+00)"),
    ([[0.0, 1.0], [1.0, 0.0]], "after 0 jittered retries (final jitter 0.000e+00)"),
    ([[2.0, 0.0], [0.0, -1.0]], "after 3 jittered retries (final jitter 5.000e-11)"),  # 100 * 1e-12 * trace/n
], ids=["negative", "zero-trace", "indefinite"])
def test_spd_solve_reports_the_retries_it_made(M, message):
    with pytest.raises(NotPositiveDefinite) as info:
        spd_solve(np.array(M), np.ones(len(M)))
    assert message in str(info.value)


def test_spd_solve_jitter_recovers_marginal_matrix():
    # PD in exact arithmetic, numerically indefinite: the jitter ladder must engage
    M = np.diag([1.0, -1e-16])
    x = spd_solve(M, np.array([1.0, 0.0]))
    assert np.isfinite(x).all()
    assert x[0] == pytest.approx(1.0, rel=1e-9)


def test_spd_solve_matrix_rhs():
    M = np.diag([2.0, 4.0])
    X = spd_solve(M, np.eye(2))
    assert np.allclose(X, np.diag([0.5, 0.25]))


def test_sym_eig_examples():
    w, _ = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])

    w, V = sym_eig(np.eye(4))
    assert np.allclose(w, 1.0)
    assert np.allclose(V.T @ V, np.eye(4), atol=1e-10)

    w, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0])


def test_sym_eig_names_an_eigensolver_that_does_not_converge(monkeypatch):
    def diverge(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", diverge)
    with pytest.raises(ConvergenceFailure, match="^eigendecomposition did not converge: Eigenvalues did not converge$"):
        sym_eig(np.eye(2))


def test_sym_eig_reconstruction_sweep():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        R = rng.standard_normal((n, n))
        M = as_symmetric(R + R.T)
        w, V = sym_eig(M)
        assert np.all(np.diff(w) >= 0)
        recon = (V * w) @ V.T
        assert np.linalg.norm(recon - M, "fro") <= 1e-10 * (1 + np.linalg.norm(M, "fro"))
        assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-10


def test_pinv_apply_examples():
    assert np.allclose(pinv_apply(np.diag([2.0, 0.0]), np.array([4.0, 0.0])), [2.0, 0.0])
    b = np.array([0.3, -1.2, 5.0])
    assert np.allclose(pinv_apply(np.eye(3), b), b)
    assert np.allclose(pinv_apply(np.diag([4.0, 1.0, 0.0]), np.array([8.0, 3.0, 0.0])), [2.0, 3.0, 0.0])


@pytest.mark.parametrize("cols", [3, 2])
def test_pinv_apply_solves_each_column_of_a_matrix_rhs(cols):
    rng = np.random.default_rng(11)
    M = rand_psd(rng, 3) + np.eye(3)
    R = rng.standard_normal((3, cols))
    assert np.abs(pinv_apply(M, R) - np.linalg.solve(M, R)).max() <= 1e-12
    singular = rand_psd(rng, 3, 2)
    assert np.abs(pinv_apply(singular, R) - np.linalg.pinv(singular) @ R).max() <= 1e-10


def test_nonzero_mask_counts_an_eigenvalue_at_the_cutoff_as_zero():
    cutoff = DEFAULT_RANK_TOL * 2.0
    assert nonzero_mask(np.array([cutoff, 2.0])).tolist() == [False, True]
    assert nonzero_mask(np.array([np.nextafter(cutoff, 1.0), 2.0])).tolist() == [True, True]
    assert nonzero_mask(np.array([-1.0, 0.5, 2.0])).tolist() == [False, True, True]


@pytest.mark.parametrize("w", [np.zeros(3), np.zeros(0), np.array([-2.0, -1.0])], ids=["zero", "empty", "negative"])
def test_nonzero_mask_finds_nothing_when_lambda_max_is_not_positive(w):
    mask = nonzero_mask(w)
    assert mask.dtype == bool and mask.shape == w.shape and not mask.any()


def test_pinv_apply_of_a_zero_matrix_is_zero():
    assert pinv_apply(np.zeros((3, 3)), np.array([1.0, -2.0, 3.0])).tobytes() == np.zeros(3).tobytes()


def _pinv_apply_reference(M, b):
    """``pinv_apply`` with the rank rule written inline, as it was before :func:`nonzero_mask` owned it."""
    w, V = sym_eig(M)
    b = np.asarray(b, dtype=float)
    lam_max = float(w[-1]) if w.size else 0.0
    if lam_max <= 0.0:
        return np.zeros_like(b)
    keep = w > DEFAULT_RANK_TOL * lam_max
    coeff = V[:, keep].T @ b
    return V[:, keep] @ (coeff / w[keep])


def _nonzero_eigenvalues_reference(M):
    """``nonzero_eigenvalues`` with the rank rule written inline, as it was before :func:`nonzero_mask` owned it."""
    w, _ = sym_eig(M)
    lam_max = float(w[-1]) if w.size else 0.0
    return w[w > DEFAULT_RANK_TOL * lam_max] if lam_max > 0.0 else w[:0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**16), scale=st.sampled_from([1e-12, 1.0, 1e12]))
def test_rank_rule_reproduces_the_inline_expressions_bitwise(n, data, seed, scale):
    rng = np.random.default_rng(seed)
    M = scale * rand_psd(rng, n, data.draw(st.integers(0, n), label="rank"))
    b = rng.standard_normal(n)
    assert pinv_apply(M, b).tobytes() == _pinv_apply_reference(M, b).tobytes()
    assert nonzero_eigenvalues(M).tobytes() == _nonzero_eigenvalues_reference(M).tobytes()


def test_pinv_apply_range_consistency():
    # M (M^+ b) must reproduce b for every b in Range(M), and range_check must say so
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        rank = int(rng.integers(1, n + 1))
        M = rand_psd(rng, n, rank)
        b = M @ rng.standard_normal(n)  # guaranteed in Range(M)
        x, residual, in_range = range_check(M, b)
        assert np.array_equal(x, pinv_apply(M, b))
        assert residual == np.linalg.norm(M @ x - b) <= 1e-8 * (1 + np.linalg.norm(b)) and in_range
        if rank < n:  # a null-space component puts b + v outside Range(M)
            v = np.linalg.eigh(M)[1][:, 0]
            _, residual, in_range = range_check(M, b + v)
            assert residual > 0.5 and not in_range


@pytest.mark.parametrize("outside, in_range", [(1e-7, False), (1e-9, True)])
def test_range_check_tolerates_a_component_outside_the_range_of_1e8_relative_and_no_more(outside, in_range):
    # ||v|| = 1 to 1e-14, so the tolerance 1e-8 * (1 + ||v||) is 2e-8: 1e-7 outside Range(M) is a violation
    _, residual, verdict = range_check(np.diag([1.0, 0.0]), np.array([1.0, outside]))
    assert residual == pytest.approx(outside, rel=1e-9)
    assert verdict is in_range


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(psd_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.5]))


@pytest.mark.parametrize("M", [np.diag([1.0, 0.0]), np.diag([1.0, -0.5])], ids=["singular", "indefinite"])
def test_inv_sqrt_pd_rejects_a_matrix_that_is_not_pd(M):
    with pytest.raises(NotPositiveDefinite, match="inverse square root needs a PD matrix"):
        inv_sqrt_pd(M)


def test_psd_spectrum_clips_within_the_floor_and_raises_below_it():
    assert psd_spectrum(np.array([-1e-10, 0.5, 1.0])).tolist() == [0.0, 0.5, 1.0]  # at the floor: rounding
    assert psd_spectrum(np.zeros(0)).size == 0
    for w in (np.array([-2e-10, 1.0]), np.array([-2.0, -1.0])):
        with pytest.raises(NotPSD, match="below -1e-10 \\* lambda_max"):
            psd_spectrum(w)


def test_psd_sqrt_idempotent_on_diagonal():
    S = np.diag([0.0, 1.5, 4.0])
    assert np.allclose(psd_sqrt(S @ S), S, atol=1e-12)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        M = rand_psd(rng, n, int(rng.integers(1, n + 1)))
        S = psd_sqrt(M)
        assert np.linalg.norm(S @ S - M, "fro") <= 1e-8 * (1 + np.linalg.norm(M, "fro"))


def test_weighted_norm_sq_examples():
    assert weighted_norm_sq(np.array([1.0, 1.0]), np.eye(2)) == pytest.approx(2.0)
    assert weighted_norm_sq(np.array([2.0, 0.0]), np.diag([3.0, 7.0])) == pytest.approx(12.0)
    assert weighted_norm_sq(np.zeros(3), np.eye(3)) == 0.0


@pytest.mark.parametrize("form, kept", [(-1e-10, True), (-1e-13, False)])
def test_weighted_norm_sq_rounds_up_only_noise_within_1e12_of_its_scale(form, kept):
    # x^T M x = form while ||M||_F ||x||^2 = 1 to 1e-20: the band rounds -1e-13 up to 0 and keeps -1e-10
    x = np.array([1.0, 0.0])
    for M in (np.diag([form, 1.0]), np.array([form, 1.0])):
        assert weighted_norm_sq(x, M) == (form if kept else 0.0)


def test_weighted_norm_matches_sqrt_route():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        M = rand_psd(rng, n)
        x = rng.standard_normal(n)
        direct = weighted_norm_sq(x, M)
        via_sqrt = float(np.linalg.norm(psd_sqrt(M) @ x) ** 2)
        assert direct == pytest.approx(via_sqrt, rel=1e-10, abs=1e-12)


def test_lambda_min_pos_examples():
    assert lambda_min_pos(np.diag([4.0, 1.0, 0.0])) == pytest.approx(1.0)
    assert lambda_min_pos(np.eye(5)) == pytest.approx(1.0)
    assert lambda_min_pos(np.diag([5e-15, 3.0])) == pytest.approx(3.0)
    assert lambda_min_pos(np.zeros((3, 3))) == 0.0
