"""Dense symmetric linear-algebra kernels.

Everything downstream funnels through the primitives here: the input rules for
numbers and for symmetric and PD matrices, shifted-SPD solves with a jitter retry
policy, eigendecomposition, pseudo-inverses, PSD square roots, weighted norms.

All functions are pure and operate on plain ``numpy`` arrays; no matrix is
mutated. A matrix is checked by :func:`as_symmetric` once, where it enters
pnewton, and an exactly symmetric one is returned as is, not copied;
:func:`sym_eig` (so every eigen route) checks its input, while
:func:`spd_solve` and :func:`weighted_norm_sq` trust theirs, as LAPACK does.
A diagonal preconditioner ``G`` may be carried as its 1-D diagonal ``g``:
:func:`precond_apply` and :func:`shifted` give ``G v`` and ``G/rho + H`` for
either form, bitwise equal to the dense products.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, NotPositiveDefinite, NotPSD

__all__ = [
    "is_integer", "is_number", "positive_number", "positive_penalty", "positive_integer",
    "as_symmetric", "pd_preconditioner",
    "spd_solve",
    "sym_eig",
    "pinv_apply",
    "range_check",
    "psd_sqrt",
    "inv_sqrt_pd",
    "weighted_norm_sq",
    "precond_apply",
    "shifted",
    "nonzero_eigenvalues",
    "lambda_min_pos",
    "nonzero_mask",
    "psd_spectrum",
    "spectral_matrix",
    "DEFAULT_RANK_TOL",
]

#: Relative tolerance for the symmetry check in :func:`as_symmetric`.
SYMMETRY_RTOL = 1e-12

#: Default relative eigenvalue cutoff for numerical rank decisions.
DEFAULT_RANK_TOL = 1e-10


def is_integer(value) -> bool:
    """Whether ``value`` is an integer (a bool is not one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether ``value`` is a finite real number (a bool is not one)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def positive_number(name: str, value):
    """``value`` if it is a finite number > 0; otherwise a ``ValueError`` that calls it ``name``."""
    if not (is_number(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def positive_penalty(name: str, value):
    """``value`` if it is a penalty, a number > 0 or ``inf`` (the ``rho -> inf`` limit); else a ``ValueError``."""
    if not (value == math.inf or is_number(value) and value > 0.0):
        raise ValueError(f"{name} must be > 0 or inf, got {value!r}")
    return value


def positive_integer(name: str, value) -> int:
    """``value`` as an int if it is an integer >= 1; otherwise a ``ValueError`` that calls it ``name``."""
    if not (is_integer(value) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def as_symmetric(M) -> np.ndarray:
    """Validate that ``M`` is square, finite and symmetric; return ``(M + M^T)/2``.

    An exactly symmetric ``M`` is returned as is, with no copy; otherwise the
    result is a new array. Raises ``ValueError`` if the asymmetry exceeds
    ``SYMMETRY_RTOL * max|M|`` or any entry is non-finite.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    hi, lo = (float(M.max()), float(M.min())) if M.size else (0.0, 0.0)
    if not (np.isfinite(hi) and np.isfinite(lo)):  # NaN and inf reach max or min
        raise ValueError("matrix has non-finite entries")
    if (M == M.T).all():
        return M
    scale = max(hi, -lo)
    skew = float(np.abs(M - M.T).max())
    if skew > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"matrix is not symmetric: max |M - M^T| = {skew:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max|M| = {SYMMETRY_RTOL * scale:.3e}"
        )
    return 0.5 * (M + M.T)


def precond_apply(G, v) -> np.ndarray:
    """``G v`` for a matrix ``G`` or a 1-D ``G`` standing for ``diag(G)``."""
    return G * v + 0.0 if G.ndim == 1 else G @ v  # + 0.0: a matrix product turns -0.0 into +0.0


def shifted(H, G, rho: float) -> np.ndarray:
    """The new matrix ``G/rho + H`` for a matrix ``G`` or a 1-D ``G`` standing for ``diag(G)``."""
    if G.ndim == 2:
        return G / rho + H
    M = H + 0.0  # as adding the zeros of G/rho does: -0.0 becomes +0.0
    np.fill_diagonal(M, G / rho + H.diagonal())
    return M


def spd_solve(M, b) -> np.ndarray:
    """Solve ``M x = b`` for symmetric positive definite ``M`` by Cholesky.

    A marginally indefinite ``M`` (e.g. a shifted system ``G/rho + H`` with a
    huge penalty ``rho``) gets up to three jittered retries: the jitter starts
    at ``1e-12 * trace(M)/n`` and escalates tenfold per retry; a ``trace(M) <= 0``
    gets none.

    ``b`` may be a vector or a matrix of stacked right-hand sides. ``M`` must
    be symmetric and finite; it is not re-checked (Cholesky reads one triangle).

    Raises :class:`NotPositiveDefinite` if every attempt fails.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    n = M.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"rhs length {b.shape[0]} does not match order {n}")
    base = 1e-12 * float(np.trace(M)) / n
    jitter = 0.0
    for retries in range(4):
        try:
            shifted = M if jitter == 0.0 else M + jitter * np.eye(n)
            factor = scipy.linalg.cho_factor(shifted, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError:
            if base <= 0.0 or retries == 3:  # trace(M) <= 0 leaves no jitter to try
                break
            jitter = base if jitter == 0.0 else 10.0 * jitter
            continue
        return scipy.linalg.cho_solve(factor, b, check_finite=False)
    raise NotPositiveDefinite(
        f"Cholesky failed after {retries} jittered retries (final jitter {jitter:.3e}); "
        "matrix is not positive definite"
    )


def sym_eig(M) -> tuple[np.ndarray, np.ndarray]:
    """Full symmetric eigendecomposition ``M = V diag(w) V^T``; returns ``(w, V)``, ``w`` ascending.

    Raises :class:`ConvergenceFailure` if the underlying eigensolver exceeds
    its sweep budget.
    """
    M = as_symmetric(M)
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from exc
    return w, V


def nonzero_mask(w) -> np.ndarray:
    """Which ascending eigenvalues ``w`` count as nonzero: those above ``DEFAULT_RANK_TOL * lambda_max``, if any."""
    return w > DEFAULT_RANK_TOL * (w[-1] if w.size else 0.0)


def pd_preconditioner(G) -> np.ndarray:
    """``as_symmetric(G)`` if :func:`nonzero_mask` counts its least eigenvalue as nonzero; else NotPositiveDefinite."""
    G = as_symmetric(G)
    if not nonzero_mask(w := sym_eig(G)[0])[0]:
        raise NotPositiveDefinite(f"preconditioner matrix must be PD (lambda_min = {w[0]:.3e})")
    return G


def psd_spectrum(w) -> np.ndarray:
    """Ascending PSD eigenvalues ``w`` clipped at zero; one below ``-1e-10 * lambda_max`` raises :class:`NotPSD`."""
    lam_max = max(float(w[-1]), 0.0) if w.size else 0.0
    if w.size and float(w[0]) < -1e-10 * lam_max:
        raise NotPSD(
            f"matrix has eigenvalue {w[0]:.3e} below -1e-10 * lambda_max = "
            f"{-1e-10 * lam_max:.3e}"
        )
    return np.clip(w, 0.0, None)


def spectral_matrix(B, d) -> np.ndarray:
    """The symmetric matrix ``B diag(d) B^T``, symmetrized against rounding."""
    S = (B * d) @ B.T
    return 0.5 * (S + S.T)


def pinv_apply(M, b) -> np.ndarray:
    """Apply the Moore-Penrose pseudo-inverse of a symmetric PSD ``M`` to a vector or a matrix ``b``.

    Eigenvalues that :func:`nonzero_mask` counts as zero are dropped, so the
    result is exact on ``Range(M)`` and annihilates ``Null(M)``.
    """
    w, V = sym_eig(M)
    b = np.asarray(b, dtype=float)
    keep = nonzero_mask(w)
    coeff = V[:, keep].T @ b
    return V[:, keep] @ (coeff.T / w[keep]).T  # each column of a matrix coeff divided by w


def range_check(M, v) -> tuple[np.ndarray, float, bool]:
    """``(M^+ v, residual, in_range)`` for a symmetric PSD ``M``.

    ``v`` lies in ``Range(M)`` when the projection residual ``||M M^+ v - v||``
    is at most ``1e-8 * (1 + ||v||)``.
    """
    p = pinv_apply(M, v)
    residual = float(np.linalg.norm(M @ p - v))
    return p, residual, residual <= 1e-8 * (1.0 + float(np.linalg.norm(v)))


def psd_sqrt(M) -> np.ndarray:
    """Symmetric PSD square root ``S`` with ``S @ S ~= M``; the spectrum is clipped by :func:`psd_spectrum`."""
    w, V = sym_eig(M)
    return spectral_matrix(V, np.sqrt(psd_spectrum(w)))


def inv_sqrt_pd(M) -> np.ndarray:
    """Inverse symmetric square root of a positive definite ``M``.

    Raises :class:`NotPositiveDefinite` if any eigenvalue is non-positive.
    """
    w, V = sym_eig(M)
    if w.size == 0 or float(w[0]) <= 0.0:
        raise NotPositiveDefinite(
            f"inverse square root needs a PD matrix (lambda_min = {w[0] if w.size else 'n/a'})"
        )
    return spectral_matrix(V, w**-0.5)


def weighted_norm_sq(x, M) -> float:
    """Quadratic form ``x^T M x`` for PSD ``M``, clamped against tiny negative noise.

    Values in ``[-1e-12 * ||M||_F * ||x||^2, 0)`` are rounded up to zero.
    ``M`` is a matrix or, for a diagonal one, its 1-D diagonal (see
    :func:`precond_apply`); it must be symmetric and finite and is not re-checked.
    """
    M = np.asarray(M, dtype=float)
    x = np.asarray(x, dtype=float)
    v = float(x @ precond_apply(M, x))
    if v < 0.0:
        band = 1e-12 * float(np.linalg.norm(M)) * float(x @ x)
        if v >= -band:
            v = 0.0
    return v


def nonzero_eigenvalues(M) -> np.ndarray:
    """Ascending eigenvalues of PSD ``M`` that :func:`nonzero_mask` counts as nonzero."""
    w, _ = sym_eig(M)
    return w[nonzero_mask(w)]


def lambda_min_pos(M) -> float:
    """Smallest eigenvalue of PSD ``M`` above ``DEFAULT_RANK_TOL * lambda_max``; 0.0 when none is."""
    w = nonzero_eigenvalues(M)
    return float(w[0]) if w.size else 0.0
