"""Objective models: generic twice-differentiable functions and regularized GLMs.

The GLM family implemented here is the finite sum

    f(x) = (1/m) * sum_i phi_i(a_i^T x) + (alpha/2) * ||x||^2

with per-sample losses whose second derivative is bounded, ``u <= phi'' <= ell``.
That curvature sandwich is what makes the relative smoothness/convexity
constants computable in closed form from ``sigma_max(A)``; see
:func:`glm_constants`. Finite-difference oracles for gradient and Hessian
live here too so derivative code is always checkable against an independent
route.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit

from .errors import BadLabel, BadShape
from .linalg import as_symmetric, sym_eig, weighted_norm_sq

__all__ = [
    "ObjectiveModel",
    "GlmProblem",
    "RelativeConstants",
    "glm_build",
    "glm_constants",
    "fd_gradient",
    "fd_hessian",
    "check_relative_bounds",
    "BoundsCheck",
    "quadratic_model",
    "in_level_set",
    "LINK_CURVATURE",
]

#: Curvature bounds (u, ell) with u <= phi'' <= ell for each supported link.
LINK_CURVATURE = {
    "logistic": (0.0, 0.25),
    "squared": (1.0, 1.0),
}


class RelativeConstants(NamedTuple):
    """A model's relative smoothness/convexity pair ``(L, mu)``; a GLM's is reciprocal: ``L * mu == 1``."""

    L: float
    mu: float


@dataclass(frozen=True)
class ObjectiveModel:
    """Evaluatable triple ``(f, grad f, hess f)`` over R^n.

    ``hessian`` must return a symmetric, finite n x n matrix; pnewton checks it
    once, with :func:`~pnewton.linalg.as_symmetric`, where it receives it, and
    uses it as is, never mutating it, when it is exactly symmetric.
    ``constants`` optionally carries the relative smoothness/convexity pair
    ``(L, mu)`` with ``0 < mu <= L`` as :class:`RelativeConstants` (a plain pair is
    converted); ``f_star`` carries the minimum value when it is known (attach one
    with ``dataclasses.replace(model, f_star=...)``).
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    constants: RelativeConstants | None = None
    f_star: float | None = None

    def __post_init__(self):
        if self.constants is not None:
            if not isinstance(self.constants, RelativeConstants):  # a plain pair; the dataclass is frozen
                object.__setattr__(self, "constants", RelativeConstants(*self.constants))
            L, mu = self.constants
            if not (0.0 < mu <= L):
                raise ValueError(f"need 0 < mu <= L, got L={L}, mu={mu}")


class GlmProblem:
    """L2-regularized generalized linear model over a dense n x m data matrix.

    Columns of ``A`` are the per-sample feature vectors ``a_i``. For the
    logistic link, labels ``y_i`` must be in {-1, +1} and the per-sample loss
    is ``log(1 + exp(-y_i t))``; absent labels default to +1. For the squared
    link the loss is ``(t - y_i)^2 / 2`` with labels defaulting to 0.

    The data matrix and labels are read-only, so instances are safe to share
    across threads. A read-only, C-contiguous float64 ``ndarray`` that owns its
    memory is kept as ``A`` without a copy (the caller hands it over); anything
    else is copied and the copy frozen. The only mutable state is a per-thread
    memo of the loss terms at the last point evaluated: ``f``, ``grad f`` and
    ``hess f`` at one point share one margin product ``A^T x`` and one
    loss-term pass.
    """

    def __init__(self, A, link: str, alpha: float, labels=None):
        if not (type(A) is np.ndarray and A.dtype == np.float64 and A.flags.c_contiguous
                and A.flags.owndata and not A.flags.writeable):
            A = np.array(A, dtype=float)  # own copy; frozen below
        if A.ndim != 2:
            raise BadShape(f"data matrix must be 2-D, got shape {A.shape}")
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise BadShape(f"need n >= 1 and m >= 1, got shape {A.shape}")
        if not (np.isfinite(A.max()) and np.isfinite(A.min())):  # NaN and inf reach max or min
            raise ValueError("data matrix has non-finite entries")
        if link not in LINK_CURVATURE:
            raise ValueError(f"unknown link {link!r}; choose from {sorted(LINK_CURVATURE)}")
        if not alpha > 0.0:
            raise ValueError(f"regularization alpha must be > 0, got {alpha}")
        n, m = A.shape
        if labels is not None:
            labels = np.array(labels, dtype=float)
            if labels.shape != (m,):
                raise BadShape(f"labels must have length m={m}, got shape {labels.shape}")
            if link == "logistic" and not np.all(np.isin(labels, (-1.0, 1.0))):
                bad = labels[~np.isin(labels, (-1.0, 1.0))][0]
                raise BadLabel(f"logistic labels must be -1 or +1, got {bad}")
        self.A = A
        self.A.setflags(write=False)
        self.link = link
        self.alpha = float(alpha)
        self.labels = labels
        if labels is not None:
            self.labels.setflags(write=False)
        self._memo = threading.local()

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

    # per-sample loss and its first two derivatives at the margins t = A^T x
    def _loss_terms(self, t):
        if self.link == "logistic":
            y = self.labels if self.labels is not None else np.ones_like(t)
            s = y * t
            val = np.logaddexp(0.0, -s)
            e = expit(-s)
            d1 = -y * e
            d2 = expit(s) * e
        else:
            y = self.labels if self.labels is not None else np.zeros_like(t)
            r = t - y
            val = 0.5 * r * r
            d1 = r
            d2 = np.ones_like(t)
        return val, d1, d2

    # loss terms at the last point this thread evaluated; an x changed in place misses
    def _terms_at(self, x):
        key = x.tobytes()
        memo = self._memo
        if getattr(memo, "key", None) != key:
            memo.terms = self._loss_terms(self.A.T @ x)
            memo.key = key
        return memo.terms

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        val, _, _ = self._terms_at(x)
        return float(val.mean() + 0.5 * self.alpha * (x @ x))

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        _, d1, _ = self._terms_at(x)
        return self.A @ d1 / self.m + self.alpha * x

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        _, _, d2 = self._terms_at(x)
        # 0.5 (H + H^T) of H = (A diag(d2) A^T) / m + alpha I, finished in place, bitwise
        H = (self.A * d2) @ self.A.T
        H /= self.m
        np.fill_diagonal(H, H.diagonal() + self.alpha)
        H += H.T
        H *= 0.5
        return H

    def model(self) -> ObjectiveModel:
        """Bundle this problem as an :class:`ObjectiveModel` with its closed-form (L, mu)."""
        return ObjectiveModel(
            dim=self.n,
            value=self.value,
            gradient=self.gradient,
            hessian=self.hessian,
            constants=glm_constants(self),
        )


def glm_build(A, link: str, alpha: float, labels=None) -> GlmProblem:
    """Construct a validated :class:`GlmProblem`."""
    return GlmProblem(A, link, alpha, labels)


def glm_constants(p: GlmProblem) -> RelativeConstants:
    """Closed-form relative smoothness/convexity constants of a GLM.

    With curvature bounds ``u <= phi'' <= ell`` and ``s = sigma_max^2(A)``:

        L  = (ell*s + m*alpha) / (u*s + m*alpha)
        mu = (u*s + m*alpha) / (ell*s + m*alpha)

    ``sigma_max^2(A)`` is the top eigenvalue of ``A A^T``. Raises ``ValueError``
    when that Gram product overflows, which finite but huge data can make it do.
    """
    u, ell = LINK_CURVATURE[p.link]
    with np.errstate(over="ignore", invalid="ignore"):
        AAT = p.A @ p.A.T
    if not np.isfinite(AAT).all():
        raise ValueError(f"the data's Gram product A A^T overflows float64 (max |A| entry {np.abs(p.A).max():.3e})")
    w, _ = sym_eig(AAT)
    sigma_max_sq = max(float(w[-1]), 0.0)
    num = ell * sigma_max_sq + p.m * p.alpha
    den = u * sigma_max_sq + p.m * p.alpha
    return RelativeConstants(L=num / den, mu=den / num)


def fd_gradient(model: ObjectiveModel, x, h: float | None = None) -> np.ndarray:
    """Central-difference gradient of ``model.value`` at ``x``.

    Default step is ``1e-6 * (1 + ||x||)``.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (model.value(x + e) - model.value(x - e)) / (2.0 * h)
    return g


def fd_hessian(model: ObjectiveModel, x, h: float | None = None) -> np.ndarray:
    """Central-difference Hessian from the analytic gradient, symmetrized."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    n = x.size
    H = np.empty((n, n))
    for i in range(n):
        e = np.zeros_like(x)
        e[i] = h
        H[:, i] = (model.gradient(x + e) - model.gradient(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


class BoundsCheck(NamedTuple):
    ok_upper: bool
    ok_lower: bool
    slack_upper: float
    slack_lower: float


def check_relative_bounds(model: ObjectiveModel, x, y, L: float, mu: float) -> BoundsCheck:
    """Test the relative smoothness/convexity sandwich between two points.

    Evaluates ``gap = f(x) - f(y) - <grad f(y), x - y>`` against
    ``(L/2)||x-y||^2_{H(y)}`` (upper) and ``(mu/2)||x-y||^2_{H(y)}`` (lower),
    allowing 1e-9 absolute slack on each side.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    gap = model.value(x) - model.value(y) - float(model.gradient(y) @ d)
    w = weighted_norm_sq(d, as_symmetric(model.hessian(y)))
    upper = 0.5 * L * w
    lower = 0.5 * mu * w
    return BoundsCheck(
        ok_upper=gap <= upper + 1e-9,
        ok_lower=gap >= lower - 1e-9,
        slack_upper=upper - gap,
        slack_lower=gap - lower,
    )


def quadratic_model(Q) -> ObjectiveModel:
    """Convex quadratic ``f(x) = x^T Q x / 2`` with minimizer 0, so ``f_star = 0.0``.

    Exactly relative-smooth and relative-convex with ``L = mu = 1``.
    """
    Q = np.asarray(Q, dtype=float)
    Q = 0.5 * (Q + Q.T)
    n = Q.shape[0]

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ (Q @ x))

    def gradient(x):
        return Q @ np.asarray(x, dtype=float)

    def hessian(x):
        return Q

    return ObjectiveModel(
        dim=n, value=value, gradient=gradient, hessian=hessian,
        constants=RelativeConstants(1.0, 1.0), f_star=0.0,
    )


def in_level_set(model: ObjectiveModel, x, y, x0, y0, G, rho: float, step_L: float) -> bool:
    """Membership of the pair ``(x, y)`` in the composite level set of ``(x0, y0)``.

    The composite value is ``f(x) + (L / 2 rho) ||x - y||^2_G``; membership
    allows 1e-9 absolute slack over the initial value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    G = as_symmetric(G)
    coeff = step_L / (2.0 * rho)
    lhs = model.value(x) + coeff * weighted_norm_sq(x - y, G)
    rhs = model.value(x0) + coeff * weighted_norm_sq(x0 - y0, G)
    return lhs <= rhs + 1e-9
