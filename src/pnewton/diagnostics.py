"""Spectral diagnostics and linear-rate certification for penalty/augmented runs.

For a PSD Hessian ``H``, PD preconditioner ``G`` and penalty ``rho``, the two
central matrices are

    K = (G/rho + H)^{-1}                      (the shifted inverse)
    F = H^{1/2} (I/rho + H^{1/2} G^{-1} H^{1/2})^{-1} H^{1/2}   (filtered curvature)

On the G-whitened scale both act through the scalar filter
``lam -> rho*lam / (1 + rho*lam)`` applied to the eigenvalues of
``G^{-1/2} H G^{-1/2}``. Everything here is computed from one whitening by the
Cholesky factor ``C`` of ``G`` (``W = C^{-1} H C^{-T}`` has that spectrum; a
diagonal ``G``, carried as its 1-D diagonal, is a row and column rescaling)
and one symmetric eigensolve of ``W``, which keeps the algebraic identities

    H K = I - (1/rho) G K          and          G K G = rho G - rho F

accurate to ~1e-11 even at extreme penalties where a naive inversion loses
several digits. Both rate constants are functions of the same spectrum:
``xi = rho*lam_min / (1 + rho*lam_min)`` over the nonzero ``lam`` and
``beta = rho / (1 + rho*lam_max)``.

The certifications replay a recorded solver trace and test, iteration by
iteration, the contraction factors that the convergence analysis predicts:
``1 - eta`` on optimality gaps for penalty runs and ``1 - xi*mu/L`` on the
composite descent value for augmented runs. Both are one loop over the
trace's records that forms ``H`` and ``G`` once per iterate, reads
``(xi, beta, pd)`` from one kernel and scores one inequality. At ``rho = inf``
both take their limits, ``xi = 1`` and ``eta = mu*xi/L``: Newton's ``1 - mu/L``.
Bounds outside (0, 1) are reported as vacuous, never silently passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, MissingOptimum, NotPositiveDefinite, ZeroHessian
from .linalg import (
    as_symmetric,
    inv_sqrt_pd,
    nonzero_eigenvalues,
    nonzero_mask,
    pinv_apply,
    precond_apply,
    psd_spectrum,
    psd_sqrt,
    range_check,
    spd_solve,
    spectral_matrix,
    sym_eig,
    weighted_norm_sq,
)
from .objective import ObjectiveModel

if TYPE_CHECKING:
    from .solvers import IterateTrace, PreconditionerPolicy

__all__ = [
    "CheckResult",
    "ContractionAggregate",
    "ContractionEntry",
    "ContractionReport",
    "shifted_inverse",
    "filtered_curvature",
    "min_filtered_curvature",
    "precond_floor",
    "momentum_matrix",
    "verify_inverse_identities",
    "verify_spectrum_match",
    "verify_gradient_energy_bound",
    "verify_step_energy_bound",
    "lyapunov",
    "certify_penalty_contraction",
    "certify_augmented_contraction",
]

#: Absolute slack allowed on each certified contraction inequality.
SLACK_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus the measured residuals/values behind it."""

    ok: bool
    values: dict[str, float] = field(default_factory=dict)
    precondition_ok: bool = True

    def __bool__(self) -> bool:
        return self.ok


def _whiten(H, G):
    """Cholesky factor ``C`` of ``G = C C^T`` and ``W = C^{-1} H C^{-T}``, similar to ``G^{-1/2} H G^{-1/2}``.

    A 1-D ``G`` stands for ``diag(G)``: ``C`` is the vector ``sqrt(G)`` and
    ``W`` is ``H`` with rows and columns rescaled by ``1/C``, built in place:
    O(n^2), no factorization. ``H`` and ``G`` must be symmetric and finite,
    and a 1-D ``G`` positive (``materialize`` checks it where ``G`` is made);
    they are not re-checked.
    """
    if G.ndim == 1:
        c = np.sqrt(G)
        s = 1.0 / c
        W = H * s[:, None]
        W *= s[None, :]
        W += W.T
        W *= 0.5
        return c, W
    try:
        C = scipy.linalg.cholesky(G, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"preconditioner is not positive definite: {exc}") from exc
    X = scipy.linalg.solve_triangular(C, H, lower=True, check_finite=False)
    W = scipy.linalg.solve_triangular(C, X.T, lower=True, check_finite=False)
    return C, 0.5 * (W + W.T)


def _whitened_spectrum(H, G):
    """Check ``H`` and ``G``; return ``(C, lam, U)`` of the whitened Hessian ``W = U diag(lam) U^T``."""
    C, W = _whiten(as_symmetric(H), as_symmetric(G))
    lam, U = sym_eig(W)
    return C, psd_spectrum(lam), U


def _whitened_eigenvalues(H, G) -> np.ndarray:
    """Ascending, PSD-clipped eigenvalues of the whitened Hessian, without eigenvectors."""
    _, W = _whiten(H, G)
    try:
        lam = np.linalg.eigvalsh(W)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from exc
    return psd_spectrum(lam)


def _xi(lam: np.ndarray, rho: float) -> float:
    nonzero = lam[nonzero_mask(lam)]
    if nonzero.size == 0:
        raise ZeroHessian("whitened Hessian is numerically zero; xi is undefined")
    lam_min = float(nonzero[0])
    return 1.0 if rho == np.inf else rho * lam_min / (1.0 + rho * lam_min)  # the limit, not inf/inf


def _beta(lam: np.ndarray, rho: float) -> float:
    return 1.0 / (1.0 / rho + float(lam[-1]))


def shifted_inverse(H, G, rho: float) -> np.ndarray:
    """The matrix ``(G/rho + H)^{-1} = C^{-T} U diag(1/(1/rho + lam)) U^T C^{-1}``, SPD; ``H^{-1}`` at ``rho = inf``."""
    C, lam, U = _whitened_spectrum(H, G)
    if rho == np.inf and not nonzero_mask(lam).all():  # a singular H has no inverse
        raise NotPositiveDefinite("(G/rho + H)^{-1} does not exist at rho = inf: H is singular")
    B = scipy.linalg.solve_triangular(C, U, lower=True, trans="T", check_finite=False)
    return spectral_matrix(B, 1.0 / (1.0 / rho + lam))


def filtered_curvature(H, G, rho: float) -> np.ndarray:
    """The matrix ``H^{1/2} (I/rho + H^{1/2} G^{-1} H^{1/2})^{-1} H^{1/2}``, PSD.

    Built as ``C U diag(lam/(1/rho + lam)) U^T C^T``; at ``rho = inf`` the filter's
    limit is 1 on the eigenvalues that ``nonzero_mask`` counts as nonzero and 0
    elsewhere. Complementary to the shifted inverse: ``G K G = rho G - rho F``.
    """
    C, lam, U = _whitened_spectrum(H, G)
    return spectral_matrix(C @ U, 1.0 * nonzero_mask(lam) if rho == np.inf else lam / (1.0 / rho + lam))  # not 0/0


def min_filtered_curvature(H, G, rho: float) -> float:
    """Smallest nonzero filtered eigenvalue ``xi = rho*lam / (1 + rho*lam)``.

    ``lam`` ranges over the nonzero spectrum of ``G^{-1/2} H G^{-1/2}``;
    the result lies in (0, 1]. Raises :class:`ZeroHessian` when the Hessian
    is numerically zero (no nonzero eigenvalue to take a minimum over).
    """
    return _xi(_whitened_eigenvalues(as_symmetric(H), as_symmetric(G)), rho)


def precond_floor(H, G, rho: float) -> float:
    """Smallest eigenvalue of ``K^{1/2} G K^{1/2}`` (the beta of the gap bound).

    ``K^{1/2} G K^{1/2}`` is similar to ``G K``, whose eigenvalues are
    ``1/(1/rho + lam)``, so beta is ``rho / (1 + rho * lam_max)``.
    """
    return _beta(_whitened_eigenvalues(as_symmetric(H), as_symmetric(G)), rho)


def momentum_matrix(H, G, rho: float) -> np.ndarray:
    """Adaptive heavy-ball coefficient ``Theta = (1/rho) (G/rho + H)^{-1} G``.

    Not symmetric in general; its spectral radius is below 1 whenever H is PD.
    """
    G = as_symmetric(G)
    H = as_symmetric(H)
    return spd_solve(G / rho + H, G) / rho


def verify_inverse_identities(H, G, rho: float, tol: float = 1e-8, K=None, F=None) -> CheckResult:
    """Check the two algebraic identities tying H, G, K and F together.

    ``||H K - (I - G K / rho)||_F <= tol`` and
    ``||G K G - rho G + rho F||_F <= tol * (1 + ||G||_F^2)``; at ``rho = inf`` the
    second is its limit divided by ``rho``, ``||F - G||_F``. ``K``/``F`` may be
    supplied explicitly (e.g. to show a corrupted matrix fails); by default they
    are computed here.
    """
    H = as_symmetric(H)
    G = as_symmetric(G)
    if K is None:
        K = shifted_inverse(H, G, rho)
    if F is None:
        F = filtered_curvature(H, G, rho)
    n = H.shape[0]
    res_hk = float(np.linalg.norm(H @ K - (np.eye(n) - G @ K / rho), "fro"))
    res_gkg = float(np.linalg.norm(F - G if rho == np.inf else G @ K @ G - rho * G + rho * F, "fro"))  # no inf * 0
    scale = 1.0 + float(np.linalg.norm(G, "fro")) ** 2
    ok = res_hk <= tol and res_gkg <= tol * scale
    return CheckResult(ok, {"res_hk": res_hk, "res_gkg": res_gkg, "gkg_scale": scale})


def verify_spectrum_match(H, G, rho: float, tol: float = 1e-8) -> CheckResult:
    """Check that ``H^{1/2} K H^{1/2}`` and ``G^{-1/2} F G^{-1/2}`` share nonzero spectra.

    The two matrices are built through different routes (the Hessian square
    root versus the whitened filter), so agreement genuinely exercises both.
    The sorted nonzero lists are compared as multisets: when an eigenvalue
    sits at the rank cutoff and the two routes classify it differently, the
    shorter list is padded with zeros, so the disputed value still has to be
    below ``tol`` for the check to pass.
    """
    S = psd_sqrt(H)
    K = shifted_inverse(H, G, rho)
    M1 = S @ K @ S
    Gis = inv_sqrt_pd(G)
    M2 = Gis @ filtered_curvature(H, G, rho) @ Gis
    e1 = nonzero_eigenvalues(0.5 * (M1 + M1.T))
    e2 = nonzero_eigenvalues(0.5 * (M2 + M2.T))
    width = max(e1.size, e2.size)
    p1 = np.concatenate([np.zeros(width - e1.size), e1])
    p2 = np.concatenate([np.zeros(width - e2.size), e2])
    max_diff = float(np.abs(p1 - p2).max()) if width else 0.0
    return CheckResult(
        max_diff <= tol,
        {"count_lhs": float(e1.size), "count_rhs": float(e2.size), "max_diff": max_diff},
    )


def verify_gradient_energy_bound(
    model: ObjectiveModel, x, G, rho: float, tol: float = 1e-10
) -> CheckResult:
    """Check ``||grad f||^2_K >= xi * ||grad f||^2_{H^+}`` at one point."""
    x = np.asarray(x, dtype=float)
    g = model.gradient(x)
    if float(np.linalg.norm(g)) == 0.0:
        return CheckResult(True, {"lhs": 0.0, "rhs": 0.0, "xi": np.nan})
    H = model.hessian(x)
    K = shifted_inverse(H, G, rho)
    lhs = weighted_norm_sq(g, K)
    xi = min_filtered_curvature(H, G, rho)
    rhs = xi * float(g @ pinv_apply(H, g))
    return CheckResult(lhs >= rhs - tol, {"lhs": lhs, "rhs": rhs, "xi": xi})


def verify_step_energy_bound(x, x_prev, H, G, rho: float, tol: float = 1e-10) -> CheckResult:
    """Check ``||x - x_prev||^2_F >= xi * ||x - x_prev||^2_G`` at one iterate.

    Requires H to be PD, or ``G (x - x_prev)`` to lie in ``Range(H)``
    (projection residual below ``1e-8 * (1 + ||G d||)``); the verdict carries
    ``precondition_ok = False`` when neither holds, in which case the bound
    itself is not guaranteed. Whether H is PD, and ``xi``, are read off the
    whitened spectrum, as the augmented certificate reads them.
    """
    x = np.asarray(x, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    d = x - x_prev
    if float(np.linalg.norm(d)) == 0.0:
        return CheckResult(True, {"lhs": 0.0, "rhs": 0.0, "xi": np.nan})
    H = as_symmetric(H)
    G = as_symmetric(G)
    xi, _, pd = _iterate_constants(H, G, rho)
    range_ok = pd or range_check(H, G @ d)[2]
    lhs = weighted_norm_sq(d, filtered_curvature(H, G, rho))
    rhs = xi * weighted_norm_sq(d, G)
    return CheckResult(lhs >= rhs - tol, {"lhs": lhs, "rhs": rhs, "xi": xi}, precondition_ok=range_ok)


def lyapunov(f_x: float, f_star: float, x, x_prev, G, rho: float, step_L: float) -> float:
    """Composite descent value ``f(x) - f* + (L / 2 rho) ||x - x_prev||^2_G``.

    Requires ``f_star <= f_x + 1e-9``; the result is clamped to be nonnegative
    against floating-point noise of that size.
    """
    if f_star > f_x + 1e-9:
        raise ValueError(f"f_star = {f_star!r} exceeds f(x) = {f_x!r} beyond tolerance")
    x = np.asarray(x, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    v = (f_x - f_star) + step_L / (2.0 * rho) * weighted_norm_sq(x - x_prev, G)
    return max(v, 0.0)


@dataclass
class ContractionEntry:
    k: int
    lhs: float
    bound: float
    satisfied: bool
    vacuous: bool
    slack: float
    xi: float
    beta: float | None = None
    eta: float | None = None
    precondition_ok: bool = True


class ContractionAggregate(NamedTuple):
    """A report's aggregate; its fields are the cert file's ``aggregate`` keys, in file order.

    ``all_certified``, ``fraction_satisfied`` (1.0 with none) and ``worst_slack`` (``inf`` with none) are
    over the scored entries, those not vacuous; ``beta_min`` is None when no entry has a ``beta``, as in
    every augmented report.
    """

    iterations: int
    all_certified: bool
    fraction_satisfied: float
    worst_slack: float
    n_vacuous: int
    xi_min: float
    beta_min: float | None


@dataclass
class ContractionReport:
    """Per-iteration contraction certificates for one solver trace.

    ``lhs`` is the achieved ratio (NaN when the reference quantity is zero),
    ``bound`` the predicted factor, ``slack`` the margin of the inequality
    in absolute terms (nonnegative iff satisfied). Entries whose predicted
    factor falls outside (0, 1] are flagged vacuous instead of being scored.
    """

    kind: str
    entries: list[ContractionEntry] = field(default_factory=list)
    f_star: float = np.nan
    mu: float = np.nan
    step_L: float = np.nan

    @property
    def aggregate(self) -> ContractionAggregate:
        scored = [e for e in self.entries if not e.vacuous]
        return ContractionAggregate(
            iterations=len(self.entries),
            all_certified=all(e.satisfied for e in scored),
            fraction_satisfied=sum(e.satisfied for e in scored) / len(scored) if scored else 1.0,
            worst_slack=min((e.slack for e in scored), default=np.inf),
            n_vacuous=len(self.entries) - len(scored),
            xi_min=min((e.xi for e in self.entries), default=np.nan),
            beta_min=min((e.beta for e in self.entries if e.beta is not None), default=None),
        )

    def to_dict(self) -> dict:
        """The cert file's document: a float that is not finite is null; every other value is written as it is."""
        def doc(items) -> dict:
            return {key: None if isinstance(v, float) and not np.isfinite(v) else v for key, v in items}

        header = doc((key, v) for key, v in vars(self).items() if key != "entries")
        return {**header, "aggregate": doc(self.aggregate._asdict().items()),
                "entries": [doc(vars(e).items()) for e in self.entries]}


def _iterate_constants(H, G, rho: float) -> tuple[float, float, bool]:
    """``(xi, beta, pd)`` of a checked ``H`` and its ``G`` from one whitened spectrum; ``pd``: ``H`` is PD."""
    lam = _whitened_eigenvalues(H, G)
    return _xi(lam, rho), _beta(lam, rho), bool(nonzero_mask(lam)[0])


def _certify_records(kind: str, trace: "IterateTrace", model: ObjectiveModel, precond: "PreconditionerPolicy",
                     mu: float, step_L: float) -> ContractionReport:
    """Score ``v_{k+1} <= (1 - factor) v_k + SLACK_TOL`` per iterate, vacuous for a factor outside (0, 1].

    One ``H_k``, one ``G_k`` and one ``(xi, beta, pd)`` per scored ``k``; only ``v`` and the factor
    depend on ``kind``: the gap and ``eta`` for ``"penalty"`` (from ``k = 0``), the composite value
    and ``xi mu / L`` for ``"augmented"`` (from ``k = 1``).
    """
    if trace.f_star is None:
        raise MissingOptimum("certification needs f*; run the solver on a model that carries f_star")
    f_star, records, penalty = float(trace.f_star), trace.records, kind == "penalty"
    if not penalty and len(records) < 2:
        raise ValueError("augmented certification needs a trace with at least two points")
    report = ContractionReport(kind=kind, f_star=f_star, mu=float(mu), step_L=float(step_L))  # written as floats
    for k in range(0 if penalty else 1, len(records) - 1):
        x_k, rho_k = records[k].x, records[k].rho
        H_k = as_symmetric(model.hessian(x_k))
        G_k = precond.materialize(H_k)
        xi_k, beta_k, pd = _iterate_constants(H_k, G_k, rho_k)
        if penalty:
            factor = mu * xi_k * (beta_k + rho_k) / (rho_k * step_L) if rho_k < np.inf else mu * xi_k / step_L
            v_k, v_next = records[k].f - f_star, records[k + 1].f - f_star
            extra = {"beta": beta_k, "eta": factor}
        else:
            x_prev, factor = records[k - 1].x, xi_k * mu / step_L
            v_k = lyapunov(records[k].f, f_star, x_k, x_prev, G_k, rho_k, step_L)
            v_next = lyapunov(records[k + 1].f, f_star, records[k + 1].x, x_k, G_k, rho_k, step_L)
            d = x_k - x_prev
            extra = {"precondition_ok": pd or float(np.linalg.norm(d)) == 0.0
                     or range_check(H_k, precond_apply(G_k, d))[2]}
        rhs = (1.0 - factor) * v_k + SLACK_TOL
        report.entries.append(ContractionEntry(
            k=k, lhs=v_next / v_k if v_k > 0.0 else np.nan, bound=1.0 - factor, satisfied=v_next <= rhs,
            vacuous=not (0.0 < factor <= 1.0), slack=rhs - v_next, xi=xi_k, **extra))
    return report


def certify_penalty_contraction(
    trace: "IterateTrace",
    model: ObjectiveModel,
    precond: "PreconditionerPolicy",
    mu: float,
    step_L: float,
) -> ContractionReport:
    """Certify per-iteration gap contraction of a penalty-Newton trace.

    At each recorded iterate the contraction margin is
    ``eta_k = mu * xi_k * (beta_k + rho_k) / (rho_k * L)`` with
    ``beta_k`` the smallest eigenvalue of ``K^{1/2} G K^{1/2}`` at that
    iterate, both read off one whitened spectrum; the check is
    ``gap_{k+1} <= (1 - eta_k) * gap_k + SLACK_TOL``. Iterations where
    ``eta_k`` falls outside (0, 1] are flagged vacuous.
    """
    return _certify_records("penalty", trace, model, precond, mu, step_L)


def certify_augmented_contraction(
    trace: "IterateTrace",
    model: ObjectiveModel,
    precond: "PreconditionerPolicy",
    mu: float,
    step_L: float,
) -> ContractionReport:
    """Certify per-iteration composite-value contraction of an augmented trace.

    For each interior iterate the composite value
    ``V_k = f(x_k) - f* + (L / 2 rho_k) ||x_k - x_{k-1}||^2_G`` must contract
    by at least ``1 - xi_k * mu / L`` (both sides evaluated at the penalty
    value actually used for the step). The range condition on
    ``G (x_k - x_{k-1})`` is annotated per iterate: it holds when the whitened
    spectrum shows ``H`` is PD, and is checked by projection otherwise.
    """
    return _certify_records("augmented", trace, model, precond, mu, step_L)
