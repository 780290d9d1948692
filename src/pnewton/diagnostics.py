"""Spectral diagnostics and linear-rate certification for penalty/augmented runs.

For a PSD Hessian ``H``, PD preconditioner ``G`` and penalty ``rho``, the two
central matrices are

    K = (G/rho + H)^{-1}                      (the shifted inverse)
    F = H^{1/2} (I/rho + H^{1/2} G^{-1} H^{1/2})^{-1} H^{1/2}   (filtered curvature)

On the G-whitened scale both act through the scalar filter
``lam -> rho*lam / (1 + rho*lam)`` applied to the eigenvalues of
``G^{-1/2} H G^{-1/2}``. One builder, ``_spectrum``, makes that spectrum: one
whitening by the Cholesky factor ``C`` of ``G`` (``W = C^{-1} H C^{-T}``; a
diagonal ``G``, carried as its 1-D diagonal, is a row and column rescaling)
and one symmetric eigensolve of ``W``, without eigenvectors when only the
rate constants are read. Its readers ``K``, ``F`` and ``(xi, beta, pd)`` keep

    H K = I - (1/rho) G K          and          G K G = rho G - rho F

accurate to ~1e-11 even at extreme penalties where a naive inversion loses
several digits; ``xi = rho*lam_min / (1 + rho*lam_min)`` over the nonzero
``lam`` and ``beta = rho / (1 + rho*lam_max)``. Each public function checks
``H``, ``G`` and ``rho`` once and builds one spectrum, each ``verify_*`` included.

The certifications replay a recorded solver trace and test, iteration by
iteration, the contraction factors that the convergence analysis predicts:
``1 - eta`` on optimality gaps for penalty runs and ``1 - xi*mu/L`` on the
composite descent value for augmented runs. Both are one loop over the trace's
records that takes each iterate's ``(H, G)`` from ``SolverConfig.step_inputs``,
reads ``(xi, beta, pd)`` off one spectrum and scores one inequality. At
``rho = inf`` both take their limits, ``xi = 1`` and ``eta = mu*xi/L``: Newton's ``1 - mu/L``.
Bounds outside (0, 1) are reported as vacuous, never silently passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, MissingOptimum, NotPositiveDefinite, ZeroHessian
from .linalg import (
    as_symmetric,
    inv_sqrt_pd,
    nonzero_eigenvalues,
    nonzero_mask,
    pd_preconditioner,
    pinv_apply,
    positive_penalty,
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
from .solvers import FSTAR_SLACK, IterateTrace, composite_value

__all__ = [
    "CheckResult",
    "ContractionAggregate",
    "ContractionEntry",
    "ContractionReport",
    "shifted_inverse",
    "filtered_curvature",
    "RateConstants",
    "rate_constants",
    "momentum_matrix",
    "verify_inverse_identities",
    "verify_spectrum_match",
    "verify_gradient_energy_bound",
    "verify_step_energy_bound",
    "certify_penalty_contraction",
    "certify_augmented_contraction",
]

#: Absolute slack allowed on each certified contraction inequality.
SLACK_TOL = 1e-12

#: Absolute slack of ``verify_gradient_energy_bound`` and ``verify_step_energy_bound``.
ENERGY_TOL = 1e-10
#: Largest eigenvalue difference ``verify_spectrum_match`` accepts.
SPECTRUM_TOL = 1e-8

#: Certified method -> the name of its certifier; ``damped_newton``'s line search is outside the theorem.
CERTIFIERS = dict.fromkeys(("pnm", "newton"), "certify_penalty_contraction") | {"anm": "certify_augmented_contraction"}


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
    and a 1-D ``G`` positive (``step_inputs`` checks it where ``G`` is made);
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


class RateConstants(NamedTuple):
    """The rate constants of one ``(H, G, rho)``; ``pd``: ``H`` is PD on the whitened scale."""

    xi: float
    beta: float
    pd: bool


class _Spectrum(NamedTuple):
    """``W = C^{-1} H C^{-T} = U diag(lam) U^T`` (``lam`` clipped PSD; ``U`` None when unsolved), read at any ``rho``.

    ``K``, ``F`` and ``rates`` are :func:`shifted_inverse`, :func:`filtered_curvature` and :func:`rate_constants`.
    """

    C: np.ndarray
    lam: np.ndarray
    U: np.ndarray | None

    def K(self, rho: float) -> np.ndarray:
        if rho == np.inf and not nonzero_mask(self.lam).all():  # a singular H has no inverse
            raise NotPositiveDefinite("(G/rho + H)^{-1} does not exist at rho = inf: H is singular")
        B = scipy.linalg.solve_triangular(self.C, self.U, lower=True, trans="T", check_finite=False)
        return spectral_matrix(B, 1.0 / (1.0 / rho + self.lam))

    def F(self, rho: float) -> np.ndarray:
        lam = self.lam
        return spectral_matrix(self.C @ self.U, 1.0 * nonzero_mask(lam) if rho == np.inf else lam / (1.0 / rho + lam))

    def rates(self, rho: float) -> RateConstants:
        nonzero = nonzero_mask(self.lam)
        if not nonzero.any():
            raise ZeroHessian("whitened Hessian is numerically zero; xi is undefined")
        lam_min = float(self.lam[nonzero][0])
        xi = 1.0 if rho == np.inf else rho * lam_min / (1.0 + rho * lam_min)  # the limit, not inf/inf
        return RateConstants(xi, 1.0 / (1.0 / rho + float(self.lam[-1])), bool(nonzero[0]))


def _spectrum(H, G, vectors: bool) -> _Spectrum:
    """The one whitening and eigensolve of a checked ``H`` and a dense or 1-D ``G``: ``sym_eig``, or ``eigvalsh``."""
    C, W = _whiten(H, G)
    try:
        lam, U = sym_eig(W) if vectors else (np.linalg.eigvalsh(W), None)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition did not converge: {exc}") from exc
    return _Spectrum(C, psd_spectrum(lam), U)


def shifted_inverse(H, G, rho: float) -> np.ndarray:
    """The matrix ``(G/rho + H)^{-1} = C^{-T} U diag(1/(1/rho + lam)) U^T C^{-1}``, SPD; ``H^{-1}`` at ``rho = inf``."""
    return _spectrum(as_symmetric(H), as_symmetric(G), True).K(positive_penalty("rho", rho))


def filtered_curvature(H, G, rho: float) -> np.ndarray:
    """The matrix ``H^{1/2} (I/rho + H^{1/2} G^{-1} H^{1/2})^{-1} H^{1/2}``, PSD.

    Built as ``C U diag(lam/(1/rho + lam)) U^T C^T``; at ``rho = inf`` the filter's
    limit is 1 on the eigenvalues that ``nonzero_mask`` counts as nonzero and 0
    elsewhere. Complementary to the shifted inverse: ``G K G = rho G - rho F``.
    """
    return _spectrum(as_symmetric(H), as_symmetric(G), True).F(positive_penalty("rho", rho))


def rate_constants(H, G, rho: float) -> RateConstants:
    """``(xi, beta, pd)`` off the spectrum ``lam`` of ``G^{-1/2} H G^{-1/2}``; ``H`` and ``G`` are checked here.

    ``xi = rho*lam_min / (1 + rho*lam_min)`` over the nonzero ``lam`` lies in (0, 1] (1 at ``rho = inf``);
    with no nonzero ``lam`` it is undefined and :class:`ZeroHessian` is raised. ``beta = rho / (1 + rho*lam_max)``
    is the smallest eigenvalue of ``K^{1/2} G K^{1/2}`` (similar to ``G K``); ``pd``: ``lam_min`` is nonzero.
    """
    return _spectrum(as_symmetric(H), as_symmetric(G), False).rates(positive_penalty("rho", rho))


def momentum_matrix(H, G, rho: float) -> np.ndarray:
    """Adaptive heavy-ball coefficient ``Theta = (1/rho) (G/rho + H)^{-1} G``.

    Not symmetric in general; its spectral radius is below 1 whenever H is PD.
    """
    G, H, rho = pd_preconditioner(G), as_symmetric(H), positive_penalty("rho", rho)
    return spd_solve(G / rho + H, G) / rho


def verify_inverse_identities(H, G, rho: float, tol: float = 1e-8, K=None, F=None) -> CheckResult:
    """Check the two algebraic identities tying H, G, K and F together.

    ``||H K - (I - G K / rho)||_F <= tol`` and
    ``||G K G - rho G + rho F||_F <= tol * (1 + ||G||_F^2)``; at ``rho = inf`` the
    second is its limit divided by ``rho``, ``||F - G||_F``. ``K``/``F`` may be
    supplied explicitly (e.g. to show a corrupted matrix fails); by default they
    are read off one whitened spectrum here.
    """
    H, G, rho = as_symmetric(H), as_symmetric(G), positive_penalty("rho", rho)
    if K is None or F is None:
        S = _spectrum(H, G, True)
        K, F = S.K(rho) if K is None else K, S.F(rho) if F is None else F
    res_hk = float(np.linalg.norm(H @ K - (np.eye(H.shape[0]) - G @ K / rho), "fro"))
    res_gkg = float(np.linalg.norm(F - G if rho == np.inf else G @ K @ G - rho * G + rho * F, "fro"))  # no inf * 0
    scale = 1.0 + float(np.linalg.norm(G, "fro")) ** 2
    ok = res_hk <= tol and res_gkg <= tol * scale
    return CheckResult(ok, {"res_hk": res_hk, "res_gkg": res_gkg, "gkg_scale": scale})


def verify_spectrum_match(H, G, rho: float) -> CheckResult:
    """Check that ``H^{1/2} K H^{1/2}`` and ``G^{-1/2} F G^{-1/2}`` share nonzero spectra.

    The two matrices are built through different routes (the Hessian square
    root versus the whitened filter), so agreement genuinely exercises both.
    The sorted nonzero lists are compared as multisets: when an eigenvalue
    sits at the rank cutoff and the two routes classify it differently, the
    shorter list is padded with zeros, so the disputed value still has to be
    below ``SPECTRUM_TOL`` for the check to pass.
    """
    H, G, rho = as_symmetric(H), as_symmetric(G), positive_penalty("rho", rho)
    S, R, Gis = _spectrum(H, G, True), psd_sqrt(H), inv_sqrt_pd(G)
    M1 = R @ S.K(rho) @ R
    M2 = Gis @ S.F(rho) @ Gis
    e1 = nonzero_eigenvalues(0.5 * (M1 + M1.T))
    e2 = nonzero_eigenvalues(0.5 * (M2 + M2.T))
    width = max(e1.size, e2.size)
    p1 = np.concatenate([np.zeros(width - e1.size), e1])
    p2 = np.concatenate([np.zeros(width - e2.size), e2])
    max_diff = float(np.abs(p1 - p2).max()) if width else 0.0
    return CheckResult(
        max_diff <= SPECTRUM_TOL,
        {"count_lhs": float(e1.size), "count_rhs": float(e2.size), "max_diff": max_diff},
    )


def verify_gradient_energy_bound(model: ObjectiveModel, x, G, rho: float) -> CheckResult:
    """Check ``||grad f||^2_K >= xi * ||grad f||^2_{H^+} - ENERGY_TOL`` at one point."""
    x, rho = np.asarray(x, dtype=float), positive_penalty("rho", rho)
    g = model.gradient(x)
    if float(np.linalg.norm(g)) == 0.0:
        return CheckResult(True, {"lhs": 0.0, "rhs": 0.0, "xi": np.nan})
    H, G = as_symmetric(model.hessian(x)), as_symmetric(G)
    S = _spectrum(H, G, True)
    lhs = weighted_norm_sq(g, S.K(rho))
    xi = S.rates(rho).xi
    rhs = xi * float(g @ pinv_apply(H, g))
    return CheckResult(lhs >= rhs - ENERGY_TOL, {"lhs": lhs, "rhs": rhs, "xi": xi})


def _range_hypothesis(pd: bool, H, G, d) -> bool:
    """ANM's range hypothesis at a step ``d``: ``H`` is PD, or ``d`` is 0, or ``G d`` lies in ``Range(H)``."""
    return pd or float(np.linalg.norm(d)) == 0.0 or range_check(H, precond_apply(G, d))[2]


def verify_step_energy_bound(x, x_prev, H, G, rho: float) -> CheckResult:
    """Check ``||x - x_prev||^2_F >= xi * ||x - x_prev||^2_G - ENERGY_TOL`` at one iterate.

    Requires H to be PD, or ``G (x - x_prev)`` to lie in ``Range(H)``
    (projection residual below ``1e-8 * (1 + ||G d||)``); the verdict carries
    ``precondition_ok = False`` when neither holds, in which case the bound
    itself is not guaranteed. Whether H is PD, and ``xi``, are read off the
    whitened spectrum, as the augmented certificate reads them.
    """
    x, x_prev, rho = np.asarray(x, dtype=float), np.asarray(x_prev, dtype=float), positive_penalty("rho", rho)
    d = x - x_prev
    if float(np.linalg.norm(d)) == 0.0:
        return CheckResult(True, {"lhs": 0.0, "rhs": 0.0, "xi": np.nan})
    H, G = as_symmetric(H), as_symmetric(G)
    S = _spectrum(H, G, True)
    xi, _, pd = S.rates(rho)
    range_ok = _range_hypothesis(pd, H, G, d)
    lhs = weighted_norm_sq(d, S.F(rho))
    rhs = xi * weighted_norm_sq(d, G)
    return CheckResult(lhs >= rhs - ENERGY_TOL, {"lhs": lhs, "rhs": rhs, "xi": xi}, precondition_ok=range_ok)


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


def _certify_records(kind: str, trace: IterateTrace, model: ObjectiveModel) -> ContractionReport:
    """Score ``v_{k+1} <= (1 - factor) v_k + SLACK_TOL`` per iterate, vacuous for a factor outside (0, 1].

    One ``(H_k, G_k)`` from the run's ``config.step_inputs`` and one ``(xi, beta, pd)`` per scored ``k``; only ``v``
    and the factor depend on ``kind``: the gap and ``eta`` for ``"penalty"`` (from ``k = 0``), ``composite_value``
    at ``rho_k``, ``G_k`` and ``xi mu / L`` for ``"augmented"`` (from ``k = 1``); ``L`` is the run's, ``mu`` the
    model's. A method ``CERTIFIERS`` maps elsewhere, or an f* above ``min f + FSTAR_SLACK``, is a ``ValueError``.
    """
    config, methods = trace.config, [m for m, name in CERTIFIERS.items() if name == f"certify_{kind}_contraction"]
    if config.method not in methods:
        raise ValueError(f"{kind} certification applies to {'/'.join(methods)} traces, not {config.method!r}")
    if trace.f_star is None:
        raise MissingOptimum("certification needs f*; run the solver on a model that carries f_star")
    if model.constants is None:
        raise ValueError("certification needs mu; give the model its constants (L, mu)")
    mu, step_L = model.constants.mu, config.step_L
    f_star, records, penalty = float(trace.f_star), trace.records, kind == "penalty"
    if f_star > (f_low := min(record.f for record in records)) + FSTAR_SLACK:
        raise ValueError(f"f_star = {f_star!r} exceeds the lowest recorded f(x) = {f_low!r} beyond tolerance")
    if not penalty and len(records) < 2:
        raise ValueError("augmented certification needs a trace with at least two points")
    report = ContractionReport(kind=kind, f_star=f_star, mu=float(mu), step_L=float(step_L))  # written as floats
    for k in range(0 if penalty else 1, len(records) - 1):
        x_k, rho_k = records[k].x, records[k].rho
        H_k, G_k = config.step_inputs(model, x_k)
        xi_k, beta_k, pd = _spectrum(H_k, G_k, False).rates(rho_k)
        if penalty:
            factor = mu * xi_k * (beta_k + rho_k) / (rho_k * step_L) if rho_k < np.inf else mu * xi_k / step_L
            v_k, v_next = records[k].f - f_star, records[k + 1].f - f_star
            extra = {"beta": beta_k, "eta": factor}
        else:
            d, factor = x_k - records[k - 1].x, xi_k * mu / step_L
            v_k = composite_value(records[k].f - f_star, weighted_norm_sq(d, G_k), rho_k, step_L)
            v_next = composite_value(records[k + 1].f - f_star, records[k + 1].step_norm_g_sq, rho_k, step_L)
            extra = {"precondition_ok": _range_hypothesis(pd, H_k, G_k, d)}
        rhs = (1.0 - factor) * v_k + SLACK_TOL
        report.entries.append(ContractionEntry(
            k=k, lhs=v_next / v_k if v_k > 0.0 else np.nan, bound=1.0 - factor, satisfied=v_next <= rhs,
            vacuous=not (0.0 < factor <= 1.0), slack=rhs - v_next, xi=xi_k, **extra))
    return report


def certify_penalty_contraction(trace: IterateTrace, model: ObjectiveModel) -> ContractionReport:
    """Certify per-iteration gap contraction of a ``pnm`` trace, or of a ``newton`` one (``rho = inf``).

    At each recorded iterate the contraction margin is
    ``eta_k = mu * xi_k * (beta_k + rho_k) / (rho_k * L)`` with
    ``beta_k`` the smallest eigenvalue of ``K^{1/2} G K^{1/2}`` at that
    iterate, both read off one whitened spectrum; the check is
    ``gap_{k+1} <= (1 - eta_k) * gap_k + SLACK_TOL``. Iterations where
    ``eta_k`` falls outside (0, 1] are flagged vacuous.
    """
    return _certify_records("penalty", trace, model)


def certify_augmented_contraction(trace: IterateTrace, model: ObjectiveModel) -> ContractionReport:
    """Certify per-iteration composite-value contraction of an ``anm`` trace.

    For each interior iterate the composite value
    ``V_k = f(x_k) - f* + (L / 2 rho_k) ||x_k - x_{k-1}||^2_G`` must contract
    by at least ``1 - xi_k * mu / L`` (both sides evaluated at the penalty
    value actually used for the step). The range condition on
    ``G (x_k - x_{k-1})`` is annotated per iterate: it holds when the whitened
    spectrum shows ``H`` is PD, and is checked by projection otherwise.
    """
    return _certify_records("augmented", trace, model)
