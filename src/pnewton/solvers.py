"""Iterative methods: Newton baselines, penalty and augmented Newton, root finding.

The two headline updates, with preconditioner ``G > 0``, penalty ``rho`` and
step constant ``L``:

    penalty form:    x+ = x - (1/L) (G/rho + H(x))^{-1} grad f(x)
    augmented form:  x+ = x - (G/rho + H(x))^{-1} [ (1/L) grad f(x)
                                                    - (1/rho) G (x - x_prev) ]

Choosing ``G = I`` recovers the Levenberg update, ``G = diag(H)`` the
Levenberg-Marquardt one, and ``rho -> inf`` the plain Newton step. The
augmented form is equivalently a Newton step plus adaptive heavy-ball
momentum, or a primal/dual multiplier iteration (see ``anm_step_dual``).

Runs record an :class:`IterateTrace` with per-iteration function values,
gradient norms, penalty values, weighted step norms and (when f* is known)
the composite descent value ``f(x_k) - f* + (L / 2 rho_k) ||x_k - x_{k-1}||^2_G``.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DenominatorVanished,
    LineSearchStall,
    MaxIterationsExceeded,
    NotPositiveDefinite,
    RangeViolation,
)
from .linalg import as_symmetric, precond_apply, range_check, shifted, spd_solve, sym_eig, weighted_norm_sq
from .linalg import pinv_apply  # noqa: F401  (stays bound here: perfbench's tracer patches this binding)
from .objective import ObjectiveModel

__all__ = [
    "PreconditionerPolicy",
    "PenaltySchedule",
    "SolverConfig",
    "IterateRecord",
    "IterateTrace",
    "DualState",
    "newton_step",
    "pnm_step",
    "anm_step_dual",
    "anm_step_momentum",
    "root_penalty_newton",
    "root_augmented_newton",
    "FStarResult",
    "fstar_oracle",
    "run",
    "METHODS",
]

METHODS = ("newton", "damped_newton", "pnm", "anm")

#: Damped Newton's Armijo fraction and step shrink factor (see ``_backtrack``).
BT_ALPHA = 0.25
BT_BETA = 0.5


@dataclass(frozen=True)
class PreconditionerPolicy:
    """How to realize the penalty-norm matrix G at each iterate.

    ``identity`` (the default) gives the Levenberg special case,
    ``hessian_diagonal`` the Levenberg-Marquardt one (G re-evaluated as
    diag(H(x_k)) every iterate), and ``PreconditionerPolicy("fixed", M)`` uses
    a copy of the PD matrix ``M`` throughout.
    """

    kind: str = "identity"
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "hessian_diagonal", "fixed"):
            raise ValueError(f"unknown preconditioner kind {self.kind!r}")
        if self.kind == "fixed":
            if self.matrix is None:
                raise ValueError("fixed preconditioner needs a matrix")
            M = as_symmetric(np.array(self.matrix, dtype=float))  # never the caller's array
            w, _ = sym_eig(M)
            if float(w[0]) <= 0.0:
                raise NotPositiveDefinite(
                    f"fixed preconditioner must be PD (lambda_min = {w[0]:.3e})"
                )
            object.__setattr__(self, "matrix", M)

    def materialize(self, H: np.ndarray) -> np.ndarray:
        """Concrete G for an iterate whose Hessian is ``H``: its 1-D diagonal unless ``fixed``."""
        if self.kind == "identity":
            return np.ones(H.shape[0])
        if self.kind == "hessian_diagonal":
            d = H.diagonal().copy()
            if np.any(d <= 0.0):
                raise NotPositiveDefinite(
                    "hessian_diagonal preconditioner needs a strictly positive "
                    f"Hessian diagonal (min entry {d.min():.3e})"
                )
            return d
        return self.matrix


@dataclass(frozen=True)
class PenaltySchedule:
    """Geometric penalty growth ``rho_{k+1} = min(c * rho_k, rho_max)``."""

    rho0: float = 1.0
    c: float = 2.0
    rho_max: float = 1e12

    def __post_init__(self):
        if not self.rho0 > 0.0:
            raise ValueError(f"rho0 must be > 0, got {self.rho0}")
        if self.c < 1.0:
            raise ValueError(f"growth factor c must be >= 1, got {self.c}")
        if self.rho_max < self.rho0:
            raise ValueError("rho_max must be >= rho0")

    @classmethod
    def fixed(cls, rho: float) -> "PenaltySchedule":
        return cls(rho0=rho, c=1.0, rho_max=max(rho, 1e12))

    def next_rho(self, rho: float) -> float:
        return min(self.c * rho, self.rho_max)


@dataclass(frozen=True)
class SolverConfig:
    """Method selection plus every knob the runs need."""

    method: str = "pnm"
    precond: PreconditionerPolicy = field(default_factory=PreconditionerPolicy)
    schedule: PenaltySchedule = field(default_factory=PenaltySchedule)
    step_L: float = 1.0
    max_iters: int = 100
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not self.step_L > 0.0:
            raise ValueError(f"step constant L must be > 0, got {self.step_L}")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be > 0")


@dataclass
class IterateRecord:
    k: int
    x: np.ndarray
    f: float
    grad_norm: float
    rho: float
    step_norm_g_sq: float
    lyapunov: float | None
    elapsed_ns: int


@dataclass
class IterateTrace:
    """Per-iteration history of a solver run.

    ``records[k].rho`` is the penalty parameter in effect for the step that
    leaves ``x_k`` (``inf`` for the Newton baselines); ``step_norm_g_sq`` is
    ``||x_k - x_{k-1}||^2_G`` for the step that produced ``x_k`` (0 at k=0).
    """

    method: str
    records: list[IterateRecord] = field(default_factory=list)
    termination: str = "max_iters"
    f_star: float | None = None
    steps_taken: int = 0

    @property
    def final(self) -> IterateRecord:
        return self.records[-1]


@dataclass
class DualState:
    """Multiplier estimate ``z`` and the combined vector ``u = (rho/L) grad f + G z``."""

    z: np.ndarray
    u: np.ndarray | None = None


def _range_checked_newton_direction(H, g, step_L: float) -> np.ndarray:
    d, residual, in_range = range_check(H, g)
    if not in_range:
        raise RangeViolation(
            f"gradient lies outside Range(H): projection residual {residual:.3e}"
        )
    return d / step_L


def _pnm_update(x, g, H, G, rho: float, step_L: float) -> np.ndarray:
    return x - spd_solve(shifted(H, G, rho), g) / step_L


def _anm_update(x, x_prev, g, H, G, rho: float, step_L: float) -> np.ndarray:
    rhs = g / step_L - precond_apply(G, x - x_prev) / rho
    return x - spd_solve(shifted(H, G, rho), rhs)


def newton_step(model: ObjectiveModel, x, step_L: float = 1.0) -> np.ndarray:
    """Pseudo-inverse Newton update ``x - (1/L) H(x)^+ grad f(x)``.

    Raises :class:`RangeViolation` when the gradient has a component outside
    ``Range(H)`` (the range assumption fails), detected by the projection
    residual exceeding ``1e-8 * (1 + ||grad||)``.
    """
    x = np.asarray(x, dtype=float)
    H = as_symmetric(model.hessian(x))
    g = model.gradient(x)
    return x - _range_checked_newton_direction(H, g, step_L)


def pnm_step(model: ObjectiveModel, x, rho: float, G, step_L: float) -> np.ndarray:
    """Penalty Newton update ``x - (1/L) (G/rho + H(x))^{-1} grad f(x)``."""
    x = np.asarray(x, dtype=float)
    H = as_symmetric(model.hessian(x))
    g = model.gradient(x)
    return _pnm_update(x, g, H, as_symmetric(G), rho, step_L)


def anm_step_dual(
    model: ObjectiveModel, x, dual: DualState, rho: float, G, step_L: float
) -> tuple[np.ndarray, DualState]:
    """Primal/dual augmented update.

    With ``u = (rho/L) grad f(x) + G z`` the new multiplier is
    ``z+ = (1/rho) (G/rho + H)^{-1} u`` and the new point ``x+ = x - z+``,
    so ``z+ == x - x+`` holds exactly. This is the independent reference
    route for :func:`anm_step_momentum`; :func:`run` uses the momentum form.
    """
    x = np.asarray(x, dtype=float)
    G = as_symmetric(G)
    H = as_symmetric(model.hessian(x))
    g = model.gradient(x)
    u = (rho / step_L) * g + G @ dual.z
    z_next = spd_solve(G / rho + H, u) / rho
    return x - z_next, DualState(z=z_next, u=u)


def anm_step_momentum(model: ObjectiveModel, x, x_prev, rho: float, G, step_L: float) -> np.ndarray:
    """Momentum-form augmented update.

    Solves one shifted system against ``(1/L) grad f(x) - (1/rho) G (x - x_prev)``;
    algebraically this equals the penalty step plus
    ``Theta(x) (x - x_prev)`` with ``Theta = (1/rho) (G/rho + H)^{-1} G``.
    """
    x = np.asarray(x, dtype=float)
    H = as_symmetric(model.hessian(x))
    g = model.gradient(x)
    return _anm_update(x, np.asarray(x_prev, dtype=float), g, H, as_symmetric(G), rho, step_L)


def _lyapunov_value(gap: float, step_norm_g_sq: float, rho: float, step_L: float) -> float:
    v = gap + step_L / (2.0 * rho) * step_norm_g_sq
    return 0.0 if -1e-9 < v < 0.0 else v


def _backtrack(model: ObjectiveModel, x, g, H, trace: IterateTrace) -> tuple[np.ndarray, float]:
    """Damped Newton point ``x - t d`` and its value, with ``t`` from backtracking on the decrement.

    The step starts at ``t = 1`` and shrinks by ``BT_BETA`` while
    ``f(x - t d) > f(x) - BT_ALPHA * t * decrement^2``. The comparison
    tolerates ties within a few ulps of ``f`` so that, once the required
    decrease falls below float resolution, the iteration can still take the
    Newton step and reach the numerical optimum instead of stalling. Raises
    :class:`LineSearchStall` (partial trace attached) if ``t`` falls below 1e-16.
    """
    d = _range_checked_newton_direction(H, g, 1.0)
    decrement_sq = float(g @ d)
    f_curr = trace.records[-1].f
    tie_slack = 16.0 * np.finfo(float).eps * (1.0 + abs(f_curr))
    t, x_next = 1.0, x - d
    while (f_next := model.value(x_next)) > f_curr - BT_ALPHA * t * decrement_sq + tie_slack:
        t *= BT_BETA
        if t < 1e-16:
            exc = LineSearchStall(
                f"backtracking step underflowed at ||grad|| = {trace.records[-1].grad_norm:.3e}"
            )
            exc.trace = trace
            raise exc
        x_next = x - t * d
    return x_next, f_next


def _record(
    trace: IterateTrace, model: ObjectiveModel, x, rho: float, step_norm_g_sq: float, step_L: float, t0: int,
    f: float | None = None,
) -> np.ndarray | None:
    """Append ``x`` (value ``f``, evaluated here if None) and return its gradient; None if not finite."""
    if not (np.isfinite(x).all() and np.isfinite(step_norm_g_sq)):
        return None
    f = model.value(x) if f is None else f
    g = model.gradient(x) if np.isfinite(f) else None
    if g is None or not np.isfinite(g).all():
        return None
    lyap = None
    if trace.f_star is not None and np.isfinite(rho):
        lyap = _lyapunov_value(f - trace.f_star, step_norm_g_sq, rho, step_L)
    trace.records.append(
        IterateRecord(
            k=len(trace.records),
            x=x.copy(),
            f=f,
            grad_norm=float(np.linalg.norm(g)),
            rho=rho,
            step_norm_g_sq=step_norm_g_sq,
            lyapunov=lyap,
            elapsed_ns=time.perf_counter_ns() - t0,
        )
    )
    return g


@np.errstate(over="ignore", invalid="ignore")
def run(model: ObjectiveModel, x0, config: SolverConfig, x1=None) -> IterateTrace:
    """Iterate ``config.method`` from ``x0`` and record every iterate.

    All four methods share this loop: each iterate is recorded once with its
    value and gradient, the gradient is carried into the step that leaves it,
    and that step evaluates the Hessian once. Only the update rule differs
    (see :func:`newton_step`, :func:`pnm_step`, :func:`anm_step_momentum`);
    damped Newton backtracks on the Newton decrement and raises
    :class:`LineSearchStall` with the partial trace attached. ANM starts from
    ``x0`` and ``x1`` (default ``x1 = x0``, recorded as iterate 1); the penalty
    methods advance ``rho`` by ``config.schedule`` after every step.

    ``termination`` is ``converged`` once the gradient norm (and, for ANM,
    the G-weighted step norm) is at most ``grad_tol``; ``diverged`` when a
    step produces a point whose value, gradient or step norm is not finite
    (that point is not recorded; the overflow behind it raises no NumPy
    warning); ``max_iters`` otherwise.
    """
    t0 = time.perf_counter_ns()
    method = config.method
    penalized = method in ("pnm", "anm")
    step_L = config.step_L
    rho = config.schedule.rho0 if penalized else np.inf
    trace = IterateTrace(method=method, f_star=model.f_star)
    x = np.asarray(x0, dtype=float)
    g = _record(trace, model, x, rho, 0.0, step_L, t0)
    if g is None:
        raise ValueError("the starting point, or f or grad f there, is not finite")
    x_prev, H = x, None
    if method == "anm":
        x = x_prev if x1 is None else np.asarray(x1, dtype=float)
        H = as_symmetric(model.hessian(x))
        G = config.precond.materialize(H)
        g = _record(trace, model, x, rho, weighted_norm_sq(x - x_prev, G), step_L, t0)

    def converged(rec: IterateRecord) -> bool:
        small_step = method != "anm" or np.sqrt(rec.step_norm_g_sq) <= config.grad_tol
        return rec.grad_norm <= config.grad_tol and small_step

    for _ in range(config.max_iters):
        if g is None or converged(trace.records[-1]):
            break
        if H is None:
            H = as_symmetric(model.hessian(x))
            G = config.precond.materialize(H) if penalized else None
        f_next = None
        if method == "newton":
            x_next = x - _range_checked_newton_direction(H, g, step_L)
        elif method == "damped_newton":
            x_next, f_next = _backtrack(model, x, g, H, trace)
        elif method == "pnm":
            x_next = _pnm_update(x, g, H, G, rho, step_L)
        else:
            x_next = _anm_update(x, x_prev, g, H, G, rho, step_L)
        if penalized:
            step_sq = weighted_norm_sq(x_next - x, G)
            rho = config.schedule.next_rho(rho)
        else:
            step_sq = float((x_next - x) @ (x_next - x))
        g = _record(trace, model, x_next, rho, step_sq, step_L, t0, f_next)
        if g is None:
            break
        trace.steps_taken += 1
        x_prev, x, H = x, x_next, None

    if g is None:
        trace.termination = "diverged"
    else:
        trace.termination = "converged" if converged(trace.records[-1]) else "max_iters"
    return trace


def _scalar_root(
    f, fprime, x_prev: float, x: float, rho: float, tol: float, max_iters: int, momentum: bool
) -> tuple[float, list[float]]:
    xs = [x_prev, x] if x_prev != x else [x]
    for k in range(max_iters + 1):
        fx = f(x)
        if abs(fx) <= tol:
            return x, xs
        if k == max_iters:
            raise MaxIterationsExceeded(
                f"|f| = {abs(fx):.3e} > tol after {max_iters} iterations"
            )
        denom = 1.0 + rho * fprime(x)
        if abs(denom) <= 1e-14:
            raise DenominatorVanished(f"1 + rho f'(x) = {denom:.3e} at x = {x!r}")
        x_next = x - rho * fx / denom
        if momentum:
            x_next = x_next + (x - x_prev) / denom
        x_prev, x = x, x_next
        xs.append(x)
    raise AssertionError("unreachable")


def root_penalty_newton(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    x0: float,
    rho: float,
    tol: float = 1e-10,
    max_iters: int = 100,
) -> tuple[float, list[float]]:
    """Scalar penalty-Newton root finding.

    Update: ``x+ = x - rho f(x) / (1 + rho f'(x))``. Stops when
    ``|f(x)| <= tol``; raises :class:`DenominatorVanished` when
    ``|1 + rho f'(x)| <= 1e-14`` and :class:`MaxIterationsExceeded` when the
    budget runs out. Returns the root and the iterate sequence.
    """
    return _scalar_root(f, fprime, float(x0), float(x0), rho, tol, max_iters, momentum=False)


def root_augmented_newton(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    x0: float,
    x1: float,
    rho: float,
    tol: float = 1e-10,
    max_iters: int = 100,
) -> tuple[float, list[float]]:
    """Scalar augmented-Newton root finding with a momentum correction.

    Update: ``x+ = x - [rho f(x) - (x - x_prev)] / (1 + rho f'(x))``.
    Same stopping and error behavior as :func:`root_penalty_newton`.
    """
    return _scalar_root(f, fprime, float(x0), float(x1), rho, tol, max_iters, momentum=True)


@dataclass(frozen=True)
class FStarResult:
    """Reference optimum produced by the damped-Newton oracle."""

    x_star: np.ndarray
    f_star: float
    grad_norm: float
    iterations: int
    converged: bool


def fstar_oracle(model: ObjectiveModel, grad_tol: float = 1e-13, max_iters: int = 10_000) -> FStarResult:
    """Resolve f* by damped Newton driven to ``||grad f|| <= grad_tol``.

    The terminal gradient norm is reported so downstream optimality gaps
    carry their provenance. A line-search stall near the floating-point
    floor returns the best point reached instead of failing.
    """
    config = SolverConfig(method="damped_newton", grad_tol=grad_tol, max_iters=max_iters)
    x0 = np.zeros(model.dim)
    try:
        trace = run(model, x0, config)
    except LineSearchStall as exc:
        trace = exc.trace
    last = trace.final
    return FStarResult(
        x_star=last.x,
        f_star=last.f,
        grad_norm=last.grad_norm,
        iterations=trace.steps_taken,
        converged=last.grad_norm <= grad_tol,
    )
