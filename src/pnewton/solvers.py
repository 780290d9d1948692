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

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DenominatorVanished,
    MaxIterationsExceeded,
    NotPositiveDefinite,
    RangeViolation,
)
from .linalg import as_symmetric, is_number, pd_preconditioner, positive_integer, positive_number, positive_penalty
from .linalg import precond_apply, range_check, shifted, spd_solve, weighted_norm_sq
from .linalg import pinv_apply, sym_eig  # noqa: F401  (stay bound here: perfbench's tracer patches these bindings)
from .objective import ObjectiveModel

__all__ = [
    "SolverConfig",
    "IterateRecord",
    "IterateTrace",
    "newton_step",
    "pnm_step",
    "anm_step_dual",
    "anm_step_momentum",
    "root_penalty_newton",
    "root_augmented_newton",
    "fstar_oracle",
    "run",
    "composite_value",
    "in_level_set",
    "METHODS",
    "PRECONDITIONERS",
]

PENALIZED = ("pnm", "anm")  # the methods whose step reads a penalty rho and the preconditioner's G
METHODS = ("newton", "damped_newton", *PENALIZED)
PRECONDITIONERS = ("identity", "diag")  # the spellings of a G; a PD matrix is the other form

#: Damped Newton's Armijo fraction and step shrink factor (see ``_backtrack``).
BT_ALPHA = 0.25
BT_BETA = 0.5

#: The f* oracle's gradient-norm target and iteration budget (see ``fstar_oracle``).
FSTAR_GRAD_TOL = 1e-13
FSTAR_MAX_ITERS = 10_000

#: The f* slack: ``composite_value`` reads (-slack, 0) as 0; a certifier refuses f* > (lowest recorded f) + slack.
FSTAR_SLACK = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Every setting of a run: the method, its ``G``, its penalty schedule, its step constant and its stopping rule.

    ``precond`` is one of ``PRECONDITIONERS``, ``identity`` (the Levenberg special case) or ``diag`` (the
    Levenberg-Marquardt one, ``G = diag(H(x_k))`` every iterate), or a PD ``np.ndarray``, kept as a checked copy.
    The penalty grows geometrically, ``rho_{k+1} = min(c * rho_k, rho_max)``. The checks run in the order
    ``precond``, ``rho0``, ``c``, ``rho_max``, ``grad_tol`` (named ``tol``, as a spec names it), ``method``,
    ``step_L``, ``max_iters``; a spec's error names the first bad field in this order.
    """

    method: str = "pnm"
    precond: str | np.ndarray = "identity"
    rho0: float = 1.0
    c: float = 2.0
    rho_max: float = 1e12
    step_L: float = 1.0
    max_iters: int = 100
    grad_tol: float = 1e-8

    def __post_init__(self):
        if isinstance(self.precond, np.ndarray):  # a copy: never the caller's array
            object.__setattr__(self, "precond", pd_preconditioner(self.precond.astype(float)))
        elif self.precond not in PRECONDITIONERS:
            raise ValueError(f"unknown preconditioner {self.precond!r}; choose {' or '.join(PRECONDITIONERS)}")
        positive_number("rho0", self.rho0)
        if not (is_number(self.c) and self.c >= 1.0):
            raise ValueError(f"growth factor c must be finite and >= 1, got {self.c!r}")
        if not (self.rho_max == np.inf or is_number(self.rho_max) and self.rho0 <= self.rho_max):
            raise ValueError(f"rho_max must be >= rho0, got {self.rho_max!r}")
        positive_number("tol", self.grad_tol)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        positive_number("step constant L", self.step_L)
        positive_integer("max_iters", self.max_iters)

    def step_inputs(self, model: ObjectiveModel, x) -> tuple[np.ndarray, np.ndarray]:
        """The checked Hessian at ``x`` and the ``G`` a step there reads, a 1-D one standing for its diagonal.

        A Newton step and ``identity`` read ones, ``diag`` reads ``H``'s diagonal (:class:`NotPositiveDefinite`
        unless it is strictly positive), and a matrix ``precond`` is read as it is.
        """
        H = as_symmetric(model.hessian(x))
        if self.method not in PENALIZED or isinstance(self.precond, str) and self.precond == "identity":
            return H, np.ones(H.shape[0])
        if isinstance(self.precond, np.ndarray):
            return H, self.precond
        d = H.diagonal().copy()
        if np.any(d <= 0.0):
            raise NotPositiveDefinite(
                f"diag preconditioner needs a strictly positive Hessian diagonal (min entry {d.min():.3e})"
            )
        return H, d


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
    ``||x_k - x_{k-1}||^2_G`` with the ``G`` the step to ``x_k`` read (the identity
    for the Newton baselines; 0 at k=0); ``config`` is the :class:`SolverConfig` the run used.
    """

    config: SolverConfig
    records: list[IterateRecord] = field(default_factory=list)
    termination: str = "max_iters"
    f_star: float | None = None
    steps_taken: int = 0

    @property
    def final(self) -> IterateRecord:
        return self.records[-1]


def _range_checked_newton_direction(H, g, step_L: float) -> np.ndarray:
    d, residual, in_range = range_check(H, g)
    if not in_range:
        raise RangeViolation(
            f"gradient lies outside Range(H): projection residual {residual:.3e}"
        )
    return d / step_L


def _one_step(model: ObjectiveModel, x0, x1=None, **settings) -> np.ndarray:
    """Where one step of :func:`run` goes from ``x0`` (and ``x1``); at this ``grad_tol`` only a zero gradient stays."""
    trace = run(model, x0, SolverConfig(max_iters=1, grad_tol=math.ulp(0.0), **settings), x1)
    if trace.termination == "diverged":
        raise FloatingPointError(f"{trace.config.method} step: an iterate, or f or grad f there, is not finite")
    return trace.final.x


def newton_step(model: ObjectiveModel, x, step_L: float = 1.0) -> np.ndarray:
    """Pseudo-inverse Newton update ``x - (1/L) H(x)^+ grad f(x)``, as one ``newton`` step of :func:`run`.

    Raises :class:`RangeViolation` when the gradient has a component outside
    ``Range(H)`` (the range assumption fails), detected by the projection
    residual exceeding ``1e-8 * (1 + ||grad||)``; ``ValueError`` on a bad
    ``step_L`` or start, and ``FloatingPointError`` on a step to a non-finite point.
    """
    return _one_step(model, x, method="newton", step_L=step_L)


def pnm_step(model: ObjectiveModel, x, rho: float, G, step_L: float) -> np.ndarray:
    """Penalty Newton update ``x - (1/L) (G/rho + H(x))^{-1} grad f(x)``, as one ``pnm`` step of :func:`run`.

    Raises as :func:`newton_step`, and ``ValueError`` or :class:`NotPositiveDefinite` on a bad ``rho`` or ``G``.
    """
    return _one_step(model, x, method="pnm", precond=G, rho0=rho, c=1.0, rho_max=rho, step_L=step_L)


def anm_step_dual(model: ObjectiveModel, x, z, rho: float, G, step_L: float) -> tuple[np.ndarray, np.ndarray]:
    """Primal/dual augmented update from the point ``x`` and the multiplier ``z``; returns ``(x+, z+)``.

    With ``u = (rho/L) grad f(x) + G z`` the new multiplier is ``z+ = (1/rho) (G/rho + H)^{-1} u`` and the new
    point ``x+ = x - z+``, so ``z+ == x - x+`` holds exactly. The independent reference route for the momentum
    form :func:`run` uses: it builds :func:`anm_step_momentum`'s :class:`SolverConfig`, reads ``(H, G)`` from its
    ``step_inputs`` and raises as that step does, and on ``rho = inf`` or an ``x`` or ``z`` not ``(model.dim,)``.
    """
    config = SolverConfig(method="anm", precond=G, rho0=positive_number("rho", rho), c=1.0, rho_max=rho, step_L=step_L)
    for name, value in (("x", x), ("z", z)):
        if np.shape(value) != (model.dim,):
            raise ValueError(f"{name} must have shape {(model.dim,)}, got {np.shape(value)}")
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    H, G = config.step_inputs(model, x)
    z_next = spd_solve(shifted(H, G, rho), (rho / step_L) * model.gradient(x) + precond_apply(G, z)) / rho
    return x - z_next, z_next


def anm_step_momentum(model: ObjectiveModel, x, x_prev, rho: float, G, step_L: float) -> np.ndarray:
    """Momentum-form augmented update, as one ``anm`` step of :func:`run` from ``x_prev`` and ``x``.

    Solves one shifted system against ``(1/L) grad f(x) - (1/rho) G (x - x_prev)``;
    algebraically this equals the penalty step plus
    ``Theta(x) (x - x_prev)`` with ``Theta = (1/rho) (G/rho + H)^{-1} G``.
    Raises as :func:`pnm_step`, with ``x_prev`` as the start and ``x`` as the first iterate.
    """
    return _one_step(model, x_prev, x, method="anm", precond=G, rho0=rho, c=1.0, rho_max=rho, step_L=step_L)


def composite_value(gap: float, step_norm_g_sq: float, rho: float, step_L: float) -> float:
    """ANM's composite descent value ``V = gap + (L / 2 rho) ||x_k - x_{k-1}||^2_G``, with ``gap = f(x_k) - f*``.

    A ``V`` in (-FSTAR_SLACK, 0) reads 0; one further below is kept, so a wrong provided f* shows in the trace.
    """
    v = gap + step_L / (2.0 * rho) * step_norm_g_sq
    return 0.0 if -FSTAR_SLACK < v < 0.0 else v


def in_level_set(model: ObjectiveModel, x, y, x0, y0, G, rho: float, step_L: float) -> bool:
    """Membership of the pair ``(x, y)`` in the composite level set of ``(x0, y0)``, ANM's "mild assumptions" set.

    Both sides are :func:`composite_value` with the gap taken from ``f(x0)``:
    ``V(x, y) <= V(x0, y0) + FSTAR_SLACK``, where ``V(x, y) = f(x) - f(x0) + (L / 2 rho) ||x - y||^2_G``.
    """
    x, y, x0, y0 = (np.asarray(v, dtype=float) for v in (x, y, x0, y0))
    G, rho = pd_preconditioner(G), positive_penalty("rho", rho)
    f0, step_L = model.value(x0), positive_number("step constant L", step_L)
    v = composite_value(model.value(x) - f0, weighted_norm_sq(x - y, G), rho, step_L)
    return v <= composite_value(0.0, weighted_norm_sq(x0 - y0, G), rho, step_L) + FSTAR_SLACK


def _backtrack(model: ObjectiveModel, x, g, H, f_curr: float) -> tuple[np.ndarray | None, float | None]:
    """Damped Newton point ``x - t d`` and its value, with ``t`` from backtracking on the decrement.

    The step starts at ``t = 1`` and shrinks by ``BT_BETA`` while
    ``f(x - t d) > f_curr - BT_ALPHA * t * decrement^2`` (``f_curr = f(x)``).
    The comparison tolerates ties within a few ulps of ``f`` so that, once the
    required decrease falls below float resolution, the iteration can still
    take the Newton step and reach the numerical optimum instead of stalling.
    Returns ``(None, None)``, a stall, if ``t`` falls below 1e-16.
    """
    d = _range_checked_newton_direction(H, g, 1.0)
    decrement_sq = float(g @ d)
    tie_slack = 16.0 * np.finfo(float).eps * (1.0 + abs(f_curr))
    t, x_next = 1.0, x - d
    while (f_next := model.value(x_next)) > f_curr - BT_ALPHA * t * decrement_sq + tie_slack:
        t *= BT_BETA
        if t < 1e-16:
            return None, None
        x_next = x - t * d
    return x_next, f_next


def _record(
    trace: IterateTrace, model: ObjectiveModel, x, rho: float, step_norm_g_sq: float, t0: int, f: float | None = None
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
        lyap = composite_value(f - trace.f_star, step_norm_g_sq, rho, trace.config.step_L)
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
    and that step reads one ``(H, G)`` from ``config.step_inputs``. Only the update rule differs,
    and this loop is the one place each is applied (:func:`newton_step`,
    :func:`pnm_step` and :func:`anm_step_momentum` are one step of it);
    damped Newton backtracks on the Newton decrement. ANM starts from
    ``x0`` and ``x1`` (default ``x1 = x0``, recorded as iterate 1); the penalty
    methods advance ``rho`` to ``min(c * rho, rho_max)`` after every step. A start or a matrix
    ``precond`` whose shape does not fit ``model.dim``, or an ``x1`` for another method, is a ``ValueError``.

    ``termination`` is ``converged`` once the gradient norm (and, for ANM,
    the G-weighted step norm) is at most ``grad_tol``; ``diverged`` when a
    step produces a point whose value, gradient or step norm is not finite
    (that point is not recorded; the overflow behind it raises no NumPy
    warning); ``stalled`` when damped Newton's backtracking accepts no step
    (the trace ends at the iterate it left); ``max_iters`` otherwise.
    """
    t0 = time.perf_counter_ns()
    method, step_L = config.method, config.step_L
    penalized = method in PENALIZED
    rho = config.rho0 if penalized else np.inf
    n = model.dim
    if x1 is not None and method != "anm":
        raise ValueError(f"x1 is the second start of anm; {method} starts from x0 alone")
    for name, value, shape in (("x0", x0, (n,)), ("x1", x1, (n,)), ("precond", config.precond, (n, n))):
        if value is not None and not isinstance(value, str) and np.shape(value) != shape:
            raise ValueError(f"{name} must have shape {shape}, got {np.shape(value)}")
    trace = IterateTrace(config, f_star=model.f_star)
    x = np.asarray(x0, dtype=float)
    g = _record(trace, model, x, rho, 0.0, t0)
    if g is None:
        raise ValueError("the starting point, or f or grad f there, is not finite")
    x_prev, H = x, None
    if method == "anm":
        x = x_prev if x1 is None else np.asarray(x1, dtype=float)
        H, G = config.step_inputs(model, x)
        g = _record(trace, model, x, rho, weighted_norm_sq(x - x_prev, G), t0)

    def converged(rec: IterateRecord) -> bool:
        small_step = method != "anm" or np.sqrt(rec.step_norm_g_sq) <= config.grad_tol
        return rec.grad_norm <= config.grad_tol and small_step

    for _ in range(config.max_iters):
        if g is None or converged(trace.records[-1]):
            break
        if H is None:
            H, G = config.step_inputs(model, x)
        f_next = None
        if method == "newton":
            x_next = x - _range_checked_newton_direction(H, g, step_L)
        elif method == "damped_newton":
            x_next, f_next = _backtrack(model, x, g, H, trace.records[-1].f)
            if x_next is None:
                trace.termination = "stalled"
                return trace
        elif method == "pnm":
            x_next = x - spd_solve(shifted(H, G, rho), g) / step_L
        else:
            x_next = x - spd_solve(shifted(H, G, rho), g / step_L - precond_apply(G, x - x_prev) / rho)
        rho = min(config.c * rho, config.rho_max) if penalized else rho
        g = _record(trace, model, x_next, rho, weighted_norm_sq(x_next - x, G), t0, f_next)
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
    positive_number("rho", rho)
    positive_number("tol", tol)
    positive_integer("max_iters", max_iters)
    for name, value in (("x0", x_prev), ("x1", x)):
        if not is_number(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
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
    budget runs out. Returns the root and the iterate sequence. ``rho`` and
    ``tol`` must be finite and > 0, ``max_iters`` an integer >= 1 and the
    start finite, or ``ValueError`` is raised.
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


def fstar_oracle(model: ObjectiveModel) -> IterateTrace:
    """The trace of damped Newton from zeros to ``||grad f|| <= FSTAR_GRAD_TOL``; f* is ``trace.final.f``.

    Its ``final.grad_norm``, ``steps_taken`` and ``termination`` are the
    provenance that downstream optimality gaps carry. A line-search stall
    near the floating-point floor ends the run like any other stopping rule:
    the trace reads ``stalled`` and ends at the best point reached.
    """
    config = SolverConfig(method="damped_newton", grad_tol=FSTAR_GRAD_TOL, max_iters=FSTAR_MAX_ITERS)
    return run(model, np.zeros(model.dim), config)
