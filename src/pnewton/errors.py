"""Exception hierarchy for pnewton.

Every error raised on purpose by this package derives from :class:`PnewtonError`
so callers can catch the whole family at an API boundary (the CLI does exactly
that to map failures onto exit codes). The input errors (``BadShape``,
``BadLabel``, ``ParseError``, ``EmptyDataset``) subclass ``ValueError`` too.
"""


class PnewtonError(Exception):
    """Base class for all pnewton errors."""


class NotPositiveDefinite(PnewtonError):
    """A matrix required to be positive definite failed Cholesky even after jitter."""


class NotPSD(PnewtonError):
    """A matrix required to be positive semidefinite has a significantly negative eigenvalue."""


class ConvergenceFailure(PnewtonError):
    """The iterative eigensolver did not converge within its sweep budget."""


class RangeViolation(PnewtonError):
    """A gradient fell outside the range of the Hessian (range assumption broken)."""


class LineSearchStall(PnewtonError):
    """Backtracking shrank the step below the representable floor without acceptance."""


class DenominatorVanished(PnewtonError):
    """Scalar root-finding denominator 1 + rho*f'(x) came too close to zero."""


class MaxIterationsExceeded(PnewtonError):
    """The iteration budget ran out before the stopping tolerance was met."""


class MissingOptimum(PnewtonError):
    """A certification needs f* but neither the trace nor the model carries one."""


class ZeroHessian(PnewtonError):
    """The Hessian is numerically zero, so range-restricted spectral quantities are undefined."""


class BadShape(PnewtonError, ValueError):
    """Matrix/vector dimensions do not line up."""


class BadLabel(PnewtonError, ValueError):
    """A logistic label is outside {-1, +1}."""


class ParseError(PnewtonError, ValueError):
    """A dataset file could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyDataset(PnewtonError, ValueError):
    """The dataset file contained no samples."""
