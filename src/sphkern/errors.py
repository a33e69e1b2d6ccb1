"""Shared exception types; the CLI maps these onto exit codes."""


class ResourceLimitError(ValueError):
    """A requested computation exceeds a hard resource bound."""


class EvaluationError(RuntimeError):
    """A kernel or integrand produced non-finite samples."""


class AccuracyError(RuntimeError):
    """Adaptive refinement stopped before reaching the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class NotPositiveDefiniteError(RuntimeError):
    """Cholesky factorization failed; `pivot` is the 1-based failing minor.

    On the banded route the minor is counted in the coordinate-sorted order
    of the centers that M_X is assembled in, not in the caller's order.
    Pivot 0 means no factorization failed: CG met a non-positive diagonal
    entry or curvature, or a Cholesky solution missed the residual contract.
    A CG solution that misses it raises AccuracyError instead.
    """

    def __init__(self, message, pivot):
        super().__init__(message)
        self.pivot = pivot


class DegenerateCapError(ValueError):
    """Cap self-convolution normalizer a = (g * g)(1) is not positive."""
