"""Exception hierarchy for :mod:`twonorm`.

All library errors derive from :class:`TwoNormError` so callers can catch
everything coming out of this package with a single except clause.
"""

__all__ = [
    "TwoNormError",
    "DimMismatch",
    "NotPositiveDefinite",
    "NormCapViolated",
    "NonIdentityWeightForTrace",
    "DependentInput",
    "BiorthogonalityViolated",
    "NotComplementary",
    "RangeOverlap",
    "NotIdempotent",
    "ContourTooClose",
    "NotIsolated",
    "SingularSystem",
    "BadExponent",
    "IoFailure",
    "IllConditionedWarning",
]


class TwoNormError(Exception):
    """Base class for all errors raised by this package."""


class DimMismatch(TwoNormError):
    """Raised when array shapes are inconsistent with the ambient space."""


class NotPositiveDefinite(TwoNormError):
    """Raised when a weight matrix has an eigenvalue at or below the
    positive-definiteness floor."""


class NormCapViolated(TwoNormError):
    """Raised when the spectral norm of a Euclidean-tag weight exceeds one,
    which would break the norm dominance of the ambient norm."""


class NonIdentityWeightForTrace(TwoNormError):
    """Raised when a trace-tag space is requested with a weight other than
    the identity."""


class DependentInput(TwoNormError):
    """Raised when vectors handed to an orthogonalization routine are
    linearly dependent at the working rank tolerance."""


class BiorthogonalityViolated(TwoNormError):
    """Raised when the two vector families of a finite-rank projection fail
    the biorthogonality test."""


class NotComplementary(TwoNormError):
    """Raised when a subspace pair does not split the space as a direct sum
    at the working gap tolerance."""


class RangeOverlap(TwoNormError):
    """Raised when operator ranges required to be disjoint share a
    nontrivial subspace."""


class NotIdempotent(TwoNormError):
    """Raised when a matrix expected to be a projection fails the
    idempotency test."""


class ContourTooClose(TwoNormError):
    """Raised when an eigenvalue sits too close to a resolvent integration
    contour for the quadrature to be trustworthy."""


class NotIsolated(TwoNormError):
    """Raised when the targeted spectral point is not isolated from the rest
    of the spectrum at twice the contour radius."""


class SingularSystem(TwoNormError):
    """Raised when a forced solve hits an operator equation with
    overlapping coefficient spectra."""


class BadExponent(TwoNormError):
    """Raised when a study is asked for a decay exponent outside the range
    that keeps the defining vector square-summable but unbounded."""


class IoFailure(TwoNormError):
    """Raised when reading or writing a file or stream fails at the OS
    level."""


class IllConditionedWarning(UserWarning):
    """Warns that a formula route was suppressed or degraded because the
    operator involved is numerically close to singular."""
