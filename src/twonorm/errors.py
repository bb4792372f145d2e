"""Exception hierarchy for :mod:`twonorm`.

All library errors derive from :class:`TwoNormError` so callers can catch
everything coming out of this package with a single except clause.

Errors that blame the input derive from :class:`ParameterError`: a shape,
weight, exponent, contour, subspace pair or file the caller supplied.  The
command line exits 2 on them (and on ``ValueError``).  The other
``TwoNormError`` classes report a numerical check that failed on valid
input, and the command line exits 1 on them.
"""

__all__ = [
    "TwoNormError",
    "ParameterError",
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


class ParameterError(TwoNormError):
    """Base class for errors caused by the caller's input rather than by a
    failed numerical check."""


class DimMismatch(ParameterError):
    """Raised when array shapes are inconsistent with the ambient space."""


class NotPositiveDefinite(ParameterError):
    """Raised when a weight matrix has an eigenvalue at or below the
    positive-definiteness floor."""


class NormCapViolated(ParameterError):
    """Raised when the spectral norm of a Euclidean-tag weight exceeds one,
    which would break the norm dominance of the ambient norm."""


class NonIdentityWeightForTrace(ParameterError):
    """Raised when a trace-tag space is requested with a weight other than
    the identity."""


class DependentInput(TwoNormError):
    """Raised when vectors handed to an orthogonalization routine are
    linearly dependent at the working rank tolerance."""


class BiorthogonalityViolated(TwoNormError):
    """Raised when the two vector families of a finite-rank projection fail
    the biorthogonality test."""


class NotComplementary(ParameterError):
    """Raised when a subspace pair does not split the space as a direct sum
    at the working gap tolerance."""


class RangeOverlap(TwoNormError):
    """Raised when operator ranges required to be disjoint share a
    nontrivial subspace."""


class NotIdempotent(TwoNormError):
    """Raised when a matrix expected to be a projection fails the
    idempotency test."""


class ContourTooClose(ParameterError):
    """Raised when an eigenvalue sits too close to a resolvent integration
    contour for the quadrature to be trustworthy."""


class NotIsolated(ParameterError):
    """Raised when the targeted spectral point is not isolated from the rest
    of the spectrum at twice the contour radius."""


class SingularSystem(ParameterError):
    """Raised when a forced solve hits an operator equation with
    overlapping coefficient spectra."""


class BadExponent(ParameterError):
    """Raised when a study is asked for a decay exponent outside the range
    that keeps the defining vector square-summable but unbounded."""


class IoFailure(ParameterError):
    """Raised when reading or writing a file or stream fails at the OS
    level."""


class IllConditionedWarning(UserWarning):
    """Warns that a formula route was suppressed or degraded because the
    operator involved is numerically close to singular."""
