"""Spectra in the two-norm setting and Riesz projections by contour sums.

Three spectrum tags are exposed: the ambient spectrum, the spectrum of the
weighted extension and the proper spectrum, the union of the ambient
spectrum with the conjugated spectrum of the plus-adjoint.  On C^n they are
one multiset.  The weighted extension acts in L-orthonormal coordinates as
``A^{1/2} T A^{-1/2}``, which is similar to ``T``; ``T+ = A^{-1} T* A`` is
similar to ``T*``, so ``conj sigma(T+) = sigma(T)`` with multiplicities and
the union adds nothing.  Every tag therefore reads the operator's one
ambient eigensolve.

Riesz projections are evaluated as trapezoid sums of the resolvent over a
circle, all read from one complex Schur form ``T = Z R Z*``: the guards and
the rank read the eigenvalues from the diagonal of ``R``, and each
resolvent ``Z (z - R)^{-1} Z*`` is a triangular inverse.  The node set is
symmetric under reflection in the horizontal line through the centre and
``T+ = A^{-1} Z R* Z* A``, so the contour sum for the plus-adjoint operator
around the conjugated centre is built from the same triangular inverses,
and equals the plus-adjoint of the computed projection in exact arithmetic.
The reported ``plus_res`` compares the two, so it measures the rounding
of the ``A^{-1} . A`` similarity, not a second quadrature.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import ContourTooClose, NotIdempotent, NotIsolated
from .space import Operator, as_matrix, as_operator, _require, _spec_norm
from .subspaces import TOL_IDEM, ProjPair

__all__ = [
    "SpectrumReport",
    "RieszDiagnostics",
    "VVPlusReport",
    "spectrum",
    "riesz_projection",
    "vvplus_diagnostics",
]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue multiset for one spectrum tag, sorted by
    ``np.sort_complex``; read-only."""

    algebra: str
    values: np.ndarray


@dataclass(frozen=True)
class RieszDiagnostics:
    """Quadrature quality figures for one contour-sum projection, and its
    exact rank, the count of Schur eigenvalues inside the contour."""

    idempotency_res: float
    plus_res: float
    range_dim: int


@dataclass(frozen=True)
class VVPlusReport:
    """Spectral diagnostics of the involution attached to a projection."""

    spec_vvplus: np.ndarray
    min_symmetric: float


def spectrum(ws, t, algebra="E"):
    """Eigenvalues of an operator under one of the three spectrum tags.

    Every tag returns the operator's one cached eigensolve,
    ``Operator.eigvals``.  On C^n every operator is proper and the tags
    name one multiset: ``"L"`` is the spectrum of ``A^{1/2} T A^{-1/2}``,
    which is similar to ``T``, and ``"P"`` adds the conjugated spectrum of
    ``T+ = A^{-1} T* A``, which is similar to ``T*``, so
    ``conj sigma(T+) = sigma(T)`` with multiplicities.  No second
    eigensolve is paired with the first, so a defective eigenvalue, which
    rounding splits by about ``u^(1/m)`` for a Jordan block of size ``m``,
    keeps its multiplicity under every tag.

    Parameters
    ----------
    ws : WeightedSpace
    t : Operator or (n, n) array_like
    algebra : {"E", "L", "P"}
        ``"E"``: ambient eigenvalues.  ``"L"``: eigenvalues of the weighted
        extension.  ``"P"``: the proper spectrum, the union of the ambient
        eigenvalues with the conjugated eigenvalues of the plus-adjoint.

    Returns
    -------
    SpectrumReport
    """
    if algebra not in ("E", "L", "P"):
        raise ValueError(f"unknown spectrum tag {algebra!r}")
    return SpectrumReport(algebra=algebra, values=as_operator(t, ws).eigvals)


def riesz_projection(ws, t, lam, eps, m=64):
    """Spectral projection by a trapezoid contour sum around ``lam``.

    The contour is the circle of radius ``eps`` centred at ``lam`` with
    ``m`` equispaced nodes ``z_j = lam + eps e^{i theta_j}`` placed
    symmetrically about the horizontal line through the centre.
    Preconditions keep the quadrature honest: spectral points other than
    the targeted cluster must stay out of the disc of radius ``2 eps`` and
    every spectral point must keep a distance of at least ``eps / 2`` from
    the contour itself.

    Everything is read from one complex Schur form ``T = Z R Z*``.  The
    preconditions read the eigenvalues from the diagonal of ``R``; each is
    within ``eps / 2`` of ``lam`` or at least ``2 eps`` away, so the count
    inside the circle is the rank.  The projection is ``Q = Z S Z*``,
    ``S = (eps / m) sum_j e^{i theta_j} (z_j - R)^{-1}``, each resolvent a
    triangular inverse; the ``ContourTooClose`` guard keeps every node at
    least ``eps / 2`` from each diagonal entry of ``R``, so none is
    singular.  ``T+ = A^{-1} Z R* Z* A``, and the node set is closed under
    conjugation about the centre, so the contour sum for ``T+`` around the
    conjugated centre is ``A^{-1} Z S* Z* A``: it reuses ``S`` and ``T+``
    is never formed.

    Parameters
    ----------
    ws : WeightedSpace
    t : Operator or (n, n) array_like
    lam : complex
        Contour centre, finite.
    eps : float
        Contour radius, positive and finite.
    m : int
        Even node count, at least 16.

    Returns
    -------
    (ProjPair, RieszDiagnostics)
        ``plus_res`` is the spectral-norm distance from the plus-adjoint
        ``A^{-1} Q* A`` of the returned ``Q`` to the contour sum for
        ``T+``.  Both are the same matrix ``A^{-1} Z S* Z* A``, evaluated
        in two orders, so the figure measures the rounding of the
        ``A^{-1} . A`` similarity, of order ``u cond(A) max(1, |Q|_2)^2``.

    Raises
    ------
    ContourTooClose
        If a spectral point lies within ``eps / 2`` of the contour.
    NotIsolated
        If a spectral point other than the targeted cluster lies inside the
        disc of radius ``2 eps``.
    """
    if not np.isfinite(lam):
        raise ValueError(f"contour centre lam must be finite, got {lam}")
    if not 0.0 < eps < np.inf:
        raise ValueError(f"contour radius eps must be positive and finite, "
                         f"got {eps}")
    if m < 16 or m % 2:
        raise ValueError("node count must be an even integer >= 16")
    r, z = la.schur(as_matrix(t, ws), output="complex")
    # sigma(T+) = conj sigma(T) in finite dimension, so the ambient
    # eigenvalues are the whole proper spectrum
    ev = np.sort_complex(np.diag(r))
    dist = np.abs(ev - lam)
    near_contour = (dist > eps / 2.0) & (dist < 1.5 * eps)
    if np.any(near_contour):
        worst = ev[near_contour][np.argmin(np.abs(dist[near_contour] - eps))]
        raise ContourTooClose(
            f"spectral point {worst:.6g} is within eps/2 of the contour"
        )
    in_annulus = (dist >= eps) & (dist < 2.0 * eps)
    if np.any(in_annulus):
        raise NotIsolated(
            "spectral points in the annulus between eps and 2 eps"
        )
    phases = np.exp(1j * (-np.pi + 2.0 * np.pi * np.arange(m) / m))
    eye = np.eye(ws.dim)
    trtri = la.get_lapack_funcs("trtri", (r,))
    s = np.zeros_like(r)
    for phase in phases:
        s += phase * trtri((lam + eps * phase) * eye - r, overwrite_c=1)[0]
    s *= eps / m
    q = z @ s @ z.conj().T
    q_plus = ws.plus_matrix(q)
    diag = RieszDiagnostics(
        idempotency_res=_spec_norm(q @ q - q),
        plus_res=_spec_norm(q_plus - ws.plus_factored(z, s)),
        range_dim=int(np.count_nonzero(dist < eps)),
    )
    return ProjPair(Operator(q, ws), Operator(q_plus, ws)), diag


def vvplus_diagnostics(ws, q):
    """Diagnostics of ``V = 2Q - I`` for a projection ``Q``.

    ``V V+`` is similar to a positive definite matrix, so its spectrum is
    real and positive; the smallest absolute eigenvalue of ``V + V+`` is a
    margin that collapses along families whose limit projection loses the
    canonical form.

    Raises
    ------
    NotIdempotent
        If ``q`` fails the projection test at ``TOL_IDEM`` (scaled by its
        squared norm).
    """
    m = as_matrix(q, ws)
    _require(m @ m - m, TOL_IDEM * max(1.0, _spec_norm(m)) ** 2,
             "candidate matrix is not a projection", NotIdempotent)
    v = 2.0 * m - np.eye(ws.dim)
    v_plus = ws.plus_matrix(v)
    spec = np.sort_complex(la.eigvals(v @ v_plus))
    sym = la.eigvals(v + v_plus)
    return VVPlusReport(
        spec_vvplus=spec,
        min_symmetric=float(np.abs(sym).min()),
    )
