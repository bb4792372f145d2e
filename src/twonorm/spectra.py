"""Spectra in the two-norm setting and Riesz projections by contour sums.

Three spectrum tags are exposed: the ambient spectrum, the spectrum of the
weighted extension and the proper spectrum, the union of the ambient
spectrum with the conjugated spectrum of the plus-adjoint.  On C^n they are
one multiset.  The weighted extension acts in L-orthonormal coordinates as
``A^{1/2} T A^{-1/2}``, which is similar to ``T``; ``T+ = A^{-1} T* A`` is
similar to ``T*``, so ``conj sigma(T+) = sigma(T)`` with multiplicities and
the union adds nothing.  Every tag therefore reads the operator's one
ambient eigensolve.

Riesz projections are trapezoid sums of the resolvent over a circle, read
from one complex Schur form ``T = Z R Z*`` ordered so that the eigenvalues
inside the contour come first.  The ``m`` nodes sit at the ``m``-th roots
of unity on ``|x - lam| = eps``, so the sum is exactly the rational
function ``f_m(x) = 1 / (1 - y^m)`` of ``y = (x - lam) / eps``, and
``f_m(R)`` is evaluated block by block (block Parlett; Higham, Functions of
Matrices, SIAM 2008, ch. 4 and 9): ``(I - Y11^m)^{-1}`` on the inside block,
``-W^m (I - W^m)^{-1}`` with ``W = Y22^{-1}`` on the outside block, and the
coupling block from one Sylvester solve.  Powers are taken by repeated
squaring, so the work does not grow with ``m``.  The guards and the rank
read the eigenvalues from the diagonal of ``R``.  ``f_m`` has real
coefficients and ``T+ = A^{-1} Z R* Z* A``, so the contour sum for the
plus-adjoint operator around the conjugated centre is ``A^{-1} Z S* Z* A``
for the same ``S = f_m(R)``, and equals the plus-adjoint of the computed
projection in exact arithmetic.  The reported ``plus_res`` compares the
two, so it measures the rounding of the ``A^{-1} . A`` similarity, not a
second quadrature.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContourTooClose, NotIsolated
from .space import (Operator, as_matrix, as_operator, _require_finite,
                    _spec_norm)
from .subspaces import ProjPair, _require_projection

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
    exact rank, the count of Schur eigenvalues inside the contour.

    ``quadrature_err`` is ``|S - E|_F`` in Schur coordinates, ``S`` the
    contour sum and ``E`` the exact spectral projector; it bounds
    ``|Q - P|_2`` up to the rounding of the Schur form and the Sylvester
    solve."""

    idempotency_res: float
    plus_res: float
    range_dim: int
    quadrature_err: float


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

    With ``y = (x - lam) / eps`` the contour sum is ``f_m(T)``,
    ``f_m(x) = 1 / (1 - y^m)``, since the nodes sit at the ``m``-th roots of
    unity.  It is evaluated on one complex Schur form
    ``T = Z [[R11, R12], [0, R22]] Z*`` whose ``k`` leading eigenvalues are
    those inside the circle.  The preconditions read the eigenvalues from
    the diagonal of ``R``; each is within ``eps / 2`` of ``lam`` or at least
    ``2 eps`` away, so ``k`` is the rank.  The projection is
    ``Q = Z S Z*`` with ``S = [[F11, F12], [0, F22]]``:

    * ``F11 = (I - Y11^m)^{-1}``, ``Y11 = (R11 - lam I) / eps``;
    * ``F22 = -W^m (I - W^m)^{-1}``, ``W = Y22^{-1}``.  The guards keep
      every outside ``|y|`` at least 2, so ``|w| <= 1/2``; ``(I - Y^m)^{-1}``
      on the whole of ``R`` would raise outside eigenvalues to ``|y|^m``;
    * ``F12 = F11 X - X F22``, where ``R11 X - X R22 = R12`` is one
      triangular Sylvester solve: ``R = V diag(R11, R22) V^{-1}`` with
      ``V = [[I, -X], [0, I]]``, and ``f_m`` maps it block by block.

    The powers take about ``2 log2(m)`` products of triangular matrices,
    and one triangular inverse of ``diag(I - Y11^m, I - W^m)`` gives both
    inverses.  The exact projector is ``Z E Z*`` with
    ``E = [[I, X], [0, 0]]``, and ``quadrature_err = |S - E|_F`` bounds
    ``|Q - P|_2``.  ``T+ = A^{-1} Z R* Z* A`` and ``f_m`` has real
    coefficients, so the contour sum for ``T+`` around the conjugated
    centre is ``A^{-1} Z S* Z* A``: it reuses ``S`` and ``T+`` is never
    formed.

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
    import scipy.linalg as la

    r, z, k = la.schur(as_matrix(t, ws), output="complex",
                       sort=lambda x: abs(x - lam) < eps)
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
    n = ws.dim
    trtri, trsyl = la.get_lapack_funcs(("trtri", "trsyl"), (r,))
    y = (r - lam * np.eye(n)) / eps
    # d = diag(I - Y11^m, I - W^m), W = Y22^{-1}; one inverse serves both
    d = np.eye(n, dtype=r.dtype)
    d[:k, :k] -= np.linalg.matrix_power(y[:k, :k], m)
    if k < n:
        w_m = np.linalg.matrix_power(trtri(y[k:, k:])[0], m)
        d[k:, k:] -= w_m
    s = trtri(d, overwrite_c=1)[0]
    f11, f22 = s[:k, :k], s[k:, k:]
    if k < n:
        f22[...] = -w_m @ f22
    # the exact projector is Z E Z*, E = [[I, X], [0, 0]]
    e = np.zeros_like(s)
    e[:k, :k] = np.eye(k)
    if 0 < k < n:
        # R = V diag(R11, R22) V^{-1} with V = [[I, -X], [0, I]], so
        # f_m(R) has the block F11 X - X F22 where E has X
        x, scale, _ = trsyl(r[:k, :k], r[k:, k:], r[:k, k:], isgn=-1)
        e[:k, k:] = x / scale
        s[:k, k:] = f11 @ e[:k, k:] - e[:k, k:] @ f22
    q = z @ s @ z.conj().T
    q_plus = ws.plus_matrix(q)
    diag = RieszDiagnostics(
        idempotency_res=_spec_norm(q @ q - q),
        plus_res=_spec_norm(q_plus - ws.plus_factored(z, s)),
        range_dim=k,
        quadrature_err=float(np.linalg.norm(s - e)),
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
    ValueError
        If ``q`` has a NaN or infinite entry.
    NotIdempotent
        If ``q`` fails the projection test at ``TOL_IDEM`` (scaled by its
        squared norm).
    """
    m = as_matrix(q, ws)
    _require_finite("q", m)
    _require_projection(m, _spec_norm(m))
    v = 2.0 * m - np.eye(ws.dim)
    v_plus = ws.plus_matrix(v)
    spec = np.sort_complex(np.linalg.eigvals(v @ v_plus))
    sym = np.linalg.eigvals(v + v_plus)
    return VVPlusReport(
        spec_vvplus=spec,
        min_symmetric=float(np.abs(sym).min()),
    )
