"""Spectra in the two-norm setting and Riesz projections by contour sums.

Three spectrum tags are exposed: the ambient spectrum, the spectrum of the
weighted extension (computed in weighted coordinates and asserted, not
assumed, to match) and the proper spectrum, the union of the ambient
spectrum with the conjugated spectrum of the plus-adjoint.  At finite
dimension the union collapses; the machinery still computes both sides.

Riesz projections are evaluated as trapezoid sums of the resolvent over a
circle.  The node set is symmetric under reflection in the horizontal line
through the centre, which makes the plus-adjoint of the computed projection
equal, node by node, to the contour sum for the plus-adjoint operator
around the conjugated centre.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import ContourTooClose, NotIdempotent, NotIsolated
from .space import Operator, as_matrix, _spec_norm
from .subspaces import TOL_IDEM, ProjPair, _projection_range_kernel

__all__ = [
    "SpectrumReport",
    "RieszDiagnostics",
    "VVPlusReport",
    "spectrum",
    "riesz_projection",
    "vvplus_diagnostics",
]

# eigenvalue matching and clustering distance; relative to 1 + |T|_2
MATCH_TOL = 1e-8


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue multiset for one spectrum tag.

    ``gaps[i]`` is the distance from ``values[i]`` to the nearest spectral
    point of a different value (infinity when the spectrum is a single
    point); it is the isolation radius relevant to contour placement.
    """

    algebra: str
    values: np.ndarray
    gaps: np.ndarray


@dataclass(frozen=True)
class RieszDiagnostics:
    """Quadrature quality figures for one contour-sum projection."""

    idempotency_res: float
    plus_res: float
    range_dim: int


@dataclass(frozen=True)
class VVPlusReport:
    """Spectral diagnostics of the involution attached to a projection."""

    spec_vvplus: np.ndarray
    min_symmetric: float


def _greedy_match(base, other, tol):
    """Match ``other`` into ``base`` greedily; return indices of unmatched
    entries of ``other``.

    Each entry of ``other`` in turn takes the nearest unused entry of
    ``base``, the first one on a tie, when it lies within ``tol``.
    """
    dist = np.abs(np.subtract.outer(base, other))
    unmatched = []
    for j in range(len(other)):
        i = int(np.argmin(dist[:, j]))
        if dist[i, j] <= tol:
            dist[i] = np.inf  # base entry i is used up
        else:
            unmatched.append(j)
    return unmatched


def _isolation_gaps(values, cluster_tol):
    """Distance from each value to the nearest one farther than
    ``cluster_tol``; infinity when there is none."""
    dist = np.abs(np.subtract.outer(values, values))
    return np.where(dist > cluster_tol, dist, np.inf).min(axis=1)


def spectrum(ws, t, algebra="E"):
    """Eigenvalues of an operator under one of the three spectrum tags.

    Parameters
    ----------
    ws : WeightedSpace
    t : Operator or (n, n) array_like
    algebra : {"E", "L", "P"}
        ``"E"``: ambient eigenvalues.  ``"L"``: eigenvalues of the weighted
        coordinate matrix, asserted to match the ambient ones.  ``"P"``:
        the union of the ambient eigenvalues with the conjugated
        eigenvalues of the plus-adjoint, where union takes the larger
        multiplicity at the matching tolerance.

    Returns
    -------
    SpectrumReport
    """
    m = as_matrix(t, ws)
    ev = np.sort_complex(la.eigvals(m))
    scale = 1.0 + _spec_norm(m)
    tol = MATCH_TOL * scale
    if algebra == "E":
        values = ev
    elif algebra == "L":
        values = np.sort_complex(la.eigvals(ws.l_coords(m)))
        if _greedy_match(ev, values, tol):
            raise ArithmeticError(
                "weighted-coordinate eigenvalues drifted from ambient ones"
            )
    elif algebra == "P":
        ev_plus_conj = np.conj(la.eigvals(ws.plus_matrix(m)))
        extra_idx = _greedy_match(ev, ev_plus_conj, tol)
        values = np.sort_complex(
            np.concatenate([ev, ev_plus_conj[extra_idx]])
        )
    else:
        raise ValueError(f"unknown spectrum tag {algebra!r}")
    gaps = _isolation_gaps(values, tol)
    return SpectrumReport(algebra=algebra, values=values, gaps=gaps)


def _contour_sum(m, center, eps, nodes):
    n = m.shape[0]
    eye = np.eye(n)
    acc = np.zeros((n, n), dtype=complex)
    for theta in nodes:
        phase = np.exp(1j * theta)
        acc += phase * la.inv((center + eps * phase) * eye - m)
    return (eps / len(nodes)) * acc


def riesz_projection(ws, t, lam, eps, m=64):
    """Spectral projection by a trapezoid contour sum around ``lam``.

    The contour is the circle of radius ``eps`` centred at ``lam`` with
    ``m`` equispaced nodes placed symmetrically about the horizontal line
    through the centre.  Preconditions keep the quadrature honest: spectral
    points other than the targeted cluster must stay out of the disc of
    radius ``2 eps`` and every spectral point must keep a distance of at
    least ``eps / 2`` from the contour itself.

    Parameters
    ----------
    ws : WeightedSpace
    t : Operator or (n, n) array_like
    lam : complex
        Contour centre.
    eps : float
        Contour radius, positive.
    m : int
        Even node count, at least 16.

    Returns
    -------
    (ProjPair, RieszDiagnostics)

    Raises
    ------
    ContourTooClose
        If a spectral point lies within ``eps / 2`` of the contour.
    NotIsolated
        If a spectral point other than the targeted cluster lies inside the
        disc of radius ``2 eps``.
    """
    if eps <= 0.0:
        raise ValueError("contour radius must be positive")
    if m < 16 or m % 2:
        raise ValueError("node count must be an even integer >= 16")
    mat = as_matrix(t, ws)
    spec_p = spectrum(ws, mat, "P").values
    dist = np.abs(spec_p - lam)
    near_contour = (dist > eps / 2.0) & (dist < 1.5 * eps)
    if np.any(near_contour):
        worst = spec_p[near_contour][np.argmin(np.abs(dist[near_contour] - eps))]
        raise ContourTooClose(
            f"spectral point {worst:.6g} is within eps/2 of the contour"
        )
    in_annulus = (dist >= eps) & (dist < 2.0 * eps)
    if np.any(in_annulus):
        raise NotIsolated(
            "spectral points in the annulus between eps and 2 eps"
        )
    nodes = -np.pi + 2.0 * np.pi * np.arange(m) / m
    q = _contour_sum(mat, complex(lam), float(eps), nodes)
    q_plus = ws.plus_matrix(q)
    q_plus_contour = _contour_sum(
        ws.plus_matrix(mat), complex(lam).conjugate(), float(eps), nodes
    )
    _, range_sub, null_sub = _projection_range_kernel(ws, q)
    diag = RieszDiagnostics(
        idempotency_res=_spec_norm(q @ q - q),
        plus_res=_spec_norm(q_plus - q_plus_contour),
        range_dim=range_sub.rank,
    )
    pair = ProjPair(Operator(q, ws), Operator(q_plus, ws), range_sub, null_sub)
    return pair, diag


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
    scale = max(1.0, _spec_norm(m)) ** 2
    if _spec_norm(m @ m - m) > TOL_IDEM * scale:
        raise NotIdempotent("candidate matrix is not a projection")
    v = 2.0 * m - np.eye(ws.dim)
    v_plus = ws.plus_matrix(v)
    spec = np.sort_complex(la.eigvals(v @ v_plus))
    sym = la.eigvals(v + v_plus)
    return VVPlusReport(
        spec_vvplus=spec,
        min_symmetric=float(np.abs(sym).min()),
    )
