"""Subspaces, weighted complements and oblique projections.

Subspaces are stored through Euclidean-orthonormal bases (columns of an
``n x r`` matrix).  All comparisons between subspaces go through principal
angles computed from singular values of the cross-Gram matrix of the
stored bases and of its residual; no other comparison primitive is used
anywhere in the package.

The central construction is the oblique projection ``P`` with a prescribed
range ``S`` and nullspace ``T`` for a pair splitting the space.  Its
plus-adjoint is itself an oblique projection, onto the weighted complement
of ``T`` along the weighted complement of ``S``; the constructor builds
that second projection independently and cross-checks the two routes.
Each matrix in that construction is factored once: one SVD of the stacked
bases gives the splitting gap and the condition number, one SVD of ``P``
gives its norm, range and kernel, and each subspace computes its weighted
complement once and keeps it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la

from .errors import (
    BiorthogonalityViolated,
    DependentInput,
    DimMismatch,
    NotComplementary,
)
from .space import Operator, WeightedSpace, as_matrix, _as_vector, _spec_norm

__all__ = [
    "Subspace",
    "ProjPair",
    "CompanionReport",
    "NullspacePlusReport",
    "span",
    "complement_L",
    "direct_sum_gap",
    "oblique_projection",
    "is_proper_companion",
    "gram_schmidt_L",
    "finite_rank_proper_projection",
    "nullspace_plus_check",
    "principal_angles",
    "max_principal_angle",
    "subspace_contained",
    "subspace_equal",
]

# rank cut for singular values, relative to the largest; gram_schmidt_L
# applies it to weighted lengths
TOL_RANK = 1e-10
# smallest singular value of stacked orthonormal bases; absolute, in [0, 1]
TOL_GAP = 1e-10
# largest principal angle, in radians; scale-free
TOL_ANGLE = 1e-8
# entrywise deviation of the weighted cross-Gram from I; absolute
TOL_BIO = 1e-8
# |Q^2 - Q|_2 of a candidate projection; relative to max(1, |Q|_2)^2
TOL_IDEM = 1e-8


@dataclass(frozen=True)
class Subspace:
    """A subspace held as a Euclidean-orthonormal basis.

    ``basis`` has shape ``(n, r)``; ``r == 0`` encodes the zero subspace.
    The weighted complement inside ``space`` is computed on first access
    of :attr:`complement` and cached; the instance is otherwise immutable.

    The columns are orthonormal to working precision, and
    :func:`principal_angles` relies on that without checking it.  Every
    constructor in the package establishes it: :func:`span` and the range
    and kernel bases of projections and of the kernel checks take singular
    vectors, :func:`complement_L` takes the unitary factor of a QR, and
    :func:`twonorm.matio.load_subspace` re-orthonormalizes what it reads.
    Build one directly only from orthonormal columns; :func:`span` accepts
    any family of vectors.
    """

    basis: np.ndarray
    space: WeightedSpace

    def __post_init__(self):
        b = np.array(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != self.space.dim:
            raise DimMismatch(
                f"basis must be {self.space.dim} x r, got shape {b.shape}"
            )
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def rank(self):
        return self.basis.shape[1]

    @cached_property
    def complement(self):
        """The weighted orthogonal complement, as :func:`complement_L`
        computes it in the subspace's own space."""
        return complement_L(self.space, self)


@dataclass(frozen=True)
class ProjPair:
    """An idempotent together with its plus-adjoint and the two subspaces
    it is built from (range and nullspace of ``p``)."""

    p: Operator
    p_plus: Operator
    range_sub: Subspace
    null_sub: Subspace


@dataclass(frozen=True)
class CompanionReport:
    """Splitting quality of a subspace pair and of its weighted complements."""

    gap: float
    complement_gap: float
    ok: bool


@dataclass(frozen=True)
class NullspacePlusReport:
    """Principal-angle residuals of the kernel/range duality under the
    plus-adjoint."""

    null_angle: float
    range_angle: float
    ok: bool


def _vectors_as_columns(ws, vectors):
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        cols = np.array(vectors, dtype=complex)
        if cols.shape[0] != ws.dim:
            raise DimMismatch(
                f"column stack must have height {ws.dim}, got {cols.shape[0]}"
            )
        return cols
    vecs = [_as_vector(v, ws.dim, "vector") for v in vectors]
    if not vecs:
        return np.zeros((ws.dim, 0), dtype=complex)
    return np.stack(vecs, axis=1)


def span(ws, vectors):
    """Orthonormalized span of a family of vectors.

    Rank decisions truncate singular values below ``TOL_RANK`` relative to
    the largest one.  An empty family yields the zero subspace.

    Parameters
    ----------
    ws : WeightedSpace
    vectors : sequence of vectors or (n, m) ndarray

    Returns
    -------
    Subspace
    """
    cols = _vectors_as_columns(ws, vectors)
    if cols.shape[1] == 0:
        return Subspace(cols, ws)
    u, s, _ = la.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Subspace(np.zeros((ws.dim, 0), dtype=complex), ws)
    r = int(np.sum(s > TOL_RANK * s[0]))
    return Subspace(u[:, :r], ws)


def _range_kernel(ws, mat):
    """Range and kernel of a square matrix as subspaces, from one full SVD.

    The rank follows :func:`span`'s rule, so the two dimensions add up to
    ``n``; the range basis is the one :func:`span` returns.
    """
    u, sv, vh = la.svd(mat)
    r = int(np.sum(sv > TOL_RANK * sv[0])) if sv[0] != 0.0 else 0
    return Subspace(u[:, :r], ws), Subspace(vh[r:].conj().T, ws)


def _projection_range_kernel(ws, mat):
    """Spectral norm, range and kernel of a candidate projection, from one
    full SVD.

    Every nonzero singular value of an idempotent is at least one, so the
    rank counts the singular values above ``0.5``; the caller decides
    whether the matrix is idempotent at all.
    """
    u, sv, vh = la.svd(mat)
    r = int(np.sum(sv > 0.5))
    return float(sv[0]), Subspace(u[:, :r], ws), Subspace(vh[r:].conj().T, ws)


def complement_L(ws, s):
    """Weighted orthogonal complement of a subspace, inside the space.

    ``x`` is weighted-orthogonal to ``S`` exactly when ``(A B_S)* x = 0``,
    so the complement is spanned by the trailing ``n - dim S`` columns of
    the unitary factor of one full QR of ``A B_S`` (Golub & Van Loan,
    *Matrix Computations*, 5.2): its dimension is exact, with no rank cut.

    Every call recomputes the complement; :attr:`Subspace.complement`
    computes it once per subspace and is what the package itself uses.
    """
    q, _ = la.qr(ws.weight @ s.basis)
    return Subspace(q[:, s.rank:], ws)


def _stacked_svals(s, t):
    """Singular values of the stacked bases ``[B_S | B_T]``, largest first;
    a single zero when the dimensions do not add up to the ambient one."""
    if s.rank + t.rank != s.space.dim:
        return np.zeros(1)
    return la.svdvals(np.hstack([s.basis, t.basis]))


def direct_sum_gap(s, t):
    """Smallest singular value of the stacked bases ``[B_S | B_T]``.

    Zero when the dimensions do not add up to the ambient dimension; a
    positive gap certifies that the pair splits the space.
    """
    return float(_stacked_svals(s, t)[-1])


def principal_angles(s1, s2):
    """Principal angles between two subspaces, largest first.

    The stored bases are orthonormal, so they are used as they are, with no
    re-orthonormalization (Bjorck & Golub, Math. Comp. 27, 1973; Knyazev &
    Argentati, SIAM J. Sci. Comput. 23(6), 2002).  With ``B1`` the basis of
    the larger rank, the sines are the singular values of the residual
    ``B2 - B1 (B1* B2)`` and the cosines those of the cross-Gram
    ``B1* B2``.  Each angle takes its well-conditioned formula: ``arcsin``
    below pi/4 and ``arccos`` above, so the cross-Gram is factored only
    when some angle exceeds pi/4.  There are ``min(rank)`` angles; an empty
    array is returned when either subspace is zero.
    """
    if s1.rank == 0 or s2.rank == 0:
        return np.zeros(0)
    b1, b2 = s1.basis, s2.basis
    if s1.rank < s2.rank:
        b1, b2 = b2, b1
    gram = b1.conj().T @ b2
    # numpy's SVD costs half of scipy's per call on these small matrices
    sines = np.linalg.svd(b2 - b1 @ gram, compute_uv=False)
    angles = np.arcsin(np.minimum(sines, 1.0))
    wide = sines ** 2 > 0.5
    if wide.any():
        # ascending cosines pair with the descending sines
        cosines = np.linalg.svd(gram, compute_uv=False)[::-1]
        angles[wide] = np.arccos(np.minimum(cosines[wide], 1.0))
    return angles


def max_principal_angle(s1, s2):
    ang = principal_angles(s1, s2)
    return float(ang.max()) if ang.size else 0.0


def subspace_contained(inner, outer):
    """True when ``inner`` sits inside ``outer`` at ``TOL_ANGLE``."""
    if inner.rank == 0:
        return True
    if inner.rank > outer.rank:
        return False
    return max_principal_angle(inner, outer) <= TOL_ANGLE


def subspace_equal(s1, s2):
    """Equality as subspaces: same dimension, all principal angles at most
    ``TOL_ANGLE``."""
    if s1.rank != s2.rank:
        return False
    return max_principal_angle(s1, s2) <= TOL_ANGLE


def _validate_idempotent_pair(ws, p, p_plus, range_sub, null_sub):
    """Internal consistency checks for a freshly built projection pair.

    Tolerances are scaled by the size of the projection and the weight
    conditioning so that legitimately tilted pairs are not rejected; the
    unscaled contract figures are enforced by the test suites on their
    random ensembles.  One SVD of ``p`` gives both that size and the bases
    of its range and kernel.  ``p_plus`` is not compared with
    ``ws.plus_matrix(p)`` here: every caller either builds it that way or
    has just checked that agreement at a tolerance no looser.
    """
    n = ws.dim
    u, sv, vh = la.svd(p)
    scale = max(1.0, float(sv[0])) ** 2 * max(1.0, ws.weight_cond)
    if _spec_norm(p @ p - p) > 1e-10 * scale:
        raise ArithmeticError("projection failed the idempotency check")
    if _spec_norm(p_plus @ p_plus - p_plus) > 1e-10 * scale:
        raise ArithmeticError("plus-adjoint failed the idempotency check")
    rank = range_sub.rank
    if rank not in (0, n):
        got = Subspace(u[:, :rank], ws)
        if not subspace_equal(got, range_sub):
            raise ArithmeticError("projection range drifted from its subspace")
        ker = Subspace(vh[rank:].conj().T, ws)
        if not subspace_equal(ker, null_sub):
            raise ArithmeticError("projection kernel drifted from its subspace")


def _block_solve_projection(s, t):
    """Idempotent with range ``s`` and nullspace ``t`` by a block solve."""
    inv = la.inv(np.hstack([s.basis, t.basis]))
    return s.basis @ inv[: s.rank]


def oblique_projection(ws, s, t):
    """Projection with prescribed range and nullspace, plus its adjoint.

    The matrix is obtained by solving against the stacked bases, never by a
    difference-of-projections formula (those identities are verification
    targets elsewhere, not construction routes).  The plus-adjoint is
    cross-checked against the independently constructed projection onto the
    weighted complement of ``t`` along the weighted complement of ``s``.

    Parameters
    ----------
    ws : WeightedSpace
    s, t : Subspace
        Must split the space: dimensions adding to ``n`` and a stacked-basis
        gap above ``TOL_GAP``.

    Returns
    -------
    ProjPair

    Raises
    ------
    NotComplementary
        If the pair does not split the space at the gap tolerance.
    """
    svals = _stacked_svals(s, t)
    gap = float(svals[-1])
    if gap <= TOL_GAP:
        raise NotComplementary(
            f"pair does not split the space (gap {gap:.3e} <= {TOL_GAP:.0e})"
        )
    kappa = float(svals[0] / svals[-1])
    p = _block_solve_projection(s, t)
    p_plus = ws.plus_matrix(p)
    p_indep = _block_solve_projection(t.complement, s.complement)
    cross_tol = 1e-9 * max(1.0, kappa ** 2) * max(1.0, ws.weight_cond)
    cross = _spec_norm(p_plus - p_indep)
    if cross > cross_tol:
        raise ArithmeticError(
            f"plus-adjoint routes disagree ({cross:.3e} > {cross_tol:.3e})"
        )
    _validate_idempotent_pair(ws, p, p_plus, s, t)
    return ProjPair(Operator(p, ws), Operator(p_plus, ws), s, t)


def is_proper_companion(ws, s, t, tol_gap=TOL_GAP):
    """Whether a pair splits the space together with its weighted complements.

    Both the pair itself and the complement pair must have a positive
    stacked-basis gap; this is the finite-dimensional form of the companion
    relation behind every projection built here.
    """
    gap = direct_sum_gap(s, t)
    comp_gap = direct_sum_gap(t.complement, s.complement)
    ok = gap > tol_gap and comp_gap > tol_gap
    return CompanionReport(gap=gap, complement_gap=comp_gap, ok=bool(ok))


def gram_schmidt_L(ws, vectors):
    """Orthonormalize vectors in the weighted inner product.

    Modified Gram-Schmidt with one full reorthogonalization pass.  The
    output columns satisfy ``<q_i, q_j>_L = delta_ij``.

    Raises
    ------
    DependentInput
        If some vector has weighted length at most ``TOL_RANK``, or loses all
        but that fraction of it to the span of its predecessors.
    """
    cols = _vectors_as_columns(ws, vectors)
    out = []
    for j in range(cols.shape[1]):
        v = cols[:, j].copy()
        original = ws.lnorm_vec(v)
        if original <= TOL_RANK:
            raise DependentInput(f"vector {j} has negligible weighted length")
        for _ in range(2):
            for q in out:
                v = v - ws.inner(v, q) * q
        norm = ws.lnorm_vec(v)
        if norm <= TOL_RANK * original:
            raise DependentInput(
                f"vector {j} is dependent on its predecessors"
            )
        out.append(v / norm)
    return np.stack(out, axis=1) if out else np.zeros((ws.dim, 0), complex)


def finite_rank_proper_projection(ws, f_list, h_list):
    """Finite-rank idempotent ``x -> sum_i <x, h_i>_L f_i``.

    The families must be weighted-biorthogonal (``<f_i, h_j>_L = delta_ij``);
    the plus-adjoint is then the same construction with the families
    swapped, which is cross-checked against the weight route.  The range is
    the span of the ``f_i`` and the nullspace is the weighted complement of
    the span of the ``h_i``.

    Returns
    -------
    ProjPair

    Raises
    ------
    BiorthogonalityViolated
        If the cross-Gram of the families is not the identity at ``TOL_BIO``.
    """
    f = _vectors_as_columns(ws, f_list)
    h = _vectors_as_columns(ws, h_list)
    if f.shape[1] != h.shape[1]:
        raise DimMismatch("the two families must have equal length")
    m = f.shape[1]
    gram = h.conj().T @ ws.weight @ f
    dev = np.abs(gram - np.eye(m)).max() if m else 0.0
    if dev > TOL_BIO:
        raise BiorthogonalityViolated(
            f"cross-Gram deviates from identity by {dev:.3e}"
        )
    p = f @ (h.conj().T @ ws.weight)
    p_plus = h @ (f.conj().T @ ws.weight)
    cross = _spec_norm(ws.plus_matrix(p) - p_plus)
    scale = max(1.0, _spec_norm(p)) * max(1.0, ws.weight_cond)
    if cross > 1e-9 * scale:
        raise ArithmeticError(
            f"swapped-family adjoint disagrees with the weight ({cross:.3e})"
        )
    range_sub = span(ws, f)
    null_sub = span(ws, h).complement
    _validate_idempotent_pair(ws, p, p_plus, range_sub, null_sub)
    return ProjPair(Operator(p, ws), Operator(p_plus, ws), range_sub, null_sub)


def nullspace_plus_check(ws, t):
    """Kernel/range duality of the plus-adjoint, in principal angles.

    Checks that the kernel of ``T+`` is the weighted complement of the range
    of ``T`` and that the range of ``T+`` is the weighted complement of the
    kernel of ``T``.  Reports the largest principal angle of each pair;
    ``ok`` holds when both are at most ``TOL_ANGLE``.
    """
    m = as_matrix(t, ws)
    m_range, m_null = _range_kernel(ws, m)
    mp_range, mp_null = _range_kernel(ws, ws.plus_matrix(m))
    lhs1, rhs1 = mp_null, m_range.complement
    ang1 = max_principal_angle(lhs1, rhs1) if lhs1.rank == rhs1.rank else np.pi
    lhs2, rhs2 = mp_range, m_null.complement
    ang2 = max_principal_angle(lhs2, rhs2) if lhs2.rank == rhs2.rank else np.pi
    return NullspacePlusReport(
        null_angle=float(ang1),
        range_angle=float(ang2),
        ok=bool(ang1 <= TOL_ANGLE and ang2 <= TOL_ANGLE),
    )
