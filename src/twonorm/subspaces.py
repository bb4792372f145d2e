"""Subspaces, weighted complements and oblique projections.

Subspaces are stored through Euclidean-orthonormal bases (columns of an
``n x r`` matrix).  All comparisons between subspaces go through principal
angles computed from singular values of the cross-Gram matrix of the
stored bases and of its residual; no other comparison primitive is used
anywhere in the package.

The central construction is the oblique projection ``P`` with a prescribed
range ``S`` and nullspace ``T`` for a pair splitting the space.  Its
plus-adjoint ``A^{-1} P* A`` is itself an oblique projection, onto the
weighted complement of ``T`` along the weighted complement of ``S``: the
supplement of a proper subspace is proper.  That is a theorem, so the
constructor reads ``P+`` through the weight alone and the tests hold the
identity.
The splitting gap, the condition number of the stacked bases and the
norm of ``P`` are all read from the smallest principal angle between the
pair, whose sine comes from one SVD of an ``n x min(r, n - r)`` residual;
the stacked ``n x n`` bases are inverted once to build ``P`` and never
factored otherwise.  The range and kernel of ``P`` are fixed by its
construction, and each subspace computes its weighted complement once and
keeps it.

Each projection builder checks what its construction does not fix.  The
oblique projection checks that ``P``, formed without the weight, squares
to itself at its own rounding; ``P+``'s residual is ``P``'s moved through
the weight, so it is not checked again.  The finite-rank projection forms
``P`` through the weight, so its tolerance carries ``cond(A)`` and no
longer implies that of ``P+``, and both are checked.

Every factorization goes through ``numpy.linalg`` but those it has no
routine for: the complex Schur form and LAPACK's triangular ``trsyl`` and
``trtri``.  Only :func:`~twonorm.spectra.riesz_projection` and
:func:`~twonorm.schatten.sylvester` take them (the latter also ARPACK),
and each imports them inside its body, so no other command loads their
library.  numpy's SVD, QR, inverse and solve do not check their input for
finiteness, so each matrix they factor is finite by construction or by a
check: :func:`span` and the range and kernel splits, which take caller
data, reject a non-finite entry before the SVD.

A function that takes the space and a :class:`Subspace` reads the subspace
in that space: one built on another space of the same dimension is read
again, so its weighted complement is the given space's, and one of another
dimension raises :class:`DimMismatch`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BiorthogonalityViolated,
    DependentInput,
    DimMismatch,
    NotComplementary,
    NotIdempotent,
)
from .space import (
    Operator,
    WeightedSpace,
    as_matrix,
    _as_vector,
    _require,
    _require_finite,
    _spec_norm,
)

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
# gap sqrt(1 - cos(theta_min)) of a pair of subspaces; absolute, in [0, 1]
TOL_GAP = 1e-10
# largest principal angle, in radians; scale-free
TOL_ANGLE = 1e-8
# entrywise deviation of the weighted cross-Gram from I; absolute
TOL_BIO = 1e-8
# |Q^2 - Q|_2 of a candidate projection; relative to max(1, |Q|_2)^2
TOL_IDEM = 1e-8


def _require_projection(m, m_norm):
    """Raise :class:`NotIdempotent` unless a candidate projection ``m``
    with spectral norm ``m_norm`` has ``|m^2 - m|_2 <= TOL_IDEM max(1,
    m_norm)^2``."""
    _require(m @ m - m, TOL_IDEM * max(1.0, m_norm) ** 2,
             "candidate matrix is not a projection", NotIdempotent)


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
    vectors, :func:`complement_L` and :func:`twonorm.rand.random_subspace`
    take the unitary factor of a QR, and
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
    """An idempotent together with its plus-adjoint.  Its range and
    nullspace are fixed by the construction that built it, and not kept."""

    p: Operator
    p_plus: Operator


@dataclass(frozen=True)
class CompanionReport:
    """Splitting quality of a subspace pair and of its weighted complements.

    ``gap`` is the gap ``sqrt(1 - cos(theta_min))`` of the pair, as
    :func:`direct_sum_gap` reads it.  ``complement_gap`` is a certified
    lower bound on the complement pair's gap, exact when
    :func:`is_proper_companion` computed it; otherwise it is the bound
    ``sin(theta_min) / (sqrt(2) cond(A))`` that decided the verdict.
    """

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
    the largest one.  An empty family yields the zero subspace.  A family
    with a NaN or infinite entry raises ``ValueError``.

    Parameters
    ----------
    ws : WeightedSpace
    vectors : sequence of vectors or (n, m) ndarray

    Returns
    -------
    Subspace
    """
    cols = _vectors_as_columns(ws, vectors)
    _require_finite("vectors", cols)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Subspace(np.zeros((ws.dim, 0), dtype=complex), ws)
    r = int(np.sum(s > TOL_RANK * s[0]))
    return Subspace(u[:, :r], ws)


def _in_space(ws, *subs):
    """Each subspace as one of ``ws``: one built on another space is read
    again in ``ws``, as :func:`~twonorm.space.as_operator` reads an
    operator, so that its cached weighted complement is ``ws``'s; a basis
    of another height raises :class:`DimMismatch`."""
    return [s if s.space is ws else Subspace(s.basis, ws) for s in subs]


def _range_kernel(ws, mat, cut):
    """Singular values, range and kernel of a square matrix, from one full
    SVD.

    The rank counts the singular values above ``cut(sv)``, where ``sv`` is
    in descending order, so the range and kernel dimensions add up to
    ``n``.  The rule is the one parameter because the callers split
    different matrices: :func:`_span_cut` for any matrix
    (:func:`nullspace_plus_check`) and :func:`_idempotent_cut` for a
    candidate projection (:func:`twonorm.compat.krein_check`).  A matrix
    with a NaN or infinite entry raises ``ValueError``.
    """
    _require_finite("matrix", mat)
    u, sv, vh = np.linalg.svd(mat)
    r = int(np.sum(sv > cut(sv)))
    return sv, Subspace(u[:, :r], ws), Subspace(vh[r:].conj().T, ws)


def _span_cut(sv):
    """:func:`span`'s rule, ``TOL_RANK`` relative to the largest singular
    value; the range basis is the one :func:`span` returns."""
    return TOL_RANK * sv[0]


def _idempotent_cut(sv):
    """Every nonzero singular value of an idempotent is at least one; the
    caller decides whether the matrix is idempotent at all."""
    return 0.5


def complement_L(ws, s):
    """Weighted orthogonal complement of a subspace, inside the space.

    ``x`` is weighted-orthogonal to ``S`` exactly when ``(A B_S)* x = 0``,
    so the complement is spanned by the trailing ``n - dim S`` columns of
    the unitary factor of one full QR of ``A B_S`` (Golub & Van Loan,
    *Matrix Computations*, 5.2): its dimension is exact, with no rank cut.

    Every call recomputes the complement; :attr:`Subspace.complement`
    computes it once per subspace and is what the package itself uses.
    """
    (s,) = _in_space(ws, s)
    q, _ = np.linalg.qr(ws.apply_weight(s.basis), mode="complete")
    return Subspace(q[:, s.rank:], ws)


def _splitting(s, t):
    """Gap, condition number and projection norm of a pair, from its
    smallest principal angle ``theta_min``.

    For orthonormal bases of dimensions ``r`` and ``n - r`` the stacked
    ``M = [B_S | B_T]`` has ``M* M = [[I, G], [G*, I]]``, where the
    singular values of the cross-Gram ``G = B_S* B_T`` are the cosines of
    the principal angles; so the singular values of ``M`` are ``sqrt(1 +-
    cos(theta_i))`` and ones (Bjorck & Golub, Math. Comp. 27, 1973).  With
    ``sin`` and ``cos`` of ``theta_min`` the pair has

    - gap ``sigma_min(M) = sqrt(1 - cos) = sin / sqrt(1 + cos)``;
    - ``kappa = sigma_max(M) / sigma_min(M) = (1 + cos) / sin``;
    - ``|P|_2 = 1 / sin`` for the projection onto one along the other
      (Szyld, Numer. Algorithms 42, 2006).

    ``sin`` is the smallest singular value of the ``n x min(r, n - r)``
    residual of the smaller-rank basis against the larger-rank one, which
    :func:`principal_angles` factors too.  ``cos`` is ``sqrt(1 -
    sin^2)`` up to ``theta_min = pi/4`` and the largest singular value of
    ``G`` above, each where it is well conditioned, so ``G`` is factored
    only then.  Dimensions that do not add up to ``n`` give gap 0 and
    infinite ``kappa`` and norm, as does a zero sine; a zero subspace
    gives 1 for all three.
    """
    if s.rank + t.rank != s.space.dim:
        return 0.0, np.inf, np.inf
    if s.rank == 0 or t.rank == 0:
        return 1.0, 1.0, 1.0
    sines, gram = _residual_sines(s, t)
    sin = float(sines[-1])
    if sin == 0.0:
        return 0.0, np.inf, np.inf
    cos = (1.0 - sin * sin) ** 0.5 if sin * sin <= 0.5 \
        else float(np.linalg.svd(gram, compute_uv=False)[0])
    return sin / (1.0 + cos) ** 0.5, (1.0 + cos) / sin, 1.0 / sin


def direct_sum_gap(s, t):
    """Gap ``sqrt(1 - cos(theta_min))`` of a pair of subspaces, for the
    smallest principal angle ``theta_min`` between them.

    It is the smallest singular value of the stacked orthonormal bases
    ``[B_S | B_T]``, read from one SVD of an ``n x min(r, n - r)`` residual
    as :func:`_splitting` sets out, and relies on the bases being
    orthonormal as every :class:`Subspace`'s is.  Zero when the dimensions
    do not add up to the ambient dimension; a positive gap certifies that
    the pair splits the space.
    """
    return _splitting(s, t)[0]


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
    sines, gram = _residual_sines(s1, s2)
    angles = np.arcsin(np.minimum(sines, 1.0))
    wide = sines ** 2 > 0.5
    if wide.any():
        # ascending cosines pair with the descending sines
        cosines = np.linalg.svd(gram, compute_uv=False)[::-1]
        angles[wide] = np.arccos(np.minimum(cosines[wide], 1.0))
    return angles


def _residual_sines(s1, s2):
    """Sines of the principal angles between two nonzero subspaces, largest
    first, and the cross-Gram ``B1* B2`` they were read from, ``B1`` the
    basis of the larger rank: the singular values of ``B2 - B1 (B1* B2)``."""
    b1, b2 = s1.basis, s2.basis
    if s1.rank < s2.rank:
        b1, b2 = b2, b1
    gram = b1.conj().T @ b2
    return np.linalg.svd(b2 - b1 @ gram, compute_uv=False), gram


def max_principal_angle(s1, s2):
    ang = principal_angles(s1, s2)
    return float(ang.max()) if ang.size else 0.0


def subspace_contained(inner, outer):
    """True when ``inner`` sits inside ``outer`` at ``TOL_ANGLE``; the
    zero subspace has no angles and sits inside every subspace."""
    return (inner.rank <= outer.rank
            and max_principal_angle(inner, outer) <= TOL_ANGLE)


def subspace_equal(s1, s2):
    """Equality as subspaces: same dimension, all principal angles at most
    ``TOL_ANGLE``."""
    return s1.rank == s2.rank and max_principal_angle(s1, s2) <= TOL_ANGLE


def _validate_idempotent_pair(ws, p, p_plus):
    """Idempotency checks for a projection pair formed through the weight.

    The two callers form ``P`` through ``A``: ``Q = B G^-1 B* A`` of
    :func:`~twonorm.compat.compat_projection` and ``P = F H* A`` of
    :func:`finite_rank_proper_projection`.  So the tolerance is ``c u
    max(1, |P|_2)^2 cond(A)`` with ``c = 1e-10 / u``, about 9e5 for the
    unit roundoff ``u = 2^-53``: the product ``P P`` rounds at ``u
    |P|_2^2``, and the weight that forms ``P`` adds the factor ``cond(A)``.
    That tolerance bounds ``P``'s residual only, and with the factor
    ``cond(A)`` it no longer implies the plus-adjoint's, so ``p_plus`` is
    checked as well, at the same tolerance; when it is ``p`` itself, as for
    ``Q``, ``p`` is checked once.  Range and kernel hold by construction,
    and so does ``p_plus``: it is ``p`` itself or ``H F* A``, the
    plus-adjoint of ``p`` by construction.  :func:`oblique_projection`
    forms ``P`` without the weight and checks it alone.

    ``|P|_2`` is taken, by one SVD, only when a residual's Frobenius norm
    exceeds ``1e-10 cond(A)``, the tolerance at ``|P|_2 <= 1``: below it
    every scale passes, since the spectral norm is never larger;
    ``cond(A)``, a ratio of the largest to the smallest weight eigenvalue,
    is at least one.
    """
    cond = ws.weight_cond
    checks = [(p, "projection failed the idempotency check")]
    if p_plus is not p:
        checks.append((p_plus, "plus-adjoint failed the idempotency check"))
    p_norm = None
    for m, what in checks:
        residual = m @ m - m
        if p_norm is None:
            if np.linalg.norm(residual) <= 1e-10 * cond:
                continue
            p_norm = _spec_norm(p)
        _require(residual, 1e-10 * max(1.0, p_norm) ** 2 * cond, what)


def _block_solve_projection(s, t):
    """Idempotent with range ``s`` and nullspace ``t`` by a block solve."""
    inv = np.linalg.inv(np.hstack([s.basis, t.basis]))
    return s.basis @ inv[: s.rank]


def oblique_projection(ws, s, t):
    """Projection with prescribed range and nullspace, plus its adjoint.

    The matrix is obtained by solving against the stacked bases, never by a
    difference-of-projections formula (those identities are verification
    targets elsewhere, not construction routes).  The plus-adjoint is
    ``A^{-1} P* A``, which is the projection onto the weighted complement
    of ``t`` along the weighted complement of ``s``; no complement is formed.

    Parameters
    ----------
    ws : WeightedSpace
    s, t : Subspace
        Must split the space: dimensions adding to ``n`` and a gap
        :func:`direct_sum_gap` above ``TOL_GAP``.

    Returns
    -------
    ProjPair

    Raises
    ------
    NotComplementary
        If the pair does not split the space at the gap tolerance.
    ArithmeticError
        If ``P`` fails its idempotency check beyond the rounding its
        tolerance allows.
    """
    return _oblique_projection(ws, s, t)[0]


def _oblique_projection(ws, s, t):
    """:func:`oblique_projection` and the condition number ``kappa`` of the
    stacked bases ``[B_S | B_T]`` it was solved against.

    For the smallest principal angle ``theta_min`` between the orthonormal
    bases, the gap is ``sin / sqrt(1 + cos)``, ``kappa = (1 + cos) / sin``
    and ``|P|_2 = 1 / sin``, all read from one :func:`_splitting` of the
    pair, which factors an ``n x min(r, n - r)`` residual and no ``n x n``
    matrix; the stacked bases are inverted once, to build ``P``.

    One idempotency check is made, of ``P``, to ``c u |P|_2^2`` with ``c =
    1e-10 / u``, about 9e5.  ``P = B_S X`` is formed without the weight, so
    it rounds at ``u kappa |P|_2 <= 2 u |P|_2^2``, as ``kappa = (1 + cos) /
    sin <= 2 |P|_2``, and no factor ``cond(A)`` enters.  ``P+``'s residual
    is ``P``'s moved through the weight, ``(P+)^2 - P+ = A^{-1} (P^2 - P)*
    A`` exactly, so checking it would add only the rounding of that
    similarity, up to ``u |P+|_2^2`` with ``|P+|_2`` as large as ``cond(A)
    |P|_2``; ``|A^{-1} X* A|_2 <= cond(A) |X|_2`` makes the check of ``P``
    the stronger of the two in exact arithmetic.  That ``P+`` is the
    projection onto ``t``'s weighted complement along ``s``'s is a theorem,
    not a rounding question, so no second route checks it.
    """
    s, t = _in_space(ws, s, t)
    gap, kappa, p_norm = _splitting(s, t)
    if gap <= TOL_GAP:
        raise NotComplementary(
            f"pair does not split the space (gap {gap:.3e} <= {TOL_GAP:.0e})"
        )
    p = _block_solve_projection(s, t)
    _require(p @ p - p, 1e-10 * p_norm ** 2,
             "projection failed the idempotency check")
    return ProjPair(Operator(p, ws), Operator(ws.plus_matrix(p), ws)), kappa


def is_proper_companion(ws, s, t, tol_gap=TOL_GAP):
    """Whether a pair splits the space together with its weighted complements.

    Both the pair itself and the complement pair must have a gap
    :func:`direct_sum_gap` above ``tol_gap``; this is the
    finite-dimensional form of the companion relation behind every
    projection built here.  The gap of a pair of orthonormal bases is
    ``g = sqrt(1 - cos(theta_min)) = sin / sqrt(1 + cos)`` for the smallest
    principal angle ``theta_min`` between them, read with its sine from
    one SVD of an ``n x min(r, n - r)`` residual.

    The complement pair is the range and kernel of ``P+ = A^{-1} P* A``
    for the projection ``P`` onto ``s`` along ``t``, so its gap has a lower
    bound in ``sin(theta_min)`` and ``cond(A)`` (Szyld, Numer. Algorithms
    42, 2006):

    - ``|P+|_2 <= cond(A) |P|_2 = cond(A) / sin(theta_min)``;
    - the complement pair's gap ``g'`` has ``g'^2 = 1 - cos(theta') >=
      sin(theta')^2 / 2``, and ``|P+|_2 = 1 / sin(theta')``.

    So ``g' >= b = sin(theta_min) / (sqrt(2) cond(A))``; when ``P+`` is 0
    or ``I`` a complement is zero and ``g' = 1 > b``.  When ``b`` exceeds
    ``2 tol_gap`` the pair passes on the bound, and neither weighted
    complement is formed: the computed gap ``g'`` would fall to
    ``tol_gap`` only if its own rounding exceeded half the certificate.
    Otherwise the complement pair's gap is computed as well.
    ``complement_gap`` is thus a lower bound on ``g'`` in both cases:
    ``b`` when it decided, ``g'`` itself when it was computed.
    """
    s, t = _in_space(ws, s, t)
    gap, _, p_norm = _splitting(s, t)
    bound = 1.0 / (p_norm * np.sqrt(2.0) * ws.weight_cond)
    if bound > 2.0 * tol_gap:
        return CompanionReport(gap=gap, complement_gap=float(bound), ok=True)
    comp_gap = direct_sum_gap(t.complement, s.complement)
    return CompanionReport(gap=gap, complement_gap=comp_gap,
                           ok=bool(gap > tol_gap and comp_gap > tol_gap))


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
    swapped, ``A^{-1} (F H* A)* A = H F* A`` exactly, so it is built that
    way and not recomputed through the weight, whose route would only add
    the rounding of ``P`` amplified by ``cond(A)``.  The range is the span
    of the ``f_i``, which biorthogonality makes independent, and the
    nullspace the weighted complement of the span of the ``h_i``.

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
    h_dual = ws.dual(h)
    dev = np.abs(h_dual @ f - np.eye(m)).max() if m else 0.0
    if dev > TOL_BIO:
        raise BiorthogonalityViolated(
            f"cross-Gram deviates from identity by {dev:.3e}"
        )
    p = f @ h_dual
    p_plus = h @ ws.dual(f)
    _validate_idempotent_pair(ws, p, p_plus)
    return ProjPair(Operator(p, ws), Operator(p_plus, ws))


def nullspace_plus_check(ws, t):
    """Kernel/range duality of the plus-adjoint, in principal angles.

    Checks that the kernel of ``T+`` is the weighted complement of the range
    of ``T`` and that the range of ``T+`` is the weighted complement of the
    kernel of ``T``.  Reports the largest principal angle of each pair;
    ``ok`` holds when both are at most ``TOL_ANGLE``.
    """
    m = as_matrix(t, ws)
    _, m_range, m_null = _range_kernel(ws, m, _span_cut)
    _, mp_range, mp_null = _range_kernel(ws, ws.plus_matrix(m), _span_cut)
    pairs = ((mp_null, m_range.complement), (mp_range, m_null.complement))
    ang1, ang2 = (max_principal_angle(a, b) if a.rank == b.rank else np.pi
                  for a, b in pairs)
    return NullspacePlusReport(
        null_angle=float(ang1),
        range_angle=float(ang2),
        ok=bool(ang1 <= TOL_ANGLE and ang2 <= TOL_ANGLE),
    )
