"""Compatibility of subspaces: margins, canonical projections, identities.

For a subspace ``S`` with companion ``T`` the operator ``C = P + P+ - I``
built from the oblique projection ``P`` onto ``S`` along ``T`` agrees with
its own plus-adjoint and has an invertible weighted extension.  Its inverse
turns the tilted projection into the canonical one: ``Q_S = C^{-1} P+`` is
the unique idempotent onto ``S`` that equals its plus-adjoint, and it
coincides with the restriction of the weighted-orthogonal projection.  The
smallest singular value of ``C`` serves as a quantitative compatibility
margin; it degrades along truncation families whose limiting subspace loses
compatibility.

The module also provides the transport operator moving one companion onto
another while fixing the subspace.

Two kinds of identity appear here, and the tests hold both to their
rounding.  An identity between independently built matrices is reported
as a residual, never raised on: :func:`buckholtz_verify` reports those of
the difference-of-projections identities, and :func:`compat_margin` given
a companion that of ``Q_S = C^{-1} P+``.  An identity that follows from
how a matrix is built is stated, not recomputed: ``Q_S^2 = Q_S``, since
``Q_S = B G^{-1} (A B)*`` with ``G = B* A B``; ``Q_S+ = Q_S``, since ``A
Q_S`` is Hermitian; ``C^{-1} P+ = Q_S`` for the default companion, the
weighted complement of ``S``, along which the projection onto ``S`` is
``Q_S`` itself, so ``C = 2 Q_S - I`` is an involution; and the closed-form
plus-adjoint of the transport, since the plus-adjoint is linear and
reverses products.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedWarning, RangeOverlap
from .space import (
    Operator,
    as_matrix,
    opnorm,
    proper_norm,
    _require_finite,
    _spec_norm,
)
from .subspaces import (
    ProjPair,
    oblique_projection,
    subspace_contained,
    subspace_equal,
    _idempotent_cut,
    _in_space,
    _oblique_projection,
    _range_kernel,
    _require_projection,
)

__all__ = [
    "CompatReport",
    "BuckholtzReport",
    "LemmaReport",
    "c_operator",
    "compat_projection",
    "compat_margin",
    "krein_check",
    "buckholtz_verify",
    "companion_transport",
    "companion_metric",
    "algebraic_lemma_check",
]


@dataclass(frozen=True)
class CompatReport:
    """Quantitative compatibility data for a subspace.

    ``margin_c`` is the smallest singular value of ``C = P + P+ - I`` in
    ambient coordinates (Frobenius coordinates under the trace tag);
    ``q_norm`` is the ambient operator norm of the canonical projection,
    exact under the Euclidean tag; under the trace tag it comes from
    :func:`~twonorm.space.trace_opnorm_estimate`: certified when the
    projection is an elementary map ``x -> E x F``, otherwise an estimate,
    a lower bound only; ``residual_cross`` is the disagreement between the
    inverse-formula and direct constructions of that projection (None for
    the default companion, whose ``P`` is the projection itself, and when
    the formula route was suppressed as ill-conditioned); ``kappa_c`` is the
    condition number ``s_max / s_min`` of ``C``, read from the same singular
    values as the margin (``inf`` when ``C`` is exactly singular), which
    scales that residual's rounding; ``is_compatible``
    records margin positivity, which holds by construction up to the SVD's
    rounding of ``p(n) u |C|_2``: ``margin_c >= cond(A)^{-1/2}``.  In
    L-coordinates ``C`` is ``P~ + P~* - I``, whose square in the Halmos form
    ``P~ = [[I, X], [0, 0]]`` is ``diag(I + XX*, I + X*X)``, so its singular
    values are at least one; the similarity by ``A^{1/2}`` costs at most
    ``cond(A)^{1/2}``.
    """

    margin_c: float
    q_norm: float
    residual_cross: float | None
    kappa_c: float
    is_compatible: bool


@dataclass(frozen=True)
class BuckholtzReport:
    """Residuals of the difference-of-projections identities.

    ``kappa`` is the condition number of the stacked orthonormal bases
    ``[B_S | B_T]``, ``sqrt((1 + cos) / (1 - cos)) = (1 + cos) / sin`` for
    the smallest principal angle ``theta_min`` between ``S`` and ``T``, read
    from that angle's sine and cosine with no SVD of the stacked bases.
    """

    res_inverse: float
    res_projection: float
    res_symmetric: float
    kappa: float


@dataclass(frozen=True)
class LemmaReport:
    """Both sides of the kernel-sum / range-sum equivalence."""

    nullspace_sum_full: bool
    range_sum_matches: bool
    one_sided: bool
    agree: bool


def _c_matrix(pair):
    """``C = P + P+ - I`` for a built projection pair."""
    return pair.p.matrix + pair.p_plus.matrix - np.eye(pair.p.space.dim)


def c_operator(ws, s, t):
    """The symmetrized splitting operator ``C = P + P+ - I``.

    ``P`` is the oblique projection onto ``s`` along ``t``.  The result
    agrees with its plus-adjoint up to rounding and is invertible whenever
    the pair splits the space.
    """
    return Operator(_c_matrix(oblique_projection(ws, s, t)), ws)


def _lproj_matrix(ws, s):
    """Weighted-orthogonal projection onto ``s`` as a matrix on the space:
    ``B (B* A B)^{-1} B* A`` for an orthonormal basis ``B``; the zero
    subspace's ``B`` is ``n x 0``, and gives the zero matrix."""
    b = s.basis
    b_dual = ws.dual(b)
    return b @ np.linalg.solve(b_dual @ b, b_dual)


def compat_projection(ws, s):
    """Canonical plus-self-adjoint projection onto a subspace.

    It is the weighted-orthogonal projection ``Q = B (B* A B)^{-1} B* A``,
    so it depends on ``s`` alone; :func:`compat_margin` reads ``C`` from it
    for the default companion and reports its distance from ``C^{-1} P+``
    built from a given one.  ``A Q = (A B) G^{-1} (A B)*`` with ``G = B* A
    B`` is Hermitian, so ``Q+ = A^{-1} Q* A = Q`` exactly: one operator
    serves as both members of the pair.  ``Q`` is idempotent by
    construction and is not checked again: ``Q^2 - Q = B (G^{-1} G - I)
    G^{-1} (A B)*`` rounds at ``u cond(A) |Q|_2^2``, and the tests hold it
    to ``16 n u cond(A) max(1, |Q|_2)^2``.

    Returns
    -------
    ProjPair
        With ``p_plus`` the same operator as ``p``; its range ``s`` and
        nullspace, the weighted complement of ``s``, are not formed.
    """
    op = Operator(_lproj_matrix(ws, *_in_space(ws, s)), ws)
    return ProjPair(op, op)


def compat_margin(ws, s, t=None):
    """Compatibility margin and canonical-projection norm for a subspace.

    One SVD of ``C = P + P+ - I`` gives the margin and ``kappa(C)``.  By
    default ``P`` is the projection onto ``s`` along its weighted
    complement, which is the canonical projection ``Q`` of
    :func:`compat_projection`: ``P = P+ = Q`` and ``C = 2Q - I``, so ``C``
    is built from ``Q`` alone and no complement is formed.  With no second
    route to compare, ``residual_cross`` is None and nothing warns.  Given
    a companion ``t``, ``P`` is the oblique projection onto ``s`` along
    ``t``, and ``residual_cross`` is the distance of ``C^{-1} P+`` from
    ``Q``, or None, with an :class:`IllConditionedWarning`, when ``C`` is
    numerically singular.

    ``C`` counts as singular when ``kappa(C) > 1e12``: a solve with ``C``
    is then off by ``u kappa(C)``, above 1e-4, and the residual could not
    tell the routes apart.  Otherwise it is reported, never raised on: the
    routes agree by the theorem, and differ by rounding of order ``u
    kappa(C) cond(A)``, from the solve and from ``P+ = A^{-1} P* A``; the
    tests hold it to ``16 u kappa(C) cond(A)``.

    Returns
    -------
    CompatReport
    """
    canon = compat_projection(ws, s)
    pair = canon if t is None else oblique_projection(ws, s, t)
    c = _c_matrix(pair)
    svals = np.linalg.svd(c, compute_uv=False)
    margin = float(svals[-1])
    kappa_c = float(svals[0] / svals[-1]) if margin > 0.0 else np.inf
    q = canon.p.matrix
    residual = None
    if t is not None and margin < 1e-12 * svals[0]:
        warnings.warn(
            "splitting operator is numerically singular; using the direct "
            "projection route only",
            IllConditionedWarning,
            stacklevel=2,
        )
    elif t is not None:
        residual = _spec_norm(np.linalg.solve(c, pair.p_plus.matrix) - q)
    return CompatReport(
        margin_c=margin,
        q_norm=opnorm(ws, q, "E"),
        residual_cross=residual,
        kappa_c=kappa_c,
        is_compatible=bool(margin > 0.0),
    )


def krein_check(ws, s, q):
    """Whether an idempotent has range ``s`` and kernel inside the weighted
    complement of ``s``, both within the angle tolerance ``TOL_ANGLE``.

    This pair of conditions singles out the canonical projection among all
    idempotents onto ``s``.  One SVD of ``q`` gives its norm, range and
    kernel.

    Raises
    ------
    NotIdempotent
        If ``q`` is not a projection at ``TOL_IDEM`` (scaled by its squared
        norm).
    """
    (s,) = _in_space(ws, s)
    m = as_matrix(q, ws)
    sv, rng, ker = _range_kernel(ws, m, _idempotent_cut)
    _require_projection(m, sv[0])
    return subspace_equal(rng, s) and subspace_contained(ker, s.complement)


def buckholtz_verify(ws, s, t):
    """Residuals of the difference-of-projections identities.

    With ``P`` the oblique projection onto ``s`` along ``t`` and ``P_S,
    P_T`` the weighted-orthogonal projections onto the two subspaces, the
    identities under test are

    * ``(P_S - P_T)^{-1} = P + P+ - I``,
    * ``P = P_S (P_S - P_T)^{-1}``,
    * ``P_S - P_T = (2P - I)(P_S + P_T)``.

    All three are computed from independently constructed ingredients and
    reported as spectral-norm residuals together with the stacked-basis
    condition number.
    """
    pair, kappa = _oblique_projection(ws, s, t)
    n = ws.dim
    ps = _lproj_matrix(ws, s)
    pt = _lproj_matrix(ws, t)
    diff = ps - pt
    res1 = _spec_norm(diff @ _c_matrix(pair) - np.eye(n))
    res2 = _spec_norm(ps @ np.linalg.inv(diff) - pair.p.matrix)
    res3 = _spec_norm(diff - (2.0 * pair.p.matrix - np.eye(n)) @ (ps + pt))
    return BuckholtzReport(
        res_inverse=res1,
        res_projection=res2,
        res_symmetric=res3,
        kappa=kappa,
    )


def companion_transport(ws, s, t, t1):
    """Invertible operator fixing ``s`` pointwise and carrying ``t`` to ``t1``.

    Both ``t`` and ``t1`` must be companions of ``s``.  The operator is

        ``G = P_{s//t} + P_{t1//s} P_{t//s}``,

    whose plus-adjoint ``P_{s//t}+ + P_{t//s}+ P_{t1//s}+`` is the analogous
    transport between the weighted complements.  That form is stated, not
    checked: the plus-adjoint is linear and reverses products, so the two
    sides differ only by rounding.  Two projections are built, and
    ``P_{t//s}`` is read off the first as ``I - P_{s//t}``.  ``G`` is
    invertible by construction: it is the identity on ``s`` and carries
    ``t`` onto ``t1`` along ``s``, since ``P_{s//t} B_S = B_S`` and
    ``(I - P_{s//t}) B_T = B_T``, and both splittings pass the gap tests of
    the two projections.

    Returns
    -------
    Operator
    """
    p = oblique_projection(ws, s, t).p.matrix
    p1 = oblique_projection(ws, t1, s).p.matrix
    return Operator(p + p1 @ (np.eye(ws.dim) - p), ws)


def companion_metric(ws, s, t1, t2):
    """Distance between two companions of ``s``: the proper norm of the
    difference of the oblique projections onto them along ``s``."""
    pair1 = oblique_projection(ws, t1, s)
    pair2 = oblique_projection(ws, t2, s)
    return proper_norm(ws, pair1.p.matrix - pair2.p.matrix)


def algebraic_lemma_check(ws, t1, t2):
    """Kernel-sum versus range-sum equivalence for operators with disjoint
    ranges.

    For operators whose ranges meet only at zero, the kernels summing to
    the whole space is equivalent to ``R(T1) + R(T2) = R(T1 + T2)``, and
    the one-sided inclusion ``R(T1) <= R(T1 + T2)`` is equivalent to the
    same equality.  All three conditions are evaluated by rank counts under
    ``numpy.linalg.matrix_rank``'s rule and reported; ``agree`` records
    whether they coincide.

    The kernel side needs no kernel basis.  The intersection ``N1 & N2`` of
    the kernels is the kernel of the stacked operator ``[T1; T2]``, so
    ``dim(N1 + N2) = dim N1 + dim N2 - dim(N1 & N2) = n - r1 - r2 +
    rank([T1; T2])``, and the kernels sum to the space exactly when
    ``rank([T1; T2]) = r1 + r2``.

    Raises
    ------
    ValueError
        If either operator has a NaN or infinite entry.
    RangeOverlap
        If the ranges of the two operators overlap nontrivially.
    """
    m1 = as_matrix(t1, ws)
    m2 = as_matrix(t2, ws)
    _require_finite("matrix", m1, m2)
    r1, r2 = np.linalg.matrix_rank(m1), np.linalg.matrix_rank(m2)
    r_stack = np.linalg.matrix_rank(np.hstack([m1, m2]))
    if r_stack < r1 + r2:
        raise RangeOverlap(
            f"ranges share a subspace of dimension {r1 + r2 - r_stack}"
        )
    lhs = np.linalg.matrix_rank(np.vstack([m1, m2])) == r1 + r2
    r_sum = np.linalg.matrix_rank(m1 + m2)
    rhs = r_sum == r1 + r2
    one_sided = np.linalg.matrix_rank(np.hstack([m1 + m2, m1])) == r_sum
    return LemmaReport(
        nullspace_sum_full=bool(lhs),
        range_sum_matches=bool(rhs),
        one_sided=bool(one_sided),
        agree=bool(lhs == rhs == one_sided),
    )
