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

The module also verifies, never assumes, the classical difference-of-
projections identities relating oblique and orthogonal projections, and it
provides the transport operator moving one companion onto another while
fixing the subspace.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import IllConditionedWarning, NotIdempotent, RangeOverlap
from .space import (
    Operator,
    as_matrix,
    opnorm,
    proper_norm,
    _require,
    _spec_norm,
)
from .subspaces import (
    TOL_IDEM,
    ProjPair,
    oblique_projection,
    span,
    subspace_contained,
    subspace_equal,
    _oblique_projection,
    _projection_range_kernel,
    _validate_idempotent_pair,
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
    :func:`~twonorm.space.trace_opnorm_estimate` and is an estimate, a
    lower bound only; ``residual_cross`` is the disagreement between the
    inverse-formula and direct constructions of that projection (None when
    the formula route was suppressed as ill-conditioned); ``kappa_c`` is the
    condition number ``s_max / s_min`` of ``C``, read from the same singular
    values as the margin (``inf`` when ``C`` is exactly singular), which
    scales the tolerance that residual is held to; ``is_compatible``
    records margin positivity.
    """

    margin_c: float
    q_norm: float
    residual_cross: float | None
    kappa_c: float
    is_compatible: bool


@dataclass(frozen=True)
class BuckholtzReport:
    """Residuals of the difference-of-projections identities."""

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
    ``B (B* A B)^{-1} B* A`` for an orthonormal basis ``B``."""
    if s.rank == 0:
        return np.zeros((ws.dim, ws.dim), dtype=complex)
    b = s.basis
    gram = b.conj().T @ ws.weight @ b
    return b @ la.solve(gram, b.conj().T @ ws.weight, assume_a="pos")


def compat_projection(ws, s):
    """Canonical plus-self-adjoint projection onto a subspace.

    It is the weighted-orthogonal projection ``B (B* A B)^{-1} B* A``, so it
    depends on ``s`` alone; :func:`compat_margin` cross-checks it against
    ``C^{-1} P+`` built from a companion.

    Returns
    -------
    ProjPair
        With range ``s`` and nullspace the weighted complement of ``s``.
    """
    q = _lproj_matrix(ws, s)
    q_plus = ws.plus_matrix(q)
    _validate_idempotent_pair(ws, q, q_plus, s, s.complement)
    return ProjPair(Operator(q, ws), Operator(q_plus, ws), s, s.complement)


def compat_margin(ws, s, t=None):
    """Compatibility margin and canonical-projection norm for a subspace.

    One oblique projection ``P`` onto ``s`` along ``t`` (by default the
    weighted complement of ``s``) and one SVD of ``C = P + P+ - I`` give the
    margin and ``kappa(C)``.  The canonical projection must agree with
    ``C^{-1} P+``; that cross-check is skipped, with an
    :class:`IllConditionedWarning`, when ``C`` is numerically singular.

    Returns
    -------
    CompatReport
    """
    if t is None:
        t = s.complement
    return _margin(ws, oblique_projection(ws, s, t))


def _margin(ws, pair):
    """:func:`compat_margin` of a built projection pair: ``C`` from
    ``pair.p`` and ``pair.p_plus``, the canonical projection from
    ``pair.range_sub``."""
    c = _c_matrix(pair)
    svals = la.svdvals(c)
    margin = float(svals[-1])
    kappa_c = float(svals[0] / svals[-1]) if margin > 0.0 else np.inf
    q = _lproj_matrix(ws, pair.range_sub)
    residual = None
    if margin < 1e-12 * svals[0]:
        warnings.warn(
            "splitting operator is numerically singular; using the direct "
            "projection route only",
            IllConditionedWarning,
            stacklevel=3,
        )
    else:
        q_formula = la.solve(c, pair.p_plus.matrix)
        residual = _spec_norm(q_formula - q)
        _require(residual,
                 1e-9 * max(1.0, kappa_c) * max(1.0, ws.weight_cond),
                 "projection routes disagree")
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
    m = as_matrix(q, ws)
    norm, rng, ker = _projection_range_kernel(ws, m)
    _require(m @ m - m, TOL_IDEM * max(1.0, norm) ** 2,
             "candidate matrix is not a projection", NotIdempotent)
    if not subspace_equal(rng, s):
        return False
    return subspace_contained(ker, s.complement)


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
    res2 = _spec_norm(ps @ la.inv(diff) - pair.p.matrix)
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

    whose plus-adjoint is the analogous transport between the weighted
    complements; that displayed form is verified against the weight route
    before returning.  Two projections are built: ``P_{t//s}`` is read off
    the first as ``I - P_{s//t}``, and its plus-adjoint as
    ``I - P_{s//t}+``.  ``G`` is invertible by construction: it is the
    identity on ``s``, carries ``t`` onto ``t1`` along ``s``, and both
    splittings pass the gap tests of the two projections.

    Returns
    -------
    Operator
    """
    pair_st = oblique_projection(ws, s, t)
    pair_t1s = oblique_projection(ws, t1, s)
    p, p_plus = pair_st.p.matrix, pair_st.p_plus.matrix
    eye = np.eye(ws.dim)
    g = p + pair_t1s.p.matrix @ (eye - p)
    g_plus_formula = p_plus + (eye - p_plus) @ pair_t1s.p_plus.matrix
    scale = max(1.0, _spec_norm(g)) * max(1.0, ws.weight_cond)
    _require(ws.plus_matrix(g) - g_plus_formula, 1e-9 * scale,
             "transport adjoint disagrees with its closed form")
    if s.rank and not subspace_equal(span(ws, g @ s.basis), s):
        raise ArithmeticError("transport moved the fixed subspace")
    if t.rank and not subspace_equal(span(ws, g @ t.basis), t1):
        raise ArithmeticError("transport missed the target companion")
    return Operator(g, ws)


def companion_metric(ws, s, t1, t2):
    """Distance between two companions of ``s``: the proper norm of the
    difference of the oblique projections onto them along ``s``."""
    pair1 = oblique_projection(ws, t1, s)
    pair2 = oblique_projection(ws, t2, s)
    return proper_norm(ws, pair1.p.matrix - pair2.p.matrix)


def _rank_kernel(m):
    """Rank and kernel basis of ``m`` from one SVD, at the default cutoff
    ``s.max() * max(m.shape) * eps`` of ``matrix_rank`` and ``null_space``."""
    _, sv, vh = la.svd(m)
    rank = int(np.sum(sv > sv.max() * max(m.shape) * np.finfo(sv.dtype).eps))
    return rank, vh[rank:].conj().T


def algebraic_lemma_check(ws, t1, t2):
    """Kernel-sum versus range-sum equivalence for operators with disjoint
    ranges.

    For operators whose ranges meet only at zero, the kernels summing to
    the whole space is equivalent to ``R(T1) + R(T2) = R(T1 + T2)``, and
    the one-sided inclusion ``R(T1) <= R(T1 + T2)`` is equivalent to the
    same equality.  All three conditions are evaluated by rank counts and
    reported; ``agree`` records whether they coincide.

    Raises
    ------
    RangeOverlap
        If the ranges of the two operators overlap nontrivially.
    """
    m1 = as_matrix(t1, ws)
    m2 = as_matrix(t2, ws)
    n = ws.dim
    r1, null1 = _rank_kernel(m1)
    r2, null2 = _rank_kernel(m2)
    r_stack = int(np.linalg.matrix_rank(np.hstack([m1, m2])))
    if r_stack < r1 + r2:
        raise RangeOverlap(
            f"ranges share a subspace of dimension {r1 + r2 - r_stack}"
        )
    null_rank = int(np.linalg.matrix_rank(np.hstack([null1, null2]))) \
        if null1.size + null2.size else 0
    lhs = null_rank == n
    r_sum = int(np.linalg.matrix_rank(m1 + m2))
    rhs = r_sum == r1 + r2
    one_sided = int(np.linalg.matrix_rank(np.hstack([m1 + m2, m1]))) == r_sum
    return LemmaReport(
        nullspace_sum_full=bool(lhs),
        range_sum_matches=bool(rhs),
        one_sided=bool(one_sided),
        agree=bool(lhs == rhs == one_sided),
    )
