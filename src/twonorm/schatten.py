"""Superoperators on spaces of k x k matrices under the trace norm.

Matrices are flattened by column stacking, so the superoperator of
``x -> a x b`` is the Kronecker product ``b^T (x) a`` and the flattened
weight is the identity: the weighted inner product is the Frobenius pairing
``<x, y> = tr(y* x)`` and the ambient norm is the trace norm.  The
plus-adjoint of a flattened superoperator is then its conjugate transpose,
which sends ``x -> z* x z`` to ``y -> z y z*``.  :func:`two_sided_mult`
builds every multiplication map, a one-sided one with ``I`` as a factor.

The worked subspace family lives on 2k x 2k block matrices: the idempotent
``q = [[I, z], [0, 0]]`` generates the range ``{q x q}`` and kernel of the
two-sided multiplication by ``q``.  One margin family for that range comes
from the eigenvalue criterion on ``I + (conjugation by z)``; the direct
compatibility margin of the range against the kernel, exactly 1, is
reported next to it, never asserted equal.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimMismatch, SingularSystem
from .space import (
    Operator,
    make_space,
    _as_matrix,
    _require,
    _spec_norm,
)

__all__ = [
    "MatrixSpaceModel",
    "ZCriterionReport",
    "SylvesterResult",
    "CqReport",
    "TwoCompanionsReport",
    "AdzNormReport",
    "matrix_space",
    "vec",
    "unvec",
    "two_sided_mult",
    "sandwich",
    "block_idempotent",
    "z_criterion_margin",
    "sylvester",
    "cq_compat_demo",
    "two_companions_demo",
    "adz_norm_check",
]

# eigenvalue separation deciding Sylvester solvability; absolute, not
# scaled by |c| + |d|
TOL_SPEC = 1e-8
# ARPACK's stopping rule for the Sylvester margin: residual of the Ritz pair
# of (M* M)^-1 relative to its Ritz value.  The margin, a Rayleigh value,
# then exceeds the smallest singular value of M by a relative error of at
# most about TOL_ARPACK^2 |M|^2 / margin^2, or TOL_ARPACK when a second
# singular value lies within that relative distance of the smallest
TOL_ARPACK = 1e-10


@dataclass(frozen=True)
class MatrixSpaceModel:
    """The k x k matrices as a trace-tag space; ``ws`` is built lazily."""

    k: int

    @cached_property
    def ws(self):
        return make_space(self.k * self.k, np.eye(self.k * self.k), "trace")


@dataclass(frozen=True)
class ZCriterionReport:
    """Margins of ``I + (x -> z* x z)``.

    ``pair_margin`` is ``min |1 + conj(lam) mu|`` over eigenvalue pairs of
    ``z``; ``op_margin`` is the smallest singular value of the flattened
    map.  For normal ``z`` the two agree.
    """

    pair_margin: float
    op_margin: float


@dataclass(frozen=True)
class SylvesterResult:
    solvable: bool
    x: np.ndarray | None
    margin: float
    residual: float | None


@dataclass(frozen=True)
class CqReport:
    """Side-by-side margins for the block-idempotent range subspace.

    ``margin_direct`` and ``q_norm`` (the trace norm of the canonical
    projection) are exactly 1, by a proof; ``pair_margin`` and
    ``op_margin`` come from the eigenvalue criterion on the conjugation
    map.  The two families answer different questions and are reported
    together without any cross-assertion.

    Let ``M: x -> q x q`` in Frobenius coordinates, ``q`` the block
    idempotent built from ``z``.  ``C = M + M* - I`` squares to
    ``I + (M - M*)(M - M*)*`` since ``M`` is idempotent, so its singular
    values are at least 1 (Halmos, Trans. AMS 144, 1969), and ``C = -I`` on
    ``ker M`` meet ``ker M*``, of dimension at least ``2k^2``:
    ``margin_direct = 1``.  The range of ``M`` is ``{x : col(x) <= col(q),
    row(x) <= row(q)}``, so the canonical (Frobenius-orthogonal) projection
    onto it is ``x -> E x F`` with ``E``, ``F`` orthogonal projections:
    ``q_norm``, its trace-norm operator norm, is 1.
    """

    k: int
    pair_margin: float
    op_margin: float
    margin_direct: float
    q_norm: float


@dataclass(frozen=True)
class TwoCompanionsReport:
    """Transport of the block-idempotent range by a right multiplication.

    Both verdicts hold on every input :func:`two_companions_demo` accepts,
    by its proof: ``z`` invertible, ``cond(z) > 1e10`` included, gives
    ``col(x q) = col(q)`` and ``row(q x) = row(q_t)``.  So does
    ``transported_pair_margin``: a self-adjoint involution ``t`` has its
    spectrum in ``{1, -1}``, so the margin is exactly 0 when both signs
    occur and 2 when one does.
    """

    fixed_kernel: bool
    transported_to_block_range: bool
    transported_pair_margin: float
    original_pair_margin: float


@dataclass(frozen=True)
class AdzNormReport:
    """Norms of the conjugation map, each ``|z|_2^2`` exactly."""

    frob_norm: float
    trace_norm_estimate: float
    znorm_sq: float


def matrix_space(k):
    """Model of the k x k matrices with the trace ambient norm."""
    if k < 1:
        raise DimMismatch(f"matrix side must be positive, got {k}")
    return MatrixSpaceModel(k=k)


def vec(x):
    """Column-stacking flattening of a matrix."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v, k):
    """Inverse of :func:`vec` for a k x k matrix."""
    return np.asarray(v, dtype=complex).reshape((k, k), order="F")


def two_sided_mult(model, a, b):
    """Superoperator of ``x -> a x b``, one-sided with ``I`` as a factor."""
    a = _as_matrix(a, model.k, "a")
    b = _as_matrix(b, model.k, "b")
    return Operator(np.kron(b.T, a), model.ws)


def sandwich(model, z):
    """Superoperator of the conjugation ``x -> z* x z``."""
    z = _as_matrix(z, model.k, "z")
    return Operator(np.kron(z.T, z.conj().T), model.ws)


def block_idempotent(z):
    """The 2k x 2k idempotent ``[[I, z], [0, 0]]`` built from a k x k block."""
    z = _as_matrix(z, None, "block")
    k = z.shape[0]
    top = np.hstack([np.eye(k), z])
    bottom = np.zeros((k, 2 * k), dtype=complex)
    return np.vstack([top, bottom])


def _pair_margin(z):
    """``min |1 + conj(lam) mu|`` over eigenvalue pairs of a complex ``z``."""
    lam = np.linalg.eigvals(z)
    return float(np.abs(1.0 + np.multiply.outer(np.conj(lam), lam)).min())


def _require_no_overflow(z, what, *values):
    """Raise ``ArithmeticError`` naming ``|z|_2`` unless every value, each
    computed from ``z`` under ``np.errstate``, is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise ArithmeticError(f"{what} overflows (|z|_2 = {_spec_norm(z):.3e})")


def _block(model, z):
    """``z`` as a complex k x k block and ``k``, checked against the side
    ``2k`` of the matrix space ``model``."""
    z = _as_matrix(z, None, "block")
    k = z.shape[0]
    if model.k != 2 * k:
        raise DimMismatch(
            f"model side {model.k} does not match block side {k}"
        )
    return z, k


def _square_nonempty(m, name):
    """``m`` as a complex array, checked to be a non-empty square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimMismatch(f"{name} must be square and non-empty, got {m.shape}")
    return m


def z_criterion_margin(z):
    """Eigenvalue-pair and operator margins of ``I + (x -> z* x z)``.

    Returns
    -------
    ZCriterionReport

    Raises
    ------
    DimMismatch
        If ``z`` is not a non-empty square matrix.
    ArithmeticError
        If the map or the pair margin overflows, which takes a finite ``z``
        with ``|z|_2`` near ``1e154`` or more.  Otherwise the map's
        smallest singular value is finite: it is at most the smallest
        modulus of the map's eigenvalues ``1 + conj(lam) mu``, the pair
        margin.
    """
    z = _square_nonempty(z, "block")
    k = z.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        flat = np.eye(k * k) + np.kron(z.T, z.conj().T)
        pair_margin = _pair_margin(z)
    _require_no_overflow(z, "criterion map", flat, pair_margin)
    op_margin = float(np.linalg.svd(flat, compute_uv=False)[-1])
    return ZCriterionReport(pair_margin=pair_margin, op_margin=op_margin)


def sylvester(c, d, w, force=False):
    """Solve ``c x - x d = w`` from one complex Schur form of each
    coefficient (Bartels and Stewart).

    With ``c = U R U*`` and ``d = V S V*`` the equation becomes the
    triangular one ``R y - y S = U* w V``, which LAPACK ``trsyl`` solves;
    ``x = U y V*``.  The eigenvalues are read from the diagonals of ``R``
    and ``S``, and solvability is their smallest distance against
    ``TOL_SPEC``, which is absolute, not scaled by ``|c| + |d|``.

    The margin is the smallest singular value of the map
    ``M: x -> c x - x d``.  Lanczos (ARPACK) finds the top eigenvector of
    ``(M* M)^-1``, each product being two ``trsyl`` solves, and the margin
    is the Rayleigh value ``|c y - y d|_F / |y|_F`` of that vector ``y``.
    It is therefore never below the smallest singular value by more than
    rounding, and exceeds it by the square of the vector's error, bounded
    through ``TOL_ARPACK``.  Lanczos converges well past that bound, so the
    margin is in practice within a few ``eps (|c| + |d|)`` of the exact
    value, as the dense singular values of the ``k^2 x k^2`` map are.  For
    normal ``c`` and ``d`` it is the eigenvalue separation.  With
    ``k == 1`` it is ``|c - d|``.

    Lanczos starts, in Schur coordinates, from ``e_i e_j^T + sqrt(u) g``
    with ``(i, j)`` the pair of least ``|R_ii - S_jj|``, ``u = eps / 2`` and
    ``g`` a Gaussian vector of fixed seed, so the margin repeats bit for
    bit.  For normal ``c`` and ``d`` both Schur forms are diagonal to
    rounding, ``M`` is then diagonal with entries ``R_ii - S_jj``, and
    ``e_i e_j^T`` is its smallest singular vector: ARPACK converges in its
    first cycle.  The ``sqrt(u) g`` term keeps every direction in the
    start, so a Schur form that is exactly reducible, with ``e_i e_j^T``
    in an invariant subspace of ``M`` that misses the smallest singular
    vector, cannot hide that vector from the Krylov space.

    When the spectra meet, no solve is attempted and the margin reported
    is the eigenvalue separation itself, at most ``TOL_SPEC``.  It bounds
    the smallest singular value from above: for a right eigenvector ``u``
    of ``c`` and a left eigenvector ``v`` of ``d``, ``M (u v*)`` has
    Frobenius norm ``|lam - mu| |u v*|_F``.

    Parameters
    ----------
    c, d, w : (k, k) array_like
    force : bool
        Treat overlapping spectra as an error: raise instead of returning
        an unsolvable result.  No solve is attempted either way.

    Returns
    -------
    SylvesterResult

    Raises
    ------
    DimMismatch
        If the three shapes differ or are not one non-empty square shape.
    SingularSystem
        If ``force`` is set while the spectra overlap.
    """
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if not c.shape == d.shape == w.shape:
        raise DimMismatch("coefficient and right-hand side shapes differ")
    k = _square_nonempty(c, "coefficients").shape[0]
    import scipy.linalg as la

    tc, uc = la.schur(c, output="complex")
    td, ud = la.schur(d, output="complex")
    gaps = np.abs(np.subtract.outer(np.diag(tc), np.diag(td)))
    nearest = np.unravel_index(np.argmin(gaps), gaps.shape)
    min_sep = float(gaps[nearest])
    if min_sep <= TOL_SPEC:
        if force:
            raise SingularSystem(
                f"coefficient spectra meet (separation {min_sep:.3e})"
            )
        return SylvesterResult(False, None, min_sep, None)
    trsyl = la.get_lapack_funcs("trsyl", (tc, td))

    def solve(rhs, trans="N"):
        """``R y - y S = rhs``, or ``R* y - y S* = rhs`` for ``trans="C"``."""
        y, scale, info = trsyl(tc, td, rhs, trana=trans, tranb=trans,
                               isgn=-1)
        if info:
            raise ArithmeticError(f"trsyl failed (info {info})")
        return y / scale

    x = uc @ solve(uc.conj().T @ w @ ud) @ ud.conj().T
    residual = _spec_norm(c @ x - x @ d - w)
    if k == 1:
        return SylvesterResult(True, x, min_sep, residual)
    from scipy.sparse.linalg import LinearOperator, eigsh

    def inverse_gram(v):
        return vec(solve(solve(unvec(v, k), "C")))

    n = k * k
    # the docstring's start, vec(e_i e_j^T) + sqrt(u) g
    v0 = np.sqrt(np.finfo(float).eps / 2) * (
        np.random.default_rng(0).standard_normal(n))
    v0[np.ravel_multi_index(nearest, (k, k), order="F")] += 1.0
    _, vecs = eigsh(
        LinearOperator((n, n), matvec=inverse_gram, dtype=complex),
        k=1, which="LA", tol=TOL_ARPACK, v0=v0,
    )
    y = uc @ unvec(vecs[:, 0], k) @ ud.conj().T
    margin = float(np.linalg.norm(c @ y - y @ d) / np.linalg.norm(y))
    return SylvesterResult(True, x, margin, residual)


def cq_compat_demo(model, z):
    """Margins for the range of two-sided multiplication by the block
    idempotent built from ``z``.

    ``model`` must be the matrix space of side ``2k`` for a k x k ``z``.
    The direct margin, the compatibility margin of the range against the
    kernel, and the trace norm of the canonical projection are exactly 1
    by the proof in :class:`CqReport`, so both are stated, not computed;
    the criterion margins come from the eigenvalue test on the conjugation
    map.  Both are reported; no equality between the families is asserted.

    Returns
    -------
    CqReport
    """
    z, k = _block(model, z)
    crit = z_criterion_margin(z)
    return CqReport(
        k=k,
        pair_margin=crit.pair_margin,
        op_margin=crit.op_margin,
        margin_direct=1.0,
        q_norm=1.0,
    )


def two_companions_demo(model, z, t):
    """Move the block-idempotent range by a right multiplication and margin
    the transported subspace.

    ``z`` must be normal and invertible with a positive pair margin; ``t``
    must be a self-adjoint involution of the same size.  Right
    multiplication by ``x = diag(z, t)`` fixes the kernel of the two-sided
    multiplication by ``q = [[I, z], [0, 0]]`` and carries its range onto
    the range built from ``t``, whose pair margin is reported.

    The checks on entry prove both verdicts and the transported margin, so
    they are stated, not computed; the one eigensolve is of ``z``.  The
    kernel ``{y : q y q = 0}`` is fixed exactly when ``col(x q) = col(q)``;
    the range ``{y : col(y) <= col(q), row(y) <= row(q)}`` moves to columns
    in ``col(q)``, rows in ``row(q x)``.  With ``x q = [[z, z^2], [0, 0]]``
    and ``q x = [[z, z t], [0, 0]] = diag(z, I) [[I, t], [0, 0]]``, both
    hold exactly when ``z`` is invertible, also at ``cond(z) > 1e10``,
    where a rank cut relative to ``|z|_2`` would drop the smallest
    direction of ``z``.

    A self-adjoint ``t`` has real eigenvalues, and ``t^2 = I`` makes each
    of them 1 or -1, so every product ``conj(lam) mu`` is 1 or -1 and the
    pair margin ``min |1 + conj(lam) mu|`` is 0 when both signs occur and
    2 otherwise.  With ``p`` of the ``k`` eigenvalues equal to 1, ``tr t =
    2p - k`` is ``k`` or ``-k`` for one sign and at most ``k - 2`` in
    modulus for both, so ``|Re tr t| < k - 1`` decides: the entry checks'
    tolerance of ``1e-10`` moves the trace by about ``k 1e-10`` at most,
    far less than its distance of 1 from either case.

    Returns
    -------
    TwoCompanionsReport

    Raises
    ------
    ArithmeticError
        If the normality check overflows: ``z z* - z* z``, its tolerance
        ``1e-10 |z|_2^2`` or the pair margin of ``z``, whose products are
        at most ``|z|_2^2``.  That takes ``|z|_2`` near ``1.3e154`` or
        more.  Below it, a commutator whose Frobenius norm overflows is
        measured by its spectral norm, which does not.
    """
    z, k = _block(model, z)
    t = _as_matrix(t, k, "t")
    sv = np.linalg.svd(z, compute_uv=False)
    with np.errstate(over="ignore", invalid="ignore"):
        commutator = z @ z.conj().T - z.conj().T @ z
        tol = 1e-10 * max(1.0, sv[0] ** 2)
        z_margin = _pair_margin(z)
        _require_no_overflow(z, "normality check", commutator, tol, z_margin)
        _require(commutator, tol, "z must be normal", ValueError)
    if sv[-1] <= 1e-12:
        raise ValueError("z must be invertible")
    _require(t - t.conj().T, 1e-10, "t must be self-adjoint", ValueError)
    _require(t @ t - np.eye(k), 1e-10, "t must be an involution", ValueError)
    if z_margin <= 0.0:
        raise ValueError("z must have a positive pair margin")

    return TwoCompanionsReport(
        fixed_kernel=True,
        transported_to_block_range=True,
        transported_pair_margin=0.0 if abs(np.trace(t).real) < k - 1 else 2.0,
        original_pair_margin=z_margin,
    )


def adz_norm_check(model, z):
    """Norms of the conjugation map against the squared norm of ``z``,
    all three from one SVD of ``z``; the ``k^2 x k^2`` map is never formed.

    The Frobenius-coordinate operator norm is ``|z^T (x) z*|_2 = |z|^2``
    exactly, since the singular values of a Kronecker product are the
    products of those of its factors.  The conjugation is the elementary
    map ``x -> a x b`` with ``a = z*``, ``b = z``, whose trace-norm operator
    norm is ``s1(a) s1(b) = |z|^2``, the value the certificate of
    :func:`~twonorm.space.trace_opnorm_estimate` brackets (Watrous, The
    Theory of Quantum Information, 2018, sec. 3.3).

    Returns
    -------
    AdzNormReport
    """
    znorm_sq = _spec_norm(_as_matrix(z, model.k, "z")) ** 2
    return AdzNormReport(frob_norm=znorm_sq, trace_norm_estimate=znorm_sq,
                         znorm_sq=znorm_sq)
