"""Superoperators on spaces of k x k matrices under the trace norm.

Matrices are flattened by column stacking, so the superoperator of
``x -> a x b`` is the Kronecker product ``b^T (x) a`` and the flattened
weight is the identity: the weighted inner product is the Frobenius pairing
``<x, y> = tr(y* x)`` and the ambient norm is the trace norm.  The
plus-adjoint of a flattened superoperator is then its conjugate transpose,
which sends ``x -> z* x z`` to ``y -> z y z*``.

The worked subspace family lives on 2k x 2k block matrices: the idempotent
``q = [[I, z], [0, 0]]`` generates the range ``{q x q}`` and kernel of the
two-sided multiplication by ``q``.  One margin family for that range comes
from the eigenvalue criterion on ``I + (conjugation by z)``; the direct
compatibility margin of the range against the kernel is computed
independently and reported next to it, never asserted equal.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import DimMismatch, SingularSystem
from .space import (
    Operator,
    make_space,
    trace_opnorm_estimate,
    _as_matrix,
    _require,
    _spec_norm,
)
from .compat import _margin
from .subspaces import (
    ProjPair,
    _projection_range_kernel,
    span,
    subspace_equal,
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
    "left_mult",
    "right_mult",
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
# slack of the trace-norm estimate over |z|^2 in adz_norm_check; absolute
TOL_ADZ = 1e-6


@dataclass(frozen=True)
class MatrixSpaceModel:
    """The space of k x k matrices flattened to a trace-tag weighted space."""

    k: int
    ws: object


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

    ``margin_direct`` and ``q_norm`` come from the compatibility machinery
    applied to the range/kernel pair of the two-sided multiplication;
    ``pair_margin`` and ``op_margin`` come from the eigenvalue criterion on
    the conjugation map.  The two families answer different questions and
    are reported together without any cross-assertion.
    """

    k: int
    pair_margin: float
    op_margin: float
    margin_direct: float
    q_norm: float


@dataclass(frozen=True)
class TwoCompanionsReport:
    """Transport of the block-idempotent range by a right multiplication."""

    fixed_kernel: bool
    transported_to_block_range: bool
    transported_pair_margin: float
    original_pair_margin: float


@dataclass(frozen=True)
class AdzNormReport:
    """Norm of the conjugation map: exact in Frobenius, estimated in trace."""

    frob_norm: float
    trace_norm_estimate: float
    znorm_sq: float


def matrix_space(k):
    """Model of the k x k matrices with the trace ambient norm."""
    if k < 1:
        raise DimMismatch(f"matrix side must be positive, got {k}")
    return MatrixSpaceModel(k=k, ws=make_space(k * k, np.eye(k * k), "trace"))


def vec(x):
    """Column-stacking flattening of a matrix."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v, k):
    """Inverse of :func:`vec` for a k x k matrix."""
    return np.asarray(v, dtype=complex).reshape((k, k), order="F")


def left_mult(model, a):
    """Superoperator of ``x -> a x``."""
    a = _as_matrix(a, model.k, "a")
    return Operator(np.kron(np.eye(model.k), a), model.ws)


def right_mult(model, b):
    """Superoperator of ``x -> x b``."""
    b = _as_matrix(b, model.k, "b")
    return Operator(np.kron(b.T, np.eye(model.k)), model.ws)


def two_sided_mult(model, a, b):
    """Superoperator of ``x -> a x b``."""
    a = _as_matrix(a, model.k, "a")
    b = _as_matrix(b, model.k, "b")
    return Operator(np.kron(b.T, a), model.ws)


def sandwich(model, z):
    """Superoperator of the conjugation ``x -> z* x z``."""
    z = _as_matrix(z, model.k, "z")
    return Operator(np.kron(z.T, z.conj().T), model.ws)


def block_idempotent(z):
    """The 2k x 2k idempotent ``[[I, z], [0, 0]]`` built from a k x k block."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise DimMismatch(f"block must be square, got shape {z.shape}")
    k = z.shape[0]
    top = np.hstack([np.eye(k), z])
    bottom = np.zeros((k, 2 * k), dtype=complex)
    return np.vstack([top, bottom])


def _pair_margin(z):
    """``min |1 + conj(lam) mu|`` over eigenvalue pairs of a complex ``z``."""
    lam = la.eigvals(z)
    return float(np.abs(1.0 + np.multiply.outer(np.conj(lam), lam)).min())


def z_criterion_margin(z):
    """Eigenvalue-pair and operator margins of ``I + (x -> z* x z)``.

    Returns
    -------
    ZCriterionReport
    """
    z = np.asarray(z, dtype=complex)
    k = z.shape[0]
    flat = np.eye(k * k) + np.kron(z.T, z.conj().T)
    return ZCriterionReport(
        pair_margin=_pair_margin(z),
        op_margin=float(la.svdvals(flat)[-1]),
    )


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
    SingularSystem
        If ``force`` is set while the spectra overlap.
    """
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if not (c.shape == d.shape == w.shape) or c.ndim != 2:
        raise DimMismatch("coefficient and right-hand side shapes differ")
    k = c.shape[0]
    tc, uc = la.schur(c, output="complex")
    td, ud = la.schur(d, output="complex")
    min_sep = float(np.abs(np.subtract.outer(np.diag(tc), np.diag(td))).min())
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
    # a fixed start vector makes the margin repeat bit for bit
    _, vecs = eigsh(
        LinearOperator((n, n), matvec=inverse_gram, dtype=complex),
        k=1, which="LA", tol=TOL_ARPACK,
        v0=np.random.default_rng(0).standard_normal(n),
    )
    y = uc @ unvec(vecs[:, 0], k) @ ud.conj().T
    margin = float(np.linalg.norm(c @ y - y @ d) / np.linalg.norm(y))
    return SylvesterResult(True, x, margin, residual)


def cq_compat_demo(model, z):
    """Margins for the range of two-sided multiplication by the block
    idempotent built from ``z``.

    ``model`` must be the matrix space of side ``2k`` for a k x k ``z``.
    The direct margin is the compatibility margin of the range against the
    kernel; the criterion margins come from the eigenvalue test on the
    conjugation map.  Both are reported; no equality between the families
    is asserted.

    Returns
    -------
    CqReport
    """
    q = block_idempotent(z)
    k = q.shape[0] // 2
    if model.k != 2 * k:
        raise DimMismatch(
            f"model side {model.k} does not match block side {k}"
        )
    cq = two_sided_mult(model, q, q)
    _, rng, ker = _projection_range_kernel(model.ws, cq.matrix)
    # cq is the projection onto its range along its kernel: margin it as
    # built, so that C = cq + cq+ - I and C^-1 cq+ is checked against Q
    report = _margin(model.ws, ProjPair(cq, cq.plus, rng, ker))
    crit = z_criterion_margin(z)
    return CqReport(
        k=k,
        pair_margin=crit.pair_margin,
        op_margin=crit.op_margin,
        margin_direct=report.margin_c,
        q_norm=report.q_norm,
    )


def two_companions_demo(model, z, t):
    """Move the block-idempotent range by a right multiplication and margin
    the transported subspace.

    ``z`` must be normal and invertible with a positive pair margin; ``t``
    must be a self-adjoint involution of the same size.  Right multiplication by
    ``diag(z, t)`` fixes the kernel of the two-sided multiplication and
    carries its range onto the range built from ``t``, whose pair margin is
    reported (zero when ``t`` has eigenvalues of both signs).

    Returns
    -------
    TwoCompanionsReport
    """
    q = block_idempotent(z)
    k = q.shape[0] // 2
    if model.k != 2 * k:
        raise DimMismatch(
            f"model side {model.k} does not match block side {k}"
        )
    z = np.asarray(z, dtype=complex)
    t = _as_matrix(t, k, "t")
    _require(z @ z.conj().T - z.conj().T @ z,
             1e-10 * max(1.0, _spec_norm(z) ** 2), "z must be normal",
             ValueError)
    if la.svdvals(z)[-1] <= 1e-12:
        raise ValueError("z must be invertible")
    _require(t - t.conj().T, 1e-10, "t must be self-adjoint", ValueError)
    _require(t @ t - np.eye(k), 1e-10, "t must be an involution", ValueError)
    z_margin = _pair_margin(z)
    if z_margin <= 0.0:
        raise ValueError("z must have a positive pair margin")

    cq = two_sided_mult(model, q, q)
    _, rng, ker = _projection_range_kernel(model.ws, cq.matrix)
    x = la.block_diag(z, t)
    g = right_mult(model, x)
    moved_rng = span(model.ws, g.matrix @ rng.basis)
    moved_ker = span(model.ws, g.matrix @ ker.basis)
    q_t = block_idempotent(t)
    _, target_rng, _ = _projection_range_kernel(
        model.ws, two_sided_mult(model, q_t, q_t).matrix
    )
    return TwoCompanionsReport(
        fixed_kernel=subspace_equal(moved_ker, ker),
        transported_to_block_range=subspace_equal(moved_rng, target_rng),
        transported_pair_margin=_pair_margin(t),
        original_pair_margin=z_margin,
    )


def adz_norm_check(model, z):
    """Norms of the conjugation map against the squared norm of ``z``.

    The Frobenius-coordinate operator norm equals ``|z|^2`` exactly; the
    trace-norm value from the ascent estimator is a lower bound and must
    stay below ``|z|^2 + TOL_ADZ``.

    Returns
    -------
    AdzNormReport
    """
    z = _as_matrix(z, model.k, "z")
    op = sandwich(model, z)
    frob = _spec_norm(op.matrix)
    znorm_sq = _spec_norm(z) ** 2
    _require(abs(frob - znorm_sq), 1e-10 * max(1.0, znorm_sq),
             "Frobenius norm of the conjugation drifted from |z|^2")
    est = trace_opnorm_estimate(model.ws, op.matrix)
    _require(est, znorm_sq + TOL_ADZ,
             "trace-norm estimate exceeds |z|^2 + TOL_ADZ")
    return AdzNormReport(
        frob_norm=frob,
        trace_norm_estimate=est,
        znorm_sq=znorm_sq,
    )
