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
    _spec_norm,
)
from .compat import compat_margin
from .subspaces import Subspace, span, subspace_equal

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

    def to_json_dict(self):
        return {
            "k": self.k,
            "pair_margin": self.pair_margin,
            "op_margin": self.op_margin,
            "margin_direct": self.margin_direct,
            "q_norm": self.q_norm,
        }


@dataclass(frozen=True)
class TwoCompanionsReport:
    """Transport of the block-idempotent range by a right multiplication."""

    fixed_kernel: bool
    transported_to_block_range: bool
    transported_pair_margin: float
    original_pair_margin: float

    def to_json_dict(self):
        return {
            "fixed_kernel": self.fixed_kernel,
            "transported_to_block_range": self.transported_to_block_range,
            "transported_pair_margin": self.transported_pair_margin,
            "original_pair_margin": self.original_pair_margin,
        }


@dataclass(frozen=True)
class AdzNormReport:
    """Norm of the conjugation map: exact in Frobenius, estimated in trace."""

    frob_norm: float
    trace_norm_estimate: float
    znorm_sq: float

    def to_json_dict(self):
        return {
            "frob_norm": self.frob_norm,
            "trace_norm_estimate": self.trace_norm_estimate,
            "znorm_sq": self.znorm_sq,
        }


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


def z_criterion_margin(z):
    """Eigenvalue-pair and operator margins of ``I + (x -> z* x z)``.

    Returns
    -------
    ZCriterionReport
    """
    z = np.asarray(z, dtype=complex)
    lam = la.eigvals(z)
    pair = min(
        abs(1.0 + np.conj(l) * mu) for l in lam for mu in lam
    )
    k = z.shape[0]
    flat = np.eye(k * k) + np.kron(z.T, z.conj().T)
    return ZCriterionReport(
        pair_margin=float(pair),
        op_margin=float(la.svdvals(flat)[-1]),
    )


def sylvester(c, d, w, force=False, tol_spec=1e-8):
    """Solve ``c x - x d = w`` through the flattened linear system.

    Solvability is decided by spectral disjointness of ``c`` and ``d`` at
    ``tol_spec``; the margin reported is the smallest singular value of
    the flattened map, which vanishes exactly when the spectra meet.

    Parameters
    ----------
    c, d, w : (k, k) array_like
    force : bool
        Attempt the solve even when the spectra overlap.

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
    flat = np.kron(np.eye(k), c) - np.kron(d.T, np.eye(k))
    margin = float(la.svdvals(flat)[-1])
    ev_c = la.eigvals(c)
    ev_d = la.eigvals(d)
    min_sep = min(abs(a - b) for a in ev_c for b in ev_d)
    solvable = bool(min_sep > tol_spec)
    if not solvable:
        if force:
            raise SingularSystem(
                f"coefficient spectra meet (separation {min_sep:.3e})"
            )
        return SylvesterResult(False, None, margin, None)
    x = unvec(la.solve(flat, vec(w)), k)
    residual = _spec_norm(c @ x - x @ d - w)
    return SylvesterResult(True, x, margin, residual)


def _superop_range_kernel(model, op):
    """Range and kernel of a flattened superoperator as subspaces."""
    mat = op.matrix
    rng = span(model.ws, mat)
    ker = Subspace(la.null_space(mat), model.ws)
    return rng, ker


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
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise DimMismatch(f"block must be square, got shape {z.shape}")
    if model.k != 2 * z.shape[0]:
        raise DimMismatch(
            f"model side {model.k} does not match block side {z.shape[0]}"
        )
    q = block_idempotent(z)
    cq = two_sided_mult(model, q, q)
    rng, ker = _superop_range_kernel(model, cq)
    report = compat_margin(model.ws, rng, ker)
    crit = z_criterion_margin(z)
    return CqReport(
        k=z.shape[0],
        pair_margin=crit.pair_margin,
        op_margin=crit.op_margin,
        margin_direct=report.margin_c,
        q_norm=report.q_norm,
    )


def two_companions_demo(model, z, t):
    """Move the block-idempotent range by a right multiplication and margin
    the transported subspace.

    ``z`` must be normal and invertible with a positive pair margin; ``t``
    must be a self-adjoint involution.  Right multiplication by
    ``diag(z, t)`` fixes the kernel of the two-sided multiplication and
    carries its range onto the range built from ``t``, whose pair margin is
    reported (zero when ``t`` has eigenvalues of both signs).

    Returns
    -------
    TwoCompanionsReport
    """
    z = np.asarray(z, dtype=complex)
    t = np.asarray(t, dtype=complex)
    k = z.shape[0]
    if model.k != 2 * k:
        raise DimMismatch(
            f"model side {model.k} does not match block side {k}"
        )
    if _spec_norm(z @ z.conj().T - z.conj().T @ z) > 1e-10 * max(
        1.0, _spec_norm(z) ** 2
    ):
        raise ValueError("z must be normal")
    if la.svdvals(z)[-1] <= 1e-12:
        raise ValueError("z must be invertible")
    if _spec_norm(t - t.conj().T) > 1e-10 or _spec_norm(
        t @ t - np.eye(k)
    ) > 1e-10:
        raise ValueError("t must be a self-adjoint involution")
    crit_z = z_criterion_margin(z)
    if crit_z.pair_margin <= 0.0:
        raise ValueError("z must have a positive pair margin")

    q = block_idempotent(z)
    cq = two_sided_mult(model, q, q)
    rng, ker = _superop_range_kernel(model, cq)
    x = la.block_diag(z, t)
    g = right_mult(model, x)
    moved_rng = span(model.ws, g.matrix @ rng.basis)
    moved_ker = span(model.ws, g.matrix @ ker.basis)
    q_t = block_idempotent(t)
    target_rng, _ = _superop_range_kernel(model, two_sided_mult(model, q_t, q_t))
    crit_t = z_criterion_margin(t)
    return TwoCompanionsReport(
        fixed_kernel=subspace_equal(moved_ker, ker),
        transported_to_block_range=subspace_equal(moved_rng, target_rng),
        transported_pair_margin=crit_t.pair_margin,
        original_pair_margin=crit_z.pair_margin,
    )


def adz_norm_check(model, z, tol=1e-6):
    """Norms of the conjugation map against the squared norm of ``z``.

    The Frobenius-coordinate operator norm equals ``|z|^2`` exactly; the
    trace-norm value from the ascent estimator is a lower bound and must
    stay below ``|z|^2 + tol``.

    Returns
    -------
    AdzNormReport
    """
    z = _as_matrix(z, model.k, "z")
    op = sandwich(model, z)
    frob = _spec_norm(op.matrix)
    znorm_sq = _spec_norm(z) ** 2
    if abs(frob - znorm_sq) > 1e-10 * max(1.0, znorm_sq):
        raise ArithmeticError(
            "Frobenius norm of the conjugation drifted from |z|^2"
        )
    est = trace_opnorm_estimate(model.ws, op.matrix)
    if est > znorm_sq + tol:
        raise ArithmeticError(
            f"trace-norm estimate {est:.6g} exceeds |z|^2 = {znorm_sq:.6g}"
        )
    return AdzNormReport(
        frob_norm=frob,
        trace_norm_estimate=est,
        znorm_sq=znorm_sq,
    )
