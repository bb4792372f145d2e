"""Finite-dimensional two-norm spaces and the weighted adjoint calculus.

A space here is C^n carrying two norms at once: an ambient norm (the E-norm,
either the Euclidean norm or, for spaces of flattened k x k matrices, the
trace norm) and a weighted Hilbert norm (the L-norm) induced by

    <f, g>_L = g* A f,

where the weight ``A`` is Hermitian positive definite.  The weight is capped
at spectral norm one so that ``|f|_L <= |f|_E`` holds for every vector; the
trace tag forces ``A = I`` because the trace norm already dominates the
Frobenius norm.

Every operator on such a space has a second adjoint besides the usual
conjugate transpose: the plus-adjoint ``T+ = A^{-1} T* A``, which is the
adjoint with respect to the weighted product.  Operator norms, the proper
norm ``|T|_E + |T+|_E`` and the classical bound of the weighted extension
norm by ``min(|T+T|_E, |TT+|_E)`` all live here.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as la

from .errors import (
    DimMismatch,
    NonIdentityWeightForTrace,
    NormCapViolated,
    NotPositiveDefinite,
)

__all__ = [
    "WeightedSpace",
    "Operator",
    "GzReport",
    "make_space",
    "plus_adjoint",
    "opnorm",
    "proper_norm",
    "gz_bound_check",
    "is_symmetrizable",
    "is_L_isometric",
    "trace_opnorm_estimate",
]

# smallest admissible weight eigenvalue; absolute, the weight has norm <= 1
TOL_PD = 1e-12
# entrywise distance of a trace-tag weight from the identity; absolute
TOL_HERM = 1e-12
# slack on the weight's norm cap of one; absolute
TOL_CAP = 1e-12
# slack on lhs <= rhs in gz_bound_check; absolute, not scaled by |T|
TOL_GZ = 1e-10
# |T+ - T|_E in is_symmetrizable; relative to 1 + |T|_E
TOL_SYM = 1e-10
# |G* A G - A|_2 in is_L_isometric; absolute, the weight has norm <= 1
TOL_ISO = 1e-8

# Defaults for the rank-one ascent estimator of trace-tag operator norms.
ESTIMATE_RESTARTS = 50
ESTIMATE_ITERS = 200
_ESTIMATE_SEED = 20081031


def _as_matrix(a, n=None, name="matrix"):
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"{name} must be square, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise DimMismatch(f"{name} must be {n} x {n}, got shape {m.shape}")
    return m


def _as_vector(f, n, name="vector"):
    v = np.asarray(f, dtype=complex).reshape(-1)
    if v.shape[0] != n:
        raise DimMismatch(f"{name} must have length {n}, got {v.shape[0]}")
    return v


def _spec_norm(m):
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class WeightedSpace:
    """C^n with an ambient-norm tag and a Hermitian positive definite weight.

    Instances are immutable; use :func:`make_space` to construct one with
    validation.  The eigendecomposition of the weight is cached at
    construction and reused for every weighted computation.

    Parameters
    ----------
    dim : int
        Dimension n of the space.
    weight : (n, n) ndarray
        Hermitian positive definite weight of the inner product.
    enorm : {"euclid", "trace"}
        Ambient-norm tag.  ``"trace"`` requires ``dim`` to be a perfect
        square k^2 and the weight to be the identity; vectors are then read
        as column-stacked k x k matrices and the ambient norm is the trace
        norm.
    """

    dim: int
    weight: np.ndarray
    enorm: str = "euclid"
    _evals: np.ndarray = field(init=False, repr=False, compare=False)
    _evecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.array(self.weight, dtype=complex)
        w.setflags(write=False)
        object.__setattr__(self, "weight", w)
        evals, evecs = la.eigh(w)
        object.__setattr__(self, "_evals", evals)
        object.__setattr__(self, "_evecs", evecs)

    @property
    def block_dim(self):
        """Side length k of the matrix model when ``enorm == "trace"``."""
        if self.enorm != "trace":
            return None
        return int(round(np.sqrt(self.dim)))

    @property
    def weight_cond(self):
        """Condition number of the weight."""
        return float(self._evals[-1] / self._evals[0])

    def inner(self, f, g):
        """Weighted inner product <f, g>_L = g* A f."""
        f = _as_vector(f, self.dim, "f")
        g = _as_vector(g, self.dim, "g")
        return complex(g.conj() @ (self.weight @ f))

    def lnorm_vec(self, f):
        f = _as_vector(f, self.dim, "f")
        return float(np.sqrt(max(self.inner(f, f).real, 0.0)))

    def plus_matrix(self, m):
        """Plus-adjoint A^{-1} M* A of a raw matrix, via the cached
        eigendecomposition of the weight."""
        m = _as_matrix(m, self.dim)
        u, ev = self._evecs, self._evals
        core = u.conj().T @ m.conj().T @ u
        core = (core * ev[np.newaxis, :]) / ev[:, np.newaxis]
        return u @ core @ u.conj().T

    def l_coords(self, m):
        """Similarity A^{1/2} M A^{-1/2} expressing M in L-orthonormal
        coordinates (up to a unitary factor that leaves norms alone)."""
        m = _as_matrix(m, self.dim)
        u, ev = self._evecs, self._evals
        root = np.sqrt(ev)
        core = u.conj().T @ m @ u
        return (core * (1.0 / root)[np.newaxis, :]) * root[:, np.newaxis]


@dataclass(frozen=True)
class Operator:
    """A linear operator on a :class:`WeightedSpace`.

    The plus-adjoint matrix is computed on first access and cached; the
    instance is otherwise immutable.
    """

    matrix: np.ndarray
    space: WeightedSpace

    def __post_init__(self):
        m = _as_matrix(self.matrix, self.space.dim, "operator matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def plus(self):
        """The plus-adjoint as an :class:`Operator` on the same space."""
        return Operator(self.space.plus_matrix(self.matrix), self.space)


@dataclass(frozen=True)
class GzReport:
    """Outcome of the extension-norm bound check.

    ``advisory`` is set when the right-hand side relies on the trace-norm
    estimator, which only certifies a lower bound.
    """

    lhs: float
    rhs: float
    holds: bool
    advisory: bool = False


def as_matrix(t, ws):
    """Accept an :class:`Operator` or a raw array on ``ws`` and return the
    matrix."""
    if isinstance(t, Operator):
        return t.matrix
    return _as_matrix(t, ws.dim, "operator matrix")


def make_space(n, weight, enorm="euclid"):
    """Validate and build a :class:`WeightedSpace`.

    The weight is Hermitian-symmetrized as ``(A + A*) / 2`` before any
    checks run.  The checks read the eigenvalues the space caches, so the
    weight is factored once.

    Parameters
    ----------
    n : int
        Dimension of the space; must be positive.
    weight : (n, n) array_like
        Candidate weight matrix.
    enorm : {"euclid", "trace"}
        Ambient-norm tag.

    Returns
    -------
    WeightedSpace

    Raises
    ------
    DimMismatch
        If the weight is not n x n, or the trace tag is used with n not a
        perfect square.
    NotPositiveDefinite
        If a weight eigenvalue is at or below ``1e-12``.
    NormCapViolated
        If the Euclidean-tag weight has spectral norm beyond ``1 + 1e-12``.
    NonIdentityWeightForTrace
        If the trace tag is used with a weight other than the identity.
    """
    if n <= 0:
        raise DimMismatch(f"space dimension must be positive, got {n}")
    if enorm not in ("euclid", "trace"):
        raise ValueError(f"unknown ambient-norm tag {enorm!r}")
    a = _as_matrix(weight, n, "weight")
    a = (a + a.conj().T) / 2.0
    ws = WeightedSpace(n, a, enorm)
    evals = ws._evals
    if evals[0] <= TOL_PD:
        raise NotPositiveDefinite(
            f"weight has eigenvalue {evals[0]:.3e} at or below {TOL_PD:.0e}"
        )
    if enorm == "euclid":
        if evals[-1] > 1.0 + TOL_CAP:
            raise NormCapViolated(
                f"weight spectral norm {evals[-1]:.12f} exceeds 1"
            )
    else:
        k = int(round(np.sqrt(n)))
        if k * k != n:
            raise DimMismatch(
                f"trace tag needs a perfect-square dimension, got {n}"
            )
        if np.abs(a - np.eye(n)).max() > TOL_HERM:
            raise NonIdentityWeightForTrace(
                "trace-tag spaces require the identity weight"
            )
    return ws


def plus_adjoint(ws, t):
    """Plus-adjoint ``T+ = A^{-1} T* A`` of an operator.

    This is the adjoint with respect to the weighted inner product: for all
    vectors ``<T f, g>_L = <f, T+ g>_L``.  Applying it twice returns the
    original operator, and it reverses products.

    Parameters
    ----------
    ws : WeightedSpace
    t : Operator or (n, n) array_like

    Returns
    -------
    Operator
    """
    if isinstance(t, Operator):
        return t.plus
    return Operator(ws.plus_matrix(as_matrix(t, ws)), ws)


def trace_opnorm_estimate(ws, t, restarts=ESTIMATE_RESTARTS,
                          iters=ESTIMATE_ITERS):
    """Lower-bound estimate of the trace-norm to trace-norm operator norm.

    The unit ball of the trace norm has the rank-one matrices ``u v*`` with
    unit Euclidean ``u, v`` as its extreme points, so the induced norm is
    the supremum of ``|T(u v*)|_tr`` over such pairs.  This routine runs an
    alternating ascent on that objective (polar factor of the output as the
    dual certificate, top singular pair of the pulled-back certificate as
    the new input) from ``restarts`` seeded starting pairs and returns the
    best value found.

    The restarts run as one stacked ascent: each step applies ``T`` and
    ``T*`` to every live restart in one matrix product and takes one
    stacked SVD of the outputs and one of the pulled-back certificates.
    Each restart still follows its own trajectory and stops on its own
    rule, once its objective no longer rises by more than a relative
    ``1e-13``; the others carry on until ``iters`` steps have run.

    The result is deterministic and is a certified lower bound only; it is
    reported as an estimate wherever it surfaces.
    """
    m = as_matrix(t, ws)
    k = ws.block_dim
    if k is None:
        raise DimMismatch("trace-norm estimation needs a trace-tag space")
    # restart by restart: u real, u imag, v real, v imag
    g = np.random.default_rng(_ESTIMATE_SEED).standard_normal(
        (restarts, 4, k))
    u = g[:, 0] + 1j * g[:, 1]
    v = g[:, 2] + 1j * g[:, 3]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # Rows hold column-stacked matrices, so T x is x @ T^T and T* z is
    # z @ conj(T).
    m_t, m_c = m.T, m.conj()
    prev = np.full(restarts, -np.inf)
    live = np.arange(restarts)
    for _ in range(iters):
        n = live.size
        # vec(u v*) = conj(v) (x) u
        x = (v.conj()[:, :, np.newaxis] * u[:, np.newaxis, :]).reshape(
            n, k * k)
        y = (x @ m_t).reshape(n, k, k).transpose(0, 2, 1)
        uy, sy, vhy = np.linalg.svd(y)
        obj = sy.sum(axis=1)
        rising = obj > prev[live] * (1.0 + 1e-13) + 1e-300
        live = live[rising]
        prev[live] = obj[rising]
        if live.size == 0:
            break
        z = uy[rising] @ vhy[rising]
        z = z.transpose(0, 2, 1).reshape(live.size, k * k)
        pulled = (z @ m_c).reshape(live.size, k, k).transpose(0, 2, 1)
        up, _, vhp = np.linalg.svd(pulled)
        u = up[:, :, 0]
        v = vhp[:, 0, :].conj()
    return float(prev.max(initial=0.0))


def opnorm(ws, t, which="E"):
    """Operator norm with respect to one of the two norms.

    Parameters
    ----------
    ws : WeightedSpace
    t : Operator or (n, n) array_like
    which : {"E", "L"}
        ``"L"`` gives the exact spectral norm of ``A^{1/2} T A^{-1/2}``.
        ``"E"`` gives the exact spectral norm under the Euclidean tag; under
        the trace tag it falls back to :func:`trace_opnorm_estimate`, whose
        value is a lower bound.

    Returns
    -------
    float
    """
    m = as_matrix(t, ws)
    if which == "L":
        return _spec_norm(ws.l_coords(m))
    if which != "E":
        raise ValueError(f"unknown norm tag {which!r}")
    if ws.enorm == "euclid":
        return _spec_norm(m)
    return trace_opnorm_estimate(ws, m)


def proper_norm(ws, t):
    """The norm ``|T|_E + |T+|_E`` making the plus-involution isometric."""
    t = t if isinstance(t, Operator) else Operator(as_matrix(t, ws), ws)
    return opnorm(ws, t, "E") + opnorm(ws, t.plus, "E")


def gz_bound_check(ws, t):
    """Check the classical bound of the weighted extension norm.

    Compares ``|T|_L`` against ``min(|T+ T|_E, |T T+|_E)`` and reports
    whether ``lhs <= rhs + TOL_GZ``.  Under the trace tag the right-hand side
    uses the ascent estimator, so ``holds`` is advisory there.

    Returns
    -------
    GzReport
    """
    m = as_matrix(t, ws)
    mp = ws.plus_matrix(m)
    lhs = opnorm(ws, m, "L")
    rhs = min(opnorm(ws, mp @ m, "E"), opnorm(ws, m @ mp, "E"))
    advisory = ws.enorm == "trace"
    return GzReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + TOL_GZ),
                    advisory=advisory)


def is_symmetrizable(ws, t):
    """True when the operator agrees with its plus-adjoint.

    The comparison is ``|T+ - T|_E <= TOL_SYM * (1 + |T|_E)``.
    """
    m = as_matrix(t, ws)
    gap = opnorm(ws, ws.plus_matrix(m) - m, "E")
    return bool(gap <= TOL_SYM * (1.0 + opnorm(ws, m, "E")))


def is_L_isometric(ws, g):
    """True when the operator preserves the weighted inner product.

    Checked as ``|G* A G - A|_2 <= TOL_ISO``; such operators are exactly the
    ones whose weighted extension is a Hilbert-space isometry.
    """
    m = as_matrix(g, ws)
    a = ws.weight
    return bool(_spec_norm(m.conj().T @ a @ m - a) <= TOL_ISO)
