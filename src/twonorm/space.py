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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

# Restarts and step cap of the rank-one ascent estimator of trace-tag norms.
ESTIMATE_RESTARTS = 50
ESTIMATE_ITERS = 200
_ESTIMATE_SEED = 20081031
# Slack of the elementary-map certificate of trace_opnorm_estimate, in units
# of k^2 u times its upper bound.  On x -> a x b, the sandwich x -> z* x z
# and the products T* T and T T* of x -> a x b (k = 1-32) the bracket closed
# within 0.8 such units; on dense maps it stayed open by at least 0.4 of
# the bound.
_CERTIFICATE_SLACK = 16.0


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
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _require(residual, tol, what, error):
    """Raise ``error`` unless a cross-check's residual is within ``tol``.

    A matrix residual is measured by its spectral norm.  It passes at once
    when its Frobenius norm is within ``tol``, since the spectral norm is
    never larger; otherwise the spectral norm is taken, compared and
    reported.  A scalar is a figure the caller already holds and is used
    as given.  The message carries the residual against its tolerance.
    """
    if np.ndim(residual):
        if np.linalg.norm(residual) <= tol:
            return
        res = _spec_norm(residual)
    else:
        res = residual
    if res > tol:
        raise error(f"{what} ({res:.3e} > {tol:.3e})")


def _require_finite(what, *arrays):
    """Raise ``ValueError`` unless every array of caller data has only
    finite entries; the one check made before such data is factored.
    numpy's factorizations do not check: its SVD raises on a NaN, returns
    NaN for some infinite entries, and with vectors does not return at all
    on ``diag(inf, 1, 0)``."""
    if not all(np.isfinite(m).all() for m in arrays):
        raise ValueError(f"{what} must have finite entries")


@dataclass(frozen=True)
class WeightedSpace:
    """C^n with an ambient-norm tag and a Hermitian positive definite weight.

    Instances are immutable records of a weight and its factors, taken as
    given: :func:`make_space` factors a weight that comes from outside
    once and validates it, and :func:`twonorm.rand.random_space` passes the
    factors its weight was drawn from.  The space is the one place that
    knows how the weight is stored, and every weighted computation goes
    through it: ``A X`` is :meth:`apply_weight` and ``X* A`` is
    :meth:`dual`.  A diagonal weight, the identity included, is kept as its
    real diagonal and applied by scaling rows or columns, with no n x n
    eigenvector matrix.

    Parameters
    ----------
    dim : int
        Dimension n of the space.
    weight : (n, n) ndarray
        Hermitian positive definite weight of the inner product, read-only.
    enorm : {"euclid", "trace"}
        Ambient-norm tag.  ``"trace"`` requires ``dim`` to be a perfect
        square k^2 and the weight to be the identity; vectors are then read
        as column-stacked k x k matrices and the ambient norm is the trace
        norm.
    _evals, _evecs : ndarray, ndarray or None
        Eigenvalues and eigenvectors of a dense weight, in ascending order;
        a diagonal weight's diagonal, in its own order, and None.
    """

    dim: int
    weight: np.ndarray
    enorm: str
    _evals: np.ndarray
    _evecs: np.ndarray | None

    @property
    def block_dim(self):
        """Side length k of the matrix model when ``enorm == "trace"``."""
        if self.enorm != "trace":
            return None
        return int(round(np.sqrt(self.dim)))

    @property
    def weight_cond(self):
        """Condition number of the weight."""
        return float(self._evals.max() / self._evals.min())

    def apply_weight(self, x):
        """``A X`` for a vector or a matrix ``X``; a diagonal weight scales
        its rows."""
        if self._evecs is None:
            d = self._evals if x.ndim == 1 else self._evals[:, np.newaxis]
            return d * x
        return self.weight @ x

    def dual(self, x):
        """``X* A`` for a vector or a matrix ``X``: row i is the functional
        ``f -> <f, x_i>_L``; a diagonal weight scales the columns of
        ``X*``."""
        if self._evecs is None:
            return x.conj().T * self._evals
        return x.conj().T @ self.weight

    def inner(self, f, g):
        """Weighted inner product <f, g>_L = g* A f."""
        f = _as_vector(f, self.dim, "f")
        g = _as_vector(g, self.dim, "g")
        return complex(g.conj() @ self.apply_weight(f))

    def lnorm_vec(self, f):
        f = _as_vector(f, self.dim, "f")
        return float(np.sqrt(max(self.inner(f, f).real, 0.0)))

    def plus_matrix(self, m):
        """Plus-adjoint A^{-1} M* A of a raw matrix: ``d^-1 M* d``
        entrywise for a diagonal weight ``d``, so ``M*`` itself under the
        identity, and through the cached eigendecomposition of a dense
        one."""
        m = _as_matrix(m, self.dim)
        u, ev = self._evecs, self._evals
        if u is None:
            return (m.conj().T * ev) / ev[:, np.newaxis]
        core = u.conj().T @ m.conj().T @ u
        core = (core * ev[np.newaxis, :]) / ev[:, np.newaxis]
        return u @ core @ u.conj().T

    def plus_factored(self, z, s):
        """Plus-adjoint of ``Z S Z*`` from its factors, as
        ``(A^{-1} Z) S* (A Z)*``: the rows of ``Z`` scaled under a diagonal
        weight, through the cached eigendecomposition of a dense one.  It
        equals ``plus_matrix(Z S Z*)`` up to the rounding of the two
        evaluation orders."""
        u, ev = self._evecs, self._evals
        if u is None:
            inv_a_z, a_z = z / ev[:, np.newaxis], z * ev[:, np.newaxis]
        else:
            zw = u.conj().T @ z
            inv_a_z = u @ (zw / ev[:, np.newaxis])
            a_z = u @ (zw * ev[:, np.newaxis])
        return inv_a_z @ s.conj().T @ a_z.conj().T


@dataclass(frozen=True)
class Operator:
    """A linear operator on a :class:`WeightedSpace`.

    The plus-adjoint and the sorted ambient eigenvalues are computed on
    first access and cached; the instance is otherwise immutable.  The
    eigenvalues are the whole spectrum under every tag of
    :func:`twonorm.spectra.spectrum`: ``T+`` is similar to ``T*`` and the
    weighted coordinates ``A^{1/2} T A^{-1/2}`` to ``T``.
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

    @cached_property
    def eigvals(self):
        """Ambient eigenvalues, sorted by ``np.sort_complex``; read-only."""
        ev = np.sort_complex(np.linalg.eigvals(self.matrix))
        ev.setflags(write=False)
        return ev


@dataclass(frozen=True)
class GzReport:
    """Outcome of the extension-norm bound check.

    ``advisory`` is set under the trace tag, where the right-hand side
    comes from :func:`trace_opnorm_estimate`.  Its value is certified when
    ``T+ T`` and ``T T+`` are elementary maps ``x -> a x b``, as they are
    when ``T`` is one; otherwise it is a lower bound only.
    """

    lhs: float
    rhs: float
    holds: bool
    advisory: bool = False


def as_matrix(t, ws):
    """Accept an :class:`Operator` or a raw array on ``ws`` and return the
    matrix; an :class:`Operator` on a space of another dimension raises
    :class:`DimMismatch`, as a raw array of that size does."""
    if isinstance(t, Operator) and t.space.dim == ws.dim:
        return t.matrix
    m = t.matrix if isinstance(t, Operator) else t
    return _as_matrix(m, ws.dim, "operator matrix")


def as_operator(t, ws):
    """Accept an :class:`Operator` or a raw array on ``ws`` and return an
    :class:`Operator` on ``ws``, so that what it caches is computed once.

    An :class:`Operator` is returned as it is only when it lives on ``ws``
    itself; on another space its cached plus-adjoint and eigenvalues would
    be that space's, so its matrix is read again in ``ws``.
    """
    if isinstance(t, Operator) and t.space is ws:
        return t
    return Operator(t.matrix if isinstance(t, Operator) else t, ws)


def _require_positive_dim(n):
    if n <= 0:
        raise DimMismatch(f"space dimension must be positive, got {n}")


def _space_from_eigenpairs(u, d):
    """Euclidean-tag space with the weight ``U diag(d) U*`` of known
    eigenpairs, ``U`` unitary and ``d`` real with ``TOL_PD < d <= 1 +
    TOL_CAP``.

    The weight is formed once, in the order given, and symmetrized as
    ``(A + A*) / 2``, so it is exactly Hermitian; the constructor takes
    ``d`` and ``U`` as its factors, sorted ascending as ``eigh`` returns
    them: no ``eigh`` runs.  The order is not cosmetic: ``plus_matrix``
    rounds with it, and on unsorted eigenpairs ``(T+)+ - T`` came out about
    1.4 times larger than on sorted ones.  The dimension and the bounds on
    ``d`` are what :func:`make_space` would check, and are the caller's to
    keep.
    """
    a = (u * d) @ u.conj().T
    a = (a + a.conj().T) / 2.0
    a.setflags(write=False)
    order = np.argsort(d)
    return WeightedSpace(d.size, a, "euclid", d[order], u[:, order])


def make_space(n, weight, enorm="euclid"):
    """Validate, factor and build a :class:`WeightedSpace`.

    A finite weight is Hermitian-symmetrized as ``(A + A*) / 2`` into the
    one array the space keeps, marked read-only.  It is factored once: a
    diagonal weight's eigenvalues are its diagonal, with no ``eigh``, and a
    dense one takes one ``eigh``.  The checks read the smallest and largest
    eigenvalue from those factors before the space is built, so no invalid
    space exists.

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
    ValueError
        If the weight has a NaN or infinite entry.
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
    _require_positive_dim(n)
    if enorm not in ("euclid", "trace"):
        raise ValueError(f"unknown ambient-norm tag {enorm!r}")
    a = _as_matrix(weight, n, "weight")
    _require_finite("weight", a)
    a = (a + a.conj().T) / 2.0
    a.setflags(write=False)
    # Counting nonzeros tells a diagonal weight from a dense one.
    d = a.diagonal().real.copy()
    if np.count_nonzero(a) == np.count_nonzero(d):
        evals, evecs = d, None
    else:
        evals, evecs = np.linalg.eigh(a)
    low, high = evals.min(), evals.max()
    if low <= TOL_PD:
        raise NotPositiveDefinite(
            f"weight has eigenvalue {low:.3e} at or below {TOL_PD:.0e}"
        )
    if enorm == "euclid":
        if high > 1.0 + TOL_CAP:
            raise NormCapViolated(
                f"weight spectral norm {high:.12f} exceeds 1"
            )
    else:
        k = int(round(np.sqrt(n)))
        if k * k != n:
            raise DimMismatch(
                f"trace tag needs a perfect-square dimension, got {n}"
            )
        dev = np.abs(evals - 1.0).max() if evecs is None \
            else np.abs(a - np.eye(n)).max()
        if dev > TOL_HERM:
            raise NonIdentityWeightForTrace(
                "trace-tag spaces require the identity weight"
            )
    return WeightedSpace(n, a, enorm, evals, evecs)


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
    return as_operator(t, ws).plus


def _trace_objective(m_t, u, v, k):
    """``|T(u v*)|_tr`` for unit ``u, v`` of length k, or for stacks of
    them, with the full SVD of each output ``T(u v*)``.

    Rows hold column-stacked matrices, so ``T x`` is ``x @ T^T``; ``m_t``
    is ``T^T``.
    """
    lead = u.shape[:-1]
    # vec(u v*) = conj(v) (x) u
    x = (v.conj()[..., :, np.newaxis] * u[..., np.newaxis, :]).reshape(
        *lead, k * k)
    y = (x @ m_t).reshape(*lead, k, k).swapaxes(-1, -2)
    uy, sy, vhy = np.linalg.svd(y)
    return uy, sy.sum(axis=-1), vhy


def _elementary_certificate(m, k):
    """The trace-norm operator norm of ``T``, to ``16 k^2 u`` relative,
    when ``T`` is the map ``x -> a x b`` up to rounding; None otherwise.

    The realignment ``R[(i, p), (q, j)] = T[i + k j, p + k q]`` of ``x ->
    sum_s a_s x b_s`` is ``sum_s vec(a_s) vec(b_s)^T``, rank one for
    ``x -> a x b``.  One power step from the largest column of ``R`` gives
    a leading term ``(a, b)`` and the tail ``R - vec(a) vec(b)^T``.  The
    norm is at most ``U = s1(a) s1(b) + sqrt(k) |tail|_F``, because
    ``|Phi|_tr->tr <= sqrt(k) |Phi|_F->F <= sqrt(k) |R_Phi|_F``.  It is at
    least the objective ``f`` at ``u`` the top right singular vector of
    ``a`` and ``v`` the top left singular vector of ``b``, where the leading
    term attains ``s1(a) s1(b)`` (Watrous, The Theory of Quantum
    Information, 2018, sec. 3.3).  ``f`` is returned when ``U - f`` is
    within the slack; both ends hold up to rounding.
    """
    r = m.reshape(k, k, k, k).transpose(1, 3, 2, 0).reshape(k * k, k * k)
    cols = np.linalg.norm(r, axis=0)
    c = int(np.argmax(cols))
    if cols[c] == 0.0:
        return 0.0
    a = r[:, c]
    b = a.conj() @ r / cols[c] ** 2
    tail = np.linalg.norm(r - np.outer(a, b))
    _, sa, vha = np.linalg.svd(a.reshape(k, k))
    ub, sb, _ = np.linalg.svd(b.reshape(k, k))
    upper = sa[0] * sb[0] + np.sqrt(k) * tail
    _, f, _ = _trace_objective(m.T, vha[0].conj(), ub[:, 0], k)
    if upper - f <= _CERTIFICATE_SLACK * k * k * np.finfo(float).eps * upper:
        return float(f)
    return None


def trace_opnorm_estimate(ws, t):
    """Lower-bound estimate of the trace-norm to trace-norm operator norm,
    certified on elementary maps.

    The unit ball of the trace norm has the rank-one matrices ``u v*`` with
    unit Euclidean ``u, v`` as its extreme points, so the induced norm is
    the supremum of ``|T(u v*)|_tr`` over such pairs.

    A certificate is tried first (:func:`_elementary_certificate`).  It
    brackets the norm between that objective at one pair and an upper
    bound read from the Kronecker structure of ``T``.  The bracket closes
    to ``16 k^2 u`` relative on elementary maps ``x -> a x b``, whose norm
    is ``s1(a) s1(b)``: one-sided and two-sided multiplications, the
    sandwich ``x -> z* x z`` and products such as ``T+ T``.  Then the value
    is certified and returned, and no ascent runs.

    Otherwise an alternating ascent runs on that objective (polar factor of
    the output as the dual certificate, top singular pair of the
    pulled-back certificate as the new input) from ``ESTIMATE_RESTARTS``
    seeded starting pairs and returns the best value found.  The restarts
    run as one stacked ascent: each step applies ``T`` and ``T*`` to every
    live restart in one matrix product and takes one stacked SVD of the
    outputs and one of the pulled-back certificates.  Each restart still
    follows its own trajectory and stops on its own rule, once its
    objective no longer rises by more than a relative ``1e-13``; the others
    run on to ``ESTIMATE_ITERS`` steps.  The ascent's value is a lower bound
    only, and is reported as an estimate wherever it surfaces.

    The result is deterministic.
    """
    m = as_matrix(t, ws)
    k = ws.block_dim
    if k is None:
        raise DimMismatch("trace-norm estimation needs a trace-tag space")
    certified = _elementary_certificate(m, k)
    if certified is not None:
        return certified
    # restart by restart: u real, u imag, v real, v imag
    g = np.random.default_rng(_ESTIMATE_SEED).standard_normal(
        (ESTIMATE_RESTARTS, 4, k))
    u = g[:, 0] + 1j * g[:, 1]
    v = g[:, 2] + 1j * g[:, 3]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # T* z is z @ conj(T)
    m_t, m_c = m.T, m.conj()
    prev = np.full(ESTIMATE_RESTARTS, -np.inf)
    live = np.arange(ESTIMATE_RESTARTS)
    for _ in range(ESTIMATE_ITERS):
        uy, obj, vhy = _trace_objective(m_t, u, v, k)
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
        value is certified to ``16 k^2 u`` relative on elementary maps
        ``x -> a x b`` and is a lower bound otherwise.

    Returns
    -------
    float
    """
    m = as_matrix(t, ws)
    if which == "L":
        # T in L-orthonormal coordinates, A^{1/2} T A^{-1/2}, up to the
        # unitary factor of A = U D U*, which leaves the norm alone; for a
        # diagonal weight U is the permutation of its stable sort, a gather
        root = np.sqrt(ws._evals)
        if ws._evecs is None:
            order = np.argsort(ws._evals, kind="stable")
            root, core = root[order], m[np.ix_(order, order)]
        else:
            core = ws._evecs.conj().T @ m @ ws._evecs
        return _spec_norm((core * (1.0 / root)) * root[:, np.newaxis])
    if which != "E":
        raise ValueError(f"unknown norm tag {which!r}")
    if ws.enorm == "euclid":
        return _spec_norm(m)
    return trace_opnorm_estimate(ws, m)


def proper_norm(ws, t):
    """The norm ``|T|_E + |T+|_E`` making the plus-involution isometric."""
    t = as_operator(t, ws)
    return opnorm(ws, t, "E") + opnorm(ws, t.plus, "E")


def gz_bound_check(ws, t):
    """Check the classical bound of the weighted extension norm.

    Compares ``|T|_L`` against ``min(|T+ T|_E, |T T+|_E)`` and reports
    whether ``lhs <= rhs + TOL_GZ``.  Under the trace tag the right-hand side
    uses :func:`trace_opnorm_estimate`, so ``holds`` is advisory there (see
    :class:`GzReport` for when that value is certified).

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
    return bool(_spec_norm(ws.dual(m) @ m - ws.weight) <= TOL_ISO)
