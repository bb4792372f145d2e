"""Seeded random instances: weights, operators, subspace pairs.

Every generator takes an explicit ``numpy.random.Generator`` so suites can
derive one stream per trial (seed XOR trial index) and stay reproducible
run over run.
"""

import numpy as np

from .space import _require_positive_dim, _space_from_eigenpairs
from .subspaces import Subspace, is_proper_companion

__all__ = [
    "trial_rng",
    "haar_unitary",
    "random_pd_weight",
    "random_space",
    "random_operator",
    "random_subspace",
    "random_companion_pair",
    "random_biorthogonal_system",
]

WEIGHT_FLOOR = 1e-4


def trial_rng(seed, trial):
    """Generator for one trial, derived as seed XOR trial index."""
    return np.random.default_rng(int(seed) ^ int(trial))


def _complex_gauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        / np.sqrt(2.0)


def haar_unitary(rng, n):
    """Haar-distributed unitary via phase-fixed QR."""
    q, r = np.linalg.qr(_complex_gauss(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pd_weight(rng, n):
    """Random Hermitian positive definite weight with spectral norm one:
    a writable copy of the weight of :func:`random_space` drawn from the
    same stream."""
    return random_space(rng, n).weight.copy()


def random_space(rng, n):
    """Euclidean-tag space of dimension n with a random weight ``U D U*``.

    ``U`` is a :func:`haar_unitary` and ``D`` holds log-uniform eigenvalues
    in ``[1e-4, 1]`` rescaled so the largest is exactly one.  The space
    keeps these eigenpairs, so no ``eigh`` recovers them; its weight equals
    ``make_space(n, random_pd_weight(rng, n)).weight`` bit for bit.
    """
    _require_positive_dim(n)
    u = haar_unitary(rng, n)
    d = np.exp(rng.uniform(np.log(WEIGHT_FLOOR), 0.0, size=n))
    return _space_from_eigenpairs(u, d / d.max())


def random_operator(rng, ws):
    """Complex Gaussian matrix on the space."""
    return _complex_gauss(rng, ws.dim, ws.dim)


def random_subspace(rng, ws, r):
    """Span of ``r`` independent complex Gaussian vectors, held as the
    unitary factor of their thin QR.

    The vectors are independent with probability one, so no rank decision
    is taken: the span is the one :func:`twonorm.subspaces.span` gives, in
    another orthonormal basis.
    """
    q, _ = np.linalg.qr(_complex_gauss(rng, ws.dim, r))
    return Subspace(q, ws)


def random_companion_pair(rng, ws, r, min_gap=1e-6, attempts=100):
    """A pair ``(s, t)`` of subspaces of dimensions ``r`` and ``n - r``
    splitting the space with a comfortable gap.

    Pairs are drawn until one passes :func:`is_proper_companion`, which
    checks the gap of the pair and of its complement pair; the complement
    pair is checked, not returned."""
    for _ in range(attempts):
        s = random_subspace(rng, ws, r)
        t = random_subspace(rng, ws, ws.dim - r)
        rep = is_proper_companion(ws, s, t, tol_gap=min_gap)
        if rep.ok:
            return s, t
    raise RuntimeError("failed to draw a splitting pair; space too small?")


def random_biorthogonal_system(rng, ws, m):
    """Two m-vector families with weighted cross-Gram exactly the identity.

    The second family is solved from a generic ansatz, so the families are
    biorthogonal to rounding while neither is orthogonal on its own.
    """
    f = _complex_gauss(rng, ws.dim, m)
    k = _complex_gauss(rng, ws.dim, m)
    cross = ws.dual(k) @ f
    h = k @ np.linalg.inv(cross).conj().T
    return f, h
