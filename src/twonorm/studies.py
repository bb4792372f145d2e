"""Truncation studies: margin behaviour along growing finite sections.

Two families are tracked.  The diverging-vector family lives on spaces
with weight ``A = diag(w)``, ``w_i = 1/i^2``, and cuts the hyperplane ``S``
weighted-orthogonal to ``g_i = i^(-beta)``; the ambient length of ``g``
diverges with the dimension while its weighted length stays bounded, and
the canonical projection norm grows along the family.  The symmetry family
builds the block idempotent from ``diag(1, .., 1, -1, .., -1)``, for which
the eigenvalue-pair margin of the conjugation criterion is identically
zero at every truncation size.  Its rows are the family's constants, read
from its proof in O(1) at any even size; no matrix is built.

The diverging-vector rows are read from a closed form, in O(n) work on the
vector ``w``.  The canonical projection onto ``S`` is the rank-one change
``Q = I - g h*`` of the identity, ``h = A g / (g* A g)``, so
``|Q|_2 = |I - Q|_2 = |g| |h| = a`` (Kato: ``|I - P| = |P|`` for an
idempotent ``P`` other than 0 and I), and ``C = 2Q - I`` is an involution
whose smallest singular value is ``1 / (a + sqrt(a^2 - 1))`` (Szyld, Numer.
Algorithms 42, 2006).  The dense library route -- ``make_space``, the
weighted complement of ``span([g])`` and ``compat_margin`` -- computes the
same two numbers in O(n^3) and is the test suite's oracle for these rows.

Rates are recorded, never asserted.  The one assertion is that the
canonical projection norm does not decrease along the diverging-vector
family, a property of the family; the growth of ``|g|``, which the
construction fixes (sizes strictly increase and every ``g_i`` is
positive), is not re-checked.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadExponent

__all__ = [
    "StudyRow",
    "diverging_vector_study",
    "symmetry_truncation_study",
]

MONO_TOL = 1e-12


@dataclass(frozen=True)
class StudyRow:
    """One truncation size of a study.

    ``g_enorm`` is the ambient length of the defining vector where the
    study has one (NaN otherwise); study-specific extras go in ``aux``.
    """

    n: int
    margin_c: float
    q_norm: float
    g_enorm: float
    aux: dict = field(default_factory=dict)


def _fsum(v):
    """Exactly rounded sum of a float vector; the memoryview hands
    ``math.fsum`` plain floats, not numpy scalars."""
    return math.fsum(memoryview(v))


def diverging_vector_study(n_list, beta, control=False):
    """Margins along hyperplanes cut by a slowly decaying vector.

    Parameters
    ----------
    n_list : sequence of int
        Strictly increasing truncation dimensions.
    beta : float
        Decay exponent of ``g_i = i^(-beta)``; must lie in ``(0, 1/2]`` so
        the ambient length diverges while the weighted length converges.
    control : bool
        Use the first basis vector instead of the decaying one; the
        projection norm is then constant and the monotonicity assertion
        does not run.

    Returns
    -------
    list of StudyRow

    Raises
    ------
    BadExponent
        If ``beta`` is outside ``(0, 1/2]``.
    """
    if not 0.0 < beta <= 0.5:
        raise BadExponent(f"beta must lie in (0, 1/2], got {beta}")
    sizes = list(n_list)
    if sizes != sorted(set(sizes)) or (sizes and sizes[0] < 2):
        raise ValueError("dimensions must be strictly increasing and >= 2")
    rows = []
    for n in sizes:
        idx = np.arange(1, n + 1, dtype=float)
        w = 1.0 / idx ** 2
        g = np.eye(1, n)[0] if control else idx ** (-beta)
        # exactly rounded sums: in BLAS order the decreasing positive terms
        # of g* A g lost up to 10 units of rounding at n = 2048
        wg = w * g
        a = math.sqrt(_fsum(g * g) * _fsum(wg * wg)) / _fsum(g * wg)
        rows.append(StudyRow(
            n=n,
            margin_c=1.0 / (a + math.sqrt((a - 1.0) * (a + 1.0))),
            q_norm=a,
            g_enorm=float(np.linalg.norm(g)),
        ))
    if not control:
        for prev, cur in zip(rows, rows[1:]):
            if cur.q_norm < prev.q_norm - MONO_TOL:
                raise ArithmeticError("projection norm decreased along sizes")
    return rows


def symmetry_truncation_study(k_list):
    """Criterion margins along block idempotents built from symmetries.

    Every row holds the same constants, fixed by the family's proof, so no
    matrix is built and any even ``k`` costs O(1).

    The block ``z = diag(1, .., 1, -1, .., -1)`` is diagonal, so the map
    ``x -> x + z* x z`` is diagonal on the matrix units with entries
    ``1 + z_i z_j`` in ``{0, 2}`` (Horn & Johnson, Topics in Matrix
    Analysis, Thm 4.2.12).  The eigenvalues 1 and -1 pair to
    ``1 + (1)(-1) = 0``, so ``pair_margin`` is 0, and ``op_margin`` equals
    it because ``z`` is normal.

    For ``M: x -> q x q``, ``q = [[I, z], [0, 0]]``, the Hermitian
    ``C = M + M* - I`` squares to ``I + (M - M*)(M - M*)*`` since ``M`` is
    idempotent, so its singular values are at least 1, with equality on
    ``ker M`` meet ``ker M*`` (Halmos, Trans. AMS 144, 1969): ``margin_c``
    is 1.  ``M = q^T (x) q`` and ``q q* = diag(I + z z*, 0)`` give
    ``q_norm = |M|_2 = 1 + |z|_2^2 = 2``, and ``min_symmetric`` is
    ``2 margin_c = 2``, since the symmetrized involution ``v + v*`` for
    ``v = 2M - I`` is ``2C``.  The dense route, ``z_criterion_margin`` and
    the explicit ``M``, is the test suite's oracle for these rows.

    Returns
    -------
    list of StudyRow
    """
    rows = []
    for k in k_list:
        if k < 2 or k % 2:
            raise ValueError(f"truncation sizes must be even and >= 2, got {k}")
        rows.append(StudyRow(
            n=k,
            margin_c=1.0,
            q_norm=2.0,
            g_enorm=float("nan"),
            aux={"pair_margin": 0.0, "op_margin": 0.0, "min_symmetric": 2.0},
        ))
    return rows
