"""Truncation studies: margin behaviour along growing finite sections.

Two families are tracked.  The diverging-vector family lives on spaces
with weight ``diag(1/i^2)`` and cuts the hyperplane weighted-orthogonal to
``g_i = i^(-beta)``; the ambient length of ``g`` diverges with the
dimension while its weighted length stays bounded, and the canonical
projection norm grows along the family.  The symmetry family builds the
block idempotent from ``diag(1, .., 1, -1, .., -1)``, for which the
eigenvalue-pair margin of the conjugation criterion is identically zero at
every truncation size.

Rates are recorded, never asserted; the only assertions are the
monotonicity facts stated for the rows themselves.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .errors import BadExponent
from .space import make_space, _spec_norm
from .compat import compat_margin
from .subspaces import span
from .schatten import block_idempotent, z_criterion_margin

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
        projection norm is then constant and no divergence assertions run.

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
        diag = 1.0 / idx ** 2
        weight = np.diag(diag / diag.max())
        ws = make_space(n, weight, "euclid")
        if control:
            g = np.zeros(n)
            g[0] = 1.0
        else:
            g = idx ** (-beta)
        s = span(ws, [g]).complement
        rep = compat_margin(ws, s)
        rows.append(StudyRow(
            n=n,
            margin_c=rep.margin_c,
            q_norm=rep.q_norm,
            g_enorm=float(np.linalg.norm(g)),
            aux={},
        ))
    if not control:
        for prev, cur in zip(rows, rows[1:]):
            if cur.g_enorm <= prev.g_enorm + MONO_TOL:
                raise ArithmeticError("defining-vector length failed to grow")
            if cur.q_norm < prev.q_norm - MONO_TOL:
                raise ArithmeticError("projection norm decreased along sizes")
    return rows


def symmetry_truncation_study(k_list):
    """Criterion margins along block idempotents built from symmetries.

    For every even ``k`` the block ``z = diag(1, .., 1, -1, .., -1)`` has
    eigenvalue pairs multiplying to ``-1``, so both criterion margins
    vanish identically; the rows record them together with the smallest
    symmetrized eigenvalue of the involution attached to the two-sided
    multiplication, all in Frobenius coordinates.

    Returns
    -------
    list of StudyRow
    """
    rows = []
    for k in k_list:
        if k < 2 or k % 2:
            raise ValueError(f"truncation sizes must be even and >= 2, got {k}")
        z = np.diag(np.concatenate([np.ones(k // 2), -np.ones(k // 2)]))
        crit = z_criterion_margin(z)
        q = block_idempotent(z)
        # column-stacked superoperator of x -> q x q
        m = np.kron(q.T, q)
        eye = np.eye(m.shape[0])
        c = m + m.conj().T - eye
        v = 2.0 * m - eye
        sym_eigs = la.eigvalsh(v + v.conj().T)
        rows.append(StudyRow(
            n=k,
            margin_c=float(la.svdvals(c)[-1]),
            q_norm=_spec_norm(m),
            g_enorm=float("nan"),
            aux={
                "pair_margin": crit.pair_margin,
                "op_margin": crit.op_margin,
                "min_symmetric": float(np.abs(sym_eigs).min()),
            },
        ))
    return rows
