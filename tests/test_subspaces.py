"""Subspace machinery: spans, complements, gaps, oblique projections."""

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

import twonorm as tn
from twonorm import rand
from twonorm.errors import (
    BiorthogonalityViolated,
    DependentInput,
    DimMismatch,
    NotComplementary,
)
from twonorm.space import _spec_norm

from conftest import modest_space

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _count_calls(monkeypatch, names):
    """Wrap each named function of each module so that calls are counted;
    return the dict of counts, keyed ``module.name``."""
    calls = {}

    def wrap(owner, name):
        fn = getattr(owner, name)
        key = f"{owner.__name__}.{name}"

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, fns in names.items():
        for name in fns:
            wrap(owner, name)
    return calls


def euclid2():
    return tn.make_space(2, np.eye(2))


def test_span_collapses_duplicates():
    ws = euclid2()
    s = tn.span(ws, [E1, E1])
    assert s.rank == 1


def test_span_drops_near_duplicates_below_tolerance():
    ws = euclid2()
    s = tn.span(ws, [E1, E1 + 1e-13 * E2])
    assert s.rank == 1


def test_span_returns_orthonormal_basis():
    rng = rand.trial_rng(10, 0)
    ws = rand.random_space(rng, 8)
    s = tn.span(ws, rand._complex_gauss(rng, 8, 5))
    assert s.rank == 5
    gram = s.basis.conj().T @ s.basis
    assert np.abs(gram - np.eye(5)).max() <= 1e-12


def test_span_of_nothing_is_zero_subspace():
    ws = euclid2()
    s = tn.span(ws, np.zeros((2, 0)))
    assert s.rank == 0


def test_complement_of_first_axis_under_diagonal_weight():
    ws = tn.make_space(2, np.diag([1.0, 0.25]))
    comp = tn.complement_L(ws, tn.span(ws, [E1]))
    assert comp.rank == 1
    assert tn.max_principal_angle(comp, tn.span(ws, [E2])) <= 1e-12


def test_complement_is_weighted_orthogonal():
    for trial in range(10):
        rng = rand.trial_rng(10, 10 + trial)
        ws = rand.random_space(rng, 7)
        r = int(rng.integers(1, 7))
        s = rand.random_subspace(rng, ws, r)
        comp = tn.complement_L(ws, s)
        assert comp.rank == 7 - r
        cross = comp.basis.conj().T @ ws.weight @ s.basis
        assert np.abs(cross).max() <= 1e-10


def test_double_complement_returns_the_subspace():
    worst = 0.0
    for trial in range(30):
        rng = rand.trial_rng(77, trial)
        ws = rand.random_space(rng, 9)
        s = rand.random_subspace(rng, ws, int(rng.integers(1, 9)))
        s2 = tn.complement_L(ws, tn.complement_L(ws, s))
        worst = max(worst, tn.max_principal_angle(s, s2))
    assert worst <= 1e-9


def test_complement_of_zero_and_full():
    ws = euclid2()
    zero = tn.span(ws, np.zeros((2, 0)))
    full = tn.span(ws, np.eye(2))
    assert tn.complement_L(ws, zero).rank == 2
    assert tn.complement_L(ws, full).rank == 0


@st.composite
def _complement_draw(draw):
    """Dimension n <= 10, a rank in [0, n] and a seed for the draws."""
    n = draw(st.integers(1, 10))
    return n, draw(st.integers(0, n)), draw(st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_complement_draw())
def test_complement_properties_down_to_the_weight_floor(drawn):
    """Dimension n - r, orthonormal columns and weighted orthogonality to
    working precision, under weights whose eigenvalues are log-uniform
    down to 1e-11, just above the positive-definiteness floor."""
    n, r, seed = drawn
    rng = np.random.default_rng(seed)
    u = rand.haar_unitary(rng, n)
    d = np.exp(rng.uniform(np.log(1e-11), 0.0, size=n))
    ws = tn.make_space(n, (u * (d / d.max())) @ u.conj().T)
    s = rand.random_subspace(rng, ws, r)
    comp = tn.complement_L(ws, s)
    b = comp.basis
    assert comp.rank == n - r
    assert _spec_norm(b.conj().T @ b - np.eye(n - r)) <= 1e-14
    assert _spec_norm(b.conj().T @ ws.weight @ s.basis) <= 1e-14


def test_complement_takes_one_qr(monkeypatch):
    rng = rand.trial_rng(11, 52)
    ws = rand.random_space(rng, 8)
    s = rand.random_subspace(rng, ws, 3)
    calls = _count_calls(monkeypatch, {
        la: ("qr", "svd", "svdvals", "null_space", "orth"),
        np.linalg: ("qr", "svd"),
    })
    tn.complement_L(ws, s)
    assert calls == {"scipy.linalg.qr": 1}


def test_direct_sum_gap_values():
    ws = euclid2()
    s = tn.span(ws, [E1])
    assert tn.direct_sum_gap(s, tn.span(ws, [E2])) == pytest.approx(1.0, abs=1e-12)
    assert tn.direct_sum_gap(s, s) == pytest.approx(0.0, abs=1e-12)
    # 45 degree pair: the smaller eigenvalue of the stacked Gram is
    # 1 - 1/sqrt(2), so the gap is its square root.
    t = tn.span(ws, [(E1 + E2) / np.sqrt(2)])
    expect = np.sqrt(1.0 - 1.0 / np.sqrt(2.0))
    assert tn.direct_sum_gap(s, t) == pytest.approx(expect, abs=1e-12)


def test_direct_sum_gap_zero_when_dims_do_not_add_up():
    ws = euclid2()
    full = tn.span(ws, np.eye(2))
    assert tn.direct_sum_gap(full, tn.span(ws, [E1])) == 0.0


def test_oblique_projection_frozen_two_by_two():
    ws = euclid2()
    s = tn.span(ws, [E1])
    t = tn.span(ws, [E1 + E2])
    pair = tn.oblique_projection(ws, s, t)
    assert np.allclose(pair.p.matrix, np.array([[1.0, -1.0], [0.0, 0.0]]), atol=1e-12)


def test_oblique_projection_acts_as_identity_on_range_and_kills_kernel():
    for trial in range(10):
        rng = rand.trial_rng(11, trial)
        ws = modest_space(rng, 10)
        r = int(rng.integers(1, 10))
        s, t = rand.random_companion_pair(rng, ws, r, min_gap=0.02, attempts=2000)
        pair = tn.oblique_projection(ws, s, t)
        p = pair.p.matrix
        assert _spec_norm(p @ s.basis - s.basis) <= 1e-8 * _spec_norm(p)
        assert _spec_norm(p @ t.basis) <= 1e-8 * _spec_norm(p)
        assert _spec_norm(p @ p - p) <= 1e-8 * _spec_norm(p)


def test_oblique_along_weighted_complement_is_self_plus_adjoint():
    rng = rand.trial_rng(11, 50)
    ws = rand.random_space(rng, 6)
    s = rand.random_subspace(rng, ws, 2)
    pair = tn.oblique_projection(ws, s, tn.complement_L(ws, s))
    assert _spec_norm(pair.p.matrix - pair.p_plus.matrix) <= 1e-9


def test_oblique_projection_rejects_non_companions():
    ws = euclid2()
    s = tn.span(ws, [E1])
    with pytest.raises(NotComplementary):
        tn.oblique_projection(ws, s, s)


def test_oblique_projection_factors_each_matrix_once(monkeypatch):
    """One SVD of the stacked bases, one of P, one residual SVD for each of
    the range and kernel angle checks, and no complement rebuilt: drawing
    the pair already computed both weighted complements."""
    rng = rand.trial_rng(11, 51)
    ws = rand.random_space(rng, 8)
    s, t = rand.random_companion_pair(rng, ws, 3)
    calls = _count_calls(monkeypatch, {
        la: ("svd", "svdvals", "null_space", "orth", "subspace_angles"),
        np.linalg: ("svd", "svdvals", "cond"),
    })
    tn.oblique_projection(ws, s, t)
    # the angles are small, so neither check factors its cross-Gram
    assert calls == {"scipy.linalg.svdvals": 1, "scipy.linalg.svd": 1,
                     "numpy.linalg.svd": 2}
    assert s.complement is s.complement
    assert np.array_equal(s.complement.basis, tn.complement_L(ws, s).basis)


def _near(rng, ws, b, r, lean=0.05):
    """Span of ``r`` orthonormal combinations of the columns of ``b``, each
    tilted by about ``lean`` in a random direction."""
    mix = rand.haar_unitary(rng, b.shape[1])[:, :r]
    return tn.span(ws, b @ mix + lean * rand._complex_gauss(rng, ws.dim, r))


@pytest.mark.parametrize("big, small, side", [
    (3, 3, "below"), (5, 2, "below"), (8, 3, "below"), (8, 8, "below"),
    (3, 3, "above"), (5, 2, "above"), (4, 4, "above"),
])
def test_principal_angles_match_scipy_on_one_side_of_quarter_pi(
        big, small, side):
    """Where every angle is below pi/4 (or every one above), scipy's
    ``subspace_angles`` uses one formula throughout, so both sines and
    cosines must agree.  Both argument orders are run, so the ranks come
    in either order; rank 8 is the whole space."""
    rng = rand.trial_rng(41, 10 * big + small)
    ws = rand.random_space(rng, 8)
    s1 = rand.random_subspace(rng, ws, big)
    base = s1.basis if side == "below" else la.null_space(s1.basis.conj().T)
    s2 = _near(rng, ws, base, small)
    for a, b in ((s1, s2), (s2, s1)):
        got = tn.principal_angles(a, b)
        ref = la.subspace_angles(a.basis, b.basis)
        assert got.shape == ref.shape == (small,)
        below = got < np.pi / 4
        assert below.all() if side == "below" else not below.any()
        assert np.abs(np.sin(got) - np.sin(ref)).max() <= 1e-12
        assert np.abs(np.cos(got) - np.cos(ref)).max() <= 1e-12


def test_principal_angles_with_the_zero_subspace_are_empty():
    ws = rand.random_space(rand.trial_rng(41, 0), 4)
    zero = tn.span(ws, np.zeros((4, 0)))
    s = tn.span(ws, np.eye(4)[:, :2])
    for a, b in ((zero, s), (s, zero), (zero, zero)):
        assert tn.principal_angles(a, b).shape == (0,)
        assert tn.max_principal_angle(a, b) == 0.0


def test_principal_angles_on_both_sides_of_quarter_pi():
    """Random pairs in C^6 whose angles straddle pi/4: each angle below
    pi/4 must be the arcsin of its residual singular value and each one
    above the arccos of its cross-Gram singular value, the sines descending
    and the cosines ascending as the angles run largest first."""
    mixed = 0
    for trial in range(20):
        rng = rand.trial_rng(43, trial)
        ws = rand.random_space(rng, 6)
        s1 = rand.random_subspace(rng, ws, 3)
        s2 = rand.random_subspace(rng, ws, int(rng.integers(2, 4)))
        got = tn.principal_angles(s1, s2)
        gram = s1.basis.conj().T @ s2.basis
        cosines = la.svdvals(gram)[::-1]
        sines = la.svdvals(s2.basis - s1.basis @ gram)
        err = np.where(got < np.pi / 4, np.abs(np.sin(got) - sines),
                       np.abs(np.cos(got) - cosines))
        assert err.max() <= 1e-13
        mixed += bool((got < np.pi / 4).any() and (got > np.pi / 4).any())
    assert mixed >= 5


def test_principal_angles_resolve_planted_tiny_and_near_right_angles():
    """Angles 1e-6 and pi/2 - 1e-6 in one pair, rotated by a Haar unitary.
    Taking arccos of a cosine near one, or arcsin of a sine near one, would
    lose about 1e-10 on one of them."""
    tiny, rest = 1e-6, np.pi / 2 - 1e-6
    e = np.eye(4)
    b1 = e[:, :2]
    b2 = np.stack([np.cos(rest) * e[:, 0] + np.sin(rest) * e[:, 2],
                   np.cos(tiny) * e[:, 1] + np.sin(tiny) * e[:, 3]], axis=1)
    rng = rand.trial_rng(47, 0)
    ws = rand.random_space(rng, 4)
    q = rand.haar_unitary(rng, 4)
    got = tn.principal_angles(tn.Subspace(q @ b1, ws),
                              tn.Subspace(q @ b2, ws))
    assert np.abs(got - [rest, tiny]).max() <= 1e-14


@st.composite
def _subspace_pair_draw(draw):
    """Dimension n, two ranks in [0, n] and a seed for the bases."""
    n = draw(st.integers(1, 6))
    return (n, draw(st.integers(0, n)), draw(st.integers(0, n)),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_subspace_pair_draw())
def test_principal_angles_properties(drawn):
    """min(r1, r2) angles in [0, pi/2], largest first, unchanged by a
    change of basis and, for equal ranks, by swapping the arguments."""
    n, r1, r2, seed = drawn
    rng = np.random.default_rng(seed)
    ws = rand.random_space(rng, n)
    s1 = rand.random_subspace(rng, ws, r1)
    s2 = rand.random_subspace(rng, ws, r2)
    ang = tn.principal_angles(s1, s2)
    assert ang.shape == (min(r1, r2),)
    assert ((ang >= 0.0) & (ang <= np.pi / 2)).all()
    assert (np.diff(ang) <= 1e-14).all()
    if r1:
        moved = tn.span(ws, s1.basis @ rand.haar_unitary(rng, r1))
        assert np.abs(tn.principal_angles(moved, s2) - ang).max(
            initial=0.0) <= 1e-12
    if r1 == r2:
        assert np.abs(tn.principal_angles(s2, s1) - ang).max(
            initial=0.0) <= 1e-12


def test_is_proper_companion_reports():
    ws = euclid2()
    s = tn.span(ws, [E1])
    good = tn.is_proper_companion(ws, s, tn.span(ws, [E2]))
    assert good.ok and good.gap == pytest.approx(1.0, abs=1e-12)
    bad = tn.is_proper_companion(ws, s, s)
    assert not bad.ok


def test_gram_schmidt_produces_weighted_orthonormal_columns():
    ws = tn.make_space(4, np.diag([1.0, 0.5, 1.0 / 3.0, 0.25]))
    rng = rand.trial_rng(31, 0)
    cols = tn.gram_schmidt_L(ws, rand._complex_gauss(rng, 4, 4))
    gram = cols.conj().T @ ws.weight @ cols
    assert np.abs(gram - np.eye(4)).max() <= 1e-10


def test_gram_schmidt_normalizes_a_single_vector():
    ws = tn.make_space(2, np.diag([0.25, 1.0]))
    cols = tn.gram_schmidt_L(ws, [2.0 * E1])
    assert ws.inner(cols[:, 0], cols[:, 0]) == pytest.approx(1.0, abs=1e-12)


def test_gram_schmidt_preserves_span():
    rng = rand.trial_rng(31, 1)
    ws = rand.random_space(rng, 5)
    raw = rand._complex_gauss(rng, 5, 3)
    cols = tn.gram_schmidt_L(ws, raw)
    assert tn.subspace_equal(tn.span(ws, raw), tn.span(ws, cols))


def test_gram_schmidt_rejects_dependent_input():
    ws = euclid2()
    with pytest.raises(DependentInput):
        tn.gram_schmidt_L(ws, [E1, 3.0 * E1])


def test_finite_rank_projection_from_biorthogonal_system():
    rng = rand.trial_rng(55, 3)
    ws = tn.make_space(6, np.diag(np.linspace(1.0, 0.3, 6)))
    f, h = rand.random_biorthogonal_system(rng, ws, 3)
    pair = tn.finite_rank_proper_projection(ws, f, h)
    q = pair.p.matrix
    assert _spec_norm(q @ q - q) <= 1e-10 * max(1.0, _spec_norm(q))
    # Swapping the two families must produce exactly the plus-adjoint.
    swapped = tn.finite_rank_proper_projection(ws, h, f)
    assert _spec_norm(pair.p_plus.matrix - swapped.p.matrix) <= 1e-12
    rep = tn.nullspace_plus_check(ws, q)
    assert rep.ok, (rep.null_angle, rep.range_angle)


def test_finite_rank_projection_rank_one():
    ws = euclid2()
    pair = tn.finite_rank_proper_projection(ws, [E1], [E1])
    assert np.allclose(pair.p.matrix, np.diag([1.0, 0.0]), atol=1e-14)


def test_finite_rank_rejects_non_biorthogonal_families():
    ws = euclid2()
    with pytest.raises(BiorthogonalityViolated):
        tn.finite_rank_proper_projection(ws, [E1], [E2])


def test_finite_rank_rejects_mismatched_family_sizes():
    ws = euclid2()
    with pytest.raises(DimMismatch):
        tn.finite_rank_proper_projection(ws, [E1, E2], [E1])


def test_nullspace_duality_for_zero_operator():
    ws = euclid2()
    rep = tn.nullspace_plus_check(ws, np.zeros((2, 2)))
    assert rep.ok and rep.null_angle <= 1e-12


def test_nullspace_duality_for_low_rank_operator():
    rng = rand.trial_rng(19, 500)
    ws = tn.make_space(6, np.diag(np.linspace(1.0, 0.4, 6)))
    t = rand._complex_gauss(rng, 6, 2) @ rand._complex_gauss(rng, 6, 2).conj().T
    rep = tn.nullspace_plus_check(ws, t)
    assert rep.null_angle <= 1e-8 and rep.range_angle <= 1e-8


def test_subspace_equal_ignores_basis_choice():
    rng = rand.trial_rng(12, 0)
    ws = rand.random_space(rng, 6)
    s = rand.random_subspace(rng, ws, 3)
    mixed = tn.span(ws, s.basis @ rand.haar_unitary(rng, 3))
    assert tn.subspace_equal(s, mixed)
    assert not tn.subspace_equal(s, rand.random_subspace(rng, ws, 2))


def test_subspace_containment_is_strict_about_direction():
    ws = tn.make_space(3, np.eye(3))
    small = tn.span(ws, [np.array([1.0, 0.0, 0.0])])
    big = tn.span(ws, np.eye(3)[:, :2])
    assert tn.subspace_contained(small, big)
    assert not tn.subspace_contained(big, small)
