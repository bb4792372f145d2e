"""Subspace machinery: spans, complements, gaps, oblique projections."""

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

import twonorm as tn
import twonorm.subspaces as subspaces
from twonorm import rand
from twonorm.errors import (
    BiorthogonalityViolated,
    DependentInput,
    DimMismatch,
    NotComplementary,
)
from twonorm.space import _spec_norm

from conftest import FACTORIZATIONS, count_calls, modest_space

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_span_and_range_kernel_reject_non_finite_entries(bad):
    """numpy's SVD raises on a NaN but returns NaN singular values for an
    infinite entry; both are a ``ValueError`` here."""
    ws = tn.make_space(3, np.eye(3))
    m = np.eye(3, dtype=complex)
    m[0, 1] = bad
    with pytest.raises(ValueError):
        tn.span(ws, m)
    with pytest.raises(ValueError):
        subspaces._range_kernel(ws, m, subspaces._span_cut)
    with pytest.raises(ValueError):
        tn.krein_check(ws, tn.span(ws, [np.eye(3)[0]]), m)


@pytest.mark.parametrize("dtype", [float, complex])
def test_non_finite_entries_are_rejected_before_any_svd(dtype, monkeypatch):
    """numpy's SVD with vectors does not return on ``diag(inf, 1, 0)``, so
    the entries are checked first: with the SVD made to raise, a
    ``ValueError`` can only come from that check."""
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    ws = tn.make_space(3, np.eye(3))
    m = np.diag(np.array([np.inf, 1.0, 0.0], dtype=dtype))
    with pytest.raises(ValueError, match="vectors must have finite entries"):
        tn.span(ws, m)
    for call in (lambda: subspaces._range_kernel(ws, m, subspaces._span_cut),
                 lambda: tn.krein_check(ws, tn.Subspace(np.eye(3)[:, :1], ws),
                                        m),
                 lambda: tn.nullspace_plus_check(ws, m)):
        with pytest.raises(ValueError, match="matrix must have finite entries"):
            call()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_random_subspace_spans_what_span_gives(n, seed):
    """The QR basis of a drawn subspace is orthonormal to ``16 n u`` and
    spans what :func:`span` makes of the same draws, to a largest
    principal angle of ``16 u cond(G)`` for the Gaussian columns ``G``.
    Over 3000 draws of this ensemble the worst were ``4.0 n u`` and
    ``4.2 u cond(G)``."""
    ws = rand.random_space(rand.trial_rng(53, seed), n)
    eps = np.finfo(float).eps
    for r in {0, 1, n - 1, n}:
        s = rand.random_subspace(rand.trial_rng(59, seed), ws, r)
        g = rand._complex_gauss(rand.trial_rng(59, seed), n, r)
        ref = tn.span(ws, g)
        assert s.rank == ref.rank == r
        gram = s.basis.conj().T @ s.basis
        assert _spec_norm(gram - np.eye(r)) <= 16 * n * eps
        if r:
            assert tn.max_principal_angle(s, ref) \
                <= 16 * eps * np.linalg.cond(g)


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
    calls = count_calls(monkeypatch, {
        la: ("qr", "svd", "svdvals", "null_space", "orth"),
        np.linalg: ("qr", "svd"),
    })
    tn.complement_L(ws, s)
    assert calls == {"numpy.linalg.qr": 1}


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


def _stacked_splitting(s, t):
    """Test oracle: gap, ``kappa`` and ``|P|_2`` from the singular values
    of the stacked bases ``[B_S | B_T]``, with ``|P|_2 = 1 / sin(theta_min)
    = 1 / (g sqrt(2 - g^2))`` for the gap ``g``."""
    if s.rank + t.rank != s.space.dim:
        return 0.0, np.inf, np.inf
    sv = np.linalg.svd(np.hstack([s.basis, t.basis]), compute_uv=False)
    gap = sv[-1]
    return gap, sv[0] / gap, 1.0 / (gap * np.sqrt(2.0 - gap * gap))


def test_splitting_at_the_edges():
    """Dimensions that do not add up give gap 0 and infinite ``kappa`` and
    norm, as does a pair that meets (a zero sine), which
    :func:`oblique_projection` then rejects; a zero subspace against the
    whole space gives 1 for all three, as does a pair at a right angle."""
    ws = tn.make_space(3, np.diag([1.0, 0.5, 0.25]))
    zero, full = tn.span(ws, np.zeros((3, 0))), tn.span(ws, np.eye(3))
    e1 = tn.span(ws, [np.eye(3)[0]])
    e12 = tn.span(ws, np.eye(3)[:, :2])
    for s, t in ((e1, e1), (full, e1), (zero, zero), (zero, e1), (e1, e12)):
        assert subspaces._splitting(s, t) == (0.0, np.inf, np.inf)
    with pytest.raises(NotComplementary):
        tn.oblique_projection(ws, e1, e12)
    for s, t in ((zero, full), (full, zero)):
        assert subspaces._splitting(s, t) == (1.0, 1.0, 1.0)
    rest = tn.span(ws, np.eye(3)[:, 1:])
    assert subspaces._splitting(e1, rest) == (1.0, 1.0, 1.0)


@st.composite
def _splitting_draw(draw):
    """Dimension n in 1..12, a rank in 0..n, a weight floor 10^e with e
    uniform in [-12, 0], and a seed for the draws."""
    n = draw(st.integers(1, 12))
    return (n, draw(st.integers(0, n)), draw(st.floats(-12.0, 0.0)),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_splitting_draw())
def test_splitting_matches_the_stacked_basis_svd(drawn):
    """Gap, ``kappa`` and ``|P|_2`` of a drawn pair and of its complement
    pair agree with the stacked-basis SVD to ``c u kappa`` relative, with
    ``c = 8 n``: both routes are off by about ``u kappa``, since the gap
    and the sine have absolute rounding ``u`` and ``1 / gap <= kappa``.
    The complement pair is where ``kappa`` grows, with the weight's
    spread.  Over 12000 draws of this ensemble the worst was ``4 n u
    kappa``, at rank 0 or n, where the oracle's own SVD of a unitary is off
    by that much."""
    n, r, floor_exp, seed = drawn
    rng = np.random.default_rng(seed)
    ws = modest_space(rng, n, floor=10.0 ** floor_exp)
    s = rand.random_subspace(rng, ws, r)
    t = rand.random_subspace(rng, ws, n - r)
    u = np.finfo(float).eps / 2
    for a, b in ((s, t), (t, s), (t.complement, s.complement)):
        expect = _stacked_splitting(a, b)
        got = subspaces._splitting(a, b)
        assert got == pytest.approx(expect, rel=8 * n * u * expect[1])


def _planted_pair(rng, n, r, theta_min):
    """``S = span{e_i}`` and ``T = span{cos(theta_i) e_i + sin(theta_i)
    e_(r+i)}`` plus the remaining axes, for ``i < r <= n - r``, with
    ``theta_0 = theta_min`` and the other angles uniform in ``[theta_min,
    pi/2]``, both rotated by one Haar unitary."""
    thetas = np.concatenate([[theta_min],
                             rng.uniform(theta_min, np.pi / 2, r - 1)])
    bt = np.zeros((n, n - r))
    for i, theta in enumerate(thetas):
        bt[i, i], bt[r + i, i] = np.cos(theta), np.sin(theta)
    bt[2 * r:, r:] = np.eye(n - 2 * r)
    q = rand.haar_unitary(rng, n)
    ws = tn.make_space(n, np.eye(n))
    return tn.Subspace(q[:, :r], ws), tn.Subspace(q @ bt, ws)


@pytest.mark.parametrize("theta_min", [1e-9, 1e-3, np.pi / 4 - 1e-9,
                                       np.pi / 4 + 1e-9, np.pi / 2 - 1e-9])
def test_splitting_of_planted_pairs_against_closed_forms(theta_min):
    """Gap ``sqrt(1 - cos(theta_min))``, ``kappa = cot(theta_min / 2)`` and
    ``|P|_2 = 1 / sin(theta_min)`` against 40-digit mpmath, to ``c u
    kappa`` relative with ``c = 8 n``; both orders of the pair.  Near
    ``pi/2`` the cosine must come from the cross-Gram, since ``sqrt(1 -
    sin^2)`` reads 0 there; over 300 draws per angle the worst was ``0.7 n
    u kappa``."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    theta = mp.mpf(theta_min)
    exact = (mp.sqrt(1 - mp.cos(theta)), mp.cot(theta / 2), 1 / mp.sin(theta))
    u = np.finfo(float).eps / 2
    for seed in range(20):
        rng = rand.trial_rng(83, seed)
        n = int(rng.integers(2, 13))
        s, t = _planted_pair(rng, n, int(rng.integers(1, n // 2 + 1)),
                             theta_min)
        for a, b in ((s, t), (t, s)):
            for got, want in zip(subspaces._splitting(a, b), exact):
                assert abs(got - want) <= 8 * n * u * exact[1] * want


def test_companion_pair_and_projection_take_no_svd_of_side_n(monkeypatch):
    """At n = 64 and r = 4, drawing a companion pair and building its
    oblique projection take no SVD of a 64 x 64 matrix: the gaps,
    ``kappa`` and ``|P|_2`` come from 64 x 4 residuals and, for a smallest
    angle above pi/4, 60 x 4 cross-Grams."""
    n, r = 64, 4
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    rng = rand.trial_rng(89, 0)
    ws = rand.random_space(rng, n)
    s, t = rand.random_companion_pair(rng, ws, r)
    tn.oblique_projection(ws, s, t)
    assert (n, r) in shapes
    assert set(shapes) <= {(n, r), (n - r, r)}


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
    """On a fresh pair, one SVD, of the residual that gives the sine of the
    smallest principal angle and with it the gap, ``kappa`` and the norm of
    P (this pair's smallest angle is below pi/4, so the cross-Gram is not
    factored), and one inverse, of the stacked bases, that builds P.  No
    weighted complement is formed: P+ is read through the weight."""
    rng = rand.trial_rng(11, 51)
    ws = rand.random_space(rng, 8)
    s, t = (tn.Subspace(b.basis, ws)
            for b in rand.random_companion_pair(rng, ws, 3))
    calls = count_calls(monkeypatch, FACTORIZATIONS)
    tn.oblique_projection(ws, s, t)
    assert calls == {"numpy.linalg.svd": 1, "numpy.linalg.inv": 1}
    assert "complement" not in vars(s) and "complement" not in vars(t)
    assert s.complement is s.complement
    assert np.array_equal(s.complement.basis, tn.complement_L(ws, s).basis)


@pytest.mark.parametrize("trial", range(300))
def test_oblique_projection_rejects_a_rank_one_error_in_p(monkeypatch,
                                                          trial):
    """A rank-one error of size 1e-6 max(1, |P|_2) added to P.  P's
    idempotency check, at ``1e-10 |P|_2^2`` with no factor ``cond(A)``, is
    the one check between the mutation and the caller, and rejects it on
    every draw; on trials 164 and 212 at 3.2e3 and 2.7e3 times its
    tolerance."""
    rng = rand.trial_rng(5, trial)
    n = int(rng.integers(2, 12))
    ws = rand.random_space(rng, n)
    s, t = rand.random_companion_pair(rng, ws, int(rng.integers(1, n)))
    erng = np.random.default_rng(trial)
    err = np.outer(rand._complex_gauss(erng, n),
                   rand._complex_gauss(erng, n).conj())
    err /= _spec_norm(err)
    built = subspaces._block_solve_projection

    def mutated(range_sub, null_sub):
        p = built(range_sub, null_sub)
        return p + 1e-6 * max(1.0, _spec_norm(p)) * err

    monkeypatch.setattr(subspaces, "_block_solve_projection", mutated)
    with pytest.raises(ArithmeticError,
                       match=r"^projection failed the idempotency check"):
        tn.oblique_projection(ws, s, t)


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


# A near-floor pair, written out so that it outlives any change to how
# ``rand`` draws: ``rng = rand.trial_rng(61, 458)``, n = 5 from
# ``rng.integers(3, 13)``, ``modest_space(rng, 5, floor=1e-11)`` (cond A =
# 4.45e6), r = 2 from ``rng.integers(1, 5)``, then s and t1 from two
# ``rand.random_companion_pair(rng, ws, 2, attempts=50)`` calls (t1 from
# the second, gap-checked against a discarded partner).  (t1, s) has gap
# 0.134 and complement gap 6.9e-8, so ``|P|_2 = 5.3`` and ``|P+|_2 =
# 1.0e7``.
_FLOOR_W = np.array([
    [0.13522620505803634+0.0j,
     -0.028815394336291895+0.050513907114765534j,
     -0.01631785020533567-0.13502987566986868j,
     0.10235835057477119-0.0032490267304425557j,
     0.01739487647391438-0.023582167065142583j],
    [-0.028815394336291895-0.050513907114765534j,
     0.15423468317126288+0.0j,
     0.008215672748230866-0.0008237788533479659j,
     -0.003005999285633401+0.20252336295729825j,
     0.1736081615427675-0.008863120941928381j],
    [-0.01631785020533567+0.13502987566986868j,
     0.008215672748230866+0.0008237788533479659j,
     0.1745485068164442+0.0j,
     -0.06271656767085715+0.21979503896584723j,
     0.10818837533403035+0.07233148147733198j],
    [0.10235835057477119+0.0032490267304425557j,
     -0.003005999285633401-0.20252336295729825j,
     -0.06271656767085715-0.21979503896584723j,
     0.5505148988803128+0.0j,
     0.04227406528396024-0.37175392424156933j],
    [0.01739487647391438+0.023582167065142583j,
     0.1736081615427675+0.008863120941928381j,
     0.10818837533403035-0.07233148147733198j,
     0.04227406528396024+0.37175392424156933j,
     0.2847331511323853+0.0j],
])
_FLOOR_BS = np.array([
    [-0.13717928887338027+0.2319519170628453j,
     -0.36136520888388485+0.6315308425278302j],
    [0.17981316018735338+0.541843536381973j,
     -0.17974736752148673+0.14822043940341817j],
    [-0.34807785494999194-0.12111994646510615j,
     -0.12730411296601624+0.2567909239737397j],
    [0.3498651263024447-0.5634711229773821j,
     -0.1559191847773962+0.3843841542158137j],
    [-0.12710879631771713+0.09778939977280135j,
     0.17114464490723696+0.3644244646959358j],
])
_FLOOR_BT1 = np.array([
    [-0.05641520468209915-0.4445613229602246j,
     -0.4255450322448369+0.3863564626896141j,
     -0.07836518088769794-0.17561340083056906j],
    [0.29668796896559296+0.31446803501720505j,
     -0.5957362277842161-0.07168724092565318j,
     -0.037331000072398916-0.21813852516608737j],
    [0.48742196758079354+0.10328899685729459j,
     0.11434998587963961-0.1024072750301038j,
     -0.45567915752034266+0.5181326929281961j],
    [0.4444953352952449+0.38562841687003896j,
     0.27026157547249147+0.448164361753506j,
     0.5282112875336344-0.14813378605031927j],
    [-0.10410569870454105+0.08304512014692311j,
     -0.10695080730579382-0.026554414090364187j,
     -0.15418330409247136-0.33647073566245334j],
])


def _near_floor_pair():
    ws = tn.make_space(5, _FLOOR_W)
    return ws, tn.Subspace(_FLOOR_BS, ws), tn.Subspace(_FLOOR_BT1, ws)


def test_oblique_projection_near_the_floor_is_idempotent_at_its_rounding():
    """Each of P and P+ squares to itself to the rounding of one product,
    ``4 n u |M|_2^2``: they read 1.0 and 1.96 ``u |M|_2^2``."""
    ws, s, t1 = _near_floor_pair()
    pair = tn.oblique_projection(ws, t1, s)
    u = np.finfo(float).eps / 2
    for m in (pair.p.matrix, pair.p_plus.matrix):
        assert _spec_norm(m @ m - m) <= 4 * ws.dim * u * _spec_norm(m) ** 2


def _assert_complement_certificate_sound(ws, s, t):
    """The bound ``b = sin(theta_min) / (sqrt(2) cond(A))`` that
    :func:`is_proper_companion` reads is at most the computed complement
    gap, up to ``8 n u`` for the rounding of its SVD, and the verdict
    matches the computed route's at ``tol_gap`` of 0.25, 0.5, 1 and 2
    times ``b``.  Only the first clears the ``2 tol_gap`` margin, so the
    others take the computed route."""
    gap, _, p_norm = subspaces._splitting(s, t)
    exact = tn.direct_sum_gap(t.complement, s.complement)
    bound = 1.0 / (p_norm * np.sqrt(2.0) * ws.weight_cond)
    assert bound <= exact + 8 * ws.dim * np.finfo(float).eps / 2
    for scale in (0.25, 0.5, 1.0, 2.0):
        tol = scale * bound
        fresh_s, fresh_t = tn.Subspace(s.basis, ws), tn.Subspace(t.basis, ws)
        rep = tn.is_proper_companion(ws, fresh_s, fresh_t, tol_gap=tol)
        assert rep.ok == (gap > tol and exact > tol)
        on_bound = scale < 0.5
        assert rep.complement_gap == (bound if on_bound else exact)
        # the bound's verdict forms neither weighted complement
        assert ("complement" in vars(fresh_s)) is not on_bound
        assert ("complement" in vars(fresh_t)) is not on_bound


@st.composite
def _certificate_draw(draw, min_dim=2, max_floor_exp=0.0):
    """Dimension n in ``min_dim``..12, a rank in 1..n-1, a weight floor
    10^e with e uniform in [-12, ``max_floor_exp``], and a seed for the
    draws."""
    n = draw(st.integers(min_dim, 12))
    return (n, draw(st.integers(1, n - 1)),
            draw(st.floats(-12.0, max_floor_exp)),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_certificate_draw())
def test_complement_certificate_is_sound(drawn):
    n, r, floor_exp, seed = drawn
    rng = np.random.default_rng(seed)
    ws = modest_space(rng, n, floor=10.0 ** floor_exp)
    s = rand.random_subspace(rng, ws, r)
    t = rand.random_subspace(rng, ws, n - r)
    _assert_complement_certificate_sound(ws, s, t)


def test_complement_certificate_on_the_near_floor_pair():
    """``b = 3.0e-8`` against a factored complement gap of 6.9e-8, so at
    ``rand``'s ``min_gap`` of 1e-6 the factored route runs and rejects."""
    ws, s, t1 = _near_floor_pair()
    _assert_complement_certificate_sound(ws, t1, s)
    rep = tn.is_proper_companion(ws, t1, s, tol_gap=1e-6)
    assert not rep.ok
    assert rep.complement_gap == pytest.approx(6.93e-8, rel=1e-3)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_certificate_draw(min_dim=3, max_floor_exp=-2.0))
def test_oblique_projection_is_idempotent_at_its_rounding_near_the_floor(
        drawn):
    """n in 3..12, weight floors 10^e with e in [-12, -2] and pairs with
    gap above 1e-6: nothing raises, and the P returned squares to itself
    within ``4 n u |P|_2^2``; over 3600 probe draws at six floors from 1e-2
    to 1e-11.99 the worst was 0.2 of it.  The same bound is not asserted of
    ``P+``, whose similarity through the weight rounded at up to 1.5 times
    it at the floor 1e-2."""
    n, r, floor_exp, seed = drawn
    rng = np.random.default_rng(seed)
    ws = modest_space(rng, n, floor=10.0 ** floor_exp)
    s = rand.random_subspace(rng, ws, r)
    t = rand.random_subspace(rng, ws, n - r)
    if tn.direct_sum_gap(s, t) <= 1e-6:
        return
    p = tn.oblique_projection(ws, s, t).p.matrix
    u = np.finfo(float).eps / 2
    assert _spec_norm(p @ p - p) <= 4 * n * u * _spec_norm(p) ** 2


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_certificate_draw(min_dim=3, max_floor_exp=-2.0))
def test_plus_adjoint_is_the_projection_onto_the_weighted_complements(
        drawn):
    """The supplement of a proper subspace is proper: ``P+`` is the
    projection onto ``T``'s weighted complement along ``S``'s (Szyld,
    Numer. Algorithms 42, 2006).  The ``P+`` returned, read through the
    weight, is within ``4 n u (cond(A) + kappa') |P+|_2`` of the block
    solve on the complement pair, with ``kappa'`` that pair's stacked-basis
    condition number: the weight route rounds at ``u cond(A) |P+|_2`` and
    the complement route at ``u kappa' |P+|_2``.  Same ensemble as the
    idempotency test above; over 3000 probe draws the worst was 0.365 of
    the tolerance."""
    n, r, floor_exp, seed = drawn
    rng = np.random.default_rng(seed)
    ws = modest_space(rng, n, floor=10.0 ** floor_exp)
    s = rand.random_subspace(rng, ws, r)
    t = rand.random_subspace(rng, ws, n - r)
    if tn.direct_sum_gap(s, t) <= 1e-6:
        return
    p_plus = tn.oblique_projection(ws, s, t).p_plus.matrix
    _, kappa_c, _ = subspaces._splitting(t.complement, s.complement)
    other = subspaces._block_solve_projection(t.complement, s.complement)
    u = np.finfo(float).eps / 2
    assert _spec_norm(p_plus - other) \
        <= 4 * n * u * (ws.weight_cond + kappa_c) * _spec_norm(p_plus)


# A pair whose complement pair nearly fails to split, written out as the
# near-floor pair above is: ``rng = rand.trial_rng(61, 2)``, n = 7 from
# ``rng.integers(3, 13)``, ``modest_space(rng, 7, floor=1e-10)`` (cond A =
# 1.09e9), r = 4 from ``rng.integers(1, 7)``, then s and t from
# ``rand.random_subspace(rng, ws, 4)`` and ``rand.random_subspace(rng, ws,
# 3)``.  (s, t) has gap 0.186 and ``kappa = 7.5``, so ``|P|_2 = 3.8``; the
# complement pair has gap 5.7e-10 and ``kappa' = 2.5e9``, and ``|P+|_2 =
# 1.2e9``.
_ROUTES_W = np.array([
    [0.12317216099019285+0j,
     -0.056304220248277824-0.01708429156565809j,
     0.1491662644842914-0.03634415305455974j,
     0.04154662148029885+0.07565529411824581j,
     0.15842304303531235+0.050827689066141366j,
     -0.03245573332919417+0.05844310024853924j,
     0.08072211902771127+0.170017618739837j],
    [-0.056304220248277824+0.01708429156565809j,
     0.1632913735515586+0j,
     -0.010770077523429117+0.02963654037194416j,
     -0.11882621347528595-0.1853829669501577j,
     -0.04064957623159172-0.1544073052756548j,
     0.13281103645643086-0.07934806639322198j,
     -0.15154159117883742+0.09505411949448199j],
    [0.1491662644842914+0.03634415305455974j,
     -0.010770077523429117-0.02963654037194416j,
     0.21613056893546553+0j,
     -0.00036488646972331756+0.03374083825205754j,
     0.2012278252153764+0.05187224840950368j,
     -0.0038963356829826343+0.048092780910845095j,
     -0.0002577050111825601+0.29219137588201477j],
    [0.04154662148029885-0.07565529411824581j,
     -0.11882621347528595+0.1853829669501577j,
     -0.00036488646972331756-0.03374083825205754j,
     0.3122373697679365+0j,
     0.23575775082072248+0.06326434820557429j,
     0.002391592683625623+0.22139395519482613j,
     0.005401324158309106-0.21081623516003556j],
    [0.15842304303531235-0.050827689066141366j,
     -0.04064957623159172+0.1544073052756548j,
     0.2012278252153764-0.05187224840950368j,
     0.23575775082072248-0.06326434820557429j,
     0.41409475758450337+0j,
     0.06882241300026565+0.22037498036114628j,
     -0.033173829235299684+0.13515311118322754j],
    [-0.03245573332919417-0.05844310024853924j,
     0.13281103645643086+0.07934806639322198j,
     -0.0038963356829826343-0.048092780910845095j,
     0.002391592683625623-0.22139395519482613j,
     0.06882241300026565-0.22037498036114628j,
     0.1809343307820463+0j,
     -0.08414665529095205+0.03027415947931119j],
    [0.08072211902771127-0.170017618739837j,
     -0.15154159117883742-0.09505411949448199j,
     -0.0002577050111825601-0.29219137588201477j,
     0.005401324158309106+0.21081623516003556j,
     -0.033173829235299684-0.13515311118322754j,
     -0.08414665529095205-0.03027415947931119j,
     0.558260555132206+0j],
])
_ROUTES_BS = np.array([
    [-0.04948320307696452+0.33155137255416633j,
     -0.047195452171593724+0.15619507491242174j,
     -0.36687409360200196+0.49395487400418386j,
     -0.33552664614574473-0.12943800213585477j],
    [-0.0588555446412705-0.1834166223849338j,
     -0.6361526339917148+0.005727824735233674j,
     0.3669154202592367-0.17586606764972235j,
     0.06879034847870691+0.2038046261903959j],
    [0.4393047901951512+0.24233843929725507j,
     0.2696310491622905+0.04468340239482055j,
     -0.05007386579753864-0.5560637923423604j,
     -0.322868985841549+0.34518632260478554j],
    [-0.2782685666025894+0.0179533043737847j,
     -0.1894480864251784-0.11424093244525962j,
     -0.07942941217547562+0.07381687107925461j,
     -0.28359276646752624+0.4301282544858765j],
    [0.35007035539608505-0.008539175432235938j,
     -0.23071295820003138+0.020029699194072742j,
     0.11833172806055538+0.10636800075108296j,
     0.208778379483332-0.3322457548669691j],
    [-0.027125627877281788-0.3641036540766096j,
     0.537645729700836+0.11966791469448983j,
     0.26577811011659697+0.1328763296990087j,
     0.17385540714843978-0.08668121652514958j],
    [-0.40221089363795004-0.3214717538404009j,
     0.10479565034587647+0.2775220751635199j,
     0.00035172898234364647+0.1370149312220935j,
     -0.12763732693243154+0.3571551585949803j],
])
_ROUTES_BT = np.array([
    [-0.08816420036124262+0.10554605311046743j,
     0.09900597366710145-0.048064595233314335j,
     -0.3631199244856211-0.1723724585674725j],
    [-0.4894311765709023+0.44233178989642025j,
     -0.0020788026005260744-0.2594238591283007j,
     0.021363634203444032+0.160219561814921j],
    [0.3229900949432091-0.09849052613154027j,
     -0.3985083115269052+0.02289504578708449j,
     -0.4363022962701736+0.10288245995216463j],
    [-0.05832220712195034-0.4133610853427325j,
     -0.2099270908901709-0.17784925808127078j,
     0.5642044714667095-0.08948640784881899j],
    [0.1749247958768312+0.03703414691964211j,
     -0.024086055086404944+0.026711352700239298j,
     -0.09042922719363632-0.36999135912470754j],
    [-0.0010764452726299452-0.17242841745303827j,
     -0.6151960763629045+0.20283950420655938j,
     -0.02115193169738959-0.1591800733385334j],
    [-0.3129837007042819-0.3129428647046932j,
     -0.19649420878106713-0.47543250504614587j,
     -0.3263776799842227+0.08744601244771993j],
])


def _routes_pair():
    ws = tn.make_space(7, _ROUTES_W)
    return ws, tn.Subspace(_ROUTES_BS, ws), tn.Subspace(_ROUTES_BT, ws)


def _plus_adjoint_40_digits(ws, s, t):
    """``A^{-1} P* A`` for ``P = [B_S | 0] [B_S | B_T]^{-1}``, the
    projection onto ``s`` along ``t``, in 40-digit mpmath from the float
    weight and bases."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        stack = mp.matrix(np.hstack([s.basis, t.basis]).tolist())
        head = mp.matrix(np.hstack([s.basis, 0 * t.basis]).tolist())
        a = mp.matrix(np.asarray(ws.weight).tolist())
        exact = a ** -1 * (head * stack ** -1).H * a
        return np.array(exact.tolist(), dtype=complex)


def test_oblique_projection_routes_agree_on_a_tilted_complement_pair():
    """The plus-adjoint returned, the weight route's, is within ``4 n u
    cond(A) |P+|_2`` of the 40-digit one, that route's own rounding, as
    the test below measures it."""
    ws, s, t = _routes_pair()
    pair = tn.oblique_projection(ws, s, t)
    exact = _plus_adjoint_40_digits(ws, s, t)
    u = np.finfo(float).eps / 2
    assert _spec_norm(pair.p_plus.matrix - exact) \
        <= 4 * ws.dim * u * ws.weight_cond * _spec_norm(exact)


def test_plus_adjoint_routes_on_the_tilted_pair_against_40_digits():
    """Why the two routes to ``P+`` are compared at ``u (cond(A) + kappa')
    |P+|_2`` and not at ``1e-9 kappa^2 cond(A)``.  Against ``P+`` at 40
    digits, the weight route ``A^{-1} P* A``, which
    :func:`~twonorm.oblique_projection` returns, is off by 38.6, 0.26 ``u
    cond(A) |P+|_2``, and the block solve on the complement pair by 127,
    0.38 ``u kappa' |P+|_2``: each within its own rounding.  The
    complement route carries the larger share, and alone exceeds ``1e-9
    kappa^2 cond(A)`` = 61.8, a tolerance with neither ``|P+|_2`` nor
    ``kappa'``."""
    ws, s, t = _routes_pair()
    exact = _plus_adjoint_40_digits(ws, s, t)
    u = np.finfo(float).eps / 2
    _, kappa, _ = subspaces._splitting(s, t)
    _, kappa_c, _ = subspaces._splitting(t.complement, s.complement)
    p_plus_norm = _spec_norm(exact)
    weight_err = _spec_norm(
        ws.plus_matrix(subspaces._block_solve_projection(s, t)) - exact)
    complement_err = _spec_norm(subspaces._block_solve_projection(
        t.complement, s.complement) - exact)
    assert weight_err <= u * ws.weight_cond * p_plus_norm
    assert complement_err <= u * kappa_c * p_plus_norm
    assert complement_err > 2 * weight_err
    assert complement_err > 1e-9 * kappa ** 2 * ws.weight_cond


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


def test_finite_rank_projection_returns_near_the_weight_floor():
    """A near-floor draw (n = m = 4, cond(A) = 7.5e7) that a check of
    ``ws.plus_matrix(P)`` against the swapped families used to reject, at
    1.0e-1 against 7.5e-2.  ``A^-1 (F H* A)* A = H F* A`` is exact, so that
    residual only measured the rounding in P amplified by cond(A): the
    returned P and P+ are within 4.3e-9 and 7.0e-9 of their 50-digit
    values."""
    rng = rand.trial_rng(23, 167)
    n = int(rng.integers(2, 14))
    ws = modest_space(rng, n, floor=1e-11)
    m = int(rng.integers(1, n + 1))
    f, h = rand.random_biorthogonal_system(rng, ws, m)
    assert (n, m) == (4, 4) and ws.weight_cond > 7e7
    pair = tn.finite_rank_proper_projection(ws, f, h)
    p, p_plus = pair.p.matrix, pair.p_plus.matrix
    tol = 1e-10 * max(1.0, _spec_norm(p)) ** 2 * ws.weight_cond
    assert _spec_norm(p @ p - p) <= tol
    assert _spec_norm(p_plus @ p_plus - p_plus) <= tol
    assert np.array_equal(p_plus, h @ (f.conj().T @ ws.weight))


def test_finite_rank_projection_takes_no_svd(monkeypatch):
    """The idempotency residuals of a random system clear ``1e-10
    max(1, cond A)``, the tolerance at ``|P|_2 <= 1``, so ``|P|_2`` is not
    taken."""
    rng = rand.trial_rng(55, 4)
    ws = rand.random_space(rng, 8)
    f, h = rand.random_biorthogonal_system(rng, ws, 3)
    calls = count_calls(monkeypatch, FACTORIZATIONS)
    tn.finite_rank_proper_projection(ws, f, h)
    assert calls == {}


def test_finite_rank_projection_takes_one_svd_for_a_tilted_system(
        monkeypatch):
    """Tilting each ``h_i`` by ``1e6`` times a vector weighted-orthogonal
    to every ``f_i`` keeps the system biorthogonal and raises ``|P|_2`` to
    about 1e6, so the residual fails the Frobenius test at ``|P|_2 <= 1``:
    ``|P|_2`` is taken once, and the scaled tolerance passes."""
    rng = rand.trial_rng(55, 5)
    ws = rand.random_space(rng, 6)
    f, h = rand.random_biorthogonal_system(rng, ws, 2)
    tilt = tn.span(ws, f).complement.basis[:, :1]
    h = h + 1e6 * tilt
    calls = count_calls(monkeypatch, FACTORIZATIONS)
    pair = tn.finite_rank_proper_projection(ws, f, h)
    assert calls == {"numpy.linalg.svd": 1}
    q = pair.p.matrix
    assert np.linalg.norm(q @ q - q) > 1e-10 * max(1.0, ws.weight_cond)


def test_finite_rank_projection_failure_reports_the_scaled_tolerance():
    """Families off biorthogonality by 5e-9, inside ``TOL_BIO``, fail the
    idempotency check; the message carries the spectral residual against
    ``1e-10 max(1, |P|_2)^2 max(1, cond A)``."""
    ws = tn.make_space(4, np.eye(4))
    f, _ = np.linalg.qr(rand._complex_gauss(rand.trial_rng(55, 6), 4, 2))
    h = f * (1.0 + 5e-9)
    p = f @ ws.dual(h)
    res, tol = _spec_norm(p @ p - p), 1e-10 * max(1.0, _spec_norm(p)) ** 2
    with pytest.raises(ArithmeticError) as raised:
        tn.finite_rank_proper_projection(ws, f, h)
    assert str(raised.value) == \
        f"projection failed the idempotency check ({res:.3e} > {tol:.3e})"


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
