"""Compatibility operator, margins, transported companions, the algebraic lemma."""

import json
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import assume, given, settings, strategies as st

import twonorm as tn
import twonorm.cli as cli
import twonorm.compat as compat
import twonorm.subspaces as subspaces
from twonorm import rand
from twonorm.errors import (
    DimMismatch,
    IllConditionedWarning,
    NotIdempotent,
    RangeOverlap,
)
from twonorm.space import Operator, _spec_norm

from conftest import FACTORIZATIONS, count_calls, modest_space, unit_rank_one

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def canonical_pair():
    ws = tn.make_space(2, np.eye(2))
    return ws, tn.span(ws, [E1]), tn.span(ws, [E1 + E2])


def test_c_operator_frozen_tilted_pair():
    """For span(e1) with companion span(e1+e2) the C operator squares to 2I."""
    ws, s, t = canonical_pair()
    c = tn.c_operator(ws, s, t).matrix
    assert np.allclose(c, np.array([[1.0, -1.0], [-1.0, -1.0]]), atol=1e-12)
    assert np.allclose(c @ c, 2.0 * np.eye(2), atol=1e-12)


def test_c_operator_is_self_plus_adjoint():
    for trial in range(8):
        rng = rand.trial_rng(14, trial)
        ws = modest_space(rng, 8)
        r = int(rng.integers(1, 8))
        s, t = rand.random_companion_pair(rng, ws, r, min_gap=0.02, attempts=2000)
        c = tn.c_operator(ws, s, t).matrix
        assert _spec_norm(ws.plus_matrix(c) - c) <= 1e-8 * _spec_norm(c)


def test_compat_margin_frozen_tilted_pair():
    ws, s, t = canonical_pair()
    rep = tn.compat_margin(ws, s, t)
    assert rep.margin_c == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rep.q_norm == pytest.approx(1.0, abs=1e-12)
    assert rep.residual_cross <= 1e-12
    assert rep.is_compatible


def test_compat_margin_kappa_c_is_the_condition_number_of_c():
    for trial in range(20):
        rng = rand.trial_rng(16, trial)
        n = int(rng.integers(2, 16))
        ws = rand.random_space(rng, n)
        s, t = rand.random_companion_pair(rng, ws, int(rng.integers(1, n)))
        rep = tn.compat_margin(ws, s, t)
        assert rep.kappa_c == np.linalg.cond(tn.c_operator(ws, s, t).matrix)


def test_compat_margin_kappa_c_is_inf_for_an_exactly_singular_c(monkeypatch):
    ws, s, t = canonical_pair()
    # P + P+ - I = diag(0, -1): exactly singular, so the formula route is
    # suppressed and the condition number is infinite, with no divide warning
    fake = tn.ProjPair(Operator(np.diag([1.0, 0.0]), ws),
                       Operator(np.zeros((2, 2)), ws))
    monkeypatch.setattr(compat, "oblique_projection", lambda *args: fake)
    with pytest.warns(IllConditionedWarning):
        rep = tn.compat_margin(ws, s, t)
    assert rep.margin_c == 0.0
    assert rep.kappa_c == np.inf
    assert rep.residual_cross is None


def _count_projection_builds(monkeypatch):
    """Count compat's oblique-projection builds; forbid the rebuild of C
    and its separate condition number."""
    calls = []
    build = compat.oblique_projection

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return build(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("C was rebuilt or factored again")

    monkeypatch.setattr(compat, "oblique_projection", counting)
    monkeypatch.setattr(compat, "c_operator", forbidden)
    monkeypatch.setattr(np.linalg, "cond", forbidden)
    return calls


def test_check_compat_trial_builds_one_projection_per_margin(monkeypatch,
                                                             capsys):
    calls = _count_projection_builds(monkeypatch)
    assert cli.main(["check", "compat", "--trials", "1", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]
    # one per compat_margin
    assert len(calls) == 2


def test_check_krein_trial_builds_one_projection(monkeypatch, capsys):
    """Only the tilted projection is oblique; the canonical one is built
    from the subspace alone."""
    calls = count_calls(monkeypatch, {compat: ("oblique_projection",),
                                      subspaces: ("oblique_projection",)})
    assert cli.main(["check", "krein", "--trials", "1", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]
    assert calls == {"twonorm.subspaces.oblique_projection": 1}


def test_companion_transport_builds_two_projections(monkeypatch):
    rng = rand.trial_rng(18, 2)
    ws = modest_space(rng, 7)
    s, t = rand.random_companion_pair(rng, ws, 3, min_gap=0.02, attempts=2000)
    _, t1 = rand.random_companion_pair(rng, ws, 3, min_gap=0.02, attempts=2000)
    calls = _count_projection_builds(monkeypatch)
    tn.companion_transport(ws, s, t, t1)
    assert calls == [(s, t), (t1, s)]


def test_compat_projection_is_orthogonal_for_identity_weight():
    rng = rand.trial_rng(15, 0)
    ws = tn.make_space(6, np.eye(6))
    s = rand.random_subspace(rng, ws, 3)
    q = tn.compat_projection(ws, s).p.matrix
    ortho = s.basis @ s.basis.conj().T
    assert _spec_norm(q - ortho) <= 1e-10


def test_compat_projection_frozen_diagonal_weight():
    ws = tn.make_space(2, np.diag([1.0, 0.25]))
    q = tn.compat_projection(ws, tn.span(ws, [E1])).p.matrix
    assert np.allclose(q, np.diag([1.0, 0.0]), atol=1e-14)


def test_compat_projection_is_self_plus_adjoint():
    rng = rand.trial_rng(15, 1)
    ws = rand.random_space(rng, 7)
    s = rand.random_subspace(rng, ws, 3)
    pair = tn.compat_projection(ws, s)
    q = pair.p.matrix
    assert _spec_norm(ws.plus_matrix(q) - q) <= 1e-9 * max(1.0, _spec_norm(q))
    # A Q is Hermitian, so Q+ = Q exactly and one operator serves as both
    assert pair.p_plus is pair.p


def test_compat_projection_takes_one_weighted_solve(monkeypatch):
    """No oblique projection and no C: one solve against the weighted Gram
    of the basis, and no SVD, since ``Q`` is not checked again and ``|Q|_2``
    is not taken."""
    rng = rand.trial_rng(15, 2)
    ws = rand.random_space(rng, 6)
    s = rand.random_subspace(rng, ws, 2)
    calls = count_calls(monkeypatch, {compat: ("oblique_projection",),
                                      la: ("solve",),
                                      np.linalg: ("svd", "solve")})
    tn.compat_projection(ws, s)
    assert calls == {"numpy.linalg.solve": 1}


def _canonical_idempotency_bound(ws, q):
    """``16 n u cond(A) max(1, |Q|_2)^2``: ``Q = B G^{-1} (A B)*`` with ``G
    = B* A B`` squares to itself up to the rounding of the weighted solve,
    ``u cond(A) |Q|_2^2``, times a modest ``p(n)``."""
    u = np.finfo(float).eps / 2
    return 16 * ws.dim * u * ws.weight_cond * max(1.0, _spec_norm(q)) ** 2


@st.composite
def _canonical_draw(draw):
    """Dimension n <= 40, a rank in [0, n], the log10 of the smallest
    weight eigenvalue, and a seed."""
    n = draw(st.integers(1, 40))
    return (n, draw(st.integers(0, n)), draw(st.floats(-12.0, 0.0)),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_canonical_draw())
def test_compat_projection_is_idempotent_at_its_rounding(drawn):
    """``Q`` squares to itself within :func:`_canonical_idempotency_bound`
    and fixes ``B_S`` within ``16 n u cond(A) max(1, |Q|_2)``.  Over 3000
    probe draws of this kind the worst were 2.0 and 2.24 of ``n u cond(A)``
    times the norm factor, both at n = 1, where ``Q`` rounds a few ``u`` off
    one: about 8 and 7 times below the bounds."""
    n, r, log_floor, seed = drawn
    rng = np.random.default_rng(seed)
    ws = modest_space(rng, n, floor=10.0 ** log_floor)
    s = rand.random_subspace(rng, ws, r)
    q = tn.compat_projection(ws, s).p.matrix
    bound = _canonical_idempotency_bound(ws, q)
    assert _spec_norm(q @ q - q) <= bound
    assert _spec_norm(q @ s.basis - s.basis) \
        <= bound / max(1.0, _spec_norm(q))


def test_compat_projection_idempotency_bound_catches_a_rank_one_error(
        monkeypatch):
    """A rank-one error of size 1e-8 max(1, |Q|_2) added to ``Q``, on 300
    draws, breaks :func:`_canonical_idempotency_bound` on every one, the
    closest at 18.8 times it: the bound that
    :func:`test_compat_projection_is_idempotent_at_its_rounding` holds sees
    a defect in the builder."""
    lproj = compat._lproj_matrix
    for trial in range(300):
        rng = rand.trial_rng(5, trial)
        n = int(rng.integers(2, 12))
        ws = rand.random_space(rng, n)
        s = rand.random_subspace(rng, ws, int(rng.integers(1, n)))
        err = unit_rank_one(np.random.default_rng(trial), n)

        def mutated(space, sub):
            q = lproj(space, sub)
            return q + 1e-8 * max(1.0, _spec_norm(q)) * err

        monkeypatch.setattr(compat, "_lproj_matrix", mutated)
        q = tn.compat_projection(ws, s).p.matrix
        assert _spec_norm(q @ q - q) > _canonical_idempotency_bound(ws, q), \
            trial


def test_compat_projection_returns_near_the_weight_floor():
    """A near-floor draw (n = 8, rank 7, cond(A) = 8.1e9) whose projection
    a principal-angle test of its kernel at the unscaled 1e-8 used to
    reject.  Range and kernel hold to the rounding of the weighted solve:
    ``Q B - B = B (G^-1 G - I)`` and ``Q B_perp = B G^-1 (A B)* B_perp``
    with ``G = B* A B``, whose condition number is at most cond(A), so
    both residuals scale as ``n u cond(A)``.  Over 600 such draws (n =
    2-10, weight eigenvalues log-uniform down to 1e-11) the worst was
    0.81 of that; this one reads 0.033 and 0.007."""
    rng = rand.trial_rng(17, 21)
    n = int(rng.integers(2, 11))
    r = int(rng.integers(1, n))
    ws = modest_space(rng, n, floor=1e-11)
    s = rand.random_subspace(rng, ws, r)
    assert (n, r) == (8, 7) and ws.weight_cond > 8e9
    q = tn.compat_projection(ws, s).p.matrix
    tol = 4.0 * n * np.finfo(float).eps * ws.weight_cond
    assert _spec_norm(q @ s.basis - s.basis) <= tol
    assert _spec_norm(q @ s.complement.basis) <= tol


@st.composite
def _margin_draw(draw):
    """Dimension n <= 8, a rank in [0, n], the log10 of the smallest
    weight eigenvalue, whether to draw an explicit companion, and a seed."""
    n = draw(st.integers(1, 8))
    return (n, draw(st.integers(0, n)), draw(st.floats(-11.0, 0.0)),
            draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_margin_draw())
def test_compat_margin_is_at_least_the_weight_bound(drawn):
    """``margin_c >= cond(A)^{-1/2}`` (see :class:`CompatReport`), for the
    default and for explicit companions, with weight eigenvalues
    log-uniform down to as low as 1e-11.  The computed smallest singular
    value is within ``p(n) u |C|_2`` of the exact one (Weyl's inequality),
    so the rounding slack is ``4 n u |C|_2``, with ``|C|_2 = kappa_c
    margin_c``; the bound is tight only near cond(A) = 1, where 600 seeded
    draws came within 2 u |C|_2 of it."""
    n, r, log_floor, explicit, seed = drawn
    rng = np.random.default_rng(seed)
    ws = modest_space(rng, n, floor=10.0 ** log_floor)
    if explicit:
        try:
            s, t = rand.random_companion_pair(rng, ws, r)
        except RuntimeError:
            assume(False)
    else:
        s, t = rand.random_subspace(rng, ws, r), None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        rep = tn.compat_margin(ws, s, t)
    slack = 4.0 * n * np.finfo(float).eps * rep.kappa_c * rep.margin_c
    assert rep.margin_c >= ws.weight_cond ** -0.5 - slack
    assert rep.is_compatible


def _routes_bound(ws, rep):
    """``16 u kappa_c cond(A)``: ``C^{-1} P+`` and ``Q`` agree by the
    theorem, and their difference is the rounding of the solve with ``C``,
    ``u kappa_c``, times that of ``P+ = A^{-1} P* A``, ``cond(A)``."""
    return 16 * np.finfo(float).eps / 2 * rep.kappa_c * ws.weight_cond


@st.composite
def _companion_margin_draw(draw):
    """Dimension n in [3, 12], the log10 of the smallest weight eigenvalue
    and a seed."""
    return (draw(st.integers(3, 12)), draw(st.floats(-12.0, -1.0)),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_companion_margin_draw())
def test_compat_margin_routes_agree_at_their_rounding(drawn):
    """Wherever ``residual_cross`` is reported it is within
    :func:`_routes_bound`.  Over 1065 seeded pairs of this kind (floors
    1e-2 down to 1e-11.99) the worst was ``1.4 u kappa_c cond(A)``, about
    11 times below the bound."""
    n, log_floor, seed = drawn
    rng = np.random.default_rng(seed)
    ws = modest_space(rng, n, floor=10.0 ** log_floor)
    try:
        s, t = rand.random_companion_pair(rng, ws, int(rng.integers(1, n)),
                                          attempts=50)
    except RuntimeError:
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        rep = tn.compat_margin(ws, s, t)
    if rep.residual_cross is not None:
        assert rep.residual_cross <= _routes_bound(ws, rep)


def test_compat_margin_routes_bound_catches_a_rank_one_error(monkeypatch):
    """A rank-one error of size ``delta = 1e-8 max(1, |Q|_2)`` added to
    ``Q``, on 291 pairs with weight floors log-uniform in [1e-8, 1e-1],
    breaks :func:`_routes_bound` on 180 of them; a tolerance of 1e-9
    ``kappa_c cond(A)`` would see 2.  The bound grows with ``cond(A)``, so
    an error below it cannot be seen; every error at least twice the bound
    is, and 173 of the draws have one."""
    lproj = compat._lproj_matrix
    pairs = caught = 0
    for trial in range(300):
        rng = rand.trial_rng(5, trial)
        n = int(rng.integers(3, 13))
        ws = modest_space(rng, n, floor=10.0 ** rng.uniform(-8.0, -1.0))
        try:
            s, t = rand.random_companion_pair(
                rng, ws, int(rng.integers(1, n)), attempts=50)
        except RuntimeError:
            continue
        err = unit_rank_one(np.random.default_rng(trial), n)

        def mutated(space, sub):
            q = lproj(space, sub)
            return q + 1e-8 * max(1.0, _spec_norm(q)) * err

        monkeypatch.setattr(compat, "_lproj_matrix", mutated)
        rep = tn.compat_margin(ws, s, t)
        bound = _routes_bound(ws, rep)
        pairs += 1
        caught += rep.residual_cross > bound
        if 1e-8 * max(1.0, rep.q_norm) >= 2 * bound:
            assert rep.residual_cross > bound, trial
    assert pairs == 291
    assert caught > pairs // 2


def test_compat_margin_default_companion_takes_one_solve_and_two_svds(
        monkeypatch):
    """With no companion, ``C = 2 Q - I`` is read from the canonical
    projection: one solve builds ``Q``, one SVD of ``C`` gives the margin
    and one of ``Q`` its norm.  No QR and no inverse: neither the weighted
    complement nor an oblique projection is formed."""
    rng = rand.trial_rng(19, 0)
    ws = modest_space(rng, 8)
    s = rand.random_subspace(rng, ws, 3)
    calls = count_calls(monkeypatch, FACTORIZATIONS)
    tn.compat_margin(ws, s)
    assert calls == {"numpy.linalg.solve": 1, "numpy.linalg.svd": 2}
    assert "complement" not in s.__dict__


def _default_margin_40_digits(ws, s):
    """Smallest singular value and condition number of ``C = 2 Q - I``, with
    ``Q = B (B* A B)^{-1} B* A``, in 40-digit mpmath from the float weight
    and basis."""
    with mp.workdps(40):
        b = mp.matrix(s.basis.tolist())
        a = mp.matrix(np.asarray(ws.weight).tolist())
        c = 2 * b * (b.H * a * b) ** -1 * b.H * a - mp.eye(ws.dim)
        svals = list(mp.svd_c(c, compute_uv=False))
        return float(min(svals)), float(max(svals) / min(svals))


def test_compat_margin_default_companion_against_40_digits():
    """The default companion's ``margin_c`` and ``kappa_c`` lie within ``4 n
    u kappa_c cond(A)`` relative of 40-digit mpmath, for n = 2-10 and
    weight eigenvalues log-uniform down to a floor between 1e-11 and 1e-1.
    Over 2000 seeded draws of this kind the worst was ``2.6 n u kappa_c
    cond(A)``, at n = 2 and cond(A) = 1.07, where the SVD's own few ``u``
    dominate; the medians were 4e-4 ``u kappa_c cond(A)`` for both."""
    u = np.finfo(float).eps / 2
    for trial in range(40):
        rng = rand.trial_rng(19, trial)
        n = int(rng.integers(2, 11))
        ws = modest_space(rng, n, floor=10.0 ** rng.uniform(-11.0, -1.0))
        s = rand.random_subspace(rng, ws, int(rng.integers(1, n)))
        rep = tn.compat_margin(ws, s)
        margin, kappa_c = _default_margin_40_digits(ws, s)
        tol = 4 * n * u * rep.kappa_c * ws.weight_cond
        assert abs(rep.margin_c - margin) <= tol * margin
        assert abs(rep.kappa_c - kappa_c) <= tol * kappa_c


def _default_margin_by_the_complement(ws, s):
    """``(margin_c, kappa_c)`` by the route through the weighted complement:
    the oblique projection onto ``s`` along it, and one SVD of its ``C``."""
    pair = tn.oblique_projection(ws, s, s.complement)
    svals = np.linalg.svd(compat._c_matrix(pair), compute_uv=False)
    return svals[-1], svals[0] / svals[-1]


@st.composite
def _default_margin_draw(draw):
    """Dimension n <= 12, a rank in [0, n], the log10 of the smallest
    weight eigenvalue, and a seed."""
    n = draw(st.integers(1, 12))
    return (n, draw(st.integers(0, n)), draw(st.floats(-12.0, 0.0)),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_default_margin_draw())
def test_compat_margin_default_companion_matches_the_complement_route(drawn):
    """The default companion's figures agree with the route through the
    weighted complement to ``16 n u kappa_c cond(A)`` relative; it never
    warns, and has no second route to report.  Over 3000 seeded draws the
    worst was ``8 n u kappa_c cond(A)``, at n = 1, where ``Q`` rounds a few
    ``u`` off one and the complement route's is exact."""
    n, r, log_floor, seed = drawn
    rng = np.random.default_rng(seed)
    ws = modest_space(rng, n, floor=10.0 ** log_floor)
    s = rand.random_subspace(rng, ws, r)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        rep = tn.compat_margin(ws, s)
    assert rep.residual_cross is None
    margin, kappa_c = _default_margin_by_the_complement(ws, s)
    tol = 16 * n * np.finfo(float).eps / 2 * rep.kappa_c * ws.weight_cond
    assert abs(rep.margin_c - margin) <= tol * margin
    assert abs(rep.kappa_c - kappa_c) <= tol * kappa_c


def test_compat_margin_of_the_zero_subspace_is_exact():
    """``Q = 0`` and ``C = -I``, so every figure is exact."""
    ws = modest_space(rand.trial_rng(19, 40), 5)
    rep = tn.compat_margin(ws, tn.span(ws, np.zeros((5, 0))))
    assert rep == tn.CompatReport(1.0, 0.0, None, 1.0, True)


def test_compat_margin_grows_as_the_companion_closes_in():
    """sigma_min of C blows up together with the skew projection."""
    ws = tn.make_space(2, np.eye(2))
    s = tn.span(ws, [E1])
    margins = []
    for theta in (1.2, 0.9, 0.6, 0.3, 0.1):
        t = tn.span(ws, [np.array([np.cos(theta), np.sin(theta)])])
        margins.append(tn.compat_margin(ws, s, t).margin_c)
    assert all(a < b for a, b in zip(margins, margins[1:]))
    assert margins[0] == pytest.approx(1.0729163777098973, abs=1e-10)


def test_symmetrized_spectrum_tracks_twice_the_margin():
    ws = tn.make_space(2, np.eye(2))
    s = tn.span(ws, [E1])
    for theta in (1.2, 0.6, 0.3):
        t = tn.span(ws, [np.array([np.cos(theta), np.sin(theta)])])
        margin = tn.compat_margin(ws, s, t).margin_c
        pair = tn.oblique_projection(ws, s, t)
        rep = tn.vvplus_diagnostics(ws, pair.p)
        assert rep.min_symmetric == pytest.approx(2.0 * margin, abs=1e-9)


def test_krein_check_frozen_cases():
    ws = tn.make_space(2, np.eye(2))
    s = tn.span(ws, [E1])
    assert tn.krein_check(ws, s, np.diag([1.0, 0.0]))
    assert not tn.krein_check(ws, s, np.array([[1.0, -1.0], [0.0, 0.0]]))
    assert not tn.krein_check(ws, s, np.diag([0.0, 1.0]))


def test_krein_check_rejects_non_idempotents():
    ws = tn.make_space(2, np.eye(2))
    with pytest.raises(NotIdempotent):
        tn.krein_check(ws, tn.span(ws, [E1]), np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_buckholtz_identities_frozen_pair():
    ws, s, t = canonical_pair()
    rep = tn.buckholtz_verify(ws, s, t)
    assert max(rep.res_inverse, rep.res_projection, rep.res_symmetric) <= 1e-12
    assert rep.kappa == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-10)


def test_buckholtz_identities_random_pairs():
    for trial in range(15):
        rng = rand.trial_rng(16, trial)
        ws = modest_space(rng, 8)
        r = int(rng.integers(1, 8))
        s, t = rand.random_companion_pair(rng, ws, r, min_gap=0.02, attempts=2000)
        rep = tn.buckholtz_verify(ws, s, t)
        bound = 1e-9 * rep.kappa
        assert rep.res_inverse <= bound and rep.res_projection <= bound


def test_buckholtz_symmetric_residual_on_canonical_pair():
    ws, s, t = canonical_pair()
    assert tn.buckholtz_verify(ws, s, t).res_symmetric <= 1e-12


def test_buckholtz_reads_kappa_from_the_smallest_principal_angle(
        monkeypatch):
    """The stacked-basis condition number is ``(1 + cos) / sin`` of the
    smallest principal angle, as ``_splitting`` reads it, not a separate
    ``numpy.linalg.cond``; at the canonical pair's 45 degrees that is
    ``1 + sqrt(2)``, the ratio of the stacked singular values."""
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg.cond was called")

    monkeypatch.setattr(np.linalg, "cond", forbidden)
    ws, s, t = canonical_pair()
    kappa = tn.buckholtz_verify(ws, s, t).kappa
    assert kappa == subspaces._splitting(s, t)[1]
    svals = np.linalg.svd(np.hstack([s.basis, t.basis]), compute_uv=False)
    assert kappa == pytest.approx(svals[0] / svals[-1], rel=1e-15)


def test_buckholtz_takes_one_svd_of_the_pair_residual(monkeypatch):
    """The projection and the report share one SVD, of the residual that
    gives the sine of the smallest principal angle (below pi/4 here, so
    the cross-Gram is not factored); the other three SVDs are the spectral
    norms of the three residuals."""
    rng = rand.trial_rng(18, 1)
    ws = rand.random_space(rng, 6)
    s = rand.random_subspace(rng, ws, 2)
    t = rand.random_subspace(rng, ws, 4)
    calls = count_calls(monkeypatch, {la: ("svd", "svdvals"),
                                      np.linalg: ("svd", "svdvals"),
                                      compat: ("_spec_norm",)})
    tn.buckholtz_verify(ws, s, t)
    assert calls == {"numpy.linalg.svd": 1 + 3,
                     "twonorm.compat._spec_norm": 3}


def test_companion_transport_frozen_two_by_two():
    ws = tn.make_space(2, np.eye(2))
    s = tn.span(ws, [E1])
    g = tn.companion_transport(ws, s, tn.span(ws, [E2]), tn.span(ws, [E1 + E2]))
    assert np.allclose(g.matrix, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-12)


def test_companion_transport_to_itself_is_identity():
    rng = rand.trial_rng(18, 0)
    ws = rand.random_space(rng, 6)
    s, t = rand.random_companion_pair(rng, ws, 2, min_gap=0.02, attempts=2000)
    g = tn.companion_transport(ws, s, t, t)
    assert _spec_norm(g.matrix - np.eye(6)) <= 1e-9


def test_companion_transport_postconditions():
    rng = rand.trial_rng(18, 1)
    ws = modest_space(rng, 8)
    r = 3
    s, t = rand.random_companion_pair(rng, ws, r, min_gap=0.02, attempts=2000)
    _, t1 = rand.random_companion_pair(rng, ws, r, min_gap=0.02, attempts=2000)
    g = tn.companion_transport(ws, s, t, t1)
    gs = tn.span(ws, g.matrix @ s.basis)
    gt = tn.span(ws, g.matrix @ t.basis)
    assert tn.max_principal_angle(gs, s) <= 1e-8
    assert tn.max_principal_angle(gt, t1) <= 1e-8
    assert np.isfinite(np.linalg.cond(g.matrix))
    # the closed-form adjoint P+ + (I - P+) P1+ that the function states
    p_plus = tn.oblique_projection(ws, s, t).p_plus.matrix
    p1_plus = tn.oblique_projection(ws, t1, s).p_plus.matrix
    formula = p_plus + (np.eye(8) - p_plus) @ p1_plus
    scale = max(1.0, _spec_norm(g.matrix)) * max(1.0, ws.weight_cond)
    assert _spec_norm(ws.plus_matrix(g.matrix) - formula) <= 1e-9 * scale


def test_companion_metric_axioms():
    rng = rand.trial_rng(88, 0)
    ws = rand.random_space(rng, 8)
    s, ta = rand.random_companion_pair(rng, ws, 3)
    _, tb = rand.random_companion_pair(rng, ws, 3)
    _, tc = rand.random_companion_pair(rng, ws, 3)
    assert tn.companion_metric(ws, s, ta, ta) == 0.0
    dab = tn.companion_metric(ws, s, ta, tb)
    assert dab == tn.companion_metric(ws, s, tb, ta)
    assert dab > 0.0
    dac = tn.companion_metric(ws, s, ta, tc)
    dcb = tn.companion_metric(ws, s, tc, tb)
    assert dab <= dac + dcb + 1e-12


def test_algebraic_lemma_frozen_failure_case():
    # Two rank-one operators whose kernels coincide: every equivalence in
    # the lemma fails at once, so the three flags still agree.
    ws = tn.make_space(2, np.eye(2))
    t1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    t2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    rep = tn.algebraic_lemma_check(ws, t1, t2)
    assert not rep.nullspace_sum_full
    assert not rep.range_sum_matches
    assert not rep.one_sided
    assert rep.agree


def test_algebraic_lemma_projection_pair():
    ws = tn.make_space(5, np.diag(np.linspace(1.0, 0.4, 5)))
    q = np.diag([1.0, 1.0, 0.0, 0.0, 0.0])
    rep = tn.algebraic_lemma_check(ws, q, q - np.eye(5))
    assert rep.nullspace_sum_full and rep.range_sum_matches and rep.one_sided
    assert rep.agree


def test_algebraic_lemma_random_disjoint_low_rank():
    rng = rand.trial_rng(60, 1)
    ws = tn.make_space(5, np.diag(np.linspace(1.0, 0.4, 5)))
    t1 = rand._complex_gauss(rng, 5, 2) @ rand._complex_gauss(rng, 2, 5)
    t2 = rand._complex_gauss(rng, 5, 2) @ rand._complex_gauss(rng, 2, 5)
    rep = tn.algebraic_lemma_check(ws, t1, t2)
    assert rep.agree and rep.one_sided


def test_algebraic_lemma_takes_six_rank_counts(monkeypatch):
    """Every figure is a rank count: the two operands, their column and row
    stacks, their sum and the one-sided stack; no SVD with vectors and no
    null_space builds a kernel basis."""
    calls = []

    def counted(*args, **kwargs):
        calls.append("rank")
        return rank(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel basis is built")

    rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(la, "null_space", refuse)
    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    rng = rand.trial_rng(60, 2)
    ws = tn.make_space(6, np.diag(np.linspace(1.0, 0.4, 6)))
    t1 = rand._complex_gauss(rng, 6, 2) @ rand._complex_gauss(rng, 2, 6)
    t2 = rand._complex_gauss(rng, 6, 2) @ rand._complex_gauss(rng, 2, 6)
    rep = tn.algebraic_lemma_check(ws, t1, t2)
    assert rep.agree
    assert calls == ["rank"] * 6


def _lemma_from_kernel_bases(m1, m2):
    """Reference for :func:`algebraic_lemma_check`: the kernel side counted
    as the rank of the stacked kernel bases, each read from a full SVD of
    its operand under ``matrix_rank``'s cut ``s_max n u``."""
    n = m1.shape[0]
    ranks, kernels = [], []
    for m in (m1, m2):
        _, sv, vh = np.linalg.svd(m)
        r = int(np.sum(sv > sv[0] * n * np.finfo(sv.dtype).eps))
        ranks.append(r)
        kernels.append(vh[r:].conj().T)
    r1, r2 = ranks
    r_stack = int(np.linalg.matrix_rank(np.hstack([m1, m2])))
    if r_stack < r1 + r2:
        raise RangeOverlap(
            f"ranges share a subspace of dimension {r1 + r2 - r_stack}"
        )
    nulls = np.hstack(kernels)
    lhs = (int(np.linalg.matrix_rank(nulls)) if nulls.size else 0) == n
    r_sum = int(np.linalg.matrix_rank(m1 + m2))
    rhs = r_sum == r1 + r2
    one_sided = int(np.linalg.matrix_rank(np.hstack([m1 + m2, m1]))) == r_sum
    return compat.LemmaReport(
        nullspace_sum_full=bool(lhs),
        range_sum_matches=bool(rhs),
        one_sided=bool(one_sided),
        agree=bool(lhs == rhs == one_sided),
    )


@st.composite
def _lemma_draw(draw):
    """Dimension n <= 12, two ranks in [0, n], a family and a seed.

    ``generic`` draws ``X1 Y1*`` and ``X2 Y2*`` of the two ranks;
    ``shared_kernel`` draws ``X1 Y1*`` and ``X2 Y1*``, ``shared_range``
    ``X1 Y1*`` and ``X1 Y2*``, both of the first rank; ``projection`` is an
    oblique projection ``Q`` of the first rank with ``Q - I``.
    """
    n = draw(st.integers(1, 12))
    return (n, draw(st.integers(0, n)), draw(st.integers(0, n)),
            draw(st.sampled_from(["generic", "shared_kernel", "shared_range",
                                  "projection"])),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_lemma_draw())
def test_algebraic_lemma_matches_the_kernel_basis_route(drawn):
    """The rank-count lemma gives the reference's report, or its
    ``RangeOverlap`` message, on low-rank draws of every family."""
    n, r1, r2, family, seed = drawn
    rng = np.random.default_rng(seed)
    ws = tn.make_space(n, np.eye(n))

    def gauss(r):
        return rand._complex_gauss(rng, n, r)

    x1, y1 = gauss(r1), gauss(r1)
    t1 = x1 @ y1.conj().T
    if family == "generic":
        t2 = gauss(r2) @ gauss(r2).conj().T
    elif family == "shared_kernel":
        t2 = gauss(r1) @ y1.conj().T
    elif family == "shared_range":
        t2 = x1 @ gauss(r1).conj().T
    else:
        t1 = x1 @ np.linalg.solve(y1.conj().T @ x1, y1.conj().T)
        t2 = t1 - np.eye(n)
    try:
        expected = _lemma_from_kernel_bases(t1, t2)
    except RangeOverlap as err:
        with pytest.raises(RangeOverlap) as got:
            tn.algebraic_lemma_check(ws, t1, t2)
        assert str(got.value) == str(err)
    else:
        assert tn.algebraic_lemma_check(ws, t1, t2) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_algebraic_lemma_rejects_non_finite_entries(bad):
    """A rank count reads an infinite entry as rank 0 (numpy's SVD returns
    NaN singular values for it), so the operands are checked first."""
    ws = tn.make_space(3, np.eye(3))
    t1 = np.diag([bad, 1.0, 0.0])
    t2 = np.zeros((3, 3))
    t2[2, 2] = 1.0
    for args in ((t1, t2), (t2, t1)):
        with pytest.raises(ValueError, match="must have finite entries"):
            tn.algebraic_lemma_check(ws, *args)


def test_algebraic_lemma_rejects_overlapping_ranges():
    ws = tn.make_space(2, np.eye(2))
    t1 = np.diag([1.0, 0.0])
    with pytest.raises(RangeOverlap):
        tn.algebraic_lemma_check(ws, t1, 2.0 * t1)


def _matrices(pair):
    return pair.p.matrix, pair.p_plus.matrix


# each public function that takes the space and subspaces, on the pair
# s = span(e1), t = span(e1 + e2, e3) of C^3; each returns arrays or a report
_SUBSPACE_TAKERS = {
    "complement_L": lambda ws, s, t: tn.complement_L(ws, s).basis,
    "oblique_projection": lambda ws, s, t: _matrices(
        tn.oblique_projection(ws, s, t)),
    "is_proper_companion": lambda ws, s, t: tn.is_proper_companion(ws, s, t),
    "c_operator": lambda ws, s, t: tn.c_operator(ws, s, t).matrix,
    "compat_projection": lambda ws, s, t: tn.compat_projection(ws, s).p.matrix,
    "compat_margin": lambda ws, s, t: (tn.compat_margin(ws, s),
                                       tn.compat_margin(ws, s, t)),
    "krein_check": lambda ws, s, t: tn.krein_check(
        ws, s, tn.compat_projection(ws, s).p.matrix),
    "buckholtz_verify": lambda ws, s, t: tn.buckholtz_verify(ws, s, t),
    "companion_transport": lambda ws, s, t: tn.companion_transport(
        ws, s, t, t).matrix,
    "companion_metric": lambda ws, s, t: tn.companion_metric(ws, s, t, t),
}


def _found_pair(ws):
    return (tn.span(ws, [[1.0, 0.0, 0.0]]),
            tn.span(ws, [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


@pytest.mark.parametrize("name", sorted(_SUBSPACE_TAKERS))
def test_subspaces_of_another_space_are_read_in_the_given_one(name):
    """A pair built on ``diag(1, .5, .25)`` and passed with the identity
    weight gives what the pair built on the identity weight gives: its
    weighted complements are the given space's, not its own."""
    take = _SUBSPACE_TAKERS[name]
    ws = tn.make_space(3, np.eye(3))
    other = tn.make_space(3, np.diag([1.0, 0.5, 0.25]))
    got = take(ws, *_found_pair(other))
    want = take(ws, *_found_pair(ws))
    np.testing.assert_equal(got, want)


@pytest.mark.parametrize("name", sorted(_SUBSPACE_TAKERS))
def test_subspaces_of_another_dimension_raise_dim_mismatch(name):
    with pytest.raises(DimMismatch):
        _SUBSPACE_TAKERS[name](tn.make_space(4, np.eye(4)),
                               *_found_pair(tn.make_space(3, np.eye(3))))
