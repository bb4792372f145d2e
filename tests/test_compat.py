"""Compatibility operator, margins, transported companions, the algebraic lemma."""

import numpy as np
import pytest
import scipy.linalg as la

import twonorm as tn
from twonorm import rand
from twonorm.errors import NotIdempotent, RangeOverlap
from twonorm.space import _spec_norm

from conftest import modest_space

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
    q = tn.compat_projection(ws, s).p.matrix
    assert _spec_norm(ws.plus_matrix(q) - q) <= 1e-9 * max(1.0, _spec_norm(q))


def test_compat_projection_does_not_depend_on_the_companion():
    rng = rand.trial_rng(15, 2)
    ws = rand.random_space(rng, 6)
    s, t1 = rand.random_companion_pair(rng, ws, 2, min_gap=0.02, attempts=2000)
    _, t2 = rand.random_companion_pair(rng, ws, 2, min_gap=0.02, attempts=2000)
    q1 = tn.compat_projection(ws, s, t1).p.matrix
    q2 = tn.compat_projection(ws, s, t2).p.matrix
    assert _spec_norm(q1 - q2) <= 1e-9 * max(1.0, _spec_norm(q1))


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


def test_algebraic_lemma_rejects_overlapping_ranges():
    ws = tn.make_space(2, np.eye(2))
    t1 = np.diag([1.0, 0.0])
    with pytest.raises(RangeOverlap):
        tn.algebraic_lemma_check(ws, t1, 2.0 * t1)
