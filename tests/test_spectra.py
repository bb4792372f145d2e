"""Spectra across algebras and contour-integral spectral projections."""

import json
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

import twonorm as tn
import twonorm.cli as cli
from twonorm import matio, rand
from twonorm.errors import ContourTooClose, NotIdempotent, NotIsolated
from twonorm.space import _spec_norm
from twonorm.subspaces import _idempotent_cut, _range_kernel

from conftest import count_calls, modest_space


def euclid2():
    return tn.make_space(2, np.eye(2))


def test_spectrum_agrees_on_all_tags_for_a_diagonal():
    ws = euclid2()
    t = np.diag([1.0, 2.0])
    for tag in ("E", "L", "P"):
        rep = tn.spectrum(ws, t, tag)
        assert rep.algebra == tag
        assert np.allclose(np.sort(rep.values.real), [1.0, 2.0], atol=1e-12)
        assert np.abs(rep.values.imag).max() <= 1e-12


def test_spectrum_of_an_operator_of_norm_past_1e138():
    """scipy.linalg's ``eigvals`` returned about +-2.105e138 here."""
    rep = tn.spectrum(tn.make_space(2, np.eye(2)),
                      1e140 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    exact = np.sqrt(2.0) * 1e140 * np.array([-1.0, 1.0])
    assert np.abs(rep.values - exact).max() <= 1e-14 * np.sqrt(2.0) * 1e140


def test_spectrum_of_nilpotent_in_the_proper_algebra():
    ws = tn.make_space(2, np.diag([1.0, 0.25]))
    rep = tn.spectrum(ws, np.array([[0.0, 1.0], [0.0, 0.0]]), "P")
    assert len(rep.values) == 2
    assert np.abs(rep.values).max() <= 1e-12


def test_spectrum_collapse_on_random_operators():
    for trial in range(10):
        rng = rand.trial_rng(61, trial)
        ws = rand.random_space(rng, 7)
        t = rand.random_operator(rng, ws)
        ev_e = np.sort_complex(tn.spectrum(ws, t, "E").values)
        ev_l = np.sort_complex(tn.spectrum(ws, t, "L").values)
        ev_p = np.sort_complex(tn.spectrum(ws, t, "P").values)
        assert np.abs(ev_e - ev_l).max() <= 1e-8
        assert np.abs(ev_e - ev_p).max() <= 1e-8


def test_spectrum_rejects_unknown_algebra():
    ws = euclid2()
    with pytest.raises(ValueError):
        tn.spectrum(ws, np.eye(2), "Q")


def _conjugated_jordan(rng, n):
    """``V J V^-1`` with ``J`` one Jordan block of size n at 0.7 + 0.2i and
    ``V`` complex Gaussian.  Rounding splits the eigenvalue by about
    ``u^(1/n)``."""
    v = rand._complex_gauss(rng, n, n)
    j = (0.7 + 0.2j) * np.eye(n) + np.eye(n, k=1)
    return v @ j @ np.linalg.inv(v)


def _assert_one_spectrum(ws, m):
    """The three tags return the same n values, bit for bit, each from an
    eigensolve of its own ``Operator``."""
    values = [tn.spectrum(ws, m, tag).values for tag in ("E", "L", "P")]
    assert len(values[0]) == ws.dim
    for other in values[1:]:
        np.testing.assert_array_equal(other, values[0])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_defective_spectrum_keeps_its_multiplicity_under_every_tag(n):
    """A fixed matching tolerance paired the two splittings of a defective
    eigenvalue wrongly: on 600 draws like these (n = 2-4) the "P" list had
    the wrong length on 508 and "L" raised on 401."""
    for trial in range(40):
        rng = rand.trial_rng(5, trial)
        ws = rand.random_space(rng, n)
        _assert_one_spectrum(ws, _conjugated_jordan(rng, n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_check_spectra_passes_on_defective_operators(n, monkeypatch, capsys):
    """The suite's residual is a backward error, so a defective eigenvalue
    leaves it at c n u; over 600 draws (n = 2-4) c was at most 3.7."""
    monkeypatch.setattr(rand, "random_operator",
                        lambda rng, ws: _conjugated_jordan(rng, ws.dim))
    tol = 16 * n * float(np.finfo(float).eps)
    argv = ["check", "spectra", "--dim", str(n), "--trials", "40",
            "--seed", "5", "--tol", str(tol)]
    assert cli.main(argv) == 0
    assert 0.0 < json.loads(capsys.readouterr().out)["max_residual"] <= tol


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12))
def test_spectrum_tags_and_check_residual_property(seed, n):
    """On ``rand.random_space`` and ``rand.random_operator`` draws the three
    tags agree bitwise and the suite's residual stays within 16 n u."""
    rng = rand.trial_rng(seed, 0)
    ws = rand.random_space(rng, n)
    _assert_one_spectrum(ws, rand.random_operator(rng, ws))
    # the check draws the same space from the same stream, and the suite
    # the same operator after it
    rng = rand.trial_rng(seed, 0)
    residual = cli._suite_spectra(rng, rand.random_space(rng, n))
    assert residual <= 16 * n * np.finfo(float).eps


def test_riesz_frozen_diagonal():
    ws = euclid2()
    pair, diag = tn.riesz_projection(ws, np.diag([1.0, 2.0]), 1.0, 0.4, 64)
    assert _spec_norm(pair.p.matrix - np.diag([1.0, 0.0])) <= 1e-12
    assert diag.range_dim == 1
    assert diag.idempotency_res <= 1e-12
    assert diag.plus_res <= 1e-12


def test_riesz_residual_improves_quadratically_with_node_count():
    ws = euclid2()
    errs = {}
    for m in (16, 32, 64):
        pair, _ = tn.riesz_projection(ws, np.diag([1.0, 2.0]), 1.0, 0.4, m)
        errs[m] = _spec_norm(pair.p.matrix - np.diag([1.0, 0.0]))
    assert errs[32] <= max(50.0 * errs[16] ** 2, 1e-12)
    assert errs[64] <= max(50.0 * errs[32] ** 2, 1e-12)


def test_riesz_far_target_yields_the_zero_projection():
    ws = euclid2()
    pair, diag = tn.riesz_projection(ws, np.diag([1.0, 2.0]), 5.0, 0.4, 64)
    assert _spec_norm(pair.p.matrix) <= 1e-12
    assert diag.range_dim == 0


def test_riesz_keeps_a_whole_jordan_block():
    ws = euclid2()
    t = np.array([[1.0, 1.0], [0.0, 1.0]])
    pair, diag = tn.riesz_projection(ws, t, 1.0, 0.3, 64)
    assert _spec_norm(pair.p.matrix - np.eye(2)) <= 1e-12
    assert diag.range_dim == 2


def test_riesz_on_a_weighted_space_respects_the_plus_adjoint():
    ws = tn.make_space(3, np.diag([1.0, 0.5, 0.25]))
    t = np.array([[1.0, 0.3, 0.0], [0.0, 2.5, 0.1], [0.0, 0.0, 4.0]])
    pair, diag = tn.riesz_projection(ws, t, 1.0, 0.4, 32)
    assert diag.range_dim == 1
    assert diag.plus_res <= 1e-12
    assert _spec_norm(ws.plus_matrix(pair.p.matrix) - pair.p_plus.matrix) <= 1e-12


def test_riesz_rejects_spectrum_near_the_contour():
    ws = euclid2()
    with pytest.raises(ContourTooClose):
        tn.riesz_projection(ws, np.diag([1.0, 1.3]), 1.0, 0.4, 64)


def test_riesz_rejects_spectrum_in_the_guard_annulus():
    ws = euclid2()
    with pytest.raises(NotIsolated):
        tn.riesz_projection(ws, np.diag([1.0, 1.7]), 1.0, 0.4, 64)


def test_riesz_parameter_validation():
    ws = euclid2()
    with pytest.raises(ValueError):
        tn.riesz_projection(ws, np.eye(2), 1.0, 0.0, 64)
    with pytest.raises(ValueError):
        tn.riesz_projection(ws, np.eye(2), 1.0, 0.4, 63)
    with pytest.raises(ValueError):
        tn.riesz_projection(ws, np.eye(2), 1.0, 0.4, 8)


def test_vvplus_for_an_orthogonal_projection():
    ws = euclid2()
    rep = tn.vvplus_diagnostics(ws, np.diag([1.0, 0.0]))
    assert np.allclose(rep.spec_vvplus, 1.0, atol=1e-12)
    assert rep.min_symmetric == pytest.approx(2.0, abs=1e-12)


def test_vvplus_spectrum_is_real_and_positive_for_oblique_projections():
    for trial in range(10):
        rng = rand.trial_rng(12, 300 + trial)
        ws = modest_space(rng, 8)
        r = int(rng.integers(1, 8))
        s, t = rand.random_companion_pair(rng, ws, r, min_gap=0.02, attempts=2000)
        pair = tn.oblique_projection(ws, s, t)
        rep = tn.vvplus_diagnostics(ws, pair.p)
        assert np.abs(rep.spec_vvplus.imag).max() <= 1e-9
        assert rep.spec_vvplus.real.min() > 0.0


def test_vvplus_rejects_non_idempotents():
    ws = euclid2()
    with pytest.raises(NotIdempotent):
        tn.vvplus_diagnostics(ws, np.array([[1.0, 0.0], [1.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vvplus_rejects_a_non_finite_q_before_any_product(bad):
    """A NaN or infinite entry is named at entry, with no warning from the
    idempotency product and no convergence error from its norm."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^q must have finite entries$"):
            tn.vvplus_diagnostics(euclid2(), np.diag([bad, 1.0]))


def test_check_spectra_trial_factors_the_ambient_matrix_once(monkeypatch,
                                                             capsys):
    """One trial takes one eigendecomposition and one spectral norm of T+,
    for the left-eigenvector residual, and no eigensolve of T: every
    spectrum tag is that eigensolve, and the residual checks the theorem
    it rests on."""
    calls = count_calls(monkeypatch, {la: ("eigvals", "eig"),
                                      np.linalg: ("eigvals", "eig")})
    svd = np.linalg.svd
    spectral = []

    def counted_svd(x, *args, **kwargs):
        spectral.append(x.shape)
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    assert cli.main(["check", "spectra", "--trials", "1", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]
    assert calls == {"numpy.linalg.eig": 1}
    assert spectral == [(10, 10)]


def test_riesz_never_forms_the_plus_adjoint_of_the_operator(monkeypatch):
    """The conjugate contour sum reuses the Schur resolvent sum, so T+ is
    never formed; the one plus-adjoint taken is that of Q."""
    ws = modest_space(rand.trial_rng(12, 400), 4)
    t = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1 * np.triu(np.ones((4, 4)), 1)
    plus_matrix = tn.WeightedSpace.plus_matrix
    of_t = []

    def counted(self, m):
        of_t.append(np.array_equal(m, t))
        return plus_matrix(self, m)

    monkeypatch.setattr(tn.WeightedSpace, "plus_matrix", counted)
    _, diag = tn.riesz_projection(ws, t, 1.0, 0.4, 64)
    assert diag.range_dim == 1
    assert of_t == [False]


def test_riesz_takes_one_schur_form_and_no_eigensolve(monkeypatch):
    """The contour preconditions and the rank of the projection read the
    eigenvalues from the diagonal of the Schur form the resolvents are
    taken from; no dense inverse runs, and no SVD of the projection: the
    only SVDs are the values-only spectral norms of the two residuals."""
    ws = modest_space(rand.trial_rng(12, 401), 5)
    t = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) + 0.1 * np.triu(np.ones((5, 5)), 1)
    calls = count_calls(monkeypatch, {la: ("schur", "eigvals", "inv"),
                                      np.linalg: ("eigvals", "inv")})
    svds = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        svds.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    _, diag = tn.riesz_projection(ws, t, 2.0, 0.4, 64)
    assert diag.range_dim == 1
    assert calls == {"scipy.linalg.schur": 1}
    assert svds == [((5, 5), False), ((5, 5), False)]


def _contour_sum(m, center, eps, nodes):
    """The dense route the Schur form replaced, kept as an oracle: one
    ``la.inv`` of ``z_j - m`` per node."""
    n = m.shape[0]
    eye = np.eye(n)
    acc = np.zeros((n, n), dtype=complex)
    for theta in nodes:
        phase = np.exp(1j * theta)
        acc += phase * la.inv((center + eps * phase) * eye - m)
    return (eps / len(nodes)) * acc


def _disc(rng, count, centre=0.0, radius=1.0):
    """``count`` points uniform in the disc of ``radius`` about ``centre``."""
    return centre + radius * np.sqrt(rng.uniform(0.0, 1.0, count)) \
        * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def _conjugated(rng, j, r):
    """``V J V^-1`` for a block-diagonal ``J`` whose leading ``r`` x ``r``
    block holds the eigenvalues inside the contour, and the exact spectral
    projector ``V[:, :r] V^-1[:r]``; ``V`` is not normal."""
    n = j.shape[0]
    v = np.eye(n) + rand._complex_gauss(rng, n, n) * (0.5 / np.sqrt(n))
    v_inv = np.linalg.inv(v)
    return v @ j @ v_inv, v[:, :r] @ v_inv[:r]


def _planted(rng, n, lam):
    """``V diag(lam, d_2..d_n) V^-1`` with the other eigenvalues in the unit
    disc, and its exact spectral projector at ``lam``, ``V e_1 e_1^T V^-1``."""
    d = _disc(rng, n)
    d[0] = lam
    return _conjugated(rng, np.diag(d), 1)


@pytest.mark.parametrize("trial", range(20))
def test_riesz_matches_the_dense_contour_oracle(trial):
    """Q and Q+ agree with the dense-inverse contour sums for T and for T+,
    and Q with the exact projector.

    Bounds are c n u |.|_2.  Over 300 draws of this ensemble the largest
    ratios were 3.2 (Q against the oracle) and 3.4 (Q against the exact
    projector), hence c = 16.  The oracle for Q+ forms T+ = A^{-1} T* A
    and inverts next to it, so its own error carries cond(A): against
    n u cond(A) |Q+|_2 it reached 11.4, against at most 2.8 for the Q+
    returned, hence c = 64 there."""
    rng = rand.trial_rng(17, trial)
    n = int(rng.integers(2, 13))
    ws = modest_space(rng, n)
    lam = complex(2.0, rng.uniform(-1.0, 1.0))
    t, exact = _planted(rng, n, lam)
    nodes = -np.pi + 2.0 * np.pi * np.arange(64) / 64
    pair, diag = tn.riesz_projection(ws, t, lam, 0.4, 64)
    q, q_plus = pair.p.matrix, pair.p_plus.matrix
    u = np.finfo(float).eps
    bound = 16 * n * u * _spec_norm(q)
    assert diag.range_dim == 1
    assert _spec_norm(q - _contour_sum(t, lam, 0.4, nodes)) <= bound
    assert _spec_norm(q - exact) <= bound
    oracle_plus = _contour_sum(ws.plus_matrix(t), lam.conjugate(), 0.4, nodes)
    assert _spec_norm(q_plus - oracle_plus) \
        <= 64 * n * u * ws.weight_cond * _spec_norm(q_plus)


@pytest.mark.parametrize("trial", range(40))
def test_riesz_rank_matches_the_singular_value_cut_of_q(trial):
    """``range_dim`` counts the Schur eigenvalues inside the contour.  The
    route it replaced, kept as an oracle, counts the singular values of
    ``Q`` above 1/2, which separates the zero ones from the others since
    every nonzero singular value of a projection is at least one.  ``r``
    of the ``n`` eigenvalues, ``r`` from 0 to ``n``, are planted within
    ``eps / 4`` of ``lam``, clustered or repeated; the others lie in the
    unit disc, at least ``2 eps`` away; ``V`` is not normal."""
    rng = rand.trial_rng(29, trial)
    n = int(rng.integers(2, 30))
    r = int(rng.integers(0, n + 1))
    m = int(rng.choice([16, 32, 64]))
    lam, eps = complex(2.0, rng.uniform(-1.0, 1.0)), 0.4
    d = _disc(rng, n)
    near = lam + 0.1 * rng.uniform(0.0, 1.0, r) \
        * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, r))
    d[:r] = near if trial % 2 else lam
    t, _ = _conjugated(rng, np.diag(d), r)
    ws = modest_space(rng, n)
    pair, diag = tn.riesz_projection(ws, t, lam, eps, m)
    sv_rank = _range_kernel(ws, pair.p.matrix, _idempotent_cut)[1].rank
    assert diag.range_dim == sv_rank == r



NODE_COUNTS = (16, 18, 30, 64, 130)


def _jordan(value, size):
    return value * np.eye(size) + np.eye(size, k=1)


def _assert_riesz_against_oracle(ws, t, exact, r, lam, eps, m):
    """``Q`` agrees with the dense contour sum within ``16 n u max(1,
    |Q|_2)``, the rank with ``r``, and the distance to the exact projector
    is within ``quadrature_err`` and the same bound.  The oracle sums ``m``
    terms of size about one, so its rounding does not shrink with ``Q``: at
    rank 0 ``|Q|_2`` is at most about ``2^-m``."""
    pair, diag = tn.riesz_projection(ws, t, lam, eps, m)
    q = pair.p.matrix
    nodes = -np.pi + 2.0 * np.pi * np.arange(m) / m
    bound = 16 * q.shape[0] * np.finfo(float).eps * max(1.0, _spec_norm(q))
    assert diag.range_dim == r
    assert _spec_norm(q - _contour_sum(t, lam, eps, nodes)) <= bound
    assert _spec_norm(q - exact) <= diag.quadrature_err + bound


RIESZ_LAM = complex(2.0, 0.3)

EDGE_SPECTRA = {
    "rank 0": lambda rng: (np.diag(_disc(rng, 6)), 0),
    "rank n": lambda rng: (np.diag(_disc(rng, 6, RIESZ_LAM, 0.1)), 6),
    "jordan inside": lambda rng: (
        la.block_diag(_jordan(RIESZ_LAM, 3), np.diag(_disc(rng, 4))), 3),
    "jordan outside": lambda rng: (
        la.block_diag([[RIESZ_LAM]], _jordan(0.3, 3), np.diag(_disc(rng, 2))),
        1),
    "repeated and clustered inside": lambda rng: (np.diag(np.concatenate([
        [RIESZ_LAM] * 3, _disc(rng, 2, RIESZ_LAM, 0.1), _disc(rng, 3)])), 5),
}


@pytest.mark.parametrize("m", NODE_COUNTS)
@pytest.mark.parametrize("case", list(EDGE_SPECTRA))
def test_riesz_edge_spectra_match_the_dense_contour_oracle(case, m):
    """Empty and full inside blocks, Jordan blocks on either side of the
    contour and repeated or clustered inside eigenvalues, at node counts
    that include even ones other than powers of two."""
    rng = rand.trial_rng(31, NODE_COUNTS.index(m))
    j, r = EDGE_SPECTRA[case](rng)
    t, exact = _conjugated(rng, j, r)
    ws = modest_space(rng, j.shape[0])
    _assert_riesz_against_oracle(ws, t, exact, r, RIESZ_LAM, 0.4, m)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 16),
       m=st.sampled_from(NODE_COUNTS))
def test_riesz_matches_the_dense_contour_oracle_property(seed, n, m):
    """Any rank from 0 to n, the inside eigenvalues repeated or clustered
    within ``eps / 4`` of the centre and the others in the unit disc."""
    rng = rand.trial_rng(seed, 0)
    r = int(rng.integers(0, n + 1))
    inside = _disc(rng, r, RIESZ_LAM, 0.1) if rng.integers(2) \
        else np.full(r, RIESZ_LAM)
    j = np.diag(np.concatenate([inside, _disc(rng, n - r)]))
    t, exact = _conjugated(rng, j, r)
    ws = modest_space(rng, n)
    _assert_riesz_against_oracle(ws, t, exact, r, RIESZ_LAM, 0.4, m)


def test_riesz_work_does_not_grow_with_the_node_count(monkeypatch):
    """The powers are taken by repeated squaring: m = 16 and m = 4096 take
    the same one Schur form and the same LAPACK calls, at most two
    triangular inverses and two Sylvester solves."""
    ws = modest_space(rand.trial_rng(12, 402), 5)
    t = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) + 0.1 * np.triu(np.ones((5, 5)), 1)
    calls = count_calls(monkeypatch, {la: ("schur",)})
    get_lapack_funcs = la.get_lapack_funcs

    def counted_get(names, *args, **kwargs):
        funcs = get_lapack_funcs(names, *args, **kwargs)
        if isinstance(names, str):
            return count(names, funcs)
        return [count(name, fn) for name, fn in zip(names, funcs)]

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(la, "get_lapack_funcs", counted_get)
    per_m = []
    for m in (16, 4096):
        calls.clear()
        _, diag = tn.riesz_projection(ws, t, 2.0, 0.4, m)
        assert diag.range_dim == 1
        per_m.append(dict(calls))
    assert per_m[0] == per_m[1]
    assert per_m[0]["scipy.linalg.schur"] == 1
    assert per_m[0].get("trtri", 0) <= 2 and per_m[0].get("trsyl", 0) <= 2


def test_riesz_quadrature_err_is_the_closed_form_on_a_diagonal():
    """On diag(1, 2) around 1 with eps = 0.4 the outside eigenvalue has
    ``y = 2.5``, so ``S - E = diag(0, -1 / (2.5^m - 1))``."""
    ws = euclid2()
    errs = []
    for m in NODE_COUNTS:
        _, diag = tn.riesz_projection(ws, np.diag([1.0, 2.0]), 1.0, 0.4, m)
        assert diag.quadrature_err == pytest.approx(1.0 / (2.5 ** m - 1.0),
                                                    rel=1e-12)
        errs.append(diag.quadrature_err)
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_riesz_cli_passes_a_weighted_input_the_dense_route_failed(tmp_path,
                                                                 capsys):
    """n = 64, cond(A) = 6.4e3: the dense route reported plus_res 1.5e-8
    and exited 1 although Q was within 1e-15 of the exact projector.
    plus_res now measures only the rounding of the A^{-1} . A similarity.
    Over 300 calls like this one (n = 64 and 96, the weights of
    rand.random_pd_weight) it was at most 0.5 u cond(A) max(1, |Q|_2)^2,
    hence c = 8."""
    rng = rand.trial_rng(64, 85)
    t, exact = _planted(rng, 64, 2.0)
    weight = rand.random_pd_weight(rng, 64)
    argv = ["riesz", "--lambda", "2.0", "--eps", "0.4", "--m", "64"]
    for flag, m in (("--t", t), ("--weight", weight)):
        path = tmp_path / f"{flag[2:]}.txt"
        matio.dump_matrix(m, path)
        argv += [flag, f"file:{path}"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    q = np.array(out["q"]) @ np.array([1.0, 1j])
    assert _spec_norm(q - exact) <= 1e-8 * _spec_norm(exact)
    assert out["plus_res"] <= 8 * np.finfo(float).eps \
        * np.linalg.cond(weight) * max(1.0, _spec_norm(q)) ** 2
