"""Core space behavior: constructors, inner products, plus-adjoints, norms."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

import twonorm as tn
from twonorm import rand, space
from twonorm.errors import (
    DimMismatch,
    NonIdentityWeightForTrace,
    NormCapViolated,
    NotPositiveDefinite,
    TwoNormError,
)
from twonorm.space import _require, _spec_norm

from conftest import count_calls


def _serial_ascent(ws, m, restarts=space.ESTIMATE_RESTARTS,
                   iters=space.ESTIMATE_ITERS):
    """Reference for ``trace_opnorm_estimate``: the same ascent, one
    restart after another, one vector at a time.

    Returns the best objective and whether every restart stopped on its
    own rule before ``iters`` steps ran out.
    """
    k = ws.block_dim
    rng = np.random.default_rng(space._ESTIMATE_SEED)
    best, all_stopped = 0.0, True
    for _ in range(restarts):
        u = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        prev, stopped = -np.inf, False
        for _ in range(iters):
            y = tn.unvec(m @ tn.vec(np.outer(u, v.conj())), k)
            uy, sy, vhy = la.svd(y)
            obj = float(sy.sum())
            if obj <= prev * (1.0 + 1e-13) + 1e-300:
                stopped = True
                break
            prev = obj
            pulled = tn.unvec(m.conj().T @ tn.vec(uy @ vhy), k)
            up, _, vhp = la.svd(pulled)
            u = up[:, 0]
            v = vhp[0].conj()
        all_stopped = all_stopped and stopped
        best = max(best, prev)
    return best, all_stopped


def test_make_space_rejects_indefinite_weight():
    with pytest.raises(NotPositiveDefinite):
        tn.make_space(2, np.diag([1.0, -1.0]))


def test_make_space_rejects_weight_above_unit_norm():
    with pytest.raises(NormCapViolated):
        tn.make_space(2, 1.5 * np.eye(2))


def test_make_space_rejects_nonpositive_dim():
    with pytest.raises(DimMismatch):
        tn.make_space(0, np.zeros((0, 0)))


def test_make_space_rejects_unknown_tag():
    with pytest.raises(ValueError):
        tn.make_space(2, np.eye(2), enorm="nuclear")


def test_trace_tag_needs_square_dim():
    with pytest.raises(DimMismatch):
        tn.make_space(5, np.eye(5), enorm="trace")


def test_trace_tag_needs_identity_weight():
    with pytest.raises(NonIdentityWeightForTrace):
        tn.make_space(4, np.diag([1.0, 0.5, 0.5, 1.0]), enorm="trace")


def test_make_space_factors_the_weight_once(monkeypatch):
    """Validation reads the eigenvalues from what the space keeps: a
    diagonal weight, the identity of a trace-tag space included, is read
    from its diagonal, and a dense weight takes one ``eigh``."""
    names = ("eigh", "eigvalsh")
    calls = count_calls(monkeypatch, {la: names, np.linalg: names})
    tn.make_space(4, np.diag([1.0, 0.5, 0.25, 0.125]))
    tn.make_space(4, np.eye(4), enorm="trace")
    assert calls == {}
    tn.make_space(4, rand.random_pd_weight(rand.trial_rng(1, 2), 4))
    assert calls == {"numpy.linalg.eigh": 1}


def _eigh_space(n, weight):
    """The space :func:`make_space` builds, its weight factored by ``eigh``
    as for a dense weight: the oracle of the diagonal and drawn routes."""
    a = tn.make_space(n, weight).weight
    return tn.WeightedSpace(n, a, "euclid", *np.linalg.eigh(a))


def test_make_space_keeps_the_symmetrized_weight_and_its_factors():
    """The stored weight is ``(A + A*) / 2`` of the input bit for bit and
    read-only on every route; its factors are ``eigh`` of that weight when
    it is dense and its diagonal, with no eigenvectors, when it is not."""
    rng = rand.trial_rng(7, 0)
    dense = 0.9 * rand.random_pd_weight(rng, 6)
    dense[0, 1] += 1e-3
    diagonal = np.diag([0.5, 1.0, 0.25, 0.5])
    for weight, enorm in ((dense, "euclid"), (diagonal, "euclid"),
                          (np.eye(4), "trace")):
        ws = tn.make_space(len(weight), weight, enorm)
        a = np.array(weight, dtype=complex)
        a = (a + a.conj().T) / 2.0
        assert np.array_equal(ws.weight, a)
        assert not ws.weight.flags.writeable
        if weight is dense:
            evals, evecs = np.linalg.eigh(a)
            assert np.array_equal(ws._evals, evals)
            assert np.array_equal(ws._evecs, evecs)
        else:
            assert np.array_equal(ws._evals, np.diagonal(weight))
            assert ws._evecs is None


def test_make_space_holds_few_copies_of_a_dense_weight():
    """On a dense n = 256 weight ``make_space`` keeps at most 3.5 n x n
    complex arrays alive at once: the validated copy, its symmetrization
    and what ``eigh`` takes and returns (3.2 measured; 4.2 when the
    constructor made one more copy to factor)."""
    n = 256
    weight = rand.random_pd_weight(rand.trial_rng(11, 0), n)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tn.make_space(n, weight)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 3.5 * 16 * n * n


# diagonal weights whose entries repeat, come unsorted and reach down to
# the positivity floor
_DIAGONALS = st.lists(
    st.sampled_from([1.0, 0.5, 0.5, 0.25, 0.3, 1e-3, 3e-12, 2e-12,
                     1.0 - 1e-13]),
    min_size=1, max_size=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(entries=_DIAGONALS, seed=st.integers(0, 2 ** 16))
def test_diagonal_weight_route_matches_eigh(entries, seed):
    """A diagonal weight is read from its diagonal, with no ``eigh``.
    Entries repeat, come unsorted and reach down to the positivity floor.

    ``eigh`` returns a signed permutation as eigenvectors and, except at
    n = 2, the diagonal exactly; then the plus-adjoint and the condition
    number do not move by a bit.  At n = 2 its closed-form 2 x 2
    eigenvalues (LAPACK ``dlaev2``) round by up to an ulp, and so do the
    figures read from them.  The weighted norm is the spectral norm of the
    weighted coordinates permuted by the eigenvector order: with distinct
    eigenvalues read exactly both routes take one order and it is bitwise
    equal.  Tied entries ``eigh`` orders by a selection sort and the
    diagonal route stably, so the SVD sees two permutations of one matrix;
    over 1000 draws of this ensemble they differed by at most 2.7 u
    relative, hence 8 u for every comparison."""
    n = len(entries)
    weight = np.diag(entries)
    ws, ref = tn.make_space(n, weight), _eigh_space(n, weight)
    exact = np.array_equal(ref._evals, np.sort(entries))
    assert exact or n == 2
    m = rand._complex_gauss(rand.trial_rng(23, seed), n, n)
    tol = 8 * np.finfo(float).eps
    plus, ref_plus = ws.plus_matrix(m), ref.plus_matrix(m)
    norm, ref_norm = tn.opnorm(ws, m, "L"), tn.opnorm(ref, m, "L")
    if exact:
        assert np.array_equal(plus, ref_plus)
        assert ws.weight_cond == ref.weight_cond
        if len(set(entries)) == n:
            assert norm == ref_norm
    assert (np.abs(plus - ref_plus) <= tol * np.abs(ref_plus)).all()
    assert abs(ws.weight_cond - ref.weight_cond) <= tol * ref.weight_cond
    assert abs(norm - ref_norm) <= tol * ref_norm


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class and message it raised."""
    try:
        return fn(*args)
    except (TwoNormError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(entries=_DIAGONALS, r=st.integers(0, 12), seed=st.integers(0, 2 ** 16))
def test_diagonal_weight_applies_as_the_eigh_route(entries, r, seed):
    """Scaling rows and columns by a diagonal weight gives bit for bit the
    products with the stored weight that a dense weight takes: the inner
    product, the weighted complement, the canonical projection and the
    finite-rank projection agree with the ``eigh`` oracle exactly, or raise
    the same error near the floor.  ``plus_factored`` reads the
    eigenvalues, which ``eigh`` returns exactly except at n = 2 (see
    :func:`test_diagonal_weight_route_matches_eigh`); there it may move by
    the rounding of ``(A^-1 Z) S* (A Z)*`` under a one-ulp change of the
    weight."""
    n = len(entries)
    r = min(r, n)
    weight = np.diag(entries)
    ws, ref = tn.make_space(n, weight), _eigh_space(n, weight)
    rng = rand.trial_rng(31, seed)
    f, g = rand._complex_gauss(rng, n), rand._complex_gauss(rng, n)
    assert ws.inner(f, g) == ref.inner(f, g)
    s = rand.random_subspace(rng, ws, r)
    assert np.array_equal(tn.complement_L(ws, s).basis,
                          tn.complement_L(ref, s).basis)
    fams = rand.random_biorthogonal_system(rng, ws, r)
    for build, args in ((tn.compat_projection, (s,)),
                        (tn.finite_rank_proper_projection, fams)):
        got, want = _outcome(build, ws, *args), _outcome(build, ref, *args)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got.p.matrix, want.p.matrix)
            assert np.array_equal(got.p_plus.matrix, want.p_plus.matrix)
    z, sm = (rand._complex_gauss(rng, n, n) for _ in range(2))
    plus, ref_plus = ws.plus_factored(z, sm), ref.plus_factored(z, sm)
    if np.array_equal(ref._evals, np.sort(entries)):
        assert np.array_equal(plus, ref_plus)
    d = np.array(entries)[:, np.newaxis]
    tol = 8 * np.finfo(float).eps * _spec_norm(z / d) * _spec_norm(sm) \
        * _spec_norm(z * d)
    assert _spec_norm(plus - ref_plus) <= tol


@pytest.mark.parametrize("draw", [rand.random_space, rand.random_pd_weight])
@pytest.mark.parametrize("n", [0, -1])
def test_random_weight_rejects_a_nonpositive_dim(draw, n):
    with pytest.raises(DimMismatch,
                       match=f"space dimension must be positive, got {n}$"):
        draw(rand.trial_rng(5, 0), n)


def _reference_pd_weight(rng, n):
    """:func:`rand.random_pd_weight` written out in full: the reference its
    output and its draws are held to."""
    u = rand.haar_unitary(rng, n)
    d = np.exp(rng.uniform(np.log(rand.WEIGHT_FLOOR), 0.0, size=n))
    d = d / d.max()
    a = (u * d) @ u.conj().T
    return (a + a.conj().T) / 2.0


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_random_pd_weight_draws_as_its_reference(n, seed):
    """The weight and what is left of the stream agree bit for bit."""
    rng, ref_rng = rand.trial_rng(37, seed), rand.trial_rng(37, seed)
    assert np.array_equal(rand.random_pd_weight(rng, n),
                          _reference_pd_weight(ref_rng, n))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_random_space_keeps_its_drawn_eigenpairs(n, seed):
    """A drawn space stores the weight ``make_space`` would, bit for bit,
    and keeps the eigenpairs it was drawn from, sorted ascending as ``eigh``
    returns them; the ``eigh`` route on that weight is the oracle.

    With ``u`` the unit roundoff, ``kappa`` the weight's condition number
    and the constants measured over 3000 draws of this ensemble (n = 1-12):
    ``|U diag(d) U* - A|_2 <= n u`` (worst 0.36); the condition numbers
    agree to ``16 n u kappa`` relative (worst 3.7); ``|M|_L`` to ``64 n u
    kappa |M|_2`` (worst 21.9).  The plus-adjoint agrees to ``32 n u kappa
    |M+|_2`` (worst 8.1), not ``|M|_2``: the stored weight is the drawn one
    rounded by about n u, and ``A^-1 M* A`` moves by up to ``kappa^2 |M|``
    times that (2100 n u kappa |M|_2 over the same draws)."""
    ws = rand.random_space(rand.trial_rng(41, seed), n)
    weight = rand.random_pd_weight(rand.trial_rng(41, seed), n)
    assert np.array_equal(ws.weight, tn.make_space(n, weight).weight)
    ref = _eigh_space(n, ws.weight)
    scale = n * np.finfo(float).eps
    u, d = ws._evecs, ws._evals
    assert np.all(np.diff(d) >= 0.0)
    assert _spec_norm((u * d) @ u.conj().T - ws.weight) <= scale
    kappa = ref.weight_cond
    assert abs(ws.weight_cond - kappa) <= 16 * scale * kappa * kappa
    m = rand._complex_gauss(rand.trial_rng(43, seed), n, n)
    ref_plus = ref.plus_matrix(m)
    assert _spec_norm(ws.plus_matrix(m) - ref_plus) \
        <= 32 * scale * kappa * _spec_norm(ref_plus)
    assert abs(tn.opnorm(ws, m, "L") - tn.opnorm(ref, m, "L")) \
        <= 64 * scale * kappa * _spec_norm(m)


def test_random_instances_take_no_eigensolve_or_svd(monkeypatch):
    """A drawn space keeps its eigenpairs and a drawn subspace the unitary
    factor of a QR; ``make_space`` on the same weight takes its ``eigh``."""
    names = ("eigh", "eigvalsh", "svd", "svdvals")
    calls = count_calls(monkeypatch, {la: names, np.linalg: names})
    rng = rand.trial_rng(3, 0)
    ws = rand.random_space(rng, 6)
    for r in (0, 1, 5, 6):
        rand.random_subspace(rng, ws, r)
    assert calls == {}
    tn.make_space(6, ws.weight)
    assert calls == {"numpy.linalg.eigh": 1}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_space_rejects_a_non_finite_weight(bad):
    """The weight's finiteness is checked before it is symmetrized: a
    diagonal weight never reaches ``eigh``, and numpy's ``eigh`` has no
    finiteness check, so a dense one would fail there as a convergence
    error."""
    dense = np.full((3, 3), 0.1) + 0.5 * np.eye(3)
    dense[0, 2] = bad
    for weight in (np.diag([1.0, bad]), dense):
        with pytest.raises(ValueError, match="^weight must have finite"):
            tn.make_space(len(weight), weight)


def test_make_space_symmetrizes_input():
    ws = tn.make_space(2, np.array([[1.0, 0.1], [0.0, 1.0]]) * 0.9)
    dev = np.abs(ws.weight - ws.weight.conj().T).max()
    assert dev == 0.0


def test_inner_matches_plain_dot_for_identity_weight():
    ws = tn.make_space(3, np.eye(3))
    rng = rand.trial_rng(1, 0)
    f = rand._complex_gauss(rng, 3)
    g = rand._complex_gauss(rng, 3)
    assert ws.inner(f, g) == pytest.approx(np.vdot(g, f), abs=1e-14)


def test_inner_matches_double_sum_oracle():
    """Compare against an explicit summation of conj(g_j) A_jk f_k."""
    rng = rand.trial_rng(1, 1)
    ws = rand.random_space(rng, 5)
    f = rand._complex_gauss(rng, 5)
    g = rand._complex_gauss(rng, 5)
    acc = 0.0 + 0.0j
    for j in range(5):
        for k in range(5):
            acc += np.conj(g[j]) * ws.weight[j, k] * f[k]
    assert ws.inner(f, g) == pytest.approx(acc, abs=1e-12)


def test_inner_rejects_wrong_length():
    ws = tn.make_space(3, np.eye(3))
    with pytest.raises(DimMismatch):
        ws.inner(np.ones(4), np.ones(3))


def test_plus_adjoint_frozen_two_by_two():
    # Weight diag(1, 1/4), shift T = e1 e2^*.  The plus-adjoint picks up
    # the weight ratio: T+ = inv(A) T^* A = 4 e2 e1^*.
    ws = tn.make_space(2, np.diag([1.0, 0.25]))
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    tp = tn.plus_adjoint(ws, t).matrix
    assert np.allclose(tp, np.array([[0.0, 0.0], [4.0, 0.0]]), atol=1e-14)
    assert tn.opnorm(ws, t, "L") == pytest.approx(2.0, abs=1e-12)
    assert tn.proper_norm(ws, t) == pytest.approx(5.0, abs=1e-12)
    assert not tn.is_symmetrizable(ws, t)


def test_plus_adjoint_reduces_to_conjugate_transpose_for_identity():
    rng = rand.trial_rng(1, 2)
    ws = tn.make_space(6, np.eye(6))
    t = rand.random_operator(rng, ws)
    assert np.allclose(tn.plus_adjoint(ws, t).matrix, t.conj().T, atol=1e-12)


def test_plus_adjoint_defining_identity_on_basis_pairs():
    for trial in range(10):
        rng = rand.trial_rng(2, trial)
        ws = rand.random_space(rng, 6)
        t = rand.random_operator(rng, ws)
        tp = ws.plus_matrix(t)
        lhs = ws.weight @ t
        rhs = tp.conj().T @ ws.weight
        scale = _spec_norm(t) * _spec_norm(np.asarray(ws.weight))
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_plus_adjoint_is_an_involution():
    for trial in range(10):
        rng = rand.trial_rng(2, 100 + trial)
        ws = rand.random_space(rng, 6)
        t = rand.random_operator(rng, ws)
        back = ws.plus_matrix(ws.plus_matrix(t))
        assert _spec_norm(back - t) <= 1e-8 * _spec_norm(t)


def test_plus_adjoint_reverses_products():
    rng = rand.trial_rng(2, 200)
    ws = rand.random_space(rng, 5)
    s = rand.random_operator(rng, ws)
    t = rand.random_operator(rng, ws)
    lhs = ws.plus_matrix(s @ t)
    rhs = ws.plus_matrix(t) @ ws.plus_matrix(s)
    assert _spec_norm(lhs - rhs) <= 1e-9 * _spec_norm(s) * _spec_norm(t)


@pytest.mark.parametrize("trial", range(10))
def test_plus_factored_matches_the_formed_plus_adjoint(trial):
    """Over 200 draws the distance was at most 1.3 n u cond(A) |S|_2."""
    rng = rand.trial_rng(2, 400 + trial)
    n = int(rng.integers(1, 12))
    ws = rand.random_space(rng, n)
    z = rand.haar_unitary(rng, n)
    s = np.triu(rand.random_operator(rng, ws))
    formed = ws.plus_matrix(z @ s @ z.conj().T)
    assert _spec_norm(ws.plus_factored(z, s) - formed) \
        <= 8 * n * np.finfo(float).eps * ws.weight_cond * _spec_norm(s)


def test_plus_adjoint_fixes_identity():
    rng = rand.trial_rng(2, 300)
    ws = rand.random_space(rng, 4)
    assert np.allclose(ws.plus_matrix(np.eye(4)), np.eye(4), atol=1e-12)


def _operator_on_a_tilted_space():
    """``triu(ones(3))`` as an Operator on the weight diag(1, 1/2, 1/4)."""
    ws1 = tn.make_space(3, np.diag([1.0, 0.5, 0.25]))
    t = np.triu(np.ones((3, 3)))
    return t, tn.Operator(t, ws1)


def test_operator_on_another_space_is_read_in_the_given_one():
    """An Operator passed with another space of its size is its matrix on
    that space: its cached plus-adjoint, which belongs to its own weight,
    is not reused.  On diag(1, 1/2, 1/4) the proper norm of ``triu(ones(3))``
    is about 7.403, on the identity weight about 4.494."""
    t, op = _operator_on_a_tilted_space()
    ws2 = tn.make_space(3, np.eye(3))
    assert tn.proper_norm(ws2, op) == tn.proper_norm(ws2, t)
    assert tn.proper_norm(ws2, op) == pytest.approx(4.494, abs=1e-3)
    plus = tn.plus_adjoint(ws2, op)
    assert plus.space is ws2
    assert np.array_equal(plus.matrix, t.T)
    assert tn.plus_adjoint(op.space, op) is op.plus


@pytest.mark.parametrize("call", [
    tn.proper_norm,
    tn.plus_adjoint,
    tn.spectrum,
    lambda ws, t: tn.opnorm(ws, t, "E"),
    lambda ws, t: tn.opnorm(ws, t, "L"),
    tn.gz_bound_check,
], ids=["proper_norm", "plus_adjoint", "spectrum", "opnorm_E", "opnorm_L",
        "gz_bound_check"])
def test_operator_on_a_space_of_another_size_raises_dim_mismatch(call):
    _, op = _operator_on_a_tilted_space()
    with pytest.raises(DimMismatch, match=r"must be 4 x 4, got shape \(3, 3\)"):
        call(tn.make_space(4, np.eye(4)), op)


def test_symmetrizable_detects_weighted_hermitian():
    rng = rand.trial_rng(3, 0)
    ws = rand.random_space(rng, 5)
    h = rand._complex_gauss(rng, 5, 5)
    h = h + h.conj().T
    assert tn.is_symmetrizable(ws, np.linalg.solve(ws.weight, h))


def test_isometry_detection():
    """exp(i X) preserves the weighted inner product when X is symmetrizable."""
    rng = rand.trial_rng(3, 1)
    ws = rand.random_space(rng, 5)
    h = rand._complex_gauss(rng, 5, 5)
    h = h + h.conj().T
    x = np.linalg.solve(ws.weight, h)
    assert tn.is_L_isometric(ws, la.expm(1j * x))
    assert not tn.is_L_isometric(ws, 2.0 * np.eye(5))


def test_isometry_reduces_to_unitarity_for_identity_weight():
    rng = rand.trial_rng(3, 2)
    ws = tn.make_space(5, np.eye(5))
    assert tn.is_L_isometric(ws, rand.haar_unitary(rng, 5))


def test_gz_report_on_scalars():
    ws = tn.make_space(2, np.eye(2))
    rep = tn.gz_bound_check(ws, np.eye(2))
    assert rep.holds and rep.lhs == pytest.approx(1.0, abs=1e-12)
    rep = tn.gz_bound_check(ws, 2.0 * np.eye(2))
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(4.0, abs=1e-12)
    assert not rep.advisory


def test_gz_bound_holds_on_random_instances():
    for trial in range(20):
        rng = rand.trial_rng(5, trial)
        ws = rand.random_space(rng, 8)
        t = rand.random_operator(rng, ws)
        rep = tn.gz_bound_check(ws, t)
        assert rep.holds, f"trial {trial}: lhs {rep.lhs} rhs {rep.rhs}"


def test_opnorm_of_identity_both_tags():
    ws = tn.make_space(3, np.eye(3))
    assert tn.opnorm(ws, np.eye(3), "E") == pytest.approx(1.0, abs=1e-12)
    model = tn.matrix_space(3)
    est = tn.opnorm(model.ws, np.eye(9), "E")
    assert est == pytest.approx(1.0, abs=1e-9)


def test_trace_norm_estimate_attains_singular_value_product():
    """The trace 1->1 norm of x -> a x b equals sigma1(a) sigma1(b).

    Rank-one inputs aligned with the top singular pairs attain it, so the
    ascent estimate should land on the product, not merely below it.
    """
    model = tn.matrix_space(3)
    for trial in range(5):
        rng = rand.trial_rng(9, trial)
        a = rand._complex_gauss(rng, 3, 3)
        b = rand._complex_gauss(rng, 3, 3)
        exact = la.svdvals(a)[0] * la.svdvals(b)[0]
        est = tn.opnorm(model.ws, tn.two_sided_mult(model, a, b).matrix, "E")
        assert abs(est - exact) <= 1e-8 * exact


def test_gz_advisory_flag_set_for_trace_tag():
    model = tn.matrix_space(2)
    rng = rand.trial_rng(9, 50)
    a = rand._complex_gauss(rng, 2, 2)
    rep = tn.gz_bound_check(model.ws, tn.two_sided_mult(model, a, np.eye(2)).matrix)
    assert rep.advisory


def test_weight_cond_and_block_dim_props():
    ws = tn.make_space(4, np.diag([1.0, 0.5, 0.25, 0.125]))
    assert ws.weight_cond == pytest.approx(8.0, rel=1e-12)
    model = tn.matrix_space(3)
    assert model.ws.block_dim == 3


def _random_superops(model, rng):
    """One two-sided multiplication, one sandwich and one dense map."""
    k = model.k
    a = rand._complex_gauss(rng, k, k)
    b = rand._complex_gauss(rng, k, k)
    return {
        "two_sided_mult": tn.two_sided_mult(model, a, b).matrix,
        "sandwich": tn.sandwich(model, a).matrix,
        "dense": rand._complex_gauss(rng, k * k, k * k),
    }


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_trace_norm_estimate_matches_serial_ascent(k, monkeypatch):
    """The stacked ascent lands where the one-restart-at-a-time ascent
    does, to rounding, on each kind of map.  The certificate is switched
    off, so that elementary maps run the ascent too."""
    monkeypatch.setattr(space, "_elementary_certificate", lambda m, k: None)
    model = tn.matrix_space(k)
    checked = {"two_sided_mult": 0, "sandwich": 0, "dense": 0}
    for trial in range(6):
        maps = _random_superops(model, rand.trial_rng(41, 10 * k + trial))
        for kind, m in maps.items():
            ref, all_stopped = _serial_ascent(model.ws, m)
            if kind == "dense" and not all_stopped:
                # a restart cut off mid-ascent compares trajectories, not
                # limits; dense maps are compared where all restarts settle
                continue
            est = tn.trace_opnorm_estimate(model.ws, m)
            assert abs(est - ref) <= 1e-10 * ref, (kind, trial, est, ref)
            checked[kind] += 1
    assert min(checked.values()) >= 3, checked


def test_trace_norm_estimate_edge_cases():
    model = tn.matrix_space(3)
    assert tn.trace_opnorm_estimate(model.ws, np.zeros((9, 9))) == 0.0
    scalar = tn.matrix_space(1)
    est = tn.trace_opnorm_estimate(scalar.ws, np.array([[3.0 - 4.0j]]))
    assert est == pytest.approx(5.0, rel=1e-14)
    with pytest.raises(DimMismatch):
        tn.trace_opnorm_estimate(tn.make_space(4, np.eye(4)), np.eye(4))


def _record_svd_ndims(monkeypatch):
    """Wrap ``np.linalg.svd`` and return the list of its inputs' ndims."""
    ndims = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        ndims.append(np.ndim(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return ndims


def test_trace_norm_estimate_stacks_its_restarts(monkeypatch):
    """Each ascent step takes one stacked SVD of the outputs and one of
    the pulled-back certificates, whatever the number of restarts.  A
    dense map leaves the certificate open, after its three k x k SVDs."""
    model = tn.matrix_space(4)
    m = rand._complex_gauss(rand.trial_rng(41, 98), 16, 16)
    scipy_calls = count_calls(monkeypatch, {la: ["svd"]})
    ndims = _record_svd_ndims(monkeypatch)
    tn.trace_opnorm_estimate(model.ws, m)
    assert ndims[:3] == [2, 2, 2]
    assert set(ndims[3:]) == {3}
    assert 2 <= len(ndims) - 3 <= 2 * space.ESTIMATE_ITERS, len(ndims)
    assert not scipy_calls


_GAUSS_INT = st.builds(complex, st.integers(-4, 4), st.integers(-4, 4))


def _gauss_int_matrix(draw, n):
    entries = draw(st.lists(_GAUSS_INT, min_size=n * n, max_size=n * n))
    return np.array(entries, dtype=complex).reshape(n, n)


@st.composite
def _superop_draw(draw):
    """Side k, two k x k factors and a dense k^2 x k^2 map, all with
    Gaussian-integer entries."""
    k = draw(st.integers(1, 4))
    return (k, _gauss_int_matrix(draw, k), _gauss_int_matrix(draw, k),
            _gauss_int_matrix(draw, k * k))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(_superop_draw())
def test_trace_norm_estimate_properties(drawn):
    """Attains sigma1(a) sigma1(b) on x -> a x b, never exceeds the
    certified bound sqrt(k) |T|_2 on a dense map, and repeats bitwise."""
    k, a, b, t = drawn
    model = tn.matrix_space(k)
    exact = la.svdvals(a)[0] * la.svdvals(b)[0]
    est = tn.trace_opnorm_estimate(
        model.ws, tn.two_sided_mult(model, a, b).matrix)
    assert abs(est - exact) <= 1e-8 * exact
    est = tn.trace_opnorm_estimate(model.ws, t)
    assert est <= np.sqrt(k) * _spec_norm(t) * (1.0 + 1e-12)
    assert tn.trace_opnorm_estimate(model.ws, t) == est


@st.composite
def _factor_pair(draw, k):
    """Two k x k factors with Gaussian-integer entries."""
    return _gauss_int_matrix(draw, k), _gauss_int_matrix(draw, k)


@pytest.mark.parametrize("k", range(1, 9))
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(data=st.data())
def test_trace_norm_estimate_certifies_elementary_maps(k, data):
    """On x -> a x b, the sandwich x -> a* x a and the products T+ T and
    T T+ the certificate closes: no stacked SVD runs, and the value is
    within 16 k^2 u of s1(a) s1(b), s1(a)^2 or their square.  The zero
    operator gives 0.0, and k = 1 gives |m_00|."""
    a, b = data.draw(_factor_pair(k))
    model = tn.matrix_space(k)
    t = tn.two_sided_mult(model, a, b)
    sa, sb = la.svdvals(a)[0], la.svdvals(b)[0]
    cases = [(t.matrix, sa * sb), (tn.sandwich(model, a).matrix, sa * sa),
             (t.plus.matrix @ t.matrix, (sa * sb) ** 2),
             (t.matrix @ t.plus.matrix, (sa * sb) ** 2)]
    if k == 1:
        cases.append((t.matrix, abs(t.matrix[0, 0])))
    tol = 16 * k * k * np.finfo(float).eps
    with pytest.MonkeyPatch.context() as mp:
        ndims = _record_svd_ndims(mp)
        for m, exact in cases:
            est = tn.trace_opnorm_estimate(model.ws, m)
            assert abs(est - exact) <= tol * exact, (est, exact)
        assert tn.trace_opnorm_estimate(
            model.ws, np.zeros((k * k, k * k))) == 0.0
    assert 3 not in ndims


@pytest.mark.parametrize("k", range(2, 9))
@settings(derandomize=True, database=None, deadline=None, max_examples=2)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_trace_norm_estimate_is_the_ascent_off_elementary_maps(k, seed):
    """A dense map, and x -> a x b plus a perturbation of relative size
    1e-8, leave the certificate open: the value is the ascent's, bit for
    bit."""
    rng = np.random.default_rng(seed)
    model = tn.matrix_space(k)
    t = tn.two_sided_mult(model, rand._complex_gauss(rng, k, k),
                          rand._complex_gauss(rng, k, k)).matrix
    dense = rand._complex_gauss(rng, k * k, k * k)
    perturbed = t + 1e-8 * _spec_norm(t) * dense / _spec_norm(dense)
    for m in (dense, perturbed):
        assert space._elementary_certificate(m, k) is None
        est = tn.trace_opnorm_estimate(model.ws, m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space, "_elementary_certificate", lambda m, k: None)
            assert tn.trace_opnorm_estimate(model.ws, m) == est


def test_require_reports_the_residual_against_its_tolerance():
    """A matrix residual is measured by its spectral norm, a scalar is
    used as given, and the message names both figures."""
    _require(np.diag([1e-9, -2e-9]), 2e-9, "within")
    _require(0.5, 0.5, "at the tolerance")
    with pytest.raises(ArithmeticError,
                       match=r"^routes disagree \(3\.000e-09 > 2\.000e-09\)$"):
        _require(np.diag([1e-9, -3e-9]), 2e-9, "routes disagree")
    with pytest.raises(ValueError,
                       match=r"^bad input \(1\.500e\+00 > 1\.000e\+00\)$"):
        _require(1.5, 1.0, "bad input", ValueError)
    _require(np.zeros((0, 0)), 0.0, "empty")


def test_require_takes_the_spectral_norm_only_past_the_frobenius_bound(
        monkeypatch):
    """A matrix residual whose Frobenius norm is within the tolerance passes
    with no spectral norm (no SVD).  Past that bound the spectral norm
    decides, so a residual with |x|_2 <= tol < |x|_F still passes, and a
    failure reports the exact |x|_2."""
    calls = count_calls(monkeypatch, {space: ("_spec_norm",)})
    _require(np.diag([1e-9, -1e-9]), 1.5e-9, "frobenius within")
    assert calls == {}
    x = np.diag([1e-9, 1e-9, 1e-9])
    assert _spec_norm(x) <= 1.2e-9 < np.linalg.norm(x)
    calls.clear()
    _require(x, 1.2e-9, "spectral within")
    assert calls == {"twonorm.space._spec_norm": 1}
    with pytest.raises(ArithmeticError,
                       match=r"^drifted \(2\.000e-09 > 1\.500e-09\)$"):
        _require(np.ones((2, 2)) * 1e-9, 1.5e-9, "drifted")

