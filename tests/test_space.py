"""Core space behavior: constructors, inner products, plus-adjoints, norms."""

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
)
from twonorm.space import _spec_norm


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
    """Validation reads the eigenvalues the space caches."""
    calls = []

    def counted(name):
        fn = getattr(la, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(la, name, counted(name))
    tn.make_space(4, np.diag([1.0, 0.5, 0.25, 0.125]))
    tn.make_space(4, np.eye(4), enorm="trace")
    assert calls == ["eigh", "eigh"]


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


def test_plus_adjoint_fixes_identity():
    rng = rand.trial_rng(2, 300)
    ws = rand.random_space(rng, 4)
    assert np.allclose(ws.plus_matrix(np.eye(4)), np.eye(4), atol=1e-12)


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
    rep = tn.gz_bound_check(model.ws, tn.left_mult(model, rand._complex_gauss(rng, 2, 2)).matrix)
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
def test_trace_norm_estimate_matches_serial_ascent(k):
    """The stacked ascent lands where the one-restart-at-a-time ascent
    does, to rounding, on each kind of map."""
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
    m = rand._complex_gauss(rand.trial_rng(41, 99), 9, 9)
    assert tn.trace_opnorm_estimate(model.ws, np.zeros((9, 9))) == 0.0
    assert tn.trace_opnorm_estimate(model.ws, m, restarts=0) == 0.0
    assert tn.trace_opnorm_estimate(model.ws, m, iters=0) == 0.0
    scalar = tn.matrix_space(1)
    est = tn.trace_opnorm_estimate(scalar.ws, np.array([[3.0 - 4.0j]]))
    assert est == pytest.approx(5.0, rel=1e-14)
    with pytest.raises(DimMismatch):
        tn.trace_opnorm_estimate(tn.make_space(4, np.eye(4)), np.eye(4))


def test_trace_norm_estimate_stacks_its_restarts(monkeypatch):
    """Each ascent step takes one stacked SVD of the outputs and one of
    the pulled-back certificates, whatever the number of restarts."""
    model = tn.matrix_space(4)
    z = rand._complex_gauss(rand.trial_rng(41, 98), 4, 4)
    calls = {}

    def count(owner, key):
        fn = owner.svd

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, "svd", counted)

    count(la, "scipy")
    count(np.linalg, "numpy")
    tn.adz_norm_check(model, z)
    assert sum(calls.values()) <= 2 * space.ESTIMATE_ITERS, calls
    assert "scipy" not in calls


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
