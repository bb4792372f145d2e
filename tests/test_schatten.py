"""Superoperators on matrix spaces: multiplications, block projections, margins."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

import twonorm as tn
import twonorm.schatten as schatten
from twonorm import matio, rand
from twonorm.errors import DimMismatch, SingularSystem
from twonorm.space import _spec_norm
from twonorm.subspaces import _projection_range_kernel, _range_kernel

from conftest import rotated_normal


def test_vec_unvec_roundtrip_and_column_order():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = tn.vec(x)
    assert np.allclose(v, [1.0, 3.0, 2.0, 4.0])
    assert np.allclose(tn.unvec(v, 2), x)


def test_multiplication_superoperators_act_correctly():
    model = tn.matrix_space(3)
    rng = rand.trial_rng(40, 0)
    a = rand._complex_gauss(rng, 3, 3)
    b = rand._complex_gauss(rng, 3, 3)
    z = rand._complex_gauss(rng, 3, 3)
    x = rand._complex_gauss(rng, 3, 3)
    v = tn.vec(x)
    assert np.allclose(tn.unvec(tn.left_mult(model, a).matrix @ v, 3), a @ x, atol=1e-12)
    assert np.allclose(tn.unvec(tn.right_mult(model, b).matrix @ v, 3), x @ b, atol=1e-12)
    assert np.allclose(
        tn.unvec(tn.two_sided_mult(model, a, b).matrix @ v, 3), a @ x @ b, atol=1e-12
    )
    got = tn.unvec(tn.sandwich(model, z).matrix @ v, 3)
    assert np.allclose(got, z.conj().T @ x @ z, atol=1e-12)


def test_left_multiplication_spectrum_repeats_coefficient_spectrum():
    model = tn.matrix_space(3)
    rng = rand.trial_rng(40, 1)
    a = rand._complex_gauss(rng, 3, 3)
    evs_a = np.sort_complex(la.eigvals(a))
    evs_l = np.sort_complex(la.eigvals(tn.left_mult(model, a).matrix))
    assert np.allclose(evs_l, np.sort_complex(np.repeat(evs_a, 3)), atol=1e-8)


def test_plus_adjoint_of_left_multiplication():
    model = tn.matrix_space(3)
    rng = rand.trial_rng(40, 2)
    a = rand._complex_gauss(rng, 3, 3)
    lp = tn.plus_adjoint(model.ws, tn.left_mult(model, a)).matrix
    assert _spec_norm(lp - tn.left_mult(model, a.conj().T).matrix) <= 1e-12


def test_plus_adjoint_of_sandwich_swaps_the_coefficient():
    model = tn.matrix_space(3)
    rng = rand.trial_rng(40, 3)
    z = rand._complex_gauss(rng, 3, 3)
    sp = tn.plus_adjoint(model.ws, tn.sandwich(model, z)).matrix
    expect = tn.two_sided_mult(model, z, z.conj().T).matrix
    assert _spec_norm(sp - expect) <= 1e-12


def test_sandwich_eigenvalues_for_a_diagonal_coefficient():
    model = tn.matrix_space(2)
    eigs = np.sort(la.eigvals(tn.sandwich(model, np.diag([2.0, 3.0])).matrix).real)
    assert np.allclose(eigs, [4.0, 6.0, 6.0, 9.0], atol=1e-10)


def test_block_idempotent_is_exactly_idempotent():
    rng = rand.trial_rng(40, 4)
    z = rand._complex_gauss(rng, 3, 3)
    q = tn.block_idempotent(z)
    assert np.array_equal(q @ q, q)
    assert np.linalg.matrix_rank(q) == 3


def test_block_idempotent_with_zero_coupling_is_hermitian():
    q = tn.block_idempotent(np.zeros((2, 2)))
    assert np.array_equal(q, q.conj().T)


def test_block_idempotent_rejects_nonsquare_coupling():
    with pytest.raises(DimMismatch):
        tn.block_idempotent(np.ones((2, 3)))


def test_conjugation_by_block_idempotent_is_idempotent():
    rng = rand.trial_rng(40, 5)
    z = rand._complex_gauss(rng, 2, 2)
    q = tn.block_idempotent(z)
    model = tn.matrix_space(4)
    cq = tn.two_sided_mult(model, q, q).matrix
    assert _spec_norm(cq @ cq - cq) <= 1e-12 * max(1.0, _spec_norm(cq))


def test_z_criterion_frozen_values():
    rep = tn.z_criterion_margin(np.eye(2))
    assert rep.pair_margin == pytest.approx(2.0, abs=1e-12)
    rep = tn.z_criterion_margin(0.5 * np.eye(2))
    assert rep.pair_margin == pytest.approx(1.25, abs=1e-12)
    assert rep.op_margin == pytest.approx(1.25, abs=1e-12)
    rep = tn.z_criterion_margin(np.diag([1.0, -1.0]))
    assert rep.pair_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.op_margin == pytest.approx(0.0, abs=1e-12)
    rep = tn.z_criterion_margin(np.diag([2.0, 3.0]))
    assert rep.pair_margin == pytest.approx(5.0, abs=1e-12)
    assert rep.op_margin == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("trial", range(10))
def test_z_criterion_pair_margin_agrees_with_the_pairwise_loop(trial):
    rng = rand.trial_rng(37, trial)
    z = rand._complex_gauss(rng, 4, 4)
    lam = la.eigvals(z)
    ref = min(abs(1.0 + np.conj(l) * mu) for l in lam for mu in lam)
    # the broadcast product may round differently from the scalar one
    bound = 4 * np.finfo(float).eps * (1.0 + np.abs(lam).max() ** 2)
    assert abs(tn.z_criterion_margin(z).pair_margin - ref) <= bound


def test_z_criterion_margins_agree_for_normal_coefficients():
    for trial in range(10):
        rng = rand.trial_rng(41, 100 + trial)
        u = rand.haar_unitary(rng, 3)
        z = (u * rand._complex_gauss(rng, 3)) @ u.conj().T
        rep = tn.z_criterion_margin(z)
        assert abs(rep.op_margin - rep.pair_margin) <= 1e-8


def test_sylvester_frozen_diagonal_pair():
    res = tn.sylvester(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.ones((2, 2)))
    assert res.solvable
    assert res.margin == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-12


def test_sylvester_margin_equals_eigenvalue_separation_for_normal_pairs():
    for trial in range(8):
        rng = rand.trial_rng(43, trial)
        u1 = rand.haar_unitary(rng, 3)
        u2 = rand.haar_unitary(rng, 3)
        c = (u1 * rand._complex_gauss(rng, 3)) @ u1.conj().T
        d = (u2 * rand._complex_gauss(rng, 3)) @ u2.conj().T
        sep = min(abs(a - b) for a in la.eigvals(c) for b in la.eigvals(d))
        res = tn.sylvester(c, d, np.eye(3))
        assert abs(res.margin - sep) <= 1e-10


def test_sylvester_reports_shared_spectrum_as_unsolvable():
    c = np.diag([1.0, 2.0])
    res = tn.sylvester(c, c, np.eye(2))
    assert not res.solvable
    assert res.margin <= 1e-12


def test_sylvester_force_on_singular_system_raises():
    c = np.diag([1.0, 2.0])
    with pytest.raises(SingularSystem):
        tn.sylvester(c, c, np.eye(2), force=True)


def test_sylvester_rejects_mismatched_shapes():
    with pytest.raises(DimMismatch):
        tn.sylvester(np.eye(2), np.eye(3), np.ones((2, 2)))


def _kronecker_route(c, d, w):
    """The dense oracle: solve and smallest singular value of the flattened
    k^2 x k^2 map ``I (x) c - d^T (x) I``."""
    k = c.shape[0]
    flat = np.kron(np.eye(k), c) - np.kron(d.T, np.eye(k))
    x = tn.unvec(la.solve(flat, tn.vec(w)), k)
    return x, float(la.svdvals(flat)[-1])


def _sylvester_pair(rng, k, normal):
    """Two k x k coefficients: rotated normal ones with complex Gaussian
    spectra, or plain complex Gaussian (non-normal) ones."""
    if normal:
        return rotated_normal(rng, k), rotated_normal(rng, k)
    return rand._complex_gauss(rng, k, k), rand._complex_gauss(rng, k, k)


def _check_against_kronecker(c, d, w):
    """The margin against the oracle's smallest singular value, and the
    residual against the CLI's default ``--tol`` rule.

    Both margins are backward stable: each is within a few
    ``eps |M|_2 <= eps (|c|_2 + |d|_2)`` of the exact smallest singular
    value of ``M: x -> c x - x d``.  Relative to that value the bound
    therefore scales with the conditioning ``(|c|_2 + |d|_2) / margin``.
    """
    res = tn.sylvester(c, d, w)
    _, oracle = _kronecker_route(c, d, w)
    scale = _spec_norm(c) + _spec_norm(d)
    rel_bound = 8 * np.finfo(float).eps * scale / oracle
    assert abs(res.margin - oracle) <= rel_bound * oracle
    if res.solvable:
        assert res.residual <= 1e-9 * (1.0 + _spec_norm(w))
    else:
        assert res.margin <= schatten.TOL_SPEC


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(k=st.integers(1, 8), normal=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sylvester_matches_the_kronecker_oracle(k, normal, seed):
    rng = rand.trial_rng(seed, k)
    c, d = _sylvester_pair(rng, k, normal)
    _check_against_kronecker(c, d, rand._complex_gauss(rng, k, k))


@pytest.mark.parametrize("k", [12, 16, 20])
@pytest.mark.parametrize("normal", [True, False])
def test_sylvester_matches_the_kronecker_oracle_at_larger_sides(k, normal):
    for trial in range(2):
        rng = rand.trial_rng(53, 100 * k + trial)
        c, d = _sylvester_pair(rng, k, normal)
        _check_against_kronecker(c, d, rand._complex_gauss(rng, k, k))


def _disc(rng, k, centre, radius):
    """k points uniform in the disc of ``radius`` around ``centre``."""
    return centre + radius * np.sqrt(rng.uniform(size=k)) * np.exp(
        2j * np.pi * rng.uniform(size=k))


@pytest.mark.parametrize("k", [16, 20, 32])
def test_sylvester_margin_is_the_separation_of_normal_pairs(k):
    """For normal coefficients the flattened map is normal, so its smallest
    singular value is the smallest eigenvalue distance."""
    rng = rand.trial_rng(59, k)
    lam, mu = _disc(rng, k, 2.0, 0.5), _disc(rng, k, -2.0, 0.5)
    u1, u2 = rand.haar_unitary(rng, k), rand.haar_unitary(rng, k)
    c = (u1 * lam) @ u1.conj().T
    d = (u2 * mu) @ u2.conj().T
    sep = np.abs(np.subtract.outer(lam, mu)).min()
    res = tn.sylvester(c, d, rand._complex_gauss(rng, k, k))
    assert abs(res.margin - sep) <= 2e-15 * sep


def test_sylvester_side_one_margin_is_the_distance():
    res = tn.sylvester([[3.0 + 1j]], [[1.0]], [[2.0]])
    assert res.solvable
    assert res.margin == abs(2.0 + 1j)
    assert res.residual <= 1e-15
    res = tn.sylvester([[1.0]], [[1.0 + 1e-9]], [[2.0]])
    assert not res.solvable and res.x is None and res.residual is None
    assert res.margin == pytest.approx(1e-9, rel=1e-6)


def test_sylvester_unsolvable_margin_bounds_the_smallest_singular_value():
    """The separation reported for meeting spectra is an upper bound on the
    smallest singular value of the flattened map."""
    rng = rand.trial_rng(61, 0)
    c, _ = _sylvester_pair(rng, 4, False)
    d = c.T + 1e-10 * rand._complex_gauss(rng, 4, 4)
    res = tn.sylvester(c, d, np.eye(4))
    _, oracle = _kronecker_route(c, d, np.eye(4))
    assert not res.solvable
    assert oracle <= res.margin + 8 * np.finfo(float).eps * (
        _spec_norm(c) + _spec_norm(d))
    assert res.margin <= schatten.TOL_SPEC


def test_sylvester_repeats_bit_for_bit():
    rng = rand.trial_rng(67, 0)
    c, d = _sylvester_pair(rng, 12, False)
    w = rand._complex_gauss(rng, 12, 12)
    first = tn.sylvester(c, d, w)
    second = tn.sylvester(c, d, w)
    assert first.margin == second.margin
    assert first.residual == second.residual
    assert np.array_equal(first.x, second.x)


def test_demo_sylvester_prints_the_same_bytes_on_two_runs(tmp_path):
    rng = rand.trial_rng(67, 1)
    c, d = _sylvester_pair(rng, 8, False)
    argv = [sys.executable, "-m", "twonorm", "demo", "sylvester"]
    for name, m in (("c", c), ("d", d), ("w", rand._complex_gauss(rng, 8, 8))):
        matio.dump_matrix(m, tmp_path / f"{name}.mat")
        argv += [f"--{name}", f"file:{tmp_path / f'{name}.mat'}"]
    first = subprocess.run(argv, capture_output=True, timeout=60)
    second = subprocess.run(argv, capture_output=True, timeout=60)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout


def test_sylvester_forms_no_kronecker_map(monkeypatch):
    """The solve and margin come from the two k x k Schur forms: nothing of
    side k^2 is formed or factored, and no eigenvalue routine runs."""
    k = 5
    shapes = []

    def recorded(fn, of_result=False):
        def wrapped(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            shapes.append((fn.__name__, np.shape(out if of_result else a)))
            return out
        return wrapped

    for name in ("svdvals", "solve", "eigvals"):
        monkeypatch.setattr(la, name, recorded(getattr(la, name)))
    monkeypatch.setattr(np, "kron", recorded(np.kron, of_result=True))
    rng = rand.trial_rng(71, 0)
    c, d = _sylvester_pair(rng, k, False)
    res = tn.sylvester(c, d, rand._complex_gauss(rng, k, k))
    assert res.solvable
    assert (k * k, k * k) not in [shape for _, shape in shapes]
    assert "eigvals" not in [name for name, _ in shapes]


def test_sylvester_side_64_allocates_far_less_than_the_kronecker_map():
    k = 64
    rng = rand.trial_rng(73, 0)
    c, d = _sylvester_pair(rng, k, True)
    w = rand._complex_gauss(rng, k, k)
    tracemalloc.start()
    try:
        res = tn.sylvester(c, d, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.solvable
    # the dense complex map alone would take k^4 * 16 bytes (268 MB)
    assert peak < k ** 4 * 16 / 32


def test_block_projection_range_complement_orientation():
    """Pin down which side the coupling acts on in the complement.

    The range of conjugation by the block idempotent built from z consists
    of matrices whose second block row vanishes and whose top-left block is
    determined by the top-right one.  Its trace-inner-product complement is
    computed numerically and compared against the two candidate block
    conventions: the one multiplying the coupling on the right matches on
    every tested coefficient, the mirrored one never does.
    """
    cases = [
        np.diag([1.0, -1.0]),
        np.array([[1.0, 5.0], [0.0, 2.0]]),
        np.array([[1.0, 1j], [2.0, -1.0]]),
    ]
    for zmat in cases:
        k = zmat.shape[0]
        model = tn.matrix_space(2 * k)
        q = tn.block_idempotent(zmat)
        cq = tn.two_sided_mult(model, q, q)
        rng_sub = tn.span(model.ws, cq.matrix)
        comp = tn.complement_L(model.ws, rng_sub)
        assert comp.rank == 3 * k * k

        def candidate(form):
            cols = []
            kk = 2 * k
            for i in range(k):
                for j in range(k):
                    e = np.zeros((k, k), dtype=complex)
                    e[i, j] = 1.0
                    y = np.zeros((kk, kk), dtype=complex)
                    y[:k, k:] = e
                    if form == "right":
                        y[:k, :k] = -e @ zmat.conj().T
                    else:
                        y[:k, :k] = -zmat.conj().T @ e
                    cols.append(y.reshape(-1, order="F"))
            for i in range(k, 2 * k):
                for j in range(2 * k):
                    y = np.zeros((kk, kk), dtype=complex)
                    y[i, j] = 1.0
                    cols.append(y.reshape(-1, order="F"))
            return tn.span(model.ws, np.stack(cols, axis=1))

        assert tn.subspace_equal(comp, candidate("right"))
        assert not tn.subspace_equal(comp, candidate("left"))


def test_cq_demo_frozen_rows():
    model = tn.matrix_space(4)
    rep = tn.cq_compat_demo(model, np.zeros((2, 2)))
    assert rep.pair_margin == pytest.approx(1.0, abs=1e-12)
    assert rep.op_margin == pytest.approx(1.0, abs=1e-12)
    assert rep.q_norm == pytest.approx(1.0, abs=1e-9)
    rep = tn.cq_compat_demo(model, 0.5 * np.eye(2))
    assert rep.pair_margin == pytest.approx(1.25, abs=1e-12)
    assert rep.op_margin == pytest.approx(1.25, abs=1e-12)
    assert rep.margin_direct > 0.5
    rep = tn.cq_compat_demo(model, np.diag([1.0, -1.0]))
    assert rep.pair_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.op_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.margin_direct > 0.5
    assert rep.k == 2


def test_superoperator_range_and_kernel_come_from_one_svd(monkeypatch):
    """The range and kernel bases are those of span and null_space, bitwise,
    from either rank rule, and the cq demo factors its superoperator once
    for both."""
    for k in range(1, 5):
        rng = rand.trial_rng(61, k)
        model = tn.matrix_space(2 * k)
        q = tn.block_idempotent(rand._complex_gauss(rng, k, k))
        m = tn.two_sided_mult(model, q, q).matrix
        for split in (_range_kernel(model.ws, m),
                      _projection_range_kernel(model.ws, m)[1:]):
            rng_sub, ker_sub = split
            assert np.array_equal(rng_sub.basis, tn.span(model.ws, m).basis)
            assert np.array_equal(ker_sub.basis, la.null_space(m))
            assert rng_sub.rank + ker_sub.rank == model.ws.dim

    null_space = la.null_space

    def non_square_null_space(a, *args, **kwargs):
        # complement_L takes the null space of an r x n adjoint basis
        assert a.shape[0] != a.shape[1], "superoperator factored again"
        return null_space(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("superoperator factored again")

    monkeypatch.setattr(la, "null_space", non_square_null_space)
    monkeypatch.setattr(schatten, "span", forbidden)
    tn.cq_compat_demo(tn.matrix_space(4), 0.5 * np.eye(2))


def test_cq_demo_rejects_wrong_model_size():
    with pytest.raises(DimMismatch):
        tn.cq_compat_demo(tn.matrix_space(2), 0.5 * np.eye(2))


def test_cq_demo_margins_the_superoperator_it_built(monkeypatch):
    """The direct margin is the smallest singular value of
    ``cq + cq* - I`` for the flattened ``x -> q x q``, bit for bit: the
    demo does not rebuild ``cq`` as an oblique projection."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the projection was rebuilt")

    monkeypatch.setattr(tn.compat, "oblique_projection", forbidden)
    for trial in range(8):
        rng = rand.trial_rng(62, trial)
        k = 1 + trial % 4
        z = rand._complex_gauss(rng, k, k)
        rep = tn.cq_compat_demo(tn.matrix_space(2 * k), z)
        q = tn.block_idempotent(z)
        cq = np.kron(q.T, q)
        c = cq + cq.conj().T - np.eye(cq.shape[0])
        assert rep.margin_direct == la.svdvals(c)[-1]


def test_demos_reject_non_square_blocks_before_the_model_size():
    z = np.ones((2, 3))
    for run in (lambda: tn.cq_compat_demo(tn.matrix_space(4), z),
                lambda: tn.two_companions_demo(tn.matrix_space(4), z,
                                               np.diag([1.0, -1.0]))):
        with pytest.raises(DimMismatch,
                           match=r"^block must be square, got shape \(2, 3\)$"):
            run()


def test_two_companions_rejects_t_of_another_size():
    model = tn.matrix_space(4)
    with pytest.raises(DimMismatch,
                       match=r"^t must be 2 x 2, got shape \(3, 3\)$"):
        tn.two_companions_demo(model, 0.5 * np.eye(2), np.eye(3))
    with pytest.raises(DimMismatch,
                       match=r"^t must be square, got shape \(2, 3\)$"):
        tn.two_companions_demo(model, 0.5 * np.eye(2), np.ones((2, 3)))


def test_two_companions_frozen_rows():
    model = tn.matrix_space(4)
    rep = tn.two_companions_demo(model, 0.5 * np.eye(2), np.diag([1.0, -1.0]))
    assert rep.fixed_kernel
    assert rep.transported_to_block_range
    assert rep.transported_pair_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.original_pair_margin == pytest.approx(1.25, abs=1e-12)
    rep = tn.two_companions_demo(model, 0.5 * np.eye(2), np.eye(2))
    assert rep.fixed_kernel and rep.transported_to_block_range
    assert rep.transported_pair_margin == pytest.approx(2.0, abs=1e-12)


def test_two_companions_input_validation():
    model = tn.matrix_space(4)
    t = np.diag([1.0, -1.0])
    with pytest.raises(ValueError):
        tn.two_companions_demo(model, np.array([[1.0, 5.0], [0.0, 2.0]]), t)
    with pytest.raises(ValueError):
        tn.two_companions_demo(model, np.diag([1.0, 0.0]), t)
    with pytest.raises(ValueError):
        tn.two_companions_demo(model, 0.5 * np.eye(2), np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        tn.two_companions_demo(model, np.diag([1.0, -1.0]), t)


def test_two_companions_takes_no_svd_of_the_kronecker_map(monkeypatch):
    """The demo reports pair margins only, so it never factors the
    k^2 x k^2 map behind the operator margin."""
    k = 3
    model = tn.matrix_space(2 * k)
    shapes = []
    svdvals = la.svdvals

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(la, "svdvals", recorded)
    z = rotated_normal(rand.trial_rng(44, 1), k)
    rep = tn.two_companions_demo(model, z, np.diag([1.0, -1.0, 1.0]))
    assert rep.fixed_kernel and rep.transported_to_block_range
    assert shapes and (k * k, k * k) not in shapes


def test_two_companions_failure_messages_carry_the_residual():
    model = tn.matrix_space(4)
    with pytest.raises(ValueError,
                       match=r"^z must be normal \(2\.550e\+01 > 2\.987e-09\)$"):
        tn.two_companions_demo(model, np.array([[1.0, 5.0], [0.0, 2.0]]),
                               np.diag([1.0, -1.0]))
    with pytest.raises(ValueError,
                       match=r"^t must be an involution \(3\.000e\+00 > "):
        tn.two_companions_demo(model, 0.5 * np.eye(2), np.diag([1.0, 2.0]))


def test_adz_norm_frozen_values():
    model = tn.matrix_space(2)
    rep = tn.adz_norm_check(model, np.eye(2))
    assert rep.frob_norm == pytest.approx(1.0, abs=1e-10)
    assert rep.znorm_sq == pytest.approx(1.0, abs=1e-10)
    assert rep.trace_norm_estimate == pytest.approx(1.0, abs=1e-6)
    rep = tn.adz_norm_check(model, np.diag([2.0, 3.0]))
    assert rep.frob_norm == pytest.approx(9.0, abs=1e-9)
    assert rep.znorm_sq == pytest.approx(9.0, abs=1e-9)
    assert abs(rep.trace_norm_estimate - 9.0) <= 1e-5


def test_adz_norm_random_coefficient():
    model = tn.matrix_space(4)
    rng = rand.trial_rng(44, 0)
    z = rand._complex_gauss(rng, 4, 4)
    rep = tn.adz_norm_check(model, z)
    assert abs(rep.frob_norm - rep.znorm_sq) <= 1e-10 * rep.znorm_sq
    assert rep.trace_norm_estimate <= rep.znorm_sq * (1.0 + 1e-6)
    assert rep.trace_norm_estimate >= rep.znorm_sq * (1.0 - 1e-4)
