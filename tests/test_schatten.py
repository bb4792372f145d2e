"""Superoperators on matrix spaces: multiplications, block projections, margins."""

import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

import twonorm as tn
import twonorm.cli as cli
import twonorm.schatten as schatten
from twonorm import matio, rand
from twonorm.errors import DimMismatch, SingularSystem
from twonorm.space import _spec_norm
from twonorm.subspaces import _idempotent_cut, _range_kernel, _span_cut

from conftest import count_calls, rotated_normal


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
    eye = np.eye(3)
    assert np.allclose(
        tn.unvec(tn.two_sided_mult(model, a, eye).matrix @ v, 3), a @ x, atol=1e-12
    )
    assert np.allclose(
        tn.unvec(tn.two_sided_mult(model, eye, b).matrix @ v, 3), x @ b, atol=1e-12
    )
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
    evs_l = np.sort_complex(la.eigvals(tn.two_sided_mult(model, a, np.eye(3)).matrix))
    assert np.allclose(evs_l, np.sort_complex(np.repeat(evs_a, 3)), atol=1e-8)


def test_plus_adjoint_of_left_multiplication():
    model = tn.matrix_space(3)
    rng = rand.trial_rng(40, 2)
    a = rand._complex_gauss(rng, 3, 3)
    eye = np.eye(3)
    lp = tn.plus_adjoint(model.ws, tn.two_sided_mult(model, a, eye)).matrix
    assert _spec_norm(lp - tn.two_sided_mult(model, a.conj().T, eye).matrix) <= 1e-12


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


@pytest.mark.parametrize("shape", [(0, 0), (2, 3)])
def test_sylvester_rejects_empty_or_non_square_coefficients(shape):
    with pytest.raises(DimMismatch, match="square and non-empty"):
        tn.sylvester(np.ones(shape), np.ones(shape), np.ones(shape))


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,)])
def test_z_criterion_rejects_empty_or_non_square_blocks(shape):
    with pytest.raises(DimMismatch, match="square and non-empty"):
        tn.z_criterion_margin(np.ones(shape))


@pytest.mark.parametrize("z", [
    np.diag([1e160, 1.0]),
    # entries 1e154: the map is finite, every eigenvalue product overflows
    1e154 * np.array([[1.0, 1.0], [1.0, -1.0]]),
])
def test_z_criterion_overflow_is_an_arithmetic_error(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError,
                           match=r"^criterion map overflows \(\|z\|_2 = "):
            tn.z_criterion_margin(z)


def test_demo_sylvester_on_empty_matrices_is_a_parameter_error(
        tmp_path, capsys):
    path = tmp_path / "empty.mat"
    matio.dump_matrix(np.zeros((0, 0)), path)
    argv = ["demo", "sylvester"]
    for name in ("c", "d", "w"):
        argv += [f"--{name}", f"file:{path}"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "twonorm: coefficients must be square and non-empty, got (0, 0)\n")


def test_trsyl_failure_is_an_arithmetic_error(monkeypatch, capsys):
    """A nonzero ``info`` from ``trsyl`` raises, naming it, and the demo
    exits 1 with that line."""
    get = la.get_lapack_funcs

    def failing(names, arrays=(), *args, **kwargs):
        fn = get(names, arrays, *args, **kwargs)
        if names != "trsyl":
            return fn
        return lambda *a, **kw: (*fn(*a, **kw)[:2], 1)

    monkeypatch.setattr(la, "get_lapack_funcs", failing)
    with pytest.raises(ArithmeticError, match=r"^trsyl failed \(info 1\)$"):
        tn.sylvester(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.eye(2))
    assert cli.main(["demo", "sylvester", "--c", "diag:1,2",
                     "--d", "diag:3,4", "--w", "scalar:1", "--k", "2"]) == 1
    assert capsys.readouterr() == ("", "twonorm: trsyl failed (info 1)\n")


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


def _count_products(monkeypatch):
    """Spy on the ``trsyl`` that ``la.get_lapack_funcs`` returns; the list
    returned holds its call count, the solve's one call plus two per
    product of the Lanczos operator ``(M* M)^-1``."""
    calls = [0]
    get = la.get_lapack_funcs

    def spied(names, arrays=(), *args, **kwargs):
        fn = get(names, arrays, *args, **kwargs)
        if names != "trsyl":
            return fn

        def counted(*a, **kw):
            calls[0] += 1
            return fn(*a, **kw)
        return counted

    monkeypatch.setattr(la, "get_lapack_funcs", spied)
    return calls


@pytest.mark.parametrize("k", [16, 20])
def test_sylvester_normal_pairs_take_one_lanczos_cycle(monkeypatch, k):
    """Started at the nearest Schur eigenvalue pair, Lanczos on a normal
    pair converges in its first cycle of ``ncv = 20`` vectors: at most 22
    products per margin."""
    calls = _count_products(monkeypatch)
    for trial in range(4):
        rng = rand.trial_rng(83, 100 * k + trial)
        lam, mu = _disc(rng, k, 2.0, 0.5), _disc(rng, k, -2.0, 0.5)
        u1, u2 = rand.haar_unitary(rng, k), rand.haar_unitary(rng, k)
        c = (u1 * lam) @ u1.conj().T
        d = (u2 * mu) @ u2.conj().T
        calls[0] = 0
        res = tn.sylvester(c, d, rand._complex_gauss(rng, k, k))
        assert res.solvable
        assert (calls[0] - 1) // 2 <= 22


def _reducible_pair(seed, k=24):
    """``c = diag(0.5, b)`` with ``b`` a non-normal (k-1) x (k-1) block,
    and a normal ``d`` whose eigenvalue 0.8 is the nearest to 0.5.

    ``c``'s Schur form is exactly reducible, so the row of 0.5 spans an
    invariant subspace of ``M`` and ``M*`` that holds the nearest pair's
    ``e_i e_j^T``; the smallest singular vector lies outside it, in ``b``'s
    rows, where non-normality puts the margin far below the separation."""
    rng = rand.trial_rng(79, seed)
    b = np.diag(2.0 + 0.1 * rand._complex_gauss(rng, k - 1)) \
        + 0.6 * np.triu(rand._complex_gauss(rng, k - 1, k - 1), 1)
    u = rand.haar_unitary(rng, k - 1)
    b = u @ b @ u.conj().T
    mu = np.r_[0.8, 1.0 + 0.1 * rand._complex_gauss(rng, k - 1)]
    v = rand.haar_unitary(rng, k)
    assert np.abs(np.subtract.outer(la.eigvals(b), mu)).min() > 0.3
    return la.block_diag([[0.5]], b), (v * mu) @ v.conj().T


def _hard_starts():
    rng = rand.trial_rng(89, 0)
    for k in (2, 5, 12):
        lam, mu = rand._complex_gauss(rng, k), rand._complex_gauss(rng, k)
        yield pytest.param(np.diag(lam), np.diag(mu), None,
                           id=f"diagonal-{k}")
    for seed in range(2):
        # 0.3 = |0.5 - 0.8|, the separation of the nearest pair
        yield pytest.param(*_reducible_pair(seed), 0.3,
                           id=f"reducible-{seed}")


@pytest.mark.parametrize("c, d, start_gap", _hard_starts())
def test_sylvester_start_vector_hard_cases(c, d, start_gap):
    """Diagonal coefficients make the start an eigenvector of ``M* M`` to
    ``sqrt(u)``; an exactly reducible Schur form puts it in an invariant
    subspace whose smallest singular value, ``start_gap``, is far above
    the margin.  The margin meets the Kronecker oracle's bound either way
    and repeats bit for bit."""
    k = c.shape[0]
    w = np.eye(k)
    _check_against_kronecker(c, d, w)
    first, *rest = [tn.sylvester(c, d, w) for _ in range(3)]
    if start_gap is not None:
        assert first.margin < 0.1 * start_gap
    for res in rest:
        assert res.margin == first.margin
        assert res.residual == first.residual
        assert np.array_equal(res.x, first.x)


@pytest.mark.xfail(strict=True, reason=(
    "TOL_SPEC is absolute: an eigenvalue separation of 5e-8 > 1e-8 calls "
    "solvable a system whose smallest singular value is at the rounding "
    "floor, 2.0e-16 by the dense svdvals"))
def test_sylvester_numerically_singular_system_is_not_solvable():
    k = 6
    c = 50 * np.eye(k, k=1) + np.diag(1e-3 * np.arange(k))
    d = c + 5e-8 * np.eye(k)
    res = tn.sylvester(c, d, np.eye(k))
    assert not res.solvable


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

    for name in ("solve", "eigvals"):
        monkeypatch.setattr(la, name, recorded(getattr(la, name)))
    for name in ("svd", "eigvals"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    monkeypatch.setattr(np, "kron", recorded(np.kron, of_result=True))
    rng = rand.trial_rng(71, 0)
    c, d = _sylvester_pair(rng, k, False)
    res = tn.sylvester(c, d, rand._complex_gauss(rng, k, k))
    assert res.solvable
    assert (k * k, k * k) not in [shape for _, shape in shapes]
    assert "eigvals" not in [name for name, _ in shapes]
    assert [shape for name, shape in shapes if name == "svd"] == [(k, k)]


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


def test_superoperator_range_and_kernel_come_from_one_svd():
    """The range and kernel bases are those of span and null_space, bitwise,
    from either rank rule."""
    for k in range(1, 5):
        rng = rand.trial_rng(61, k)
        model = tn.matrix_space(2 * k)
        q = tn.block_idempotent(rand._complex_gauss(rng, k, k))
        m = tn.two_sided_mult(model, q, q).matrix
        for split in (_range_kernel(model.ws, m, _span_cut)[1:],
                      _range_kernel(model.ws, m, _idempotent_cut)[1:]):
            rng_sub, ker_sub = split
            assert np.array_equal(rng_sub.basis, tn.span(model.ws, m).basis)
            assert np.array_equal(ker_sub.basis, la.null_space(m))
            assert rng_sub.rank + ker_sub.rank == model.ws.dim


def test_cq_demo_rejects_wrong_model_size():
    with pytest.raises(DimMismatch):
        tn.cq_compat_demo(tn.matrix_space(2), 0.5 * np.eye(2))


def test_cq_demo_margins_are_exact_against_the_kronecker_oracle():
    """``margin_direct`` and ``q_norm`` are exactly 1.  The dense
    ``M: x -> q x q`` confirms the proof: the smallest singular value of
    ``C = M + M* - I`` is 1, within ``32 u (1 + |z|^2)`` (an SVD's backward
    error at the norm of ``M``), and the orthogonal projection onto the
    range of ``M`` is ``x -> E x F`` with ``E``, ``F`` the orthogonal
    projections onto ``col(q)`` and ``row(q)``, of trace norm 1."""
    u = np.finfo(float).eps
    for trial in range(12):
        rng = rand.trial_rng(62, trial)
        k = 1 + trial % 4
        z = rand._complex_gauss(rng, k, k) * 10.0 ** (trial % 3 - 1)
        rep = tn.cq_compat_demo(tn.matrix_space(2 * k), z)
        assert (rep.margin_direct, rep.q_norm) == (1.0, 1.0)
        q = tn.block_idempotent(z)
        m = np.kron(q.T, q)
        c = m + m.conj().T - np.eye(m.shape[0])
        bound = 32 * u * (1.0 + _spec_norm(z) ** 2)
        assert abs(la.svdvals(c)[-1] - 1.0) <= bound
        basis = la.orth(m)
        assert basis.shape[1] == k * k
        pinv = np.linalg.pinv(q)
        e, f = q @ pinv, pinv @ q
        assert _spec_norm(basis @ basis.conj().T - np.kron(f.T, e)) <= 1e-10


@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_cq_demo_is_exact_and_quiet_at_large_coupling(scale):
    """The dense route lost the margin and warned falsely here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = tn.cq_compat_demo(tn.matrix_space(4),
                                np.diag([scale, -0.3 * scale]))
    assert (rep.margin_direct, rep.q_norm) == (1.0, 1.0)


def test_matrix_space_demos_build_no_block_superoperator(monkeypatch):
    """The cq and two_companions demos read k x k matrices only: no
    Kronecker product has a factor of the block side 2k, the 2k x 2k block
    idempotent is never built and neither is the model's flattened weight.
    The symmetry study takes no Kronecker product at all."""
    factors = []
    kron = np.kron

    def recorded(a, b):
        factors.extend([np.shape(a), np.shape(b)])
        return kron(a, b)

    def refuse(z):
        raise AssertionError("a block idempotent was built")

    monkeypatch.setattr(np, "kron", recorded)
    monkeypatch.setattr(schatten, "block_idempotent", refuse)
    k = 3
    model = tn.matrix_space(2 * k)
    z = rotated_normal(rand.trial_rng(44, 2), k)
    tn.cq_compat_demo(model, z)
    rep = tn.two_companions_demo(model, z, np.diag([1.0, -1.0, 1.0]))
    assert rep.fixed_kernel and rep.transported_to_block_range
    assert "ws" not in vars(model)
    assert set(factors) == {(k, k)}
    factors.clear()
    tn.symmetry_truncation_study([4, 6])
    assert factors == []


def test_matrix_space_builds_its_weight_on_first_access():
    with pytest.raises(DimMismatch):
        tn.matrix_space(0)
    model = tn.matrix_space(2)
    assert "ws" not in vars(model)
    ws = model.ws
    assert model.ws is ws
    assert (ws.dim, ws.enorm) == (4, "trace")
    assert np.array_equal(ws.weight, np.eye(4))


@pytest.mark.parametrize("k", [1, 2, 3, 16])
def test_matrix_space_weight_takes_no_eigh(k, monkeypatch):
    """The identity weight is never factored, and what is read from it
    costs nothing: the plus-adjoint is ``M*`` and the weighted norm the
    spectral norm, bit for bit."""
    calls = count_calls(monkeypatch, {la: ["eigh", "eigvalsh"],
                                      np.linalg: ["eigh", "eigvalsh"]})
    ws = tn.matrix_space(k).ws
    m = rand._complex_gauss(rand.trial_rng(29, k), k * k, k * k)
    assert np.array_equal(ws.plus_matrix(m), m.conj().T)
    assert tn.opnorm(ws, m, "L") == np.linalg.norm(m, 2)
    assert not calls


def test_identity_plus_matrix_allocates_a_few_copies():
    """On ``matrix_space(32)`` (n = 1024) the plus-adjoint is ``M*`` from
    elementwise passes over the validated copy, with at most three n x n
    complex arrays alive at once; the route through an eigenvector matrix
    peaked at five."""
    ws = tn.matrix_space(32).ws
    n = ws.dim
    m = rand._complex_gauss(rand.trial_rng(29, 32), n, n)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        ws.plus_matrix(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 4 * n * n * 16


def _dense_transport_verdicts(q, q_t, x):
    """Oracle for the verdicts of :func:`tn.two_companions_demo`: range and
    kernel of the flattened ``y -> q y q``, moved by the flattened ``y -> y
    x``."""
    model = tn.matrix_space(q.shape[0])
    rng_sub, ker_sub = _range_kernel(
        model.ws, tn.two_sided_mult(model, q, q).matrix, _idempotent_cut)[1:]
    target, _ = _range_kernel(
        model.ws, tn.two_sided_mult(model, q_t, q_t).matrix,
        _idempotent_cut)[1:]
    g = tn.two_sided_mult(model, np.eye(q.shape[0]), x).matrix
    return (
        tn.subspace_equal(tn.span(model.ws, g @ ker_sub.basis), ker_sub),
        tn.subspace_equal(tn.span(model.ws, g @ rng_sub.basis), target),
    )


def test_two_companions_verdicts_match_the_kronecker_oracle():
    """On valid draws, ``z`` normal and invertible with a positive pair
    margin and ``t`` a self-adjoint involution, the verdicts the demo
    states are those the Kronecker oracle computes on ``diag(z, t)``."""
    for trial in range(12):
        rng = rand.trial_rng(63, trial)
        k = 1 + trial % 3
        z = rotated_normal(rng, k)
        u = rand.haar_unitary(rng, k)
        signs = rng.choice([-1.0, 1.0], size=k)
        t = (u * signs) @ u.conj().T
        t = (t + t.conj().T) / 2.0
        rep = tn.two_companions_demo(tn.matrix_space(2 * k), z, t)
        got = (rep.fixed_kernel, rep.transported_to_block_range)
        oracle = _dense_transport_verdicts(
            tn.block_idempotent(z), tn.block_idempotent(t),
            la.block_diag(z, t))
        assert got == oracle == (True, True)
        # exact: the spectrum of t is its drawn signs
        assert rep.transported_pair_margin == (0.0 if len(set(signs)) == 2
                                               else 2.0)


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
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
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


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(k=st.integers(1, 8), scale=st.floats(-4.0, 5.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_adz_norm_check_matches_the_kronecker_oracle(k, scale, seed):
    """The route ``adz_norm_check`` replaced, kept as an oracle: the dense
    ``k^2 x k^2`` sandwich, its spectral norm and the certified trace-norm
    value of :func:`tn.trace_opnorm_estimate`.  Over 300 draws of this
    ensemble both stayed within 2.7 k^2 u of ``|z|^2`` relative; the bound
    is the certificate's own slack, 16 k^2 u."""
    z = 10.0 ** scale * rand._complex_gauss(rand.trial_rng(seed, k), k, k)
    model = tn.matrix_space(k)
    rep = tn.adz_norm_check(model, z)
    op = tn.sandwich(model, z).matrix
    bound = 16 * k * k * np.finfo(float).eps * rep.znorm_sq
    assert rep.frob_norm == rep.trace_norm_estimate == rep.znorm_sq
    assert abs(_spec_norm(op) - rep.znorm_sq) <= bound
    assert abs(tn.trace_opnorm_estimate(model.ws, op) - rep.znorm_sq) \
        <= bound


def test_adz_norm_check_side_64_forms_no_kronecker_map():
    """One SVD of z: neither the k^2 x k^2 map nor the identity weight of
    the k^2-dimensional space is built."""
    k = 64
    z = rand._complex_gauss(rand.trial_rng(47, 0), k, k)
    model = tn.matrix_space(k)
    tracemalloc.start()
    try:
        rep = tn.adz_norm_check(model, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.znorm_sq == _spec_norm(z) ** 2
    # the dense complex map alone would take k^4 * 16 bytes (268 MB); eight
    # complex k x k matrices (0.5 MB) leave room for no k^2 x 8 array
    assert peak < 8 * k * k * 16


def test_adz_norm_check_holds_its_slack_relative_to_large_z():
    """The certified value rounds about |z|^2 from either side, by more
    than an absolute 1e-6 once |z|^2 is near 1e10, and stays within
    ``16 k^2 u`` of it relative.  Seeds 0-39 at this size raised on 18
    against an absolute slack."""
    model = tn.matrix_space(4)
    u = np.finfo(float).eps
    for seed in range(40):
        z = 3e4 * rand._complex_gauss(rand.trial_rng(45, seed), 4, 4)
        rep = tn.adz_norm_check(model, z)
        assert abs(rep.trace_norm_estimate - rep.znorm_sq) \
            <= 16 * 16 * u * rep.znorm_sq
