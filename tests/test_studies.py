"""Truncation studies, and their rows as the command line prints them."""

import io
import json
import math
import tracemalloc
from contextlib import redirect_stdout

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

import twonorm as tn
import twonorm.cli as cli
import twonorm.studies as studies
from twonorm.errors import BadExponent
from twonorm.studies import StudyRow

from conftest import FACTORIZATIONS, count_calls


def test_diverge_study_rejects_bad_exponents():
    for beta in (0.9, 0.0, -1.0):
        with pytest.raises(BadExponent):
            tn.diverging_vector_study([8, 16], beta)


def test_diverge_study_rejects_bad_dimension_lists():
    with pytest.raises(ValueError):
        tn.diverging_vector_study([16, 8], 0.5)
    with pytest.raises(ValueError):
        tn.diverging_vector_study([1, 8], 0.5)


def test_symmetry_study_rejects_odd_or_tiny_blocks():
    with pytest.raises(ValueError):
        tn.symmetry_truncation_study([3])
    with pytest.raises(ValueError):
        tn.symmetry_truncation_study([0])


def test_diverge_study_matches_harmonic_sum_oracle():
    """At the critical exponent the growing norm is a square-rooted harmonic sum."""
    rows = tn.diverging_vector_study([8, 16, 32, 64], 0.5)
    for row in rows:
        h = sum(1.0 / j for j in range(1, row.n + 1))
        assert row.g_enorm == pytest.approx(math.sqrt(h), abs=1e-12)
    gs = [row.g_enorm for row in rows]
    assert all(a < b for a, b in zip(gs, gs[1:]))
    assert gs[-1] / gs[0] >= 1.2


def test_diverge_study_frozen_first_row():
    row = tn.diverging_vector_study([8], 0.5)[0]
    assert row.n == 8
    assert row.margin_c == pytest.approx(0.4182440633891782, abs=1e-12)
    assert row.q_norm == pytest.approx(1.404596262573864, abs=1e-12)
    assert row.g_enorm == pytest.approx(1.648592473250179, abs=1e-12)
    assert row.aux == {}


def _library_row(n, beta, control):
    """``(margin_c, q_norm)`` of one row by the dense library route: the
    weighted space, the weighted complement of ``g`` and ``compat_margin``
    with its default companion."""
    idx = np.arange(1, n + 1, dtype=float)
    ws = tn.make_space(n, np.diag(1.0 / idx ** 2))
    g = np.eye(n)[0] if control else idx ** (-beta)
    rep = tn.compat_margin(ws, tn.span(ws, [g]).complement)
    return rep.margin_c, rep.q_norm


@pytest.mark.parametrize("beta", [0.25, 0.3, 0.4, 0.5])
def test_diverge_rows_match_the_closed_form(beta):
    """The rows read ``|Q|_2`` and the smallest singular value of
    ``C = 2Q - I`` from the closed form; the library builds ``Q`` and ``C``
    as n x n matrices and factors them."""
    sizes = [8, 16, 32, 64, 128]
    for control in (False, True):
        rows = tn.diverging_vector_study(sizes, beta, control=control)
        for row in rows:
            margin, q_norm = _library_row(row.n, beta, control)
            assert abs(row.q_norm - q_norm) <= 1e-14 * q_norm
            assert abs(row.margin_c - margin) <= 1e-14 * margin


def test_diverge_rows_lie_within_a_few_rounding_units_of_40_digits():
    """Against the same closed form in 40-digit arithmetic, at the sizes
    where summation order matters most; control rows are exactly 1."""
    u = np.finfo(float).eps / 2
    with mp.workdps(40):
        for beta in (0.01, 0.25, 0.45, 0.5):
            rows = tn.diverging_vector_study([2, 75, 2048], beta)
            for row in rows:
                g = [mp.mpf(i) ** -mp.mpf(beta) for i in range(1, row.n + 1)]
                wg = [x / i ** 2 for i, x in enumerate(g, 1)]
                a = mp.sqrt(mp.fsum(x * x for x in g)
                            * mp.fsum(x * x for x in wg))
                a /= mp.fsum(x * y for x, y in zip(g, wg))
                margin = 1 / (a + mp.sqrt(a * a - 1))
                assert abs(row.q_norm - a) <= 8 * u * a
                assert abs(row.margin_c - margin) <= 8 * u * margin
    for row in tn.diverging_vector_study([2, 64, 2048], 0.5, control=True):
        assert (row.margin_c, row.q_norm) == (1.0, 1.0)


@pytest.mark.parametrize("control", [False, True])
def test_diverge_rows_take_no_eigendecomposition(control, monkeypatch):
    """The rows are a closed form in O(n) sums: no factorization at all."""
    calls = count_calls(monkeypatch, FACTORIZATIONS)
    rows = tn.diverging_vector_study([8, 64], 0.5, control=control)
    assert len(rows) == 2
    assert calls == {}


def test_diverge_row_at_a_million_needs_no_matrix():
    """At n = 10^6 the dense weight alone would take 8 TB; the row needs a
    few vectors of length n."""
    tracemalloc.start()
    try:
        row, = tn.diverging_vector_study([10 ** 6], 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert row.q_norm > tn.diverging_vector_study([10 ** 3], 0.5)[0].q_norm


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.floats(0.0, 0.5, exclude_min=True),
       st.lists(st.integers(2, 4096), min_size=2, max_size=8, unique=True))
def test_diverge_q_norm_strictly_increases_along_sizes(beta, sizes):
    """The family's proof (see :mod:`twonorm.studies`) makes ``q_norm``
    strictly increase along any increasing list of sizes, for every
    ``beta``; the computed rows keep that order.  Over sizes 2-3000 and
    eight ``beta`` in ``(0, 1/2]`` the smallest computed step was 4.8e-5,
    at ``beta = 1/2``, about 1.7e11 times the rounding unit of ``q_norm``."""
    qs = [row.q_norm
          for row in tn.diverging_vector_study(sorted(sizes), beta)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_diverge_control_keeps_q_norm_flat():
    rows = tn.diverging_vector_study([8, 16, 32, 64], 0.5, control=True)
    qs = [row.q_norm for row in rows]
    assert max(qs) - min(qs) <= 1e-10


def test_symmetry_study_rows():
    rows = tn.symmetry_truncation_study([2, 4])
    for row in rows:
        assert (row.margin_c, row.q_norm) == (1.0, 2.0)
        assert row.aux["pair_margin"] == 0.0
        assert row.aux["op_margin"] == 0.0
        assert row.aux["min_symmetric"] == 2.0
        assert math.isnan(row.g_enorm)


def test_symmetry_study_builds_no_matrix_space(monkeypatch):
    """The dense route built ``z`` with ``np.diag``, the criterion map with
    ``np.kron`` and identities with ``np.eye``, and took SVDs; the rows
    take none of these steps."""
    calls = count_calls(monkeypatch, {
        np: ("diag", "kron", "eye", "zeros", "ones", "concatenate"),
        la: ("svd", "svdvals", "eigvals", "eigvalsh", "schur"),
        np.linalg: ("svd", "eigvals", "eigvalsh"),
    })
    assert [row.n for row in tn.symmetry_truncation_study([2, 4])] == [2, 4]
    assert calls == {}


def test_symmetry_margin_against_matrix_unit_oracle():
    """The route the study replaced, kept as its oracle.  The criterion
    margins are those of :func:`tn.z_criterion_margin` on the symmetry
    ``z``, bit for bit; ``M: x -> q x q`` is rebuilt entrywise from the
    matrix units, and ``margin_c``, ``q_norm`` and ``min_symmetric`` are the
    smallest singular value of ``C = M + M* - I``, the largest of ``M`` and
    the smallest eigenvalue modulus of ``v + v*`` for ``v = 2M - I``, within
    ``32 u |M|_2`` (an SVD's or eigensolve's backward error at that
    norm)."""
    for k in (2, 4, 6, 8):
        z = np.diag(np.concatenate([np.ones(k // 2), -np.ones(k // 2)]))
        q = tn.block_idempotent(z)
        kk = 2 * k
        n = kk * kk
        m = np.zeros((n, n), dtype=complex)
        for col in range(n):
            x = np.zeros((kk, kk), dtype=complex)
            x[col % kk, col // kk] = 1.0
            m[:, col] = (q @ x @ q).reshape(-1, order="F")
        eye = np.eye(n)
        v = 2.0 * m - eye
        m_norm = la.svdvals(m)[0]
        row = tn.symmetry_truncation_study([k])[0]
        crit = tn.z_criterion_margin(z)
        assert row.aux["pair_margin"] == crit.pair_margin
        assert row.aux["op_margin"] == crit.op_margin
        bound = 32 * np.finfo(float).eps * m_norm
        assert abs(row.q_norm - m_norm) <= bound
        assert abs(row.margin_c - la.svdvals(m + m.conj().T - eye)[-1]) \
            <= bound
        assert abs(row.aux["min_symmetric"]
                   - np.abs(la.eigvalsh(v + v.conj().T)).min()) <= bound


def test_symmetry_study_reaches_any_even_size_in_constant_memory():
    """A row at k = 2^20 is the k = 2 row; the dense map there would have
    2^40 entries."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        big = tn.symmetry_truncation_study([2 ** 20])[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    small = tn.symmetry_truncation_study([2])[0]
    assert peak - base <= 64 * 1024
    assert big.n == 2 ** 20
    assert (big.margin_c, big.q_norm, big.aux) == \
        (small.margin_c, small.q_norm, small.aux)
    assert math.isnan(big.g_enorm) and math.isnan(small.g_enorm)


def run_study(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["study"] + argv)
    assert code == 0
    return buf.getvalue()


def test_csv_layout():
    text = run_study(["diverge", "--beta", "0.5", "--dims", "8"])
    lines = text.strip().splitlines()
    assert lines[0] == "n,margin_c,q_norm,g_enorm"
    assert lines[1] == "8,0.41824406338917597,1.404596262573868,1.648592473250179"


def test_csv_appends_sorted_aux_columns():
    text = run_study(["symmetry", "--ks", "2"])
    header = text.splitlines()[0]
    assert header == "n,margin_c,q_norm,g_enorm,min_symmetric,op_margin,pair_margin"


def test_csv_spells_out_missing_values(monkeypatch):
    row = StudyRow(n=2, margin_c=1.0, q_norm=2.0, g_enorm=float("nan"), aux={})
    monkeypatch.setattr(studies, "symmetry_truncation_study", lambda ks: [row])
    text = run_study(["symmetry", "--ks", "2"])
    assert text.splitlines()[1] == "2,1.0,2.0,nan"


def test_json_rows_replace_missing_norm_with_null():
    obj = json.loads(run_study(["symmetry", "--ks", "2", "--format", "json"]))
    assert obj[0]["g_enorm"] is None
    assert obj[0]["aux"]["pair_margin"] == 0.0
    json.dumps(obj, allow_nan=False)


def test_study_output_is_deterministic_in_both_formats():
    argv = ["diverge", "--beta", "0.5", "--dims", "8,16"]
    assert run_study(argv) == run_study(argv)
    parsed = json.loads(run_study(argv + ["--format", "json"]))
    assert parsed[0]["n"] == 8


def test_study_out_to_a_directory_fails_as_io_failure(tmp_path, capsys):
    """``IoFailure`` is the one error that says "could not write"; it
    blames the input, so the exit code is 2."""
    argv = ["study", "diverge", "--beta", "0.5", "--dims", "8",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"twonorm: could not write {tmp_path}: ")
