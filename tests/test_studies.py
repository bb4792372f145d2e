"""Truncation studies, and their rows as the command line prints them."""

import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

import twonorm as tn
import twonorm.cli as cli
import twonorm.schatten as schatten
import twonorm.studies as studies
from twonorm.errors import BadExponent
from twonorm.studies import StudyRow


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


@pytest.mark.parametrize("beta", [0.25, 0.3, 0.4, 0.5])
def test_diverge_rows_match_the_closed_form(beta):
    """The canonical projection onto the hyperplane weighted-orthogonal to
    ``g`` is ``I - g (g* A g)^{-1} g* A``, a rank-one change of the identity
    with norm ``a = |g| |A g| / (g* A g)``.  ``C = 2Q - I`` then has
    smallest singular value ``1 / (a + sqrt(a^2 - 1))``."""
    rows = tn.diverging_vector_study([8, 16, 32, 64, 128], beta)
    for row in rows:
        idx = np.arange(1, row.n + 1, dtype=float)
        g = idx ** (-beta)
        ag = g / idx ** 2
        a = np.linalg.norm(g) * np.linalg.norm(ag) / (g @ ag)
        margin = 1.0 / (a + np.sqrt((a - 1.0) * (a + 1.0)))
        assert abs(row.q_norm - a) <= 1e-14 * a
        assert abs(row.margin_c - margin) <= 1e-14 * margin


def test_diverge_control_keeps_q_norm_flat():
    rows = tn.diverging_vector_study([8, 16, 32, 64], 0.5, control=True)
    qs = [row.q_norm for row in rows]
    assert max(qs) - min(qs) <= 1e-10


def test_symmetry_study_rows():
    rows = tn.symmetry_truncation_study([2, 4])
    for row in rows:
        assert row.q_norm == pytest.approx(2.0, abs=1e-12)
        assert row.margin_c == pytest.approx(1.0, abs=1e-9)
        assert row.aux["pair_margin"] == 0.0
        assert row.aux["op_margin"] == 0.0
        assert row.aux["min_symmetric"] == pytest.approx(2.0 * row.margin_c, abs=1e-9)
        assert math.isnan(row.g_enorm)


def test_symmetry_study_builds_no_matrix_space(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix space was built")

    monkeypatch.setattr(schatten, "make_space", refuse)
    monkeypatch.setattr(studies, "make_space", refuse)
    assert [row.n for row in tn.symmetry_truncation_study([2, 4])] == [2, 4]


def test_symmetry_margin_against_matrix_unit_oracle():
    """Rebuild the compatibility operator entrywise and compare extremes."""
    k = 2
    z = np.diag([1.0, -1.0])
    q = tn.block_idempotent(z)
    kk = 2 * k
    n = kk * kk
    cmat = np.zeros((n, n), dtype=complex)
    for col in range(n):
        x = np.zeros((kk, kk), dtype=complex)
        x[col % kk, col // kk] = 1.0
        out = q @ x @ q + q.conj().T @ x @ q.conj().T - x
        cmat[:, col] = out.reshape(-1, order="F")
    sv = np.linalg.svd(cmat, compute_uv=False)
    row = tn.symmetry_truncation_study([k])[0]
    assert row.margin_c == pytest.approx(sv[-1], abs=1e-9)
    assert row.q_norm == pytest.approx(sv[0], abs=1e-9)


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
    assert lines[1] == "8,0.41824406338917597,1.4045962625738677,1.648592473250179"


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
