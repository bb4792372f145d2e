"""Text round-trips for matrices and stored subspaces."""

import numpy as np
import pytest

import twonorm as tn
import twonorm.matio as matio
from twonorm import rand
from twonorm.errors import DimMismatch, IoFailure


def test_matrix_roundtrip_is_exact():
    rng = rand.trial_rng(70, 0)
    m = rand._complex_gauss(rng, 4, 3)
    assert np.array_equal(matio.loads_matrix(matio.dumps_matrix(m)), m)


def test_matrix_roundtrip_keeps_extreme_values():
    m = np.array([[1e-308, -0.0], [3.141592653589793, 1e17]])
    assert np.array_equal(matio.loads_matrix(matio.dumps_matrix(m)), m)


def test_dump_refuses_non_finite_entries():
    with pytest.raises(ValueError):
        matio.dumps_matrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        matio.dumps_matrix(np.array([[np.inf, 0.0]]))


def test_dump_refuses_non_matrices():
    with pytest.raises(DimMismatch):
        matio.dumps_matrix(np.ones(3))


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError):
        matio.loads_matrix("")
    with pytest.raises(ValueError):
        matio.loads_matrix("2\n1,0\n")
    with pytest.raises(ValueError):
        matio.loads_matrix("2 1\n1,0\n")
    with pytest.raises(ValueError):
        matio.loads_matrix("1 2\n1,0\n")
    with pytest.raises(ValueError):
        matio.loads_matrix("1 1\n1;0\n")
    with pytest.raises(ValueError):
        matio.loads_matrix("1 1\nnan,0\n")


def test_file_roundtrip(tmp_path):
    m = np.array([[1.5 + 2.0j, -3.0], [0.0, 1.0 / 3.0]])
    path = tmp_path / "m.mat"
    matio.dump_matrix(m, path)
    assert np.array_equal(matio.load_matrix(path), m)


def test_subspace_roundtrip(tmp_path):
    rng = rand.trial_rng(70, 1)
    ws = rand.random_space(rng, 5)
    s = rand.random_subspace(rng, ws, 2)
    path = tmp_path / "s.sub"
    matio.dump_subspace(s, path)
    s2 = matio.load_subspace(path, ws)
    assert tn.max_principal_angle(s, s2) <= 1e-12


def test_load_subspace_reorthonormalizes_a_nearly_orthonormal_basis(tmp_path):
    """A basis off by about 1e-9 passes the 1e-8 acceptance test and loads
    as an orthonormal basis of the same span."""
    rng = rand.trial_rng(70, 2)
    ws = rand.random_space(rng, 6)
    s = rand.random_subspace(rng, ws, 3)
    stored = s.basis + 1e-9 * rand._complex_gauss(rng, 6, 3)
    assert np.abs(stored.conj().T @ stored - np.eye(3)).max() > 1e-10
    path = tmp_path / "near.sub"
    path.write_text("subspace 6 3\n" + matio.dumps_matrix(stored))
    loaded = matio.load_subspace(path, ws)
    b = loaded.basis
    assert np.linalg.norm(b.conj().T @ b - np.eye(3), 2) <= 1e-14
    assert tn.max_principal_angle(s, loaded) <= 1e-8


def test_load_subspace_validations(tmp_path):
    ws = tn.make_space(3, np.eye(3))
    path = tmp_path / "bad.sub"

    path.write_text("3 1\n1,0\n0,0\n0,0\n")
    with pytest.raises(ValueError):
        matio.load_subspace(path, ws)

    path.write_text("subspace 3 1\n3 1\n2,0\n0,0\n0,0\n")
    with pytest.raises(ValueError):
        matio.load_subspace(path, ws)

    path.write_text("subspace 4 1\n4 1\n1,0\n0,0\n0,0\n0,0\n")
    with pytest.raises(DimMismatch):
        matio.load_subspace(path, ws)


def test_file_functions_raise_io_failure_on_a_bad_path(tmp_path):
    ws = tn.make_space(2, np.eye(2))
    sub = tn.span(ws, [np.array([1.0, 0.0])])
    missing = tmp_path / "missing" / "x.txt"
    with pytest.raises(IoFailure, match="could not write"):
        matio.dump_matrix(np.eye(2), missing)
    with pytest.raises(IoFailure, match="could not write"):
        matio.dump_subspace(sub, missing)
    with pytest.raises(IoFailure, match="could not read"):
        matio.load_matrix(missing)
    with pytest.raises(IoFailure, match="could not read"):
        matio.load_subspace(missing, ws)
    # a directory cannot be opened as a file either way
    with pytest.raises(IoFailure, match="could not write"):
        matio.dump_matrix(np.eye(2), tmp_path)
    with pytest.raises(IoFailure, match="could not read"):
        matio.load_matrix(tmp_path)


def test_refused_dump_leaves_the_target_untouched(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("kept\n")
    with pytest.raises(ValueError):
        matio.dump_matrix(np.array([[np.nan, 0.0]]), path)
    assert path.read_text() == "kept\n"
