"""Text round-trips for matrices and stored subspaces, and the JSON
writer's array leaves."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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
    cases = [
        ("", "empty matrix text"),
        ("2\n1,0\n", "bad matrix header: '2'"),
        ("2 1\n1,0\n", "expected 2 rows, found 1"),
        ("1 2\n1,0\n", "row 0 has 1 entries, wanted 2"),
        ("1 1\n1;0\n", "bad entry '1;0' at (0, 0)"),
        ("1 1\n1,0,0\n", "bad entry '1,0,0' at (0, 0)"),
        # the commas add up to one per entry, but not entry by entry
        ("1 2\n1 0,0,0\n", "bad entry '1' at (0, 0)"),
        ("1 1\nnan,0\n", "non-finite entry at (0, 0)"),
        ("1 1\n0,-inf\n", "non-finite entry at (0, 0)"),
        ("1 1\n1,x\n", "could not convert string to float: 'x'"),
        ("0 -1\n", "negative dimensions are not allowed"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError) as err:
            matio.loads_matrix(text)
        assert str(err.value) == message, text


def test_parse_reports_the_first_fault_in_row_major_order():
    cases = [
        ("2 2\n1,0 inf,0\n1,0\n", "non-finite entry at (0, 1)"),
        ("2 2\n1,0 2\n1,0\n", "bad entry '2' at (0, 1)"),
        ("2 2\n1,0\n1;0 1,0\n", "row 0 has 1 entries, wanted 2"),
        ("2 2\n1,0 y,0\n1,0 nan,0\n",
         "could not convert string to float: 'y'"),
        ("2 2\n1,0 1,nan\n1,0 1;0\n", "non-finite entry at (0, 1)"),
        ("2 2\n1,0 1,0,0\n1,0\n", "bad entry '1,0,0' at (0, 1)"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError) as err:
            matio.loads_matrix(text)
        assert str(err.value) == message, text


_EXTREMES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
             -1.7976931348623157e308]


@given(hnp.arrays(
    complex,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
    elements=st.complex_numbers(allow_nan=False, allow_infinity=False)
    | st.builds(complex, st.sampled_from(_EXTREMES),
                st.sampled_from(_EXTREMES)),
))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
def test_matrix_roundtrip_is_bitwise(m):
    back = matio.loads_matrix(matio.dumps_matrix(m))
    assert back.shape == m.shape and back.tobytes() == m.tobytes()


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


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
def test_empty_matrix_roundtrip(shape):
    """An n x 0 matrix is written as its header and n blank rows, which
    the reader skips like any blank line; a stray entry is still refused."""
    m = np.zeros(shape, dtype=complex)
    back = matio.loads_matrix(matio.dumps_matrix(m))
    assert back.shape == shape and back.dtype == complex
    assert matio.loads_matrix("3 0\n").shape == (3, 0)
    with pytest.raises(ValueError, match="^row 0 has 1 entries, wanted 0$"):
        matio.loads_matrix("3 0\n\n1,0\n")


def test_zero_subspace_roundtrip(tmp_path):
    ws = tn.make_space(3, np.diag([1.0, 0.5, 0.25]))
    path = tmp_path / "zero.sub"
    matio.dump_subspace(tn.span(ws, []), path)
    loaded = matio.load_subspace(path, ws)
    assert loaded.rank == 0 and loaded.basis.shape == (3, 0)


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


def _plain(obj):
    """``obj`` with each array leaf replaced by its nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    return obj


_FLOAT_ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)
_JSON_TREES = st.recursive(
    _FLOAT_ARRAYS | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers() | st.booleans() | st.none() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@given(_JSON_TREES)
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
def test_json_array_leaves_render_as_their_lists(obj):
    expected = json.dumps(_plain(obj), indent=2, allow_nan=False) + "\n"
    assert matio.dumps_json(obj) == expected


def test_json_array_leaves_keep_every_digit():
    a = np.array([[-0.0, 5e-324], [1e308, 0.1 + 0.2]])
    obj = {"q": [a, {"r": np.zeros((2, 0))}], "s": "x"}
    text = matio.dumps_json(obj)
    assert text == json.dumps(_plain(obj), indent=2, allow_nan=False) + "\n"
    assert "-0.0" in text and "5e-324" in text and "0.30000000000000004" in text
    assert np.array_equal(np.array(json.loads(text)["q"][0]), a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_json_array_leaves_refuse_non_finite_entries(bad):
    obj = {"a": 1, "b": [np.array([[0.0, 1.0], [bad, 2.0]])]}
    with pytest.raises(ValueError) as ours:
        matio.dumps_json(obj)
    with pytest.raises(ValueError) as plain:
        json.dumps(_plain(obj), indent=2, allow_nan=False)
    assert str(ours.value) == str(plain.value)


def test_json_refuses_other_arrays_as_before():
    with pytest.raises(TypeError, match="^Object of type ndarray is not JSON"):
        matio.dumps_json({"a": np.arange(3)})
