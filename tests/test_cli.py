"""Command-line behavior: literals, exit codes, output shapes, determinism."""

import argparse
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

import twonorm.cli as cli
import twonorm.errors as errors
import twonorm.matio as matio


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def test_parse_matrix_literal_diag():
    m = cli.parse_matrix_literal("diag:1,2,-3")
    assert np.array_equal(m, np.diag([1.0, 2.0, -3.0]))


def test_parse_matrix_literal_scalar_needs_a_size():
    assert np.array_equal(cli.parse_matrix_literal("scalar:0.5", k=2), 0.5 * np.eye(2))
    with pytest.raises(ValueError):
        cli.parse_matrix_literal("scalar:0.5")


def test_parse_matrix_literal_file(tmp_path):
    path = tmp_path / "z.mat"
    matio.dump_matrix(np.diag([1.0, -1.0]), path)
    assert np.array_equal(cli.parse_matrix_literal(f"file:{path}"), np.diag([1.0, -1.0]))


def test_parse_matrix_literal_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cli.parse_matrix_literal("dense:1,2")


def test_check_suites_small_runs_pass():
    for suite in ("adjoint", "gz", "buckholtz", "compat", "krein", "lemma", "spectra"):
        code, out = run_cli(
            ["check", suite, "--dim", "6", "--trials", "3", "--seed", "2"]
        )
        assert code == 0, f"{suite}: {out}"
        payload = json.loads(out)
        assert payload["suite"] == suite
        assert payload["trials"] == 3
        assert payload["pass"] is True
        assert payload["max_residual"] >= 0.0


def test_check_fails_cleanly_on_impossible_tolerance():
    code, out = run_cli(
        ["check", "compat", "--dim", "4", "--trials", "2", "--tol", "1e-30"]
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_check_rejects_bad_dimension():
    code, _ = run_cli(["check", "adjoint", "--dim", "0"])
    assert code == 2


def test_study_diverge_rejects_bad_exponent():
    code, _ = run_cli(["study", "diverge", "--beta", "0.9"])
    assert code == 2


def test_study_diverge_csv_shape():
    code, out = run_cli(
        ["study", "diverge", "--beta", "0.5", "--dims", "8,16", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,margin_c,q_norm,g_enorm"
    assert lines[1].startswith("8,")
    assert lines[2].startswith("16,")


def test_study_symmetry_csv_columns():
    code, out = run_cli(["study", "symmetry", "--ks", "2,4", "--format", "csv"])
    assert code == 0
    header = out.splitlines()[0]
    assert header == "n,margin_c,q_norm,g_enorm,min_symmetric,op_margin,pair_margin"


def test_demo_finite_rank_runs():
    code, out = run_cli(["demo", "finite_rank", "--dim", "6", "--rank", "2", "--seed", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["idempotency_res"] <= 1e-8


def test_demo_cq_emits_frozen_margins():
    code, out = run_cli(["demo", "cq", "--z", "diag:1,-1", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pair_margin"] == pytest.approx(0.0, abs=1e-12)
    assert payload["op_margin"] == pytest.approx(0.0, abs=1e-12)


def test_demo_two_companions_runs():
    code, out = run_cli(
        ["demo", "two_companions", "--z", "scalar:0.5", "--t", "diag:1,-1", "--k", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fixed_kernel"] is True
    assert payload["transported_pair_margin"] == pytest.approx(0.0, abs=1e-12)


def test_demo_sylvester_solves_disjoint_spectra():
    code, out = run_cli(
        ["demo", "sylvester", "--c", "diag:1,2", "--d", "diag:3,4", "--w", "scalar:1",
         "--k", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["solvable"] is True
    assert payload["residual"] <= 1e-10


def test_demo_sylvester_forced_overlap_exits_with_parameter_error():
    code, _ = run_cli(
        ["demo", "sylvester", "--c", "diag:1,2", "--d", "diag:1,5", "--w", "scalar:1",
         "--k", "2", "--force"]
    )
    assert code == 2


def test_riesz_json_and_csv_rows():
    args = ["riesz", "--t", "diag:1,2", "--lambda", "1", "--eps", "0.4", "--m", "64"]
    code, out = run_cli(args + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["range_dim"] == 1
    assert payload["lambda_re"] == 1.0
    assert "q" in payload
    assert payload["idempotency_res"] <= 1e-8

    code, out = run_cli(args + ["--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "lambda_re" in header and "lambda_im" in header
    assert "q" not in header


def test_bad_matrix_literal_exits_with_parameter_error():
    code, _ = run_cli(["demo", "cq", "--z", "dense:1,2", "--k", "2"])
    assert code == 2


def test_out_flag_writes_the_payload(tmp_path):
    target = tmp_path / "summary.json"
    code, _ = run_cli(
        ["check", "adjoint", "--dim", "4", "--trials", "2", "--seed", "3",
         "--out", str(target)]
    )
    assert code == 0
    assert json.loads(target.read_text())["suite"] == "adjoint"


def test_repeated_invocations_are_identical():
    args = ["check", "gz", "--dim", "5", "--trials", "4", "--seed", "11"]
    assert run_cli(args) == run_cli(args)


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        args = ["check", "adjoint", "--dim", "3", "--trials", "2"]
        first = run_cli(args)
        assert run_cli(args) == first
        assert first[0] == 0
        assert cli.build_parser() is cli.build_parser()
    finally:
        cli.build_parser.cache_clear()
    # one tree of 12 parsers: the root, 3 commands and 8 subcommands
    assert len(built) == 12


@pytest.mark.parametrize("argv", [
    ["check", "adjoint", "--dim", "3", "--trials", "1"],
    ["demo", "cq", "--z", "diag:1,-1", "--k", "2"],
    ["riesz", "--t", "diag:1,2", "--lambda", "1", "--eps", "0.4"],
    ["study", "symmetry", "--ks", "2"],
])
def test_out_into_a_missing_directory_exits_with_parameter_error(
        argv, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    assert cli.main(argv + ["--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"twonorm: could not write {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_file_literal_naming_a_missing_file_exits_with_parameter_error(
        tmp_path, capsys):
    path = tmp_path / "absent.mat"
    assert cli.main(["demo", "cq", "--z", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"twonorm: could not read {path}: ")
    assert len(err.splitlines()) == 1


def test_csv_spells_bools_and_missing_values():
    code, out = run_cli(
        ["demo", "sylvester", "--c", "diag:1,2", "--d", "diag:1,4", "--w", "scalar:1",
         "--k", "2", "--format", "csv"]
    )
    assert code == 0
    assert out == "solvable,margin,residual\nfalse,0.0,\n"


# the error classes that blame the caller's input, and so exit 2
PARAMETER_ERRORS = {
    "ParameterError", "BadExponent", "ContourTooClose", "DimMismatch",
    "IoFailure", "NonIdentityWeightForTrace", "NormCapViolated",
    "NotComplementary", "NotIsolated", "NotPositiveDefinite",
    "SingularSystem",
}


@pytest.mark.parametrize("name", [
    name for name in errors.__all__
    if issubclass(getattr(errors, name), errors.TwoNormError)
])
def test_error_class_sets_the_exit_code(name, monkeypatch, capsys):
    """Exit 2 for exactly the ``ParameterError`` classes, 1 for the rest."""
    cls = getattr(errors, name)

    def raising(*args, **kwargs):
        raise cls("planted")

    monkeypatch.setattr(cli, "parse_matrix_literal", raising)
    code = cli.main(["demo", "cq", "--z", "diag:1"])
    assert issubclass(cls, errors.ParameterError) == (name in PARAMETER_ERRORS)
    assert code == (2 if name in PARAMETER_ERRORS else 1)
    assert capsys.readouterr().err == "twonorm: planted\n"


@pytest.mark.parametrize("argv", [
    ["demo", "riesz", "--t", "diag:1,2", "--lambda", "1", "--eps", "0.4",
     "--seed", "1"],
    ["riesz", "--t", "diag:1,2", "--lambda", "1", "--eps", "0.4",
     "--seed", "1"],
    ["demo", "cq", "--z", "diag:1,-1", "--seed", "1"],
    ["demo", "two_companions", "--z", "scalar:0.5", "--t", "diag:1,-1",
     "--k", "2", "--seed", "1"],
    ["demo", "sylvester", "--c", "diag:1,2", "--d", "diag:3,4",
     "--w", "scalar:1", "--k", "2", "--seed", "1"],
    ["demo", "finite_rank", "--trials", "5"],
])
def test_options_no_command_reads_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["study", "diverge", "--beta", "0.5", "--dims", ""],
    ["study", "symmetry", "--ks", ""],
])
def test_empty_size_list_prints_a_bare_header_or_an_empty_list(argv):
    assert run_cli(argv + ["--format", "csv"]) == \
        (0, "n,margin_c,q_norm,g_enorm\n")
    assert run_cli(argv + ["--format", "json"]) == (0, "[]\n")


def test_riesz_csv_header_has_no_q_column():
    code, out = run_cli(["riesz", "--t", "diag:1,2", "--lambda", "1",
                         "--eps", "0.4", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == \
        "lambda_re,lambda_im,eps,m,idempotency_res,plus_res,range_dim"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ["study", "symmetry", "--ks", "2,4"],
    ["study", "diverge", "--beta", "0.4", "--dims", "8,16"],
    ["riesz", "--t", "diag:1,2", "--lambda", "1", "--eps", "0.4"],
])
def test_out_file_holds_the_bytes_stdout_would(argv, fmt, tmp_path):
    argv = argv + ["--format", fmt]
    code, out = run_cli(argv)
    assert code == 0
    target = tmp_path / "out.txt"
    assert run_cli(argv + ["--out", str(target)]) == (0, "")
    assert target.read_bytes() == out.encode("ascii")


@pytest.mark.parametrize("argv, message", [
    (["demo", "cq", "--z", "{z23}"],
     "block must be square, got shape (2, 3)"),
    (["demo", "two_companions", "--z", "{z23}", "--t", "diag:1,-1"],
     "block must be square, got shape (2, 3)"),
    (["demo", "two_companions", "--z", "scalar:0.5", "--t", "diag:1,-1,1",
      "--k", "2"],
     "t must be 2 x 2, got shape (3, 3)"),
    (["demo", "two_companions", "--z", "diag:0.5,0.6", "--t", "{z23}"],
     "t must be square, got shape (2, 3)"),
])
def test_demo_operands_of_the_wrong_shape_exit_with_dim_mismatch(
        argv, message, tmp_path, capsys):
    path = tmp_path / "z23.mat"
    matio.dump_matrix(np.ones((2, 3)), path)
    argv = [arg.format(z23=f"file:{path}") for arg in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"twonorm: {message}\n"
