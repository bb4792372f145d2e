"""Command-line behavior: literals, exit codes, output shapes, determinism."""

import argparse
import io
import json
import subprocess
import sys
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest

import twonorm.cli as cli
import twonorm.errors as errors
import twonorm.matio as matio

from conftest import FACTORIZATIONS, count_calls


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
    for tol in ("1e-30", "0"):
        code, out = run_cli(
            ["check", "compat", "--dim", "4", "--trials", "2", "--tol", tol]
        )
        assert code == 1
        assert json.loads(out)["pass"] is False


def test_check_rejects_bad_dimension(capsys):
    """Each suite names its smallest ``--dim`` and exits 2 below it, before
    drawing anything; at the minimum it runs."""
    minimums = {"adjoint": 1, "gz": 1, "spectra": 1, "buckholtz": 2,
                "compat": 2, "krein": 2, "lemma": 2}
    assert set(minimums) == set(cli._SUITES)
    for suite, low in minimums.items():
        for dim in range(-1, low):
            code, out = run_cli(["check", suite, "--dim", str(dim)])
            assert (code, out) == (2, "")
            assert capsys.readouterr().err == (
                f"twonorm: --dim must be at least {low} for the {suite} "
                f"suite, got {dim}\n")
        code, out = run_cli(["check", suite, "--dim", str(low), "--trials", "2"])
        assert code != 2 and json.loads(out)["trials"] == 2


def test_check_rejects_trials_below_one(capsys):
    for trials in (-5, 0):
        assert run_cli(["check", "compat", "--trials", str(trials)]) == (2, "")
        assert capsys.readouterr().err == (
            f"twonorm: --trials must be at least 1, got {trials}\n")


@pytest.mark.parametrize("argv, tol", [
    (["check", "spectra"], "-1"),
    (["check", "adjoint"], "nan"),
    (["check", "gz"], "inf"),
    (["demo", "finite_rank"], "-1"),
    (["demo", "sylvester", "--c", "diag:1,2", "--d", "diag:3,4",
      "--w", "scalar:1", "--k", "2"], "-inf"),
])
def test_tolerance_must_be_finite_and_non_negative(argv, tol, capsys):
    assert run_cli([*argv, f"--tol={tol}"]) == (2, "")
    assert capsys.readouterr().err == (
        f"twonorm: --tol must be finite and non-negative, got {float(tol)}\n")


@pytest.mark.parametrize("flags, message", [
    (["--lambda", "1", "--eps", "inf"],
     "contour radius eps must be positive and finite, got inf"),
    (["--lambda", "1", "--eps", "nan"],
     "contour radius eps must be positive and finite, got nan"),
    (["--lambda", "nan", "--eps", "0.4"],
     "contour centre lam must be finite, got (nan+0j)"),
    (["--lambda", "1+infj", "--eps", "0.4"],
     "contour centre lam must be finite, got (1+infj)"),
])
def test_riesz_rejects_non_finite_contour_parameters(flags, message, capsys):
    """Exit 2 with one line naming the parameter, before any arithmetic
    could warn (pytest turns warnings into errors)."""
    assert run_cli(["riesz", "--t", "diag:1,2", *flags]) == (2, "")
    assert capsys.readouterr().err == f"twonorm: {message}\n"


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


@pytest.mark.parametrize("tol, code, norms", [([], 0, 2), (["--tol", "0"], 1, 3)])
def test_demo_finite_rank_takes_the_norm_of_q_only_past_the_bare_tolerance(
        tol, code, norms, monkeypatch):
    """The verdict scale max(1, |q|)^2 max(1, cond A) is at least 1, so a
    residual within ``--tol`` passes without it: at the default ``--tol``
    the report's two residuals are the only spectral norms the command
    takes, and ``|q|_2`` is a third only when the bare test fails."""
    calls = count_calls(monkeypatch, {cli: ["_spec_norm"]})
    assert run_cli(["demo", "finite_rank", *tol])[0] == code
    assert calls == {"twonorm.cli._spec_norm": norms}


@pytest.mark.parametrize("sizes, message", [
    (["--rank", "11"], "--rank must lie in [0, 10] for --dim 10, got 11"),
    (["--rank", "-1"], "--rank must lie in [0, 10] for --dim 10, got -1"),
    (["--dim", "0"], "--dim must be at least 1, got 0"),
    (["--dim", "-2", "--rank", "0"], "--dim must be at least 1, got -2"),
    (["--dim", "2", "--rank", "3"], "--rank must lie in [0, 2] for --dim 2, got 3"),
])
def test_demo_finite_rank_rejects_sizes_out_of_range(sizes, message, capsys):
    assert run_cli(["demo", "finite_rank", *sizes]) == (2, "")
    assert capsys.readouterr().err == f"twonorm: {message}\n"


# per suite, the factorizations of one trial at --dim 10 (seed 0); every
# one, spectral norms included, is numpy's
_SUITE_FACTORIZATIONS = {
    "adjoint": {"numpy.linalg.qr": 1, "numpy.linalg.svd": 3},
    "buckholtz": {"numpy.linalg.qr": 3, "numpy.linalg.svd": 5,
                  "numpy.linalg.inv": 2, "numpy.linalg.solve": 2},
    "compat": {"numpy.linalg.qr": 5, "numpy.linalg.svd": 10,
               "numpy.linalg.inv": 2, "numpy.linalg.solve": 4},
    "gz": {"numpy.linalg.qr": 1, "numpy.linalg.svd": 3},
    "krein": {"numpy.linalg.qr": 4, "numpy.linalg.svd": 9,
              "numpy.linalg.inv": 1, "numpy.linalg.solve": 1},
    "lemma": {"numpy.linalg.matrix_rank": 12, "numpy.linalg.qr": 1},
    "spectra": {"numpy.linalg.eig": 1, "numpy.linalg.qr": 1,
                "numpy.linalg.svd": 1},
}


@pytest.mark.parametrize("suite", sorted(_SUITE_FACTORIZATIONS))
def test_check_trial_factorization_counts(suite, monkeypatch):
    """The factorizations one check trial takes, so that sharing one
    between steps shows as a count change."""
    calls = count_calls(monkeypatch, FACTORIZATIONS)
    code, _ = run_cli(["check", suite, "--dim", "10", "--trials", "1",
                       "--seed", "0"])
    assert code == 0
    assert calls == _SUITE_FACTORIZATIONS[suite]


@pytest.mark.parametrize("sizes", [["--dim", "1", "--rank", "0"],
                                   ["--dim", "1", "--rank", "1"],
                                   ["--rank", "0"], ["--rank", "10"]])
def test_demo_finite_rank_runs_at_the_ends_of_the_rank_range(sizes):
    code, out = run_cli(["demo", "finite_rank", *sizes])
    assert code == 0
    assert json.loads(out)["range_dim"] == int(sizes[-1])


def test_demo_cq_emits_frozen_margins():
    code, out = run_cli(["demo", "cq", "--z", "diag:1,-1", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pair_margin"] == pytest.approx(0.0, abs=1e-12)
    assert payload["op_margin"] == pytest.approx(0.0, abs=1e-12)


def test_demo_cq_overflow_exits_one_without_a_warning():
    """A finite ``z`` whose criterion map overflows is valid input: the demo
    names the overflow and ``|z|_2`` and exits 1, and numpy's overflow
    warning does not reach stderr."""
    done = subprocess.run([sys.executable, "-m", "twonorm", "demo", "cq",
                           "--z", "diag:1e160,1"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == \
        "twonorm: criterion map overflows (|z|_2 = 1.000e+160)\n"


def test_demo_two_companions_overflow_exits_one_without_a_warning():
    """``z = diag(1e160, 1)`` is finite, normal and invertible, but its
    normality check overflows: the demo names ``|z|_2`` and exits 1."""
    done = subprocess.run([sys.executable, "-m", "twonorm", "demo",
                           "two_companions", "--z", "diag:1e160,1",
                           "--t", "diag:1,-1"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == \
        "twonorm: normality check overflows (|z|_2 = 1.000e+160)\n"


@pytest.mark.parametrize("argv, expected", [
    (["demo", "cq", "--z", "diag:1e140,1"],
     {"pair_margin": 2.0, "op_margin": 2.0}),
    (["demo", "two_companions", "--z", "diag:1e140,1", "--t", "diag:1,-1"],
     {"original_pair_margin": 2.0, "transported_pair_margin": 0.0}),
])
def test_block_demos_read_exact_margins_past_norm_1e138(argv, expected):
    """scipy.linalg's ``eigvals`` gave 1.4886e138 and 1.4886e-2 as the
    eigenvalues of ``diag(1e140, 1)``, and a pair margin of 1.0002."""
    code, out = run_cli(argv)
    assert code == 0
    payload = json.loads(out)
    assert {key: payload[key] for key in expected} == expected


def test_demo_two_companions_takes_one_eigensolve_of_z(monkeypatch):
    """The transported margin comes from the trace of ``t``, so the one
    eigensolve is of ``z``, next to its one SVD."""
    calls = count_calls(monkeypatch, FACTORIZATIONS)
    of = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        of.append(np.array(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    code, _ = run_cli(["demo", "two_companions", "--z", "diag:0.5,2",
                       "--t", "diag:1,-1"])
    assert code == 0
    assert calls == {"numpy.linalg.eigvals": 1, "numpy.linalg.svd": 1}
    assert len(of) == 1 and np.array_equal(of[0], np.diag([0.5, 2.0]))


def test_demo_two_companions_runs():
    code, out = run_cli(
        ["demo", "two_companions", "--z", "scalar:0.5", "--t", "diag:1,-1", "--k", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fixed_kernel"] is True
    assert payload["transported_pair_margin"] == pytest.approx(0.0, abs=1e-12)


def test_demo_two_companions_accepts_an_ill_conditioned_invertible_z():
    """``z = diag(1, 1e-11)`` passes the demo's invertibility check, so both
    verdicts hold: a rank cut relative to ``|z|_2`` at ``1e-10`` would drop
    its second direction and report neither."""
    code, out = run_cli(["demo", "two_companions", "--z", "diag:1,1e-11",
                         "--t", "diag:1,-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["fixed_kernel"] is True
    assert payload["transported_to_block_range"] is True


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


RIESZ = ["riesz", "--lambda", "1", "--eps", "0.1"]


@pytest.mark.parametrize("argv, literal", [
    (["demo", "cq", "--z", "diag:nan"], "diag:nan"),
    (["demo", "cq", "--z", "diag:inf"], "diag:inf"),
    (["demo", "cq", "--z", "scalar:-inf", "--k", "2"], "scalar:-inf"),
    (["demo", "two_companions", "--z", "diag:1,nan", "--t", "diag:1,-1"],
     "diag:1,nan"),
    (["demo", "two_companions", "--z", "diag:1,2", "--t", "scalar:inf",
      "--k", "2"], "scalar:inf"),
    (["demo", "sylvester", "--c", "diag:1,2", "--d", "diag:3,nan+1j",
      "--w", "diag:1,1"], "diag:3,nan+1j"),
    (["demo", "sylvester", "--c", "diag:1,2", "--d", "diag:3,4",
      "--w", "scalar:inf", "--k", "2"], "scalar:inf"),
    (RIESZ + ["--t", "diag:1,inf"], "diag:1,inf"),
    (RIESZ + ["--t", "diag:1,2", "--weight", "diag:1,nan"], "diag:1,nan"),
    (RIESZ + ["--t", "diag:1,2", "--weight", "scalar:inf"], "scalar:inf"),
])
def test_non_finite_matrix_literal_exits_with_parameter_error(argv, literal,
                                                              capsys):
    """A NaN or infinite entry in a ``diag:`` or ``scalar:`` literal is
    rejected as ``file:`` rejects one, before any numerics run: exit 2, one
    line naming the literal, no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out, caught) == (2, "", [])
    assert err == f"twonorm: non-finite entry in matrix literal " \
                  f"{literal!r}\n"


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
