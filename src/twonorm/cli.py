"""Command-line front end.

Four subcommands: ``check`` runs a seeded randomized verification suite and
prints a one-object summary; ``demo`` runs one of the worked constructions;
``study`` emits truncation-study rows; ``riesz`` computes a single contour
projection.  All output is deterministic for a fixed seed and flag set.

Each command returns its JSON payload, its CSV table (header first) and
its verdict; :func:`main` writes one of the two and maps the verdict to the
exit code: 0 on success, 1 when a numerical check fails, 2 on bad
parameters or a file that cannot be read or written.
"""

import argparse
import functools
import sys
from dataclasses import asdict

import numpy as np

from . import compat, matio, rand, schatten, spectra, studies, subspaces
from .errors import DimMismatch, ParameterError, TwoNormError
from .space import Operator, gz_bound_check, make_space, _spec_norm

__all__ = ["main"]


def parse_matrix_literal(text, k=None):
    """Parse ``diag:a,b,..``, ``scalar:c`` or ``file:PATH`` into a matrix
    with finite entries; a ``scalar:`` literal is ``k x k``."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"bad matrix literal {text!r}")
    if kind == "file":
        return matio.load_matrix(rest)
    if kind not in ("diag", "scalar"):
        raise ValueError(f"unknown matrix literal kind {kind!r}")
    if kind == "scalar" and k is None:
        raise ValueError("scalar literal needs an explicit --k size")
    cells = rest.split(",") if kind == "diag" else [rest]
    try:
        entries = np.array([complex(cell.strip()) for cell in cells])
    except ValueError:
        raise ValueError(f"bad entry in matrix literal {text!r}") from None
    if not np.isfinite(entries).all():
        raise ValueError(f"non-finite entry in matrix literal {text!r}")
    return np.diag(entries) if kind == "diag" \
        else entries[0] * np.eye(int(k), dtype=complex)


def _int_list(text):
    try:
        return [int(cell) for cell in text.split(",") if cell.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _one_row(report):
    """The CSV table of a flat report: its keys over its values."""
    return [list(report), list(report.values())]


def _require_tol(tol):
    """Reject a ``--tol`` that no residual can be compared against."""
    if not 0.0 <= tol < np.inf:
        raise ParameterError(f"--tol must be finite and non-negative, "
                             f"got {tol}")


def _require_seed(seed):
    """Reject a ``--seed`` that :func:`twonorm.rand.trial_rng` cannot take."""
    if seed < 0:
        raise ParameterError(f"--seed must be non-negative, got {seed}")


def _sized_literals(k, *texts):
    """Parse the matrix literals ``--k`` sizes: a given ``--k`` must be at
    least 1 and each literal's size, which it sets for a ``scalar:`` one."""
    if k is not None and k < 1:
        raise ParameterError(f"--k must be at least 1, got {k}")
    mats = [parse_matrix_literal(text, k) for text in texts]
    for text, m in zip(texts, mats):
        if k is not None and m.shape != (k, k):
            raise ParameterError(f"--k is {k} but matrix literal {text!r} "
                                 f"is {m.shape[0]} x {m.shape[1]}")
    return mats


# ---------------------------------------------------------------------------
# check suites

def _suite_adjoint(rng, ws):
    t = rand.random_operator(rng, ws)
    tp = ws.plus_matrix(t)
    t_norm = _spec_norm(t)
    scale = t_norm * _spec_norm(np.asarray(ws.weight))
    identity_res = np.abs(ws.weight @ t - tp.conj().T @ ws.weight).max() / scale
    invol_res = _spec_norm(ws.plus_matrix(tp) - t) / t_norm
    return max(float(identity_res), float(invol_res))


def _suite_gz(rng, ws):
    t = rand.random_operator(rng, ws)
    rep = gz_bound_check(ws, t)
    return max(0.0, rep.lhs - rep.rhs)


def _suite_buckholtz(rng, ws):
    r = int(rng.integers(1, ws.dim))
    s, t = rand.random_companion_pair(rng, ws, r)
    rep = compat.buckholtz_verify(ws, s, t)
    worst = max(rep.res_inverse, rep.res_projection, rep.res_symmetric)
    return worst / rep.kappa


def _suite_compat(rng, ws):
    r = int(rng.integers(1, ws.dim))
    s, t1 = rand.random_companion_pair(rng, ws, r)
    _, t2 = rand.random_companion_pair(rng, ws, r)
    # each margin's residual compares Q with its companion's C^{-1} P+
    rep1 = compat.compat_margin(ws, s, t1)
    rep2 = compat.compat_margin(ws, s, t2)
    return max((rep.residual_cross or 0.0) / rep.kappa_c
               for rep in (rep1, rep2))


def _suite_krein(rng, ws):
    r = int(rng.integers(1, ws.dim))
    s, t = rand.random_companion_pair(rng, ws, r)
    canonical = compat.compat_projection(ws, s).p
    tilted = subspaces.oblique_projection(ws, s, t).p
    good = compat.krein_check(ws, s, canonical)
    # the tilted projection passes only if t happens to be the weighted
    # complement, which a random draw never is
    bad = compat.krein_check(ws, s, tilted)
    return 0.0 if (good and not bad) else 1.0


def _suite_lemma(rng, ws):
    r = max(1, ws.dim // 3)
    x1 = rand._complex_gauss(rng, ws.dim, r)
    y1 = rand._complex_gauss(rng, ws.dim, r)
    x2 = rand._complex_gauss(rng, ws.dim, r)
    y2 = rand._complex_gauss(rng, ws.dim, r)
    generic = compat.algebraic_lemma_check(ws, x1 @ y1.conj().T,
                                           x2 @ y2.conj().T)
    shared = compat.algebraic_lemma_check(ws, x1 @ y1.conj().T,
                                          x2 @ y1.conj().T)
    ok = generic.agree and shared.agree and generic.nullspace_sum_full \
        and not shared.nullspace_sum_full
    return 0.0 if ok else 1.0


def _suite_spectra(rng, ws):
    """Backward error of the eigenpairs of ``T+`` read as eigenpairs of
    ``T``, relative to ``cond(A) |T+|_2``.

    Every spectrum tag is the ambient eigensolve of ``T``.  Each eigenpair
    ``(mu, x)`` of ``T+ = A^{-1} T* A``, computed on its own, gives a left
    eigenvector ``y = A x`` of ``T`` for ``conj(mu)``, so no eigenvalue is
    paired with another.  A backward-stable eigensolve leaves
    ``|y* (T - conj(mu) I)|_2 / |y|_2`` of order ``n u cond(A) |T+|_2``,
    defective eigenvalues included; it bounds the smallest singular value
    of ``T - conj(mu) I``."""
    t = Operator(rand.random_operator(rng, ws), ws)
    mu, x = np.linalg.eig(t.plus.matrix)
    yh = ws.apply_weight(x).conj().T
    res = np.linalg.norm(yh @ t.matrix - mu.conj()[:, np.newaxis] * yh,
                         axis=1) / np.linalg.norm(yh, axis=1)
    return res.max() / (ws.weight_cond * _spec_norm(t.plus.matrix))


_SUITES = {
    "adjoint": (_suite_adjoint, 1),
    "gz": (_suite_gz, 1),
    "buckholtz": (_suite_buckholtz, 2),
    "compat": (_suite_compat, 2),
    "krein": (_suite_krein, 2),
    "lemma": (_suite_lemma, 2),
    "spectra": (_suite_spectra, 1),
}


def cmd_check(args):
    suite, min_dim = _SUITES[args.suite]
    if args.dim < min_dim:
        raise DimMismatch(f"--dim must be at least {min_dim} for the "
                          f"{args.suite} suite, got {args.dim}")
    if args.trials < 1:
        raise ParameterError(f"--trials must be at least 1, got {args.trials}")
    _require_tol(args.tol)
    _require_seed(args.seed)
    worst = 0.0
    for trial in range(args.trials):
        rng = rand.trial_rng(args.seed, trial)
        ws = rand.random_space(rng, args.dim)
        worst = max(worst, float(suite(rng, ws)))
    summary = {
        "suite": args.suite,
        "trials": args.trials,
        "max_residual": worst,
        "pass": bool(worst <= args.tol),
    }
    return summary, _one_row(summary), summary["pass"]


# ---------------------------------------------------------------------------
# demos

def cmd_demo_finite_rank(args):
    if args.dim < 1:
        raise DimMismatch(f"--dim must be at least 1, got {args.dim}")
    if not 0 <= args.rank <= args.dim:
        raise DimMismatch(f"--rank must lie in [0, {args.dim}] for --dim "
                          f"{args.dim}, got {args.rank}")
    _require_tol(args.tol)
    _require_seed(args.seed)
    rng = rand.trial_rng(args.seed, 0)
    ws = rand.random_space(rng, args.dim)
    f, h = rand.random_biorthogonal_system(rng, ws, args.rank)
    pair = subspaces.finite_rank_proper_projection(ws, f, h)
    q = pair.p.matrix
    report = {
        "dim": args.dim,
        "rank": args.rank,
        "idempotency_res": _spec_norm(q @ q - q),
        "plus_res": _spec_norm(ws.plus_matrix(q) - pair.p_plus.matrix),
        "range_dim": f.shape[1],  # H* A F = I: the f_i span the range
    }
    # the scale max(1, |q|)^2 cond A is at least 1, so |q|_2 is taken only
    # when the residual is over the bare tolerance
    res = report["idempotency_res"]
    ok = res <= args.tol or res <= args.tol * max(
        1.0, _spec_norm(q)) ** 2 * ws.weight_cond
    return report, _one_row(report), ok


def _riesz_run(args):
    (t,) = _sized_literals(args.k, args.t)
    n = t.shape[0]
    weight = np.eye(n) if args.weight is None \
        else parse_matrix_literal(args.weight, n)
    ws = make_space(n, weight, "euclid")
    pair, diag = spectra.riesz_projection(
        ws, t, complex(args.lam), args.eps, args.m
    )
    report = {
        "lambda_re": complex(args.lam).real,
        "lambda_im": complex(args.lam).imag,
        "eps": args.eps,
        "m": args.m,
        "idempotency_res": diag.idempotency_res,
        "plus_res": diag.plus_res,
        "range_dim": diag.range_dim,
    }
    ok = diag.idempotency_res <= 1e-8 and diag.plus_res <= 1e-8
    # the projection itself goes to JSON only, as a float64 (re, im) stack
    q = np.stack([pair.p.matrix.real, pair.p.matrix.imag], axis=-1)
    return {**report, "q": q}, _one_row(report), ok


def cmd_demo_cq(args):
    (z,) = _sized_literals(args.k, args.z)
    model = schatten.matrix_space(2 * z.shape[0])
    report = asdict(schatten.cq_compat_demo(model, z))
    return report, _one_row(report), True


def cmd_demo_two_companions(args):
    z, t = _sized_literals(args.k, args.z, args.t)
    model = schatten.matrix_space(2 * z.shape[0])
    report = asdict(schatten.two_companions_demo(model, z, t))
    return report, _one_row(report), True


def cmd_demo_sylvester(args):
    _require_tol(args.tol)
    c, d, w = _sized_literals(args.k, args.c, args.d, args.w)
    result = schatten.sylvester(c, d, w, force=args.force)
    report = {
        "solvable": result.solvable,
        "margin": result.margin,
        "residual": result.residual,
    }
    ok = (not result.solvable) or result.residual <= args.tol * (
        1.0 + _spec_norm(w)
    )
    return report, _one_row(report), ok


# ---------------------------------------------------------------------------
# studies

_STUDY_COLUMNS = ["n", "margin_c", "q_norm", "g_enorm"]


def cmd_study(args):
    """Rows as JSON objects with ``aux`` nested and a missing ``g_enorm``
    as null, or as a CSV table with ``aux`` inlined and NaN spelled out;
    ``aux`` keys are sorted in both.  With no sizes, a bare header."""
    if args.family == "diverge":
        rows = studies.diverging_vector_study(args.dims, args.beta,
                                              control=args.control)
    else:
        rows = studies.symmetry_truncation_study(args.ks)
    payload = [
        {"n": row.n, "margin_c": row.margin_c, "q_norm": row.q_norm,
         "g_enorm": None if np.isnan(row.g_enorm) else row.g_enorm,
         "aux": dict(sorted(row.aux.items()))}
        for row in rows
    ]
    aux_keys = sorted(rows[0].aux) if rows else []
    table = [_STUDY_COLUMNS + aux_keys] + [
        [row.n, row.margin_c, row.q_norm, row.g_enorm,
         *(row.aux[key] for key in aux_keys)]
        for row in rows
    ]
    return payload, table, True


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser():
    """The argument parser, built once and shared; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="twonorm",
        description="weighted adjoints, oblique projections and "
                    "compatibility margins at finite dimension",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, default_format="json"):
        p.add_argument("--format", choices=("json", "csv"),
                       default=default_format)
        p.add_argument("--out", default=None)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dim", type=int, default=10)
        p.add_argument("--tol", type=float, default=1e-9)
        add_output(p)

    p_check = sub.add_parser("check", help="run a randomized check suite")
    p_check.add_argument("suite", choices=sorted(_SUITES))
    add_common(p_check)
    p_check.add_argument("--trials", type=int, default=100)
    p_check.set_defaults(func=cmd_check)

    p_demo = sub.add_parser("demo", help="run a worked construction")
    demo_sub = p_demo.add_subparsers(dest="demo", required=True)

    p_fr = demo_sub.add_parser("finite_rank")
    add_common(p_fr)
    p_fr.add_argument("--rank", type=int, default=3)
    p_fr.set_defaults(func=cmd_demo_finite_rank)

    def add_riesz_args(p):
        p.add_argument("--t", required=True, help="matrix literal")
        p.add_argument("--lambda", dest="lam", type=complex, required=True)
        p.add_argument("--eps", type=float, required=True)
        p.add_argument("--m", type=int, default=64)
        p.add_argument("--weight", default=None, help="matrix literal")
        p.add_argument("--k", type=int, default=None)
        add_output(p)
        p.set_defaults(func=_riesz_run)

    add_riesz_args(demo_sub.add_parser("riesz"))

    p_cq = demo_sub.add_parser("cq")
    p_cq.add_argument("--z", required=True, help="matrix literal")
    p_cq.add_argument("--k", type=int, default=None)
    add_output(p_cq)
    p_cq.set_defaults(func=cmd_demo_cq)

    p_tc = demo_sub.add_parser("two_companions")
    p_tc.add_argument("--z", required=True, help="matrix literal")
    p_tc.add_argument("--t", required=True, help="matrix literal")
    p_tc.add_argument("--k", type=int, default=None)
    add_output(p_tc)
    p_tc.set_defaults(func=cmd_demo_two_companions)

    p_sy = demo_sub.add_parser("sylvester")
    p_sy.add_argument("--c", required=True, help="matrix literal")
    p_sy.add_argument("--d", required=True, help="matrix literal")
    p_sy.add_argument("--w", required=True, help="matrix literal")
    p_sy.add_argument("--k", type=int, default=None)
    p_sy.add_argument("--force", action="store_true",
                      help="exit 2 on overlapping spectra instead of "
                           "reporting solvable: false")
    p_sy.add_argument("--tol", type=float, default=1e-9)
    add_output(p_sy)
    p_sy.set_defaults(func=cmd_demo_sylvester)

    p_study = sub.add_parser("study", help="emit truncation-study rows")
    study_sub = p_study.add_subparsers(dest="family", required=True)

    p_div = study_sub.add_parser("diverge")
    p_div.add_argument("--beta", type=float, required=True)
    p_div.add_argument("--dims", type=_int_list, default=[8, 16, 32, 64])
    p_div.add_argument("--control", action="store_true")
    add_output(p_div, default_format="csv")
    p_div.set_defaults(func=cmd_study)

    p_sym = study_sub.add_parser("symmetry")
    p_sym.add_argument("--ks", type=_int_list, default=[2, 4, 8])
    add_output(p_sym, default_format="csv")
    p_sym.set_defaults(func=cmd_study)

    add_riesz_args(sub.add_parser(
        "riesz", help="one contour projection with diagnostics"
    ))

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, table, ok = args.func(args)
        text = matio.dumps_csv(table) if args.format == "csv" \
            else matio.dumps_json(payload)
        matio.write_text(text, args.out or sys.stdout)
    except (ParameterError, ValueError) as exc:
        print(f"twonorm: {exc}", file=sys.stderr)
        return 2
    except (TwoNormError, ArithmeticError) as exc:
        print(f"twonorm: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
