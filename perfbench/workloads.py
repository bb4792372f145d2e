"""The four benchmark workloads, their seeded inputs and their references.

Each workload is a fixed list of operations.  An operation is one
``cli.main(argv)`` call or one public library call; matrix inputs are
written as ``file:`` literals into a work directory before any timer
starts, so the program sees only those files.  Every operation carries a
check against a reference worked out here, independently of the program:

* exit codes and verdict fields must match exactly;
* margins and norms must match the reference within ``RTOL`` relative
  (``ATOL`` absolute where the reference is zero);
* residual fields only need to stay within their own tolerance; for the
  riesz ``plus_res``, whose threshold in the program is not scaled by the
  weight, that is a limit scaled by the weight's condition number.

Why these workloads:

* ``check_small`` -- the seven ``check`` suites at the CLI default
  ``--dim 10``.  Thousands of tiny factorizations, so per-call Python
  overhead in cli, rand, space, subspaces and compat dominates.  No
  schatten, no files.
* ``proj_large`` -- compat/krein/buckholtz checks, a finite-rank demo and
  the diverging-vector study at n = 64-128: dense O(n^3) factorizations in
  subspaces and compat.  No spectra, no schatten.
* ``contour`` -- ``riesz`` contour projections of planted-eigenvalue
  operators under random weights, plus the spectra check: bound by
  spectra's dense inverses and eigensolves.  No oblique projection.
* ``superop`` -- the schatten demos, the symmetry study and the
  trace-norm estimator on k x k matrix spaces.  The only workload that
  runs schatten and the estimator.

Sizes are cut so that one pass takes about half a second at one BLAS
thread, which leaves at least 30 passes per run for the tail percentile;
``table.py`` times the largest sizes one call at a time instead.
"""

import contextlib
import io
import json
import os

import numpy as np

from twonorm import cli, matio, rand, schatten, space

RTOL = 1e-6
ATOL = 1e-9
RIESZ_TOL = 1e-8        # the threshold cli._riesz_run applies to plus_res
PROJ_TOL = 1e-8         # riesz projection vs the exact spectral projector
# plus_res may not exceed PLUS_RES_SCALE * cond(weight) * max(1, |exact|)^2.
# Over 800 riesz operations (seeds 0-399) the largest plus_res was 5.2e-12
# times that product, a margin of 19.
PLUS_RES_SCALE = 1e-10


class CliResult:
    __slots__ = ("code", "out", "err")

    def __init__(self, code, out, err):
        self.code, self.out, self.err = code, out, err

    def key(self):
        return (self.code, self.out, self.err)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


class Op:
    """One operation: ``run()`` calls the program, ``check(result)`` returns
    a list of problems (empty when the output is correct) and may add
    figures to ``notes``."""

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def result_key(result):
    """A comparable form of an operation's result."""
    return result.key() if isinstance(result, CliResult) else repr(result)


def close(x, ref, rtol=RTOL, atol=ATOL):
    return abs(x - ref) <= rtol * abs(ref) + atol


def _cli_json(res, problems, code=0):
    if res.code != code:
        problems.append(f"exit code {res.code}, expected {code}: {res.err}")
        return None
    return json.loads(res.out)


def _expect(problems, what, got, ref, rtol=RTOL, atol=ATOL):
    if not close(got, ref, rtol, atol):
        problems.append(f"{what} = {float(got)!r}, reference {float(ref)!r}")


def _seed(rng):
    return int(rng.integers(0, 2 ** 31 - 1))


def _complex_gauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar(rng, n):
    q, r = np.linalg.qr(_complex_gauss(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _normal(rng, eigs):
    u = _haar(rng, len(eigs))
    return (u * eigs) @ u.conj().T


def _pair_margin(lam, mu):
    return float(np.min(np.abs(1.0 + np.conj(lam)[:, None] * mu[None, :])))


# ---------------------------------------------------------------------------
# check suites (the program draws its own instances from --seed)

def _check_op(suite, trials, seed, dim=None):
    argv = ["check", suite, "--trials", str(trials), "--seed", str(seed)]
    if dim is not None:
        argv += ["--dim", str(dim)]

    def check(res, notes):
        problems = []
        out = _cli_json(res, problems)
        if out is None:
            return problems
        if out["suite"] != suite or out["trials"] != trials \
                or out["pass"] is not True:
            problems.append(f"verdict fields {out}")
        if not 0.0 <= out["max_residual"] <= 1e-9:
            problems.append(f"max_residual {out['max_residual']!r} > 1e-9")
        return problems

    return Op(" ".join(argv), lambda: run_cli(argv), check)


SMALL_SUITES = ("adjoint", "gz", "buckholtz", "compat", "krein", "lemma",
                "spectra")
SMALL_TRIALS = 15       # the CLI default of 100 per suite, cut evenly


def check_small(rng, workdir):
    return [_check_op(suite, SMALL_TRIALS, _seed(rng))
            for suite in SMALL_SUITES]


# ---------------------------------------------------------------------------
# proj_large

def _finite_rank_op(dim, seed):
    argv = ["demo", "finite_rank", "--dim", str(dim), "--seed", str(seed)]

    def check(res, notes):
        problems = []
        out = _cli_json(res, problems)
        if out is None:
            return problems
        if (out["dim"], out["rank"], out["range_dim"]) != (dim, 3, 3):
            problems.append(f"verdict fields {out}")
        for key in ("idempotency_res", "plus_res"):
            if not 0.0 <= out[key] <= 1e-6:
                problems.append(f"{key} {out[key]!r} > 1e-6")
        return problems

    return Op(" ".join(argv), lambda: run_cli(argv), check)


def _diverge_reference(n, beta, control):
    """Closed form for the hyperplane weighted-orthogonal to ``g``.

    The canonical projection is ``Q = I - u v*`` with ``v* u = 1``; its norm
    is ``a = |g| |A g| / (g* A g)`` and ``C = 2Q - I`` is an involution with
    smallest singular value ``1 / (a + sqrt(a^2 - 1))``.
    """
    idx = np.arange(1, n + 1, dtype=float)
    weight = 1.0 / idx ** 2
    g = np.eye(n)[0] if control else idx ** (-beta)
    a = np.linalg.norm(g) * np.linalg.norm(weight * g) / (g @ (weight * g))
    return {"margin_c": 1.0 / (a + np.sqrt(max(a * a - 1.0, 0.0))),
            "q_norm": a, "g_enorm": float(np.linalg.norm(g))}


def _diverge_op(dims, beta, control):
    argv = ["study", "diverge", "--beta", repr(beta),
            "--dims", ",".join(map(str, dims)), "--format", "json"]
    if control:
        argv.append("--control")
    refs = [_diverge_reference(n, beta, control) for n in dims]

    def check(res, notes):
        problems = []
        rows = _cli_json(res, problems)
        if rows is None:
            return problems
        if [row["n"] for row in rows] != list(dims):
            return problems + [f"row sizes {[r['n'] for r in rows]}"]
        for row, ref in zip(rows, refs):
            for key, val in ref.items():
                _expect(problems, f"n={row['n']} {key}", row[key], val)
        return problems

    return Op(" ".join(argv), lambda: run_cli(argv), check)


def proj_large(rng, workdir):
    beta = float(rng.uniform(0.25, 0.5))
    return [
        _check_op("compat", 1, _seed(rng), dim=80),
        _check_op("krein", 1, _seed(rng), dim=80),
        _check_op("buckholtz", 1, _seed(rng), dim=128),
        _finite_rank_op(128, _seed(rng)),
        _diverge_op((64, 128), beta, control=False),
        _diverge_op((64, 128), beta, control=True),
    ]


# ---------------------------------------------------------------------------
# contour

def _write(workdir, name, m):
    path = os.path.join(workdir, name)
    matio.dump_matrix(m, path)
    return "file:" + path


def _riesz_op(rng, workdir, n, lam=2.0, eps=0.4, m=64):
    """Operator ``V diag(lam, d_2..d_n) V^-1`` with the other eigenvalues
    in the unit disc, so ``lam`` is isolated by more than ``2 eps``; the
    exact spectral projector is ``V e_1 e_1^T V^-1``."""
    d = np.sqrt(rng.uniform(0.0, 1.0, n)) \
        * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    d[0] = lam
    v = np.eye(n) + _complex_gauss(rng, n, n) * (0.5 / np.sqrt(2 * n))
    v_inv = np.linalg.inv(v)
    t = (v * d) @ v_inv
    exact = np.outer(v[:, 0], v_inv[0])
    exact_norm = np.linalg.norm(exact, 2)
    weight = rand.random_pd_weight(rng, n)
    plus_limit = PLUS_RES_SCALE * np.linalg.cond(weight) \
        * max(1.0, exact_norm) ** 2
    argv = ["riesz", "--t", _write(workdir, f"riesz{n}_t.txt", t),
            "--weight", _write(workdir, f"riesz{n}_w.txt", weight),
            "--lambda", repr(lam), "--eps", repr(eps), "--m", str(m)]

    def check(res, notes):
        problems = []
        if res.code not in (0, 1):
            return [f"exit code {res.code}: {res.err}"]
        out = json.loads(res.out)
        ok = out["idempotency_res"] <= RIESZ_TOL \
            and out["plus_res"] <= RIESZ_TOL
        if res.code != (0 if ok else 1):
            problems.append(f"exit code {res.code} disagrees with residuals")
        if (out["lambda_re"], out["lambda_im"], out["eps"], out["m"],
                out["range_dim"]) != (lam, 0.0, eps, m, 1):
            problems.append("verdict fields "
                            f"{ {k: v for k, v in out.items() if k != 'q'} }")
        q = np.array([[complex(*cell) for cell in row] for row in out["q"]])
        err = np.linalg.norm(q - exact, 2)
        if err > PROJ_TOL * exact_norm:
            problems.append(f"projection error {err:.3e} vs exact projector")
        if out["idempotency_res"] > RIESZ_TOL:
            problems.append(f"idempotency_res {out['idempotency_res']!r}")
        if out["plus_res"] > plus_limit:
            problems.append(f"plus_res {out['plus_res']!r} > scaled limit "
                            f"{plus_limit:.3e}")
        notes.setdefault("plus_res_headroom", []).append(
            out["plus_res"] / RIESZ_TOL)
        notes["threshold_trips"] = notes.get("threshold_trips", 0) \
            + int(out["plus_res"] > RIESZ_TOL)
        return problems

    return Op(f"riesz n={n}", lambda: run_cli(argv), check)


def contour(rng, workdir):
    return [
        _riesz_op(rng, workdir, 64),
        _riesz_op(rng, workdir, 96),
        _check_op("spectra", 1, _seed(rng), dim=96),
    ]


# ---------------------------------------------------------------------------
# superop

def _disc(rng, k, center, radius):
    return center + radius * np.sqrt(rng.uniform(0.0, 1.0, k)) \
        * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, k))


def _annulus(rng, k, r0, r1):
    return rng.uniform(r0, r1, k) * np.exp(2j * np.pi * rng.uniform(0, 1, k))


def _cq_op(rng, workdir, k):
    """Normal ``z`` with known eigenvalues: both criterion margins equal the
    eigenvalue-pair minimum; the canonical projection onto the range is
    ``x -> E x Pi`` with orthogonal ``E``, ``Pi``, of trace-norm one; the
    direct margin is the smallest singular value of ``P + P* - I`` for the
    flattened ``x -> q x q``."""
    mu = _annulus(rng, k, 0.3, 0.9)
    z = _normal(rng, mu)
    q = np.block([[np.eye(k), z], [np.zeros((k, k)), np.zeros((k, k))]])
    p = np.kron(q.T, q)
    direct = np.linalg.svd(p + p.conj().T - np.eye(p.shape[0]),
                           compute_uv=False)[-1]
    pair = _pair_margin(mu, mu)
    argv = ["demo", "cq", "--z", _write(workdir, f"cq{k}_z.txt", z)]

    def check(res, notes):
        problems = []
        out = _cli_json(res, problems)
        if out is None:
            return problems
        if out["k"] != k:
            problems.append(f"k = {out['k']}")
        for key, ref in (("pair_margin", pair), ("op_margin", pair),
                         ("margin_direct", direct), ("q_norm", 1.0)):
            _expect(problems, key, out[key], ref)
        return problems

    return Op(f"demo cq k={k}", lambda: run_cli(argv), check)


def _two_companions_op(rng, workdir, k):
    mu = _annulus(rng, k, 0.3, 0.9)
    z = _normal(rng, mu)
    signs = np.array([1.0] * (k // 2) + [-1.0] * (k - k // 2))
    t = _normal(rng, signs)
    t = (t + t.conj().T) / 2.0
    argv = ["demo", "two_companions",
            "--z", _write(workdir, f"tc{k}_z.txt", z),
            "--t", _write(workdir, f"tc{k}_t.txt", t)]

    def check(res, notes):
        problems = []
        out = _cli_json(res, problems)
        if out is None:
            return problems
        if not (out["fixed_kernel"] and out["transported_to_block_range"]):
            problems.append(f"verdict fields {out}")
        _expect(problems, "transported_pair_margin",
                out["transported_pair_margin"], 0.0)
        _expect(problems, "original_pair_margin",
                out["original_pair_margin"], _pair_margin(mu, mu))
        return problems

    return Op(f"demo two_companions k={k}", lambda: run_cli(argv), check)


def _sylvester_op(rng, workdir, k):
    """Normal, non-diagonal ``c`` and ``d`` with spectra in discs around
    +2 and -2: the flattened map is normal, so its smallest singular value
    is the smallest eigenvalue distance."""
    lam = _disc(rng, k, 2.0, 0.5)
    mu = _disc(rng, k, -2.0, 0.5)
    c, d = _normal(rng, lam), _normal(rng, mu)
    w = _complex_gauss(rng, k, k)
    margin = float(np.min(np.abs(lam[:, None] - mu[None, :])))
    argv = ["demo", "sylvester",
            "--c", _write(workdir, f"syl{k}_c.txt", c),
            "--d", _write(workdir, f"syl{k}_d.txt", d),
            "--w", _write(workdir, f"syl{k}_w.txt", w)]

    def check(res, notes):
        problems = []
        out = _cli_json(res, problems)
        if out is None:
            return problems
        if out["solvable"] is not True:
            problems.append("solvable is not true")
        _expect(problems, "margin", out["margin"], margin)
        return problems

    return Op(f"demo sylvester k={k}", lambda: run_cli(argv), check)


def _symmetry_reference(k):
    z = np.diag(np.concatenate([np.ones(k // 2), -np.ones(k // 2)]))
    q = np.block([[np.eye(k), z], [np.zeros((k, k)), np.zeros((k, k))]])
    m = np.kron(q.T, q)
    eye = np.eye(m.shape[0])
    v = 2.0 * m - eye
    return {
        "margin_c": np.linalg.svd(m + m.T - eye, compute_uv=False)[-1],
        "q_norm": 2.0,
        "pair_margin": 0.0,
        "op_margin": 0.0,
        "min_symmetric": np.abs(np.linalg.eigvalsh(v + v.T)).min(),
    }


def _symmetry_op(ks):
    argv = ["study", "symmetry", "--ks", ",".join(map(str, ks)),
            "--format", "json"]
    refs = {k: _symmetry_reference(k) for k in ks}

    def check(res, notes):
        problems = []
        rows = _cli_json(res, problems)
        if rows is None:
            return problems
        if [row["n"] for row in rows] != list(ks):
            return problems + [f"row sizes {[r['n'] for r in rows]}"]
        for row in rows:
            flat = dict(row["aux"], margin_c=row["margin_c"],
                        q_norm=row["q_norm"])
            for key, ref in refs[row["n"]].items():
                _expect(problems, f"k={row['n']} {key}", flat[key], ref)
        return problems

    return Op(" ".join(argv), lambda: run_cli(argv), check)


def _svd_fixed(rng, svals):
    k = len(svals)
    return (_haar(rng, k) * svals) @ _haar(rng, k).conj().T


def _adz_op(rng, k):
    """``z`` with a fixed singular spectrum: every norm equals |z|^2."""
    top = float(rng.uniform(1.0, 2.0))
    z = _svd_fixed(rng, top * np.linspace(1.0, 0.25, k))
    model = schatten.matrix_space(k)

    def check(rep, notes):
        problems = []
        for key in ("frob_norm", "trace_norm_estimate", "znorm_sq"):
            _expect(problems, key, getattr(rep, key), top * top)
        return problems

    return Op(f"adz_norm_check k={k}",
              lambda: schatten.adz_norm_check(model, z), check)


def _gz_op(rng, k):
    """``x -> a x b``: the L-norm is |a||b| and both products in the
    right-hand side are sandwiches of trace-induced norm |a|^2 |b|^2."""
    na, nb = float(rng.uniform(1.2, 1.6)), float(rng.uniform(1.2, 1.6))
    a = _svd_fixed(rng, na * np.linspace(1.0, 0.3, k))
    b = _svd_fixed(rng, nb * np.linspace(1.0, 0.3, k))
    t = np.kron(b.T, a)
    ws = schatten.matrix_space(k).ws

    def check(rep, notes):
        problems = []
        if rep.holds is not True or rep.advisory is not True:
            problems.append(f"verdict fields {rep}")
        _expect(problems, "lhs", rep.lhs, na * nb)
        _expect(problems, "rhs", rep.rhs, (na * nb) ** 2)
        return problems

    return Op(f"gz_bound_check k={k}",
              lambda: space.gz_bound_check(ws, t), check)


def superop(rng, workdir):
    return [
        _cq_op(rng, workdir, 4),
        _cq_op(rng, workdir, 6),
        _two_companions_op(rng, workdir, 4),
        _sylvester_op(rng, workdir, 16),
        _sylvester_op(rng, workdir, 20),
        _symmetry_op((2, 4, 8)),
        _adz_op(rng, 4),
        _gz_op(rng, 6),
    ]


WORKLOADS = {
    "check_small": check_small,
    "proj_large": proj_large,
    "contour": contour,
    "superop": superop,
}


def build(name, seed, workdir):
    """The operations of one workload, with inputs drawn from ``seed``."""
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([int(seed) % 2 ** 63, index])
    return WORKLOADS[name](rng, workdir)
