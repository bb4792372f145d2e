"""Shared draw and call-counting helpers for the test suite."""

import os
from pathlib import Path

import numpy as np
import scipy.linalg as la

import twonorm as tn
from twonorm import rand

# pyproject's ``pythonpath`` puts src/ on this process's path only; the CLI
# tests that start ``python -m twonorm`` need it in the environment too.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH"),
]))


def modest_space(rng, n, floor=1e-2):
    """Random weighted space with eigenvalues no smaller than ``floor``.

    The weight is a Haar-rotated diagonal with entries log-uniform in
    [floor, 1], rescaled so the largest equals one.  Keeping the spread
    bounded keeps round-off in weighted solves well below the flat
    tolerances the randomized suites assert.
    """
    u = rand.haar_unitary(rng, n)
    d = np.exp(rng.uniform(np.log(floor), 0.0, size=n))
    d = d / d.max()
    return tn.make_space(n, (u * d) @ u.conj().T)


def rotated_normal(rng, k):
    """Normal matrix with complex Gaussian eigenvalues."""
    u = rand.haar_unitary(rng, k)
    return (u * rand._complex_gauss(rng, k)) @ u.conj().T


# the factorization entry points of scipy.linalg and numpy.linalg, as
# ``count_calls`` takes them
FACTORIZATIONS = {
    la: ("eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals", "qr",
         "lu", "lu_factor", "cholesky", "cho_factor", "schur", "inv",
         "solve", "lstsq", "pinv", "null_space", "orth", "subspace_angles"),
    np.linalg: ("eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals",
                "qr", "cholesky", "inv", "solve", "lstsq", "pinv",
                "matrix_rank", "cond"),
}


def count_calls(monkeypatch, names):
    """Wrap each named function of each module so that calls are counted;
    return the dict of counts, keyed ``module.name``."""
    calls = {}

    def wrap(owner, name):
        fn = getattr(owner, name)
        key = f"{owner.__name__}.{name}"

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, fns in names.items():
        for name in fns:
            wrap(owner, name)
    return calls
