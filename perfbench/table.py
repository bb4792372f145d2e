"""Per-call figures at the sizes of ROADMAP's informal baseline table.

    python3 perfbench/table.py

Each row is one public call at one size, on inputs drawn from ``SEED``,
run once to warm up and then ``REPS`` times under the tracer; the median
span time and the lapack counts inside the span are printed next to the
ROADMAP figure (measured there at two BLAS threads, best of 3).  Threads are pinned to one here.
The figures are written to ``perfbench/_runs/table.json``.
"""

import json
import os
import statistics
import sys
import tempfile

import run

SEED = 0
REPS = 3
ROADMAP = {
    "oblique_projection n=256": 0.66,
    "bare block solve n=256": 0.016,
    "compat_margin n=256": 0.87,
    "demo cq k=8": 1.1,
    "riesz_projection n=200": 1.2,
    "sylvester k=32": 0.81,
    "solve_sylvester k=32": 0.0009,
    "trace_opnorm_estimate k=6": 0.1,
}


def rows(rng, workdir):
    """(label, root span name, call) for each table row."""
    import numpy as np
    import scipy.linalg as la

    import workloads as wl
    from twonorm import compat, matio, rand, schatten, space, spectra, \
        subspaces

    ws = rand.random_space(rng, 256)
    s, t = rand.random_companion_pair(rng, ws, 128)
    stacked = np.hstack([s.basis, t.basis])
    z = wl._normal(rng, wl._annulus(rng, 8, 0.3, 0.9))
    z_path = os.path.join(workdir, "z8.txt")
    matio.dump_matrix(z, z_path)
    n = 200
    d = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    d[0] = 2.0
    v = np.eye(n) + wl._complex_gauss(rng, n, n) * (0.5 / np.sqrt(2 * n))
    riesz_t = (v * d) @ np.linalg.inv(v)
    riesz_ws = space.make_space(n, rand.random_pd_weight(rng, n))
    c = wl._normal(rng, wl._disc(rng, 32, 2.0, 0.5))
    dd = wl._normal(rng, wl._disc(rng, 32, -2.0, 0.5))
    w = wl._complex_gauss(rng, 32, 32)
    model6 = schatten.matrix_space(6)
    adz = schatten.sandwich(model6, wl._svd_fixed(
        rng, np.linspace(1.5, 0.4, 6))).matrix
    return [
        ("oblique_projection n=256", "subspaces.oblique_projection",
         lambda: subspaces.oblique_projection(ws, s, t)),
        ("bare block solve n=256", "lapack.inv",
         lambda: la.inv(stacked)),
        ("compat_margin n=256", "compat.compat_margin",
         lambda: compat.compat_margin(ws, s, t)),
        ("demo cq k=8", "cli.main",
         lambda: wl.run_cli(["demo", "cq", "--z", "file:" + z_path])),
        ("riesz_projection n=200", "spectra.riesz_projection",
         lambda: spectra.riesz_projection(riesz_ws, riesz_t, 2.0, 0.4, 64)),
        ("sylvester k=32", "schatten.sylvester",
         lambda: schatten.sylvester(c, dd, w)),
        ("solve_sylvester k=32", None,
         lambda: la.solve_sylvester(c, -dd, w)),
        ("trace_opnorm_estimate k=6", "space.trace_opnorm_estimate",
         lambda: space.trace_opnorm_estimate(model6.ws, adz)),
    ]


def main():
    run.import_program()
    import time

    import numpy as np

    import tracer as tr

    run.RUNS.mkdir(exist_ok=True)
    tracer = tr.Tracer()
    out = {}
    with tempfile.TemporaryDirectory(dir=run.RUNS) as workdir:
        table = rows(np.random.default_rng(SEED), workdir)
        print(f"{'operation':28s} {'span s':>9s} {'ROADMAP s':>9s} "
              f"{'ratio':>6s}  lapack calls inside")
        for label, root, call in table:
            call()
            times, counts = [], None
            for _ in range(REPS):
                tracer.reset()
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    call()
                    wall = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
                summary = tr.summarize(tracer.spans)
                times.append(summary["s"][root] if root else wall)
                counts = {k.split(".", 1)[1]: v
                          for k, v in sorted(summary["calls"].items())
                          if k.startswith("lapack.")}
            med = statistics.median(times)
            out[label] = {"s": med, "samples_s": times,
                          "roadmap_s": ROADMAP[label], "lapack_calls": counts}
            print(f"{label:28s} {med:9.4f} {ROADMAP[label]:9.4f} "
                  f"{med / ROADMAP[label]:6.2f}  "
                  + " ".join(f"{k}={v}" for k, v in counts.items()))
    out["env"] = run.environment()
    with open(run.RUNS / "table.json", "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
