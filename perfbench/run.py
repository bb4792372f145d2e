"""Benchmark of the twonorm CLI and library: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The loop is closed and single-process: each operation starts
after the previous one returns.  BLAS and OpenMP threads are pinned to one.

``--trace 0`` measures the end-to-end metrics with the program untouched:

* ``setup_s`` -- median wall time of a fresh interpreter running
  ``import twonorm.cli`` (numpy and scipy included), the cost every shell
  invocation pays.  The imports are spread evenly over the run, between
  passes, so that they meet the same machine phases as the passes; one
  untimed import first writes the bytecode cache, which users pay once;
* ``pass_rel.p50`` and ``pass_rel.tail`` -- median and tail of the wall
  time of one warm pass over the workload's operations, each pass divided
  by the wall time of a fixed calibration kernel run just before it.  The
  tail is the highest percentile with ten passes beyond it; the report
  lines name it and give the same figures in seconds (``pass_s.p50``,
  ``pass_s.tail``);
* ``peak_rss_mb`` -- peak resident memory of this process.

Why the calibration: on a shared virtual machine the speed of a core can
drop by 1.4-1.7x for seconds at a time, with no steal time reported.  Such
phases move every pass and the kernel alike, so the ratio stays put while
seconds do not; the kernel uses only numpy and scipy on constant inputs,
so no change to twonorm can move it.

``--trace 1`` alternates untraced and traced passes and reports per-layer
figures per traced pass (see ``tracer.py``), plus the tracing overhead.

Every pass's outputs are checked against the references in
``workloads.py``; a failed check counts the operation as failed.  The last
line of standard output is the JSON result; the lines before it are the
human-readable report.  Spans and a full report go to ``perfbench/_runs/``.
"""

import argparse
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / "_runs"
SETUP_REPS = 7
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import twonorm from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "twonorm" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no twonorm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twonorm
    if Path(twonorm.__file__).resolve().parent != (SRC / "twonorm").resolve():
        raise SystemExit(f"run.py: imported twonorm from {twonorm.__file__}")
    return twonorm


def fresh_import():
    """Wall time of a fresh interpreter importing ``twonorm.cli``."""
    import subprocess
    import time

    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import twonorm.cli"], env=env,
                   check=True, cwd=ROOT)
    return time.perf_counter() - t0


def calibration_input():
    import numpy as np
    rng = np.random.default_rng(20150302)
    return rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))


def calibrate(a):
    """Wall time of a fixed mix of LAPACK calls and interpreted loops."""
    import time

    import scipy.linalg as la

    t0 = time.perf_counter()
    for _ in range(15):
        la.svd(a)
        la.inv(a)
        la.eigvals(a)
        acc = 0
        for i in range(3000):
            acc += i * i
    return time.perf_counter() - t0


def tail(samples, beyond=TAIL_BEYOND):
    """Highest percentile of ``samples`` with ``beyond`` samples above it:
    returns (value, percentile label, sample count)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return xs[-1], "max", n
    i = n - beyond - 1
    return xs[i], f"p{100.0 * (i + 1) / n:.0f}", n


def environment():
    import platform

    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


class Runner:
    """Runs and checks passes over one workload's operations."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = {}
        self.suppressed = 0

    def run_pass(self):
        """One pass; returns (wall seconds, results).  A result is the
        exception instance when the operation raised."""
        import time
        import warnings

        from twonorm.errors import IllConditionedWarning

        results = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IllConditionedWarning)
            t0 = time.perf_counter()
            for op in self.ops:
                try:
                    results.append(op.run())
                except Exception as exc:  # counted as a failed operation
                    results.append(exc)
            wall = time.perf_counter() - t0
        self.suppressed = sum(
            issubclass(w.category, IllConditionedWarning) for w in caught)
        return wall, results

    def check(self, results):
        notes = {}
        for op, res in zip(self.ops, results):
            self.attempted += 1
            if isinstance(res, Exception):
                problems = [f"raised {type(res).__name__}: {res}"]
            else:
                problems = op.check(res, notes)
            if problems:
                self.failed += 1
                self.problems.append((op.label, problems))
        for key, val in notes.items():
            self.notes.setdefault(key, []).append(val)


def layer_metrics(summaries, runner):
    """Per-layer metrics from the per-pass span summaries.

    Times are medians over traced passes; counts must repeat exactly from
    pass to pass and are reported once."""
    import statistics

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def count(fn):
        vals = {fn(s) for s in summaries}
        if len(vals) != 1:
            runner.problems.append(("counts", [f"differ across passes: "
                                               f"{sorted(vals)}"]))
        return vals.pop()

    def calls(name):
        return count(lambda s: s["calls"].get(name, 0))

    def secs(name):
        return med(lambda s: s["s"].get(name, 0.0))

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    from tracer import LAPACK_KINDS, MODULES
    layers = MODULES + ("lapack",)
    for layer in layers:
        put(f"{layer}.errors",
            count(lambda s, ly=layer: s["errors"].get(ly, 0)), "count")
    for layer in ("cli", "rand", "space", "subspaces", "compat", "spectra",
                  "schatten", "studies"):
        put(f"{layer}.self_s",
            med(lambda s, ly=layer: s["self_s"].get(ly, 0.0)), "s")
    for layer in ("subspaces", "compat", "spectra", "schatten", "studies"):
        put(f"{layer}.incl_s",
            med(lambda s, ly=layer: s["incl_s"].get(ly, 0.0)), "s")
    for name in ("cli.main", "matio.load_matrix", "space.make_space",
                 "space.plus_matrix", "space.trace_opnorm_estimate",
                 "subspaces.oblique_projection", "subspaces.complement_L",
                 "subspaces.span", "compat.compat_margin", "spectra.spectrum",
                 "rand.random_companion_pair"):
        put(f"{name}.calls", calls(name), "count")
    for name in ("matio.load_matrix", "space.make_space", "space.plus_matrix",
                 "space.trace_opnorm_estimate",
                 "subspaces.oblique_projection", "subspaces.complement_L",
                 "compat.compat_margin", "compat.compat_projection",
                 "compat.buckholtz_verify", "spectra.spectrum",
                 "spectra.riesz_projection", "schatten.sylvester",
                 "schatten.cq_compat_demo", "schatten.z_criterion_margin",
                 "schatten.adz_norm_check",
                 "studies.diverging_vector_study",
                 "studies.symmetry_truncation_study"):
        put(f"{name}.s", secs(name), "s")
    for kind in LAPACK_KINDS:
        put(f"lapack.{kind}.calls", calls(f"lapack.{kind}"), "count")
        put(f"lapack.{kind}.s", secs(f"lapack.{kind}"), "s")
    put("lapack.calls", count(lambda s: sum(
        v for k, v in s["calls"].items() if k.startswith("lapack."))),
        "count")
    put("lapack.s", med(lambda s: sum(
        v for k, v in s["s"].items() if k.startswith("lapack."))), "s")
    put("lapack.flops", count(lambda s: s["flops"]), "flop")
    put("lapack.bytes", count(lambda s: s["bytes"]), "B")
    margin_calls = m["compat.compat_margin.calls"]["value"]
    put("compat.formula_route_ratio",
        count(lambda s: s["formula"]) / margin_calls if margin_calls else 0.0,
        "ratio")
    put("compat.suppressed.calls", count(lambda s: s["suppressed"]), "count")
    attempts = count(lambda s: s["companion_attempts"])
    put("rand.companion_accept_ratio",
        count(lambda s: s["companion_accepted"]) / attempts if attempts
        else 0.0, "ratio")
    put("studies.rows", count(lambda s: s["rows"]), "count")
    headroom = runner.notes.get("plus_res_headroom", [])
    put("spectra.riesz.plus_res_headroom",
        max((max(h) for h in headroom), default=0.0), "ratio")
    put("spectra.riesz.threshold_trips",
        max(runner.notes.get("threshold_trips", [0])), "count")
    return m


def main(argv=None):
    args = parse_args(argv)
    import json
    import resource
    import shutil
    import statistics
    import tempfile
    import time

    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": environment()}
    metrics = {}
    setups = []
    if not args.trace:
        fresh_import()

    workdir = tempfile.mkdtemp(prefix=f"inputs-{tag}-", dir=RUNS)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(ops)
        runner.run_pass()                     # warm-up, unchecked, untimed
        walls, traced_walls, summaries, cals = [], [], [], []
        tracer = None
        if args.trace:
            from tracer import Tracer, summarize
            tracer = Tracer()
        cal_input = calibration_input()
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            if tracer is None:
                if time.perf_counter() - start >= \
                        len(setups) * args.seconds / SETUP_REPS:
                    setups.append(fresh_import())
                cals.append(calibrate(cal_input))
            wall, results = runner.run_pass()
            runner.check(results)
            walls.append(wall)
            if tracer is None:
                continue
            tracer.reset()
            tracer.install()
            try:
                wall_t, traced = runner.run_pass()
            finally:
                tracer.uninstall()
            runner.check(traced)
            traced_walls.append(wall_t)
            summary = summarize(tracer.spans)
            summary["suppressed"] = runner.suppressed
            summaries.append(summary)
            if [workloads.result_key(r) for r in traced] != \
                    [workloads.result_key(r) for r in results]:
                runner.problems.append(("trace", ["traced outputs differ "
                                                  "from untraced ones"]))
        measured = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(walls)} untraced and {len(traced_walls)} traced passes "
             f"in {measured:.1f} s; {runner.attempted} operations, "
             f"{runner.failed} failed (fail_ratio "
             f"{runner.failed / max(runner.attempted, 1):.4g})"]
    if tracer is None:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        rel = [w / c for w, c in zip(walls, cals)]
        tail_rel, tail_label, n = tail(rel)
        metrics["pass_rel.p50"] = {"value": statistics.median(rel),
                                   "unit": "cal"}
        metrics["pass_rel.tail"] = {"value": tail_rel, "unit": "cal"}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        report.update(tail_percentile=tail_label, pass_samples_s=walls,
                      calibration_samples_s=cals, setup_samples_s=setups)
        lines.append(
            f"pass_rel.tail and pass_s.tail are the {tail_label} of {n} "
            f"passes; 1 cal = calibration kernel, median "
            f"{statistics.median(cals):.4f} s; pass_s.p50 "
            f"{statistics.median(walls):.4f} s, pass_s.tail "
            f"{tail(walls)[0]:.4f} s; setup_s is the median of {len(setups)} "
            f"fresh imports")
    else:
        metrics = layer_metrics(summaries, runner)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        lapack_calls = metrics["lapack.calls"]["value"]
        incl = {layer: metrics[f"{layer}.incl_s"]["value"]
                for layer in ("subspaces", "compat", "spectra", "schatten")}
        lines.append(
            f"tracing overhead {overhead:.4f} s per pass "
            f"(traced p50 {statistics.median(traced_walls):.4f} s, untraced "
            f"p50 {statistics.median(walls):.4f} s); mean lapack call "
            f"{1e3 * metrics['lapack.s']['value'] / max(lapack_calls, 1):.3f}"
            f" ms over {lapack_calls} calls; largest inclusive share "
            f"{max(incl, key=incl.get)}; lapack.flops and lapack.bytes are "
            f"computed from shapes, not measured")
        tracer.write_spans(RUNS / f"spans-{tag}.jsonl")
    report["fail_ratio"] = runner.failed / max(runner.attempted, 1)
    report["problems"] = runner.problems[:50]
    lines.append("env " + json.dumps(report["env"], sort_keys=True))
    for label, problems in dict(runner.problems).items():
        lines.append(f"FAILED {label}: {'; '.join(problems)[:300]}")
    correct = runner.failed == 0 and not runner.problems
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    report["result"] = result
    with open(RUNS / f"report-{tag}.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
