"""Self-test of the benchmark: python3 perfbench/selftest.py

Fails (exit 1) when

* a public twonorm function that a workload reaches is called without
  passing through its tracer wrapper, or a twonorm namespace still holds
  an unwrapped reference while the tracer is installed;
* traced outputs differ from untraced ones;
* span counts, lapack counts, flops or bytes differ between two traced
  passes, or between two separate ``--trace 1`` runs with the same seed;
* a workload's checks accept outputs whose numbers or exit codes were
  altered;
* the design does not hold on the traced passes: spectra, schatten and
  subspaces-with-compat carry the largest inclusive share on contour,
  superop and proj_large; the mean lapack call is under 0.2 ms on
  check_small and over 1 ms on proj_large;
* ``run.py`` prints a result or exits 0 in a directory holding only
  ``BENCHMARK.json`` and the benchmark's files.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile

import run

SEED = 3
NUMERIC = ("subspaces", "compat", "spectra", "schatten")


def _perturb(obj):
    if isinstance(obj, bool) or isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return obj * 1.01 + 0.01
    if isinstance(obj, list):
        return [_perturb(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _perturb(v) for k, v in obj.items()}
    return obj


def mutants(result, workloads):
    if isinstance(result, workloads.CliResult):
        yield "exit code", workloads.CliResult(result.code + 1, result.out,
                                               result.err)
        yield "numbers", workloads.CliResult(
            result.code, json.dumps(_perturb(json.loads(result.out))),
            result.err)
    else:
        yield "numbers", dataclasses.replace(result, **{
            f.name: _perturb(getattr(result, f.name))
            for f in dataclasses.fields(result)})


def check_workload(name, workloads, tracer_mod, workdir, failures):
    ops = workloads.build(name, SEED, workdir)
    runner = run.Runner(ops)
    _, plain = runner.run_pass()
    runner.check(plain)
    if runner.problems:
        failures.append(f"{name}: untraced checks failed {runner.problems}")

    tracer = tracer_mod.Tracer()
    codes = {id(fn.__code__): span for span, fn in tracer.originals.items()}
    profiled = {}

    def profile(frame, event, arg):
        if event == "call":
            span = codes.get(id(frame.f_code))
            if span:
                profiled[span] = profiled.get(span, 0) + 1

    summaries, traced = [], []
    tracer.install()
    try:
        stale = tracer.unpatched_references()
        if stale:
            failures.append(f"unwrapped references while installed: {stale}")
        for rep in range(2):
            tracer.reset()
            if rep == 0:
                sys.setprofile(profile)
            try:
                _, out = runner.run_pass()
            finally:
                sys.setprofile(None)
            traced.append(out)
            summaries.append(tracer_mod.summarize(tracer.spans))
    finally:
        tracer.uninstall()

    spans = {k: v for k, v in summaries[0]["calls"].items()
             if not k.startswith("lapack.")}
    if profiled != spans:
        missed = {k: (profiled.get(k, 0), spans.get(k, 0))
                  for k in set(profiled) | set(spans)
                  if profiled.get(k, 0) != spans.get(k, 0)}
        failures.append(f"{name}: calls that bypassed the tracer "
                        f"(profiled, traced): {missed}")
    key = workloads.result_key
    for out in traced:
        if [key(r) for r in out] != [key(r) for r in plain]:
            failures.append(f"{name}: traced outputs differ from untraced")
    first, second = summaries
    for field in ("calls", "flops", "bytes", "formula", "rows",
                  "companion_accepted", "companion_attempts"):
        if first[field] != second[field]:
            failures.append(f"{name}: {field} differ between traced passes")

    for op, res in zip(ops, plain):
        for what, bad in mutants(res, workloads):
            if not op.check(bad, {}):
                failures.append(f"{name}: check of {op.label!r} accepted "
                                f"altered {what}")
    return summaries[1], len(profiled)


def design(name, s, failures):
    incl = {layer: s["incl_s"].get(layer, 0.0) for layer in NUMERIC}
    calls = sum(v for k, v in s["calls"].items() if k.startswith("lapack."))
    mean_ms = 1e3 * sum(v for k, v in s["s"].items()
                        if k.startswith("lapack.")) / max(calls, 1)
    top = max(incl, key=incl.get)
    print(f"  {name}: inclusive {', '.join(f'{k} {v:.3f}s' for k, v in incl.items())}"
          f"; largest {top}; mean lapack call {mean_ms:.3f} ms over {calls}")
    want = {"contour": ("spectra",), "superop": ("schatten",),
            "proj_large": ("subspaces", "compat")}.get(name)
    if want and top not in want:
        failures.append(f"{name}: largest inclusive share is {top}, "
                        f"expected {' or '.join(want)}")
    if name == "check_small" and not mean_ms < 0.2:
        failures.append(f"check_small: mean lapack call {mean_ms:.3f} ms")
    if name == "proj_large" and not mean_ms > 1.0:
        failures.append(f"proj_large: mean lapack call {mean_ms:.3f} ms")


def run_counts(name):
    cmd = [sys.executable, str(run.Path(run.__file__)), "--workload", name,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=180)
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "flop", "B")}


def check_bare_directory(failures):
    """run.py must refuse, without a result, where the sources are absent."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.RUNS)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.Path(run.__file__).parent, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("_runs", "__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check_small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or out.stdout.strip():
            failures.append(f"bare directory: exit {out.returncode}, "
                            f"stdout {out.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    run.import_program()
    import tracer
    import workloads

    run.RUNS.mkdir(exist_ok=True)
    failures = []
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.RUNS)
    try:
        for name in workloads.WORKLOADS:
            summary, reached = check_workload(name, workloads, tracer,
                                              workdir, failures)
            print(f"{name}: {reached} public functions reached")
            design(name, summary, failures)
            if run_counts(name) != run_counts(name):
                failures.append(f"{name}: counts differ between two runs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_bare_directory(failures)
    for line in failures:
        print("FAIL " + line)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
