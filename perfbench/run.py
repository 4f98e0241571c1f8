#!/usr/bin/env python3
"""attostm benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one process each

Run from the root of a source checkout: attostm is imported from ``src/``
next to this directory, never from an installed copy. Workloads, metrics
and bounds are declared in ``BENCHMARK.json`` and explained in
``perfbench/README.md``.

--trace 0 reports the end-to-end metrics: the mean wall time of one
repetition of the workload body over the run (repeated while another fits
in --seconds), the median set-up time over SETUP_SAMPLES fresh processes,
and the process's peak resident set after the first repetition. --trace 1 runs one
untraced and one traced repetition and reports the per-layer ledger plus
the tracing overhead.
Either way the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full record (seed, environment, observables, sample counts).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def timed_setup(name, seed, workdir):
    """Import attostm and build the workload's inputs; (seconds, module, inputs)."""
    started = time.perf_counter()
    import workloads  # imports attostm, numpy, scipy and yaml
    inputs = workloads.WORKLOADS[name].setup(seed, workdir)
    return time.perf_counter() - started, workloads, inputs


def setup_in_fresh_process(args):
    out = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", args.workload,
         "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "attostm").rglob("*")):
        if path.suffix in (".py", ".yaml"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                          "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def environment(observed):
    import numpy
    import scipy
    try:
        import cpuinfo
        cpu = cpuinfo.get_cpu_info().get("brand_raw")
    except ImportError:
        cpu = platform.processor() or None
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    from attostm.kernels import default_backend_name
    backends = {o["backend"] for o in observed if "backend" in o}
    return {"git_rev": git_rev(), "source_sha256": source_digest(),
            "cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba_imports": has_numba,
            "backend": sorted(backends) if backends else default_backend_name(),
            "backend_source": ("propagation.json" if backends
                               else "attostm.kernels.default_backend_name"),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV}}


def repeat(body, inputs, workdir, seconds):
    """Run the body while another repetition fits in `seconds` (at least once).

    Also returns the peak resident set (MB) after the first repetition: what
    a one-shot CLI run sees, independent of how many repetitions fit."""
    walls, runs = [], []
    while True:
        out = workdir / f"rep{len(walls)}"
        started = time.perf_counter()
        outcome = body(inputs, out)
        walls.append(time.perf_counter() - started)
        runs.append((out, outcome))
        if len(walls) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if sum(walls) + walls[-1] > seconds:
            return walls, runs, peak_mb


def check_all(wl, inputs, runs, seed):
    attempted = failed = 0
    observed = []
    for out, outcome in runs:
        c = wl.check(inputs, out, outcome, seed)
        attempted += len(c.passed)
        failed += sum(not ok for ok in c.passed.values())
        observed.append(dict(c.observed, failed_ops=sorted(
            k for k, ok in c.passed.items() if not ok)))
    return attempted, failed, observed


def main(argv=None):
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "attostm" / "__init__.py").is_file():
        sys.exit(f"no attostm sources under {SRC}: run from a source checkout")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(names, args)

    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = RUNS / tag
    workdir.mkdir()
    try:
        setup_s, workloads, inputs = timed_setup(args.workload, args.seed, workdir)
        import attostm
        if Path(attostm.__file__).resolve().parent != SRC / "attostm":
            sys.exit(f"attostm imported from {attostm.__file__}, not {SRC}")
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        wl = workloads.WORKLOADS[args.workload]
        if args.trace:
            result, record = traced_run(args, wl, inputs, workdir, tag)
        else:
            result, record = timed_run(args, wl, inputs, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, attempted=result["attempted"],
                  failed=result["failed"],
                  environment=environment(record["observed"]))
    (RUNS / f"{tag}.json").write_text(
        json.dumps(dict(record, result=result), indent=1) + "\n")
    report(args.workload, result, record)
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


def timed_run(args, wl, inputs, workdir, own_setup_s):
    setups = [own_setup_s] + [setup_in_fresh_process(args)
                              for _ in range(SETUP_SAMPLES - 1)]
    walls, runs, peak_mb = repeat(wl.body, inputs, workdir, args.seconds)
    attempted, failed, observed = check_all(wl, inputs, runs, args.seed)
    # the mean, not the median: the host's speed for interpreter-bound code
    # flips between two levels in stretches of seconds, so the median of a
    # few repetitions jumps between them where the mean moves smoothly
    values = {"wall_s": statistics.mean(walls),
              "setup_s": statistics.median(setups), "peak_rss_mb": peak_mb}
    samples = {"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": 1}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"samples": samples, "wall_s_samples": walls,
              "wall_s_median": statistics.median(walls),
              "setup_s_samples": setups,
              "failed_ops_ratio": failed / attempted, "observed": observed}
    return result, record


def traced_run(args, wl, inputs, workdir, tag):
    started = time.perf_counter()
    plain = wl.body(inputs, workdir / "untraced")
    untraced_s = time.perf_counter() - started
    tracer = tracing.Tracer()
    tracer.install()
    try:
        started = time.perf_counter()
        traced = wl.body(inputs, workdir / "traced")
        traced_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    attempted, failed, observed = check_all(
        wl, inputs, [(workdir / "untraced", plain), (workdir / "traced", traced)],
        args.seed)
    values, calls = tracing.ledger(tracer.spans, traced_s)
    values["trace.overhead"] = traced_s / untraced_s - 1.0
    missing = sorted(name for name, source in tracing.LEDGER.items()
                     if source in wl.reaches and not calls.get(source))
    for name in missing:
        print(f"missing: {name} (no call of {tracing.LEDGER[name]})",
              file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["per_layer"] if m["name"] not in missing}
    tracer.write(RUNS / f"{tag}.spans.json.gz")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
              "span_calls": calls, "missing": missing,
              "bypassed": sorted(set(tracing.LEDGER.values()) - wl.reaches),
              "failed_ops_ratio": failed / attempted, "observed": observed}
    return result, record


def report(workload, result, record):
    """Human-readable lines: every metric with its unit and sample count."""
    samples = record.get("samples", {})
    for name, m in result["metrics"].items():
        n = samples.get(name)
        stat = {"wall_s": "mean of ", "setup_s": "median of "}.get(name, "")
        extra = f"  ({stat}n={n})" if n else ""
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"{workload}  failed_ops_ratio = {result['failed']}/"
          f"{result['attempted']} = {record['failed_ops_ratio']:.3g}")


def run_all(names, args):
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        for line in out.stdout.splitlines():
            if line.startswith(name + "  "):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
