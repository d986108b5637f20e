#!/usr/bin/env python3
"""smig benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload table1_image --seed 1 --seconds 55 --trace 0

One process, one client, closed loop: each request is one or more calls of
``smig.cli.main(argv)`` on the sources in ``src/``, issued only after the
previous request finished and was checked.  The loop runs for about
``--seconds`` (see closed_loop).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
request twice, untraced and then traced (see layertrace.py), and reports
the per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  Without the smig
sources next to this directory the benchmark exits with code 2.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SMIG_MODULES = ("cli", "config", "em", "fileio", "forward", "imaging", "specfun", "structure")

SETUP_REPEATS = 7
SETUP_CODE = """\
import smig, smig.cli
from smig import config as c
cfg = c.RunConfig()
c.build_medium(cfg); c.build_array(cfg); c.build_anomalies(cfg); c.build_grid(cfg)
c.build_rank_policy(cfg); c.build_imaging_wavenumber(cfg)
print(smig.__file__)
"""

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def single_thread_blas():
    """One BLAS thread; set before numpy loads.

    smig's BLAS calls are small matrix-vector products and SVDs.  A second
    OpenBLAS thread spun on the other core, doubling the process's CPU time
    without shortening requests.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def smig_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup():
    """Median wall time of a fresh interpreter importing smig.cli and building
    the default RunConfig domain objects."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=smig_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.strip().startswith(SRC):
            raise RuntimeError("set-up run failed: %s%s" % (proc.stdout, proc.stderr))
    return statistics.median(times)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment(seed):
    import numpy as np

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        level = (_read(os.path.join(cache_dir, index, "level")) or "").strip()
        size = (_read(os.path.join(cache_dir, index, "size")) or "").strip()
        if level in ("2", "3"):
            caches["L%s" % level] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "seed": seed,
        "git_commit": commit,
    }


def execute(cli, calls):
    """Run smig once per argv in calls; returns (wall seconds, [(argv, (code, out, err))])."""
    results = []
    start = time.perf_counter()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crash is a failed request; the loop goes on
            code = None
            err.write(traceback.format_exc())
        results.append((argv, (code, out.getvalue(), err.getvalue())))
    return time.perf_counter() - start, results


class Run:
    """Counts requests and failures; prints the reason of each failure to stderr."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def check(self, request, results):
        self.attempted += 1
        try:
            reason = self.workload.check(request, results)
        except Exception:  # an output the checker cannot read is a wrong output
            reason = traceback.format_exc()
        if reason:
            self.failed += 1
            print("check failed: %s: %s" % (self.workload.name, reason), file=sys.stderr)


def closed_loop(stream, seconds, step):
    """Call step(request) for about seconds.

    At least one request runs; another starts only if, at the mean request
    time so far, it would end within seconds, so a run never overshoots by
    a whole request.
    """
    start = time.perf_counter()
    count = 0
    while True:
        step(next(stream))
        count += 1
        if (time.perf_counter() - start) * (count + 1) / count > seconds:
            return


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return None
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def end_to_end(modules, workload, stream, seconds, run):
    """Gated metrics, and the metrics printed without a gate."""
    cli = modules["cli"]
    setup_s = measure_setup()
    latencies = []

    def step(request):
        latency, results = execute(cli, request.calls)
        latencies.append(latency)
        run.check(request, results)

    closed_loop(stream, seconds, step)
    busy = sum(latencies)
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "requests_per_s": len(latencies) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    points_per_s = workload.points * len(latencies) / busy if workload.points else None
    info = [
        ("latency_tail_s", tail(latencies), "s"),
        ("map_points_per_s", points_per_s, "1/s"),
        ("ops_failed_ratio", run.failed / run.attempted, "ratio"),
    ]
    return metrics, END_TO_END_UNITS, info


def hankel_scipy_ns_per_arg(arg_chunks):
    """scipy.special.hankel1(0, z) on the same argument chunks: a reference ceiling."""
    try:
        from scipy.special import hankel1
    except ImportError:
        return None
    count = sum(chunk.size for chunk in arg_chunks)
    start = time.perf_counter()
    for chunk in arg_chunks:
        hankel1(0, chunk)
    return 1e9 * (time.perf_counter() - start) / count if count else None


def traced(modules, workload, stream, seconds, run):
    """Per-layer metrics, and the metrics printed without a gate."""
    import layertrace

    cli = modules["cli"]
    tracer = layertrace.Tracer(modules)
    untraced_s = traced_s = 0.0
    requests = 0
    first_hankel_args = []

    def step(request):
        nonlocal untraced_s, traced_s, requests
        latency, results = execute(cli, request.calls)
        run.check(request, results)
        untraced_s += latency
        tracer.request = requests
        tracer.hankel_args = first_hankel_args if requests == 0 else None
        tracer.install()
        try:
            latency, results = execute(cli, request.calls)
        finally:
            tracer.uninstall()
        run.check(request, results)
        traced_s += latency
        requests += 1

    closed_loop(stream, seconds, step)
    metrics = layertrace.layer_metrics(tracer.spans, requests)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    info = [
        ("specfun.hankel1_0.scipy_ref_ns_per_arg", hankel_scipy_ns_per_arg(first_hankel_args),
         "ns"),
        ("trace.requests", requests, "count"),
    ]
    return metrics, layertrace.PER_LAYER_UNITS, info


def load_smig():
    sys.path.insert(0, SRC)
    modules = {name: importlib.import_module("smig." + name) for name in SMIG_MODULES}
    if not modules["cli"].__file__.startswith(SRC + os.sep):
        raise ImportError("smig was imported from %s, not %s" % (modules["cli"].__file__, SRC))
    return modules


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "smig", "cli.py")):
        print("error: no smig sources in %s" % SRC, file=sys.stderr)
        return 2
    single_thread_blas()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    modules = load_smig()

    out = os.path.join(WORK, "%s-%d" % (workload.name, os.getpid()))
    os.makedirs(out)
    try:
        execute(modules["cli"], workload.warmup(out))
        run = Run(workload)
        stream = workloads.requests(workload, args.seed, out)
        measure = traced if args.trace else end_to_end
        metrics, units, info = measure(modules, workload, stream, args.seconds, run)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    print("env %s" % json.dumps(environment(args.seed), sort_keys=True))
    report = [(name, metrics[name], unit) for name, unit in units.items()] + info
    for name, value, unit in report:
        print("metric %s %s %s" % (name, json.dumps(value), unit))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
