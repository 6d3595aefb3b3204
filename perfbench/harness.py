"""Runs one workload of the curvegp benchmark and prints its metrics.

One process, one client, closed loop: each job starts when the previous one
ends, through in-process `curvegp.cli.main(argv)`. `--trace 0` times the job
list once and prints the end-to-end metrics. `--trace 1` runs the same job
list untraced and then traced, and prints the per-layer metrics. The last line
of standard output is one JSON object; the exit code is 1 if any job exits
non-zero or fails its output check.
"""

from __future__ import annotations

import argparse
import contextlib
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
import warnings

import numpy
import scipy

import curvegp.cli as cli
import reference
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, CheckFailed, job_count

SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root) -> str:
    """HEAD of the checkout's own .git, without looking above the checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds(root) -> float:
    """Wall time of `import curvegp.cli` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import curvegp.cli"], env=env,
                   cwd=root, check=True)
    return time.perf_counter() - start


def run_job(job, probe=None) -> tuple[float, bool, float]:
    """Run the job's CLI calls in order; returns (seconds, all exited 0,
    median reference-kernel seconds during the job). With a probe, the
    kernel's own runs are left out of the job's seconds; without one the
    third value is 1.0."""
    sink = io.StringIO()
    ok, end = True, float("inf")
    if probe:
        probe.start()
    start = time.perf_counter()
    try:
        for argv in job.argvs:
            with contextlib.redirect_stderr(sink), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            if code != 0:
                ok = False
                break
        end = time.perf_counter()
    finally:
        busy, ref = probe.stop(end) if probe else (0.0, 1.0)
    if not ok:
        print(f"job failed: curvegp {' '.join(argv)} -> exit {code}: "
              f"{sink.getvalue().strip()}", file=sys.stderr)
    return end - start - busy, ok, ref


def run_jobs(jobs, tracer=None):
    """Closed loop over the job list, once.

    Returns each job's seconds, the same in multiples of the reference
    kernel's median time during the job (untraced only), the number of
    failed jobs, and the jobs' quality figures. Every job is followed,
    untimed, by its output check; a job fails if it exits non-zero or fails
    the check.
    """
    probe = None if tracer else reference.Probe()
    times, ref_times = [], []
    failed, quality = 0, {}
    for job in jobs:
        elapsed, ok, ref = run_job(job, probe)
        times.append(elapsed)
        ref_times.append(elapsed / ref)
        if not ok:
            failed += 1
            continue
        with tracer.paused() if tracer else contextlib.nullcontext():
            try:
                figures = job.check()
            except CheckFailed as exc:
                failed += 1
                print(f"check failed: {exc}", file=sys.stderr)
                continue
        for key, value in figures.items():
            quality.setdefault(key, []).append(value)
    return times, ref_times, failed, quality


def tail(times):
    """(value, percentile, n) of the highest percentile with at least 10
    jobs beyond it, or None when there are fewer than 11 jobs."""
    n = len(times)
    if n < 11:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n, n


def main(argv, root, process_start, blas_threads) -> int:
    args = parse_args(argv)
    imported = time.perf_counter()
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workload = WORKLOADS[args.workload]
    jobs_per_run = job_count(workload, args.seconds)
    work_root = os.path.join(root, ".perfbench-work")
    work = os.path.join(work_root, f"{args.workload}-s{args.seed}-{os.getpid()}")
    tracer = None
    try:
        # Set-up, repeated: a fresh interpreter's import, seeded input
        # generation and file writing, then one untimed warm-up job.
        setups = []
        for r in range(SETUP_REPEATS):
            import_s = import_seconds(root)
            start = time.perf_counter()
            run_dir = os.path.join(work, f"setup{r}")
            os.makedirs(run_dir)
            warmup, jobs = workload.generate(run_dir, args.seed, jobs_per_run)
            if not run_job(warmup)[1]:
                print("error: warm-up job failed", file=sys.stderr)
                return 1
            setups.append(import_s + time.perf_counter() - start)

        times, ref_times, failed, quality = run_jobs(jobs)
        if args.trace:  # the job list again, traced
            tracer = Tracer()
            tracer.install()
            try:
                traced, _, traced_failed, _ = run_jobs(jobs, tracer)
            finally:
                tracer.uninstall()
            failed += traced_failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    attempted = len(jobs) * (2 if tracer else 1)
    wall_s = sum(times)
    provenance = {
        "git_sha": git_sha(root), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "jobs": len(times), "trace": args.trace,
        "process_import_s": imported - process_start}
    print("provenance " + json.dumps(provenance, sort_keys=True))

    if tracer:
        values = tracer.layer_metrics()
        traced_s = sum(traced)
        values["trace.wall_s"] = traced_s
        values["trace.overhead_s"] = traced_s - wall_s
        for name, value in values.items():
            print(f"layer {name} = {value!r}")
        layer_self = tracer.layer_self_times()
        for name in LAYERS:
            print(f"layer_self {name} = {layer_self[name]!r} s")
        top = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:8]
        for name, value in top:
            print(f"span_self {name} = {value!r} s")
        out_dir = os.path.join(root, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-s{args.seed}.csv")
        tracer.write(spans_path)
        print(f"spans: {os.path.relpath(spans_path, root)}; tracing overhead "
              f"{traced_s - wall_s:.3f} s on an untraced run of {wall_s:.3f} s")
        wanted = spec["per_layer"]
    else:
        values = {"wall_ref": sum(ref_times),
                  "job_ref_p50": statistics.median(ref_times),
                  "wall_s": wall_s, "job_s_p50": statistics.median(times),
                  "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "setup_s": statistics.median(setups)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units.update(wall_s="s", job_s_p50="s")
        for name, value in values.items():
            print(f"metric {name} = {value!r} {units[name]}")
        print(f"metric fail_frac = {failed / attempted!r} 1 "
              f"({failed} of {attempted} jobs)")
        job_tail = tail(times)
        if job_tail:
            print(f"metric job_s_tail = {job_tail[0]!r} s "
                  f"(p{job_tail[1]:.1f} of {job_tail[2]} jobs, 10 beyond it)")
        for key, samples in quality.items():
            print(f"metric {key} = {statistics.fmean(samples)!r} "
                  f"{workload.quality[key]} (mean of {len(samples)} jobs)")
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1
