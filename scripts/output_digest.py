#!/usr/bin/env python3
"""Digest every file the benchmark's workloads write, and print one JSON
line of one SHA-256 per workload, so two trees can be shown to write the
same bytes.

For each workload of ``perfbench/workloads.py`` (imported as it stands),
the script generates the inputs of a run of ``--seconds`` at ``--seed``,
runs the warm-up job and then the job list through `curvegp.cli.main`, in
one temporary directory per workload, and hashes every file under that
directory: its path relative to the directory, then its bytes, file by
file in the order of the sorted relative paths. A job that exits non-zero
fails the script (exit 1). ``--src PATH`` digests the curvegp and
workloads of another checkout:

    python scripts/output_digest.py --seed 1 --seconds 20
    python scripts/output_digest.py --seed 1 --seconds 20 --src ../other-checkout
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(argv, main) -> None:
    """One CLI call, its stderr and warnings kept quiet; a non-zero exit
    raises SystemExit naming the call."""
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    if code != 0:
        raise SystemExit(f"curvegp {' '.join(argv)} exited {code}: "
                         f"{sink.getvalue().strip()}")


def digest(directory: str) -> str:
    """SHA-256 over every file under ``directory``: each relative path and
    its bytes, in the order of the sorted relative paths."""
    paths = sorted(os.path.relpath(os.path.join(top, name), directory)
                   for top, _, names in os.walk(directory) for name in names)
    sha = hashlib.sha256()
    for path in paths:
        sha.update(path.encode() + b"\0")
        with open(os.path.join(directory, path), "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--src", default=ROOT,
                        help="the checkout whose outputs are digested (default: this one)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = os.path.abspath(args.src)
    sys.path[:0] = [os.path.join(src, "src"), os.path.join(src, "perfbench")]
    from curvegp.cli import main as cli_main
    from workloads import WORKLOADS, job_count

    digests = {}
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as directory:
            warmup, jobs = workload.generate(directory, args.seed,
                                             job_count(workload, args.seconds))
            for job in [warmup, *jobs]:
                for job_argv in job.argvs:
                    run(job_argv, cli_main)
            digests[name] = digest(directory)
    print(json.dumps(digests))


if __name__ == "__main__":
    main()
