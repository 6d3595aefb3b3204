"""Repeatability self-check of the curvegp benchmark.

For each workload: two traced runs with the same seed and thread count must
give identical optimizer and dynamic-program counts, and a traced run on a
second seed must pass every output check. Run from the root of a checkout:

    python3 perfbench/selfcheck.py [--workloads NAME ...] [--seconds S]

Exits 1 if a count differs or a run fails.
"""

import argparse
import json
import subprocess
import sys

COUNTS = ("model.nfev", "model.lbfgs_nit", "model.grad_bytes",
          "metrics.dp_calls", "metrics.reg_rounds")
WORKLOADS = ("reconstruct_sparse", "landmarks_search", "register_pairs",
             "predict_dense")


def traced_run(workload, seed, seconds):
    """Run one traced benchmark process; returns (exit code, result or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return proc.returncode, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--second-seed", type=int, default=2)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        results = [traced_run(workload, args.seed, args.seconds) for _ in range(2)]
        counts = [{name: r["metrics"][name]["value"] for name in COUNTS}
                  if r else None for _, r in results]
        same = counts[0] is not None and counts[0] == counts[1]
        print(f"{workload}: seed {args.seed} twice -> "
              f"{'identical' if same else 'DIFFERENT'} {counts[0]}"
              + ("" if same else f" vs {counts[1]}"))
        code, other = traced_run(workload, args.second_seed, args.seconds)
        clean = code == 0 and other is not None and other["correct"]
        print(f"{workload}: seed {args.second_seed} -> "
              f"{'clean' if clean else f'FAILED (exit {code})'}")
        ok = ok and same and clean and all(code == 0 for code, _ in results)
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
