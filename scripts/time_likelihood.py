#!/usr/bin/env python3
"""Time the stacked likelihood call, `value_and_grad`, at three sizes and
print one JSON line of microseconds per call, the minimum over the passes:

- ``one_row_p12_us``: one row, P = 12 (three 4-point stars);
- ``stack6_p12_us``: a stack of 6 rows of P = 12, one design per row, the
  6 designs of one layout (null for a tree whose likelihood takes one
  theta, not a stack);
- ``one_row_p120_us``: one row, P = 120 (a 60-point star and a 60-point
  ellipse).

Every stacked call names its rows' objectives, as `fit_designs` does: a
one-row case calls ``value_and_grad(X, [obj])``.

Each pass times a fixed number of calls of each case in turn, so the cases
interleave. BLAS is pinned to one thread before numpy loads, as the
benchmark pins it. ``--src PATH`` times the curvegp of another checkout
(PATH/src), so two trees can be timed alternately, each in a fresh process:

    python scripts/time_likelihood.py --passes 40
    python scripts/time_likelihood.py --passes 40 --src ../other-checkout
"""

import argparse
import inspect
import json
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cases(model, curves):
    """(name, calls per pass, call) of each case; call is None when the
    tree cannot run the case."""
    star = curves.generate_synthetic
    stacked = "rows" in inspect.signature(
        model.MarginalLikelihoodObjective.value_and_grad).parameters

    def objective(curve_list):
        return model.MarginalLikelihoodObjective(
            model.TrainingDesign.from_curves(curve_list), model.ModelConfig())

    def one_row(obj):
        theta = obj.default_start()
        if stacked:
            X, rows = theta[None], [obj]
            return lambda: obj.value_and_grad(X, rows)
        return lambda: obj.value_and_grad(theta)

    small = [objective([star("star", 4, rng_seed=10 * d + k, noise_sd=0.01)
                        for k in range(3)]) for d in range(6)]
    large = objective([star("star", 60, rng_seed=1, noise_sd=0.01),
                       star("ellipse", 60, rng_seed=2, noise_sd=0.01)])
    stack = None
    if stacked:
        X = [obj.default_start() for obj in small]
        stack = lambda: small[0].value_and_grad(X, small)  # noqa: E731
    return [("one_row_p12_us", 200, one_row(small[0])),
            ("stack6_p12_us", 100, stack),
            ("one_row_p120_us", 10, one_row(large))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=40)
    parser.add_argument("--src", default=ROOT,
                        help="the checkout whose curvegp is timed (default: this one)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    sys.path.insert(0, os.path.join(os.path.abspath(args.src), "src"))
    from curvegp import curves, model

    timed = cases(model, curves)
    best = {name: None if call is None else float("inf") for name, _, call in timed}
    for name, _, call in timed:  # warm up: imports, work arrays, caches
        if call is not None:
            call()
    for _ in range(args.passes):
        for name, calls, call in timed:
            if call is None:
                continue
            start = time.perf_counter()
            for _ in range(calls):
                call()
            best[name] = min(best[name], (time.perf_counter() - start) / calls * 1e6)
    print(json.dumps({name: None if us is None else round(us, 2)
                      for name, us in best.items()}))


if __name__ == "__main__":
    main()
