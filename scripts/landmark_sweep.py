#!/usr/bin/env python3
"""Landmark selection sweep: for a star curve, run simultaneous landmark
selection over a range of landmark counts p and print the best subset and
score for each, plus the sequential (greedy, variance-based) next landmark
for the best model.
"""

import argparse

import curvegp as cg
from curvegp.model import ModelConfig, OptimizerConfig, TrainingDesign, fit


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10, help="points on the curve")
    parser.add_argument("--p-min", type=int, default=3)
    parser.add_argument("--p-max", type=int, default=6)
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--criterion", choices=["imspe", "iuea"], default="imspe")
    args = parser.parse_args()

    curve = cg.scale_to_unit_length(cg.center(
        cg.generate_synthetic("star", args.n, amplitude=0.15, petals=3,
                              rng_seed=3)))
    model_config = ModelConfig()
    opt = OptimizerConfig(restarts=1, maxiter=60, seed=0)

    print(f"{'p':>3} {'best subset':<24} {'score':>12} {'trials':>7}")
    for p in range(args.p_min, args.p_max + 1):
        config = cg.LandmarkConfig(p=p, n_trials=args.trials, rng_seed=5,
                                   criterion=args.criterion)
        result = cg.simultaneous_landmarks([curve], config, model_config, opt)
        print(f"{p:>3} {str(result.indices):<24} {result.score:>12.4e} "
              f"{len(result.trials):>7}")

    model = fit(TrainingDesign.from_curves([curve]), model_config,
                OptimizerConfig(restarts=4, seed=0))
    for lam in (0.0, 0.5, 1.0):
        s_star = cg.sequential_landmark(model, lam, 500)
        print(f"sequential next landmark (lambda={lam}): s* = {s_star:.4f}")


if __name__ == "__main__":
    main()
