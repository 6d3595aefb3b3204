#!/usr/bin/env python3
"""Reconstruction demo: fit a joint model to three star curves (one of them
sampled with a clustered design) and compare joint vs. single-curve
reconstruction error for the clustered curve. Writes SVG plots of both
reconstructions next to this script (or to --outdir).
"""

import argparse
import os

import numpy as np

import curvegp as cg
from curvegp.curves import Curve, polygon_length
from curvegp.io import atomic_write_text
from curvegp.model import ModelConfig, OptimizerConfig
from curvegp.svg import emit_svg


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default=os.path.dirname(__file__) or ".")
    parser.add_argument("--n", type=int, default=30, help="points per curve")
    parser.add_argument("--m", type=int, default=200, help="prediction grid size")
    args = parser.parse_args()

    amp, petals = 0.2, 4

    def star(theta):
        r = 1.0 + amp * np.cos(petals * theta)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    clustered = cg.generate_synthetic("star", args.n, scheme="clustered",
                                      amplitude=amp, petals=petals)
    full1 = cg.generate_synthetic("star", args.n, amplitude=amp, petals=petals)
    full2 = Curve(star(2 * np.pi * np.arange(args.n) / args.n + 0.05))
    curves, _ = cg.preprocess_collection([clustered, full1, full2],
                                         template_index=0)

    # ground truth on the clustered curve's own normalized frame
    centroid = clustered.points.mean(axis=0)
    length = polygon_length(clustered)
    theta0 = np.arctan2(clustered.points[0, 1], clustered.points[0, 0])
    truth = Curve((star(theta0 + 2 * np.pi * np.arange(3000) / 3000)
                   - centroid) / length)

    opt = OptimizerConfig(restarts=4, maxiter=150, seed=0)
    _, joint_preds = cg.reconstruct(curves, ModelConfig(), opt, m=args.m)
    _, sep_preds = cg.reconstruct([curves[0]], ModelConfig(), opt, m=args.m)

    joint_err = cg.imspe(joint_preds[0].means, truth)
    sep_err = cg.imspe(sep_preds[0].means, truth)
    print(f"clustered-curve IMSPE  joint fit: {joint_err:.3e}")
    print(f"clustered-curve IMSPE single fit: {sep_err:.3e}")
    print(f"improvement factor: {sep_err / joint_err:.1f}x")

    os.makedirs(args.outdir, exist_ok=True)
    for tag, pred in [("joint", joint_preds[0]), ("single", sep_preds[0])]:
        path = os.path.join(args.outdir, f"reconstruction_{tag}.svg")
        atomic_write_text(path, emit_svg(pred, observed=curves[0], truth=truth,
                                         title=f"{tag} reconstruction", scale=2.0))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
