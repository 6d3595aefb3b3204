#!/usr/bin/env python3
"""Elastic registration demo: register an ellipse onto a circle and a
rigidly transformed star onto its original, printing the energy trace and
the resulting elastic shape distances (ESD). Shows that ESD is near zero
for a rigid copy and clearly positive for genuinely different shapes.
"""

import argparse

import numpy as np

import curvegp as cg
from curvegp.curves import Curve


def describe(name, source, target):
    reg = cg.elastic_register(source, target)
    energies = " -> ".join(f"{e:.4f}" for e in reg.energies[:6])
    print(f"{name}:")
    print(f"  ESD = {reg.esd:.4f}")
    angle = np.degrees(np.arctan2(reg.rotation[1, 0], reg.rotation[0, 0]))
    print(f"  rotation angle = {angle:.2f} deg")
    print(f"  seed shift = {reg.shift}, fractional offset = {reg.offset:.4f}")
    print(f"  energy trace: {energies}{' -> ...' if len(reg.energies) > 6 else ''}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100, help="points per curve")
    args = parser.parse_args()

    star = cg.generate_synthetic("star", args.n, amplitude=0.2, petals=5)
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    moved = Curve(np.roll(star.points, -args.n // 6, axis=0) @ R.T * 1.9
                  + np.array([0.3, -2.0]))
    circle = cg.generate_synthetic("circle", args.n)
    ellipse = cg.generate_synthetic("ellipse", args.n, axes=(1.0, 0.5))

    describe("star vs rigidly transformed star", moved, star)
    describe("ellipse vs circle", ellipse, circle)


if __name__ == "__main__":
    main()
