"""The paper's two benefit claims as seeded families, not single draws.

Criteria 8 and 13 (`test_acceptance.py`) each test one seeded instance:
borrowing strength from other curves improves a clusteredly sampled one,
and a group level helps when the curves come from sub-populations. One
instance can pass by luck, or fail by bad luck, while the effect itself
changes, so each claim is also tested here over a family of twelve seeded
members, the losing members included. A family passes when the multi-level
side wins in at least `MIN_WINS` members and the median ratio of its IMSPE
to the other side's is at most `MAX_MEDIAN`. Each line also reports the
median held-out coverage of the truth by `predict_curve`'s 95% ellipses, a
figure only.

Each side of a family (joint and separate, grouped and pooled) is one
`fit_designs` call over the twelve members' designs, and both families run
in one fresh interpreter at one BLAS thread, as the benchmark runs: OpenBLAS
rounds differently at one thread than at more, and threaded OpenBLAS makes
these small fits about ten times slower. Run as a script, this file prints
both families' figures as JSON.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MEMBERS = 12
MIN_WINS, MAX_MEDIAN = 10, 0.9
CHI2_2_95 = -2.0 * math.log(0.05)  # 95% quantile of chi-square with 2 degrees of freedom
M = 200  # grid points per predicted curve, as in the criteria


def truth_points(truth, m):
    """The truth at the m grid fractions `imspe` scores a prediction at."""
    from curvegp.curves import arc_to_xy_param, polygon_length
    return arc_to_xy_param(truth, np.arange(m) * polygon_length(truth) / m)


def coverage(pred, truth) -> float:
    """The fraction of ``pred``'s grid points whose 95% predictive ellipse
    holds the truth there: d^T C^-1 d <= chi2, written as adj(C) d . d <=
    chi2 det C so that a singular C divides by nothing."""
    d = truth_points(truth, len(pred.means)) - pred.means
    c = pred.covariances
    det = c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]
    quad = (c[:, 1, 1] * d[:, 0] ** 2 - (c[:, 0, 1] + c[:, 1, 0]) * d[:, 0] * d[:, 1]
            + c[:, 0, 0] * d[:, 1] ** 2)
    return float(np.mean((det > 0) & (quad <= CHI2_2_95 * det)))


def fit_side(designs):
    """One `fit_designs` call with the criteria's optimizer settings."""
    from curvegp.model import FittedModel, ModelConfig, OptimizerConfig, fit_designs
    models = fit_designs(designs, ModelConfig(),
                         OptimizerConfig(restarts=4, maxiter=150, seed=0))
    for model in models:
        assert isinstance(model, FittedModel), model
    return models


def reconstruction_family():
    """Criterion 8 at k = 0, ..., 11: the clustered star's cluster centre is
    2 pi k / 12, the second fully sampled star's angle offset 0.05 + 0.37 k,
    and the noise sd 0 for k < 6 and 0.01 from k = 6 (seeds 100 + k and
    200 + k, and default_rng(300 + k) for the second full star). Per member,
    the clustered curve's IMSPE from the joint fit of the three curves and
    from its separate fit, and each side's coverage of the truth."""
    import curvegp as cg
    from curvegp.curves import Curve, polygon_length
    from curvegp.model import TrainingDesign, predict_curve
    amp, petals = 0.2, 4

    def star(theta):
        r = 1.0 + amp * np.cos(petals * theta)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    collections, truths = [], []
    for k in range(MEMBERS):
        sd = 0.0 if k < 6 else 0.01
        clustered = cg.generate_synthetic("star", 30, scheme="clustered", amplitude=amp,
                                          petals=petals, cluster_center=2 * np.pi * k / 12,
                                          noise_sd=sd, rng_seed=100 + k)
        full1 = cg.generate_synthetic("star", 30, amplitude=amp, petals=petals,
                                      noise_sd=sd, rng_seed=200 + k)
        full2 = star(2 * np.pi * np.arange(30) / 30 + 0.05 + 0.37 * k)
        if sd > 0:
            full2 = full2 + np.random.default_rng(300 + k).normal(scale=sd, size=full2.shape)
        curves, _ = cg.preprocess_collection([clustered, full1, Curve(full2)],
                                             template_index=0)
        collections.append(curves)
        # the truth passes through the clustered curve's first point
        centroid = clustered.points.mean(axis=0)
        length = polygon_length(clustered)
        theta0 = np.arctan2(clustered.points[0, 1], clustered.points[0, 0])
        truths.append(Curve((star(theta0 + 2 * np.pi * np.arange(3000) / 3000)
                             - centroid) / length))
    joint = fit_side([TrainingDesign.from_curves(curves) for curves in collections])
    separate = fit_side([TrainingDesign.from_curves(curves[:1]) for curves in collections])
    members = []
    for truth, joint_model, separate_model in zip(truths, joint, separate):
        preds = [predict_curve(model, 0, M) for model in (joint_model, separate_model)]
        members.append([cg.imspe(pred.means, truth) for pred in preds]
                       + [coverage(pred, truth) for pred in preds])
    return members


def subpopulation_family():
    """Criterion 13 with default_rng(r), r = 0, ..., 11 (the criterion's r
    is 2): three circles and three ellipses of 10 noisy points. Per member,
    the mean IMSPE over the six curves of the fit with the curves' groups
    and of the fit without, and each side's mean coverage of the truths."""
    import curvegp as cg
    from curvegp.curves import Curve, polygon_length
    from curvegp.model import TrainingDesign, predict_curve
    from curvegp.preprocess import center, scale_to_unit_length

    def shape_pts(kind, theta):
        if kind == "circle":
            return np.column_stack([np.cos(theta), np.sin(theta)])
        return np.column_stack([np.cos(theta), 0.5 * np.sin(theta)])

    collections, all_truths = [], []
    for r in range(MEMBERS):
        rng = np.random.default_rng(r)
        curves, kinds, offsets = [], [], rng.uniform(0, 0.6, 6)
        for i in range(6):
            kind = "circle" if i < 3 else "ellipse"
            theta = 2 * np.pi * np.arange(10) / 10 + offsets[i]
            pts = shape_pts(kind, theta) + rng.normal(scale=0.03, size=(10, 2))
            curves.append(Curve(pts))
            kinds.append(kind)
        collections.append([scale_to_unit_length(center(c)) for c in curves])
        truths = []
        for i, c in enumerate(curves):
            centroid = c.points.mean(axis=0)
            length = polygon_length(c)
            theta = offsets[i] + 2 * np.pi * np.arange(2000) / 2000
            truths.append(Curve((shape_pts(kinds[i], theta) - centroid) / length))
        all_truths.append(truths)
    labels = ["c", "c", "c", "e", "e", "e"]
    grouped = fit_side([TrainingDesign.from_curves(curves, labels) for curves in collections])
    pooled = fit_side([TrainingDesign.from_curves(curves) for curves in collections])
    members = []
    for truths, grouped_model, pooled_model in zip(all_truths, grouped, pooled):
        preds = [[predict_curve(model, j, M) for j in range(6)]
                 for model in (grouped_model, pooled_model)]
        members.append(
            [float(np.mean([cg.imspe(p.means, t) for p, t in zip(side, truths)]))
             for side in preds]
            + [float(np.mean([coverage(p, t) for p, t in zip(side, truths)]))
               for side in preds])
    return members


@pytest.fixture(scope="module")
def families():
    """Both families' members, computed in one fresh interpreter at one
    BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("number, name, sides, member", [
    ("08", "reconstruction benefit over a seeded family", ("joint", "separate"), "k"),
    ("13", "sub-population benefit over a seeded family", ("grouped", "pooled"), "r"),
], ids=["criterion_08", "criterion_13"])
def test_family(families, capfd, number, name, sides, member):
    members = np.array(families[number])
    assert members.shape == (MEMBERS, 4) and np.isfinite(members).all()
    ratios = members[:, 0] / members[:, 1]
    wins = int(np.sum(members[:, 0] <= members[:, 1]))
    median = float(np.median(ratios))
    ok = wins >= MIN_WINS and median <= MAX_MEDIAN
    losers = ", ".join(f"{member} = {i}" for i in np.flatnonzero(members[:, 0] > members[:, 1]))
    line = (f"FAMILY {number} {'PASS' if ok else 'FAIL'} - {name} ({sides[0]} <= "
            f"{sides[1]} in {wins}/{MEMBERS}, losing {losers or 'none'}; IMSPE ratio "
            f"median {median:.3f}, range {ratios.min():.3f}-{ratios.max():.3f}; median 95% "
            f"coverage {sides[0]} {np.median(members[:, 2]):.2f}, "
            f"{sides[1]} {np.median(members[:, 3]):.2f})")
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


if __name__ == "__main__":
    print(json.dumps({"08": reconstruction_family(), "13": subpopulation_family()}))
