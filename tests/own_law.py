"""An own-law reference: designs, a true theta in the fit's packed form and
data drawn from the model itself, so that what a fit should find is known.

The data are y = chol(kron(K_pts, B_coord) + noise I) z over the design's
2P values, point by point, with K_pts the point Gram `multilevel_gram`
forms at the truth's kernel: the Gram the library fits with, so there is
no second Gram here. The truth's kernel is the objective's own
`kernel_at(theta_true, 1.0)`, so the true sigma2 is 1 and the noise
variance is eta. When theta_true lies inside the boxes, the maximized log
p must be at least the truth's, and by Wilks (1938) about n_params / 2
above it on average.
"""

import numpy as np

from curvegp.coreg import multilevel_gram
from curvegp.model import MarginalLikelihoodObjective, ModelConfig, TrainingDesign

POINTS = 20  # per curve, equally spaced on a curve of length 1
RHO = 0.15
NOISE = 3e-6  # the noise variance; at 1e-6 the truth of w = 1 left eta's box
KAPPA = 0.1  # kappa_1 .. kappa_{n-1} of the curve level; kappa_0 is 1
GROUP = (0.5, np.log(0.8))  # (a, b) of the group level's unit-corner factor


def layout(n_curves, labels=None, y=None) -> TrainingDesign:
    """A design of ``n_curves`` curves of length 1 with `POINTS` equally
    spaced points each, grouped by the per-curve ``labels``, with targets
    ``y`` (P x 2), or placeholder targets that only make the design valid."""
    n = n_curves * POINTS
    curve_group, group_labels = None, ((),)
    if labels is not None:
        group_labels = tuple(dict.fromkeys(labels))
        curve_group = np.array([group_labels.index(label) for label in labels])
    return TrainingDesign(s=np.tile(np.arange(POINTS) / POINTS, n_curves),
                          j=np.arange(n_curves).repeat(POINTS),
                          y=np.arange(2.0 * n).reshape(n, 2) if y is None else y,
                          lengths=np.ones(n_curves), curve_group=curve_group,
                          group_labels=group_labels)


def true_theta(obj: MarginalLikelihoodObjective, w: float) -> np.ndarray:
    """theta_true in the objective's packed form: log rho, log eta, then
    B = I at the coordinate level, W = w 1 with kappa = (1, `KAPPA`, ...)
    at a curve level of more than two curves, and `GROUP` at a group level
    of two groups."""
    blocks = {"coord": [0.0, 0.0],
              "curve": [w] * obj.design.n_curves + [np.log(KAPPA)] * (obj.design.n_curves - 1),
              "group": list(GROUP)}
    theta = np.array([np.log(RHO), np.log(NOISE)])
    return np.concatenate([theta] + [blocks[level.name] for level in obj.levels])


def draws(n_curves, labels, w, count=8, config=None):
    """(designs, theta_true, kernel, noise variance): ``count`` designs of
    one layout whose targets are drawn from the model at theta_true, z from
    `np.random.default_rng(r)` for r = 0 .. count - 1."""
    obj = MarginalLikelihoodObjective(layout(n_curves, labels), config or ModelConfig())
    theta = true_theta(obj, w)
    kernel, noise = obj.kernel_at(theta, 1.0)
    base = obj.design
    K = multilevel_gram(kernel, base.s, j_a=base.j, curve_group=base.curve_group)
    L = np.linalg.cholesky(np.kron(K, kernel.coord.matrix) + noise * np.eye(2 * len(K)))
    designs = [layout(n_curves, labels, (L @ np.random.default_rng(r).standard_normal(
        len(L))).reshape(-1, 2)) for r in range(count)]
    return designs, theta, kernel, noise
