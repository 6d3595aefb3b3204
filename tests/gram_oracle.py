"""Element-wise Gram oracles shared by the tests.

They evaluate the input kernel at every pair of inputs and gather every
level factor per pair, with none of the library's grouping into types, so
the library's Grams are checked against them rather than against
themselves.
"""

import numpy as np

from curvegp.errors import ValidationError
from curvegp.kernels import unit_correlation


def level_factor(coreg, a, b):
    """B[a, b] of a coregionalization level; indices outside it raise."""
    a = np.asarray(a, dtype=int)
    b = np.asarray(b, dtype=int)
    if np.any(a < 0) or np.any(a >= coreg.size) or np.any(b < 0) or np.any(b >= coreg.size):
        raise ValidationError(f"level index out of range for size {coreg.size}")
    return coreg.matrix[a, b]


def full_grid_input_gram(hyp, noise, s_a, s_b=None):
    """The input kernel evaluated at every pair of inputs, then jittered."""
    s_a = np.asarray(s_a, dtype=float).reshape(-1)
    s = s_a if s_b is None else np.asarray(s_b, dtype=float).reshape(-1)
    r = np.abs(s_a[:, None] - s[None, :])
    return hyp.sigma2 * unit_correlation(hyp.family, r, hyp.rho, hyp.tau) + noise.jitter


def full_grid_gram_oracle(kernel, noise, s_a, d_a, j_a=None, g_a=None,
                          s_b=None, d_b=None, j_b=None, g_b=None):
    """The multi-level Gram with the input kernel evaluated at every pair
    and every level factor gathered per pair: over rows (s, d, j, g), one
    coordinate d of one point each, or with ``d_a`` None over points
    (s, j, g), without the coordinate level, the reference for
    `multilevel_gram`."""
    K = full_grid_input_gram(kernel.input_kernel, noise, s_a, s_b)
    if s_b is None:
        d_b, j_b, g_b = d_a, j_a, g_a
    B = 1.0
    for coreg, a, b in ((kernel.coord if d_a is not None else None, d_a, d_b),
                        (kernel.curve, j_a, j_b), (kernel.group, g_a, g_b)):
        if coreg is not None:
            B = B * level_factor(coreg, np.asarray(a, dtype=int)[:, None],
                                 np.asarray(b, dtype=int)[None, :])
    K *= B
    return K
