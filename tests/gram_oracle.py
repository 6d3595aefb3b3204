"""Element-wise Gram oracles and kernel references shared by the tests.

The Gram oracles evaluate the input kernel at every pair of inputs and
gather every level factor per pair, with none of the library's grouping
into types, so the library's Grams are checked against them rather than
against themselves. The kernel references are the periodic kernel as a
function of the distance r = |a - b| (`periodic_eval`), which the library
forms from the positions instead, and the Theorem-1 envelope of the
periodic RBF kernel (`theorem1_bounds`). `one_row` reads the likelihood,
which takes stacks only, at one theta. `two_buffer_ladder` is the nugget
ladder on a copy of the blocks, the reference for the library's ladder,
which forms them again from the point Gram only when it escalates.
"""

import numpy as np

from curvegp.errors import NumericalError, ValidationError
from curvegp.kernels import unit_correlation, warped_correlation
from curvegp.model import NUGGET_LADDER


def periodic_eval(hyp, s_i, s_j):
    """Covariance between arc parameters ``s_i`` and ``s_j`` from their
    distance r: the warp sin(pi r / tau), squared for the RBF family, twice
    its modulus (the chord) for the Matern families."""
    r = np.abs(np.asarray(s_i, dtype=float) - np.asarray(s_j, dtype=float))
    u = np.sin(np.pi * r / hyp.tau)
    w = u ** 2 if hyp.family == "periodic_rbf" else 2.0 * np.abs(u)
    return hyp.sigma2 * warped_correlation(hyp.family, w, hyp.rho)


def gram_tolerance(hyp, s):
    """Bound on the distance of a kernel value between arc parameters in
    ``s`` from the exact value, and so from `periodic_eval`. The sine u of
    a difference is off by at most 64 eps (1 + max|s| / tau), as the angles
    pi s / tau round in proportion to their size; the kernel's slope in u
    is at most sigma2 * 2 / rho, and the value's own rounding adds sigma2
    times a few eps."""
    eps = np.finfo(float).eps
    return (64 * eps * hyp.sigma2 * (1.0 + 2.0 / hyp.rho)
            * (1.0 + np.max(np.abs(s)) / hyp.tau))


def theorem1_bounds(hyp, length: float):
    """Lower/upper envelope of the periodic-RBF kernel for inputs within
    half the curve length.

    The lower bound may be negative (vacuous) for rough hyperparameters;
    it is returned as computed.
    """
    if length <= 0:
        raise ValidationError("curve length must be positive")
    sigma2, rho, tau = hyp.sigma2, hyp.rho, hyp.tau
    lower = sigma2 * (1.0 - np.pi ** 2 * length ** 2 / (4.0 * rho * tau ** 2))
    upper = sigma2 * (1.0 + (1.0 / 64.0) * (2.0 * np.pi ** 4 / (rho ** 2 * tau ** 4)
                                            + 4.0 * np.pi ** 4 / (3.0 * rho * tau ** 4))
                      * length ** 4)
    return float(lower), float(upper)


def level_factor(coreg, a, b):
    """B[a, b] of a coregionalization level; indices outside it raise."""
    a = np.asarray(a, dtype=int)
    b = np.asarray(b, dtype=int)
    if np.any(a < 0) or np.any(a >= coreg.size) or np.any(b < 0) or np.any(b >= coreg.size):
        raise ValidationError(f"level index out of range for size {coreg.size}")
    return coreg.matrix[a, b]


def full_grid_input_gram(hyp, s_a, s_b=None):
    """The input kernel evaluated at every pair of inputs, then jittered."""
    s_a = np.asarray(s_a, dtype=float).reshape(-1)
    s = s_a if s_b is None else np.asarray(s_b, dtype=float).reshape(-1)
    corr = unit_correlation(hyp.family, s_a[:, None], s[None, :], hyp.rho, hyp.tau)
    return hyp.sigma2 * corr + hyp.jitter


def full_grid_gram_oracle(kernel, s_a, d_a, j_a=None, g_a=None,
                          s_b=None, d_b=None, j_b=None, g_b=None):
    """The multi-level Gram with the input kernel evaluated at every pair
    and every level factor gathered per pair: over rows (s, d, j, g), one
    coordinate d of one point each, or with ``d_a`` None over points
    (s, j, g), without the coordinate level, the reference for
    `multilevel_gram`."""
    K = full_grid_input_gram(kernel.input_kernel, s_a, s_b)
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


def one_row(obj, theta):
    """(value, gradient) of the objective ``obj`` at one theta, read from
    row 0 of the one-row stack [theta], the row's NumericalError raised: a
    one-theta function, as scipy's `minimize` and `curvegp.model.minimize`
    take."""
    values, grads, _, errors = obj.value_and_grad(np.array([theta]))
    if errors[0] is not None:
        raise errors[0]
    return values[0], grads[0]


def two_buffer_ladder(out, K, lam, noise_var):
    """`curvegp.model._chol_with_ladder` in two buffers: it copies the blocks
    that ``out`` holds when called, then factors ``out`` in place, and every
    rung after the first copies the blocks back and adds the rung times the
    mean diagonal entry of the copy. K, lam and noise_var, from which the
    library forms the blocks again, are not read. Returns (factors, rung)."""
    from scipy.linalg.lapack import dpotrf
    blocks = out.copy()
    factors = out.transpose(0, 2, 1)
    for rung in NUGGET_LADDER:
        if rung:
            np.copyto(out, blocks)
            out.reshape(len(out), -1)[:, ::out.shape[-1] + 1] += (
                rung * blocks.diagonal(axis1=1, axis2=2).mean())
        for L in factors:
            _, info = dpotrf(L, 1, 1, 1)  # lower, clean, overwrite_a
            if info != 0:
                break
        else:
            return factors, rung
    raise NumericalError(
        f"covariance factorization failed after nugget ladder {NUGGET_LADDER}")
