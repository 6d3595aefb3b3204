"""Evaluation metrics for fitted and registered curves.

- imspe: integrated mean squared prediction error on a shared arc grid.
- iuea: integrated area of the pointwise predictive-uncertainty ellipses.
- wasserstein2: exact optimal-assignment squared-distance cost between
  equal-size point clouds. It is the module's only user of SciPy: it takes
  `linear_sum_assignment` from SciPy's compiled `optimize._lsap` when
  called (`model._scipy_module`), the routine `scipy.optimize` exports,
  without importing `scipy.optimize`.
- elastic_register / esd: elastic shape distance via alternating rotation +
  seed search and dynamic-programming re-parameterization of SRVFs. The
  seed search scores every integer shift, then every sub-cell offset of a
  sweep, at once in closed form and re-scores only the candidates that can
  still win with the exact per-candidate code. At most MAX_ROUNDS rounds of
  rotation and re-parameterization follow the seed search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .curves import (Curve, arc_to_xy_param, closure_row, point_array, polygon_length,
                     resample_equally_spaced)
from .errors import NumericalError, ValidationError, whole_number
from .model import _scipy_module
from .preprocess import (SCORE_BAND, _contenders, _procrustes_rotation,
                         _rotated_energies, _seed_search, _srvf_arrays, center,
                         scale_to_unit_length, srvf)

MAX_ASSIGNMENT_SIZE = 512

# Rounds of `elastic_register` after the seed search, and the energy drop
# below which it stops.
MAX_ROUNDS = 20
ROUND_TOL = 1e-8

# Allowed local (target-steps, source-steps) moves of the DP path; slopes
# stay within [1/3, 3] to prevent pinching.
DP_STEPS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))

# Rows and columns of infinite cost before the DP's node grid, so that every
# step's predecessor D[i - di, j - dj] is one gather, also at the borders.
DP_PAD = max(max(step) for step in DP_STEPS)


def imspe(predicted, truth: Curve) -> float:
    """Mean over an equally spaced arc grid of the squared coordinate errors.

    ``predicted`` is an (m, 2) array of means evaluated at grid fractions
    i/m of its domain; the truth curve is evaluated at the same fractions
    of its own polygon length. The means must be finite, and at least one.
    """
    pts = np.asarray(predicted, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts):
        raise ValidationError(f"expected a nonempty (m, 2) point array, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValidationError("predicted means must be finite")
    m = len(pts)
    length = polygon_length(truth)
    truth_pts = arc_to_xy_param(truth, np.arange(m) * length / m)
    return float(np.sum((pts - truth_pts) ** 2) / m)


def iuea(predicted) -> float:
    """Average area of the 1-standard-deviation predictive ellipses.

    Each grid point contributes pi * sd1 * sqrt(sd2^2 - cross^2/sd1^2); a
    fully degenerate covariance contributes zero area. The covariances must
    be finite, and at least one.
    """
    covs = np.asarray(predicted.covariances, dtype=float)
    if covs.ndim != 3 or covs.shape[1:] != (2, 2) or not len(covs):
        raise ValidationError(f"expected a nonempty (m, 2, 2) covariance array, "
                              f"got {covs.shape}")
    if not np.isfinite(covs).all():
        raise ValidationError("predictive covariances must be finite")
    total = 0.0
    for cov in covs:
        cross = cov[0, 1]
        if cov[0, 0] == 0.0 and abs(cross) > 1e-12:
            raise NumericalError(
                "degenerate first coordinate with nonzero cross-covariance")
        # sd1 * sqrt(sd2^2 - cross^2/sd1^2) == sqrt(det); the determinant
        # form is exact for fully degenerate covariances
        det = cov[0, 0] * cov[1, 1] - cross ** 2
        total += np.sqrt(max(det, 0.0))
    return float(np.pi * total / len(covs))


def wasserstein2(a, b) -> float:
    """Minimum over bijections of the mean squared Euclidean distance.

    Solved exactly by optimal assignment; each cloud is one point of shape
    (2,) or points of shape (n, 2) (`point_array`), and clouds must be
    finite, nonempty and of equal size (at most 512 points).
    """
    a, b = (point_array(name, cloud).reshape(-1, 2)
            for name, cloud in (("a", a), ("b", b)))
    if len(a) != len(b):
        raise ValidationError(f"point clouds differ in size ({len(a)} vs {len(b)})")
    if not len(a):
        raise ValidationError("point clouds must not be empty")
    if len(a) > MAX_ASSIGNMENT_SIZE:
        raise ValidationError(
            f"exact assignment limited to {MAX_ASSIGNMENT_SIZE} points, got {len(a)}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("point clouds must be finite")
    # squared distances, x term plus y term in the order a sum over the pair
    # adds them, each square in its difference's buffer: no n x n x 2 array
    cost = np.subtract.outer(a[:, 0], b[:, 0])
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    cost *= cost
    dy *= dy
    cost += dy
    rows, cols = _scipy_module("optimize._lsap").linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


@dataclass(frozen=True)
class Registration:
    """Rotation, seed shift and re-parameterization aligning source to target.

    ``gamma`` holds the warp on a uniform grid as fractions of the domain:
    gamma[0] = 0, gamma[-1] = 1, strictly increasing. ``esd`` is the elastic
    shape distance of the registered pair, the value ``esd(target, source)``
    returns: the source's SRVF, resampled from ``offset``, warped by
    ``gamma``, rotated and renormalized, against the target's.
    """

    rotation: np.ndarray
    gamma: np.ndarray
    shift: int
    energy: float
    energies: tuple
    esd: float
    offset: float = 0.0  # refined seed start as a fraction of the domain


def _q_at_offset(curve: Curve, n: int, offset: float) -> np.ndarray:
    """Normalized SRVF of the curve resampled from a fractional seed offset."""
    pts = arc_to_xy_param(curve, (offset + np.arange(n) / n) % 1.0)
    return srvf(Curve(pts)).normalized().q


def _offset_energies(curve: Curve, q1: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Bulk energies against q1 of the curve resampled from each offset, as
    `_q_at_offset` and a Procrustes rotation give them, from one batched
    resampling. NaN marks an offset whose resampled points `Curve` would
    alter (a last row repeating the first, `closure_row`)."""
    n = len(q1)
    pts = arc_to_xy_param(curve, (offsets[:, None] + np.arange(n) / n) % 1.0)
    q, w = _srvf_arrays(np.concatenate([pts, pts[:, :1]], axis=1))
    q_sq = np.sum(q ** 2, axis=2)
    norm_sq = np.sum(w * q_sq, axis=1)  # each SRVF is normalized through H and |q|^2
    H = np.matmul(q.transpose(0, 2, 1), q1) / np.sqrt(norm_sq)[:, None, None]
    bulk = _rotated_energies(H, np.sum(q_sq, axis=1) / norm_sq + np.sum(q1 ** 2), n)
    bulk[closure_row(pts)] = np.nan
    return bulk


def _sweep_contenders(bulk: np.ndarray, offsets: np.ndarray, start_offset: float,
                      start_e: float) -> np.ndarray:
    """Indices of the sweep's offsets to score exactly, in order: the
    contenders of the bulk scores. The offset equal to the start is skipped
    only while the start is still the best, so whether it is scored hangs
    on the offsets before it. When it is a contender but the start is not
    near the lowest score, or when offsets repeat, every offset is scored."""
    keep = _contenders(bulk, start_e)
    repeated = len(np.unique(offsets)) < len(offsets)
    if repeated or (np.any(offsets[keep] == start_offset)
                    and start_e > min(start_e, bulk.min()) + SCORE_BAND / 2):
        return np.arange(len(offsets))
    return keep


def _warp(q: np.ndarray, gamma_idx: np.ndarray) -> np.ndarray:
    """(q o gamma) * sqrt(gamma') on the uniform grid (gamma in index units)."""
    a, b = gamma_idx[:-1], gamma_idx[1:]
    idx = np.minimum(((a + b) / 2.0).astype(int), len(q) - 1)
    return np.sqrt(b - a)[:, None] * q[idx]


def _energy(q1: np.ndarray, q2w: np.ndarray) -> float:
    return float(np.sum((q1 - q2w) ** 2) / len(q1))


def _step_costs(q1: np.ndarray, q2: np.ndarray, di: int, dj: int,
                out: np.ndarray) -> None:
    """Transition costs of one DP step into every node it can reach.

    Entry (i - di, j - dj) of ``out``, an (n+1-di) x (n+1-dj) array,
    integrates ||q1 - (q2 o gamma) sqrt(gamma')||^2 over the di target
    columns that the step from node (i - di, j - dj) to (i, j) covers:
    column i - di + o against source column j - dj + k_o, a window of one
    n x n array of squared distances per step.
    """
    n = len(q1)
    q2s = np.sqrt(dj / di) * q2
    dx = np.subtract.outer(q1[:, 0], q2s[:, 0])
    dy = np.subtract.outer(q1[:, 1], q2s[:, 1])
    dx *= dx
    dy *= dy
    dx += dy  # each squared distance is summed before it is accumulated
    rows, cols = n - di + 1, n - dj + 1
    for o in range(di):
        k_o = int(dj * (o + 0.5) / di)  # < dj, so the window stays in the grid
        if o == 0:
            out[...] = dx[:rows, k_o:k_o + cols]
        else:
            out += dx[o:o + rows, k_o:k_o + cols]


def _dp_reparameterize(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Minimal-energy monotone warp gamma (index units, endpoints matched).

    Dynamic program over an (n+1) x (n+1) node grid with the local step set
    DP_STEPS; transition cost integrates ||q1 - (q2 o gamma) sqrt(gamma')||^2
    over the covered target columns. Costs of every step into every node are
    formed at once, an (n+1) x steps x (n+1) array; the D recursion runs row
    by row, adding every step's predecessor D[i - di, j - dj], one gather
    from a D padded with DP_PAD infinite rows and columns, to the row's
    costs and taking each node's minimum over the steps at once. The
    candidates stay in the cost array, and the path is traced back through
    their argmin. The first step wins a tie, and a NaN cost never wins, as
    in a step-by-step strict `<` update.
    """
    n = len(q1)
    costs = np.full((n + 1, len(DP_STEPS), n + 1), np.inf)
    for step_id, (di, dj) in enumerate(DP_STEPS):
        _step_costs(q1, q2, di, dj, out=costs[di:, step_id, dj:])
    costs /= n
    costs[np.isnan(costs)] = np.inf
    width = DP_PAD + n + 1
    D = np.full((DP_PAD + n + 1, width), np.inf)
    D[DP_PAD, DP_PAD] = 0.0
    flat = D.reshape(-1)
    # predecessor of node (i, j) by step s: flat[i * width + gather[s, j]]
    gather = np.array([(DP_PAD - di) * width + DP_PAD - dj for di, dj in DP_STEPS])
    gather = gather[:, None] + np.arange(n + 1)
    pred = np.empty((len(DP_STEPS), n + 1))
    for i in range(1, n + 1):
        row = costs[i]
        flat[i * width:].take(gather, out=pred)
        row += pred  # now the candidates into row i
        np.minimum.reduce(row, axis=0, out=D[DP_PAD + i, DP_PAD:])  # inf if unreached
    if not np.isfinite(D[DP_PAD + n, DP_PAD + n]):
        raise NumericalError("re-parameterization DP found no feasible path")
    path_i, path_j = [n], [n]
    i, j = n, n
    while i > 0:
        di, dj = DP_STEPS[int(costs[i, :, j].argmin())]
        i, j = i - di, j - dj
        path_i.append(i)
        path_j.append(j)
    path_i.reverse()
    path_j.reverse()
    return np.interp(np.arange(n + 1), path_i, path_j)


def _register_seed(source_n: Curve, q1: np.ndarray, q2_full: np.ndarray):
    """Round 1 of `elastic_register`: (energy, offset, q2, R) of the best seed
    offset (a fraction of the domain), source SRVF and rotation onto q1."""
    n = len(q1)
    # Exhaustive integer seed + rotation on the unwarped SRVFs (rolling the
    # equally resampled SRVF shifts the seed by whole cells).
    best_e, best_shift, R = _seed_search(q2_full, q1, _energy, (np.inf, 0, np.eye(2)))
    # Fractional seed refinement: the best seed usually falls between grid
    # cells; resample the source at sub-cell start offsets around the winner.
    q2 = np.roll(q2_full, -best_shift, axis=0)
    best_offset = best_shift / n
    half = 0.5 / n
    for _ in range(3):
        offsets = (best_offset + np.linspace(-half, half, 11)) % 1.0
        bulk = _offset_energies(source_n, q1, offsets)
        for k in _sweep_contenders(bulk, offsets, best_offset, best_e).tolist():
            offset = offsets[k]
            if offset == best_offset:
                continue
            cand = _q_at_offset(source_n, n, offset)
            R_cand = _procrustes_rotation(cand, q1)
            e = _energy(q1, cand @ R_cand.T)
            if e < best_e - 1e-15:
                best_offset, q2, R, best_e = offset, cand, R_cand, e
        half /= 5.0
    return best_e, best_offset, q2, R


def elastic_register(source: Curve, target: Curve, grid_size: int = 100) -> Registration:
    """Register the source curve onto the target under the elastic metric.

    Both curves are centered, scaled to unit length and resampled to
    ``grid_size`` points. Alternates a closed-form rotation step (plus an
    exhaustive seed search in the first round) with a DP re-parameterization;
    the energy trace is non-increasing (a worsening update is reverted).
    The seed search scores all integer shifts, then each of three sub-cell
    sweeps, in bulk; only the candidates that can still win are scored
    exactly, in order, so the result is that of a per-candidate search.
    """
    grid_size = whole_number("grid_size", grid_size, 8)
    target_n = scale_to_unit_length(center(target))
    source_n = scale_to_unit_length(center(source))
    c1 = resample_equally_spaced(target_n, grid_size)
    q1 = srvf(c1).normalized().q
    q2_full = srvf(resample_equally_spaced(source_n, grid_size)).normalized().q
    n = grid_size

    energy, best_offset, q2, R = _register_seed(source_n, q1, q2_full)
    best_shift = int(round(best_offset * n)) % n

    gamma = np.arange(n + 1, dtype=float)
    energies = [energy]

    for _ in range(MAX_ROUNDS):
        gamma_new = _dp_reparameterize(q1, q2 @ R.T)
        warped = _warp(q2, gamma_new)
        R_new = _procrustes_rotation(warped, q1)
        e_new = _energy(q1, warped @ R_new.T)
        if e_new > energy + 1e-12:
            break  # keep the previous (better) state
        gamma, R = gamma_new, R_new
        improved = energy - e_new
        energy = e_new
        energies.append(energy)
        if improved < ROUND_TOL:
            break
    else:
        warnings.warn("elastic registration hit the round limit before converging")

    gamma = gamma / n
    # The distance is taken at the returned warp (fractions scaled back to
    # index units) and resamples the source from the refined offset, also
    # when no sub-cell offset won and q2 is the rolled grid SRVF.
    warped = _warp(_q_at_offset(source_n, n, best_offset), gamma * n) @ R.T
    norm = np.sqrt(np.sum(warped ** 2) / n)
    if norm > 0:
        warped = warped / norm
    inner = float(np.sum(q1 * warped) / n)
    return Registration(rotation=R, gamma=gamma, shift=best_shift,
                        energy=energy, energies=tuple(energies),
                        esd=float(np.arccos(np.clip(inner, -1.0, 1.0))),
                        offset=best_offset)


def esd(c1: Curve, c2: Curve, grid_size: int = 100) -> float:
    """Elastic shape distance: arccos of the registered SRVF inner product.

    Invariant (to discretization tolerance) under translation, scaling,
    rotation and seed shift of either curve; value in [0, pi].
    """
    return elastic_register(c2, c1, grid_size=grid_size).esd
