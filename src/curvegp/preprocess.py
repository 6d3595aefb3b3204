"""Curve preprocessing: centering, unit-length scaling, the square-root
velocity transform, and joint rotation + seed alignment.

Alignment searches all cyclic row shifts exhaustively. Every shift is
scored at once: the Procrustes cross matrix of each shift comes from four
circular cross-correlations (FFT) and the best proper rotation's energy from
it in closed form. Those bulk scores only prune: every shift that can still
win is scored again, in order, with the exact SVD Procrustes rotation, so
the result is the one a per-shift SVD search returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, polygon_length
from .errors import ValidationError, whole_number


def center(curve: Curve) -> Curve:
    """Translate so the centroid of the sample points is the origin."""
    return Curve(curve.points - curve.points.mean(axis=0))


def scale_to_unit_length(curve: Curve) -> Curve:
    """Scale so the enclosed polygon has total length 1."""
    return Curve(curve.points / polygon_length(curve))


@dataclass(frozen=True)
class Srvf:
    """Piecewise-constant square-root velocity samples of a polygon.

    Under arc-length parameterization the velocity has unit speed, so each
    row of ``q`` is the unit tangent of one segment; ``weights`` are the
    segment lengths (the measure of each constant piece).
    """

    q: np.ndarray
    weights: np.ndarray

    @property
    def norm_sq(self) -> float:
        """Integral of |q|^2, which equals the total polygon length."""
        return float(self.weights @ np.sum(self.q ** 2, axis=1))

    def normalized(self) -> "Srvf":
        return Srvf(self.q / np.sqrt(self.norm_sq), self.weights)


def srvf(curve: Curve) -> Srvf:
    """Square-root velocity samples of the arc-length-parameterized polygon."""
    return Srvf(*_srvf_arrays(curve.closed_points()))


def _srvf_arrays(closed: np.ndarray):
    """Unit tangents and segment lengths of closed polygons, the points on
    the last two axes (a stack of curves gives stacked samples)."""
    diffs = np.diff(closed, axis=-2)
    lengths = np.linalg.norm(diffs, axis=-1)
    return diffs / lengths[..., None], lengths


@dataclass(frozen=True)
class AlignmentResult:
    """Optimal rotation and cyclic seed shift mapping a target onto a template."""

    rotation: np.ndarray
    shift: int
    residual: float


# Bulk energies (closed-form rotation, FFT correlations) differ from the
# exact SVD ones by rounding only, under 2e-15 on unit-tangent SRVFs of up
# to 300 points; every candidate within this band of the bulk minimum is
# scored exactly.
SCORE_BAND = 1e-10


def _procrustes_rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Proper rotation R minimizing sum_i ||b_i - R a_i||^2 over rows."""
    H = a.T @ b
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    return Vt.T @ np.diag([1.0, d]) @ U.T


def _rotated_energies(H: np.ndarray, norm_sq: np.ndarray, n: int) -> np.ndarray:
    """min over proper rotations R of sum_i ||b_i - R a_i||^2 / n, from the
    stacked cross matrices H = sum_i a_i b_i^T and |a|^2 + |b|^2: the best
    rotation's trace tr(R H) is hypot(H00 + H11, H01 - H10)."""
    trace = np.hypot(H[..., 0, 0] + H[..., 1, 1], H[..., 0, 1] - H[..., 1, 0])
    return (norm_sq - 2.0 * trace) / n


def _shift_energies(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bulk Procrustes energy of every cyclic shift k of ``a`` (rows
    a_{i+k}) against ``b``. Entry (p, r) of each cross matrix is a circular
    cross-correlation of column p of a with column r of b."""
    n = len(a)
    fa, fb = np.fft.rfft(a, axis=0), np.fft.rfft(b, axis=0)
    H = np.fft.irfft(fa[:, :, None] * fb.conj()[:, None, :], n, axis=0)
    return _rotated_energies(H, np.sum(a ** 2) + np.sum(b ** 2), n)


def _contenders(bulk: np.ndarray, start: float = np.inf) -> np.ndarray:
    """Indices, in order, of the candidates whose exact scores decide "the
    first candidate more than 1e-15 below the best so far wins", from an
    exact best ``start``: those within SCORE_BAND of the lowest bulk score.
    A candidate farther above can only win over a best that the next
    contender beats as well. Every candidate is a contender when a bulk
    score is not finite."""
    if not np.all(np.isfinite(bulk)):
        return np.arange(len(bulk))
    return np.flatnonzero(bulk <= min(start, bulk.min()) + SCORE_BAND)


def _seed_search(a: np.ndarray, b: np.ndarray, energy, best=None):
    """(energy, shift, rotation) of the cyclic shift of ``a`` and proper
    rotation best mapping it onto ``b``: of the shifts in order, the first
    whose exact ``energy(b, rotated)`` is more than 1e-15 below the best so
    far (``best``, or none) wins. Only the contenders of the bulk scores are
    scored exactly."""
    for shift in _contenders(_shift_energies(a, b)).tolist():
        rolled = np.roll(a, -shift, axis=0)
        R = _procrustes_rotation(rolled, b)
        e = energy(b, rolled @ R.T)
        if best is None or e < best[0] - 1e-15:
            best = (e, shift, R)
    return best


def rotation_seed_align(target: Curve, template: Curve) -> AlignmentResult:
    """Best (cyclic shift, rotation) mapping the target's SRVF onto the
    template's, by exhaustive shift search with closed-form rotation: every
    shift is scored at once and the contenders again with SVD Procrustes.

    Ties in energy break toward the smallest shift. Energy is the mean
    squared row residual between the SRVF sample matrices.
    """
    if target.n != template.n:
        raise ValidationError(
            f"alignment needs equal point counts ({target.n} vs {template.n}); "
            "resample the curves to a common size first")
    residual, shift, R = _seed_search(srvf(target).q, srvf(template).q,
                                      _mean_row_residual)
    return AlignmentResult(rotation=R, shift=shift, residual=residual)


def _mean_row_residual(b: np.ndarray, a: np.ndarray) -> float:
    return float(np.mean(np.sum((b - a) ** 2, axis=1)))


def apply_alignment(curve: Curve, result: AlignmentResult) -> Curve:
    """Apply a cyclic seed shift then a rotation to the curve's points."""
    pts = np.roll(curve.points, -result.shift, axis=0)
    return Curve(pts @ result.rotation.T)


def preprocess_collection(curves, template_index: int = 0):
    """Center, scale to unit length, and align every curve to the template.

    The template itself is only centered and scaled. Returns the processed
    curves plus one AlignmentResult per curve (identity for the template).
    """
    if not curves:
        raise ValidationError("need at least one curve")
    template_index = whole_number("template_index", template_index, 0)
    if template_index >= len(curves):
        raise ValidationError(f"template_index {template_index} is out of range")
    normalized = [scale_to_unit_length(center(c)) for c in curves]
    template = normalized[template_index]
    identity = AlignmentResult(rotation=np.eye(2), shift=0, residual=0.0)
    processed, results = [], []
    for i, curve in enumerate(normalized):
        if i == template_index:
            processed.append(curve)
            results.append(identity)
        else:
            res = rotation_seed_align(curve, template)
            processed.append(apply_alignment(curve, res))
            results.append(res)
    return processed, results
