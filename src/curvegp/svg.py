"""SVG rendering of predicted curves: mean path, observed sample markers,
optional truth path, and one uncertainty ellipse per grid point, in a
640 x 640 pixel document."""

from __future__ import annotations

import math
from html import escape

import numpy as np

from .errors import require

MEAN_STYLE = 'fill="none" stroke="black" stroke-width="0.8%"'
TRUTH_STYLE = 'fill="none" stroke="gold" stroke-width="0.8%"'
ELLIPSE_STYLE = 'fill="none" stroke="steelblue" stroke-width="0.4%" opacity="0.6"'
POINT_STYLE = 'fill="red" stroke="none"'


def _r(x) -> str:
    return repr(float(x))


def _path(points: np.ndarray) -> str:
    cmds = [f"M {_r(points[0, 0])} {_r(points[0, 1])}"]
    cmds += [f"L {_r(x)} {_r(y)}" for x, y in points[1:]]
    return " ".join(cmds) + " Z"


def _ellipse_params(cov: np.ndarray, scale: float):
    """Semi-axes and rotation angle (degrees) of the covariance ellipse."""
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, 0.0)
    # eigh returns ascending order; use the larger axis as the x semi-axis
    rx, ry = scale * np.sqrt(vals[1]), scale * np.sqrt(vals[0])
    angle = np.degrees(np.arctan2(vecs[1, 1], vecs[0, 1]))
    return rx, ry, angle


def emit_svg(predicted, observed=None, truth=None, title: str = "",
             scale: float = 1.0) -> str:
    """Render a PredictedCurve (plus optional observed points and truth
    curve) as a standalone SVG document.

    One ellipse element per grid point, semi-axes scale*sd along the
    covariance eigenvectors; 1:1 aspect with a 10% padded bounding box.
    A scale that is not finite and > 0 is a ValidationError.
    """
    require(0.0 < scale < math.inf, "scale", "finite and > 0", scale)
    means = np.asarray(predicted.means, dtype=float)
    covs = np.asarray(predicted.covariances, dtype=float)
    all_pts = [means]
    if observed is not None:
        all_pts.append(np.asarray(observed.points, dtype=float))
    if truth is not None:
        all_pts.append(np.asarray(truth.points, dtype=float))
    stacked = np.vstack(all_pts)
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    span = max(float(np.max(hi - lo)), 1e-9)
    pad = 0.1 * span
    cx, cy = (lo + hi) / 2.0
    half = span / 2.0 + pad
    view = f"{_r(cx - half)} {_r(cy - half)} {_r(2 * half)} {_r(2 * half)}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{view}" preserveAspectRatio="xMidYMid meet">',
    ]
    if title:
        parts.append(f"<title>{escape(title, quote=False)}</title>")
    # flip the y axis so curves render in conventional orientation
    parts.append(f'<g transform="translate(0 {_r(2 * cy)}) scale(1 -1)">')
    for mean, cov in zip(means, covs):
        rx, ry, angle = _ellipse_params(cov, scale)
        parts.append(
            f'<ellipse cx="{_r(mean[0])}" cy="{_r(mean[1])}" rx="{_r(rx)}" ry="{_r(ry)}" '
            f'transform="rotate({_r(angle)} {_r(mean[0])} {_r(mean[1])})" {ELLIPSE_STYLE}/>')
    if truth is not None:
        parts.append(f'<path d="{_path(truth.points)}" {TRUTH_STYLE}/>')
    parts.append(f'<path d="{_path(means)}" {MEAN_STYLE}/>')
    if observed is not None:
        r = 0.01 * span
        for x, y in observed.points:
            parts.append(f'<circle cx="{_r(x)}" cy="{_r(y)}" r="{_r(r)}" {POINT_STYLE}/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
