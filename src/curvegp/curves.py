"""Closed planar curves and arc-length parameterization.

A curve is an ordered set of planar sample points, always interpreted as a
closed polygon: the final segment joins the last point back to the first.
All arc lengths are measured on that polygon, in one table per curve,
`Curve.cumulative_arc`, whose last entry is the curve's length.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateCurveError, ValidationError, require, whole_number

# Interior points per polygon segment in `xy_to_arc_param`'s search.
OVERSAMPLE = 19

# Query-by-polygon distances formed at once by `xy_to_arc_param`.
XY_QUERY_BLOCK = 1 << 16

# A last row within this fraction of the curve's extent of the first row is
# a closure row (`closure_row`).
CLOSURE_RTOL = 1e-6

# Fraction of the points and angular window of the ``clustered`` scheme.
CLUSTER_FRAC = 0.8
CLUSTER_WIDTH = np.pi / 2


def closure_row(points: np.ndarray):
    """Whether the last row of an (n, 2) point array, or of each array of a
    (..., n, 2) stack, repeats its first: no coordinate differs from the
    first row's by more than `CLOSURE_RTOL` times the curve's extent, the
    largest such difference of any row. Being relative, the test does not
    depend on where the curve sits or on its units, and an exact repeat
    always passes it."""
    gaps = np.abs(points - points[..., :1, :])
    return gaps[..., -1, :].max(axis=-1) <= CLOSURE_RTOL * gaps.max(axis=(-2, -1))


def point_array(name: str, value) -> np.ndarray:
    """``value`` as a float array of one point, shape (2,), or of n >= 0
    points, shape (n, 2): the one shape rule for point arrays. Any other
    shape is a ValidationError naming ``name`` and the shape."""
    array = np.asarray(value, dtype=float)
    if array.shape != (2,) and (array.ndim != 2 or array.shape[1] != 2):
        raise ValidationError(f"{name} must be one point of shape (2,) or points of "
                              f"shape (n, 2), got shape {array.shape}")
    return array


@dataclass(frozen=True, eq=False)
class Curve:
    """Ordered planar sample points of a closed curve.

    Points are validated on construction: every coordinate must be finite,
    consecutive duplicates are merged (with a warning), then an explicit
    closure row repeating the first point (`closure_row`) is dropped, and
    at least 3 distinct points are required. Lengths are cached at first read.
    A curve equals only itself and hashes by identity.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError(f"expected an (n, 2) point array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            bad = int(np.argmin(np.isfinite(pts).all(axis=1)))
            raise ValidationError(f"curve point {bad} is not finite: {pts[bad].tolist()}")
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
        if not keep.all():
            warnings.warn("merged duplicated consecutive points", stacklevel=3)
            pts = pts[keep]
        if len(pts) > 1 and closure_row(pts):
            pts = pts[:-1]
        if len(pts) < 3:
            raise ValidationError(f"a closed curve needs at least 3 points, got {len(pts)}")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def closed_points(self) -> np.ndarray:
        """Points with the first row appended as an explicit closure row."""
        return np.vstack([self.points, self.points[:1]])

    @cached_property
    def segment_lengths(self) -> np.ndarray:
        """Length of each polygon segment, including the closing one."""
        seg = np.linalg.norm(np.diff(self.closed_points(), axis=0), axis=1)
        seg.setflags(write=False)
        return seg

    @cached_property
    def cumulative_arc(self) -> np.ndarray:
        """Running sum of `segment_lengths` from 0: each point's arc parameter,
        then the curve's one length. Zero length is a DegenerateCurveError."""
        arc = np.concatenate([[0.0], np.cumsum(self.segment_lengths)])
        if arc[-1] <= 0.0:
            raise DegenerateCurveError("curve has zero total length")
        arc.setflags(write=False)
        return arc


def polygon_length(curve: Curve) -> float:
    """Perimeter of the enclosed polygon: the last entry of `Curve.cumulative_arc`."""
    return float(curve.cumulative_arc[-1])


def _oversampled_polygon(curve: Curve):
    """Dense points along each segment plus their arc-length parameters.

    Each of the n segments contributes its start point and ``OVERSAMPLE``
    interior points; the closure point is not repeated.
    """
    pts = curve.points
    nxt = np.roll(pts, -1, axis=0)
    fracs = np.arange(OVERSAMPLE + 1) / (OVERSAMPLE + 1)
    # shape (n, OVERSAMPLE + 1, 2): start of each segment plus interior samples
    dense = pts[:, None, :] + fracs[None, :, None] * (nxt - pts)[:, None, :]
    arcs = curve.cumulative_arc[:-1, None] + fracs[None, :] * curve.segment_lengths[:, None]
    return dense.reshape(-1, 2), arcs.reshape(-1)


def xy_to_arc_param(curve: Curve, query):
    """Arc-length parameter of the oversampled polygon point nearest to ``query``.

    ``query`` is one point, giving a float, or an (n, 2) array of points,
    giving n parameters, each equal to the one-point call's; the polygon is
    oversampled once. Ties are broken toward the smallest arc parameter.
    The result lies in [0, total_length). Any other shape (`point_array`)
    and a non-finite coordinate are a ValidationError.
    """
    dense, arcs = _oversampled_polygon(curve)
    query = point_array("query", query)
    if not np.isfinite(query).all():
        raise ValidationError("query must be finite: a point has a non-finite coordinate")
    pts = query.reshape(-1, 2)
    nearest = np.empty(len(pts), dtype=int)
    step = max(1, XY_QUERY_BLOCK // len(dense))  # bounds the distance array
    for start in range(0, len(pts), step):
        block = pts[start:start + step]
        dist = np.linalg.norm(dense[None, :, :] - block[:, None, :], axis=2)
        nearest[start:start + step] = np.argmin(dist, axis=1)
    if query.ndim == 1:
        return float(arcs[nearest[0]])
    return arcs[nearest]


def arc_to_xy_param(curve: Curve, s) -> np.ndarray:
    """Point on the enclosed polygon at arc-length parameter ``s``.

    ``s`` is wrapped modulo the last entry of `Curve.cumulative_arc`, the
    curve's length (the domain is circular), and looked up in that table;
    a value that is not finite is a ValidationError. ``s`` may be a scalar,
    giving one (2,) point, or an array of parameters, giving one point per
    parameter in an array of shape ``s.shape + (2,)``, each equal to the
    scalar call's.
    """
    arc = curve.cumulative_arc
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise ValidationError("s must be finite: an arc parameter is not finite")
    s = np.remainder(s, arc[-1])
    previ = np.minimum(np.searchsorted(arc, s, side="right") - 1, curve.n - 1)
    rat = (s - arc[previ]) / (arc[previ + 1] - arc[previ])
    closed = curve.closed_points()
    return closed[previ] + rat[..., None] * (closed[previ + 1] - closed[previ])


def resample_equally_spaced(curve: Curve, m: int) -> Curve:
    """Resample to ``m`` points equally spaced in arc length, keeping the seed."""
    m = whole_number("m", m, 3)
    length = polygon_length(curve)
    return Curve(arc_to_xy_param(curve, np.arange(m) * length / m))


def _angles(n: int, scheme: str, cluster_center: float) -> np.ndarray:
    if scheme == "equal":
        return 2.0 * np.pi * np.arange(n) / n
    if scheme == "clustered":
        n_in = max(int(round(CLUSTER_FRAC * n)), 1)
        n_out = n - n_in
        lo = cluster_center - CLUSTER_WIDTH / 2.0
        inside = lo + CLUSTER_WIDTH * np.arange(n_in) / n_in
        outside = (lo + CLUSTER_WIDTH
                   + (2.0 * np.pi - CLUSTER_WIDTH) * np.arange(n_out) / max(n_out, 1))
        return np.sort(np.concatenate([inside, outside]) % (2.0 * np.pi))
    raise ValidationError(f"unknown sampling scheme {scheme!r}")


def _size(name: str, value):
    """A size of a synthetic shape, finite and > 0, or a ValidationError."""
    require(0.0 < value < np.inf, name, "finite and > 0", value)
    return value


def generate_synthetic(shape: str, n: int, *, radius: float = 1.0,
                       axes: tuple = (1.0, 0.5), amplitude: float = 0.3,
                       petals: int = 5, scheme: str = "equal",
                       cluster_center: float = 0.0,
                       noise_sd: float = 0.0, rng_seed=None) -> Curve:
    """Sample points from an analytic closed shape, optionally with noise.

    Shapes: ``circle`` (radius), ``ellipse`` (semi-axes), ``star`` with radial
    profile radius * (1 + amplitude*cos(petals*theta)). The ``clustered``
    scheme puts `CLUSTER_FRAC` of the points in a `CLUSTER_WIDTH` window.
    Deterministic for a fixed ``rng_seed``. An unknown shape or scheme, a
    count below its minimum, a negative or NaN ``noise_sd``, a size the
    shape reads (``radius``, or each of ``axes``) that is not finite and >
    0 and a star amplitude outside [0, 1) are each a ValidationError.
    """
    n = whole_number("n", n, 3)
    require(0.0 <= noise_sd < np.inf, "noise_sd", "finite and >= 0", noise_sd)
    theta = _angles(n, scheme, cluster_center)
    if shape == "circle":
        pts = _size("radius", radius) * np.column_stack([np.cos(theta), np.sin(theta)])
    elif shape == "ellipse":
        a, b = (_size(f"axes[{i}]", axis) for i, axis in enumerate(axes))
        pts = np.column_stack([a * np.cos(theta), b * np.sin(theta)])
    elif shape == "star":
        radius = _size("radius", radius)
        if not 0.0 <= amplitude < 1.0:
            raise ValidationError("star amplitude must lie in [0, 1)")
        petals = whole_number("petals", petals, 1)
        r = radius * (1.0 + amplitude * np.cos(petals * theta))
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    else:
        raise ValidationError(f"unknown shape {shape!r}")
    if noise_sd > 0.0:
        rng = np.random.default_rng(rng_seed)
        pts = pts + rng.normal(scale=noise_sd, size=pts.shape)
    return Curve(pts)
