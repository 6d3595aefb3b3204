"""Coregionalization matrices and the separable multi-level kernel.

Discrete levels (coordinate, curve, group) are coupled through low-rank-
plus-diagonal PSD matrices B = W W^T + diag(kappa). The full kernel is the
product of the periodic input kernel with one factor per active level.
Every Gram formed here is a Gram of points: the input kernel, its jitter
included, times the curve and group factors. The levels are nested: each
curve lies in one group, so both factors of two points depend only on the
points' curves and form one factor F between curves. The coordinate level
acts on each point's two coordinates and is applied by the model, through
the eigenbasis of its 2 x 2 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ValidationError
from .kernels import PeriodicHyperparameters, gram


def level_matrix(w, kappa, out=None) -> np.ndarray:
    """B = W W^T + diag(kappa), in ``out`` or a new array, or one per row of
    stacks of W and kappa: the one spelling of a level's matrix, for
    `CoregMatrix.matrix` and the likelihood alike. kappa None is kappa = 0,
    which adds nothing to a diagonal of sums of squares."""
    B = np.matmul(w, w.swapaxes(-1, -2), out=out)
    if kappa is not None:
        B.reshape(*B.shape[:-2], -1)[..., ::B.shape[-1] + 1] += kappa
    return B


@dataclass(frozen=True)
class CoregMatrix:
    """Low-rank-plus-diagonal PSD matrix W W^T + diag(kappa), with finite
    W and finite, nonnegative kappa."""

    w: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.w, dtype=float))
        kappa = np.asarray(self.kappa, dtype=float).reshape(-1)
        if w.ndim != 2 or w.shape[0] != kappa.shape[0]:
            raise ValidationError(f"W must be a matrix with one row per kappa entry "
                                  f"({kappa.shape[0]}), got shape {w.shape}")
        if not (np.isfinite(w).all() and np.isfinite(kappa).all() and (kappa >= 0).all()):
            raise ValidationError("W entries must be finite, kappa entries finite and >= 0")
        w = w.copy(); w.setflags(write=False)
        kappa = kappa.copy(); kappa.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "kappa", kappa)

    @property
    def size(self) -> int:
        return self.w.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return level_matrix(self.w, self.kappa)

    @classmethod
    def identity(cls, m: int) -> "CoregMatrix":
        return cls(np.zeros((m, 1)), np.ones(m))

    def to_dict(self) -> dict:
        return {"w": self.w.tolist(), "kappa": self.kappa.tolist()}


@dataclass(frozen=True)
class MultiLevelKernel:
    """Separable kernel: periodic input kernel times per-level coreg factors.

    ``curve`` and ``group`` levels are optional; an absent level contributes
    a factor of 1.
    """

    input_kernel: PeriodicHyperparameters
    coord: CoregMatrix
    curve: CoregMatrix | None = None
    group: CoregMatrix | None = None

    def __post_init__(self):
        if self.coord.size != 2:
            raise ValidationError("coordinate-level matrix must be 2x2")


def curve_factor(curve, group, curve_group=None):
    """(factors, F): the curve and group factors between every two curves,
    one per level present (None: absent), the curve level's matrix C and
    the group level's G[cg, cg] with cg the group of each curve, and their
    product F = C o G[cg, cg], [[1.0]] without either level; with one
    level F is that level's factor itself, not a copy. A curve lies in one
    group, so the factor of two points is F at their curves. Stacks of
    level matrices give stacks of factors."""
    factors = [] if curve is None else [curve]
    if group is not None:
        factors.append(group.take(curve_group, axis=-2).take(curve_group, axis=-1))
    return factors, reduce(np.multiply, factors) if factors else np.ones((1, 1))


def level_indices(name: str, idx, size: int, n: int | None = None,
                  unit: str = "point", kind: str = "level") -> np.ndarray:
    """``idx`` as integer indices into a level of ``size`` entries, the one
    index rule of Grams and queries: whole numbers in 0 .. size - 1, 1.0
    included, and, given ``n``, one per ``unit``. Anything else (a
    fraction, NaN, inf) is a ValidationError that names ``name`` and calls
    an index a ``kind`` index. An integer array skips the float round trip."""
    if idx is None:
        raise ValidationError(f"{name}: {kind} indices are required")
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        idx = idx.astype(float, copy=False)
        if not (np.isfinite(idx) & (idx == np.trunc(idx))).all():
            raise ValidationError(f"{name}: a {kind} index must be a whole number")
    if n is not None and idx.shape != (n,):
        raise ValidationError(f"{name}: one {kind} index per {unit} required "
                              f"({n} {unit}s)")
    if idx.size and not 0 <= idx.min() <= idx.max() < size:
        raise ValidationError(f"{name}: {kind} index out of range for size {size}")
    return idx.astype(int, copy=False)


def multilevel_gram(kernel: MultiLevelKernel, s_a, *, j_a=None, s_b=None, j_b=None,
                    curve_group=None) -> np.ndarray:
    """Gram between two sets of points (s, j), or of one set with itself:
    the input kernel at every pair of points (`gram`) times the curve and
    group factors the kernel carries, F = C o G[cg, cg] between the
    points' curves (`curve_factor`), ``curve_group`` cg the group of each
    curve. A point's group is its curve's group. The coordinate level
    enters through the eigenbasis of its 2 x 2 matrix
    (`model._coord_basis`), not here. The input kernel's jitter is on every
    entry of it, so it is modulated by the same factors and vanishes across
    independent levels. Observation noise is not included."""
    K = gram(kernel.input_kernel, s_a, s_b)
    if kernel.curve is None and kernel.group is None:
        return K
    curve, group = (None if level is None else level.matrix
                    for level in (kernel.curve, kernel.group))
    if group is not None:
        n_curves = np.size(curve_group) if curve is None else len(curve)
        curve_group = level_indices("curve_group", curve_group, len(group),
                                    n_curves, "curve")
    F = curve_factor(curve, group, curve_group)[1]
    j_a = level_indices("j_a", j_a, len(F), K.shape[0])
    j_b = j_a if s_b is None else level_indices("j_b", j_b, len(F), K.shape[1])
    K *= F.take(j_b, axis=1).take(j_a, axis=0)
    return K
