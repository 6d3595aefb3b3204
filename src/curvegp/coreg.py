"""Coregionalization matrices and the separable multi-level kernel.

Discrete levels (coordinate, curve, group) are coupled through low-rank-
plus-diagonal PSD matrices B = W W^T + diag(kappa). The full kernel is the
product of the periodic input kernel with one factor per active level.
Every Gram formed here is a Gram of points: the input kernel, its jitter
included, times the curve and group factors. The coordinate level acts on
each point's two coordinates and is applied by the model, through the
eigenbasis of its 2 x 2 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ValidationError
from .kernels import PeriodicHyperparameters, gram


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
        return self.w @ self.w.T + np.diag(self.kappa)

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


def _point_types(levels, n: int):
    """Distinct tuples of level values among n points, as (each level's
    value at every type, the type of every point). ``levels`` holds (size,
    one index per point) per level; a value outside 0 .. size - 1 raises.
    Each level's values are ranked and the ranks coded in mixed radix, so
    the code is exact for any integers. Without levels there is one type."""
    code = np.zeros(n, dtype=int)
    levels = [(size, np.asarray(idx, dtype=int)) for size, idx in levels]
    for size, idx in levels:
        if idx.shape != (n,):
            raise ValidationError(f"one level index per point required ({n} points)")
        values, rank = np.unique(idx, return_inverse=True)
        if n and not 0 <= values[0] <= values[-1] < size:
            raise ValidationError(f"level index out of range for size {size}")
        code = code * len(values) + rank
    _, first, point_type = np.unique(code, return_index=True, return_inverse=True)
    return [idx[first] for _, idx in levels], point_type


def level_product(matrices, types_a, types_b, out=None):
    """(factors, product): each level's factor B[a, b] formed once on the
    grid of point types of two sides (`_point_types` of each, one level per
    matrix B), and their product spread to every pair of points, in ``out``
    when given. The entries equal a product formed per pair of points bit
    for bit."""
    (values_a, point_a), (values_b, point_b) = types_a, types_b
    factors = [B.take(a, axis=0).take(b, axis=1)
               for B, a, b in zip(matrices, values_a, values_b)]
    grid = reduce(np.multiply, factors) if factors else np.ones((1, 1))
    # columns first, so the large gather copies whole rows; the types always
    # index the grid, and "clip" spares the copy of out that "raise" makes
    return factors, grid.take(point_b, axis=1).take(point_a, axis=0, out=out,
                                                    mode="clip")


def multilevel_gram(kernel: MultiLevelKernel, s_a, *, j_a=None, g_a=None, s_b=None,
                    j_b=None, g_b=None) -> np.ndarray:
    """Gram between two sets of points (s, j, g), or of one set with
    itself: the input kernel at every pair of points (`gram`) times the
    curve and group factors the kernel carries (`level_product`). The
    coordinate level enters through the eigenbasis of its 2 x 2 matrix
    (`model._coord_basis`), not here. The input kernel's jitter is on
    every entry of it, so it is modulated by the same factors and vanishes
    across independent levels. Observation noise is not included."""
    K = gram(kernel.input_kernel, s_a, s_b)
    if s_b is None:
        j_b, g_b = j_a, g_a
    carried = [(coreg, a, b) for coreg, a, b in
               ((kernel.curve, j_a, j_b), (kernel.group, g_a, g_b))
               if coreg is not None]
    types_a = _point_types([(c.size, a) for c, a, _ in carried], K.shape[0])
    types_b = (types_a if s_b is None
               else _point_types([(c.size, b) for c, _, b in carried], K.shape[1]))
    K *= level_product([c.matrix for c, _, _ in carried], types_a, types_b)[1]
    return K
