"""Coregionalization matrices and the separable multi-level kernel.

Discrete levels (coordinate, curve, group) are coupled through low-rank-
plus-diagonal PSD matrices B = W W^T + diag(kappa). The full kernel is the
product of the periodic input kernel with one factor per active level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernels import NoiseSpec, PeriodicHyperparameters, gram


@dataclass(frozen=True)
class CoregMatrix:
    """Low-rank-plus-diagonal PSD matrix W W^T + diag(kappa)."""

    w: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.w, dtype=float))
        kappa = np.asarray(self.kappa, dtype=float).reshape(-1)
        if w.shape[0] != kappa.shape[0]:
            raise ValidationError(
                f"W has {w.shape[0]} rows but kappa has {kappa.shape[0]} entries")
        if np.any(kappa < 0):
            raise ValidationError("kappa entries must be nonnegative")
        w = w.copy(); w.setflags(write=False)
        kappa = kappa.copy(); kappa.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "kappa", kappa)

    @property
    def size(self) -> int:
        return self.w.shape[0]

    @property
    def rank(self) -> int:
        return self.w.shape[1]

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


def _level_factor(coreg: CoregMatrix, a, b):
    B = coreg.matrix
    a = np.asarray(a, dtype=int)
    b = np.asarray(b, dtype=int)
    if np.any(a < 0) or np.any(a >= coreg.size) or np.any(b < 0) or np.any(b >= coreg.size):
        raise ValidationError(f"level index out of range for size {coreg.size}")
    return B[a, b]


def _row_types(levels):
    """Distinct tuples of level values among the rows of one design.

    ``levels`` holds one index array per level. Each level's values are
    ranked among its distinct values and the ranks are coded in mixed radix,
    so the code is exact for any integers, out-of-range ones included.
    Returns each level's value at every type and the type of every row.
    """
    code, ranked = 0, []
    for idx in levels:
        values, rank = np.unique(np.asarray(idx, dtype=int).reshape(-1),
                                 return_inverse=True)
        code = code * len(values) + rank
        ranked.append((values, rank))
    _, first, row_type = np.unique(code, return_index=True, return_inverse=True)
    return [values[rank[first]] for values, rank in ranked], row_type


def multilevel_gram(kernel: MultiLevelKernel, noise: NoiseSpec,
                    s_a, d_a, j_a=None, g_a=None,
                    s_b=None, d_b=None, j_b=None, g_b=None) -> np.ndarray:
    """Cross-Gram between two row designs (or one design with itself).

    The input kernel is evaluated at every pair of rows (`gram`), and the
    level factors once per pair of distinct level tuples (row types) and
    gathered to the rows; the entries equal a direct evaluation bit for
    bit. The constant jitter from ``noise`` is added to
    every entry of the input kernel, so it is modulated by the same coreg
    factors and vanishes across independent levels. Observation noise is
    not included.
    """
    K = gram(kernel.input_kernel, noise, s_a, s_b)
    if s_b is None:
        d_b, j_b, g_b = d_a, j_a, g_a
    carried = [(coreg, a, b) for coreg, a, b in
               ((kernel.coord, d_a, d_b), (kernel.curve, j_a, j_b),
                (kernel.group, g_a, g_b)) if coreg is not None]
    types_a, row_a = _row_types([a for _, a, _ in carried])
    types_b, row_b = ((types_a, row_a) if s_b is None
                      else _row_types([b for _, _, b in carried]))
    B = 1.0
    for (coreg, _, _), a, b in zip(carried, types_a, types_b):
        B = B * _level_factor(coreg, a[:, None], b[None, :])
    K *= B.take(row_a, axis=0).take(row_b, axis=1)
    return K
