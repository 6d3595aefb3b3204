"""Exact GP regression for closed curves: design assembly, marginal
likelihood with analytic gradients, constrained multi-start fitting, and
prediction with full per-point covariance.

A `TrainingDesign` holds P points, each with both coordinates, validated
when built, and the group of each curve: the curve level is nested in the
group level, so a point's group is its curve's group. K is the input Gram
K0 times one factor per coregionalization level, plus noise I, over the 2P
values; the noise variance is a float beside the kernel. The input kernel's
jitter is a constant on every entry of K0, so K = K_pts (x) B_coord + noise
I exactly, K_pts the P x P Gram of the points carrying the curve and group
factors. With B_coord = Q diag(lam) Q^T (closed form), rotating each
point's two targets by Q splits K into two P x P blocks lam_e K_pts + noise
I (Bonilla, Chai & Williams 2008; Saatci 2011). The same points and blocks
serve the objective, `assemble_model`, `predict` and `predict_curve`.
Queries are points as well: `predict` takes its rows in coordinate pairs
and forms its prior and posterior on the query points block by block, each
a quarter of the size of the covariance it returns, with no temporary of
the covariance's size; `predict_curve` forms only the diagonal of each
block. Both form the query points' cross Gram training-major, P x m with a
row per training point, and whiten it from the right, V_e^T = cross^T
L_e^-T (`_whitened`): block 0 in one copy of it and the last block in the
cross Gram itself, so each block's V is used before the next block is
solved. The solve, `_trsm`, is one BLAS dtrsm for a block of at most
`TRIANGULAR_LEAF` rows; a larger block is halved, its halves solved in
turn and coupled by one dgemm (Elmroth, Gustavson, Jonsson & Kagstrom
2004), because OpenBLAS's triangular kernels run far below its matrix
product at these sizes.

The fit profiles sigma2 out (Santner, Williams & Notz 2003): K = sigma2 (R
+ eta I), with R the Gram at sigma2 = 1, its jitter the fraction
`ModelConfig.jitter` of sigma2 and eta the noise as a fraction of sigma2.
sigma2's estimate is s2 = y^T (R + eta I)^-1 y / 2P, and -log p at s2 is P
log s2 + log|R + eta I| / 2 + P (1 + log 2 pi). The packed theta is log
rho, log eta, then one block per coregionalization level, whose record
`_Level` states how the level is packed. The fitted kernel holds s2, the
jitter and noise as absolute values.

One routine, `_solve`, forms the two blocks in the buffer that LAPACK
factors (B x 2 x P x P), factors them there with the nugget ladder, solves
the rotated targets and returns y^T K^-1 y and log|K| / 2; a row whose
factorization escalates forms its blocks again from its point Gram
(`_chol_with_ladder`), so no copy of the blocks is kept. The objective
calls it on its work arrays in `value_and_grad` and in `unpack`, which
takes s2 from it; `assemble_model` calls it on the Gram `multilevel_gram`
forms, so its peak is that Gram and the factor buffer, 3 P^2 floats. So
s2, the profiled -log p and the fitted model's log p are each one line
over the same numbers, and both Grams take the coordinate basis from one
spelling of a level's matrix, `coreg.level_matrix`.

s2 is a stationary point of the full likelihood, so the gradient of -log p
at s2 is -tr(A dR)/2 with A = alpha alpha^T / s2 - (R + eta I)^-1
(Rasmussen & Williams 2006, 5.4.1), contracted by level rather than formed
per parameter. Over the points it is A_p = sum_e lam_e (alpha_e alpha_e^T
/ s2 - R_e^-1). The curve and group factors of two points are those of
their curves, C and G[cg, cg] with cg the group of each curve, and their
product F = C o G[cg, cg] is gathered by curve (`coreg.curve_factor`), for
the objective and for `multilevel_gram` alike. A_p o K0 is summed over
each block of curves once, Gt = S^T (A_p o K0) S (S: the one-hot map from
points to curves); the curve level's M = Gt o G[cg, cg], the group level's
M = E^T (Gt o C) E (E: curves to groups), and the coordinate level's M = Q
Mt Q^T, Mt[e, f] = alpha_e^T K_pts alpha_f / s2 - [e = f] <R_e^-1, K_pts>.
Each level takes its gradient from its M, d(-log p) = -tr(M dB)/2
(`_Level.grad`). log rho takes one inner product of A_p with a dense
matrix, and log eta takes -eta sum_e tr(A_e) / 2. alpha_e and R_e^-1 come
from the Cholesky factors (LAPACK dpotrs, and `_potri`: one dpotri at
most `TRIANGULAR_LEAF` rows, above it a recursive dtrtri whose coupling
blocks are matrix products, then dlauum); one nugget ladder serves every
block.

The likelihood takes stacks only: `gram_and_grads` and `value_and_grad`
read a B x n_params stack of thetas, row b on the design of an objective of
one layout (the same config, curve indices and groups), and return stacks.
`value` is the one scalar entry; it, `unpack` and `kernel_at` pass their
theta on as the one-row stack [theta]. `unpack` asks `gram_and_grads` for
the Gram alone, without dR/dlog rho. At small P a call costs overhead, not
arithmetic, so the objective keeps its work arrays across calls (`_grow`)
and every view of them a stack of B rows reads (`_StackWork`, with
`_SolveWork` and each level's `_LevelWork`), made the first time B rows
are evaluated, and it copies the rows' distances and targets only when the
rows are not those of its last call. Only LAPACK and scalar math run per
row (the factorization with its nugget ladder, dpotrs, `_potri`, rho and
eta, the coordinate basis, a 2 x 2 level's W, the value and the scale
1/sqrt(s2)), and a row that escalates forms its blocks again; the rest runs
once per stack, each slice as it runs alone: forming the blocks and
checking them finite, elementwise arithmetic, axis sums, matrix products
and every inner product (`_dots`). So each row of a stack equals its
one-row call, bit for bit. At one BLAS thread on a shared 2-core x86-64
machine (`scripts/time_likelihood.py`), a one-row call at P = 12 takes
about 75 us, within 3% of what the likelihood of one theta took before it
took stacks, and each further row of a stack about 12 us, 5 us of it
LAPACK. New on
every call are the gradients and arrays no larger than a level times P per
row. `assemble_model` passes no work arrays, so a fitted model shares no
memory with an objective. The LAPACK and BLAS flags go by position, which
f2py parses faster than keywords.

L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995; Zhu et al. 1997) runs through
scipy's reverse-communication routine `setulb`, one state per run, with
scipy's constants, so each run takes the steps scipy's `minimize` takes,
evaluation for evaluation. `_lockstep` runs many such runs side by side:
each round, the runs that ask for a point are evaluated in one stacked
`value_and_grad` (as GPyTorch batches independent GPs, Gardner et al.
2018), and runs leave as they end. `fit` runs its restarts this way, and
`fit_designs` the restarts of many designs of one layout, the trials of a
landmark search; every run's path, and so every fit, equals the one it
takes alone. At most `LOCKSTEP_ENTRIES` / P^2 runs are active at once, so
a large design runs its restarts one after another in the memory one run
needs. A run, `_Run`, is its own record: its point, value, counts, flag
and message are what `fit_designs` writes for each restart and what
`minimize`, the lockstep of one run on a function of one theta, returns.

The library calls nine of SciPy's compiled routines and imports none of
its packages, so `import curvegp.model` loads numpy alone. `_scipy_module`
loads a compiled module from its file in SciPy's directory, or takes the
one already loaded, without running `scipy.linalg`'s or
`scipy.optimize`'s package code (about 0.3 s and 20-45 MB of a fresh
command's start, with `scipy.sparse`, `scipy.special`, `numpy.testing` and
`numpy.f2py`). The LAPACK routines (dpotrf, dpotrs, dpotri, dtrtri, dlauum)
and BLAS dtrsm and dgemm come from `_linalg`, SciPy's `linalg._flapack`
and `linalg._fblas`, loaded at the first factorization, solve or
prediction; `setulb` comes from `_lbfgsb`, SciPy's `optimize._lbfgsb`,
loaded when a fit or `minimize` first runs, and its messages from scipy's
tables copied here (`LBFGS_STATUS_MESSAGES`, `LBFGS_TASK_MESSAGES`).
Each routine is the object `scipy.linalg.lapack`, `scipy.linalg.blas` or
`scipy.optimize` exports, so the numbers are those of the packages'
routines.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

import numpy as np

from .coreg import (CoregMatrix, MultiLevelKernel, curve_factor, level_indices,
                    level_matrix, multilevel_gram)
from .errors import NumericalError, ValidationError, whole_number
from .kernels import (DEFAULT_JITTER, FAMILIES, PeriodicHyperparameters,
                      warped_correlation, warped_distance)

# the public API; `minimize`, the one-run case of the lockstep driver, is
# called by no fit and kept for callers that minimize a function of their
# own: it returns its run (`_Run`), not a public result type
__all__ = ["FittedModel", "MarginalLikelihoodObjective", "ModelConfig", "NUGGET_LADDER",
           "OptimizerConfig", "PredictedCurve", "TrainingDesign", "assemble_model", "fit",
           "fit_designs", "minimize", "predict", "predict_curve"]

# The rungs of the nugget ladder, fractions of the mean diagonal entry of
# the blocks factored (`_chol_with_ladder`).
NUGGET_LADDER = (0.0, 1e-8, 1e-6, 1e-4)

# Boxes of the fitted hyperparameters: rho as a fraction of tau, the noise
# variance (the noise ratio eta's box is this box over var(y)), each W
# entry and each entry below the diagonal of a unit-corner factor
# (symmetric), and each kappa and each squared diagonal entry of such a
# factor.
RHO_FRAC_BOX = (1e-3, 0.5)
NOISE_BOX = (1e-6, 1e-4)
W_BOUND = 10.0
KAPPA_BOX = (1e-8, 10.0)

LOG2PI = np.log(2.0 * np.pi)


@dataclass
class TrainingDesign:
    """Sample points of closed curves, validated at construction.

    Per point: arc parameter ``s``, curve ``j`` and both coordinates ``y``
    (P x 2). Per curve: its polygon length and its group (``curve_group``;
    without it every curve is in one group), so a point's group is its
    curve's group. One label per group. Curve and group indices run from 0
    without gaps.
    """

    s: np.ndarray
    j: np.ndarray
    y: np.ndarray
    lengths: np.ndarray
    curve_group: np.ndarray | None = None
    group_labels: tuple = ((),)

    def __post_init__(self):
        self.s, self.y, self.lengths = (np.asarray(a, dtype=float)
                                        for a in (self.s, self.y, self.lengths))
        self.j = np.asarray(self.j)
        n = len(self.s)
        if self.s.shape != (n,) or self.y.shape != (n, 2):
            raise ValidationError(f"a design needs s of shape (P,) and y of shape "
                                  f"(P, 2), got {self.s.shape} and {self.y.shape}")
        if not all(np.isfinite(a).all() for a in (self.s, self.y, self.lengths)):
            raise ValidationError("non-finite design values in s, y or lengths")
        n_curves = _index_count("curve", self.j, n, "point")
        if self.lengths.shape != (n_curves,) or (self.lengths <= 0).any():
            raise ValidationError(f"one positive length per curve required "
                                  f"({n_curves} curves)")
        self.curve_group = np.asarray(np.zeros(n_curves, dtype=int)
                                      if self.curve_group is None else self.curve_group)
        if _index_count("group", self.curve_group, n_curves, "curve") != len(
                self.group_labels):
            raise ValidationError("one group label per group required")

    @property
    def n_curves(self) -> int:
        return len(self.lengths)

    @property
    def n_groups(self) -> int:
        return len(self.group_labels)

    @classmethod
    def from_curves(cls, curve_list, labels=None) -> "TrainingDesign":
        """Assemble a design from curves (arc parameters from their polygons).

        ``labels`` are optional per-curve group labels; they are encoded as
        contiguous integers in order of first appearance, so any injective
        relabeling yields an identical design. Distinct labels must print
        differently.
        """
        if not curve_list:
            raise ValidationError("need at least one curve")
        if labels is None:
            labels = [0] * len(curve_list)
        if len(labels) != len(curve_list):
            raise ValidationError(f"one group label per curve required: "
                                  f"{len(labels)} labels for {len(curve_list)} curves")
        encoding: dict = {}
        groups = [encoding.setdefault(label, len(encoding)) for label in labels]
        printed: dict = {}
        for label in encoding:  # a fit file holds each label as its str()
            first = printed.setdefault(str(label), label)
            if first is not label:
                raise ValidationError(f"group labels {first!r} and {label!r} are "
                                      f"distinct but both print as {str(label)!r}")
        arcs = [curve.cumulative_arc for curve in curve_list]
        points = np.array([curve.n for curve in curve_list])  # per curve
        return cls(s=np.concatenate([a[:-1] for a in arcs]),
                   j=np.arange(len(points)).repeat(points),
                   y=np.concatenate([curve.points for curve in curve_list]),
                   lengths=np.array([a[-1] for a in arcs]),
                   curve_group=np.array(groups), group_labels=tuple(encoding))


def _index_count(name: str, idx: np.ndarray, n: int, unit: str) -> int:
    """The number of values of a curve or group index: one integer per
    point or curve, running from 0 without gaps."""
    values = np.unique(idx)
    if (idx.shape != (n,) or not np.issubdtype(idx.dtype, np.integer)
            or not len(values) or values[0] != 0 or values[-1] != len(values) - 1):
        raise ValidationError(f"{name} indices must be integers, one per {unit}, "
                              f"running from 0 without gaps")
    return len(values)


@dataclass
class ModelConfig:
    """Choices for the multi-level kernel. The CLI sets each field as a
    ``model.*`` config key. ``jitter`` is a fraction of sigma2. Every level
    the design has is fitted, so group labels couple curves across groups:
    the coordinate level, and a curve or group level of size 2, as the full
    2 x 2 family, a larger curve or group level with one column of W. The
    period tau is the mean polygon length of the design, and the
    hyperparameters' boxes are the module constants above."""

    family: str = "periodic_matern32"
    jitter: float = DEFAULT_JITTER

    def __post_init__(self):
        _require(self.family in FAMILIES, "model.family", f"one of {FAMILIES}",
                 self.family)
        _require(0 <= self.jitter < math.inf, "model.jitter", "finite and >= 0",
                 self.jitter)


@dataclass
class OptimizerConfig:
    restarts: int = 8
    seed: int = 0
    maxiter: int = 200

    def __post_init__(self):
        self.restarts = whole_number("opt.restarts", self.restarts, 1)
        self.seed = whole_number("opt.seed", self.seed, 0)
        self.maxiter = whole_number("opt.maxiter", self.maxiter, 1)


def _require(ok: bool, name: str, rule: str, value) -> None:
    """A config field's range check: a ValidationError naming the field."""
    if not ok:
        raise ValidationError(f"{name} must be {rule}, got {value!r}")


@dataclass
class FittedModel:
    """Kernel with estimated hyperparameters plus cached training solve.

    ``chol`` stacks the lower Cholesky factors of the two P x P blocks,
    Fortran-ordered views of the buffer in which `_solve` formed and
    factored the blocks, and ``basis`` holds their (lam, Q), the
    eigenbasis of the coordinate factor. ``alpha`` is K^-1 y over the 2P
    values, point by point. A prediction only reads them; the cross Gram
    it whitens is its own (`_whitened`). ``diagnostics`` is the fit's
    record, which a fit file holds as it stands: the nugget from
    `assemble_model`, then what `fit` adds.
    """

    kernel: MultiLevelKernel
    noise_variance: float
    design: TrainingDesign
    chol: np.ndarray
    basis: tuple
    alpha: np.ndarray
    log_marginal_likelihood: float
    diagnostics: dict

    def predict(self, s, d, j=None):
        return predict(self, s, d, j)


@dataclass
class PredictedCurve:
    """Dense predictive summary of one curve: grid of arc parameters,
     2-vector means and 2x2 cross-coordinate covariances."""

    grid: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    @property
    def sd1(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.covariances[:, 0, 0], 0.0))

    @property
    def sd2(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.covariances[:, 1, 1], 0.0))


def _coord_values(B: np.ndarray) -> list:
    """lam, then Q by rows, of B = Q diag(lam) Q^T for each symmetric 2 x 2
    matrix of a stack (..., 2, 2), or of one: six floats per matrix, in
    closed form from B[0, 0], B[0, 1] and B[1, 1] by scalar math, one
    matrix at a time. Q is a rotation, lam descending, and B = I gives Q =
    I exactly."""
    values = []
    for (a, b), (_, c) in (B if B.ndim == 3 else B.reshape(-1, 2, 2)).tolist():
        half = 0.5 * (a - c)
        r = math.hypot(half, b)
        phi = 0.5 * math.atan2(b, half)
        cos, sin = math.cos(phi), math.sin(phi)
        mid = 0.5 * (a + c)
        values += (mid + r, mid - r, cos, -sin, sin, cos)
    return values


def _coord_basis(B: np.ndarray):
    """(lam, Q) of `_coord_values` as arrays of B's stack shape, views of one
    new array of six floats per matrix."""
    stack = B.shape[:-2]
    values = np.array(_coord_values(B)).reshape(*stack, 6)
    return values[..., :2], values[..., 2:].reshape(*stack, 2, 2)


def _scipy_module(name: str):
    """SciPy's compiled module ``scipy.<name>`` (such as "linalg._flapack"),
    without running the code of the package that holds it. A module already
    in `sys.modules` is reused; otherwise it is loaded from its file in the
    package's directory beside SciPy's own ``__init__.py``, which
    `importlib.util.find_spec` locates without importing SciPy, and
    registered under its full name, so a later import of the package reuses
    it too: one module per extension, whichever loads first. Raises
    ImportError naming the module when its file does not exist."""
    full = f"scipy.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    root = importlib.util.find_spec("scipy")
    spec = root and importlib.machinery.FileFinder(
        os.path.join(os.path.dirname(root.origin), *name.split(".")[:-1]),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES)).find_spec(full)
    if spec is None:
        raise ImportError(f"SciPy's compiled module {full} was not found", name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


@cache
def _linalg():
    """LAPACK and BLAS, loaded on the first call so that only a process that
    factors, solves or predicts pays for them: ``lapack`` is SciPy's
    `_flapack` (dpotrf, dpotrs, dpotri, dtrtri and dlauum) and ``blas`` its
    `_fblas` (dtrsm and dgemm), the modules whose routines `scipy.linalg`'s
    ``lapack`` and ``blas`` export, without the package (`_scipy_module`)."""
    return SimpleNamespace(lapack=_scipy_module("linalg._flapack"),
                           blas=_scipy_module("linalg._fblas"))


# A triangular block of at most this many rows is one BLAS or LAPACK call
# (`_trsm`, `_potri`); a larger one is halved, and the block that couples
# its halves is a matrix product, which runs at GEMM speed where OpenBLAS's
# triangular kernels do not (Elmroth, Gustavson, Jonsson & Kagstrom 2004).
# Blocks of at most this size take the single call's numbers bit for bit.
TRIANGULAR_LEAF = 64


def _trsm(L, Vt):
    """Vt := Vt L^-T in place, L lower triangular (n x n) and Vt m x n,
    Fortran-ordered: the transposed view of a C-ordered V (n x m), which
    becomes L^-1 V. A block of at most `TRIANGULAR_LEAF` rows is one BLAS
    dtrsm; a larger one solves its top half, subtracts L[h:, :h] times that
    half from the bottom half by dgemm and solves the bottom half, each
    half a Fortran-ordered block of columns of Vt, so every call writes
    into Vt's own buffer."""
    blas = _linalg().blas
    n = len(L)
    if n <= TRIANGULAR_LEAF:
        # right side, lower, L transposed, non-unit diagonal, overwrite_b
        blas.dtrsm(1.0, L, Vt, 1, 1, 1, 0, 1)
        return
    h = n // 2
    _trsm(L[:h, :h], Vt[:, :h])
    # Vt[:, h:] -= Vt[:, :h] L[h:, :h]^T: beta 1, b transposed, overwrite_c
    blas.dgemm(-1.0, Vt[:, :h], L[h:, :h], 1.0, Vt[:, h:], 0, 1, 1)
    _trsm(L[h:, h:], Vt[:, h:])


def _trtri(L) -> int:
    """L := L^-1 in place for a lower triangular L (Fortran-ordered) whose
    strict upper triangle is zero, which stays zero; returns LAPACK's info.
    A block of at most `TRIANGULAR_LEAF` rows is one dtrtri; a larger one
    inverts its two diagonal halves, then X21 = -X22 L21 X11 by two matrix
    products."""
    n = len(L)
    if n <= TRIANGULAR_LEAF:
        X, info = _linalg().lapack.dtrtri(L, 1)  # lower
        L[...] = X  # dtrtri works on a copy of a block of a larger L
        return info
    h = n // 2
    info = _trtri(L[:h, :h])
    if info != 0:
        return info
    info = _trtri(L[h:, h:])
    if info != 0:
        return info + h  # the row in L
    T = np.matmul(L[h:, :h], L[:h, :h])
    np.negative(T, out=T)
    np.matmul(L[h:, h:], T, out=L[h:, :h])
    return 0


def _potri(L) -> int:
    """K^-1 = L^-T L^-1 in place in the lower triangle of a Cholesky factor
    L (lower, Fortran-ordered, its strict upper triangle zero, which stays
    zero); returns LAPACK's info. A block of at most `TRIANGULAR_LEAF` rows
    is one dpotri; a larger one is `_trtri`, then dlauum."""
    lapack = _linalg().lapack
    if len(L) <= TRIANGULAR_LEAF:
        return lapack.dpotri(L, 1, 1)[1]  # lower, overwrite_c
    info = _trtri(L)
    return info if info != 0 else lapack.dlauum(L, 1, 1)[1]  # lower, overwrite_c


def _blocks(K, lam, noise_var, out):
    """The blocks lam_e K + noise I of a point Gram K (P x P) in its
    coordinate basis, written C-ordered into ``out`` (2 x P x P), as
    `_solve` forms those of each row of a stack. Returns ``out``."""
    n = K.shape[-1]
    np.multiply(lam[..., None, None], K[..., None, :, :], out=out)
    out.reshape(*out.shape[:-2], -1)[..., ::n + 1] += np.asarray(noise_var)[..., None, None]
    return out


def _chol_with_ladder(out, K, lam, noise_var):
    """Lower Cholesky factors of the two blocks lam_e K + noise I of a point
    Gram K, with one escalating diagonal nugget: when either block fails,
    both are formed again from K into ``out`` (`_blocks`) and factored with
    the next rung of `NUGGET_LADDER` times the mean diagonal entry of both
    blocks, which only an escalation computes. One nugget for both blocks
    keeps K + nugget I isotropic, and blocks scaled by any factor take the
    rung they take unscaled, so the objective at sigma2 = 1 and
    `assemble_model` at sigma2's estimate factor alike. ``out`` holds the
    blocks, C-ordered, when called and is factored in place, read
    transposed: Fortran-ordered, for LAPACK. Returns (factors, rung used),
    factors that transposed view of ``out``."""
    dpotrf = _linalg().lapack.dpotrf
    # a symmetric block, C-ordered and read transposed, is the block in
    # Fortran order
    factors = out.transpose(0, 2, 1)
    base = None
    for rung in NUGGET_LADDER:
        if rung:
            _blocks(K, lam, noise_var, out)
            if base is None:
                base = out.diagonal(axis1=1, axis2=2).mean()
            out.reshape(len(out), -1)[:, ::out.shape[-1] + 1] += rung * base
        # lower, clean, overwrite_a; the second block only if the first factors
        if dpotrf(factors[0], 1, 1, 1)[1] == 0 and dpotrf(factors[1], 1, 1, 1)[1] == 0:
            return factors, rung
    raise NumericalError(
        f"covariance factorization failed after nugget ladder {NUGGET_LADDER}")


# The `np.vdot` of each pair of vectors (..., n) of two stacks, bit for bit
# on the same strides: np.vecdot's float loop is BLAS ddot, as vdot's and
# that of matmul's vector product are, and it needs none of the views a
# matmul (..., 1, n) @ (..., n, 1) takes.
_dots = np.vecdot


class _Level:
    """One coregionalization level's block of the packed theta, and the
    level's W and kappa at the stack of thetas it last unpacked.

    No level carries a scale, so every parameter is a direction of the
    model (Pinheiro & Bates 1996), and sigma2 carries all of the scale. A
    level of size 2 is B = L L^T with L = [[1, 0], [a, e^b]], packed as
    ``<name>.a`` and ``<name>.b``; its W is L and its kappa 0. A larger
    level is B = W W^T + diag(kappa) with W one column and kappa_0 = 1,
    packed as ``<name>.W[i]`` for every row i, then ``<name>.kappa[i]`` for
    i >= 1 in logs. Every W entry and a lie within +-`W_BOUND`, and every
    kappa and e^2b within `KAPPA_BOX`. The default start is B = I, except
    that every W entry starts at 0.1 and so does a group level's a: with
    the curve and group levels both at B = I, the cross-group covariance
    C[0, 1] G[0, 1] would have no gradient in either off-diagonal. A random
    start draws W and a normal with sd 0.3, then kappa and e^2b uniform on
    [0.1, 2].

    The level keeps work arrays for the largest stack it has unpacked, and
    their views for each stack size (`_LevelWork`), overwritten by every
    call."""

    def __init__(self, name: str, size: int, offset: int):
        self.name, self.size = name, size
        if size == 2:  # a, then b = log L[1, 1], half the log of e^2b
            self.names = [f"{name}.a", f"{name}.b"]
            self.bounds = [(-W_BOUND, W_BOUND), tuple(0.5 * np.log(KAPPA_BOX))]
            self.start = [0.1 if name == "group" else 0.0, 0.0]
        else:  # W, then log kappa_1 .. kappa_{size - 1}
            self.names = ([f"{name}.W[{i}]" for i in range(size)]
                          + [f"{name}.kappa[{i}]" for i in range(1, size)])
            self.bounds = ([(-W_BOUND, W_BOUND)] * size
                           + [tuple(np.log(KAPPA_BOX))] * (size - 1))
            self.start = [0.1] * size + [0.0] * (size - 1)
        self.slice = slice(offset, offset + len(self.names))
        self._capacity, self._work = 0, {}

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """The level's random start: W (or a), then kappa (or e^2b)."""
        n_w = 1 if self.size == 2 else self.size
        p = np.concatenate([rng.normal(scale=0.3, size=n_w), np.log(
            rng.uniform(0.1, 2.0, size=len(self.names) - n_w))])
        if self.size == 2:  # b is half the log of e^2b
            p[1] *= 0.5
        return p

    def unpack(self, theta):
        """(W, kappa) at a stack of thetas (B x n), one matrix and one vector
        per row, both kept for `grad`: W = L for a level of size 2, whose
        kappa is 0 and is given as None; W a view of theta for a larger
        one. Work arrays, overwritten by the next call."""
        work = self._work.get(len(theta)) or self._grow(len(theta))
        if self.size == 2:
            a = self.slice.start
            work.W_flat[:] = [x for t in theta.tolist()
                              for x in (1.0, 0.0, t[a], math.exp(t[a + 1]))]
            W, kappa = work.W, None
        else:
            p = theta[:, self.slice]
            W, kappa = p[:, :self.size, None], work.kappa
            np.exp(p[:, self.size:], out=work.kappa_tail)
        self._last = work, W
        return W, kappa

    def _grow(self, n_rows: int) -> "_LevelWork":
        """The views of the work arrays for a stack of n_rows rows, the
        arrays made again when the stack is larger than any before."""
        if n_rows > self._capacity:
            self._capacity, self._work = n_rows, {}
            s = self.size
            self._arrays = (np.empty((n_rows, 2, 2)) if s == 2 else np.ones((n_rows, s)),
                            np.empty((n_rows, s, s)), np.empty((n_rows, s, 2 if s == 2 else 1)))
        work = self._work[n_rows] = _LevelWork(*(a[:n_rows] for a in self._arrays))
        return work

    def coreg(self, theta) -> CoregMatrix:
        """The level's matrix at one theta, the one-row stack [theta]."""
        W, kappa = self.unpack(theta)
        return CoregMatrix(W[0], np.zeros(2) if kappa is None else kappa[0])

    def matrix(self, theta):
        """B at each theta of a stack by `level_matrix`, in a work array; its
        W and kappa stay for `grad`."""
        W, kappa = self.unpack(theta)
        return level_matrix(W, kappa, self._last[0].B)

    def grad_views(self, grad):
        """The two views of a stack of gradients (B x n) that `grad` writes:
        for a level of size 2 its block and the b column, for a larger one
        the W part and the kappa part of its block."""
        g = grad[:, self.slice]
        return (g, g[:, 1]) if self.size == 2 else (g[:, :self.size], g[:, self.size:])

    def grad(self, views, M):
        """The level's block of each row of a stack of gradients at the
        thetas `matrix` last read, written into ``views`` (`grad_views`),
        from its M with d(-log p) = -tr(M dB)/2: -M W in W, of which L takes
        a = L[1, 0] and, times L[1, 1], b; -diag(M) kappa/2 in log kappa."""
        work, W = self._last
        np.matmul(M, W, out=work.MW)
        first, second = views
        np.negative(work.MW_part, out=first)  # -m10, -m11 for a level of size 2
        if self.size == 2:
            second *= work.L11
        else:
            np.multiply(M.diagonal(0, 1, 2)[:, 1:], -0.5, out=second)
            second *= work.kappa_tail


class _LevelWork:
    """A level's work arrays cut to a stack of rows, as the views that
    `unpack`, `matrix` and `grad` write and read: for a level of size 2, W
    = L, each row written whole from a list, with L[1, 1]; for a larger
    one kappa, kappa_0 = 1 preset and the rest exp's output; B; M W and
    the part of it that is the gradient's."""

    def __init__(self, W_or_kappa, B, MW):
        self.B, self.MW = B, MW
        if B.shape[1] == 2:
            self.W = W_or_kappa
            self.W_flat, self.L11 = self.W.reshape(-1), self.W[:, 1, 1]
            self.MW_part = MW[:, 1]
        else:
            self.kappa = W_or_kappa
            self.kappa_tail = self.kappa[:, 1:]
            self.MW_part = MW[:, :, 0]


class _SolveWork:
    """A stack's training solve as `_solve` runs it, made once: the point
    Grams K (B x P x P), their coordinate basis (lam, Q) and noise
    variances (B,) it reads, the buffers it writes, and every view of
    them it takes. The buffers are the blocks (B x 2 x P x P, C-ordered),
    formed from K, lam and the noise, factored in place and read
    transposed, with their diagonals; and the rotated targets Y and the
    alphas (B x 2 x P), each also as B rows of 2P. Per row: its blocks,
    its point Gram, lam and noise, which the nugget ladder forms them from,
    and its two factors and two alphas, the arguments of LAPACK."""

    def __init__(self, K, basis, noise_var, blocks=None, Y=None, alphas=None):
        n_rows, n = len(K), K.shape[-1]
        lam, Q = basis
        noise_var = np.asarray(noise_var)
        self.blocks = np.empty((n_rows, 2, n, n)) if blocks is None else blocks
        self.products = lam[..., None, None], K[..., None, :, :]
        self.blocks_diagonal = self.blocks.reshape(n_rows, 2, -1)[..., ::n + 1]
        self.noise = noise_var[..., None, None]
        self.factors = self.blocks.transpose(0, 1, 3, 2)
        self.diagonals = self.factors.diagonal(axis1=2, axis2=3)
        self.logs = np.empty((n_rows, 2, n))  # of the diagonals
        self.QT = Q.transpose(0, 2, 1)
        self.Y = np.empty((n_rows, 2, n)) if Y is None else Y
        self.alphas = np.empty_like(self.Y) if alphas is None else alphas
        self.Y_flat, self.alphas_flat = (a.reshape(n_rows, -1) for a in (self.Y, self.alphas))
        self.rows = [(self.blocks[b], (K[b], lam[b], noise_var[b, ...]),
                      tuple(self.factors[b]), tuple(self.alphas[b])) for b in range(n_rows)]


class _StackWork:
    """An objective's work arrays cut to a stack of ``n_rows`` rows, as the
    views its likelihood reads and writes, made the first time a stack of
    that size is evaluated and kept until the work arrays grow (`_grow`):
    the three slots of `warped_correlation`; the rows' distances and
    targets; the per-row scalars rho, eta and -eta/2 and the coordinate
    basis (lam, Q), written from lists; the gradients with each level's
    views of them; the point Gram K and A, each also flat and by its
    diagonal; the buffers of `_solve`, their block 0 holding K^-1; and M~
    with the products it is formed from."""

    def __init__(self, obj, n_rows: int):
        n = obj.n_points
        self.corr = tuple(obj._corr[:, :n_rows])
        self.warps = obj._warps[:n_rows]
        self.warps_flat = self.warps.reshape(-1, n)
        self.ys_flat = obj._ys[:n_rows].reshape(-1, 2)
        self.targets = obj._ys[:n_rows].transpose(0, 2, 1)  # a row per coordinate
        scalars = obj._scalars[:n_rows]
        self.scalars_flat = scalars.reshape(-1)
        self.rho, self.etas, self.half_etas = scalars[:, :1, None], scalars[:, 1], scalars[:, 2]
        self.grad = obj._grad[:n_rows]
        self.level_grads = [level.grad_views(self.grad) for level in obj.levels]
        basis = obj._basis_values[:n_rows]
        self.basis_flat = basis.reshape(-1)
        self.basis = lam, self.Q = basis[:, :2], basis[:, 2:].reshape(n_rows, 2, 2)
        self.lam_blocks, self.lam_columns = lam[:, :, None, None], lam[:, None, :]
        self.QT = self.Q.transpose(0, 2, 1)
        self.K = obj._K[:n_rows]
        self.K_flat = self.K.reshape(n_rows, 1, -1)
        self.K_diagonal = self.K.diagonal(axis1=1, axis2=2)[:, None]
        self.A = obj._A[:n_rows]
        self.A_flat = self.A.reshape(n_rows, -1)
        self.A_diagonal = self.A_flat[:, ::n + 1]
        Y, alphas, alphas_K = obj._vectors[:, :n_rows]
        self.solve = solve = _SolveWork(self.K, self.basis, self.etas,
                                        obj._solve_work[:n_rows], Y, alphas)
        self.blocks_flat = solve.blocks.reshape(n_rows, 2, -1)
        # K^-1 = sum_e lam_e K_e^-1 in block 0, C-ordered, and read transposed
        self.inverse, self.inverse_other = solve.blocks[:, 0], solve.blocks[:, 1]
        self.Kinv = solve.factors[:, 0]
        self.inverse_diagonal = self.inverse.diagonal(axis1=1, axis2=2)
        self.inverse_traces = obj._inverse_traces[:n_rows]
        self.alphas_T, self.alphas_K = alphas.transpose(0, 2, 1), alphas_K
        self.alphas_lam = obj._alphas_lam[:n_rows]
        self.Mt = obj._Mt[:n_rows]
        self.Mt_diagonal = self.Mt.reshape(n_rows, 4)[:, ::3]
        self.scales = obj._scales[:n_rows]
        self.scales_flat = self.scales.reshape(-1)


class MarginalLikelihoodObjective:
    """Negative log marginal likelihood, with sigma2 profiled out, and its
    analytic gradient in a packed parameter vector: log rho, log eta, then
    each coregionalization level's block (`_Level`). ``names`` names every
    coordinate. The period tau is held fixed at the mean polygon length of
    the design. K = sigma2 (R + eta I), with R the Gram at sigma2 = 1 and
    the jitter a fraction ``config.jitter`` of sigma2; sigma2 takes its
    closed-form estimate at every theta. The Gram is formed on the P points,
    the coordinate level applied through its eigenbasis.

    The likelihood takes stacks only, each row on the design of an objective
    of this one's ``layout`` (config, curve indices and groups); `value` is
    its one scalar entry."""

    def __init__(self, design: TrainingDesign, config: ModelConfig):
        self.design = design
        self.config = config
        self.tau = float(np.mean(design.lengths))
        s = design.s
        # tau is fixed, so the warped distances are computed once
        self.warp = warped_distance(config.family, s[:, None], s[None, :], self.tau)
        self.n_points = len(s)
        self.targets = design.y.T  # a row per coordinate
        rho_lo, rho_hi = (f * self.tau for f in RHO_FRAC_BOX)
        # eta's box is the noise box at sigma2 = var(y)
        yvar = float(np.var(design.y))
        if not yvar > 0.0:
            raise ValidationError("a fit needs targets that vary: var(y) is 0")
        self.eta_box = tuple(b / yvar for b in NOISE_BOX)
        self.bounds = [(np.log(rho_lo), np.log(rho_hi)), tuple(np.log(self.eta_box))]
        self.levels = []  # one curve or one group makes no level
        for name, size in (("coord", 2), ("curve", design.n_curves),
                           ("group", design.n_groups)):
            if size > 1:
                self.levels.append(_Level(name, size, len(self.bounds)))
                self.bounds += self.levels[-1].bounds
        self.names = ("rho", "eta", *(n for level in self.levels for n in level.names))
        self.n_params = len(self.bounds)
        self.layout = (config.family, config.jitter, tuple(design.j.tolist()),
                       tuple(design.curve_group.tolist()))
        # one-hot maps from points to curves (S) and from curves to groups (E)
        self.curve_onehot = np.eye(design.n_curves)[design.j]
        self.group_onehot = np.eye(design.n_groups)[design.curve_group]
        self._curve_onehot_T, self._group_onehot_T = self.curve_onehot.T, self.group_onehot.T
        self._own_rows = (self.warp[None], self.targets)  # every row on this design
        self._capacity = 0  # the rows the work arrays hold, made at the first call
        self._work = {}  # stack size -> `_StackWork`
        self._rows = None  # the objectives of the rows the work arrays hold, in order

    def _grow(self, rows: int):
        """Work arrays for a stack of ``rows`` thetas, overwritten by every
        call: at small P a new array costs more than the arithmetic on it.
        The three slots of `warped_correlation` (K0 and dR/dlog rho are two
        of them), the point Gram and A, the buffer in which `_solve` forms
        and factors the blocks (which `_potri` then overwrites), the rows'
        distances and targets, per row rho, eta, -eta/2 and the six floats of
        the coordinate basis, the gradients, Y, the alphas, alpha K and the
        alphas times lam, M~, tr(K_e^-1) and the scales 1/sqrt(s2). The views
        of every stack size are made again."""
        n, self._capacity = self.n_points, rows
        self._corr = np.empty((3, rows, n, n))
        self._K, self._A = np.empty((2, rows, n, n))
        self._solve_work = np.empty((rows, 2, n, n))
        self._warps = np.empty((rows, n, n))
        self._ys = np.empty((rows, n, 2))
        self._scalars = np.empty((rows, 3))
        self._grad = np.empty((rows, self.n_params))
        self._basis_values = np.empty((rows, 6))
        self._vectors = np.empty((3, rows, 2, n))
        self._alphas_lam = np.empty((rows, n, 2))
        self._Mt = np.empty((rows, 2, 2))
        self._inverse_traces = np.empty((rows, 2))
        self._scales = np.empty((rows, 1, 1))
        self._work = {}
        self._rows = None

    def _stack(self, theta) -> np.ndarray:
        """theta as a B x n_params stack of floats, B >= 1, or a ValidationError."""
        stack = np.asarray(theta, dtype=float)
        if stack.ndim != 2 or stack.shape[1] != self.n_params or not len(stack):
            raise ValidationError(f"a stack of thetas needs shape (B, {self.n_params}), "
                                  f"B >= 1: got {stack.shape}")
        return stack

    def _row(self, theta) -> np.ndarray:
        """One theta of n_params floats as the one-row stack [theta], or a ValidationError."""
        row = np.asarray(theta, dtype=float)
        if row.shape != (self.n_params,):
            raise ValidationError(f"one theta needs shape ({self.n_params},): got {row.shape}")
        return row[None]

    def _read_rows(self, rows, work: _StackWork):
        """(distances, targets) of the designs of ``rows``, one objective per
        row: this objective's own, broadcast, when every row is this
        objective, else each row's, copied into the work arrays. Rows that
        are the objectives of the last call's, in order, are neither checked
        nor copied again, as a design does not change once its objective is
        built; the objectives of ``rows`` are only read."""
        if len(rows) != len(work.rho) or rows != self._rows and any(
                row.layout != self.layout for row in rows):
            raise ValidationError("a stack of thetas needs one objective per row, all "
                                  "of one layout: one config, curve indices and groups")
        if rows != self._rows:
            self._rows = None
            if all(row is self for row in rows):
                self._read = self._own_rows
            else:  # np.stack's copies, each in one concatenate
                np.concatenate([row.warp for row in rows], out=work.warps_flat)
                np.concatenate([row.design.y for row in rows], out=work.ys_flat)
                self._read = work.warps, work.targets
            self._rows = list(rows)
        return self._read

    # -- packing -----------------------------------------------------------

    def default_start(self) -> np.ndarray:
        """rho a quarter of tau, eta in the middle of its box (in logs), and
        each level's default start."""
        theta = np.empty(self.n_params)
        theta[0] = np.log(self.tau / 4.0)
        theta[1] = 0.5 * sum(self.bounds[1])
        for level in self.levels:
            theta[level.slice] = level.start
        return theta

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        """rho and eta uniform in their boxes (in logs), then each level's
        random draw, in this order."""
        theta = np.empty(self.n_params)
        theta[0] = rng.uniform(*self.bounds[0])
        theta[1] = rng.uniform(*self.bounds[1])
        for level in self.levels:
            theta[level.slice] = level.draw(rng)
        return theta

    def kernel_at(self, theta, sigma2: float):
        """(kernel, noise variance) at theta with the scale sigma2: the
        jitter and the noise variance are its fractions config.jitter and
        eta."""
        row = self._row(theta)
        hyp = PeriodicHyperparameters(sigma2=sigma2, rho=math.exp(theta[0]),
                                      tau=self.tau, family=self.config.family,
                                      jitter=self.config.jitter * sigma2)
        kernel = MultiLevelKernel(hyp, **{level.name: level.coreg(row)
                                          for level in self.levels})
        return kernel, math.exp(theta[1]) * sigma2

    def unpack(self, theta):
        """(kernel, noise variance) at theta, with sigma2 at its estimate
        y^T (R + eta I)^-1 y / 2P from this objective's Gram, formed without
        its derivative, and solve of [theta]; a factorization or solve that
        fails raises its NumericalError."""
        K, _ = self.gram_and_grads(self._row(theta), with_grads=False)
        work, y = self._last
        _, _, _, quads, _, errors = _solve(K, work.basis, work.etas, y, work.solve)
        if errors[0] is not None:
            raise errors[0]
        return self.kernel_at(theta, quads[0] / (2 * self.n_points))

    # -- likelihood --------------------------------------------------------

    def gram_and_grads(self, theta, rows=None, with_grads=True):
        """For a B x n_params stack of thetas, row b on the design of
        ``rows[b]`` (`value_and_grad`), the B x P x P stacks (R, [dR/dlog rho,
        K0]): the point Grams at sigma2 = 1 without noise and the two dense
        matrices their gradients are contracted against, or (R, None)
        without ``with_grads``, which forms no derivative. K0 is the
        jittered input correlation of the warped distances cached at
        construction; the curve and group factors and their product F come
        from `curve_factor`, F gathered by the points' curves, and are kept
        for `value_and_grad` with the coordinate basis and the rows' views.
        All three stacks are work arrays, overwritten by the next call."""
        stack = self._stack(theta)
        n_rows = len(stack)
        if n_rows > self._capacity:
            self._grow(n_rows)
        work = self._work.get(n_rows)
        if work is None:
            work = self._work[n_rows] = _StackWork(self, n_rows)
        warp, y = self._own_rows if rows is None else self._read_rows(rows, work)
        scalars = []  # per row rho, eta and -eta / 2
        for log_rho, log_eta in stack[:, :2].tolist():
            eta = math.exp(log_eta)
            scalars += (math.exp(log_rho), eta, -0.5 * eta)
        work.scalars_flat[:] = scalars
        corr = warped_correlation(self.config.family, warp, work.rho, with_grads, work.corr)
        corr, dcorr = corr if with_grads else (corr, None)
        K0 = np.add(corr, self.config.jitter, out=corr)
        # levels 1 and 2, the curve and group levels, when the design has them
        levels = self.levels
        curve = levels[1].matrix(stack) if len(levels) > 1 else None
        group = levels[2].matrix(stack) if len(levels) > 2 else None
        K = work.K
        if curve is None:  # F is 1
            np.copyto(K, K0)
        else:
            self._factors, F = curve_factor(curve, group, self.design.curve_group)
            # columns first, so the large gather copies whole rows; the
            # curves always index F, and "clip" spares the copy of out that
            # "raise" makes
            j = self.design.j
            F.take(j, axis=2).take(j, axis=1, out=K, mode="clip")
            if with_grads:
                dcorr *= K
            np.multiply(K, K0, out=K)
        work.basis_flat[:] = _coord_values(self.levels[0].matrix(stack))
        self._basis, self._last = work.basis, (work, y)
        return K, [dcorr, K0] if with_grads else None

    def value_and_grad(self, theta, rows=None):
        """-log p(y) at sigma2's estimate and its gradient, contracted by
        level (R&W 2006, 5.4.1; the module docstring), at each row of a B x
        n_params stack of thetas, row b on the design of ``rows[b]``: one
        objective per row, each of this one's layout (this one without
        ``rows``). Returns stacks only, (values, gradients, nuggets, errors):
        per row its value, a row of the B x n gradients, the nugget its
        factorization needed and None, or, for a row that cannot be
        factored, None, NaN, None and its NumericalError. The call writes
        only to this objective's work arrays; the returned nuggets are the
        record of the ladder, and the objectives of ``rows`` are only read."""
        K, (dR, K0) = self.gram_and_grads(theta, rows)
        work, y = self._last
        n_rows, size = len(K), 2 * self.n_points
        factors, nuggets, alphas, quads, half_logdets, errors = _solve(
            K, work.basis, work.etas, y, work.solve)
        values, scales = [None] * n_rows, [1.0] * n_rows
        for b, (_, _, (L0, L1), _) in enumerate(work.solve.rows):
            if errors[b] is None:  # each factor becomes K_e^-1, the second if the first does
                info = _potri(L0) or _potri(L1)
                if info != 0:
                    errors[b] = NumericalError(
                        f"inverse from the Cholesky factor failed (info={info})")
                    factors[b] = np.eye(self.n_points)
            if errors[b] is not None:
                nuggets[b] = None
                continue
            sigma2 = quads[b] / size
            values[b] = 0.5 * size * (math.log(sigma2) + 1.0 + LOG2PI) + half_logdets[b]
            scales[b] = 1.0 / math.sqrt(sigma2)
        work.scales_flat[:] = scales
        alphas *= work.scales  # A = alphas alphas^T - (R + eta I)^-1
        Mt = np.matmul(np.matmul(alphas, K, out=work.alphas_K), work.alphas_T, out=work.Mt)
        # <K_e^-1, K> from the lower triangle `_potri` fills, read C-ordered
        solve = work.solve
        inner = _dots(work.blocks_flat, work.K_flat)
        inner *= 2.0
        inner -= _dots(solve.diagonals, work.K_diagonal)
        work.Mt_diagonal -= inner
        inverse_trace, other_trace = np.add.reduce(solve.diagonals, axis=2,
                                                   out=work.inverse_traces).T
        traces = _dots(solve.alphas_flat, solve.alphas_flat)  # sum_e tr(A_e)
        traces -= inverse_trace
        traces -= other_trace
        # sum_e lam_e K_e^-1, in the C-ordered blocks that hold it transposed
        blocks = solve.blocks
        blocks *= work.lam_blocks
        inverse = work.inverse
        inverse += work.inverse_other
        # A = sum_e lam_e (alpha_e alpha_e^T - K_e^-1) over the points
        A = np.matmul(np.multiply(work.alphas_T, work.lam_columns, out=work.alphas_lam),
                      alphas, out=work.A)
        A -= work.Kinv
        A -= inverse  # `_potri` fills the lower triangle; the upper is zero
        work.A_diagonal += work.inverse_diagonal  # taken twice above
        grad, level_grads = work.grad, work.level_grads
        np.multiply(_dots(work.A_flat, dR.reshape(n_rows, -1)), -0.5, out=grad[:, 0])
        np.multiply(work.half_etas, traces, out=grad[:, 1])
        levels = self.levels
        levels[0].grad(level_grads[0], work.Q @ Mt @ work.QT)
        if len(levels) > 1:
            # Gt sums A o K0 over each block of curves; the curve level's M
            # is Gt o G[cg, cg], and the group level's sums Gt o C over
            # blocks of groups
            Gt = self._curve_onehot_T @ np.multiply(A, K0, out=A) @ self.curve_onehot
            if len(levels) == 2:
                levels[1].grad(level_grads[1], Gt)
            else:
                C, G = self._factors
                levels[1].grad(level_grads[1], Gt * G)
                E = self.group_onehot
                levels[2].grad(level_grads[2], self._group_onehot_T @ (Gt * C) @ E)
        grad = grad.copy()  # the caller's
        for b, error in enumerate(errors):
            if error is not None:
                grad[b] = np.nan
        return values, grad, nuggets, errors

    def value(self, theta):
        """-log p(y) at one theta: row 0 of the stack [theta], raising its NumericalError."""
        values, _, _, errors = self.value_and_grad(self._row(theta))
        if errors[0] is not None:
            raise errors[0]
        return values[0]


def _solve(K: np.ndarray, basis: tuple, noise_var, y: np.ndarray, out=None):
    """Factor and solve the training covariance of each point Gram of a
    stack K (B x P x P) in its coordinate basis (lam, Q), a stack of each:
    its two blocks lam_e K + noise I, with the row's entry of the array
    ``noise_var``, factored with one nugget ladder per row, and the targets
    y (a row per coordinate, one set for every row or one per row) rotated
    by Q. Returns (factors, nuggets, alphas, quads, half_logdets, errors):
    the B x 2 x P x P factors and B x 2 x P alphas, alphas[b, e] = block
    e^-1 (Q^T y)[e], and per row the nugget, y^T C^-1 y, log|C| / 2 (C
    the covariance of all 2P values) and None, or, for a row whose
    factorization or solve fails, its NumericalError, the row's factors
    then I, so that arithmetic on the whole stack stays finite (a block
    entry that is not finite fails the stack: a ValidationError). The
    blocks are formed in the buffer that is factored, that of ``out`` (the
    stack's `_SolveWork`) when given, else a new one; a row that escalates
    forms its blocks again from K (`_chol_with_ladder`)."""
    work = _SolveWork(K, basis, noise_var) if out is None else out
    blocks = np.multiply(*work.products, out=work.blocks)
    work.blocks_diagonal += work.noise
    # a finite sum of squares shows every entry finite, in one dot product
    if not math.isfinite(np.vdot(blocks, blocks)) and not np.isfinite(blocks).all():
        raise ValidationError("the training covariance is not finite: the kernel's "
                              "sigma2 or level matrices are too large")
    Y = np.matmul(work.QT, y, out=work.Y)
    alphas = work.alphas
    np.copyto(alphas, Y)
    dpotrs = _linalg().lapack.dpotrs
    nuggets, errors = [None] * len(blocks), [None] * len(blocks)
    for b, (row_blocks, gram, (L0, L1), (alpha0, alpha1)) in enumerate(work.rows):
        try:
            nuggets[b] = _chol_with_ladder(row_blocks, *gram)[1]
            # lower, overwrite_b; the second block only if the first solves
            info = dpotrs(L0, alpha0, 1, 1)[1] or dpotrs(L1, alpha1, 1, 1)[1]
            if info != 0:
                raise NumericalError(f"solve with the Cholesky factor failed (info={info})")
        except NumericalError as exc:
            errors[b] = exc
            row_blocks[...] = np.eye(len(alpha0))
    quads = _dots(work.Y_flat, work.alphas_flat).tolist()
    logdets = np.add.reduce(np.log(work.diagonals, out=work.logs), axis=2).tolist()
    return work.factors, nuggets, alphas, quads, [a + b for a, b in logdets], errors


def assemble_model(design: TrainingDesign, kernel: MultiLevelKernel,
                   noise_variance: float) -> FittedModel:
    """Cache the training factorization for a kernel and a noise variance
    (finite and >= 0): the two blocks of the point Gram in the eigenbasis
    of the coordinate factor, alpha in point order, and log p(y). The
    model's diagnostics are {"nugget": the rung of `NUGGET_LADDER` the
    factorization needed}. A curve or group level needs one row per design
    curve or group; a ValidationError names the level and both counts."""
    _require(0 <= noise_variance < math.inf, "noise_variance", "finite and >= 0",
             noise_variance)
    for name, count in (("curve", design.n_curves), ("group", design.n_groups)):
        level = getattr(kernel, name)
        if level is not None and level.size != count:
            raise ValidationError(f"the kernel's {name} level has {level.size} rows, "
                                  f"but the design has {count} {name}s")
    with np.errstate(over="ignore"):  # `_solve` rejects what overflows
        K = multilevel_gram(kernel, design.s, j_a=design.j,
                            curve_group=design.curve_group)
        lam, Q = _coord_basis(kernel.coord.matrix)
    factors, nuggets, alphas, quads, half_logdets, errors = _solve(
        K[None], (lam[None], Q[None]), np.array([noise_variance]), design.y.T)
    if errors[0] is not None:
        raise errors[0]
    nll = 0.5 * quads[0] + half_logdets[0] + 0.5 * alphas.size * LOG2PI
    return FittedModel(kernel=kernel, noise_variance=noise_variance, design=design,
                       chol=factors[0], alpha=(Q @ alphas[0]).T.ravel(),
                       log_marginal_likelihood=-float(nll),
                       diagnostics={"nugget": nuggets[0]}, basis=(lam, Q))


# scipy's L-BFGS-B defaults: the number of corrections kept (maxcor), the
# relative reduction of the value in machine epsilons (ftol / eps), the
# projected gradient tolerance (gtol), the evaluation limit and the line
# search's step limit
LBFGS_MAXCOR, LBFGS_FACTR, LBFGS_PGTOL = 10, 1e7, 1e-5
LBFGS_MAXFUN, LBFGS_MAXLS = 15000, 20


# scipy's tables of `setulb`'s status (task[0]) and task (task[1]) messages,
# `scipy.optimize._lbfgsb_py.status_messages` and ``task_messages``, from
# which each run's ``message`` is spelled
LBFGS_STATUS_MESSAGES = dict(enumerate((
    "START", "NEW_X", "RESTART", "FG", "CONVERGENCE", "STOP", "WARNING", "ERROR",
    "ABNORMAL")))
LBFGS_TASK_MESSAGES = {
    0: "", 301: "", 302: "",
    401: "NORM OF PROJECTED GRADIENT <= PGTOL",
    402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    501: "CPU EXCEEDING THE TIME LIMIT",
    502: "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
    503: "PROJECTED GRADIENT IS SUFFICIENTLY SMALL",
    504: "TOTAL NO. OF ITERATIONS REACHED LIMIT",
    505: "CALLBACK REQUESTED HALT",
    601: "ROUNDING ERRORS PREVENT PROGRESS", 602: "STP = STPMAX", 603: "STP = STPMIN",
    604: "XTOL TEST SATISFIED",
    701: "NO FEASIBLE SOLUTION", 702: "FACTR < 0", 703: "FTOL < 0", 704: "GTOL < 0",
    705: "XTOL < 0", 706: "STP < STPMIN", 707: "STP > STPMAX", 708: "STPMIN < 0",
    709: "STPMAX < STPMIN", 710: "INITIAL G >= 0", 711: "M <= 0", 712: "N <= 0",
    713: "INVALID NBD"}


@cache
def _lbfgsb():
    """L-BFGS-B's reverse-communication routine `setulb`, from SciPy's
    compiled `optimize._lbfgsb` (`_scipy_module`), loaded on the first call
    so that only a process that fits pays for it; `scipy.optimize` itself
    is never imported."""
    return _scipy_module("optimize._lbfgsb").setulb


# The runs of a lockstep active at once are at most this number over P^2,
# and at least one: its work arrays, about ten P x P matrices per run, stay
# within ten times this number of floats (1.3 MB), and a design of more
# than 90 points runs its restarts one after another, in the memory one run
# needs. Results do not depend on it.
LOCKSTEP_ENTRIES = 1 << 14


class _Run:
    """One L-BFGS-B run and its record: `setulb`'s iterate ``x`` and work
    arrays, the last point evaluated with its value ``fun`` and gradient,
    the counts ``nit`` and ``nfev``, the largest nugget its evaluations
    needed, the error that ended it, if any, and, once it has stopped,
    scipy's ``success`` flag and ``message``. `minimize` returns it, and
    `fit_designs` writes each restart's record from it."""

    def __init__(self, x0, bounds):
        self.lo, self.hi = np.array(bounds, dtype=float).T.copy()  # contiguous rows
        self.x = np.array(x0, dtype=float)  # setulb's iterate, updated in place
        n, m = len(self.x), LBFGS_MAXCOR
        self.nbd = np.full(n, 2, dtype=np.int32)  # both bounds on every parameter
        self.wa, self.dsave = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(29)
        self.iwa, self.task, self.ln_task, self.lsave, self.isave = (
            np.zeros(k, dtype=np.int32) for k in (3 * n, 2, 2, 4, 44))
        self.fun, self.g = 0.0, np.zeros(n)
        self.point = None  # the last point evaluated, as a list
        self.nfev = self.nit = 0
        self.max_nugget = 0.0
        self.error = None  # the NumericalError that ended the run

    def advance(self, maxiter: int) -> bool:
        """Call `setulb` until it asks for a point not evaluated yet (True)
        or stops (False). A point equal to the last one evaluated reuses its
        value and gradient; an iteration count of ``maxiter`` or more than
        `LBFGS_MAXFUN` evaluations stops the run at the end of an
        iteration."""
        setulb = _lbfgsb()
        task = self.task
        while True:
            setulb(LBFGS_MAXCOR, self.x, self.lo, self.hi, self.nbd, self.fun, self.g,
                   LBFGS_FACTR, LBFGS_PGTOL, self.wa, self.iwa, task, self.lsave,
                   self.isave, self.dsave, LBFGS_MAXLS, self.ln_task)
            if task[0] == 3:  # FG: the value and gradient at x
                if (key := self.x.tolist()) != self.point:  # equal as floats, as scipy
                    self.point = key
                    return True
            elif task[0] == 1:  # NEW_X: an iteration ended
                self.nit += 1
                if self.nit >= maxiter:
                    task[:] = 5, 504
                elif self.nfev > LBFGS_MAXFUN:
                    task[:] = 5, 502
            else:
                return False

    @property
    def success(self) -> bool:
        return bool(self.task[0] == 4)  # CONVERGENCE

    @property
    def message(self) -> str:
        status, task = self.task
        return f"{LBFGS_STATUS_MESSAGES[status]}: {LBFGS_TASK_MESSAGES[task]}"


def _lockstep(evaluate, starts, maxiter: int, width: int) -> list:
    """Run L-BFGS-B from every (x0, bounds) of ``starts`` side by side, each
    as `minimize` runs it alone. Every round collects the runs that ask for
    a new point and hands their points, stacked as the rows of one array,
    and their indices in ``starts`` to ``evaluate``, which returns (values,
    gradients, nuggets, errors) as `value_and_grad` does; a run whose row
    has an error ends with it. At most ``width`` runs are active at once,
    started in order as others end. Returns the `_Run` of every start."""
    runs = [_Run(x0, bounds) for x0, bounds in starts]
    waiting = iter(range(len(runs)))
    asking = []
    while True:
        stepping, asking = asking, []
        for k in stepping:
            if runs[k].advance(maxiter):
                asking.append(k)
        while len(asking) < width and (k := next(waiting, None)) is not None:
            if runs[k].advance(maxiter):
                asking.append(k)
        if not asking:
            return runs
        values, grads, nuggets, errors = evaluate(
            np.array([runs[k].x for k in asking]), asking)
        for k, value, grad, nugget, error in zip(asking, values, grads, nuggets, errors):
            run = runs[k]
            if error is None:
                run.fun, run.g = value, grad
                run.nfev += 1
                run.max_nugget = max(run.max_nugget, nugget)
            else:
                run.error = error
        if errors.count(None) < len(asking):  # the runs that met an error end
            asking = [k for k in asking if runs[k].error is None]


def minimize(fun, x0, bounds, maxiter: int) -> _Run:
    """Minimize ``fun`` (theta -> (value, gradient)) by L-BFGS-B in a box of
    finite (lower, upper) bounds, one per parameter, as scipy's
    `minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
    options={"maxiter": maxiter})` does, evaluation for evaluation
    (`_Run.advance`), `setulb` projecting x0 into the box as scipy clips it.
    This is the lockstep of one run (`_lockstep`); it returns that run, whose
    ``x``, ``fun``, ``nit``, ``nfev``, ``success`` and ``message`` are
    those of scipy's result."""
    def evaluate(points, _):
        value, grad = fun(points[0])
        return [value], [grad], [0.0], [None]

    return _lockstep(evaluate, [(x0, bounds)], maxiter, 1)[0]


def fit(design: TrainingDesign, model_config: ModelConfig | None = None,
        opt_config: OptimizerConfig | None = None) -> FittedModel:
    """Maximize the log marginal likelihood, sigma2 profiled out, by
    multi-start L-BFGS-B with the analytic gradient, in the box of each
    hyperparameter; the returned kernel holds sigma2's estimate at the best
    restart (`MarginalLikelihoodObjective.unpack`). The restarts run in
    lockstep (`fit_designs`), each with the path it takes alone.

    Deterministic for a fixed seed. The diagnostics hold the nugget of the
    final factorization (``nugget``, from `assemble_model`), the restart
    number of the best restart (``best_restart``) and, in restart order,
    one record per restart that ran to its end (``restarts``). A record is
    written from its run: restart number, ``score`` (minus the run's last
    value), iterations, evaluations, the optimizer's success flag and
    message, and the largest nugget its evaluations needed. The best
    restart is the first of the highest score. A restart that meets a point
    it cannot factor, its start included, is skipped with a warning; when
    every restart is, a NumericalError says so.
    """
    model = fit_designs([design], model_config, opt_config)[0]
    if isinstance(model, NumericalError):
        raise model
    return model


def fit_designs(designs, model_config: ModelConfig | None = None,
                opt_config: OptimizerConfig | None = None) -> list:
    """`fit` of every design of a list, all their restarts in one lockstep
    (`_lockstep`): each round evaluates every restart that asks for a point
    in one stacked `value_and_grad`. The designs need one layout: the same
    curve indices and groups. Each design's fit equals its `fit` alone, bit
    for bit; a skipped restart's warning names its design (its index). A
    design keeps the runs (`_Run`) of its restarts that ran to their end,
    and its records and best theta both come from those runs. Returns per
    design its FittedModel, or the NumericalError its fit met: when every
    restart is skipped, or when the best theta cannot be factored again."""
    if not designs:
        raise ValidationError("need at least one design")
    model_config = model_config or ModelConfig()
    opt_config = opt_config or OptimizerConfig()
    objs = [MarginalLikelihoodObjective(design, model_config) for design in designs]
    lead = objs[0]
    if any(obj.layout != lead.layout for obj in objs):
        raise ValidationError("designs fitted together need one layout: the same "
                              "curve indices and groups")
    starts = []  # (objective, start), restart by restart, design by design
    for obj in objs:
        rng = np.random.default_rng(opt_config.seed)
        starts += [(obj, obj.default_start() if i == 0 else obj.random_start(rng))
                   for i in range(opt_config.restarts)]
    rows = [obj for obj, _ in starts]
    runs = _lockstep(
        lambda points, active: lead.value_and_grad(points, [rows[k] for k in active]),
        [(theta0, obj.bounds) for obj, theta0 in starts], opt_config.maxiter,
        max(1, LOCKSTEP_ENTRIES // lead.n_points ** 2))
    models = []
    for d, obj in enumerate(objs):
        kept = []  # (restart number, run) of each restart that ran to its end
        for i, run in enumerate(runs[d * opt_config.restarts:(d + 1) * opt_config.restarts]):
            if run.error is None:
                kept.append((i, run))
            else:
                where = f"design {d}, " if len(objs) > 1 else ""
                warnings.warn(f"{where}restart {i}: factorization failed, skipped")
        if not kept:
            models.append(NumericalError("all restarts failed to factorize"))
            continue
        records = [{"restart": i, "score": -float(run.fun), "nit": run.nit,
                    "nfev": run.nfev, "success": run.success, "message": run.message,
                    "max_nugget": run.max_nugget} for i, run in kept]
        best_restart, best = kept[int(np.argmax([r["score"] for r in records]))]
        try:
            model = assemble_model(obj.design, *obj.unpack(best.x))
        except NumericalError as exc:
            model = exc
        else:
            model.diagnostics.update(best_restart=best_restart, restarts=records)
        models.append(model)
    return models


def _unit_means(model: FittedModel, s, j):
    """(means, cross): the posterior means of both coordinates at query
    points (s, j), points x 2, and the points' cross Gram formed
    training-major, P x m with a row per training point, the means taken
    from it."""
    dz = model.design
    cross = multilevel_gram(model.kernel, dz.s, j_a=dz.j, s_b=s, j_b=j,
                            curve_group=dz.curve_group)
    means = cross.T @ model.alpha.reshape(len(dz.s), 2) @ model.kernel.coord.matrix
    return means, cross


def _whitened(model: FittedModel, cross):
    """V_e = L_e^-1 k_e on the query points, block by block, from the
    training-major cross Gram (P x m, C-ordered): each block is solved in
    place from the right, V_e^T = cross^T L_e^-T (`_trsm` on the Fortran
    view cross^T: one dtrsm up to `TRIANGULAR_LEAF` rows, recursive halves
    coupled by dgemm above), block 0 in a copy of ``cross`` and the last
    block in ``cross`` itself, which it overwrites. So the caller uses each
    block's V before it asks for the next block."""
    last = len(model.chol) - 1
    for e, L in enumerate(model.chol):
        V = cross if e == last else cross.copy()
        _trsm(L, V.T)  # in place on V's buffer
        yield V


def predict(model: FittedModel, s, d, j=None):
    """Predictive mean and full covariance at query rows (s*, d, j) in
    coordinate pairs: rows 2u and 2u + 1 are coordinates 0 and 1 of point
    u, with one s and curve (anything else is a ValidationError); without
    ``j`` every row is on curve 0. A point's group is its curve's group in
    the design. The covariance's 2 x 2 block of points u, u' is sum_e q_e
    q_e^T M_e[u, u'], q_e column e of Q and M_e = lam_e K_u - lam_e^2 V_e^T
    V_e on the query points, written into the output one block at a time."""
    s, j = _query_points(model, s, d, j)
    n = len(s)
    K = multilevel_gram(model.kernel, s, j_a=j, curve_group=model.design.curve_group)
    means, cross = _unit_means(model, s, j)
    lam, Q = model.basis
    cov = np.empty((2 * n,) * 2)
    pairs = cov.reshape(n, 2, n, 2)  # [u, a, u', b]: coordinate a of u, b of u'
    M = None
    for e, V in enumerate(_whitened(model, cross)):
        M = np.matmul(V.T, V, out=M)  # in the buffer of the block before
        M *= -lam[e]
        M += K
        M *= lam[e]
        for a, b in np.ndindex(2, 2):
            out, c = pairs[:, a, :, b], Q[a, e] * Q[b, e]
            if e == 0:
                np.multiply(M, c, out=out)
            else:  # e = 1, the last block: K is spent and takes the product
                out += np.multiply(M, c, out=K)
    return means.ravel(), cov


def _query_points(model: FittedModel, s, d, j):
    """The query points (s, j) of ``predict``'s rows. Non-finite arc
    parameters and curves that are not the design's (`level_indices`) are
    rejected, and so are rows that are not coordinate pairs, d = 0 then 1."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.isfinite(s).all():
        raise ValidationError("query arc parameters must be finite")
    d = np.atleast_1d(np.asarray(d, dtype=float))
    j = (np.zeros(len(d), dtype=int) if j is None
         else level_indices("j", j, model.design.n_curves, kind="curve"))
    n = len(d)
    if (n % 2 or any(a.shape != (n,) for a in (s, d, j))
            or d[0::2].any() or (d[1::2] != 1).any()
            or any((a[0::2] != a[1::2]).any() for a in (s, j))):
        raise ValidationError("query rows must be coordinate pairs: rows 2u, 2u + 1 "
                              "are d = 0, 1 of one point, with one s and curve")
    return s[0::2], j[0::2]


def predict_curve(model: FittedModel, curve_index: int = 0, m: int = 100) -> PredictedCurve:
    """Dense predictive mean curve with per-point 2x2 covariance blocks.

    Only the diagonal blocks of `predict`'s covariance are formed: block i
    is sum_e q_e q_e^T (lam_e k0 - lam_e^2 |V_e[:, i]|^2), with k0 the
    point prior, the same at every grid point of a stationary kernel, and
    V_e = L_e^-1 k_e whitened once per grid point.
    """
    m = whole_number("m", m, 3)
    curve_index = level_indices("curve_index", curve_index, model.design.n_curves,
                                kind="curve").item()
    length = float(model.design.lengths[curve_index])
    grid = np.arange(m) * length / m
    j = np.full(m, curve_index, dtype=int)
    means, cross = _unit_means(model, grid, j)
    k0 = multilevel_gram(model.kernel, grid[:1], j_a=j[:1],
                         curve_group=model.design.curve_group)[0, 0]
    lam, Q = model.basis
    covs = np.zeros((m, 2, 2))
    for e, V in enumerate(_whitened(model, cross)):  # a column per grid point
        M = lam[e] * (k0 - lam[e] * np.einsum("km,km->m", V, V))  # diag of M_e
        covs += M[:, None, None] * np.outer(Q[:, e], Q[:, e])
    return PredictedCurve(grid=grid, means=means, covariances=covs)
