"""Exact GP regression for closed curves: design assembly, marginal
likelihood with analytic gradients, constrained multi-start fitting, and
prediction with full per-point covariance.

The gradient of -log p(y) is -tr(A dK)/2 with A = alpha alpha^T - K^-1
(Rasmussen & Williams 2006, 5.4.1), and it is contracted by level rather
than formed per parameter. K is the jittered input Gram K0 times one factor
per coregionalization level, B = W W^T + diag(kappa) indexed by the rows'
level values. The rows fall into T <= 2 x curves types (tuples of level
values), so each factor is the T x T matrix E B E^T, with E the one-hot map
from types to level values. A o K0 is summed over each block of types once,
G = S^T (A o K0) S (S: rows to types); a level's M = E^T (G o the other
factors) E, and its W and log kappa gradients are -M W and -diag(M) kappa/2.
log sigma2 and log rho take one inner product of A with a dense matrix
each, and log noise takes -noise tr(A) / 2. alpha and K^-1 come from the
Cholesky factor (LAPACK dpotrs, dpotri). One routine factors K and
evaluates -log p for the objective, `log_marginal_likelihood` and
`assemble_model`. Outside the objective, Grams come from `multilevel_gram`,
which evaluates the input kernel once per distinct arc parameter and the
level factors once per distinct level tuple, then gathers both to the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize

from .coreg import CoregMatrix, MultiLevelKernel, multilevel_gram
from .errors import NumericalError, ValidationError
from .kernels import (DEFAULT_JITTER, DEFAULT_NOISE_BOX, NoiseSpec,
                      PeriodicHyperparameters, validate_constraints,
                      warped_correlation, warped_distance)

NUGGET_LADDER = (0.0, 1e-8, 1e-6, 1e-4)

LOG2PI = np.log(2.0 * np.pi)


@dataclass
class TrainingDesign:
    """Flattened training rows: two scalar observations per sample point."""

    s: np.ndarray
    d: np.ndarray
    j: np.ndarray
    g: np.ndarray
    y: np.ndarray
    lengths: np.ndarray
    group_labels: tuple = ((),)

    @property
    def n_rows(self) -> int:
        return len(self.y)

    @property
    def n_curves(self) -> int:
        return int(self.j.max()) + 1

    @property
    def n_groups(self) -> int:
        return int(self.g.max()) + 1

    def group_of_curve(self, curve_index: int) -> int:
        return int(self.g[self.j == curve_index][0])

    @classmethod
    def from_curves(cls, curve_list, labels=None) -> "TrainingDesign":
        """Assemble a design from curves (arc parameters from their polygons).

        ``labels`` are optional per-curve group labels; they are encoded as
        contiguous integers in order of first appearance, so any injective
        relabeling yields an identical design.
        """
        if not curve_list:
            raise ValidationError("need at least one curve")
        if labels is None:
            labels = [0] * len(curve_list)
        if len(labels) != len(curve_list):
            raise ValidationError("one group label per curve required")
        encoding: dict = {}
        rows_s, rows_d, rows_j, rows_g, rows_y = [], [], [], [], []
        lengths = []
        for j, (curve, label) in enumerate(zip(curve_list, labels)):
            g = encoding.setdefault(label, len(encoding))
            arcs = curve.cumulative_arc()
            lengths.append(arcs[-1])
            for i in range(curve.n):
                for d in (0, 1):
                    rows_s.append(arcs[i])
                    rows_d.append(d)
                    rows_j.append(j)
                    rows_g.append(g)
                    rows_y.append(curve.points[i, d])
        return cls(s=np.array(rows_s), d=np.array(rows_d, dtype=int),
                   j=np.array(rows_j, dtype=int), g=np.array(rows_g, dtype=int),
                   y=np.array(rows_y), lengths=np.array(lengths),
                   group_labels=tuple(encoding))


@dataclass
class ModelConfig:
    """Structural choices for the multi-level kernel."""

    family: str = "periodic_matern32"
    tau: object = "auto"  # "auto" fixes tau to the mean polygon length
    jitter: float = DEFAULT_JITTER
    jitter_mode: str = "constant"
    fit_coord: bool = True
    coord_rank: int = 1
    fit_curve: bool = True
    curve_rank: int = 1
    fit_group: bool = False
    group_rank: int = 1
    noise_box: tuple = DEFAULT_NOISE_BOX
    sigma2_box: tuple = (1e-8, 10.0)
    rho_frac_box: tuple = (1e-3, 0.5)  # as a fraction of tau
    w_bound: float = 10.0
    kappa_box: tuple = (1e-8, 10.0)


@dataclass
class OptimizerConfig:
    restarts: int = 8
    seed: int = 0
    method: str = "lbfgs"  # or "anneal"
    maxiter: int = 200


@dataclass
class FittedModel:
    """Kernel with estimated hyperparameters plus cached training solve."""

    kernel: MultiLevelKernel
    noise: NoiseSpec
    design: TrainingDesign
    chol: np.ndarray
    alpha: np.ndarray
    log_marginal_likelihood: float
    diagnostics: dict = field(default_factory=dict)

    def predict(self, s, d, j=None, g=None):
        return predict(self, s, d, j, g)

    def predict_curve(self, curve_index: int = 0, m: int = 100):
        return predict_curve(self, curve_index, m)


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

    @property
    def cross(self) -> np.ndarray:
        return self.covariances[:, 0, 1]


def _chol_with_ladder(K: np.ndarray):
    """Cholesky with escalating diagonal nugget; returns (L, nugget used).
    A K with non-finite entries raises ValueError."""
    K = np.asarray_chkfinite(K)
    for nugget in NUGGET_LADDER:
        M = K if nugget == 0.0 else K + nugget * np.eye(len(K))
        L, info = dpotrf(M, lower=1, clean=1)
        if info == 0:
            return L, nugget
    raise NumericalError(
        f"covariance factorization failed after nugget ladder {NUGGET_LADDER}")


class MarginalLikelihoodObjective:
    """Negative log marginal likelihood and its analytic gradient in a packed
    parameter vector (log sigma2, log rho, log noise, then W / log kappa per
    free coregionalization level). The period tau is held fixed."""

    def __init__(self, design: TrainingDesign, config: ModelConfig):
        self.design = design
        self.config = config
        self.tau = (float(np.mean(design.lengths)) if config.tau == "auto"
                    else float(config.tau))
        # tau is fixed, so the warped distances are computed once
        self.warp = warped_distance(config.family,
                                    np.abs(design.s[:, None] - design.s[None, :]),
                                    self.tau)
        self.diag = np.diag_indices(design.n_rows)
        self.constant_jitter = config.jitter_mode == "constant"
        # level bookkeeping: (name, index array, size, rank, free)
        self.levels = [("coord", design.d, 2, config.coord_rank, config.fit_coord)]
        if design.n_curves > 1:
            self.levels.append(("curve", design.j, design.n_curves,
                                config.curve_rank, config.fit_curve))
        if design.n_groups > 1:
            self.levels.append(("group", design.g, design.n_groups,
                                config.group_rank, config.fit_group))
        lo, hi = config.noise_box
        rho_lo, rho_hi = (f * self.tau for f in config.rho_frac_box)
        self.bounds = [tuple(np.log(config.sigma2_box)),
                       (np.log(rho_lo), np.log(rho_hi)),
                       (np.log(lo), np.log(hi))]
        self.slices = {}
        pos = 3
        for name, _, size, rank, free in self.levels:
            if not free:
                continue
            self.slices[name] = (slice(pos, pos + size * rank),
                                 slice(pos + size * rank, pos + size * rank + size))
            self.bounds += [(-config.w_bound, config.w_bound)] * (size * rank)
            self.bounds += [tuple(np.log(config.kappa_box))] * size
            pos += size * rank + size
        self.n_params = pos
        # rows grouped into T <= 2 x curves types, one per tuple of level
        # values; one-hot S maps rows to types, E per level types to values
        code = np.zeros(design.n_rows, dtype=int)
        for _, idx, size, *_ in self.levels:  # mixed-radix code of the tuple
            code = code * size + idx
        _, first, row_type = np.unique(code, return_index=True, return_inverse=True)
        self.type_onehot = (row_type[:, None] == np.arange(len(first))).astype(float)
        self.level_onehot = [(idx[first, None] == np.arange(size)).astype(float)
                             for _, idx, size, *_ in self.levels]
        self._factors = []
        self._buffers = {}

    # -- packing -----------------------------------------------------------

    def default_start(self) -> np.ndarray:
        theta = np.zeros(self.n_params)
        yvar = max(float(np.var(self.design.y)), 1e-6)
        theta[0] = np.log(np.clip(yvar, *self.config.sigma2_box))
        theta[1] = np.log(self.tau / 4.0)
        lo, hi = self.config.noise_box
        theta[2] = 0.5 * (np.log(lo) + np.log(hi))
        for name, _, size, rank, free in self.levels:
            if not free:
                continue
            w_sl, k_sl = self.slices[name]
            theta[w_sl] = 0.1
            theta[k_sl] = np.log(1.0)
        return np.clip(theta, [b[0] for b in self.bounds], [b[1] for b in self.bounds])

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        theta = self.default_start()
        lo0, hi0 = self.bounds[0]
        theta[0] = np.clip(theta[0] + rng.uniform(-2.0, 2.0), lo0, hi0)
        theta[1] = rng.uniform(*self.bounds[1])
        theta[2] = rng.uniform(*self.bounds[2])
        for name, _, size, rank, free in self.levels:
            if not free:
                continue
            w_sl, k_sl = self.slices[name]
            theta[w_sl] = rng.normal(scale=0.3, size=size * rank)
            theta[k_sl] = np.log(rng.uniform(0.1, 2.0, size=size))
        return theta

    def unpack(self, theta):
        hyp = PeriodicHyperparameters(sigma2=float(np.exp(theta[0])),
                                      rho=float(np.exp(theta[1])),
                                      tau=self.tau, family=self.config.family)
        noise = NoiseSpec(noise_variance=float(np.exp(theta[2])),
                          jitter=self.config.jitter,
                          jitter_mode=self.config.jitter_mode,
                          noise_box=self.config.noise_box)
        coregs = {name: CoregMatrix(*self._coreg(theta, name, size)) if free
                  else CoregMatrix.identity(size)
                  for name, _, size, _, free in self.levels}
        kernel = MultiLevelKernel(input_kernel=hyp, coord=coregs["coord"],
                                  curve=coregs.get("curve"),
                                  group=coregs.get("group"))
        return kernel, noise

    # -- likelihood --------------------------------------------------------

    def _coreg(self, theta, name, size):
        """(W, kappa) of a free level, unpacked from theta."""
        w_sl, k_sl = self.slices[name]
        return theta[w_sl].reshape(size, -1), np.exp(theta[k_sl])

    def _buffer(self, key):
        """An N x N work array kept across calls: a fresh array of this size
        costs more in page faults than the arithmetic done on it."""
        if key not in self._buffers:
            self._buffers[key] = np.empty((self.design.n_rows,) * 2)
        return self._buffers[key]

    def gram_and_grads(self, theta, with_grads: bool = True):
        """K and the three dense N x N matrices its gradient is contracted
        against: dK/dlog(sigma2), dK/dlog(rho) and the jittered input Gram
        K0, whatever the levels. Each level's factor E B E^T is formed on
        the T x T grid of row types and kept for `value_and_grad`; their
        product is spread to N x N once. K and K0 are work arrays of this
        objective, overwritten by its next call. Assembled here rather than
        by `multilevel_gram` to reuse the warped distances and work arrays."""
        sigma2, rho, noise_var = np.exp(theta[:3])
        family = self.config.family
        if with_grads:
            base, dcorr = warped_correlation(family, self.warp, rho, True)
        else:
            base = warped_correlation(family, self.warp, rho)
        base *= sigma2
        K0 = self._buffer("K0")
        if self.constant_jitter:
            np.add(base, self.config.jitter, out=K0)
        else:
            np.copyto(K0, base)
            K0[self.diag] += self.config.jitter
        self._factors = []
        for (name, _, size, _, free), E in zip(self.levels, self.level_onehot):
            if free:
                W, kappa = self._coreg(theta, name, size)
                B = W @ W.T + np.diag(kappa)
            else:
                B = np.eye(size)
            self._factors.append(E @ B @ E.T)  # B[level_t, level_u], exactly
        S = self.type_onehot
        Bfull = np.matmul(S @ reduce(np.multiply, self._factors), S.T,
                          out=self._buffer("K"))
        if with_grads:
            base *= Bfull
            dcorr *= sigma2
            dcorr *= Bfull
        K = np.multiply(Bfull, K0, out=Bfull)
        K[self.diag] += noise_var
        return K, ([base, dcorr, K0] if with_grads else None)

    def value_and_grad(self, theta):
        """-log p(y) and its gradient, contracted by level (R&W 2006, 5.4.1):
        with A = alpha alpha^T - K^-1, d(-log p) = -tr(A dK)/2."""
        K, grads = self.gram_and_grads(theta)
        L, _, alpha, nll = _factor_and_nll(K, self.design.y)
        Kinv, info = dpotri(L, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalError(f"inverse from the Cholesky factor failed (info={info})")
        A = np.multiply(alpha[:, None], alpha[None, :], out=self._buffer("A"))
        A -= Kinv
        A -= Kinv.T  # dpotri fills the lower triangle; the upper one is zero
        A[self.diag] = alpha * alpha - Kinv[self.diag]
        grad = np.empty(self.n_params)
        grad[0] = -0.5 * np.vdot(A, grads[0])
        grad[1] = -0.5 * np.vdot(A, grads[1])
        grad[2] = -0.5 * np.exp(theta[2]) * np.trace(A)
        # G sums A o K0 over each block of row types; a level's M sums
        # A o K0 o (the other levels' factors) over its blocks of values
        S = self.type_onehot
        G = S.T @ np.multiply(A, grads[2], out=A) @ S
        for i, (name, _, size, _, free) in enumerate(self.levels):
            if not free:
                continue
            E = self.level_onehot[i]
            others = [F for k, F in enumerate(self._factors) if k != i]
            M = E.T @ reduce(np.multiply, others, G) @ E
            W, kappa = self._coreg(theta, name, size)
            w_sl, k_sl = self.slices[name]
            grad[w_sl] = -(M @ W).ravel()
            grad[k_sl] = -0.5 * np.diag(M) * kappa
        return nll, grad

    def value(self, theta):
        K, _ = self.gram_and_grads(theta, with_grads=False)
        return _factor_and_nll(K, self.design.y)[3]


def make_objective(design: TrainingDesign, config: ModelConfig | None = None):
    return MarginalLikelihoodObjective(design, config or ModelConfig())


def _factor_and_nll(K: np.ndarray, y: np.ndarray):
    """Factor K (with the nugget ladder) and return (L, nugget, alpha,
    -log p(y)) for y ~ N(0, K)."""
    L, nugget = _chol_with_ladder(K)
    alpha, info = dpotrs(L, y, lower=1)
    if info != 0:
        raise NumericalError(f"solve with the Cholesky factor failed (info={info})")
    nll = (0.5 * float(y @ alpha) + float(np.sum(np.log(np.diag(L))))
           + 0.5 * len(y) * LOG2PI)
    return L, nugget, alpha, nll


def _design_gram(design: TrainingDesign, kernel: MultiLevelKernel,
                 noise: NoiseSpec) -> np.ndarray:
    K = multilevel_gram(kernel, noise, design.s, design.d, design.j, design.g)
    K[np.diag_indices_from(K)] += noise.noise_variance
    return K


def log_marginal_likelihood(design: TrainingDesign, kernel: MultiLevelKernel,
                            noise: NoiseSpec) -> float:
    """Log marginal likelihood of the design under fixed hyperparameters."""
    return -_factor_and_nll(_design_gram(design, kernel, noise), design.y)[3]


def assemble_model(design: TrainingDesign, kernel: MultiLevelKernel,
                   noise: NoiseSpec, diagnostics: dict | None = None) -> FittedModel:
    """Cache the training factorization for a kernel with fixed hyperparameters."""
    L, nugget, alpha, nll = _factor_and_nll(_design_gram(design, kernel, noise),
                                            design.y)
    diag = dict(diagnostics or {})
    diag.setdefault("nugget", nugget)
    return FittedModel(kernel=kernel, noise=noise, design=design, chol=L,
                       alpha=alpha, log_marginal_likelihood=-nll, diagnostics=diag)


def fit(design: TrainingDesign, model_config: ModelConfig | None = None,
        opt_config: OptimizerConfig | None = None) -> FittedModel:
    """Maximize the log marginal likelihood over box-constrained restarts.

    Deterministic for a fixed seed; the best restart is returned with all
    restart scores logged in the diagnostics.
    """
    import warnings
    model_config = model_config or ModelConfig()
    opt_config = opt_config or OptimizerConfig()
    obj = MarginalLikelihoodObjective(design, model_config)
    rng = np.random.default_rng(opt_config.seed)

    if opt_config.method == "anneal":
        from scipy.optimize import dual_annealing
        res = dual_annealing(obj.value, bounds=obj.bounds, seed=opt_config.seed,
                             maxiter=max(opt_config.maxiter, 100))
        scores, best_theta, best_index = [-float(res.fun)], res.x, 0
    elif opt_config.method == "lbfgs":
        scores, results = [], []
        for i in range(opt_config.restarts):
            theta0 = obj.default_start() if i == 0 else obj.random_start(rng)
            try:
                val0, _ = obj.value_and_grad(theta0)
            except NumericalError:
                val0 = np.inf
            if not np.isfinite(val0):
                warnings.warn(f"restart {i}: non-finite likelihood at start, skipped")
                continue
            try:
                res = minimize(obj.value_and_grad, theta0, jac=True,
                               method="L-BFGS-B", bounds=obj.bounds,
                               options={"maxiter": opt_config.maxiter})
            except NumericalError:
                warnings.warn(f"restart {i}: factorization failed, skipped")
                continue
            scores.append(-float(res.fun))
            results.append(res.x)
        if not results:
            raise NumericalError("all restarts failed to factorize or converge")
        best_index = int(np.argmax(scores))
        best_theta = results[best_index]
    else:
        raise ValidationError(f"unknown optimizer method {opt_config.method!r}")

    kernel, noise = obj.unpack(best_theta)
    report = validate_constraints(kernel.input_kernel, noise,
                                  float(np.mean(design.lengths)))
    diagnostics = {"restart_scores": scores, "best_restart": best_index,
                   "constraint_report": report.to_dict(),
                   "method": opt_config.method}
    return assemble_model(design, kernel, noise, diagnostics)


def _cross_and_whitened(model: FittedModel, s, d, j, g):
    """Query-by-training cross-covariance and L^-1 times its transpose."""
    dz = model.design
    cross = multilevel_gram(model.kernel, model.noise, s, d, j, g,
                            s_b=dz.s, d_b=dz.d, j_b=dz.j, g_b=dz.g)
    return cross, solve_triangular(model.chol, cross.T, lower=True)


def predict(model: FittedModel, s, d, j=None, g=None):
    """Predictive mean and full covariance at query rows (s*, d, j, g).

    Without ``g`` each row takes the group of its curve in the design."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=int))
    j = np.zeros_like(d) if j is None else np.atleast_1d(np.asarray(j, dtype=int))
    if g is None:
        dz = model.design
        if np.any((j < 0) | (j >= dz.n_curves)):
            raise ValidationError(f"curve index out of range for {dz.n_curves} curves")
        g = np.array([dz.group_of_curve(c) for c in range(dz.n_curves)])[j]
    g = np.atleast_1d(np.asarray(g, dtype=int))
    cross, v = _cross_and_whitened(model, s, d, j, g)
    K_qq = multilevel_gram(model.kernel, model.noise, s, d, j, g)
    return cross @ model.alpha, K_qq - v.T @ v


def predict_curve(model: FittedModel, curve_index: int = 0, m: int = 100) -> PredictedCurve:
    """Dense predictive mean curve with per-point 2x2 covariance blocks.

    Only the diagonal blocks of the posterior covariance are formed; the
    kernel is stationary, so every grid point shares one 2x2 prior block.
    """
    if m < 3:
        raise ValidationError("prediction grid needs m >= 3")
    n_curves = model.design.n_curves
    if not 0 <= curve_index < n_curves:
        raise ValidationError(
            f"curve index {curve_index} out of range for {n_curves} curves")
    length = float(model.design.lengths[curve_index])
    grid = np.arange(m) * length / m
    s = np.repeat(grid, 2)
    d = np.tile([0, 1], m)
    j = np.full(2 * m, curve_index, dtype=int)
    g = np.full(2 * m, model.design.group_of_curve(curve_index), dtype=int)
    cross, v = _cross_and_whitened(model, s, d, j, g)
    prior = multilevel_gram(model.kernel, model.noise, s[:2], d[:2], j[:2], g[:2])
    vq = v.T.reshape(m, 2, -1)
    covs = prior - np.einsum("mak,mbk->mab", vq, vq)
    return PredictedCurve(grid=grid, means=(cross @ model.alpha).reshape(m, 2),
                          covariances=covs)
