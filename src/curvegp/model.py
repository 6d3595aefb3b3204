"""Exact GP regression for closed curves: design assembly, marginal
likelihood with analytic gradients, constrained multi-start fitting, and
prediction with full per-point covariance.

K is the jittered input Gram K0 times one factor per coregionalization
level, B = W W^T + diag(kappa) indexed by the rows' level values, plus
noise I. When the jitter is constant and the rows come in coordinate pairs
(rows 2p and 2p+1 share s, curve and group, as `TrainingDesign.from_curves`
builds them), K = K_pts (x) B_coord + noise I exactly, with K_pts the P x P
Gram of the points (P = N/2) carrying the curve and group factors. With
B_coord = Q diag(lam) Q^T (closed form), rotating each point's two targets
by Q splits K into two P x P blocks lam_e K_pts + noise I (Bonilla, Chai &
Williams 2008; Saatci 2011), and no N x N matrix is formed. Nugget jitter
and hand-built designs without such pairs keep the dense N x N system: one
block with lam = 1, Q = 1 over the rows. The same units (points or rows)
and blocks serve the objective, `log_marginal_likelihood`,
`assemble_model`, `predict` and `predict_curve`.

The gradient of -log p(y) is -tr(A dK)/2 with A = alpha alpha^T - K^-1
(Rasmussen & Williams 2006, 5.4.1), contracted by level rather than formed
per parameter. Over the units it is A_u = sum_e lam_e (alpha_e alpha_e^T -
K_e^-1). The units fall into T types (tuples of the level values the unit
Gram carries), so each such factor is the T x T matrix E B E^T, with E the
one-hot map from types to level values. A_u o K0 is summed over each block
of types once, G = S^T (A_u o K0) S (S: units to types); a level's M = E^T
(G o the other factors) E, and its W and log kappa gradients are -M W and
-diag(M) kappa/2. On the split path the coordinate level's M = Q Mt Q^T,
Mt[e, f] = alpha_e^T K_pts alpha_f - [e = f] <K_e^-1, K_pts>. log sigma2
and log rho take one inner product of A_u with a dense matrix each, and log
noise takes -noise sum_e tr(A_e) / 2. alpha_e and K_e^-1 come from the
Cholesky factors (LAPACK dpotrs, dpotri); one nugget ladder serves every
block. Outside the objective, Grams come from `multilevel_gram`, which
evaluates the input kernel once per distinct arc parameter and the level
factors once per distinct level tuple, then gathers both to the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs
from scipy.optimize import minimize

from .coreg import CoregMatrix, MultiLevelKernel, multilevel_gram
from .errors import NumericalError, ValidationError
from .kernels import (DEFAULT_JITTER, DEFAULT_NOISE_BOX, NoiseSpec,
                      PeriodicHyperparameters, validate_constraints,
                      warped_correlation, warped_distance)

NUGGET_LADDER = (0.0, 1e-8, 1e-6, 1e-4)

LOG2PI = np.log(2.0 * np.pi)

# (lam, Q) of the dense path: one block, the rows themselves
DENSE_BASIS = (np.ones(1), np.ones((1, 1)))
COORD_IDENTITY = CoregMatrix.identity(2)


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
    """Kernel with estimated hyperparameters plus cached training solve.

    ``chol`` holds one Cholesky factor per block and ``basis`` the blocks'
    (lam, Q): two P x P blocks in the eigenbasis of the coordinate factor,
    or `DENSE_BASIS` with one N x N block. ``alpha`` is K^-1 y in row order.
    """

    kernel: MultiLevelKernel
    noise: NoiseSpec
    design: TrainingDesign
    chol: list
    alpha: np.ndarray
    log_marginal_likelihood: float
    diagnostics: dict = field(default_factory=dict)
    basis: tuple = DENSE_BASIS

    @property
    def split(self) -> bool:
        return len(self.basis[0]) == 2

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


def _is_paired(s, d, j, g) -> bool:
    """Rows in (d=0, d=1) pairs that share s, curve and group, as
    `TrainingDesign.from_curves` builds them."""
    return bool(len(d) % 2 == 0 and not d[0::2].any() and (d[1::2] == 1).all()
                and all((a[0::2] == a[1::2]).all() for a in (s, j, g)))


def _splits(design: TrainingDesign, jitter_mode: str) -> bool:
    """Whether K = K_pts (x) B_coord + noise I holds exactly: nugget jitter
    sits on the N x N diagonal only, so it does not separate."""
    return jitter_mode == "constant" and _is_paired(design.s, design.d,
                                                    design.j, design.g)


def _units(s, d, j, g, split: bool):
    """The units a Gram is formed on, for rows (s, d, j, g): returns the
    units' (s, d, j, g), the unit of each row and the coordinate of each
    row in the basis. With the coordinate level split off, a pair of rows
    (d = 0, 1) sharing s, curve and group is one unit at coordinate 0;
    without it, every row is a unit and the basis has one coordinate."""
    n = len(d)
    rows = np.arange(n)
    if not split:
        return (s, d, j, g), rows, np.zeros(n, dtype=int)
    if _is_paired(s, d, j, g):
        return (s[0::2], np.zeros(n // 2, dtype=int), j[0::2], g[0::2]), rows // 2, d
    return (s, np.zeros(n, dtype=int), j, g), rows, d


def _coord_basis(B: np.ndarray):
    """(lam, Q) with B = Q diag(lam) Q^T for a symmetric 2 x 2 B, in closed
    form: Q is a rotation, lam descending, and B = I gives Q = I exactly."""
    (a, b), (_, c) = B.tolist()
    half = 0.5 * (a - c)
    r = math.hypot(half, b)
    phi = 0.5 * math.atan2(b, half)
    cos, sin = math.cos(phi), math.sin(phi)
    mid = 0.5 * (a + c)
    return np.array([mid + r, mid - r]), np.array([[cos, -sin], [sin, cos]])


def _blocks(K: np.ndarray, lam: np.ndarray, noise_var: float, out=None):
    """The systems lam_e K + noise I, one per eigenvalue of the basis,
    stacked along the first axis (in ``out`` when given)."""
    blocks = np.multiply(lam[:, None, None], K, out=out)
    blocks.reshape(len(lam), -1)[:, ::len(K) + 1] += noise_var  # the diagonals
    return blocks


def _chol_with_ladder(blocks):
    """Cholesky factors of every block of a stack with one escalating
    diagonal nugget: when any block fails, all are factored again with the
    next nugget, so K + nugget I stays isotropic. Returns (factors, nugget
    used). Non-finite entries raise ValueError."""
    blocks = np.asarray_chkfinite(blocks)
    for nugget in NUGGET_LADDER:
        factors = []
        for K in blocks:
            M = K if nugget == 0.0 else K + nugget * np.eye(len(K))
            L, info = dpotrf(M, lower=1, clean=1)
            if info != 0:
                break
            factors.append(L)
        else:
            return factors, nugget
    raise NumericalError(
        f"covariance factorization failed after nugget ladder {NUGGET_LADDER}")


class MarginalLikelihoodObjective:
    """Negative log marginal likelihood and its analytic gradient in a packed
    parameter vector (log sigma2, log rho, log noise, then W / log kappa per
    free coregionalization level). The period tau is held fixed.

    On the split path (constant jitter, paired rows) the units are the P
    points and the coordinate level is applied through its eigenbasis;
    otherwise the units are the N rows and every level is in the unit Gram.
    """

    def __init__(self, design: TrainingDesign, config: ModelConfig):
        self.design = design
        self.config = config
        self.tau = (float(np.mean(design.lengths)) if config.tau == "auto"
                    else float(config.tau))
        self.split = _splits(design, config.jitter_mode)
        unit_rows = _units(design.s, design.d, design.j, design.g, self.split)[0]
        s = unit_rows[0]
        # tau is fixed, so the warped distances are computed once
        self.warp = warped_distance(config.family, np.abs(s[:, None] - s[None, :]),
                                    self.tau)
        self.n_units = len(s)
        self.diag = np.diag_indices(self.n_units)
        self.targets = design.y.reshape(self.n_units, -1).T  # a row per coordinate
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
        # the levels the unit Gram carries: all but the coordinate level on
        # the split path. Units are grouped into T types, one per tuple of
        # those levels' values; one-hot S maps units to types, E per level
        # types to values
        self.unit_levels = list(range(1 if self.split else 0, len(self.levels)))
        code = np.zeros(self.n_units, dtype=int)
        for i in self.unit_levels:  # mixed-radix code of the tuple
            code = code * self.levels[i][2] + unit_rows[1 + i]
        _, first, unit_type = np.unique(code, return_index=True, return_inverse=True)
        self.type_onehot = (unit_type[:, None] == np.arange(len(first))).astype(float)
        self.level_onehot = [(unit_rows[1 + i][first, None]
                              == np.arange(self.levels[i][2])).astype(float)
                             for i in self.unit_levels]
        self._factors = []
        self._wk = {}
        self._basis = DENSE_BASIS
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

    def _buffer(self, key, stack=()):
        """A (stack x) units x units work array kept across calls: a fresh
        array of this size costs more in page faults than the arithmetic
        done on it."""
        if key not in self._buffers:
            self._buffers[key] = np.empty(stack + (self.n_units,) * 2)
        return self._buffers[key]

    def _level_matrix(self, theta, i):
        """B of level i; (W, kappa) of a free level are kept for its gradient."""
        name, _, size, _, free = self.levels[i]
        if not free:
            return np.eye(size)
        W, kappa = self._wk[i] = self._coreg(theta, name, size)
        B = W @ W.T
        B.reshape(-1)[::size + 1] += kappa
        return B

    def gram_and_grads(self, theta, with_grads: bool = True):
        """The unit Gram K (without noise) and the three dense units x units
        matrices its gradient is contracted against: dK/dlog(sigma2),
        dK/dlog(rho) and the jittered input Gram K0, whatever the levels.
        Each unit level's factor E B E^T is formed on the T x T grid of unit
        types and kept for `value_and_grad`, as is the basis of the
        coordinate factor on the split path; their product is spread to the
        units once. K and K0 are work arrays of this objective, overwritten
        by its next call. Assembled here rather than by `multilevel_gram` to
        reuse the warped distances and work arrays."""
        sigma2, rho = np.exp(theta[:2])
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
        # B[level_t, level_u] on the grid of types, exactly
        self._factors = [E @ self._level_matrix(theta, i) @ E.T
                         for i, E in zip(self.unit_levels, self.level_onehot)]
        self._basis = (_coord_basis(self._level_matrix(theta, 0)) if self.split
                       else DENSE_BASIS)
        S = self.type_onehot
        product = (reduce(np.multiply, self._factors) if self._factors
                   else np.ones((S.shape[1],) * 2))
        Bfull = np.matmul(S @ product, S.T, out=self._buffer("K"))
        if with_grads:
            base *= Bfull
            dcorr *= sigma2
            dcorr *= Bfull
        K = np.multiply(Bfull, K0, out=Bfull)
        return K, ([base, dcorr, K0] if with_grads else None)

    def _factor(self, K, noise_var):
        """Factor the blocks of K + noise I; (factors, alphas, -log p)."""
        lam, Q = self._basis
        blocks = _blocks(K, lam, noise_var, self._buffer("blocks", (len(lam),)))
        factors, _, alphas, nll = _factor_and_nll(blocks, Q.T @ self.targets)
        return factors, alphas, nll

    def value_and_grad(self, theta):
        """-log p(y) and its gradient, contracted by level (R&W 2006, 5.4.1):
        with A = alpha alpha^T - K^-1, d(-log p) = -tr(A dK)/2."""
        K, grads = self.gram_and_grads(theta)
        noise_var = math.exp(theta[2])
        factors, alphas, nll = self._factor(K, noise_var)
        lam, Q = self._basis
        trace_a = float(np.vdot(alphas, alphas))  # sum_e tr(A_e), less tr(K_e^-1) below
        if self.split:
            Mt = alphas @ K @ alphas.T
        for e, L in enumerate(factors):
            Ke_inv, info = dpotri(L, lower=1, overwrite_c=1)
            if info != 0:
                raise NumericalError(
                    f"inverse from the Cholesky factor failed (info={info})")
            trace_a -= Ke_inv.trace()
            if self.split:  # <K_e^-1, K> from the lower triangle dpotri fills
                Mt[e, e] -= (2.0 * np.vdot(Ke_inv.T, K)
                             - Ke_inv.diagonal() @ K.diagonal())
            Ke_inv *= lam[e]
            if e == 0:
                Kinv = Ke_inv
            else:
                Kinv += Ke_inv
        # A = sum_e lam_e (alpha_e alpha_e^T - K_e^-1) over the units
        A = np.matmul(alphas.T * lam, alphas, out=self._buffer("A"))
        A -= Kinv
        A -= Kinv.T  # dpotri fills the lower triangle; the upper one is zero
        A.reshape(-1)[::self.n_units + 1] += Kinv.diagonal()  # taken twice above
        grad = np.empty(self.n_params)
        grad[0] = -0.5 * np.vdot(A, grads[0])
        grad[1] = -0.5 * np.vdot(A, grads[1])
        grad[2] = -0.5 * noise_var * trace_a
        if self.split and self.levels[0][4]:
            self._level_grad(grad, 0, Q @ Mt @ Q.T)
        # G sums A o K0 over each block of unit types; a level's M sums
        # A o K0 o (the other unit levels' factors) over its blocks of values
        S = self.type_onehot
        G = S.T @ np.multiply(A, grads[2], out=A) @ S
        for k, i in enumerate(self.unit_levels):
            if not self.levels[i][4]:
                continue
            E = self.level_onehot[k]
            others = [F for m, F in enumerate(self._factors) if m != k]
            self._level_grad(grad, i, E.T @ reduce(np.multiply, others, G) @ E)
        return nll, grad

    def _level_grad(self, grad, i, M):
        """W and log kappa gradients of free level i from its M."""
        W, kappa = self._wk[i]
        w_sl, k_sl = self.slices[self.levels[i][0]]
        grad[w_sl] = -(M @ W).ravel()
        grad[k_sl] = -0.5 * M.diagonal() * kappa

    def value(self, theta):
        K, _ = self.gram_and_grads(theta, with_grads=False)
        return self._factor(K, math.exp(theta[2]))[2]


def make_objective(design: TrainingDesign, config: ModelConfig | None = None):
    return MarginalLikelihoodObjective(design, config or ModelConfig())


def _factor_and_nll(blocks, Y: np.ndarray):
    """Factor the blocks (with one nugget ladder) and return (factors,
    nugget, alphas, -log p) for independent rows Y[e] ~ N(0, block e);
    alphas[e] = block e^-1 Y[e]."""
    factors, nugget = _chol_with_ladder(blocks)
    alphas = np.empty_like(Y)
    logdet = 0.0
    for e, L in enumerate(factors):
        alphas[e], info = dpotrs(L, Y[e], lower=1)
        if info != 0:
            raise NumericalError(f"solve with the Cholesky factor failed (info={info})")
        logdet += float(np.log(L.diagonal()).sum())
    nll = 0.5 * float(np.vdot(Y, alphas)) + logdet + 0.5 * Y.size * LOG2PI
    return factors, nugget, alphas, nll


def _unit_kernel(kernel: MultiLevelKernel, split: bool) -> MultiLevelKernel:
    """The kernel of the unit Gram: without the coordinate factor (an
    identity at coordinate 0) on the split path."""
    return replace(kernel, coord=COORD_IDENTITY) if split else kernel


def _design_factor(design: TrainingDesign, kernel: MultiLevelKernel,
                   noise: NoiseSpec):
    """(basis, factors, nugget, alpha in row order, -log p(y)) of a design
    under fixed hyperparameters."""
    split = _splits(design, noise.jitter_mode)
    s, d, j, g = _units(design.s, design.d, design.j, design.g, split)[0]
    K = multilevel_gram(_unit_kernel(kernel, split), noise, s, d, j, g)
    lam, Q = basis = _coord_basis(kernel.coord.matrix) if split else DENSE_BASIS
    factors, nugget, alphas, nll = _factor_and_nll(
        _blocks(K, lam, noise.noise_variance), Q.T @ design.y.reshape(len(s), -1).T)
    return basis, factors, nugget, (Q @ alphas).T.ravel(), nll


def log_marginal_likelihood(design: TrainingDesign, kernel: MultiLevelKernel,
                            noise: NoiseSpec) -> float:
    """Log marginal likelihood of the design under fixed hyperparameters."""
    return -_design_factor(design, kernel, noise)[4]


def assemble_model(design: TrainingDesign, kernel: MultiLevelKernel,
                   noise: NoiseSpec, diagnostics: dict | None = None) -> FittedModel:
    """Cache the training factorization for a kernel with fixed hyperparameters."""
    basis, factors, nugget, alpha, nll = _design_factor(design, kernel, noise)
    diag = dict(diagnostics or {})
    diag.setdefault("nugget", nugget)
    return FittedModel(kernel=kernel, noise=noise, design=design, chol=factors,
                       alpha=alpha, log_marginal_likelihood=-nll, diagnostics=diag,
                       basis=basis)


def fit(design: TrainingDesign, model_config: ModelConfig | None = None,
        opt_config: OptimizerConfig | None = None) -> FittedModel:
    """Maximize the log marginal likelihood over box-constrained restarts.

    Deterministic for a fixed seed; the best restart is returned with all
    restart scores logged in the diagnostics, and one record per restart
    that ran to its end (restart number, iterations, evaluations, the
    optimizer's success flag and message), in the order of the scores.
    """
    import warnings
    model_config = model_config or ModelConfig()
    opt_config = opt_config or OptimizerConfig()
    obj = MarginalLikelihoodObjective(design, model_config)
    rng = np.random.default_rng(opt_config.seed)

    if opt_config.method == "anneal":
        from scipy.optimize import dual_annealing

        factored = 0

        def value_or_inf(theta):  # a point that cannot be factored scores +inf
            nonlocal factored
            try:
                value = obj.value(theta)
            except NumericalError:
                return np.inf
            factored += 1
            return value

        no_point = "annealing found no point that could be factored"
        try:
            res = dual_annealing(value_or_inf, bounds=obj.bounds,
                                 seed=opt_config.seed,
                                 maxiter=max(opt_config.maxiter, 100))
        except ValueError as exc:  # scipy's reply when no start scores finite
            if factored:
                raise
            raise NumericalError(no_point) from exc
        if not np.isfinite(res.fun):
            raise NumericalError(no_point)
        scores, best_theta, best_index = [-float(res.fun)], res.x, 0
        records = [_restart_record(0, res)]
    elif opt_config.method == "lbfgs":
        scores, results, records = [], [], []
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
            records.append(_restart_record(i, res))
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
                   "restarts": records, "constraint_report": report.to_dict(),
                   "method": opt_config.method}
    return assemble_model(design, kernel, noise, diagnostics)


def _restart_record(restart: int, res) -> dict:
    """What the optimizer reported for one restart that ran to its end."""
    message = res.message
    if not isinstance(message, str):  # dual_annealing reports a list
        message = "; ".join(map(str, message))
    return {"restart": restart, "nit": int(res.nit), "nfev": int(res.nfev),
            "success": bool(res.success), "message": message}


def _posterior_mean(model: FittedModel, s, d, j, g):
    """(mean, cross, unit, coord): the means at query rows, the query units'
    cross Gram against the training units, and each row's unit and
    coordinate."""
    split = model.split
    (us, ud, uj, ug), unit, coord = _units(s, d, j, g, split)
    dz = model.design
    ts, td, tj, tg = _units(dz.s, dz.d, dz.j, dz.g, split)[0]
    cross = multilevel_gram(_unit_kernel(model.kernel, split), model.noise,
                            us, ud, uj, ug, s_b=ts, d_b=td, j_b=tj, g_b=tg)
    B = model.kernel.coord.matrix if split else model.basis[1]  # Q = [[1]] if dense
    mean = (cross @ model.alpha.reshape(len(ts), -1) @ B)[unit, coord]
    return mean, cross, unit, coord


def _posterior_parts(model: FittedModel, s, d, j, g):
    """Means at query rows and, per block e, (V_e, w_e): V_e = L_e^-1 k_e
    on the query units and w_e[r] = lam_e Q[coordinate of r, e]. The
    posterior covariance of rows r, r' is the prior less the sum over e of
    w_e[r] w_e[r'] V_e[:, u(r)] . V_e[:, u(r')]. Returns (mean, parts, u).
    """
    lam, Q = model.basis
    mean, cross, unit, coord = _posterior_mean(model, s, d, j, g)
    parts = []
    for e, L in enumerate(model.chol):
        V, info = dtrtrs(L, cross.T, lower=1)
        if info != 0:
            raise NumericalError(f"triangular solve failed (info={info})")
        parts.append((V, lam[e] * Q[coord, e]))
    return mean, parts, unit


def predict(model: FittedModel, s, d, j=None, g=None):
    """Predictive mean and full covariance at query rows (s*, d, j, g).

    Without ``g`` each row takes the group of its curve in the design."""
    s, d, j, g = _query_rows(model, s, d, j, g)
    cov = multilevel_gram(model.kernel, model.noise, s, d, j, g)  # checks d, j, g
    mean, parts, unit = _posterior_parts(model, s, d, j, g)
    rows = np.ix_(unit, unit)
    for V, w in parts:
        cov -= np.outer(w, w) * (V.T @ V)[rows]
    return mean, cov


def _query_rows(model: FittedModel, s, d, j, g):
    """``predict``'s query rows as arrays, each row's group defaulting to
    its curve's."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=int))
    j = np.zeros_like(d) if j is None else np.atleast_1d(np.asarray(j, dtype=int))
    if g is None:
        dz = model.design
        if np.any((j < 0) | (j >= dz.n_curves)):
            raise ValidationError(f"curve index out of range for {dz.n_curves} curves")
        g = np.array([dz.group_of_curve(c) for c in range(dz.n_curves)])[j]
    return s, d, j, np.atleast_1d(np.asarray(g, dtype=int))


def _predict_mean(model: FittedModel, s, d, j=None, g=None) -> np.ndarray:
    """``predict``'s means alone, without the prior or posterior covariance."""
    return _posterior_mean(model, *_query_rows(model, s, d, j, g))[0]


def predict_curve(model: FittedModel, curve_index: int = 0, m: int = 100) -> PredictedCurve:
    """Dense predictive mean curve with per-point 2x2 covariance blocks.

    Only the diagonal blocks of the posterior covariance are formed; the
    kernel is stationary, so every grid point shares one 2x2 prior block.
    On the split path each block is the prior less sum_e lam_e^2
    |V_e[:, i]|^2 q_e q_e^T, with V_e = L_e^-1 k_e whitened once per grid
    point.
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
    mean, parts, _ = _posterior_parts(model, s, d, j, g)
    covs = multilevel_gram(model.kernel, model.noise, s[:2], d[:2], j[:2], g[:2])
    for V, w in parts:
        if model.split:  # one unit per grid point; w[:2] = lam_e q_e
            covs = covs - (np.einsum("km,km->m", V, V)[:, None, None]
                           * np.outer(w[:2], w[:2]))
        else:  # one unit per row
            vq = V.T.reshape(m, 2, -1)
            covs = covs - np.einsum("mak,mbk->mab", vq, vq)
    return PredictedCurve(grid=grid, means=mean.reshape(m, 2), covariances=covs)
