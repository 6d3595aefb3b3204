"""Periodic stationary covariance kernels on the circular curve domain.

The base construction warps the input distance r through sin(pi*r/tau),
making every kernel here tau-periodic. The RBF family uses the warped
squared distance directly in the exponent; the Matern families are applied
to the chordal distance d = 2*|sin(pi*r/tau)| of the circle embedding,
which preserves positive semi-definiteness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

FAMILIES = ("periodic_rbf", "periodic_matern32", "periodic_matern12")

DEFAULT_JITTER = 1e-3


@dataclass(frozen=True)
class PeriodicHyperparameters:
    """Variance, length scale and period of a periodic kernel."""

    sigma2: float
    rho: float
    tau: float
    family: str = "periodic_matern32"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown kernel family {self.family!r}")
        for label, value in (("sigma2", self.sigma2), ("rho", self.rho), ("tau", self.tau)):
            if not np.isfinite(value) or value <= 0:
                raise ValidationError(f"hyperparameter {label} must be positive, got {value}")


@dataclass(frozen=True)
class NoiseSpec:
    """Observation-noise variance and the jitter term: a constant kernel of
    variance ``jitter`` added to the input kernel. The box the fit keeps the
    noise variance in is `model.NOISE_BOX`.
    """

    noise_variance: float = 1e-5
    jitter: float = DEFAULT_JITTER

    def __post_init__(self):
        if self.noise_variance < 0 or self.jitter < 0:
            raise ValidationError("noise variance and jitter must be nonnegative")


def warped_distance(family: str, r, tau: float):
    """The period-tau warp of distance r that each family's correlation is a
    function of: sin^2(pi*r/tau) for the RBF family, the chordal distance
    2*|sin(pi*r/tau)| for the Matern families."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown kernel family {family!r}")
    u = np.sin(np.pi * np.asarray(r, dtype=float) / tau)
    return u ** 2 if family == "periodic_rbf" else 2.0 * np.abs(u)


def warped_correlation(family: str, w, rho: float, with_dlogrho: bool = False):
    """Kernel value for sigma2 = 1 at warped distance ``w``; with
    ``with_dlogrho`` also its derivative in log rho, as (corr, dcorr).

    The arithmetic runs in place on the arrays made here, never on ``w``:
    besides ``w``, two arrays of its size are alive at once, three for the
    Matern-3/2 derivative."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown kernel family {family!r}")
    a = np.empty(np.shape(w))  # w / rho, times sqrt(3) for Matern-3/2
    if family == "periodic_matern32":
        np.multiply(w, np.sqrt(3.0), out=a)
        a /= rho
    else:
        np.divide(w, rho, out=a)
    e = np.empty_like(a)
    np.exp(np.negative(a, out=e), out=e)
    if family == "periodic_rbf":  # exp(-a) and exp(-a) w / rho
        return (e, np.divide(np.multiply(e, w, out=a), rho, out=a)) if with_dlogrho else e
    if family == "periodic_matern12":  # exp(-a) and a exp(-a)
        return (e, np.multiply(a, e, out=a)) if with_dlogrho else e
    # Matern-3/2: (1 + a) exp(-a) and a^2 exp(-a)
    dcorr = np.square(a, out=np.empty_like(a)) if with_dlogrho else None
    a += 1.0
    a *= e
    return (a, np.multiply(dcorr, e, out=dcorr)) if with_dlogrho else a


def unit_correlation(family: str, r, rho: float, tau: float):
    """Kernel value at distance r for sigma2 = 1."""
    return warped_correlation(family, warped_distance(family, r, tau), rho)


def periodic_eval(hyp: PeriodicHyperparameters, s_i, s_j):
    """Covariance between arc parameters ``s_i`` and ``s_j``."""
    r = np.abs(np.asarray(s_i, dtype=float) - np.asarray(s_j, dtype=float))
    return hyp.sigma2 * unit_correlation(hyp.family, r, hyp.rho, hyp.tau)


def theorem1_bounds(hyp: PeriodicHyperparameters, length: float):
    """Lower/upper envelope of the periodic-RBF kernel for inputs within
    half the curve length.

    The lower bound may be negative (vacuous) for rough hyperparameters;
    it is returned as computed.
    """
    if length <= 0:
        raise ValidationError("curve length must be positive")
    sigma2, rho, tau = hyp.sigma2, hyp.rho, hyp.tau
    lower = sigma2 * (1.0 - np.pi ** 2 * length ** 2 / (4.0 * rho * tau ** 2))
    upper = sigma2 * (1.0 + (1.0 / 64.0) * (2.0 * np.pi ** 4 / (rho ** 2 * tau ** 4)
                                            + 4.0 * np.pi ** 4 / (3.0 * rho * tau ** 4))
                      * length ** 4)
    return float(lower), float(upper)


def gram(hyp: PeriodicHyperparameters, noise: NoiseSpec, s_a, s_b=None) -> np.ndarray:
    """Gram matrix between arc parameters ``s_a`` and ``s_b`` (``s_a`` with
    itself when ``s_b`` is None), with the constant jitter added to every
    entry. The kernel is evaluated at every pair of inputs.

    Observation noise is *not* included; that is a model-level concern.
    """
    s_a = np.asarray(s_a, dtype=float).reshape(-1)
    if s_a.size == 0:
        raise ValidationError("gram needs at least one input")
    s_b = s_a if s_b is None else np.asarray(s_b, dtype=float).reshape(-1)
    K = unit_correlation(hyp.family, np.abs(s_a[:, None] - s_b[None, :]),
                         hyp.rho, hyp.tau)
    K *= hyp.sigma2
    K += noise.jitter
    return K
