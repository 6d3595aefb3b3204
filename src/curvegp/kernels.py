"""Periodic stationary covariance kernels on the circular curve domain.

Each arc parameter s is a point (cos(2*pi*s/tau), sin(2*pi*s/tau)) of the
circle embedding, and every kernel here is a function of the chord between
two such points, |2*sin(pi*(a - b)/tau)|, so it is tau-periodic. The RBF
family uses the squared half chord sin^2(pi*(a - b)/tau) directly in the
exponent; the Matern families are applied to the chord itself, which
preserves positive semi-definiteness. The sine of the difference is formed
from the positions (`warped_distance`), so sin and cos run once per input,
not once per pair. The jitter is a field of the kernel: a constant added to
every entry of its Gram (`gram`). Observation noise is not part of the
kernel; the model keeps it as a variance of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require

FAMILIES = ("periodic_rbf", "periodic_matern32", "periodic_matern12")
SQRT3 = math.sqrt(3.0)  # the Matern-3/2 scale of the distance, np.sqrt(3.0) exactly

DEFAULT_JITTER = 1e-3


@dataclass(frozen=True)
class PeriodicHyperparameters:
    """Variance, length scale and period of a periodic kernel, and its
    jitter: a constant kernel of variance ``jitter`` added to it."""

    sigma2: float
    rho: float
    tau: float
    family: str = "periodic_matern32"
    jitter: float = DEFAULT_JITTER

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown kernel family {self.family!r}")
        for label, value in (("sigma2", self.sigma2), ("rho", self.rho), ("tau", self.tau)):
            if not np.isfinite(value) or value <= 0:
                raise ValidationError(f"hyperparameter {label} must be positive, got {value}")
        require(0 <= self.jitter < np.inf, "jitter", "finite and >= 0", self.jitter)


def warped_distance(family: str, s_a, s_b, tau: float):
    """The period-tau warp of the distance between arc parameters ``s_a``
    and ``s_b`` (broadcast against each other) that each family's
    correlation is a function of: u^2 for the RBF family, the chordal
    distance 2|u| for the Matern families, with u = sin(pi (a - b) / tau).

    u comes from the positions on the circle, by sin(x - y) = sin x cos y -
    cos x sin y: sin and cos run once per input, and only two products and
    their difference run per pair. The two products are each other's
    operands swapped, so u(b, a) = -u(a, b) exactly and u(a, a) = 0."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown kernel family {family!r}")
    scale = np.pi / tau
    x = np.multiply(s_a, scale, dtype=float)
    y = np.multiply(s_b, scale, dtype=float)
    # the chord's factor 2 goes on one side, where doubling is exact; w is
    # an array even for scalar inputs, so the steps below can work in place
    chord = 1.0 if family == "periodic_rbf" else 2.0
    w = np.asarray(np.multiply(chord * np.sin(x), np.cos(y)))
    w -= np.multiply(chord * np.cos(x), np.sin(y))
    return np.square(w, out=w) if family == "periodic_rbf" else np.abs(w, out=w)


def warped_correlation(family: str, w, rho: float, with_dlogrho: bool = False,
                       out=None):
    """Kernel value for sigma2 = 1 at warped distance ``w``; with
    ``with_dlogrho`` also its derivative in log rho, as (corr, dcorr).

    The arithmetic runs in place, on ``w`` only when ``w`` is the first
    slot of ``out``. Without ``out`` it runs on arrays made here and
    returned: besides ``w``, two arrays of its size are alive at once,
    three for the Matern-3/2 derivative. ``out`` is a stack of three
    arrays of ``w``'s shape that a caller keeps across calls (the
    likelihood's work arrays): nothing of that size is made, every slot is
    overwritten, and corr and dcorr are two of the slots, which two
    depending on the family. Without the derivative the third slot may be
    None, and the first may be ``w`` itself, which then holds nothing
    further that the caller needs (`unit_correlation`). With ``out``,
    ``rho`` may be an array that broadcasts against ``w`` to the slots'
    shape, as one length scale per matrix of a stack does; every entry is
    then what a call on its matrix and length scale alone gives."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown kernel family {family!r}")
    if out is None:
        a = np.empty(np.shape(w))  # a = w / rho, times sqrt(3) for Matern-3/2
        e, d = np.empty_like(a), None
    else:
        a, e, d = out
    if family == "periodic_matern12":
        np.exp(np.negative(np.divide(w, rho, out=a), out=e), out=e)
        return (e, np.multiply(a, e, out=a)) if with_dlogrho else e  # exp(-a), a exp(-a)
    # -a directly, as x / -rho = -(x / rho) exactly
    if family == "periodic_rbf":  # exp(-a) and exp(-a) w / rho
        np.exp(np.divide(w, -rho, out=a), out=e)
        return (e, np.divide(np.multiply(e, w, out=a), rho, out=a)) if with_dlogrho else e
    # Matern-3/2: (1 + a) exp(-a) and a^2 exp(-a), with 1 - (-a) = 1 + a and
    # (-a)^2 = a^2 exactly
    np.multiply(w, SQRT3, out=a)
    a /= -rho
    np.exp(a, out=e)
    if with_dlogrho:
        d = np.square(a, out=np.empty_like(a) if d is None else d)
    np.subtract(1.0, a, out=a)
    a *= e
    return (a, np.multiply(d, e, out=d)) if with_dlogrho else a


def unit_correlation(family: str, s_a, s_b, rho: float, tau: float):
    """Kernel value between arc parameters ``s_a`` and ``s_b`` (broadcast
    against each other) for sigma2 = 1, evaluated in the fresh buffer that
    holds the warped distances, its first slot: besides it, one array of
    its size is alive at once, as while the distances are formed."""
    w = warped_distance(family, s_a, s_b, tau)
    return warped_correlation(family, w, rho, out=(w, np.empty_like(w), None))


def gram(hyp: PeriodicHyperparameters, s_a, s_b=None) -> np.ndarray:
    """Gram matrix between arc parameters ``s_a`` and ``s_b`` (``s_a`` with
    itself when ``s_b`` is None), with the kernel's jitter added to every
    entry. The kernel is evaluated at every pair of inputs.

    Observation noise is *not* included; that is a model-level concern.
    """
    s_a = np.asarray(s_a, dtype=float).reshape(-1)
    if s_a.size == 0:
        raise ValidationError("gram needs at least one input")
    s_b = s_a if s_b is None else np.asarray(s_b, dtype=float).reshape(-1)
    K = unit_correlation(hyp.family, s_a[:, None], s_b[None, :], hyp.rho, hyp.tau)
    K *= hyp.sigma2
    K += hyp.jitter
    return K
