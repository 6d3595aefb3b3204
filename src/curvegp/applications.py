"""Curve-analysis workflows built on the GP model: reconstruction from
partial observations and simultaneous and sequential landmark selection.
A grouped fit needs no workflow of its own: it is
``fit(TrainingDesign.from_curves(curves, labels))``."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve, xy_to_arc_param
from .errors import NumericalError, ValidationError, whole_number
from .metrics import iuea
from .model import (FittedModel, ModelConfig, OptimizerConfig, TrainingDesign,
                    _one_blas_thread, _unit_means, fit, fit_designs,
                    predict_curve)


def reconstruct(curves, model_config: ModelConfig | None = None,
                opt_config: OptimizerConfig | None = None,
                m: int = 200):
    """Jointly fit all curves and densely resample each predictive mean.

    Returns (FittedModel, list of PredictedCurve). Curves with sparse or
    clustered sampling borrow strength from the others through the
    curve-level coregionalization. ``m`` is checked before the fit.
    """
    m = whole_number("m", m, 3)
    design = TrainingDesign.from_curves(curves)
    model = fit(design, model_config, opt_config)
    predictions = [predict_curve(model, j, m) for j in range(len(curves))]
    return model, predictions


# L-BFGS-B's stop for landmark trials (`fit_designs`' ``factr``), a relative
# reduction of the value of about 2.2e-7 against scipy's 2.2e-9: a trial's
# only output is its score's rank. On 30 seeded searches of 3 stars x 20
# points this stop kept every trial order with a third fewer evaluations;
# 1e10 changed 1 of the 30 orders
TRIAL_FACTR = 1e9


@dataclass
class LandmarkConfig:
    """Settings for the simultaneous landmark search."""

    p: int = 4
    n_trials: int = 30
    criterion: str = "imspe"  # or "iuea"
    rng_seed: int = 0

    def __post_init__(self):
        self.p = whole_number("p", self.p, 3)
        self.n_trials = whole_number("n_trials", self.n_trials, 1)
        if self.criterion not in ("imspe", "iuea"):
            raise ValidationError(f"unknown criterion {self.criterion!r}")
        self.rng_seed = whole_number("rng_seed", self.rng_seed, 0)


@dataclass
class LandmarkResult:
    indices: tuple
    params: np.ndarray
    score: float
    trials: list = field(default_factory=list)


def _score_subset(curves, subs, model, criterion):
    """Score the joint model fitted to the landmark subsets ``subs`` against
    the dense originals (squared-error per dense point, or average ellipse
    area); a fit that failed raises its NumericalError."""
    if isinstance(model, NumericalError):
        raise model
    if criterion == "iuea":
        total = 0.0
        for j, c in enumerate(curves):
            total += iuea(predict_curve(model, j, m=c.n))
        return total / len(curves)
    total = 0.0
    for j, (c, sub) in enumerate(zip(curves, subs)):
        s_star = xy_to_arc_param(sub, c.points)
        mean = _unit_means(model, s_star, np.full(c.n, j))[0]
        total += float(np.sum((mean - c.points) ** 2) / c.n)
    return total / len(curves)


def _distinct_subsets(n: int, p: int, n_trials: int, seed) -> list:
    """Up to n_trials distinct sorted index subsets, drawn without replacement
    within each subset and deduplicated across trials."""
    total = math.comb(n, p)
    rng = np.random.default_rng(seed)
    seen: dict = {}
    attempts = 0
    while len(seen) < min(n_trials, total) and attempts < 200 * n_trials:
        subset = tuple(sorted(rng.choice(n, size=p, replace=False).tolist()))
        seen.setdefault(subset, None)
        attempts += 1
    return list(seen)


@_one_blas_thread()
def simultaneous_landmarks(curves, config: LandmarkConfig,
                           model_config: ModelConfig | None = None,
                           opt_config: OptimizerConfig | None = None) -> LandmarkResult:
    """Random search over common landmark subsets of the dense sample points.

    All curves must share the same point count; each trial fits a joint model
    to the subset and scores it against the dense originals. The trials'
    fits run together in one lockstep (`fit_designs`), each equal to its
    fit alone at the same stop: L-BFGS-B stops a trial at `TRIAL_FACTR`,
    not at scipy's `LBFGS_FACTR` as `fit` does, which moves a trial's score
    in its 4th or 5th significant digit but, on every search measured, not
    the trials' order. Deterministic for a fixed rng_seed. Returns the
    argmin trial and every trial's score.
    """
    if not curves:
        raise ValidationError("need at least one curve")
    n = curves[0].n
    if any(c.n != n for c in curves):
        raise ValidationError("landmark search needs a common dense point count")
    if config.p > n:
        raise ValidationError(f"p={config.p} exceeds dense point count {n}")

    subsets = _distinct_subsets(n, config.p, config.n_trials, config.rng_seed)
    subs = [[Curve(c.points[list(subset)]) for c in curves] for subset in subsets]
    models = fit_designs([TrainingDesign.from_curves(sub) for sub in subs],
                         model_config, opt_config, factr=TRIAL_FACTR)
    best_subset, best_score, trials = None, np.inf, []
    for subset, sub, model in zip(subsets, subs, models):
        try:
            score = _score_subset(curves, sub, model, config.criterion)
        except NumericalError as exc:
            warnings.warn(f"landmark trial {subset} skipped: {exc}")
            continue
        trials.append((subset, score))
        if score < best_score:
            best_subset, best_score = subset, score
    if best_subset is None:
        raise NumericalError("every landmark trial failed to fit")
    arcs = curves[0].cumulative_arc
    return LandmarkResult(indices=best_subset,
                          params=arcs[list(best_subset)],
                          score=best_score, trials=trials)


def sequential_settings(lam: float, n_candidates) -> int:
    """`sequential_landmark`'s checks of its settings, which need no fit:
    the weight lam in [0, 1] and n_candidates a whole number >= 10, else a
    ValidationError. Returns n_candidates as an int."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError("lambda weight must lie in [0, 1]")
    return whole_number("n_candidates", n_candidates, 10)


def sequential_landmark(model: FittedModel, lam: float = 0.5,
                        n_candidates: int = 500) -> float:
    """Next landmark location on the first curve: argmax over a dense
    candidate grid of the weighted predictive standard deviations
    lam*sd1 + (1-lam)*sd2.

    Ties break toward the smallest arc parameter.
    """
    n_candidates = sequential_settings(lam, n_candidates)
    pred = predict_curve(model, 0, m=n_candidates)
    criterion = lam * pred.sd1 + (1.0 - lam) * pred.sd2
    return float(pred.grid[int(np.argmax(criterion))])
