"""Curve-analysis workflows built on the GP model: reconstruction from
partial observations, representative pointwise means, simultaneous and
sequential landmark selection, and sub-population (grouped) fitting."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve, resample_equally_spaced, xy_to_arc_param
from .errors import NumericalError, ValidationError
from .metrics import iuea
from .model import (FittedModel, ModelConfig, OptimizerConfig, TrainingDesign,
                    _predict_mean, fit, predict_curve)
from .preprocess import apply_alignment, rotation_seed_align


def reconstruct(curves, model_config: ModelConfig | None = None,
                opt_config: OptimizerConfig | None = None,
                m: int = 200, labels=None):
    """Jointly fit all curves and densely resample each predictive mean.

    Returns (FittedModel, list of PredictedCurve). Curves with sparse or
    clustered sampling borrow strength from the others through the
    curve-level coregionalization.
    """
    design = TrainingDesign.from_curves(curves, labels)
    model = fit(design, model_config, opt_config)
    predictions = [predict_curve(model, j, m) for j in range(len(curves))]
    return model, predictions


def pointwise_mean(model: FittedModel, m: int = 100) -> Curve:
    """Average of the per-curve predictive means on a common grid."""
    n_curves = model.design.n_curves
    means = np.zeros((m, 2))
    for j in range(n_curves):
        means += predict_curve(model, j, m).means
    return Curve(means / n_curves, name="pointwise_mean")


@dataclass
class LandmarkConfig:
    """Settings for landmark selection searches."""

    p: int = 4
    lam: float = 0.5
    n_trials: int = 30
    criterion: str = "imspe"  # or "iuea"
    rng_seed: int = 0
    p_range: tuple = ()  # optional extra p values for the criterion trace

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError("lambda weight must lie in [0, 1]")
        if self.p < 3:
            raise ValidationError("landmark count p must be >= 3")
        if self.n_trials < 1:
            raise ValidationError("need at least one search trial")
        if self.criterion not in ("imspe", "iuea"):
            raise ValidationError(f"unknown criterion {self.criterion!r}")


@dataclass
class LandmarkResult:
    indices: tuple
    params: np.ndarray
    score: float
    trials: list = field(default_factory=list)
    criterion_trace: dict = field(default_factory=dict)


def _score_subset(curves, indices, criterion, model_config, opt_config):
    """Fit a joint model to the landmark subsets and score against the dense
    originals (squared-error per dense point, or average ellipse area)."""
    subs = [Curve(c.points[list(indices)], name=c.name) for c in curves]
    design = TrainingDesign.from_curves(subs)
    model = fit(design, model_config, opt_config)
    if criterion == "iuea":
        total = 0.0
        for j, c in enumerate(curves):
            total += iuea(predict_curve(model, j, m=c.n))
        return total / len(curves)
    total = 0.0
    for j, (c, sub) in enumerate(zip(curves, subs)):
        s_star = xy_to_arc_param(sub, c.points)
        s_rows = np.repeat(s_star, 2)
        d_rows = np.tile([0, 1], c.n)
        j_rows = np.full(2 * c.n, j, dtype=int)
        mean = _predict_mean(model, s_rows, d_rows, j_rows)
        total += float(np.sum((mean.reshape(c.n, 2) - c.points) ** 2) / c.n)
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


def simultaneous_landmarks(curves, config: LandmarkConfig,
                           model_config: ModelConfig | None = None,
                           opt_config: OptimizerConfig | None = None) -> LandmarkResult:
    """Random search over common landmark subsets of the dense sample points.

    All curves must share the same point count; each trial fits a joint model
    to the subset and scores it against the dense originals. Deterministic
    for a fixed rng_seed. Returns the argmin trial plus a criterion-vs-p
    trace for elbow inspection.
    """
    if not curves:
        raise ValidationError("need at least one curve")
    n = curves[0].n
    if any(c.n != n for c in curves):
        raise ValidationError("landmark search needs a common dense point count")
    if config.p > n:
        raise ValidationError(f"p={config.p} exceeds dense point count {n}")

    def search(p):
        best_subset, best_score, trials = None, np.inf, []
        for subset in _distinct_subsets(n, p, config.n_trials, config.rng_seed):
            try:
                score = _score_subset(curves, subset, config.criterion,
                                      model_config, opt_config)
            except NumericalError as exc:
                warnings.warn(f"landmark trial {subset} skipped: {exc}")
                continue
            trials.append((subset, score))
            if score < best_score:
                best_subset, best_score = subset, score
        if best_subset is None:
            raise NumericalError("every landmark trial failed to fit")
        return best_subset, best_score, trials

    best_subset, best_score, trials = search(config.p)
    trace = {config.p: best_score}
    for p in config.p_range:
        if p != config.p:
            trace[p] = search(p)[1]
    arcs = curves[0].cumulative_arc()
    return LandmarkResult(indices=best_subset,
                          params=arcs[list(best_subset)],
                          score=best_score, trials=trials,
                          criterion_trace=trace)


def sequential_landmark(model: FittedModel, lam: float = 0.5,
                        n_candidates: int = 500, curve_index: int = 0) -> float:
    """Next landmark location: argmax over a dense candidate grid of the
    weighted predictive standard deviations lam*sd1 + (1-lam)*sd2.

    Ties break toward the smallest arc parameter.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValidationError("lambda weight must lie in [0, 1]")
    if n_candidates < 10:
        raise ValidationError("candidate grid needs at least 10 points")
    pred = predict_curve(model, curve_index, m=n_candidates)
    criterion = lam * pred.sd1 + (1.0 - lam) * pred.sd2
    return float(pred.grid[int(np.argmax(criterion))])


def _align_within_classes(curves, labels):
    """Rotate every curve onto the first curve of its class (seed + rotation
    when point counts match, rotation only otherwise)."""
    templates: dict = {}
    aligned = []
    for curve, label in zip(curves, labels):
        if label not in templates:
            templates[label] = curve
            aligned.append(curve)
            continue
        template = templates[label]
        if curve.n == template.n:
            res = rotation_seed_align(curve, template)
            aligned.append(apply_alignment(curve, res))
        else:
            m = min(curve.n, template.n)
            res = rotation_seed_align(resample_equally_spaced(curve, m),
                                      resample_equally_spaced(template, m))
            aligned.append(curve.with_points(curve.points @ res.rotation.T))
    return aligned


def fit_subpopulations(curves, labels, model_config: ModelConfig | None = None,
                       opt_config: OptimizerConfig | None = None,
                       align: bool = True) -> FittedModel:
    """Fit the grouped model: curves carry class labels coupled through a
    group-level coregionalization matrix.

    Curves are first rotation-aligned to the first curve of their class.
    Group labels are encoded by order of first appearance, so any injective
    relabeling yields identical predictions.
    """
    if not curves:
        raise ValidationError("need at least one curve")
    if len(labels) != len(curves):
        raise ValidationError("one class label per curve required")
    if align:
        curves = _align_within_classes(curves, labels)
    if model_config is None:
        model_config = ModelConfig(fit_group=True)
    design = TrainingDesign.from_curves(curves, labels)
    return fit(design, model_config, opt_config)
