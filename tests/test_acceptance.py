"""Acceptance criteria: one test per criterion, each printing a pass/fail
line (written to the real stdout so it is visible under pytest capture)."""

import itertools
import time

import numpy as np
import pytest

import curvegp as cg
from curvegp.applications import TRIAL_FACTR, _score_subset
from curvegp.coreg import CoregMatrix, MultiLevelKernel
from curvegp.curves import Curve, polygon_length
from curvegp.kernels import FAMILIES, unit_correlation
from curvegp.model import (MarginalLikelihoodObjective, ModelConfig,
                           OptimizerConfig, TrainingDesign, assemble_model, fit,
                           fit_designs, predict, predict_curve)
from curvegp.preprocess import center, scale_to_unit_length
from gram_oracle import one_row, theorem1_bounds


@pytest.fixture
def report(capfd):
    """Per-criterion pass/fail line, printed outside pytest capture."""
    def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        line = f"CRITERION {num:02d} {status} - {name}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def kernel(h, a, b):
    """The library's covariance between arc parameters a and b."""
    return h.sigma2 * unit_correlation(h.family, a, b, h.rho, h.tau)


def prep(curve):
    return scale_to_unit_length(center(curve))


def test_criterion_01_theorem1_sandwich(report):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    violations = 0
    for _ in range(1000):
        length = rng.uniform(0.1, 3.0)
        tau = length
        rho = rng.uniform(1e-3, tau / 2)
        sigma2 = rng.uniform(1e-3, 10.0)
        h = cg.PeriodicHyperparameters(sigma2, rho, tau, family="periodic_rbf")
        lower, upper = theorem1_bounds(h, length)
        r = rng.uniform(0.0, length / 2)
        value = kernel(h, 0.0, r)
        if not (lower - 1e-12 <= value <= upper + 1e-12):
            violations += 1
    elapsed = time.perf_counter() - start
    report(1, "Theorem-1 sandwich", violations == 0 and elapsed < 5.0,
           f"{violations} violations, {elapsed:.2f}s")


def test_criterion_02_periodicity_and_symmetry(report):
    rng = np.random.default_rng(7)
    n = 10_000
    s = rng.uniform(0, 10, n)
    t = rng.uniform(0, 10, n)
    ok = True
    for family in FAMILIES:
        sigma2 = rng.uniform(0.1, 2.0)
        rho = rng.uniform(0.05, 2.0)
        tau = rng.uniform(0.5, 2.0)
        h = cg.PeriodicHyperparameters(sigma2, rho, tau, family=family)
        period_err = np.max(np.abs(kernel(h, s, s + tau) - kernel(h, s, s)))
        symmetric = np.array_equal(kernel(h, s, t), kernel(h, t, s))
        ok = ok and period_err < 1e-12 and symmetric
    report(2, "kernel periodicity and symmetry", ok)


def test_criterion_03_gram_psd(report):
    rng = np.random.default_rng(3)
    min_eig = np.inf
    for family in FAMILIES:
        for _ in range(100):
            n = rng.integers(2, 51)
            inputs = rng.uniform(0, 1, n)
            h = cg.PeriodicHyperparameters(rng.uniform(0.1, 5.0),
                                           rng.uniform(0.05, 0.5), 1.0,
                                           family=family, jitter=0.0)
            K = cg.gram(h, inputs)
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(K))))
    report(3, "Gram PSD pre-jitter", min_eig >= -1e-8, f"min eig {min_eig:.2e}")


def test_criterion_04_arc_length_consistency(report):
    errors = []
    for n in [8, 16, 32, 64, 128, 256, 512, 1024]:
        theta = 2 * np.pi * np.arange(n) / n
        poly = Curve(np.column_stack([np.cos(theta), np.sin(theta)]))
        errors.append(abs(2 * np.pi - polygon_length(poly)))
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    final_ok = errors[-1] < 1e-4

    curve = cg.generate_synthetic("star", 50, amplitude=0.25, petals=6)
    length = polygon_length(curve)
    arcs = curve.cumulative_arc
    seg_lengths = curve.segment_lengths
    rng = np.random.default_rng(11)
    round_trip_ok = True
    for s in rng.uniform(0, length, 1000):
        x = cg.arc_to_xy_param(curve, s)
        back = cg.xy_to_arc_param(curve, x)
        seg = seg_lengths[min(int(np.searchsorted(arcs, s, side="right")) - 1,
                              curve.n - 1)]
        err = min(abs(back - s), length - abs(back - s))
        if err > seg / 20 + 1e-12:
            round_trip_ok = False
    report(4, "arc-length consistency and round trip",
           monotone and final_ok and round_trip_ok,
           f"perimeter err {errors[-1]:.2e}")


def test_criterion_05_kriging_interpolation(report):
    start = time.perf_counter()
    curve = prep(cg.generate_synthetic("circle", 15))
    design = TrainingDesign.from_curves([curve])
    model = fit(design, ModelConfig(), OptimizerConfig(restarts=8, seed=0))
    # the fit's box is on the noise ratio eta = noise variance / sigma2
    lo, hi = MarginalLikelihoodObjective(design, ModelConfig()).eta_box
    eta = model.noise_variance / model.kernel.input_kernel.sigma2
    in_box = lo * (1 - 1e-12) <= eta <= hi * (1 + 1e-12)
    mean, _ = predict(model, design.s.repeat(2), np.tile([0, 1], len(design.s)))
    train_err = float(np.max(np.abs(mean - design.y.ravel())))
    pred = predict_curve(model, 0, 200)
    truth = prep(cg.generate_synthetic("circle", 4000))
    err = cg.imspe(pred.means, truth)
    elapsed = time.perf_counter() - start
    report(5, "kriging interpolation",
           in_box and train_err < 1e-3 and err < 1e-3 and elapsed < 30.0,
           f"train err {train_err:.1e}, IMSPE {err:.1e}, {elapsed:.1f}s")


def test_criterion_06_cyclic_invariance(report):
    curve = prep(cg.generate_synthetic("circle", 12))
    hyp = cg.PeriodicHyperparameters(0.5, 0.2, 1.0)  # tau = ell = 1
    kernel = MultiLevelKernel(hyp, CoregMatrix(np.array([[0.3], [0.2]]),
                                               np.array([0.5, 0.7])))

    def mean_set(c):
        model = assemble_model(TrainingDesign.from_curves([c]), kernel, 1e-5)
        return predict_curve(model, 0, 36).means

    def hausdorff(a, b):
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        return max(d.min(axis=1).max(), d.min(axis=0).max())

    ref = mean_set(curve)
    worst = max(hausdorff(ref, mean_set(Curve(np.roll(curve.points, -k, axis=0))))
                for k in range(1, curve.n))
    report(6, "cyclic-permutation invariance", worst < 1e-8,
           f"worst Hausdorff {worst:.1e}")


def test_criterion_07_block_diagonal_consistency(report):
    c1 = prep(cg.generate_synthetic("star", 12, rng_seed=1, noise_sd=0.02))
    c2 = prep(cg.generate_synthetic("ellipse", 12, rng_seed=2, noise_sd=0.02))
    hyp = cg.PeriodicHyperparameters(0.5, 0.2, 1.0)
    joint_kernel = MultiLevelKernel(hyp, CoregMatrix.identity(2),
                                    curve=CoregMatrix.identity(2))
    joint = assemble_model(TrainingDesign.from_curves([c1, c2]), joint_kernel, 1e-5)
    separate_kernel = MultiLevelKernel(hyp, CoregMatrix.identity(2))
    worst = 0.0
    for j, c in enumerate([c1, c2]):
        sep = assemble_model(TrainingDesign.from_curves([c]), separate_kernel, 1e-5)
        pj = predict_curve(joint, j, 40)
        ps = predict_curve(sep, 0, 40)
        worst = max(worst, float(np.max(np.abs(pj.means - ps.means))),
                    float(np.max(np.abs(pj.covariances - ps.covariances))))
    report(7, "block-diagonal joint vs separate", worst < 1e-10,
           f"max diff {worst:.1e}")


def test_criterion_08_reconstruction_benefit(report):
    start = time.perf_counter()
    amp, petals = 0.2, 4

    def star(theta):
        r = 1.0 + amp * np.cos(petals * theta)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    clustered = cg.generate_synthetic("star", 30, scheme="clustered",
                                      amplitude=amp, petals=petals)
    full1 = cg.generate_synthetic("star", 30, amplitude=amp, petals=petals)
    full2 = Curve(star(2 * np.pi * np.arange(30) / 30 + 0.05))
    curves, _ = cg.preprocess_collection([clustered, full1, full2],
                                         template_index=0)
    centroid = clustered.points.mean(axis=0)
    length = polygon_length(clustered)
    theta0 = np.arctan2(clustered.points[0, 1], clustered.points[0, 0])
    truth = Curve((star(theta0 + 2 * np.pi * np.arange(3000) / 3000)
                   - centroid) / length)
    opt = OptimizerConfig(restarts=4, maxiter=150, seed=0)
    _, joint_preds = cg.reconstruct(curves, ModelConfig(), opt, m=200)
    joint_err = cg.imspe(joint_preds[0].means, truth)
    _, sep_preds = cg.reconstruct([curves[0]], ModelConfig(), opt, m=200)
    sep_err = cg.imspe(sep_preds[0].means, truth)
    elapsed = time.perf_counter() - start
    report(8, "reconstruction benefit for clustered sampling",
           joint_err <= sep_err and elapsed < 60.0,
           f"joint {joint_err:.1e} <= separate {sep_err:.1e}, {elapsed:.1f}s")


def test_criterion_09_metric_oracles(report):
    rng = np.random.default_rng(4)
    brute_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(n, 2))
        brute = min(np.mean([np.sum((a[i] - b[p[i]]) ** 2) for i in range(n)])
                    for p in itertools.permutations(range(n)))
        if abs(cg.wasserstein2(a, b) - brute) > 1e-12:
            brute_ok = False

    from curvegp.model import PredictedCurve
    cov = np.array([[0.04, 0.04], [0.04, 0.04]])
    degenerate = PredictedCurve(grid=np.arange(5) / 5, means=np.zeros((5, 2)),
                                covariances=np.tile(cov, (5, 1, 1)))
    iuea_ok = cg.iuea(degenerate) == 0.0

    truth = cg.generate_synthetic("circle", 50)
    length = polygon_length(truth)
    pts = np.array([cg.arc_to_xy_param(truth, i * length / 40)
                    for i in range(40)]) + 0.1
    imspe_ok = abs(cg.imspe(pts, truth) - 0.02) < 1e-12
    report(9, "metric oracles", brute_ok and iuea_ok and imspe_ok)


def test_criterion_10_esd_invariance(report):
    star = cg.generate_synthetic("star", 100, amplitude=0.2, petals=5)
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    moved = Curve(np.roll(star.points, -17, axis=0) @ R.T * 1.9 + [0.3, -2.0])
    near = cg.esd(star, moved)
    circle = cg.generate_synthetic("circle", 100)
    ellipse = cg.generate_synthetic("ellipse", 100, axes=(1.0, 0.5))
    far = cg.esd(circle, ellipse)
    reg = cg.elastic_register(ellipse, circle)
    monotone = bool(np.all(np.diff(reg.energies) <= 1e-12))
    report(10, "ESD invariance and separation",
           near < 1e-2 and far > 0.1 and monotone,
           f"copy {near:.1e}, circle-ellipse {far:.3f}")


def test_criterion_11_sequential_landmark_oracle(report):
    curve = prep(cg.generate_synthetic("circle", 4))
    model = fit(TrainingDesign.from_curves([curve]), ModelConfig(),
                OptimizerConfig(restarts=4, seed=0))
    pred = predict_curve(model, 0, 1000)
    crit = 0.5 * pred.sd1 + 0.5 * pred.sd2
    oracle = float(pred.grid[int(np.argmax(crit))])
    selected = cg.sequential_landmark(model, 0.5, 1000)
    sd1_oracle = float(pred.grid[int(np.argmax(pred.sd1))])
    sd1_selected = cg.sequential_landmark(model, 1.0, 1000)
    report(11, "sequential landmark matches dense grid oracle",
           selected == oracle and sd1_selected == sd1_oracle,
           f"selected s*={selected:.4f}")


def test_criterion_12_simultaneous_landmark_oracle(report):
    curves = [prep(cg.generate_synthetic("star", 8, amplitude=0.15, petals=3,
                                         rng_seed=3))]
    model_config = ModelConfig()
    opt = OptimizerConfig(restarts=1, maxiter=60, seed=0)

    def fitted_alone(subset):  # the subset's own fit, outside the search's
        # lockstep, stopped where the search stops a trial
        subs = [Curve(c.points[list(subset)]) for c in curves]
        model, = fit_designs([TrainingDesign.from_curves(subs)], model_config, opt,
                             factr=TRIAL_FACTR)
        return _score_subset(curves, subs, model, "imspe")

    exhaustive = {subset: fitted_alone(subset)
                  for subset in itertools.combinations(range(8), 4)}
    best_exhaustive = min(exhaustive, key=exhaustive.get)
    config = cg.LandmarkConfig(p=4, n_trials=70, rng_seed=5)
    result = cg.simultaneous_landmarks(curves, config, model_config, opt)
    ok = (len(result.trials) == 70
          and result.indices == best_exhaustive
          and abs(result.score - exhaustive[best_exhaustive]) < 1e-12)
    report(12, "simultaneous landmark random search finds exhaustive optimum",
           ok, f"best subset {result.indices}")


def test_criterion_13_subpopulation_benefit(report):
    rng = np.random.default_rng(2)

    def shape_pts(kind, theta):
        if kind == "circle":
            return np.column_stack([np.cos(theta), np.sin(theta)])
        return np.column_stack([np.cos(theta), 0.5 * np.sin(theta)])

    curves, kinds, offsets = [], [], rng.uniform(0, 0.6, 6)
    for i in range(6):
        kind = "circle" if i < 3 else "ellipse"
        theta = 2 * np.pi * np.arange(10) / 10 + offsets[i]
        pts = shape_pts(kind, theta) + rng.normal(scale=0.03, size=(10, 2))
        curves.append(Curve(pts))
        kinds.append(kind)
    normalized = [prep(c) for c in curves]
    truths = []
    for i, c in enumerate(curves):
        centroid = c.points.mean(axis=0)
        length = polygon_length(c)
        theta = offsets[i] + 2 * np.pi * np.arange(2000) / 2000
        truths.append(Curve((shape_pts(kinds[i], theta) - centroid) / length))
    labels = ["c", "c", "c", "e", "e", "e"]
    opt = OptimizerConfig(restarts=4, maxiter=150, seed=0)
    grouped = fit(TrainingDesign.from_curves(normalized, labels), ModelConfig(), opt)
    pooled = fit(TrainingDesign.from_curves(normalized), ModelConfig(), opt)

    def mean_imspe(model):
        return float(np.mean([cg.imspe(predict_curve(model, j, 200).means, truths[j])
                              for j in range(6)]))

    grouped_err = mean_imspe(grouped)
    pooled_err = mean_imspe(pooled)

    renamed = fit(TrainingDesign.from_curves(normalized, [1, 1, 1, 3, 3, 3]),
                  ModelConfig(), opt)
    identical = all(np.array_equal(predict_curve(grouped, j, 50).means,
                                   predict_curve(renamed, j, 50).means)
                    for j in range(6))
    report(13, "sub-population class kernel benefit and label invariance",
           grouped_err <= pooled_err and identical,
           f"grouped {grouped_err:.1e} <= pooled {pooled_err:.1e}")


def test_criterion_14_gradient_check(report):
    rng = np.random.default_rng(17)
    c1 = prep(cg.generate_synthetic("star", 8, rng_seed=1, noise_sd=0.02))
    c2 = prep(cg.generate_synthetic("star", 8, rng_seed=2, noise_sd=0.02))
    design = TrainingDesign.from_curves([c1, c2], labels=["a", "b"])
    objective = MarginalLikelihoodObjective(design, ModelConfig())
    worst = 0.0
    for _ in range(20):
        theta = objective.random_start(rng)
        _, grad = one_row(objective, theta)
        for k in range(len(theta)):
            h = 1e-6 * max(1.0, abs(theta[k]))
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd = (objective.value(tp) - objective.value(tm)) / (2 * h)
            rel = abs(grad[k] - fd) / max(abs(fd), abs(grad[k]), 1e-8)
            worst = max(worst, rel)
    report(14, "analytic gradients match finite differences", worst < 1e-4,
           f"worst rel err {worst:.1e}")
