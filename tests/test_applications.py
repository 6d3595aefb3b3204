"""Application workflows: reconstruction, pointwise mean, landmarks,
sub-population fits."""

import numpy as np
import pytest

from curvegp.applications import (LandmarkConfig, fit_subpopulations,
                                  pointwise_mean, reconstruct,
                                  sequential_landmark, simultaneous_landmarks)
from curvegp.curves import Curve, generate_synthetic
from curvegp.errors import ValidationError
from curvegp.model import (ModelConfig, OptimizerConfig, TrainingDesign, fit,
                           predict_curve)
from curvegp.preprocess import center, scale_to_unit_length

FAST = OptimizerConfig(restarts=2, maxiter=100, seed=0)


def prep(curve):
    return scale_to_unit_length(center(curve))


class TestReconstruct:
    def test_single_curve_reduces_to_predict_curve(self):
        c = prep(generate_synthetic("circle", 12))
        model, preds = reconstruct([c], opt_config=FAST, m=50)
        direct = predict_curve(model, 0, 50)
        assert np.array_equal(preds[0].means, direct.means)

    def test_outputs_closed(self):
        c = prep(generate_synthetic("star", 15, amplitude=0.2))
        model, preds = reconstruct([c], opt_config=FAST, m=60)
        from curvegp.model import predict
        m0, _ = predict(model, [0.0, 0.0], [0, 1])
        m1, _ = predict(model, [1.0, 1.0], [0, 1])
        assert np.allclose(m0, m1, atol=1e-8)


class TestPointwiseMean:
    def test_single_curve(self):
        c = prep(generate_synthetic("ellipse", 12))
        model, _ = reconstruct([c], opt_config=FAST)
        mean = pointwise_mean(model, 40)
        assert np.allclose(mean.points, predict_curve(model, 0, 40).means)

    def test_duplicates_match_single(self):
        c = prep(generate_synthetic("circle", 10))
        design1 = TrainingDesign.from_curves([c])
        m1 = fit(design1, ModelConfig(), FAST)
        single = predict_curve(m1, 0, 30).means
        design3 = TrainingDesign.from_curves([c, c, c])
        m3 = fit(design3, ModelConfig(), FAST)
        triple = pointwise_mean(m3, 30).points
        assert np.max(np.abs(single - triple)) < 1e-3


class TestLandmarkConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            LandmarkConfig(p=2)
        with pytest.raises(ValidationError):
            LandmarkConfig(n_trials=0)
        with pytest.raises(ValidationError):
            LandmarkConfig(criterion="mse")

    def test_negative_seed_names_the_seed(self):
        # numpy once rejected it with "expected non-negative integer"
        with pytest.raises(ValidationError, match="seed"):
            LandmarkConfig(rng_seed=-1)


class TestSimultaneousLandmarks:
    def setup_method(self):
        self.curves = [prep(generate_synthetic("star", 8, amplitude=0.15,
                                               petals=3))]

    def test_deterministic(self):
        cfg = LandmarkConfig(p=4, n_trials=5, rng_seed=9)
        r1 = simultaneous_landmarks(self.curves, cfg, opt_config=FAST)
        r2 = simultaneous_landmarks(self.curves, cfg, opt_config=FAST)
        assert r1.indices == r2.indices
        assert r1.score == r2.score

    def test_best_not_worse_than_trials(self):
        cfg = LandmarkConfig(p=4, n_trials=10, rng_seed=1)
        res = simultaneous_landmarks(self.curves, cfg, opt_config=FAST)
        assert all(res.score <= score for _, score in res.trials)

    def test_full_point_set_scores_best(self):
        cfg_all = LandmarkConfig(p=8, n_trials=1, rng_seed=0)
        res_all = simultaneous_landmarks(self.curves, cfg_all, opt_config=FAST)
        cfg_sub = LandmarkConfig(p=4, n_trials=10, rng_seed=0)
        res_sub = simultaneous_landmarks(self.curves, cfg_sub, opt_config=FAST)
        assert res_all.score <= min(score for _, score in res_sub.trials) + 1e-9

    def test_p_exceeding_n_rejected(self):
        with pytest.raises(ValidationError):
            simultaneous_landmarks(self.curves, LandmarkConfig(p=10, n_trials=1))


class TestSequentialLandmark:
    def setup_method(self):
        c = prep(generate_synthetic("circle", 4))
        self.model = fit(TrainingDesign.from_curves([c]), ModelConfig(),
                         OptimizerConfig(restarts=4, seed=0))

    def test_matches_dense_grid_oracle(self):
        pred = predict_curve(self.model, 0, 1000)
        crit = 0.5 * pred.sd1 + 0.5 * pred.sd2
        oracle = float(pred.grid[int(np.argmax(crit))])
        assert sequential_landmark(self.model, 0.5, 1000) == oracle

    def test_lambda_one_is_sd1_argmax(self):
        pred = predict_curve(self.model, 0, 500)
        oracle = float(pred.grid[int(np.argmax(pred.sd1))])
        assert sequential_landmark(self.model, 1.0, 500) == oracle

    def test_selected_in_gap(self):
        s_star = sequential_landmark(self.model, 0.5, 1000)
        train = self.model.design.s[:4]
        gaps = np.min(np.abs(s_star - train))
        assert gaps > 0.05  # far from every training input

    def test_validation(self):
        with pytest.raises(ValidationError):
            sequential_landmark(self.model, 2.0)
        with pytest.raises(ValidationError):
            sequential_landmark(self.model, 0.5, n_candidates=5)


class TestFitSubpopulations:
    def make_classes(self):
        curves, labels = [], []
        rng = np.random.default_rng(2)
        for i in range(2):
            th = 2 * np.pi * np.arange(10) / 10 + rng.uniform(0, 0.5)
            curves.append(prep(Curve(np.column_stack([np.cos(th), np.sin(th)]))))
            labels.append("circle")
        for i in range(2):
            th = 2 * np.pi * np.arange(10) / 10 + rng.uniform(0, 0.5)
            curves.append(prep(Curve(np.column_stack([np.cos(th),
                                                      0.5 * np.sin(th)]))))
            labels.append("ellipse")
        return curves, labels

    def test_group_level_present(self):
        curves, labels = self.make_classes()
        model = fit_subpopulations(curves, labels, opt_config=FAST, align=False)
        assert model.kernel.group is not None
        assert model.design.n_groups == 2

    def test_label_renaming_bit_identical(self):
        curves, labels = self.make_classes()
        m1 = fit_subpopulations(curves, labels, opt_config=FAST, align=False)
        renamed = [1 if lab == "circle" else 3 for lab in labels]
        m2 = fit_subpopulations(curves, renamed, opt_config=FAST, align=False)
        for j in range(len(curves)):
            p1 = predict_curve(m1, j, 25).means
            p2 = predict_curve(m2, j, 25).means
            assert np.array_equal(p1, p2)

    def test_label_count_mismatch(self):
        curves, labels = self.make_classes()
        with pytest.raises(ValidationError):
            fit_subpopulations(curves, labels[:-1])

    def test_alignment_rotates_to_class_template(self):
        base = generate_synthetic("star", 20, amplitude=0.25, petals=7)
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        rotated = Curve(base.points @ R.T)
        curves = [prep(base), prep(rotated)]
        model = fit_subpopulations(curves, ["a", "a"], opt_config=FAST)
        # after alignment both curves contribute nearly identical designs
        d = model.design
        y0 = d.y[d.j == 0]
        y1 = d.y[d.j == 1]
        assert np.max(np.abs(y0 - y1)) < 1e-6
