"""Application workflows: reconstruction and landmarks."""

import numpy as np
import pytest

from curvegp.applications import (TRIAL_FACTR, LandmarkConfig, _score_subset,
                                  reconstruct, sequential_landmark,
                                  simultaneous_landmarks)
from curvegp.curves import Curve, generate_synthetic
from curvegp.errors import ValidationError
from curvegp.metrics import iuea
from curvegp.model import (LBFGS_FACTR, ModelConfig, OptimizerConfig, TrainingDesign,
                           fit, fit_designs, predict_curve)
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


class TestLandmarkConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            LandmarkConfig(p=2)
        with pytest.raises(ValidationError):
            LandmarkConfig(n_trials=0)
        with pytest.raises(ValidationError):
            LandmarkConfig(criterion="mse")
        # p = 4.0 or 4.5 once met a TypeError in the search, and n_trials =
        # 1.5 ran 2 trials
        for name, minimum in (("p", 3), ("n_trials", 1), ("rng_seed", 0)):
            for value in (4.5, 1.5, np.nan, np.inf, "3", None):
                with pytest.raises(ValidationError,
                                   match=f"{name} must be a whole number >= {minimum}"):
                    LandmarkConfig(**{name: value})
        assert LandmarkConfig(p=4.0, n_trials=2.0, rng_seed=9.0) == LandmarkConfig(
            p=4, n_trials=2, rng_seed=9)

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
        # whole-number floats are counts and a seed
        r3 = simultaneous_landmarks(self.curves, LandmarkConfig(p=4.0, n_trials=5.0,
                                                                rng_seed=9.0),
                                    opt_config=FAST)
        assert (r3.indices, r3.score, r3.trials) == (r1.indices, r1.score, r1.trials)

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

    def test_iuea_criterion(self):
        # a trial's iuea score is the iuea of the dense prediction of a fit
        # to the subset, here of the one curve, stopped where the search
        # stops a trial
        cfg = LandmarkConfig(p=4, n_trials=3, criterion="iuea", rng_seed=9)
        r1 = simultaneous_landmarks(self.curves, cfg, opt_config=FAST)
        r2 = simultaneous_landmarks(self.curves, cfg, opt_config=FAST)
        assert r1.indices == r2.indices
        assert r1.score == r2.score == min(score for _, score in r1.trials)
        assert np.isfinite([score for _, score in r1.trials]).all()
        curve = self.curves[0]
        design = TrainingDesign.from_curves([Curve(curve.points[list(r1.indices)])])
        model, = fit_designs([design], opt_config=FAST, factr=TRIAL_FACTR)
        assert r1.score == iuea(predict_curve(model, 0, m=curve.n))

    def test_p_exceeding_n_rejected(self):
        with pytest.raises(ValidationError):
            simultaneous_landmarks(self.curves, LandmarkConfig(p=10, n_trials=1))


class TestTrialStop:
    """Landmark trials stop at `TRIAL_FACTR`, every other fit at scipy's
    `LBFGS_FACTR`."""

    def setup_method(self):
        self.curves = [generate_synthetic("star", 12, rng_seed=k, noise_sd=0.01)
                       for k in (1, 2, 3)]
        self.opt = OptimizerConfig(restarts=2)
        self.result = simultaneous_landmarks(
            self.curves, LandmarkConfig(p=4, n_trials=4, rng_seed=2), opt_config=self.opt)
        self.subs = [[Curve(c.points[list(subset)]) for c in self.curves]
                     for subset, _ in self.result.trials]
        self.designs = [TrainingDesign.from_curves(sub) for sub in self.subs]

    def test_trials_stop_early_and_rank_as_at_scipys_stop(self):
        nfev, order = {}, {}
        for factr in (LBFGS_FACTR, TRIAL_FACTR):
            models = fit_designs(self.designs, None, self.opt, factr=factr)
            nfev[factr] = sum(record["nfev"] for model in models
                              for record in model.diagnostics["restarts"])
            scores = [_score_subset(self.curves, sub, model, "imspe")
                      for sub, model in zip(self.subs, models)]
            order[factr] = sorted(range(len(scores)), key=scores.__getitem__)
            if factr == TRIAL_FACTR:  # the search's own fits
                assert scores == [score for _, score in self.result.trials]
        assert nfev[TRIAL_FACTR] <= 0.75 * nfev[LBFGS_FACTR], nfev
        assert order[TRIAL_FACTR] == order[LBFGS_FACTR]
        assert self.result.indices == self.result.trials[order[LBFGS_FACTR][0]][0]

    def test_other_fits_keep_scipys_stop(self):
        design = self.designs[0]
        records = fit(design, opt_config=self.opt).diagnostics["restarts"]
        assert fit_designs([design], None, self.opt)[0].diagnostics["restarts"] == records
        # a trial's run ends by the same test of L-BFGS-B, only sooner
        early = fit_designs([design], None, self.opt,
                            factr=TRIAL_FACTR)[0].diagnostics["restarts"]
        assert sum(r["nfev"] for r in early) < sum(r["nfev"] for r in records)
        assert {r["message"] for r in early + records} == {
            "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"}


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
        # a grid size that is not a whole number once met numpy's TypeError
        # in predict_curve
        for n_candidates in (20.5, 1.5, np.nan, np.inf, "3", None):
            with pytest.raises(ValidationError,
                               match="n_candidates must be a whole number >= 10"):
                sequential_landmark(self.model, 0.5, n_candidates)
        assert (sequential_landmark(self.model, 0.5, 50.0)
                == sequential_landmark(self.model, 0.5, 50))
