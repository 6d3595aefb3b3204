"""GP model: marginal likelihood, fitting, prediction."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from curvegp.coreg import CoregMatrix, MultiLevelKernel, multilevel_gram
from curvegp.curves import Curve, generate_synthetic
from curvegp.errors import NumericalError, ValidationError
from curvegp.kernels import NoiseSpec, PeriodicHyperparameters
from curvegp.model import (ModelConfig, OptimizerConfig, TrainingDesign,
                           assemble_model, fit, log_marginal_likelihood,
                           make_objective, predict, predict_curve)
from curvegp.preprocess import center, scale_to_unit_length

IDENTITY_2 = CoregMatrix.identity(2)


def single_row_design(y):
    return TrainingDesign(s=np.array([0.0]), d=np.array([0]), j=np.array([0]),
                          g=np.array([0]), y=np.array([y]),
                          lengths=np.array([1.0]))


def circle_design(n=15):
    c = scale_to_unit_length(center(generate_synthetic("circle", n)))
    return TrainingDesign.from_curves([c]), c


class TestTrainingDesign:
    def test_two_rows_per_point(self):
        design, c = circle_design(10)
        assert design.n_rows == 20
        assert np.array_equal(design.d[:2], [0, 1])
        assert design.s[0] == design.s[1]

    def test_unit_length_after_preprocessing(self):
        design, _ = circle_design(10)
        assert design.lengths[0] == pytest.approx(1.0, abs=1e-12)

    def test_label_encoding_by_first_appearance(self):
        c = generate_synthetic("circle", 5)
        d1 = TrainingDesign.from_curves([c, c, c], labels=["b", "a", "b"])
        d2 = TrainingDesign.from_curves([c, c, c], labels=[7, 3, 7])
        assert np.array_equal(d1.g, d2.g)
        assert d1.n_groups == 2

    def test_label_count_mismatch(self):
        c = generate_synthetic("circle", 5)
        with pytest.raises(ValidationError):
            TrainingDesign.from_curves([c], labels=["a", "b"])


class TestLogMarginalLikelihood:
    def test_unit_variance_zero_observation(self):
        # sigma2 + jitter + noise = 0.9989 + 1e-3 + 1e-4 = 1.0
        hyp = PeriodicHyperparameters(0.9989, 0.3, 1.0)
        kernel = MultiLevelKernel(hyp, IDENTITY_2)
        noise = NoiseSpec(noise_variance=1e-4, jitter=1e-3)
        value = log_marginal_likelihood(single_row_design(0.0), kernel, noise)
        assert value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-5)
        assert value == pytest.approx(-0.91894, abs=1e-4)

    def test_unit_variance_unit_observation(self):
        hyp = PeriodicHyperparameters(0.9989, 0.3, 1.0)
        kernel = MultiLevelKernel(hyp, IDENTITY_2)
        noise = NoiseSpec(noise_variance=1e-4, jitter=1e-3)
        value = log_marginal_likelihood(single_row_design(1.0), kernel, noise)
        assert value == pytest.approx(-0.5 - 0.5 * np.log(2 * np.pi), abs=1e-4)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        design = TrainingDesign(s=rng.uniform(0, 1, 3),
                                d=np.array([0, 1, 0]), j=np.zeros(3, dtype=int),
                                g=np.zeros(3, dtype=int), y=rng.normal(size=3),
                                lengths=np.array([1.0]))
        hyp = PeriodicHyperparameters(1.3, 0.25, 1.0)
        D = CoregMatrix(np.array([[0.6], [0.4]]), np.array([0.5, 0.5]))
        kernel = MultiLevelKernel(hyp, D)
        noise = NoiseSpec(noise_variance=1e-4, jitter=1e-3)
        value = log_marginal_likelihood(design, kernel, noise)
        K = multilevel_gram(kernel, noise, design.s, design.d, design.j,
                            design.g) + 1e-4 * np.eye(3)
        y = design.y
        oracle = (-0.5 * y @ np.linalg.inv(K) @ y
                  - 0.5 * np.log(np.linalg.det(K))
                  - 1.5 * np.log(2 * np.pi))
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_alpha_equals_cho_solve(self):
        # nugget jitter keeps the dense N x N path and its one factor
        design, _ = circle_design(12)
        hyp = PeriodicHyperparameters(1.1, 0.2, float(design.lengths[0]))
        model = assemble_model(design, MultiLevelKernel(hyp, IDENTITY_2),
                               NoiseSpec(noise_variance=1e-5, jitter_mode="nugget"))
        assert len(model.chol) == 1 and model.chol[0].shape == (24, 24)
        expected = cho_solve((model.chol[0], True), design.y)
        assert model.alpha.tobytes() == expected.tobytes()


class TestFit:
    def test_interpolates_noiseless_circle(self):
        design, c = circle_design(15)
        model = fit(design, ModelConfig(), OptimizerConfig(restarts=4, seed=0))
        mean, _ = predict(model, design.s, design.d)
        assert np.max(np.abs(mean - design.y)) < 1e-3
        lo, hi = model.noise.noise_box
        assert lo <= model.noise.noise_variance <= hi

    def test_rho_recovery_within_factor_two(self):
        rng = np.random.default_rng(21)
        n = 50
        s = np.sort(rng.uniform(0, 1, n))
        rho_true = 0.1
        hyp = PeriodicHyperparameters(1.0, rho_true, 1.0)
        kernel = MultiLevelKernel(hyp, IDENTITY_2)
        noise = NoiseSpec(noise_variance=1e-5, jitter=0.0)
        d = np.zeros(n, dtype=int)
        K = multilevel_gram(kernel, noise, s, d) + 1e-5 * np.eye(n)
        y = np.linalg.cholesky(K) @ rng.normal(size=n)
        design = TrainingDesign(s=s, d=d, j=np.zeros(n, dtype=int),
                                g=np.zeros(n, dtype=int), y=y,
                                lengths=np.array([1.0]))
        model = fit(design, ModelConfig(fit_coord=False, jitter=0.0),
                    OptimizerConfig(restarts=6, seed=1))
        rho_hat = model.kernel.input_kernel.rho
        assert rho_true / 2 <= rho_hat <= rho_true * 2

    def test_restart_scores_logged_and_best_selected(self):
        design, _ = circle_design(8)
        model = fit(design, ModelConfig(), OptimizerConfig(restarts=3, seed=0))
        scores = model.diagnostics["restart_scores"]
        assert len(scores) >= 1
        assert model.diagnostics["best_restart"] == int(np.argmax(scores))

    def test_deterministic_given_seed(self):
        design, _ = circle_design(8)
        m1 = fit(design, ModelConfig(), OptimizerConfig(restarts=2, seed=5))
        m2 = fit(design, ModelConfig(), OptimizerConfig(restarts=2, seed=5))
        assert m1.kernel.input_kernel.rho == m2.kernel.input_kernel.rho
        assert m1.log_marginal_likelihood == m2.log_marginal_likelihood

    def test_annealing_switch(self):
        design, _ = circle_design(6)
        model = fit(design, ModelConfig(),
                    OptimizerConfig(method="anneal", seed=0, maxiter=100))
        assert model.diagnostics["method"] == "anneal"
        assert np.isfinite(model.log_marginal_likelihood)
        (record,) = model.diagnostics["restarts"]
        assert record["restart"] == 0 and record["nfev"] > 0
        assert isinstance(record["message"], str)

    @staticmethod
    def fail_when_correlated(monkeypatch, threshold):
        """Make the factorization fail wherever neighbouring points correlate
        above the threshold, a band of large rho in the box."""
        import curvegp.model as model
        factor = model._chol_with_ladder

        def flaky(blocks):
            first = np.asarray(blocks)[0]
            if first[0, 1] > threshold * first[0, 0]:
                raise NumericalError("forced factorization failure")
            return factor(blocks)

        monkeypatch.setattr(model, "_chol_with_ladder", flaky)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in scipy
    def test_annealing_skips_points_that_cannot_be_factored(self, monkeypatch):
        self.fail_when_correlated(monkeypatch, 0.5)
        design, _ = circle_design(6)
        model = fit(design, ModelConfig(),
                    OptimizerConfig(method="anneal", seed=0, maxiter=100))
        assert np.isfinite(model.log_marginal_likelihood)
        K = model.chol[0] @ model.chol[0].T
        assert K[0, 1] <= 0.5 * K[0, 0]

    def test_annealing_with_no_factorable_point_is_numerical(self, monkeypatch):
        self.fail_when_correlated(monkeypatch, -np.inf)
        design, _ = circle_design(6)
        with pytest.raises(NumericalError, match="no point"):
            fit(design, ModelConfig(),
                OptimizerConfig(method="anneal", seed=0, maxiter=100))

    def test_unknown_method_rejected(self):
        design, _ = circle_design(6)
        with pytest.raises(ValidationError):
            fit(design, ModelConfig(), OptimizerConfig(method="nelder"))

    def test_duplicated_curve_gets_positive_coupling(self):
        c = scale_to_unit_length(center(generate_synthetic("star", 12,
                                                           amplitude=0.2)))
        design = TrainingDesign.from_curves([c, c])
        model = fit(design, ModelConfig(), OptimizerConfig(restarts=4, seed=2))
        C = model.kernel.curve.matrix
        corr = C[0, 1] / np.sqrt(C[0, 0] * C[1, 1])
        assert corr > 0.9


class TestPredict:
    def setup_method(self):
        self.design, self.curve = circle_design(12)
        hyp = PeriodicHyperparameters(0.5, 0.2, 1.0)
        kernel = MultiLevelKernel(hyp, IDENTITY_2)
        self.noise = NoiseSpec(noise_variance=1e-6, jitter=1e-3)
        self.model = assemble_model(self.design, kernel, self.noise)

    def test_interpolation_at_training_inputs(self):
        mean, cov = predict(self.model, self.design.s, self.design.d)
        assert np.max(np.abs(mean - self.design.y)) < 1e-3
        assert np.max(np.diag(cov)) < 1e-4

    def test_means_alone_equal_predict_means(self):
        # the landmark score takes the means without the covariance
        from curvegp.model import _predict_mean
        s = np.repeat([0.11, 0.52, 0.9, 0.3], 2)
        d = np.tile([0, 1], 4)
        paired = assemble_model(paired_design(n_curves=2, n=6),
                                self.model.kernel, self.noise)
        for model, j in ((self.model, None), (paired, np.repeat([0, 1, 1, 0], 2))):
            assert model.split
            mean, _ = predict(model, s, d, j)
            assert _predict_mean(model, s, d, j).tobytes() == mean.tobytes()
        dense = assemble_model(self.design, self.model.kernel,
                               NoiseSpec(1e-6, jitter=1e-3, jitter_mode="nugget"))
        assert not dense.split
        mean, _ = predict(dense, s, d)
        assert _predict_mean(dense, s, d).tobytes() == mean.tobytes()

    def test_periodic_query_consistency(self):
        m1, c1 = predict(self.model, [0.3], [0])
        m2, c2 = predict(self.model, [1.3], [0])
        assert m1[0] == pytest.approx(m2[0], abs=1e-10)
        assert c1[0, 0] == pytest.approx(c2[0, 0], abs=1e-10)

    def test_matches_dense_oracle(self):
        d = self.design
        K = multilevel_gram(self.model.kernel, self.noise, d.s, d.d, d.j, d.g)
        K = K + self.noise.noise_variance * np.eye(d.n_rows)
        sq = np.array([0.11, 0.52, 0.9])
        dq = np.array([0, 1, 0])
        cross = multilevel_gram(self.model.kernel, self.noise, sq, dq,
                                np.zeros(3, dtype=int), np.zeros(3, dtype=int),
                                s_b=d.s, d_b=d.d, j_b=d.j, g_b=d.g)
        Kqq = multilevel_gram(self.model.kernel, self.noise, sq, dq,
                              np.zeros(3, dtype=int), np.zeros(3, dtype=int))
        Kinv = np.linalg.inv(K)
        mean_oracle = cross @ Kinv @ d.y
        cov_oracle = Kqq - cross @ Kinv @ cross.T
        mean, cov = predict(self.model, sq, dq)
        assert np.allclose(mean, mean_oracle, atol=1e-9)
        assert np.allclose(cov, cov_oracle, atol=1e-9)

    @pytest.mark.parametrize("jitter_mode", ["constant", "nugget"])
    def test_matches_dense_oracle_with_levels(self, jitter_mode):
        # a full coordinate factor, curves and groups: the split path
        # (constant jitter) against the N x N inverse, and the dense path
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 9, rng_seed=k, noise_sd=0.01))) for k in range(3)]
        design = TrainingDesign.from_curves(curves, labels=["a", "b", "a"])
        hyp = PeriodicHyperparameters(0.5, 0.2, float(np.mean(design.lengths)))
        kernel = MultiLevelKernel(
            hyp, CoregMatrix(np.array([[0.6], [-0.3]]), np.array([0.4, 0.7])),
            curve=CoregMatrix(np.array([[0.9], [0.5], [0.8]]), np.full(3, 0.2)),
            group=CoregMatrix(np.array([[0.7], [0.2]]), np.array([0.3, 0.6])))
        noise = NoiseSpec(noise_variance=1e-5, jitter_mode=jitter_mode)
        model = assemble_model(design, kernel, noise)
        assert model.split == (jitter_mode == "constant")
        assert len(model.chol) == (2 if model.split else 1)
        d = design
        K = multilevel_gram(kernel, noise, d.s, d.d, d.j, d.g) + 1e-5 * np.eye(d.n_rows)
        Kinv = np.linalg.inv(K)
        # paired rows of curve 1, then unpaired rows over curves 0 and 2
        queries = [(np.repeat([0.05, 0.4, 0.77], 2), np.tile([0, 1], 3),
                    np.full(6, 1)),
                   (np.array([0.3, 0.1, 0.3, 0.9]), np.array([1, 0, 0, 1]),
                    np.array([0, 2, 0, 2]))]
        for sq, dq, jq in queries:
            gq = np.array([d.group_of_curve(c) for c in jq])
            cross = multilevel_gram(kernel, noise, sq, dq, jq, gq,
                                    s_b=d.s, d_b=d.d, j_b=d.j, g_b=d.g)
            Kqq = multilevel_gram(kernel, noise, sq, dq, jq, gq)
            mean, cov = predict(model, sq, dq, jq, gq)
            assert np.max(np.abs(mean - cross @ Kinv @ d.y)) <= 1e-9
            assert np.max(np.abs(cov - (Kqq - cross @ Kinv @ cross.T))) <= 1e-9
        m = 25
        for curve in range(3):
            pred = predict_curve(model, curve, m)
            sq = np.repeat(pred.grid, 2)
            dq = np.tile([0, 1], m)
            jq = np.full(2 * m, curve)
            gq = np.full(2 * m, d.group_of_curve(curve))
            cross = multilevel_gram(kernel, noise, sq, dq, jq, gq,
                                    s_b=d.s, d_b=d.d, j_b=d.j, g_b=d.g)
            Kqq = multilevel_gram(kernel, noise, sq, dq, jq, gq)
            cov = Kqq - cross @ Kinv @ cross.T
            blocks = np.array([cov[2 * i:2 * i + 2, 2 * i:2 * i + 2]
                               for i in range(m)])
            assert np.max(np.abs(pred.means.ravel() - cross @ Kinv @ d.y)) <= 1e-9
            assert np.max(np.abs(pred.covariances - blocks)) <= 1e-9

    def test_rejects_coordinate_out_of_range(self):
        for d in (2, -1):
            with pytest.raises(ValidationError):
                predict(self.model, [0.1, 0.1], [0, d])

    def test_noise_monotonicity(self):
        variances = []
        for nv in [1e-6, 1e-5, 1e-4]:
            noise = NoiseSpec(noise_variance=nv, jitter=1e-3)
            m = assemble_model(self.design, self.model.kernel, noise)
            _, cov = predict(m, [0.37], [0])
            variances.append(cov[0, 0])
        assert variances[0] <= variances[1] + 1e-12
        assert variances[1] <= variances[2] + 1e-12

    def test_data_augmentation_contracts_variance(self):
        d = self.design
        _, cov_full = predict(self.model, [0.41], [0])
        sub = TrainingDesign(s=d.s[:-2], d=d.d[:-2], j=d.j[:-2], g=d.g[:-2],
                             y=d.y[:-2], lengths=d.lengths)
        m_sub = assemble_model(sub, self.model.kernel, self.noise)
        _, cov_sub = predict(m_sub, [0.41], [0])
        assert cov_full[0, 0] <= cov_sub[0, 0] + 1e-12

    def test_posterior_covariance_psd(self):
        grid = np.linspace(0, 0.9, 10)
        s = np.repeat(grid, 2)
        d = np.tile([0, 1], 10)
        _, cov = predict(self.model, s, d)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10


class TestPredictCurve:
    def test_independent_coordinates_no_cross(self):
        design, _ = circle_design(10)
        hyp = PeriodicHyperparameters(0.5, 0.2, 1.0)
        model = assemble_model(design, MultiLevelKernel(hyp, IDENTITY_2),
                               NoiseSpec(noise_variance=1e-5))
        pred = predict_curve(model, 0, 25)
        assert np.max(np.abs(pred.cross)) < 1e-12

    def test_closure_of_mean(self):
        design, _ = circle_design(10)
        hyp = PeriodicHyperparameters(0.5, 0.2, 1.0)
        model = assemble_model(design, MultiLevelKernel(hyp, IDENTITY_2),
                               NoiseSpec(noise_variance=1e-5))
        m0, _ = predict(model, [0.0, 0.0], [0, 1])
        m1, _ = predict(model, [1.0, 1.0], [0, 1])
        assert np.allclose(m0, m1, atol=1e-8)

    def test_per_point_covariances_psd(self):
        design, _ = circle_design(10)
        model = fit(design, ModelConfig(), OptimizerConfig(restarts=2, seed=0))
        pred = predict_curve(model, 0, 40)
        for cov in pred.covariances:
            assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10

    @pytest.mark.parametrize("jitter_mode", ["constant", "nugget"])
    def test_blocks_match_full_covariance(self, jitter_mode):
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 9, rng_seed=k, noise_sd=0.01))) for k in range(3)]
        design = TrainingDesign.from_curves(curves, labels=["a", "b", "a"])
        hyp = PeriodicHyperparameters(0.5, 0.2, float(np.mean(design.lengths)))
        kernel = MultiLevelKernel(
            hyp, CoregMatrix(np.array([[0.6], [0.3]]), np.array([0.4, 0.7])),
            curve=CoregMatrix(np.array([[0.9], [0.5], [0.8]]), np.full(3, 0.2)),
            group=CoregMatrix(np.array([[0.7], [0.2]]), np.array([0.3, 0.6])))
        model = assemble_model(design, kernel, NoiseSpec(
            noise_variance=1e-5, jitter_mode=jitter_mode))
        m = 30
        for curve in range(3):
            pred = predict_curve(model, curve, m)
            g = design.group_of_curve(curve)
            mean, cov = predict(model, np.repeat(pred.grid, 2), np.tile([0, 1], m),
                                np.full(2 * m, curve), np.full(2 * m, g))
            blocks = np.array([cov[2 * i:2 * i + 2, 2 * i:2 * i + 2]
                               for i in range(m)])
            assert np.max(np.abs(pred.means - mean.reshape(m, 2))) <= 1e-12
            assert np.max(np.abs(pred.covariances - blocks)) <= 1e-12

    def test_rejects_small_grid(self):
        design, _ = circle_design(10)
        model = fit(design, ModelConfig(), OptimizerConfig(restarts=1, seed=0))
        with pytest.raises(ValidationError):
            predict_curve(model, 0, 2)

    def test_rejects_curve_index_out_of_range(self):
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 9, rng_seed=k, noise_sd=0.01))) for k in range(2)]
        design = TrainingDesign.from_curves(curves)
        hyp = PeriodicHyperparameters(0.5, 0.2, float(np.mean(design.lengths)))
        kernel = MultiLevelKernel(
            hyp, CoregMatrix(np.array([[0.6], [0.3]]), np.array([0.4, 0.7])),
            curve=CoregMatrix(np.array([[0.9], [0.5]]), np.full(2, 0.2)))
        model = assemble_model(design, kernel, NoiseSpec(noise_variance=1e-5))
        assert predict_curve(model, 1, 10).means.shape == (10, 2)
        for curve in (2, -1, 7):
            with pytest.raises(ValidationError, match="out of range"):
                predict_curve(model, curve, 10)

    def test_predict_without_groups_takes_group_of_curve(self):
        # curve 1 is the only curve of group "b"; without g its rows must
        # still meet group b's row of the group-level matrix
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 9, rng_seed=k, noise_sd=0.01))) for k in range(3)]
        design = TrainingDesign.from_curves(curves, labels=["a", "b", "a"])
        hyp = PeriodicHyperparameters(0.5, 0.2, float(np.mean(design.lengths)))
        kernel = MultiLevelKernel(
            hyp, CoregMatrix(np.array([[0.6], [0.3]]), np.array([0.4, 0.7])),
            curve=CoregMatrix(np.array([[0.9], [0.5], [0.8]]), np.full(3, 0.2)),
            group=CoregMatrix(np.array([[0.7], [0.2]]), np.array([0.3, 0.6])))
        model = assemble_model(design, kernel, NoiseSpec(noise_variance=1e-5))
        m = 30
        for curve in range(3):
            pred = predict_curve(model, curve, m)
            mean, _ = predict(model, np.repeat(pred.grid, 2), np.tile([0, 1], m),
                              np.full(2 * m, curve))
            assert np.max(np.abs(pred.means - mean.reshape(m, 2))) <= 1e-12
        for curve in (-1, 3):
            with pytest.raises(ValidationError):
                predict(model, [0.1], [0], [curve])


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        c1 = generate_synthetic("star", 8, rng_seed=1, noise_sd=0.02)
        c2 = generate_synthetic("star", 8, rng_seed=2, noise_sd=0.02)
        design = TrainingDesign.from_curves(
            [scale_to_unit_length(center(c1)), scale_to_unit_length(center(c2))],
            labels=["a", "b"])
        obj = make_objective(design, ModelConfig(fit_group=True))
        for _ in range(5):
            theta = obj.random_start(rng)
            _, grad = obj.value_and_grad(theta)
            for k in range(len(theta)):
                h = 1e-6 * max(1.0, abs(theta[k]))
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                fd = (obj.value(tp) - obj.value(tm)) / (2 * h)
                denom = max(abs(fd), abs(grad[k]), 1e-8)
                assert abs(grad[k] - fd) / denom < 1e-4


def dense_dk_oracle(obj, theta):
    """-log p(y) and its gradient with one dense dK per parameter, reduced
    against A = alpha alpha^T - K^-1 with K^-1 from cho_solve(L, I)."""
    cfg, design = obj.config, obj.design
    n = design.n_rows
    eye = np.eye(n)
    sigma2, rho, noise_var = np.exp(theta[:3])
    r = np.abs(design.s[:, None] - design.s[None, :])
    if cfg.family == "periodic_rbf":
        u = np.sin(np.pi * r / obj.tau) ** 2
        corr = np.exp(-u / rho)
        dcorr = corr * u / rho
    else:
        dist = 2.0 * np.abs(np.sin(np.pi * r / obj.tau))
        if cfg.family == "periodic_matern32":
            a = np.sqrt(3.0) * dist / rho
            corr = (1.0 + a) * np.exp(-a)
            dcorr = a ** 2 * np.exp(-a)
        else:
            a = dist / rho
            corr = np.exp(-a)
            dcorr = a * corr
    base = sigma2 * corr
    jitter = cfg.jitter if cfg.jitter_mode == "constant" else cfg.jitter * eye
    factors, coregs = {}, {}
    for name, idx, size, rank, free in obj.levels:
        if free:
            w_sl, k_sl = obj.slices[name]
            W = theta[w_sl].reshape(size, rank)
            kappa = np.exp(theta[k_sl])
            coregs[name] = (idx, W, kappa)
            B = W @ W.T + np.diag(kappa)
        else:
            B = np.eye(size)
        factors[name] = B[idx[:, None], idx[None, :]]
    Bfull = np.prod(list(factors.values()), axis=0)
    K = (base + jitter) * Bfull + noise_var * eye
    dKs = [base * Bfull, sigma2 * dcorr * Bfull, noise_var * eye]
    for name, (idx, W, kappa) in coregs.items():
        others = np.prod([F for other, F in factors.items() if other != name]
                         + [np.ones((n, n))], axis=0)
        pre = (base + jitter) * others
        size, rank = W.shape
        for a in range(size):
            for k in range(rank):
                dB = np.zeros((size, size))
                dB[a, :] += W[:, k]
                dB[:, a] += W[:, k]
                dKs.append(pre * dB[idx[:, None], idx[None, :]])
        for a in range(size):
            dB = np.zeros((size, size))
            dB[a, a] = kappa[a]
            dKs.append(pre * dB[idx[:, None], idx[None, :]])
    c = cho_factor(K, lower=True)
    y = design.y
    alpha = cho_solve(c, y)
    nll = (0.5 * y @ alpha + np.sum(np.log(np.diag(c[0])))
           + 0.5 * n * np.log(2 * np.pi))
    A = np.outer(alpha, alpha) - cho_solve(c, eye)
    return nll, np.array([-0.5 * np.sum(A * dK) for dK in dKs])


LEVEL_CASES = {
    # name: (curves, labels, ModelConfig level settings)
    "coord-only-rank2": (1, None, dict(coord_rank=2)),
    "all-fixed": (1, None, dict(fit_coord=False)),
    "all-free-rank1": (3, ["a", "b", "a"], dict(fit_group=True)),
    "all-free-rank2": (3, ["a", "b", "a"], dict(
        fit_group=True, coord_rank=2, curve_rank=2, group_rank=2)),
    "coord-fixed": (3, ["a", "b", "a"], dict(
        fit_coord=False, curve_rank=2, fit_group=True)),
    "curve-and-group-fixed": (3, ["a", "b", "a"], dict(
        fit_curve=False, coord_rank=2)),
    "group-free-only": (3, ["a", "b", "b"], dict(
        fit_coord=False, fit_curve=False, fit_group=True, group_rank=2)),
}


class TestContractedGradient:
    @pytest.mark.parametrize("case", sorted(LEVEL_CASES))
    @pytest.mark.parametrize("jitter_mode", ["constant", "nugget"])
    @pytest.mark.parametrize("family", ["periodic_rbf", "periodic_matern32",
                                        "periodic_matern12"])
    def test_matches_dense_dk_oracle(self, family, jitter_mode, case):
        n_curves, labels, levels = LEVEL_CASES[case]
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 6, rng_seed=k, noise_sd=0.02))) for k in range(n_curves)]
        design = TrainingDesign.from_curves(curves, labels)
        obj = make_objective(design, ModelConfig(
            family=family, jitter_mode=jitter_mode, **levels))
        # constant jitter splits K on the coordinate level; nugget does not
        assert obj.split == (jitter_mode == "constant")
        rng = np.random.default_rng(3)
        for _ in range(3):
            theta = obj.random_start(rng)
            value, grad = obj.value_and_grad(theta)
            value_oracle, grad_oracle = dense_dk_oracle(obj, theta)
            assert len(grad) == len(grad_oracle) == obj.n_params
            assert obj.value(theta) == value
            assert abs(value - value_oracle) <= 1e-10 * abs(value_oracle)
            assert (np.max(np.abs(grad - grad_oracle))
                    <= 1e-10 * np.max(np.abs(grad_oracle)))


class TestSharedGramBuilder:
    @pytest.mark.parametrize("case", sorted(LEVEL_CASES))
    @pytest.mark.parametrize("jitter_mode", ["constant", "nugget"])
    @pytest.mark.parametrize("family", ["periodic_rbf", "periodic_matern32",
                                        "periodic_matern12"])
    def test_objective_gram_is_multilevel_gram(self, family, jitter_mode, case):
        n_curves, labels, levels = LEVEL_CASES[case]
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 6, rng_seed=k, noise_sd=0.02))) for k in range(n_curves)]
        design = TrainingDesign.from_curves(curves, labels)
        obj = make_objective(design, ModelConfig(
            family=family, jitter_mode=jitter_mode, **levels))
        rng = np.random.default_rng(5)
        n = design.n_rows
        for _ in range(3):
            theta = obj.random_start(rng)
            K, grads = obj.gram_and_grads(theta)
            kernel, noise = obj.unpack(theta)
            full = multilevel_gram(kernel, noise, design.s, design.d,
                                   design.j, design.g)
            if jitter_mode == "constant":
                # the point Gram is the Gram without the coordinate factor
                points = slice(None, None, 2)
                expected = multilevel_gram(
                    replace(kernel, coord=IDENTITY_2), noise, design.s[points],
                    np.zeros(n // 2, dtype=int), design.j[points], design.g[points])
                assert K.shape == (n // 2, n // 2)
                assert np.array_equal(K, expected)
                assert (np.max(np.abs(np.kron(K, kernel.coord.matrix) - full))
                        <= 1e-15 * np.max(np.abs(full)))
            else:
                assert np.array_equal(K, full)
            assert len(grads) == 3
            assert all(G.shape == K.shape for G in grads)


def paired_design(n_curves=2, n=8, labels=None):
    curves = [scale_to_unit_length(center(generate_synthetic(
        "star", n, rng_seed=k, noise_sd=0.02))) for k in range(n_curves)]
    return TrainingDesign.from_curves(curves, labels)


class TestCoordinateSplit:
    def test_dense_path_for_nugget_and_unpaired_designs(self):
        design = paired_design()
        n = design.n_rows
        assert make_objective(design, ModelConfig()).split
        assert not make_objective(design, ModelConfig(jitter_mode="nugget")).split
        # the same rows with the two coordinates of every point swapped
        swap = np.arange(n).reshape(-1, 2)[:, ::-1].ravel()
        unpaired = TrainingDesign(s=design.s[swap], d=design.d[swap],
                                  j=design.j[swap], g=design.g[swap],
                                  y=design.y[swap], lengths=design.lengths)
        obj = make_objective(unpaired, ModelConfig())
        assert not obj.split
        theta = obj.default_start()
        K, grads = obj.gram_and_grads(theta)
        assert K.shape == (n, n) and all(G.shape == (n, n) for G in grads)
        paired = make_objective(design, ModelConfig())
        assert paired.gram_and_grads(theta)[0].shape == (n // 2, n // 2)
        # the same likelihood whichever path the row order selects
        value, grad = obj.value_and_grad(theta)
        value_split, grad_split = paired.value_and_grad(theta)
        assert abs(value - value_split) <= 1e-10 * abs(value)
        assert np.max(np.abs(grad - grad_split)) <= 1e-10 * np.max(np.abs(grad))
        kernel, noise = obj.unpack(theta)
        for d, split in ((design, True), (unpaired, False)):
            model = assemble_model(d, kernel, noise)
            assert model.split == split
            assert [L.shape for L in model.chol] == (
                [(n // 2, n // 2)] * 2 if split else [(n, n)])
        assert not assemble_model(design, kernel,
                                  replace(noise, jitter_mode="nugget")).split

    @pytest.mark.parametrize("coord", [
        (np.zeros((2, 1)), np.array([0.8, 0.8])),          # B = 0.8 I: Q = I
        (np.array([[2.0], [-1.5]]), np.array([1e-3, 2e-3])),  # near rank 1
        (np.array([[0.2, -0.9], [0.7, 0.4]]), np.array([0.3, 0.1]))])
    def test_value_and_grad_at_coordinate_extremes(self, coord):
        design = paired_design(3, 6, ["a", "b", "a"])
        obj = make_objective(design, ModelConfig(fit_group=True,
                                                 coord_rank=coord[0].shape[1]))
        assert obj.split
        theta = obj.default_start()
        w_sl, k_sl = obj.slices["coord"]
        theta[w_sl] = coord[0].ravel()
        theta[k_sl] = np.log(coord[1])
        value, grad = obj.value_and_grad(theta)
        value_oracle, grad_oracle = dense_dk_oracle(obj, theta)
        assert abs(value - value_oracle) <= 1e-10 * abs(value_oracle)
        assert np.max(np.abs(grad - grad_oracle)) <= 1e-10 * np.max(np.abs(grad_oracle))
        kernel, noise = obj.unpack(theta)
        assert log_marginal_likelihood(design, kernel, noise) == pytest.approx(
            -value_oracle, rel=1e-10)

    def test_near_singular_design_escalates_alike(self):
        # a very long length scale without jitter or noise: K is numerically
        # singular, and both paths need the same rung of the nugget ladder
        design = paired_design(2, 30)
        hyp = PeriodicHyperparameters(1.0, 1.0, float(np.mean(design.lengths)),
                                      family="periodic_rbf")
        kernel = MultiLevelKernel(
            hyp, CoregMatrix(np.array([[0.6], [0.3]]), np.array([0.4, 0.7])),
            curve=CoregMatrix(np.array([[0.9], [0.5]]), np.full(2, 0.2)))
        split = assemble_model(design, kernel, NoiseSpec(
            noise_variance=0.0, jitter=0.0, jitter_mode="constant"))
        dense = assemble_model(design, kernel, NoiseSpec(
            noise_variance=0.0, jitter=0.0, jitter_mode="nugget"))
        assert split.split and not dense.split
        assert split.diagnostics["nugget"] == dense.diagnostics["nugget"] > 0.0
        assert split.log_marginal_likelihood == pytest.approx(
            dense.log_marginal_likelihood, rel=1e-6)

