"""GP model: marginal likelihood, fitting, prediction."""

import collections
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from curvegp.coreg import CoregMatrix, MultiLevelKernel, curve_factor, multilevel_gram
from curvegp.curves import Curve, generate_synthetic
from curvegp.errors import NumericalError, ValidationError
from curvegp.io import fit_result_from_dict, fit_result_to_dict
from curvegp.kernels import (DEFAULT_JITTER, FAMILIES, PeriodicHyperparameters,
                             warped_correlation)
from curvegp.model import (NUGGET_LADDER, MarginalLikelihoodObjective,
                           ModelConfig, OptimizerConfig, TrainingDesign,
                           _chol_with_ladder, _coord_basis, _dots, _LevelWork,
                           _solve, _SolveWork, _StackWork, assemble_model, fit,
                           fit_designs, predict, predict_curve)
from curvegp.preprocess import center, scale_to_unit_length
from gram_oracle import full_grid_gram_oracle, one_row, two_buffer_ladder

IDENTITY_2 = CoregMatrix.identity(2)
SRC = Path(__file__).resolve().parents[1] / "src"


def single_point_design(y):
    """One point at s = 0 with both coordinates equal to y."""
    return TrainingDesign(s=np.array([0.0]), j=np.array([0]),
                          y=np.array([[y, y]]), lengths=np.array([1.0]))


def rows(design):
    """The design's 2P scalar rows (s, d, j, g), point by point, each
    point's group g its curve's, and their targets: the layout of the dense
    oracles, whose Grams come from the element-wise `full_grid_gram_oracle`."""
    n = len(design.s)
    return ((design.s.repeat(2), np.tile([0, 1], n), design.j.repeat(2),
             design.curve_group[design.j].repeat(2)), design.y.ravel())


def circle_design(n=15):
    c = scale_to_unit_length(center(generate_synthetic("circle", n)))
    return TrainingDesign.from_curves([c]), c


def one_row_gram(obj, theta):
    """(K, [dR, K0]) at one theta, row 0 of each stack of the one-row call."""
    K, (dR, K0) = obj.gram_and_grads(np.array([theta]))
    return K[0], [dR[0], K0[0]]


INVALID_DESIGNS = {
    # name: (change to a valid two-curve design, part of the message)
    # negative curve indices, once read as fewer curves (j.max() + 1)
    "negative-curve": (dict(j=[-1] * 4 + [0] * 4), "curve indices"),
    "curve-gap": (dict(j=[0] * 4 + [2] * 4, lengths=[1.0] * 3), "curve indices"),
    "unused-curve-0": (dict(j=[1] * 8, lengths=[1.0]), "curve indices"),
    "float-curve": (dict(j=np.repeat([0.0, 1.0], 4)), "curve indices"),
    "group-gap": (dict(curve_group=[0, 2], group_labels=("a", "b", "c")),
                  "group indices"),
    # a group per point, the layout in which a curve could span two groups
    "group-per-point": (dict(curve_group=[0, 0, 0, 1, 1, 1, 1, 1],
                             group_labels=("a", "b")), "group indices"),
    "float-group": (dict(curve_group=[0.0, 1.0], group_labels=("a", "b")),
                    "group indices"),
    "group-label-count": (dict(curve_group=[0, 1]), "group label"),
    "nan-s": (dict(s=[0.0, 0.1, np.nan, 0.3, 0.0, 0.1, 0.2, 0.3]), "non-finite"),
    "inf-y": (dict(y=np.full((8, 2), np.inf)), "non-finite"),
    "nan-length": (dict(lengths=[1.0, np.nan]), "non-finite"),
    "too-few-lengths": (dict(lengths=[1.0]), "one positive length per curve"),
    "too-many-lengths": (dict(lengths=[1.0] * 3), "one positive length per curve"),
    "zero-length": (dict(lengths=[1.0, 0.0]), "one positive length per curve"),
    "one-coordinate": (dict(y=np.zeros((8, 1))), "shape"),
    "flat-rows": (dict(y=np.zeros(16)), "shape"),
}


class TestTrainingDesign:
    def test_one_entry_per_point(self):
        design, c = circle_design(10)
        assert design.s.shape == design.j.shape == (10,)
        assert design.curve_group.tolist() == [0]
        assert np.array_equal(design.y, c.points)
        assert design.s[0] == 0.0 and np.all(np.diff(design.s) > 0)

    def test_unit_length_after_preprocessing(self):
        design, _ = circle_design(10)
        assert design.lengths[0] == pytest.approx(1.0, abs=1e-12)

    def test_label_encoding_by_first_appearance(self):
        c = generate_synthetic("circle", 5)
        d1 = TrainingDesign.from_curves([c, c, c], labels=["b", "a", "b"])
        d2 = TrainingDesign.from_curves([c, c, c], labels=[7, 3, 7])
        assert np.array_equal(d1.curve_group, d2.curve_group)
        assert d1.n_groups == 2

    def test_label_count_mismatch(self):
        c = generate_synthetic("circle", 5)
        with pytest.raises(ValidationError):
            TrainingDesign.from_curves([c], labels=["a", "b"])

    @pytest.mark.parametrize("labels, named", [([1, "1"], "1 and '1'"),
                                               (["a", 2.0, "2.0"], "2.0 and '2.0'")])
    def test_rejects_labels_that_print_alike(self, labels, named):
        # a fit file holds each label as its str(): [1, "1"] once fitted two
        # groups that the file then named alike, and `predict` exited 2
        c = generate_synthetic("circle", 5)
        with pytest.raises(ValidationError, match=f"group labels {named} are distinct"):
            TrainingDesign.from_curves([c] * len(labels), labels)

    @pytest.mark.parametrize("labels", [None, ["a", "b", "c"], ["c", "b", "a"],
                                        ["b", "a", "b"], [7, 7, 7], [3, 1, 3]])
    def test_matches_row_loop_oracle(self, labels):
        curves = [generate_synthetic("star", 7), generate_synthetic("ellipse", 12),
                  generate_synthetic("circle", 4)]
        design = TrainingDesign.from_curves(curves, labels)
        oracle = from_curves_oracle(curves, labels)
        for name in ("s", "j", "curve_group", "y", "lengths"):
            got, want = getattr(design, name), getattr(oracle, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert design.group_labels == oracle.group_labels

    @pytest.mark.parametrize("case", sorted(INVALID_DESIGNS))
    def test_rejects_invalid_design(self, case):
        change, message = INVALID_DESIGNS[case]
        valid = dict(s=np.tile([0.0, 0.1, 0.2, 0.3], 2), j=[0] * 4 + [1] * 4,
                     y=np.arange(16.0).reshape(8, 2), lengths=[1.0, 1.0])
        assert TrainingDesign(**valid).n_curves == 2
        with pytest.raises(ValidationError, match=message):
            TrainingDesign(**{**valid, **change})


def from_curves_oracle(curve_list, labels=None) -> TrainingDesign:
    """`TrainingDesign.from_curves` as a loop over points, kept as the
    test-only oracle of the vectorized builder."""
    if labels is None:
        labels = [0] * len(curve_list)
    encoding: dict = {}
    points_s, points_j, points_y = [], [], []
    lengths, curve_group = [], []
    for j, (curve, label) in enumerate(zip(curve_list, labels)):
        curve_group.append(encoding.setdefault(label, len(encoding)))
        arcs = curve.cumulative_arc
        lengths.append(arcs[-1])
        for i in range(curve.n):
            points_s.append(arcs[i])
            points_j.append(j)
            points_y.append(curve.points[i])
    return TrainingDesign(s=np.array(points_s), j=np.array(points_j, dtype=int),
                          y=np.array(points_y), lengths=np.array(lengths),
                          curve_group=np.array(curve_group, dtype=int),
                          group_labels=tuple(encoding))


class TestLogMarginalLikelihood:
    def test_unit_variance_zero_observation(self):
        # sigma2 + jitter + noise = 0.9989 + 1e-3 + 1e-4 = 1.0
        hyp = PeriodicHyperparameters(0.9989, 0.3, 1.0)
        kernel = MultiLevelKernel(hyp, IDENTITY_2)
        # two independent coordinates, each N(0, 1)
        model = assemble_model(single_point_design(0.0), kernel, 1e-4)
        value = model.log_marginal_likelihood / 2
        assert value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-5)
        assert value == pytest.approx(-0.91894, abs=1e-4)

    def test_unit_variance_unit_observation(self):
        hyp = PeriodicHyperparameters(0.9989, 0.3, 1.0)
        kernel = MultiLevelKernel(hyp, IDENTITY_2)
        model = assemble_model(single_point_design(1.0), kernel, 1e-4)
        value = model.log_marginal_likelihood / 2
        assert value == pytest.approx(-0.5 - 0.5 * np.log(2 * np.pi), abs=1e-4)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        design = TrainingDesign(s=rng.uniform(0, 1, 2), j=np.zeros(2, dtype=int),
                                y=rng.normal(size=(2, 2)), lengths=np.array([1.0]))
        hyp = PeriodicHyperparameters(1.3, 0.25, 1.0)
        D = CoregMatrix(np.array([[0.6], [0.4]]), np.array([0.5, 0.5]))
        kernel = MultiLevelKernel(hyp, D)
        value = assemble_model(design, kernel, 1e-4).log_marginal_likelihood
        x, y = rows(design)
        K = full_grid_gram_oracle(kernel, *x) + 1e-4 * np.eye(4)
        oracle = (-0.5 * y @ np.linalg.inv(K) @ y
                  - 0.5 * np.log(np.linalg.det(K))
                  - 2.0 * np.log(2 * np.pi))
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_alpha_equals_cho_solve(self):
        # two P x P factors in the coordinate eigenbasis against the dense
        # 2P x 2P solve over the rows
        design, _ = circle_design(12)
        hyp = PeriodicHyperparameters(1.1, 0.2, float(design.lengths[0]))
        kernel = MultiLevelKernel(hyp, CoregMatrix(np.array([[0.6], [-0.3]]),
                                                   np.array([0.4, 0.7])))
        model = assemble_model(design, kernel, 1e-5)
        assert [L.shape for L in model.chol] == [(12, 12)] * 2
        x, y = rows(design)
        K = full_grid_gram_oracle(kernel, *x) + 1e-5 * np.eye(len(y))
        expected = cho_solve(cho_factor(K, lower=True), y)
        assert np.max(np.abs(model.alpha - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_is_a_python_float(self):
        # it was an np.float64, while every restart score is a float
        design, _ = circle_design(8)
        fitted = fit(design, ModelConfig(), OptimizerConfig(restarts=2, seed=0))
        assembled = assemble_model(design, fitted.kernel, fitted.noise_variance)
        for model in (fitted, assembled):
            assert type(model.log_marginal_likelihood) is float
        assert all(type(r["score"]) is float for r in fitted.diagnostics["restarts"])
        assert assembled.log_marginal_likelihood == fitted.log_marginal_likelihood

    @pytest.mark.parametrize("noise_variance", [-1e-5, np.nan, np.inf, -np.inf])
    def test_rejects_noise_variance_not_finite_and_nonnegative(self, noise_variance):
        kernel = MultiLevelKernel(PeriodicHyperparameters(1.0, 0.3, 1.0), IDENTITY_2)
        with pytest.raises(ValidationError, match="noise_variance"):
            assemble_model(single_point_design(0.0), kernel, noise_variance)

    @pytest.mark.parametrize("n_curves, curve, group, message", [
        # a 3-row curve level on 2 curves was taken, its third row unused
        (2, 3, None, "curve level has 3 rows, but the design has 2 curves"),
        # a 2-row group level on one group was taken, scaling K by G[0, 0]
        (2, 2, 2, "group level has 2 rows, but the design has 1 groups"),
        # a 2-row curve level on 3 curves raised "j_a: level index out of range"
        (3, 2, None, "curve level has 2 rows, but the design has 3 curves")],
        ids=["3-row-C-on-2-curves", "2-row-G-on-1-group", "2-row-C-on-3-curves"])
    def test_rejects_a_level_of_the_wrong_size(self, n_curves, curve, group,
                                               message):
        level = lambda size: CoregMatrix(np.full((size, 1), 0.5), np.ones(size))
        kernel = MultiLevelKernel(PeriodicHyperparameters(1.0, 0.3, 1.0), IDENTITY_2,
                                  curve=level(curve),
                                  group=level(group) if group else None)
        with pytest.raises(ValidationError, match=message):
            assemble_model(paired_design(n_curves), kernel, 1e-4)


class TestFit:
    def test_interpolates_noiseless_circle(self):
        design, c = circle_design(15)
        model = fit(design, ModelConfig(), OptimizerConfig(restarts=4, seed=0))
        (s, d, _, _), y = rows(design)
        mean, _ = predict(model, s, d)
        assert np.max(np.abs(mean - y)) < 1e-3
        # the box the fit enforces is eta's, on the noise as a fraction of sigma2
        lo, hi = MarginalLikelihoodObjective(design, ModelConfig()).eta_box
        eta = model.noise_variance / model.kernel.input_kernel.sigma2
        assert lo * (1 - 1e-12) <= eta <= hi * (1 + 1e-12)

    def test_rho_recovery_within_factor_two(self):
        rng = np.random.default_rng(21)
        n = 50
        s = np.sort(rng.uniform(0, 1, n))
        rho_true = 0.1
        hyp = PeriodicHyperparameters(1.0, rho_true, 1.0, jitter=0.0)
        kernel = MultiLevelKernel(hyp, IDENTITY_2)
        K = multilevel_gram(kernel, s) + 1e-5 * np.eye(n)
        # the two coordinates are independent draws from the same prior
        L = np.linalg.cholesky(K)
        y = np.column_stack([L @ rng.normal(size=n), L @ rng.normal(size=n)])
        design = TrainingDesign(s=s, j=np.zeros(n, dtype=int), y=y,
                                lengths=np.array([1.0]))
        model = fit(design, ModelConfig(jitter=0.0),
                    OptimizerConfig(restarts=6, seed=1))
        rho_hat = model.kernel.input_kernel.rho
        assert rho_true / 2 <= rho_hat <= rho_true * 2

    def test_restart_records_scored_and_best_selected(self):
        design, _ = circle_design(8)
        model = fit(design, ModelConfig(), OptimizerConfig(restarts=3, seed=0))
        scores = [r["score"] for r in model.diagnostics["restarts"]]
        assert len(scores) >= 1
        assert model.diagnostics["best_restart"] == int(np.argmax(scores))

    def test_deterministic_given_seed(self):
        design, _ = circle_design(8)
        m1 = fit(design, ModelConfig(), OptimizerConfig(restarts=2, seed=5))
        m2 = fit(design, ModelConfig(), OptimizerConfig(restarts=2, seed=5))
        assert m1.kernel.input_kernel.rho == m2.kernel.input_kernel.rho
        assert m1.log_marginal_likelihood == m2.log_marginal_likelihood

    def test_each_restart_evaluates_only_inside_the_optimizer(self, monkeypatch):
        """No likelihood evaluation outside L-BFGS-B: per restart, the
        lockstep hands the objective exactly as many points as the optimizer
        reports, and the objective evaluates no other row."""
        import curvegp.model as model
        rows, per_run = [0], collections.Counter()
        value_and_grad, lockstep = model.MarginalLikelihoodObjective.value_and_grad, model._lockstep

        def counted(self, theta, stack_rows=None):
            rows[0] += len(theta)
            return value_and_grad(self, theta, stack_rows)

        def recorded(evaluate, *args):
            def each(points, active):
                per_run.update(active)
                return evaluate(points, active)
            return lockstep(each, *args)

        monkeypatch.setattr(model.MarginalLikelihoodObjective, "value_and_grad", counted)
        monkeypatch.setattr(model, "_lockstep", recorded)
        design, _ = circle_design(8)
        fitted = fit(design, ModelConfig(), OptimizerConfig(restarts=3, seed=0))
        nfev = [r["nfev"] for r in fitted.diagnostics["restarts"]]
        assert [per_run[k] for k in range(3)] == nfev
        assert rows[0] == sum(nfev)

    def test_start_that_cannot_be_factored_is_skipped(self, monkeypatch):
        import curvegp.model as model
        factor, calls = model._chol_with_ladder, [0]

        def fails_first(out, *gram):  # the first evaluation is restart 0's start
            calls[0] += 1
            if calls[0] == 1:
                raise NumericalError("forced factorization failure")
            return factor(out, *gram)

        monkeypatch.setattr(model, "_chol_with_ladder", fails_first)
        design, _ = circle_design(8)
        with pytest.warns(UserWarning, match="restart 0"):
            fitted = fit(design, ModelConfig(), OptimizerConfig(restarts=2, seed=0))
        assert [r["restart"] for r in fitted.diagnostics["restarts"]] == [1]
        # the restart number of the best record, not its place among the
        # restarts that finished
        assert fitted.diagnostics["best_restart"] == 1
        assert np.isfinite(fitted.log_marginal_likelihood)

    def test_optimizer_counts_are_whole_numbers(self):
        # restarts = 1.5 or 2.0 once met a TypeError in fit, and maxiter =
        # 20.5 reached the optimizer; a whole-number float is a count
        for name, minimum in (("restarts", 1), ("seed", 0), ("maxiter", 1)):
            for value in (1.5, 20.5, -1, np.nan, np.inf, "3", None):
                with pytest.raises(ValidationError,
                                   match=f"opt.{name} must be a whole number >= {minimum}"):
                    OptimizerConfig(**{name: value})
        floats = OptimizerConfig(restarts=2.0, seed=1.0, maxiter=20.0)
        assert floats == OptimizerConfig(restarts=2, seed=1, maxiter=20)
        assert all(type(v) is int for v in (floats.restarts, floats.seed, floats.maxiter))
        design, _ = circle_design(8)
        got = fit(design, ModelConfig(), floats)
        want = fit(design, ModelConfig(), OptimizerConfig(restarts=2, seed=1, maxiter=20))
        assert got.log_marginal_likelihood == want.log_marginal_likelihood
        assert np.array_equal(got.alpha, want.alpha)
        assert got.diagnostics["restarts"] == want.diagnostics["restarts"]

    def test_constant_targets_rejected(self):
        # eta's box is the noise box over var(y), which is 0 here
        design = TrainingDesign(s=np.array([0.0, 0.5]), j=np.zeros(2, dtype=int),
                                y=np.ones((2, 2)), lengths=np.array([1.0]))
        with pytest.raises(ValidationError, match="var"):
            fit(design, ModelConfig(), OptimizerConfig(restarts=1))

    def test_duplicated_curve_gets_positive_coupling(self):
        c = scale_to_unit_length(center(generate_synthetic("star", 12,
                                                           amplitude=0.2)))
        design = TrainingDesign.from_curves([c, c])
        model = fit(design, ModelConfig(), OptimizerConfig(restarts=4, seed=2))
        C = model.kernel.curve.matrix
        corr = C[0, 1] / np.sqrt(C[0, 0] * C[1, 1])
        assert corr > 0.9

    def test_coordinate_level_fits_two_columns(self):
        # the coordinate level is always the full 2 x 2 factor L, whose
        # columns a one-restart fit keeps apart
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 10, rng_seed=k, noise_sd=0.01, amplitude=0.1 + 0.1 * k)))
            for k in range(3)]
        model = fit(TrainingDesign.from_curves(curves), ModelConfig(),
                    OptimizerConfig(restarts=1, maxiter=50))
        W = model.kernel.coord.w
        assert W.shape == (2, 2)
        assert np.max(np.abs(W[:, 0] - W[:, 1])) > 1e-3


class TestGroupedFit:
    """Group labels fit the group level: a grouped fit is `fit` on a design
    built with labels."""

    FAST = OptimizerConfig(restarts=2, maxiter=100, seed=0)

    def make_classes(self):
        curves, labels = [], []
        rng = np.random.default_rng(2)
        for i in range(2):
            th = 2 * np.pi * np.arange(10) / 10 + rng.uniform(0, 0.5)
            curves.append(scale_to_unit_length(center(Curve(
                np.column_stack([np.cos(th), np.sin(th)])))))
            labels.append("circle")
        for i in range(2):
            th = 2 * np.pi * np.arange(10) / 10 + rng.uniform(0, 0.5)
            curves.append(scale_to_unit_length(center(Curve(
                np.column_stack([np.cos(th), 0.5 * np.sin(th)])))))
            labels.append("ellipse")
        return curves, labels

    def test_group_level_present(self):
        curves, labels = self.make_classes()
        model = fit(TrainingDesign.from_curves(curves, labels), ModelConfig(),
                    self.FAST)
        assert model.kernel.group is not None
        assert model.design.n_groups == 2

    def test_label_renaming_bit_identical(self):
        curves, labels = self.make_classes()
        m1 = fit(TrainingDesign.from_curves(curves, labels), ModelConfig(),
                 self.FAST)
        renamed = [1 if lab == "circle" else 3 for lab in labels]
        m2 = fit(TrainingDesign.from_curves(curves, renamed), ModelConfig(),
                 self.FAST)
        for j in range(len(curves)):
            p1 = predict_curve(m1, j, 25).means
            p2 = predict_curve(m2, j, 25).means
            assert np.array_equal(p1, p2)

    def test_label_count_mismatch(self):
        curves, labels = self.make_classes()
        with pytest.raises(ValidationError, match="3 labels for 4 curves"):
            TrainingDesign.from_curves(curves, labels[:-1])

    def test_groups_share_covariance(self):
        # the group level is fitted, not held at I: some curves in
        # different groups covary, where G = I would make every
        # cross-group entry of the Gram 0.0
        curves, labels = self.make_classes()
        model = fit(TrainingDesign.from_curves(curves, labels), ModelConfig(),
                    self.FAST)
        d = model.design
        K = multilevel_gram(model.kernel, d.s, j_a=d.j, curve_group=d.curve_group)
        g = d.curve_group[d.j]
        assert np.any(K[g[:, None] != g[None, :]] != 0.0)

    def test_one_restart_leaves_the_cross_group_saddle(self):
        # with curve and group levels both starting at B = I, the cross-group
        # covariance C[0, 1] G[0, 1] has no gradient in either off-diagonal,
        # and a one-restart fit of two curves in two groups kept both at 0.0
        curves = [scale_to_unit_length(center(generate_synthetic(
            shape, 12, rng_seed=k + 1, noise_sd=0.01, **kw)))
            for k, (shape, kw) in enumerate([("star", {}),
                                             ("ellipse", {"axes": (1.0, 0.6)})])]
        model = fit(TrainingDesign.from_curves(curves, ["a", "b"]), ModelConfig(),
                    OptimizerConfig(restarts=1))
        C, G = model.kernel.curve.matrix, model.kernel.group.matrix
        assert C[0, 1] * G[0, 1] != 0.0

    @pytest.mark.parametrize("layout", ["none", "a,b", "a,b,a", "a,a,b,b"])
    def test_library_fit_round_trips_through_its_fit_file(self, layout):
        labels = None if layout == "none" else layout.split(",")
        curves = [generate_synthetic("star", 10, rng_seed=k, noise_sd=0.01)
                  for k in range(1, 1 + len(labels or "abc"))]
        model = fit(TrainingDesign.from_curves(curves, labels),
                    ModelConfig(), OptimizerConfig(restarts=1))
        data = json.loads(json.dumps(fit_result_to_dict(model)))
        assert {key: data[key] for key in model.diagnostics} == model.diagnostics
        loaded = fit_result_from_dict(data, curves)
        assert loaded.log_marginal_likelihood == model.log_marginal_likelihood
        # nothing reads the record back: the reloaded model writes its nugget alone
        assert json.loads(json.dumps(fit_result_to_dict(loaded))) == {
            key: value for key, value in data.items()
            if key not in ("best_restart", "restarts")}
        last = len(curves) - 1
        for got, want in zip(vars(predict_curve(loaded, last, 20)).values(),
                             vars(predict_curve(model, last, 20)).values()):
            assert np.array_equal(got, want)
        grid = np.repeat(np.linspace(0.0, 5.0, 7), 2)
        for j in (1, last):
            query = (grid, np.tile([0, 1], 7), np.full(14, j))
            for got, want in zip(predict(loaded, *query), predict(model, *query)):
                assert np.array_equal(got, want)

    def test_one_label_is_no_labels(self):
        # a design with a single group has no group level to fit, so one
        # shared label fits exactly what no labels fit
        curves, labels = self.make_classes()
        m1 = fit(TrainingDesign.from_curves(curves, ["all"] * len(curves)),
                 ModelConfig(), self.FAST)
        m2 = fit(TrainingDesign.from_curves(curves), ModelConfig(), self.FAST)
        assert m1.kernel.group is None and m2.kernel.group is None
        for j in range(len(curves)):
            p1 = predict_curve(m1, j, 25).means
            p2 = predict_curve(m2, j, 25).means
            assert np.array_equal(p1, p2)


class TestPredict:
    def setup_method(self):
        self.design, self.curve = circle_design(12)
        hyp = PeriodicHyperparameters(0.5, 0.2, 1.0)
        kernel = MultiLevelKernel(hyp, IDENTITY_2)
        self.noise_variance = 1e-6
        self.model = assemble_model(self.design, kernel, self.noise_variance)

    def test_interpolation_at_training_inputs(self):
        (s, d, _, _), y = rows(self.design)
        mean, cov = predict(self.model, s, d)
        assert np.max(np.abs(mean - y)) < 1e-3
        assert np.max(np.diag(cov)) < 1e-4

    def test_means_alone_equal_predict_means(self):
        # the landmark score takes the means at its points without the
        # covariance
        from curvegp.model import _unit_means
        s = np.array([0.11, 0.52, 0.9, 0.3])
        paired = assemble_model(paired_design(n_curves=2, n=6),
                                self.model.kernel, self.noise_variance)
        for model, j in ((self.model, np.zeros(4, dtype=int)),
                         (paired, np.array([0, 1, 1, 0]))):
            mean, _ = predict(model, s.repeat(2), np.tile([0, 1], 4), j.repeat(2))
            assert _unit_means(model, s, j)[0].ravel().tobytes() == mean.tobytes()

    def test_periodic_query_consistency(self):
        m1, c1 = predict(self.model, [0.3, 0.3], [0, 1])
        m2, c2 = predict(self.model, [1.3, 1.3], [0, 1])
        assert m1 == pytest.approx(m2, abs=1e-10)
        assert c1 == pytest.approx(c2, abs=1e-10)

    def test_matches_dense_oracle(self):
        x, y = rows(self.design)
        K = full_grid_gram_oracle(self.model.kernel, *x)
        K = K + self.noise_variance * np.eye(len(y))
        sq = np.repeat([0.11, 0.52, 0.9], 2)
        dq = np.tile([0, 1], 3)
        cross = full_grid_gram_oracle(self.model.kernel, sq, dq,
                                      np.zeros(6, dtype=int), np.zeros(6, dtype=int),
                                      *x)
        Kqq = full_grid_gram_oracle(self.model.kernel, sq, dq,
                                    np.zeros(6, dtype=int), np.zeros(6, dtype=int))
        Kinv = np.linalg.inv(K)
        mean_oracle = cross @ Kinv @ y
        cov_oracle = Kqq - cross @ Kinv @ cross.T
        mean, cov = predict(self.model, sq, dq)
        assert np.allclose(mean, mean_oracle, atol=1e-9)
        assert np.allclose(cov, cov_oracle, atol=1e-9)

    @staticmethod
    def levels_model(jitter, coupling=-0.3):
        """Three 9-point stars in groups a, b, a, with a full coordinate
        factor (W = [0.6, coupling]) and curve and group levels."""
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 9, rng_seed=k, noise_sd=0.01))) for k in range(3)]
        design = TrainingDesign.from_curves(curves, labels=["a", "b", "a"])
        hyp = PeriodicHyperparameters(0.5, 0.2, float(np.mean(design.lengths)),
                                      jitter=jitter)
        kernel = MultiLevelKernel(
            hyp, CoregMatrix(np.array([[0.6], [coupling]]), np.array([0.4, 0.7])),
            curve=CoregMatrix(np.array([[0.9], [0.5], [0.8]]), np.full(3, 0.2)),
            group=CoregMatrix(np.array([[0.7], [0.2]]), np.array([0.3, 0.6])))
        return assemble_model(design, kernel, 1e-5)

    @pytest.mark.parametrize("jitter", [0.0, DEFAULT_JITTER])
    def test_matches_dense_oracle_with_levels(self, jitter):
        # a full coordinate factor, curves and groups: the two P x P blocks
        # against the N x N inverse
        model = self.levels_model(jitter)
        d, kernel = model.design, model.kernel
        assert len(model.chol) == 2
        x, y = rows(d)
        K = full_grid_gram_oracle(kernel, *x) + 1e-5 * np.eye(len(y))
        Kinv = np.linalg.inv(K)
        # points of curve 1; points over curves 0 and 2; one point of each
        # curve; points alternating between curves 0 and 2, and between
        # curves 1 and 2 (two groups); one point
        queries = [([0.05, 0.4, 0.77], [1, 1, 1]), ([0.3, 0.1, 0.9], [0, 2, 2]),
                   ([0.2, 0.6, 0.85], [0, 1, 2]),
                   ([0.15, 0.5, 0.7, 0.95], [0, 2, 0, 2]),
                   ([0.25, 0.55, 0.8], [1, 2, 1]), ([0.45], [2])]
        for s, j in queries:
            sq, dq, jq = np.repeat(s, 2), np.tile([0, 1], len(s)), np.repeat(j, 2)
            gq = d.curve_group[jq]
            cross = full_grid_gram_oracle(kernel, sq, dq, jq, gq, *x)
            Kqq = full_grid_gram_oracle(kernel, sq, dq, jq, gq)
            mean, cov = predict(model, sq, dq, jq)
            assert np.max(np.abs(mean - cross @ Kinv @ y)) <= 1e-9
            assert np.max(np.abs(cov - (Kqq - cross @ Kinv @ cross.T))) <= 1e-9
        m = 25
        for curve in range(3):
            pred = predict_curve(model, curve, m)
            sq = np.repeat(pred.grid, 2)
            dq = np.tile([0, 1], m)
            jq = np.full(2 * m, curve)
            gq = np.full(2 * m, d.curve_group[curve])
            cross = full_grid_gram_oracle(kernel, sq, dq, jq, gq, *x)
            Kqq = full_grid_gram_oracle(kernel, sq, dq, jq, gq)
            cov = Kqq - cross @ Kinv @ cross.T
            blocks = np.array([cov[2 * i:2 * i + 2, 2 * i:2 * i + 2]
                               for i in range(m)])
            assert np.max(np.abs(pred.means.ravel() - cross @ Kinv @ y)) <= 1e-9
            assert np.max(np.abs(pred.covariances - blocks)) <= 1e-9

    def test_whitening_solves_each_block_from_the_right(self):
        # each block's V is the right-side dtrsm of the training-major cross
        # Gram, bit for bit, and within 1e-12 of the left-side dtrtrs (relative
        # to the block's largest entry); the last block is solved in the cross
        # Gram itself
        from scipy.linalg.blas import dtrsm
        from scipy.linalg.lapack import dtrtrs
        from curvegp.model import _unit_means, _whitened
        model = self.levels_model(DEFAULT_JITTER)
        cross = _unit_means(model, np.arange(7) / 7, np.array([0, 1, 2, 1, 0, 2, 1]))[1]
        P = len(model.design.s)
        assert cross.shape == (P, 7) and cross.flags.c_contiguous
        before = cross.copy()
        shared = []
        for L, V in zip(model.chol, _whitened(model, cross), strict=True):
            want = dtrsm(1.0, L, before.T, side=1, lower=1, trans_a=1).T
            assert V.shape == (P, 7) and V.tobytes() == want.tobytes()
            left, info = dtrtrs(L, before, lower=1)
            assert info == 0
            assert np.max(np.abs(V - left)) <= 1e-12 * np.max(np.abs(left))
            shared.append(np.shares_memory(V, cross))
        assert shared == [False, True]

    def test_paired_covariance_transient_memory(self):
        # the covariance is formed on the query points and written into the
        # output block by block: no temporary of the output's size
        model = self.levels_model(DEFAULT_JITTER)
        m = 200
        s, d, j = np.repeat(np.arange(m) / m, 2), np.tile([0, 1], m), np.full(2 * m, 1)
        predict(model, s[:4], d[:4], j[:4])  # first-call imports and caches
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            _, cov = predict(model, s, d, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cov.shape == (2 * m, 2 * m)
        assert peak - held < 2.0 * cov.nbytes

    @pytest.mark.parametrize("s, d, j", [
        ([0.1, 0.1, 0.2], [0, 1, 0], None),  # an odd row count
        ([0.1, 0.1], [1, 0], None),  # a pair listed d = 1 first
        ([0.1, 0.2], [0, 1], None),  # s differs within the pair
        ([0.1, 0.1], [0, 1], [0, 2]),  # the curve differs
        ([0.1, 0.1], [0, 2], None),  # d outside {0, 1}
        ([0.1, 0.1], [0, -1], None),
        ([0.1, 0.1, 0.1], [0, 1], None)],  # one s too many
        ids=["odd", "d-1-first", "s-differs", "curve-differs", "d-2", "d-minus-1",
             "s-longer"])
    def test_rejects_rows_not_in_coordinate_pairs(self, s, d, j):
        # rows 2u and 2u + 1 must be coordinates 0 and 1 of one point;
        # the model has curves 0-2 in groups 0, 1, 0
        with pytest.raises(ValidationError):
            predict(self.levels_model(DEFAULT_JITTER), s, d, j)

    def test_a_group_argument_is_refused(self):
        # a query point's group is its curve's: the former (s, d, j, g)
        # call has one positional argument too many
        model = self.levels_model(DEFAULT_JITTER)
        with pytest.raises(TypeError):
            predict(model, [0.1, 0.1], [0, 1], [0, 0], [1, 1])
        with pytest.raises(TypeError):
            model.predict([0.1, 0.1], [0, 1], [0, 0], [1, 1])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_arc_parameters(self, value):
        # inf once gave NaN means and a non-finite covariance with only
        # RuntimeWarnings, and NaN the pairing message, as NaN != NaN
        with pytest.raises(ValidationError, match="arc parameters must be finite"):
            predict(self.model, [value, value], [0, 1])
        with pytest.raises(ValidationError, match="arc parameters must be finite"):
            predict(self.model, [0.1, 0.1, value, value], [0, 1, 0, 1])

    def test_rejects_curve_out_of_range(self):
        # a one-curve, one-group model has no curve or group level, so the
        # Gram never looks at j: it once returned a mean
        with pytest.raises(ValidationError, match="curve index"):
            predict(self.model, [0.1, 0.1], [0, 1], [5, 5])
        # indices that are not whole numbers were once cast to whole ones: d
        # = [0.4, 1.6] and j = [1.7, 1.2] predicted d = [0, 1] on curve 1
        model = self.levels_model(DEFAULT_JITTER)
        for d, j, message in (([0.4, 1.6], [1, 1], "d = 0, 1"),
                              ([0, 1], [1.7, 1.2], "j: a curve index must be a whole"),
                              ([0.4, 1.6], [1.7, 1.2], "j: a curve index"),
                              ([0, 1], [np.nan, np.nan], "j: a curve index")):
            with pytest.raises(ValidationError, match=message):
                predict(model, [0.1, 0.1], d, j)
        # a whole-number float is an index
        for a, b in zip(predict(model, [0.1, 0.1], [0.0, 1.0], [1.0, 1.0]),
                        predict(model, [0.1, 0.1], [0, 1], [1, 1])):
            assert np.array_equal(a, b)

    def test_noise_monotonicity(self):
        variances = []
        for nv in [1e-6, 1e-5, 1e-4]:
            m = assemble_model(self.design, self.model.kernel, nv)
            _, cov = predict(m, [0.37, 0.37], [0, 1])
            variances.append(cov.diagonal())
        assert np.all(variances[0] <= variances[1] + 1e-12)
        assert np.all(variances[1] <= variances[2] + 1e-12)

    def test_data_augmentation_contracts_variance(self):
        d = self.design
        _, cov_full = predict(self.model, [0.41, 0.41], [0, 1])
        sub = TrainingDesign(s=d.s[:-1], j=d.j[:-1], y=d.y[:-1], lengths=d.lengths)
        m_sub = assemble_model(sub, self.model.kernel, self.noise_variance)
        _, cov_sub = predict(m_sub, [0.41, 0.41], [0, 1])
        assert np.all(cov_full.diagonal() <= cov_sub.diagonal() + 1e-12)

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
                               1e-5)
        pred = predict_curve(model, 0, 25)
        assert np.max(np.abs(pred.covariances[:, 0, 1])) < 1e-12

    def test_closure_of_mean(self):
        design, _ = circle_design(10)
        hyp = PeriodicHyperparameters(0.5, 0.2, 1.0)
        model = assemble_model(design, MultiLevelKernel(hyp, IDENTITY_2),
                               1e-5)
        m0, _ = predict(model, [0.0, 0.0], [0, 1])
        m1, _ = predict(model, [1.0, 1.0], [0, 1])
        assert np.allclose(m0, m1, atol=1e-8)

    def test_per_point_covariances_psd(self):
        design, _ = circle_design(10)
        model = fit(design, ModelConfig(), OptimizerConfig(restarts=2, seed=0))
        pred = predict_curve(model, 0, 40)
        for cov in pred.covariances:
            assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10

    @pytest.mark.parametrize("jitter", [0.0, DEFAULT_JITTER])
    def test_blocks_match_full_covariance(self, jitter):
        # coordinate, curve and group levels: predict_curve's means and 2x2
        # blocks are predict's means and diagonal blocks, to 1e-12 relative
        m = 30
        for model, curve in itertools.product(
                [TestPredict.levels_model(jitter, c) for c in (0.3, -0.3)], range(3)):
            pred = predict_curve(model, curve, m)
            mean, cov = predict(model, np.repeat(pred.grid, 2), np.tile([0, 1], m),
                                np.full(2 * m, curve))
            blocks = cov.reshape(m, 2, m, 2)[np.arange(m), :, np.arange(m), :]
            # 1e-12 relative, and no looser than the 1e-12 absolute bound
            for got, want in ((pred.means, mean.reshape(m, 2)),
                              (pred.covariances, blocks)):
                scale = min(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_rejects_small_grid(self):
        design, _ = circle_design(10)
        model = fit(design, ModelConfig(), OptimizerConfig(restarts=1, seed=0))
        with pytest.raises(ValidationError):
            predict_curve(model, 0, 2)
        # an m that was not an int, 10.0 included, once met numpy's TypeError
        # in np.full; a whole-number float is a grid size, as 1.0 is an index
        for m in (10.5, 2.0, 1.5, np.nan, np.inf, "3", None):
            with pytest.raises(ValidationError, match="m must be a whole number >= 3"):
                predict_curve(model, 0, m)
        got, want = predict_curve(model, 0, 10.0), predict_curve(model, 0, 10)
        for key in ("grid", "means", "covariances"):
            assert np.array_equal(getattr(got, key), getattr(want, key))

    def test_rejects_curve_index_out_of_range(self):
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 9, rng_seed=k, noise_sd=0.01))) for k in range(2)]
        design = TrainingDesign.from_curves(curves)
        hyp = PeriodicHyperparameters(0.5, 0.2, float(np.mean(design.lengths)))
        kernel = MultiLevelKernel(
            hyp, CoregMatrix(np.array([[0.6], [0.3]]), np.array([0.4, 0.7])),
            curve=CoregMatrix(np.array([[0.9], [0.5]]), np.full(2, 0.2)))
        model = assemble_model(design, kernel, 1e-5)
        assert predict_curve(model, 1, 10).means.shape == (10, 2)
        for curve in (2, -1, 7):
            with pytest.raises(ValidationError, match="out of range"):
                predict_curve(model, curve, 10)
        # a fraction once met numpy's IndexError; a whole-number float is an
        # index
        for curve in (1.5, 0.5, np.nan):
            with pytest.raises(ValidationError, match="curve_index: a curve index"):
                predict_curve(model, curve, 10)
        assert np.array_equal(predict_curve(model, 1.0, 10).covariances,
                              predict_curve(model, 1, 10).covariances)

    def test_predict_without_groups_takes_group_of_curve(self):
        # curve 1 is the only curve of group "b"; its rows, which carry no
        # group, must meet group b's row of the group-level matrix
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 9, rng_seed=k, noise_sd=0.01))) for k in range(3)]
        design = TrainingDesign.from_curves(curves, labels=["a", "b", "a"])
        hyp = PeriodicHyperparameters(0.5, 0.2, float(np.mean(design.lengths)))
        kernel = MultiLevelKernel(
            hyp, CoregMatrix(np.array([[0.6], [0.3]]), np.array([0.4, 0.7])),
            curve=CoregMatrix(np.array([[0.9], [0.5], [0.8]]), np.full(3, 0.2)),
            group=CoregMatrix(np.array([[0.7], [0.2]]), np.array([0.3, 0.6])))
        model = assemble_model(design, kernel, 1e-5)
        m = 30
        for curve in range(3):
            pred = predict_curve(model, curve, m)
            mean, _ = predict(model, np.repeat(pred.grid, 2), np.tile([0, 1], m),
                              np.full(2 * m, curve))
            assert np.max(np.abs(pred.means - mean.reshape(m, 2))) <= 1e-12
        for curve in (-1, 3):
            with pytest.raises(ValidationError):
                predict(model, [0.1], [0], [curve])


def dense_collection():
    """(fit file, curves): ten 40-point stars and ellipses at unit length and
    a fit of fixed hyperparameters with coordinate and curve levels, the
    layout of the saved fit that `curvegp predict --m 400` reads back in the
    dense-prediction benchmark (P = 400)."""
    rng = np.random.default_rng(4)
    curves = [scale_to_unit_length(center(generate_synthetic(
        "star" if c % 2 == 0 else "ellipse", 40, amplitude=0.2, axes=(1.0, 0.6),
        noise_sd=0.002, rng_seed=c))) for c in range(10)]
    data = {"hyperparameters": {"family": "periodic_matern32", "sigma2": 0.01,
                                "rho": 0.15, "tau": 1.0},
            "noise": {"noise_variance": 1e-5, "jitter": 1e-3},
            "coregionalization": {
                "D": {"w": [[0.3], [0.1]], "kappa": [1.0, 1.0]},
                "C": {"w": [[w] for w in rng.uniform(0.5, 1.0, 10).tolist()],
                      "kappa": [0.2] * 10}}}
    return data, curves


class TestBlockedTriangular:
    """The recursive triangular kernels against the single BLAS and LAPACK
    call: `_trsm` against one right-side dtrsm, `_potri` against one dpotri,
    on the Cholesky factors of real training blocks (`chol`)."""

    @staticmethod
    def chol(P):
        """The two factors of a one-curve model of P points with a full
        coordinate factor, as `assemble_model` holds them."""
        design = TrainingDesign.from_curves([generate_synthetic(
            "star", P, noise_sd=0.01, rng_seed=P)])
        hyp = PeriodicHyperparameters(0.5, 0.2, float(design.lengths[0]),
                                      jitter=DEFAULT_JITTER)
        kernel = MultiLevelKernel(hyp, CoregMatrix(np.array([[0.6], [-0.3]]),
                                                   np.array([0.4, 0.7])))
        return assemble_model(design, kernel, 1e-5).chol

    @staticmethod
    def blocked(L, m):
        """(V, want): the cross Gram of m query points whitened in place by
        `_trsm` and by one dtrsm, and (X, Kinv): K^-1 in place by `_potri` and
        by one dpotri."""
        from scipy.linalg.blas import dtrsm
        from scipy.linalg.lapack import dpotri
        from curvegp.model import _potri, _trsm
        P = len(L)
        V = np.random.default_rng(m).normal(size=(P, m))  # C-ordered, as the cross Gram
        want = dtrsm(1.0, L, V.T, side=1, lower=1, trans_a=1).T
        _trsm(L, V.T)  # in V's own buffer
        X = L.copy(order="F")
        assert _potri(X) == 0
        Kinv, info = dpotri(L, lower=1)
        assert info == 0
        return V, want, X, Kinv

    @pytest.mark.parametrize("P", [3, 40, 64])
    def test_a_leaf_is_the_single_call_bit_for_bit(self, P):
        for L in self.chol(P):
            for m in (1, 7, 400):
                V, want, X, Kinv = self.blocked(L, m)
                assert V.tobytes() == want.tobytes()
                assert X.tobytes() == Kinv.tobytes()

    @pytest.mark.parametrize("P", [65, 120, 129, 400])
    def test_a_larger_block_is_the_single_call_to_rounding(self, P):
        from curvegp.model import TRIANGULAR_LEAF
        assert P > TRIANGULAR_LEAF
        for L in self.chol(P):
            for m in (1, 7, 400):
                V, want, X, Kinv = self.blocked(L, m)
                assert np.max(np.abs(V - want)) <= 1e-12 * np.max(np.abs(want))
                assert np.max(np.abs(X - Kinv)) <= 1e-12 * np.max(np.abs(Kinv))
                # the likelihood reads the lower triangle and needs the upper zero
                assert not np.triu(X, 1).any()

    def test_a_failed_inverse_returns_its_info(self):
        # a zero on the diagonal of the lower half: LAPACK's info names its row
        from curvegp.model import _potri
        L = self.chol(120)[0].copy(order="F")
        L[100, 100] = 0.0
        assert _potri(L) == 101

    def test_dense_collection_curve_matches_the_dense_oracle(self):
        # 10 x 40 points, so every block is solved above the leaf
        data, curves = dense_collection()
        model = fit_result_from_dict(data, curves)
        d, kernel = model.design, model.kernel
        x, y = rows(d)
        K = full_grid_gram_oracle(kernel, *x) + model.noise_variance * np.eye(len(y))
        Kinv = np.linalg.inv(K)
        m, curve = 40, 3
        pred = predict_curve(model, curve, m)
        sq, dq, jq = np.repeat(pred.grid, 2), np.tile([0, 1], m), np.full(2 * m, curve)
        gq = np.zeros(2 * m, dtype=int)
        cross = full_grid_gram_oracle(kernel, sq, dq, jq, gq, *x)
        cov = full_grid_gram_oracle(kernel, sq, dq, jq, gq) - cross @ Kinv @ cross.T
        blocks = np.array([cov[2 * i:2 * i + 2, 2 * i:2 * i + 2] for i in range(m)])
        assert np.allclose(pred.means.ravel(), cross @ Kinv @ y, atol=1e-9)
        assert np.allclose(pred.covariances, blocks, atol=1e-9)


def traced_peak(call):
    """(result, bytes): ``call()``'s result and the peak of the memory
    tracemalloc traces during it, above what was held when it began."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - held


class TestReadPathMemory:
    """The read path of a saved fit at P = 400 forms each matrix in the
    buffer that uses it: the blocks in the factor buffer, the query points'
    cross Gram in the buffer that is whitened."""

    def test_reading_a_fit_peaks_near_its_gram_and_factors(self):
        # the Gram and the two blocks' factor buffer, 3 P^2; the blocks
        # and their copy once took it to 5 P^2
        data, curves = dense_collection()
        fit_result_from_dict(data, curves)  # first-call imports
        model, peak = traced_peak(lambda: fit_result_from_dict(data, curves))
        P = len(model.design.s)
        assert P == 400
        assert peak <= 3.2 * P * P * 8

    def test_predict_curve_peaks_near_the_cross_gram(self):
        # beyond the model: the cross Gram, P x m, and one copy of it for the
        # first block; a copy per block and the cross Gram query-major once
        # took it to 3 P m
        model = fit_result_from_dict(*dense_collection())
        predict_curve(model, 0, 10)  # first-call imports
        m, P = 400, len(model.design.s)
        pred, peak = traced_peak(lambda: predict_curve(model, 3, m))
        assert pred.covariances.shape == (m, 2, 2)
        assert peak <= 2.3 * P * m * 8


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        c1 = generate_synthetic("star", 8, rng_seed=1, noise_sd=0.02)
        c2 = generate_synthetic("star", 8, rng_seed=2, noise_sd=0.02)
        design = TrainingDesign.from_curves(
            [scale_to_unit_length(center(c1)), scale_to_unit_length(center(c2))],
            labels=["a", "b"])
        obj = MarginalLikelihoodObjective(design, ModelConfig())
        for _ in range(5):
            theta = obj.random_start(rng)
            _, grad = one_row(obj, theta)
            for k in range(len(theta)):
                h = 1e-6 * max(1.0, abs(theta[k]))
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                fd = (obj.value(tp) - obj.value(tm)) / (2 * h)
                denom = max(abs(fd), abs(grad[k]), 1e-8)
                assert abs(grad[k] - fd) / denom < 1e-4


def dense_dk_oracle(obj, theta):
    """-log p(y) with sigma2 profiled out and its gradient with one dense dR
    per parameter: R = (corr + jitter) B + eta I at sigma2 = 1, s2 = y^T
    R^-1 y / n, -log p = n/2 (log s2 + 1 + log 2 pi) + log|R| / 2, reduced
    against A = alpha alpha^T / s2 - R^-1 with R^-1 from cho_solve(L, I).
    A level of size 2 is L L^T with L = [[1, 0], [a, e^b]], a larger one W
    W^T + diag(1, kappa_1, ...)."""
    cfg = obj.config
    (s, d, j, g), y = rows(obj.design)
    level_rows = {"coord": d, "curve": j, "group": g}
    n = len(y)
    eye = np.eye(n)
    rho, eta = np.exp(theta[:2])
    r = np.abs(s[:, None] - s[None, :])
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
    factors, dBs = {}, {}
    for level in obj.levels:  # the record gives the slice; the arithmetic is here
        name, size, p = level.name, level.size, theta[level.slice]
        dBs[name] = []
        if size == 2:
            a, e = p[0], np.exp(p[1])
            B = np.array([[1.0, a], [a, a * a + e * e]])
            dBs[name] += [np.array([[0.0, 1.0], [1.0, 2.0 * a]]),
                          np.array([[0.0, 0.0], [0.0, 2.0 * e * e]])]
        else:
            w = p[:size]
            kappa = np.concatenate([[1.0], np.exp(p[size:])])
            B = np.outer(w, w) + np.diag(kappa)
            for a in range(size):
                dB = np.zeros((size, size))
                dB[a, :] += w
                dB[:, a] += w
                dBs[name].append(dB)
            for a in range(1, size):
                dB = np.zeros((size, size))
                dB[a, a] = kappa[a]
                dBs[name].append(dB)
        idx = level_rows[name]
        factors[name] = B[idx[:, None], idx[None, :]]
    Bfull = np.prod(list(factors.values()), axis=0)
    R = (corr + cfg.jitter) * Bfull + eta * eye
    dRs = [dcorr * Bfull, eta * eye]
    for name, level_dBs in dBs.items():
        idx = level_rows[name]
        others = np.prod([F for other, F in factors.items() if other != name]
                         + [np.ones((n, n))], axis=0)
        dRs += [(corr + cfg.jitter) * others * dB[idx[:, None], idx[None, :]]
                for dB in level_dBs]
    c = cho_factor(R, lower=True)
    alpha = cho_solve(c, y)
    s2 = y @ alpha / n
    nll = 0.5 * n * (np.log(s2) + 1.0 + np.log(2 * np.pi)) + np.sum(np.log(np.diag(c[0])))
    A = np.outer(alpha, alpha) / s2 - cho_solve(c, eye)
    return nll, np.array([-0.5 * np.sum(A * dR) for dR in dRs])


LEVEL_CASES = {
    # name: (curves, labels)
    "coord-only": (1, None),
    "two-curves": (2, None),
    "three-curves": (3, None),
    "all-free-rank1": (3, ["a", "b", "a"]),
    "two-groups": (2, ["a", "b"]),  # curve and group levels both 2 x 2
    "three-groups": (3, ["a", "b", "c"]),
    "four-curves-three-groups": (4, ["a", "b", "c", "a"]),  # two W levels
    "four-curves-two-groups": (4, ["a", "a", "b", "b"]),  # W curve, 2 x 2 group
}


class TestDefaultStart:
    @pytest.mark.parametrize("case", sorted(LEVEL_CASES))
    def test_every_level_starts_where_documented(self, case):
        # B = I on the coordinate level and on a curve level of size 2, a =
        # 0.1 on a group level of size 2 (off the cross-group saddle), and on
        # a larger level one W column of 0.1 with kappa = 1
        n_curves, labels = LEVEL_CASES[case]
        obj = MarginalLikelihoodObjective(paired_design(n_curves, 6, labels),
                                          ModelConfig())
        theta = obj.default_start()
        kernel, _ = obj.kernel_at(theta, 1.0)
        assert theta[0] == np.log(obj.tau / 4.0)
        assert [level.name for level in obj.levels] == [
            "coord", "curve", "group"][:len(obj.levels)]
        # theta's names in the documented order, one per coordinate: a
        # level of size 2 packs (a, b), a larger one W, then log kappa_1 ..
        names = ["rho", "eta"]
        for level in obj.levels:
            name, size = level.name, level.size
            assert level.slice == slice(len(names), len(names) + len(level.names))
            names += ([f"{name}.a", f"{name}.b"] if size == 2 else
                      [f"{name}.W[{i}]" for i in range(size)]
                      + [f"{name}.kappa[{i}]" for i in range(1, size)])
        assert obj.names == tuple(names)
        assert len(set(obj.names)) == len(obj.bounds) == obj.n_params
        for start, (lo, hi) in zip(theta, obj.bounds, strict=True):
            assert lo <= start <= hi
        for level in obj.levels:
            name, size = level.name, level.size
            B = getattr(kernel, name).matrix
            if size > 2:
                expected = np.full((size, size), 0.01) + np.eye(size)
            elif name == "group":
                expected = np.array([[1.0, 0.1], [0.1, 1.01]])
            else:
                expected = np.eye(2)
            assert np.allclose(B, expected, rtol=0.0, atol=1e-15)


class TestRandomStart:
    def test_draws_in_a_fixed_order(self):
        # rho, eta, then per level its W (or a) by normal and its kappa (or
        # e^2b) by uniform: a change of this order changes every fit, and
        # moves these values by far more than the last bits, in which np.log
        # may differ between CPUs
        obj = MarginalLikelihoodObjective(
            paired_design(4, 6, LEVEL_CASES["four-curves-two-groups"][1]), ModelConfig())
        assert obj.random_start(np.random.default_rng(0)).tolist() == pytest.approx([
            -2.9492880185695634, -8.285648810710523, 0.1921267951329846,
            -1.0147450450644426, -0.16070081194833327, 0.10847851647284541,
            0.39120001353904116, 0.2841242889387726, 0.12476966889233078,
            0.6294816676780216, 0.5008490747846626, 0.01239779380417308,
            0.2737913038058361], rel=1e-14, abs=0.0)


class TestContractedGradient:
    @pytest.mark.parametrize("case", sorted(LEVEL_CASES))
    @pytest.mark.parametrize("jitter", [0.0, DEFAULT_JITTER])
    @pytest.mark.parametrize("family", ["periodic_rbf", "periodic_matern32",
                                        "periodic_matern12"])
    def test_matches_dense_dk_oracle(self, family, jitter, case):
        n_curves, labels = LEVEL_CASES[case]
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 6, rng_seed=k, noise_sd=0.02))) for k in range(n_curves)]
        design = TrainingDesign.from_curves(curves, labels)
        obj = MarginalLikelihoodObjective(design, ModelConfig(
            family=family, jitter=jitter))
        rng = np.random.default_rng(3)
        for _ in range(3):
            theta = obj.random_start(rng)
            value, grad = one_row(obj, theta)
            value_oracle, grad_oracle = dense_dk_oracle(obj, theta)
            assert len(grad) == len(grad_oracle) == obj.n_params
            assert obj.value(theta) == value
            assert abs(value - value_oracle) <= 1e-10 * abs(value_oracle)
            # a start with rho at the low end of its box can make the input
            # correlation I to the last bit: without jitter R is then (1 +
            # eta) I, the profile likelihood is flat in every parameter and
            # both gradients are rounding (1e-19), so the scale has a floor
            assert (np.max(np.abs(grad - grad_oracle))
                    <= 1e-10 * max(np.max(np.abs(grad_oracle)), 1e-8))


class TestSharedGramBuilder:
    @pytest.mark.parametrize("case", sorted(LEVEL_CASES))
    @pytest.mark.parametrize("jitter", [0.0, DEFAULT_JITTER])
    @pytest.mark.parametrize("family", ["periodic_rbf", "periodic_matern32",
                                        "periodic_matern12"])
    def test_objective_gram_is_multilevel_gram(self, family, jitter, case):
        n_curves, labels = LEVEL_CASES[case]
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 6, rng_seed=k, noise_sd=0.02))) for k in range(n_curves)]
        design = TrainingDesign.from_curves(curves, labels)
        obj = MarginalLikelihoodObjective(design, ModelConfig(
            family=family, jitter=jitter))
        rng = np.random.default_rng(5)
        n = len(design.s)
        for _ in range(3):
            theta = obj.random_start(rng)
            K, grads = one_row_gram(obj, theta)
            kernel, _ = obj.kernel_at(theta, 1.0)  # the Gram at sigma2 = 1
            full = full_grid_gram_oracle(kernel, *rows(design)[0])
            # the point Gram is the Gram without the coordinate factor; the
            # oracle takes each point's group, its curve's
            expected = multilevel_gram(kernel, design.s, j_a=design.j,
                                       curve_group=design.curve_group)
            oracle = full_grid_gram_oracle(kernel, design.s, None, design.j,
                                           design.curve_group[design.j])
            assert K.shape == (n, n)
            assert np.array_equal(K, expected)
            assert np.array_equal(K, oracle)
            assert np.array_equal(expected, oracle)
            assert (np.max(np.abs(np.kron(K, kernel.coord.matrix) - full))
                    <= 1e-15 * np.max(np.abs(full)))
            assert len(grads) == 2
            assert all(G.shape == K.shape for G in grads)
            # the coordinate basis `assemble_model` forms from the kernel
            lam, Q = obj._work[1].basis  # the record the one-row call left
            lam_k, Q_k = _coord_basis(kernel.coord.matrix)
            assert lam.tobytes() == lam_k.tobytes() and Q.tobytes() == Q_k.tobytes()

    @pytest.mark.parametrize("case", sorted(LEVEL_CASES))
    @pytest.mark.parametrize("jitter", [0.0, DEFAULT_JITTER])
    @pytest.mark.parametrize("family", ["periodic_rbf", "periodic_matern32",
                                        "periodic_matern12"])
    def test_unpack_profiles_sigma2_over_multilevel_gram(self, family, jitter, case):
        # sigma2's estimate from the Gram and solve `assemble_model` runs is
        # the one the objective's own one-row Gram and solve give, bit for bit
        n_curves, labels = LEVEL_CASES[case]
        curves = [scale_to_unit_length(center(generate_synthetic(
            "star", 6, rng_seed=k, noise_sd=0.02))) for k in range(n_curves)]
        design = TrainingDesign.from_curves(curves, labels)
        obj = MarginalLikelihoodObjective(design, ModelConfig(
            family=family, jitter=jitter))
        rng = np.random.default_rng(7)
        thetas = [obj.default_start()] + [obj.random_start(rng) for _ in range(3)]
        for k, theta in enumerate(thetas):
            if k == 2:  # work arrays that a stacked evaluation left
                obj.value_and_grad(np.array(thetas))
            got = obj.unpack(theta)
            obj.gram_and_grads(np.array([theta]))
            work = obj._work[1]
            quads = _solve(work.solve, work.targets)[3]
            want = obj.kernel_at(theta, quads[0] / (2 * len(design.s)))
            assert kernel_bytes(*got) == kernel_bytes(*want)
            assert type(got[1]) is float


def kernel_bytes(kernel, noise_variance):
    """A kernel and a noise variance as comparable values: the input
    kernel's fields, each level's W and kappa as bytes, and the noise."""
    hyp = kernel.input_kernel
    levels = (kernel.coord, kernel.curve, kernel.group)
    return ((hyp.sigma2, hyp.rho, hyp.tau, hyp.family, hyp.jitter), noise_variance,
            [None if level is None else (level.w.tobytes(), level.kappa.tobytes())
             for level in levels])


def paired_design(n_curves=2, n=8, labels=None):
    curves = [scale_to_unit_length(center(generate_synthetic(
        "star", n, rng_seed=k, noise_sd=0.02))) for k in range(n_curves)]
    return TrainingDesign.from_curves(curves, labels)


def near_singular_design():
    """(design, kernel, noise variance): a very long length scale without
    jitter or noise, so K is numerically singular and needs a rung of the
    nugget ladder."""
    design = paired_design(2, 30)
    hyp = PeriodicHyperparameters(1.0, 1.0, float(np.mean(design.lengths)),
                                  family="periodic_rbf", jitter=0.0)
    kernel = MultiLevelKernel(
        hyp, CoregMatrix(np.array([[0.6], [0.3]]), np.array([0.4, 0.7])),
        curve=CoregMatrix(np.array([[0.9], [0.5]]), np.full(2, 0.2)))
    return design, kernel, 0.0


class TestCoordinateSplit:
    def test_jitter_free_split_matches_dense_oracle(self):
        design = paired_design()
        p = len(design.s)
        # without jitter, K is the pure product of the input kernel and the
        # level factors: P x P work arrays, two P x P factors, and the
        # likelihood of the 2P x 2P system
        obj = MarginalLikelihoodObjective(design, ModelConfig(jitter=0.0))
        theta = obj.default_start()
        K, grads = one_row_gram(obj, theta)
        assert K.shape == (p, p) and all(G.shape == (p, p) for G in grads)
        value, grad = one_row(obj, theta)
        value_oracle, grad_oracle = dense_dk_oracle(obj, theta)
        assert abs(value - value_oracle) <= 1e-10 * abs(value_oracle)
        assert np.max(np.abs(grad - grad_oracle)) <= 1e-10 * np.max(np.abs(grad_oracle))
        model = assemble_model(design, *obj.unpack(theta))
        assert [L.shape for L in model.chol] == [(p, p)] * 2
        assert model.log_marginal_likelihood == pytest.approx(-value_oracle, rel=1e-10)

    @pytest.mark.parametrize("coord", [
        (0.0, 0.0),                  # B = I: Q = I
        (-0.75, np.log(0.03)),       # near rank 1
        (0.4, np.log(0.7))])
    def test_value_and_grad_at_coordinate_extremes(self, coord):
        # coord is (a, b) of the coordinate factor L = [[1, 0], [a, e^b]]
        design = paired_design(3, 6, ["a", "b", "a"])
        obj = MarginalLikelihoodObjective(design, ModelConfig())
        theta = obj.default_start()
        theta[obj.levels[0].slice] = coord
        value, grad = one_row(obj, theta)
        value_oracle, grad_oracle = dense_dk_oracle(obj, theta)
        assert abs(value - value_oracle) <= 1e-10 * abs(value_oracle)
        assert np.max(np.abs(grad - grad_oracle)) <= 1e-10 * np.max(np.abs(grad_oracle))
        assert assemble_model(design, *obj.unpack(theta)).log_marginal_likelihood == (
            pytest.approx(-value_oracle, rel=1e-10))

    def test_near_singular_design_escalates_alike(self):
        # the two P x P blocks need the rung of the nugget ladder that the
        # dense 2P x 2P system of the rows needs; a rung is a fraction of the
        # mean diagonal entry, which the rotation into the blocks keeps
        design, kernel, noise_variance = near_singular_design()
        model = assemble_model(design, kernel, noise_variance)
        x, y = rows(design)
        K = full_grid_gram_oracle(kernel, *x)
        for nugget in NUGGET_LADDER:
            try:
                c = cho_factor(K + nugget * np.mean(np.diag(K)) * np.eye(len(y)),
                               lower=True)
            except np.linalg.LinAlgError:
                continue
            break
        oracle = (-0.5 * y @ cho_solve(c, y) - np.log(np.diag(c[0])).sum()
                  - 0.5 * len(y) * np.log(2 * np.pi))
        assert model.diagnostics["nugget"] == nugget > 0.0
        assert model.log_marginal_likelihood == pytest.approx(oracle, rel=1e-6)


def unit_corner(B):
    """(a, b) of the unit-corner factor L = [[1, 0], [a, e^b]] of a 2 x 2
    matrix B, scaled to B[0, 0] = 1."""
    a = B[0, 1] / B[0, 0]
    return np.array([a, 0.5 * np.log(B[1, 1] / B[0, 0] - a * a)])


class TestLargestNugget:
    def test_evaluation_returns_the_rung_of_a_near_singular_design(self):
        design, kernel, _ = near_singular_design()
        obj = MarginalLikelihoodObjective(design, ModelConfig(family="periodic_rbf",
                                                              jitter=0.0))
        # rho = 1, no noise, and the kernel's levels as unit-corner factors
        theta = np.concatenate([[0.0, -np.inf]] + [
            unit_corner(level.matrix) for level in (kernel.coord, kernel.curve)])
        rung = assemble_model(design, *obj.kernel_at(theta, 1.0)).diagnostics["nugget"]
        # the default start needs no nugget: each row returns its own rung
        _, _, nuggets, errors = obj.value_and_grad(np.array([theta, obj.default_start()]))
        assert nuggets == [rung, 0.0] and rung > 0.0
        assert errors == [None, None]

    def test_fit_records_the_largest_nugget_per_restart(self, monkeypatch):
        # with almost no noise the optimization of the near-singular design
        # meets the ladder, which the final factorization's nugget need not show
        import curvegp.model as model
        monkeypatch.setattr(model, "NOISE_BOX", (1e-300, 1e-290))
        design = near_singular_design()[0]
        fitted = fit(design, ModelConfig(family="periodic_rbf", jitter=0.0),
                     OptimizerConfig(restarts=2, maxiter=5, seed=1))
        records = fitted.diagnostics["restarts"]
        assert len(records) == 2
        assert all(r["max_nugget"] in NUGGET_LADDER for r in records)
        assert max(r["max_nugget"] for r in records) > 0.0
        assert "max_nugget" not in fitted.diagnostics  # the records' own, only

    def test_default_fit_records_zero(self):
        design, _ = circle_design(8)
        fitted = fit(design, ModelConfig(), OptimizerConfig(restarts=3, seed=0))
        assert [r["max_nugget"] for r in fitted.diagnostics["restarts"]] == [0.0] * 3


class TestLadderBuffer:
    """A row that escalates forms its blocks again from its point Gram, in
    the buffer it factors; the ladder that keeps a copy of the blocks
    (`two_buffer_ladder`) gives the same numbers, bit for bit."""

    @staticmethod
    def near_singular_rows():
        """(objective, theta that escalates): the near-singular design at rho
        = 1 without noise, its levels as unit-corner factors."""
        design, kernel, _ = near_singular_design()
        obj = MarginalLikelihoodObjective(design, ModelConfig(family="periodic_rbf",
                                                              jitter=0.0))
        theta = np.concatenate([[0.0, -np.inf]] + [
            unit_corner(level.matrix) for level in (kernel.coord, kernel.curve)])
        return obj, theta

    @pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
    def test_an_escalating_row_of_a_stack(self, monkeypatch, where):
        import curvegp.model as model
        obj, theta = self.near_singular_rows()
        rng = np.random.default_rng(where)
        X = np.array([obj.random_start(rng) for _ in range(3)])
        X[where] = theta
        K = obj.gram_and_grads(X)[0].copy()
        basis = tuple(a.copy() for a in obj._work[len(X)].basis)
        etas = np.exp(X[:, 1])

        def run():
            return (_solve(_SolveWork(K, basis, etas), obj.design.y.T),
                    [np.copy(a) if isinstance(a, np.ndarray) else a
                     for a in obj.value_and_grad(X)])

        got = run()
        monkeypatch.setattr(model, "_chol_with_ladder", two_buffer_ladder)
        want = run()
        nuggets = got[0][1]
        assert nuggets[where] > 0.0 and nuggets.count(0.0) == 2
        for a, b in zip(got[0] + tuple(got[1]), want[0] + tuple(want[1])):
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes()
            else:
                assert a == b

    def test_assemble_model(self, monkeypatch):
        import curvegp.model as model
        obj, theta = self.near_singular_rows()
        kernel, noise_variance = obj.kernel_at(theta, 1.0)
        got = assemble_model(obj.design, kernel, noise_variance)
        monkeypatch.setattr(model, "_chol_with_ladder", two_buffer_ladder)
        want = assemble_model(obj.design, kernel, noise_variance)
        assert got.diagnostics["nugget"] == want.diagnostics["nugget"] > 0.0
        assert got.chol.tobytes() == want.chol.tobytes()
        assert got.alpha.tobytes() == want.alpha.tobytes()
        assert got.log_marginal_likelihood == want.log_marginal_likelihood


class TestRelativeNugget:
    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_rung_does_not_depend_on_scale(self, scale):
        # a rank-1 block needs the first nonzero rung at any scale; an
        # absolute 1e-8 nugget is lost in rounding at 1e12
        blocks = np.ones((2, 4, 4)) * [[[1.0]], [[3.0]]]
        K, lam = scale * np.ones((4, 4)), np.array([1.0, 3.0])
        factors, rung = _chol_with_ladder(lam[:, None, None] * K, K, lam, 0.0)
        assert rung == NUGGET_LADDER[1]
        nugget = rung * 2.0 * scale  # the mean diagonal entry is 2 scale
        for L, block in zip(factors, blocks):
            L = np.tril(L)
            assert np.allclose(L @ L.T, scale * block + nugget * np.eye(4),
                               rtol=1e-12, atol=0.0)

    def test_fit_in_units_of_a_million(self):
        # both restarts converge at sigma2 = 1 with a nugget, and the final
        # factorization at sigma2's estimate, about 1e19, once needed a
        # nugget that an absolute ladder could not give (NumericalError)
        curves = [Curve(1e6 * generate_synthetic("star", 30, rng_seed=k,
                                                 noise_sd=0.01).points)
                  for k in (1, 2)]
        model = fit(TrainingDesign.from_curves(curves), ModelConfig(),
                    OptimizerConfig(restarts=2))
        assert model.diagnostics["nugget"] in NUGGET_LADDER
        pred = predict_curve(model, 0, 20)
        assert np.isfinite(pred.means).all() and np.isfinite(pred.covariances).all()


# name: (design, model config, optimizer config, a message one of its
# restarts must end with, so that each case takes the path it names)
SCIPY_ORACLE_CASES = {
    "converges": (lambda: paired_design(1, 6), ModelConfig(),
                  OptimizerConfig(restarts=3, seed=0), "CONVERGENCE: NORM OF PROJECTED"),
    "stops-at-maxiter": (lambda: paired_design(3, 6), ModelConfig(),
                         OptimizerConfig(restarts=3, seed=4, maxiter=60),
                         "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"),
    "landmarks-3x4": (lambda: paired_design(3, 4), ModelConfig(),
                      OptimizerConfig(restarts=2, seed=1), "CONVERGENCE: RELATIVE"),
    "fit-group": (lambda: paired_design(3, 6, ["a", "b", "a"]),
                  ModelConfig(), OptimizerConfig(restarts=2, seed=2),
                  "CONVERGENCE: RELATIVE"),
}


def scipy_restarts(design, model_config, opt):
    """`fit`'s restarts through `scipy.optimize.minimize` (jac=True): the
    restart records `fit` logs, each scored minus its run's last value, and
    each restart's x."""
    from scipy.optimize import minimize
    obj = MarginalLikelihoodObjective(design, model_config)
    rng = np.random.default_rng(opt.seed)
    scores, xs, records = [], [], []
    for i in range(opt.restarts):
        theta0 = obj.default_start() if i == 0 else obj.random_start(rng)
        res = minimize(lambda theta: one_row(obj, theta), theta0, jac=True, method="L-BFGS-B",
                       bounds=obj.bounds, options={"maxiter": opt.maxiter})
        scores.append(-float(res.fun))
        xs.append(res.x)
        records.append({"restart": i, "score": scores[-1], "nit": int(res.nit),
                        "nfev": int(res.nfev), "success": bool(res.success),
                        "message": res.message, "max_nugget": 0.0})
    return obj, scores, xs, records


class TestMinimize:
    @pytest.mark.parametrize("case", sorted(SCIPY_ORACLE_CASES))
    def test_fit_equals_scipy_minimize(self, case):
        # the same restarts through scipy's own L-BFGS-B wrapper, bit for bit
        make_design, model_config, opt, message = SCIPY_ORACLE_CASES[case]
        design = make_design()
        fitted = fit(design, model_config, opt)
        obj, scores, xs, records = scipy_restarts(design, model_config, opt)
        diag = fitted.diagnostics
        assert any(r["message"].startswith(message) for r in records)
        assert diag["restarts"] == records
        best = int(np.argmax(scores))
        assert diag["best_restart"] == best
        kernel, noise_variance = obj.unpack(xs[best])
        assert fitted.noise_variance == noise_variance
        assert fitted.kernel.input_kernel == kernel.input_kernel
        for name in ("coord", "curve", "group"):
            got, want = getattr(fitted.kernel, name), getattr(kernel, name)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got.w, want.w)
                assert np.array_equal(got.kappa, want.kappa)

    @pytest.mark.parametrize("maxfun", [None, 7])
    @pytest.mark.parametrize("fun", ["wrong-sign-gradient", "rosenbrock", "kinked"])
    def test_driver_equals_scipy_minimize(self, monkeypatch, fun, maxfun):
        # every stop of the driver, an abnormal line search and the
        # evaluation limit included, against scipy; x0 lies outside the box
        from scipy.optimize import minimize as scipy_minimize
        import curvegp.model as model

        def rosenbrock(x):
            r = x[1:] - x[:-1] ** 2
            g = np.zeros_like(x)
            g[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
            g[1:] += 200.0 * r
            return float(100.0 * r @ r + (1.0 - x[:-1]) @ (1.0 - x[:-1])), g

        funs = {"wrong-sign-gradient": lambda x: (float(x @ x), -2.0 * x),
                "rosenbrock": rosenbrock,
                "kinked": lambda x: (float(np.abs(x).sum() + 1e-3 * np.sin(1e4 * x).sum()),
                                     np.sign(x))}
        options = {"maxiter": 200}
        if maxfun is not None:
            monkeypatch.setattr(model, "LBFGS_MAXFUN", maxfun)
            options["maxfun"] = maxfun
        bounds = [(-2.0, 2.0)] * 5
        x0 = np.array([1.5, -1.0, 0.5, 3.0, -0.7])
        got = model.minimize(funs[fun], x0, bounds, 200)
        want = scipy_minimize(funs[fun], x0, jac=True, method="L-BFGS-B",
                              bounds=bounds, options=options)
        assert got.x.tobytes() == want.x.tobytes()
        assert type(got.fun) is type(want.fun) and got.fun == want.fun
        assert (got.nit, got.nfev, got.success, got.message) == (
            want.nit, want.nfev, want.success, want.message)

    def test_restart_failing_partway_is_skipped(self, monkeypatch):
        # a factorization failing at the fifth point of restart 1, in the
        # middle of the lockstep, drops that restart alone: the other
        # restarts' records stay as they were
        import curvegp.model as model
        design = paired_design(3, 4)
        opt = OptimizerConfig(restarts=3, seed=1)
        records = fit(design, ModelConfig(), opt).diagnostics["restarts"]
        assert records[1]["nfev"] > 5
        raised = fail_at_point(monkeypatch, design, opt, restart=1, k=5)
        rows, value_and_grad = [0], model.MarginalLikelihoodObjective.value_and_grad

        def counted(self, theta, stack_rows=None):
            rows[0] += len(theta)
            return value_and_grad(self, theta, stack_rows)

        monkeypatch.setattr(model.MarginalLikelihoodObjective, "value_and_grad", counted)
        with pytest.warns(UserWarning, match="restart 1: factorization failed, skipped"):
            fitted = fit(design, ModelConfig(), opt)
        assert raised == [1]
        assert fitted.diagnostics["restarts"] == [records[0], records[2]]
        # restart 1 evaluates nothing after its failing fifth point
        assert rows[0] == records[0]["nfev"] + records[2]["nfev"] + 5

    def test_every_restart_failing_names_the_factorization(self, monkeypatch):
        # restarts that end without converging are kept; only a failed
        # factorization skips one, so that is what the error names
        import curvegp.model as model

        def fails(out, *gram):
            raise NumericalError("forced factorization failure")

        monkeypatch.setattr(model, "_chol_with_ladder", fails)
        with pytest.warns(UserWarning) as caught:
            with pytest.raises(NumericalError, match="^all restarts failed to factorize$"):
                fit(paired_design(2, 4), ModelConfig(), OptimizerConfig(restarts=2))
        assert [str(w.message) for w in caught] == [
            f"restart {i}: factorization failed, skipped" for i in (0, 1)]


def fail_at_point(monkeypatch, design, opt, restart, k):
    """Make the factorization fail at the k-th point that restart
    ``restart`` of a fit of ``design`` (default model config, optimizer
    config ``opt``) evaluates, wherever the lockstep puts that row: the
    point comes from running the restart alone through `minimize`, and
    `_chol_with_ladder` raises on that point's blocks alone. Returns a list
    that gets a 1 for every failure raised."""
    import curvegp.model as model
    obj = MarginalLikelihoodObjective(design, ModelConfig())
    rng = np.random.default_rng(opt.seed)
    starts = [obj.default_start()] + [obj.random_start(rng) for _ in range(1, opt.restarts)]
    points = []

    def recorded(theta):
        points.append(theta.copy())
        return one_row(obj, theta)

    model.minimize(recorded, starts[restart], obj.bounds, opt.maxiter)
    factor, seen, raised = model._chol_with_ladder, [], []

    def spy(out, *gram):  # the blocks the factor buffer holds when called
        seen.append(out.copy())
        return factor(out, *gram)

    monkeypatch.setattr(model, "_chol_with_ladder", spy)
    one_row(obj, points[k - 1])

    def fails_there(out, *gram):
        if np.array_equal(out, seen[-1]):
            raised.append(1)
            raise NumericalError("forced factorization failure")
        return factor(out, *gram)

    monkeypatch.setattr(model, "_chol_with_ladder", fails_there)
    return raised


def shape_design(n_curves):
    """Star, ellipse and circle (10 points, noise sd 0.003, seeds 0, 1, 2),
    the first ``n_curves`` of them, centered and scaled to unit length."""
    shapes = [("star", {}), ("ellipse", {"axes": (1.0, 0.6)}), ("circle", {})]
    return TrainingDesign.from_curves([scale_to_unit_length(center(generate_synthetic(
        shape, 10, rng_seed=k, noise_sd=0.003, **kw)))
        for k, (shape, kw) in enumerate(shapes[:n_curves])])


def scaled_outputs(obj, log_scale, theta):
    """The full 2P x 2P covariance and the log noise variance of the model
    at theta, its scale multiplied by exp(log_scale)."""
    kernel, noise_variance = obj.unpack(theta)
    d = obj.design
    C = np.kron(multilevel_gram(kernel, d.s, j_a=d.j, curve_group=d.curve_group),
                kernel.coord.matrix)
    C += noise_variance * np.eye(len(C))
    return np.concatenate([np.exp(log_scale) * C.ravel(),
                           [log_scale + np.log(noise_variance)]])


class TestIdentifiability:
    @pytest.mark.parametrize("n_curves", [2, 3])
    def test_every_parameter_moves_the_model(self, n_curves):
        # the Jacobian of (covariance, log noise) in (log scale, theta) has
        # full column rank: no packed direction leaves the model, or its
        # scale, unchanged. A parameter vector with a scale of its own, or a
        # level with a scale of its own, duplicates the log scale column
        obj = MarginalLikelihoodObjective(shape_design(n_curves), ModelConfig())
        x = np.concatenate([[0.0], obj.random_start(np.random.default_rng(0))])
        columns = []
        for k in range(len(x)):
            step = np.zeros(len(x))
            step[k] = 1e-5
            plus, minus = x + step, x - step
            columns.append((scaled_outputs(obj, plus[0], plus[1:])
                            - scaled_outputs(obj, minus[0], minus[1:])) / 2e-5)
        singular = np.linalg.svd(np.array(columns).T, compute_uv=False)
        assert np.sum(singular > 1e-7 * singular[0]) == obj.n_params + 1

    @pytest.mark.parametrize("n_curves, n_params", [(1, 4), (2, 6), (3, 9)])
    def test_parameter_count(self, n_curves, n_params):
        # log rho, log eta, a and b of the coordinate factor, a and b of a
        # two-curve factor, and W and log kappa_1, kappa_2 of three curves
        obj = MarginalLikelihoodObjective(shape_design(n_curves), ModelConfig())
        assert obj.n_params == n_params == len(obj.bounds)


class TestProfileLikelihood:
    @pytest.mark.parametrize("case", sorted(LEVEL_CASES))
    def test_value_is_the_likelihood_at_the_estimated_scale(self, case):
        # value(theta) is -log p(y) of the model unpack assembles, whose
        # sigma2 is y^T R^-1 y / 2P; moving sigma2 either way lowers log p
        n_curves, labels = LEVEL_CASES[case]
        design = paired_design(n_curves, 6, labels)
        obj = MarginalLikelihoodObjective(design, ModelConfig())
        rng = np.random.default_rng(7)
        for _ in range(3):
            theta = obj.random_start(rng)
            value = obj.value(theta)
            kernel, noise_variance = obj.unpack(theta)
            best = assemble_model(design, kernel, noise_variance).log_marginal_likelihood
            assert abs(value + best) <= 1e-10 * abs(value)
            sigma2 = kernel.input_kernel.sigma2
            for factor in (1 - 1e-3, 1 + 1e-3):
                moved = assemble_model(design, *obj.kernel_at(theta, factor * sigma2))
                assert moved.log_marginal_likelihood < best

    def test_scale_of_the_targets_goes_to_sigma2_alone(self):
        # y -> c y at the same theta multiplies sigma2, the jitter and the
        # noise variance by c^2, adds 2P log c to -log p and leaves the
        # gradient as it was; eta's box moves by -log c^2 with var(y)
        design = paired_design(3, 6)
        scaled = TrainingDesign(s=design.s, j=design.j, y=1e3 * design.y,
                                lengths=design.lengths, curve_group=design.curve_group)
        obj = MarginalLikelihoodObjective(design, ModelConfig())
        obj_scaled = MarginalLikelihoodObjective(scaled, ModelConfig())
        assert obj_scaled.bounds[1] == pytest.approx(
            (obj.bounds[1][0] - np.log(1e6), obj.bounds[1][1] - np.log(1e6)))
        theta = obj.random_start(np.random.default_rng(2))
        (kernel, noise_variance), (kernel_scaled, noise_scaled) = (
            o.unpack(theta) for o in (obj, obj_scaled))
        hyp, hyp_scaled = kernel.input_kernel, kernel_scaled.input_kernel
        assert hyp_scaled.sigma2 == pytest.approx(1e6 * hyp.sigma2, rel=1e-10)
        assert hyp_scaled.jitter == pytest.approx(1e6 * hyp.jitter, rel=1e-10)
        assert noise_scaled == pytest.approx(1e6 * noise_variance, rel=1e-10)
        assert hyp_scaled.rho == hyp.rho
        value, grad = one_row(obj, theta)
        value_scaled, grad_scaled = one_row(obj_scaled, theta)
        assert value_scaled == pytest.approx(value + design.y.size * np.log(1e3),
                                             rel=1e-10)
        assert np.max(np.abs(grad_scaled - grad)) <= 1e-8 * np.max(np.abs(grad))


class TestWorkArrays:
    @pytest.mark.parametrize("case", sorted(LEVEL_CASES))
    def test_evaluation_does_not_depend_on_the_one_before(self, case):
        # value_and_grad keeps its work arrays across calls: theta1 after
        # theta2 gives what a fresh objective gives at theta1, bit for bit
        n_curves, labels = LEVEL_CASES[case]
        design = paired_design(n_curves, 6, labels)
        config = ModelConfig()
        obj = MarginalLikelihoodObjective(design, config)
        rng = np.random.default_rng(13)
        theta1, theta2 = obj.random_start(rng), obj.random_start(rng)
        first = one_row(obj, theta1)
        one_row(obj, theta2)
        again = one_row(obj, theta1)
        fresh = one_row(MarginalLikelihoodObjective(design, config), theta1)
        for value, grad in (first, again):
            assert value == fresh[0]
            assert np.array_equal(grad, fresh[1])

    def test_gradient_is_a_new_array_every_call(self):
        # the caller owns the gradient: writing into it leaves the next
        # call's value and gradient as they were, bit for bit
        obj = MarginalLikelihoodObjective(paired_design(3, 4), ModelConfig())
        theta = obj.default_start()
        value, grad = one_row(obj, theta)
        kept = grad.copy()
        grad[:] = np.nan
        again, grad2 = one_row(obj, theta)
        assert not np.shares_memory(grad, grad2)
        assert again == value
        assert grad2.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("labels", [None, ["a", "b", "a"]], ids=["one-group", "a,b,a"])
    def test_fitted_model_shares_no_memory_with_the_objective(self, monkeypatch, labels):
        import curvegp.model as model
        made = []

        class Recorded(MarginalLikelihoodObjective):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(model, "MarginalLikelihoodObjective", Recorded)
        fitted = fit(paired_design(3, 5, labels), ModelConfig(),
                     OptimizerConfig(restarts=2, maxiter=10))
        assert len(made) == 1
        buffers = list(_arrays(vars(made[0])))
        assert len(buffers) > 10
        for array in (fitted.chol, fitted.alpha):
            assert not any(np.shares_memory(array, buffer) for buffer in buffers)
        # so a further evaluation leaves the fitted model as it was
        chol, alpha = fitted.chol.copy(), fitted.alpha.copy()
        one_row(made[0], made[0].default_start())
        assert fitted.chol.tobytes() == chol.tobytes()
        assert fitted.alpha.tobytes() == alpha.tobytes()

    def test_levels_hold_no_work(self):
        # a level is a packing record: the arrays it writes, and what its
        # last call left, live in the stack's work, not in the level
        obj = MarginalLikelihoodObjective(paired_design(3, 5, ["a", "b", "a"]),
                                          ModelConfig())
        assert [level.name for level in obj.levels] == ["coord", "curve", "group"]
        rng = np.random.default_rng(4)
        for n_rows in (1, 6, 3):
            obj.value_and_grad(np.array([obj.random_start(rng) for _ in range(n_rows)]))
        obj.kernel_at(obj.default_start(), 1.0)
        for level in obj.levels:
            for name, value in vars(level).items():
                assert not isinstance(value, (dict, *WORK_RECORDS)), (level.name, name)
                assert not list(_arrays(value)), (level.name, name)

    def test_fitted_factors_keep_no_other_array_alive(self):
        # the factors a fitted model keeps own no memory beyond their own,
        # so the blocks they were factored from are freed with the call
        obj = MarginalLikelihoodObjective(paired_design(2, 6), ModelConfig())
        fitted = assemble_model(obj.design, *obj.unpack(obj.default_start()))
        owner = fitted.chol
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == fitted.chol.nbytes

    def test_objectives_of_different_sizes_called_in_turn(self):
        # each objective keeps work arrays of its own size: evaluations of
        # a P = 8 and a P = 15 objective interleaved give what a fresh
        # objective gives, bit for bit
        designs = [paired_design(2, 4), paired_design(3, 5, ["a", "b", "a"])]
        objs = [MarginalLikelihoodObjective(d, ModelConfig()) for d in designs]
        assert [o.n_points for o in objs] == [8, 15]
        rng = np.random.default_rng(21)
        for _ in range(3):
            for design, obj in zip(designs, objs):
                theta = obj.random_start(rng)
                value, grad = one_row(obj, theta)
                fresh = one_row(MarginalLikelihoodObjective(design, ModelConfig()), theta)
                assert value == fresh[0]
                assert grad.tobytes() == fresh[1].tobytes()

    @pytest.mark.parametrize("case", ["three-curves", "four-curves-two-groups"])
    def test_stacks_whose_rows_change_between_calls(self, case):
        # one objective evaluates stacks whose rows change from call to call,
        # as a shrinking lockstep hands them over: 7 rows, the same 7 again,
        # 3 other designs, 3 rows called without ``rows`` (its own design in
        # each, not the 3 others' it copied last), all 12 in another order, 3
        # rows of its own design and 12 again. The work arrays and the rows'
        # distances and targets it keeps between calls leave every row equal
        # to its one-row call
        n_curves, labels = LEVEL_CASES[case]
        designs = layout_designs(n_curves, labels, n=4, count=12)
        objs = [MarginalLikelihoodObjective(d, ModelConfig()) for d in designs]
        lead, rng = objs[0], np.random.default_rng(17)
        shuffled = [objs[k] for k in rng.permutation(12)]
        for rows in (objs[:7], objs[:7], [objs[9], objs[2], objs[5]], None, shuffled,
                     [lead] * 3, shuffled[::-1]):
            stack = rows or [lead] * 3
            X = np.array([obj.random_start(rng) for obj in stack])
            values, grads, nuggets, errors = lead.value_and_grad(X, rows)
            assert errors == [None] * len(stack)
            for b, obj in enumerate(stack):
                fresh = MarginalLikelihoodObjective(obj.design, ModelConfig())
                assert_same_row((values[b], grads[b]), one_row(fresh, X[b]))

    def test_unpack_and_kernel_at_keep_no_work(self, monkeypatch):
        # turning a theta into a kernel, sigma2's estimate included, reads
        # theta and the design alone: on a fresh objective neither call
        # evaluates the likelihood or makes its work arrays; an evaluation
        # does, and `unpack` after it gives the same bytes
        called = []
        for name in ("value_and_grad", "gram_and_grads", "_grow"):
            def recorded(self, *args, name=name, original=getattr(
                    MarginalLikelihoodObjective, name)):
                called.append(name)
                return original(self, *args)
            monkeypatch.setattr(MarginalLikelihoodObjective, name, recorded)
        obj = MarginalLikelihoodObjective(paired_design(3, 5, ["a", "b", "a"]), ModelConfig())
        theta = obj.default_start()
        got = obj.unpack(theta)
        obj.kernel_at(theta, 1.0)
        assert called == [] and obj._work == {}
        one_row(obj, theta)
        assert called == ["value_and_grad", "gram_and_grads", "_grow"]
        assert list(obj._work) == [1]
        assert kernel_bytes(*obj.unpack(theta)) == kernel_bytes(*got)

    @pytest.mark.parametrize("case", ["coord-only", "three-curves",
                                      "four-curves-three-groups"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_dR_dlogrho_is_the_kernels_derivative_times_the_curve_factor(self, family,
                                                                        case):
        # the objective's correlation work arrays give what a call of
        # `warped_correlation` without them gives, times F at the points' curves
        n_curves, labels = LEVEL_CASES[case]
        design = paired_design(n_curves, 5, labels)
        obj = MarginalLikelihoodObjective(design, ModelConfig(family=family))
        rng = np.random.default_rng(4)
        for theta in (obj.default_start(), obj.random_start(rng)):
            _, (dR, _) = one_row_gram(obj, theta)
            kernel, _ = obj.kernel_at(theta, 1.0)
            curve, group = (None if level is None else level.matrix
                            for level in (kernel.curve, kernel.group))
            F = curve_factor(curve, group, design.curve_group)[1]
            j = design.j
            expected = (warped_correlation(family, obj.warp, math.exp(theta[0]), True)[1]
                        * F[np.ix_(j, j)])
            assert dR.tobytes() == expected.tobytes()


def layout_designs(n_curves, labels, n=6, count=3):
    """``count`` designs of one layout (the curve indices and groups of
    ``paired_design(n_curves, n, labels)``) with different stars."""
    return [TrainingDesign.from_curves([scale_to_unit_length(center(generate_synthetic(
        "star", n, rng_seed=10 * d + k, noise_sd=0.02))) for k in range(n_curves)], labels)
        for d in range(count)]


def assert_same_row(got, want):
    """A row of a stacked call against a one-row call: value and gradient
    bit for bit."""
    value, grad = want
    assert type(got[0]) is type(value) and got[0] == value
    assert got[1].tobytes() == grad.tobytes()


def objective_state(obj):
    """Every attribute of an objective and of its levels: arrays by their
    bytes, anything else by identity."""
    return [{name: value.tobytes() if isinstance(value, np.ndarray) else id(value)
             for name, value in vars(o).items()} for o in (obj, *obj.levels)]


class TestStackedEvaluation:
    @pytest.mark.parametrize("case", sorted(LEVEL_CASES))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_row_equals_its_one_row_call(self, family, case):
        # rows from three designs of one layout, two rows per design, in
        # one call of the first design's objective
        n_curves, labels = LEVEL_CASES[case]
        designs = layout_designs(n_curves, labels)
        config = ModelConfig(family=family)
        objs = [MarginalLikelihoodObjective(d, config) for d in designs]
        rng = np.random.default_rng(31)
        order = [0, 1, 2, 2, 0, 1]
        X = np.array([objs[d].random_start(rng) for d in order])
        values, grads, nuggets, errors = objs[0].value_and_grad(X, [objs[d] for d in order])
        assert grads.shape == (len(order), objs[0].n_params)
        assert errors == [None] * len(order)
        assert nuggets == [0.0] * len(order)
        for b, d in enumerate(order):
            fresh = MarginalLikelihoodObjective(designs[d], config)
            assert_same_row((values[b], grads[b]), one_row(fresh, X[b]))
        # the stacked Gram of the rows, one P x P matrix each
        K, (dR, K0) = objs[0].gram_and_grads(X, [objs[d] for d in order])
        for b, d in enumerate(order):
            want = one_row_gram(MarginalLikelihoodObjective(designs[d], config), X[b])
            assert K[b].tobytes() == want[0].tobytes()
            assert dR[b].tobytes() == want[1][0].tobytes()
            assert K0[b].tobytes() == want[1][1].tobytes()

    def test_a_row_that_escalates_the_nugget_moves_only_its_record(self):
        design, kernel, _ = near_singular_design()
        config = ModelConfig(family="periodic_rbf", jitter=0.0)
        other = layout_designs(2, None, n=30, count=2)[1]
        singular, plain = (MarginalLikelihoodObjective(d, config) for d in (design, other))
        theta = np.concatenate([[0.0, -np.inf]] + [
            unit_corner(level.matrix) for level in (kernel.coord, kernel.curve)])
        X = np.array([plain.default_start(), theta, singular.default_start()])
        before = objective_state(singular)
        values, grads, nuggets, errors = plain.value_and_grad(X, [plain, singular, singular])
        assert objective_state(singular) == before  # a row's objective is only read
        rung = assemble_model(design, *singular.kernel_at(theta, 1.0)).diagnostics["nugget"]
        assert nuggets == [0.0, rung, 0.0] and rung > 0.0
        assert errors == [None] * 3
        for b, d in enumerate([other, design, design]):
            fresh = MarginalLikelihoodObjective(d, config)
            assert_same_row((values[b], grads[b]), one_row(fresh, X[b]))

    def test_a_row_that_cannot_be_factored_fails_alone(self, monkeypatch):
        import curvegp.model as model
        objs = [MarginalLikelihoodObjective(d, ModelConfig())
                for d in layout_designs(3, ["a", "b", "a"])]
        rng = np.random.default_rng(5)
        X = np.array([obj.random_start(rng) for obj in objs])
        want = [one_row(MarginalLikelihoodObjective(obj.design, ModelConfig()), x)
                for obj, x in zip(objs, X)]
        factor, calls = model._chol_with_ladder, [0]

        def fails_second(out, *gram):  # rows are factored in order
            calls[0] += 1
            if calls[0] == 2:
                raise NumericalError("forced factorization failure")
            return factor(out, *gram)

        monkeypatch.setattr(model, "_chol_with_ladder", fails_second)
        values, grads, nuggets, errors = objs[0].value_and_grad(X, objs)
        assert isinstance(errors[1], NumericalError) and errors[0] is errors[2] is None
        assert values[1] is None and nuggets[1] is None and np.isnan(grads[1]).all()
        for b in (0, 2):
            assert_same_row((values[b], grads[b]), want[b])
        calls[0] = 1  # alone, the row raises
        with pytest.raises(NumericalError, match="forced"):
            one_row(objs[1], X[1])

    @pytest.mark.parametrize("points", [4, 20], ids=["P=12", "P=60"])
    @pytest.mark.parametrize("n_rows", [1, 2, 7, 12])
    def test_stacks_of_any_size_equal_their_one_row_calls(self, n_rows, points):
        # one design per row, three curves of ``points`` points each
        objs = [MarginalLikelihoodObjective(d, ModelConfig())
                for d in layout_designs(3, None, n=points, count=n_rows)]
        rng = np.random.default_rng(n_rows)
        X = np.array([obj.random_start(rng) for obj in objs])
        values, grads, nuggets, errors = objs[0].value_and_grad(X, objs)
        assert grads.shape == (n_rows, objs[0].n_params)
        assert errors == [None] * n_rows and nuggets == [0.0] * n_rows
        for b, obj in enumerate(objs):
            fresh = MarginalLikelihoodObjective(obj.design, ModelConfig())
            assert_same_row((values[b], grads[b]), one_row(fresh, X[b]))

    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", ["escalates", "unfactorable"])
    def test_a_hard_row_anywhere_in_the_stack(self, monkeypatch, kind, position):
        # a row of a near-singular design needs a rung of the nugget ladder,
        # and with the ladder cut to its first rung it cannot be factored;
        # the other rows equal their one-row calls wherever it sits
        import curvegp.model as model
        if kind == "unfactorable":
            monkeypatch.setattr(model, "NUGGET_LADDER", (0.0,))
        design, kernel, _ = near_singular_design()
        config = ModelConfig(family="periodic_rbf", jitter=0.0)
        singular = MarginalLikelihoodObjective(design, config)
        plain = [MarginalLikelihoodObjective(d, config)
                 for d in layout_designs(2, None, n=30, count=4)]
        objs = plain[:position] + [singular] + plain[position:]
        X = np.array([obj.default_start() for obj in objs])
        X[position] = np.concatenate([[0.0, -np.inf]] + [
            unit_corner(level.matrix) for level in (kernel.coord, kernel.curve)])
        values, grads, nuggets, errors = objs[0].value_and_grad(X, objs)
        for b, obj in enumerate(objs):
            fresh = MarginalLikelihoodObjective(obj.design, config)
            if b != position:
                assert errors[b] is None and nuggets[b] == 0.0
                assert_same_row((values[b], grads[b]), one_row(fresh, X[b]))
            elif kind == "escalates":
                assert errors[b] is None and nuggets[b] > 0.0
                assert_same_row((values[b], grads[b]), one_row(fresh, X[b]))
            else:
                assert isinstance(errors[b], NumericalError)
                assert values[b] is None and nuggets[b] is None
                assert np.isnan(grads[b]).all()
                with pytest.raises(NumericalError, match="nugget ladder"):
                    one_row(fresh, X[b])

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    def test_a_non_finite_row_anywhere_in_the_stack_raises(self, position):
        # a curve level of 1e200 overflows that row's covariance: the whole
        # call raises the ValidationError a one-row call raises
        objs = [MarginalLikelihoodObjective(d, ModelConfig())
                for d in layout_designs(3, None, n=4)]
        rng = np.random.default_rng(2)
        X = np.array([obj.random_start(rng) for obj in objs])
        curve = objs[0].levels[1]
        X[position, curve.slice][:curve.size] = 1e200
        message = "the training covariance is not finite"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=message):
                objs[0].value_and_grad(X, objs)
            with pytest.raises(ValidationError, match=message):
                one_row(objs[position], X[position])

    @pytest.mark.parametrize("n", [12, 60])
    def test_each_stacked_inner_product_is_its_row_by_row_vdot(self, monkeypatch, n):
        # every inner product of an evaluation is one matmul over the stack
        # (`_dots`); in the layout the evaluation passes, each must give the
        # per-row np.vdot (or 1-D @) bit for bit. The diagonals keep their
        # stride, the rest is read contiguously: a contiguous copy of a
        # diagonal sums in another order.
        import curvegp.model as model
        B, strides, dots = 7, [], model._dots

        def recorded(a, b):
            strides.append((a.strides[-1], b.strides[-1]))
            return dots(a, b)

        monkeypatch.setattr(model, "_dots", recorded)
        objs = [MarginalLikelihoodObjective(d, ModelConfig())
                for d in layout_designs(3, None, n=n // 3, count=B)]
        objs[0].value_and_grad(np.array([obj.default_start() for obj in objs]), objs)
        assert sorted(strides) == [(8, 8)] * 4 + [(8 * (n + 1), 8 * (n + 1))]
        rng = np.random.default_rng(n)
        scale = np.exp(rng.uniform(-3.0, 3.0, size=(B, 1, 1)))
        stack = rng.standard_normal((B, 2, n, n)) * scale[:, None]  # C-ordered factors
        factors = stack.transpose(0, 1, 3, 2)
        K, A, dR = (rng.standard_normal((B, n, n)) * scale for _ in range(3))
        Y, alphas = (rng.standard_normal((B, 2, n)) * scale for _ in range(2))
        Yf, af, Af, dRf = (a.reshape(B, -1) for a in (Y, alphas, A, dR))
        pinned = {
            "quads": (_dots(Yf, af), [np.vdot(Y[b], alphas[b]) for b in range(B)]),
            "traces": (_dots(af, af), [np.vdot(alphas[b], alphas[b]) for b in range(B)]),
            "<K_e^-1, K>": (_dots(stack.reshape(B, 2, -1), K.reshape(B, 1, -1)),
                            [[np.vdot(L.T, K[b]) for L in factors[b]] for b in range(B)]),
            "diagonal": (_dots(factors.diagonal(axis1=2, axis2=3),
                               K.diagonal(axis1=1, axis2=2)[:, None]),
                         [[L.diagonal() @ K[b].diagonal() for L in factors[b]]
                          for b in range(B)]),
            "grad[:, 0]": (_dots(Af, dRf), [np.vdot(A[b], dR[b]) for b in range(B)]),
        }
        for name, (stacked, rows) in pinned.items():
            assert stacked.tobytes() == np.array(rows).tobytes(), name

    def test_rows_need_one_layout(self):
        a, b = (MarginalLikelihoodObjective(d, ModelConfig())
                for d in (paired_design(2, 4), paired_design(2, 4, ["a", "b"])))
        with pytest.raises(ValidationError, match="one layout"):
            a.value_and_grad(np.array([a.default_start()] * 2), [a, b])
        with pytest.raises(ValidationError, match="one layout"):
            fit_designs([a.design, b.design])
        with pytest.raises(ValidationError, match="at least one design"):
            fit_designs([])

    def test_rows_need_one_objective_per_row(self):
        # one objective for two rows was read as "every row is this one's",
        # and a list of the wrong length ended in numpy's shape error
        objs = [MarginalLikelihoodObjective(d, ModelConfig())
                for d in layout_designs(2, None, n=4, count=2)]
        X = np.array([obj.default_start() for obj in objs])
        for rows in ([objs[0]], [objs[1]], objs + objs[:1], []):
            with pytest.raises(ValidationError, match="one objective per row"):
                objs[0].value_and_grad(X, rows)


# the likelihood's entries, each called on a theta of some shape: those of
# one theta and those of a B x n_params stack
ONE_THETA = {"value": lambda obj, theta: obj.value(theta),
             "kernel_at": lambda obj, theta: obj.kernel_at(theta, 1.0),
             "unpack": lambda obj, theta: obj.unpack(theta)}
STACKED = {"value_and_grad": lambda obj, X: obj.value_and_grad(X),
           "gram_and_grads": lambda obj, X: obj.gram_and_grads(X)}
# a theta t of 9 parameters made into thetas of other shapes
MISSHAPED = {"t": lambda t: t, "[t]": lambda t: t[None],
             "t, t": lambda t: np.concatenate([t, t]), "t[:8]": lambda t: t[:8],
             "t[0]": lambda t: t[0], "0 x 9": lambda t: t[None][:0],
             "[t, t] as 6 x 3": lambda t: np.tile(t, 2).reshape(6, 3),
             "[t, t] as 2 x 9 x 1": lambda t: np.tile(t, 2).reshape(2, 9, 1)}


class TestThetaShape:
    """One shape per entry: a B x n_params stack, B >= 1, for
    `value_and_grad` and `gram_and_grads`, one theta of n_params for
    `value`, `kernel_at` and `unpack`; anything else is a ValidationError.
    A flat reshape once read two thetas end to end, or a 6 x 3 array, as a
    stack of two and returned row 0's value."""

    @pytest.mark.parametrize("shape", sorted(set(MISSHAPED) - {"t"}))
    @pytest.mark.parametrize("entry", sorted(ONE_THETA))
    def test_one_theta_entries_take_n_params_values(self, entry, shape):
        obj = MarginalLikelihoodObjective(paired_design(3, 10), ModelConfig())
        assert obj.n_params == 9  # three 10-point stars
        theta = MISSHAPED[shape](obj.default_start())
        # the message names the shape passed, not that of the stack [theta]
        with pytest.raises(ValidationError) as raised:
            ONE_THETA[entry](obj, theta)
        assert str(raised.value) == f"one theta needs shape (9,): got {theta.shape}"

    @pytest.mark.parametrize("shape", sorted(set(MISSHAPED) - {"[t]"}))
    @pytest.mark.parametrize("entry", sorted(STACKED))
    def test_stacked_entries_take_b_rows_of_n_params(self, entry, shape):
        obj = MarginalLikelihoodObjective(paired_design(3, 10), ModelConfig())
        X = MISSHAPED[shape](obj.default_start())
        with pytest.raises(ValidationError) as raised:
            STACKED[entry](obj, X)
        assert str(raised.value) == f"a stack of thetas needs shape (B, 9), B >= 1: got {X.shape}"


def assert_same_fit(got, want):
    """Two FittedModels bit for bit: diagnostics (the scored restart
    records among them), kernel, noise, factors, alpha and log p."""
    assert got.diagnostics == want.diagnostics
    assert got.kernel.input_kernel == want.kernel.input_kernel
    for name in ("coord", "curve", "group"):
        a, b = getattr(got.kernel, name), getattr(want.kernel, name)
        assert (a is None) == (b is None)
        if b is not None:
            assert a.w.tobytes() == b.w.tobytes() and a.kappa.tobytes() == b.kappa.tobytes()
    assert got.noise_variance == want.noise_variance
    assert got.log_marginal_likelihood == want.log_marginal_likelihood
    for name in ("chol", "alpha"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestLockstep:
    @pytest.mark.parametrize("case", ["three-curves", "four-curves-two-groups"])
    def test_designs_fitted_together_equal_their_fits_alone(self, case):
        n_curves, labels = LEVEL_CASES[case]
        designs = layout_designs(n_curves, labels, n=5)
        opt = OptimizerConfig(restarts=3, seed=4, maxiter=80)
        together = fit_designs(designs, ModelConfig(), opt)
        for got, design in zip(together, designs):
            assert_same_fit(got, fit(design, ModelConfig(), opt))

    def test_a_restart_failing_partway_drops_that_run_alone(self, monkeypatch):
        designs = layout_designs(3, None, n=4)
        opt = OptimizerConfig(restarts=3, seed=1)
        alone = [fit(d, ModelConfig(), opt) for d in designs]
        assert alone[1].diagnostics["restarts"][1]["nfev"] > 5
        raised = fail_at_point(monkeypatch, designs[1], opt, restart=1, k=5)
        with pytest.warns(UserWarning, match="restart 1: factorization failed, skipped"):
            together = fit_designs(designs, ModelConfig(), opt)
        assert raised == [1]
        for b in (0, 2):
            assert_same_fit(together[b], alone[b])
        records = alone[1].diagnostics["restarts"]
        assert together[1].diagnostics["restarts"] == [records[0], records[2]]

    def test_a_design_whose_restarts_all_fail_gets_its_error(self, monkeypatch):
        # both starts of design 1 cannot be factored: design 1 gets the
        # NumericalError that `fit` raises, design 0 its fit
        designs = layout_designs(2, None, n=4)
        opt = OptimizerConfig(restarts=2, seed=3)
        alone = fit(designs[0], ModelConfig(), opt)
        raised = [fail_at_point(monkeypatch, designs[1], opt, restart=i, k=1) for i in (0, 1)]
        with pytest.warns(UserWarning) as caught:
            together = fit_designs(designs, ModelConfig(), opt)
        assert raised == [[1], [1]]
        assert [str(w.message) for w in caught] == [
            f"design 1, restart {i}: factorization failed, skipped" for i in (0, 1)]
        assert_same_fit(together[0], alone)
        assert isinstance(together[1], NumericalError)
        assert str(together[1]) == "all restarts failed to factorize"

    def test_a_design_whose_final_assembly_fails_gets_its_error(self, monkeypatch):
        # design 1's best theta cannot be factored again at sigma2's
        # estimate: design 1 gets that NumericalError, designs 0 and 2 their
        # fits alone
        import curvegp.model as model
        designs = layout_designs(3, None, n=4)
        opt = OptimizerConfig(restarts=2, seed=1)
        alone = [fit(d, ModelConfig(), opt) for d in designs]
        assemble, error = model.assemble_model, NumericalError("forced final failure")

        def fails_for_design_1(design, *args):
            if design is designs[1]:
                raise error
            return assemble(design, *args)

        monkeypatch.setattr(model, "assemble_model", fails_for_design_1)
        together = fit_designs(designs, ModelConfig(), opt)
        assert together[1] is error
        for b in (0, 2):
            assert_same_fit(together[b], alone[b])

    def test_each_design_warns_of_its_skipped_restart(self, monkeypatch):
        # two designs that each lose restart 1 warn twice under Python's
        # default filter, which shows a repeated message once
        import warnings
        designs = layout_designs(2, None, n=4, count=2)
        opt = OptimizerConfig(restarts=2, seed=3)
        for design in designs:
            fail_at_point(monkeypatch, design, opt, restart=1, k=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            together = fit_designs(designs, ModelConfig(), opt)
        assert [str(w.message) for w in caught] == [
            f"design {d}, restart 1: factorization failed, skipped" for d in (0, 1)]
        assert [[r["restart"] for r in model.diagnostics["restarts"]]
                for model in together] == [[0], [0]]

    @pytest.mark.parametrize("entries", ["one-run", "all-runs"])
    def test_results_do_not_depend_on_the_run_cap(self, monkeypatch, entries):
        import curvegp.model as model
        designs = layout_designs(2, ["a", "b"], n=5)
        opt = OptimizerConfig(restarts=3, seed=2, maxiter=60)
        want = fit_designs(designs, ModelConfig(), opt)
        p = len(designs[0].s)
        widths = []
        lockstep = model._lockstep

        def recorded(evaluate, starts, maxiter, width, factr):
            widths.append(width)
            return lockstep(evaluate, starts, maxiter, width, factr)

        monkeypatch.setattr(model, "_lockstep", recorded)
        monkeypatch.setattr(model, "LOCKSTEP_ENTRIES", 1 if entries == "one-run"
                            else len(designs) * opt.restarts * p * p)
        got = fit_designs(designs, ModelConfig(), opt)
        assert widths == [1 if entries == "one-run" else len(designs) * opt.restarts]
        for a, b in zip(got, want):
            assert_same_fit(a, b)

    def test_landmark_search_is_pinned(self):
        # the trials' fits in one lockstep, stopped at the landmark trials'
        # tolerance (`TRIAL_FACTR`), give the indices, score and trials
        # that fitting each trial alone at that tolerance gives. OpenBLAS's
        # dpotri rounds differently at one thread than at two or more, so
        # the search runs in a fresh interpreter at one BLAS thread, as the
        # benchmark does, and the figures hold whatever this process uses
        code = ("import json\n"
                "from curvegp.applications import (TRIAL_FACTR, LandmarkConfig, _score_subset,"
                " simultaneous_landmarks)\n"
                "from curvegp.curves import Curve, generate_synthetic\n"
                "from curvegp.model import OptimizerConfig, TrainingDesign, fit_designs\n"
                "curves = [generate_synthetic('star', 12, rng_seed=k, noise_sd=0.01)"
                " for k in (1, 2, 3)]\n"
                "opt = OptimizerConfig(restarts=2)\n"
                "result = simultaneous_landmarks(curves, LandmarkConfig(p=4, n_trials=4,"
                " rng_seed=2), opt_config=opt)\n"
                "alone = []\n"
                "for subset, _ in result.trials:\n"
                "    subs = [Curve(c.points[list(subset)]) for c in curves]\n"
                "    model, = fit_designs([TrainingDesign.from_curves(subs)], None, opt,"
                " factr=TRIAL_FACTR)\n"
                "    alone.append([subset, _score_subset(curves, subs, model, 'imspe')])\n"
                "print(json.dumps([result.indices, result.score, result.trials, alone]))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        indices, score, trials, alone = json.loads(proc.stdout)
        assert indices == [0, 3, 6, 9]
        assert score == 0.09180055835251734
        assert trials == [[[1, 2, 3, 7], 0.2894586409276832],
                          [[0, 3, 6, 9], 0.09180055835251734],
                          [[0, 3, 6, 7], 0.15300672073478652],
                          [[1, 2, 5, 8], 0.1947327254908795]]
        assert alone == trials


# the records of an objective's work, each a home of work arrays
WORK_RECORDS = (_LevelWork, _SolveWork, _StackWork)


def _arrays(value):
    """Every numpy array in a value, looking into tuples, lists, dicts and
    the attributes of the objective's work records."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, WORK_RECORDS):
        yield from _arrays(vars(value))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
