"""Coregionalization matrices and the separable multi-level kernel."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvegp.coreg import CoregMatrix, MultiLevelKernel, multilevel_gram
from curvegp.errors import ValidationError
from curvegp.kernels import FAMILIES, PeriodicHyperparameters, gram
from gram_oracle import (full_grid_gram_oracle, full_grid_input_gram, level_factor,
                         periodic_eval)


HYP = PeriodicHyperparameters(1.2, 0.3, 1.0, family="periodic_rbf", jitter=0.0)


def multilevel_eval(kernel: MultiLevelKernel, a, b):
    """Kernel element between design rows a = (s, d, j, g) and b = (s', d',
    j', g'), level by level: the test-only element-wise oracle of the
    separable kernel. Curve/group indices are ignored for levels the
    kernel does not carry."""
    s_a, d_a, j_a, g_a = a
    s_b, d_b, j_b, g_b = b
    value = periodic_eval(kernel.input_kernel, s_a, s_b)
    value = value * level_factor(kernel.coord, d_a, d_b)
    if kernel.curve is not None:
        value = value * level_factor(kernel.curve, j_a, j_b)
    if kernel.group is not None:
        value = value * level_factor(kernel.group, g_a, g_b)
    return float(value)


class TestCoregMatrix:
    def test_zero_w_identity(self):
        B = CoregMatrix(np.zeros((2, 1)), [1.0, 1.0])
        assert np.allclose(B.matrix, np.eye(2))

    def test_all_ones(self):
        B = CoregMatrix([[1.0], [1.0]], [0.0, 0.0])
        assert np.allclose(B.matrix, np.ones((2, 2)))

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValidationError):
            CoregMatrix(np.zeros((2, 1)), [1.0, -0.1])

    @pytest.mark.parametrize("w, kappa", [
        ([[np.nan], [0.1]], [1.0, 1.0]), ([[0.3], [np.inf]], [1.0, 1.0]),
        ([[0.3], [0.1]], [np.nan, 1.0]), ([[0.3], [0.1]], [1.0, np.inf])])
    def test_non_finite_entries_rejected(self, w, kappa):
        # a nan W or kappa once passed, as only kappa < 0 was tested
        with pytest.raises(ValidationError, match="finite"):
            CoregMatrix(w, kappa)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            CoregMatrix(np.zeros((3, 1)), [1.0, 1.0])
        with pytest.raises(ValidationError, match="matrix"):
            CoregMatrix(np.zeros((2, 1, 1)), [1.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(min_value=1, max_value=6),
           r=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_psd(self, m, r, seed):
        rng = np.random.default_rng(seed)
        B = CoregMatrix(rng.normal(size=(m, r)), rng.uniform(0, 2, m))
        assert np.min(np.linalg.eigvalsh(B.matrix)) >= -1e-12


class TestMultilevelEval:
    def test_identity_same_coordinate(self):
        K = MultiLevelKernel(HYP, CoregMatrix.identity(2))
        expected = periodic_eval(HYP, 0.1, 0.4)
        assert multilevel_eval(K, (0.1, 0, 0, 0), (0.4, 0, 0, 0)) == pytest.approx(
            expected, abs=1e-14)

    def test_identity_cross_coordinate_zero(self):
        K = MultiLevelKernel(HYP, CoregMatrix.identity(2))
        assert multilevel_eval(K, (0.1, 0, 0, 0), (0.4, 1, 0, 0)) == 0.0

    def test_index_out_of_range(self):
        K = MultiLevelKernel(HYP, CoregMatrix.identity(2))
        with pytest.raises(ValidationError):
            multilevel_eval(K, (0.1, 2, 0, 0), (0.4, 0, 0, 0))

    def test_coordinate_matrix_must_be_2x2(self):
        with pytest.raises(ValidationError):
            MultiLevelKernel(HYP, CoregMatrix.identity(3))

    def test_matches_kronecker_product(self):
        rng = np.random.default_rng(5)
        D = CoregMatrix(rng.normal(size=(2, 1)), rng.uniform(0.1, 1, 2))
        C = CoregMatrix(rng.normal(size=(2, 1)), rng.uniform(0.1, 1, 2))
        K = MultiLevelKernel(HYP, D, curve=C)
        s = np.array([0.1, 0.35, 0.8])
        Ks = gram(HYP, s)
        full = np.kron(C.matrix, np.kron(D.matrix, Ks))
        # index (j, d, i) ordering to match the Kronecker layout
        for j1 in range(2):
            for d1 in range(2):
                for i1 in range(3):
                    for j2 in range(2):
                        for d2 in range(2):
                            for i2 in range(3):
                                v = multilevel_eval(K, (s[i1], d1, j1, 0),
                                                    (s[i2], d2, j2, 0))
                                row = j1 * 6 + d1 * 3 + i1
                                col = j2 * 6 + d2 * 3 + i2
                                assert v == pytest.approx(full[row, col], abs=1e-12)


class TestMultilevelGram:
    def test_symmetric_case_psd(self):
        rng = np.random.default_rng(6)
        D = CoregMatrix(rng.normal(size=(2, 1)), rng.uniform(0.1, 1, 2))
        C = CoregMatrix(rng.normal(size=(3, 2)), rng.uniform(0.1, 1, 3))
        K = MultiLevelKernel(HYP, D, curve=C)
        n = 30
        s = rng.uniform(0, 1, n)
        j = rng.integers(0, 3, n)
        G = multilevel_gram(K, s, j_a=j)
        assert np.allclose(G, G.T)
        assert np.min(np.linalg.eigvalsh(G)) >= -1e-10

    def test_matches_elementwise_eval(self):
        # a Gram of points: the curve factor, and no coordinate factor
        # (coordinate 0 of an identity factor contributes 1)
        rng = np.random.default_rng(7)
        C = CoregMatrix(rng.normal(size=(3, 1)), rng.uniform(0.1, 1, 3))
        K = MultiLevelKernel(HYP, CoregMatrix.identity(2), curve=C)
        s = rng.uniform(0, 1, 5)
        j = rng.integers(0, 3, 5)
        G = multilevel_gram(K, s, j_a=j)
        for a in range(5):
            for b in range(5):
                assert G[a, b] == pytest.approx(
                    multilevel_eval(K, (s[a], 0, j[a], 0), (s[b], 0, j[b], 0)),
                    abs=1e-14)

    def test_constant_jitter_modulated_by_levels(self):
        # jitter is part of the input kernel, so it vanishes where an
        # identity curve factor couples independent curves
        K = MultiLevelKernel(replace(HYP, jitter=1e-3), CoregMatrix.identity(2),
                             curve=CoregMatrix.identity(2))
        s = np.array([0.2, 0.2])
        j = np.array([0, 1])
        G = multilevel_gram(K, s, j_a=j)
        assert G[0, 1] == 0.0
        assert G[0, 0] == pytest.approx(HYP.sigma2 + 1e-3, abs=1e-14)

    def test_label_encoding_invariance(self):
        # identical designs with relabeled group indices produce identical
        # Grams because encoding is positional
        rng = np.random.default_rng(8)
        Gmat = CoregMatrix(rng.normal(size=(2, 1)), rng.uniform(0.1, 1, 2))
        K = MultiLevelKernel(HYP, CoregMatrix.identity(2), group=Gmat)
        s = rng.uniform(0, 1, 8)
        j = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        curve_group = np.array([0, 0, 1, 1])
        G1 = multilevel_gram(K, s, j_a=j, curve_group=curve_group)
        G2 = multilevel_gram(K, s, j_a=j.copy(), curve_group=curve_group.copy())
        assert np.array_equal(G1, G2)

    def test_group_only_kernel_takes_each_curve_group(self):
        # without a curve level, two points meet at G[g, g'] of their
        # curves' groups: curves 0 and 1 share group 0, curve 2 is group 1
        rng = np.random.default_rng(9)
        Gmat = CoregMatrix(rng.normal(size=(2, 1)), rng.uniform(0.1, 1, 2))
        K = MultiLevelKernel(HYP, CoregMatrix.identity(2), group=Gmat)
        s, j = np.array([0.2, 0.2, 0.2]), np.array([0, 1, 2])
        G = multilevel_gram(K, s, j_a=j, curve_group=[0, 0, 1])
        k = gram(HYP, s[:1])[0, 0]
        assert G[0, 1] == k * Gmat.matrix[0, 0]
        assert G[0, 2] == k * Gmat.matrix[0, 1]


def random_kernel(rng, family, n_curves, n_groups, jitter=1e-3):
    """A kernel with random factors; a level of size 0 is absent."""
    hyp = PeriodicHyperparameters(rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.4),
                                  1.0, family=family, jitter=jitter)

    def level(size):
        return (CoregMatrix(rng.normal(size=(size, 1)), rng.uniform(0.1, 1, size))
                if size else None)

    return MultiLevelKernel(hyp, level(2), curve=level(n_curves),
                            group=level(n_groups))


# the levels each kernel carries: the coordinate level always, and the
# curve and group levels of these sizes (0: absent); the points lie on
# N_CURVES curves in the groups CURVE_GROUP
LEVELS = {"coord": (0, 0), "curve": (3, 0), "group": (0, 2), "curve+group": (3, 2)}
N_CURVES = 3
CURVE_GROUP = np.array([1, 0, 1])


def repeated_design(rng, n_points):
    """Points (s, j) on the N_CURVES curves with arc parameters from a
    coarse grid, so they repeat within and across curves, and curves that
    repeat across points."""
    s = rng.choice(np.arange(7) / 7, size=n_points)
    j = rng.integers(0, N_CURVES, n_points)
    return s, j


class TestDistinctInputGram:
    @pytest.mark.parametrize("levels", sorted(LEVELS))
    @pytest.mark.parametrize("jitter", [0.0, 1e-3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_self_and_cross_match_full_grid(self, family, jitter, levels):
        n_curves, n_groups = LEVELS[levels]
        rng = np.random.default_rng(31)
        kernel = random_kernel(rng, family, n_curves, n_groups, jitter)
        a = repeated_design(rng, 50)
        b = repeated_design(rng, 18)
        assert len(np.unique(a[0])) < len(a[0]) // 2
        # the oracle takes each point's group, its curve's
        s, j = a
        g = CURVE_GROUP[j]
        assert np.array_equal(
            multilevel_gram(kernel, s, j_a=j, curve_group=CURVE_GROUP),
            full_grid_gram_oracle(kernel, s, None, j, g))
        assert np.array_equal(
            multilevel_gram(kernel, s, j_a=j, s_b=b[0], j_b=b[1],
                            curve_group=CURVE_GROUP),
            full_grid_gram_oracle(kernel, s, None, j, g, s_b=b[0], j_b=b[1],
                                  g_b=CURVE_GROUP[b[1]]))
        hyp = kernel.input_kernel
        for s_a, s_b in ((a[0], None), (a[0], b[0]), (b[0], a[0])):
            assert np.array_equal(gram(hyp, s_a, s_b), full_grid_input_gram(hyp, s_a, s_b))

    def test_cross_gram_of_same_values_equals_self_gram(self):
        rng = np.random.default_rng(32)
        kernel = random_kernel(rng, "periodic_matern32", 3, 0)
        s, j = repeated_design(rng, 24)
        cross = multilevel_gram(kernel, s, j_a=j, s_b=s.copy(), j_b=j)
        assert np.array_equal(cross, full_grid_gram_oracle(
            kernel, s, None, j, CURVE_GROUP[j], s_b=s.copy(), j_b=j,
            g_b=CURVE_GROUP[j]))
        assert np.array_equal(multilevel_gram(kernel, s, j_a=j), cross)

    @pytest.mark.parametrize("bad", [
        {"j_a": [0, 3]}, {"j_a": [-1, 0]}, {"curve_group": [1, 2, 0]},
        {"curve_group": [-1, 0, 0]}, {"j_b": [0, 0, 3]}])
    def test_level_index_out_of_range(self, bad):
        kernel = random_kernel(np.random.default_rng(33), "periodic_rbf", 3, 2)
        points = {"s_a": [0.1, 0.4], "j_a": [2, 0], "curve_group": [1, 0, 1]}
        cross = {"s_b": [0.2, 0.3, 0.9], "j_b": [0, 2, 1]}
        points.update((k, v) for k, v in bad.items() if k != "j_b")
        cross.update((k, v) for k, v in bad.items() if k == "j_b")
        with pytest.raises(ValidationError, match="level index out of range"):
            multilevel_gram(kernel, **points, **cross)
        if "j_b" not in bad:
            with pytest.raises(ValidationError, match="level index out of range"):
                multilevel_gram(kernel, **points)

    @pytest.mark.parametrize("value", [0.5, -0.5, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["j_a", "j_b", "curve_group"])
    def test_level_index_must_be_a_whole_number(self, name, value):
        # a fraction was once truncated: j_a = [0.5, 1.7] gave the Gram of
        # [0, 1] and -0.5 passed as 0; NaN and inf met numpy's ValueError
        # and OverflowError. A whole-number float is an index.
        kernel = random_kernel(np.random.default_rng(42), "periodic_rbf", 3, 2)
        ints = {"s_a": [0.1, 0.4], "j_a": [2, 0], "s_b": [0.2, 0.3, 0.9],
                "j_b": [0, 2, 1], "curve_group": [1, 0, 1]}
        floats = {**ints, name: np.asarray(ints[name], dtype=float)}
        assert np.array_equal(multilevel_gram(kernel, **floats),
                              multilevel_gram(kernel, **ints))
        bad = {**ints, name: [value, *ints[name][1:]]}
        with pytest.raises(ValidationError,
                           match=f"^{name}: a level index must be a whole number"):
            multilevel_gram(kernel, **bad)

    @pytest.mark.parametrize("levels", ["curve", "group", "curve+group"])
    def test_missing_curve_index_names_it(self, levels):
        # a kernel with a curve or group level once failed on a left-out
        # index with numpy's bare TypeError
        n_curves, n_groups = LEVELS[levels]
        kernel = random_kernel(np.random.default_rng(39), "periodic_rbf",
                               n_curves, n_groups)
        s, s_b, j = [0.1, 0.4], [0.2, 0.3, 0.9], [2, 0]
        with pytest.raises(ValidationError, match="j_a"):
            multilevel_gram(kernel, s, curve_group=CURVE_GROUP)
        with pytest.raises(ValidationError, match="j_a"):
            multilevel_gram(kernel, s, s_b=s_b, j_b=[0, 1, 2],
                            curve_group=CURVE_GROUP)
        with pytest.raises(ValidationError, match="j_b"):
            multilevel_gram(kernel, s, j_a=j, s_b=s_b, curve_group=CURVE_GROUP)

    def test_group_level_needs_curve_group(self):
        kernel = random_kernel(np.random.default_rng(40), "periodic_rbf", 3, 2)
        with pytest.raises(ValidationError, match="curve_group"):
            multilevel_gram(kernel, [0.1, 0.4], j_a=[2, 0])
        with pytest.raises(ValidationError, match="one level index per curve"):
            multilevel_gram(kernel, [0.1, 0.4], j_a=[2, 0], curve_group=[0, 1])

    def test_rows_with_a_coordinate_index_are_refused(self):
        # the Gram takes points; a call in the former (s, d, j, g) row
        # layout must not read the coordinates as curves
        kernel = random_kernel(np.random.default_rng(35), "periodic_rbf", 3, 2)
        s, d, j, g = [0.1, 0.1], [0, 1], [2, 2], [1, 1]
        with pytest.raises(TypeError):
            multilevel_gram(kernel, s, d, j, g)
        with pytest.raises(TypeError):
            multilevel_gram(kernel, s, d_a=d, j_a=j, curve_group=CURVE_GROUP)

    def test_a_per_point_group_is_refused(self):
        # a point's group is its curve's: the former g_a keyword is gone
        kernel = random_kernel(np.random.default_rng(41), "periodic_rbf", 3, 2)
        with pytest.raises(TypeError):
            multilevel_gram(kernel, [0.1, 0.5], j_a=[1, 0], g_a=[0, 1])

    def test_a_noise_argument_is_refused(self):
        # the jitter is a field of the input kernel, so the former
        # (kernel, noise, s) call has one positional argument too many
        kernel = random_kernel(np.random.default_rng(38), "periodic_rbf", 3, 0)
        with pytest.raises(TypeError):
            multilevel_gram(kernel, object(), [0.1, 0.5])

    @pytest.mark.parametrize("n_indices", [1, 2])
    def test_indices_are_keyword_only(self, n_indices):
        # a stale call in the former (s, d, ...) layout once passed
        # silently, reading the coordinate index d as curves
        kernel = random_kernel(np.random.default_rng(37), "periodic_rbf", 3,
                               2 if n_indices == 2 else 0)
        s, d, j = [0.1, 0.1], [0, 1], [1, 1]
        with pytest.raises(TypeError):
            multilevel_gram(kernel, s, *(d, j)[:n_indices])

    def test_one_index_per_point(self):
        kernel = random_kernel(np.random.default_rng(36), "periodic_rbf", 3, 0)
        with pytest.raises(ValidationError, match="one level index per point"):
            multilevel_gram(kernel, [0.1, 0.5, 0.7], j_a=[1])
