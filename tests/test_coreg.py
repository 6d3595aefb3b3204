"""Coregionalization matrices and the separable multi-level kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvegp.coreg import (CoregMatrix, MultiLevelKernel, _level_factor,
                           multilevel_gram)
from curvegp.errors import ValidationError
from curvegp.kernels import (FAMILIES, NoiseSpec, PeriodicHyperparameters, gram,
                             periodic_eval, unit_correlation)


HYP = PeriodicHyperparameters(1.2, 0.3, 1.0, family="periodic_rbf")
NO_JITTER = NoiseSpec(jitter=0.0)


def multilevel_eval(kernel: MultiLevelKernel, a, b):
    """Kernel element between design rows a = (s, d, j, g) and b = (s', d',
    j', g'), level by level: the test-only element-wise oracle of
    `multilevel_gram`. Curve/group indices are ignored for levels the
    kernel does not carry."""
    s_a, d_a, j_a, g_a = a
    s_b, d_b, j_b, g_b = b
    value = periodic_eval(kernel.input_kernel, s_a, s_b)
    value = value * _level_factor(kernel.coord, d_a, d_b)
    if kernel.curve is not None:
        value = value * _level_factor(kernel.curve, j_a, j_b)
    if kernel.group is not None:
        value = value * _level_factor(kernel.group, g_a, g_b)
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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            CoregMatrix(np.zeros((3, 1)), [1.0, 1.0])

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
        Ks = gram(HYP, NO_JITTER, s)
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
        d = rng.integers(0, 2, n)
        j = rng.integers(0, 3, n)
        G = multilevel_gram(K, NO_JITTER, s, d, j)
        assert np.allclose(G, G.T)
        assert np.min(np.linalg.eigvalsh(G)) >= -1e-10

    def test_matches_elementwise_eval(self):
        rng = np.random.default_rng(7)
        D = CoregMatrix(rng.normal(size=(2, 1)), rng.uniform(0.1, 1, 2))
        K = MultiLevelKernel(HYP, D)
        s = rng.uniform(0, 1, 5)
        d = rng.integers(0, 2, 5)
        G = multilevel_gram(K, NO_JITTER, s, d)
        for a in range(5):
            for b in range(5):
                assert G[a, b] == pytest.approx(
                    multilevel_eval(K, (s[a], d[a], 0, 0), (s[b], d[b], 0, 0)),
                    abs=1e-14)

    def test_constant_jitter_modulated_by_levels(self):
        # jitter is part of the input kernel, so it vanishes where D = I
        # couples independent coordinates
        noise = NoiseSpec(jitter=1e-3)
        K = MultiLevelKernel(HYP, CoregMatrix.identity(2))
        s = np.array([0.2, 0.2])
        d = np.array([0, 1])
        G = multilevel_gram(K, noise, s, d)
        assert G[0, 1] == 0.0
        assert G[0, 0] == pytest.approx(HYP.sigma2 + 1e-3, abs=1e-14)

    def test_label_encoding_invariance(self):
        # identical designs with relabeled group indices produce identical
        # Grams because encoding is positional
        rng = np.random.default_rng(8)
        Gmat = CoregMatrix(rng.normal(size=(2, 1)), rng.uniform(0.1, 1, 2))
        K = MultiLevelKernel(HYP, CoregMatrix.identity(2), group=Gmat)
        s = rng.uniform(0, 1, 8)
        d = rng.integers(0, 2, 8)
        g = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        G1 = multilevel_gram(K, NO_JITTER, s, d, g_a=g)
        G2 = multilevel_gram(K, NO_JITTER, s, d, g_a=g.copy())
        assert np.array_equal(G1, G2)


def full_grid_input_gram(hyp, noise, s_a, s_b=None):
    """The input kernel evaluated at every pair of rows, then jittered."""
    s_a = np.asarray(s_a, dtype=float).reshape(-1)
    s = s_a if s_b is None else np.asarray(s_b, dtype=float).reshape(-1)
    r = np.abs(s_a[:, None] - s[None, :])
    return hyp.sigma2 * unit_correlation(hyp.family, r, hyp.rho, hyp.tau) + noise.jitter


def full_grid_gram_oracle(kernel, noise, s_a, d_a, j_a=None, g_a=None,
                          s_b=None, d_b=None, j_b=None, g_b=None):
    """The multi-level Gram with the input kernel evaluated at every pair of
    rows and every level factor gathered per pair of rows: the test-only
    reference for `multilevel_gram`, whose level factors are formed once per
    pair of row types."""
    K = full_grid_input_gram(kernel.input_kernel, noise, s_a, s_b)
    if s_b is None:
        d_b, j_b, g_b = d_a, j_a, g_a
    B = 1.0
    for coreg, a, b in ((kernel.coord, d_a, d_b), (kernel.curve, j_a, j_b),
                        (kernel.group, g_a, g_b)):
        if coreg is not None:
            B = B * _level_factor(coreg, np.asarray(a, dtype=int)[:, None],
                                  np.asarray(b, dtype=int)[None, :])
    K *= B
    return K


def random_kernel(rng, family, n_curves, n_groups):
    """A kernel with random factors; a level of size 0 is absent."""
    hyp = PeriodicHyperparameters(rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.4),
                                  1.0, family=family)

    def level(size):
        return (CoregMatrix(rng.normal(size=(size, 1)), rng.uniform(0.1, 1, size))
                if size else None)

    return MultiLevelKernel(hyp, level(2), curve=level(n_curves),
                            group=level(n_groups))


def repeated_design(rng, n_points, n_curves, n_groups):
    """Rows (s, d, j, g) two per point, as `TrainingDesign` lays them out:
    arc parameters from a coarse grid, so they repeat within and across
    curves, and level tuples that repeat across points."""
    s = np.repeat(rng.choice(np.arange(7) / 7, size=n_points), 2)
    d = np.tile([0, 1], n_points)
    j = np.repeat(rng.integers(0, max(n_curves, 1), n_points), 2)
    g = np.repeat(rng.integers(0, max(n_groups, 1), n_points), 2)
    return s, d, j, g


LEVELS = {"coord": (0, 0), "curve": (3, 0), "group": (0, 2), "curve+group": (3, 2)}


class TestDistinctInputGram:
    @pytest.mark.parametrize("levels", sorted(LEVELS))
    @pytest.mark.parametrize("jitter", [0.0, 1e-3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_self_and_cross_match_full_grid(self, family, jitter, levels):
        n_curves, n_groups = LEVELS[levels]
        rng = np.random.default_rng(31)
        kernel = random_kernel(rng, family, n_curves, n_groups)
        noise = NoiseSpec(jitter=jitter)
        a = repeated_design(rng, 25, n_curves, n_groups)
        b = repeated_design(rng, 9, n_curves, n_groups)
        assert len(np.unique(a[0])) < len(a[0]) // 2
        assert np.array_equal(multilevel_gram(kernel, noise, *a),
                              full_grid_gram_oracle(kernel, noise, *a))
        cross = dict(zip(("s_b", "d_b", "j_b", "g_b"), b))
        assert np.array_equal(multilevel_gram(kernel, noise, *a, **cross),
                              full_grid_gram_oracle(kernel, noise, *a, **cross))
        hyp = kernel.input_kernel
        for s_a, s_b in ((a[0], None), (a[0], b[0]), (b[0], a[0])):
            assert np.array_equal(gram(hyp, noise, s_a, s_b),
                                  full_grid_input_gram(hyp, noise, s_a, s_b))

    def test_cross_gram_of_same_values_equals_self_gram(self):
        rng = np.random.default_rng(32)
        kernel = random_kernel(rng, "periodic_matern32", 3, 0)
        noise = NoiseSpec(jitter=1e-3)
        s, d, j, g = repeated_design(rng, 12, 3, 0)
        cross = multilevel_gram(kernel, noise, s, d, j, g,
                                s_b=s.copy(), d_b=d, j_b=j, g_b=g)
        assert np.array_equal(cross, full_grid_gram_oracle(
            kernel, noise, s, d, j, g, s_b=s.copy(), d_b=d, j_b=j, g_b=g))
        assert np.array_equal(multilevel_gram(kernel, noise, s, d, j, g), cross)

    @pytest.mark.parametrize("bad", [
        {"d_a": [0, 2]}, {"j_a": [0, 3]}, {"j_a": [-1, 0]}, {"g_a": [2, 0]},
        {"d_b": [0, 1, 5]}, {"j_b": [0, 0, 3]}])
    def test_level_index_out_of_range(self, bad):
        kernel = random_kernel(np.random.default_rng(33), "periodic_rbf", 3, 2)
        rows = {"s_a": [0.1, 0.4], "d_a": [0, 1], "j_a": [2, 0], "g_a": [1, 0]}
        cross = {"s_b": [0.2, 0.3, 0.9], "d_b": [1, 0, 1], "j_b": [0, 2, 1],
                 "g_b": [0, 1, 1]}
        rows.update((k, v) for k, v in bad.items() if k.endswith("_a"))
        cross.update((k, v) for k, v in bad.items() if k.endswith("_b"))
        args = (rows["s_a"], rows["d_a"], rows["j_a"], rows["g_a"])
        with pytest.raises(ValidationError, match="level index out of range"):
            multilevel_gram(kernel, NO_JITTER, *args, **cross)
        if not any(k.endswith("_b") for k in bad):
            with pytest.raises(ValidationError, match="level index out of range"):
                multilevel_gram(kernel, NO_JITTER, *args)

    def test_out_of_range_index_that_a_raw_code_would_alias(self):
        # with 3 curves, a raw mixed-radix code d * 3 + j maps (0, 3) onto
        # the valid tuple (1, 0) of the row before it; the range check must
        # still see j = 3
        kernel = random_kernel(np.random.default_rng(34), "periodic_rbf", 3, 0)
        with pytest.raises(ValidationError, match="level index out of range"):
            multilevel_gram(kernel, NO_JITTER, [0.1, 0.5], [1, 0], [0, 3])
