"""Shape metrics: IMSPE, IUEA, Wasserstein-2, elastic registration, ESD."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvegp.curves import (Curve, arc_to_xy_param, generate_synthetic,
                            polygon_length, resample_equally_spaced)
from curvegp.errors import ValidationError
from curvegp.metrics import (elastic_register, esd, imspe, iuea, wasserstein2,
                             _dp_reparameterize, _warp, _energy)
from curvegp.model import PredictedCurve
from curvegp.preprocess import center, scale_to_unit_length, srvf


def make_pred(means, covs):
    m = len(means)
    return PredictedCurve(grid=np.arange(m) / m, means=np.asarray(means, float),
                          covariances=np.asarray(covs, float))


class TestImspe:
    def test_zero_for_truth(self):
        c = generate_synthetic("circle", 50)
        pts = np.array([arc_to_xy_param(c, i * polygon_length(c) / 40)
                        for i in range(40)])
        assert imspe(pts, c, 40) == pytest.approx(0.0, abs=1e-20)

    def test_constant_offset(self):
        c = generate_synthetic("circle", 50)
        pts = np.array([arc_to_xy_param(c, i * polygon_length(c) / 40)
                        for i in range(40)]) + 0.1
        assert imspe(pts, c, 40) == pytest.approx(0.02, abs=1e-12)

    def test_matches_direct_summation(self):
        c = generate_synthetic("circle", 200)
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(200, 2))
        length = polygon_length(c)
        oracle = sum(np.sum((pts[i] - arc_to_xy_param(c, i * length / 200)) ** 2)
                     for i in range(200)) / 200
        assert imspe(pts, c, 200) == pytest.approx(oracle, abs=1e-10)

    def test_size_mismatch_rejected(self):
        c = generate_synthetic("circle", 10)
        with pytest.raises(ValidationError):
            imspe(np.zeros((5, 2)), c, 7)


class TestIuea:
    def test_uniform_isotropic(self):
        covs = np.tile(np.diag([0.01, 0.01]), (20, 1, 1))
        pred = make_pred(np.zeros((20, 2)), covs)
        assert iuea(pred) == pytest.approx(np.pi * 0.01, abs=1e-12)

    def test_degenerate_zero(self):
        cov = np.array([[0.04, 0.04], [0.04, 0.04]])  # sd1^2 = sd2^2 = cross
        pred = make_pred(np.zeros((5, 2)), np.tile(cov, (5, 1, 1)))
        assert iuea(pred) == 0.0

    def test_independent_matches_summation(self):
        rng = np.random.default_rng(1)
        s1 = rng.uniform(0.01, 0.5, 30)
        s2 = rng.uniform(0.01, 0.5, 30)
        covs = np.zeros((30, 2, 2))
        covs[:, 0, 0] = s1 ** 2
        covs[:, 1, 1] = s2 ** 2
        pred = make_pred(np.zeros((30, 2)), covs)
        assert iuea(pred) == pytest.approx(np.pi * np.mean(s1 * s2), abs=1e-12)

    def test_scaling_property(self):
        rng = np.random.default_rng(2)
        covs = np.zeros((10, 2, 2))
        covs[:, 0, 0] = rng.uniform(0.01, 0.2, 10)
        covs[:, 1, 1] = rng.uniform(0.01, 0.2, 10)
        covs[:, 0, 1] = covs[:, 1, 0] = 0.2 * np.sqrt(covs[:, 0, 0] * covs[:, 1, 1])
        base = iuea(make_pred(np.zeros((10, 2)), covs))
        factor = 1.7
        inflated = covs * factor ** 2
        assert iuea(make_pred(np.zeros((10, 2)), inflated)) == pytest.approx(
            base * factor ** 2, rel=1e-10)


class TestWasserstein2:
    def test_identical_clouds(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(12, 2))
        assert wasserstein2(a, a) == pytest.approx(0.0, abs=1e-20)

    def test_single_points(self):
        assert wasserstein2([[0.0, 0.0]], [[1.0, 0.0]]) == pytest.approx(1.0)

    def test_two_point_example(self):
        assert wasserstein2([[0, 0], [1, 0]], [[0, 1], [1, 1]]) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = rng.integers(2, 8)
            a = rng.normal(size=(n, 2))
            b = rng.normal(size=(n, 2))
            brute = min(np.mean([np.sum((a[i] - b[p[i]]) ** 2) for i in range(n)])
                        for p in itertools.permutations(range(n)))
            assert wasserstein2(a, b) == pytest.approx(brute, abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = rng.integers(2, 7)
            a, b, c = (rng.normal(size=(n, 2)) for _ in range(3))
            dab, dba = wasserstein2(a, b), wasserstein2(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            # triangle inequality holds for the square roots (W2 is a metric)
            assert np.sqrt(wasserstein2(a, c)) <= (np.sqrt(dab)
                                                   + np.sqrt(wasserstein2(b, c)) + 1e-10)

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValidationError):
            wasserstein2(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_oversized_rejected(self):
        with pytest.raises(ValidationError):
            wasserstein2(np.zeros((600, 2)), np.zeros((600, 2)))


class TestElasticRegister:
    def test_self_registration(self):
        c = generate_synthetic("star", 60, amplitude=0.2, petals=5)
        reg = elastic_register(c, c, grid_size=60)
        assert reg.energy < 1e-10
        assert np.allclose(reg.rotation, np.eye(2), atol=1e-8)
        assert np.max(np.abs(reg.gamma - np.linspace(0, 1, 61))) < 1.0 / 60

    def test_rigid_transform_low_energy(self):
        c = generate_synthetic("star", 80, amplitude=0.25, petals=4)
        theta = 0.9
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        moved = Curve(np.roll(c.points, -11, axis=0) @ R.T * 2.3 + [1.0, -0.5])
        reg = elastic_register(moved, c, grid_size=80)
        assert reg.energy < 1e-3

    def test_energy_non_increasing(self):
        circle = generate_synthetic("circle", 100)
        ellipse = generate_synthetic("ellipse", 100, axes=(1.0, 0.5))
        reg = elastic_register(ellipse, circle)
        diffs = np.diff(reg.energies)
        assert np.all(diffs <= 1e-12)
        assert reg.energy <= reg.energies[0]

    def test_gamma_monotone_with_endpoints(self):
        circle = generate_synthetic("circle", 50)
        star = generate_synthetic("star", 50, amplitude=0.3)
        reg = elastic_register(star, circle, grid_size=50)
        assert reg.gamma[0] == 0.0
        assert reg.gamma[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(reg.gamma) > 0)

    def test_dp_matches_exhaustive_paths_on_tiny_grid(self):
        # enumerate every monotone path with the same step set on an 8-node
        # grid and verify the DP finds the minimum energy
        from curvegp.metrics import DP_STEPS
        rng = np.random.default_rng(7)
        n = 8
        ang1 = rng.uniform(0, 2 * np.pi, n)
        ang2 = rng.uniform(0, 2 * np.pi, n)
        q1 = np.column_stack([np.cos(ang1), np.sin(ang1)])
        q2 = np.column_stack([np.cos(ang2), np.sin(ang2)])

        def path_energy(path):
            gamma = np.interp(np.arange(n + 1), [p[0] for p in path],
                              [p[1] for p in path])
            return _energy(q1, _warp(q2, gamma))

        best = [np.inf]

        def explore(path):
            i, j = path[-1]
            if (i, j) == (n, n):
                best[0] = min(best[0], path_energy(path))
                return
            for di, dj in DP_STEPS:
                if i + di <= n and j + dj <= n:
                    explore(path + [(i + di, j + dj)])

        explore([(0, 0)])
        gamma_dp = _dp_reparameterize(q1, q2)
        assert _energy(q1, _warp(q2, gamma_dp)) == pytest.approx(best[0], abs=1e-10)


def dp_per_row_oracle(q1, q2):
    """The re-parameterization DP with every transition cost formed row by
    row: the test-only reference for the row-blocked `_dp_reparameterize`."""
    from curvegp.metrics import DP_STEPS
    n = len(q1)
    D = np.full((n + 1, n + 1), np.inf)
    D[0, 0] = 0.0
    parent = np.full((n + 1, n + 1), -1, dtype=int)
    for i in range(1, n + 1):
        for step_id, (di, dj) in enumerate(DP_STEPS):
            if di > i:
                continue
            sq = np.sqrt(dj / di)
            j_prev = np.arange(0, n - dj + 1)
            cost = np.zeros(len(j_prev))
            for o in range(di):
                k_o = int(dj * (o + 0.5) / di)
                idx2 = np.minimum(j_prev + k_o, n - 1)
                diff = q1[i - di + o][None, :] - sq * q2[idx2]
                cost += np.sum(diff ** 2, axis=1)
            cand = D[i - di, j_prev] + cost / n
            j_new = j_prev + dj
            better = cand < D[i, j_new]
            D[i, j_new[better]] = cand[better]
            parent[i, j_new[better]] = step_id
    path_i, path_j = [n], [n]
    i, j = n, n
    while i > 0:
        di, dj = DP_STEPS[parent[i, j]]
        i, j = i - di, j - dj
        path_i.append(i)
        path_j.append(j)
    return np.interp(np.arange(n + 1), path_i[::-1], path_j[::-1])


def warp_per_index_oracle(q, gamma_idx):
    n = len(q)
    out = np.empty_like(q)
    for t in range(n):
        a, b = gamma_idx[t], gamma_idx[t + 1]
        out[t] = np.sqrt(b - a) * q[min(int((a + b) / 2.0), n - 1)]
    return out


def register_seed_per_candidate_oracle(source_n, q1, q2_full):
    """Round 1 of `elastic_register` with one SVD Procrustes per integer
    shift and one resampling per sub-cell offset: the test-only reference
    for the bulk-scored `_register_seed`."""
    from curvegp.metrics import _procrustes_rotation, _q_at_offset
    n = len(q1)
    best_shift, best_R, best_e = 0, np.eye(2), np.inf
    for shift in range(n):
        a = np.roll(q2_full, -shift, axis=0)
        R = _procrustes_rotation(a, q1)
        e = _energy(q1, a @ R.T)
        if e < best_e - 1e-15:
            best_shift, best_R, best_e = shift, R, e
    q2 = np.roll(q2_full, -best_shift, axis=0)
    R, best_offset = best_R, best_shift / n
    half = 0.5 / n
    for _ in range(3):
        sweep_center = best_offset
        for frac in np.linspace(-half, half, 11):
            offset = (sweep_center + frac) % 1.0
            if offset == best_offset:
                continue
            cand = _q_at_offset(source_n, n, offset)
            R_cand = _procrustes_rotation(cand, q1)
            e = _energy(q1, cand @ R_cand.T)
            if e < best_e - 1e-15:
                best_offset, q2, R, best_e = offset, cand, R_cand, e
        half /= 5.0
    return best_e, best_offset, q2, R


def register_pair_sources(seed):
    """A star target, a clustered noisy ellipse and a rotated, scaled,
    translated and seed-shifted copy of the star, as the benchmark's
    `register_pairs` workload builds them."""
    rng = np.random.default_rng(seed)
    target = generate_synthetic(
        "star", int(rng.integers(50, 70)), radius=float(rng.uniform(0.8, 1.2)),
        amplitude=float(rng.uniform(0.15, 0.3)), petals=int(rng.integers(3, 6)),
        noise_sd=0.005, rng_seed=int(rng.integers(2 ** 31)))
    different = generate_synthetic(
        "ellipse", int(rng.integers(40, 60)),
        axes=(1.0, float(rng.uniform(0.4, 0.8))), scheme="clustered",
        cluster_center=float(rng.uniform(0.0, 2 * np.pi)),
        noise_sd=0.005, rng_seed=int(rng.integers(2 ** 31)))
    angle = rng.uniform(0.0, 2 * np.pi)
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    pts = rng.uniform(0.5, 2.0) * target.points @ rot.T + rng.normal(size=2)
    copy = Curve(np.roll(pts, int(rng.integers(1, target.n)), axis=0))
    return target, different, copy


class TestVectorizedRegistration:
    @pytest.mark.parametrize("grid", [50, 200])
    def test_seed_search_matches_per_candidate_oracle(self, grid, monkeypatch):
        import curvegp.metrics as metrics
        q_at_offset = metrics._q_at_offset
        exact = []

        def counted(*args):
            exact.append(args)
            return q_at_offset(*args)

        for seed in range(3):
            target, different, copy = register_pair_sources(seed)
            for source in (different, copy):
                monkeypatch.setattr(metrics, "_q_at_offset", counted)
                exact.clear()
                reg = elastic_register(source, target, grid_size=grid)
                # only the contenders of each sweep are resampled one by one
                assert len(exact) < 11
                monkeypatch.setattr(metrics, "_register_seed",
                                    register_seed_per_candidate_oracle)
                ref = elastic_register(source, target, grid_size=grid)
                monkeypatch.undo()
                for field in ("offset", "shift", "energies", "esd"):
                    assert repr(getattr(reg, field)) == repr(getattr(ref, field))
                for field in ("rotation", "gamma"):
                    assert getattr(reg, field).tobytes() == getattr(ref, field).tobytes()

    def test_sweep_contenders_fall_back_to_every_offset(self):
        from curvegp.metrics import _sweep_contenders
        offsets = np.linspace(0.1, 0.2, 11)
        start = offsets[5]
        bulk = np.full(11, 1.0)
        bulk[[2, 5]] = 0.5
        # the start is near the lowest score: only the contenders
        assert _sweep_contenders(bulk, offsets, start, 0.5).tolist() == [2, 5]
        # the start is far above, but its own offset is no contender
        bulk[5] = 1.0
        assert _sweep_contenders(bulk, offsets, start, 1.0).tolist() == [2]
        # the start is far above and its offset is a contender: whether
        # that offset is scored depends on the offsets before it
        bulk[5] = 0.5
        assert _sweep_contenders(bulk, offsets, start, 1.0).tolist() == list(range(11))
        # repeated offsets
        assert _sweep_contenders(bulk, np.r_[offsets[:10], offsets[0]], 0.0,
                                 0.5).tolist() == list(range(11))

    @pytest.mark.parametrize("n", [3, 4, 8, 15, 16, 17, 33, 50, 100, 200])
    def test_dp_matches_per_row_oracle_bitwise(self, n):
        rng = np.random.default_rng(n)
        for _ in range(2 if n == 200 else 4):
            q1, q2 = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
            gamma = _dp_reparameterize(q1, q2)
            assert gamma.tobytes() == dp_per_row_oracle(q1, q2).tobytes()
            assert _warp(q2, gamma).tobytes() == warp_per_index_oracle(q2, gamma).tobytes()

    def test_dp_tied_candidates_match_oracle(self):
        # zero SRVFs make every step's candidate 0: the first step wins each
        # tie, so the path is the diagonal; small integer SRVFs tie in places
        for n in (8, 17):
            zeros = np.zeros((n, 2))
            gamma = _dp_reparameterize(zeros, zeros)
            assert gamma.tobytes() == dp_per_row_oracle(zeros, zeros).tobytes()
            assert np.array_equal(gamma, np.arange(n + 1))
        rng = np.random.default_rng(21)
        q1 = rng.integers(-1, 2, size=(17, 2)).astype(float)
        q2 = rng.integers(-1, 2, size=(17, 2)).astype(float)
        assert _dp_reparameterize(q1, q2).tobytes() == dp_per_row_oracle(q1, q2).tobytes()

    def test_dp_nan_cost_never_wins(self):
        rng = np.random.default_rng(22)
        q1, q2 = rng.normal(size=(17, 2)), rng.normal(size=(17, 2))
        q2[5] = np.nan
        gamma = _dp_reparameterize(q1, q2)
        assert np.all(np.isfinite(gamma))
        assert gamma.tobytes() == dp_per_row_oracle(q1, q2).tobytes()

    def test_registration_esd_is_esd(self):
        circle = generate_synthetic("circle", 40)
        star = generate_synthetic("star", 50, amplitude=0.3, rng_seed=1,
                                  noise_sd=0.01)
        reg = elastic_register(star, circle, grid_size=30)
        assert reg.esd == esd(circle, star, grid_size=30)
        assert 0.0 < reg.esd <= np.pi


class TestEsd:
    def test_same_curve(self):
        c = generate_synthetic("star", 100, amplitude=0.2)
        assert esd(c, c) < 1e-3

    def test_rigid_invariance(self):
        c = generate_synthetic("star", 100, amplitude=0.2, petals=5)
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        moved = Curve(np.roll(c.points, -17, axis=0) @ R.T * 1.9 + [0.3, -2.0])
        assert esd(c, moved) < 1e-2

    def test_circle_vs_ellipse_positive_and_stable(self):
        circle = generate_synthetic("circle", 100)
        ellipse = generate_synthetic("ellipse", 100, axes=(1.0, 0.5))
        d100 = esd(circle, ellipse, grid_size=100)
        circle2 = generate_synthetic("circle", 200)
        ellipse2 = generate_synthetic("ellipse", 200, axes=(1.0, 0.5))
        d200 = esd(circle2, ellipse2, grid_size=100)
        assert d100 > 0.1
        assert abs(d100 - d200) / d100 < 0.05

    def test_range(self):
        a = generate_synthetic("circle", 60)
        b = generate_synthetic("star", 60, amplitude=0.4, petals=8)
        val = esd(a, b, grid_size=60)
        assert 0.0 <= val <= np.pi
