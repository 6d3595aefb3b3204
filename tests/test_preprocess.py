"""Preprocessing: centering, scaling, SRVF, rotation + seed alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvegp.curves import Curve, generate_synthetic, polygon_length
from curvegp.errors import ValidationError
from curvegp.preprocess import (AlignmentResult, apply_alignment, center,
                                preprocess_collection, rotation_seed_align,
                                scale_to_unit_length, srvf)

SQUARE = Curve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


class TestCenter:
    def test_triangle(self):
        c = center(Curve(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])))
        assert np.allclose(c.points, [[-1, -1], [1, -1], [0, 2]])

    def test_idempotent(self):
        once = center(SQUARE)
        twice = center(once)
        assert np.allclose(once.points, twice.points, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_centroid_at_origin(self, seed):
        rng = np.random.default_rng(seed)
        c = center(Curve(rng.normal(size=(7, 2))))
        assert np.linalg.norm(c.points.mean(axis=0)) < 1e-12


class TestScale:
    def test_unit_square(self):
        s = scale_to_unit_length(SQUARE)
        assert polygon_length(s) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(s.points[1] - s.points[0], [0.25, 0.0])

    def test_idempotent(self):
        once = scale_to_unit_length(SQUARE)
        twice = scale_to_unit_length(once)
        assert np.allclose(once.points, twice.points, atol=1e-12)

    def test_circle(self):
        c = scale_to_unit_length(generate_synthetic("circle", 100))
        assert polygon_length(c) == pytest.approx(1.0, abs=1e-12)

    def test_center_scale_commute(self):
        a = scale_to_unit_length(center(SQUARE))
        b = center(scale_to_unit_length(SQUARE))
        assert np.allclose(a.points, b.points, atol=1e-12)


class TestSrvf:
    def test_square_tangents(self):
        q = srvf(SQUARE).q
        assert np.allclose(q, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-12)

    def test_norm_identity(self):
        c = generate_synthetic("star", 40, amplitude=0.2)
        assert srvf(c).norm_sq == pytest.approx(polygon_length(c), abs=1e-10)

    def test_unit_scaled_norm_one(self):
        c = scale_to_unit_length(generate_synthetic("ellipse", 30))
        assert srvf(c).norm_sq == pytest.approx(1.0, abs=1e-10)

    def test_normalized(self):
        c = generate_synthetic("star", 25)
        q = srvf(c).normalized()
        assert float(q.weights @ np.sum(q.q ** 2, axis=1)) == pytest.approx(1.0, abs=1e-10)


class TestRotationSeedAlign:
    def test_self_alignment(self):
        c = generate_synthetic("star", 20, amplitude=0.25)
        res = rotation_seed_align(c, c)
        assert res.shift == 0
        assert np.allclose(res.rotation, np.eye(2), atol=1e-10)
        assert res.residual < 1e-20

    def test_recovers_rotation(self):
        template = generate_synthetic("star", 24, amplitude=0.25, petals=7)
        R = rotation(np.pi / 2)
        target = Curve(template.points @ R.T)
        res = rotation_seed_align(target, template)
        assert np.allclose(res.rotation, rotation(-np.pi / 2), atol=1e-8)
        aligned = apply_alignment(target, res)
        assert np.allclose(aligned.points, template.points, atol=1e-8)

    def test_recovers_shift_and_rotation(self):
        template = generate_synthetic("star", 24, amplitude=0.25, petals=7)
        R = rotation(np.pi / 6)
        target = Curve(np.roll(template.points, -3, axis=0) @ R.T)
        res = rotation_seed_align(target, template)
        aligned = apply_alignment(target, res)
        assert np.allclose(aligned.points, template.points, atol=1e-8)
        # brute-force oracle: recompute every (shift, rotation) energy
        from curvegp.preprocess import _procrustes_rotation
        qt = srvf(template).q
        qs = srvf(target).q
        best = np.inf
        for shift in range(24):
            a = np.roll(qs, -shift, axis=0)
            Ropt = _procrustes_rotation(a, qt)
            best = min(best, float(np.mean(np.sum((qt - a @ Ropt.T) ** 2, axis=1))))
        assert res.residual == pytest.approx(best, abs=1e-12)

    def test_rotation_is_proper(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = Curve(rng.normal(size=(9, 2)))
            b = Curve(rng.normal(size=(9, 2)))
            res = rotation_seed_align(a, b)
            O = res.rotation
            assert np.allclose(O.T @ O, np.eye(2), atol=1e-10)
            assert np.linalg.det(O) == pytest.approx(1.0, abs=1e-10)

    def test_energy_invariant_under_common_rotation(self):
        rng = np.random.default_rng(5)
        a = Curve(rng.normal(size=(11, 2)))
        b = Curve(rng.normal(size=(11, 2)))
        base = rotation_seed_align(a, b).residual
        R = rotation(1.234)
        rotated = rotation_seed_align(Curve(a.points @ R.T), Curve(b.points @ R.T))
        assert rotated.residual == pytest.approx(base, abs=1e-10)

    def test_unequal_sizes_rejected(self):
        a = generate_synthetic("circle", 10)
        b = generate_synthetic("circle", 12)
        with pytest.raises(ValidationError, match="resample"):
            rotation_seed_align(a, b)



def seed_align_per_shift_oracle(target, template):
    """Alignment with one SVD Procrustes per cyclic shift: the test-only
    reference for the bulk-scored `rotation_seed_align`."""
    from curvegp.preprocess import _procrustes_rotation
    q_t = srvf(template).q
    q_s = srvf(target).q
    best = None
    for shift in range(target.n):
        a = np.roll(q_s, -shift, axis=0)
        R = _procrustes_rotation(a, q_t)
        residual = float(np.mean(np.sum((q_t - a @ R.T) ** 2, axis=1)))
        if best is None or residual < best.residual - 1e-15:
            best = AlignmentResult(rotation=R, shift=shift, residual=residual)
    return best


def assert_same_alignment(target, template):
    res = rotation_seed_align(target, template)
    ref = seed_align_per_shift_oracle(target, template)
    assert res.shift == ref.shift
    assert np.array_equal(res.rotation, ref.rotation)
    assert res.residual == ref.residual  # also bitwise: both are Python floats


class TestBulkSeedSearch:
    @pytest.mark.parametrize("n", [8, 17, 60, 200])
    def test_matches_per_shift_oracle_on_random_curves(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            assert_same_alignment(Curve(rng.normal(size=(n, 2))),
                                  Curve(rng.normal(size=(n, 2))))
        star = generate_synthetic("star", n, amplitude=0.25, petals=3,
                                  noise_sd=0.01, rng_seed=n)
        moved = Curve(np.roll(star.points, -int(rng.integers(n)), axis=0)
                      @ rotation(rng.uniform(0, 2 * np.pi)).T)
        assert_same_alignment(moved, star)

    @pytest.mark.parametrize("n, petals", [(20, 5), (24, 4), (60, 6), (200, 5)])
    def test_matches_per_shift_oracle_on_symmetric_curves(self, n, petals):
        # rotationally symmetric curves tie (to rounding) at every shift by
        # a whole petal or side: the first of them must win, as in the oracle
        star = generate_synthetic("star", n, amplitude=0.25, petals=petals)
        polygon = generate_synthetic("circle", n)
        for c in (star, polygon):
            assert_same_alignment(c, c)
            assert_same_alignment(Curve(c.points @ rotation(0.3).T), c)
            assert_same_alignment(Curve(np.roll(c.points, 3, axis=0)), c)

    def test_contenders_hold_the_ties(self):
        from curvegp.preprocess import _contenders, _shift_energies
        # the star of test_self_alignment, whose expected shift is 0
        q = srvf(generate_synthetic("star", 20, amplitude=0.25, petals=5)).q
        assert _contenders(_shift_energies(q, q)).tolist() == [0, 4, 8, 12, 16]

    def test_contenders_within_band_or_all_when_not_finite(self):
        from curvegp.preprocess import _contenders
        bulk = np.array([3.0, np.nan, 1.0, 2.0])
        assert _contenders(bulk).tolist() == [0, 1, 2, 3]
        assert _contenders(np.array([3.0, 1.0, 1.0 + 1e-12, 2.0])).tolist() == [1, 2]
        assert _contenders(np.array([3.0, 1.0]), start=0.5).tolist() == []


class TestPreprocessCollection:
    def test_single_curve(self):
        c = generate_synthetic("ellipse", 20)
        out, results = preprocess_collection([c])
        assert polygon_length(out[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(out[0].points.mean(axis=0)) < 1e-12
        assert results[0].shift == 0

    def test_identical_pair(self):
        c = generate_synthetic("star", 18, amplitude=0.2)
        out, results = preprocess_collection([c, c])
        assert results[1].residual < 1e-20
        assert np.allclose(out[0].points, out[1].points, atol=1e-10)

    def test_random_rotations_reduce_residuals(self):
        rng = np.random.default_rng(6)
        base = generate_synthetic("star", 30, amplitude=0.3, petals=3)
        curves = [base]
        for _ in range(2):
            R = rotation(rng.uniform(0, 2 * np.pi))
            curves.append(Curve(np.roll(base.points, -rng.integers(1, 29),
                                        axis=0) @ R.T))
        out, _ = preprocess_collection(curves)

        def residual(a, b):
            return float(np.sum((a.points - b.points) ** 2))

        pre = [scale_to_unit_length(center(c)) for c in curves]
        for i in (1, 2):
            assert residual(out[0], out[i]) <= residual(pre[0], pre[i]) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            preprocess_collection([])

    def test_template_index_is_a_whole_number_in_range(self):
        # 0.5 and 1.0 once met the list's TypeError, not a ValidationError
        curves = [generate_synthetic("star", 12, amplitude=0.2, petals=k) for k in (3, 4)]
        for index in (0.5, -1, 2, np.nan, np.inf, "0", None):
            with pytest.raises(ValidationError, match="template_index"):
                preprocess_collection(curves, index)
        (got, got_res), (want, want_res) = (preprocess_collection(curves, index)
                                            for index in (1.0, 1))
        assert all(np.array_equal(a.points, b.points) for a, b in zip(got, want))
        assert all(np.array_equal(a.rotation, b.rotation) and (a.shift, a.residual)
                   == (b.shift, b.residual) for a, b in zip(got_res, want_res))
