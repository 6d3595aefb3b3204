"""Curve geometry: polygon length, arc-length parameterization, resampling,
and synthetic generation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvegp.curves import (Curve, arc_to_xy_param, closure_row,
                            generate_synthetic, polygon_length,
                            resample_equally_spaced, xy_to_arc_param,
                            _oversampled_polygon)
from curvegp.errors import DegenerateCurveError, ValidationError
from curvegp.model import TrainingDesign

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def arc_to_xy_oracle(curve, s):
    """`arc_to_xy_param` composed from public pieces: the wrap by
    `polygon_length`, the lookup in `cumulative_arc`, the points from
    `closed_points`. Both read the curve's one cached table."""
    length = polygon_length(curve)
    s = np.remainder(np.asarray(s, dtype=float), length)
    res = curve.cumulative_arc
    previ = np.minimum(np.searchsorted(res, s, side="right") - 1, curve.n - 1)
    rat = (s - res[previ]) / (res[previ + 1] - res[previ])
    closed = curve.closed_points()
    return closed[previ] + rat[..., None] * (closed[previ + 1] - closed[previ])


def circle_polygon(n, radius=1.0):
    theta = 2 * np.pi * np.arange(n) / n
    return Curve(radius * np.column_stack([np.cos(theta), np.sin(theta)]))


class TestCurveValidation:
    def test_requires_three_points(self):
        with pytest.raises(ValidationError):
            Curve(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_requires_planar_points(self):
        with pytest.raises(ValidationError):
            Curve(np.zeros((4, 3)))

    def test_closure_row_dropped(self):
        c = Curve(np.vstack([SQUARE, SQUARE[:1]]))
        assert c.n == 4

    def test_doubled_closure_row_dropped(self):
        # dropping the closure row before merging duplicates left the
        # second copy, a closing segment of length 0
        with pytest.warns(UserWarning, match="merged duplicated"):
            c = Curve(np.vstack([SQUARE, SQUARE[:1], SQUARE[:1]]))
        assert c.points.tolist() == SQUARE.tolist()

    @pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (1e5, 1.0), (0.0, 1e-9),
                                              (-3e7, 1e-4), (1e6, 1e3)])
    def test_kept_rows_do_not_depend_on_where_the_curve_sits(self, shift, scale):
        # np.allclose's tolerance grew with the distance from the origin and
        # never fell below 1e-8, so a moved or shrunk circle lost a real point
        t = 2 * np.pi * np.arange(30) / 30
        pts = scale * np.column_stack([np.cos(t), np.sin(t)]) + shift
        assert Curve(pts).n == 30
        assert Curve(np.vstack([pts, pts[:1]])).n == 30  # an exact closure row
        # a closure row off by rounding, a trillionth of the extent
        assert Curve(np.vstack([pts, pts[:1] + 1e-12 * scale])).n == 30

    def test_closure_row_of_a_stack_is_that_of_each_array(self):
        rng = np.random.default_rng(0)
        stack = (rng.normal(size=(4, 10, 2)) * np.array([1.0, 1e-9, 1e6, 1.0])[:, None, None]
                 + np.array([[0.0, 0.0], [5.0, 5.0], [1e9, -1e9], [1e5, 1e5]])[:, None])
        stack[0, -1] = stack[0, 0]
        stack[2, -1] = stack[2, 0]
        assert closure_row(stack).tolist() == [closure_row(a) for a in stack] == [
            True, False, True, False]

    def test_duplicate_points_merged_with_warning(self):
        pts = np.array([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        with pytest.warns(UserWarning) as record:
            c = Curve(pts)
        assert c.n == 4
        assert record[0].filename == __file__  # the caller's line, not __init__'s

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, value):
        # a nan point once reached every command: plot drew it, the fits
        # failed on it
        pts = SQUARE.copy()
        pts[2, 0] = value
        with pytest.raises(ValidationError, match="curve point 2 is not finite"):
            Curve(pts)

    def test_points_immutable(self):
        c = Curve(SQUARE)
        with pytest.raises(ValueError):
            c.points[0, 0] = 5.0

    def test_a_curve_equals_only_itself(self):
        # the dataclass's generated __eq__ compared the point arrays as a
        # tuple and raised numpy's ambiguous-truth ValueError
        c = Curve(SQUARE)
        assert c == c
        assert Curve(SQUARE) != Curve(SQUARE)
        assert not Curve(SQUARE) == Curve(SQUARE)

    def test_a_curve_is_found_in_a_list(self):
        c = Curve(SQUARE)
        assert c in [c]
        assert Curve(SQUARE) not in [c]

    def test_a_curve_hashes_by_identity(self):
        # frozen with eq=True made the curve unhashable (TypeError)
        c = Curve(SQUARE)
        assert {c} == {c} and len({c, c}) == 1
        assert hash(c) == hash(c) and len({c, Curve(SQUARE)}) == 2


class TestPolygonLength:
    def test_unit_square(self):
        assert polygon_length(Curve(SQUARE)) == pytest.approx(4.0, abs=1e-12)

    def test_inscribed_square(self):
        assert polygon_length(circle_polygon(4)) == pytest.approx(4 * np.sqrt(2), abs=1e-12)

    def test_circle_1000(self):
        value = polygon_length(circle_polygon(1000))
        assert value == pytest.approx(2000 * np.sin(np.pi / 1000), abs=1e-12)
        assert abs(2 * np.pi - value) < 1.1e-5

    def test_degenerate_merged_to_error(self):
        with pytest.raises(ValidationError):
            with pytest.warns(UserWarning):
                Curve(np.zeros((5, 2)))


class TestArcTable:
    def test_one_length(self):
        # the stars on which a pairwise-summed length once differed in its
        # last bits from the running sum of the design's arc parameters
        for seed in range(200):
            c = generate_synthetic("star", 60, noise_sd=0.02, rng_seed=seed)
            design = TrainingDesign.from_curves([c])
            assert polygon_length(c) == c.cumulative_arc[-1] == design.lengths[0]

    def test_cached_and_read_only(self):
        c = generate_synthetic("star", 9)
        assert c.cumulative_arc is c.cumulative_arc
        assert c.segment_lengths is c.segment_lengths
        for table in (c.cumulative_arc, c.segment_lengths):
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_degenerate_curve_raises_everywhere(self):
        # distinct points whose squared segment lengths underflow to 0
        c = Curve(1e-200 * SQUARE)
        for call in (lambda: polygon_length(c), lambda: arc_to_xy_param(c, 0.5),
                     lambda: xy_to_arc_param(c, (0.0, 0.0)),
                     lambda: resample_equally_spaced(c, 8)):
            with pytest.raises(DegenerateCurveError, match="zero total length"):
                call()


class TestXyToArc:
    def test_first_point_is_zero(self):
        assert xy_to_arc_param(Curve(SQUARE), (0.0, 0.0)) == 0.0

    def test_second_vertex(self):
        assert xy_to_arc_param(Curve(SQUARE), (1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_off_curve_projects(self):
        s = xy_to_arc_param(Curve(SQUARE), (0.5, -0.2))
        assert s == pytest.approx(0.5, abs=0.5 / 20 + 1e-12)

    def test_result_in_range(self):
        c = circle_polygon(17)
        length = polygon_length(c)
        for q in [(2.0, 2.0), (-1.0, 0.3), (0.0, 0.0)]:
            assert 0.0 <= xy_to_arc_param(c, q) < length

    def test_tie_breaks_to_smallest(self):
        # query at the centroid of the square is equidistant from all sides
        s = xy_to_arc_param(Curve(SQUARE), (0.5, 0.5))
        dense, arcs = _oversampled_polygon(Curve(SQUARE))
        dist = np.linalg.norm(dense - np.array([0.5, 0.5]), axis=1)
        min_arcs = arcs[np.isclose(dist, dist.min())]
        assert s == min_arcs.min()

    def test_array_query_equals_point_queries(self):
        curves = [Curve(SQUARE), circle_polygon(17),
                  generate_synthetic("star", 9, rng_seed=3, noise_sd=0.05)]
        rng = np.random.default_rng(11)
        # the centre of the square and the midpoint between two polygon
        # samples (spacing 1/20 on the first side) are exact ties
        ties = np.array([[0.5, 0.5], [0.025, -0.3]])
        dense, _ = _oversampled_polygon(curves[0])
        for q in ties:
            dist = np.linalg.norm(dense - q, axis=1)
            assert np.count_nonzero(dist == dist.min()) >= 2
        for c in curves:
            queries = np.vstack([ties, c.points, rng.normal(size=(40, 2))])
            batched = xy_to_arc_param(c, queries)
            stacked = np.array([xy_to_arc_param(c, q) for q in queries])
            assert batched.shape == (len(queries),)
            assert batched.tobytes() == stacked.tobytes()
            assert isinstance(xy_to_arc_param(c, queries[0]), float)

    def test_array_query_in_blocks(self, monkeypatch):
        import curvegp.curves as curves_module
        c = circle_polygon(17)
        queries = np.random.default_rng(12).normal(size=(50, 2))
        whole = xy_to_arc_param(c, queries)
        # fewer distances per block than polygon samples: one query a block
        monkeypatch.setattr(curves_module, "XY_QUERY_BLOCK", 7)
        assert xy_to_arc_param(c, queries).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_query(self, value):
        # a NaN coordinate once gave the arc parameter 0.0, as if the query
        # were the first point
        c = generate_synthetic("star", 9)
        queries = np.zeros((3, 2))
        queries[1, 0] = value
        for query in ([value, 0.0], [0.0, value], queries):
            with pytest.raises(ValidationError, match="^query must be finite"):
                xy_to_arc_param(c, query)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2, 2), (1, 4), (0,), (3,), (5,)])
    def test_rejects_a_query_that_is_not_a_point_array(self, shape):
        # one point (2,) or points (n, 2): a (2, 3) array was once read as
        # three points, a (1, 2, 2) one as two and an empty one raised
        # IndexError
        message = ("query must be one point of shape (2,) or points of shape (n, 2), "
                   f"got shape {shape}")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            xy_to_arc_param(Curve(SQUARE), np.zeros(shape))

    def test_no_query_points_give_no_parameters(self):
        got = xy_to_arc_param(Curve(SQUARE), np.zeros((0, 2)))
        assert got.shape == (0,) and got.dtype == float


class TestArcToXy:
    def test_endpoints(self):
        c = Curve(SQUARE)
        assert np.allclose(arc_to_xy_param(c, 0.0), [0.0, 0.0])
        assert np.allclose(arc_to_xy_param(c, 4.0), [0.0, 0.0])

    def test_side_midpoint(self):
        assert np.allclose(arc_to_xy_param(Curve(SQUARE), 0.5), [0.5, 0.0])

    def test_wrapping(self):
        c = Curve(SQUARE)
        assert np.allclose(arc_to_xy_param(c, 4.5), arc_to_xy_param(c, 0.5))
        assert np.allclose(arc_to_xy_param(c, -0.5), arc_to_xy_param(c, 3.5))

    def test_output_on_polygon(self):
        c = circle_polygon(9)
        length = polygon_length(c)
        closed = c.closed_points()
        rng = np.random.default_rng(0)
        for s in rng.uniform(0, length, 50):
            p = arc_to_xy_param(c, s)
            dists = []
            for a, b in zip(closed[:-1], closed[1:]):
                ab = b - a
                t = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0, 1)
                dists.append(np.linalg.norm(p - (a + t * ab)))
            assert min(dists) < 1e-12


    def test_array_matches_scalar_calls_bitwise(self):
        rng = np.random.default_rng(3)
        for k in range(5):
            c = generate_synthetic("star", 7 + 9 * k, noise_sd=0.03, rng_seed=k)
            length = polygon_length(c)
            s = np.concatenate([
                rng.uniform(-3 * length, 4 * length, 100),  # both sides of [0, L]
                c.cumulative_arc,                           # every vertex
                -c.cumulative_arc,
                [length, -length, 2 * length, 0.0, -0.0, -1e-17, 1e-17]])
            batched = arc_to_xy_param(c, s)
            stacked = np.array([arc_to_xy_param(c, v) for v in s])
            assert batched.shape == (len(s), 2)
            assert batched.tobytes() == stacked.tobytes()
            grid = arc_to_xy_param(c, s[:100].reshape(25, 4))
            assert grid.tobytes() == batched[:100].tobytes()
        for s in (0.5, np.float64(1.5), 3, np.array(2.5)):
            assert arc_to_xy_param(Curve(SQUARE), s).shape == (2,)

    def test_matches_composed_oracle_bytewise(self):
        rng = np.random.default_rng(11)
        curves = [Curve(SQUARE), circle_polygon(9)] + [
            generate_synthetic("star", 5 + 11 * k, noise_sd=0.05, rng_seed=k)
            for k in range(4)]
        for c in curves:
            length = polygon_length(c)
            s = np.concatenate([rng.uniform(-3 * length, 4 * length, 60),
                                c.cumulative_arc, -c.cumulative_arc,
                                [length, -length, 0.0, -0.0, -1e-17]])
            for query in (s, s[:30].reshape(5, 6), *s[::7], 2.5, -7):
                got = arc_to_xy_param(c, query)
                want = arc_to_xy_oracle(c, query)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_zero_length_raises(self):
        c = Curve(SQUARE)
        object.__setattr__(c, "points", np.zeros((4, 2)))  # past validation
        for fn in (arc_to_xy_param, arc_to_xy_oracle):
            with pytest.raises(DegenerateCurveError, match="zero total length"):
                fn(c, 0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_arc_parameter(self, value):
        # inf once gave the point [nan, nan] after a RuntimeWarning
        c = generate_synthetic("star", 9)
        for s in (value, np.array([0.0, value, 1.0]), np.full((2, 2), value)):
            with pytest.raises(ValidationError, match="^s must be finite"):
                arc_to_xy_param(c, s)


class TestRoundTrip:
    def test_round_trip_bound(self):
        c = circle_polygon(23)
        length = polygon_length(c)
        seg = polygon_length(c) / 23  # equal segments for the regular polygon
        rng = np.random.default_rng(1)
        for s in rng.uniform(0, length, 200):
            back = xy_to_arc_param(c, arc_to_xy_param(c, s))
            err = min(abs(back - s), length - abs(back - s))
            assert err <= seg / 20 + 1e-12


class TestResample:
    def test_square_vertices(self):
        r = resample_equally_spaced(Curve(SQUARE), 4)
        assert np.allclose(r.points, SQUARE, atol=1e-12)

    def test_idempotent_on_equal_spacing(self):
        c = circle_polygon(16)
        r = resample_equally_spaced(c, 16)
        assert np.allclose(r.points, c.points, atol=1e-12)

    def test_circle_positions(self):
        c = circle_polygon(1000)
        r = resample_equally_spaced(c, 10)
        theta = 2 * np.pi * np.arange(10) / 10
        expected = np.column_stack([np.cos(theta), np.sin(theta)])
        assert np.max(np.abs(r.points - expected)) < 1e-3

    def test_rejects_small_m(self):
        # m = 10.5 was once rounded up to 11 points; a whole-number float is
        # a count
        for m in (2, 10.5, 1.5, np.nan, np.inf, "3", None):
            with pytest.raises(ValidationError, match="m must be a whole number >= 3"):
                resample_equally_spaced(Curve(SQUARE), m)
        assert np.array_equal(resample_equally_spaced(Curve(SQUARE), 10.0).points,
                              resample_equally_spaced(Curve(SQUARE), 10).points)


class TestPerimeterConsistency:
    def test_monotone_decreasing_error(self):
        errors = []
        for n in [8, 16, 32, 64, 128, 256, 512, 1024]:
            errors.append(abs(2 * np.pi - polygon_length(circle_polygon(n))))
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] < 1e-4


class TestGenerateSynthetic:
    def test_circle_four_points(self):
        c = generate_synthetic("circle", 4)
        assert np.allclose(c.points, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-12)

    def test_noiseless_on_shape(self):
        c = generate_synthetic("star", 50, amplitude=0.2, petals=5)
        theta = np.arctan2(c.points[:, 1], c.points[:, 0])
        r = np.linalg.norm(c.points, axis=1)
        assert np.allclose(r, 1 + 0.2 * np.cos(5 * theta), atol=1e-10)

    def test_ellipse_perimeter(self):
        c = generate_synthetic("ellipse", 100, axes=(1.0, 0.5))
        # quadrature of the ellipse arc-length integral
        t = np.linspace(0, 2 * np.pi, 200001)
        speed = np.sqrt(np.sin(t) ** 2 + 0.25 * np.cos(t) ** 2)
        perimeter = np.trapezoid(speed, t)
        assert abs(polygon_length(c) - perimeter) / perimeter < 1e-3

    def test_deterministic(self):
        a = generate_synthetic("circle", 20, noise_sd=0.05, rng_seed=7)
        b = generate_synthetic("circle", 20, noise_sd=0.05, rng_seed=7)
        assert np.array_equal(a.points, b.points)

    def test_invalid_star_params(self):
        for amplitude in (-0.1, 1.0, 1.5):
            with pytest.raises(ValidationError, match=r"star amplitude must lie in \[0, 1\)"):
                generate_synthetic("star", 10, amplitude=amplitude)
        with pytest.raises(ValidationError):
            generate_synthetic("star", 10, petals=0)

    @pytest.mark.parametrize("noise_sd", [-0.1, np.nan, np.inf, -np.inf])
    def test_noise_sd_must_be_finite_and_nonnegative(self, noise_sd):
        # NaN passed both checks and gave a curve with no noise; inf failed
        # later, as "curve point 0 is not finite"
        with pytest.raises(ValidationError, match="noise_sd must be finite and >= 0"):
            generate_synthetic("circle", 8, noise_sd=noise_sd, rng_seed=1)

    @pytest.mark.parametrize("shape, sizes, name", [
        ("circle", {"radius": 0.0}, "radius"), ("circle", {"radius": np.nan}, "radius"),
        ("circle", {"radius": np.inf}, "radius"), ("circle", {"radius": -1.0}, "radius"),
        ("star", {"radius": -1.0}, "radius"), ("star", {"radius": 0.0}, "radius"),
        ("ellipse", {"axes": (0.0, 0.5)}, "axes[0]"),
        ("ellipse", {"axes": (1.0, -0.5)}, "axes[1]"),
        ("ellipse", {"axes": (1.0, np.nan)}, "axes[1]")],
        ids=["circle-0", "circle-nan", "circle-inf", "circle-neg", "star-neg", "star-0",
             "ellipse-a-0", "ellipse-b-neg", "ellipse-b-nan"])
    def test_sizes_must_be_finite_and_positive(self, shape, sizes, name):
        # a zero radius merged every point into one, a NaN one failed as a
        # non-finite point, and a zero or negative axis or a negative star
        # radius gave a curve
        with pytest.raises(ValidationError,
                           match=re.escape(f"{name} must be finite and > 0, got ")):
            generate_synthetic(shape, 10, **sizes)

    # an unknown shape or scheme is a ValidationError, as every other invalid
    # argument is, so a caller catches curve input with one class
    def test_unknown_shape_is_a_curve_error(self):
        with pytest.raises(ValidationError, match="unknown shape 'square'"):
            generate_synthetic("square", 10)

    def test_unknown_scheme_is_a_curve_error(self):
        with pytest.raises(ValidationError, match="unknown sampling scheme 'random'"):
            generate_synthetic("circle", 10, scheme="random")

    def test_counts_must_be_whole_numbers(self):
        # n = 10.5 once gave an 11-point curve, and petals = 2.5 a star that
        # does not close
        for n in (10.5, 2, 1.5, np.nan, np.inf, "3", None):
            with pytest.raises(ValidationError, match="n must be a whole number >= 3"):
                generate_synthetic("circle", n)
        for petals in (2.5, 0, 1.5, np.nan, np.inf, "3", None):
            with pytest.raises(ValidationError, match="petals must be a whole number >= 1"):
                generate_synthetic("star", 10, petals=petals)
        assert np.array_equal(generate_synthetic("star", 10.0, petals=3.0).points,
                              generate_synthetic("star", 10, petals=3).points)

    def test_clustered_scheme(self):
        c = generate_synthetic("circle", 30, scheme="clustered",
                               cluster_center=0.0)
        theta = np.arctan2(c.points[:, 1], c.points[:, 0])
        inside = np.sum(np.abs(((theta + np.pi) % (2 * np.pi)) - np.pi) <= np.pi / 4 + 1e-9)
        assert inside >= 0.7 * 30


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=3, max_value=40),
       seed=st.integers(min_value=0, max_value=10_000))
def test_resample_preserves_closure_property(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    try:
        c = Curve(pts)
    except ValidationError:
        return
    r = resample_equally_spaced(c, 12)
    assert r.n == 12
    # resampled points all lie on the original polygon (within tolerance)
    for p in r.points:
        s = xy_to_arc_param(c, p)
        assert np.linalg.norm(arc_to_xy_param(c, s) - p) < polygon_length(c) / 12
