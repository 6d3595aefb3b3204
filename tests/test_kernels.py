"""Periodic kernels: evaluation, bounds, Gram assembly."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvegp.errors import ValidationError
from curvegp.kernels import (DEFAULT_JITTER, FAMILIES, PeriodicHyperparameters, gram,
                             unit_correlation, warped_correlation, warped_distance)
from gram_oracle import gram_tolerance, periodic_eval, theorem1_bounds


def warped_correlation_oracle(family, w, rho, with_dlogrho=False):
    """`warped_correlation` as one expression per family, each step a new
    array: the form it had before it worked in place."""
    if family == "periodic_rbf":
        corr = np.exp(-w / rho)
        return (corr, corr * w / rho) if with_dlogrho else corr
    if family == "periodic_matern32":
        a = np.sqrt(3.0) * w / rho
        e = np.exp(-a)
        return ((1.0 + a) * e, a ** 2 * e) if with_dlogrho else (1.0 + a) * e
    a = w / rho
    e = np.exp(-a)
    return (e, a * e) if with_dlogrho else e


def hyp_rbf(sigma2=1.0, rho=1.0, tau=1.0, jitter=DEFAULT_JITTER):
    return PeriodicHyperparameters(sigma2, rho, tau, family="periodic_rbf",
                                   jitter=jitter)


def kernel(h, a, b):
    """The library's covariance between arc parameters a and b."""
    return h.sigma2 * unit_correlation(h.family, a, b, h.rho, h.tau)


class TestKernelValues:
    def test_zero_distance_is_variance(self):
        for family in FAMILIES:
            h = PeriodicHyperparameters(2.5, 0.4, 1.0, family=family)
            assert kernel(h, 0.3, 0.3) == pytest.approx(2.5, abs=1e-12)

    def test_full_period_is_variance(self):
        for family in FAMILIES:
            h = PeriodicHyperparameters(1.7, 0.3, 0.8, family=family)
            assert kernel(h, 0.1, 0.1 + 0.8) == pytest.approx(1.7, abs=1e-12)

    def test_half_period_rbf(self):
        h = hyp_rbf(sigma2=1.0, rho=1.0, tau=2.0)
        assert kernel(h, 0.0, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValidationError):
            PeriodicHyperparameters(-1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            PeriodicHyperparameters(1.0, 1.0, 1.0, family="rbf")

    def test_jitter_defaults_and_is_checked(self):
        assert PeriodicHyperparameters(1.0, 1.0, 1.0).jitter == DEFAULT_JITTER
        assert PeriodicHyperparameters(1.0, 1.0, 1.0, jitter=0.0).jitter == 0.0
        for bad in (-1e-3, np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="jitter"):
                PeriodicHyperparameters(1.0, 1.0, 1.0, jitter=bad)

    def test_rbf_range(self):
        h = hyp_rbf(sigma2=3.0, rho=0.4, tau=1.0)
        rng = np.random.default_rng(0)
        vals = kernel(h, rng.uniform(0, 5, 1000), rng.uniform(0, 5, 1000))
        assert np.all(vals > 0) and np.all(vals <= 3.0 + 1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_scalar_inputs_give_a_scalar(self, family):
        h = PeriodicHyperparameters(1.3, 0.5, 1.1, family=family, jitter=0.0)
        value = kernel(h, 0.2, 0.7)
        assert np.ndim(value) == 0
        assert value == gram(h, [0.2], [0.7])[0, 0]


class TestKernelProperties:
    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(min_value=0, max_value=10), b=st.floats(min_value=0, max_value=10),
           shift=st.floats(min_value=-5, max_value=5),
           family=st.sampled_from(FAMILIES))
    def test_symmetry_and_stationarity(self, a, b, shift, family):
        h = PeriodicHyperparameters(1.3, 0.5, 1.1, family=family)
        assert kernel(h, a, b) == kernel(h, b, a)
        assert kernel(h, a + shift, b + shift) == pytest.approx(
            kernel(h, a, b), rel=1e-12, abs=1e-12)


class TestTheorem1:
    def test_reference_values(self):
        lower, upper = theorem1_bounds(hyp_rbf(1.0, 1.0, 1.0), 1.0)
        assert lower == pytest.approx(1 - np.pi ** 2 / 4, abs=1e-10)
        expected_upper = 1 + (2 * np.pi ** 4 + 4 * np.pi ** 4 / 3) / 64
        assert upper == pytest.approx(expected_upper, abs=1e-10)
        assert lower == pytest.approx(-1.4674, abs=1e-3)
        assert upper == pytest.approx(6.0730, abs=1e-3)

    def test_bounds_collapse_at_zero_length(self):
        lower, upper = theorem1_bounds(hyp_rbf(2.0, 0.3, 1.0), 1e-9)
        assert lower == pytest.approx(2.0, abs=1e-6)
        assert upper == pytest.approx(2.0, abs=1e-6)

    def test_sandwich_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            length = rng.uniform(0.1, 3.0)
            tau = length  # tau = ell
            rho = rng.uniform(1e-3, tau / 2)
            sigma2 = rng.uniform(1e-3, 10.0)
            h = hyp_rbf(sigma2, rho, tau)
            lower, upper = theorem1_bounds(h, length)
            r = rng.uniform(0.0, length / 2)
            value = kernel(h, 0.0, r)
            assert lower - 1e-12 <= value <= upper + 1e-12


class TestGram:
    def test_single_input(self):
        h = hyp_rbf(2.0, 0.5, 1.0, jitter=1e-3)
        K = gram(h, [0.4])
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(2.0 + 1e-3, abs=1e-12)

    def test_distance_tau_perfect_correlation(self):
        h = hyp_rbf(1.5, 0.3, 0.7, jitter=0.0)
        K = gram(h, [0.0, 0.7])
        assert K[0, 1] == pytest.approx(1.5, abs=1e-12)

    def test_psd_all_families(self):
        rng = np.random.default_rng(3)
        for family in FAMILIES:
            for _ in range(100):
                n = rng.integers(2, 51)
                s = rng.uniform(0, 1, n)
                h = PeriodicHyperparameters(rng.uniform(0.1, 5),
                                            rng.uniform(0.05, 0.5), 1.0,
                                            family=family, jitter=0.0)
                K = gram(h, s)
                assert np.min(np.linalg.eigvalsh(K)) >= -1e-8

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("jitter", [0.0, 1e-3])
    def test_self_gram_formula(self, family, jitter):
        s = np.random.default_rng(4).uniform(0, 2, 12)
        h = PeriodicHyperparameters(1.7, 0.3, 1.1, family=family, jitter=jitter)
        K = gram(h, s)
        expected = h.sigma2 * unit_correlation(family, s[:, None], s[None, :],
                                               h.rho, h.tau)
        assert np.array_equal(K, expected + jitter)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cross_gram_constant_jitter_everywhere(self, family):
        rng = np.random.default_rng(5)
        s_a, s_b = rng.uniform(0, 1, 4), rng.uniform(0, 1, 7)
        h = PeriodicHyperparameters(0.8, 0.2, 1.0, family=family, jitter=1e-3)
        K = gram(h, s_a, s_b)
        assert K.shape == (4, 7)
        assert np.array_equal(K, gram(replace(h, jitter=0.0), s_a, s_b) + 1e-3)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cross_gram_of_same_values_equals_self_gram(self, family):
        # the jitter is on every entry, so the diagonal of the self Gram
        # gets nothing the cross Gram of the same values does not
        s = np.random.default_rng(6).uniform(0, 1, 6)
        h = PeriodicHyperparameters(0.8, 0.2, 1.0, family=family, jitter=1e-3)
        assert np.array_equal(gram(h, s, s.copy()), gram(h, s))


@st.composite
def gram_cases(draw):
    """A kernel, a jitter and inputs spanning several periods, some of them
    near-duplicates (a nudge of a few ulps up to 1e-6 periods) of others."""
    family = draw(st.sampled_from(FAMILIES))
    tau = draw(st.floats(min_value=0.05, max_value=20.0))
    sigma2 = draw(st.floats(min_value=1e-3, max_value=10.0))
    rho = draw(st.floats(min_value=1e-3, max_value=4.0))
    jitter = draw(st.sampled_from([0.0, DEFAULT_JITTER]))
    h = PeriodicHyperparameters(sigma2, rho, tau, family=family, jitter=jitter)
    periods = draw(st.lists(st.floats(min_value=-4.0, max_value=4.0),
                            min_size=1, max_size=24))
    s = tau * np.array(periods)
    near = draw(st.lists(st.tuples(st.integers(0, len(s) - 1),
                                   st.floats(min_value=-1e-6, max_value=1e-6)),
                         max_size=8))
    nudged = [np.nextafter(s[i], np.inf) + tau * d for i, d in near]
    return h, np.concatenate([s, nudged])


# bounded run time: about a second per property
GRAM_PROPERTY = settings(max_examples=150, deadline=None)


class TestGramProperties:
    """Gram identities that hold exactly, from the positional form of the
    sine of a difference, and the ones that hold to `gram_tolerance`."""

    @GRAM_PROPERTY
    @given(case=gram_cases())
    def test_exact_identities(self, case):
        h, s = case
        K = gram(h, s)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == h.sigma2 + h.jitter)
        assert np.array_equal(gram(h, s, s.copy()), K)

    @GRAM_PROPERTY
    @given(case=gram_cases())
    def test_periodic_and_agrees_with_the_distance_form(self, case):
        h, s = case
        tol = gram_tolerance(h, np.concatenate([s, s + h.tau]))
        K = gram(h, s)
        assert np.max(np.abs(gram(h, s + h.tau, s) - K)) <= tol
        assert np.max(np.abs(gram(h, s, s + h.tau) - K)) <= tol
        oracle = periodic_eval(h, s[:, None], s[None, :]) + h.jitter
        assert np.max(np.abs(K - oracle)) <= tol

    @GRAM_PROPERTY
    @given(case=gram_cases())
    def test_nearly_psd(self, case):
        # the entries' own rounding and eigvalsh's backward error each move
        # the spectrum by up to a few n eps max|K|: on near-singular Grams
        # the distance form, too, falls below -n eps max|K|
        h, s = case
        K = gram(h, s)
        bound = 4 * len(s) * np.finfo(float).eps * np.max(np.abs(K))
        assert np.min(np.linalg.eigvalsh(K)) >= -bound


class TestWarpedCorrelation:
    @pytest.mark.parametrize("with_dlogrho", [False, True])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bit_identical_to_the_oracle_and_leaves_w(self, family, with_dlogrho):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = rng.uniform(0, 3, (2, rng.integers(1, 30)))
            w = warped_distance(family, s[0][:, None], s[1][None, :],
                                rng.uniform(0.5, 2.0))
            w[0, 0] = 0.0
            before = w.copy()
            rho = rng.uniform(0.01, 1.0)
            got = warped_correlation(family, w, rho, with_dlogrho)
            want = warped_correlation_oracle(family, w, rho, with_dlogrho)
            if not with_dlogrho:
                got, want = (got,), (want,)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert np.array_equal(w, before)
        # a scalar distance gives a scalar value
        w = warped_distance(family, 0.0, 0.3, 1.0)
        value = warped_correlation(family, w, 0.2)
        assert np.ndim(value) == 0
        assert value == warped_correlation_oracle(family, w, 0.2)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gram_transient_memory(self, family):
        # a chain of full-size temporaries once took the Matern Grams to 5x
        # their output, the distances r, kept beside the warp, to 4x, and
        # two buffers of the correlation beside the warp to 3x; it is now
        # evaluated in the warp's buffer, at the 2x that forming it takes
        s = np.random.default_rng(9).uniform(0, 1, 400)
        h = PeriodicHyperparameters(0.7, 0.2, 1.0, family)
        gram(h, s[:4])
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            K = gram(h, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < 2.5 * K.nbytes
