"""Smooth max calculus: values, softmax gradient, Hessian, sandwich slacks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sudfer import (
    EmptyInput,
    InvalidInput,
    SmoothMaxParams,
    sandwich_gap,
    smooth_max,
    smooth_max_hessian,
    softmax,
)
from sudfer.gaussian import SHARD_ROWS
from sudfer.smoothmax import _smooth_max_rows, _softmax_rows


vectors = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=16).map(np.array)
betas = st.floats(1e-3, 1e3).map(SmoothMaxParams)


def random_inputs(rng, count, n_max=8, x_scale=1.0, beta_lo=0.5, beta_hi=2.0):
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        yield rng.uniform(-x_scale, x_scale, size=n), SmoothMaxParams(float(rng.uniform(beta_lo, beta_hi)))


class TestSmoothMaxValue:
    def test_equal_entries(self):
        for n in (1, 2, 5, 64):
            params = SmoothMaxParams(1.7)
            x = np.full(n, 3.25)
            assert smooth_max(x, params) == pytest.approx(3.25 + math.log(n) / 1.7, abs=1e-12)

    def test_single_entry_identity(self):
        assert smooth_max([5.0], SmoothMaxParams(0.3)) == 5.0
        assert smooth_max([5.0], SmoothMaxParams(100.0)) == 5.0

    def test_huge_spread_never_overflows(self):
        # exp(1000) would overflow; max-subtraction turns it into exp(-1000).
        assert smooth_max([1000.0, 0.0], SmoothMaxParams(1.0)) == 1000.0
        # A shift or a scaled shift past the float range is -inf, whose exp is the right 0, with no warning (the
        # suite turns RuntimeWarning into an error).
        assert smooth_max([1e308, -1e308], SmoothMaxParams(1.0)) == 1e308
        assert np.array_equal(softmax([1e308, -1e308], SmoothMaxParams(1.0)), [1.0, 0.0])
        assert smooth_max([0.0, -1e300], SmoothMaxParams(1e10)) == 0.0
        assert sandwich_gap([0.0, -1e300], SmoothMaxParams(1e10)) == (0.0, math.log(2.0) / 1e10)

    def test_broadcasts_over_rows(self):
        params = SmoothMaxParams(2.0)
        rows = np.array([[0.0, 1.0], [3.0, 3.0]])
        out = smooth_max(rows, params)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(smooth_max([0.0, 1.0], params))
        assert out[1] == pytest.approx(3.0 + math.log(2) / 2.0)

    def test_rejects_empty_and_bad_beta(self):
        with pytest.raises(EmptyInput):
            smooth_max([], SmoothMaxParams(1.0))
        with pytest.raises(EmptyInput):
            smooth_max(3.0, SmoothMaxParams(1.0))
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidInput):
                SmoothMaxParams(bad)


class TestSoftmax:
    def test_uniform_on_equal_entries(self):
        p = softmax(np.zeros(4), SmoothMaxParams(3.0))
        assert np.array_equal(p, np.full(4, 0.25))

    def test_known_ratio(self):
        # p2/p1 = e^beta = 3 at beta = log 3, so p = (1/4, 3/4).
        p = softmax([0.0, 1.0], SmoothMaxParams(math.log(3.0)))
        assert p[0] == pytest.approx(0.25, abs=1e-15)
        assert p[1] == pytest.approx(0.75, abs=1e-15)

    def test_dominated_entry_saturates(self):
        p = softmax([0.0, 50.0], SmoothMaxParams(1.0))
        assert p[1] >= 1.0 - 1e-21
        assert p[0] <= 1e-21

    def test_normalization_sweep(self):
        rng = np.random.default_rng(31)
        for x, params in random_inputs(rng, 200, n_max=32, x_scale=20.0, beta_hi=15.0):
            p = softmax(x, params)
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) <= 1e-12 * p.size

    def test_shift_invariance(self):
        rng = np.random.default_rng(37)
        for x, params in random_inputs(rng, 100, x_scale=5.0):
            c = float(rng.uniform(-100.0, 100.0))
            np.testing.assert_allclose(softmax(x + c, params), softmax(x, params), atol=1e-12)


class TestGradient:
    def test_equals_softmax_and_sums_to_one(self):
        rng = np.random.default_rng(41)
        for x, params in random_inputs(rng, 50, x_scale=4.0):
            g = softmax(x, params)
            e = np.exp(params.beta * x)
            np.testing.assert_allclose(g, e / e.sum(), rtol=1e-12, atol=0)
            assert abs(g.sum() - 1.0) <= 1e-12 * g.size

    def test_constant_input_symmetry(self):
        g = softmax(np.full(3, -7.0), SmoothMaxParams(9.0))
        np.testing.assert_allclose(g, 1.0 / 3.0, atol=1e-15)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(43)
        h = 1e-6
        for beta in (0.5, 2.0, 10.0):
            params = SmoothMaxParams(beta)
            for _ in range(30):
                n = int(rng.integers(2, 7))
                x = rng.uniform(-1.0, 1.0, size=n)
                g = softmax(x, params)
                fd = np.empty(n)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = h
                    fd[i] = (smooth_max(x + e, params) - smooth_max(x - e, params)) / (2.0 * h)
                assert np.max(np.abs(fd - g)) <= 1e-5 * np.max(np.abs(g))


class TestHessian:
    def test_two_point_closed_form(self):
        for beta in (0.5, 1.0, 6.0):
            h = smooth_max_hessian([2.0, 2.0], SmoothMaxParams(beta))
            expect = beta * np.array([[0.25, -0.25], [-0.25, 0.25]])
            np.testing.assert_allclose(h, expect, atol=1e-14 * beta)

    def test_rows_sum_to_zero_and_symmetric(self):
        rng = np.random.default_rng(47)
        for x, params in random_inputs(rng, 100, n_max=10, x_scale=3.0, beta_hi=8.0):
            h = smooth_max_hessian(x, params)
            assert np.array_equal(h, np.swapaxes(h, -1, -2))
            assert np.max(np.abs(h.sum(axis=-1))) <= 1e-12 * params.beta

    @given(vectors, betas)
    def test_rows_sum_to_zero_property(self, x, params):
        h = smooth_max_hessian(x, params)
        # Row i is b * p_i * (1 - sum p), up to n roundings of terms at most b * p_i.
        assert np.all(np.abs(h.sum(axis=-1)) <= 4.0 * x.size * np.finfo(float).eps * params.beta)

    def test_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(53)
        step = 1e-6
        params = SmoothMaxParams(3.0)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            x = rng.uniform(-1.0, 1.0, size=n)
            h = smooth_max_hessian(x, params)
            fd = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = step
                fd[:, j] = (softmax(x + e, params) - softmax(x - e, params)) / (2.0 * step)
            assert np.max(np.abs(fd - h)) <= 1e-4 * np.max(np.abs(h))

    def test_quadratic_form_is_psd(self):
        rng = np.random.default_rng(59)
        for x, params in random_inputs(rng, 100, n_max=9, x_scale=3.0, beta_hi=6.0):
            h = smooth_max_hessian(x, params)
            v = rng.standard_normal(x.size)
            assert v @ h @ v >= -1e-10 * params.beta * (v @ v)


class TestSandwich:
    def test_dominated_coordinate(self):
        lower, upper = sandwich_gap([0.0, -1e6], SmoothMaxParams(1.0))
        assert 0.0 <= lower <= 1e-12
        assert upper == pytest.approx(math.log(2.0), abs=1e-12)

    def test_equal_entries_attain_upper_bound(self):
        for n, beta in ((2, 1.0), (10, 0.25), (64, 7.0)):
            lower, upper = sandwich_gap(np.full(n, 1.5), SmoothMaxParams(beta))
            assert lower == pytest.approx(math.log(n) / beta, abs=1e-12)
            assert abs(upper) <= 1e-12

    @given(vectors, betas)
    def test_max_below_smooth_max_below_max_plus_log_n_over_beta(self, x, params):
        m, f = float(x.max()), smooth_max(x, params)
        # F = m + log(s)/b with 1 <= s <= n: the lower end is exact, the upper end holds up to one rounding.
        assert m <= f <= np.nextafter(m + math.log(x.size) / params.beta, math.inf)

    def test_slack_sweep_never_negative(self):
        rng = np.random.default_rng(61)
        for x, params in random_inputs(rng, 1000, n_max=16, x_scale=50.0, beta_lo=0.05, beta_hi=40.0):
            lower, upper = sandwich_gap(x, params)
            assert lower >= -1e-12
            assert upper >= -1e-12


class TestScalingIdentities:
    def test_translation(self):
        rng = np.random.default_rng(67)
        for x, params in random_inputs(rng, 100, x_scale=10.0):
            c = float(rng.uniform(-50.0, 50.0))
            lhs = smooth_max(x + c, params)
            rhs = smooth_max(x, params) + c
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(c))

    def test_beta_scaling(self):
        rng = np.random.default_rng(71)
        one = SmoothMaxParams(1.0)
        for x, params in random_inputs(rng, 100, x_scale=5.0, beta_hi=10.0):
            lhs = smooth_max(x, params)
            rhs = smooth_max(params.beta * np.asarray(x), one) / params.beta
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_monotone_in_beta_toward_max(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            x = rng.uniform(-4.0, 4.0, size=n)
            betas = np.sort(rng.uniform(0.1, 20.0, size=4))
            vals = [smooth_max(x, SmoothMaxParams(float(b))) for b in betas]
            for lo, hi in zip(vals, vals[1:]):
                assert hi <= lo + 1e-12


class TestNonFiniteInput:
    # nan and +-inf have no smooth max: each public function raises before
    # any arithmetic, so no RuntimeWarning and no nan comes out.
    @pytest.mark.parametrize("fn", [smooth_max, softmax, smooth_max_hessian, sandwich_gap])
    @pytest.mark.parametrize(
        "x", [[math.inf, 1.0], [-math.inf, -math.inf], [math.nan, 0.0], [[0.0, 1.0], [2.0, math.nan]]]
    )
    def test_rejected(self, fn, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput):
                fn(x, SmoothMaxParams(1.0))


class TestRowReductions:
    # The private row reductions overwrite their block; they must equal the
    # textbook expressions on a fresh copy bit for bit.
    @staticmethod
    def textbook(a, beta):
        m = a.max(axis=-1)
        e = np.exp(beta * (a - m[..., None]))
        return m + np.log(e.sum(-1)) / beta, e / e.sum(-1, keepdims=True)

    def assert_bitwise(self, a, beta):
        params = SmoothMaxParams(beta)
        value, p = self.textbook(a, beta)
        rows = a.copy()
        assert np.array_equal(_smooth_max_rows(rows, params), value)
        rows = a.copy()
        out = _softmax_rows(rows, params)
        assert out is rows
        assert np.array_equal(out, p)

    @pytest.mark.parametrize("beta", [0.5, 2.0, 40.0])
    def test_shard_block(self, beta):
        a = np.random.default_rng(79).standard_normal((SHARD_ROWS, 256))
        self.assert_bitwise(a, beta)

    def test_stacked_and_partial_blocks(self):
        rng = np.random.default_rng(83)
        self.assert_bitwise(rng.uniform(-3.0, 3.0, size=(3, 5, 7)), 1.7)
        self.assert_bitwise(rng.standard_normal((257, 64)), 2.0)

    def test_public_functions_leave_their_input_alone(self):
        params = SmoothMaxParams(3.0)
        a = np.random.default_rng(89).standard_normal((4, 6))
        before = a.copy()
        value, p = self.textbook(before, 3.0)
        assert np.array_equal(smooth_max(a, params), value)
        assert np.array_equal(softmax(a, params), p)
        assert np.array_equal(a, before)
        a.setflags(write=False)
        assert np.array_equal(smooth_max(a, params), value)
        assert np.array_equal(softmax(a, params), p)
