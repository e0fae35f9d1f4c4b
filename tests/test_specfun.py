"""Special-function tests: frozen quadrature oracle values, closed-form
special cases and structural properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from helpers import marcum_q_reference, reference_battery, reference_params

import ehrelay as er
from ehrelay import NumericalError, ValidationError, lower_incomplete_gamma, marcum_q
from ehrelay import specfun
from ehrelay.specfun import poisson_mean_inverse_shift

# oracle values computed by adaptive quadrature before the implementation
# existed (independent integrands, scipy.integrate.quad at 1e-13 tolerances)
MARCUM_2_1_2 = 0.5301469080839656          # integral of the order-2 tail density over [2, inf)
LOWER_GAMMA_3_2P5 = 0.9123737682333409     # integral of exp(-t) t^2 over [0, 2.5]


class TestMarcumQ:
    def test_full_support_is_one(self):
        assert marcum_q(3, 2.0, 0.0) == 1.0

    def test_zero_noncentrality_is_rayleigh_tail(self):
        assert marcum_q(1, 0.0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-13)

    def test_frozen_quadrature_value(self):
        assert marcum_q(2, 1.0, 2.0) == pytest.approx(MARCUM_2_1_2, abs=1e-8)

    def test_bounds_and_monotonicity_in_b(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            order = int(rng.integers(1, 5))
            a = float(rng.uniform(0.0, 10.0))
            bs = np.sort(rng.uniform(0.0, 10.0, size=4))
            values = [marcum_q(order, a, float(b)) for b in bs]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_large_arguments_do_not_overflow(self):
        # Bessel-series forms blow up near a*b ~ 700; the tail form must not
        v = marcum_q(2, 40.0, 38.0)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(0.9792487373, abs=1e-6)
        assert 0.0 <= marcum_q(1, 60.0, 80.0) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            marcum_q(0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            marcum_q(1, -0.1, 1.0)
        with pytest.raises(ValidationError):
            marcum_q(1, 1.0, -2.0)
        with pytest.raises(ValidationError):
            marcum_q(1, float("nan"), 1.0)

    @pytest.mark.parametrize("args, match", [
        pytest.param((1.5, 1.0, 1.0), "order must be an integer, got 1.5", id="order-float"),
        pytest.param(("2", 1.0, 1.0), "order must be an integer, got '2'", id="order-str"),
        pytest.param((1, math.inf, 1.0), r"a must be >= 0 with a\*a/2 finite, got inf",
                     id="a-inf"),
        pytest.param((1, 1e160, 1.0), r"a must be >= 0 with a\*a/2 finite, got 1e\+160",
                     id="a-square-overflows"),
    ])
    def test_refusal_names_the_argument(self, args, match):
        with pytest.raises(ValidationError, match=match):
            marcum_q(*args)

    def test_nonconvergence_raises_instead_of_nan(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
        with pytest.raises(NumericalError):
            marcum_q(1, 9.0, 5.0)

    def test_tail_bound_below_weight_rounding_is_not_an_error(self, monkeypatch):
        # at a tail bound of 1e-15 the rounded Poisson weights often settle
        # short of 1 - 1e-15; the series stops once its terms no longer move them
        monkeypatch.setattr(specfun, "_ABS_TOL", 1e-15)
        for nk in np.geomspace(0.5, 1e5, 40):
            a = math.sqrt(2.0 * nk)
            expected = stats.ncx2.sf(a * a, 2, a * a)
            assert marcum_q(1, a, a) == pytest.approx(expected, abs=1e-11)

    def test_matches_scipy_noncentral_chi2_up_to_large_noncentrality(self):
        # N*K = a^2 / 2 up to 1e5, across both tails of the law; from
        # N*K ~ 1e4 on this needs the saddle-point Poisson log-probabilities
        for nk in np.geomspace(1e-2, 1e5, 36):
            a = math.sqrt(2.0 * nk)
            for order in (1, 2, 3):
                mean, sd = a * a + 2.0 * order, math.sqrt(4.0 * (order + a * a))
                for x in np.linspace(max(0.0, mean - 8.0 * sd), mean + 8.0 * sd, 9):
                    expected = stats.ncx2.sf(x, 2 * order, a * a)
                    assert marcum_q(order, a, math.sqrt(x)) == pytest.approx(expected, abs=1e-10)


# b values with exact zeros mixed in; a includes the a = 0 (Rician K = 0) branch
B_LISTS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 40.0)), min_size=1, max_size=16)
A_VALUES = st.one_of(st.just(0.0), st.floats(0.0, 30.0))


class TestMarcumQArrays:
    """An array b runs one Poisson-mixture pass for every entry; each
    entry must come out exactly as a lone scalar call gives it."""

    @settings(max_examples=200, deadline=None)
    @given(order=st.integers(1, 4), a=A_VALUES, bs=B_LISTS)
    def test_array_equals_scalar_calls(self, order, a, bs):
        values = marcum_q(order, a, np.array(bs))
        assert isinstance(values, np.ndarray) and values.shape == (len(bs),)
        scalars = [marcum_q(order, a, b) for b in bs]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(values, scalars)

    @settings(max_examples=200, deadline=None)
    @given(order=st.integers(1, 4), a=A_VALUES, bs=B_LISTS)
    def test_bounded_and_monotone_in_b(self, order, a, bs):
        values = marcum_q(order, a, np.sort(bs))
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(np.diff(values) <= 1e-12)
        assert np.all(values[np.sort(bs) == 0.0] == 1.0)

    @pytest.mark.filterwarnings("error")
    def test_extreme_b(self):
        # b^2/2 underflows to 0 at b = 1e-160 and overflows, without a
        # warning, from b = 1.3e154 on; 1e-140 still runs the series
        assert marcum_q(1, 1.0, 1e-160) == 1.0
        assert marcum_q(3, 2.0, math.inf) == 0.0
        assert marcum_q(3, 2.0, 1e200) == 0.0
        values = marcum_q(2, 1.0, np.array([0.0, 1e-200, 1e-140, 1.0, 1e200, math.inf]))
        assert np.array_equal(values[[0, 1, 4, 5]], [1.0, 1.0, 0.0, 0.0])
        assert 1.0 - 1e-11 < values[2] <= 1.0

    def test_shape_is_kept(self):
        grid = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        values = marcum_q(2, 1.5, grid)
        assert values.shape == (2, 3)
        assert np.array_equal(values.ravel(), marcum_q(2, 1.5, grid.ravel()))

    @pytest.mark.parametrize("bad, shown", [(-2.0, "-2.0"), (math.nan, "nan")])
    def test_bad_entry_of_an_array_is_named(self, bad, shown):
        with pytest.raises(ValidationError, match=f"b must be >= 0, got {shown}"):
            marcum_q(1, 1.0, np.array([0.0, 1.0, bad, 3.0]))

    def test_nonconvergence_names_order_a_and_b(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
        with pytest.raises(NumericalError, match=r"order=1, a=9\.0, b=\[5\. 6\.\]"):
            marcum_q(1, 9.0, np.array([0.0, 5.0, 6.0]))
        with pytest.raises(NumericalError, match=r"order=1, a=9\.0, b=5\.0\)"):
            marcum_q(1, 9.0, 5.0)

    def test_nonconvergence_found_before_the_start_values(self, monkeypatch):
        # at a^2/2 = 2**53 the 10000-term mixture cannot reach the tail
        # bound; its scalar weights show that, before any start value
        def unreached(*args):
            raise AssertionError("start values of a mixture that cannot converge")

        monkeypatch.setattr(specfun, "_poisson_cdfs", unreached)
        monkeypatch.setattr(specfun, "_poisson_pmfs", unreached)
        with pytest.raises(NumericalError, match=r"order=4, a=134217728\.0, b=134217728\.5\)"):
            marcum_q(4, 2**27, 2**27 + 0.5)


def assert_matches_oracle(order, a, bs):
    """marcum_q over the array bs equals marcum_q_reference entry by entry,
    compared by float.hex."""
    bs = np.asarray(bs, dtype=float)
    got = [float(v).hex() for v in marcum_q(order, a, bs)]
    want = [marcum_q_reference(order, a, b).hex() for b in bs.tolist()]
    bad = [(b, g, w) for b, g, w in zip(bs.tolist(), got, want) if g != w]
    assert not bad, (f"{len(bad)} of {bs.size} entries differ from the oracle; "
                     f"first (b, got, want): {bad[0]}")


def head_sides(order, a, bs):
    """Entries of bs that run the series with int(x) >= k (head pmf(k, x))
    and with int(x) < k (head pmf(int(x), x)), x = b^2/2, k = order-1+int(a^2/2)."""
    k = order - 1 + int(0.5 * a * a)
    x = 0.5 * np.asarray(bs, dtype=float) ** 2
    x = x[x >= 1e-300]
    return int(np.sum(x >= k)), int(np.sum(x < k))


class TestMarcumQOracle:
    """marcum_q against helpers.marcum_q_reference, a frozen scalar copy of
    the mixture with one scalar Poisson CDF and two scalar pmfs per entry.
    The start values are array code; every entry must keep the bits the
    scalar evaluation gives it."""

    @settings(max_examples=150, deadline=None)
    @given(order=st.integers(1, 4), a=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
           data=st.data())
    def test_equals_the_scalar_oracle(self, order, a, data):
        # b up to about 2a: x = b^2/2 spans the head counts on both sides of k
        b = st.one_of(st.just(0.0), st.floats(0.0, 2.0 * a + 12.0))
        assert_matches_oracle(order, a, data.draw(st.lists(b, min_size=1, max_size=24)))

    @pytest.mark.parametrize("size", [1, 2, 43, 201, 403, 2000])
    def test_array_lengths(self, size):
        a = math.sqrt(60.0)  # N = 3, K = 10: k = 32
        bs = np.random.default_rng(size).uniform(0.0, 16.0, size)
        assert_matches_oracle(3, a, bs)
        if size >= 43:
            assert min(head_sides(3, a, bs)) > 0

    def test_sweep_sized_grid(self, monkeypatch):
        # the one marcum_q call behind a 16-point L=200 grid of evaluate_points
        calls = []

        def recording(order, a, b):
            calls.append((order, a, np.array(b, dtype=float)))
            return marcum_q(order, a, b)

        monkeypatch.setattr(er.channel, "marcum_q", recording)
        points = [(reference_params(p, 3), reference_battery(200))
                  for p in np.linspace(15.0, 30.0, 16)]
        list(er.evaluate_points(points))
        (order, a, bs), = [c for c in calls if c[2].size > 6000]
        assert min(head_sides(order, a, bs)) > 0
        assert_matches_oracle(order, a, bs)

    @pytest.mark.parametrize("order", [1, 4])
    def test_saddle_point_counts(self, order):
        # a^2/2 = 612.5: the pmfs at k and k+1 take the saddle-point form,
        # and so do the heads int(x) in [500, k); heads below 500 are direct
        x = np.concatenate([np.linspace(0.0, 1500.0, 151), np.linspace(480.0, 620.0, 141)])
        bs = np.sqrt(2.0 * x)
        assert min(head_sides(order, 35.0, bs)) > 0
        assert np.any((x >= 500.0) & (x < 612.0))
        assert_matches_oracle(order, 35.0, bs)

    @pytest.mark.parametrize("a", [0.0, 1.0, math.sqrt(60.0)])
    def test_just_above_the_series_floor(self, a):
        x = 1e-300 * np.array([1.0 + 2.0**-40, 1.5, 2.0, 10.0, 1e10, 1e300])
        bs = np.sqrt(2.0 * x)
        assert np.all(0.5 * bs * bs >= 1e-300)
        for order in (1, 2, 3, 4):
            assert_matches_oracle(order, a, bs)

    def test_long_downward_walks(self):
        # a^2/2 = 1800: near x = 1800 the downward walk from the head runs
        # some 400 steps before its terms fall to 1e-20, and at 300 entries
        # it runs them in several blocks
        bs = np.sqrt(2.0 * np.linspace(1500.0, 2100.0, 300))
        assert min(head_sides(2, 60.0, bs)) > 0
        assert_matches_oracle(2, 60.0, bs)


class TestPoissonMeanInverseShift:
    def test_zero_mean_is_the_inverse_shift(self):
        for shift in (1.0, 2.0, 3.0, 7.5):
            assert poisson_mean_inverse_shift(0.0, shift) == 1.0 / shift

    def test_matches_direct_sum(self):
        for mu in np.linspace(10.0, 1000.0, 34):
            n = np.arange(int(mu + 60.0 * math.sqrt(mu)) + 60)
            for shift in (1.0, 2.0, 3.0):
                expected = float(np.sum(stats.poisson.pmf(n, mu) / (shift + n)))
                assert poisson_mean_inverse_shift(float(mu), shift) == pytest.approx(
                    expected, rel=1e-11)

    @pytest.mark.parametrize("mu, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                           (-1.0, "-1.0")])
    def test_refusal_names_mu(self, mu, shown):
        with pytest.raises(ValidationError, match=f"mu must be finite and >= 0, got {shown}"):
            poisson_mean_inverse_shift(mu, 1.0)


class TestLowerIncompleteGamma:
    def test_empty_interval(self):
        assert lower_incomplete_gamma(2.0, 0.0) == 0.0

    def test_alpha_one_closed_form(self):
        assert lower_incomplete_gamma(1.0, 1.0) == pytest.approx(-math.expm1(-1.0), abs=1e-13)

    def test_frozen_quadrature_value(self):
        assert lower_incomplete_gamma(3.0, 2.5) == pytest.approx(LOWER_GAMMA_3_2P5, abs=1e-10)

    def test_regularized_range_and_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            alpha = float(rng.uniform(0.5, 10.0))
            xs = np.sort(rng.uniform(0.0, 50.0, size=4))
            reg = [lower_incomplete_gamma(alpha, float(x)) / math.gamma(alpha) for x in xs]
            assert all(0.0 <= r <= 1.0 for r in reg)
            assert all(b >= a - 1e-12 for a, b in zip(reg, reg[1:]))

    def test_saturates_at_gamma(self):
        for alpha in (0.5, 1.7, 6.0):
            assert lower_incomplete_gamma(alpha, 400.0) == pytest.approx(
                math.gamma(alpha), rel=1e-12)

    def test_recurrence(self):
        # integral identity: value(alpha+1, x) = alpha*value(alpha, x) - x^alpha exp(-x)
        rng = np.random.default_rng(37)
        for _ in range(200):
            alpha = float(rng.uniform(0.5, 8.0))
            x = float(rng.uniform(0.0, 30.0))
            lhs = lower_incomplete_gamma(alpha + 1.0, x)
            rhs = alpha * lower_incomplete_gamma(alpha, x) - x**alpha * math.exp(-x)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValidationError):
            lower_incomplete_gamma(2.0, -1.0)

    @pytest.mark.parametrize("args, match", [
        pytest.param((math.inf, 1.0), "alpha must be finite and > 0, got inf", id="alpha-inf"),
        pytest.param((2.0, math.inf), "x must be finite and >= 0, got inf", id="x-inf"),
        # x + 1 - alpha rounds to zero in the continued fraction
        pytest.param((2.0**53, 2.0**53), r"alpha must be below 2\*\*53, got 9007199254740992\.0",
                     id="alpha-2**53"),
        pytest.param((1e17, 1.0), r"alpha must be below 2\*\*53, got 1e\+17", id="alpha-1e17"),
    ])
    def test_refusal_names_the_argument(self, args, match):
        with pytest.raises(ValidationError, match=match):
            lower_incomplete_gamma(*args)

    @pytest.mark.parametrize("x", [1.0, 10.0, 30.0])
    def test_quadrature_where_gamma_overflows(self, x):
        # math.gamma(200) overflows, but the integral is finite (1.8e-3 at x = 1)
        ref, _ = integrate.quad(lambda t: math.exp(199.0 * math.log(t) - t) if t > 0.0 else 0.0,
                                0.0, x, epsabs=0.0, epsrel=1e-13)
        assert lower_incomplete_gamma(200.0, x) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("alpha, x", [(200.0, 150.0), (171.7, 1000.0)])
    def test_past_the_float_range_is_numerical_error(self, alpha, x):
        with pytest.raises(NumericalError, match="exceeds the float range"):
            lower_incomplete_gamma(alpha, x)


class TestTolerance:
    def test_defaults(self):
        # the series tail bound and iteration cap are fixed module constants
        assert specfun._ABS_TOL == 1e-12
        assert specfun._MAX_TERMS == 10000
