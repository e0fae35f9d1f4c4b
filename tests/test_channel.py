"""Link statistics and sampler tests: closed-form CDF values, Rayleigh
degeneration, moment checks and distributional agreement of the samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import ehrelay as er
from helpers import reference_params


class TestMeanGain:
    def test_zero_distance_limit(self):
        assert er.mean_gain(1e-12, 3.0) == pytest.approx(1.0, abs=1e-9)

    def test_reference_distances(self):
        assert er.mean_gain(80.0, 3.0) == pytest.approx(1.0 / 512001.0, rel=1e-12)
        assert er.mean_gain(10.0, 3.0) == pytest.approx(1.0 / 1001.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(er.ValidationError):
            er.mean_gain(0.0, 3.0)
        with pytest.raises(er.ValidationError):
            er.mean_gain(10.0, 1.5)


class TestThresholds:
    def test_rate_one(self):
        thr = er.thresholds(1.0)
        assert thr.gamma1 == 1.0
        assert thr.gamma2 == 3.0

    def test_consistency_invariant(self):
        for rate in (0.3, 1.0, 2.7):
            thr = er.thresholds(rate)
            assert thr.gamma2 == pytest.approx(thr.gamma1**2 + 2.0 * thr.gamma1, rel=1e-12)
        with pytest.raises(er.ValidationError):
            er.Thresholds(gamma1=1.0, gamma2=2.0)

    @pytest.mark.parametrize("rate", [1e-300, 1e-16, 2.4e-16])
    def test_rate_whose_thresholds_round_together_is_refused_by_name(self, rate):
        # 2^rate - 1 rounds to 0 (or to 2^(2 rate) - 1); Thresholds would
        # refuse that without naming the rate
        with pytest.raises(er.ValidationError, match=f"rate = {rate!r} is too small"):
            er.thresholds(rate)
        with pytest.raises(er.ValidationError, match=f"rate = {rate!r} is too small"):
            reference_params(rate=rate)
        assert 0.0 < er.thresholds(1e-15).gamma1 < er.thresholds(1e-15).gamma2


class TestDirectCdf:
    def test_origin(self):
        assert er.cdf_h_sd(0.0, 1.0) == 0.0

    def test_at_mean(self):
        assert er.cdf_h_sd(2.5, 2.5) == pytest.approx(-math.expm1(-1.0), abs=1e-14)

    def test_reference_point(self):
        # direct evaluation 1 - exp(-3.9/1.95312), cross-checked against the
        # empirical CDF of 1e7 exponential draws during development
        value = er.cdf_h_sd(3.9e-6, 1.95312e-6)
        assert value == pytest.approx(1.0 - math.exp(-3.9e-6 / 1.95312e-6), rel=1e-12)
        assert value == pytest.approx(0.864232, abs=1e-5)


class TestRicianVectorCdf:
    def test_origin(self):
        assert er.cdf_h_sr(0.0, reference_params(), 1e-3) == 0.0

    def test_rayleigh_degeneration(self):
        params = reference_params(rician_k=1e-12)
        omega = 1e-3
        for x in (1e-5, 1e-4, 1e-3, 5e-3):
            expected = -math.expm1(-x / omega)
            assert er.cdf_h_sr(x, params, omega) == pytest.approx(expected, abs=1e-9)

    def test_saturation(self):
        params = reference_params(n_antennas=3)
        omega = 1e-3
        assert er.cdf_h_sr(100.0 * 3 * omega, params, omega) > 1.0 - 1e-6

    def test_nondecreasing(self):
        params = reference_params(n_antennas=2)
        xs = np.linspace(0.0, 0.02, 50)
        vals = [er.cdf_h_sr(float(x), params, 1e-3) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_against_empirical_cdf(self):
        # 1e7 draws at the reference Rician setup; agreement within 3
        # binomial standard errors of the empirical CDF
        params = reference_params(n_antennas=2)
        links = er.LinkStats(omega_sd=1.0, omega_sr=9.99e-4, omega_rd=1.0)
        rng = np.random.default_rng(1234)
        _, h_sr, _ = er.sample_fade_blocks(params, links, rng, 10**7)
        x = 2e-3
        empirical = float(np.mean(h_sr < x))
        analytic = er.cdf_h_sr(x, params, links.omega_sr)
        se = math.sqrt(analytic * (1.0 - analytic) / 10**7)
        assert abs(empirical - analytic) < 3.0 * se


class TestRicianVectorCdfArrays:
    @settings(max_examples=150, deadline=None)
    @given(n_antennas=st.integers(1, 3),
           rician_k=st.one_of(st.just(0.0), st.floats(0.0, 200.0)),
           xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2e-2)), min_size=1, max_size=12))
    def test_array_equals_scalar_calls(self, n_antennas, rician_k, xs):
        params = reference_params(n_antennas=n_antennas, rician_k=rician_k)
        values = er.cdf_h_sr(np.array(xs), params, 1e-3)
        assert isinstance(values, np.ndarray) and values.shape == (len(xs),)
        assert np.array_equal(values, [er.cdf_h_sr(x, params, 1e-3) for x in xs])
        assert np.all(values[np.array(xs) == 0.0] == 0.0)

    def test_scalar_returns_float_and_shape_is_kept(self):
        params = reference_params(n_antennas=2)
        assert type(er.cdf_h_sr(1e-3, params, 1e-3)) is float
        grid = np.array([[0.0, 1e-3], [2e-3, 5e-3]])
        values = er.cdf_h_sr(grid, params, 1e-3)
        assert values.shape == (2, 2)
        assert np.array_equal(values.ravel(), er.cdf_h_sr(grid.ravel(), params, 1e-3))

    @pytest.mark.parametrize("bad, shown", [(-1e-3, "-0.001"), (math.nan, "nan")])
    def test_bad_entry_of_an_array_is_named(self, bad, shown):
        with pytest.raises(er.ValidationError, match=f"x must be >= 0, got {shown}"):
            er.cdf_h_sr(np.array([0.0, 1e-3, bad, 2e-3]), reference_params(), 1e-3)


class TestSamplers:
    def test_moments(self):
        params = reference_params(n_antennas=3, rician_k=0.0)
        links = er.link_stats(params)
        rng = np.random.default_rng(8)
        h_sd, h_sr, h_rd = er.sample_fade_blocks(params, links, rng, 10**6)
        assert h_sd.mean() == pytest.approx(links.omega_sd, rel=0.01)
        assert h_rd.mean() == pytest.approx(3 * links.omega_rd, rel=0.01)
        assert h_sr.mean() == pytest.approx(3 * links.omega_sr, rel=0.01)

    def test_kolmogorov_smirnov_all_links(self):
        params = reference_params(n_antennas=2)
        links = er.link_stats(params)
        rng = np.random.default_rng(99)
        n = 10**6
        h_sd, h_sr, h_rd = er.sample_fade_blocks(params, links, rng, n)
        critical = 1.63 / math.sqrt(n)  # 1% significance
        ks_sd = stats.kstest(h_sd, lambda x: 1.0 - np.exp(-x / links.omega_sd)).statistic
        assert ks_sd < critical
        ks_rd = stats.kstest(h_rd, stats.gamma(a=2, scale=links.omega_rd).cdf).statistic
        assert ks_rd < critical
        # self-consistency of the Rician sampler against its own CDF,
        # evaluated on a subsample grid to keep the Marcum call count sane
        xs = np.sort(h_sr)[::500]
        ecdf = np.arange(0, n, 500) / n
        gap = max(abs(er.cdf_h_sr(float(x), params, links.omega_sr) - e)
                  for x, e in zip(xs, ecdf))
        assert gap < 0.002

    def test_determinism(self):
        params = reference_params(n_antennas=2)
        links = er.link_stats(params)
        a = er.sample_fade_blocks(params, links, np.random.default_rng(5), 1000)
        b = er.sample_fade_blocks(params, links, np.random.default_rng(5), 1000)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_single_sample_nonnegative(self):
        params = reference_params()
        links = er.link_stats(params)
        fades = er.sample_fade_blocks(params, links, np.random.default_rng(0), 1)
        assert [f.shape for f in fades] == [(1,), (1,), (1,)]
        assert all(f[0] >= 0.0 for f in fades)


class TestParamValidation:
    def test_rejects_bad_eta(self):
        with pytest.raises(er.ValidationError, match="eta"):
            reference_params(eta=-0.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(er.ValidationError, match="alpha"):
            reference_params(alpha=7.0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(er.ValidationError, match="d_rd"):
            reference_params(d_rd=0.0)

    def test_rate_bounded_by_float_range_of_gamma2(self):
        assert er.thresholds(reference_params(rate=511.9).rate).gamma2 < math.inf
        for rate in (512.0, 1000.0):
            with pytest.raises(er.ValidationError, match="rate must be in"):
                reference_params(rate=rate)
            with pytest.raises(er.ValidationError, match="rate must be in"):
                er.thresholds(rate)

    @pytest.mark.parametrize("field, refused, accepted, alpha", [
        ("d_sd", 1e300, 1e102, 3.0), ("d_sr", 1e70, 1e61, 5.0), ("d_rd", 1e103, 1e102, 3.0)])
    def test_rejects_overflowing_path_loss_by_name(self, field, refused, accepted, alpha):
        with pytest.raises(er.ValidationError, match=f"{field} = .* outside the float range"):
            reference_params(alpha=alpha, **{field: refused})
        with pytest.raises(er.ValidationError, match="distance = .* outside the float range"):
            er.mean_gain(refused, alpha)
        params = reference_params(alpha=alpha, **{field: accepted})
        assert getattr(er.link_stats(params), "omega" + field[1:]) > 0.0

    def test_rician_k_bounded_by_antenna_count(self):
        assert reference_params(n_antennas=4, rician_k=2.5e5).rician_k == 2.5e5
        with pytest.raises(er.ValidationError, match=r"rician_k=.*N\*K <= 1e\+06"):
            reference_params(n_antennas=4, rician_k=2.6e5)

    @pytest.mark.parametrize("field", ["p_s", "n0", "rate", "rician_k", "d_sd", "d_sr", "d_rd"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_nonfinite_by_name(self, field, value):
        with pytest.raises(er.ValidationError, match=field):
            reference_params(**{field: value})
