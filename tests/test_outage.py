"""Outage engine tests: the joint-CDF closed form against quadrature,
composition limits with synthetic steady states, and the threshold
search contracts."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

import ehrelay as er
from helpers import reference_battery, reference_params, solve_outage

# dblquad of the joint exponential x Erlang density over the corner
# {u < gamma1, u + v < gamma2}, computed before the closed form was coded
MODE4_N2_FROZEN = 0.03668082382405771  # gamma1=1, gamma2=3, gbar_sd=2, gbar_rd=5


def mode4_quadrature(g1, g2, gsd, grd, n):
    def joint(v, u):
        return (math.exp(-u / gsd) / gsd) * v**(n - 1) * math.exp(-v / grd) / (
            math.gamma(n) * grd**n)
    val, _ = integrate.dblquad(joint, 0.0, g1, 0.0, lambda u: g2 - u,
                               epsabs=1e-11, epsrel=1e-11)
    return val


class TestMode4JointCdf:
    def test_frozen_quadrature_value(self):
        thr = er.Thresholds(gamma1=1.0, gamma2=3.0)
        snrs = er.MeanSnrs(gbar_sd=2.0, gbar_rd=5.0)
        assert er.mode4_joint_cdf(thr, snrs, 2) == pytest.approx(MODE4_N2_FROZEN, abs=1e-6)

    def test_vanishing_gamma1(self):
        thr = er.Thresholds(gamma1=1e-12, gamma2=1e-12**2 + 2e-12)
        assert er.mode4_joint_cdf(thr, er.MeanSnrs(2.0, 5.0), 3) == pytest.approx(0.0, abs=1e-11)

    def test_infinite_relay_power_limit(self):
        thr = er.thresholds(1.0)
        assert er.mode4_joint_cdf(thr, er.MeanSnrs(5.0, 1e14), 2) == pytest.approx(0.0, abs=1e-9)

    def test_vanishing_relay_power_limit(self):
        # no relay contribution: the event reduces to the direct failure alone
        thr = er.thresholds(1.0)
        gsd = 7.0
        value = er.mode4_joint_cdf(thr, er.MeanSnrs(gsd, 1e-14), 2)
        assert value == pytest.approx(-math.expm1(-thr.gamma1 / gsd), rel=1e-12)

    def test_singular_point_continuity(self):
        thr = er.thresholds(1.0)
        for gsd in (0.7, 13.0, 321.0):
            limit = er.mode4_joint_cdf(thr, er.MeanSnrs(gsd, gsd), 3)
            for eps in (1e-7, -1e-7):
                near = er.mode4_joint_cdf(thr, er.MeanSnrs(gsd, gsd * (1.0 + eps)), 3)
                assert abs(near - limit) < 1e-6

    def test_bounded_by_both_marginals(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rate = float(rng.uniform(0.3, 2.5))
            thr = er.thresholds(rate)
            gsd = float(np.exp(rng.uniform(np.log(0.1), np.log(1000.0))))
            grd = float(np.exp(rng.uniform(np.log(0.1), np.log(1000.0))))
            n = int(rng.integers(1, 5))
            value = er.mode4_joint_cdf(thr, er.MeanSnrs(gsd, grd), n)
            p_direct = -math.expm1(-thr.gamma1 / gsd)
            p_sum, _ = integrate.quad(
                lambda u: math.exp(-u / gsd) / gsd
                * stats.gamma.cdf(thr.gamma2 - u, a=n, scale=grd),
                0.0, thr.gamma2, epsabs=1e-12)
            assert value <= min(p_direct, p_sum) + 1e-9
            assert value == pytest.approx(mode4_quadrature(thr.gamma1, thr.gamma2,
                                                           gsd, grd, n), abs=1e-8)


class TestEnergySufficiency:
    def test_uniform_mass(self):
        cfg = er.BatteryConfig(capacity=1.0, levels=4, e_t=0.25)
        assert cfg.eps_t_level == 1
        pi = er.SteadyState(np.full(5, 0.2))
        assert er.energy_sufficiency(pi, cfg) == pytest.approx(0.8, abs=1e-15)

    def test_no_mass_at_threshold(self):
        cfg = er.BatteryConfig(capacity=1.0, levels=4, e_t=1.0)
        assert cfg.eps_t_level == 4
        pi = er.SteadyState(np.array([0.4, 0.3, 0.2, 0.1, 0.0]))
        assert er.energy_sufficiency(pi, cfg) == 0.0


class TestOutageComposition:
    def test_relay_never_ready_reduces_to_direct_failure(self):
        params = reference_params(p_s_dbm=25.0)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        cfg = reference_battery()
        pi = er.SteadyState(np.array([0.5, 0.3, 0.2] + [0.0] * 18))
        breakdown = er.outage_probability(params, links, thr, cfg, pi)
        f_direct = er.cdf_h_sd(thr.gamma1 * params.n0 / params.p_s, links.omega_sd)
        assert breakdown.p_e == 0.0
        assert breakdown.p_out == pytest.approx(f_direct, rel=1e-14)

    def test_perfect_relay_rescues_everything(self):
        # all steady-state mass ready, enormous relay energy, strong decode link
        params = reference_params(p_s_dbm=25.0, d_sr=1.0, d_rd=1.0)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        cfg = er.BatteryConfig(capacity=5e3, levels=20, e_t=5e3 / 20)
        pi = er.SteadyState(np.array([0.0] * 20 + [1.0]))
        breakdown = er.outage_probability(params, links, thr, cfg, pi)
        assert breakdown.p_e == 1.0
        assert breakdown.p_mode3_joint == 0.0
        assert breakdown.p_out < 1e-12

    def test_breakdown_sums_and_bound(self):
        breakdown = solve_outage(reference_params(p_s_dbm=25.0, n_antennas=2),
                                 reference_battery())
        assert breakdown.p_out == breakdown.p_mode3_joint + breakdown.p_mode4_joint
        params = reference_params(p_s_dbm=25.0, n_antennas=2)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        assert breakdown.p_out <= er.direct_baseline(params, links, thr)


class TestDirectBaseline:
    def test_infinite_power(self):
        params = reference_params(p_s=1e9)
        links = er.link_stats(params)
        assert er.direct_baseline(params, links, er.thresholds(1.0)) < 1e-12

    def test_at_mean_gain(self):
        links = er.link_stats(reference_params())
        # choose p_s so the threshold gain equals the mean gain
        p_s = 1.0 * 1e-9 / links.omega_sd
        params = reference_params(p_s=p_s)
        value = er.direct_baseline(params, links, er.thresholds(1.0))
        assert value == pytest.approx(-math.expm1(-1.0), rel=1e-12)

    def test_reference_point_against_sampling(self):
        params = reference_params(p_s_dbm=20.0)
        links = er.link_stats(params)
        thr = er.thresholds(1.0)
        analytic = er.direct_baseline(params, links, thr)
        rng = np.random.default_rng(2)
        h_sd, _, _ = er.sample_fade_blocks(params, links, rng, 10**6)
        empirical = float(np.mean(h_sd < thr.gamma1 * params.n0 / params.p_s))
        se = math.sqrt(analytic * (1 - analytic) / 10**6)
        assert abs(empirical - analytic) < 3.0 * se


class TestOptimizeThreshold:
    def test_single_level(self):
        params = reference_params(p_s_dbm=25.0)
        links = er.link_stats(params)
        thr = er.thresholds(1.0)
        level, outage = er.optimize_threshold(params, links, thr, 5e-3, 1)
        assert level == 1
        assert 0.0 <= outage <= 1.0

    def test_degenerate_relay_ties(self):
        # a uselessly far relay: every candidate sits at the direct-failure
        # bound and the returned index is the first float minimum
        params = reference_params(p_s_dbm=20.0, d_rd=1e4)
        links = er.link_stats(params)
        thr = er.thresholds(1.0)
        level, outage = er.optimize_threshold(params, links, thr, 5e-3, 10)
        baseline = er.direct_baseline(params, links, thr)
        assert outage == pytest.approx(baseline, rel=1e-9)
        candidates = [solve_outage(params, reference_battery(10, k * 5e-4)).p_out
                      for k in range(1, 11)]
        assert level == int(np.argmin(candidates)) + 1

    def test_matches_manual_scan(self):
        params = reference_params(p_s_dbm=26.0, n_antennas=2)
        links = er.link_stats(params)
        thr = er.thresholds(1.0)
        level, outage = er.optimize_threshold(params, links, thr, 5e-3, 20)
        manual = [solve_outage(params, reference_battery(20, k * 2.5e-4)).p_out
                  for k in range(1, 21)]
        assert level == int(np.argmin(manual)) + 1
        assert outage == pytest.approx(min(manual), rel=1e-12)

    @pytest.mark.parametrize("levels", [20, 200])
    @pytest.mark.parametrize("n_antennas", [1, 3])
    def test_best_outage_is_outage_probability_bit_for_bit(self, levels, n_antennas):
        # the search evaluates the two link CDFs once per chain family;
        # its best outage must be the public closed form's, not just close
        params = reference_params(p_s_dbm=24.0, n_antennas=n_antennas)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        level, outage = er.optimize_threshold(params, links, thr, 5e-3, levels)
        # the battery the CLI evaluates at the chosen level
        cfg = reference_battery(levels, level * 5e-3 / levels)
        assert outage == solve_outage(params, cfg).p_out

    @pytest.mark.parametrize("levels, points", [
        (20, [(p, n) for p in (15.0, 18.0, 21.0, 24.0, 27.0, 30.0) for n in (1, 2, 3)]),
        (200, [(18.0, 1), (30.0, 3)]),
    ])
    def test_matches_plain_candidate_loop(self, levels, points):
        # the stacked search against one chain per candidate, each through
        # the public pipeline; at L=20 the low powers cut the chains down
        # to small reachable sets (18 dBm, N=1: the frozen empty state)
        for p_dbm, n_antennas in points:
            params = reference_params(p_s_dbm=p_dbm, n_antennas=n_antennas)
            links, thr = er.link_stats(params), er.thresholds(params.rate)
            outages, skipped = [], []
            for k in range(1, levels + 1):
                cfg = reference_battery(levels, k * 5e-3 / levels)
                try:
                    outages.append(solve_outage(params, cfg).p_out)
                except er.NumericalError as exc:
                    outages.append(math.inf)
                    skipped.append(f"threshold level {k} skipped: {exc}")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                level, outage = er.optimize_threshold(params, links, thr, 5e-3, levels)
            assert level == int(np.argmin(outages)) + 1
            assert outage == pytest.approx(min(outages), rel=1e-12, abs=0.0)
            assert [str(w.message) for w in caught] == skipped

    def test_peak_traced_memory_at_200_levels(self):
        # the stacked solves hold _GTH_STACK_BYTES (2 MiB) of chains and a
        # quarter of that of block-end product: 3.1 MiB measured, against
        # 1.2 MiB for one chain at a time. A bigger stack would push the
        # process past the benchmark's resident-memory bound.
        params = reference_params(p_s_dbm=24.0, n_antennas=2)
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        er.optimize_threshold(params, links, thr, 5e-3, 20)
        tracemalloc.start()
        try:
            er.optimize_threshold(params, links, thr, 5e-3, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
