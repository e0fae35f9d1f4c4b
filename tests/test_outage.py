"""Outage engine tests: the joint-CDF closed form against quadrature,
composition limits with synthetic steady states, and the threshold
search contracts."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

import ehrelay as er
from helpers import reference_battery, reference_params, search_threshold, solve_outage

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


    @pytest.mark.parametrize("thr, snrs, n", [
        (er.thresholds(300.0), er.MeanSnrs(195.3, 5.83), 1),          # m**5 overflows
        (er.thresholds(300.0), er.MeanSnrs(195.3, 5.83), 3),
        (er.thresholds(1.0), er.MeanSnrs(195.3, 5.83e-298), 1),       # vanishing relay energy
        (er.thresholds(1.0), er.MeanSnrs(195.3, 5.83e-298), 3),
        (er.Thresholds(1e-170, 1e-170**2 + 2e-170), er.MeanSnrs(1.0, 1e-200), 3),  # grd**2 == 0
    ])
    def test_float_range_failures_are_numerical_errors(self, thr, snrs, n):
        with pytest.raises(er.NumericalError, match="mode-4 closed form leaves the float range"):
            er.mode4_joint_cdf(thr, snrs, n)

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
        level, outage = search_threshold(params, 1)
        assert level == 1
        assert 0.0 <= outage <= 1.0

    def test_degenerate_relay_ties(self):
        # a uselessly far relay: every candidate sits at the direct-failure
        # bound and the returned index is the first float minimum
        params = reference_params(p_s_dbm=20.0, d_rd=1e4)
        links = er.link_stats(params)
        thr = er.thresholds(1.0)
        level, outage = search_threshold(params, 10)
        baseline = er.direct_baseline(params, links, thr)
        assert outage == pytest.approx(baseline, rel=1e-9)
        candidates = [solve_outage(params, reference_battery(10, k * 5e-4)).p_out
                      for k in range(1, 11)]
        assert level == int(np.argmin(candidates)) + 1

    def test_matches_manual_scan(self):
        params = reference_params(p_s_dbm=26.0, n_antennas=2)
        level, outage = search_threshold(params, 20)
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
        point = er.evaluate_point(params, reference_battery(levels), optimize=True)
        level, outage = point.optimal_level, point.breakdown.p_out
        # the battery the CLI evaluates at the chosen level
        cfg = reference_battery(levels, level * 5e-3 / levels)
        assert outage == solve_outage(params, cfg).p_out
        assert point.battery == cfg
        # the law the search solved in its stack, not a second solve
        assert np.array_equal(point.pi.pi, er.reachable_steady_state(point.tm).pi)

    def test_top_candidate_rounding_above_capacity(self):
        # 57 * (5e-3 / 57) rounds to 0.005000000000000001 > capacity; the
        # candidate is capped at capacity instead of refused
        params = reference_params(p_s_dbm=20.0)
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        level, outage = search_threshold(params, 57)
        assert 1 <= level <= 57
        assert 0.0 < outage < er.direct_baseline(params, links, thr)

    def test_skipped_candidate_warning_names_the_caller(self, monkeypatch):
        # a level that fails numerically is skipped, and the warning points
        # at the line that called the search
        params = reference_params(p_s_dbm=24.0)
        solve = er.ChainFamily.steady_states

        def failing_level_one(family, k_thrs):
            laws = solve(family, k_thrs)
            laws[1] = er.NumericalError("synthetic zero pivot")
            return laws
        monkeypatch.setattr(er.ChainFamily, "steady_states", failing_level_one)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            er.evaluate_point(params, reference_battery(), optimize=True)
        assert [str(w.message) for w in caught] == [
            "threshold level 1 skipped: synthetic zero pivot"]
        assert caught[0].filename == __file__

    def test_every_level_failing_raises_one_error_and_warns_nothing(self, monkeypatch):
        params = reference_params(p_s_dbm=24.0)
        solve = er.ChainFamily.steady_states

        def failing(family, k_thrs):
            return {k: er.NumericalError(f"synthetic failure at {k}")
                    for k in solve(family, k_thrs)}
        monkeypatch.setattr(er.ChainFamily, "steady_states", failing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(er.NumericalError) as raised:
                er.evaluate_point(params, reference_battery(), optimize=True)
        assert str(raised.value) == ("every threshold candidate failed numerically, "
                                     "the first at threshold level 1: synthetic failure at 1")
        assert caught == []

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
                level, outage = search_threshold(params, levels)
            assert level == int(np.argmin(outages)) + 1
            assert outage == pytest.approx(min(outages), rel=1e-12, abs=0.0)
            assert [str(w.message) for w in caught] == skipped

    def test_peak_traced_memory_at_200_levels(self):
        # the stacked solves hold _GTH_STACK_BYTES (2 MiB) of chains and a
        # quarter of that of block-end product: 3.1 MiB measured, against
        # 1.2 MiB for one chain at a time. A bigger stack would push the
        # process past the benchmark's resident-memory bound.
        params = reference_params(p_s_dbm=24.0, n_antennas=2)
        search_threshold(params, 20)
        tracemalloc.start()
        try:
            search_threshold(params, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def outage_bound(family, params, cfg):
    """The lower bound LB on the outage of cfg's threshold level that
    the threshold search prunes with, from the public surface: the drift
    bound u on p_e and the closed-form outage c of a charged relay."""
    links, thr = er.link_stats(params), er.thresholds(params.rate)
    fd, frd = family.fail_direct, family.fail_relay_decode
    m4 = er.mode4_joint_cdf(thr, er.mean_snrs(params, links, cfg), params.n_antennas)
    c = (1.0 - frd) * m4 + fd * frd
    gain_full, gain_half = family.mean_charge()
    drain = fd * cfg.eps_t_level + gain_full - gain_half
    u = min(1.0, gain_full / drain) if drain > 0.0 else 1.0
    return fd - u * max(fd - c, 0.0)


def plain_search(params, levels):
    """The threshold search as one public pipeline per candidate: (level,
    outage, skip warnings), the first minimum winning."""
    outages, skipped = [], []
    for k in range(1, levels + 1):
        cfg = reference_battery(levels, min(k * 5e-3 / levels, 5e-3))
        try:
            outages.append(solve_outage(params, cfg).p_out)
        except er.NumericalError as exc:
            outages.append(math.inf)
            skipped.append(f"threshold level {k} skipped: {exc}")
    return int(np.argmin(outages)) + 1, min(outages), skipped


class TestPrunedSearch:
    # the search drops a level once LB exceeds the best outage by this many
    # direct-link failure probabilities
    MARGIN = 1e-12

    def test_mean_charge_is_the_clipped_harvest_mean(self):
        # E[min(G, L)] = sum_{g=1..L} Pr{G >= g}, with Pr{G >= g} = 1 - F(g)
        params = reference_params(p_s_dbm=24.0, n_antennas=2)
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        for levels in (1, 20, 200):
            family = er.ChainFamily(params, links, thr, 5e-3, levels)
            gain_full, gain_half = family.mean_charge()
            assert gain_full == pytest.approx(np.sum(1.0 - family.f_full[1:]), rel=1e-12)
            assert gain_half == pytest.approx((1.0 - family.fail_direct)
                                              * np.sum(1.0 - family.f_half[1:]), rel=1e-12)
            # row 0 of any chain is the full-harvest row
            z0 = family.matrix(levels).z[0]
            assert gain_full == pytest.approx(np.arange(levels + 1) @ z0, rel=1e-12)

    def test_stack_size_holds_the_stack_bytes(self):
        params = reference_params()
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        sizes = [er.ChainFamily(params, links, thr, 5e-3, levels).stack_size
                 for levels in (20, 200, 4096)]
        assert sizes == [2 * 2**20 // (8 * 21**2), 6, 1]

    @settings(max_examples=25, deadline=None)
    @given(levels=st.one_of(st.integers(1, 200), st.just(200)), n_antennas=st.integers(1, 3),
           p_s_dbm=st.floats(0.0, 40.0), rician_k=st.floats(0.0, 50.0),
           d_sd=st.floats(20.0, 150.0), d_sr=st.floats(1.0, 60.0), d_rd=st.floats(10.0, 150.0))
    def test_bound_below_every_candidate(self, levels, n_antennas, p_s_dbm, rician_k,
                                         d_sd, d_sr, d_rd):
        # LB <= p_out within the search's margin (measured: at most 2.2e-16
        # fd above it, from rounding), so a dropped level can neither win nor
        # tie, and the pruned search finds the minimum over every candidate
        params = reference_params(p_s_dbm=p_s_dbm, n_antennas=n_antennas, rician_k=rician_k,
                                  d_sd=d_sd, d_sr=d_sr, d_rd=d_rd)
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        family = er.ChainFamily(params, links, thr, 5e-3, levels)
        laws = family.steady_states(range(1, levels + 1))
        outages = []
        for k in range(1, levels + 1):
            cfg = reference_battery(levels, min(k * 5e-3 / levels, 5e-3))
            law = laws[cfg.eps_t_level]
            if isinstance(law, er.NumericalError):
                outages.append(math.inf)
                continue
            outages.append(er.outage_probability(params, links, thr, cfg, law).p_out)
            assert outage_bound(family, params, cfg) <= (outages[-1]
                                                         + self.MARGIN * family.fail_direct)
        if min(outages) < math.inf:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                found = search_threshold(params, levels)
            assert found == (int(np.argmin(outages)) + 1, min(outages))

    @pytest.mark.parametrize("offset", [0.0, 0.5])
    @pytest.mark.parametrize("p_dbm, n_antennas", [(18.0, 1), (24.0, 2), (30.0, 3)])
    def test_matches_plain_candidate_loop_at_200_levels(self, p_dbm, n_antennas, offset):
        # the optimized L=200 sweep points of the benchmark, bit for bit
        params = reference_params(p_s_dbm=p_dbm + offset, n_antennas=n_antennas)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            level, outage = search_threshold(params, 200)
        assert (level, outage, [str(w.message) for w in caught]) == plain_search(params, 200)

    def test_prunes_most_levels_at_low_power(self, monkeypatch):
        # N=1 at 18 dBm: 6 of the 186 distinct levels are solved, against
        # all 186 by an exhaustive search
        params = reference_params(p_s_dbm=18.0)
        solve, solved = er.ChainFamily.steady_states, []

        def counting(family, k_thrs):
            solved.extend(k_thrs)
            return solve(family, k_thrs)
        monkeypatch.setattr(er.ChainFamily, "steady_states", counting)
        level, _ = search_threshold(params, 200)
        assert len(solved) == len(set(solved)) <= 20
        cfg = reference_battery(200, level * 5e-3 / 200)
        assert cfg.eps_t_level in solved


class TestEvaluatePoint:
    @pytest.mark.parametrize("levels", [20, 200])
    def test_matches_step_by_step_pipeline_bit_for_bit(self, levels):
        for p_dbm in (15.0, 20.0, 25.0, 30.0):
            for n_antennas in (1, 2, 3):
                params = reference_params(p_s_dbm=p_dbm, n_antennas=n_antennas)
                cfg = reference_battery(levels)
                links, thr = er.link_stats(params), er.thresholds(params.rate)
                tm = er.build_transition_matrix(params, links, thr, cfg)
                pi = er.reachable_steady_state(tm)
                point = er.evaluate_point(params, cfg)
                assert (point.links, point.thr, point.battery) == (links, thr, cfg)
                assert np.array_equal(point.tm.z, tm.z)
                assert np.array_equal(point.pi.pi, pi.pi)
                assert point.breakdown == solve_outage(params, cfg)
                assert point.optimal_level is None
