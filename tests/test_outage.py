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
    @pytest.mark.parametrize("build, match", [
        pytest.param(lambda: er.MeanSnrs(0.0, 1.0), "gbar_sd must be > 0", id="MeanSnrs-gbar_sd"),
        pytest.param(lambda: er.MeanSnrs(1.0, -1.0), "gbar_rd must be > 0", id="MeanSnrs-gbar_rd"),
        pytest.param(lambda: er.mode4_joint_cdf(er.thresholds(1.0), er.MeanSnrs(2.0, 5.0), 0),
                     "n_antennas must be >= 1, got 0", id="mode4_joint_cdf-n_antennas"),
        pytest.param(lambda: er.mode4_joint_cdf(er.thresholds(1.0), er.MeanSnrs(2.0, 5.0), 2.5),
                     r"n_antennas must be >= 1, got 2\.5 \(integers only\)",
                     id="mode4_joint_cdf-n_antennas-float"),
    ])
    def test_refusal_names_the_field(self, build, match):
        with pytest.raises(er.ValidationError, match=match):
            build()

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
        (er.thresholds(1.0), er.MeanSnrs(195.3, math.inf), 1),       # overflowed relay SNR
        (er.thresholds(1.0), er.MeanSnrs(195.3, math.inf), 3),
        (er.thresholds(1.0), er.MeanSnrs(math.inf, 5.83), 2),        # overflowed direct SNR
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
        # at the line that called the search, through either entry. The
        # failure goes to the first level the search solves (level 5,
        # candidate 5, alone in its stack): a level pruned unsolved cannot fail
        params = reference_params(p_s_dbm=24.0)
        solve, first = er.ChainFamily.steady_states, []

        def failing_first_level(family, k_thrs):
            laws = solve(family, k_thrs)
            if not first:
                first.append(k_thrs[0])
                laws[k_thrs[0]] = er.NumericalError("synthetic zero pivot")
            return laws
        monkeypatch.setattr(er.ChainFamily, "steady_states", failing_first_level)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            er.evaluate_point(params, reference_battery(), optimize=True)
            # the batch entry, over two points that fail alike, in turn
            first.clear()
            for _ in er.evaluate_points([(params, reference_battery())] * 2, optimize=True):
                first.clear()
        assert [str(w.message) for w in caught] == [
            "threshold level 5 skipped: synthetic zero pivot"] * 3
        assert [w.filename for w in caught] == [__file__] * 3

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

    def test_matches_plain_candidate_loop(self):
        # the stacked search against one chain per candidate, each through
        # the public pipeline, bit for bit; at L=20 the low powers cut the
        # chains down to small reachable sets (18 dBm, N=1: the frozen
        # empty state), and at 18.3-18.5 dBm, N=1 the outages of the levels
        # lie within about 1e-16 of one another, where the margin prunes
        # near-ties.
        # TestPrunedSearch covers L=200.
        points = [(p_dbm, n_antennas) for p_dbm in (15.0, 18.0, 21.0, 24.0, 27.0, 30.0)
                  for n_antennas in (1, 2, 3)] + [(18.3, 1), (18.4, 1), (18.5, 1)]
        for p_dbm, n_antennas in points:
            params = reference_params(p_s_dbm=p_dbm, n_antennas=n_antennas)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                level, outage = search_threshold(params, 20)
            assert ((level, outage, [str(w.message) for w in caught])
                    == plain_search(params, 20))

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


def outage_bound(family, climb, params, cfg):
    """(LB, m): the lower bound on the outage of cfg's threshold level that
    the threshold search prunes with, and its margin, from the public
    surface: the drift bound u on p_e, tightened above L/2 by the renewal
    bound 1 / (1 + fd T[2j - L]) with T = climb, family.climb_times(), the
    closed-form outage c of a charged relay, and
    m = min(1e-12 fd, 16 fd min(2**-52, u) + 1e-12 u max(fd - c, 0))."""
    links, thr = er.link_stats(params), er.thresholds(params.rate)
    fd, frd = family.fail_direct, family.fail_relay_decode
    m4 = er.mode4_joint_cdf(thr, er.mean_snrs(params, links, cfg), params.n_antennas)
    c = (1.0 - frd) * m4 + fd * frd
    gain_full, gain_half = family.mean_charge()
    j, ell = cfg.eps_t_level, family.levels
    drain = fd * j + gain_full - gain_half
    u = min(1.0, gain_full / drain) if drain > 0.0 else 1.0
    if 2 * j > ell and fd > 0.0:
        u = min(u, 1.0 / (1.0 + fd * climb[2 * j - ell]))
    spread = max(fd - c, 0.0)
    return fd - u * spread, min(1e-12 * fd, 16.0 * fd * min(2.0**-52, u) + 1e-12 * u * spread)


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

    # L=1 over 0.25 mJ: at 5 mJ one level is out of a block's reach at 24 dBm
    @pytest.mark.parametrize("levels, capacity", [(1, 2.5e-4), (20, 5e-3), (200, 5e-3)])
    def test_climb_times_are_hitting_times(self, levels, capacity):
        # T[d] is the expected time for the empty battery under full harvest
        # to reach level d or above: h[0] of (I - Q_d) h = 1, with Q_d the
        # full-harvest rows (rows [0, L) of matrix(L)) over the states below d
        params = reference_params(p_s_dbm=24.0, n_antennas=2)
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        family = er.ChainFamily(params, links, thr, capacity, levels)
        climb = family.climb_times()
        z = family.matrix(levels).z
        hits = [np.linalg.solve(np.eye(d) - z[:d, :d], np.ones(d))[0]
                for d in range(1, levels + 1)]
        assert climb[0] == 0.0
        np.testing.assert_allclose(climb[1:], hits, rtol=1e-12, atol=0.0)

    def test_frozen_family_never_climbs(self):
        # L=20 at 18 dBm: every full harvest rounds to zero levels
        params = reference_params(p_s_dbm=18.0)
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        family = er.ChainFamily(params, links, thr, 5e-3, 20)
        assert family.matrix(20).z[0, 0] == 1.0
        climb = family.climb_times()
        assert climb[0] == 0.0
        assert np.all(climb[1:] == math.inf)

    @settings(max_examples=25, deadline=None)
    @given(levels=st.one_of(st.integers(1, 200), st.just(200)), n_antennas=st.integers(1, 3),
           p_s_dbm=st.floats(0.0, 40.0), rician_k=st.floats(0.0, 50.0),
           d_sd=st.floats(20.0, 150.0), d_sr=st.floats(1.0, 60.0), d_rd=st.floats(10.0, 150.0))
    def test_bound_below_every_candidate(self, levels, n_antennas, p_s_dbm, rician_k,
                                         d_sd, d_sr, d_rd):
        # LB <= p_out within the search's margin m, a few ulp of fd that
        # vanish with u, so a dropped level can neither win nor take a tie,
        # and the pruned search finds the minimum over every candidate
        params = reference_params(p_s_dbm=p_s_dbm, n_antennas=n_antennas, rician_k=rician_k,
                                  d_sd=d_sd, d_sr=d_sr, d_rd=d_rd)
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        family = er.ChainFamily(params, links, thr, 5e-3, levels)
        climb = family.climb_times()
        laws = family.steady_states(range(1, levels + 1))
        outages = []
        for k in range(1, levels + 1):
            cfg = reference_battery(levels, min(k * 5e-3 / levels, 5e-3))
            law = laws[cfg.eps_t_level]
            if isinstance(law, er.NumericalError):
                outages.append(math.inf)
                continue
            outages.append(er.outage_probability(params, links, thr, cfg, law).p_out)
            bound, margin = outage_bound(family, climb, params, cfg)
            assert bound <= outages[-1] + margin
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
        # of the 186 distinct levels at L=200, an exhaustive search solves
        # all; the pruned one solves 1 at 18 dBm N=1 and 30 dBm N=3 and 3 at
        # 24 dBm N=2 (96-97 with the drift bound alone), and 1 of the 18 at
        # L=20, 24 dBm N=2 (all 18 when the first stack held every level).
        # At L=20, N=1, 18-18.5 dBm and N=2, 15 dBm every level's outage lies
        # within about 1e-16 of fd, or equals it where every harvest rounds
        # to 0, so only a margin that shrinks with u prunes there
        solve, solved = er.ChainFamily.steady_states, []

        def counting(family, k_thrs):
            solved.extend(k_thrs)
            return solve(family, k_thrs)
        monkeypatch.setattr(er.ChainFamily, "steady_states", counting)
        for levels, p_dbm, n_antennas, most in ((200, 18.0, 1, 20), (200, 24.0, 2, 6),
                                                (200, 30.0, 3, 6), (20, 24.0, 2, 3),
                                                (20, 18.0, 1, 1), (20, 18.5, 1, 2),
                                                (20, 15.0, 2, 1)):
            solved.clear()
            params = reference_params(p_s_dbm=p_dbm, n_antennas=n_antennas)
            level, _ = search_threshold(params, levels)
            assert len(solved) == len(set(solved)) <= most
            cfg = reference_battery(levels, level * 5e-3 / levels)
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

    def test_climb_times_only_in_the_search(self, monkeypatch):
        # the renewal sequence costs O(L^2): a plain point never builds it,
        # an optimized point builds it once
        climb, calls = er.ChainFamily.climb_times, []

        def counting(family):
            calls.append(family.levels)
            return climb(family)
        monkeypatch.setattr(er.ChainFamily, "climb_times", counting)
        params = reference_params(p_s_dbm=24.0, n_antennas=2)
        er.evaluate_point(params, reference_battery(200))
        assert calls == []
        er.evaluate_point(params, reference_battery(200), optimize=True)
        assert calls == [200]
