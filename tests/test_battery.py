"""Battery chain tests: harvest discretization, the transition matrix
against an independent case-by-case transcription and a per-row
construction, and both stationary solvers against hand results, a
power-iteration oracle, a linear solve and textbook GTH."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import ehrelay as er
from helpers import (lone_chain, reference_battery, reference_params, window_occupancy,
                     zero_pivot_chain)


def rician_vector_cdf_scipy(x, params, omega_sr):
    """Independent CDF of the N-antenna Rician power gain (noncentral
    chi-square route through scipy, no package code)."""
    if x <= 0.0:
        return 0.0
    n, k = params.n_antennas, params.rician_k
    return float(stats.ncx2.cdf(2.0 * (k + 1.0) * x / omega_sr, 2 * n, 2.0 * n * k))


def eight_case_matrix(params, links, thr, cfg):
    """Direct transcription of the eight transition cases, written as a
    second path: explicit per-entry formulas, no gap tables, scipy CDFs.
    The discharge lands where the level drop equals the discretized
    consumption level."""
    ell, k_thr = cfg.levels, cfg.eps_t_level
    scale = cfg.capacity / (params.eta * params.p_s * ell)
    f_sr = lambda x: rician_vector_cdf_scipy(x, params, links.omega_sr)
    f_sd = 1.0 - math.exp(-(thr.gamma1 * params.n0 / params.p_s) / links.omega_sd)
    z = np.zeros((ell + 1, ell + 1))
    for i in range(ell + 1):
        for j in range(ell + 1):
            below = cfg.e_t > i * cfg.capacity / ell
            if i == 0 and j == 0:
                z[i, j] = f_sr(scale)
            elif i == 0 and j < ell:
                z[i, j] = f_sr((j + 1) * scale) - f_sr(j * scale)
            elif i == 0:
                z[i, j] = 1.0 - f_sr(ell * scale)
            elif i < ell and i == j:
                z[i, j] = f_sr(scale) if below else (1.0 - f_sd) * f_sr(2.0 * scale)
            elif i < j < ell:
                if below:
                    z[i, j] = f_sr((j - i + 1) * scale) - f_sr((j - i) * scale)
                else:
                    z[i, j] = (1.0 - f_sd) * (f_sr(2.0 * (j - i + 1) * scale)
                                              - f_sr(2.0 * (j - i) * scale))
            elif i < ell and j == ell:
                if below:
                    z[i, j] = 1.0 - f_sr((ell - i) * scale)
                else:
                    z[i, j] = (1.0 - f_sd) * (1.0 - f_sr(2.0 * (ell - i) * scale))
            elif i == ell and j == ell:
                z[i, j] = 1.0 - f_sd
            elif j < i:
                z[i, j] = f_sd if (not below and i - j == k_thr) else 0.0
    return z


def per_row_matrix(family, k_thr):
    """The transition matrix filled one row at a time from the CDF
    increments of a ChainFamily's tables: a second construction for the
    family's row copies to match bit for bit."""
    ell = family.levels
    f_full, f_half, fail_direct = family.f_full, family.f_half, family.fail_direct
    z = np.zeros((ell + 1, ell + 1))
    for i in range(ell + 1):
        gaps = np.arange(ell - i)
        if i < k_thr:
            z[i, i:ell] = f_full[gaps + 1] - f_full[gaps]
            z[i, ell] = 1.0 - f_full[ell - i]
        else:
            keep = 1.0 - fail_direct
            z[i, i:ell] = keep * (f_half[gaps + 1] - f_half[gaps])
            z[i, ell] = keep * (1.0 - f_half[ell - i])
            z[i, i - k_thr] = fail_direct
    np.clip(z, 0.0, 1.0, out=z)
    return z


def textbook_gth(z):
    """Unblocked, dense GTH elimination of an irreducible stochastic matrix."""
    n = z.shape[0]
    p = np.array(z, dtype=float)
    for k in range(n - 1, 0, -1):
        p[:k, k] /= p[k, :k].sum()
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ p[:k, k]
        # visit counts relative to a rarely seen state 0 overflow without this
        if pi[k] > 1e250:
            pi[:k + 1] /= pi[k]
    return pi / pi.sum()


def random_chain(rng, n, bw, fill, stiff):
    """Irreducible stochastic n x n matrix with lower bandwidth bw.

    Entries inside the band are kept with probability `fill`; the two
    off-diagonals are added so every state reaches every other, and the
    diagonal so every row keeps some unscaled mass. stiff="up" (or
    "down") scales each upward (downward) entry by 10**-exponent to the
    power of its jump over n - 1, so every way from one end of the chain
    to the other is that improbable and the smallest stationary mass
    lands near 10**-exponent.
    """
    z = rng.random((n, n)) * (rng.random((n, n)) < fill)
    rows, cols = np.indices((n, n))
    z[cols < rows - bw] = 0.0
    z[rows[:-1, 0], rows[:-1, 0] + 1] += 0.5
    z[rows[1:, 0], rows[1:, 0] - 1] += 0.5
    z += 0.5 * np.eye(n)
    if stiff is not None:
        exponent = rng.uniform(220.0, 260.0)
        jump = cols - rows if stiff == "up" else rows - cols
        z[jump > 0] *= 10.0 ** (-exponent * jump[jump > 0] / (n - 1))
    return z / z.sum(axis=1, keepdims=True)


def power_iteration(z, tol=1e-12, max_iters=2_000_000):
    pi = np.full(z.shape[0], 1.0 / z.shape[0])
    for _ in range(max_iters):
        nxt = pi @ z
        if np.abs(nxt - pi).max() < tol:
            return nxt / nxt.sum()
        pi = nxt
    raise AssertionError("power iteration did not converge")


class TestBatteryConfig:
    def test_threshold_level(self):
        assert reference_battery().eps_t_level == 4
        assert er.BatteryConfig(5e-3, 20, 2.4e-3).eps_t_level == 10
        assert er.BatteryConfig(5e-3, 200, 1e-3).eps_t_level == 40

    def test_threshold_exactly_on_level(self):
        cfg = er.BatteryConfig(5e-3, 20, 5e-4)
        assert cfg.eps_t_level == 2

    def test_rejects_threshold_above_capacity(self):
        with pytest.raises(er.ValidationError, match="discharge"):
            er.BatteryConfig(5e-3, 20, 6e-3)

    @pytest.mark.parametrize("field, value", [("capacity", math.inf), ("capacity", math.nan),
                                              ("e_t", math.nan), ("e_t", math.inf)])
    def test_rejects_nonfinite_by_name(self, field, value):
        fields = {"capacity": 5e-3, "levels": 20, "e_t": 1e-3, field: value}
        with pytest.raises(er.ValidationError, match=field):
            er.BatteryConfig(**fields)

    def test_top_level_covers_capacity(self):
        # levels * (capacity / levels) rounds below capacity for 15 of these
        # levels (73, 146, 285, ...); level `levels` must still cover e_t
        for levels in range(1, 1001):
            assert er.BatteryConfig(5e-3, levels, 5e-3).eps_t_level == levels

    @pytest.mark.parametrize("levels", [20, 200])
    def test_threshold_level_is_smallest_covering_level(self, levels):
        # min{k >= 1 : k * step >= e_t} wherever a level below the top
        # covers e_t: the search's candidates and points between them
        step = 5e-3 / levels
        for k in range(1, levels + 1):
            for e_t in (k * 5e-3 / levels, k * step, (k - 0.5) * step):
                expected = next((j for j in range(1, levels) if j * step >= e_t), levels)
                assert er.BatteryConfig(5e-3, levels, e_t).eps_t_level == expected

    def test_levels_bounded_by_name(self):
        assert er.BatteryConfig(5e-3, 1_000_000, 1e-3).levels == 1_000_000
        with pytest.raises(er.ValidationError, match=r"levels=1000001 exceeds"):
            er.BatteryConfig(5e-3, 1_000_001, 1e-3)


def reference_family(capacity=5e-3, levels=20):
    params = reference_params()
    return er.ChainFamily(params, er.link_stats(params), er.thresholds(params.rate),
                          capacity, levels)


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: er.BatteryConfig(0.0, 20, 1e-3), "capacity must be > 0, got 0.0",
                 id="BatteryConfig-capacity"),
    pytest.param(lambda: er.BatteryConfig(5e-3, 20.0, 1e-3), "levels must be an integer >= 1",
                 id="BatteryConfig-levels"),
    pytest.param(lambda: er.TransitionMatrix(np.full((2, 3), 1.0 / 3.0)),
                 r"transition matrix must be square, got shape \(2, 3\)",
                 id="TransitionMatrix-square"),
    pytest.param(lambda: er.SteadyState(np.array([1.5, -0.5])),
                 "steady-state probabilities must be nonnegative", id="SteadyState-negative"),
    pytest.param(lambda: er.SteadyState(np.array([0.5, 0.4])),
                 "steady state must sum to 1 within 1e-10", id="SteadyState-sum"),
    pytest.param(lambda: reference_family(levels=20.0), "levels must be an integer >= 1",
                 id="ChainFamily-levels"),
    pytest.param(lambda: reference_family(capacity=0.0), "capacity must be finite and > 0",
                 id="ChainFamily-capacity"),
    pytest.param(lambda: reference_family().fill(3.0, np.empty((21, 21))),
                 r"threshold level must be in 1\.\.20 \(an integer\), got 3\.0",
                 id="ChainFamily-fill-float"),
    pytest.param(lambda: list(er.battery.stacked_steady_states([(reference_family(), 2.5)])),
                 r"threshold level must be in 1\.\.20 \(an integer\), got 2\.5",
                 id="stacked_steady_states-float"),
])
def test_refusal_names_the_field(build, match):
    with pytest.raises(er.ValidationError, match=match):
        build()


class TestDiscretizeHarvest:
    def test_zero(self):
        assert er.discretize_harvest(0.0, reference_battery()) == 0

    def test_between_levels(self):
        assert er.discretize_harvest(6e-4, reference_battery()) == 2

    def test_exact_boundary_rounds_down(self):
        cfg = reference_battery()
        assert er.discretize_harvest(2.0 * cfg.step, cfg) == 1

    def test_clipped_at_top(self):
        assert er.discretize_harvest(1.0, reference_battery()) == 20

    @settings(max_examples=100, deadline=None)
    @given(levels=st.integers(1, 1000),
           energies=st.lists(st.one_of(st.floats(0.0, 2e-2), st.just(0.0),
                                       st.integers(0, 1200).map(lambda k: k * 5e-3 / 1000)),
                             max_size=50))
    def test_array_matches_plain_rounding(self, levels, energies):
        # ceil(e / step) - 1 clipped to [0, L], 0 -> 0, one element at a time
        cfg = er.BatteryConfig(5e-3, levels, 1e-6)
        got = er.discretize_harvest(np.array(energies, dtype=float), cfg)
        expected = [0 if e == 0.0 else min(max(math.ceil(e / cfg.step) - 1, 0), levels)
                    for e in energies]
        assert got.dtype == np.int64 and got.shape == (len(energies),)
        assert got.tolist() == expected
        assert [er.discretize_harvest(e, cfg) for e in energies] == expected

    def test_huge_energy_clips_to_top(self):
        cfg = reference_battery()
        assert er.discretize_harvest(np.array([1e300, math.inf]), cfg).tolist() == [20, 20]

    @pytest.mark.parametrize("bad, shown", [(-1e-3, "-0.001"), (math.nan, "nan")])
    def test_bad_entry_named(self, bad, shown):
        cfg = reference_battery()
        with pytest.raises(er.ValidationError, match=f"must be >= 0, got {shown}"):
            er.discretize_harvest(bad, cfg)
        with pytest.raises(er.ValidationError, match=f"must be >= 0, got {shown}"):
            er.discretize_harvest(np.array([1e-3, bad, -5.0]), cfg)


class TestTransitionMatrix:
    def test_toy_matrix_matches_independent_transcription(self):
        params = reference_params(p_s_dbm=20.0, n_antennas=1)
        cfg = er.BatteryConfig(capacity=5e-3, levels=2, e_t=2.4e-3)
        assert cfg.eps_t_level == 1
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        z = er.build_transition_matrix(params, links, thr, cfg).z
        oracle = eight_case_matrix(params, links, thr, cfg)
        assert np.abs(z - oracle).max() < 1e-10

    def test_larger_matrix_matches_transcription(self):
        params = reference_params(p_s_dbm=27.0, n_antennas=2)
        cfg = er.BatteryConfig(capacity=5e-3, levels=9, e_t=1.1e-3)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        z = er.build_transition_matrix(params, links, thr, cfg).z
        oracle = eight_case_matrix(params, links, thr, cfg)
        assert np.abs(z - oracle).max() < 1e-10

    def test_full_battery_self_loop(self):
        params = reference_params(p_s_dbm=25.0)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        cfg = reference_battery()
        z = er.build_transition_matrix(params, links, thr, cfg).z
        f_sd = er.cdf_h_sd(thr.gamma1 * params.n0 / params.p_s, links.omega_sd)
        assert z[20, 20] == pytest.approx(1.0 - f_sd, abs=1e-15)

    def test_vanishing_power_freezes_empty_state(self):
        params = reference_params(p_s=1e-12)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        z = er.build_transition_matrix(params, links, thr, reference_battery()).z
        assert z[0, 0] == 1.0

    def test_discharge_pattern(self):
        # exactly one sub-diagonal entry per row at or above the threshold
        # level, none below it
        params = reference_params(p_s_dbm=26.0, n_antennas=2)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        cfg = er.BatteryConfig(5e-3, 20, 1.3e-3)
        z = er.build_transition_matrix(params, links, thr, cfg).z
        for i in range(21):
            below_diag = np.flatnonzero(z[i, :i] > 0.0)
            if i >= cfg.eps_t_level:
                assert below_diag.tolist() == [i - cfg.eps_t_level]
            else:
                assert below_diag.size == 0

    def test_row_sums_on_random_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            params = reference_params(p_s_dbm=float(rng.uniform(10, 30)),
                                      n_antennas=int(rng.integers(1, 4)))
            levels = int(rng.choice([5, 20, 200]))
            e_t = float((1.0 - rng.random()) * 5e-3)
            cfg = er.BatteryConfig(5e-3, levels, e_t)
            links = er.link_stats(params)
            thr = er.thresholds(params.rate)
            z = er.build_transition_matrix(params, links, thr, cfg).z
            assert np.abs(z.sum(axis=1) - 1.0).max() < 1e-9

    @pytest.mark.parametrize("levels", [20, 200])
    @pytest.mark.parametrize("n_antennas", [1, 3])
    def test_copied_rows_equal_per_row_fill(self, levels, n_antennas):
        for p_dbm in (15.0, 22.0, 30.0):
            params = reference_params(p_s_dbm=p_dbm, n_antennas=n_antennas)
            links = er.link_stats(params)
            thr = er.thresholds(params.rate)
            family = er.ChainFamily(params, links, thr, 5e-3, levels)
            for k in range(1, levels + 1):
                assert np.array_equal(lone_chain(family, k).z, per_row_matrix(family, k))

    @pytest.mark.parametrize("levels", [1, 20, 200])
    @pytest.mark.parametrize("n_antennas", [1, 3])
    def test_tables_equal_scalar_cdf_calls(self, levels, n_antennas):
        # the family's one array cdf_h_sr pass against one call per entry
        for p_dbm in (15.0, 22.5, 30.0):
            params = reference_params(p_s_dbm=p_dbm, n_antennas=n_antennas)
            links = er.link_stats(params)
            thr = er.thresholds(params.rate)
            family = er.ChainFamily(params, links, thr, 5e-3, levels)
            unit = 5e-3 / (params.eta * params.p_s * levels)
            f_sr = lambda x: er.cdf_h_sr(x, params, links.omega_sr)
            assert np.array_equal(family.f_full, [f_sr(j * unit) for j in range(levels + 1)])
            assert np.array_equal(family.f_half,
                                  [f_sr(2.0 * j * unit) for j in range(levels + 1)])
            assert family.fail_relay_decode == f_sr(thr.gamma2 * params.n0 / params.p_s)

    @settings(max_examples=80, deadline=None)
    @given(p_s_dbm=st.floats(0.0, 45.0), n_antennas=st.integers(1, 4),
           rician_k=st.floats(0.0, 50.0), eta=st.floats(0.05, 1.0), rate=st.floats(0.1, 4.0),
           d_sr=st.floats(1.0, 60.0), alpha=st.floats(2.0, 5.0),
           capacity=st.floats(1e-5, 1.0), levels=st.one_of(st.integers(1, 40), st.just(200)),
           data=st.data())
    def test_stacked_fill_row_stochastic(self, p_s_dbm, n_antennas, rician_k, eta, rate,
                                         d_sr, alpha, capacity, levels, data):
        # across the parameter box every matrix of a stacked fill is
        # row-stochastic and equal, bit for bit, to a lone fill of its level
        params = reference_params(p_s_dbm=p_s_dbm, n_antennas=n_antennas, rician_k=rician_k,
                                  eta=eta, rate=rate, d_sr=d_sr, alpha=alpha)
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        family = er.ChainFamily(params, links, thr, capacity, levels)
        k_thrs = data.draw(st.lists(st.integers(1, levels), min_size=1, max_size=6))
        stack = np.full((len(k_thrs), levels + 1, levels + 1), np.nan)
        assert [family.fill(k, z) for k, z in zip(k_thrs, stack)] == [None] * len(k_thrs)
        assert np.all((stack >= 0.0) & (stack <= 1.0))
        assert np.abs(stack.sum(axis=2) - 1.0).max() <= 1e-12
        for k, z in zip(k_thrs, stack):
            assert np.array_equal(z, lone_chain(family, k).z)

    def test_raising_threshold_keeps_stochasticity(self):
        params = reference_params(p_s_dbm=24.0)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        family = er.ChainFamily(params, links, thr, 5e-3, 20)
        for k in range(1, 21):
            cfg = er.BatteryConfig(5e-3, 20, k * 2.5e-4)
            assert cfg.eps_t_level == k
            z = er.build_transition_matrix(params, links, thr, cfg).z
            assert np.abs(z.sum(axis=1) - 1.0).max() < 1e-9
            assert np.array_equal(lone_chain(family, k).z, z)

    def test_oversized_chain_refused_before_cdf_tables(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("CDF table evaluated for a refused chain")
        monkeypatch.setattr(er.battery, "cdf_h_sr", never)
        params = reference_params()
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        with pytest.raises(er.ValidationError, match=r"levels=4097 would need a 0\.1 GiB"):
            er.ChainFamily(params, links, thr, 5e-3, 4097)

    def test_type_validation(self):
        with pytest.raises(er.ValidationError):
            er.TransitionMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(er.ValidationError):
            er.TransitionMatrix(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_nan_matrix_refused(self):
        # NaN fails every comparison, so a check written as "refuse where
        # z < 0" would let it through to a solve that returns [1, 0]
        with pytest.raises(er.ValidationError, match=r"lie in \[0, 1\]"):
            er.reachable_steady_state(er.TransitionMatrix(np.full((2, 2), np.nan)))


class TestSteadyState:
    def test_symmetric_two_state(self):
        ss = er.steady_state(er.TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]])))
        assert np.allclose(ss.pi, [0.5, 0.5], atol=1e-14)

    def test_hand_solved_two_state(self):
        # balance equation: 0.1 pi0 = 0.5 pi1
        ss = er.steady_state(er.TransitionMatrix(np.array([[0.9, 0.1], [0.5, 0.5]])))
        assert np.allclose(ss.pi, [5.0 / 6.0, 1.0 / 6.0], atol=1e-14)

    def test_reference_chain_against_power_iteration(self):
        params = reference_params(p_s_dbm=25.0)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        tm = er.build_transition_matrix(params, links, thr, reference_battery())
        ss = er.steady_state(tm)
        oracle = power_iteration(tm.z)
        assert np.abs(ss.pi - oracle).max() < 1e-9
        assert np.abs(tm.z.T @ ss.pi - ss.pi).max() < 1e-10
        assert ss.pi.sum() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_reducible_chain(self):
        z = np.zeros((3, 3))
        z[0, 0] = 1.0
        z[1, 1] = z[1, 0] = 0.5
        z[2, 2] = z[2, 1] = 0.5
        with pytest.raises(er.NumericalError, match="reducible"):
            er.steady_state(er.TransitionMatrix(z))

    def test_nan_law_refused(self):
        with pytest.raises(er.ValidationError, match="nonnegative"):
            er.SteadyState(np.array([np.nan, np.nan]))

    def test_frozen_config_rejected_by_solve(self):
        # at low source power the discretization rounds every harvest to
        # zero and the empty state becomes absorbing in float
        params = reference_params(p_s_dbm=15.0)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        tm = er.build_transition_matrix(params, links, thr, reference_battery())
        with pytest.raises(er.NumericalError):
            er.steady_state(tm)


class TestReachableSteadyState:
    def test_agrees_with_linear_solve_when_healthy(self):
        for p_dbm, n in [(24.0, 1), (25.0, 2), (28.0, 3)]:
            params = reference_params(p_s_dbm=p_dbm, n_antennas=n)
            links = er.link_stats(params)
            thr = er.thresholds(params.rate)
            tm = er.build_transition_matrix(params, links, thr, reference_battery())
            # rank-one corrected linear solve: (Z^T - I + 1) pi = 1
            size = tm.z.shape[0]
            oracle = np.linalg.solve(tm.z.T - np.eye(size) + 1.0, np.ones(size))
            b = er.reachable_steady_state(tm).pi
            assert np.abs(oracle - b).max() < 1e-11

    def test_frozen_config_concentrates_at_empty(self):
        params = reference_params(p_s_dbm=15.0)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        tm = er.build_transition_matrix(params, links, thr, reference_battery())
        ss = er.reachable_steady_state(tm)
        assert ss.pi[0] == pytest.approx(1.0, abs=1e-12)
        assert ss.pi[1:].max() < 1e-12

    def test_occupancy_matches_simulation_in_mixing_regime(self):
        # criterion 5 compares the simulated occupancy with the chain's law
        # over the run's window; at 25 dBm the chain regenerates fast enough
        # for that law to be the stationary one, so both comparisons hold
        params = reference_params(p_s_dbm=25.0)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        cfg = reference_battery()
        tm = er.build_transition_matrix(params, links, thr, cfg)
        pi = er.reachable_steady_state(tm).pi
        law = window_occupancy(tm.z, 0, 10_000, 10**6)
        assert 0.5 * np.abs(law - pi).sum() < 1e-3
        res = er.simulate(params, links, thr, cfg, blocks=10**6, seed=21)
        occupancy = np.array(res.level_occupancy) / res.blocks
        assert 0.5 * np.abs(occupancy - pi).sum() < 0.02


def assert_relative(got, expected, rel):
    assert np.array_equal(got > 0.0, expected > 0.0)
    mass = expected > 0.0
    assert np.all(np.abs(got[mass] - expected[mass]) <= rel * expected[mass])


class TestGthSolve:
    """The blocked, band-limited GTH behind reachable_steady_state against
    textbook GTH, on sizes below, at and across several elimination
    blocks."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 60), bw_share=st.floats(0.0, 1.0),
           fill=st.sampled_from([0.3, 1.0]), stiff=st.sampled_from([None, "up", "down"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_textbook_gth(self, n, bw_share, fill, stiff, seed):
        if n == 1:
            z = np.ones((1, 1))
        else:
            bw = 1 + round(bw_share * (n - 2))
            z = random_chain(np.random.default_rng(seed), n, bw, fill, stiff)
        expected = textbook_gth(z)
        if stiff is not None and n > 1:
            assert expected.min() < 1e-200
        assert_relative(er.reachable_steady_state(er.TransitionMatrix(z)).pi, expected, 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 60), bw_share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_scattered_reachable_set(self, n, bw_share, seed):
        # a closed class on a scattered subset of the states, entered from
        # state 0; the rest of the chain is dense but never reached
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, n))
        closed = np.sort(np.concatenate(([0], rng.choice(np.arange(1, n), size - 1,
                                                         replace=False))))
        if np.array_equal(closed, np.arange(size)):
            closed[-1] = n - 1
        bw = 1 + round(bw_share * (size - 2))
        inner = random_chain(rng, size, bw, 0.5, None)
        z = rng.random((n, n))
        z /= z.sum(axis=1, keepdims=True)
        z[closed] = 0.0
        z[np.ix_(closed, closed)] = inner
        expected = np.zeros(n)
        expected[closed] = textbook_gth(inner)
        assert_relative(er.reachable_steady_state(er.TransitionMatrix(z)).pi, expected, 1e-12)

    @pytest.mark.parametrize("n, state", [(3, 1), (12, 9)])
    def test_zero_pivot_names_the_state(self, n, state):
        z = zero_pivot_chain(n, state)
        with pytest.raises(er.NumericalError, match=f"zero pivot at state {state};"):
            er.reachable_steady_state(er.TransitionMatrix(z))

    @settings(max_examples=150, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 25, 40]),
           chains=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.3, 1.0]),
                                     st.sampled_from([None, "up", "down"])),
                           min_size=1, max_size=6),
           broken=st.one_of(st.none(), st.integers(0, 5)),
           stack_bytes=st.sampled_from([None, 1, 2000]),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_solve(self, n, chains, broken, stack_bytes, seed):
        # a stack of chains of one size but mixed bands and stiffness; a
        # small byte budget splits the block-end product into row slabs
        rng = np.random.default_rng(seed)
        stack = np.stack([np.ones((1, 1)) if n == 1 else
                          random_chain(rng, n, 1 + round(share * (n - 2)), fill, stiff)
                          for share, fill, stiff in chains])
        state = 0
        if broken is not None and broken < len(stack) and n >= 2:
            state = int(rng.integers(1, n))
            stack[broken] = zero_pivot_chain(n, state)
        solve = er.battery._gth_stationary
        with mock.patch.object(er.battery, "_GTH_STACK_BYTES",
                               stack_bytes or er.battery._GTH_STACK_BYTES):
            pis, pivots = solve(stack.copy())
            # each chain as the stack of one: (law, pivots)
            alone = [tuple(out[0] for out in solve(z.copy()[None])) for z in stack]
        for i, z in enumerate(stack):
            # the highest state whose pivot sum is not positive, 0 for none
            failed = np.flatnonzero(~(pivots[i] > 0.0))
            if state and i == broken:
                # only the broken chain is flagged, at its first zero pivot
                assert failed.max() == state
                continue
            assert failed.size == 0
            # a chain's law and pivots do not depend on the stack it is in
            assert np.array_equal(pis[i], alone[i][0])
            assert np.array_equal(pivots[i], alone[i][1])
            assert_relative(pis[i], textbook_gth(z), 1e-12)

    def test_rescaled_visit_counts(self):
        # birth-death chains whose mass grows 1e50-fold and 1e40-fold a
        # state: visit counts relative to state 0 pass the float range
        # unless the back-substitution rescales them, which each of the
        # two does at its own state, and the third chain never does
        def birth_death(n, ratio):
            z = np.zeros((n, n))
            for i in range(n - 1):
                z[i, i + 1] = 0.5
                z[i + 1, i] = 0.5 / ratio
            return z + np.diag(1.0 - z.sum(axis=1))

        n = 9
        mild = random_chain(np.random.default_rng(3), n, n - 1, 1.0, None)
        stack = np.stack([birth_death(n, 1e50), birth_death(n, 1e40), mild])
        pis, pivots = er.battery._gth_stationary(stack.copy())
        assert np.all(pivots > 0.0)
        for pi, z in zip(pis, stack):
            assert np.array_equal(pi, er.battery._gth_stationary(z.copy()[None])[0][0])
            assert_relative(pi, textbook_gth(z), 1e-12)
        assert pis[0][-1] > 0.99 and pis[0][0] == 0.0


class TestSteadyStates:
    """The stacked solves of stacked_steady_states against one chain at a time."""

    @pytest.mark.parametrize("levels, points", [
        (20, [(p, n) for p in (15.0, 18.0, 21.0, 24.0, 27.0, 30.0) for n in (1, 2, 3)]),
        (200, [(18.0, 1), (30.0, 3)]),
    ])
    def test_equal_to_one_chain_at_a_time(self, levels, points):
        # L=20 below about 22 dBm cuts most chains down to small reachable
        # sets, at 18 dBm and N=1 down to the frozen empty state
        for p_dbm, n_antennas in points:
            params = reference_params(p_s_dbm=p_dbm, n_antennas=n_antennas)
            links, thr = er.link_stats(params), er.thresholds(params.rate)
            family = er.ChainFamily(params, links, thr, 5e-3, levels)
            k_thrs = range(1, levels + 1)
            laws = dict(zip(k_thrs, er.battery.stacked_steady_states(
                [(family, k) for k in k_thrs])))
            assert sorted(laws) == list(range(1, levels + 1))
            for k, law in laws.items():
                try:
                    alone = er.reachable_steady_state(lone_chain(family, k))
                except er.NumericalError as exc:
                    assert isinstance(law, er.NumericalError) and str(law) == str(exc)
                else:
                    assert np.array_equal(law.pi, alone.pi)

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([2, 3, 9, 10, 17, 25, 40]),
           chains=st.lists(st.tuples(st.integers(1, 40), st.floats(0.0, 1.0),
                                     st.sampled_from([None, "up", "down"]), st.booleans()),
                           min_size=1, max_size=6),
           broken=st.one_of(st.none(), st.integers(0, 5)),
           stack_bytes=st.sampled_from([None, 1, 2000]),
           seed=st.integers(0, 2**32 - 1))
    # a one-state chain beside cut chains across several blocks
    @example(n=25, chains=[(1, 0.0, None, False), (11, 0.5, "up", True), (20, 1.0, None, False),
                           (24, 0.2, None, True)], broken=None, stack_bytes=None, seed=5)
    def test_cut_chains_of_mixed_sizes(self, n, chains, broken, stack_bytes, seed):
        # chains cut down to reachable sets of many sizes, prefixes or
        # scattered, beside full ones that move over their slots, come out
        # as they do alone
        rng = np.random.default_rng(seed)
        stack = []
        for i, (size, share, stiff, scattered) in enumerate(chains):
            size = min(size, n)
            closed = np.arange(size)
            if scattered and 1 < size < n:
                closed[1:] = np.sort(rng.choice(np.arange(1, n), size - 1, replace=False))
            if size == 1:
                inner = np.ones((1, 1))
            elif i == broken:
                inner = zero_pivot_chain(size, int(rng.integers(1, size)))
            else:
                inner = random_chain(rng, size, 1 + round(share * (size - 2)), 0.5, stiff)
            z = rng.random((n, n))
            z /= z.sum(axis=1, keepdims=True)
            z[closed] = 0.0
            z[np.ix_(closed, closed)] = inner
            stack.append(z)
        stack = np.stack(stack)
        with mock.patch.object(er.battery, "_GTH_STACK_BYTES",
                               stack_bytes or er.battery._GTH_STACK_BYTES):
            laws = er.battery._stationary_laws(stack.copy(), [None] * len(stack))
            for law, z in zip(laws, stack):
                try:
                    alone = er.reachable_steady_state(er.TransitionMatrix(z))
                except er.NumericalError as exc:
                    assert isinstance(law, er.NumericalError) and str(law) == str(exc)
                else:
                    assert np.array_equal(law.pi, alone.pi)

    def test_failed_rows_flagged_per_level(self):
        params = reference_params(p_s_dbm=25.0)
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        family = er.ChainFamily(params, links, thr, 5e-3, 20)
        # rows from the threshold up lose mass when the direct link's
        # failure probability no longer matches the tables' share
        family.fail_direct *= 0.5
        with pytest.raises(er.NumericalError, match="do not partition") as caught:
            lone_chain(family, 3)
        laws = dict(zip((3, 20), er.battery.stacked_steady_states([(family, 3), (family, 20)])))
        assert str(laws[3]) == str(caught.value)
        assert all(isinstance(law, er.NumericalError) for law in laws.values())
        failed = [family.fill(k, np.empty((21, 21))) for k in (3, 20)]
        assert [str(f) for f in failed] == [str(laws[3]), str(laws[20])]

    def test_nan_row_fails_the_row_sum_check(self, monkeypatch):
        params = reference_params(p_s_dbm=25.0)
        links, thr = er.link_stats(params), er.thresholds(params.rate)
        # a NaN direct-link failure probability, from the family's own table
        monkeypatch.setattr(er.battery, "cdf_h_sd", lambda x, omega_sd: math.nan)
        family = er.ChainFamily(params, links, thr, 5e-3, 20)
        with pytest.raises(er.NumericalError, match="row-sum deviation nan"):
            er.build_transition_matrix(params, links, thr, er.BatteryConfig(5e-3, 20, 7.5e-4))
        law, = er.battery.stacked_steady_states([(family, 3)])
        assert str(law).endswith("row-sum deviation nan")

    def test_bad_level_refused(self):
        params = reference_params()
        family = er.ChainFamily(params, er.link_stats(params), er.thresholds(params.rate),
                                5e-3, 20)
        with pytest.raises(er.ValidationError, match=r"threshold level must be in 1\.\.20"):
            list(er.battery.stacked_steady_states([(family, 0), (family, 5)]))
        # numpy integers are levels too
        assert np.array_equal(lone_chain(family, np.int64(3)).z, lone_chain(family, 3).z)


class TestWindowOccupancy:
    @pytest.mark.parametrize("p_dbm", [20.0, 25.0])
    def test_matches_stepwise_iteration(self, p_dbm):
        params = reference_params(p_s_dbm=p_dbm)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        tm = er.build_transition_matrix(params, links, thr, reference_battery())
        warmup, blocks = 37, 5000
        row = np.zeros(tm.z.shape[0])
        row[0] = 1.0
        total = np.zeros_like(row)
        for m in range(warmup + blocks):
            if m >= warmup:
                total += row
            row = row @ tm.z
        law = window_occupancy(tm.z, 0, warmup, blocks)
        assert np.abs(law - total / blocks).max() < 1e-12
