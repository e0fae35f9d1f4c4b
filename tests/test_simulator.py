"""Protocol simulator tests: golden single-block traces and per-block
invariants of the test suite's own one-block reference, determinism,
exact agreement between `simulate` and a block-by-block loop of that
reference in both battery modes, the segment-wise battery path against
a plain per-block loop, and memory bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ehrelay as er
from ehrelay.simulator import _battery_path
from helpers import reference_battery, reference_block, reference_params

# fade triples (h_sd, h_sr, h_rd) drawn once with the seeds below at the
# reference setup and frozen together with the hand-traced outcomes
# (arithmetic redone with plain formulas during development)
GOLDEN_SEED_42 = (4.6957107583110085e-06, 0.0012787248448589777, 6.81102870202843e-06)
GOLDEN_SEED_53 = (5.92235705303264e-09, 0.0013457393875320495, 8.222516630400366e-06)


def _setup(p_s_dbm=20.0, n_antennas=1):
    params = reference_params(p_s_dbm=p_s_dbm, n_antennas=n_antennas)
    links = er.link_stats(params)
    thr = er.thresholds(params.rate)
    return params, links, thr


def _one_block_fades(params, links, seed):
    fades = er.sample_fade_blocks(params, links, np.random.default_rng(seed), 1)
    return tuple(float(f[0]) for f in fades)


class TestStepGolden:
    def test_frozen_fades_still_reproduce(self):
        params, links, _ = _setup()
        assert _one_block_fades(params, links, 42) == GOLDEN_SEED_42
        assert _one_block_fades(params, links, 53) == GOLDEN_SEED_53

    def test_seed_42_direct_link_up(self):
        # gamma_sd = 0.1 * 4.6957e-6 / 1e-9 = 469.6 >= gamma1: direct link fine;
        # harvest 0.5 * 0.1 * 1.2787e-3 = 6.39e-5 J < one 2.5e-4 J level
        params, _, thr = _setup()
        cfg = reference_battery()
        assert reference_block(0, *GOLDEN_SEED_42, params, thr, cfg) == (1, False, 0)
        assert reference_block(10, *GOLDEN_SEED_42, params, thr, cfg) == (2, False, 10)

    def test_seed_53_direct_link_down(self):
        # gamma_sd = 0.592 < gamma1: direct fails; retransmission doubles it
        # to 1.18 < gamma2 = 3 (outage); forwarding sees gamma_sr = 1.3e5 and
        # gamma_sd + gamma_rd = 0.59 + 16.4 >= 3 (saved), battery drops 4
        params, _, thr = _setup()
        cfg = reference_battery()
        assert reference_block(0, *GOLDEN_SEED_53, params, thr, cfg) == (3, True, 0)
        assert reference_block(7, *GOLDEN_SEED_53, params, thr, cfg) == (4, False, 3)
        assert reference_block(20, *GOLDEN_SEED_53, params, thr, cfg) == (4, False, 16)

    def test_charging_at_high_power(self):
        # same fade at 30 dBm: harvest = 0.5 * 1.0 * 1.2787e-3 = 6.39e-4 J,
        # strictly between levels 2 and 3
        params, _, thr = _setup(p_s_dbm=30.0)
        assert reference_block(0, *GOLDEN_SEED_42, params, thr, reference_battery()) == \
            (1, False, 2)


class TestStepInvariants:
    def test_mode_legality_and_level_bounds(self):
        params, links, thr = _setup(p_s_dbm=25.0, n_antennas=2)
        cfg = reference_battery()
        rng = np.random.default_rng(314)
        fades = er.sample_fade_blocks(params, links, rng, 5000)
        level = 0
        for h_sd, h_sr, h_rd in zip(*(f.tolist() for f in fades)):
            mode, outage, after = reference_block(level, h_sd, h_sr, h_rd, params, thr, cfg)
            assert 0 <= after <= cfg.levels
            ready = level >= cfg.eps_t_level
            assert ready == (mode in (2, 4))
            if mode in (1, 2):
                assert not outage
            if mode == 4:
                assert after == level - cfg.eps_t_level
            else:
                assert after >= level
            level = after


class TestSimulate:
    def test_same_seed_bit_identical(self):
        params, links, thr = _setup(p_s_dbm=25.0)
        cfg = reference_battery()
        a = er.simulate(params, links, thr, cfg, blocks=50_000, seed=9)
        b = er.simulate(params, links, thr, cfg, blocks=50_000, seed=9)
        assert a == b

    @pytest.mark.parametrize("p_s_dbm, n_antennas, levels",
                             [(25.0, 2, 20), (15.0, 3, 200)])
    @pytest.mark.parametrize("continuous", [False, True], ids=["discrete", "continuous"])
    def test_matches_reference_block_loop(self, continuous, p_s_dbm, n_antennas, levels):
        # e_t lies off the level grid, so the discrete battery drains whole
        # levels (eps_t_level) where the continuous one drains e_t exactly
        params, links, thr = _setup(p_s_dbm=p_s_dbm, n_antennas=n_antennas)
        cfg = reference_battery(levels=levels, e_t=1.13e-3)
        blocks, warmup, seed = 20_000, 37, 5
        res = er.simulate(params, links, thr, cfg, blocks=blocks, seed=seed,
                          warmup_blocks=warmup, continuous_battery=continuous)
        fades = er.sample_fade_blocks(params, links, np.random.default_rng(seed),
                                      warmup + blocks)
        counts = [0, 0, 0, 0]
        outs = [0, 0, 0, 0]
        occupancy = [0] * (cfg.levels + 1)
        state = 0.0 if continuous else 0
        for m, (h_sd, h_sr, h_rd) in enumerate(zip(*(f.tolist() for f in fades))):
            mode, outage, after = reference_block(state, h_sd, h_sr, h_rd, params, thr, cfg,
                                                  continuous=continuous)
            if m >= warmup:
                level = (min(int(state * (cfg.levels / cfg.capacity)), cfg.levels)
                         if continuous else state)
                occupancy[level] += 1
                counts[mode - 1] += 1
                outs[mode - 1] += outage
            state = after
        if levels == 200:
            assert min(counts) > 0       # this setting visits all four modes
        estimate = sum(outs) / blocks
        assert res == er.SimulationResult(
            blocks=blocks, outages=sum(outs), mode_counts=tuple(counts),
            mode_outages=tuple(outs), level_occupancy=tuple(occupancy),
            outage_estimate=estimate,
            outage_stderr=math.sqrt(estimate * (1.0 - estimate) / blocks), seed=seed)

    def test_counters_are_consistent(self):
        params, links, thr = _setup(p_s_dbm=25.0)
        cfg = reference_battery()
        res = er.simulate(params, links, thr, cfg, blocks=100_000, seed=4)
        assert sum(res.mode_counts) == res.blocks
        assert sum(res.level_occupancy) == res.blocks
        assert res.outages <= res.mode_counts[2] + res.mode_counts[3]
        assert res.mode_outages[0] == res.mode_outages[1] == 0
        assert res.outage_estimate == res.outages / res.blocks
        expected_se = math.sqrt(res.outage_estimate * (1 - res.outage_estimate)
                                / res.blocks)
        assert res.outage_stderr == pytest.approx(expected_se, rel=1e-12)

    def test_no_conversion_means_no_charge(self):
        # eta ~ 0: the battery never leaves level 0 and every direct failure
        # becomes a certain retransmission outage
        params, links, thr = _setup()
        params = reference_params(eta=1e-12)
        cfg = reference_battery()
        res = er.simulate(params, links, thr, cfg, blocks=200_000, seed=6)
        assert res.level_occupancy[0] == res.blocks
        assert res.mode_counts[1] == res.mode_counts[3] == 0
        f_direct = er.cdf_h_sd(thr.gamma1 * params.n0 / params.p_s, links.omega_sd)
        se = math.sqrt(f_direct * (1 - f_direct) / res.blocks)
        assert abs(res.outage_estimate - f_direct) < 3.0 * se

    def test_retransmission_mode_frequency(self):
        # stationary share of retransmission blocks is (1 - P_E) * F_direct
        params, links, thr = _setup(p_s_dbm=25.0)
        cfg = reference_battery()
        tm = er.build_transition_matrix(params, links, thr, cfg)
        pi = er.reachable_steady_state(tm)
        p_e = er.energy_sufficiency(pi, cfg)
        f_direct = er.cdf_h_sd(thr.gamma1 * params.n0 / params.p_s, links.omega_sd)
        expected = (1.0 - p_e) * f_direct
        res = er.simulate(params, links, thr, cfg, blocks=10**6, seed=13)
        freq = res.mode_counts[2] / res.blocks
        se = math.sqrt(max(expected * (1 - expected), 1e-12) / res.blocks)
        assert abs(freq - expected) < 3.0 * se

    def test_continuous_battery_mode(self):
        params, links, thr = _setup(p_s_dbm=25.0)
        cfg = reference_battery()
        cont = er.simulate(params, links, thr, cfg, blocks=200_000, seed=10,
                           continuous_battery=True)
        disc = er.simulate(params, links, thr, cfg, blocks=200_000, seed=10)
        assert sum(cont.level_occupancy) == cont.blocks
        assert sum(cont.mode_counts) == cont.blocks
        # no rounding loss: the continuous battery cooperates at least as often
        assert cont.mode_counts[1] + cont.mode_counts[3] >= \
            disc.mode_counts[1] + disc.mode_counts[3]

    def test_validation(self):
        params, links, thr = _setup()
        with pytest.raises(er.ValidationError):
            er.simulate(params, links, thr, reference_battery(), blocks=0, seed=1)
        with pytest.raises(er.ValidationError):
            er.simulate(params, links, thr, reference_battery(), blocks=10,
                        seed=1, warmup_blocks=-1)
        with pytest.raises(er.ValidationError, match="seed must be >= 0, got -1"):
            er.simulate(params, links, thr, reference_battery(), blocks=10, seed=-1)


class TestSimulateProperties:
    @settings(max_examples=60, deadline=None)
    @given(p_s_dbm=st.floats(10.0, 35.0), n_antennas=st.integers(1, 3),
           levels=st.integers(1, 50), e_t_share=st.floats(0.0, 1.0, exclude_min=True),
           blocks=st.integers(1, 3000), warmup=st.integers(0, 50),
           continuous=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_counters_add_up(self, p_s_dbm, n_antennas, levels, e_t_share, blocks,
                             warmup, continuous, seed):
        params, links, thr = _setup(p_s_dbm=p_s_dbm, n_antennas=n_antennas)
        try:
            cfg = reference_battery(levels=levels, e_t=e_t_share * 5e-3)
        except er.ValidationError:
            assume(False)
        res = er.simulate(params, links, thr, cfg, blocks=blocks, seed=seed,
                          warmup_blocks=warmup, continuous_battery=continuous)
        assert sum(res.mode_counts) == blocks
        assert len(res.level_occupancy) == levels + 1
        assert sum(res.level_occupancy) == blocks
        assert res.mode_outages[0] == res.mode_outages[1] == 0
        assert res.outages == sum(res.mode_outages)
        assert res.outage_estimate == res.outages / blocks


def per_block_path(gain_full, gain_half, failed, drain, cap):
    """Battery at the start of every block, one block at a time."""
    state = gain_full.dtype.type(0).item()
    path = []
    for g_full, g_half, down in zip(gain_full.tolist(), gain_half.tolist(), failed.tolist()):
        path.append(state)
        if state >= drain:
            state = state - drain if down else min(state + g_half, cap)
        else:
            state = min(state + g_full, cap)
    return np.array(path, dtype=gain_full.dtype)


# lengths around the path's crossing windows (64 doubling to 65536)
EDGE_LENGTHS = (0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 449)


@st.composite
def path_inputs(draw):
    """Gains drawn from a small set, so that running sums often land
    exactly on the threshold, plus arbitrary floats that round."""
    integer = draw(st.booleans())
    n = draw(st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 1500)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_fail = draw(st.sampled_from([0.0, 1.0, 0.01, 0.3]))
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]))
    if integer:
        cap = draw(st.integers(1, 40))
        drain = draw(st.one_of(st.just(cap), st.integers(1, cap)))
        values = np.arange(draw(st.integers(0, cap + 3)) + 1)   # gains above cap too
    else:
        cap = draw(st.sampled_from([1.0, 2.5, 5e-3, 7.75]))
        drain = cap * draw(st.sampled_from([1.0, 0.5, 0.25, 0.375, 0.1]))
        values = cap * np.array([0.0, 0.125, 0.25, 0.5, 1.0, 1.5])
        if draw(st.booleans()):
            values = np.concatenate([values, rng.uniform(0.0, cap, 4)])
    gains = []
    for _ in range(2):
        g = rng.choice(values, n)
        g[rng.random(n) < zero_share] = 0
        gains.append(g.astype(np.int64 if integer else np.float64))
    return gains[0], gains[1], rng.random(n) < p_fail, drain, cap


class TestBatteryPath:
    @settings(max_examples=300, deadline=None)
    @given(path_inputs())
    def test_matches_per_block_loop(self, inputs):
        path = _battery_path(*inputs)
        expected = per_block_path(*inputs)
        assert path.dtype == inputs[0].dtype
        assert np.array_equal(path, expected)

    @pytest.mark.parametrize("dtype, drain, cap", [(np.int64, 4, 20), (np.float64, 1.13e-3, 5e-3)])
    @pytest.mark.parametrize("layout", ["frozen", "late_crossing", "charged", "full_then_drained"])
    def test_runs_longer_than_the_largest_window(self, dtype, drain, cap, layout):
        # a frozen battery stays below the threshold for 200k blocks, past
        # the 64 + 128 + ... + 65536 blocks of doubling windows and beyond
        n = 200_000
        rng = np.random.default_rng(11)
        gain_full = np.zeros(n, dtype=dtype)
        gain_half = np.zeros(n, dtype=dtype)
        failed = np.zeros(n, dtype=bool)
        if layout == "late_crossing":
            gain_full[150_000] = drain
            failed[rng.integers(0, n, 500)] = True
        elif layout == "charged":
            gain_full[0] = cap
            gain_half[:] = rng.choice(np.array([0, drain, cap], dtype=dtype), n)
        elif layout == "full_then_drained":
            gain_full[0] = cap
            failed[-1000:] = True
        path = _battery_path(gain_full, gain_half, failed, drain, cap)
        assert path.dtype == dtype
        assert np.array_equal(path, per_block_path(gain_full, gain_half, failed, drain, cap))


class TestSimulateBounds:
    def test_oversized_run_refused_before_sampling(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("fades sampled for a refused run")
        monkeypatch.setattr(er.simulator, "sample_fade_blocks", never)
        params, links, thr = _setup()
        cfg = reference_battery()
        with pytest.raises(er.ValidationError,
                           match=r"blocks \+ warmup_blocks = 30000001 exceeds"):
            er.simulate(params, links, thr, cfg, blocks=29_990_001, seed=1)
        with pytest.raises(er.ValidationError, match=r"= 1000000001 exceeds"):
            er.simulate(params, links, thr, cfg, blocks=1, seed=1, warmup_blocks=10**9)
        # the bound itself is accepted: the run gets as far as the sampler
        with pytest.raises(AssertionError, match="fades sampled"):
            er.simulate(params, links, thr, cfg, blocks=29_990_000, seed=1)

    def test_peak_traced_memory_per_block(self):
        # measured 62 bytes a block at 2e5 continuous blocks (three fade
        # arrays, two harvest arrays, the path, the sampler's temporaries);
        # the bound leaves 29% headroom. A per-block loop over list copies
        # of the gains peaked at 121.
        params, links, thr = _setup(p_s_dbm=25.0, n_antennas=2)
        cfg = reference_battery()
        blocks = 200_000
        er.simulate(params, links, thr, cfg, blocks=1000, seed=3, continuous_battery=True)
        tracemalloc.start()
        try:
            er.simulate(params, links, thr, cfg, blocks=blocks, seed=3, warmup_blocks=0,
                        continuous_battery=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / blocks < 80.0
