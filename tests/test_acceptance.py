"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Cross-cutting oracles used here: scipy adaptive quadrature for the
special functions and the joint mode-IV probability, a power-iteration
oracle (accelerated by repeated matrix squaring, which walks the same
fixed point) for the stationary distribution, the chain's own law over
a finite window (binary doubling on powers of Z) for the simulated
battery occupancy, and the Monte Carlo protocol simulator as ground
truth for the analytic outage path.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy import integrate, special

import ehrelay as er
from helpers import (dbm, reference_battery, reference_params, solve_outage,
                     window_occupancy)

POWER_GRID_DBM = [10.0 + 2.0 * k for k in range(11)]  # 10..30 dBm
SIM_WARMUP_BLOCKS = 10_000  # simulate's default warm-up


def report(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num:>2} ({label}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({label}): {detail}"


def random_grid_config(rng):
    """One draw of the randomized chain grid: P_S in [10, 30] dBm,
    L in {5, 20, 200}, N in {1, 2, 3}, E_T in (0, C]."""
    params = reference_params(p_s_dbm=float(rng.uniform(10.0, 30.0)),
                              n_antennas=int(rng.choice([1, 2, 3])))
    levels = int(rng.choice([5, 20, 200]))
    e_t = float((1.0 - rng.uniform(0.0, 1.0)) * 5e-3)
    return params, er.BatteryConfig(capacity=5e-3, levels=levels, e_t=e_t)


def build_chain(params, cfg):
    links = er.link_stats(params)
    thr = er.thresholds(params.rate)
    return links, thr, er.build_transition_matrix(params, links, thr, cfg)


def squaring_power_iteration(z, max_squarings=70, spread_tol=5e-12):
    """Iterate the chain to its fixed point by repeated squaring of Z;
    converged when all rows of Z^(2^k) agree (every start state has
    forgotten its origin)."""
    m = z.copy()
    for _ in range(max_squarings):
        m = m @ m
        m /= m.sum(axis=1, keepdims=True)
        spread = float((m.max(axis=0) - m.min(axis=0)).max())
        if spread < spread_tol:
            return m[0]
    raise AssertionError(f"power iteration stalled, row spread {spread:.2e}")


def test_criterion_01_row_stochasticity():
    rng = np.random.default_rng(20240811)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        params, cfg = random_grid_config(rng)
        _, _, tm = build_chain(params, cfg)
        worst = max(worst, float(np.abs(tm.z.sum(axis=1) - 1.0).max()))
    elapsed = time.monotonic() - start
    report(1, "transition-matrix stochasticity", worst <= 1e-9 and elapsed < 10.0,
           f"worst row-sum deviation {worst:.2e}, {elapsed:.1f}s over 200 configs")


def test_criterion_02_steady_state_fixed_point():
    rng = np.random.default_rng(20240811)
    solved = skipped = 0
    worst_fix = worst_sum = worst_oracle = 0.0
    for _ in range(200):
        params, cfg = random_grid_config(rng)
        _, _, tm = build_chain(params, cfg)
        try:
            ss = er.steady_state(tm)
        except er.NumericalError as exc:
            # sanctioned refusal: the chain's nonzero pattern is reducible
            # at this configuration
            assert "reducible" in str(exc)
            skipped += 1
            continue
        solved += 1
        worst_fix = max(worst_fix, float(np.abs(tm.z.T @ ss.pi - ss.pi).max()))
        worst_sum = max(worst_sum, abs(float(ss.pi.sum()) - 1.0))
        oracle = squaring_power_iteration(tm.z)
        worst_oracle = max(worst_oracle, float(np.abs(ss.pi - oracle).max()))
    ok = (solved >= 50 and worst_fix <= 1e-10 and worst_sum <= 1e-10
          and worst_oracle <= 1e-9)
    report(2, "steady-state fixed point",
           ok, f"{solved} solved / {skipped} reducible-skipped; fixed-point "
               f"{worst_fix:.2e}, sum {worst_sum:.2e}, vs oracle {worst_oracle:.2e}")


def mode4_quadrature(g1, g2, gsd, grd, n):
    def joint(v, u):
        return (math.exp(-u / gsd) / gsd) * v**(n - 1) * math.exp(-v / grd) / (
            math.gamma(n) * grd**n)
    value, _ = integrate.dblquad(joint, 0.0, g1, 0.0, lambda u: g2 - u,
                                 epsabs=1e-11, epsrel=1e-11)
    return value


def test_criterion_03_mode4_closed_form_vs_quadrature():
    rng = np.random.default_rng(99)
    start = time.monotonic()
    worst = 0.0
    cases = []
    for _ in range(90):
        rate = float(rng.uniform(0.2, 3.0))
        gsd = float(np.exp(rng.uniform(np.log(0.05), np.log(5000.0))))
        grd = float(np.exp(rng.uniform(np.log(0.05), np.log(5000.0))))
        cases.append((rate, gsd, grd, int(rng.integers(1, 5))))
    for _ in range(10):
        rate = float(rng.uniform(0.2, 3.0))
        gsd = float(np.exp(rng.uniform(np.log(0.5), np.log(500.0))))
        delta = float(rng.choice([-1.0, 1.0])) * 10.0 ** float(rng.uniform(-9.0, -7.0))
        cases.append((rate, gsd, gsd * (1.0 + delta), int(rng.integers(1, 5))))
    for rate, gsd, grd, n in cases:
        thr = er.thresholds(rate)
        mine = er.mode4_joint_cdf(thr, er.MeanSnrs(gsd, grd), n)
        ref = mode4_quadrature(thr.gamma1, thr.gamma2, gsd, grd, n)
        worst = max(worst, abs(mine - ref))
    elapsed = time.monotonic() - start
    report(3, "mode-IV closed form vs quadrature", worst <= 1e-6 and elapsed < 30.0,
           f"worst |diff| {worst:.2e} over 100 tuples (10 near-singular), {elapsed:.1f}s")


def test_criterion_04_analytic_vs_monte_carlo():
    start = time.monotonic()
    checked = 0
    worst_sigma = 0.0
    for p_dbm in (15.0, 20.0, 25.0, 30.0):
        for n in (1, 2, 3):
            params = reference_params(p_s_dbm=p_dbm, n_antennas=n)
            cfg = reference_battery()
            breakdown = solve_outage(params, cfg)
            if breakdown.p_out < 1e-3:
                continue
            links = er.link_stats(params)
            thr = er.thresholds(params.rate)
            result = er.simulate(params, links, thr, cfg, blocks=10**6, seed=1)
            sigma = abs(result.outage_estimate - breakdown.p_out) / result.outage_stderr
            worst_sigma = max(worst_sigma, sigma)
            checked += 1
    elapsed = time.monotonic() - start
    report(4, "analytic vs Monte Carlo outage",
           checked >= 1 and worst_sigma <= 3.0 and elapsed < 120.0,
           f"{checked} points with p_out >= 1e-3, worst |z| {worst_sigma:.2f}, {elapsed:.0f}s")


def test_criterion_05_battery_occupancy_match():
    # Stated config: L=20, P_S=20 dBm, N=1. The simulator's battery process
    # must be the analytic chain Z, so its occupancy over the run is checked
    # against the law of that chain over the same window: started empty,
    # warm-up skipped, the Cesaro mean of e_0 Z^m over the measured blocks,
    # computed from Z alone. It is not checked against the stationary law
    # pi: at these constants one level costs 2.5e-4 J while a block harvests
    # ~5e-5 J on a nearly deterministic (K=10) link, so leaving the empty
    # level takes a 1.3e-9-probability fade and no faithful 1e6-block run
    # gets near pi (the window law itself is 0.75 away from it in total
    # variation). Where the chain mixes, the window law equals pi; see
    # test_battery.py::TestReachableSteadyState.
    params = reference_params(p_s_dbm=20.0, n_antennas=1)
    cfg = reference_battery()
    links = er.link_stats(params)
    thr = er.thresholds(params.rate)
    tm = er.build_transition_matrix(params, links, thr, cfg)
    law = window_occupancy(tm.z, 0, SIM_WARMUP_BLOCKS, 10**6)
    pi = er.reachable_steady_state(tm).pi
    result = er.simulate(params, links, thr, cfg, blocks=10**6, seed=1,
                         warmup_blocks=SIM_WARMUP_BLOCKS)
    occupancy = np.array(result.level_occupancy) / result.blocks
    tv = 0.5 * float(np.abs(occupancy - law).sum())
    tv_stationary = 0.5 * float(np.abs(occupancy - pi).sum())
    report(5, "battery-occupancy match", tv < 0.02,
           f"total-variation {tv:.4f} vs the chain's law over the run "
           f"(vs stationary pi {tv_stationary:.3f}, not asserted; "
           f"1-Z[0,0] {1.0 - tm.z[0, 0]:.2e}) at L=20, 20 dBm, N=1 (1e6 blocks)")


def test_criterion_06_source_power_trends():
    curves = {}
    for label, n, levels in (("L20N1", 1, 20), ("L20N3", 3, 20), ("L200N1", 1, 200)):
        curves[label] = [solve_outage(reference_params(p_s_dbm=p, n_antennas=n),
                                      reference_battery(levels=levels)).p_out
                         for p in POWER_GRID_DBM]
    monotone = all(
        b <= a for curve in curves.values() for a, b in zip(curve, curve[1:]))
    finer_no_worse = all(c <= a for a, c in zip(curves["L20N1"], curves["L200N1"]))
    more_antennas = all(b <= a for p, a, b in zip(POWER_GRID_DBM, curves["L20N1"],
                                                  curves["L20N3"]) if p >= 20.0)
    report(6, "source-power sweep trends",
           monotone and finer_no_worse and more_antennas,
           f"monotone={monotone}, L200<=L20={finer_no_worse}, N3<=N1@>=20dBm={more_antennas}")


def test_criterion_07_threshold_sweep_trends():
    # the threshold sweep needs an active relay, so it runs at L=200: with
    # L=20 the discretization freezes the battery entirely below ~22 dBm
    levels = 200
    best = {}
    for p_dbm in (15.0, 20.0):
        params = reference_params(p_s_dbm=p_dbm, n_antennas=1)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        best[p_dbm] = er.optimize_threshold(params, links, thr, 5e-3, levels)[0]
    interior = all(1 < best[p] < levels for p in best)
    shifted = best[20.0] >= best[15.0]
    report(7, "energy-threshold sweep trends", interior and shifted,
           f"optimal levels {best[15.0]} @15dBm, {best[20.0]} @20dBm of {levels}")


def test_criterion_08_optimal_threshold_vs_baseline():
    levels = 200
    never_worse = True
    ratios = {}
    for n in (1, 2, 3):
        for p_dbm in (18.0, 20.0, 22.0, 24.0, 26.0, 28.0, 30.0):
            params = reference_params(p_s_dbm=p_dbm, n_antennas=n)
            links = er.link_stats(params)
            thr = er.thresholds(params.rate)
            _, p_out = er.optimize_threshold(params, links, thr, 5e-3, levels)
            baseline = er.direct_baseline(params, links, thr)
            never_worse &= p_out <= baseline
        params = reference_params(p_s_dbm=25.0, n_antennas=n)
        links = er.link_stats(params)
        thr = er.thresholds(params.rate)
        _, p_out = er.optimize_threshold(params, links, thr, 5e-3, levels)
        ratios[n] = er.direct_baseline(params, links, thr) / p_out
    growing = ratios[1] < ratios[2] < ratios[3]
    report(8, "optimized threshold vs direct baseline", never_worse and growing,
           f"never worse={never_worse}; gain ratios @25dBm: "
           f"{ratios[1]:.1f} < {ratios[2]:.1f} < {ratios[3]:.1f} = {growing}")


def test_criterion_09_retransmission_outage_is_certain():
    params = reference_params(p_s_dbm=15.0, n_antennas=1)
    cfg = reference_battery()
    links = er.link_stats(params)
    thr = er.thresholds(params.rate)
    result = er.simulate(params, links, thr, cfg, blocks=10**6, seed=2)
    blocks_iii = result.mode_counts[2]
    outages_iii = result.mode_outages[2]
    report(9, "retransmission-mode outage rate is one",
           blocks_iii > 0 and outages_iii == blocks_iii,
           f"{outages_iii}/{blocks_iii} retransmission blocks in outage")


def marcum_quadrature(order, a, b):
    if a == 0.0:
        def integrand(x):
            return x ** (2 * order - 1) * math.exp(-0.5 * x * x) / (
                2.0 ** (order - 1) * math.gamma(order))
    else:
        def integrand(x):
            return x * (x / a) ** (order - 1) * math.exp(-0.5 * (x - a) ** 2) \
                * special.ive(order - 1, a * x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(integrand, b, np.inf, epsabs=1e-12,
                                  epsrel=1e-12, limit=400)
    return value


def test_criterion_10_special_functions_vs_quadrature():
    grid = [0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0]
    worst_marcum = 0.0
    for order in (1, 2, 3, 4):
        for a in grid:
            for b in grid:
                diff = abs(er.marcum_q(order, a, b) - marcum_quadrature(order, a, b))
                worst_marcum = max(worst_marcum, diff)
    worst_gamma = 0.0
    for alpha in (0.5, 1.0, 2.0, 3.3, 5.0, 10.0):
        for x in (0.0, 0.1, 1.0, 2.5, 10.0, 25.0, 50.0):
            if x == 0.0:
                ref = 0.0
            else:
                # QUADPACK algebraic weight handles the t^(alpha-1) endpoint
                ref, _ = integrate.quad(lambda t: math.exp(-t), 0.0, x,
                                        weight="alg", wvar=(alpha - 1.0, 0.0))
            mine = er.lower_incomplete_gamma(alpha, x)
            worst_gamma = max(worst_gamma,
                              abs(mine - ref) / math.gamma(alpha))
    report(10, "special functions vs quadrature",
           worst_marcum <= 1e-8 and worst_gamma <= 1e-10,
           f"marcum worst {worst_marcum:.2e} (tol 1e-8), regularized "
           f"incomplete-gamma worst {worst_gamma:.2e} (tol 1e-10)")
