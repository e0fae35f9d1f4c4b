"""Shared test fixtures: the reference network setup, the analytic
oracles, a chain the GTH solve cannot finish, the one-block protocol
reference, the frozen scalar Marcum-Q and the plain reachability search
used across the suite."""

import math

import numpy as np

import ehrelay as er

NOISE_W = 1e-9  # -60 dBm


def dbm(value):
    return 10.0 ** ((value - 30.0) / 10.0)


def reference_params(p_s_dbm=20.0, n_antennas=1, **overrides):
    """Default 80/10/70 m geometry, alpha 3, K 10, eta 0.5, rate 1."""
    fields = dict(
        p_s=dbm(p_s_dbm),
        n0=NOISE_W,
        eta=0.5,
        rate=1.0,
        n_antennas=n_antennas,
        rician_k=10.0,
        d_sd=80.0,
        d_sr=10.0,
        d_rd=70.0,
        alpha=3.0,
    )
    fields.update(overrides)
    return er.SystemParams(**fields)


def reference_battery(levels=20, e_t=1e-3, capacity=5e-3):
    return er.BatteryConfig(capacity=capacity, levels=levels, e_t=e_t)


def lone_chain(family, k_thr):
    """The TransitionMatrix of one threshold level of `family`, as
    build_transition_matrix makes it: ChainFamily.fill into a fresh array,
    whose NumericalError is raised."""
    z = np.empty((family.levels + 1, family.levels + 1))
    failed = family.fill(k_thr, z)
    if failed is not None:
        raise failed
    return er.TransitionMatrix(z)


def solve_outage(params, battery):
    """Analytic pipeline: chain -> stationary state -> outage breakdown."""
    links = er.link_stats(params)
    thr = er.thresholds(params.rate)
    tm = er.build_transition_matrix(params, links, thr, battery)
    pi = er.reachable_steady_state(tm)
    return er.outage_probability(params, links, thr, battery, pi)


def search_threshold(params, levels, capacity=5e-3):
    """The threshold search of evaluate_point(..., optimize=True) over a
    battery of `levels` levels: (chosen level, its outage)."""
    point = er.evaluate_point(params, reference_battery(levels, capacity=capacity),
                              optimize=True)
    return point.optimal_level, point.breakdown.p_out


def zero_pivot_chain(n, state):
    """A walk on 0..n-1 whose states from `state` up never move below it:
    everything is reachable from 0, but the chain is not irreducible, and
    GTH meets its first zero pivot at `state`."""
    z = np.zeros((n, n))
    for i in range(n):
        z[i, min(i + 1, n - 1)] += 0.5
        z[i, i - 1 if i > state else i] += 0.5
    return z


def reachable_reference(pattern):
    """States reachable from state 0 on a square boolean pattern, state 0
    included, as a list of bools: a plain breadth-first search over the
    pattern's entries, one state at a time. Written from the definition
    alone, so it is an oracle for the solver's reachability scan that
    shares no code with it."""
    rows = [[bool(entry) for entry in row] for row in pattern]
    seen = [False] * len(rows)
    seen[0] = True
    queue = [0]
    while queue:
        state = queue.pop(0)
        for target, edge in enumerate(rows[state]):
            if edge and not seen[target]:
                seen[target] = True
                queue.append(target)
    return seen


def reference_block(state, h_sd, h_sr, h_rd, params, thr, cfg, continuous=False):
    """One block of the protocol from battery `state`, with plain floats:
    (mode 1-4, outage, battery after the block).

    The battery is a level index, or joules with `continuous`; it is
    charged once it holds the threshold (eps_t_level levels, or e_t).
    Direct link up: mode 1 (not charged) harvests the whole block, mode
    2 (charged) half of it, since the relay listens for the other half.
    Direct link down: mode 3 (not charged) has the source repeat the
    packet while the relay harvests the whole block, lost unless twice
    the direct SNR reaches gamma2; mode 4 (charged) has the relay spend
    the threshold energy over half a block (power 2 e) to forward, lost
    unless both the relay's SNR and the combined direct-plus-relay SNR
    reach gamma2. A discrete harvest rounds to the largest level below
    it; the battery saturates at capacity. Written from the protocol
    alone, independently of the simulator's code."""
    p_s, n0 = params.p_s, params.n0
    if continuous:
        drain, relay_energy, top = cfg.e_t, cfg.e_t, cfg.capacity
    else:
        drain, relay_energy, top = cfg.eps_t_level, cfg.eps_t_level * cfg.step, cfg.levels
    direct_down = h_sd < thr.gamma1 * n0 / p_s
    charged = state >= drain
    if charged and direct_down:
        relay_snr = p_s * h_sr / n0
        combined_snr = p_s * h_sd / n0 + 2.0 * relay_energy * h_rd / n0
        return 4, min(relay_snr, combined_snr) < thr.gamma2, state - drain
    harvest = params.eta * p_s * h_sr
    if charged:
        harvest *= 0.5
    if not continuous:
        harvest = min(max(math.ceil(harvest / cfg.step) - 1, 0), cfg.levels)
    after = min(state + harvest, top)
    if charged:
        return 2, False, after
    if direct_down:
        return 3, 2.0 * (p_s * h_sd / n0) < thr.gamma2, after
    return 1, False, after


def _power_and_sum(z, k):
    """(Z^k, sum_{j<k} Z^j) by binary doubling: O(log k) matrix products."""
    eye = np.eye(z.shape[0])
    power, total = eye, np.zeros_like(eye)
    step_power, step_total = z, eye          # the pair for a run of 2^i steps
    while k:
        if k & 1:
            total = total + power @ step_total
            power = power @ step_power
        step_total = step_total + step_power @ step_total
        step_power = step_power @ step_power
        k >>= 1
    return power, total


def window_occupancy(z, start, warmup, blocks):
    """Expected fraction of measured blocks spent at each level when the
    chain Z starts at level `start`, skips `warmup` blocks and then
    measures `blocks` blocks: the Cesaro mean of e_start Z^m over
    m in [warmup, warmup + blocks). Depends on Z alone, so it is an
    oracle for the simulator's occupancy that shares no code with it."""
    skipped, _ = _power_and_sum(z, warmup)
    _, window = _power_and_sum(z, blocks)
    return skipped[start] @ window / blocks


def _reference_log_poisson_pmf(n, mu):
    if n == 0:
        return -mu
    if n < 500:
        return -mu + n * math.log(mu) - math.lgamma(n + 1.0)
    stirling = (1.0 / 12.0 - 1.0 / (360.0 * n * n)) / n
    d = n - mu
    if abs(d) >= 0.1 * (n + mu):
        deviance = n * math.log(n / mu) + mu - n
    else:
        v = d / (n + mu)
        deviance, term, v2, j = d * v, 2.0 * n * v, v * v, 1
        while True:
            term *= v2
            nxt = deviance + term / (2 * j + 1)
            if nxt == deviance:
                break
            deviance, j = nxt, j + 1
    return -0.5 * (math.log(2.0 * math.pi) + math.log(n)) - stirling - deviance


def _reference_poisson_cdf(k, mu):
    start = min(k, int(mu))
    head = math.exp(_reference_log_poisson_pmf(start, mu))
    total = head
    term, j = head, start
    while j > 0 and term > 1e-20:
        term *= j / mu
        j -= 1
        total += term
    term, j = head, start
    while j < k and term > 1e-20:
        j += 1
        term *= mu / j
        total += term
    return min(total, 1.0)


def marcum_q_reference(order, a, b):
    """Q_order(a, b) for one b, one Python float at a time: a frozen copy of
    marcum_q's Poisson mixture as it stood with scalar start values (one
    scalar Poisson CDF and two scalar pmfs per entry), with the mixture
    recurrence written for one entry. marcum_q must match it bit for bit;
    None where the mixture does not converge within 10000 terms."""
    x = 0.5 * b * b
    if x < 1e-300:
        return 1.0
    if x == math.inf:
        return 0.0
    lam = 0.5 * a * a
    n0 = int(lam)
    p0 = math.exp(_reference_log_poisson_pmf(n0, lam))
    g0 = _reference_poisson_cdf(order - 1 + n0, x)
    total, weight = p0 * g0, p0
    if 1.0 - weight < 1e-12:
        return min(max(total, 0.0), 1.0)
    p_hi, g_hi, n_hi = p0, g0, n0
    t_hi = math.exp(_reference_log_poisson_pmf(order + n0, x))
    p_lo, g_lo, n_lo = p0, g0, n0
    t_lo = math.exp(_reference_log_poisson_pmf(order - 1 + n0, x))
    for _ in range(10000):
        if 1.0 - weight < 1e-12:
            return min(max(total, 0.0), 1.0)
        before = weight
        n_hi += 1
        p_hi *= lam / n_hi
        g_hi = min(g_hi + t_hi, 1.0)
        t_hi *= x / (order + n_hi)
        total += g_hi * p_hi
        weight += p_hi
        if n_lo > 0:
            p_lo *= n_lo / lam
            g_lo = max(g_lo - t_lo, 0.0)
            t_lo *= (order - 1 + n_lo) / x
            n_lo -= 1
            total += g_lo * p_lo
            weight += p_lo
        if weight == before:
            return min(max(total, 0.0), 1.0)
    return None
