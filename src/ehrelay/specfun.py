"""Special functions backing the closed-form outage expressions.

Both routines are evaluated from series with explicit truncation
control, so every returned value carries a known absolute error bound
instead of inheriting whatever a black-box library happens to provide.
Probability outputs are clamped to [0, 1] after convergence: the
battery transition matrix built downstream needs rows that sum to one
within tight tolerance and must not inherit last-ulp drift.
`marcum_q` takes an array of b and evaluates all of them in one pass
over the Poisson mixture, which is how the battery chain's CDF tables
are built. The pass's start values, a Poisson CDF and two Poisson pmfs
per entry, are array code too: they keep the scalar order of
operations and take math.exp and math.log entry by entry (np.exp and
np.log differ from them in the last bit on some doubles), so every
entry keeps the bits of one scalar evaluation.
"""

import math
import operator

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = ["marcum_q", "lower_incomplete_gamma", "poisson_mean_inverse_shift"]

# bound on the neglected tail of the Poisson-mixture series
_ABS_TOL = 1e-12
# iteration cap of every series before it is declared nonconvergent
_MAX_TERMS = 10000


# counts from which _log_poisson_pmf switches to the saddle-point form
_SADDLE_POINT_N = 500
_LOG_2PI = math.log(2.0 * math.pi)


def _log_poisson_pmf(n: int, mu: float) -> float:
    """log of exp(-mu) mu^n / n!  for mu > 0, and -mu at n = 0 for any mu >= 0.

    -mu is the direct form's exact value at n = 0, where 0 log mu and
    lgamma(1) are zeros, and it gives pmf 1 at mu = 0.

    The direct form cancels terms of size n log n and so carries an
    absolute error of about eps * n log n: under 1e-12 below
    _SADDLE_POINT_N, where it is kept so those values do not move, but
    2e-10 at n = 5e4. From _SADDLE_POINT_N on, Loader's saddle-point
    form (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000) is used instead; its pieces are all of the
    size of the result.
    """
    if n == 0:
        return -mu
    if n < _SADDLE_POINT_N:
        return -mu + n * math.log(mu) - math.lgamma(n + 1.0)
    # Stirling-series remainder lgamma(n+1) - (n+1/2) log n + n - log(2 pi)/2;
    # the next term, 1/(1260 n^5), is below 1e-16 here
    stirling = (1.0 / 12.0 - 1.0 / (360.0 * n * n)) / n
    return -0.5 * (_LOG_2PI + math.log(n)) - stirling - _deviance(n, mu)


def _deviance(n: int, mu: float) -> float:
    """n log(n / mu) + mu - n without cancellation when n is near mu."""
    d = n - mu
    if abs(d) >= 0.1 * (n + mu):
        return n * math.log(n / mu) + mu - n
    v = d / (n + mu)
    total = d * v
    term = 2.0 * n * v
    v2 = v * v
    j = 1
    while True:
        term *= v2
        nxt = total + term / (2 * j + 1)
        if nxt == total:
            return total
        total = nxt
        j += 1


def poisson_mean_inverse_shift(mu: float, shift: float) -> float:
    """E[1 / (shift + Poisson(mu))] for finite mu >= 0 (1 / shift at mu = 0),
    shift >= 1. A NaN, infinite or negative mu raises ValidationError."""
    if not 0.0 <= mu < math.inf:
        raise ValidationError(f"mu must be finite and >= 0, got {mu!r}")
    if mu > 1e3:
        # concentration expansion in the central moments; the omitted term
        # is O(mu^-3) relative, far below every tolerance in play here
        m = shift + mu
        return 1.0 / m + mu / m**3 - mu / m**4 + (3.0 * mu * mu + mu) / m**5
    n0 = int(mu)
    p = math.exp(_log_poisson_pmf(n0, mu))
    total = p / (shift + n0)
    weight = p
    p_hi, n_hi = p, n0
    p_lo, n_lo = p, n0
    for _ in range(_MAX_TERMS):
        if 1.0 - weight < 1e-13:
            return total
        before = weight
        n_hi += 1
        p_hi *= mu / n_hi
        total += p_hi / (shift + n_hi)
        weight += p_hi
        if n_lo > 0:
            p_lo *= n_lo / mu
            n_lo -= 1
            total += p_lo / (shift + n_lo)
            weight += p_lo
        if weight == before:
            # the rounded weights can sum to just short of 1 - 1e-13;
            # every term still to come lies below half an ulp of their sum
            return total
    raise NumericalError(f"Poisson average stalled at mu={mu}, shift={shift}")


# below this b^2/2 the series is not run: 1 - Q_N(a, b) <= b^2/2, so Q
# rounds to 1, while the downward chi-square recurrence's ratios
# (order-1+n) / x could overflow to inf
_X_TINY = 1e-300


def marcum_q(order: int, a: float, b):
    """Generalized Marcum Q-function Q_order(a, b), for one b or an array of b.

    Equals the upper tail at b^2 of a noncentral chi-square law with
    2*order degrees of freedom and noncentrality a^2. Evaluated as a
    Poisson mixture of central chi-square tails,

        Q_N(a, b) = sum_n pois(n; a^2/2) * Pr{chi2_{2(N+n)} > b^2},

    accumulated outward from the Poisson mode. Because every chi-square
    factor lies in [0, 1], the unaccounted Poisson mass bounds the
    neglected tail; iteration stops once that mass drops below
    _ABS_TOL = 1e-12, or once a step no longer moves the rounded weight
    sum (which can settle a few ulps short of 1). Working from the mode
    keeps the evaluation in range for arguments far beyond the overflow
    point of the Bessel series form.

    The Poisson weights and so the stopping point depend on `a` alone,
    so one pass over the mixture index serves every b: the chi-square
    tails and the running sums are arrays over b, and each element goes
    through exactly the floating-point steps a lone b would. A scalar b
    is the size-1 case and returns a float; an array b returns an array
    of its shape. Q is exactly 1 where b^2/2 < 1e-300 (b = 0 included)
    and exactly 0 where b^2/2 overflows.

    Raises ValidationError for order < 1, negative/NaN arguments (naming
    the first offending entry of b) or an a whose a^2/2 overflows, and
    NumericalError, naming order, a and the b values that needed the
    series, if the mass bound is not met within _MAX_TERMS = 10000 terms.
    """
    try:
        order = operator.index(order)
    except TypeError:
        raise ValidationError(f"order must be an integer, got {order!r}") from None
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    a = float(a)
    bs = np.asarray(b, dtype=float)
    if not (a >= 0.0 and 0.5 * a * a < math.inf):
        raise ValidationError(f"a must be >= 0 with a*a/2 finite, got {a!r}")
    bad = ~(bs >= 0.0)
    if bad.any():
        raise ValidationError(f"b must be >= 0, got {float(bs[bad][0])!r}")
    q = np.ones(bs.shape)
    # b^2 past the float range is meant: such b have Q = 0 below
    with np.errstate(over="ignore"):
        x = 0.5 * bs * bs
    q[x == math.inf] = 0.0
    series = (x >= _X_TINY) & (x < math.inf)
    x = x[series]
    lam = 0.5 * a * a  # Poisson mean of the mixture
    if x.size:
        # at lam = 0 the mixture is its first term, Pr{Poisson(x) <= order-1}
        mixed = _poisson_mixture(order, lam, x)
        if mixed is None:
            shown = (float(bs) if bs.ndim == 0 else
                     np.array2string(bs[series], threshold=8, max_line_width=10**9))
            raise NumericalError(
                f"marcum_q(order={order}, a={a}, b={shown}) did not reach the tail "
                f"bound {_ABS_TOL} within {_MAX_TERMS} terms"
            )
        q[series] = mixed
    np.clip(q, 0.0, 1.0, out=q)
    return float(q) if q.ndim == 0 else q


def _poisson_mixture(order: int, lam: float, x: np.ndarray):
    """sum_n pois(n; lam) Pr{Poisson(x) <= order-1+n} for every entry of x > 0,
    or None if the Poisson mass bound is not met within _MAX_TERMS terms.

    The weights and so the number of terms depend on lam alone, so they
    are found first (_mixture_weights), and a mixture that would not
    converge is refused before any start value is computed. The start
    values, G = Pr{Poisson(x) <= k} and the pmf at k and k+1 for
    k = order-1+int(lam), are arrays over x bit for bit equal to one
    scalar evaluation per entry (see _poisson_pmfs and _poisson_cdfs)."""
    n0 = int(lam)
    p0 = math.exp(_log_poisson_pmf(n0, lam))
    weights = _mixture_weights(lam, n0, p0)
    if weights is None:
        return None
    k = order - 1 + n0
    log_x = _map(math.log, x)
    t_lo = _poisson_pmfs(k, x, log_x)
    g0 = _poisson_cdfs(k, x, log_x, t_lo)
    total = p0 * g0
    if not weights:
        # lam = 0 (a = 0, Rician K = 0): the mixture is its first term
        return total

    # chi-square tails G_n = Pr{Poisson(x) <= order-1+n} are updated
    # incrementally in both directions from n0
    g_hi, n_hi = g0, n0
    t_hi = _poisson_pmfs(k + 1, x, log_x)
    g_lo, n_lo = g0.copy(), n0
    step = np.empty_like(x)
    for p_hi, p_lo in weights:
        n_hi += 1
        g_hi += t_hi
        np.minimum(g_hi, 1.0, out=g_hi)
        t_hi *= np.divide(x, order + n_hi, out=step)
        total += np.multiply(g_hi, p_hi, out=step)
        if p_lo is not None:
            g_lo -= t_lo
            np.maximum(g_lo, 0.0, out=g_lo)
            t_lo *= np.divide(order - 1 + n_lo, x, out=step)
            n_lo -= 1
            total += np.multiply(g_lo, p_lo, out=step)
    return total


def _mixture_weights(lam: float, n0: int, p0: float):
    """The Poisson weights the mixture adds after pois(n0; lam) = p0, as
    (weight at n0 + t, weight at n0 - t or None once below 0) for
    t = 1, 2, ...: a list of one pair per term, or None if the mass bound
    is not met within _MAX_TERMS terms. Iteration stops once the summed
    weight is within _ABS_TOL of 1, or once a term no longer moves it."""
    weights = []
    weight = p0
    p_hi, n_hi = p0, n0
    p_lo, n_lo = p0, n0
    for _ in range(_MAX_TERMS):
        if 1.0 - weight < _ABS_TOL:
            return weights
        before = weight
        n_hi += 1
        p_hi *= lam / n_hi
        weight += p_hi
        low = None
        if n_lo > 0:
            p_lo *= n_lo / lam
            n_lo -= 1
            weight += p_lo
            low = p_lo
        weights.append((p_hi, low))
        if weight == before:
            # the rounded weights can sum to just short of 1 - _ABS_TOL;
            # every term still to come lies below half an ulp of their sum
            return weights
    return None


def _map(f, x: np.ndarray) -> np.ndarray:
    """f of every entry of x, one Python float at a time: the start values
    take math.exp and math.log, whose results np.exp and np.log do not
    always match to the last bit."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _poisson_pmfs(n: int, x: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """math.exp(_log_poisson_pmf(n, x_i)) for every entry x_i > 0, bit for
    bit, given log_x = math.log of each entry.

    Below _SADDLE_POINT_N the direct form is array arithmetic in
    _log_poisson_pmf's order of operations (at n = 0 it gives -x exactly, as
    0 * log x and lgamma(1) are zeros); from it on each entry takes the
    saddle-point form alone."""
    if n >= _SADDLE_POINT_N:
        return _map(lambda xi: math.exp(_log_poisson_pmf(n, xi)), x)
    return _map(math.exp, -x + n * log_x - math.lgamma(n + 1.0))


def _poisson_cdfs(k: int, x: np.ndarray, log_x: np.ndarray, pmf_k: np.ndarray) -> np.ndarray:
    """Pr{Poisson(x_i) <= k} for k >= 0 and every entry x_i >= _X_TINY, given
    log_x = math.log of each entry and pmf_k, the pmf at k; accurate in
    absolute terms.

    Each sum starts at the head count min(k, int(x_i)), so the largest
    term is visited first, walks down to 0 and then up to k, and each walk
    stops after its first term at most 1e-20: far-tail terms below that
    cutoff contribute nothing at the accuracy this module targets. Where
    int(x_i) >= k the head is pmf_k itself. The other heads take the
    direct pmf form as array arithmetic in _log_poisson_pmf's order of
    operations, with math.lgamma taken once for each count up to the
    largest, or from _SADDLE_POINT_N on the saddle-point form one entry at
    a time. Every entry goes through exactly the floating-point steps of a
    scalar sum that runs the same walks one term at a time.
    """
    start = np.full(x.shape, float(k))
    head = pmf_k.copy()
    low = np.flatnonzero(x < k)  # int(x) < k: the head count is int(x)
    if low.size:
        xl = x[low]
        counts = np.floor(xl)
        start[low] = counts
        top = counts.max()
        lgamma = np.array([math.lgamma(c + 1.0)
                           for c in range(min(int(top), _SADDLE_POINT_N - 1) + 1)])
        lp = (-xl + counts * log_x[low]
              - lgamma[np.minimum(counts, _SADDLE_POINT_N - 1).astype(np.intp)])
        if top >= _SADDLE_POINT_N:
            for i in np.flatnonzero(counts >= _SADDLE_POINT_N).tolist():
                lp[i] = _log_poisson_pmf(int(xl[i]), float(xl[i]))
        head[low] = _map(math.exp, lp)
    total = head.copy()
    _walk(total, np.flatnonzero(head > 1e-20), head, start, x)
    _walk(total, low[head[low] > 1e-20], head, start, x, k)
    return np.minimum(total, 1.0, out=total)


# entries times steps of one block of a _walk
_WALK_CELLS = 1 << 14


def _walk(total, idx, head, start, x, k=None):
    """Add to total[idx], in place, the walk of each listed entry outward
    from its head: count j = start and term = head. Downward (k None), each
    step is term *= j / x; j -= 1, while j > 0; upward, j += 1;
    term *= x / j, while j < k. Every step then adds total += term, and an
    entry stops once a term it added is at most 1e-20.

    The steps run in blocks: along a row, an entry's terms are one running
    product and its sums one running sum, so each is formed exactly as a
    loop over the steps forms it. Each ratio is at most 1, so the terms
    only shrink; a step past the end of the walk has ratio 0 (j = 0 on the
    way down, a divisor masked past k on the way up), and every term after
    the one that stopped the walk adds an exact zero. The entries still
    walking go on to the next block, which spans at most _WALK_CELLS
    entries times steps, and no more steps than the longest walk left.
    """
    term, j, x, tot = head[idx], start[idx], x[idx], total[idx]
    while idx.size:
        n = idx.size
        width = min(int((j if k is None else k - j).max()) + 1, max(1, _WALK_CELLS // n))
        steps = np.arange(width, dtype=float)
        a = np.zeros((n, width + 1))
        a[:, 0] = term
        if k is None:
            np.divide(j[:, None] - steps, x[:, None], out=a[:, 1:])
        else:
            count = j[:, None] + (steps + 1.0)
            np.divide(x[:, None], count, out=a[:, 1:], where=count <= k)
        terms = np.multiply.accumulate(a, axis=1)
        np.multiply(terms[:, 1:], terms[:, :-1] > 1e-20, out=a[:, 1:])
        a[:, 0] = tot
        sums = np.add.accumulate(a, axis=1)
        term, tot = terms[:, -1], sums[:, -1]
        going = term > 1e-20
        if not going.any():
            total[idx] = tot
            return
        stopped = ~going
        total[idx[stopped]] = tot[stopped]
        idx, term, tot, x = idx[going], term[going], tot[going], x[going]
        j = j[going] - width if k is None else j[going] + width


def lower_incomplete_gamma(alpha: float, x: float) -> float:
    """Lower incomplete gamma integral of exp(-t) t^(alpha-1) over [0, x].

    Uses the standard split: power series for x < alpha + 1, Lentz
    continued fraction for the complementary integral otherwise. Both
    converge to near machine precision well before _MAX_TERMS for
    any sane argument range; failure to do so raises NumericalError.
    The regularized value is scaled by math.gamma(alpha); above
    alpha = 171.6, where that overflows, the result is taken in logs
    instead, and one past the float range raises NumericalError.
    alpha >= 2**53 is refused: there x + 1 - alpha rounds to zero.
    """
    alpha = float(alpha)
    x = float(x)
    if not 0.0 < alpha < math.inf:
        raise ValidationError(f"alpha must be finite and > 0, got {alpha!r}")
    if alpha >= 2.0**53:
        raise ValidationError(f"alpha must be below 2**53, got {alpha!r}")
    if not 0.0 <= x < math.inf:
        raise ValidationError(f"x must be finite and >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    try:
        scale = math.gamma(alpha)
    except OverflowError:
        try:
            return math.exp(_regularized_lower_gamma(alpha, x, log=True) + math.lgamma(alpha))
        except OverflowError:
            raise NumericalError(f"lower incomplete gamma at alpha={alpha}, x={x} "
                                 "exceeds the float range") from None
    return _regularized_lower_gamma(alpha, x) * scale


def _regularized_lower_gamma(a: float, x: float, log: bool = False) -> float:
    """P(a, x), the lower integral over Gamma(a), or log P(a, x) with log."""
    if x < a + 1.0:
        # series: P(a,x) = x^a e^-x / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n))
        log_pref = a * math.log(x) - x - math.lgamma(a + 1.0)
        term = 1.0
        total = 1.0
        for n in range(1, _MAX_TERMS + 1):
            term *= x / (a + n)
            total += term
            if term < total * 1e-17:
                if log:
                    return log_pref + math.log(total)
                return min(1.0, max(0.0, math.exp(log_pref) * total))
        raise NumericalError(f"incomplete gamma series stalled at alpha={a}, x={x}")

    # Lentz continued fraction for the upper integral Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            q = math.exp(a * math.log(x) - x - math.lgamma(a)) * h
            if log:
                return math.log1p(-q)
            return min(1.0, max(0.0, 1.0 - q))
    raise NumericalError(f"incomplete gamma continued fraction stalled at alpha={a}, x={x}")
