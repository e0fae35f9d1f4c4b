"""Special functions backing the closed-form outage expressions.

Both routines are evaluated from series with explicit truncation
control, so every returned value carries a known absolute error bound
instead of inheriting whatever a black-box library happens to provide.
Probability outputs are clamped to [0, 1] after convergence: the
battery transition matrix built downstream needs rows that sum to one
within tight tolerance and must not inherit last-ulp drift.
`marcum_q` takes an array of b and evaluates all of them in one pass
over the Poisson mixture, which is how the battery chain's CDF tables
are built.
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
    """log of exp(-mu) mu^n / n!  for mu > 0.

    The direct form cancels terms of size n log n and so carries an
    absolute error of about eps * n log n: under 1e-12 below
    _SADDLE_POINT_N, where it is kept so those values do not move, but
    2e-10 at n = 5e4. From _SADDLE_POINT_N on, Loader's saddle-point
    form (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000) is used instead; its pieces are all of the
    size of the result.
    """
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


def _poisson_cdf(k: int, mu: float) -> float:
    """Pr{Poisson(mu) <= k}, accurate in absolute terms for any mu >= 0.

    Summation starts at min(k, floor(mu)) so the largest term is visited
    first; far-tail terms below the 1e-20 cutoff contribute nothing at
    the accuracy this module targets.
    """
    if k < 0:
        return 0.0
    if mu <= 0.0:
        return 1.0
    start = min(k, int(mu))
    head = math.exp(_log_poisson_pmf(start, mu))
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


def poisson_mean_inverse_shift(mu: float, shift: float) -> float:
    """E[1 / (shift + Poisson(mu))] for mu >= 0, shift >= 1."""
    if mu == 0.0:
        return 1.0 / shift
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

    Raises ValidationError for order < 1 or negative/NaN arguments (naming
    the first offending entry of b) and NumericalError, naming order, a
    and the b values that needed the series, if the mass bound is not met
    within _MAX_TERMS = 10000 terms.
    """
    try:
        order = operator.index(order)
    except TypeError:
        raise ValidationError(f"order must be an integer, got {order!r}") from None
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    a = float(a)
    bs = np.asarray(b, dtype=float)
    if not a >= 0.0:
        raise ValidationError(f"a must be >= 0, got {a!r}")
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
    if x.size and lam == 0.0:
        q[series] = [_poisson_cdf(order - 1, xi) for xi in x.tolist()]
    elif x.size:
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
    or None if the Poisson mass bound is not met within _MAX_TERMS terms."""
    n0 = int(lam)
    p0 = math.exp(_log_poisson_pmf(n0, lam))
    xs = x.tolist()
    g0 = np.array([_poisson_cdf(order - 1 + n0, xi) for xi in xs])
    total = p0 * g0
    weight = p0

    # chi-square tails G_n = Pr{Poisson(x) <= order-1+n} are updated
    # incrementally in both directions from n0
    p_hi, g_hi, n_hi = p0, g0, n0
    t_hi = np.array([math.exp(_log_poisson_pmf(order + n0, xi)) for xi in xs])
    p_lo, g_lo, n_lo = p0, g0.copy(), n0
    t_lo = np.array([math.exp(_log_poisson_pmf(order - 1 + n0, xi)) for xi in xs])
    step = np.empty_like(x)

    for _ in range(_MAX_TERMS):
        if 1.0 - weight < _ABS_TOL:
            return total
        before = weight
        n_hi += 1
        p_hi *= lam / n_hi
        g_hi += t_hi
        np.minimum(g_hi, 1.0, out=g_hi)
        t_hi *= np.divide(x, order + n_hi, out=step)
        total += np.multiply(g_hi, p_hi, out=step)
        weight += p_hi
        if n_lo > 0:
            p_lo *= n_lo / lam
            g_lo -= t_lo
            np.maximum(g_lo, 0.0, out=g_lo)
            t_lo *= np.divide(order - 1 + n_lo, x, out=step)
            n_lo -= 1
            total += np.multiply(g_lo, p_lo, out=step)
            weight += p_lo
        if weight == before:
            # the rounded weights can sum to just short of 1 - _ABS_TOL;
            # every term still to come lies below half an ulp of their sum
            return total
    return None


def lower_incomplete_gamma(alpha: float, x: float) -> float:
    """Lower incomplete gamma integral of exp(-t) t^(alpha-1) over [0, x].

    Uses the standard split: power series for x < alpha + 1, Lentz
    continued fraction for the complementary integral otherwise. Both
    converge to near machine precision well before _MAX_TERMS for
    any sane argument range; failure to do so raises NumericalError.
    """
    alpha = float(alpha)
    x = float(x)
    if not alpha > 0.0:
        raise ValidationError(f"alpha must be > 0, got {alpha!r}")
    if not x >= 0.0:
        raise ValidationError(f"x must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    return _regularized_lower_gamma(alpha, x) * math.gamma(alpha)


def _regularized_lower_gamma(a: float, x: float) -> float:
    if x < a + 1.0:
        # series: P(a,x) = x^a e^-x / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n))
        log_pref = a * math.log(x) - x - math.lgamma(a + 1.0)
        term = 1.0
        total = 1.0
        for n in range(1, _MAX_TERMS + 1):
            term *= x / (a + n)
            total += term
            if term < total * 1e-17:
                return min(1.0, max(0.0, math.exp(log_pref) * total))
        raise NumericalError(f"incomplete gamma series stalled at alpha={a}, x={x}")

    # Lentz continued fraction for the upper integral Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
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
            return min(1.0, max(0.0, 1.0 - q))
    raise NumericalError(f"incomplete gamma continued fraction stalled at alpha={a}, x={x}")
