"""Link statistics, link CDFs and the fade sampler of the three-node relay network.

The source-relay link sees independent Rician fading on each relay
antenna; the relay-destination and source-destination links are
Rayleigh. Everything here works with channel POWER gains: under
maximum ratio combining/transmission each SNR in the protocol depends
on the channel vector only through ||h||^2, so individual complex
antenna coefficients are never materialized. Fades are drawn for many
blocks at once by `sample_fade_blocks`; one block is its n = 1 case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .specfun import marcum_q

__all__ = [
    "SystemParams",
    "LinkStats",
    "Thresholds",
    "mean_gain",
    "link_stats",
    "thresholds",
    "cdf_h_sd",
    "cdf_h_sr",
    "sample_fade_blocks",
]


# Largest N*K (antennas times Rician K-factor) accepted. cdf_h_sr's
# Marcum-Q series walks about 7.6 sqrt(N*K) terms out from its Poisson
# mode; at its cap of 10000 terms it first fails near N*K = 1.97e6.
_MAX_LOS_NK = 1e6

# 2.0 ** (2 * rate), and so the threshold gamma2, is finite exactly below this rate
_MAX_RATE = 512.0


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the network, all in linear units."""

    p_s: float         # source transmit power [W]
    n0: float          # noise power [W]
    eta: float         # RF-to-DC conversion efficiency, (0, 1]
    rate: float        # transmission rate [bit/s/Hz]
    n_antennas: int    # relay antenna count
    rician_k: float    # Rician K-factor of the source-relay link
    d_sd: float        # source-destination distance [m]
    d_sr: float        # source-relay distance [m]
    d_rd: float        # relay-destination distance [m]
    alpha: float       # path-loss exponent, in [2, 5]

    def __post_init__(self):
        for name in ("p_s", "n0", "eta", "rate", "rician_k", "d_sd", "d_sr", "d_rd", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.p_s > 0.0:
            raise ValidationError(f"p_s must be > 0, got {self.p_s!r}")
        if not self.n0 > 0.0:
            raise ValidationError(f"n0 must be > 0, got {self.n0!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ValidationError(f"eta must be in (0, 1], got {self.eta!r}")
        _check_rate(self.rate)
        if not (isinstance(self.n_antennas, int) and self.n_antennas >= 1):
            raise ValidationError(f"n_antennas must be an integer >= 1, got {self.n_antennas!r}")
        if not self.rician_k >= 0.0:
            raise ValidationError(f"rician_k must be >= 0, got {self.rician_k!r}")
        if self.n_antennas * self.rician_k > _MAX_LOS_NK:
            raise ValidationError(
                f"rician_k={self.rician_k!r} with n_antennas={self.n_antennas} gives "
                f"N*K = {self.n_antennas * self.rician_k:.6g}; the source-relay CDF is "
                f"evaluated for N*K <= {_MAX_LOS_NK:.0e} only")
        for name in ("d_sd", "d_sr", "d_rd"):
            _check_distance(name, getattr(self, name), self.alpha)


def _check_rate(rate: float) -> None:
    """Refuse a rate whose thresholds 2^rate - 1 < 2^(2 rate) - 1 are not
    both positive, distinct and finite."""
    if not 0.0 < rate < _MAX_RATE:
        raise ValidationError(
            f"rate must be in (0, {_MAX_RATE:g}), where gamma2 = 2^(2 rate) - 1 "
            f"leaves the float range, got {rate!r}")
    gamma1, gamma2 = 2.0**rate - 1.0, 2.0 ** (2.0 * rate) - 1.0
    if not 0.0 < gamma1 < gamma2:
        raise ValidationError(
            f"rate = {rate!r} is too small: the thresholds 2^rate - 1 and "
            f"2^(2 rate) - 1 round to {gamma1!r} and {gamma2!r}")


def _check_distance(name: str, d: float, alpha: float) -> None:
    """Refuse a path-loss exponent outside [2, 5], or a distance `name` that
    is not positive or whose path loss d^alpha leaves the float range."""
    if not 2.0 <= alpha <= 5.0:
        raise ValidationError(f"alpha must be in [2, 5], got {alpha!r}")
    if not d > 0.0:
        raise ValidationError(f"{name} must be > 0, got {d!r}")
    try:
        loss = float(d) ** alpha
    except OverflowError:
        loss = math.inf
    if loss == math.inf:
        raise ValidationError(
            f"{name} = {d!r} at alpha = {alpha!r} puts the path loss "
            f"{name}^alpha outside the float range")


@dataclass(frozen=True)
class LinkStats:
    """Mean channel power gains (per antenna element) of the three links."""

    omega_sd: float
    omega_sr: float
    omega_rd: float

    def __post_init__(self):
        for name in ("omega_sd", "omega_sr", "omega_rd"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be > 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class Thresholds:
    """SNR decode thresholds: gamma1 for a single slot carrying a fresh
    packet, gamma2 for the same packet repeated over both slots."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not 0.0 < self.gamma1 < self.gamma2:
            raise ValidationError(
                f"need 0 < gamma1 < gamma2, got {self.gamma1!r}, {self.gamma2!r}"
            )
        expected = self.gamma1 * self.gamma1 + 2.0 * self.gamma1
        if abs(self.gamma2 - expected) > 1e-9 * max(1.0, expected):
            raise ValidationError(
                f"gamma2 must equal gamma1^2 + 2*gamma1 (same rate for both "
                f"slot layouts), got {self.gamma2!r} vs {expected!r}"
            )


def mean_gain(d: float, alpha: float) -> float:
    """Mean channel power gain (1 + d^alpha)^-1 at distance d."""
    _check_distance("distance", d, alpha)
    return 1.0 / (1.0 + d**alpha)


def link_stats(params: SystemParams) -> LinkStats:
    """Mean gains of the three links from the node geometry."""
    return LinkStats(
        omega_sd=mean_gain(params.d_sd, params.alpha),
        omega_sr=mean_gain(params.d_sr, params.alpha),
        omega_rd=mean_gain(params.d_rd, params.alpha),
    )


def thresholds(rate: float) -> Thresholds:
    """Decode thresholds gamma1 = 2^rate - 1 and gamma2 = 2^(2 rate) - 1."""
    _check_rate(rate)
    return Thresholds(gamma1=2.0**rate - 1.0, gamma2=2.0 ** (2.0 * rate) - 1.0)


def cdf_h_sd(x: float, omega_sd: float) -> float:
    """CDF of the Rayleigh-faded direct-link power gain: 1 - exp(-x/omega)."""
    if not x >= 0.0:
        raise ValidationError(f"x must be >= 0, got {x!r}")
    return -math.expm1(-x / omega_sd)


def cdf_h_sr(x, params: SystemParams, omega_sr: float):
    """CDF of the N-antenna Rician source-relay power gain, at one x or an array.

    F(x) = 1 - Q_N(sqrt(2 N K), sqrt(2 (K+1) x / omega_sr)) with the
    per-antenna K-factor and per-antenna mean gain omega_sr. Every x
    shares one Marcum-Q pass (see marcum_q); a scalar x is the size-1
    case and returns a float, an array returns an array of its shape.
    F(0) = 0 exactly, since Q_N(a, 0) = 1.
    """
    xs = np.asarray(x, dtype=float)
    bad = ~(xs >= 0.0)
    if bad.any():
        raise ValidationError(f"x must be >= 0, got {float(xs[bad][0])!r}")
    n = params.n_antennas
    k = params.rician_k
    a = math.sqrt(2.0 * n * k)
    # b past the float range is meant: Q_N(a, inf) = 0
    with np.errstate(over="ignore"):
        b = np.sqrt(2.0 * (k + 1.0) * xs / omega_sr)
    return 1.0 - marcum_q(n, a, b)


def sample_fade_blocks(params: SystemParams, links: LinkStats,
                       rng: np.random.Generator, n: int):
    """Draw n independent block fades for all three links at once.

    Returns (h_sd, h_sr, h_rd) arrays of length n. Consumption order of
    the stream is fixed (h_sd, then h_rd, then per-antenna normal pairs
    for h_sr), so a given seed always yields the same fades. Each
    antenna contributes |mu + sigma (g1 + i g2)|^2 to h_sr with
    mu^2 = K omega_sr / (K+1) and 2 sigma^2 = omega_sr / (K+1), which
    reproduces cdf_h_sr and gives E[h_sr] = n_antennas * omega_sr.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n!r}")
    h_sd = rng.exponential(links.omega_sd, size=n)
    h_rd = rng.gamma(shape=params.n_antennas, scale=links.omega_rd, size=n)
    k = params.rician_k
    mu = math.sqrt(k * links.omega_sr / (k + 1.0))
    sigma = math.sqrt(links.omega_sr / (2.0 * (k + 1.0)))
    h_sr = np.zeros(n)
    for _ in range(params.n_antennas):
        g1 = rng.standard_normal(n)
        g2 = rng.standard_normal(n)
        h_sr += (mu + sigma * g1) ** 2 + (sigma * g2) ** 2
    return h_sd, h_sr, h_rd
