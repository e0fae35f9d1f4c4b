"""Finite-level relay battery: transition matrix and stationary state.

The battery is discretized into `levels` equal energy steps. Rows of
the transition matrix split into two regimes. Below the cooperation
threshold the relay harvests over the whole block, so charging
probabilities come from the source-relay gain CDF at one-level energy
multiples. At or above the threshold the relay spends the first slot
decoding: it either harvests over half a block (direct link up) or
discharges by exactly the threshold level count (direct link down).
Only the discharge depends on the threshold, so `ChainFamily` builds
the CDF tables once, with two read-only Toeplitz views of their
increments (O(L) memory), and assembles the matrix of any threshold
level by copying rows from those views.

Stationary laws come from GTH (state-elimination) solves, which use no
subtractions and so keep full relative accuracy however stiff the
chain is (a real regime here: at low source power the level
discretization rounds essentially every harvest to zero). The solve
eliminates states from the top in blocks and touches only the lower
band read off the chain's nonzero pattern (k_thr wide for a battery
chain), which stays the same width as elimination proceeds.
`reachable_steady_state` solves the closed class reachable from the
empty battery; `steady_state` first checks that the whole chain is
irreducible and refuses it otherwise.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import LinkStats, SystemParams, Thresholds, cdf_h_sd, cdf_h_sr
from .errors import NumericalError, ValidationError

__all__ = [
    "BatteryConfig",
    "ChainFamily",
    "TransitionMatrix",
    "SteadyState",
    "discretize_harvest",
    "build_transition_matrix",
    "steady_state",
    "reachable_steady_state",
]

# a chain over L+1 states is a dense (L+1)^2 float64 matrix: 128 MiB at L = 4096
_MAX_CHAIN_LEVELS = 4096

# largest battery of any kind: a simulation keeps one occupancy count per
# level, which costs tens of MiB at this bound whatever the block count
_MAX_LEVELS = 1_000_000

# states eliminated per block by the GTH solve
_GTH_BLOCK = 8


@dataclass(frozen=True)
class BatteryConfig:
    """Discretized battery with a configured cooperation threshold.

    eps_t_level is the smallest level index whose energy covers e_t;
    that level count is what a cooperative transmission actually drains.
    """

    capacity: float          # battery capacity C [J]
    levels: int              # number of charge steps L (states 0..L)
    e_t: float               # configured cooperation threshold [J]
    eps_t_level: int = field(init=False)

    def __post_init__(self):
        for name in ("capacity", "e_t"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.capacity > 0.0:
            raise ValidationError(f"capacity must be > 0, got {self.capacity!r}")
        if not (isinstance(self.levels, int) and self.levels >= 1):
            raise ValidationError(f"levels must be an integer >= 1, got {self.levels!r}")
        if self.levels > _MAX_LEVELS:
            raise ValidationError(
                f"levels={self.levels} exceeds the largest supported battery, "
                f"levels <= {_MAX_LEVELS}")
        if not self.e_t > 0.0:
            raise ValidationError(f"e_t must be > 0, got {self.e_t!r}")
        if self.e_t > self.capacity:
            raise ValidationError(
                f"e_t={self.e_t!r} exceeds capacity={self.capacity!r}: "
                "the relay can never discharge"
            )
        step = self.capacity / self.levels
        k = max(1, math.ceil(self.e_t / step))
        # float guard: keep the defining property min{k >= 1 : k*step >= e_t}
        while k > 1 and (k - 1) * step >= self.e_t:
            k -= 1
        while k <= self.levels and k * step < self.e_t:
            k += 1
        if k > self.levels:
            raise ValidationError(
                f"no battery level covers e_t={self.e_t!r} (capacity {self.capacity!r})"
            )
        object.__setattr__(self, "eps_t_level", k)

    @property
    def step(self) -> float:
        """Energy per battery level [J]."""
        return self.capacity / self.levels


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic battery-level transition matrix, states 0..L."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValidationError(f"transition matrix must be square, got shape {z.shape}")
        if np.any(z < 0.0) or np.any(z > 1.0):
            raise ValidationError("transition probabilities must lie in [0, 1]")
        worst = np.abs(z.sum(axis=1) - 1.0).max()
        if worst > 1e-12:
            raise ValidationError(f"rows must sum to 1 within 1e-12, worst deviation {worst:.3e}")


@dataclass(frozen=True)
class SteadyState:
    """Stationary distribution over battery levels."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        if np.any(pi < 0.0):
            raise ValidationError("steady-state probabilities must be nonnegative")
        if abs(pi.sum() - 1.0) > 1e-10:
            raise ValidationError(f"steady state must sum to 1 within 1e-10, got {pi.sum()!r}")


def discretize_harvest(e_h, cfg: BatteryConfig):
    """Largest level index whose energy lies strictly below e_h, at one e_h or an array.

    Energy exactly on a level boundary rounds DOWN one level; zero
    harvest maps to level 0. Result is clipped to the level range. A
    scalar e_h returns an int, an array returns int64 of its shape.
    """
    e = np.asarray(e_h, dtype=float)
    bad = ~(e >= 0.0)
    if bad.any():
        raise ValidationError(f"harvested energy must be >= 0, got {float(e[bad][0])!r}")
    # clip before the integer cast, so a huge ratio cannot wrap around
    level = np.divide(e, cfg.step, out=np.empty(e.shape))
    np.ceil(level, out=level)
    level -= 1.0
    np.clip(level, 0, cfg.levels, out=level)
    level = level.astype(np.int64)
    return int(level) if level.ndim == 0 else level


class ChainFamily:
    """Battery transition matrices of one link setup for every threshold level.

    The source-relay CDF on the level grid (full-block and half-block
    harvest) and the direct-link failure probability do not depend on
    the threshold, so they are evaluated once here and shared by every
    `matrix(k)`, as are the upper Toeplitz views of their increments
    that `matrix(k)` copies rows from. Both CDF tables come from one
    array `cdf_h_sr` call, which also gives `fail_relay_decode`, the
    source-relay CDF at the relay's decode threshold gamma2 n0 / p_s: the
    chain does not use it, but the outage closed form of every threshold
    level does.
    """

    def __init__(self, params: SystemParams, links: LinkStats, thr: Thresholds,
                 capacity: float, levels: int):
        if not (isinstance(levels, int) and levels >= 1):
            raise ValidationError(f"levels must be an integer >= 1, got {levels!r}")
        if levels > _MAX_CHAIN_LEVELS:
            need = (levels + 1) ** 2 * 8 / 2**30
            raise ValidationError(
                f"levels={levels} would need a {need:.1f} GiB transition matrix; the "
                f"analytic chain allows levels <= {_MAX_CHAIN_LEVELS} (128 MiB)")
        if not 0.0 < capacity < math.inf:
            raise ValidationError(f"capacity must be finite and > 0, got {capacity!r}")
        unit = capacity / (params.eta * params.p_s * levels)
        self.levels = levels
        j = np.arange(levels + 1)
        # one cdf_h_sr pass: both harvest grids, then the relay's decode threshold
        f = cdf_h_sr(np.concatenate((j * unit, 2.0 * j * unit,
                                     [thr.gamma2 * params.n0 / params.p_s])),
                     params, links.omega_sr)
        self.f_full = f[:levels + 1]
        self.f_half = f[levels + 1:-1]
        self.fail_relay_decode = float(f[-1])
        self.fail_direct = cdf_h_sd(thr.gamma1 * params.n0 / params.p_s, links.omega_sd)
        keep = 1.0 - self.fail_direct
        self._charge_full = _upper_toeplitz(self.f_full[1:] - self.f_full[:-1])
        self._charge_half = _upper_toeplitz(keep * (self.f_half[1:] - self.f_half[:-1]))
        self._top_full = 1.0 - self.f_full[::-1]
        self._top_half = keep * (1.0 - self.f_half[::-1])

    def matrix(self, k_thr: int) -> TransitionMatrix:
        """Transition matrix when a cooperative block drains k_thr levels.

        Charging entries depend on the current level only through the
        gap to the target level, so rows [0, k_thr) are copied from the
        full-harvest and rows [k_thr, L] from the half-harvest upper
        Toeplitz view of the CDF increments. The last column (charge to
        full) is overwritten from the complementary CDF, and the
        discharge entry sits exactly k_thr below the diagonal with the
        direct-link failure probability as its mass.

        Rows are checked, never renormalized: a row deviating from 1 by
        more than 1e-9 means the transition cases no longer partition
        the probability space, which is a NumericalError.
        """
        ell = self.levels
        if not 1 <= k_thr <= ell:
            raise ValidationError(f"threshold level must be in 1..{ell}, got {k_thr!r}")
        z = np.empty((ell + 1, ell + 1))
        z[:k_thr] = self._charge_full[:k_thr]
        z[k_thr:] = self._charge_half[k_thr:]
        z[:k_thr, ell] = self._top_full[:k_thr]
        z[k_thr:, ell] = self._top_half[k_thr:]
        # the diagonal k_thr below the main one, in row-major order
        z.reshape(-1)[k_thr * (ell + 1)::ell + 2] = self.fail_direct
        worst = np.abs(z.sum(axis=1) - 1.0).max()
        if worst > 1e-9:
            raise NumericalError(
                f"transition rows do not partition probability space, worst row-sum "
                f"deviation {worst:.3e}"
            )
        np.clip(z, 0.0, 1.0, out=z)
        return TransitionMatrix(z)


def _upper_toeplitz(inc: np.ndarray) -> np.ndarray:
    """Read-only (L+1)x(L+1) view with entry [i, i + g] = inc[g], zeros below.

    Built from one padded vector of length 2L+1, so it takes O(L)
    memory; the last column is left for the caller to overwrite.
    """
    ell = inc.size
    padded = np.concatenate((np.zeros(ell), inc, np.zeros(1)))
    return sliding_window_view(padded, ell + 1)[::-1]


def build_transition_matrix(params: SystemParams, links: LinkStats, thr: Thresholds,
                            cfg: BatteryConfig) -> TransitionMatrix:
    """Battery transition matrix for one configuration (see ChainFamily.matrix)."""
    return ChainFamily(params, links, thr, cfg.capacity, cfg.levels).matrix(cfg.eps_t_level)


def steady_state(tm: TransitionMatrix) -> SteadyState:
    """Stationary distribution of an irreducible chain.

    A reachability scan over the nonzero pattern refuses a reducible
    chain (`reachable_steady_state` gives the law of such a chain as
    run from a chosen state). The irreducible chain is then solved by
    GTH elimination, and a fixed-point residual above 1e-10 is a
    NumericalError.
    """
    z = tm.z
    if not _strongly_connected(z > 0.0):
        raise NumericalError(
            "transition matrix is reducible: some battery states are unreachable "
            "(vanishing harvest or direct-link probabilities for this configuration)"
        )
    ss = reachable_steady_state(tm)
    residual = np.abs(z.T @ ss.pi - ss.pi).max()
    if residual > 1e-10:
        raise NumericalError(f"steady-state fixed-point residual {residual:.3e} exceeds 1e-10")
    return ss


def reachable_steady_state(tm: TransitionMatrix, start: int = 0) -> SteadyState:
    """Stationary distribution of the chain as run from `start`.

    The set of states reachable from `start` is closed, so the process
    started there has a well-defined long-run distribution supported on
    that set even when the full matrix is reducible in floating point
    (charging probabilities underflow at low source power). The
    restricted chain is solved with GTH elimination, which uses no
    subtractions and therefore keeps full relative accuracy however
    stiff the chain is. On an irreducible chain this is `steady_state`.
    """
    z = tm.z
    n = z.shape[0]
    if not 0 <= start < n:
        raise ValidationError(f"start must be a state index in 0..{n - 1}, got {start!r}")
    idx = np.flatnonzero(_reachable_from(z > 0.0, start))
    sub = z if idx.size == n else z[np.ix_(idx, idx)]
    pi = np.zeros(n)
    pi[idx] = _gth_stationary(sub)
    return SteadyState(pi)


def _gth_stationary(z: np.ndarray) -> np.ndarray:
    """GTH (state-elimination) stationary solve of a stochastic matrix.

    States are eliminated from the top, _GTH_BLOCK at a time. Within a
    block the pivots update a small work array eagerly: the block's own
    rows over the band, stacked under an identity that records how the
    block's columns above it transform. Everything above the block is
    then updated by one nonnegative matmul. Eliminating from the top
    never widens the lower band, so rows only need the `bw` columns
    left of the diagonal, `bw` read off the nonzero pattern (n - 1 for
    a dense matrix). Every operation adds, multiplies or divides
    nonnegative numbers: there are no subtractions, as in plain GTH.
    """
    n = z.shape[0]
    if n == 1:
        return np.ones(1)
    p = z.astype(float, copy=True)
    # lower bandwidth: the largest s - j with p[s, j] > 0 and j < s
    bw = max(0, int((np.arange(n) - (p > 0.0).argmax(axis=1)).max()))
    # one flat buffer each for the work array and the block-end product;
    # every block takes a C-contiguous view of their leading entries
    width = min(n, bw + _GTH_BLOCK)
    w_buf = np.empty(2 * _GTH_BLOCK * width)
    y_buf = np.empty(n * width)
    for hi in range(n, 1, -_GTH_BLOCK):
        lo = max(1, hi - _GTH_BLOCK)
        b = hi - lo
        c0 = max(0, lo - bw)
        # rows [b, 2b) are the block's rows; rows [0, b) start as the
        # identity and end as the map that takes the block's columns, in
        # the rows above it, to their eliminated values
        w = w_buf[:2 * b * (hi - c0)].reshape(2 * b, hi - c0)
        w[:b] = 0.0
        w[:b, lo - c0:] = np.eye(b)
        w[b:] = p[lo:hi, c0:hi]
        for k in range(hi - 1, lo - 1, -1):
            r = b + k - lo
            c = max(0, k - bw - c0)
            s = np.add.reduce(w[r, c:k - c0])
            if not s > 0.0:
                raise NumericalError(
                    f"GTH elimination hit a zero pivot at state {k}; the restricted "
                    "chain is not irreducible"
                )
            col = w[:r, k - c0]
            col /= s
            w[:r, c:k - c0] += np.multiply.outer(col, w[r, c:k - c0])
        y = np.matmul(p[:lo, lo:hi], w[:b], out=y_buf[:lo * (hi - c0)].reshape(lo, hi - c0))
        p[:lo, c0:lo] += y[:, :lo - c0]
        p[:lo, lo:hi] = y[:, lo - c0:]
        p[lo:hi, lo:hi] = w[b:, lo - c0:]
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ p[:k, k]
        # visit counts relative to state 0 can dwarf the float range when
        # state 0 is almost never seen; rescaling preserves their ratios
        if pi[k] > 1e250:
            pi[:k + 1] /= pi[k]
    total = pi.sum()
    return pi / total


def _reachable_from(adj: np.ndarray, start: int) -> np.ndarray:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def _strongly_connected(adj: np.ndarray) -> bool:
    """Every state reachable from state 0 and vice versa on the nonzero pattern."""
    return bool(_reachable_from(adj, 0).all()) and bool(_reachable_from(adj.T, 0).all())
