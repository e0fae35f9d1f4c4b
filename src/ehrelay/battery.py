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
chain), which stays the same width as elimination proceeds. Work whose
result is an exact zero is skipped: a chain whose every state is
entered from below reaches every state without a search, and the
updates of entries the pattern keeps at zero are not made, since zeros
stay exact zeros when nonnegative numbers are added, multiplied and
divided (see _gth_stationary). It runs on
a stack of chains, so each Python-level step serves every chain of the
stack: `stacked_steady_states` fills chains of any families, one
`ChainFamily.fill` a chain, `ChainFamily.stack_size` at a time
(_GTH_STACK_BYTES of them) into one buffer and solves them in one pass.
That one driver gives every law of a family's chain: the threshold
search's levels of one family, and `outage.evaluate_points`, the chains
of a whole sweep grid, whose families share one Marcum-Q pass
(`harvest_grid` says where each family evaluates the source-relay CDF);
a lone chain, or one cut down to its reachable set, is the stack of
one. Every chain of a stack keeps its own band in its pivot sums, its
own zero-pivot flag and its own overflow rescaling, so its law is bit
for bit the one it gets alone, whichever chains share its stack. A
matrix of its own is built only by `build_transition_matrix` (behind
`outage.Point.tm`), for a caller that reads the matrix itself.
`ChainFamily.mean_charge` gives the expected charge of one block from
the empty battery, which bounds the charge from every level, and
`ChainFamily.climb_times` the expected full-harvest blocks to climb d
levels, from one renewal sequence of the Toeplitz full-harvest rows:
the threshold search bounds each level's outage with both before
solving any chain (the drift bound and, above L/2, the renewal-reward
bound on the time the battery spends charged).
`reachable_steady_state` solves the closed class reachable from the
empty battery; `steady_state` first checks that the whole chain is
irreducible and refuses it otherwise.
"""

import itertools
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
    "harvest_grid",
    "build_transition_matrix",
    "steady_state",
    "reachable_steady_state",
    "stacked_steady_states",
]

# a chain over L+1 states is a dense (L+1)^2 float64 matrix: 128 MiB at L = 4096
_MAX_CHAIN_LEVELS = 4096

# largest battery of any kind: a simulation keeps one occupancy count per
# level, which costs tens of MiB at this bound whatever the block count
_MAX_LEVELS = 1_000_000

# states eliminated per block by the GTH solve
_GTH_BLOCK = 8

# bytes of chain matrices stacked_steady_states puts into one GTH pass: six
# chains at L = 200, 594 at L = 20; the solve's block-end product takes a
# quarter of this at a time
_GTH_STACK_BYTES = 2 * 2**20


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
        while k < self.levels and k * step < self.e_t:
            k += 1
        # the top level holds the whole capacity, so it covers any e_t <= capacity
        # even where levels * step rounds below capacity
        object.__setattr__(self, "eps_t_level", min(k, self.levels))

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
        # a NaN entry fails here, so the row sums below are finite
        if not np.all((z >= 0.0) & (z <= 1.0)):
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
        if not np.all(pi >= 0.0):
            raise ValidationError("steady-state probabilities must be nonnegative")
        if abs(pi.sum() - 1.0) > 1e-10:
            raise ValidationError(f"steady state must sum to 1 within 1e-10, got {pi.sum()!r}")


def discretize_harvest(e_h, cfg: BatteryConfig):
    """Largest level index whose energy lies strictly below e_h, at one e_h or an array.

    Energy exactly on a level boundary rounds DOWN one level; zero
    harvest maps to level 0. Result is clipped to the level range and
    is int64 of e_h's shape (0-d for a scalar).
    """
    e = np.asarray(e_h, dtype=float)
    bad = ~(e >= 0.0)
    if bad.any():
        raise ValidationError(f"harvested energy must be >= 0, got {float(e[bad][0])!r}")
    # clip before the integer cast, so a huge ratio cannot wrap around; a
    # ratio past the float range is meant: inf clips to the top level
    with np.errstate(over="ignore"):
        level = np.divide(e, cfg.step, out=np.empty(e.shape))
    np.ceil(level, out=level)
    level -= 1.0
    np.clip(level, 0, cfg.levels, out=level)
    return level.astype(np.int64)


def harvest_grid(params: SystemParams, thr: Thresholds, capacity: float,
                 levels: int) -> np.ndarray:
    """Where a ChainFamily evaluates the source-relay gain CDF: the gains
    whose full-block harvest, then half-block harvest, is 0..L levels, and
    the relay's decode threshold gamma2 n0 / p_s, as one (2L+3,) array.

    Refuses a chain too large to assemble, by levels, and a grid step
    capacity / (eta p_s L) past the float range (eta p_s underflows to 0,
    or the quotient overflows), by capacity, eta and p_s, before any table
    is evaluated.
    """
    if not (isinstance(levels, int) and levels >= 1):
        raise ValidationError(f"levels must be an integer >= 1, got {levels!r}")
    if levels > _MAX_CHAIN_LEVELS:
        need = (levels + 1) ** 2 * 8 / 2**30
        raise ValidationError(
            f"levels={levels} would need a {need:.1f} GiB transition matrix; the "
            f"analytic chain allows levels <= {_MAX_CHAIN_LEVELS} (128 MiB)")
    if not 0.0 < capacity < math.inf:
        raise ValidationError(f"capacity must be finite and > 0, got {capacity!r}")
    scale = params.eta * params.p_s * levels
    unit = capacity / scale if scale > 0.0 else math.inf
    if unit == math.inf:
        raise ValidationError(f"capacity / (eta * p_s * levels) leaves the float range at "
                              f"capacity={capacity!r}, eta={params.eta!r}, "
                              f"p_s={params.p_s!r} W")
    j = np.arange(levels + 1)
    # gains past the float range are meant: the source-relay CDF is 1 at inf
    with np.errstate(over="ignore"):
        return np.concatenate((j * unit, 2.0 * j * unit, [thr.gamma2 * params.n0 / params.p_s]))


class ChainFamily:
    """Battery chains of one link setup for every threshold level.

    The source-relay CDF on the level grid (full-block and half-block
    harvest) and the direct-link failure probability do not depend on
    the threshold, so they are evaluated once here and shared by every
    `fill(k, z)`, as are the upper Toeplitz views of their increments
    that `fill` copies rows from. Both CDF tables come from one
    array `cdf_h_sr` call at `harvest_grid`, which also gives
    `fail_relay_decode`, the source-relay CDF at the relay's decode
    threshold gamma2 n0 / p_s: the chain does not use it, but the outage
    closed form of every threshold level does. `cdf` takes that call's
    result where it was shared with other families: `evaluate_points`
    makes one call over the grids of a whole sweep, which gives every
    family the tables of its own call, bit for bit (see marcum_q).
    `stacked_steady_states` solves the chains of many families together,
    and `build_transition_matrix` turns one chain into a TransitionMatrix.
    """

    def __init__(self, params: SystemParams, links: LinkStats, thr: Thresholds,
                 capacity: float, levels: int, cdf: np.ndarray | None = None):
        grid = harvest_grid(params, thr, capacity, levels)
        self.capacity = capacity
        self.levels = levels
        f = cdf_h_sr(grid, params, links.omega_sr) if cdf is None else cdf
        self.f_full = f[:levels + 1]
        self.f_half = f[levels + 1:-1]
        self.fail_relay_decode = float(f[-1])
        self.fail_direct = cdf_h_sd(thr.gamma1 * params.n0 / params.p_s, links.omega_sd)
        keep = 1.0 - self.fail_direct
        self._charge_full = _upper_toeplitz(self.f_full[1:] - self.f_full[:-1])
        self._charge_half = _upper_toeplitz(keep * (self.f_half[1:] - self.f_half[:-1]))
        self._top_full = 1.0 - self.f_full[::-1]
        self._top_half = keep * (1.0 - self.f_half[::-1])

    @property
    def stack_size(self) -> int:
        """Chains that stacked_steady_states solves in one GTH pass:
        _GTH_STACK_BYTES of (L+1)x(L+1) matrices, and at least one."""
        return max(1, _GTH_STACK_BYTES // (8 * (self.levels + 1) ** 2))

    def mean_charge(self) -> tuple:
        """Expected levels gained in one block from the empty battery, clipped at
        L: (full harvest, half harvest times 1 - fail_direct). A battery at
        level i gains the same harvest clipped at L - i, so these bound the
        charge of every row below the threshold (full) and at or above it
        (half), whatever the threshold."""
        gains = np.arange(self.levels + 1)
        return tuple(float(gains[:-1] @ charge[0, :-1] + self.levels * top[0])
                     for charge, top in ((self._charge_full, self._top_full),
                                         (self._charge_half, self._top_half)))

    def climb_times(self) -> np.ndarray:
        """T[d], d = 0..L: expected full-harvest blocks to climb at least d levels.

        Full-harvest rows are Toeplitz below L, so T[d] holds from every
        level s <= L - d, whatever the threshold. It comes from one renewal
        sequence (Kemeny & Snell, Finite Markov Chains, 1960): u_r, the
        expected blocks spent exactly r levels up, is u_0 = 1/leave and
        u_r = (inc_1 u_{r-1} + ... + inc_r u_0) / leave, with inc the
        full-harvest increments (row 0 of the chain) and leave the mass
        row 0 sends off its diagonal, summed from those entries so that
        nothing is subtracted; T[d] = u_0 + ... + u_{d-1}. A battery that
        never leaves the empty level (leave = 0) never climbs: T[d] = inf
        for d >= 1. O(L^2), once per threshold search.
        """
        ell = self.levels
        inc = self._charge_full[0, :ell]
        leave = float(inc[1:].sum() + self._top_full[0])
        climb = np.zeros(ell + 1)
        if leave == 0.0:
            climb[1:] = math.inf
            return climb
        u = np.empty(ell)
        u[0] = 1.0 / leave
        for r in range(1, ell):
            u[r] = inc[1:r + 1] @ u[r - 1::-1] / leave
        np.cumsum(u, out=climb[1:])
        return climb

    def fill(self, k_thr: int, z: np.ndarray) -> NumericalError | None:
        """Write the transition matrix when a cooperative block drains k_thr
        levels into z, an (L+1, L+1) float array, in place.

        Charging entries depend on the current level only through the
        gap to the target level, so rows [0, k_thr) are copied from the
        full-harvest and rows [k_thr, L] from the half-harvest upper
        Toeplitz view of the CDF increments. The last column (charge to
        full) is overwritten from the complementary CDF, and the
        discharge entry sits exactly k_thr below the diagonal with the
        direct-link failure probability as its mass.

        Rows are checked, never renormalized: a row deviating from 1 by
        more than 1e-9 means the transition cases no longer partition
        the probability space. That is returned as a NumericalError, with
        z holding the matrix before its clip; otherwise the result is
        None. z may be one slot of a buffer reused for stack after stack.
        """
        ell = self.levels
        if not (isinstance(k_thr, (int, np.integer)) and 1 <= k_thr <= ell):
            raise ValidationError(f"threshold level must be in 1..{ell} (an integer), "
                                  f"got {k_thr!r}")
        z[:k_thr] = self._charge_full[:k_thr]
        z[k_thr:] = self._charge_half[k_thr:]
        z[:k_thr, ell] = self._top_full[:k_thr]
        z[k_thr:, ell] = self._top_half[k_thr:]
        # the diagonal k_thr below the main one
        np.fill_diagonal(z[k_thr:], self.fail_direct)
        worst = np.abs(z.sum(axis=1) - 1.0).max()
        # a NaN row fails here too
        if not worst <= 1e-9:
            return NumericalError(f"transition rows do not partition probability space, "
                                  f"worst row-sum deviation {worst:.3e}")
        np.clip(z, 0.0, 1.0, out=z)
        return None


def stacked_steady_states(chains):
    """Yield the law from the empty battery of the chain family.fill(k, .)
    writes, for each (family, k) of `chains`, in order: a SteadyState, or
    the NumericalError of that chain's fill, or of its solve, equal to
    what build_transition_matrix and reachable_steady_state raise for it.

    Runs of chains of one size, from one family or many, are filled
    through ChainFamily.fill, stack_size at a time, into one buffer that
    the solve shared with reachable_steady_state works on in place, and
    each stack's laws are yielded before the next stack is filled, so at
    most one buffer of chains is held. A chain's law does not depend on
    its stack, and a chain that fails leaves the others of its stack as
    they are.
    """
    for levels, run in itertools.groupby(chains, lambda chain: chain[0].levels):
        run = list(run)
        size = run[0][0].stack_size
        buf = np.empty((min(size, len(run)), levels + 1, levels + 1))
        for first in range(0, len(run), size):
            chunk = run[first:first + size]
            stack = buf[:len(chunk)]
            failed = [family.fill(k, z) for (family, k), z in zip(chunk, stack)]
            yield from _stationary_laws(stack, failed)


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
    """Battery transition matrix for one configuration: ChainFamily.fill of its
    threshold level, whose NumericalError is raised."""
    z = np.empty((cfg.levels + 1, cfg.levels + 1))
    failed = ChainFamily(params, links, thr, cfg.capacity, cfg.levels).fill(cfg.eps_t_level, z)
    if failed is not None:
        raise failed
    return TransitionMatrix(z)


def steady_state(tm: TransitionMatrix) -> SteadyState:
    """Stationary distribution of an irreducible chain.

    A reachability scan over the nonzero pattern refuses a reducible
    chain (`reachable_steady_state` gives the law of such a chain as
    run from the empty battery). The irreducible chain is then solved by
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


def reachable_steady_state(tm: TransitionMatrix) -> SteadyState:
    """Stationary distribution of the chain as run from the empty battery.

    The set of states reachable from state 0 is closed, so the process
    started there has a well-defined long-run distribution supported on
    that set even when the full matrix is reducible in floating point
    (charging probabilities underflow at low source power). The
    restricted chain is solved with GTH elimination, which uses no
    subtractions and therefore keeps full relative accuracy however
    stiff the chain is. On an irreducible chain this is `steady_state`.
    """
    law, = _stationary_laws(tm.z.copy()[None], [None])
    if isinstance(law, NumericalError):
        raise law
    return law


def _stationary_laws(stack: np.ndarray, failed: list) -> list:
    """SteadyState, or NumericalError, of each chain of an (m, n, n) stack
    as run from its empty battery; the stack is overwritten.

    failed[i] is None for a chain to solve, or the NumericalError it
    already carries (from ChainFamily.fill), which is returned for it as
    is. Chains whose reachable set is every state are moved to the front
    of the stack and solved there by one stacked GTH pass; the others are
    cut down to their reachable sets and solved one at a time, each as a
    stack of one, before a full chain can move over its slot.
    """
    n = stack.shape[-1]
    laws = list(failed)
    reach = _reachable_from(stack > 0.0)
    idxs = {slot: np.flatnonzero(reach[slot]) for slot, exc in enumerate(failed) if exc is None}
    full = []
    for slot, idx in idxs.items():
        if idx.size < n:
            pis, pivots = _gth_stationary(stack[slot][np.ix_(idx, idx)][None])
            laws[slot] = _law(pis[0], pivots[0], n, idx)
            continue
        if len(full) < slot:
            # move it up over the slots of chains that left the stack
            stack[len(full)] = stack[slot]
        full.append(slot)
    if full:
        pis, pivots = _gth_stationary(stack[:len(full)])
        for i, slot in enumerate(full):
            laws[slot] = _law(pis[i], pivots[i], n, idxs[slot])
    return laws


def _law(pi: np.ndarray, pivots: np.ndarray, n: int, idx: np.ndarray):
    """SteadyState over n states of one solved chain on the states idx, or
    the NumericalError of its first zero pivot."""
    # a NaN pivot sum, downstream of a zero pivot, fails too
    if not pivots.min() > 0.0:
        # the first zero pivot in elimination order, from the top
        state = int(np.flatnonzero(~(pivots > 0.0))[-1])
        return NumericalError(f"GTH elimination hit a zero pivot at state {state}; the "
                              "restricted chain is not irreducible")
    law = np.zeros(n)
    law[idx] = pi
    return SteadyState(law)


def _gth_stationary(p: np.ndarray) -> tuple:
    """GTH (state-elimination) stationary solve of a stack of stochastic matrices.

    p is an (m, n, n) stack, one matrix being the stack of one (m = 1),
    and it is eliminated in place. Returns the laws and the pivot sums,
    both (m, n). Pivot k is the mass state k's row sends to the states
    below it once the states above are eliminated, state 0's is 1, and a
    chain is solved only if all of its pivot sums are positive. A
    one-state stack (n = 1) runs no elimination block: its laws and
    pivots are 1.

    States are eliminated from the top, _GTH_BLOCK at a time, in every
    chain of the stack at once, so the Python-level steps of a solve
    serve the whole stack. Within a block the pivots update a small work
    array eagerly: the block's own rows over the band, stacked under an
    identity that records how the block's columns above it transform.
    Everything above the block is then updated by one nonnegative matmul
    per chain, a slab of rows at a time, so the product stays within a
    quarter of _GTH_STACK_BYTES. Eliminating from the top never widens
    the lower band, so rows only need the `bw` columns left of the
    diagonal, `bw` read off the nonzero pattern (n - 1 for a dense
    matrix, the widest chain's for a stack). Every operation adds,
    multiplies or divides nonnegative numbers: there are no
    subtractions, as in plain GTH.

    So an entry that is zero stays an exact zero until a product with a
    nonzero reaches it, and two kinds of such work are skipped. At pivot
    k, the identity rows of the block's states below k still hold zeros
    right of their own column, so only the b rows from k's identity row
    up are updated. And a row below a block's floor, the lowest row of
    any chain of the stack with an entry in the block's columns or right
    of them on the input pattern, has never been touched by an
    elimination from the top: its product with the block's map is zero,
    so the block-end product starts at the floor. Skipping them leaves
    every other entry, and so every law and pivot sum of a chain whose
    pivots are positive, bit for bit unchanged.

    A chain's law does not depend on the stack it is solved in: a chain
    narrower than the stack sums its pivot rows over its own band
    (numpy's pairwise sum groups by length, so leading zeros would move
    the last bit), the extra columns it carries stay exactly zero, and
    its back-substitution rescales on its own counts. Pivot sums are
    written into one (m, n) array for the caller to check after the
    solve; a chain with a zero pivot turns to inf and NaN from there on,
    in its own slice only, so it fails alone, at the same first zero
    pivot (the skipped work lies below it), and the floating-point
    warnings that raises are silenced.
    """
    piv = np.ones(p.shape[:-1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _gth_eliminate(p, piv)
        return _gth_visits(p), piv


def _gth_eliminate(p: np.ndarray, piv: np.ndarray) -> None:
    """Eliminate states n-1..1 of every chain of p, writing pivot sums to piv[..., k]."""
    m, n = p.shape[:2]
    pattern = p > 0.0
    # lower bandwidth of each chain: the largest s - j with p[s, j] > 0 and j < s
    bands = [max(0, band) for band in
             (np.arange(n) - pattern.argmax(axis=-1)).max(axis=-1).tolist()]
    bw = max(bands)
    # each block's floor: the lowest row of any chain with an entry in a
    # column >= lo. The rows below it never change while the states from lo
    # up are eliminated (a row without entries is taken to reach the top)
    union = pattern.any(axis=0)
    del pattern
    reach = np.maximum.accumulate(n - 1 - union[:, ::-1].argmax(axis=-1))
    his = range(n, 1, -_GTH_BLOCK)
    floors = reach.searchsorted([max(1, hi - _GTH_BLOCK) for hi in his]).tolist()
    # chains narrower than the stack, narrowest first: their pivot sums run
    # over their own band, as they would in a solve of their own, from the
    # first pivot where that band ends before the stack's
    narrow = sorted((band, i) for i, band in enumerate(bands) if band < bw)
    piv3 = piv[..., None, None]
    # one flat buffer each for the work arrays and the block-end product;
    # every block takes a C-contiguous view of their leading entries
    width = min(n, bw + _GTH_BLOCK)
    slab = max(2, _GTH_STACK_BYTES // (32 * m * width))
    w_buf = np.empty(m * 2 * _GTH_BLOCK * width)
    y_buf = np.empty(m * min(n, slab + 1) * width)
    # the last rows of `ident` give any block's top rows in one copy: an
    # identity under the block's own columns, zeros left of them
    ident = np.zeros((_GTH_BLOCK, max(width, _GTH_BLOCK)))
    ident[:, -_GTH_BLOCK:] = np.eye(_GTH_BLOCK)
    for hi, floor in zip(his, floors):
        lo = max(1, hi - _GTH_BLOCK)
        b = hi - lo
        c0 = max(0, lo - bw)
        wd = hi - c0
        # rows [b, 2b) are the block's rows; rows [0, b) start as the
        # identity and end as the map that takes the block's columns, in
        # the rows above it, to their eliminated values
        w = w_buf[:m * 2 * b * wd].reshape(m, 2 * b, wd)
        w[..., :b, :] = ident[_GTH_BLOCK - b:, -wd:]
        w[..., b:, :] = p[..., lo:hi, c0:hi]
        for k in range(hi - 1, lo - 1, -1):
            r = b + k - lo
            kc = k - c0
            c = max(0, kc - bw)
            row = w[..., r:r + 1, c:kc]
            s = piv3[..., k, :, :]
            # the row's sum, kept as (..., 1, 1), into piv
            np.add.reduce(row, -1, None, s, True)
            for band, i in narrow:
                if band >= k:
                    break
                piv[i, k] = np.add.reduce(w[i, r, kc - band:kc])
            # rows [b, r) are the block's rows above k, rows [k - lo, b) the
            # identity rows of k and up; those of the states below k hold an
            # exact zero in column k, so the pivot leaves them as they are
            col = w[..., k - lo:r, kc:kc + 1]
            col /= s
            w[..., k - lo:r, c:kc] += col * row
        # rows below the floor hold zeros in the block's columns, so the
        # product leaves them as they are. The rest go in slabs of `slab`
        # rows, none of one row: BLAS multiplies a lone row by another
        # route, and a chain must come out as it would alone, so a lone row
        # above the floor is taken with the zero row under it
        r0 = floor - 1 if floor == lo - 1 > 0 else floor
        while r0 < lo:
            r1 = lo if lo - r0 <= slab + 1 else r0 + slab
            y = np.matmul(p[..., r0:r1, lo:hi], w[..., :b, :],
                          out=y_buf[:m * (r1 - r0) * wd].reshape(m, r1 - r0, wd))
            p[..., r0:r1, c0:lo] += y[..., :lo - c0]
            p[..., r0:r1, lo:hi] = y[..., lo - c0:]
            r0 = r1
        p[..., lo:hi, lo:hi] = w[..., b:, lo - c0:]


def _gth_visits(p: np.ndarray) -> np.ndarray:
    """Normalized visit counts from eliminated chains: pi[k] = pi[:k] . p[:k, k]."""
    n = p.shape[-1]
    pi = np.zeros(p.shape[:-1])
    pi[..., 0] = 1.0
    k = 1
    while k < n:
        for j in range(k, n):
            np.vecdot(pi[..., :j], p[..., :j, j], pi[..., j])
        # visit counts relative to state 0 can dwarf the float range when
        # state 0 is almost never seen. A chain is rescaled at its first
        # count past 1e250, which preserves the ratios, and the counts
        # after that one are computed again; rescales are rare, so one
        # check a pass costs less than one a count
        over = pi[:, k:] > 1e250
        if not over.any():
            break
        j = k + int(over.any(axis=0).argmax())
        big = over[:, j - k]
        pi[big, :j + 1] /= pi[big, j, None]
        k = j + 1
    pi /= pi.sum(axis=-1, keepdims=True)
    return pi


def _reachable_from(adj: np.ndarray) -> np.ndarray:
    """States reachable from state 0 on each pattern of an (m, n, n) stack,
    state 0 included, as an (m, n) mask.

    A chain in which every state s >= 1 is entered from some state below
    it reaches every state, by induction on s. One test of the whole
    stack's pattern (the first row with an entry in each column) finds
    those chains, and they need no search. The others share one
    breadth-first search, each step taking the rows of every such chain's
    frontier."""
    m, n = adj.shape[:2]
    # argmax gives row 0 for a column without entries too
    entered = (adj.argmax(axis=-2) < np.arange(n)) & adj.any(axis=-2)
    full = entered[:, 1:].all(axis=-1)
    seen = np.zeros((m, n), dtype=bool)
    seen[:, 0] = True
    seen[full] = True
    if full.all():
        return seen
    if m == 1:
        # a lone chain ORs its frontier rows directly
        lone, mask = adj[0], seen[0]
        frontier = mask.copy()
        while frontier.any():
            frontier = lone[frontier].any(axis=0) & ~mask
            mask |= frontier
        return seen
    frontier = seen & ~full[:, None]
    chain_ids = np.arange(m)[:, None]
    while frontier.any():
        # each chain ORs its own frontier rows: a boolean product with the
        # chain-by-row selector
        chains, states = np.nonzero(frontier)
        frontier = np.matmul(chains == chain_ids, adj[chains, states]) & ~seen
        seen |= frontier
    return seen


def _strongly_connected(adj: np.ndarray) -> bool:
    """Every state reachable from state 0 and vice versa on the nonzero pattern."""
    return bool(_reachable_from(adj[None]).all()) and bool(_reachable_from(adj.T[None]).all())
