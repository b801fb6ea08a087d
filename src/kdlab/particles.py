"""Stochastic N-agent simulator: search clocks, jump-to-better, innovation.

Each agent carries a log-productivity.  Per step of length dt (tau-leaping),
an agent fires with probability 1 - exp(-alpha(s)*dt), picks another agent
uniformly from the beginning-of-step snapshot, and adopts that snapshot
position if it is strictly higher; every agent then adds an independent
Gaussian innovation increment of variance 2*kappa*dt.  Snapshot semantics
remove within-step order dependence.

Randomness is counter-based: every array of draws comes from a Philox stream
keyed by (seed, step, purpose) and is indexed by array slot, so an agent's
slot is its random stream and runs are reproducible regardless of execution
order.  A state is its positions, seed and step index; nothing else
determines the steps that follow it.

A run steps through iter_particles, the particle sweep, which alone decides
how steps are done: its one worker thread draws step n + 1's normals and
partners while the sweep sorts, records and steps state n, drawing state
n's fire uniforms itself.  Each state is sorted once for its CDF estimate
and its strategy pass, and every step writes into n-sized buffers
allocated once (800 KB each at n = 100 000, which glibc would return and
page-fault anew every step).  No draw reads a position, and the Philox
fills and the sort release the interpreter lock, so the two overlap.
A step sorts the positions in place and makes no argsort: the strategy
pass tabulates its fire thresholds by sorted slot, and an agent reads the
threshold of its tie's first slot (see _Workspace).  A bare
step_particles call draws in line into fresh buffers, starts no thread
and otherwise takes the sweep's path; since each stream is a fresh
Generator built from its own key, the two agree bit for bit.  Nothing
configures the worker or the buffers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import model
from .errors import DomainError, NonFiniteError, NumericalError
from .forward import dt_max
from .grid import Grid1D, Profile, check_numbers, is_number

RANK = "rank"
RATIO = "ratio"

#: The purposes of the Philox streams: a step's three draws, and at step 0
#: the initial positions.
_FIRE, _PARTNER, _NOISE, _INITIAL = 0, 1, 2, 3


class _Workspace:
    """The strategy pass of a step of n agents: it sorts the positions into
    sorted, in place, and returns the slots that fire, given the step's fire
    uniforms.

    An agent's fire threshold is that of sorted slot first, the count of
    agents strictly below it.  Under the rank rule the workspace tabulates
    the thresholds of the fractions (n - r)/n by slot r once, non-increasing,
    between sentinels: table[r + 1] is slot r's, table[0] = +inf and
    table[n + 1] = -inf.  With r*(u) the count of slots whose threshold
    exceeds u, an agent fires when u < table[first + 1], that is when
    first < r*(u), that is when its position is at or below
    sorted[r*(u) - 1]; ties need no pass of their own.  Only the agents
    with u < table[1], about 9.5 % of them on compare-particle-pde, are
    candidates: the closed-form inverse of the threshold guesses their r*,
    and a walk against the table makes it exact.  The ratio rule's
    thresholds depend on the positions: each state tabulates them by slot,
    and a candidate, whose uniform lies below the largest, finds first by
    searchsorted.  They fall with the slot only in exact arithmetic, so
    that rule fires by no order statistic.  The pass shares no array with
    the worker's draws.
    """

    def __init__(self, n: int, rule: StrategyRule, p: model.ModelParams, dt: float) -> None:
        self.sorted, self.p, self.dt = np.empty(n), p, dt
        self.table = None
        if rule.kind == RANK:
            self.table = np.empty(n + 2)
            self.table[0], self.table[n + 1] = math.inf, -math.inf
            _fire_thresholds(np.divide(np.arange(n, 0, -1), n, out=self.table[1:-1]), p, dt)
            # The order statistic reads only a non-increasing table; the
            # rounding of the threshold arithmetic must not break that.
            if np.any(self.table[2:-1] > self.table[1:-2]):
                raise NumericalError(f"the rank rule's fire thresholds of {n} agents increase")

    def sort(self, positions: np.ndarray) -> None:
        """Sort a copy of positions into sorted."""
        np.copyto(self.sorted, positions)
        self.sorted.sort()

    def fired(self, positions: np.ndarray, fire: np.ndarray) -> np.ndarray:
        """The slots whose fire uniform lies below their fire threshold, in
        increasing order, once sort has sorted positions."""
        table = self.table
        if table is None:
            thresholds = _fire_thresholds(_ratio_fractions(self.sorted), self.p, self.dt)
            candidates = np.flatnonzero(fire < thresholds.max())
            first = np.searchsorted(self.sorted, positions[candidates])
            return candidates[fire[candidates] < thresholds[first]]
        n = positions.size
        candidates = np.flatnonzero(fire < table[1])
        u = fire[candidates]
        # Slot r's threshold exceeds u when (n - r)/n > (-log1p(-u)/(alpha1*dt))**(1/k),
        # so r* is near the ceiling of n - n*that.  A candidate has alpha1*dt > 0.
        guess = np.log1p(-u)
        guess /= -self.p.alpha1 * self.dt
        guess **= 1.0 / self.p.k
        r = np.clip(np.ceil(n - n * guess), 1, n).astype(np.intp)
        while True:
            # Slot r's threshold exceeds u: r* > r.  Slot r - 1's does not: r* < r.
            up, down = table[r + 1] > u, table[r] <= u
            if not (up.any() or down.any()):
                break
            r += up
            r -= down
        return candidates[positions[candidates] <= self.sorted[r - 1]]


@dataclass(frozen=True)
class ParticleState:
    """Agent log-productivities plus the seed and step that key their draws.

    Each array slot draws from its own sub-stream, so (seed, step_index)
    fully determine all future draws, which is what makes checkpoint/resume
    exact.  The time of a step is the grid's, grid.time_at(step_index).
    """

    positions: np.ndarray
    seed: int
    step_index: int = 0

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", positions)
        if positions.ndim != 1 or positions.size < 2:
            raise DomainError("need a 1-D array of at least two agents")
        if not np.all(np.isfinite(positions)):
            raise NonFiniteError("agent positions must be finite")
        check_numbers(self, "", integers="seed step_index")
        if not (0 <= self.seed < 2**63 and self.step_index >= 0):
            raise DomainError(f"need seed in [0, 2^63) and step_index >= 0, got {self.seed}, "
                              f"{self.step_index}")

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class StrategyRule:
    """How agents choose their search-time fraction.

    rank: fraction of agents at or above one's own position (self included).
    ratio: expected relative productivity gain over better agents, capped at 1.
    """

    kind: str = RANK

    def __post_init__(self) -> None:
        if self.kind not in (RANK, RATIO):
            raise DomainError(f"strategy kind must be one of {(RANK, RATIO)}, got {self.kind!r}")


def _tie_starts(srt: np.ndarray) -> np.ndarray | None:
    """first[k], the first slot of sorted slot k's tie, or None when no two agents tie.

    A tie's first slot is the count of agents strictly below it, which is
    what the fractions read in place of the slot.  Equality is numeric, so
    -0.0 and 0.0 tie, as in searchsorted.
    """
    ties = srt[1:] == srt[:-1]
    # The innovation noise leaves a run's agents untied, and then the
    # running maximum that finds the tie starts is not needed.
    if not ties.any():
        return None
    first = np.arange(srt.size)
    first[1:][ties] = 0
    np.maximum.accumulate(first, out=first)
    return first


def _ratio_fractions(srt: np.ndarray) -> np.ndarray:
    """Capped relative gain over the agents at or above each sorted slot r,
    in a fresh array, from the sorted positions srt: a tied agent reads the
    value of its tie's first slot, r the count of agents strictly below it."""
    n = srt.size
    shifted = np.exp(srt - srt[-1])
    suffix = np.cumsum(shifted[::-1])[::-1]
    # Sum over agents at or above: exp(x_m - x_i) - 1, summing ties too (they
    # contribute zero).  Positions far enough below the maximum saturate.
    gap = srt[-1] - srt
    s_sorted = np.ones(n)
    safe = np.flatnonzero(gap < math.log(n + 1.0) + 1.0)
    # Each summand is >= 0, so the clip at 0 only absorbs roundoff.
    s_sorted[safe] = np.clip((np.exp(gap[safe]) * suffix[safe] - (n - safe)) / n, 0.0, 1.0)
    return s_sorted


def eval_strategy(state: ParticleState, rule: StrategyRule) -> np.ndarray:
    """Per-agent search-time fractions in [0, 1] under the given rule.

    Both rules tabulate their fractions by sorted slot and read each agent's
    at the first slot of its tie, through one argsort of the positions and
    one tie pass, in fresh buffers.
    """
    x, n = state.positions, state.n
    order = np.argsort(x)
    srt = x[order]
    first = _tie_starts(srt)
    fractions = _ratio_fractions(srt) if rule.kind == RATIO else np.arange(n, 0, -1) / n
    s = np.empty(n)
    s[order] = fractions if first is None else fractions[first]
    return s


def _stream(seed: int, step: int, purpose: int) -> np.random.Generator:
    key = np.array([seed, step * 4 + purpose], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(seed: int, step: int, noise: np.ndarray) -> np.ndarray:
    """Draw the step's innovation normals into noise and return its partner
    draws, each stream in full and by slot; the caller draws its fire
    uniforms (purpose _FIRE)."""
    n = noise.size
    _stream(seed, step, _NOISE).standard_normal(out=noise)
    return _stream(seed, step, _PARTNER).integers(0, n - 1, size=n)


def initial_state(init: Profile, n: int, seed: int) -> ParticleState:
    """n agents at step 0, drawn from init, the fraction of agents above each node.

    The uniforms are the seed's stream of purpose _INITIAL at step 0.
    """
    u = _stream(seed, 0, _INITIAL).random(n)
    # init holds the fraction above x (decreasing); 1 - init is the usual CDF,
    # increasing in x, which np.interp inverts directly.
    return ParticleState(positions=np.interp(u, 1.0 - init.values, init.grid.x), seed=seed)


def _fire_thresholds(rates: np.ndarray, p: model.ModelParams, dt: float) -> np.ndarray:
    """The fire thresholds 1 - exp(-alpha1 * s**k * dt) of the fractions s in
    rates, in place; return rates."""
    # model._alpha, alpha1 * s**k, in place: every rule's fractions lie in
    # [0, 1] by construction, so the rate is unchecked.  Then the fire
    # threshold 1 - exp(-rate*dt), in place too.
    rates **= p.k
    rates *= p.alpha1
    np.multiply(rates, -dt, out=rates)
    np.expm1(rates, out=rates)
    np.negative(rates, out=rates)
    return rates


def _step(
    state: ParticleState, fired: np.ndarray, noise: np.ndarray, partner_draw: np.ndarray,
    p: model.ModelParams, dt: float,
) -> ParticleState:
    """The tau-leap step from state, given the slots that fire and its draws
    (see _draws), of which it scales noise in place."""
    x = state.positions
    # The partner stream is drawn in full, so its values do not depend on who
    # fires.  A draw in 0..n-2 skips the agent's own slot.
    partner = partner_draw[fired]
    partner_pos = x[partner + (partner >= fired)]

    own = x[fired]
    new = x.copy()
    new[fired] = np.where(partner_pos > own, partner_pos, own)
    noise *= math.sqrt(2.0 * p.kappa * dt)
    new += noise

    # The step keeps the positions finite and the seed as it is, so the
    # successor skips __post_init__'s O(n) check.
    successor = object.__new__(ParticleState)
    vars(successor).update(positions=new, seed=state.seed, step_index=state.step_index + 1)
    return successor


def step_particles(
    state: ParticleState, rule: StrategyRule, p: model.ModelParams, dt: float
) -> ParticleState:
    """One tau-leap step; deterministic given (positions, seed, step_index).

    The call draws in line on the calling thread, into fresh buffers, and
    starts no thread; its strategy pass is the sweep's, so iter_particles
    makes the same step, bit for bit.
    """
    if not (is_number(dt) and 0.0 <= dt <= dt_max(p) * (1.0 + 1e-12)):
        raise DomainError(f"dt must be a number in [0, dt_max={dt_max(p)}], got {dt!r}")
    noise, work = np.empty(state.n), _Workspace(state.n, rule, p, dt)
    partner_draw = _draws(state.seed, state.step_index, noise)
    fire = _stream(state.seed, state.step_index, _FIRE).random(state.n)
    work.sort(state.positions)
    return _step(state, work.fired(state.positions, fire), noise, partner_draw, p, dt)


@dataclass(frozen=True)
class CdfEstimate:
    """Empirical distribution profile plus counts of agents off the grid."""

    profile: Profile
    n_below: int
    n_above: int


def _cdf(srt: np.ndarray, grid: Grid1D) -> CdfEstimate:
    """The CdfEstimate of the agents whose sorted positions are srt."""
    n = srt.size
    above = n - np.searchsorted(srt, grid.x, side="right")
    prof = Profile(grid, above / n)
    n_below = int(np.searchsorted(srt, grid.x_min, side="left"))
    n_above = int(n - np.searchsorted(srt, grid.x_max, side="right"))
    return CdfEstimate(profile=prof, n_below=n_below, n_above=n_above)


def empirical_cdf(state: ParticleState, grid: Grid1D) -> CdfEstimate:
    """Fraction of agents strictly above each node: non-increasing, in [0, 1].

    Agents outside [x_min, x_max] are flagged by count in the result rather
    than raised, since a diffusing cloud routinely sheds a few stragglers.
    """
    return _cdf(np.sort(state.positions), grid)


def iter_particles(
    state: ParticleState, rule: StrategyRule, p: model.ModelParams, grid: Grid1D
) -> Iterator[tuple[ParticleState, CdfEstimate]]:
    """Yield (state, its CdfEstimate on grid) from state to step grid.nt, stepping lazily.

    Each step is step_particles's at grid.dt, bit for bit; dt is checked
    once, at entry, and only when the sweep will step.  The sweep owns one
    worker thread and joins it when it ends: exhausted, closed or by an
    error, which the sweep raises (the first failed draw's, in the order a
    step reads them: its fire uniforms, then its job's normals and
    partners; a job drawn ahead is read only at its own step).  A caller
    that stops early closes the sweep (contextlib.closing).  The worker runs
    one draw job per step, into the noise buffer of the step's parity: while
    the caller holds state n, it draws step n + 1's normals and partners,
    and the caller draws state n's fire uniforms after the yield; no draw is
    made for a step at or past grid.nt.  A state is sorted once, for its
    CDF estimate and the strategy pass of its step.  Besides the positions
    and two steps' partner draws, a rank sweep holds five n-sized arrays:
    two of normals, one of fire uniforms, the sorted positions and the
    table (see _Workspace); a ratio sweep holds four, and its strategy pass
    makes its thresholds afresh.  A caller that lets go of each state
    before asking for the next keeps one positions array alive, not two.
    """
    nt, n, seed = grid.nt, state.n, state.seed
    if state.step_index < nt and grid.dt > dt_max(p) * (1.0 + 1e-12):
        raise DomainError(f"grid dt={grid.dt} exceeds dt_max={dt_max(p)}")
    work = _Workspace(n, rule, p, grid.dt)
    noises, fire = (np.empty(n), np.empty(n)), np.empty(n)  # normals by step parity
    with ThreadPoolExecutor(max_workers=1) as worker:

        def submit(step: int):
            return worker.submit(_draws, seed, step, noises[step % 2]) if step < nt else None

        job = submit(state.step_index)
        while True:
            step = state.step_index
            next_job = submit(step + 1)
            work.sort(state.positions)
            yield state, _cdf(work.sorted, grid)
            if job is None:
                return
            _stream(seed, step, _FIRE).random(out=fire)
            fired = work.fired(state.positions, fire)
            state = _step(state, fired, noises[step % 2], job.result(), p, grid.dt)
            job = next_job
