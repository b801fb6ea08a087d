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
how steps are done: it keeps one worker thread a step ahead on the draws,
sorts each state once for its CDF estimate and its strategy pass, builds
the rank rule's fire thresholds once per run, and writes into n-sized
buffers allocated once (800 KB each at n = 100 000, which glibc would return
and page-fault anew every step).  No draw reads a position, and the Philox
fills and the argsort release the interpreter lock, so the worker draws
while the sweep ranks and steps.  A bare step_particles call draws in line
into fresh buffers and starts no thread; the sweep's steps equal it bit for
bit, since each stream is a fresh Generator built from its own key and the
table holds the values the per-step path computes.  Nothing configures the
worker or the buffers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import model
from .errors import DomainError, NonFiniteError
from .forward import dt_max
from .grid import Grid1D, Profile, check_numbers, is_number

RANK = "rank"
RATIO = "ratio"

#: The purposes of the Philox streams: a step's three draws, and at step 0
#: the initial positions.
_FIRE, _PARTNER, _NOISE, _INITIAL = 0, 1, 2, 3


class _Workspace:
    """The n-sized arrays a particle step writes into.

    The draws fill noise and fire; the strategy pass sorts into sorted.  An
    untied state under a rank sweep then scatters table, the fire thresholds
    by sorted slot, into sorted by the argsort; every other state writes the
    tie starts, then the fractions, then the thresholds into a fresh array,
    with sorted as scratch.  A bare step's workspace has no table.  The draws
    may run on a worker while the strategy pass runs, so they share no array.
    """

    def __init__(self, n: int, table: np.ndarray | None = None) -> None:
        self.noise, self.fire, self.sorted, self.table = (
            np.empty(n), np.empty(n), np.empty(n), table)

    def sort(self, positions: np.ndarray) -> np.ndarray:
        """Sort positions into sorted; return their argsort."""
        order = np.argsort(positions)
        # The order is a permutation, so no index is out of range; mode="clip"
        # spares the copy of sorted that the bounds-checked take makes.
        np.take(positions, order, out=self.sorted, mode="clip")
        return order

    def fractions(
        self, rule: StrategyRule, order: np.ndarray, ties: np.ndarray | None
    ) -> np.ndarray:
        """The rule's fractions by slot, in a fresh array, from sorted
        (overwritten), its order and its ties (see _ties)."""
        # first[k] becomes the first sorted slot of slot k's tie: the count
        # of agents strictly below it.
        first = np.arange(self.sorted.size)
        if ties is not None:
            first[1:][ties] = 0
            np.maximum.accumulate(first, out=first)
        fractions = _rank_fractions if rule.kind == RANK else _ratio_fractions
        return fractions(order, self.sorted, first)

    def thresholds(
        self, rule: StrategyRule, order: np.ndarray, p: model.ModelParams, dt: float
    ) -> np.ndarray:
        """The fire thresholds by slot from sorted (overwritten) and its order:
        in sorted when the table applies, else in a fresh array."""
        ties = _ties(self.sorted)
        if self.table is None or ties is not None:
            return _fire_thresholds(self.fractions(rule, order, ties), p, dt)
        self.sorted[order] = self.table
        return self.sorted


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


def _ties(srt: np.ndarray) -> np.ndarray | None:
    """Where the sorted srt repeats the slot before, or None when no two agents tie.

    A tie's first sorted slot holds the count of agents strictly below it,
    which is what the fractions read in place of the slot.  Equality is
    numeric, so -0.0 and 0.0 tie, as in searchsorted.
    """
    ties = srt[1:] == srt[:-1]
    # The innovation noise leaves a run's agents untied, and the running
    # maximum that finds the tie starts is the pass's slowest part.
    return ties if ties.any() else None


def _rank_fractions(order: np.ndarray, srt: np.ndarray, first: np.ndarray) -> np.ndarray:
    """(n - first) / n by slot, in first's memory as float64; srt is scratch."""
    n = first.size
    # (n - first) / n, computed in the sort's own buffers; first is consumed
    # into srt before its memory takes the result.
    np.subtract(n, first, out=first)
    np.divide(first, n, out=srt)
    out = first.view(float)
    out[order] = srt
    return out


def _ratio_fractions(order: np.ndarray, srt: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Capped relative gain over the agents at or above, by slot, in first's memory."""
    n = first.size
    shifted = np.exp(srt - srt[-1])
    suffix = np.cumsum(shifted[::-1])[::-1]
    # Sum over agents at or above: exp(x_m - x_i) - 1, summing ties too (they
    # contribute zero).  Positions far enough below the maximum saturate.
    gap = srt[-1] - srt
    s_sorted = np.ones(n)
    safe = gap < math.log(n + 1.0) + 1.0
    # Each summand is >= 0, so the clip at 0 only absorbs roundoff.
    s_sorted[safe] = np.clip(
        (np.exp(gap[safe]) * suffix[first[safe]] - (n - first[safe])) / n, 0.0, 1.0
    )
    out = first.view(float)
    out[order] = s_sorted
    return out


def eval_strategy(state: ParticleState, rule: StrategyRule) -> np.ndarray:
    """Per-agent search-time fractions in [0, 1] under the given rule.

    Both rules read one argsort of the positions and one tie pass, in fresh
    buffers.
    """
    work = _Workspace(state.n)
    order = work.sort(state.positions)
    return work.fractions(rule, order, _ties(work.sorted))


def _stream(seed: int, step: int, purpose: int) -> np.random.Generator:
    key = np.array([seed, step * 4 + purpose], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(
    seed: int, step: int, n: int, noise: np.ndarray | None = None,
    fire: np.ndarray | None = None,
) -> np.ndarray | None:
    """Draw the step's streams for n agents, each in full and by slot: the
    innovation normals into noise, when given; with fire, the fire uniforms
    into fire, and return the partner draws.
    """
    if noise is not None:
        _stream(seed, step, _NOISE).standard_normal(out=noise)
    if fire is None:
        return None
    _stream(seed, step, _FIRE).random(out=fire)
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


def _rank_table(n: int, p: model.ModelParams, dt: float) -> np.ndarray:
    """The rank rule's fire thresholds by sorted slot of n untied agents.

    Slot i's fraction is (n - i)/n, computed as _rank_fractions does, so each
    entry is the per-step path's threshold bit for bit.
    """
    return _fire_thresholds(np.arange(n, 0, -1) / n, p, dt)


def _step(
    state: ParticleState, thresholds: np.ndarray, partner_draw: np.ndarray, work: _Workspace,
    p: model.ModelParams, dt: float,
) -> ParticleState:
    """The tau-leap step from state, given its fire thresholds by slot and its
    complete draws: partner_draw, work.fire and work.noise, which it scales in
    place."""
    x = state.positions
    fired = np.flatnonzero(work.fire < thresholds)
    # The partner stream is drawn in full, so its values do not depend on who
    # fires.  A draw in 0..n-2 skips the agent's own slot.
    partner = partner_draw[fired]
    partner_pos = x[partner + (partner >= fired)]

    own = x[fired]
    new = x.copy()
    new[fired] = np.where(partner_pos > own, partner_pos, own)
    work.noise *= math.sqrt(2.0 * p.kappa * dt)
    new += work.noise

    # The step keeps the positions finite and the seed as it is, so the
    # successor skips __post_init__'s O(n) check.
    successor = object.__new__(ParticleState)
    vars(successor).update(positions=new, seed=state.seed, step_index=state.step_index + 1)
    return successor


def step_particles(
    state: ParticleState, rule: StrategyRule, p: model.ModelParams, dt: float
) -> ParticleState:
    """One tau-leap step; deterministic given (positions, seed, step_index).

    The call draws in line on the calling thread, into fresh buffers, takes
    its fractions from eval_strategy and starts no thread.  iter_particles
    makes the same step, bit for bit.
    """
    if not (is_number(dt) and 0.0 <= dt <= dt_max(p) * (1.0 + 1e-12)):
        raise DomainError(f"dt must be a number in [0, dt_max={dt_max(p)}], got {dt!r}")
    work = _Workspace(state.n)
    partner_draw = _draws(state.seed, state.step_index, state.n, work.noise, work.fire)
    thresholds = _fire_thresholds(eval_strategy(state, rule), p, dt)
    return _step(state, thresholds, partner_draw, work, p, dt)


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
    worker thread, which draws each step's streams, and joins it when it
    ends: exhausted, closed or by an error, which the sweep raises (the
    first failed draw's: a step reads its draws in the order they were
    submitted).  A caller that stops early closes the sweep
    (contextlib.closing).  While the caller holds state n, the worker draws
    step n's fire uniforms and partners, then step n + 1's innovation
    normals into the second noise buffer; no draw is made for a step at or
    past grid.nt.  A state is sorted once: its CDF estimate and the
    strategy pass of its step read the same argsort, which the sweep drops
    before it steps.  Under the rank rule an untied state's fraction at
    sorted slot i is (n - i)/n, so a rank sweep builds its table of fire
    thresholds by sorted slot once, at entry, and an untied state's step
    scatters it by the argsort; a ratio sweep, and a tied state, compute
    the thresholds from the rule's fractions in fresh arrays.  Besides the
    positions, the argsort and the partner draws, the sweep holds five
    n-sized arrays (four under the ratio rule): two of normals, the fire
    uniforms, the sorted positions, which an untied rank state's thresholds
    overwrite, and the table.  A caller that lets go of each state before
    asking for the next keeps one positions array alive, not two.
    """
    nt, n, seed = grid.nt, state.n, state.seed
    stepping = state.step_index < nt
    if stepping and grid.dt > dt_max(p) * (1.0 + 1e-12):
        raise DomainError(f"grid dt={grid.dt} exceeds dt_max={dt_max(p)}")
    table = _rank_table(n, p, grid.dt) if stepping and rule.kind == RANK else None
    work, spare = _Workspace(n, table), np.empty(n)
    with ThreadPoolExecutor(max_workers=1) as worker:
        if stepping:
            normals = worker.submit(_draws, seed, state.step_index, n, noise=work.noise)
        while True:
            step = state.step_index
            stepping = step < nt
            if stepping:
                drawing = worker.submit(_draws, seed, step, n, fire=work.fire)
                ahead = (worker.submit(_draws, seed, step + 1, n, noise=spare)
                         if step + 1 < nt else None)
            order = work.sort(state.positions)
            yield state, _cdf(work.sorted, grid)
            if not stepping:
                return
            thresholds = work.thresholds(rule, order, p, grid.dt)
            del order  # 8n bytes the step does not need
            normals.result()
            state = _step(state, thresholds, drawing.result(), work, p, grid.dt)
            work.noise, spare, normals = spare, work.noise, ahead
