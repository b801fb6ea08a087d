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

Nothing a step draws depends on the positions.  A run (harness.run) opens
one worker thread for its whole length, and each step draws its three
streams on it while the calling thread ranks the agents.  The Philox fills
and the argsort release the interpreter lock, so the two run at once on two
cores.  The worker is joined when the run ends, normally or by an error.
A bare step_particles call draws in line on the calling thread, through
the same function, and starts no thread.  The result does not
depend on where the draws run: each stream is a fresh Generator built from
its own key, and the step reads the draws only once they are complete.
The draws of a step depend on nothing the step before computes, so in a
run each step submits the next step's draws before it returns, and the
worker draws them while the caller records the state and ranks it.

A run also allocates, once, the n-sized buffers its steps write their draws
and temporaries into: the sort, the rates, the fire threshold and the
scaled noise.  At n = 100 000 each is 800 KB, and glibc returns freed
arrays of that size to the system, so fresh ones made every step
page-fault.  Only the successor's positions are a fresh array, since states
are immutable.  Nothing configures the worker or the buffers.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainError, NonFiniteError
from .forward import dt_max
from .grid import Grid1D, Profile, check_numbers, is_number

RANK = "rank"
RATIO = "ratio"

_FIRE, _PARTNER, _NOISE = 0, 1, 2


class _Workspace:
    """A particle run's draw worker and the n-sized arrays its steps write into.

    The draws fill noise and fire; the strategy pass sorts into sorted and
    rates and writes the fractions, then the rates and the fire threshold,
    into rates; index holds 0, 1, ..., n-1.  The draws and the strategy pass
    run at once, so they share no array.  ahead holds ((seed, step), future)
    of the draws a step submitted for the next one.  sorted_of is the
    positions array whose argsort is order and whose sorted values are in
    sorted, so that the CDF estimate of a recorded state and the strategy
    pass of its step share one sort; the strategy pass then drops both,
    since it overwrites sorted.
    """

    def __init__(self, n: int, worker: ThreadPoolExecutor | None = None) -> None:
        self.worker = worker
        self.noise, self.fire = np.empty(n), np.empty(n)
        self.sorted, self.rates, self.index = np.empty(n), np.empty(n), np.arange(n)
        self.ahead: tuple[tuple[int, int], Future] | None = None
        self.sorted_of: np.ndarray | None = None
        self.order: np.ndarray | None = None

    def sort(self, positions: np.ndarray) -> np.ndarray:
        """Argsort positions, and sort them into sorted, unless that is done
        for this very array; return the order."""
        if self.sorted_of is not positions:
            self.order = np.argsort(positions)
            # The order is a permutation, so no index is out of range;
            # mode="clip" spares the copy of sorted that the bounds-checked
            # take makes.
            np.take(positions, self.order, out=self.sorted, mode="clip")
            self.sorted_of = positions
        return self.order

    def draw(self, seed: int, step: int) -> Future:
        """The draws for (seed, step): in line without a worker, else on the
        worker, reusing those submitted ahead if they are for these."""
        if self.worker is None:
            done = Future()
            done.set_result(_draws(seed, step, self.index.size, self))
            return done
        ahead, self.ahead = self.ahead, None
        if ahead is not None and ahead[0] == (seed, step):
            return ahead[1]
        return self.worker.submit(_draws, seed, step, self.index.size, self)

    def draw_ahead(self, seed: int, step: int) -> None:
        """Submit the draws for (seed, step) to the worker, if there is one."""
        if self.worker is not None:
            n = self.index.size
            self.ahead = ((seed, step), self.worker.submit(_draws, seed, step, n, self))


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


def _tie_starts(srt: np.ndarray, first: np.ndarray) -> None:
    """Turn first from 0, 1, ..., n-1 into the first sorted slot of each tie of srt.

    first[k] is then the first sorted slot holding a value equal to the one
    in slot k, i.e. the count of agents strictly below it.  Equality is
    numeric, so -0.0 and 0.0 tie, as in searchsorted.
    """
    ties = srt[1:] == srt[:-1]
    # The innovation noise leaves a run's agents untied, and the running
    # maximum is the pass's slowest part.
    if ties.any():
        first[1:][ties] = 0
        np.maximum.accumulate(first, out=first)


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


def eval_strategy(
    state: ParticleState, rule: StrategyRule, _workspace: _Workspace | None = None
) -> np.ndarray:
    """Per-agent search-time fractions in [0, 1] under the given rule.

    Both rules read one sort of the positions in the workspace, reused if
    empirical_cdf made it, and one tie pass into its rates buffer, and return
    the rates array, which a step overwrites.  A step passes its workspace
    (private); a bare call builds one without a worker.
    """
    work = _Workspace(state.n) if _workspace is None else _workspace
    order = work.sort(state.positions)
    # The fractions overwrite sorted; the order is not kept past the step.
    work.sorted_of = work.order = None
    first = work.rates.view(np.int64)
    np.copyto(first, work.index)
    _tie_starts(work.sorted, first)
    fractions = _rank_fractions if rule.kind == RANK else _ratio_fractions
    return fractions(order, work.sorted, first)


def _stream(seed: int, step: int, purpose: int) -> np.random.Generator:
    key = np.array([seed, step * 4 + purpose], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(seed: int, step: int, n: int, work: _Workspace) -> np.ndarray:
    """Draw the step's three streams for n agents, each in full and by slot:
    the innovation normals into work.noise, the fire uniforms into work.fire;
    return the partner draws.
    """
    _stream(seed, step, _NOISE).standard_normal(out=work.noise)
    _stream(seed, step, _FIRE).random(out=work.fire)
    return _stream(seed, step, _PARTNER).integers(0, n - 1, size=n)


def step_particles(
    state: ParticleState, rule: StrategyRule, p: model.ModelParams, dt: float,
    _workspace: _Workspace | None = None,
) -> ParticleState:
    """One tau-leap step; deterministic given (positions, seed, step_index).

    A bare call draws in line on the calling thread and starts no thread.  A
    run passes its workspace (private): the draws then run on the run's
    worker, submitted by the step before or else by this one, while this
    thread evaluates the strategy, and are read only after the worker has
    finished them, so the result is the same either way.  An error the
    worker raises is raised here.  Before it returns, the step submits the
    next step's draws.  The temporaries go into the workspace's buffers; the
    successor's positions are a fresh array.  The worker calls only private
    helpers, so a tracer that wraps the public functions sees every call on
    this thread.
    """
    if not (is_number(dt) and 0.0 <= dt <= dt_max(p) * (1.0 + 1e-12)):
        raise DomainError(f"dt must be a number in [0, dt_max={dt_max(p)}], got {dt!r}")
    work = _Workspace(state.n) if _workspace is None else _workspace
    x = state.positions
    drawing = work.draw(state.seed, state.step_index)
    rates = eval_strategy(state, rule, work)
    partner_draw = drawing.result()
    # model._alpha, alpha1 * s**k, in place: every rule's fractions lie in
    # [0, 1] by construction, so the rate is unchecked.  Then the fire
    # threshold 1 - exp(-rate*dt), in place too.
    rates **= p.k
    rates *= p.alpha1
    np.multiply(rates, -dt, out=rates)
    np.expm1(rates, out=rates)
    np.negative(rates, out=rates)
    fired = np.flatnonzero(work.fire < rates)
    # The partner stream is drawn in full, so its values do not depend on who
    # fires.  A draw in 0..n-2 skips the agent's own slot.
    partner = partner_draw[fired]
    partner_pos = x[partner + (partner >= fired)]

    own = x[fired]
    new = x.copy()
    new[fired] = np.where(partner_pos > own, partner_pos, own)
    work.noise *= math.sqrt(2.0 * p.kappa * dt)
    new += work.noise
    work.draw_ahead(state.seed, state.step_index + 1)

    # The step keeps the positions finite and the seed as it is, so the
    # successor skips __post_init__'s O(n) check.
    successor = object.__new__(ParticleState)
    vars(successor).update(positions=new, seed=state.seed, step_index=state.step_index + 1)
    return successor


@dataclass(frozen=True)
class CdfEstimate:
    """Empirical distribution profile plus counts of agents off the grid."""

    profile: Profile
    n_below: int
    n_above: int


def empirical_cdf(
    state: ParticleState, grid: Grid1D, _workspace: _Workspace | None = None
) -> CdfEstimate:
    """Fraction of agents strictly above each node: non-increasing, in [0, 1].

    Agents outside [x_min, x_max] are flagged by count in the result rather
    than raised, since a diffusing cloud routinely sheds a few stragglers.
    A run passes its workspace (private): the state is then sorted in it, and
    the strategy pass of the state's step reuses that sort.
    """
    if _workspace is None:
        srt = np.sort(state.positions)
    else:
        _workspace.sort(state.positions)
        srt = _workspace.sorted
    n = state.n
    above = n - np.searchsorted(srt, grid.x, side="right")
    prof = Profile(grid, above / n)
    n_below = int(np.searchsorted(srt, grid.x_min, side="left"))
    n_above = int(n - np.searchsorted(srt, grid.x_max, side="right"))
    return CdfEstimate(profile=prof, n_below=n_below, n_above=n_above)
