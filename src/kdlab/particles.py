"""Stochastic N-agent simulator: search clocks, jump-to-better, innovation.

Each agent carries a log-productivity.  Per step of length dt (tau-leaping),
an agent fires with probability 1 - exp(-alpha(s)*dt), picks another agent
uniformly from the beginning-of-step snapshot, and adopts that snapshot
position if it is strictly higher; every agent then adds an independent
Gaussian innovation increment of variance 2*kappa*dt.  Snapshot semantics
remove within-step order dependence.

Randomness is counter-based: every array of draws comes from a Philox stream
keyed by (seed, step, purpose) and is indexed by persistent per-agent stream
ids, so runs are reproducible regardless of execution order and permuting
agents together with their ids permutes the outcome exactly.

Nothing a step draws depends on the positions, so each step draws its three
streams on a worker thread while the calling thread ranks the agents.  The
Philox fills, the gathers and the argsort release the interpreter lock, so
the two run at once on two cores.  The result does not depend on the
overlap: each stream is a fresh Generator built from its own key, and the
threads share no mutable state.  The worker is started and joined inside the
step, so at most one extra thread exists, only while a step runs; nothing
configures it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import DomainError, NonFiniteError
from .grid import Grid1D, Profile, is_number

RANK = "rank"
SMOOTHED_RANK = "smoothed-rank"
RATIO = "ratio"

_FIRE, _PARTNER, _NOISE = 0, 1, 2


@dataclass(frozen=True)
class ParticleState:
    """Agent log-productivities plus the RNG bookkeeping that replays them.

    stream_ids assigns each array slot its random sub-stream; fresh states
    use 0..n-1.  (seed, step_index, stream_ids) fully determine all future
    draws, which is what makes checkpoint/resume exact.  slot_of_id is the
    inverse permutation, derived from stream_ids.
    """

    positions: np.ndarray
    time: float
    seed: int
    step_index: int = 0
    stream_ids: np.ndarray | None = None
    slot_of_id: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", positions)
        if positions.ndim != 1 or positions.size < 2:
            raise DomainError("need a 1-D array of at least two agents")
        if not np.all(np.isfinite(positions)):
            raise NonFiniteError("agent positions must be finite")
        if not 0 <= self.seed < 2**63:
            raise DomainError("seed must fit in a non-negative 63-bit integer")
        ids = self.stream_ids
        if ids is None:
            ids = np.arange(positions.size, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != positions.shape or ids.min(initial=0) < 0 or not np.all(
                np.bincount(ids, minlength=positions.size) == 1
            ):
                raise DomainError("stream_ids must be a permutation of 0..n-1")
        object.__setattr__(self, "stream_ids", ids)
        slot_of_id = np.empty(positions.size, dtype=np.int64)
        slot_of_id[ids] = np.arange(positions.size, dtype=np.int64)
        object.__setattr__(self, "slot_of_id", slot_of_id)

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class StrategyRule:
    """How agents choose their search-time fraction.

    rank: fraction of agents at or above one's own position (self included).
    smoothed-rank: rank with the sharp comparison replaced by a smooth ramp
        of the given width in log-productivity.
    ratio: expected relative productivity gain over better agents, capped at 1.
    """

    kind: str = RANK
    kernel_width: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (RANK, SMOOTHED_RANK, RATIO):
            raise DomainError(
                f"strategy kind must be one of {(RANK, SMOOTHED_RANK, RATIO)}, got {self.kind!r}"
            )
        if self.kind == SMOOTHED_RANK and not (
            is_number(self.kernel_width) and self.kernel_width > 0
        ):
            raise DomainError("smoothed-rank needs a positive kernel width")


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _sort_with_ties(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, sorted positions, first) from one argsort.

    first[k] is the first sorted slot holding a value equal to the one in slot
    k, i.e. the count of agents strictly below it.  Equality is numeric, so
    -0.0 and 0.0 tie, as in searchsorted.
    """
    order = np.argsort(positions)
    srt = positions[order]
    first = np.arange(srt.size)
    first[1:][srt[1:] == srt[:-1]] = 0
    np.maximum.accumulate(first, out=first)
    return order, srt, first


def _rank_fractions(positions: np.ndarray) -> np.ndarray:
    order, srt, first = _sort_with_ties(positions)
    n = positions.size
    # (n - first) / n, computed in the sort's own buffers; first is dropped
    # before out is allocated, so out can reuse its memory.
    np.subtract(n, first, out=first)
    np.divide(first, n, out=srt)
    del first
    out = np.empty(n)
    out[order] = srt
    return out


def _smoothed_rank_fractions(positions: np.ndarray, width: float) -> np.ndarray:
    srt = np.sort(positions)
    n = positions.size
    # Everything at least `width` above contributes 1; the window below that
    # contributes through the ramp.  Window members are summed explicitly.
    hi = np.searchsorted(srt, positions + width, side="left")
    out = (n - hi).astype(float)
    lo = np.searchsorted(srt, positions, side="right")
    for i in range(n):
        w = srt[lo[i]:hi[i]] - positions[i]
        if w.size:
            out[i] += _smoothstep(w / width).sum()
    return out / n


def _ratio_fractions(positions: np.ndarray) -> np.ndarray:
    order, srt, first = _sort_with_ties(positions)
    n = positions.size
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
    out = np.empty(n)
    out[order] = s_sorted
    return out


def eval_strategy(state: ParticleState, rule: StrategyRule) -> np.ndarray:
    """Per-agent search-time fractions in [0, 1] under the given rule."""
    if rule.kind == RANK:
        return _rank_fractions(state.positions)
    if rule.kind == SMOOTHED_RANK:
        return _smoothed_rank_fractions(state.positions, rule.kernel_width)
    return _ratio_fractions(state.positions)


def _stream(seed: int, step: int, purpose: int) -> np.random.Generator:
    key = np.array([seed, step * 4 + purpose], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(seed: int, step: int, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step's three streams, each drawn in full: (fire uniforms by slot,
    partner draws by stream id, innovation normals by slot).

    The streams are independent, so the order of the draws is free; drawing
    the ungathered partner stream last keeps at most three arrays of n alive
    in the worker.
    """
    n = ids.size
    noise = _stream(seed, step, _NOISE).standard_normal(n)[ids]
    fire_u = _stream(seed, step, _FIRE).random(n)[ids]
    partner_draw = _stream(seed, step, _PARTNER).integers(0, n - 1, size=n)
    return fire_u, partner_draw, noise


def step_particles(
    state: ParticleState, rule: StrategyRule, p: model.ModelParams, dt: float
) -> ParticleState:
    """One tau-leap step; deterministic given (seed, step_index, stream_ids).

    The draws run on a worker thread started for this step while this thread
    evaluates the strategy, and the worker is joined before the draws are
    used, so the result is the same as drawing them in line.  An error the
    worker raises is raised here.  The worker calls only private helpers, so
    a tracer that wraps the public functions sees every call on this thread.
    """
    if p.alpha1 > 0 and dt > 0.1 / p.alpha1 * (1.0 + 1e-12):
        raise DomainError(f"dt={dt} exceeds 0.1/alpha1={0.1 / p.alpha1}")
    ids, x = state.stream_ids, state.positions
    with ThreadPoolExecutor(max_workers=1) as worker:
        drawing = worker.submit(_draws, state.seed, state.step_index, ids)
        # Every rule's fractions lie in [0, 1] by construction, so the rate is unchecked.
        rates = model._alpha(eval_strategy(state, rule), p)
        fire_u, partner_draw, noise = drawing.result()

    fired = np.flatnonzero(fire_u < -np.expm1(-rates * dt))
    # The partner stream is drawn in full, so its values do not depend on who fires.
    fired_ids = ids[fired]
    partner_draw = partner_draw[fired_ids]
    partner_pos = x[state.slot_of_id[partner_draw + (partner_draw >= fired_ids)]]

    own = x[fired]
    new = x.copy()
    new[fired] = np.where(partner_pos > own, partner_pos, own)
    new += math.sqrt(2.0 * p.kappa * dt) * noise

    # The step keeps the positions finite and the seed and stream ids as they
    # are, so the successor skips __post_init__'s O(n) checks.
    successor = object.__new__(ParticleState)
    vars(successor).update(vars(state), positions=new, time=state.time + dt,
                           step_index=state.step_index + 1)
    return successor


@dataclass(frozen=True)
class CdfEstimate:
    """Empirical distribution profile plus counts of agents off the grid."""

    profile: Profile
    n_below: int
    n_above: int


def empirical_cdf(state: ParticleState, grid: Grid1D) -> CdfEstimate:
    """Fraction of agents strictly above each node: non-increasing, in [0, 1].

    Agents outside [x_min, x_max] are flagged by count in the result rather
    than raised, since a diffusing cloud routinely sheds a few stragglers.
    """
    srt = np.sort(state.positions)
    n = state.n
    above = n - np.searchsorted(srt, grid.x, side="right")
    prof = Profile(grid, above / n)
    n_below = int(np.searchsorted(srt, grid.x_min, side="left"))
    n_above = int(n - np.searchsorted(srt, grid.x_max, side="right"))
    return CdfEstimate(profile=prof, n_below=n_below, n_above=n_above)
