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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    draws, which is what makes checkpoint/resume exact.
    """

    positions: np.ndarray
    time: float
    seed: int
    step_index: int = 0
    stream_ids: np.ndarray | None = None

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


def _rank_fractions(positions: np.ndarray) -> np.ndarray:
    srt = np.sort(positions)
    n = positions.size
    return (n - np.searchsorted(srt, positions, side="left")) / n


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
    order = np.argsort(positions)
    srt = positions[order]
    n = positions.size
    shifted = np.exp(srt - srt[-1])
    suffix = np.cumsum(shifted[::-1])[::-1]
    first = np.searchsorted(srt, srt, side="left")
    # Sum over agents at or above: exp(x_m - x_i) - 1, summing ties too (they
    # contribute zero).  Positions far enough below the maximum saturate.
    gap = srt[-1] - srt
    s_sorted = np.ones(n)
    safe = gap < math.log(n + 1.0) + 1.0
    s_sorted[safe] = np.minimum(
        1.0,
        (np.exp(gap[safe]) * suffix[first[safe]] - (n - first[safe])) / n,
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


def step_particles(
    state: ParticleState, rule: StrategyRule, p: model.ModelParams, dt: float
) -> ParticleState:
    """One tau-leap step; deterministic given (seed, step_index, stream_ids)."""
    if p.alpha1 > 0 and dt > 0.1 / p.alpha1 * (1.0 + 1e-12):
        raise DomainError(f"dt={dt} exceeds 0.1/alpha1={0.1 / p.alpha1}")
    n = state.n
    ids = state.stream_ids
    rates = model.alpha(eval_strategy(state, rule), p)

    fire_u = _stream(state.seed, state.step_index, _FIRE).random(n)[ids]
    fires = fire_u < -np.expm1(-rates * dt)

    partner_draw = _stream(state.seed, state.step_index, _PARTNER).integers(0, n - 1, size=n)[ids]
    partner_id = partner_draw + (partner_draw >= ids)
    slot_of_id = np.empty(n, dtype=np.int64)
    slot_of_id[ids] = np.arange(n, dtype=np.int64)
    partner_pos = state.positions[slot_of_id[partner_id]]

    new = np.where(fires & (partner_pos > state.positions), partner_pos, state.positions)

    noise = _stream(state.seed, state.step_index, _NOISE).standard_normal(n)[ids]
    new = new + math.sqrt(2.0 * p.kappa * dt) * noise

    return replace(
        state, positions=new, time=state.time + dt, step_index=state.step_index + 1
    )


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
