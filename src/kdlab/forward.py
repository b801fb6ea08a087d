"""Forward-in-time solver for the agents' distribution function F.

F obeys F_t = kappa F_xx + c(t,x) F with the nonlocal growth rate
c(t,x) = integral over y <= x of alpha(s(t,y)) (-F_y) dy.  One step is IMEX:
diffusion implicit (backward Euler, tridiagonal), the bounded reaction c*F
explicit, boundary nodes pinned to F = 1 on the left and F = 0 on the right.

Four couplings are supported: a prescribed strategy field, the forward-only
closure that recomputes the intrinsic pay-off each step, a constant search
rate (which reduces the equation to classical Fisher-KPP), and the rank
strategy s = F, where the equation is local.
"""

from __future__ import annotations

import math
from typing import Iterator, Union

import numpy as np

from . import model
from .errors import DomainError, GridMismatchError
from .grid import SLOPE_TOL, Grid1D, Profile, SpaceTimeField, _march

INTRINSIC = "intrinsic-J"
CONSTANT_ALPHA = "constant-alpha"
RANK_LOCAL = "rank-local"

StrategyInput = Union[SpaceTimeField, str]


def dt_max(p: model.ModelParams) -> float:
    """Largest stable-and-accurate step: keeps the explicit reaction below 0.1."""
    return math.inf if p.alpha1 == 0.0 else 0.1 / p.alpha1


def _rate_from_alpha(F_vals: np.ndarray, alpha_vals: np.ndarray) -> np.ndarray:
    # Per-cell trapezoid of alpha against the measure -dF; telescopes exactly
    # for constant alpha, so c = alpha1 * (1 - F) holds to roundoff there.
    steps = 0.5 * (alpha_vals[:-1] + alpha_vals[1:]) * (F_vals[:-1] - F_vals[1:])
    c = np.empty_like(F_vals)
    c[0] = 0.0
    np.cumsum(steps, out=c[1:])
    return c


def iter_forward(
    F0: Profile,
    strategy: StrategyInput,
    p: model.ModelParams,
    grid: Grid1D,
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None, np.ndarray]]:
    """Yield (slice index, F values, intrinsic pay-off J, strategy s) for j = 0 .. nt, stepping lazily.

    The inputs are checked once, at entry: F0 must be non-increasing and lie
    in [0, 1], where the stepper keeps every later slice, so the growth rate
    calls the model's kernels unchecked.  The steps run on the shared stepper
    with F pinned to 1 left and 0 right, diffusion implicit and the reaction
    F (1 + dt c) explicit.

    s is the strategy slice j plays, computed once, and the step from slice
    j reads that same s: its growth rate is the trapezoid of alpha(s) against
    -dF.  s is a prescribed field's row j clipped to [0, 1], s_m(J) under the
    intrinsic closure, ones under the constant rate, and F itself under
    RANK_LOCAL, the rank strategy, whose growth rate collapses to Q(1) - Q(F)
    with Q the antiderivative of alpha: the mean-field counterpart of
    rank-proportional search and the cross-check target for the particles.

    Under the intrinsic and constant-rate closures J is discounted_tail of the
    slice, computed once; under a prescribed strategy field and under
    RANK_LOCAL it is None.  Consumers that keep slices should copy them; the
    buffers are not part of the contract.  Used by solve_forward, solve_nash
    and the streaming runners, which avoid holding a long trajectory in memory.
    """
    if isinstance(strategy, SpaceTimeField):
        if strategy.grid != grid:
            raise GridMismatchError("strategy field does not live on the run grid")
    elif strategy not in (INTRINSIC, CONSTANT_ALPHA, RANK_LOCAL):
        raise DomainError(f"unknown strategy input {strategy!r}")
    if F0.grid != grid:
        raise GridMismatchError("F0 does not live on the run grid")
    if grid.nt > 0 and grid.dt > dt_max(p) * (1.0 + 1e-12):
        raise DomainError(f"grid dt={grid.dt} exceeds dt_max={dt_max(p)}")
    if np.max(np.diff(F0.values), initial=-np.inf) > SLOPE_TOL:
        raise DomainError("F0 must be non-increasing")
    if np.min(F0.values) < 0.0 or np.max(F0.values) > 1.0:
        raise DomainError("F0 must lie in [0, 1]")
    rate = lambda F: _rate_from_alpha(F, model._alpha(s, p))
    if isinstance(strategy, SpaceTimeField):
        strategy_of = lambda j, F, J: np.clip(strategy.values[j], 0.0, 1.0)
    elif strategy == INTRINSIC:
        strategy_of = lambda j, F, J: model._s_m(J, p)
    elif strategy == CONSTANT_ALPHA:
        ones = np.ones(grid.nx)
        strategy_of = lambda j, F, J: ones
    else:
        q1 = model._q_integral(1.0, p)
        strategy_of = lambda j, F, J: F
        rate = lambda F: q1 - model._q_integral(F, p)
    closure = strategy in (INTRINSIC, CONSTANT_ALPHA)
    dt = grid.dt
    steps = _march(F0.values.copy(), grid.nt, grid.dx, dt, p.kappa,
                   lambda j, F: F * (1.0 + dt * rate(F)), ends=(1.0, 0.0), slope=-1, name="F")
    for j, F in steps:
        J = model.discounted_tail(F, grid.dx, p.rho_minus_kappa) if closure else None
        s = strategy_of(j, F, J)  # the strategy of the slice last yielded, which the next step reads
        yield j, F, J, s


def solve_forward(
    F0: Profile,
    strategy: StrategyInput,
    p: model.ModelParams,
    grid: Grid1D,
) -> SpaceTimeField:
    """Run the forward equation over the whole grid and return the trajectory.

    strategy is either a SpaceTimeField of time fractions (sampled
    piecewise-constant over each step), or one of the mode names
    "intrinsic-J" / "constant-alpha" / "rank-local".
    """
    out = np.empty((grid.nt + 1, grid.nx))
    for j, vals, _, _ in iter_forward(F0, strategy, p, grid):
        out[j] = vals
    return SpaceTimeField(grid, out)
