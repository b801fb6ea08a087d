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
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """Yield (slice index, F values, intrinsic pay-off J) for j = 0 .. nt, stepping lazily.

    The inputs are checked once, at entry: F0 must be non-increasing and lie
    in [0, 1], where the stepper keeps every later slice, so the growth rate
    calls the model's kernels unchecked.  The coupling is read once too, into
    one rate kernel c(t_j, .) per sweep; the steps run on the shared stepper
    with F pinned to 1 left and 0 right, diffusion implicit and the reaction
    F (1 + dt c) explicit.  A prescribed strategy field is clipped to [0, 1]
    row by row, as each step reads it.

    Under the intrinsic and constant-rate closures J is discounted_tail of the
    slice, computed once: the intrinsic closure steps from that same J.  Under
    a prescribed strategy field and under RANK_LOCAL J is None.  RANK_LOCAL is
    the rank strategy s = F, whose growth rate collapses to Q(1) - Q(F) with Q
    the antiderivative of alpha, in closed form: the mean-field counterpart of
    rank-proportional search and the cross-check target for the particle
    simulator.  Consumers that keep slices should copy them; the buffers are
    not part of the contract.  Used by solve_forward and by the streaming
    runners, which avoid holding a long trajectory in memory.
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
    J = None  # the pay-off of the slice last yielded, which the next step reads
    if isinstance(strategy, SpaceTimeField):
        s = strategy.values
        rate = lambda j, F: _rate_from_alpha(F, model._alpha(np.clip(s[j], 0.0, 1.0), p))
    elif strategy == INTRINSIC:
        rate = lambda j, F: _rate_from_alpha(F, model._alpha_of_sm(J, p))
    elif strategy == CONSTANT_ALPHA:
        alpha = np.full(grid.nx, p.alpha1)
        rate = lambda j, F: _rate_from_alpha(F, alpha)
    else:
        q1 = model._q_integral(1.0, p)
        rate = lambda j, F: q1 - model._q_integral(F, p)
    closure = strategy in (INTRINSIC, CONSTANT_ALPHA)
    dt = grid.dt
    steps = _march(F0.values.copy(), grid.nt, grid.dx, dt, p.kappa,
                   lambda j, F: F * (1.0 + dt * rate(j, F)), ends=(1.0, 0.0), slope=-1, name="F")
    for j, F in steps:
        if closure:
            J = model.discounted_tail(F, grid.dx, p.rho_minus_kappa)
        yield j, F, J


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
    for j, vals, _ in iter_forward(F0, strategy, p, grid):
        out[j] = vals
    return SpaceTimeField(grid, out)
