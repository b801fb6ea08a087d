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
from typing import Callable, Iterator, Union

import numpy as np

from . import model
from .errors import DomainError, GridMismatchError
from .grid import SLOPE_TOL, Grid1D, Profile, SpaceTimeField, _march

INTRINSIC = "intrinsic-J"
CONSTANT_ALPHA = "constant-alpha"
RANK_LOCAL = "rank-local"

StrategyInput = Union[SpaceTimeField, str]

#: Growth rate c(t_n, .) of step n, given the slice F_n it starts from.
RateFn = Callable[[int, np.ndarray], np.ndarray]


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


def nonlocal_rate(F: Profile, s_star: Profile, p: model.ModelParams) -> Profile:
    """Cumulative growth rate c(x) = integral over y <= x of alpha(s*) (-F_y) dy.

    Non-negative and non-decreasing for non-increasing F; bounded by
    alpha1 * (1 - F(x)) up to quadrature tolerance.
    """
    if F.grid != s_star.grid:
        raise GridMismatchError("F and s* live on different grids")
    s = np.clip(s_star.values, 0.0, 1.0)
    if np.any(np.abs(s - s_star.values) > 1e-9):
        raise DomainError("strategy values must lie in [0, 1]")
    return Profile(F.grid, _rate_from_alpha(F.values, model.alpha(s, p)))


def _run_steps(
    F0: Profile, rate: RateFn, p: model.ModelParams, grid: Grid1D
) -> Iterator[tuple[int, np.ndarray]]:
    """Check a whole-grid forward run's inputs, then return its IMEX steps.

    The steps run on the shared stepper with F pinned to 1 left and 0 right:
    diffusion is implicit, the reaction F (1 + dt c) with c = rate(n, F) explicit.
    """
    if F0.grid != grid:
        raise GridMismatchError("F0 does not live on the run grid")
    if grid.nt > 0 and grid.dt > dt_max(p) * (1.0 + 1e-12):
        raise DomainError(f"grid dt={grid.dt} exceeds dt_max={dt_max(p)}")
    if np.max(np.diff(F0.values), initial=-np.inf) > SLOPE_TOL:
        raise DomainError("F0 must be non-increasing")
    dt = grid.dt
    return _march(
        F0.values.copy(), grid.nt, grid.dx, dt, p.kappa,
        lambda n, F: F * (1.0 + dt * rate(n, F)), ends=(1.0, 0.0), slope=-1, name="F",
    )


def _alpha_slice(
    F_vals: np.ndarray, J_vals: np.ndarray | None, strategy: StrategyInput, j: int,
    p: model.ModelParams,
) -> np.ndarray:
    """Search-rate values alpha(s(t_j, .)) for the step starting at slice j with pay-off J.

    Unchecked: the strategy is clipped to [0, 1], and J is finite and
    non-negative (see iter_forward).
    """
    if isinstance(strategy, SpaceTimeField):
        return model._alpha(np.clip(strategy.values[j], 0.0, 1.0), p)
    if strategy == CONSTANT_ALPHA:
        return np.full_like(F_vals, p.alpha1)
    return model._alpha_of_sm(J_vals, p)


def iter_forward(
    F0: Profile,
    strategy: StrategyInput,
    p: model.ModelParams,
    grid: Grid1D,
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """Yield (slice index, F values, intrinsic pay-off J) for j = 0 .. nt, stepping lazily.

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
    closure = strategy in (INTRINSIC, CONSTANT_ALPHA)
    J = None  # the pay-off of the slice last yielded, which the next step reads
    if strategy == RANK_LOCAL:
        q1 = model.q_integral(1.0, p)
        rate = lambda j, F: q1 - model._q_integral(F, p)
    else:
        rate = lambda j, F: _rate_from_alpha(F, _alpha_slice(F, J, strategy, j, p))
    for j, F in _run_steps(F0, rate, p, grid):
        if closure:
            J = model.discounted_tail(F, grid.dx, p.rho_minus_kappa)
        if j == 0:
            # The caller's slice gets the model's checks once.  Every later
            # slice leaves the stepper finite and clamped to [0, 1], so its
            # pay-off is finite and non-negative and the rates run unchecked.
            if strategy == INTRINSIC:
                model.alpha_of_sm(J, p)
            elif strategy == RANK_LOCAL:
                model.q_integral(F, p)
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
