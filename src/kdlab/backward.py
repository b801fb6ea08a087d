"""Backward-in-time solver for the propensity-to-learn field w.

w solves w_t + kappa w_xx + 2 kappa w_x + (rho-kappa)(1 - s - w)
- alpha(s) w F = 0 from a terminal condition at t_final down to t0, where
s is the optimal allocation field of the current outer iterate.  In the
backward time variable this is a well-posed advection-diffusion-reaction
equation; one step treats kappa w_xx + 2 kappa w_x = kappa e^{-2x}(e^{2x} w_x)_x
implicitly, exponentially fitted and second order in dx, and the source
terms explicitly.  Boundaries are pinned to w = 0 on the left and w = 1 on
the right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import model
from .errors import DomainError, GridMismatchError
from .grid import SLOPE_TOL, TINY, Grid1D, Profile, SpaceTimeField, _march, check_numbers


@dataclass(frozen=True)
class TerminalCondition:
    """Terminal data for w: the logistic ramp 1 / (1 + exp(-slope (x - center))).

    kind names the ramp and takes "logistic" only.  Any other terminal profile
    is a Profile, which iter_backward and solve_nash take in its place.
    """

    kind: str = "logistic"
    center: float = 0.0
    slope: float = 1.0

    def __post_init__(self) -> None:
        check_numbers(self, "center slope")
        if self.kind != "logistic":
            raise DomainError(f"unknown terminal kind {self.kind!r}")
        if not self.slope > 0:
            raise DomainError("logistic slope must be positive")

    def build(self, grid: Grid1D) -> np.ndarray:
        z = np.clip(self.slope * (grid.x - self.center), -700.0, 700.0)
        return _checked_terminal(1.0 / (1.0 + np.exp(-z)))


def _checked_terminal(vals: np.ndarray) -> np.ndarray:
    """vals, if they are non-decreasing and run from within 1e-6 of 0 to within 1e-6 of 1."""
    if np.min(np.diff(vals)) < -SLOPE_TOL:
        raise DomainError("terminal condition must be non-decreasing")
    if vals[0] > 1e-6 or vals[-1] < 1.0 - 1e-6:
        raise DomainError("terminal condition must run from ~0 on the left to ~1 on the right")
    return vals


def dt_max_backward(p: model.ModelParams) -> float:
    """Step bound keeping the explicit source a contraction on [0, 1]."""
    return 1.0 / (p.rho_minus_kappa + p.alpha1)


def _check_scalable(p: model.ModelParams, grid: Grid1D) -> None:
    """Raise DomainError unless the backward step's scaled solve, whose values reach
    2 (1 + 2r cosh dx) e^{(x_max - x_min)/2} with r = kappa*dt/dx^2, stays a normal double."""
    r, h = p.kappa * grid.dt / grid.dx**2, (grid.x_max - grid.x_min) / 2.0
    if h + math.log(2.0 + 4.0 * r * math.cosh(grid.dx)) > -math.log(TINY):
        raise DomainError(f"the domain's {2.0 * h:g} e-folds exceed the backward step's float range")


def iter_backward(
    wT: TerminalCondition | Profile,
    F_field: SpaceTimeField,
    strategy_field: SpaceTimeField,
    p: model.ModelParams,
    grid: Grid1D,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (slice index, w values) for j = nt .. 0, stepping lazily backward.

    wT is a logistic TerminalCondition or a Profile on the run grid; either
    way the terminal slice must be non-decreasing and within 1e-6 of 0 at the
    left edge and of 1 at the right.  One step treats diffusion and the
    fitted drift implicitly and the source explicitly, on the shared stepper
    with w pinned to 0 left and 1 right; a domain past about 1 400 e-folds
    is a DomainError.  strategy_field holds the allocation values s of the
    current outer iterate; they are consumed as given, not recomputed here,
    and slice j is read only when the step that needs it is taken.  Every
    slice stays in [0, 1] and, like the terminal condition, non-decreasing in
    x within the slope tolerance.  Consumers that keep slices should copy them.
    """
    if F_field.grid != grid or strategy_field.grid != grid:
        raise GridMismatchError("fields do not live on the run grid")
    if grid.nt > 0 and grid.dt > dt_max_backward(p) * (1.0 + 1e-12):
        raise DomainError(
            f"grid dt={grid.dt} exceeds the backward source bound {dt_max_backward(p)}"
        )
    _check_scalable(p, grid)
    if isinstance(wT, Profile):
        if wT.grid != grid:
            raise GridMismatchError("terminal profile does not live on the run grid")
        w0 = _checked_terminal(wT.values.copy())
    else:
        w0 = wT.build(grid)
    nt, dt = grid.nt, grid.dt
    F, s = F_field.values, strategy_field.values

    def rhs(n: int, w: np.ndarray) -> np.ndarray:
        s_vals = np.clip(s[nt - n], 0.0, 1.0)
        source = p.rho_minus_kappa * (1.0 - s_vals - w) - model._alpha(s_vals, p) * w * F[nt - n]
        return w + dt * source

    steps = _march(w0, nt, grid.dx, dt, p.kappa, rhs, ends=(0.0, 1.0),
                   drift=2.0 * p.kappa, slope=1, name="w")
    for n, w in steps:
        yield nt - n, w


def solve_backward(
    wT: TerminalCondition | Profile,
    F_field: SpaceTimeField,
    strategy_field: SpaceTimeField,
    p: model.ModelParams,
    grid: Grid1D,
) -> SpaceTimeField:
    """Fill the w trajectory from the terminal slice down to t0 (see iter_backward)."""
    out = np.empty((grid.nt + 1, grid.nx))
    for j, vals in iter_backward(wT, F_field, strategy_field, p, grid):
        out[j] = vals
    return SpaceTimeField(grid, out)
