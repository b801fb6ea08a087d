"""Nash-equilibrium computation by adaptively damped best-response iteration.

The equilibrium strategy field is a fixed point of the map that (i) runs the
distribution forward under a strategy, (ii) runs the propensity-to-learn
field backward given that flow, and (iii) re-optimizes the allocation from
the resulting pay-off.  Damped Picard is used rather than Newton: it is the
standard workhorse for this class of coupled systems, and a non-converged run
is easy to diagnose from the residual and damping histories.  Non-convergence
is reported in the result, never raised or silently retried.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .analysis import locate_level
from .backward import TerminalCondition, solve_backward
from .errors import DomainError, GridMismatchError
from .forward import INTRINSIC, solve_forward
from .grid import Grid1D, Profile, SpaceTimeField


@dataclass(frozen=True)
class MfgConfig:
    """Iteration controls: starting damping theta in (0, 1], residual target, caps.

    theta is the damping of the first Picard step; `solve_nash` halves it
    whenever the residual rises.
    """

    theta: float = 1.0
    tol: float = 1e-6
    max_iter: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise DomainError("theta must lie in (0, 1]")
        if not self.tol > 0:
            raise DomainError("tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")


@dataclass
class MfgSolution:
    """Converged (or flagged) output of the fixed-point loop."""

    F_field: SpaceTimeField
    w_field: SpaceTimeField
    strategy_field: SpaceTimeField
    residuals: list[float] = field(default_factory=list)
    thetas: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    @property
    def contraction(self) -> float | None:
        """Geometric mean of successive residual ratios; None for one iteration."""
        if len(self.residuals) < 2:
            return None
        return (self.residuals[-1] / self.residuals[0]) ** (1.0 / (len(self.residuals) - 1))


def best_response(
    F_field: SpaceTimeField, w_field: SpaceTimeField, p: model.ModelParams
) -> SpaceTimeField:
    """Optimal allocation slice by slice: s_m of the pay-off of (F, w)."""
    if F_field.grid != w_field.grid:
        raise GridMismatchError("F and w fields live on different grids")
    payoff = model.discounted_tail(
        F_field.values * w_field.values, F_field.grid.dx, p.rho_minus_kappa
    )
    return SpaceTimeField(F_field.grid, model.s_m(payoff, p))


def residual(s_new, s_old) -> float:
    """Sup-norm distance between two strategy fields (or arrays)."""
    a = s_new.values if isinstance(s_new, SpaceTimeField) else np.asarray(s_new)
    b = s_old.values if isinstance(s_old, SpaceTimeField) else np.asarray(s_old)
    if a.shape != b.shape:
        raise GridMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def intrinsic_strategy(F_field: SpaceTimeField, p: model.ModelParams) -> np.ndarray:
    """Allocation field of the forward-only closure: s_m of the intrinsic pay-off."""
    J = model.discounted_tail(F_field.values, F_field.grid.dx, p.rho_minus_kappa)
    return model.s_m(J, p)


def solve_nash(
    F0: Profile,
    wT: TerminalCondition | Profile | None,
    p: model.ModelParams,
    grid: Grid1D,
    cfg: MfgConfig | None = None,
) -> MfgSolution:
    """Adaptively damped Picard iteration to the Nash strategy field.

    Each iteration steps s <- s + theta * (BR(s) - s).  theta starts at
    cfg.theta and is halved, for all remaining iterations, whenever a residual
    exceeds the one before it.  Undamped steps converge fastest where the map
    contracts; halving restores convergence where it overshoots.  thetas[i] is
    the damping in effect after residuals[i] (no step follows the last one of
    a converged run).

    Warm start: one forward run under the intrinsic closure, whose allocation
    (full time left of the intrinsic front, s_m of the intrinsic pay-off to
    its right) is near-equilibrium.  When wT is None, the terminal condition
    defaults to a unit-slope logistic centered at the warm start's final
    intrinsic front, which minimizes the terminal boundary layer.

    The residual is measured on the strategy field, the fixed-point variable.
    On convergence the stored fields are the ones generated by the returned
    strategy, so re-deriving the best response from them reproduces the
    strategy within tol.
    """
    if cfg is None:
        cfg = MfgConfig()
    F_warm = solve_forward(F0, INTRINSIC, p, grid)
    s_vals = intrinsic_strategy(F_warm, p)

    if wT is None:
        J_end = model.intrinsic_J(F_warm.profile_at(grid.nt), p)
        center = locate_level(J_end, p.i_crit, "decreasing")
        wT = TerminalCondition(kind="logistic", center=center, slope=1.0)

    if grid.nt == 0:
        # Zero horizon: the fields cannot depend on the strategy, so the best
        # response of (F0, wT) is already the fixed point.
        F_field = SpaceTimeField(grid, F0.values[np.newaxis, :].copy())
        w_field = solve_backward(wT, F_field, SpaceTimeField(grid, s_vals), p, grid)
        s_field = best_response(F_field, w_field, p)
        return MfgSolution(F_field, w_field, s_field, residuals=[0.0], thetas=[cfg.theta],
                           converged=True, iterations=1)

    theta = cfg.theta
    residuals: list[float] = []
    thetas: list[float] = []
    F_field = w_field = s_field = None
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        s_field = SpaceTimeField(grid, s_vals)
        F_field = solve_forward(F0, s_field, p, grid)
        w_field = solve_backward(wT, F_field, s_field, p, grid)
        s_resp = best_response(F_field, w_field, p)
        res = residual(s_resp, s_field)
        if residuals and res > residuals[-1]:
            theta *= 0.5
        residuals.append(res)
        thetas.append(theta)
        if res <= cfg.tol:
            converged = True
            break
        s_vals = (1.0 - theta) * s_vals + theta * s_resp.values
    # The stored fields are always the ones generated by s_field, so the
    # fixed-point defect of the returned triple equals the last residual.
    return MfgSolution(
        F_field=F_field,
        w_field=w_field,
        strategy_field=s_field,
        residuals=residuals,
        thetas=thetas,
        converged=converged,
        iterations=iterations,
    )
