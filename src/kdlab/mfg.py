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
from .backward import TerminalCondition, iter_backward, solve_backward
from .errors import DomainError, GridMismatchError
from .forward import INTRINSIC, iter_forward
from .grid import Grid1D, Profile, SpaceTimeField, check_numbers


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
        check_numbers(self, "theta tol", integers="max_iter")
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


def best_response(F, w, dx: float, p: model.ModelParams) -> np.ndarray:
    """Optimal allocation s_m of the pay-off of (F, w), on the last axis.

    F and w are one slice or a whole space-time field of values; row by row
    equals the whole-field call bit for bit.
    """
    if np.shape(F) != np.shape(w):
        raise GridMismatchError(f"shape mismatch {np.shape(F)} vs {np.shape(w)}")
    return model.s_m(model.discounted_tail(F * w, dx, p.rho_minus_kappa), p)


def _best_response(F: np.ndarray, w: np.ndarray, dx: float, p: model.ModelParams) -> np.ndarray:
    # best_response unchecked, for F and w slices of one shape in [0, 1].
    return model._s_m(model.discounted_tail(F * w, dx, p.rho_minus_kappa), p)


def _residual(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def residual(s_new, s_old) -> float:
    """Sup-norm distance between two strategy fields (or arrays)."""
    a = s_new.values if isinstance(s_new, SpaceTimeField) else np.asarray(s_new)
    b = s_old.values if isinstance(s_old, SpaceTimeField) else np.asarray(s_old)
    if a.shape != b.shape:
        raise GridMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return _residual(a, b)


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
    The damped step runs only when another iteration follows, so the returned
    F and w are always the fields generated by the returned strategy, and
    re-deriving the best response from them reproduces the strategy within
    the last residual.
    """
    if cfg is None:
        cfg = MfgConfig()
    # With F0 >= 0 every pay-off the loops compute is finite and non-negative
    # (the stepper keeps later slices of F and w in [0, 1]), so they call the
    # unchecked kernels.
    if np.min(F0.values) < 0.0:
        raise DomainError("F0 must be non-negative")
    s = np.empty((grid.nt + 1, grid.nx))
    for j, _, J in iter_forward(F0, INTRINSIC, p, grid):
        s[j] = model._s_m(J, p)
    s_field = SpaceTimeField(grid, s)

    if wT is None:
        center = locate_level(Profile(grid, J), p.i_crit, "decreasing")
        wT = TerminalCondition(kind="logistic", center=center, slope=1.0)

    if grid.nt == 0:
        # Zero horizon: the fields cannot depend on the strategy, so the best
        # response of (F0, wT) is already the fixed point.
        F_field = SpaceTimeField(grid, F0.values[np.newaxis, :].copy())
        w_field = solve_backward(wT, F_field, s_field, p, grid)
        s_field = SpaceTimeField(grid, best_response(F_field.values, w_field.values, grid.dx, p))
        return MfgSolution(F_field, w_field, s_field, residuals=[0.0], thetas=[cfg.theta],
                           converged=True, iterations=1)

    # The loop holds four fields: s, F, w and the best response s_resp, filled
    # slice by slice as the sweeps yield them.
    F_field = SpaceTimeField(grid, np.zeros_like(s))
    w_field = SpaceTimeField(grid, np.zeros_like(s))
    F, w, s_resp = F_field.values, w_field.values, np.empty_like(s)
    theta = cfg.theta
    residuals: list[float] = []
    thetas: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        for j, F_j, _ in iter_forward(F0, s_field, p, grid):
            F[j] = F_j
        res = 0.0
        for j, w_j in iter_backward(wT, F_field, s_field, p, grid):
            w[j] = w_j
            s_resp[j] = _best_response(F[j], w_j, grid.dx, p)
            res = max(res, _residual(s_resp[j], s[j]))
        if residuals and res > residuals[-1]:
            theta *= 0.5
        residuals.append(res)
        thetas.append(theta)
        if res <= cfg.tol:
            converged = True
            break
        if iterations < cfg.max_iter:
            # (1 - theta) s + theta s_resp, in place and bit for bit.
            s *= 1.0 - theta
            s_resp *= theta
            s += s_resp
    return MfgSolution(
        F_field=F_field,
        w_field=w_field,
        strategy_field=s_field,
        residuals=residuals,
        thetas=thetas,
        converged=converged,
        iterations=iterations,
    )
