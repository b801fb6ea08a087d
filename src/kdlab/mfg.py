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
from itertools import islice

import numpy as np

from . import model
from .analysis import locate_level
from .backward import (TerminalCondition, _check_scalable, _terminal_values, iter_backward,
                       solve_backward)
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
    """Converged (or flagged) output of the fixed-point loop.

    w is not kept: it is the backward sweep of (terminal, F_field,
    strategy_field), which iter_backward or solve_backward recomputes bit for
    bit.  terminal is the wT the loop used, the caller's or the warm start's
    default logistic.
    """

    F_field: SpaceTimeField
    strategy_field: SpaceTimeField
    terminal: TerminalCondition | Profile
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
    payoff = model.discounted_tail(F * w, dx, p.rho_minus_kappa)
    model._check_payoff(payoff)
    return model._s_m(payoff, p)


def _best_response(F: np.ndarray, w: np.ndarray, dx: float, p: model.ModelParams) -> np.ndarray:
    # best_response unchecked, for F and w slices of one shape in [0, 1].
    return model._s_m(model.discounted_tail(F * w, dx, p.rho_minus_kappa), p)


def _residual(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


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
    its right) is near-equilibrium.  It is iteration 1's forward sweep: the
    run yields each slice's strategy and the F it generates, so iteration 1
    starts at the backward sweep.  When wT is None, the terminal condition
    defaults to a logistic of unit slope centred at the warm start's final
    intrinsic front.

    The residual is measured on the strategy field, the fixed-point variable.
    The damped step runs only when another iteration follows, so the returned
    F is always the field generated by the returned strategy.  w is not
    returned: one backward sweep of (terminal, F, strategy) gives it bit for
    bit, and the best response of F and that w reproduces the strategy within
    the last residual.  An explicit wT is checked on the grid before the warm
    start.
    """
    if cfg is None:
        cfg = MfgConfig()
    _check_scalable(p, grid)
    if wT is not None:
        _terminal_values(wT, grid)
    # The loop holds two fields: s and F.  The warm start is iteration 1's
    # forward sweep: it fills s with the intrinsic closure's strategy and F
    # with the slices it generates, which a sweep under s would give again,
    # since s_m is in [0, 1] and each step reads the slice's s.
    # iter_forward checks F0 lies in [0, 1] and the stepper keeps every later
    # slice of F and w there, so every pay-off is finite and non-negative.
    F, s = np.empty((grid.nt + 1, grid.nx)), np.empty((grid.nt + 1, grid.nx))
    for j, F_j, J, s_j in iter_forward(F0, INTRINSIC, p, grid):
        F[j], s[j] = F_j, s_j
    F_field, s_field = SpaceTimeField(grid, F), SpaceTimeField(grid, s)

    if wT is None:
        center = locate_level(Profile(grid, J), p.i_crit)
        wT = TerminalCondition(kind="logistic", center=center, slope=1.0)

    if grid.nt == 0:
        # Zero horizon: the fields cannot depend on the strategy, so the best
        # response of (F0, wT) is already the fixed point.
        w = solve_backward(wT, F_field, s_field, p, grid).values
        s_field = SpaceTimeField(grid, best_response(F, w, grid.dx, p))
        return MfgSolution(F_field, s_field, wT, residuals=[0.0], thetas=[cfg.theta],
                           converged=True, iterations=1)

    # Once a sweep's running residual exceeds tol before max_iter, another
    # iteration is certain and the damped step's forward sweep rewrites F, so
    # from that slice (the switch) down each slice's best response goes into
    # F's row one yield late, after the sweep's last read of the row (see
    # iter_backward); row 0's goes in after the sweep.  The rows swept before
    # the switch still hold F: a second sweep from wT recomputes their w, the
    # same bits, and stores their best responses the same way, stopping at
    # the row above the switch, before the step that reads it.  A converged
    # sweep, or the one at max_iter, never switches, and F and s are returned
    # intact.
    theta = cfg.theta
    residuals: list[float] = []
    thetas: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        res = 0.0
        switch = None  # first slice whose best response goes into F
        for j, w_j in iter_backward(wT, F_field, s_field, p, grid):
            if switch is not None:
                F[j + 1] = resp
            resp = _best_response(F[j], w_j, grid.dx, p)
            res = max(res, _residual(resp, s[j]))
            if switch is None and res > cfg.tol and iterations < cfg.max_iter:
                switch = j
        if residuals and res > residuals[-1]:
            theta *= 0.5
        residuals.append(res)
        thetas.append(theta)
        if res <= cfg.tol:
            converged = True
            break
        if iterations < cfg.max_iter:
            F[0] = resp
            if switch < grid.nt:
                for j, w_j in islice(iter_backward(wT, F_field, s_field, p, grid),
                                     grid.nt - switch):
                    if j < grid.nt:
                        F[j + 1] = resp
                    resp = _best_response(F[j], w_j, grid.dx, p)
                F[switch + 1] = resp
            # (1 - theta) s + theta BR(s), in place and bit for bit; F now holds BR(s).
            s *= 1.0 - theta
            F *= theta
            s += F
            for j, F_j, _, _ in iter_forward(F0, s_field, p, grid):
                F[j] = F_j
    return MfgSolution(
        F_field=F_field,
        strategy_field=s_field,
        terminal=wT,
        residuals=residuals,
        thetas=thetas,
        converged=converged,
        iterations=iterations,
    )
