"""Model constants and the search/pay-off primitives shared by every solver.

The search-for-knowledge function is the power family alpha(s) = alpha1 * s**k
with k in [1/2, 1), which is concave, vanishes at 0, and has infinite slope at
0.  Everything downstream (optimal allocation, saturated search rate, pay-off
integrals) has a closed form on this family, and the structural estimates the
diagnostics check all hold on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.signal

from .errors import DomainError, GridMismatchError, NonFiniteError
from .grid import Profile, check_numbers


@dataclass(frozen=True)
class ModelParams:
    """Constants of the coupled system.

    kappa   diffusion (internal innovation) rate, > 0
    rho     discount rate, > kappa
    alpha1  search amplitude, >= 0 (0 degenerates to pure diffusion and is
            accepted for oracle runs even though the economics needs > 0)
    k       search exponent, in [1/2, 1)
    """

    kappa: float
    rho: float
    alpha1: float
    k: float = 0.5

    def __post_init__(self) -> None:
        check_numbers(self, "kappa rho alpha1 k")
        if not self.kappa > 0:
            raise DomainError("kappa must be positive")
        if not self.rho > self.kappa:
            raise DomainError("rho must exceed kappa")
        if self.alpha1 < 0:
            raise DomainError("alpha1 must be non-negative")
        if not 0.5 <= self.k < 1.0:
            raise DomainError("k must lie in [1/2, 1)")

    @property
    def rho_minus_kappa(self) -> float:
        return self.rho - self.kappa

    @property
    def i_crit(self) -> float:
        """Pay-off threshold above which all time goes to searching: 1/alpha'(1)."""
        if self.alpha1 == 0.0:
            return math.inf
        return 1.0 / (self.k * self.alpha1)


@dataclass(frozen=True)
class TheoryPredictions:
    """Front speeds and decay rates the long-time analysis predicts."""

    c_star: float
    lambda_star: float
    v_star: float
    i_crit: float
    regime: str

    @classmethod
    def from_params(cls, p: ModelParams) -> "TheoryPredictions":
        c_star = 2.0 * math.sqrt(p.kappa * p.alpha1)
        return cls(
            c_star=c_star,
            lambda_star=math.sqrt(p.alpha1 / p.kappa),
            v_star=p.kappa + p.alpha1,
            i_crit=p.i_crit,
            regime="lottery" if p.alpha1 < p.kappa else "balanced",
        )


# Each checked function below checks its input, then calls the private kernel
# that holds its formula.  The time loops call the kernels on slices whose
# domain the sweep's entry checks and the stepper's clamp already guarantee.


def _check_unit_interval(v: np.ndarray, name: str) -> None:
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")


def _alpha(s: np.ndarray, p: ModelParams) -> np.ndarray:
    return p.alpha1 * s**p.k


def alpha(s, p: ModelParams):
    """Search rate alpha1 * s**k for a time fraction s in [0, 1]."""
    sv = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(sv)):
        raise NonFiniteError("s must be finite")
    _check_unit_interval(sv, "s")
    out = _alpha(sv, p)
    return float(out) if np.isscalar(s) or sv.ndim == 0 else out


def _check_payoff(iv: np.ndarray) -> None:
    if not np.all(np.isfinite(iv)):
        raise NonFiniteError("pay-off must be finite")
    if np.any(iv < 0.0):
        raise DomainError("pay-off must be non-negative")


def _s_m(iv: np.ndarray, p: ModelParams) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.minimum(1.0, (p.k * p.alpha1 * iv) ** (1.0 / (1.0 - p.k)))


def s_m(payoff, p: ModelParams):
    """Optimal fraction of time spent searching, given pay-off value(s).

    Solves alpha'(s) = 1/payoff below the threshold i_crit = 1/alpha'(1) and
    saturates at 1 above it; for the power family this is
    (k*alpha1*payoff)**(1/(1-k)) clamped to 1.  Continuous and non-decreasing.
    """
    iv = np.asarray(payoff, dtype=float)
    _check_payoff(iv)
    out = _s_m(iv, p)
    return float(out) if np.isscalar(payoff) or iv.ndim == 0 else out


def _alpha_of_sm(iv: np.ndarray, p: ModelParams) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.minimum(p.alpha1, p.alpha1 * (p.k * p.alpha1 * iv) ** (p.k / (1.0 - p.k)))


def alpha_of_sm(payoff, p: ModelParams):
    """Search rate at the optimal allocation, alpha(s_m(payoff)).

    Evaluated in one power, alpha1 * (k*alpha1*payoff)**(k/(1-k)) capped at
    alpha1, rather than by composing s_m and alpha.
    """
    iv = np.asarray(payoff, dtype=float)
    _check_payoff(iv)
    out = _alpha_of_sm(iv, p)
    return float(out) if np.isscalar(payoff) or iv.ndim == 0 else out


def _q_integral(u: np.ndarray, p: ModelParams) -> np.ndarray:
    return p.alpha1 * u ** (p.k + 1.0) / (p.k + 1.0)


def q_integral(u, p: ModelParams):
    """Integral of the search rate from 0 to u: alpha1 * u**(k+1) / (k+1)."""
    uv = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(uv)):
        raise NonFiniteError("u must be finite")
    _check_unit_interval(uv, "u")
    out = _q_integral(uv, p)
    return float(out) if np.isscalar(u) or uv.ndim == 0 else out


def _cell_weights(dx: float) -> tuple[float, float]:
    """Nodal weights of the exponentially weighted trapezoid on one cell.

    For g linear on [0, dx], the cell integral of e^u * g(u) equals
    wa*g(0) + wb*g(dx) exactly, with wa + wb = expm1(dx).
    """
    em1 = math.expm1(dx)
    wa = em1 / dx - 1.0
    wb = 1.0 + em1 * (dx - 1.0) / dx
    return wa, wb


def discounted_tail(g: np.ndarray, dx: float, rho_minus_kappa: float) -> np.ndarray:
    """e^{-x} integral of e^y g(y) from each node to the right edge, over rho-kappa.

    Works on the last axis, so whole space-time fields evaluate in one call.
    Computed right to left as I[i] = e^{dx} * I[i+1] + cell[i]: every step
    applies only weights e^{y - x_i} with y - x_i <= dx, so intermediate
    quantities never exceed the scale of the true value at that node (a
    literal evaluation of e^{-x} and the integral separately overflows on
    long domains).  The tail beyond the right boundary is taken as zero.
    """
    g = np.asarray(g, dtype=float)
    wa, wb = _cell_weights(dx)
    cells = (wa * g[..., :-1] + wb * g[..., 1:]) / rho_minus_kappa
    rev = cells[..., ::-1]
    acc = scipy.signal.lfilter([1.0], [1.0, -math.exp(dx)], rev, axis=-1)
    out = np.zeros(g.shape, dtype=float)
    out[..., :-1] = acc[..., ::-1]
    return out


def _validate_pair(f: Profile, w: Profile) -> None:
    if f.grid != w.grid:
        raise GridMismatchError("profiles live on different grids")
    _check_unit_interval(f.values, "F")
    _check_unit_interval(w.values, "w")


def payoff_I(F: Profile, w: Profile, p: ModelParams) -> Profile:
    """Discounted expected gain from one successful search, at every node.

    I(x) = (rho-kappa)^{-1} e^{-x} * integral over [x, inf) of e^y w F dy,
    truncated at the right grid edge.  Non-negative, and non-increasing when
    F is non-increasing and w is in [0, 1].
    """
    _validate_pair(F, w)
    vals = discounted_tail(F.values * w.values, F.grid.dx, p.rho_minus_kappa)
    return Profile(F.grid, vals)


def intrinsic_J(F: Profile, p: ModelParams) -> Profile:
    """Pay-off computable from the agent distribution alone (w replaced by 1).

    Shares the kernel with payoff_I, so intrinsic_J(F) equals
    payoff_I(F, ones) bit for bit, and dominates payoff_I for any w <= 1.
    """
    if np.any(F.values < 0.0) or np.any(F.values > 1.0):
        raise DomainError("F must lie in [0, 1]")
    vals = discounted_tail(F.values, F.grid.dx, p.rho_minus_kappa)
    return Profile(F.grid, vals)
