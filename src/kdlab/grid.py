"""1-D space-time discretization, profile containers, and the implicit time stepper.

The spatial variable is log-productivity, truncated to a uniform grid
[x_min, x_max]; time runs on a uniform step from t0 to t_final.  Both PDE
solvers step through the one implicit time stepper defined here, which also
owns their range and monotonicity guards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DomainError,
    GridMismatchError,
    NonFiniteError,
    NumericalError,
    OvershootError,
    SingularSystemError,
)

#: Allowed drift of a stepped field outside [0, 1] per step before the
#: stepper declares instability; anything below is clamped as roundoff.
OVERSHOOT_TOL = 1e-9

#: Allowed discrete slope against a field's monotone direction before
#: monotonicity is declared broken.
SLOPE_TOL = 1e-9


def is_int(v) -> bool:
    """Whether v is an integer, Python or NumPy; a bool is not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_number(v) -> bool:
    """Whether v is a finite real number; a bool or a string is not."""
    return is_int(v) or (isinstance(v, (float, np.floating)) and math.isfinite(v))


def check_numbers(obj, numbers: str, integers: str = "") -> None:
    """Raise DomainError unless obj's fields named in numbers are finite
    numbers and those named in integers are integers (space-separated names)."""
    for names, test, what in ((numbers, is_number, "a finite number"),
                              (integers, is_int, "an integer")):
        for name in names.split():
            v = getattr(obj, name)
            if not test(v):
                raise DomainError(f"{name} must be {what}, got {v!r}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time grid.

    dx and dt are derived: dx = (x_max - x_min)/(nx - 1) and
    dt = (t_final - t0)/nt.  A zero-duration grid (nt = 0) is allowed for
    single-slice computations; its dt is a 1.0 placeholder never used by a
    time stepper.
    """

    x_min: float
    x_max: float
    nx: int
    t0: float
    t_final: float
    nt: int

    def __post_init__(self) -> None:
        check_numbers(self, "x_min x_max t0 t_final", integers="nx nt")
        if self.nx < 8:
            raise DomainError(f"nx must be at least 8, got {self.nx}")
        if not self.x_max > self.x_min:
            raise DomainError("x_max must exceed x_min")
        if self.nt < 0:
            raise DomainError("nt must be non-negative")
        if self.t_final < self.t0:
            raise DomainError("t_final must not precede t0")
        if self.nt == 0 and self.t_final != self.t0:
            raise DomainError("nt = 0 requires t_final == t0")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        if self.nt == 0:
            return 1.0
        return (self.t_final - self.t0) / self.nt

    @cached_property
    def x(self) -> np.ndarray:
        """The nx node positions, computed once per grid and read-only."""
        x = np.linspace(self.x_min, self.x_max, self.nx)
        x.flags.writeable = False
        return x

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt + 1) if self.nt else np.array([self.t0])

    def time_at(self, j: int) -> float:
        return self.t0 + j * self.dt if self.nt else self.t0


def recommended_domain(kappa: float, alpha1: float, horizon: float) -> tuple[float, float]:
    """Suggest (x_min, x_max) so fronts and exponential tails stay resolved.

    The learning front travels at up to kappa + alpha1, and the
    exponentially weighted pay-off integral draws on mass moving at 2*kappa,
    so the right edge allows for whichever is faster, plus tail headroom.
    """
    speed = max(kappa + alpha1, 2.0 * kappa)
    return (-20.0, speed * horizon + 40.0)


class Profile:
    """Real-valued samples of one quantity on the nodes of a grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid1D, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.nx,):
            raise GridMismatchError(
                f"profile needs {grid.nx} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("profile values must be finite")
        self.grid = grid
        self.values = values

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    def __eq__(self, other) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"Profile(nx={self.grid.nx}, range=[{self.values.min():g}, {self.values.max():g}])"


class SpaceTimeField:
    """nt + 1 time slices of nx nodal values (row j = time t0 + j*dt)."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid1D, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.nt + 1, grid.nx):
            raise GridMismatchError(
                f"field needs shape {(grid.nt + 1, grid.nx)}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("field values must be finite")
        self.grid = grid
        self.values = values

    def profile_at(self, j: int) -> Profile:
        return Profile(self.grid, self.values[j])

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpaceTimeField):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"SpaceTimeField(nt={self.grid.nt}, nx={self.grid.nx})"


def implicit_operator(
    nx: int, dx: float, dt: float, kappa: float, drift: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands of (I - dt*(kappa*D2 + drift*D+)) with identity boundary rows.

    D2 is the centered second difference; D+ the one-sided first difference
    (u[i+1]-u[i])/dx, the upwind choice for transport carrying information
    from the right.  drift must be >= 0 so the matrix stays an M-matrix.
    """
    if drift < 0:
        raise DomainError("drift must be non-negative for the upwind stencil")
    r = kappa * dt / dx**2
    a = drift * dt / dx
    lower = np.full(nx, -r)
    diag = np.full(nx, 1.0 + 2.0 * r + a)
    upper = np.full(nx, -r - a)
    # Dirichlet rows: value pinned by the rhs.
    diag[0] = diag[-1] = 1.0
    upper[0] = 0.0
    lower[-1] = 0.0
    return lower, diag, upper


def _march(
    u0: np.ndarray, nt: int, dx: float, dt: float, kappa: float,
    rhs: Callable[[int, np.ndarray], np.ndarray], ends: tuple[float, float],
    drift: float = 0.0, slope: int = 0, name: str = "u",
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, u_n) for n = 0 .. nt of the implicit diffusion scheme.

    Step n solves (I - dt*(kappa*D2 + drift*D+)) u_{n+1} = rhs(n, u_n), a
    fresh array whose end values are first pinned to the Dirichlet data
    ends.  The matrix never changes, so it is LU-factored once (LAPACK
    gttrf) and every step is one gttrs solve.  Each new slice is guarded:
    non-finite values raise NonFiniteError; drift outside [0, 1] beyond
    OVERSHOOT_TOL raises OvershootError and smaller drift is clamped; with
    slope -1 (+1) the slice must be non-increasing (non-decreasing) in x to
    within SLOPE_TOL, else NumericalError.
    """
    lower, diag, upper = implicit_operator(u0.size, dx, dt, kappa, drift)
    dl, d, du, du2, ipiv, info = lapack.dgttrf(lower[1:], diag, upper[:-1])
    if info != 0:
        raise SingularSystemError(f"implicit operator is singular (gttrf info={info})")
    u = u0
    yield 0, u
    for n in range(nt):
        b = rhs(n, u)
        b[0], b[-1] = ends
        u, _ = lapack.dgttrs(dl, d, du, du2, ipiv, b, overwrite_b=1)
        lo, hi = u.min(), u.max()
        # A NaN makes both comparisons false, so the isfinite scan runs only
        # on a slice that fails anyway, to name the failure.
        if not (lo >= -OVERSHOOT_TOL and hi <= 1.0 + OVERSHOOT_TOL):
            if not np.all(np.isfinite(u)):
                raise NonFiniteError(f"{name} became non-finite at step {n + 1}")
            raise OvershootError(f"{name} left [0,1] by {max(-lo, hi - 1.0):.3e} in one step")
        np.clip(u, 0.0, 1.0, out=u)
        if slope:
            diffs = u[1:] - u[:-1]
            if (diffs.max() if slope < 0 else -diffs.min()) > SLOPE_TOL:
                raise NumericalError(f"{name} lost monotonicity at step {n + 1}")
        yield n + 1, u
