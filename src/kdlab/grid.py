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

#: Smallest positive normal float64; the drift-free step keeps its solved
#: rows free of the subnormal numbers below it.
TINY = float(np.finfo(float).tiny)

#: Width in e-folds of one block of model.discounted_tail, and so the widest
#: cell: e^{-SPAN} is still a normal double, so a block's scale factors
#: neither overflow nor underflow, and a wider cell's would.
SPAN = 512.0


def is_int(v) -> bool:
    """Whether v is an integer, Python or NumPy, that fits an int64; a bool is not."""
    return (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and -2**63 <= v < 2**63)


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

    dx and dt are derived: dx = (x_max - x_min)/(nx - 1), at most SPAN, and
    dt = (t_final - t0)/nt, positive and finite.  A zero-duration grid
    (nt = 0) is allowed for single-slice computations; its dt is a 1.0
    placeholder never used by a time stepper.
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
        if not self.dx <= SPAN:
            raise DomainError(f"dx = {self.dx!r} exceeds the widest cell, {SPAN} e-folds")
        if not self.dx**2 >= TINY:  # the steps divide by dx**2
            raise DomainError(f"dx = {self.dx!r} is too narrow: dx**2 is not a normal double")
        if self.nt < 0:
            raise DomainError("nt must be non-negative")
        if self.t_final < self.t0:
            raise DomainError("t_final must not precede t0")
        if self.nt == 0 and self.t_final != self.t0:
            raise DomainError("nt = 0 requires t_final == t0")
        if self.nt and not 0.0 < self.dt < math.inf:
            raise DomainError(f"dt = (t_final - t0)/nt must be positive and finite, "
                              f"got {self.dt!r}")

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpaceTimeField):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"SpaceTimeField(nt={self.grid.nt}, nx={self.grid.nx})"


def implicit_operator(
    nx: int, dx: float, dt: float, kappa: float, drift: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands of I - dt*(kappa*D2 + drift*D1) with identity boundary rows: the dense reference.

    kappa u_xx + drift u_x = kappa e^{-bx}(e^{bx} u_x)_x with b = drift/kappa, and
    the fluxes are weighted by e^{bx} at the cell midpoints (exponential
    fitting): the interior bands are (-r e^{-a}, 1 + 2r cosh a, -r e^a) with
    r = kappa*dt/dx^2 and a = drift*dx/(2*kappa), an M-matrix for drift of
    either sign, second order in dx, and tridiag(-r, 1 + 2r, -r) for no drift.
    """
    r = kappa * dt / dx**2
    a = drift * dx / (2.0 * kappa) if drift else 0.0
    lower = np.full(nx, -r * math.exp(-a))
    diag = np.full(nx, 1.0 + 2.0 * r * math.cosh(a))
    upper = np.full(nx, -r * math.exp(a))
    # Dirichlet rows: value pinned by the rhs.
    diag[0] = diag[-1] = 1.0
    upper[0] = 0.0
    lower[-1] = 0.0
    return lower, diag, upper


def _symmetric_solver(
    m: int, r: float, a: float, ends: tuple[float, float]
) -> Callable[[np.ndarray], np.ndarray]:
    """The step solve of the implicit scheme on m interior nodes, r = kappa*dt/dx^2.

    The step matrix (see implicit_operator) is D S D^-1, with S =
    tridiag(-r, 1 + 2r cosh a, -r) symmetric positive definite, LDL^T-factored
    once (LAPACK pttrf), and D = diag(e^{-a(i-c)}) over the m + 2 nodes,
    centred on the middle one.  The returned function takes a step's
    right-hand side b, pins its ends, scales it by D^-1, adds r times each
    scaled end value to its neighbouring interior row, solves the interior in
    place (pttrs), scales back by D, pins the ends again and returns b.  a = 0
    skips the scaling.  The factors, up to e^{|a|(m+1)/2}, are built with
    math.exp, whose bits do not depend on the CPU.

    Without drift, with the right end pinned at 0 and the interior right-hand
    side exactly 0 from row K on, the solve stops at the reach.  With q =
    2r/(1 + 2r + sqrt(1 + 4r)), the decay per row of the inverse of the
    infinite matrix, and S = sum over j < K of |b_j| q^(K-1-j), every
    interior solution value obeys |x_i| <= S q^(i-K+1) / sqrt(1 + 4r) for
    i >= K.  Rows where that bound is below TINY/2 are past the reach: they
    keep their right-hand side 0, and the leading rows are solved as the
    system cut there, whose LDL^T factors are the leading factors of the full
    one.  On such a step every solved value of magnitude below TINY is set to
    0 as well, so no subnormal number enters the next step.  Without the cut
    the elimination runs on across the zero rows, where with q > 1/2 rounding
    holds the smallest subnormal instead of letting it decay, and subnormal
    arithmetic is many times slower.  The scan for the zero rows is skipped
    while the last interior right-hand side is nonzero.
    """
    # The LAPACK wrappers want an off-diagonal of length 1 for one unknown;
    # pttrf and pttrs read none of it then.
    d, e, info = lapack.dpttrf(np.full(m, 1.0 + 2.0 * r * math.cosh(a)), np.full(max(m - 1, 1), -r))
    if info != 0:
        raise SingularSystemError(f"implicit operator is singular (pttrf info={info})")
    if a:
        shifts = (a * (np.arange(m + 2) - (m + 1) / 2.0)).tolist()
        down = np.array([math.exp(v) for v in shifts])  # D^-1
        up = np.array([math.exp(-v) for v in shifts])  # D
    cut = ends[1] == 0.0 and r > 0.0 and not a
    if cut:
        root = math.sqrt(1.0 + 4.0 * r)
        q = 2.0 * r / (1.0 + 2.0 * r + root)
        # q^(K-1-j) for j < K, with q^0 last; powers that underflow to 0 are
        # left out.
        powers = q ** np.arange(m, dtype=float)
        powers = powers[powers > 0.0][::-1].copy()
        log_scale, log_decay = math.log(2.0 / (root * TINY)), -math.log(q)

    def reach(x: np.ndarray) -> int:
        """The count of leading rows of x, which ends in a 0, that are solved."""
        nonzero = x[::-1] != 0.0
        k = int(nonzero.argmax())
        if not nonzero[k]:
            return 0
        K = m - k
        n = min(K, powers.size)
        S = float(powers[-n:] @ np.abs(x[K - n:K]))
        if not math.isfinite(S):
            return m  # a NaN or inf in b: the full solve, and the guard names it
        return min(m, K + max(0, math.floor((math.log(S) + log_scale) / log_decay)))

    def solve(b: np.ndarray) -> np.ndarray:
        b = np.ascontiguousarray(b, dtype=float)
        b[0], b[-1] = ends
        if a:
            b *= down
        x = b[1:-1]
        x[0] += r * b[0]
        x[-1] += r * b[-1]
        floor = cut and x[-1] == 0.0
        rows = reach(x) if floor else m
        if rows:
            lapack.dpttrs(d[:rows], e[:max(rows - 1, 1)], x[:rows], overwrite_b=1)
        if floor:
            solved = x[:rows]
            solved[np.abs(solved) < TINY] = 0.0
        if a:
            b *= up
            b[0], b[-1] = ends
        return b

    return solve


def _march(
    u0: np.ndarray, nt: int, dx: float, dt: float, kappa: float,
    rhs: Callable[[int, np.ndarray], np.ndarray], ends: tuple[float, float],
    drift: float = 0.0, slope: int = 0, name: str = "u",
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, u_n) for n = 0 .. nt of the implicit diffusion scheme.

    Step n solves (I - dt*(kappa*D2 + drift*D1)) u_{n+1} = rhs(n, u_n), a
    fresh array, with u_{n+1}'s end values pinned to the Dirichlet data ends
    and the drift exponentially fitted (see implicit_operator).  The matrix
    never changes: with or without drift it is solved in its symmetric form,
    factored once, and without drift only over the rows the solution reaches
    (see _symmetric_solver).  Each new slice is guarded: non-finite values
    raise NonFiniteError; drift outside [0, 1] beyond OVERSHOOT_TOL raises
    OvershootError and smaller drift is clamped; with slope -1 (+1) the slice
    must be non-increasing (non-decreasing) in x to within SLOPE_TOL, else
    NumericalError.
    """
    a = drift * dx / (2.0 * kappa) if drift else 0.0
    solve = _symmetric_solver(u0.size - 2, kappa * dt / dx**2, a, ends)
    u = u0
    yield 0, u
    for n in range(nt):
        u = solve(rhs(n, u))
        lo, hi = u.min(), u.max()
        # A NaN makes both comparisons false, so the isfinite scan runs only
        # on a slice that fails anyway, to name the failure.
        if not (lo >= -OVERSHOOT_TOL and hi <= 1.0 + OVERSHOOT_TOL):
            if not np.all(np.isfinite(u)):
                raise NonFiniteError(f"{name} became non-finite at step {n + 1}")
            raise OvershootError(f"{name} left [0,1] by {max(-lo, hi - 1.0):.3e} in one step")
        if lo < 0.0 or hi > 1.0:
            np.clip(u, 0.0, 1.0, out=u)
        if slope:
            diffs = u[1:] - u[:-1]
            if (diffs.max() if slope < 0 else -diffs.min()) > SLOPE_TOL:
                raise NumericalError(f"{name} lost monotonicity at step {n + 1}")
        yield n + 1, u
