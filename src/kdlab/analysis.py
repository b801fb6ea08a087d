"""Front location, speed estimation, and the runtime invariant suite.

Three fronts are tracked: the median front (distribution level 1/2), the
learning front (pay-off crosses the full-search threshold), and the intrinsic
front (same crossing for the distribution-only pay-off).  Speeds come from
ordinary least squares on windowed (t, x) samples.

The diagnostics evaluate, on computed fields, the structural facts the
solution is known to satisfy: monotonicity and ranges, domination of the
learning pay-off by the intrinsic one, exponential decay beyond the learning
front, the sandwich between learning and intrinsic fronts, the lower bound on
the intrinsic front's motion, the exponential growth of the intrinsic
pay-off, and tightness of the distribution's level sets.  Constants that the
theory leaves implicit are handled operationally: a fitted constant that must
stop growing over the final half of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import forward, model
from .errors import (
    DomainError,
    FrontOffGridLeft,
    FrontOffGridRight,
    GridMismatchError,
    NonMonotoneProfileError,
)
from .grid import SLOPE_TOL, Grid1D, Profile

#: Multiplicative slack on the decay bounds, absorbing quadrature and
#: interpolation error.
DECAY_SLACK = 1.05
#: Relative slack on the pay-off growth factor between snapshots.
GROWTH_SLACK = 1e-6


def locate_level(prof: Profile, level: float) -> float:
    """Position where a non-increasing profile crosses the level, by linear interpolation.

    Raises FrontOffGridLeft/Right when the level is not bracketed, and
    NonMonotoneProfileError when the profile rises by more than the slope
    tolerance.
    """
    v = prof.values
    lvl = float(level)
    scale = max(1.0, float(np.max(np.abs(v))))
    if np.max(np.diff(v)) > SLOPE_TOL * scale:
        raise NonMonotoneProfileError("profile is not non-increasing")
    if v[0] <= lvl:
        raise FrontOffGridLeft(f"level {level} not bracketed: crossing left of the grid")
    if v[-1] >= lvl:
        raise FrontOffGridRight(f"level {level} not bracketed: crossing right of the grid")
    return _front(v, prof.grid.x, lvl)


def _front(v: np.ndarray, x: np.ndarray, lvl: float) -> float:
    """Where decreasing values v on the nodes x cross lvl; NaN when off the grid.

    locate_level unchecked, on arrays: the recorders call it on every sampled
    slice of a sweep and the diagnostics on every snapshot, all finite.
    """
    if v[0] <= lvl or v[-1] >= lvl:
        return math.nan
    i = int(np.argmax(v < lvl))  # first node strictly below the level
    frac = (v[i - 1] - lvl) / (v[i - 1] - v[i])
    return float(x[i - 1] + frac * (x[i] - x[i - 1]))


@dataclass
class SpeedFit:
    speed: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int


@dataclass
class FrontTrack:
    """Time series of one front location."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.times.shape != self.positions.shape:
            raise DomainError("times and positions must have equal length")
        if np.any(np.diff(self.times) < 0):
            raise DomainError("track samples must be time-ordered")


def estimate_speed(track: FrontTrack, window: tuple[float, float]) -> SpeedFit:
    """Least-squares speed of a front over the window."""
    a, b = window
    mask = (track.times >= a) & (track.times <= b) & np.isfinite(track.positions)
    t = track.times[mask]
    x = track.positions[mask]
    if t.size < 10:
        raise DomainError(f"need at least 10 samples in the window, got {t.size}")
    # np.polyfit divides the t column by its norm, which must be positive and
    # finite, and a line needs two distinct times; else LAPACK fails.
    if not (np.ptp(t) > 0.0 and 0.0 < float(np.dot(t, t)) < math.inf):
        raise DomainError(f"the window's times {float(t[0])!r} to {float(t[-1])!r} "
                          "have no spread to fit")
    slope, intercept = np.polyfit(t, x, 1)
    resid = x - (slope * t + intercept)
    ss_tot = float(np.sum((x - x.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return SpeedFit(float(slope), float(intercept), r2, (float(a), float(b)), int(t.size))


def default_window(t0: float, t_final: float) -> tuple[float, float]:
    """Fit window after trimming the burn-in and terminal layers, a tenth of the run each."""
    span = t_final - t0
    return (t0 + 0.1 * span, t_final - 0.1 * span)


@dataclass(eq=False)
class Snapshot:
    """One slice's fields on the grid's nodes, named as the snapshot file's columns.

    F and J are always there; w, I and s stay None where the run has none,
    and their checks skip.
    """

    t: float
    grid: Grid1D
    F: np.ndarray
    J: np.ndarray
    w: np.ndarray | None = None
    I: np.ndarray | None = None
    s: np.ndarray | None = None

    @property
    def payoff(self) -> np.ndarray:
        """The pay-off the learning front is read from: I where the slice has it, else J."""
        return self.J if self.I is None else self.I

    def fronts(self, i_crit: float) -> tuple[float, float, float]:
        """The (median, learning, intrinsic) fronts, NaN where one is off the grid."""
        x = self.grid.x
        e = _front(self.J, x, i_crit)
        eta = e if self.payoff is self.J else _front(self.payoff, x, i_crit)
        return _front(self.F, x, 0.5), eta, e


@dataclass
class CheckResult:
    check: str
    time: float
    passed: bool
    worst_violation: float
    location: float | None = None


@dataclass
class DiagnosticsReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def to_rows(self) -> list[tuple]:
        return [
            (r.check, r.time, int(r.passed), r.worst_violation,
             r.location if r.location is not None else math.nan)
            for r in self.results
        ]


def _monotone_check(
    name: str, t: float, vals: np.ndarray, x: np.ndarray, sign: int, out: list[CheckResult]
) -> None:
    d = sign * np.diff(vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    worst = float(np.max(d, initial=-np.inf))
    idx = int(np.argmax(d)) if d.size else 0
    out.append(
        CheckResult(name, t, worst <= SLOPE_TOL * scale, max(worst, 0.0), float(x[idx]))
    )


def _range_check(name: str, t: float, vals: np.ndarray, x: np.ndarray, out: list[CheckResult]) -> None:
    over = vals - 1.0
    under = -vals
    worst = float(max(over.max(), under.max()))
    idx = int(np.argmax(np.maximum(over, under)))
    out.append(CheckResult(name, t, worst <= SLOPE_TOL, max(worst, 0.0), float(x[idx])))


def check_snapshot(snap: Snapshot, p: model.ModelParams) -> list[CheckResult]:
    """Static checks on one snapshot: monotonicity, ranges, domination, decay."""
    out: list[CheckResult] = []
    x = snap.grid.x
    t = snap.t
    cols = (snap.F, snap.J, snap.w, snap.I, snap.s)
    if any(v is not None and np.shape(v) != x.shape for v in cols):
        raise GridMismatchError(f"snapshot at t={t} has a column off its grid's {x.size} nodes")
    _monotone_check("f_monotone", t, snap.F, x, +1, out)
    _range_check("f_range", t, snap.F, x, out)
    if snap.w is not None:
        _monotone_check("w_monotone", t, snap.w, x, -1, out)
        _range_check("w_range", t, snap.w, x, out)
    if snap.s is not None:
        _monotone_check("s_monotone", t, snap.s, x, +1, out)
        _range_check("s_range", t, snap.s, x, out)
    if snap.I is not None:
        _monotone_check("payoff_monotone", t, snap.I, x, +1, out)
    _monotone_check("intrinsic_monotone", t, snap.J, x, +1, out)
    if snap.I is not None:
        excess = (snap.I - snap.J) / np.maximum(1.0, snap.J)
        worst = float(np.max(excess))
        out.append(CheckResult("payoff_below_intrinsic", t, worst <= 1e-9, max(worst, 0.0),
                               float(x[int(np.argmax(excess))])))
    # Decay beyond the learning front, against the run's operative pay-off;
    # no node is ahead of a front off the grid (NaN, as when alpha1 = 0).
    _, front, _ = snap.fronts(p.i_crit)
    ahead = x > front
    if np.any(ahead):
        bound = DECAY_SLACK * p.i_crit * np.exp(-(x[ahead] - front))
        viol = snap.payoff[ahead] - bound
        worst = float(np.max(viol / np.maximum(bound, 1e-300)))
        out.append(
            CheckResult("payoff_decay", t, worst <= 0.0, max(worst, 0.0),
                        float(x[ahead][int(np.argmax(viol))]))
        )
        s_vals = model._s_m(snap.payoff[ahead], p)
        s_bound = DECAY_SLACK * np.exp(-2.0 * (x[ahead] - front))
        s_viol = s_vals - s_bound
        worst_s = float(np.max(s_viol / np.maximum(s_bound, 1e-300)))
        out.append(
            CheckResult("search_decay", t, worst_s <= 0.0, max(worst_s, 0.0),
                        float(x[ahead][int(np.argmax(s_viol))]))
        )
    # Growth-rate bounds: c <= alpha1*(1 - F) and c <= alpha1, with s read
    # clipped to [0, 1]; s_range above reports an s outside it.
    if snap.s is not None and p.alpha1 > 0:
        c = forward._rate_from_alpha(snap.F, model._alpha(np.clip(snap.s, 0.0, 1.0), p))
        slack = 1e-8 * max(1.0, p.alpha1)
        viol = c - p.alpha1 * (1.0 - snap.F)
        worst = float(np.max(viol))
        out.append(
            CheckResult("rate_bound", t, worst <= slack and float(c.max()) <= p.alpha1 + slack,
                        max(worst, 0.0), float(x[int(np.argmax(viol))]))
        )
    return out


def _stable_series(
    name: str, times: np.ndarray, series: np.ndarray, out: list[CheckResult]
) -> None:
    """Fitted-constant discipline: the series must stop growing.

    A quantity that is bounded in time may still approach its limit slowly
    (the observed saturation slopes decay like a few units over a doubling of
    the horizon), so "stops growing" is read as: the least-squares slope over
    the final half of the series, after a burn-in of its first tenth, stays
    below 3/t at the window start.  A genuinely diverging quantity in this
    system grows at front-speed scale, an order of magnitude above the
    tolerance at every preset horizon, so the reading stays falsifiable.
    """
    ok = np.isfinite(series)
    times, series = times[ok], series[ok]
    if times.size < 4:
        return
    t_lo = times[0] + 0.1 * (times[-1] - times[0])
    mid = t_lo + 0.5 * (times[-1] - t_lo)
    keep = times >= mid
    if np.count_nonzero(keep) < 2:
        return
    slope = float(np.polyfit(times[keep], series[keep], 1)[0])
    out.append(CheckResult(name, float(times[-1]), slope <= 3.0 / max(mid, 1.0),
                           max(slope, 0.0), None))


def run_diagnostics(
    snapshots: list[Snapshot],
    p: model.ModelParams,
    temporal: bool = True,
) -> DiagnosticsReport:
    """Evaluate the invariant suite over a time-ordered snapshot sequence.

    Static checks run on every snapshot.  Temporal checks (front sandwich and
    its fitted gap, intrinsic-front motion, pay-off growth, level-set
    tightness) need at least a few snapshots and are meaningful for PDE
    fields; pass temporal=False for finite-sample particle data, whose
    pathwise fluctuations are outside these mean-field statements.
    """
    report = DiagnosticsReport()
    for snap in snapshots:
        report.results.extend(check_snapshot(snap, p))
    if not temporal or len(snapshots) < 2 or p.alpha1 == 0.0:
        return report

    times = np.array([s.t for s in snapshots])
    medians, learning, e_front = np.array([s.fronts(p.i_crit) for s in snapshots]).T

    # Learning front sandwiched by the intrinsic front: eta <= e and the
    # fitted gap e - eta stops growing.  Without I the two fronts coincide.
    if all(s.I is not None for s in snapshots) and np.all(np.isfinite(learning)
                                                          & np.isfinite(e_front)):
        over = learning - e_front
        worst = float(np.max(over))
        report.results.append(
            CheckResult("front_sandwich", float(times[int(np.argmax(over))]),
                        worst <= 2.0 * snapshots[0].grid.dx, max(worst, 0.0), None)
        )
        _stable_series("sandwich_gap_stable", times, e_front - learning, report.results)

    # The intrinsic front advances at least at rate kappa (5% slack).
    if np.all(np.isfinite(e_front)):
        slopes = np.diff(e_front) / np.diff(times)
        deficit = 0.95 * p.kappa - slopes
        worst = float(np.max(deficit))
        j = int(np.argmax(deficit))
        report.results.append(
            CheckResult("intrinsic_front_advance", float(times[j + 1]), worst <= 0.0,
                        max(worst, 0.0), float(e_front[j + 1]))
        )

    # Pay-off growth factor between consecutive snapshots.
    for a, b in zip(snapshots[:-1], snapshots[1:]):
        growth = p.kappa * (b.t - a.t)
        try:
            rhs = math.exp(growth) * (1.0 - GROWTH_SLACK) * a.J
        except OverflowError:
            # rhs, which has a.J's sign, exceeds 1e-300 wherever a.J > 0, so
            # viol is 1 - b.J/rhs, taken in logs.
            rhs = a.J
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                viol = -np.expm1(np.log(b.J) - np.log(a.J) - growth - math.log1p(-GROWTH_SLACK))
        else:
            with np.errstate(over="ignore"):  # J grown from below 1e-300 reads -inf: no violation
                viol = (rhs - b.J) / np.maximum(rhs, 1e-300)
        viol[rhs <= 0.0] = 0.0
        worst = float(np.max(viol))
        report.results.append(
            CheckResult("intrinsic_growth", b.t, worst <= GROWTH_SLACK,
                        max(worst, 0.0),
                        float(a.grid.x[int(np.argmax(viol))]))
        )

    # Level-set tightness of the distribution: the 0.1-0.9 width stops growing.
    widths = np.array([_front(s.F, s.grid.x, 0.1) - _front(s.F, s.grid.x, 0.9)
                       for s in snapshots])
    _stable_series("levelset_tightness", times, widths, report.results)

    # Median never outruns the learning front by a growing margin.
    _stable_series("median_vs_learning", times, medians - learning, report.results)
    return report
