"""Front location, speed fits, and the diagnostics suite."""

import dataclasses
import math

import numpy as np
import pytest

from kdlab.analysis import (
    FrontTrack,
    Snapshot,
    _front,
    estimate_speed,
    locate_level,
    run_diagnostics,
)
from kdlab.errors import (
    DomainError,
    FrontOffGridLeft,
    FrontOffGridRight,
    GridMismatchError,
    NonMonotoneProfileError,
)
from kdlab.grid import Profile
from kdlab.model import ModelParams, discounted_tail

from conftest import corrected_gap_track, space_grid

P = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5, k=0.5)  # i_crit = 4


def _locate(prof, level):
    """locate_level(prof, level), checking on the way that the unchecked _front
    the diagnostics call agrees: bit for bit where locate_level returns, NaN
    where it raises FrontOffGridLeft or FrontOffGridRight."""
    front = _front(prof.values, prof.grid.x, level)
    try:
        pos = locate_level(prof, level)
    except (FrontOffGridLeft, FrontOffGridRight):
        assert math.isnan(front)
        raise
    assert front == pos
    return pos


class TestLocateLevel:
    def test_linear(self):
        g = space_grid(0.0, 1.0, 11)
        assert _locate(Profile(g, 1.0 - g.x), 0.5) == pytest.approx(0.5)

    def test_step_between_nodes(self):
        g = space_grid(0.0, 7.0, 8)  # nodes at integers
        prof = Profile(g, np.where(g.x <= 2.0, 1.0, 0.0))
        assert _locate(prof, 0.5) == pytest.approx(2.5)

    def test_exponential(self):
        g = space_grid(0.0, 3.0, 301)
        prof = Profile(g, np.exp(-2.0 * g.x))
        assert _locate(prof, math.exp(-1.0)) == pytest.approx(0.5, abs=1e-4)

    def test_increasing_direction(self):
        # An increasing profile is located by negating it and the level.
        g = space_grid(0.0, 1.0, 11)
        assert _locate(Profile(g, -g.x), -0.3) == pytest.approx(0.3)

    def test_errors(self):
        g = space_grid(0.0, 1.0, 11)
        wiggle = np.cos(7 * g.x)
        with pytest.raises(NonMonotoneProfileError):
            _locate(Profile(g, wiggle), 0.0)
        with pytest.raises(FrontOffGridLeft):
            _locate(Profile(g, 0.2 * (1.0 - g.x)), 0.5)
        with pytest.raises(FrontOffGridRight):
            _locate(Profile(g, 1.0 - 0.2 * g.x), 0.5)

    def test_constant_at_level_is_degenerate(self):
        g = space_grid(0.0, 1.0, 11)
        with pytest.raises(FrontOffGridLeft):
            _locate(Profile(g, np.full(g.nx, 4.0)), 4.0)

    # The learning front: where the pay-off crosses the full-search threshold
    # P.i_crit = 4.
    @pytest.mark.parametrize("nx, payoff, expected", [
        (2001, lambda x: 8.0 * np.exp(-x), math.log(2.0)),
        (101, lambda x: np.exp(-2.0 * x), FrontOffGridLeft),  # max is 1 < 4
        (101, lambda x: 100.0 - x, FrontOffGridRight),
    ], ids=["closed-form", "off-grid-left", "off-grid-right"])
    def test_learning_front(self, nx, payoff, expected):
        g = space_grid(0.0, 5.0, nx)
        prof = Profile(g, payoff(g.x))
        if isinstance(expected, float):
            assert _locate(prof, P.i_crit) == pytest.approx(expected, abs=1e-4)
        else:
            with pytest.raises(expected):
                _locate(prof, P.i_crit)


class TestEstimateSpeed:
    def test_exact_lines(self):
        tr = FrontTrack([0.0, 1.0, 2.0], [0.0, 2.0, 4.0])
        with pytest.raises(DomainError):
            estimate_speed(tr, (0.0, 2.0))  # too few samples
        t = np.linspace(0.0, 2.0, 21)
        fit = estimate_speed(FrontTrack(t, 2.0 * t), (0.0, 2.0))
        assert fit.speed == pytest.approx(2.0) and fit.r_squared == pytest.approx(1.0)
        fit = estimate_speed(FrontTrack(t, 3.0 * t + 1.0), (0.0, 2.0))
        assert fit.speed == pytest.approx(3.0) and fit.intercept == pytest.approx(1.0)

    def test_sublinear_drift_bound(self):
        t = np.linspace(100.0, 200.0, 401)
        fit = estimate_speed(FrontTrack(t, 2.0 * t + np.sqrt(t)), (100.0, 200.0))
        assert 2.0 <= fit.speed <= 2.08

    def test_window_filters(self):
        t = np.linspace(0.0, 10.0, 101)
        x = np.where(t < 5.0, 0.0, 7.0 * (t - 5.0))
        fit = estimate_speed(FrontTrack(t, x), (5.0, 10.0))
        assert fit.speed == pytest.approx(7.0)

    def test_track_validation(self):
        with pytest.raises(DomainError):
            FrontTrack([1.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize("t", [np.zeros(12), np.full(12, 5.0), np.linspace(0.0, 1e-320, 12)],
                             ids=["all-at-zero", "all-at-five", "subnormal-spread"])
    def test_window_without_spread_in_t(self, t, capfd):
        # A line needs two distinct times; LAPACK used to fail on these with
        # a LinAlgError and DLASCL lines on stderr.
        with pytest.raises(DomainError, match="no spread"):
            estimate_speed(FrontTrack(t, np.arange(12.0)), (float(t[0]), float(t[-1])))
        assert capfd.readouterr().err == ""


def _snap(g, t, F, w=None):
    """The harness's snapshot of one slice: J, and I where w is given, by discounted_tail."""
    cols = {"F": F, "J": discounted_tail(F, g.dx, P.rho_minus_kappa)}
    if w is not None:
        cols.update(w=w, I=discounted_tail(F * w, g.dx, P.rho_minus_kappa))
    return Snapshot(t, g, **cols)


def _steady_snapshot(t=0.0):
    g = space_grid(-10.0, 30.0, 801)
    F = np.clip((5.0 - g.x) / 10.0, 0.0, 1.0)
    w = np.clip((g.x + 5.0) / 10.0, 0.0, 1.0)
    return _snap(g, t, F, w)


class TestDiagnostics:
    def test_steady_inputs_pass(self):
        report = run_diagnostics([_steady_snapshot()], P, temporal=False)
        assert report.passed
        checks = {r.check for r in report.results}
        assert {"f_monotone", "w_monotone", "payoff_below_intrinsic"} <= checks

    def test_corrupted_monotonicity_fails(self):
        snap = _steady_snapshot()
        vals = snap.F.copy()
        vals[200] = vals[199] + 0.2  # one increasing pair
        bad = dataclasses.replace(snap, F=vals)
        report = run_diagnostics([bad], P, temporal=False)
        failed = {r.check for r in report.failures()}
        assert "f_monotone" in failed
        loc = [r for r in report.failures() if r.check == "f_monotone"][0].location
        assert loc == pytest.approx(snap.grid.x[199])

    def test_range_violation_detected(self):
        snap = _steady_snapshot()
        vals = np.clip(snap.F - 1e-4, 0.0, 1.0)
        vals[0] = 1.0 + 1e-4
        bad = dataclasses.replace(snap, F=vals)
        report = run_diagnostics([bad], P, temporal=False)
        assert "f_range" in {r.check for r in report.failures()}

    @pytest.mark.parametrize("name", ["F", "J", "w", "I"])
    def test_column_off_the_grid_rejected(self, name):
        snap = _steady_snapshot()
        short = dataclasses.replace(snap, **{name: getattr(snap, name)[:-5]})
        with pytest.raises(GridMismatchError):
            run_diagnostics([short], P, temporal=False)

    def test_temporal_checks_catch_shrinking_payoff(self):
        # A distribution pushed leftward violates the pay-off growth bound.
        g = space_grid(-10.0, 30.0, 801)
        mk = lambda t, c: _snap(g, t, np.clip((c - g.x) / 10.0, 0.0, 1.0))
        report = run_diagnostics([mk(0.0, 5.0), mk(1.0, 4.0)], P)
        assert "intrinsic_growth" in {r.check for r in report.failures()}

    @pytest.mark.parametrize("shrink, passed", [(0.0, False), (720.0, True)])
    def test_growth_check_past_the_largest_float_factor(self, shrink, passed):
        # e^(kappa*710) overflows a float: a J that stands still fails the
        # growth bound, one grown from e^-720 times its size passes it.
        g = space_grid(-10.0, 30.0, 801)
        late = _snap(g, 710.0, np.clip((5.0 - g.x) / 10.0, 0.0, 1.0))
        early = dataclasses.replace(late, t=0.0, J=late.J * math.exp(-shrink))
        growth = [r for r in run_diagnostics([early, late], P).results
                  if r.check == "intrinsic_growth"]
        assert len(growth) == 1 and growth[0].passed == passed
        assert math.isfinite(growth[0].worst_violation)
        assert growth[0].worst_violation == (0.0 if passed else 1.0)

    def test_rows_are_flat_records(self):
        report = run_diagnostics([_steady_snapshot()], P, temporal=False)
        for row in report.to_rows():
            assert len(row) == 5

    def test_tightness_discriminates(self):
        # The stops-growing reading must fail a linearly widening front and
        # pass a saturating one at the same horizon.
        g = space_grid(-10.0, 90.0, 2001)

        def snap(t, width):
            center = 1.2 * t
            F = np.clip(0.5 - (g.x - center) / width, 0.0, 1.0)
            return _snap(g, t, F)

        times = np.linspace(0.0, 40.0, 21)
        diverging = [snap(t, 4.0 + 0.5 * t) for t in times]
        report = run_diagnostics(diverging, P)
        assert "levelset_tightness" in {r.check for r in report.failures()}

        saturating = [snap(t, 8.0 - 4.0 / (1.0 + t)) for t in times]
        report = run_diagnostics(saturating, P)
        tight = [r for r in report.results if r.check == "levelset_tightness"]
        assert tight and all(r.passed for r in tight)

    def test_preset_diagnostics_green(self, preset_runs):
        res = preset_runs("lottery-intrinsic")
        assert res.manifest["diagnostics_passed"], res.manifest["diagnostics_failures"]


class TestFrontDivergence:
    def test_lottery_gap_slope_matches_theory(self, preset_runs):
        # The learning and median fronts separate at rate
        # (kappa + alpha1) - 2 sqrt(kappa alpha1) = 0.25, within 15%.
        # Gap modelled as (v* - c*) t + (3 / (2 lambda*)) ln t + b (Bramson).
        res = preset_runs("lottery-intrinsic")
        fit = estimate_speed(corrected_gap_track(res), (12.0, 108.0))
        assert fit.speed == pytest.approx(0.25, rel=0.15)
