"""Forward solver: nonlocal rate, IMEX stepping, closures, convergence."""

import math

import numpy as np
import pytest

from kdlab.errors import DomainError, GridMismatchError
from kdlab.forward import (
    CONSTANT_ALPHA,
    INTRINSIC,
    RANK_LOCAL,
    _rate_from_alpha,
    dt_max,
    iter_forward,
    solve_forward,
)
from kdlab.grid import Grid1D, Profile, SpaceTimeField, _march
from kdlab.mfg import MfgConfig, solve_nash
from kdlab.model import ModelParams, _alpha, _q_integral, _s_m, discounted_tail

from conftest import monotone_pair, space_grid

P = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5, k=0.5)


def step_profile(grid, x0):
    return Profile(grid, np.where(grid.x < x0, 1.0, 0.0))


class TestNonlocalRate:
    def test_constant_F(self):
        g = space_grid(-5.0, 5.0, 64)
        F = Profile(g, np.full(g.nx, 0.7))
        s = Profile(g, np.full(g.nx, 0.9))
        assert np.all(_rate_from_alpha(F.values, _alpha(s.values, P)) == 0.0)

    def test_full_search_telescopes(self):
        g = space_grid(-5.0, 5.0, 201)
        rng = np.random.default_rng(2)
        F, _ = monotone_pair(g, rng)
        s = Profile(g, np.ones(g.nx))
        c = _rate_from_alpha(F.values, _alpha(s.values, P))
        assert np.max(np.abs(c - P.alpha1 * (1.0 - F.values))) < 1e-8

    def test_step_profile(self):
        g = space_grid(-5.0, 5.0, 101)
        F = step_profile(g, 0.0)
        s = Profile(g, np.ones(g.nx))
        c = _rate_from_alpha(F.values, _alpha(s.values, P))
        assert np.all(c[g.x < 0.0] == 0.0)
        assert np.all(c[g.x > 0.0] == pytest.approx(P.alpha1))

    def test_bounds(self):
        g = space_grid(-5.0, 5.0, 301)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            F, _ = monotone_pair(g, rng)
            s = Profile(g, rng.random(g.nx))
            c = _rate_from_alpha(F.values, _alpha(s.values, P))
            assert np.all(c >= 0.0)
            assert np.all(np.diff(c) >= -1e-15)
            assert np.all(c <= P.alpha1 * (1.0 - F.values) + 1e-8)
            assert c.max() <= P.alpha1 + 1e-12


class TestStepForward:
    def test_fixed_point_all_ones(self):
        # Away from the pinned F=0 right edge, the saturated state is steady.
        g = Grid1D(-25.0, 25.0, 501, 0.0, 0.1, 1)
        F0 = np.ones(g.nx)
        F0[-1] = 0.0  # the end value every step pins
        s = SpaceTimeField(g, np.full((g.nt + 1, g.nx), 0.5))
        out = solve_forward(Profile(g, F0), s, P, g).values[1]
        inner = g.x < g.x_max - 10.0
        assert np.max(np.abs(out[inner] - 1.0)) < 1e-12

    def test_dt_cap(self):
        dt = 0.1 / P.alpha1 * 1.5
        g = Grid1D(-5.0, 5.0, 64, 0.0, dt, 1)
        F = step_profile(g, 0.0)
        s = SpaceTimeField(g, np.ones((g.nt + 1, g.nx)))
        with pytest.raises(DomainError):
            solve_forward(F, s, P, g)
        assert dt_max(ModelParams(kappa=1.0, rho=2.0, alpha1=0.0)) == math.inf


class TestHeatOracle:
    def test_heat_kernel(self):
        # alpha1 = 0: one unit of pure diffusion of a symmetric step.
        p0 = ModelParams(kappa=1.0, rho=2.0, alpha1=0.0)
        g = Grid1D(-20.0, 20.0, 2001, 0.0, 1.0, 1000)
        vals = np.where(g.x < 0.0, 1.0, 0.0)
        vals[g.x == 0.0] = 0.5
        F = solve_forward(Profile(g, vals), CONSTANT_ALPHA, p0, g)
        at = lambda xq: F.values[-1, int(np.argmin(np.abs(g.x - xq)))]
        assert at(0.0) == pytest.approx(0.5, abs=2e-3)
        # independent oracle: half the complementary error function
        assert at(2.0) == pytest.approx(0.5 * math.erfc(1.0), abs=2e-3)

    def test_total_variation_conserved(self):
        p0 = ModelParams(kappa=1.0, rho=2.0, alpha1=0.0)
        g = Grid1D(-20.0, 20.0, 801, 0.0, 2.0, 200)
        vals = np.clip((2.0 - g.x) / 4.0, 0.0, 1.0)
        F = solve_forward(Profile(g, vals), CONSTANT_ALPHA, p0, g)
        for j in (0, 100, 200):
            sl = F.values[j]
            assert np.all(np.diff(sl) <= 1e-12)
            assert np.sum(np.abs(np.diff(sl))) == pytest.approx(1.0, abs=1e-9)


class TestSolveForward:
    def test_monotone_and_range(self):
        g = Grid1D(-20.0, 60.0, 801, 0.0, 10.0, 500)
        F0 = Profile(g, np.clip((5.0 - g.x) / 10.0, 0.0, 1.0))
        sol = solve_forward(F0, INTRINSIC, P, g)
        assert np.all(sol.values >= 0.0) and np.all(sol.values <= 1.0)
        assert np.max(np.diff(sol.values, axis=1)) <= 1e-9

    def test_prescribed_strategy_field(self):
        g = Grid1D(-10.0, 10.0, 201, 0.0, 1.0, 50)
        F0 = step_profile(g, 0.0)
        s_field = SpaceTimeField(g, np.ones((g.nt + 1, g.nx)))
        sol = solve_forward(F0, s_field, P, g)
        assert sol.values.shape == (51, 201)

    @pytest.mark.parametrize("closure", [INTRINSIC, CONSTANT_ALPHA])
    def test_iter_forward_yields_each_slice_payoff(self, closure):
        g = Grid1D(-20.0, 40.0, 301, 0.0, 2.0, 20)
        F0 = Profile(g, np.clip((2.0 - g.x) / 4.0, 0.0, 1.0))
        js = []
        for j, F, J, _ in iter_forward(F0, closure, P, g):
            assert np.array_equal(J, discounted_tail(F, g.dx, P.rho_minus_kappa))
            js.append(j)
        assert js == list(range(g.nt + 1))

    def test_iter_forward_has_no_payoff_under_a_field(self):
        g = Grid1D(-10.0, 10.0, 201, 0.0, 1.0, 50)
        s_field = SpaceTimeField(g, np.full((g.nt + 1, g.nx), 0.5))
        assert all(J is None for _, _, J, _ in iter_forward(step_profile(g, 0.0), s_field, P, g))
        assert all(J is None for _, _, J, _ in iter_forward(step_profile(g, 0.0), RANK_LOCAL, P, g))

    @pytest.mark.parametrize("coupling", ["field", INTRINSIC, CONSTANT_ALPHA, RANK_LOCAL])
    def test_iter_forward_steps_on_the_yielded_strategy(self, coupling):
        # Each slice's s is the coupling's strategy, and one step of the
        # stepper on that s gives the next slice bit for bit.  The field
        # leaves [0, 1] and varies from row to row: slice j plays row j, clipped.
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=2.0, k=0.6)
        g = Grid1D(-20.0, 40.0, 301, 0.0, 0.5, 10)
        F0 = Profile(g, np.clip((2.0 - g.x) / 4.0, 0.0, 1.0))
        rows = 1.2 * np.sin(np.add.outer(np.arange(g.nt + 1), 0.3 * g.x)) + 0.4
        field = SpaceTimeField(g, rows)
        slices = [(F.copy(), J, s.copy())
                  for _, F, J, s in iter_forward(F0, field if coupling == "field" else coupling, p, g)]
        for j, (F, J, s) in enumerate(slices):
            expected = {"field": lambda: np.clip(rows[j], 0.0, 1.0), INTRINSIC: lambda: _s_m(J, p),
                        CONSTANT_ALPHA: lambda: np.ones(g.nx), RANK_LOCAL: lambda: F}[coupling]()
            assert np.array_equal(s, expected)
            if j == g.nt:
                break
            if coupling == RANK_LOCAL:
                c = _q_integral(1.0, p) - _q_integral(s, p)
            else:
                c = _rate_from_alpha(F, _alpha(s, p))
            step = _march(F.copy(), 1, g.dx, g.dt, p.kappa, lambda n, u: u * (1.0 + g.dt * c),
                          ends=(1.0, 0.0), slope=-1)
            next(step)
            assert np.array_equal(next(step)[1], slices[j + 1][0])

    def test_kpp_dominates_intrinsic(self):
        # Constant full-rate search is a supersolution of the closure run.
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25)
        g = Grid1D(-20.0, 60.0, 801, 0.0, 10.0, 500)
        F0 = Profile(g, np.clip((5.0 - g.x) / 10.0, 0.0, 1.0))
        low = solve_forward(F0, INTRINSIC, p, g)
        high = solve_forward(F0, CONSTANT_ALPHA, p, g)
        assert np.all(low.values <= high.values + 1e-6)

    def test_grid_refinement_convergence(self):
        # Backward-Euler time error dominates: halving (dx, dt) roughly
        # halves the error against a fine reference.
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=1.0)

        def run(nx, nt):
            g = Grid1D(-15.0, 15.0, nx, 0.0, 2.0, nt)
            F0 = Profile(g, np.clip((1.0 - g.x) / 2.0, 0.0, 1.0))
            return g, solve_forward(F0, CONSTANT_ALPHA, p, g).values[-1]

        g1, f1 = run(301, 40)
        g2, f2 = run(601, 80)
        g4, f4 = run(1201, 160)
        e1 = np.max(np.abs(f1 - f4[::4]))
        e2 = np.max(np.abs(f2 - f4[::2]))
        assert e1 / e2 > 1.5

    def test_inputs_off_the_run_refused_at_entry(self):
        g, other = Grid1D(-5.0, 5.0, 64, 0.0, 1.0, 10), space_grid(-5.0, 5.0, 64)
        F0 = step_profile(g, 0.0)
        for F, strategy, error in [(F0, SpaceTimeField(other, np.ones((1, 64))), GridMismatchError),
                                   (F0, "majority", DomainError),
                                   (step_profile(other, 0.0), INTRINSIC, GridMismatchError)]:
            with pytest.raises(error):
                next(iter_forward(F, strategy, P, g))

    def test_requires_monotone_initial(self):
        g = Grid1D(-5.0, 5.0, 64, 0.0, 1.0, 10)
        bad = np.linspace(0.0, 1.0, g.nx)
        with pytest.raises(DomainError):
            solve_forward(Profile(g, bad), CONSTANT_ALPHA, P, g)

    @pytest.mark.parametrize("end", [0, -1], ids=["above-one", "below-zero"])
    @pytest.mark.parametrize("coupling", [INTRINSIC, CONSTANT_ALPHA, RANK_LOCAL, "field", "nash"])
    def test_initial_outside_unit_interval_fails_at_entry(self, coupling, end):
        g = Grid1D(-10.0, 10.0, 101, 0.0, 0.5, 10)
        vals = np.clip((2.0 - g.x) / 4.0, 0.0, 1.0)
        vals[end] = 1.0 + 1e-3 if end == 0 else -1e-3
        F0, field = Profile(g, vals), SpaceTimeField(g, np.full((g.nt + 1, g.nx), 0.5))
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            if coupling == "nash":
                solve_nash(F0, None, P, g, MfgConfig(max_iter=1))
            else:  # slice 0 is yielded before any step
                next(iter_forward(F0, field if coupling == "field" else coupling, P, g))


class TestRankLocal:
    def test_one_step_matches_nonlocal_route(self):
        # With s = F the cumulative rate collapses to Q(1) - Q(F); the
        # quadrature route must agree with the closed form at O(dx^2).
        g = Grid1D(-10.0, 10.0, 2001, 0.0, 1.0, 100)
        F0 = Profile(g, np.clip((1.0 - g.x) / 2.0, 0.0, 1.0))
        local = solve_forward(F0, RANK_LOCAL, P, g).values[1]
        s_field = SpaceTimeField(g, np.tile(F0.values, (g.nt + 1, 1)))
        nonlocal_route = solve_forward(F0, s_field, P, g).values[1]
        assert np.max(np.abs(local - nonlocal_route)) < 1e-5

    def test_front_advances(self):
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=1.0)
        g = Grid1D(-15.0, 45.0, 601, 0.0, 10.0, 200)
        F0 = Profile(g, np.clip((1.0 - g.x) / 2.0, 0.0, 1.0))
        sol = solve_forward(F0, RANK_LOCAL, p, g)
        med0 = g.x[np.argmax(sol.values[0] < 0.5)]
        med1 = g.x[np.argmax(sol.values[-1] < 0.5)]
        # speed of the local reduction is below the constant-rate speed
        assert 2.0 * math.sqrt(_q_integral(1.0, p)) * 10.0 * 0.5 < med1 - med0 < 2.0 * 10.0


class TestIntrinsicClosure:
    def test_general_exponent_stability(self):
        # Random admissible parameter points away from k = 1/2: the solver
        # must keep monotonicity and range without tripping its guards.
        rng = np.random.default_rng(17)
        for _ in range(5):
            kappa = rng.uniform(0.3, 2.0)
            p = ModelParams(
                kappa=kappa, rho=kappa + rng.uniform(0.5, 2.0),
                alpha1=rng.uniform(0.1, 3.0), k=rng.uniform(0.5, 0.95),
            )
            dt = min(0.05, 0.1 / p.alpha1)
            g = Grid1D(-20.0, 40.0, 601, 0.0, 40 * dt, 40)
            F0 = Profile(g, np.clip((2.0 - g.x) / 4.0, 0.0, 1.0))
            sol = solve_forward(F0, INTRINSIC, p, g)
            assert np.all((sol.values >= 0.0) & (sol.values <= 1.0))
            assert np.max(np.diff(sol.values, axis=1)) <= 1e-9

    def test_short_run_front_speed_band(self):
        # The intrinsic front should move near kappa + alpha1 already at
        # modest horizons (tight asymptotics are the acceptance suite's job).
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25)
        g = Grid1D(-20.0, 100.0, 1201, 0.0, 30.0, 1500)
        F0 = Profile(g, np.clip((5.0 - g.x) / 10.0, 0.0, 1.0))
        sol = solve_forward(F0, INTRINSIC, p, g)
        from kdlab.analysis import _front

        fronts = []
        for j in (500, 1000, 1500):
            J = discounted_tail(sol.values[j], g.dx, p.rho_minus_kappa)
            fronts.append(_front(J, g.x, p.i_crit))
        v1 = (fronts[1] - fronts[0]) / 10.0
        v2 = (fronts[2] - fronts[1]) / 10.0
        assert 1.1 < v1 < 1.4 and 1.1 < v2 < 1.4
