"""Backward solver: steady states, relaxation oracle, refinement order, insensitivity."""

import math

import numpy as np
import pytest

from kdlab.backward import TerminalCondition, dt_max_backward, iter_backward, solve_backward
from kdlab.errors import DomainError, GridMismatchError
from kdlab.forward import INTRINSIC, solve_forward
from kdlab.grid import Grid1D, Profile, SpaceTimeField
from kdlab.model import ModelParams, _alpha, _s_m, discounted_tail

from conftest import space_grid

P = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5, k=0.5)


def interior(grid, margin=6.0):
    return (grid.x > grid.x_min + margin) & (grid.x < grid.x_max - margin)


class TestTerminalCondition:
    def test_logistic_builds(self):
        g = space_grid(-20.0, 20.0, 401)
        vals = TerminalCondition(kind="logistic", center=0.0, slope=1.0).build(g)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] <= 1e-6 and vals[-1] >= 1.0 - 1e-6

    def test_bad_limits_rejected(self):
        g = space_grid(-2.0, 2.0, 65)
        with pytest.raises(DomainError):
            TerminalCondition(kind="logistic", center=0.0, slope=1.0).build(g)

    def test_profile_terminal(self):
        # A terminal profile other than the logistic ramp is a Profile.
        g = Grid1D(-20.0, 20.0, 401, 0.0, 0.5, 5)
        zeros = SpaceTimeField(g, np.zeros((g.nt + 1, g.nx)))
        prof = Profile(g, np.clip(0.5 + g.x / 10.0, 0.0, 1.0))
        w = solve_backward(prof, zeros, zeros, P, g)
        assert np.array_equal(w.values[g.nt], prof.values)
        decreasing = Profile(g, np.clip(0.5 - g.x / 10.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            solve_backward(decreasing, zeros, zeros, P, g)
        with pytest.raises(GridMismatchError):
            solve_backward(Profile(space_grid(-20.0, 20.0, 201), prof.values[::2]),
                           zeros, zeros, P, g)

    def test_only_logistic_kind(self):
        with pytest.raises(DomainError):
            TerminalCondition(kind="custom")

    @pytest.mark.parametrize("bad", [{"center": "3"}, {"slope": True}, {"center": math.inf}])
    def test_center_and_slope_are_finite_numbers(self, bad):
        with pytest.raises(DomainError):
            TerminalCondition(kind="logistic", **bad)


def backward_steps(w_start, F_val, payoff_val, t, nt, p=P):
    """w after nt backward steps over a time span t, with constant F and s = s_m(payoff).

    The stepper pins w to 0 on the left and 1 on the right before every solve,
    so the start profile's end values are set to those: no step changes.
    """
    g = Grid1D(-20.0, 20.0, 801, 0.0, t, nt)
    w0 = np.array(w_start, dtype=float)
    w0[0], w0[-1] = 0.0, 1.0
    F = SpaceTimeField(g, np.full((nt + 1, g.nx), F_val))
    s = SpaceTimeField(g, _s_m(np.full((nt + 1, g.nx), payoff_val), p))
    return g, solve_backward(Profile(g, w0), F, s, p, g).values[0]


class TestStepBackward:
    def test_steady_all_learning(self):
        # s_m = 0 and w = 1 kills the source; interior stays put.
        g, out = backward_steps(np.ones(801), 0.0, 0.0, 0.02, 1)
        assert np.max(np.abs(out[interior(g)] - 1.0)) < 1e-12

    def test_steady_all_producing(self):
        # s_m = 1 and w = 0: source vanishes again.
        g, out = backward_steps(np.zeros(801), 0.0, 10.0, 0.02, 1)  # pay-off beyond i_crit = 4
        assert np.max(np.abs(out[interior(g)])) < 1e-12

    def test_relaxation_oracle(self):
        # With s_m = 0, F = 0 the interior obeys w_t = -(rho-kappa)(1-w)
        # backward in time: after one unit, w = 1 - e^{-(rho-kappa)}.
        g, out = backward_steps(np.zeros(801), 0.0, 0.0, 1.0, 1000)
        target = 1.0 - math.exp(-P.rho_minus_kappa)
        inner = interior(g, margin=10.0)
        assert np.max(np.abs(out[inner] - target)) < 2e-3

    def test_full_source_oracle(self):
        # Every source coefficient live: constant allocation s0 in (0, 1) and
        # constant F = f0 give the linear relaxation w_tau = a - b w with
        # a = (rho-kappa)(1-s0) and b = (rho-kappa) + alpha(s0) f0.
        payoff_val = 2.0  # below i_crit = 4, so s0 = s_m(2) = 0.25
        s0 = _s_m(payoff_val, P)
        f0 = 0.6
        a = P.rho_minus_kappa * (1.0 - s0)
        b = P.rho_minus_kappa + _alpha(s0, P) * f0
        g, out = backward_steps(np.zeros(801), f0, payoff_val, 1.0, 1000)
        target = (a / b) * (1.0 - math.exp(-b))
        inner = interior(g, margin=10.0)
        assert np.max(np.abs(out[inner] - target)) < 2e-3

    def test_dt_cap(self):
        with pytest.raises(DomainError):
            backward_steps(np.zeros(801), 0.0, 0.0, dt_max_backward(P) * 1.5, 1)


def _lottery_fields(t_final=20.0, dt=0.02, dx=0.05):
    p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25)
    nt = int(round(t_final / dt))
    x_max = 2.0 * t_final + 40.0
    nx = int(round((x_max + 20.0) / dx)) + 1
    g = Grid1D(-20.0, x_max, nx, 0.0, t_final, nt)
    F0 = Profile(g, np.clip((5.0 - g.x) / 10.0, 0.0, 1.0))
    F_field = solve_forward(F0, INTRINSIC, p, g)
    s_field = SpaceTimeField(g, _s_m(discounted_tail(F_field.values, g.dx, p.rho_minus_kappa), p))
    return p, g, F_field, s_field


class TestSolveBackward:
    def test_zero_horizon_returns_terminal(self):
        g = space_grid(-20.0, 20.0, 401)
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25)
        F_field = SpaceTimeField(g, np.zeros((1, g.nx)))
        s_field = SpaceTimeField(g, np.zeros((1, g.nx)))
        wT = TerminalCondition(kind="logistic", center=0.0, slope=1.0)
        out = solve_backward(wT, F_field, s_field, p, g)
        assert np.array_equal(out.values[0], wT.build(g))

    def test_iter_backward_yields_slices_from_the_terminal_one(self):
        p, g, F_field, s_field = _lottery_fields(t_final=2.0)
        wT = TerminalCondition(kind="logistic", center=10.0, slope=1.0)
        ref = solve_backward(wT, F_field, s_field, p, g).values
        js = []
        for j, w in iter_backward(wT, F_field, s_field, p, g):
            assert np.array_equal(w, ref[j])
            js.append(j)
        assert js == list(range(g.nt, -1, -1))

    def test_range_and_monotonicity(self):
        p, g, F_field, s_field = _lottery_fields(t_final=6.0)
        wT = TerminalCondition(kind="logistic", center=10.0, slope=1.0)
        w = solve_backward(wT, F_field, s_field, p, g)
        assert np.all(w.values >= 0.0) and np.all(w.values <= 1.0)
        assert np.min(np.diff(w.values, axis=1)) >= -1e-9

    def test_terminal_condition_insensitivity(self):
        # Two admissible terminal conditions agree ten units before the end.
        p, g, F_field, s_field = _lottery_fields(t_final=20.0)
        w1 = solve_backward(
            TerminalCondition(kind="logistic", center=28.0, slope=1.0),
            F_field, s_field, p, g,
        )
        w2 = solve_backward(
            TerminalCondition(kind="logistic", center=20.0, slope=0.5),
            F_field, s_field, p, g,
        )
        j10 = int(round(10.0 / g.dt))
        diff = np.max(np.abs(w1.values[j10] - w2.values[j10]))
        assert diff < 1e-2

    def test_fitted_second_order_refinement(self):
        # With F = s = 0, u = 1 - w obeys u_tau = kappa u_xx + 2 kappa u_x
        # - (rho-kappa) u, whose steady state on [-10, 10] with u(-10) = 1 and
        # u(10) = 0 is c1 e^{l1 x} + c2 e^{l2 x}, l = -1 +- sqrt(2).  Backward
        # Euler's fixed point has no time error, and 240 steps of 0.25 reach
        # it, so the error is the spatial one alone: second order for the
        # fitted drift (ratios 3.98-4.00), first order for an upwinded one.
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25)
        lam = np.array([-1.0 + math.sqrt(2.0), -1.0 - math.sqrt(2.0)])
        c = np.linalg.solve(np.exp(np.outer([-10.0, 10.0], lam)), [1.0, 0.0])
        errors = []
        for nx in (101, 201, 401, 801):
            g = Grid1D(-10.0, 10.0, nx, 0.0, 60.0, 240)
            zero = SpaceTimeField(g, np.zeros((g.nt + 1, g.nx)))
            w = solve_backward(TerminalCondition(slope=2.0), zero, zero, p, g).values[0]
            errors.append(np.max(np.abs(w - (1.0 - np.exp(np.outer(g.x, lam)) @ c))))
        assert all(e1 / e2 >= 3.5 for e1, e2 in zip(errors, errors[1:])), errors

    def test_transient_heat_kernel_accuracy(self):
        # The same linear problem run for tau = 0.5 from a logistic terminal
        # condition; its exact solution is the shifted heat kernel.
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25)
        tau, dt = 0.5, 2e-4
        g = Grid1D(-20.0, 20.0, 801, 0.0, tau, int(round(tau / dt)))
        wT = TerminalCondition(kind="logistic", center=0.0, slope=1.0)
        zero = SpaceTimeField(g, np.zeros((g.nt + 1, g.nx)))
        w = solve_backward(wT, zero, zero, p, g).values[0]
        # convolution of 1 - w_T with the heat kernel, then shift and decay
        xf = np.linspace(-40.0, 40.0, 8001)
        uT = 1.0 - 1.0 / (1.0 + np.exp(-np.clip(xf, -700, 700)))
        m = interior(g, margin=8.0)
        exact = np.empty(g.nx)
        for i, xq in enumerate(g.x):
            z = xq + 2.0 * p.kappa * tau
            kern = np.exp(-((z - xf) ** 2) / (4.0 * p.kappa * tau))
            kern /= math.sqrt(4.0 * math.pi * p.kappa * tau)
            exact[i] = 1.0 - math.exp(-p.rho_minus_kappa * tau) * np.trapezoid(kern * uT, xf)
        assert np.max(np.abs(w[m] - exact[m])) <= 2e-4

    def test_domain_past_the_scaling_range_refused(self):
        # The step's scale factors would reach e^{+-750}, past the float range.
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25)
        g = Grid1D(-750.0, 750.0, 1501, 0.0, 0.5, 5)
        zero = SpaceTimeField(g, np.zeros((g.nt + 1, g.nx)))
        with pytest.raises(DomainError, match="float range"):
            next(iter_backward(TerminalCondition(), zero, zero, p, g))
