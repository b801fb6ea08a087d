"""Fixed-point loop: best response, residuals, convergence, equilibrium structure."""

import math
import tracemalloc

import numpy as np
import pytest

import kdlab.mfg
from kdlab.analysis import _front, locate_level
from kdlab.backward import TerminalCondition, iter_backward, solve_backward
from kdlab.errors import DomainError, GridMismatchError, NonFiniteError
from kdlab.forward import INTRINSIC, iter_forward, solve_forward
from kdlab.grid import Grid1D, Profile, SpaceTimeField
from kdlab.mfg import (MfgConfig, MfgSolution, _best_response, _residual, best_response,
                       solve_nash)
from kdlab.model import ModelParams, _alpha, _s_m, discounted_tail

from conftest import space_grid

P_LOTTERY = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25, k=0.5)


def _nash_grid(t_final, dx=0.1, dt=0.05):
    x_max = 2.0 * t_final + 40.0
    nx = int(round((x_max + 20.0) / dx)) + 1
    return Grid1D(-20.0, x_max, nx, 0.0, t_final, int(round(t_final / dt)))


def _ramp(grid, l0=5.0):
    return Profile(grid, np.clip((l0 - grid.x) / (2.0 * l0), 0.0, 1.0))


@pytest.fixture(scope="module")
def small_nash():
    grid = _nash_grid(20.0)
    sol = solve_nash(_ramp(grid), None, P_LOTTERY, grid, MfgConfig())
    return grid, sol


@pytest.fixture(scope="module")
def two_step_nash():
    """A run stopped after two iterations, with its traced peak in fields of the grid."""
    grid = _nash_grid(20.0)
    F0 = _ramp(grid)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sol = solve_nash(F0, None, P_LOTTERY, grid, MfgConfig(max_iter=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return grid, sol, (peak - base) / ((grid.nt + 1) * grid.nx * 8)


def _default_terminal(F0, grid, p):
    """The documented default wT: a unit-slope logistic at the final intrinsic front."""
    F_end = solve_forward(F0, INTRINSIC, p, grid).values[grid.nt]
    J_end = discounted_tail(F_end, grid.dx, p.rho_minus_kappa)
    center = locate_level(Profile(grid, J_end), p.i_crit)
    return TerminalCondition(kind="logistic", center=center, slope=1.0)


def _four_field_nash(F0, p, grid, cfg):
    """Reference: the Picard loop with the best response in a fourth field.

    Same warm start, default terminal condition, damping and stopping rule as
    solve_nash.  Also returns, per iteration, the first slice at which the
    running residual exceeds tol (None if it never does).
    """
    s = np.empty((grid.nt + 1, grid.nx))
    for j, _, J, _ in iter_forward(F0, INTRINSIC, p, grid):
        s[j] = _s_m(J, p)
    s_field = SpaceTimeField(grid, s)
    wT = TerminalCondition(kind="logistic", center=locate_level(Profile(grid, J), p.i_crit),
                           slope=1.0)
    F_field = SpaceTimeField(grid, np.zeros_like(s))
    w_field = SpaceTimeField(grid, np.zeros_like(s))
    F, w, s_resp = F_field.values, w_field.values, np.empty_like(s)
    theta, residuals, thetas, passes, converged = cfg.theta, [], [], [], False
    for iterations in range(1, cfg.max_iter + 1):
        for j, F_j, _, _ in iter_forward(F0, s_field, p, grid):
            F[j] = F_j
        res, passed = 0.0, None
        for j, w_j in iter_backward(wT, F_field, s_field, p, grid):
            w[j] = w_j
            s_resp[j] = _best_response(F[j], w_j, grid.dx, p)
            res = max(res, _residual(s_resp[j], s[j]))
            if passed is None and res > cfg.tol:
                passed = j
        passes.append(passed)
        if residuals and res > residuals[-1]:
            theta *= 0.5
        residuals.append(res)
        thetas.append(theta)
        if res <= cfg.tol:
            converged = True
            break
        if iterations < cfg.max_iter:
            s *= 1.0 - theta
            s_resp *= theta
            s += s_resp
    sol = MfgSolution(F_field, w_field, s_field, residuals=residuals, thetas=thetas,
                      converged=converged, iterations=iterations)
    return sol, passes


def _payoff(sol, grid, j, p):
    """The learning pay-off of slice j of a solution, as the harness records it."""
    F, w = sol.F_field.values[j], sol.w_field.values[j]
    return discounted_tail(F * w, grid.dx, p.rho_minus_kappa)


class TestResidual:
    """The sup-norm distance the Picard loop measures between strategies."""

    def test_examples(self):
        a = np.zeros((4, 5))
        b = a.copy()
        assert _residual(a, b) == 0.0
        b[2, 3] = 0.3
        assert _residual(a, b) == pytest.approx(0.3)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        a, b = rng.random((6, 7)), rng.random((6, 7))
        brute = max(abs(a[i, j] - b[i, j]) for i in range(6) for j in range(7))
        assert _residual(a, b) == pytest.approx(brute, abs=0)


class TestBestResponse:
    def test_zero_propensity_means_no_search(self):
        g = space_grid(-5.0, 5.0, 64)
        F = np.clip(-g.x / 5.0 + 0.5, 0, 1)
        assert np.all(best_response(F, np.zeros(g.nx), g.dx, P_LOTTERY) == 0.0)

    def test_empty_economy_means_no_search(self):
        g = space_grid(-5.0, 5.0, 64)
        assert np.all(best_response(np.zeros(g.nx), np.ones(g.nx), g.dx, P_LOTTERY) == 0.0)

    def test_exponential_slice_value(self):
        # pay-off at the left edge is 1, so s = (alpha1 * 1 / 2)^2 = 0.0625
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5, k=0.5)
        g = space_grid(0.0, 40.0, 4001)
        s = best_response(np.exp(-2.0 * g.x), np.ones(g.nx), g.dx, p)
        assert s[0] == pytest.approx(0.0625, abs=1e-4)

    def test_rows_equal_the_whole_field(self, small_nash):
        grid, sol = small_nash
        F, w = sol.F_field.values, sol.w_field.values
        whole = best_response(F, w, grid.dx, P_LOTTERY)
        rows = np.array([best_response(F[j], w[j], grid.dx, P_LOTTERY) for j in range(grid.nt + 1)])
        assert np.array_equal(rows, whole)

    def test_shape_mismatch(self):
        with pytest.raises(GridMismatchError):
            best_response(np.zeros((2, 3)), np.zeros((3, 2)), 0.1, P_LOTTERY)

    @pytest.mark.parametrize("F, error", [(np.nan, NonFiniteError), (np.inf, NonFiniteError),
                                          (-1.0, DomainError)], ids=["nan", "inf", "negative"])
    def test_payoff_outside_its_domain_refused(self, F, error):
        g = space_grid(-5.0, 5.0, 64)
        with pytest.raises(error, match="pay-off"):
            best_response(np.full(g.nx, F), np.ones(g.nx), g.dx, P_LOTTERY)


class TestSolveNash:
    def test_zero_horizon(self):
        g = space_grid(-20.0, 30.0, 501)
        F0 = _ramp(g)
        wT = TerminalCondition(kind="logistic", center=0.0, slope=1.0)
        sol = solve_nash(F0, wT, P_LOTTERY, g, MfgConfig())
        assert sol.converged and sol.iterations == 1
        bres = best_response(sol.F_field.values, sol.w_field.values, g.dx, P_LOTTERY)
        assert np.max(np.abs(bres - sol.strategy_field.values)) == 0.0

    def test_warm_start_is_iteration_one_sweep(self):
        # Iteration 1 runs no forward sweep of its own: its F is the intrinsic
        # closure's, bit for bit, also at k != 1/2.
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=2.0, k=0.6)
        grid = _nash_grid(5.0)
        F0 = _ramp(grid)
        sol = solve_nash(F0, None, p, grid, MfgConfig(max_iter=1))
        assert np.array_equal(sol.F_field.values, solve_forward(F0, INTRINSIC, p, grid).values)

    def test_converges_on_small_lottery_run(self, small_nash):
        _, sol = small_nash
        assert sol.converged
        assert sol.iterations <= 50
        assert sol.residuals[-1] <= 1e-6
        assert all(b < a for a, b in zip(sol.residuals, sol.residuals[1:]))

    def test_fixed_point_consistency(self, small_nash):
        grid, sol = small_nash
        bres = best_response(sol.F_field.values, sol.w_field.values, grid.dx, P_LOTTERY)
        assert np.max(np.abs(bres - sol.strategy_field.values)) <= 1e-6

    @pytest.mark.parametrize("run", ["converged", "max_iter=2"])
    def test_returned_fields_are_generated_by_the_strategy(self, run, small_nash, two_step_nash):
        grid, sol = small_nash if run == "converged" else two_step_nash[:2]
        assert sol.converged == (run == "converged")
        F0 = _ramp(grid)
        F = solve_forward(F0, sol.strategy_field, P_LOTTERY, grid)
        assert np.array_equal(sol.F_field.values, F.values)
        wT = _default_terminal(F0, grid, P_LOTTERY)
        w = solve_backward(wT, sol.F_field, sol.strategy_field, P_LOTTERY, grid)
        assert np.array_equal(sol.w_field.values, w.values)
        bres = best_response(F.values, w.values, grid.dx, P_LOTTERY)
        assert np.max(np.abs(bres - sol.strategy_field.values)) == sol.residuals[-1]

    def test_peak_memory_is_three_fields(self, two_step_nash):
        # s, F and w (whose rows hold the best response before a damped
        # step), plus slice-sized temporaries.
        _, _, peak_fields = two_step_nash
        assert peak_fields <= 3.5

    def test_strategy_monotone_slices(self, small_nash):
        _, sol = small_nash
        assert np.max(np.diff(sol.strategy_field.values, axis=1)) <= 1e-9

    def test_full_search_region_is_exact(self, small_nash):
        # s equals 1 exactly where the pay-off is at or above the threshold,
        # and is strictly below 1 to the right of the learning front.
        grid, sol = small_nash
        p = P_LOTTERY
        for j in (grid.nt // 2, grid.nt):
            payoff = _payoff(sol, grid, j, p)
            s = _s_m(payoff, p)
            assert np.all(s[payoff >= p.i_crit] == 1.0)
            assert np.all(s[payoff < p.i_crit] < 1.0)

    def test_learning_decay_bounds(self, small_nash):
        # Beyond the learning front: pay-off and allocation decay at least
        # exponentially, with 5% slack for quadrature and interpolation.
        grid, sol = small_nash
        p = P_LOTTERY
        for j in (grid.nt // 2, int(grid.nt * 0.75)):
            payoff = _payoff(sol, grid, j, p)
            front = _front(payoff, grid.x, p.i_crit)
            assert math.isfinite(front)
            ahead = grid.x > front
            decay = np.exp(-(grid.x[ahead] - front))
            assert np.all(payoff[ahead] <= 1.05 * p.i_crit * decay)
            assert np.all(_alpha(_s_m(payoff[ahead], p), p) <= 1.05 * p.alpha1 * decay)
            s_bound = 1.05 * np.exp(-2.0 * (grid.x[ahead] - front))
            assert np.all(_s_m(payoff[ahead], p) <= s_bound)

    def test_propensity_front_tightness(self, small_nash):
        # w reaches 1/2 within a bounded, non-growing offset of the learning
        # front for all t up to a terminal layer.
        grid, sol = small_nash
        p = P_LOTTERY
        offsets = []
        times = []
        for j in range(0, grid.nt + 1, max(1, grid.nt // 40)):
            t = grid.time_at(j)
            if t > grid.t_final - 5.0:
                break
            eta = _front(_payoff(sol, grid, j, p), grid.x, p.i_crit)
            # w increases in x: locate its level 1/2 on -w.
            half = _front(-sol.w_field.values[j], grid.x, -0.5)
            offsets.append(half - eta)
            times.append(t)
        offsets = np.array(offsets)
        times = np.array(times)
        l_fit = float(np.max(offsets))
        # with the offset fixed at its fitted value, w is at least 1/2 there
        for j, t in ((int(round(t / grid.dt)), t) for t in times):
            eta = _front(_payoff(sol, grid, j, p), grid.x, p.i_crit)
            xq = min(eta + l_fit, grid.x_max)
            w_at = np.interp(xq, grid.x, sol.w_field.values[j])
            assert w_at >= 0.5 - 1e-9
        # and the fitted offset does not grow over the final half
        mid = times[0] + 0.5 * (times[-1] - times[0])
        assert np.max(offsets[times >= mid]) <= np.max(offsets[times < mid]) + 0.5

    def test_damping_independent_fixed_point(self):
        grid = _nash_grid(40.0)
        F0 = _ramp(grid)
        cfg_a = MfgConfig(theta=0.5, tol=1e-7, max_iter=80)
        cfg_b = MfgConfig(theta=0.25, tol=1e-7, max_iter=80)
        wT = TerminalCondition(kind="logistic", center=50.0, slope=1.0)
        sol_a = solve_nash(F0, wT, P_LOTTERY, grid, cfg_a)
        sol_b = solve_nash(F0, wT, P_LOTTERY, grid, cfg_b)
        assert sol_a.converged and sol_b.converged
        assert np.max(np.abs(sol_a.strategy_field.values - sol_b.strategy_field.values)) <= 1e-5

    def test_default_config_within_tol_of_tight_fixed_point(self, small_nash):
        grid, sol = small_nash
        ref = solve_nash(_ramp(grid), None, P_LOTTERY, grid, MfgConfig(tol=1e-11))
        assert ref.converged
        gap = np.max(np.abs(sol.strategy_field.values - ref.strategy_field.values))
        assert gap <= MfgConfig().tol

    def test_damping_halves_exactly_when_residual_rises(self):
        # Balanced regime (alpha1 > kappa): the undamped first step overshoots,
        # so the second residual exceeds the first.
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=8.0, k=0.5)
        grid = Grid1D(-20.0, 76.0, 385, 0.0, 4.0, 320)
        cfg = MfgConfig()
        sol = solve_nash(_ramp(grid), None, p, grid, cfg)
        assert sol.converged
        res, thetas = sol.residuals, sol.thetas
        assert len(thetas) == len(res) and thetas[0] == cfg.theta
        rose = [b > a for a, b in zip(res, res[1:])]
        assert any(rose)
        for up, before, after in zip(rose, thetas, thetas[1:]):
            assert after == (before / 2 if up else before)

    def test_nonconvergence_is_flagged_not_raised(self):
        grid = _nash_grid(5.0)
        sol = solve_nash(_ramp(grid), None, P_LOTTERY, grid,
                         MfgConfig(theta=0.5, tol=1e-14, max_iter=2))
        assert not sol.converged
        assert sol.iterations == 2
        assert len(sol.residuals) == 2

    def test_config_validation(self):
        with pytest.raises(DomainError):
            MfgConfig(theta=0.0)
        with pytest.raises(DomainError):
            MfgConfig(tol=-1.0)
        with pytest.raises(DomainError):
            MfgConfig(max_iter=0)
        for bad in ({"theta": True}, {"tol": True}, {"tol": "1e-6"}, {"max_iter": 2.5}):
            with pytest.raises(DomainError):
                MfgConfig(**bad)

    def test_general_exponent_equilibrium(self):
        # The power family extends beyond the square root; the equilibrium
        # structure must survive k = 3/4 (allocation exponent 4).
        p = ModelParams(kappa=1.0, rho=2.5, alpha1=0.4, k=0.75)
        grid = _nash_grid(10.0, dx=0.1, dt=0.05)
        sol = solve_nash(_ramp(grid), None, p, grid, MfgConfig())
        assert sol.converged
        bres = best_response(sol.F_field.values, sol.w_field.values, grid.dx, p)
        assert np.max(np.abs(bres - sol.strategy_field.values)) <= 1e-6
        assert np.max(np.diff(sol.strategy_field.values, axis=1)) <= 1e-9
        payoff = _payoff(sol, grid, grid.nt // 2, p)
        s = _s_m(payoff, p)
        assert np.all(s[payoff >= p.i_crit] == 1.0)
        assert np.all(s[payoff < p.i_crit] < 1.0)


# (params, grid, config, where iteration 1's running residual first exceeds tol)
_LOTTERY_5 = (P_LOTTERY, _nash_grid(5.0))
_EQUIVALENCE_CASES = {
    "first-slice-passes": (*_LOTTERY_5, MfgConfig(tol=1e-2), "terminal"),
    "passes-partway": (*_LOTTERY_5, MfgConfig(tol=0.06), "partway"),
    "converged": (*_LOTTERY_5, MfgConfig(tol=1e-9), None),
    "max_iter=1": (*_LOTTERY_5, MfgConfig(tol=1e-14, max_iter=1), None),
    "max_iter=2": (*_LOTTERY_5, MfgConfig(tol=1e-14, max_iter=2), None),
    # test_damping_halves_exactly_when_residual_rises's setup
    "theta-halved": (ModelParams(kappa=1.0, rho=2.0, alpha1=8.0, k=0.5),
                     Grid1D(-20.0, 76.0, 385, 0.0, 4.0, 320), MfgConfig(), None),
}


class TestThreeFieldLoop:
    """solve_nash keeps the best response in w's rows yet matches the four-field loop."""

    @pytest.mark.parametrize("case", list(_EQUIVALENCE_CASES))
    def test_equals_four_field_reference(self, case, monkeypatch):
        p, grid, cfg, where = _EQUIVALENCE_CASES[case]
        F0 = _ramp(grid)
        ref, passes = _four_field_nash(F0, p, grid, cfg)
        if where == "terminal":
            assert passes[0] == grid.nt
        elif where == "partway":
            assert 0 < passes[0] < grid.nt
        if case == "converged" or case == "theta-halved":
            assert ref.converged
        if case.startswith("max_iter"):
            assert not ref.converged and ref.iterations == cfg.max_iter
        if case == "theta-halved":
            assert ref.thetas[-1] < ref.thetas[0]

        calls = {"best_response": 0, "backward_slices": 0, "forward_sweeps": 0}

        def counted_best_response(*args):
            calls["best_response"] += 1
            return _best_response(*args)

        def counted_iter_backward(*args):
            for item in iter_backward(*args):
                calls["backward_slices"] += 1
                yield item

        def counted_iter_forward(*args):
            calls["forward_sweeps"] += 1
            return iter_forward(*args)

        monkeypatch.setattr(kdlab.mfg, "_best_response", counted_best_response)
        monkeypatch.setattr(kdlab.mfg, "iter_forward", counted_iter_forward)
        monkeypatch.setattr(kdlab.mfg, "iter_backward", counted_iter_backward)
        sol = solve_nash(F0, None, p, grid, cfg)

        assert np.array_equal(sol.F_field.values, ref.F_field.values)
        assert np.array_equal(sol.w_field.values, ref.w_field.values)
        assert np.array_equal(sol.strategy_field.values, ref.strategy_field.values)
        assert sol.residuals == ref.residuals
        assert sol.thetas == ref.thetas
        assert (sol.converged, sol.iterations) == (ref.converged, ref.iterations)
        # No extra sweep: the warm start is iteration 1's forward sweep.  The
        # only extra best responses are those of the rows swept before the
        # switch in each iteration a damped step follows.
        damped = sol.iterations - (1 if sol.converged or sol.iterations == cfg.max_iter else 0)
        assert calls["forward_sweeps"] == 1 + damped
        assert calls["backward_slices"] == sol.iterations * (grid.nt + 1)
        assert calls["best_response"] == sol.iterations * (grid.nt + 1) + sum(
            grid.nt - passes[i] for i in range(damped))
