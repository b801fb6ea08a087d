"""Model primitives: search function, optimal allocation, pay-off integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdlab import model
from kdlab.errors import DomainError, GridMismatchError, NonFiniteError
from kdlab.forward import INTRINSIC, RANK_LOCAL, iter_forward
from kdlab.grid import Grid1D, Profile, SpaceTimeField
from kdlab.mfg import MfgConfig, solve_nash
from kdlab.model import (
    ModelParams,
    TheoryPredictions,
    alpha,
    alpha_of_sm,
    intrinsic_J,
    payoff_I,
    q_integral,
    s_m,
)
from kdlab.particles import ParticleState, StrategyRule, step_particles

from conftest import monotone_pair, space_grid

P_HALF = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5, k=0.5)

params_st = st.builds(
    ModelParams,
    kappa=st.floats(0.1, 3.0),
    rho=st.floats(3.5, 8.0),
    alpha1=st.floats(0.05, 4.0),
    k=st.floats(0.5, 0.95),
)


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ModelParams(kappa=1.0, rho=0.5, alpha1=1.0)  # rho <= kappa
        with pytest.raises(DomainError):
            ModelParams(kappa=0.0, rho=1.0, alpha1=1.0)
        with pytest.raises(DomainError):
            ModelParams(kappa=1.0, rho=2.0, alpha1=-0.1)
        with pytest.raises(DomainError):
            ModelParams(kappa=1.0, rho=2.0, alpha1=1.0, k=0.3)
        with pytest.raises(DomainError):
            ModelParams(kappa=1.0, rho=2.0, alpha1=1.0, k=1.0)
        for bad in (True, "1", float("nan")):  # booleans and strings are not numbers
            with pytest.raises(DomainError):
                ModelParams(kappa=bad, rho=2.0, alpha1=1.0)
            with pytest.raises(DomainError):
                ModelParams(kappa=1.0, rho=2.0, alpha1=bad)

    def test_degenerate_alpha1_allowed(self):
        # Pure-diffusion oracle runs need alpha1 = 0.
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.0)
        assert p.i_crit == math.inf

    @given(params_st)
    def test_predictions(self, p):
        th = TheoryPredictions.from_params(p)
        assert th.c_star**2 == pytest.approx(4.0 * p.kappa * p.alpha1, rel=1e-12)
        assert th.v_star == p.kappa + p.alpha1
        assert th.i_crit == pytest.approx(1.0 / (p.k * p.alpha1))
        assert (th.regime == "lottery") == (th.lambda_star < 1.0) == (p.alpha1 < p.kappa)


class TestAlpha:
    def test_examples(self):
        assert alpha(0.0, P_HALF) == 0.0
        assert alpha(1.0, P_HALF) == pytest.approx(0.5)
        p2 = ModelParams(kappa=1.0, rho=2.0, alpha1=2.0, k=0.5)
        assert alpha(0.25, p2) == pytest.approx(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha(-0.01, P_HALF)
        with pytest.raises(DomainError):
            alpha(1.01, P_HALF)

    @given(params_st, st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
    def test_increasing_and_concave(self, p, s1, s2):
        lo, hi = sorted((s1, s2))
        assert alpha(lo, p) <= alpha(hi, p) * (1 + 1e-12)
        mid = 0.5 * (lo + hi)
        chord = 0.5 * (alpha(lo, p) + alpha(hi, p))
        assert alpha(mid, p) >= chord - 1e-12 * max(1.0, chord)


class TestOptimalAllocation:
    def test_examples(self):
        # i_crit = 2/alpha1 = 4 for k = 1/2, alpha1 = 0.5
        assert s_m(0.0, P_HALF) == 0.0
        assert s_m(4.0, P_HALF) == 1.0
        assert s_m(2.0, P_HALF) == pytest.approx(0.25)
        assert s_m(8.0, P_HALF) == 1.0
        with pytest.raises(DomainError):
            s_m(-1.0, P_HALF)

    def test_threshold_continuity(self):
        ic = P_HALF.i_crit
        below = s_m(ic * (1 - 1e-12), P_HALF)
        assert below == pytest.approx(1.0, abs=1e-11)
        assert s_m(ic, P_HALF) == 1.0

    @given(params_st, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_monotone_and_lipschitz(self, p, u1, u2):
        span = 2.0 * p.i_crit
        i1, i2 = sorted((u1 * span, u2 * span))
        v1, v2 = s_m(i1, p), s_m(i2, p)
        assert v1 <= v2 + 1e-12
        lip = p.k * p.alpha1 / (1.0 - p.k)
        assert v2 - v1 <= lip * (i2 - i1) * (1 + 1e-9) + 1e-15

    @given(params_st, st.floats(1e-6, 20.0))
    def test_saturated_rate(self, p, payoff):
        a = alpha_of_sm(payoff, p)
        assert a <= p.alpha1 * (1 + 1e-12)
        assert a == pytest.approx(alpha(s_m(payoff, p), p), rel=1e-12)

    def test_saturated_rate_avoids_underflow(self):
        # Composing alpha with s_m underflows for tiny pay-offs; the direct
        # single-power evaluation keeps full precision.
        tiny = 1e-220
        assert alpha(s_m(tiny, P_HALF), P_HALF) == 0.0
        assert alpha_of_sm(tiny, P_HALF) == pytest.approx(0.5 * 0.25 * tiny, rel=1e-12)

    def test_saturated_rate_examples(self):
        assert alpha_of_sm(0.0, P_HALF) == 0.0
        assert alpha_of_sm(2.0, P_HALF) == pytest.approx(0.25)
        assert alpha_of_sm(6.0, P_HALF) == pytest.approx(0.5)

    @given(params_st, st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_saturated_rate_monotone(self, p, i1, i2):
        lo, hi = sorted((i1, i2))
        assert alpha_of_sm(lo, p) <= alpha_of_sm(hi, p) + 1e-12


class TestQIntegral:
    def test_examples(self):
        p1 = ModelParams(kappa=1.0, rho=2.0, alpha1=1.0, k=0.5)
        p3 = ModelParams(kappa=1.0, rho=2.0, alpha1=3.0, k=0.5)
        assert q_integral(0.0, p1) == 0.0
        assert q_integral(1.0, p1) == pytest.approx(2.0 / 3.0)
        assert q_integral(1.0, p3) == pytest.approx(2.0)
        with pytest.raises(DomainError):
            q_integral(1.5, p1)

    @given(params_st, st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_against_quadrature(self, p, u):
        import scipy.integrate

        ref, _ = scipy.integrate.quad(lambda s: alpha(s, p), 0.0, u)
        assert q_integral(u, p) == pytest.approx(ref, rel=1e-8, abs=1e-10)


class TestPayoff:
    def test_zero_inputs(self):
        g = space_grid(0.0, 5.0, 64)
        zero = Profile(g, np.zeros(g.nx))
        one = Profile(g, np.ones(g.nx))
        assert np.all(payoff_I(zero, one, P_HALF).values == 0.0)
        assert np.all(payoff_I(one, zero, P_HALF).values == 0.0)
        assert np.all(intrinsic_J(zero, P_HALF).values == 0.0)

    def test_exponential_closed_form(self):
        # integral of e^{y} e^{-2y} over [0, inf) is 1; tail beyond 40 is ~e^-40
        g = space_grid(0.0, 40.0, 4001)
        F = Profile(g, np.exp(-2.0 * g.x))
        w = Profile(g, np.ones(g.nx))
        I = payoff_I(F, w, P_HALF)
        assert I.values[0] == pytest.approx(1.0, abs=1e-3)
        J = intrinsic_J(F, P_HALF)
        assert J.values[0] == pytest.approx(1.0, abs=1e-3)

    def test_linear_integrand_is_exact(self):
        # The per-cell rule integrates e^y (a + b y) exactly.
        g = space_grid(0.0, 2.0, 101)
        a, b = 0.9, -0.4
        J = intrinsic_J(Profile(g, a + b * g.x), P_HALF)
        upper = g.x_max
        exact = np.exp(-g.x) * (
            np.exp(upper) * (a + b * upper)
            - np.exp(g.x) * (a + b * g.x)
            - b * (np.exp(upper) - np.exp(g.x))
        )
        assert np.max(np.abs(J.values[:-1] - exact[:-1]) / np.abs(exact[:-1])) < 1e-12

    def test_shared_kernel_bitwise(self):
        g = space_grid(-3.0, 6.0, 257)
        rng = np.random.default_rng(5)
        F, _ = monotone_pair(g, rng)
        ones = Profile(g, np.ones(g.nx))
        assert np.array_equal(payoff_I(F, ones, P_HALF).values,
                              intrinsic_J(F, P_HALF).values)

    def test_monotone_output(self):
        g = space_grid(-4.0, 8.0, 321)
        for seed in range(5):
            F, w = monotone_pair(g, np.random.default_rng(seed))
            I = payoff_I(F, w, P_HALF)
            assert np.all(I.values >= 0.0)
            assert np.max(np.diff(I.values)) <= 1e-12 * max(1.0, I.values[0])

    def test_intrinsic_dominates(self):
        g = space_grid(-4.0, 8.0, 321)
        for seed in range(5):
            F, w = monotone_pair(g, np.random.default_rng(seed))
            I = payoff_I(F, w, P_HALF).values
            J = intrinsic_J(F, P_HALF).values
            assert np.all(I <= J * (1 + 1e-12) + 1e-15)

    def test_recurrence_vs_direct_sum(self):
        # Brute-force oracle: per-node direct summation of the same
        # exponentially weighted cells, no recurrence.
        g = space_grid(-1.0, 3.0, 50)
        rng = np.random.default_rng(7)
        F, w = monotone_pair(g, rng)
        I = payoff_I(F, w, P_HALF).values
        h = g.dx
        em1 = math.expm1(h)
        wa = em1 / h - 1.0
        wb = 1.0 + em1 * (h - 1.0) / h
        gg = F.values * w.values
        direct = np.zeros(g.nx)
        for i in range(g.nx - 1):
            acc = 0.0
            for j in range(i, g.nx - 1):
                acc += math.exp(g.x[j] - g.x[i]) * (wa * gg[j] + wb * gg[j + 1])
            direct[i] = acc / P_HALF.rho_minus_kappa
        rel = np.abs(I - direct) / np.maximum(np.abs(direct), 1e-300)
        assert np.max(rel[:-1]) < 1e-10

    def test_errors(self):
        g = space_grid(0.0, 5.0, 64)
        g2 = space_grid(0.0, 5.0, 65)
        F = Profile(g, np.zeros(g.nx))
        with pytest.raises(GridMismatchError):
            payoff_I(F, Profile(g2, np.zeros(g2.nx)), P_HALF)
        with pytest.raises(DomainError):
            payoff_I(Profile(g, np.full(g.nx, 1.5)), F, P_HALF)
        bad = np.zeros(g.nx)
        bad[3] = np.nan
        with pytest.raises(NonFiniteError):
            Profile(g, bad)


class TestCheckedOnce:
    """The time loops run the checked functions a fixed number of times, not once per step."""

    CHECKED = ("alpha", "s_m", "alpha_of_sm", "q_integral")

    @staticmethod
    def grid(nt):
        return Grid1D(-20.0, 40.0, 301, 0.0, 2.0, nt)

    @staticmethod
    def ramp(g):
        return Profile(g, np.clip((2.0 - g.x) / 4.0, 0.0, 1.0))

    def sweep(self, kind, nt):
        g = self.grid(nt)
        if kind == "nash":
            solve_nash(self.ramp(g), None, P_HALF, g, MfgConfig(tol=1e-300, max_iter=2))
            return
        if kind.startswith("particles"):
            rule = StrategyRule(kind=kind.split("-", 1)[1], kernel_width=0.5)
            st = ParticleState(positions=np.random.default_rng(0).normal(size=200),
                               time=0.0, seed=3)
            for _ in range(nt):
                st = step_particles(st, rule, P_HALF, g.dt)
            return
        strategy = {"field": SpaceTimeField(g, np.full((nt + 1, g.nx), 0.5)),
                    "intrinsic": INTRINSIC, "rank-local": RANK_LOCAL}[kind]
        for _ in iter_forward(self.ramp(g), strategy, P_HALF, g):
            pass

    def counts(self, monkeypatch, kind, nt):
        calls = dict.fromkeys(self.CHECKED, 0)
        for name in self.CHECKED:
            real = getattr(model, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(model, name, counted)
        self.sweep(kind, nt)
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("kind", ["intrinsic", "rank-local", "field", "nash",
                                      "particles-rank", "particles-ratio",
                                      "particles-smoothed-rank"])
    def test_counts_do_not_grow_with_steps(self, monkeypatch, kind):
        assert self.counts(monkeypatch, kind, 10) == self.counts(monkeypatch, kind, 20)
