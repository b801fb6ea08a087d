"""Model primitives: search function, optimal allocation, pay-off integrals."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import kdlab
from kdlab import grid, model
from kdlab.errors import DomainError
from kdlab.forward import INTRINSIC, RANK_LOCAL, iter_forward
from kdlab.grid import Grid1D, Profile, SpaceTimeField
from kdlab.mfg import MfgConfig, solve_nash
from kdlab.model import (
    ModelParams,
    TheoryPredictions,
    _alpha,
    _q_integral,
    _s_m,
    discounted_tail,
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
        assert th.median_speed**2 == pytest.approx(4.0 * p.kappa * p.alpha1, rel=1e-12)
        assert th.learning_speed == p.kappa + p.alpha1
        assert th.search_threshold == pytest.approx(1.0 / (p.k * p.alpha1))
        assert (th.regime == "lottery") == (th.decay_rate < 1.0) == (p.alpha1 < p.kappa)


class TestAlpha:
    def test_examples(self):
        assert _alpha(0.0, P_HALF) == 0.0
        assert _alpha(1.0, P_HALF) == pytest.approx(0.5)
        p2 = ModelParams(kappa=1.0, rho=2.0, alpha1=2.0, k=0.5)
        assert _alpha(0.25, p2) == pytest.approx(1.0)

    @given(params_st, st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
    def test_increasing_and_concave(self, p, s1, s2):
        lo, hi = sorted((s1, s2))
        assert _alpha(lo, p) <= _alpha(hi, p) * (1 + 1e-12)
        mid = 0.5 * (lo + hi)
        chord = 0.5 * (_alpha(lo, p) + _alpha(hi, p))
        assert _alpha(mid, p) >= chord - 1e-12 * max(1.0, chord)


class TestOptimalAllocation:
    def test_examples(self):
        # i_crit = 2/alpha1 = 4 for k = 1/2, alpha1 = 0.5
        assert _s_m(0.0, P_HALF) == 0.0
        assert _s_m(4.0, P_HALF) == 1.0
        assert _s_m(2.0, P_HALF) == pytest.approx(0.25)
        assert _s_m(8.0, P_HALF) == 1.0

    def test_threshold_continuity(self):
        ic = P_HALF.i_crit
        below = _s_m(ic * (1 - 1e-12), P_HALF)
        assert below == pytest.approx(1.0, abs=1e-11)
        assert _s_m(ic, P_HALF) == 1.0

    @given(params_st, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_monotone_and_lipschitz(self, p, u1, u2):
        span = 2.0 * p.i_crit
        i1, i2 = sorted((u1 * span, u2 * span))
        v1, v2 = _s_m(i1, p), _s_m(i2, p)
        assert v1 <= v2 + 1e-12
        lip = p.k * p.alpha1 / (1.0 - p.k)
        assert v2 - v1 <= lip * (i2 - i1) * (1 + 1e-9) + 1e-15

    @given(params_st, st.floats(1e-6, 20.0))
    def test_saturated_rate(self, p, payoff):
        # The search rate at the optimal allocation is capped at alpha1 and
        # has the closed form alpha1 * (k*alpha1*payoff)**(k/(1-k)) below it.
        a = _alpha(_s_m(payoff, p), p)
        assert a <= p.alpha1 * (1 + 1e-12)
        closed = min(p.alpha1, p.alpha1 * (p.k * p.alpha1 * payoff) ** (p.k / (1.0 - p.k)))
        assert a == pytest.approx(closed, rel=1e-12)

    def test_saturated_rate_examples(self):
        def rate(payoff):
            return _alpha(_s_m(payoff, P_HALF), P_HALF)

        assert rate(0.0) == 0.0
        assert rate(2.0) == pytest.approx(0.25)
        assert rate(6.0) == pytest.approx(0.5)

    @given(params_st, st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_saturated_rate_monotone(self, p, i1, i2):
        lo, hi = sorted((i1, i2))
        assert _alpha(_s_m(lo, p), p) <= _alpha(_s_m(hi, p), p) + 1e-12


class TestQIntegral:
    def test_examples(self):
        p1 = ModelParams(kappa=1.0, rho=2.0, alpha1=1.0, k=0.5)
        p3 = ModelParams(kappa=1.0, rho=2.0, alpha1=3.0, k=0.5)
        assert _q_integral(0.0, p1) == 0.0
        assert _q_integral(1.0, p1) == pytest.approx(2.0 / 3.0)
        assert _q_integral(1.0, p3) == pytest.approx(2.0)

    @given(params_st, st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_against_quadrature(self, p, u):
        ref, _ = scipy.integrate.quad(lambda s: _alpha(s, p), 0.0, u)
        assert _q_integral(u, p) == pytest.approx(ref, rel=1e-8, abs=1e-10)


def _tail(g, v):
    """The pay-off of integrand v on g: F*w gives the learning pay-off I, F the intrinsic J."""
    return discounted_tail(v, g.dx, P_HALF.rho_minus_kappa)


class TestPayoff:
    def test_zero_inputs(self):
        g = space_grid(0.0, 5.0, 64)
        assert np.all(_tail(g, np.zeros(g.nx)) == 0.0)

    def test_exponential_closed_form(self):
        # integral of e^{y} e^{-2y} over [0, inf) is 1; tail beyond 40 is ~e^-40
        g = space_grid(0.0, 40.0, 4001)
        assert _tail(g, np.exp(-2.0 * g.x))[0] == pytest.approx(1.0, abs=1e-3)

    def test_linear_integrand_is_exact(self):
        # The per-cell rule integrates e^y (a + b y) exactly.
        g = space_grid(0.0, 2.0, 101)
        a, b = 0.9, -0.4
        J = _tail(g, a + b * g.x)
        upper = g.x_max
        exact = np.exp(-g.x) * (
            np.exp(upper) * (a + b * upper)
            - np.exp(g.x) * (a + b * g.x)
            - b * (np.exp(upper) - np.exp(g.x))
        )
        assert np.max(np.abs(J[:-1] - exact[:-1]) / np.abs(exact[:-1])) < 1e-12

    def test_shared_kernel_bitwise(self):
        # With w = 1 the learning pay-off is the intrinsic one, bit for bit.
        g = space_grid(-3.0, 6.0, 257)
        rng = np.random.default_rng(5)
        F, _ = monotone_pair(g, rng)
        assert np.array_equal(_tail(g, F.values * np.ones(g.nx)), _tail(g, F.values))

    def test_monotone_output(self):
        g = space_grid(-4.0, 8.0, 321)
        for seed in range(5):
            F, w = monotone_pair(g, np.random.default_rng(seed))
            I = _tail(g, F.values * w.values)
            assert np.all(I >= 0.0)
            assert np.max(np.diff(I)) <= 1e-12 * max(1.0, I[0])

    def test_intrinsic_dominates(self):
        g = space_grid(-4.0, 8.0, 321)
        for seed in range(5):
            F, w = monotone_pair(g, np.random.default_rng(seed))
            I = _tail(g, F.values * w.values)
            J = _tail(g, F.values)
            assert np.all(I <= J * (1 + 1e-12) + 1e-15)

    def test_recurrence_vs_direct_sum(self):
        # Brute-force oracle: per-node direct summation of the same
        # exponentially weighted cells, no recurrence.
        g = space_grid(-1.0, 3.0, 50)
        rng = np.random.default_rng(7)
        F, w = monotone_pair(g, rng)
        I = _tail(g, F.values * w.values)
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


def _longdouble_tail(g, dx, rho_minus_kappa):
    """Right-to-left recurrence I[i] = e^{dx} I[i+1] + cell[i], in long double."""
    ld = np.longdouble
    wa, wb = (ld(w) for w in model._cell_weights(dx))
    cells = (wa * g[:-1].astype(ld) + wb * g[1:].astype(ld)) / ld(rho_minus_kappa)
    grow = np.exp(ld(dx))
    out = np.zeros(g.size, dtype=ld)
    for i in range(g.size - 2, -1, -1):
        out[i] = grow * out[i + 1] + cells[i]
    return out


class TestBlockedTail:
    """discounted_tail's blocked scaled suffix sums against a long-double recurrence."""

    @staticmethod
    def lottery_intrinsic():
        # The lottery-intrinsic grid (nx 6001, dx 0.05) and a front-like F: one block.
        g = space_grid(-20.0, 280.0, 6001)
        return g, 1.0 / (1.0 + np.exp(1.3 * (g.x - 60.0)))

    @staticmethod
    def long_domain():
        # 1000 e-folds: two blocks of at most SPAN e-folds, joined by the carry.
        g = space_grid(0.0, 1000.0, 20001)
        return g, np.exp(-0.7 * g.x)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the reference needs a long double wider than double")
    @pytest.mark.parametrize("case", ["lottery_intrinsic", "long_domain"])
    def test_against_long_double_recurrence(self, case):
        g, v = getattr(self, case)()
        ref = _longdouble_tail(v, g.dx, P_HALF.rho_minus_kappa)
        rel = np.abs(_tail(g, v)[:-1] - ref[:-1]) / ref[:-1]
        assert float(np.max(rel)) <= 1e-13

    def test_long_domain_takes_the_carry(self):
        g, _ = self.long_domain()
        assert (g.nx - 1) * g.dx > model.SPAN

    @pytest.mark.parametrize("case", ["lottery_intrinsic", "long_domain"])
    def test_rows_equal_single_calls_bitwise(self, case):
        g, v = getattr(self, case)()
        rows = np.stack([v, 0.5 * v, np.sqrt(v), np.zeros_like(v)])
        field = _tail(g, rows)
        for row, one in zip(field, rows):
            assert np.array_equal(row, _tail(g, one))

    @pytest.mark.parametrize("case", ["lottery_intrinsic", "long_domain"])
    def test_last_node_is_zero(self, case):
        g, v = getattr(self, case)()
        assert _tail(g, v)[-1] == 0.0
        assert np.all(_tail(g, np.stack([v, v]))[:, -1] == 0.0)

    @pytest.mark.parametrize("dx", [0.0, math.nan, 1e3], ids=["zero", "nan", "past-span"])
    def test_dx_outside_the_cell_range_refused(self, dx):
        # Once a ZeroDivisionError (dx = 0) and an OverflowError (dx past
        # about 709) from the block scales.
        with pytest.raises(DomainError, match="dx"):
            discounted_tail(np.ones(8), dx, P_HALF.rho_minus_kappa)

    def test_smallest_grid(self):
        g = space_grid(0.0, 0.7, 8)
        v = np.linspace(1.0, 0.2, g.nx)
        out = _tail(g, v)
        ref = _longdouble_tail(v, g.dx, P_HALF.rho_minus_kappa)
        assert out.shape == (8,) and out[-1] == 0.0
        assert np.max(np.abs(out[:-1] - ref[:-1]) / ref[:-1]) <= 1e-13


class TestImport:
    def test_import_loads_no_heavy_scipy_module(self):
        # Importing kdlab loads scipy's top-level package and its compiled
        # LAPACK module, scipy.linalg._flapack, and no subpackage: scipy.linalg
        # alone costs about 0.2 s and 25 MB of set-up per process, the others
        # about a second and 47 MB.
        src = Path(kdlab.__file__).resolve().parents[1]
        heavy = ("scipy.linalg", "scipy.signal", "scipy.stats", "scipy.interpolate",
                 "scipy.optimize")
        code = f"import sys, kdlab; print([m for m in {heavy!r} if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
        assert out.stdout.strip() == "[]"

class TestCheckedOnce:
    """The sweeps run the input checks a fixed number of times, not once per step."""

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
            rule = StrategyRule(kind=kind.split("-", 1)[1])
            st = ParticleState(positions=np.random.default_rng(0).normal(size=200), seed=3)
            for _ in range(nt):
                st = step_particles(st, rule, P_HALF, g.dt)
            return
        strategy = {"field": SpaceTimeField(g, np.full((nt + 1, g.nx), 0.5)),
                    "intrinsic": INTRINSIC, "rank-local": RANK_LOCAL}[kind]
        for _ in iter_forward(self.ramp(g), strategy, P_HALF, g):
            pass

    def counts(self, monkeypatch, kind, nt):
        """Calls of each input check during one sweep of nt steps."""
        calls = {}

        def count(owner, name, key):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            calls[key] = 0
            monkeypatch.setattr(owner, name, counted)

        # check_numbers is called through the name each module imports.
        for mod in [m for k, m in sys.modules.items() if k.startswith("kdlab")]:
            if getattr(mod, "check_numbers", None) is grid.check_numbers:
                count(mod, "check_numbers", "check_numbers")
        count(model, "_check_payoff", "_check_payoff")
        for cls in (Profile, SpaceTimeField):
            count(cls, "__init__", cls.__name__)
        count(ParticleState, "__post_init__", "ParticleState")
        self.sweep(kind, nt)
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("kind", ["intrinsic", "rank-local", "field", "nash",
                                      "particles-rank", "particles-ratio"])
    def test_counts_do_not_grow_with_steps(self, monkeypatch, kind):
        short = self.counts(monkeypatch, kind, 10)
        assert any(short.values())
        assert short == self.counts(monkeypatch, kind, 20)
