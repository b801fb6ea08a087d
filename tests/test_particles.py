"""Agent simulator: strategies, tau-leap stepping, RNG contracts, CDF."""

import math

import numpy as np
import pytest

from kdlab.errors import DomainError
from kdlab.grid import Grid1D
from kdlab.model import ModelParams, intrinsic_J
from kdlab.particles import (
    ParticleState,
    StrategyRule,
    empirical_cdf,
    eval_strategy,
    step_particles,
)

from conftest import space_grid

P = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5, k=0.5)


def state_at(positions, seed=1, **kw):
    return ParticleState(positions=np.asarray(positions, dtype=float), time=0.0,
                         seed=seed, **kw)


class TestEvalStrategy:
    def test_rank_examples(self):
        s = eval_strategy(state_at([3.0, 0.0, 1.0, 2.0]), StrategyRule(kind="rank"))
        # lowest searches full time; the leader is counted by itself
        assert s[1] == pytest.approx(1.0)
        assert s[0] == pytest.approx(0.25)
        assert s.tolist() == pytest.approx([0.25, 1.0, 0.75, 0.5])

    def test_rank_collocated(self):
        s = eval_strategy(state_at([2.0, 2.0, 2.0]), StrategyRule(kind="rank"))
        assert np.all(s == 1.0)

    def test_ratio_two_agents(self):
        # productivities 1 and 3 (log 0 and log 3)
        s = eval_strategy(state_at([0.0, math.log(3.0)]), StrategyRule(kind="ratio"))
        assert s[0] == pytest.approx(1.0)  # min(1, (3-1)/2) = 1
        assert s[1] == pytest.approx(0.0)

    def test_ratio_matches_double_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.normal(0.0, 1.5, size=60)
            s = eval_strategy(state_at(x), StrategyRule(kind="ratio"))
            z = np.exp(x)
            brute = np.array([
                min(1.0, np.sum(z[z >= z[k]] / z[k] - 1.0) / x.size)
                for k in range(x.size)
            ])
            assert s == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_ratio_huge_gap_saturates(self):
        s = eval_strategy(state_at([0.0, 800.0]), StrategyRule(kind="ratio"))
        assert s[0] == 1.0 and s[1] == 0.0

    def test_smoothed_rank(self):
        x = np.array([0.0, 0.4, 5.0])
        s = eval_strategy(state_at(x), StrategyRule(kind="smoothed-rank", kernel_width=1.0))
        # agent 0 sees agent 2 fully (gap > width) and agent 1 partially
        ramp = 0.4**2 * (3 - 2 * 0.4)
        assert s[0] == pytest.approx((1.0 + ramp) / 3.0)
        assert s[2] == pytest.approx(0.0)
        assert np.all((0.0 <= s) & (s <= 1.0))

    def test_rule_validation(self):
        with pytest.raises(DomainError):
            StrategyRule(kind="mystery")
        with pytest.raises(DomainError):
            StrategyRule(kind="smoothed-rank")
        with pytest.raises(DomainError):
            StrategyRule(kind="smoothed-rank", kernel_width=True)


class TestStepParticles:
    def test_collocated_no_kicks_without_diffusion(self):
        # kappa must stay positive, so "no innovation" is a negligible kappa:
        # any jump would move an agent by O(1), far above the noise floor.
        p0 = ModelParams(kappa=1e-300, rho=1.0, alpha1=4.0, k=0.5)
        st = state_at(np.zeros(50))
        out = step_particles(st, StrategyRule(kind="rank"), p0, dt=0.02)
        assert np.max(np.abs(out.positions - st.positions)) < 1e-140
        assert out.step_index == 1

    def test_dt_cap(self):
        st = state_at([0.0, 1.0])
        with pytest.raises(DomainError):
            step_particles(st, StrategyRule(kind="rank"), P, dt=0.3)

    def test_innovation_variance(self):
        # alpha1 = 0: increments are pure innovation, variance 2*kappa*dt.
        p0 = ModelParams(kappa=1.0, rho=2.0, alpha1=0.0)
        n = 100_000
        st = state_at(np.zeros(n), seed=77)
        out = step_particles(st, StrategyRule(kind="rank"), p0, dt=0.01)
        incr = out.positions - st.positions
        var = float(np.var(incr, ddof=1))
        target = 2.0 * p0.kappa * 0.01
        sigma = target * math.sqrt(2.0 / (n - 1))
        assert abs(var - target) <= 3.0 * sigma

    def test_two_agent_jump_probability(self):
        # The lower of two agents adopts the higher position with the
        # tau-leap firing probability; binomial check over many replicas.
        p0 = ModelParams(kappa=1e-300, rho=1.0, alpha1=5.0, k=0.5)
        dt = 0.02
        p_fire = 1.0 - math.exp(-p0.alpha1 * dt)  # lower agent has s = 1
        n_rep = 10_000
        hits = 0
        for rep in range(n_rep):
            st = state_at([0.0, 1.0], seed=1000 + rep)
            out = step_particles(st, StrategyRule(kind="rank"), p0, dt)
            assert abs(out.positions[1] - 1.0) < 1e-140  # leader never regresses
            if out.positions[0] > 0.5:
                hits += 1
        freq = hits / n_rep
        sigma = math.sqrt(p_fire * (1 - p_fire) / n_rep)
        assert abs(freq - p_fire) <= 3.0 * sigma

    def test_determinism(self):
        st = state_at(np.linspace(-1, 1, 100), seed=5)
        rule = StrategyRule(kind="rank")
        a = step_particles(step_particles(st, rule, P, 0.05), rule, P, 0.05)
        b = step_particles(step_particles(st, rule, P, 0.05), rule, P, 0.05)
        assert np.array_equal(a.positions, b.positions)
        c = step_particles(state_at(np.linspace(-1, 1, 100), seed=6), rule, P, 0.05)
        assert not np.array_equal(c.positions,
                                  step_particles(st, rule, P, 0.05).positions)

    def test_exchangeability(self):
        # Permuting agents together with their RNG sub-streams permutes the
        # outcome exactly.
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        perm = rng.permutation(40)
        rule = StrategyRule(kind="ratio")
        base = step_particles(state_at(x, seed=9), rule, P, 0.05)
        permuted = step_particles(
            ParticleState(positions=x[perm], time=0.0, seed=9,
                          stream_ids=np.arange(40)[perm]),
            rule, P, 0.05,
        )
        assert np.array_equal(permuted.positions, base.positions[perm])

    def test_jumps_never_lower_the_distribution(self):
        # Without innovation, a step can only move mass upward: the fraction
        # above any level is pathwise non-decreasing.
        p0 = ModelParams(kappa=1e-300, rho=1.0, alpha1=2.0, k=0.5)
        g = space_grid(-4.0, 4.0, 161)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            st = state_at(rng.normal(size=400), seed=seed)
            before = empirical_cdf(st, g).profile.values
            out = step_particles(st, StrategyRule(kind="rank"), p0, dt=0.05)
            after = empirical_cdf(out, g).profile.values
            assert np.all(after >= before - 1e-15)


class TestEmpiricalCdf:
    def test_counts(self):
        g = Grid1D(-1.0, 3.0, 9, 0.0, 0.0, 0)  # nodes at -1, -0.5, ..., 3
        st = state_at([0.0, 1.0, 2.0])
        est = empirical_cdf(st, g)
        vals = est.profile.values
        assert vals[np.argmin(np.abs(g.x - 0.5))] == pytest.approx(2.0 / 3.0)
        assert vals[0] == 1.0  # below all particles
        assert vals[-1] == 0.0  # above all particles
        assert est.n_below == 0 and est.n_above == 0
        assert np.all(np.diff(vals) <= 0.0)

    def test_outside_flagged(self):
        g = space_grid(0.0, 1.0, 9)
        st = state_at([-5.0, 0.5, 7.0, 8.0])
        est = empirical_cdf(st, g)
        assert est.n_below == 1 and est.n_above == 2

    def test_ratio_strategy_matches_intrinsic_payoff(self):
        # The ratio sums equal the distribution-only pay-off of the empirical
        # CDF, up to quadrature error on the grid.
        rho_minus_kappa = P.rho_minus_kappa
        dx = 0.002
        rng = np.random.default_rng(123)
        for trial in range(20):
            n = 200
            x = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=n)
            lo, hi = x.min() - 0.5, x.max() + dx
            nx = int(round((hi - lo) / dx)) + 1
            g = Grid1D(lo, lo + (nx - 1) * dx, nx, 0.0, 0.0, 0)
            st = state_at(x, seed=trial)
            est = empirical_cdf(st, g)
            J = intrinsic_J(est.profile, P).values
            # direct double-sum oracle at every node
            direct = np.array([
                np.sum(np.exp(x[x > xq] - xq) - 1.0) / n for xq in g.x
            ])
            scale = np.maximum(direct, 1e-3)
            rel = np.abs(rho_minus_kappa * J - direct) / scale
            assert np.max(rel) < 5.0 * dx + 1e-6
