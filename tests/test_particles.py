"""Agent simulator: strategies, tau-leap stepping, RNG contracts, CDF."""

import dataclasses
import functools
import hashlib
import inspect
import math
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kdlab
from kdlab import harness, model, particles
from kdlab.errors import DomainError, NonFiniteError, NumericalError
from kdlab.grid import Grid1D, Profile
from kdlab.model import ModelParams, discounted_tail
from kdlab.particles import (
    ParticleState,
    StrategyRule,
    empirical_cdf,
    eval_strategy,
    initial_state,
    iter_particles,
    step_particles,
)

from conftest import space_grid

P = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5, k=0.5)

#: Agent positions: small integers, so ties are heavy, with -0.0 beside 0.0;
#: or any finite floats.
positions_st = st.one_of(
    st.lists(st.one_of(st.integers(-3, 3).map(float), st.sampled_from([-0.0, 0.0])),
             min_size=2, max_size=300),
    st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=300),
)


def rank_reference(x):
    """The rank rule as one searchsorted of every agent into the sorted copy."""
    n = x.size
    return (n - np.searchsorted(np.sort(x), x, side="left")) / n


def ratio_reference(x):
    """The ratio rule with each tie's first sorted slot found by searchsorted."""
    order = np.argsort(x)
    srt = x[order]
    n = x.size
    suffix = np.cumsum(np.exp(srt - srt[-1])[::-1])[::-1]
    first = np.searchsorted(srt, srt, side="left")
    gap = srt[-1] - srt
    s_sorted = np.ones(n)
    safe = gap < math.log(n + 1.0) + 1.0
    s_sorted[safe] = np.clip(
        (np.exp(gap[safe]) * suffix[first[safe]] - (n - first[safe])) / n, 0.0, 1.0
    )
    out = np.empty(n)
    out[order] = s_sorted
    return out


def state_at(positions, seed=1, **kw):
    return ParticleState(positions=np.asarray(positions, dtype=float), seed=seed, **kw)


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

    @pytest.mark.parametrize("kind, reference",
                             [("rank", rank_reference), ("ratio", ratio_reference)],
                             ids=["rank", "ratio"])
    @given(positions=positions_st)
    @example(positions=[0.0, 1.0])
    @example(positions=[2.5, 2.5])
    @example(positions=[1.0] * 50)
    @example(positions=[-0.0, 0.0, -0.0, 1.0, 0.0, -1.0])
    def test_sorted_rules_equal_searchsorted(self, kind, reference, positions):
        x = np.array(positions)
        s = eval_strategy(state_at(x), StrategyRule(kind=kind))
        assert np.array_equal(s, reference(x))

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

    def test_ratio_near_tie_stays_in_unit_interval(self):
        # One agent a few ulps above 163 tied ones: the tied agents' sum of
        # exponentials rounds below their count, by 1.7e-16 of n before the clip.
        x = np.array([-4.094982039578388] + [-4.094982039578405] * 163)
        s = eval_strategy(state_at(x), StrategyRule(kind="ratio"))
        assert np.all((0.0 <= s) & (s <= 1.0))
        assert step_particles(state_at(x), StrategyRule(kind="ratio"), P, 0.05).step_index == 1

    def test_rule_validation(self):
        with pytest.raises(DomainError):
            StrategyRule(kind="mystery")
        with pytest.raises(DomainError):
            StrategyRule(kind="smoothed-rank")


class TestParticleState:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_positions_must_be_finite(self, bad):
        with pytest.raises(NonFiniteError):
            state_at([0.0, bad, 1.0])

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", -1, 2**63],
                             ids=["fraction", "float", "bool", "string", "negative", "too-big"])
    def test_seed_must_be_an_integer_in_range(self, seed):
        with pytest.raises(DomainError, match="seed"):
            ParticleState(positions=[0.0, 1.0], seed=seed)

    @pytest.mark.parametrize("step_index", [-1, 1.5, 2.0, None],
                             ids=["negative", "fraction", "float", "none"])
    def test_step_index_must_be_a_non_negative_integer(self, step_index):
        with pytest.raises(DomainError, match="step_index"):
            ParticleState(positions=[0.0, 1.0], seed=1, step_index=step_index)

    def test_state_is_positions_seed_and_step(self):
        # An agent's slot is its random stream, and the time of a step is the
        # grid's: the successor carries only new positions, the seed and the
        # next step index.
        assert [f.name for f in dataclasses.fields(ParticleState)] == [
            "positions", "seed", "step_index"]
        st = state_at(np.random.default_rng(6).normal(size=30), seed=4)
        out = step_particles(st, StrategyRule(kind="rank"), P, 0.05)
        assert vars(out).keys() == vars(st).keys()
        assert (out.seed, out.step_index) == (st.seed, 1)

    def test_initial_state_is_the_seeds_step_zero_stream(self):
        # The initial uniforms are Philox key [seed, 3]: purpose 3 at step 0.
        g = Grid1D(-4.0, 4.0, 33, 0.0, 0.0, 0)
        init = Profile(g, np.clip((2.0 - g.x) / 4.0, 0.0, 1.0))
        key = np.array([123, 3], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(500)
        st = initial_state(init, 500, 123)
        assert (st.seed, st.step_index) == (123, 0)
        assert np.array_equal(st.positions, np.interp(u, 1.0 - init.values, g.x))


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

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -0.1, -np.inf, "0.1", None])
    def test_dt_must_be_a_finite_non_negative_number(self, dt):
        with pytest.raises(DomainError, match="dt"):
            step_particles(state_at([0.0, 1.0]), StrategyRule(kind="rank"), P, dt=dt)

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


#: sha256 of the positions after 20 steps from the same start, recorded on the
#: code that drew every stream in line after the ranking: (rule, n, fresh).
TRAJECTORY_HASHES = [
    ("rank", 5000, "64b0729d46cfdff2afcdfbaf8a031616205fae42d189fc8bcbb3fb854ba5137c"),
    ("ratio", 5000, "3cfa7b9478fc2f2b35efa325f2125397084ca44490a238480cdd2feeda348b7e"),
]


class TestTrajectoryHashes:
    @pytest.mark.parametrize("kind, n, fresh", TRAJECTORY_HASHES,
                             ids=[row[0] for row in TRAJECTORY_HASHES])
    def test_twenty_steps_are_bit_identical(self, kind, n, fresh):
        rule = StrategyRule(kind=kind)
        st = state_at(np.random.default_rng(2024).normal(size=n), seed=11)
        for _ in range(20):
            st = step_particles(st, rule, P, 0.05)
        assert hashlib.sha256(st.positions.tobytes()).hexdigest() == fresh


class Boom(Exception):
    pass


class TestDrawWorker:
    """Where a step draws its Philox streams: in line for a bare step."""

    def test_bare_step_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"a bare step started {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        st = state_at(np.random.default_rng(6).normal(size=300), seed=5)
        for kind in ("rank", "ratio"):
            assert step_particles(st, StrategyRule(kind=kind), P, 0.05).step_index == 1

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def fail(*args):
            raise Boom("stream")

        monkeypatch.setattr(particles, "_stream", fail)
        before = threading.active_count()
        with pytest.raises(Boom, match="stream"):
            step_particles(state_at(np.linspace(-1, 1, 50)), StrategyRule(kind="rank"), P, 0.05)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_step(self):
        before = threading.active_count()
        st = state_at(np.random.default_rng(4).normal(size=1000), seed=2)
        for _ in range(50):
            st = step_particles(st, StrategyRule(kind="rank"), P, 0.05)
        assert threading.active_count() == before

    def test_import_starts_no_thread(self):
        src = Path(kdlab.__file__).resolve().parents[1]
        code = "import threading, kdlab; print(threading.active_count())"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
        assert out.stdout.strip() == "1"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_step_in_a_forked_child_finishes(self):
        rule = StrategyRule(kind="rank")
        st = step_particles(state_at(np.linspace(-1, 1, 500), seed=3), rule, P, 0.05)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if step_particles(st, rule, P, 0.05).step_index == 2 else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("a step in a forked child did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("kind", ["rank", "ratio"])
    def test_public_calls_stay_on_the_calling_thread(self, monkeypatch, kind):
        # A single-stack tracer wraps the public functions, so none of them
        # may run on the worker.
        calls = []

        def recording(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        for mod in (particles, model):
            for name, fn in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    monkeypatch.setattr(mod, name, recording(fn))
        st = state_at(np.random.default_rng(5).normal(size=200), seed=4)
        for _ in range(5):
            st = particles.step_particles(st, StrategyRule(kind=kind), P, 0.05)
        assert "step_particles" in {name for name, _ in calls}
        assert {ident for _, ident in calls} == {threading.get_ident()}


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
            J = discounted_tail(est.profile.values, g.dx, rho_minus_kappa)
            # direct double-sum oracle at every node
            direct = np.array([
                np.sum(np.exp(x[x > xq] - xq) - 1.0) / n for xq in g.x
            ])
            scale = np.maximum(direct, 1e-3)
            rel = np.abs(rho_minus_kappa * J - direct) / scale
            assert np.max(rel) < 5.0 * dx + 1e-6


def sweep_grid(nt, dt=0.05):
    return Grid1D(-4.0, 4.0, 33, 0.0, nt * dt, nt)


def tied_state(seed=3, step_index=0):
    x = np.random.default_rng(9).normal(size=300)
    x[:40] = x[40:80]  # ties
    return state_at(x, seed=seed, step_index=step_index)


#: Innovation too small to move an agent, so the ties of a state and those
#: its jumps make persist: every state of a sweep is tied.
STILL = dataclasses.replace(P, kappa=1e-300)

#: Starting states of a sweep: (state, params).  The innovation unties the
#: tied start after its first step; the untied start never ties.
SWEEP_STARTS = {
    "fresh": (tied_state(), P),
    "resumed": (tied_state(step_index=7), P),
    "untied": (state_at(np.random.default_rng(9).normal(size=300), seed=3), P),
    "tied": (tied_state(), STILL),
}


def edge_uniforms(thresholds, rng):
    """Fire uniforms at, or one ulp either side of, each agent's own threshold
    or another's, with some exactly 0; all in [0, 1)."""
    n = thresholds.size
    t = np.where(rng.random(n) < 0.5, thresholds, rng.permutation(thresholds))
    side = rng.integers(-1, 2, n)
    u = np.where(side < 0, np.nextafter(t, -1.0), np.where(side > 0, np.nextafter(t, 2.0), t))
    u[rng.random(n) < 0.05] = 0.0
    return np.clip(u, 0.0, np.nextafter(1.0, 0.0))


def assert_fires_below_thresholds(x, rule, p, dt, fire):
    """The workspace fires exactly the agents whose uniform in fire lies below
    their threshold from eval_strategy; return how many fire."""
    work = particles._Workspace(x.size, rule, p, dt)
    work.sort(x)
    got = work.fired(x, fire)
    thresholds = particles._fire_thresholds(eval_strategy(state_at(x), rule), p, dt)
    want = np.flatnonzero(fire < thresholds)
    assert np.array_equal(got, want)
    assert np.array_equal(work.sorted, np.sort(x))
    return want.size


class TestIterParticles:
    """The particle sweep: bare steps and CDF estimates, one sort, one worker."""

    @pytest.mark.parametrize("kind", ["rank", "ratio"])
    @pytest.mark.parametrize("start", SWEEP_STARTS)
    def test_equals_bare_steps_and_cdf(self, kind, start):
        bare, p = SWEEP_STARTS[start]
        rule, g = StrategyRule(kind=kind), sweep_grid(bare.step_index + 12)
        swept = list(iter_particles(bare, rule, p, g))
        assert [st.step_index for st, _ in swept] == list(range(bare.step_index, g.nt + 1))
        for st, est in swept:
            want = empirical_cdf(bare, g)
            assert np.array_equal(st.positions, bare.positions) and st.seed == bare.seed
            assert np.array_equal(est.profile.values, want.profile.values)
            assert (est.n_below, est.n_above) == (want.n_below, want.n_above)
            if bare.step_index < g.nt:
                bare = step_particles(bare, rule, p, g.dt)
        if start == "tied":
            assert particles._tie_starts(np.sort(bare.positions)) is not None

    @pytest.mark.parametrize("kind, start, calls", [
        ("rank", "untied", 1), ("rank", "fresh", 1), ("rank", "tied", 1),
        ("ratio", "untied", 12), ("ratio", "fresh", 12),
    ], ids=["rank-untied", "rank-tied-first", "rank-tied", "ratio-untied", "ratio-tied-first"])
    def test_rank_sweep_builds_its_table_once(self, monkeypatch, kind, start, calls):
        # A rank sweep tabulates the thresholds once, tied states or not; a
        # ratio sweep computes each state's from the rule's fractions.
        made = []
        fire_thresholds = particles._fire_thresholds
        monkeypatch.setattr(particles, "_fire_thresholds",
                            lambda *args: made.append(args) or fire_thresholds(*args))
        st, p = SWEEP_STARTS[start]
        assert len(list(iter_particles(st, StrategyRule(kind=kind), p, sweep_grid(12)))) == 13
        assert len(made) == calls

    @pytest.mark.parametrize("kind", ["rank", "ratio"])
    @pytest.mark.parametrize("start", ["untied", "fresh", "tied"])
    def test_workspace_thresholds_equal_the_strategys(self, kind, start):
        # The sweep and the bare step fire where the workspace says; the
        # public strategy computes its fractions apart from it, and an agent
        # fires when its uniform lies below its threshold.
        st, p = SWEEP_STARTS[start]
        rule, rng = StrategyRule(kind=kind), np.random.default_rng(12)
        want = particles._fire_thresholds(eval_strategy(st, rule), p, 0.05)
        for fire in (rng.random(st.n), edge_uniforms(want, rng)):
            assert_fires_below_thresholds(st.positions, rule, p, 0.05, fire)
        assert (particles._tie_starts(np.sort(st.positions)) is None) == (start == "untied")

    @pytest.mark.parametrize("kind", ["rank", "ratio"])
    @pytest.mark.parametrize("alpha1, dt", [(0.0, 0.05), (0.5, 0.0)], ids=["alpha1-0", "dt-0"])
    def test_no_one_fires_without_a_rate(self, kind, alpha1, dt):
        st, p = tied_state(), dataclasses.replace(P, alpha1=alpha1)
        for fire in (np.zeros(st.n), np.random.default_rng(1).random(st.n)):
            assert assert_fires_below_thresholds(st.positions, StrategyRule(kind), p, dt, fire) == 0

    @pytest.mark.parametrize("start", ["untied", "tied"])
    def test_rank_uniforms_at_the_table_entries(self, start):
        # Every agent draws the same uniform: exactly 0, or at and one ulp
        # either side of the top threshold and of interior ones.  Untied, the
        # agents whose threshold exceeds table[r] are the r lowest.
        st, p = SWEEP_STARTS[start]
        table = particles._Workspace(st.n, StrategyRule(), p, 0.05).table[1:-1]
        assert np.all(np.diff(table) < 0.0)
        x, rule = st.positions, StrategyRule()
        assert assert_fires_below_thresholds(x, rule, p, 0.05, np.zeros(st.n)) == st.n
        for r in (0, 1, 37, st.n // 2, st.n - 2, st.n - 1):
            fired = [assert_fires_below_thresholds(x, rule, p, 0.05, np.full(st.n, u))
                     for u in (np.nextafter(table[r], 0.0), table[r], np.nextafter(table[r], 1.0))]
            if start == "untied":
                assert fired == [r + 1, r, r]

    @pytest.mark.parametrize("kind", ["rank", "ratio"])
    @pytest.mark.parametrize("positions", [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [-0.0, 0.0]])
    def test_two_agents(self, kind, positions):
        x, rule = np.array(positions), StrategyRule(kind)
        want = particles._fire_thresholds(eval_strategy(state_at(x), rule), P, 0.05)
        for fire in (np.zeros(2), want, np.nextafter(want, 0.0), np.nextafter(want, 1.0),
                     want[::-1], np.full(2, 0.5)):
            assert_fires_below_thresholds(x, rule, P, 0.05, fire)

    @pytest.mark.parametrize("kind", ["rank", "ratio"])
    @given(positions=positions_st, seed=st.integers(0, 2**32 - 1))
    @example(positions=[1.0] * 50, seed=0)
    @example(positions=[-0.0, 0.0, -0.0, 1.0, 0.0, -1.0], seed=0)
    @example(positions=[0.0, 5e-324, 1e-323, 1.0], seed=0)
    @example(positions=[np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)] * 7, seed=0)
    @example(positions=[-0.0, 0.0, 5e-324, -5e-324] * 20, seed=0)
    def test_fired_set_equals_the_threshold_comparison(self, kind, positions, seed):
        # Uniforms at the thresholds of tied and untied agents alike, and one
        # ulp either side of them.
        x, rule, rng = np.array(positions), StrategyRule(kind), np.random.default_rng(seed)
        want = particles._fire_thresholds(eval_strategy(state_at(x), rule), P, 0.05)
        assert_fires_below_thresholds(x, rule, P, 0.05, edge_uniforms(want, rng))

    @pytest.mark.parametrize("name", ["compare-particle-pde", "particles-ratio"])
    def test_rank_table_decreases_at_the_preset_sizes(self, name):
        cfg = harness.preset_config(name)
        work = particles._Workspace(cfg.particles.n, StrategyRule(), cfg.params, cfg.grid.dt)
        assert work.table.size == cfg.particles.n + 2
        assert work.table[0] == math.inf and work.table[-1] == -math.inf
        assert np.all(np.diff(work.table) <= 0.0)

    def test_increasing_rank_table_refused(self, monkeypatch):
        # The table is checked once, when the workspace is built; there is
        # no other path to fall back to.
        monkeypatch.setattr(particles, "_fire_thresholds", lambda rates, p, dt: rates.sort())
        with pytest.raises(NumericalError, match="increase"):
            particles._Workspace(10, StrategyRule(), P, 0.05)
        with pytest.raises(NumericalError, match="increase"):
            next(iter_particles(tied_state(), StrategyRule(), P, sweep_grid(3)))

    @pytest.mark.parametrize("start", [0, 7, 12, 15])
    def test_no_draw_at_or_past_the_last_step(self, monkeypatch, start):
        # Each step before grid.nt draws each of its streams once, the normals
        # drawn a step ahead included; no stream of a later step is drawn.
        stream, keys = particles._stream, []
        monkeypatch.setattr(particles, "_stream", lambda *key: keys.append(key) or stream(*key))
        st = tied_state(step_index=start)
        swept = list(iter_particles(st, StrategyRule(), P, sweep_grid(12)))
        assert len(swept) == max(0, 12 - start) + 1
        assert sorted((step, purpose) for _, step, purpose in keys) == [
            (step, purpose) for step in range(start, 12) for purpose in range(3)]

    def test_close_joins_a_draw_in_flight(self, monkeypatch):
        # The caller closes the sweep while the worker draws step 1 ahead:
        # close waits for that draw, then joins the worker.
        draws, started, done = particles._draws, threading.Event(), []

        def slow(seed, step, noise):
            if step == 1:
                started.set()
                time.sleep(0.5)
            out = draws(seed, step, noise)
            done.append(step)
            return out

        monkeypatch.setattr(particles, "_draws", slow)
        before = threading.active_count()
        sweep = iter_particles(tied_state(), StrategyRule(), P, sweep_grid(10))
        next(sweep)
        assert started.wait(10.0) and 1 not in done
        sweep.close()
        assert done == [0, 1]
        assert threading.active_count() == before

    @pytest.mark.parametrize("kind", ["rank", "ratio"])
    def test_one_sort_per_state(self, monkeypatch, kind):
        # The CDF estimate of a state and the strategy pass of its step share
        # one sort, and nothing else sorts or argsorts, under either rule.
        sorts, argsorts = [], []
        sort, argsort = particles._Workspace.sort, np.argsort
        monkeypatch.setattr(particles._Workspace, "sort",
                            lambda work, v: sorts.append(v) or sort(work, v))
        monkeypatch.setattr(np, "argsort", lambda v: argsorts.append(v) or argsort(v))
        monkeypatch.setattr(np, "sort", None)
        states = [st.positions for st, _ in
                  iter_particles(tied_state(), StrategyRule(kind=kind), P, sweep_grid(6))]
        assert len(sorts) == len(states) == 7
        assert all(a is b for a, b in zip(sorts, states))
        assert argsorts == []

    @pytest.mark.parametrize("end", ["exhausted", "closed", "worker-error"])
    def test_worker_is_joined(self, monkeypatch, end):
        # The worker's draws fail from step 3 on, step 4's drawn ahead
        # included; the caller gets step 3's first failed draw, its normals.
        stream = particles._stream

        def failing(seed, step, purpose):
            if step >= 3 and purpose != particles._FIRE:
                raise Boom(f"stream {step} {purpose}")
            return stream(seed, step, purpose)

        if end == "worker-error":
            monkeypatch.setattr(particles, "_stream", failing)
        before = threading.active_count()
        sweep = iter_particles(tied_state(), StrategyRule(kind="rank"), P, sweep_grid(10))
        if end == "closed":
            with closing(sweep):
                next(sweep)
                next(sweep)
                assert threading.active_count() == before + 1
        elif end == "exhausted":
            assert len(list(sweep)) == 11
        else:
            with pytest.raises(Boom, match=f"^stream 3 {particles._NOISE}$"):
                list(sweep)
        assert threading.active_count() == before

    @pytest.mark.parametrize("kind", ["rank", "ratio"])
    def test_public_calls_stay_on_the_calling_thread(self, monkeypatch, kind):
        # The worker runs only the private draws; every public function a
        # sweep calls, and every other helper, runs on the calling thread.
        calls = []

        def recording(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        for mod in (particles, model):
            for name, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    monkeypatch.setattr(mod, name, recording(fn))
        rule, g = StrategyRule(kind=kind), sweep_grid(5)
        assert len(list(particles.iter_particles(tied_state(), rule, P, g))) == 6
        here = threading.get_ident()
        on_worker = {name for name, ident in calls if ident != here}
        assert on_worker == {"_draws", "_stream"}
        assert {"iter_particles", "_cdf", "_step"} <= {name for name, _ in calls}

    def test_dt_checked_only_when_the_sweep_steps(self):
        # A sweep with no step to take yields its state whatever the grid's
        # dt; one that will step refuses a dt above dt_max before it yields.
        fast = dataclasses.replace(P, alpha1=1.0)  # dt_max 0.1
        st = tied_state()
        assert len(list(iter_particles(st, StrategyRule(), fast, Grid1D(-4, 4, 33, 0, 0, 0)))) == 1
        done = state_at(st.positions, step_index=3)
        assert len(list(iter_particles(done, StrategyRule(), fast, sweep_grid(3, dt=1.0)))) == 1
        with pytest.raises(DomainError, match="dt_max"):
            next(iter_particles(st, StrategyRule(), fast, sweep_grid(3, dt=1.0)))
