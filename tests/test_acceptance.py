"""Acceptance suite: one test per shipped criterion, at pinned tolerances.

Each criterion prints a PASS/FAIL line with the measured values, then
asserts.  The expensive preset runs execute once per session and are shared
with the module tests.
"""

import math

import numpy as np
import pytest

from kdlab.analysis import FrontTrack, estimate_speed
from kdlab.forward import CONSTANT_ALPHA, solve_forward
from kdlab.grid import Grid1D, Profile
from kdlab.model import ModelParams, discounted_tail
from kdlab.particles import ParticleState, empirical_cdf

from conftest import bramson_delay, corrected_gap_track, gap_track, read_tracks

ALL_PRESETS = (
    "kpp",
    "lottery-intrinsic",
    "lottery-nash",
    "bgp-probe",
    "particles-ratio",
    "compare-particle-pde",
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


class TestCriterion1KppReduction:
    def test_median_front_speed(self, preset_runs):
        res = preset_runs("kpp")
        speed = res.manifest["speeds"]["median"]["speed"]
        ok = abs(speed - 2.0) <= 0.10
        report(1, ok, f"constant-rate median speed {speed:.4f} vs 2.00 +/- 0.10")
        assert ok


class TestCriterion2LotteryFronts:
    def test_front_asymptotics(self, preset_runs):
        res = preset_runs("lottery-intrinsic")
        med = res.manifest["speeds"]["median"]["speed"]
        lrn = res.manifest["speeds"]["learning"]["speed"]
        window = (12.0, 108.0)
        raw_gap = estimate_speed(gap_track(res), window).speed
        gap = estimate_speed(corrected_gap_track(res), window).speed
        median = read_tracks(res)["median"]
        med_track = FrontTrack(median.times, median.positions + bramson_delay(res, median.times))
        med_corr = estimate_speed(med_track, window).speed
        med_theory = res.manifest["theory"]["median_speed"]
        ok_med = abs(med - 1.00) <= 0.10
        ok_lrn = abs(lrn - 1.25) <= 0.125
        ok_gap = abs(gap - 0.25) <= 0.05
        ok_model = abs(med_corr - med_theory) <= 0.05
        report(
            2,
            ok_med and ok_lrn and ok_gap and ok_model,
            f"median {med:.4f} vs 1.00+/-0.10 ({'ok' if ok_med else 'FAIL'}); "
            f"learning {lrn:.4f} vs 1.25+/-0.125 ({'ok' if ok_lrn else 'FAIL'}); "
            f"gap slope raw {raw_gap:.4f}, Bramson-corrected {gap:.4f}"
            f" vs 0.25+/-0.05 ({'ok' if ok_gap else 'FAIL'}); "
            f"corrected median {med_corr:.4f} vs {med_theory:.2f}+/-0.05"
            f" ({'ok' if ok_model else 'FAIL'})",
        )
        assert ok_med
        assert ok_lrn
        # Fronts modelled as x(t) = c t - (3 / (2 lambda*)) ln t + b (Bramson).
        assert ok_gap
        assert ok_model


class TestCriterion3NashVsIntrinsic:
    def test_learning_front_sandwich(self, preset_runs):
        res = preset_runs("lottery-nash")
        rows = {}
        for line in (res.out_dir / "diagnostics.csv").read_text().splitlines()[1:]:
            check, _, passed, worst, _ = line.split(",")
            rows.setdefault(check, []).append((passed == "1", float(worst)))
        sandwich_ok = all(ok for ok, _ in rows.get("front_sandwich", [(False, 0)]))
        stable_ok = all(ok for ok, _ in rows.get("sandwich_gap_stable", [(False, 0)]))
        converged = res.manifest["mfg"]["converged"]
        # The Picard loop's cost: lottery-nash converges in 5 iterations.
        iterations = res.manifest["mfg"]["iterations"]
        ok = sandwich_ok and stable_ok and converged and iterations <= 6
        report(
            3, ok,
            f"converged={converged} in {iterations} iterations (at most 6),"
            " learning front within [intrinsic - L, intrinsic]"
            f" (sandwich {'ok' if sandwich_ok else 'FAIL'},"
            f" fitted gap stable {'ok' if stable_ok else 'FAIL'})",
        )
        assert ok


class TestCriterion4OracleSuite:
    def test_heat_kernel(self):
        p0 = ModelParams(kappa=1.0, rho=2.0, alpha1=0.0)
        g = Grid1D(-20.0, 20.0, 2001, 0.0, 1.0, 1000)
        vals = np.where(g.x < 0.0, 1.0, 0.0)
        vals[g.x == 0.0] = 0.5
        F = solve_forward(Profile(g, vals), CONSTANT_ALPHA, p0, g)
        at = lambda xq: F.values[-1, int(np.argmin(np.abs(g.x - xq)))]
        e0 = abs(at(0.0) - 0.5)
        e2 = abs(at(2.0) - 0.5 * math.erfc(1.0))
        ok = e0 <= 2e-3 and e2 <= 2e-3
        report(4, ok, f"heat kernel errors {e0:.2e}, {e2:.2e} vs 2e-3"
                      " (more oracle checks in sibling tests)")
        assert ok

    def test_backward_relaxation(self):
        from kdlab.backward import solve_backward
        from kdlab.grid import SpaceTimeField
        from kdlab.model import _s_m

        # 1000 steps of 1e-3 with F = 0 and s = s_m(0); w starts at 0 with the
        # end values 0 and 1 that every step pins.
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)
        g = Grid1D(-20.0, 20.0, 801, 0.0, 1.0, 1000)
        zero = np.zeros((g.nt + 1, g.nx))
        w0 = np.zeros(g.nx)
        w0[-1] = 1.0
        F, s = SpaceTimeField(g, zero), SpaceTimeField(g, _s_m(zero, p))
        w = solve_backward(Profile(g, w0), F, s, p, g).values[0]
        inner = (g.x > -10.0) & (g.x < 10.0)
        err = np.max(np.abs(w[inner] - (1.0 - math.exp(-1.0))))
        ok = err <= 2e-3
        report(4, ok, f"backward relaxation error {err:.2e} vs 2e-3")
        assert ok

    def test_tridiagonal_vs_dense(self):
        from kdlab.grid import _march, implicit_operator

        rng = np.random.default_rng(2024)
        worst = 0.0
        for n in (4, 8, 16):
            for _ in range(10):
                dx, dt = rng.uniform(0.05, 1.0), rng.uniform(0.01, 1.0)
                kappa = rng.uniform(0.1, 2.0)
                for drift in (0.0, 2.0 * kappa):
                    rhs = rng.uniform(0.0, 1.0, n)
                    # One step of the stepper solves the implicit system for rhs.
                    steps = _march(np.zeros(n), 1, dx, dt, kappa, lambda k, u: rhs.copy(),
                                   (rhs[0], rhs[-1]), drift)
                    x = list(steps)[-1][1]
                    A = _dense(*implicit_operator(n, dx, dt, kappa, drift))
                    ref = np.linalg.solve(A, rhs)
                    worst = max(worst, float(np.max(np.abs(x - ref))
                                             / max(1.0, np.max(np.abs(ref)))))
        ok = worst <= 1e-10
        report(4, ok, f"stepper's tridiagonal solve vs dense elimination worst rel {worst:.2e}"
                      " vs 1e-10")
        assert ok

    def test_payoff_recurrence_vs_direct(self):
        g = Grid1D(-1.0, 3.0, 50, 0.0, 0.0, 0)
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)
        rng = np.random.default_rng(31)
        f = np.sort(rng.random(g.nx))[::-1]
        w = np.sort(rng.random(g.nx))
        I = discounted_tail(f * w, g.dx, p.rho_minus_kappa)
        h = g.dx
        em1 = math.expm1(h)
        wa, wb = em1 / h - 1.0, 1.0 + em1 * (h - 1.0) / h
        gg = f * w
        worst = 0.0
        for i in range(g.nx - 1):
            acc = sum(
                math.exp(g.x[j] - g.x[i]) * (wa * gg[j] + wb * gg[j + 1])
                for j in range(i, g.nx - 1)
            ) / p.rho_minus_kappa
            worst = max(worst, abs(I[i] - acc) / max(abs(acc), 1e-300))
        ok = worst <= 1e-10
        report(4, ok, f"payoff recurrence vs direct sum worst rel {worst:.2e} vs 1e-10")
        assert ok


def _dense(lower, diag, upper):
    n = len(diag)
    A = np.diag(diag)
    for i in range(1, n):
        A[i, i - 1] = lower[i]
    for i in range(n - 1):
        A[i, i + 1] = upper[i]
    return A


class TestCriterion5InvariantSuite:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_diagnostics_green(self, preset_runs, name):
        res = preset_runs(name)
        ok = res.manifest["diagnostics_passed"]
        report(5, ok, f"invariant suite on preset {name}: "
                      f"{'all checks green' if ok else res.manifest['diagnostics_failures']}")
        assert ok


class TestCriterion6ParticlePdeConsistency:
    def test_rank_rule_front_speed(self, preset_runs):
        res = preset_runs("compare-particle-pde")
        # The manifest's theory is the rank-local front's 2 sqrt(kappa Q(1)).
        target = res.manifest["theory"]["median_speed"]
        assert abs(target - 2.0 * math.sqrt(2.0 / 3.0)) <= 1e-12
        part = res.manifest["speeds"]["median"]["speed"]
        pde = res.manifest["speeds"]["pde_median"]["speed"]
        ok_part = abs(part - target) <= 0.10 * target
        ok_pde = abs(pde - target) <= 0.10 * target
        ok = ok_part and ok_pde
        report(
            6, ok,
            f"rank-rule median speed: particles {part:.4f}, local PDE {pde:.4f},"
            f" target {target:.4f} +/- 10%",
        )
        assert ok

    def test_ratio_identity_against_payoff(self):
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)
        dx = 0.002
        rng = np.random.default_rng(99)
        worst = 0.0
        for trial in range(20):
            x = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=200)
            lo = x.min() - 0.5
            nx = int(round((x.max() + dx - lo) / dx)) + 1
            g = Grid1D(lo, lo + (nx - 1) * dx, nx, 0.0, 0.0, 0)
            st = ParticleState(positions=x, seed=trial)
            F = empirical_cdf(st, g).profile.values
            J = discounted_tail(F, g.dx, p.rho_minus_kappa)
            direct = np.array([np.sum(np.exp(x[x > xq] - xq) - 1.0) / 200 for xq in g.x])
            rel = np.abs(p.rho_minus_kappa * J - direct) / np.maximum(direct, 1e-3)
            worst = max(worst, float(np.max(rel)))
        ok = worst <= 5.0 * dx + 1e-6
        report(6, ok, f"ratio-strategy identity worst rel err {worst:.2e}"
                      f" vs quadrature allowance {5.0 * dx:.2e}")
        assert ok


class TestCriterion7BalancedGrowthProbe:
    def test_fronts_travel_together(self, preset_runs):
        res = preset_runs("bgp-probe")
        track = gap_track(res)
        t_final = track.times[-1]
        fit = estimate_speed(track, (0.5 * t_final, t_final))
        ok = -0.05 <= fit.speed <= 0.05
        report(7, ok, f"fast-learning regime: front gap slope {fit.speed:+.4f}"
                      " within [-0.05, 0.05]")
        assert ok


class TestCriterion8Determinism:
    def test_byte_identical_outputs(self, preset_runs, tmp_path):
        from kdlab.harness import preset_config, run

        first = preset_runs("particles-ratio")
        second = run(preset_config("particles-ratio"), tmp_path / "again")
        same = True
        for rel in ("tracks.csv", "diagnostics.csv"):
            same &= (first.out_dir / rel).read_bytes() == (second.out_dir / rel).read_bytes()
        snaps_a = sorted((first.out_dir / "fields").glob("*.csv"))
        snaps_b = sorted((second.out_dir / "fields").glob("*.csv"))
        same &= len(snaps_a) == len(snaps_b)
        for fa, fb in zip(snaps_a, snaps_b):
            same &= fa.read_bytes() == fb.read_bytes()
        report(8, same, "repeated preset run produced byte-identical CSV outputs")
        assert same
