"""Grids, profiles, and the shared stepper with its tridiagonal solve."""

import numpy as np
import pytest
import scipy.linalg

from kdlab.backward import TerminalCondition, solve_backward
from kdlab.errors import (
    DomainError,
    GridMismatchError,
    NonFiniteError,
    NumericalError,
    OvershootError,
    SingularSystemError,
)
from kdlab.forward import CONSTANT_ALPHA, INTRINSIC, RANK_LOCAL, solve_forward
from kdlab.grid import (
    OVERSHOOT_TOL,
    SLOPE_TOL,
    Grid1D,
    Profile,
    SpaceTimeField,
    _march,
    implicit_operator,
    recommended_domain,
)
from kdlab.model import ModelParams, alpha, alpha_of_sm, discounted_tail, q_integral, s_m

from conftest import space_grid


class TestGrid:
    def test_spacing_invariants(self):
        g = Grid1D(-20.0, 160.0, 3601, 0.0, 60.0, 6000)
        assert g.dx == pytest.approx((g.x_max - g.x_min) / (g.nx - 1), abs=0)
        assert abs(g.nt * g.dt - (g.t_final - g.t0)) <= 1e-12 * max(1.0, g.t_final - g.t0)
        assert g.x.shape == (3601,)
        assert g.times.shape == (6001,)

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid1D(0.0, 1.0, 4, 0.0, 1.0, 10)  # nx too small
        with pytest.raises(DomainError):
            Grid1D(1.0, 0.0, 16, 0.0, 1.0, 10)
        with pytest.raises(DomainError):
            Grid1D(0.0, 1.0, 16, 0.0, 1.0, 0)  # nt=0 needs t0 == t_final
        for bad in ([0.0, 1.0, 16.0, 0.0, 1.0, 10], [0.0, 1.0, 16, 0.0, 1.0, True],
                    ["0", "1", 16, 0.0, 1.0, 10], [0.0, float("inf"), 16, 0.0, 1.0, 10]):
            with pytest.raises(DomainError):
                Grid1D(*bad)  # integers nx, nt; finite numbers elsewhere

    def test_zero_duration(self):
        g = space_grid(0.0, 1.0, 16)
        assert g.nt == 0 and g.times.tolist() == [0.0]

    def test_nodes_computed_once_and_read_only(self):
        g = Grid1D(-20.0, 160.0, 3601, 0.0, 60.0, 6000)
        x = g.x
        assert x.tobytes() == np.linspace(g.x_min, g.x_max, g.nx).tobytes()
        assert g.x is x
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_recommended_domain(self):
        x_min, x_max = recommended_domain(kappa=1.0, alpha1=0.25, horizon=120.0)
        assert x_min <= -20.0
        assert x_max >= (1.0 + 0.25) * 120.0 + 40.0


class TestProfile:
    def test_shape_and_finite(self):
        g = space_grid(0.0, 1.0, 16)
        with pytest.raises(GridMismatchError):
            Profile(g, np.zeros(8))
        prof = Profile(g, np.linspace(1, 0, 16))
        assert prof == Profile(g, np.linspace(1, 0, 16))


def _dense_eliminate(lower, diag, upper, rhs):
    """Hand-rolled Gaussian elimination with partial pivoting (test oracle)."""
    n = len(diag)
    A = np.zeros((n, n))
    for i in range(n):
        A[i, i] = diag[i]
        if i > 0:
            A[i, i - 1] = lower[i]
        if i < n - 1:
            A[i, i + 1] = upper[i]
    b = np.array(rhs, dtype=float)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if A[piv, col] == 0.0:
            raise ZeroDivisionError
        A[[col, piv]] = A[[piv, col]]
        b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            m = A[row, col] / A[col, col]
            if m != 0.0:
                A[row, col:] -= m * A[col, col:]
                b[row] -= m * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def _one_step(dx, dt, kappa, drift, b):
    """u_1 of the shared stepper whose step solves the implicit system with right-hand side b."""
    steps = _march(np.zeros(b.size), 1, dx, dt, kappa, lambda n, u: b.copy(), (b[0], b[-1]), drift)
    return list(steps)[-1][1]


class TestTridiagonal:
    """The stepper's prefactored tridiagonal solve."""

    def test_identity(self):
        # kappa = drift = 0 makes the implicit operator the identity.
        rhs = np.array([0.3, 0.1, 0.9, 0.5, 0.0, 1.0, 0.25, 0.7])
        assert np.array_equal(_one_step(0.1, 0.01, 0.0, 0.0, rhs), rhs)

    def test_discrete_laplacian(self):
        # A linear profile lies in the kernel of the centered second difference,
        # so a strongly diffusive implicit step leaves it in place.
        rhs = np.linspace(1.0, 0.0, 9)
        assert _one_step(0.1, 0.5, 1.0, 0.0, rhs) == pytest.approx(rhs, abs=1e-12)

    def test_against_dense_elimination(self):
        rng = np.random.default_rng(11)
        for n in range(3, 17):
            for _ in range(5):
                dx, dt = rng.uniform(0.05, 1.0), rng.uniform(0.01, 1.0)
                kappa = rng.uniform(0.1, 2.0)
                drift = rng.choice([0.0, 2.0 * kappa])
                rhs = rng.uniform(0.0, 1.0, n)
                lower, diag, upper = implicit_operator(n, dx, dt, kappa, drift)
                x = _one_step(dx, dt, kappa, drift, rhs)
                ref = _dense_eliminate(lower, diag, upper, rhs)
                assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
                # residual contract
                res = diag * x
                res[1:] += lower[1:] * x[:-1]
                res[:-1] += upper[:-1] * x[1:]
                assert np.max(np.abs(res - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_singular(self):
        # kappa*dt/dx^2 = -1/2 zeroes the interior diagonal: rows 0 and 2 pin
        # the ends, and row 1 is half their sum, so the matrix is singular.
        with pytest.raises(SingularSystemError):
            _one_step(1.0, 1.0, -0.5, 0.0, np.array([1.0, 0.5, 0.0]))


class TestImplicitOperator:
    def test_m_matrix_shape(self):
        lower, diag, upper = implicit_operator(16, 0.1, 0.01, kappa=1.0, drift=2.0)
        assert diag[0] == 1.0 and diag[-1] == 1.0 and upper[0] == 0.0 and lower[-1] == 0.0
        assert np.all(diag[1:-1] > 0) and np.all(lower[1:-1] <= 0) and np.all(upper[1:-1] <= 0)
        # row sums of the interior equal 1 + dt*drift/dx boundary terms aside
        with pytest.raises(DomainError):
            implicit_operator(16, 0.1, 0.01, kappa=1.0, drift=-1.0)


def _replay(u, nt, dx, dt, kappa, rhs, ends, drift=0.0):
    """The implicit scheme rebuilt and re-solved step by step, for reference."""
    lower, diag, upper = implicit_operator(u.size, dx, dt, kappa, drift)
    ab = np.array([np.r_[0.0, upper[:-1]], diag, np.r_[lower[1:], 0.0]])
    out = [u]
    for n in range(nt):
        b = rhs(n, out[-1])
        b[0], b[-1] = ends
        out.append(np.clip(scipy.linalg.solve_banded((1, 1), ab, b), 0.0, 1.0))
    return np.array(out)


class TestSharedStepper:
    """The solvers' one prefactored stepper against a per-step rebuild."""

    P = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)

    def ramp(self, g):
        return Profile(g, np.clip((2.0 - g.x) / 4.0, 0.0, 1.0))

    def test_overshoot_raises(self):
        g = Grid1D(-10.0, 10.0, 101, 0.0, 0.5, 10)
        with pytest.raises(OvershootError):
            solve_forward(Profile(g, np.full(g.nx, 1.5)), CONSTANT_ALPHA, self.P, g)

    @pytest.mark.parametrize("bad, error", [
        (np.nan, NonFiniteError), (np.inf, NonFiniteError), (-np.inf, NonFiniteError),
        (1.0 + 2.0 * OVERSHOOT_TOL, OvershootError), (-2.0 * OVERSHOOT_TOL, OvershootError),
    ])
    def test_guard_names_the_failure(self, bad, error):
        # kappa = 0 makes the implicit matrix the identity, so the slice is the rhs.
        rhs = lambda n, u: np.where(np.arange(u.size) == 7, bad, u)
        steps = _march(np.full(16, 0.5), 1, 0.1, 0.1, 0.0, rhs, ends=(0.5, 0.5))
        next(steps)
        with pytest.raises(error):
            next(steps)

    def test_guard_clamps_roundoff(self):
        rhs = lambda n, u: np.where(np.arange(u.size) == 7, 1.0 + 0.5 * OVERSHOOT_TOL, u)
        steps = _march(np.full(16, 0.5), 1, 0.1, 0.1, 0.0, rhs, ends=(0.5, 0.5))
        next(steps)
        _, u = next(steps)
        assert u[7] == 1.0 and np.all(np.delete(u, 7) == 0.5)

    @pytest.mark.parametrize("slope", [-1, 1])
    @pytest.mark.parametrize("back, error", [(0.0, None), (0.5, None), (2.0, NumericalError)])
    def test_guard_checks_the_slope_direction(self, slope, back, error):
        # A ramp in the slope's direction with node 7 stepped back by `back`
        # SLOPE_TOLs from node 6; the reversed ramp always fails.
        ramp = np.linspace(0.1, 0.9, 16)[::slope]
        ramp[7] = ramp[6] - slope * back * SLOPE_TOL
        for sign, expected in ((slope, error), (-slope, NumericalError)):
            steps = _march(ramp.copy(), 1, 0.1, 0.1, 0.0, lambda n, v: ramp.copy(),
                           ends=(ramp[0], ramp[-1]), slope=sign)
            next(steps)
            if expected is None:
                assert np.array_equal(next(steps)[1], ramp)
            else:
                with pytest.raises(expected):
                    next(steps)

    def test_forward_intrinsic_matches_replay(self):
        p, g = self.P, Grid1D(-20.0, 40.0, 301, 0.0, 2.0, 20)

        def rhs(n, F):
            a = alpha_of_sm(discounted_tail(F, g.dx, p.rho_minus_kappa), p)
            c = np.concatenate(([0.0], np.cumsum(0.5 * (a[:-1] + a[1:]) * (F[:-1] - F[1:]))))
            return F * (1.0 + g.dt * c)

        ref = _replay(self.ramp(g).values, g.nt, g.dx, g.dt, p.kappa, rhs, (1.0, 0.0))
        assert np.array_equal(solve_forward(self.ramp(g), INTRINSIC, p, g).values, ref)

    def test_rank_local_matches_replay(self):
        p, g = self.P, Grid1D(-20.0, 40.0, 301, 0.0, 2.0, 20)

        def rhs(n, F):
            return F * (1.0 + g.dt * (q_integral(1.0, p) - q_integral(F, p)))

        ref = _replay(self.ramp(g).values, g.nt, g.dx, g.dt, p.kappa, rhs, (1.0, 0.0))
        assert np.array_equal(solve_forward(self.ramp(g), RANK_LOCAL, p, g).values, ref)

    def test_backward_matches_replay(self):
        p, g = self.P, Grid1D(-20.0, 40.0, 301, 0.0, 2.0, 20)
        F = solve_forward(self.ramp(g), INTRINSIC, p, g)
        s = SpaceTimeField(g, s_m(discounted_tail(F.values, g.dx, p.rho_minus_kappa), p))
        wT = TerminalCondition(kind="logistic", center=5.0, slope=1.0)

        def rhs(n, w):
            j = g.nt - n
            sj, Fj = s.values[j], F.values[j]
            return w + g.dt * (p.rho_minus_kappa * (1.0 - sj - w) - alpha(sj, p) * w * Fj)

        ref = _replay(wT.build(g), g.nt, g.dx, g.dt, p.kappa, rhs, (0.0, 1.0), 2.0 * p.kappa)
        assert np.array_equal(solve_backward(wT, F, s, p, g).values, ref[::-1])
