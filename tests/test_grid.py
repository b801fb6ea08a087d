"""Grids, profiles, and the shared stepper with its tridiagonal solve."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from kdlab import grid
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
    SPAN,
    TINY,
    Grid1D,
    Profile,
    SpaceTimeField,
    _march,
    implicit_operator,
    recommended_domain,
)
from kdlab.model import ModelParams, _alpha, _q_integral, _s_m, discounted_tail

from conftest import space_grid

TINY = np.finfo(float).tiny


class TestGrid:
    def test_spacing_invariants(self):
        g = Grid1D(-20.0, 160.0, 3601, 0.0, 60.0, 6000)
        assert g.dx == pytest.approx((g.x_max - g.x_min) / (g.nx - 1), abs=0)
        assert abs(g.nt * g.dt - (g.t_final - g.t0)) <= 1e-12 * max(1.0, g.t_final - g.t0)
        assert g.x.shape == (3601,)
        assert g.time_at(g.nt) == pytest.approx(g.t_final, abs=1e-12 * g.t_final)

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid1D(0.0, 1.0, 4, 0.0, 1.0, 10)  # nx too small
        with pytest.raises(DomainError):
            Grid1D(1.0, 0.0, 16, 0.0, 1.0, 10)
        with pytest.raises(DomainError):
            Grid1D(0.0, 1.0, 16, 0.0, 1.0, 0)  # nt=0 needs t0 == t_final
        with pytest.raises(DomainError, match="nt"):
            Grid1D(0.0, 1.0, 16, 0.0, 1.0, -1)
        for bad in ([0.0, 1.0, 16.0, 0.0, 1.0, 10], [0.0, 1.0, 16, 0.0, 1.0, True],
                    ["0", "1", 16, 0.0, 1.0, 10], [0.0, float("inf"), 16, 0.0, 1.0, 10]):
            with pytest.raises(DomainError):
                Grid1D(*bad)  # integers nx, nt; finite numbers elsewhere

    @pytest.mark.parametrize("bad", [
        (0.0, 1.0, 8, 0.0, 0.0, 5),
        (0.0, 1.0, 8, -1e308, 1e308, 5),
        (-2**70, 1.0, 8, 0.0, 1.0, 5),
        (0.0, 1.0, 2**64, 0.0, 1.0, 5),
        (-20.0, 1e5, 61, 0.0, 1.0, 5),
        (0.0, 1e-300, 8, 0.0, 0.1, 1),
    ], ids=["zero-dt", "infinite-dt", "int-beyond-int64", "nx-beyond-int64",
            "cell-wider-than-span", "cell-whose-square-underflows"])
    def test_refuses_grids_the_numerics_cannot_step(self, bad):
        # Each used to pass and then crash a run: a zero dt in the speed fit,
        # an integer beyond int64 as an object array in Grid1D.x, a cell
        # wider than SPAN e-folds as an overflow in the pay-off kernel, a cell
        # whose square underflows as a ZeroDivisionError in the stepper.
        with pytest.raises(DomainError):
            Grid1D(*bad)

    def test_narrowest_cell_is_accepted(self):
        dx = math.sqrt(TINY) * (1 + 1e-15)
        g = Grid1D(0.0, 7 * dx, 8, 0.0, 0.1, 1)
        assert g.dx**2 >= TINY

    def test_widest_cell_is_accepted(self):
        g = Grid1D(0.0, 7 * SPAN, 8, 0.0, 1.0, 5)
        assert g.dx == SPAN
        tail = discounted_tail(np.eye(8)[0], g.dx, 1.0)
        assert np.isfinite(tail[0]) and tail[0] > 0 and not np.any(tail[1:])

    def test_zero_duration(self):
        g = space_grid(0.0, 1.0, 16)
        assert g.nt == 0 and g.time_at(0) == 0.0

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
        bad = np.zeros(g.nx)
        bad[3] = np.nan
        with pytest.raises(NonFiniteError):
            Profile(g, bad)


class TestSpaceTimeField:
    def test_shape_and_finite(self):
        g = Grid1D(0.0, 1.0, 16, 0.0, 1.0, 4)
        with pytest.raises(GridMismatchError, match="shape"):
            SpaceTimeField(g, np.zeros((4, 16)))  # one slice short of nt + 1
        bad = np.zeros((5, 16))
        bad[2, 3] = np.inf
        with pytest.raises(NonFiniteError):
            SpaceTimeField(g, bad)
        assert SpaceTimeField(g, np.zeros((5, 16))) == SpaceTimeField(g, np.zeros((5, 16)))


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


def _full_solve(b, dx, dt, kappa):
    """The full drift-free implicit system, Dirichlet rows included, solved by solve_banded."""
    lower, diag, upper = implicit_operator(b.size, dx, dt, kappa)
    ab = np.array([np.r_[0.0, upper[:-1]], diag, np.r_[lower[1:], 0.0]])
    return scipy.linalg.solve_banded((1, 1), ab, b)


def _reach(b, r):
    """Rows of the interior system with right-hand side b, right end pinned at 0,
    that are solved: those up to the first row i >= K, where b is 0 from K on,
    whose bound S q^(i-K+1) / sqrt(1 + 4r) falls below TINY/2."""
    m = b.size
    nonzero = np.flatnonzero(b)
    if nonzero.size == 0:
        return 0
    K = nonzero[-1] + 1
    root = np.sqrt(1.0 + 4.0 * r)
    q = 2.0 * r / (1.0 + 2.0 * r + root)
    S = np.sum(np.abs(b[:K]) * q ** np.arange(K - 1, -1, -1.0))
    for i in range(K, m):
        if np.log(S) + (i - K + 1) * np.log(q) - np.log(root) < np.log(TINY / 2.0):
            return i
    return m


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
        # The drift-free factorization meets the zero pivot.
        with pytest.raises(SingularSystemError, match="pttrf"):
            _one_step(1.0, 1.0, -0.5, 0.0, np.array([1.0, 0.5, 0.0]))

    @pytest.mark.parametrize("n, kappa, drift", [
        (3, 0.7, 0.0), (16, 0.0, 0.0), (3, 0.7, 1.4), (16, 0.7, 1.4),
    ], ids=["3-0.7", "16-0.0", "3-0.7-drift-2kappa", "16-0.7-drift-2kappa"])
    def test_drift_free_path_without_lu(self, monkeypatch, n, kappa, drift):
        # Every step takes the LDL^T path: a single interior node, a zero
        # diffusion, and the backward drift 2 kappa alike.
        def refuse(*args, **kwargs):
            raise AssertionError("a step reached the LU solve")

        monkeypatch.setattr(grid._flapack, "dgttrf", refuse)
        monkeypatch.setattr(grid._flapack, "dgttrs", refuse)
        rhs = np.linspace(0.9, 0.1, n)
        x = _one_step(0.1, 0.01, kappa, drift, rhs)
        ref = _dense_eliminate(*implicit_operator(n, 0.1, 0.01, kappa, drift), rhs)
        assert np.max(np.abs(x - ref)) <= 1e-14
        if kappa == 0.0:
            assert np.array_equal(x, rhs)


def _python(code: str, path: str = "") -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports kdlab from this tree, path first."""
    src = str(Path(grid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (path, src)))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


#: Imports in the order given, then the kpp preset's sweep: whether the
#: stepper's pttrs is scipy.linalg.lapack's, and the sha256 of every slice.
_SWEEP = """
import hashlib
{}
from kdlab.forward import CONSTANT_ALPHA, iter_forward
cfg = harness.preset_config("kpp")
h = hashlib.sha256()
for _, F, _, _ in iter_forward(harness.ramp_initial(cfg.grid, cfg.initial_l0),
                               CONSTANT_ALPHA, cfg.params, cfg.grid):
    h.update(F.tobytes())
print(scipy.linalg.lapack.dpttrs is grid._flapack.dpttrs, h.hexdigest())
"""


class TestLapackModule:
    """The stepper calls scipy's own compiled LAPACK module, loaded without scipy.linalg."""

    def test_one_module_in_either_import_order(self):
        first = ("from kdlab import grid, harness", "import scipy.linalg")
        outs = [_python(_SWEEP.format("\n".join(order))) for order in (first, first[::-1])]
        assert [o.returncode for o in outs] == [0, 0], [o.stderr for o in outs]
        (same_a, digest_a), (same_b, digest_b) = (o.stdout.split() for o in outs)
        assert same_a == same_b == "True"
        assert digest_a == digest_b

    def test_missing_module_is_an_import_error_naming_it(self, tmp_path):
        # A scipy package without linalg/_flapack.
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        out = _python("import kdlab", str(tmp_path))
        assert out.returncode == 1
        last = out.stderr.strip().splitlines()[-1]
        assert last == f"ImportError: no compiled scipy.linalg._flapack in {tmp_path}/scipy/linalg"


class TestDriftFreeSolve:
    """The interior LDL^T solve, cut at the reach, against the full system."""

    @pytest.mark.parametrize("nx, x_max, dt", [(6001, 280.0, 0.01), (2801, 120.0, 0.02)])
    @pytest.mark.parametrize("tail", ["zero", "exponential"])
    def test_matches_full_solve(self, nx, x_max, dt, tail):
        # dx = 0.05 and kappa = 1: r = 4 on the first grid, 8 on the second.
        x = np.linspace(-20.0, x_max, nx)
        dx, kappa = x[1] - x[0], 1.0
        if tail == "zero":
            u0 = np.clip((5.0 - x) / 10.0, 0.0, 1.0)
        else:
            u0 = 1.0 / (1.0 + np.exp(np.clip(x - 5.0, -700.0, 700.0)))
            u0[-1] = 0.0
        rhs = lambda n, u: u * (1.0 + 0.5 * dt * (1.0 - u))
        ref = u0
        for n, u in _march(u0.copy(), 5, dx, dt, kappa, rhs, (1.0, 0.0), slope=-1):
            if n:
                b = rhs(n - 1, ref)
                b[0], b[-1] = 1.0, 0.0
                ref = _full_solve(b, dx, dt, kappa)
            big = np.abs(ref) >= 1e-290
            assert np.all(np.abs(u[big] - ref[big]) <= 1e-12 * np.abs(ref[big]))
            assert np.all(np.abs(u[~big]) < 1e-289)
            if tail == "exponential":
                assert np.all(u[1:-1] > 0.0)

    def test_zero_tail_past_the_reach(self):
        # r = 4 and a zero tail of over 2 000 rows, longer than the reach
        # (about 1 450 rows from a right-hand side of order 1).
        x = np.linspace(-10.0, 110.0, 2401)
        dx, dt, kappa = x[1] - x[0], 0.01, 1.0
        u0 = np.clip((2.0 - x) / 4.0, 0.0, 1.0)
        rhs = lambda n, u: u * (1.0 + dt * 0.5 * (1.0 - u))
        r = kappa * dt / dx**2
        prev = u0
        for n, u in _march(u0.copy(), 20, dx, dt, kappa, rhs, (1.0, 0.0), slope=-1):
            assert not np.any((u > 0.0) & (u < TINY))
            if n:
                b = rhs(n - 1, prev)
                b[0], b[-1] = 1.0, 0.0
                inner = b[1:-1].copy()
                inner[0] += r
                rows = _reach(inner, r)
                assert rows < inner.size
                assert np.all(u[1 + rows:] == 0.0)
                # The full system's values there are below TINY/2.
                assert np.all(_full_solve(b, dx, dt, kappa)[1 + rows:] < TINY / 2)
            prev = u.copy()
        assert np.count_nonzero(prev) < x.size - 500


class TestImplicitOperator:
    def test_m_matrix_shape(self):
        # The fitted stencil is a diagonally dominant M-matrix for drift of
        # either sign, and its interior rows sum to 1, as the identity plus dt
        # times a differential operator without a zeroth-order term must.
        for drift in (2.0, -2.0):
            lower, diag, upper = implicit_operator(16, 0.1, 0.01, kappa=1.0, drift=drift)
            assert diag[0] == 1.0 and diag[-1] == 1.0 and upper[0] == 0.0 and lower[-1] == 0.0
            lo, mid, up = lower[1:-1], diag[1:-1], upper[1:-1]
            assert np.all(mid > -lo - up) and np.all(lo < 0) and np.all(up < 0)
            assert np.max(np.abs(lo + mid + up - 1.0)) <= 1e-12


def _replay(u, nt, dx, dt, kappa, rhs, ends, drift=0.0):
    """The implicit scheme rebuilt and re-solved step by step, for reference.

    The step matrix is D S D^-1 (see implicit_operator), with
    S = tridiag(-r, 1 + 2r cosh a, -r), r = kappa*dt/dx^2, a =
    drift*dx/(2*kappa), and D = diag(e^{-a(i-c)}) centred on the middle node.
    The right-hand side, ends pinned, is scaled by D^-1; r times each scaled
    end value is added to its neighbouring interior row; the interior goes to
    LAPACK ptsv and is scaled back by D, and the ends are pinned again.
    Without drift D is the identity, and the solve is cut at the reach when
    the right end is pinned at 0 and the right-hand side ends in zeros; on
    such a step values below TINY in magnitude are set to 0.
    """
    r = kappa * dt / dx**2
    a = drift * dx / (2.0 * kappa) if drift else 0.0
    shifts = a * (np.arange(u.size) - (u.size - 1) / 2.0)
    down = np.array([math.exp(v) for v in shifts])
    up = np.array([math.exp(-v) for v in shifts])
    out = [u]
    for n in range(nt):
        x = rhs(n, out[-1])
        x[0], x[-1] = ends
        x = x * down
        inner = x[1:-1]
        inner[0] += r * x[0]
        inner[-1] += r * x[-1]
        cut = ends[1] == 0.0 and r > 0.0 and not drift and inner[-1] == 0.0
        rows = _reach(inner, r) if cut else inner.size
        if rows:
            d = np.full(rows, 1.0 + 2.0 * r * math.cosh(a))
            e = np.full(max(rows - 1, 1), -r)
            inner[:rows] = scipy.linalg.lapack.dptsv(d, e, inner[:rows].copy())[2]
        if cut:
            inner[np.abs(inner) < TINY] = 0.0
        x = x * up
        x[0], x[-1] = ends
        out.append(np.clip(x, 0.0, 1.0))
    return np.array(out)


class TestSharedStepper:
    """The solvers' one prefactored stepper against a per-step rebuild."""

    P = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)

    def ramp(self, g):
        return Profile(g, np.clip((2.0 - g.x) / 4.0, 0.0, 1.0))

    def test_overshoot_raises(self):
        # An F0 outside [0, 1] fails at entry, before the stepper could overshoot.
        g = Grid1D(-10.0, 10.0, 101, 0.0, 0.5, 10)
        with pytest.raises(DomainError):
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
            a = _alpha(_s_m(discounted_tail(F, g.dx, p.rho_minus_kappa), p), p)
            c = np.concatenate(([0.0], np.cumsum(0.5 * (a[:-1] + a[1:]) * (F[:-1] - F[1:]))))
            return F * (1.0 + g.dt * c)

        ref = _replay(self.ramp(g).values, g.nt, g.dx, g.dt, p.kappa, rhs, (1.0, 0.0))
        assert np.array_equal(solve_forward(self.ramp(g), INTRINSIC, p, g).values, ref)

    @pytest.mark.parametrize("coupling", ["constant-alpha", "field"])
    def test_forward_alpha_couplings_match_replay(self, coupling):
        # The field varies from row to row and leaves [0, 1]: step n reads
        # row n, clipped.
        p, g = self.P, Grid1D(-20.0, 40.0, 301, 0.0, 2.0, 20)
        t = g.t0 + g.dt * np.arange(g.nt + 1)
        s = SpaceTimeField(g, 0.5 + 0.7 * np.sin(g.x / 3.0 + t[:, None]))
        strategy = CONSTANT_ALPHA if coupling == "constant-alpha" else s

        def rhs(n, F):
            if coupling == "constant-alpha":
                a = np.full(F.size, p.alpha1)
            else:
                a = _alpha(np.clip(s.values[n], 0.0, 1.0), p)
            c = np.concatenate(([0.0], np.cumsum(0.5 * (a[:-1] + a[1:]) * (F[:-1] - F[1:]))))
            return F * (1.0 + g.dt * c)

        ref = _replay(self.ramp(g).values, g.nt, g.dx, g.dt, p.kappa, rhs, (1.0, 0.0))
        assert np.array_equal(solve_forward(self.ramp(g), strategy, p, g).values, ref)

    def test_rank_local_matches_replay(self):
        p, g = self.P, Grid1D(-20.0, 40.0, 301, 0.0, 2.0, 20)

        def rhs(n, F):
            return F * (1.0 + g.dt * (_q_integral(1.0, p) - _q_integral(F, p)))

        ref = _replay(self.ramp(g).values, g.nt, g.dx, g.dt, p.kappa, rhs, (1.0, 0.0))
        assert np.array_equal(solve_forward(self.ramp(g), RANK_LOCAL, p, g).values, ref)

    def test_cut_at_the_reach_matches_replay(self):
        # r = 4 and a zero tail longer than the reach: every step is cut.
        p, g = self.P, Grid1D(-10.0, 110.0, 2401, 0.0, 0.2, 20)

        def rhs(n, F):
            return F * (1.0 + g.dt * (_q_integral(1.0, p) - _q_integral(F, p)))

        ref = _replay(self.ramp(g).values, g.nt, g.dx, g.dt, p.kappa, rhs, (1.0, 0.0))
        assert np.all(ref[:, -500:] == 0.0)
        assert np.array_equal(solve_forward(self.ramp(g), RANK_LOCAL, p, g).values, ref)

    def test_backward_matches_replay(self):
        p, g = self.P, Grid1D(-20.0, 40.0, 301, 0.0, 2.0, 20)
        F = solve_forward(self.ramp(g), INTRINSIC, p, g)
        s = SpaceTimeField(g, _s_m(discounted_tail(F.values, g.dx, p.rho_minus_kappa), p))
        wT = TerminalCondition(kind="logistic", center=5.0, slope=1.0)

        def rhs(n, w):
            j = g.nt - n
            sj, Fj = s.values[j], F.values[j]
            return w + g.dt * (p.rho_minus_kappa * (1.0 - sj - w) - _alpha(sj, p) * w * Fj)

        ref = _replay(wT.build(g), g.nt, g.dx, g.dt, p.kappa, rhs, (0.0, 1.0), 2.0 * p.kappa)
        assert np.array_equal(solve_backward(wT, F, s, p, g).values, ref[::-1])
