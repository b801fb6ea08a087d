"""Shared fixtures: small grid helpers and session-scoped preset runs.

The preset runs are expensive (seconds to ~half a minute), so each executes
at most once per session and is shared between the module tests and the
acceptance suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from kdlab import harness
from kdlab.analysis import FrontTrack
from kdlab.grid import Grid1D, Profile
from kdlab.harness import preset_config, run


def space_grid(x_min: float, x_max: float, nx: int) -> Grid1D:
    """Grid with a degenerate time axis, for single-slice computations."""
    return Grid1D(x_min, x_max, nx, 0.0, 0.0, 0)


def monotone_pair(grid: Grid1D, rng: np.random.Generator) -> tuple[Profile, Profile]:
    """Random admissible pair: F non-increasing in [0,1], w non-decreasing."""
    f = np.sort(rng.random(grid.nx))[::-1]
    f = (f - f[-1]) / max(f[0] - f[-1], 1e-12)
    w = np.sort(rng.random(grid.nx))
    w = (w - w[0]) / max(w[-1] - w[0], 1e-12)
    return Profile(grid, f), Profile(grid, w)


@pytest.fixture(scope="session")
def preset_runs(tmp_path_factory):
    """Run shipped presets lazily, once per session."""
    root = tmp_path_factory.mktemp("preset-runs")
    cache: dict[str, object] = {}

    def get(name: str):
        if name not in cache:
            cache[name] = run(preset_config(name), root / name)
        return cache[name]

    return get


def read_tracks(res) -> dict[str, FrontTrack]:
    """The run's `tracks.csv`, read by `harness.read_tracks`: each front's track by name."""
    return harness.read_tracks(res.out_dir / "tracks.csv")


def bramson_delay(res, t: np.ndarray) -> np.ndarray:
    """Logarithmic lag (3 / (2 lambda*)) ln t of a pulled KPP front.

    A KPP front sits at c* t - (3 / (2 lambda*)) ln t + b + o(1) (Bramson
    1983; Ebert & van Saarloos 2000), with lambda* the run's own
    `manifest["theory"]["decay_rate"]`.  NaN at t <= 0, where the asymptotic
    form does not apply.
    """
    lam = res.manifest["theory"]["decay_rate"]
    log_t = np.log(t, out=np.full_like(t, np.nan), where=t > 0)
    return 3.0 / (2.0 * lam) * log_t


def gap_track(res) -> FrontTrack:
    """Raw separation of the learning front ahead of the median front."""
    tracks = read_tracks(res)
    median, learning = tracks["median"], tracks["learning"]
    return FrontTrack(median.times, learning.positions - median.positions)


def corrected_gap_track(res) -> FrontTrack:
    """Front gap with the median's Bramson delay removed.

    The learning front runs at its asymptotic speed while the median front
    lags by `bramson_delay`, so gap - bramson_delay is linear in t with the
    asymptotic separation rate as its slope.
    """
    gap = gap_track(res)
    return FrontTrack(gap.times, gap.positions - bramson_delay(res, gap.times))
