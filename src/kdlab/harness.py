"""Experiment harness: configs, presets, runners, serialization, checkpoints.

A run consumes one declarative JSON config and writes, into its own output
directory: field snapshots (columnar text, optionally binary), front tracks
with fitted speeds, a diagnostics report, and a manifest listing every output
file with a content hash.  Given the same config and seed, outputs are byte
identical.  Diagnostic failures never change the exit status; they set a flag
in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__, model
from .analysis import (
    DiagnosticsReport,
    FrontTrack,
    Snapshot,
    _front,
    default_window,
    estimate_speed,
    run_diagnostics,
)
from .backward import TerminalCondition
from .errors import CheckpointError, ConfigError, KdlabError
from .forward import CONSTANT_ALPHA, INTRINSIC, RANK_LOCAL, iter_forward
from .grid import Grid1D, Profile, is_int, is_number, recommended_domain
from .mfg import MfgConfig, solve_nash
from .model import ModelParams, TheoryPredictions
from .particles import (
    RANK,
    RATIO,
    ParticleState,
    StrategyRule,
    empirical_cdf,
    step_particles,
)

SCHEMA_VERSION = 1
CHECKPOINT_VERSION = 1
MODES = ("kpp", "intrinsic", "nash", "particles", "compare")
OUTPUT_ROOT_ENV = "KDLAB_OUT"


@dataclass(frozen=True)
class ParticleSpec:
    n: int
    seed: int  # mandatory: particle runs are only reproducible with one
    rule: str = RANK
    kernel_width: float | None = None

    def __post_init__(self) -> None:
        if not (is_int(self.n) and self.n >= 2):
            raise ConfigError(f"particles.n must be an integer of at least 2, got {self.n!r}")
        if not (is_int(self.seed) and 0 <= self.seed < 2**63):
            raise ConfigError(f"particles.seed must be an integer in [0, 2^63), got {self.seed!r}")
        self.make_rule()  # StrategyRule checks rule and kernel_width

    def make_rule(self) -> StrategyRule:
        return StrategyRule(kind=self.rule, kernel_width=self.kernel_width)


def _keys(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


#: The JSON keys of the output section, each an ExperimentConfig field.
_OUTPUT_KEYS = ("snapshot_stride", "track_stride", "binary_fields", "fit_window")
#: Each config section built by a type: JSON key -> (ExperimentConfig field,
#: type, the JSON keys it takes).  A custom terminal profile has no JSON form.
_SECTIONS = {
    "params": ("params", ModelParams, _keys(ModelParams)),
    "grid": ("grid", Grid1D, _keys(Grid1D)),
    "terminal_condition": ("terminal", TerminalCondition, ("kind", "center", "slope")),
    "mfg": ("mfg", MfgConfig, _keys(MfgConfig)),
    "particles": ("particles", ParticleSpec, _keys(ParticleSpec)),
}
_TOP_KEYS = ("schema_version", "name", "mode", "initial_condition", "output", *_SECTIONS)


def _section(value, where: str, keys: tuple[str, ...]) -> dict:
    """value as a JSON object holding only the given keys, else ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigError(f"{where} has unknown keys {unknown}; it takes {list(keys)}")
    return value


@dataclass
class ExperimentConfig:
    name: str
    mode: str
    params: ModelParams
    grid: Grid1D
    initial_l0: float = 5.0
    terminal: TerminalCondition | None = None
    mfg: MfgConfig | None = None
    particles: ParticleSpec | None = None
    snapshot_stride: int = 100
    track_stride: int = 1
    binary_fields: bool = False
    fit_window: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        # The run directory is <output root>/<name>, so a name is one plain path part.
        if not (isinstance(self.name, str) and self.name not in ("", ".", "..")
                and "/" not in self.name and "\0" not in self.name):
            raise ConfigError(f"name must be a plain directory name, got {self.name!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "nash" and self.mfg is None:
            self.mfg = MfgConfig()
        if self.mode in ("particles", "compare"):
            if self.particles is None:
                raise ConfigError(f"mode {self.mode!r} needs a particles section")
        if self.terminal is not None and self.terminal.kind == "custom":
            raise ConfigError("a custom terminal condition has no JSON form; "
                              "pass its profile to solve_nash instead")
        if not (is_number(self.initial_l0) and self.initial_l0 > 0):
            raise ConfigError(
                f"initial_condition.l0 must be a positive number, got {self.initial_l0!r}"
            )
        for key in ("snapshot_stride", "track_stride"):
            v = getattr(self, key)
            if not (is_int(v) and v >= 1):
                raise ConfigError(f"output.{key} must be a positive integer, got {v!r}")
        if not isinstance(self.binary_fields, bool):
            raise ConfigError(
                f"output.binary_fields must be true or false, got {self.binary_fields!r}"
            )
        fw = self.fit_window
        if fw is not None:
            if not (isinstance(fw, (tuple, list)) and len(fw) == 2
                    and all(is_number(v) for v in fw) and fw[0] < fw[1]):
                raise ConfigError(f"output.fit_window must be two increasing numbers, got {fw!r}")
            self.fit_window = tuple(fw)

    # -- JSON round trip ---------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "mode": self.mode,
            "initial_condition": {"kind": "ramp", "l0": self.initial_l0},
            "output": {key: getattr(self, key) for key in _OUTPUT_KEYS},
        }
        for key, (field, _, keys) in _SECTIONS.items():
            section = getattr(self, field)
            if section is not None:
                d[key] = {k: getattr(section, k) for k in keys}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of to_dict.  Each section is a JSON object of its own keys,
        and an absent key takes the default of the field it fills."""
        _section(d, "the config", _TOP_KEYS)
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {d.get('schema_version')!r}"
            )
        ic = _section(d.get("initial_condition", {}), "initial_condition", ("kind", "l0"))
        if "kind" in ic and ic["kind"] != "ramp":
            raise ConfigError(f"initial_condition.kind must be 'ramp', got {ic['kind']!r}")
        kwargs = {"initial_l0": ic["l0"]} if "l0" in ic else {}
        kwargs.update(_section(d.get("output", {}), "output", _OUTPUT_KEYS))
        try:
            for key, (field, cls_, keys) in _SECTIONS.items():
                if key in d:
                    kwargs[field] = cls_(**_section(d[key], key, keys))
            return cls(name=d["name"], mode=d["mode"], **kwargs)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                d = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
            raise ConfigError(f"{path}: not a readable JSON config: {exc}") from exc
        return cls.from_dict(d)


def ramp_initial(grid: Grid1D, l0: float) -> Profile:
    """Initial distribution: 1 below -l0, 0 above l0, linear in between."""
    vals = np.clip((l0 - grid.x) / (2.0 * l0), 0.0, 1.0)
    return Profile(grid, vals)


# -- presets -----------------------------------------------------------------

_RANK_100K = ParticleSpec(n=100_000, rule=RANK, seed=20240801)

#: Shipped, frozen presets: name -> (mode, alpha1, t_final, dt, other fields).
#: Every preset has kappa = 1, rho = 2, dx = 0.05 and the recommended domain.
_PRESETS = {
    "kpp": ("kpp", 1.0, 60.0, 0.01, dict(snapshot_stride=400, fit_window=(30.0, 60.0))),
    "lottery-intrinsic": ("intrinsic", 0.25, 120.0, 0.01, dict(snapshot_stride=800)),
    "lottery-nash": ("nash", 0.25, 40.0, 0.02, dict(snapshot_stride=100)),
    "bgp-probe": ("intrinsic", 4.0, 60.0, 0.02, dict(snapshot_stride=200)),
    "particles-rank": ("particles", 1.0, 50.0, 0.1, dict(
        particles=_RANK_100K, snapshot_stride=25, fit_window=(20.0, 50.0))),
    "particles-ratio": ("particles", 0.5, 20.0, 0.1, dict(
        particles=ParticleSpec(n=20_000, rule=RATIO, seed=42), snapshot_stride=20)),
    "compare-particle-pde": ("compare", 1.0, 50.0, 0.1, dict(
        particles=_RANK_100K, snapshot_stride=25, fit_window=(20.0, 50.0))),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_config(name: str) -> ExperimentConfig:
    """Shipped, frozen experiment configurations."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {', '.join(PRESET_NAMES)}")
    mode, alpha1, t_final, dt, kwargs = _PRESETS[name]
    p = ModelParams(kappa=1.0, rho=2.0, alpha1=alpha1)
    x_min, x_max = recommended_domain(p.kappa, p.alpha1, t_final)
    nx = int(round((x_max - x_min) / 0.05)) + 1
    grid = Grid1D(x_min, x_max, nx, 0.0, t_final, int(round(t_final / dt)))
    return ExperimentConfig(name=name, mode=mode, params=p, grid=grid, **kwargs)


# -- output writers ----------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _csv_rows(rows: Iterable[tuple], width: int) -> list[str]:
    """Each row of width floats as one CSV line, every value formatted as _fmt does."""
    fmt = ",".join(["%.17g"] * width)
    return [fmt % row for row in rows]


def _write_snapshot(
    cfg: ExperimentConfig, out: Path, j: int, t: float, cols: dict[str, np.ndarray]
) -> None:
    """Write slice j's fields to out/fields as npz, or as CSV with NaN for absent columns."""
    fields_dir = out / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    x = cfg.grid.x
    if cfg.binary_fields:
        np.savez_compressed(fields_dir / f"snap_{j:06d}.npz", t=t, x=x, **cols)
        return
    names = ["x", "F", "w", "I", "J", "s"]
    columns = [x.tolist()] + [cols[n].tolist() if n in cols else [math.nan] * x.size
                              for n in names[1:]]
    lines = [f"# t={_fmt(t)}", ",".join(names), *_csv_rows(zip(*columns), len(names))]
    (fields_dir / f"snap_{j:06d}.csv").write_text("\n".join(lines) + "\n")


def _snapshot(grid: Grid1D, t: float, cols: dict[str, np.ndarray]) -> Snapshot:
    """Snapshot of one slice's columns; a column absent or not finite is left out."""

    def prof(name: str) -> Profile | None:
        v = cols.get(name)
        return Profile(grid, v) if v is not None and np.all(np.isfinite(v)) else None

    return Snapshot(t=t, F=prof("F"), w=prof("w"), payoff=prof("I"),
                    intrinsic=prof("J"), strategy=prof("s"))


def _read_snapshot(path: Path) -> Snapshot:
    """Inverse of _write_snapshot for one CSV or npz file."""
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as data:
            cols = {name: np.atleast_1d(data[name]) for name in data.files if name != "t"}
            t = float(data["t"])
    else:
        with open(path) as f:
            header = f.readline().strip()
        if not header.startswith("# t="):
            raise ConfigError(f"{path}: missing '# t=' header")
        t = float(header[4:])
        data = np.genfromtxt(path, delimiter=",", names=True, skip_header=1)
        cols = {name: np.atleast_1d(data[name]) for name in data.dtype.names}
    x = cols["x"]
    return _snapshot(Grid1D(float(x[0]), float(x[-1]), x.size, t, t, 0), t, cols)


def _diagnose(config: ExperimentConfig, snaps: list[Snapshot]) -> DiagnosticsReport:
    # The temporal checks are mean-field statements; particle fields are
    # finite-sample estimates, so their runs get the static checks only.
    temporal = config.mode in ("kpp", "intrinsic", "nash")
    return run_diagnostics(snaps, config.params, temporal=temporal)


def diagnose_run_dir(run_dir: str | Path) -> DiagnosticsReport:
    """Re-evaluate the diagnostics of a run directory (or its fields/) from its files."""
    run_dir = Path(run_dir)
    if run_dir.name == "fields":
        run_dir = run_dir.parent
    config = ExperimentConfig.from_json_file(run_dir / "config.json")
    fields = run_dir / "fields"
    paths = sorted([*fields.glob("snap_*.csv"), *fields.glob("snap_*.npz")])
    if not paths:
        raise ConfigError(f"no field snapshots under {run_dir}")
    return _diagnose(config, [_read_snapshot(f) for f in paths])


def _write_tracks(path: Path, rows: list[tuple[float, float, float, float]]) -> None:
    lines = ["t,x_median,x_learning,x_intrinsic", *_csv_rows(rows, 4)]
    path.write_text("\n".join(lines) + "\n")


def _write_diagnostics(path: Path, rows: list[tuple]) -> None:
    lines = ["check,time,passed,worst_violation,location"]
    for check, t, passed, worst, loc in rows:
        lines.append(f"{check},{_fmt(t)},{passed},{_fmt(worst)},{_fmt(loc)}")
    path.write_text("\n".join(lines) + "\n")


def _speed_entry(rows: list[tuple], kind: str, window: tuple[float, float]) -> dict | None:
    """Speed fit of one front column of the track rows; None when it cannot be fitted."""
    arr = np.array(rows)
    col = {"median": 1, "learning": 2, "intrinsic": 3}[kind]
    try:
        fit = estimate_speed(FrontTrack(kind, arr[:, 0], arr[:, col]), window)
    except KdlabError:
        return None
    return {
        "speed": fit.speed,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "window": list(fit.window),
        "n_samples": fit.n_samples,
    }


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(obj, path: str | Path, config: ExperimentConfig | None = None) -> None:
    """Serialize a ParticleState losslessly.

    The archive is written to a temporary file next to path and then renamed
    over it, so a crash mid-write leaves the previous checkpoint intact.
    """
    if not isinstance(obj, ParticleState):
        raise CheckpointError(f"cannot checkpoint objects of type {type(obj).__name__}")
    path = Path(path)
    meta = {"checkpoint_version": CHECKPOINT_VERSION, "code_version": __version__}
    if config is not None:
        meta["config"] = config.to_dict()
    tmp = path.with_name(path.name + ".tmp")
    try:
        # A file object, not a name: np.savez would append ".npz" to a name.
        with open(tmp, "wb") as f:
            np.savez(
                f, kind="particles", meta=json.dumps(meta, sort_keys=True),
                positions=obj.positions, time=obj.time, seed=obj.seed,
                step_index=obj.step_index, stream_ids=obj.stream_ids,
            )
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> tuple[ParticleState, ExperimentConfig | None]:
    """Inverse of save_checkpoint; returns (state, config-or-None)."""
    path = Path(path)
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    with data:
        try:
            return _checkpoint_from_npz(data)
        except KeyError as exc:
            raise CheckpointError(f"checkpoint {path} lacks key {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint {path} has malformed meta: {exc}") from exc


def _checkpoint_from_npz(data) -> tuple[ParticleState, ExperimentConfig | None]:
    meta = json.loads(str(data["meta"]))
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint meta must be a JSON object")
    if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {meta.get('checkpoint_version')!r} unsupported"
        )
    try:
        config = ExperimentConfig.from_dict(meta["config"]) if "config" in meta else None
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint holds a malformed config: {exc}") from exc
    kind = str(data["kind"])
    if kind != "particles":
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    state = ParticleState(
        positions=data["positions"], time=float(data["time"]),
        seed=int(data["seed"]), step_index=int(data["step_index"]),
        stream_ids=data["stream_ids"],
    )
    return state, config


# -- runners -----------------------------------------------------------------


@dataclass
class RunResult:
    out_dir: Path
    manifest: dict
    final_state: ParticleState | None = None


def _front_row(grid: Grid1D, p: ModelParams, t: float, cols: dict[str, np.ndarray]) -> tuple:
    """(t, median, learning, intrinsic) fronts of one slice.

    The learning front is the pay-off front where the slice has I, else the
    intrinsic front.
    """
    x = grid.x
    e = _front(cols["J"], x, p.i_crit)
    eta = _front(cols["I"], x, p.i_crit) if "I" in cols else e
    return (t, _front(cols["F"], x, 0.5), eta, e)


class _Recorder:
    """Samples one run's slices into front-track rows and field snapshots.

    A slice j gets a track row when j is a multiple of track_stride, and is
    written to fields/ and kept for the diagnostics when j is a multiple of
    snapshot_stride; the last step always gets both (see sampled).
    strategy, when given, computes the s column from the slice's columns, at
    snapshot steps only.
    """

    def __init__(
        self, cfg: ExperimentConfig, out: Path,
        strategy: Callable[[dict], np.ndarray] | None = None, last_step: int | None = None,
    ) -> None:
        self.cfg, self.out, self.strategy = cfg, out, strategy
        self.last_step = cfg.grid.nt if last_step is None else last_step
        self.rows: list[tuple] = []
        self.snaps: list[Snapshot] = []

    def sampled(self, j: int) -> tuple[bool, bool]:
        """Whether slice j gets (a track row, a snapshot); a slice with neither is unused."""
        last = j == self.last_step
        return j % self.cfg.track_stride == 0 or last, j % self.cfg.snapshot_stride == 0 or last

    def record(self, j: int, cols: dict[str, np.ndarray]) -> bool:
        """Record slice j's columns (F and J, plus w, I, s where known); True at a snapshot."""
        cfg, t = self.cfg, self.cfg.grid.time_at(j)
        track, snapshot = self.sampled(j)
        if track:
            self.rows.append(_front_row(cfg.grid, cfg.params, t, cols))
        if not snapshot:
            return False
        if self.strategy is not None:
            cols = {**cols, "s": self.strategy(cols)}
        _write_snapshot(cfg, self.out, j, t, cols)
        self.snaps.append(_snapshot(cfg.grid, t, cols))
        return True


def _run_pde(cfg: ExperimentConfig, out: Path) -> _Recorder:
    """Streaming forward run for the kpp / intrinsic modes."""
    p, grid = cfg.params, cfg.grid
    if cfg.mode == "kpp":
        strategy, s_of = CONSTANT_ALPHA, lambda c: np.ones_like(c["F"])
    else:
        strategy, s_of = INTRINSIC, lambda c: model.s_m(c["J"], p)
    rec = _Recorder(cfg, out, s_of)
    for j, F, J in iter_forward(ramp_initial(grid, cfg.initial_l0), strategy, p, grid):
        rec.record(j, {"F": F, "J": J})
    return rec


def _run_nash(cfg: ExperimentConfig, out: Path) -> tuple[_Recorder, dict]:
    p, grid = cfg.params, cfg.grid
    sol = solve_nash(ramp_initial(grid, cfg.initial_l0), cfg.terminal, p, grid, cfg.mfg)
    rec = _Recorder(cfg, out)
    fields = zip(sol.F_field.values, sol.w_field.values, sol.strategy_field.values)
    for j, (F, w, s) in enumerate(fields):
        if any(rec.sampled(j)):
            payoff = model.discounted_tail(F * w, grid.dx, p.rho_minus_kappa)
            intrinsic = model.discounted_tail(F, grid.dx, p.rho_minus_kappa)
            rec.record(j, {"F": F, "w": w, "I": payoff, "J": intrinsic, "s": s})
    mfg_info = {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "residuals": sol.residuals,
        "thetas": sol.thetas,
        "contraction": sol.contraction,
    }
    return rec, mfg_info


def _run_particles(
    cfg: ExperimentConfig, out: Path, max_steps: int | None = None,
    state: ParticleState | None = None,
) -> tuple[_Recorder, ParticleState, dict]:
    """Particle run from state (fresh when None), checkpointed at every snapshot.

    Also returns the largest counts of agents below and above the grid over
    the recorded steps.
    """
    p, grid, spec = cfg.params, cfg.grid, cfg.particles
    rule = spec.make_rule()
    if state is None:
        init = ramp_initial(grid, cfg.initial_l0)
        state = ParticleState(
            positions=_sample_from_cdf(init, spec.n, spec.seed), time=grid.t0, seed=spec.seed
        )
    last_step = grid.nt if max_steps is None else min(grid.nt, state.step_index + max_steps)
    # The s column a snapshot records: the rule's strategy read off the field
    # estimate; smoothed-rank has no node-wise form, so its snapshots have none.
    strategy = {
        RANK: lambda c: c["F"].copy(),
        RATIO: lambda c: np.minimum(1.0, p.rho_minus_kappa * c["J"]),
    }.get(spec.rule)
    rec = _Recorder(cfg, out, strategy, last_step)
    stragglers = {"n_below_max": 0, "n_above_max": 0}
    while True:
        if any(rec.sampled(state.step_index)):
            est = empirical_cdf(state, grid)
            stragglers["n_below_max"] = max(stragglers["n_below_max"], est.n_below)
            stragglers["n_above_max"] = max(stragglers["n_above_max"], est.n_above)
            F = est.profile.values
            J = model.discounted_tail(F, grid.dx, p.rho_minus_kappa)
            if rec.record(state.step_index, {"F": F, "J": J}):
                save_checkpoint(state, out / "checkpoint.npz", config=cfg)
        if state.step_index >= last_step:
            return rec, state, stragglers
        state = step_particles(state, rule, p, grid.dt)


def _sample_from_cdf(init: Profile, n: int, seed: int) -> np.ndarray:
    """Draw agent positions whose distribution matches the initial profile."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 3], dtype=np.uint64)))
    u = rng.random(n)
    # init holds the fraction above x (decreasing); 1 - init is the usual CDF,
    # increasing in x, which np.interp inverts directly.
    return np.interp(u, 1.0 - init.values, init.grid.x)


def _compare_pde_rows(cfg: ExperimentConfig) -> list[tuple]:
    """Front rows, at every particle step, of the local rank-strategy PDE run."""
    p, grid = cfg.params, cfg.grid
    # The tau-leap step is too coarse for the PDE side; refine in time only.
    refine = max(1, int(math.ceil(grid.dt / 0.02)))
    fine = Grid1D(grid.x_min, grid.x_max, grid.nx, grid.t0, grid.t_final, grid.nt * refine)
    steps = iter_forward(ramp_initial(fine, cfg.initial_l0), RANK_LOCAL, p, fine)
    return [
        _front_row(fine, p, fine.time_at(j),
                   {"F": F, "J": model.discounted_tail(F, fine.dx, p.rho_minus_kappa)})
        for j, F, _ in steps if j % refine == 0
    ]


def _execute(
    config: ExperimentConfig, out_dir: str | Path, max_steps: int | None = None,
    state: ParticleState | None = None,
) -> RunResult:
    """Run config into out_dir and write every artifact of its run directory.

    With a particle state the run continues from it, and the manifest records
    the step it resumed from.
    """
    # Fields may have been set since construction: check the config again
    # before anything is written.
    config = replace(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.to_json() + "\n")
    manifest: dict = {}
    final_state = None
    pde_rows = None
    if config.mode in ("kpp", "intrinsic"):
        rec = _run_pde(config, out)
    elif config.mode == "nash":
        rec, manifest["mfg"] = _run_nash(config, out)
    else:
        rec, final_state, manifest["particles"] = _run_particles(config, out, max_steps, state)
        if config.mode == "compare":
            pde_rows = _compare_pde_rows(config)

    _write_tracks(out / "tracks.csv", rec.rows)
    window = config.fit_window or default_window(config.grid.t0, config.grid.t_final)
    speeds = {kind: _speed_entry(rec.rows, kind, window)
              for kind in ("median", "learning", "intrinsic")}
    if pde_rows is not None:
        _write_tracks(out / "pde_tracks.csv", pde_rows)
        speeds["pde_median"] = _speed_entry(pde_rows, "median", window)
    (out / "speeds.json").write_text(json.dumps(speeds, indent=2, sort_keys=True) + "\n")

    report = _diagnose(config, rec.snaps)
    _write_diagnostics(out / "diagnostics.csv", report.to_rows())

    th = TheoryPredictions.from_params(config.params)
    manifest.update({
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "mode": config.mode,
        "name": config.name,
        "config_sha256": hashlib.sha256(config.to_json().encode()).hexdigest(),
        "seeds": {"particles": config.particles.seed} if config.particles else {},
        "speeds": speeds,
        "theory": {
            "median_speed": th.c_star,
            "learning_speed": th.v_star,
            "decay_rate": th.lambda_star,
            "search_threshold": th.i_crit if math.isfinite(th.i_crit) else None,
            "regime": th.regime,
        },
        "diagnostics_passed": report.passed,
        "diagnostics_failures": [r.check for r in report.failures()],
    })
    if max_steps is not None:
        manifest["partial"] = True
    if state is not None:
        manifest["resumed_from_step"] = state.step_index
    manifest["files"] = {
        str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.rglob("*")) if f.is_file() and f.name != "manifest.json"
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return RunResult(out_dir=out, manifest=manifest, final_state=final_state)


def run(
    config: ExperimentConfig, out_dir: str | Path, max_steps: int | None = None
) -> RunResult:
    """Execute one experiment and write its artifact files.

    max_steps truncates a particle run after that many steps (checkpoint
    included), which is how interrupted-run recovery is exercised; PDE modes
    always run to completion.
    """
    return _execute(config, out_dir, max_steps)


def resume(checkpoint_path: str | Path, out_dir: str | Path) -> RunResult:
    """Continue a particle run from a checkpoint to its configured end.

    The run directory holds the same files as a fresh run's, with tracks and
    snapshots from the checkpoint step on; the manifest adds resumed_from_step.
    """
    state, config = load_checkpoint(checkpoint_path)
    if config is None:
        raise CheckpointError("resume needs a checkpoint with an embedded config")
    if config.mode not in ("particles", "compare"):
        raise ConfigError(f"resume supports particle runs, not mode {config.mode!r}")
    return _execute(config, out_dir, state=state)
