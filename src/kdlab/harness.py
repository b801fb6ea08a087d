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
import zipfile
import zlib
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__, model
from .analysis import (
    DiagnosticsReport,
    FrontTrack,
    Snapshot,
    default_window,
    estimate_speed,
    run_diagnostics,
)
from .backward import TerminalCondition
from .errors import CheckpointError, ConfigError, DomainError, KdlabError
from .forward import CONSTANT_ALPHA, INTRINSIC, RANK_LOCAL, iter_forward
from .grid import Grid1D, Profile, is_int, is_number, recommended_domain
from .mfg import MfgConfig, solve_nash
from .model import ModelParams, TheoryPredictions
from .particles import RANK, RATIO, ParticleState, StrategyRule, initial_state, iter_particles

SCHEMA_VERSION = 1
CHECKPOINT_VERSION = 2
MODES = ("kpp", "intrinsic", "nash", "particles")
OUTPUT_ROOT_ENV = "KDLAB_OUT"


@dataclass(frozen=True)
class ParticleSpec:
    n: int
    seed: int  # mandatory: particle runs are only reproducible with one
    rule: str = RANK

    def __post_init__(self) -> None:
        if not (is_int(self.n) and self.n >= 2):
            raise ConfigError(f"particles.n must be an integer of at least 2, got {self.n!r}")
        if not (is_int(self.seed) and 0 <= self.seed < 2**63):
            raise ConfigError(f"particles.seed must be an integer in [0, 2^63), got {self.seed!r}")
        self.make_rule()  # StrategyRule checks rule

    def make_rule(self) -> StrategyRule:
        return StrategyRule(kind=self.rule)


def check_window(window, where: str) -> tuple[float, float]:
    """window as a fit window: two finite numbers in increasing order; else ConfigError."""
    if not (isinstance(window, (tuple, list)) and len(window) == 2
            and all(is_number(v) for v in window) and window[0] < window[1]):
        raise ConfigError(f"{where} must be two increasing numbers, got {window!r}")
    return tuple(window)


def _keys(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


#: The JSON keys of the output section, each an ExperimentConfig field.
_OUTPUT_KEYS = ("snapshot_stride", "track_stride", "binary_fields", "fit_window")
#: Each config section built by a type: JSON key -> (ExperimentConfig field,
#: type, the JSON keys it takes, the modes that read it).
_SECTIONS = {
    "params": ("params", ModelParams, _keys(ModelParams), MODES),
    "grid": ("grid", Grid1D, _keys(Grid1D), MODES),
    "terminal_condition": ("terminal", TerminalCondition, _keys(TerminalCondition), ("nash",)),
    "mfg": ("mfg", MfgConfig, _keys(MfgConfig), ("nash",)),
    "particles": ("particles", ParticleSpec, _keys(ParticleSpec), ("particles",)),
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
        # A section the mode never reads is refused rather than ignored.
        for key, (field, _, _, modes) in _SECTIONS.items():
            if getattr(self, field) is not None and self.mode not in modes:
                raise ConfigError(f"mode {self.mode!r} reads no {key} section")
        if self.mode == "nash" and self.mfg is None:
            self.mfg = MfgConfig()
        if self.mode == "particles" and self.particles is None:
            raise ConfigError("mode 'particles' needs a particles section")
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
        if self.fit_window is not None:
            self.fit_window = check_window(self.fit_window, "output.fit_window")

    # -- JSON round trip ---------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "mode": self.mode,
            "initial_condition": {"kind": "ramp", "l0": self.initial_l0},
            "output": {key: getattr(self, key) for key in _OUTPUT_KEYS},
        }
        for key, (field, _, keys, _) in _SECTIONS.items():
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
            for key, (field, cls_, keys, _) in _SECTIONS.items():
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
        with open(path) as f, _parsing(path, "JSON config"):
            return cls.from_dict(json.load(f))


def ramp_initial(grid: Grid1D, l0: float) -> Profile:
    """Initial distribution: 1 below -l0, 0 above l0, linear in between."""
    with np.errstate(over="ignore"):  # a subnormal l0 is a step, clipped from +-inf
        vals = np.clip((l0 - grid.x) / (2.0 * l0), 0.0, 1.0)
    return Profile(grid, vals)


# -- presets -----------------------------------------------------------------

#: Shipped, frozen presets: name -> (mode, alpha1, t_final, dt, other fields).
#: Every preset has kappa = 1, rho = 2, dx = 0.05 and the recommended domain.
_PRESETS = {
    "kpp": ("kpp", 1.0, 60.0, 0.01, dict(snapshot_stride=400, fit_window=(30.0, 60.0))),
    "lottery-intrinsic": ("intrinsic", 0.25, 120.0, 0.01, dict(snapshot_stride=800)),
    "lottery-nash": ("nash", 0.25, 40.0, 0.02, dict(snapshot_stride=100)),
    "bgp-probe": ("intrinsic", 4.0, 60.0, 0.02, dict(snapshot_stride=200)),
    "particles-ratio": ("particles", 0.5, 20.0, 0.1, dict(
        particles=ParticleSpec(n=20_000, rule=RATIO, seed=42), snapshot_stride=20)),
    "compare-particle-pde": ("particles", 1.0, 50.0, 0.1, dict(
        particles=ParticleSpec(n=100_000, rule=RANK, seed=20240801), snapshot_stride=25,
        fit_window=(20.0, 50.0))),
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


# -- reading files back ------------------------------------------------------

#: What parsing a file raises: numpy's, zipfile's (EOFError for a member cut
#: short, RuntimeError for an unknown method or an encrypted member, OSError for
#: a seek past the archive), zlib's, json's, and the KdlabError of a value read.
_PARSE_ERRORS = (KdlabError, KeyError, IndexError, TypeError, ValueError, OSError, EOFError,
                 RuntimeError, zipfile.BadZipFile, zlib.error)


@contextmanager
def _parsing(path: str | Path, what: str, error: type[KdlabError] = ConfigError):
    """Make anything reading path raises an error naming it; error itself passes."""
    try:
        yield
    except error:
        raise
    except _PARSE_ERRORS as exc:
        raise error(f"{path}: malformed {what}: {exc!r}") from exc


def _load_npz(f) -> np.lib.npyio.NpzFile:
    """The npz archive in the open binary file f (not a name: np.load leaks the file
    it opens when the zip directory does not parse); a bare array is a ValueError."""
    data = np.load(f, allow_pickle=False)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError("a bare array, not an npz archive")
    return data


def _read_table(f) -> dict[str, np.ndarray]:
    """The columns, by name, of the CSV table in the rest of the open text file f:
    a row of names, then rows of numbers.  No row of names is a ValueError."""
    lines = f.readlines()
    # numpy warns on an empty table; with comments=None, each line that str.strip
    # leaves something of is one genfromtxt reads.
    if not any(line.strip() for line in lines):
        raise ValueError("an empty table")
    data = np.genfromtxt(lines, delimiter=",", names=True, comments=None)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


# -- output writers ----------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _csv_rows(rows: Iterable[tuple], width: int) -> list[str]:
    """Each row of width floats as one CSV line, every value formatted as _fmt does."""
    fmt = ",".join(["%.17g"] * width)
    return [fmt % row for row in rows]


#: The columns of a snapshot file after x, each the Snapshot field of its name.
_COLUMNS = ("F", "w", "I", "J", "s")


def _write_snapshot(cfg: ExperimentConfig, out: Path, j: int, snap: Snapshot) -> None:
    """Write slice j's fields to out/fields as npz, or as CSV with NaN for absent columns."""
    fields_dir = out / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    x = cfg.grid.x
    cols = {name: getattr(snap, name) for name in _COLUMNS if getattr(snap, name) is not None}
    if cfg.binary_fields:
        np.savez_compressed(fields_dir / f"snap_{j:06d}.npz", t=snap.t, x=x, **cols)
        return
    columns = [x.tolist()] + [cols[n].tolist() if n in cols else [math.nan] * x.size
                              for n in _COLUMNS]
    lines = [f"# t={_fmt(snap.t)}", ",".join(("x", *_COLUMNS)),
             *_csv_rows(zip(*columns), len(columns))]
    (fields_dir / f"snap_{j:06d}.csv").write_text("\n".join(lines) + "\n")


def _read_snapshot(path: Path, grid: Grid1D) -> Snapshot:
    """Inverse of _write_snapshot for one CSV or npz file written on grid.

    A column that is not finite everywhere is read as absent.  A file that
    does not parse, whose time is not in the grid's [t0, t_final], whose x
    column is not grid.x, with a column not grid.nx long, that lacks a
    finite F or J column, or whose pay-off (I or J) is negative raises
    ConfigError naming it.  A file that cannot be opened raises the OSError.
    """
    npz = path.suffix == ".npz"
    with open(path, "rb" if npz else "r") as f, _parsing(path, "snapshot"):
        if npz:
            with _load_npz(f) as data:
                cols = {name: np.atleast_1d(data[name]) for name in data.files if name != "t"}
                t = float(data["t"])
        else:
            header = f.readline().strip()
            if not header.startswith("# t="):
                raise ConfigError(f"{path}: missing '# t=' header")
            t = float(header[4:])
            cols = _read_table(f)
        # NaN fails the test too; t0 + nt*dt may round past t_final.
        if not grid.t0 <= t <= max(grid.t_final, grid.time_at(grid.nt)):
            raise ConfigError(f"{path}: time t={t!r} is not in the run grid's [t0, t_final]")
        if not np.array_equal(cols["x"], grid.x):
            raise ConfigError(f"{path}: x column is not the run grid's nodes")
        found = {name: np.asarray(cols[name], dtype=float) for name in _COLUMNS if name in cols}
        for name, v in found.items():
            if v.shape != (grid.nx,):
                raise ConfigError(f"{path}: column {name} has shape {v.shape}, not ({grid.nx},)")
        found = {name: v for name, v in found.items() if np.all(np.isfinite(v))}
        if "F" not in found or "J" not in found:
            raise ConfigError(f"{path}: snapshot has no finite F or J column")
        if any(np.any(found[name] < 0.0) for name in ("I", "J") if name in found):
            raise ConfigError(f"{path}: snapshot has a negative pay-off (I or J) column")
        return Snapshot(t, grid, **found)


def _diagnose(config: ExperimentConfig, snaps: list[Snapshot]) -> DiagnosticsReport:
    # The temporal checks are mean-field statements; particle fields are
    # finite-sample estimates, so their runs get the static checks only.
    temporal = config.mode in ("kpp", "intrinsic", "nash")
    return run_diagnostics(snaps, config.params, temporal=temporal)


def diagnose_run_dir(run_dir: str | Path) -> DiagnosticsReport:
    """Re-evaluate the diagnostics of a run directory (or its fields/) from its files.

    A directory without manifest.json, which a run writes last, is a run that
    did not finish: ConfigError.  The snapshots are read in file-name order,
    which is time order: a snapshot whose time does not exceed the one before
    it (a step held as both CSV and npz included) is a ConfigError naming it.
    """
    run_dir = Path(run_dir)
    if run_dir.name == "fields":
        run_dir = run_dir.parent
    if not (run_dir / "manifest.json").is_file():
        raise ConfigError(f"{run_dir}: no manifest.json, so the run did not finish")
    config = ExperimentConfig.from_json_file(run_dir / "config.json")
    fields = run_dir / "fields"
    paths = sorted([*fields.glob("snap_*.csv"), *fields.glob("snap_*.npz")])
    if not paths:
        raise ConfigError(f"no field snapshots under {run_dir}")
    snaps = [_read_snapshot(f, config.grid) for f in paths]
    for path, before, snap in zip(paths[1:], snaps, snaps[1:]):
        if not snap.t > before.t:
            raise ConfigError(f"{path}: time t={snap.t!r} does not follow the previous "
                              f"snapshot's t={before.t!r}")
    return _diagnose(config, snaps)


#: The fronts of a track row after t, in Snapshot.fronts' order; front k's column is x_k.
FRONTS = ("median", "learning", "intrinsic")
_TRACK_COLUMNS = ("t", *(f"x_{kind}" for kind in FRONTS))


def _write_tracks(path: Path, rows: list[tuple[float, float, float, float]]) -> None:
    lines = [",".join(_TRACK_COLUMNS), *_csv_rows(rows, len(_TRACK_COLUMNS))]
    path.write_text("\n".join(lines) + "\n")


def read_tracks(path: str | Path) -> dict[str, FrontTrack]:
    """Inverse of _write_tracks: the track of each front with a finite value, by name.

    A file that does not parse (empty, a ragged row, bytes that are not UTF-8),
    has no t column or whose times decrease is a ConfigError naming it; a file
    not opened, the OSError."""
    with open(path) as f, _parsing(path, "track file"):
        cols = _read_table(f)
        if "t" not in cols:
            raise ConfigError(f"{path}: no 't' column")
        return {kind: FrontTrack(cols["t"], cols[c]) for kind, c in zip(FRONTS, _TRACK_COLUMNS[1:])
                if c in cols and np.any(np.isfinite(cols[c]))}


def _write_diagnostics(path: Path, rows: list[tuple]) -> None:
    lines = ["check,time,passed,worst_violation,location"]
    for check, t, passed, worst, loc in rows:
        lines.append(f"{check},{_fmt(t)},{passed},{_fmt(worst)},{_fmt(loc)}")
    path.write_text("\n".join(lines) + "\n")


def _speed_entry(rows: list[tuple], kind: str, window: tuple[float, float]) -> dict | None:
    """Speed fit of one front column of the track rows; None when it cannot be fitted."""
    arr = np.array(rows)
    try:
        fit = estimate_speed(FrontTrack(arr[:, 0], arr[:, 1 + FRONTS.index(kind)]), window)
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
    """Serialize a ParticleState losslessly: its positions, seed and step index.

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
                positions=obj.positions, seed=obj.seed, step_index=obj.step_index,
            )
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> tuple[ParticleState, ExperimentConfig | None]:
    """Inverse of save_checkpoint; returns (state, config-or-None).

    A file that holds no readable checkpoint of this version is a
    CheckpointError naming it; a file not opened, the OSError.  A state that
    contradicts its embedded config (a config of no particle run, another
    agent count or seed, or a step past the grid's last) is a CheckpointError
    too.
    """
    with open(path, "rb") as f, _parsing(path, "checkpoint", CheckpointError), _load_npz(f) as data:
        return _checkpoint_from_npz(data)


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
    positions = data["positions"]
    if positions.ndim != 1 or positions.dtype.kind not in "iuf":
        raise CheckpointError(
            f"checkpoint positions must be a 1-D real array, got {positions.dtype}"
            f" of shape {positions.shape}"
        )
    state = ParticleState(
        positions=positions, seed=_checkpoint_scalar(data, "seed"),
        step_index=_checkpoint_scalar(data, "step_index"),
    )
    # A resumed run takes its agent count, seed and horizon from the config,
    # so a state that disagrees with them would continue another run.
    if config is not None:
        if config.particles is None:
            raise CheckpointError(f"checkpoint holds a mode {config.mode!r} config, "
                                  "not a particle run's")
        spec, nt = config.particles, config.grid.nt
        if (state.n, state.seed) != (spec.n, spec.seed) or state.step_index > nt:
            raise CheckpointError(
                f"checkpoint state ({state.n} agents, seed {state.seed}, step "
                f"{state.step_index}) contradicts its config ({spec.n} agents, seed "
                f"{spec.seed}, {nt} steps)"
            )
    return state, config


def _checkpoint_scalar(data, key: str) -> int:
    """data[key] as a non-negative int; else CheckpointError."""
    v = data[key]
    if not (v.shape == () and v.dtype.kind in "iu" and v >= 0):
        raise CheckpointError(f"checkpoint {key} must be a non-negative integer, got {v!r}")
    return int(v)


# -- runners -----------------------------------------------------------------


@dataclass
class RunResult:
    out_dir: Path
    manifest: dict
    final_state: ParticleState | None = None


class _Recorder:
    """Samples one run's slices into front-track rows and field snapshots.

    A slice j gets a track row when j is a multiple of track_stride, and is
    written to fields/ and kept for the diagnostics when j is a multiple of
    snapshot_stride; the last step always gets both (see sampled).  Every
    column comes from the caller, s included: a caller that computes s only
    for the recorder asks sampled first.
    """

    def __init__(self, cfg: ExperimentConfig, out: Path, last_step: int | None = None) -> None:
        self.cfg, self.out = cfg, out
        self.last_step = cfg.grid.nt if last_step is None else last_step
        self.rows: list[tuple] = []
        self.snaps: list[Snapshot] = []

    def sampled(self, j: int) -> tuple[bool, bool]:
        """Whether slice j gets (a track row, a snapshot); a slice with neither is unused."""
        last = j == self.last_step
        return j % self.cfg.track_stride == 0 or last, j % self.cfg.snapshot_stride == 0 or last

    def record(self, j: int, **cols: np.ndarray) -> bool:
        """Record slice j's columns (F and J, plus w, I, s where known); True at a snapshot."""
        cfg = self.cfg
        track, snapshot = self.sampled(j)
        snap = Snapshot(cfg.grid.time_at(j), cfg.grid, **cols)
        if track:
            self.rows.append((snap.t, *snap.fronts(cfg.params.i_crit)))
        if not snapshot:
            return False
        _write_snapshot(cfg, self.out, j, snap)
        self.snaps.append(snap)
        return True


def _run_pde(cfg: ExperimentConfig, out: Path) -> _Recorder:
    """Streaming forward run for the kpp / intrinsic modes."""
    grid = cfg.grid
    strategy = CONSTANT_ALPHA if cfg.mode == "kpp" else INTRINSIC
    rec = _Recorder(cfg, out)
    for j, F, J, s in iter_forward(ramp_initial(grid, cfg.initial_l0), strategy, cfg.params, grid):
        rec.record(j, F=F, J=J, s=s)
    return rec


def _run_nash(cfg: ExperimentConfig, out: Path) -> tuple[_Recorder, dict]:
    p, grid = cfg.params, cfg.grid
    sol = solve_nash(ramp_initial(grid, cfg.initial_l0), cfg.terminal, p, grid, cfg.mfg)
    rec = _Recorder(cfg, out)
    fields = zip(sol.F_field.values, sol.w_field.values, sol.strategy_field.values)
    for j, (F, w, s) in enumerate(fields):
        if any(rec.sampled(j)):
            rec.record(j, F=F, w=w, s=s,
                       I=model.discounted_tail(F * w, grid.dx, p.rho_minus_kappa),
                       J=model.discounted_tail(F, grid.dx, p.rho_minus_kappa))
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

    The run is a loop over the particle sweep, iter_particles, which owns the
    draw worker, the step buffers and the one sort per state; the loop stops
    at max_steps by returning, which closes the sweep and joins its worker.
    Also returns the largest counts of agents below and above the grid over
    the recorded steps.
    """
    p, grid, spec = cfg.params, cfg.grid, cfg.particles
    if state is None:
        state = initial_state(ramp_initial(grid, cfg.initial_l0), spec.n, spec.seed)
    last_step = grid.nt if max_steps is None else min(grid.nt, state.step_index + max_steps)
    # The s column a snapshot records: the rule's strategy read off the field estimate.
    strategy = {
        RANK: lambda F, J: F.copy(),
        RATIO: lambda F, J: np.minimum(1.0, p.rho_minus_kappa * J),
    }[spec.rule]
    rec = _Recorder(cfg, out, last_step)
    stragglers = {"n_below_max": 0, "n_above_max": 0}
    with closing(iter_particles(state, spec.make_rule(), p, grid)) as sweep:
        for state, est in sweep:
            track, snapshot = rec.sampled(state.step_index)
            if track or snapshot:
                stragglers["n_below_max"] = max(stragglers["n_below_max"], est.n_below)
                stragglers["n_above_max"] = max(stragglers["n_above_max"], est.n_above)
                F = est.profile.values
                J = model.discounted_tail(F, grid.dx, p.rho_minus_kappa)
                s = strategy(F, J) if snapshot else None
                if rec.record(state.step_index, F=F, J=J, s=s):
                    save_checkpoint(state, out / "checkpoint.npz", config=cfg)
            if state.step_index >= last_step:
                return rec, state, stragglers
            del state  # so that the next step frees its positions


def _rank_local_rows(cfg: ExperimentConfig) -> list[tuple]:
    """Front rows, at every particle step, of the rank rule's mean field: the
    rank-local PDE run."""
    p, grid = cfg.params, cfg.grid
    # The tau-leap step is too coarse for the PDE side; refine in time only.
    refine = max(1, int(math.ceil(grid.dt / 0.02)))
    fine = Grid1D(grid.x_min, grid.x_max, grid.nx, grid.t0, grid.t_final, grid.nt * refine)
    steps = iter_forward(ramp_initial(fine, cfg.initial_l0), RANK_LOCAL, p, fine)
    snaps = (Snapshot(fine.time_at(j), fine, F, model.discounted_tail(F, fine.dx, p.rho_minus_kappa))
             for j, F, _, _ in steps if j % refine == 0)
    return [(snap.t, *snap.fronts(p.i_crit)) for snap in snaps]


def _execute(
    config: ExperimentConfig, out_dir: str | Path, max_steps: int | None = None,
    state: ParticleState | None = None,
) -> RunResult:
    """Run config into out_dir and write every artifact of its run directory.

    With a particle state the run continues from it, and the manifest records
    the step it resumed from.  A rank-rule particle run also writes its mean
    field's front track, pde_tracks.csv, and its speed, speeds["pde_median"].
    """
    # Fields may have been set since construction: check the config again
    # before anything is written.
    config = replace(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.to_json() + "\n")
    manifest: dict = {}
    final_state = None
    # The rank rule's mean field is the rank-local equation: a rank-rule run
    # writes that equation's fronts beside its own, and its leading-edge rate
    # is Q(1) where every other run's is alpha1.
    rank = config.particles is not None and config.particles.rule == RANK
    if config.mode in ("kpp", "intrinsic"):
        rec = _run_pde(config, out)
    elif config.mode == "nash":
        rec, manifest["mfg"] = _run_nash(config, out)
    else:
        rec, final_state, manifest["particles"] = _run_particles(config, out, max_steps, state)

    _write_tracks(out / "tracks.csv", rec.rows)
    window = config.fit_window or default_window(config.grid.t0, config.grid.t_final)
    speeds = {kind: _speed_entry(rec.rows, kind, window) for kind in FRONTS}
    if rank:
        pde_rows = _rank_local_rows(config)
        _write_tracks(out / "pde_tracks.csv", pde_rows)
        speeds["pde_median"] = _speed_entry(pde_rows, "median", window)
    (out / "speeds.json").write_text(json.dumps(speeds, indent=2, sort_keys=True) + "\n")

    report = _diagnose(config, rec.snaps)
    _write_diagnostics(out / "diagnostics.csv", report.to_rows())

    p = config.params
    theory = TheoryPredictions.from_params(p, model._q_integral(1.0, p) if rank else None)
    manifest.update({
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "mode": config.mode,
        "name": config.name,
        "config_sha256": hashlib.sha256(config.to_json().encode()).hexdigest(),
        "seeds": {"particles": config.particles.seed} if config.particles else {},
        "speeds": speeds,
        "theory": asdict(theory),
        "diagnostics_passed": report.passed,
        "diagnostics_failures": [r.check for r in report.failures()],
    })
    if final_state is not None and final_state.step_index < config.grid.nt:
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

    max_steps, a non-negative integer, truncates a particle run after that
    many steps (checkpoint included), which is how interrupted-run recovery
    is exercised; PDE modes always run to completion.
    """
    if max_steps is not None and not (is_int(max_steps) and max_steps >= 0):
        raise DomainError(f"max_steps must be a non-negative integer, got {max_steps!r}")
    return _execute(config, out_dir, max_steps)


def resume(checkpoint_path: str | Path, out_dir: str | Path) -> RunResult:
    """Continue a particle run from a checkpoint to its configured end.

    The run directory holds the same files as a fresh run's, with tracks and
    snapshots from the checkpoint step on; the manifest adds resumed_from_step.
    A rank-rule run's pde_tracks.csv is its whole mean-field run, as in the
    fresh run.
    """
    state, config = load_checkpoint(checkpoint_path)
    if config is None:
        raise CheckpointError("resume needs a checkpoint with an embedded config")
    return _execute(config, out_dir, state=state)
