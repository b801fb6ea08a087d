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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, model
from .analysis import (
    FrontTrack,
    Snapshot,
    SpeedFit,
    default_window,
    estimate_speed,
    locate_level,
    run_diagnostics,
)
from .backward import TerminalCondition
from .errors import (
    CheckpointError,
    ConfigError,
    FrontBracketError,
    KdlabError,
)
from .forward import CONSTANT_ALPHA, INTRINSIC, iter_forward, solve_rank_local
from .grid import Grid1D, Profile, SpaceTimeField, recommended_domain
from .mfg import MfgConfig, solve_nash
from .model import ModelParams, TheoryPredictions
from .particles import (
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
    rule: str = "rank"
    kernel_width: float | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigError("particle count must be at least 2")

    def make_rule(self) -> StrategyRule:
        return StrategyRule(kind=self.rule, kernel_width=self.kernel_width)


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
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "nash" and self.mfg is None:
            self.mfg = MfgConfig()
        if self.mode in ("particles", "compare"):
            if self.particles is None:
                raise ConfigError(f"mode {self.mode!r} needs a particles section")
        if not self.initial_l0 > 0:
            raise ConfigError("initial_l0 must be positive")
        if self.snapshot_stride < 1 or self.track_stride < 1:
            raise ConfigError("strides must be positive")

    # -- JSON round trip ---------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "mode": self.mode,
            "params": {
                "kappa": self.params.kappa,
                "rho": self.params.rho,
                "alpha1": self.params.alpha1,
                "k": self.params.k,
            },
            "grid": {
                "x_min": self.grid.x_min,
                "x_max": self.grid.x_max,
                "nx": self.grid.nx,
                "t0": self.grid.t0,
                "t_final": self.grid.t_final,
                "nt": self.grid.nt,
            },
            "initial_condition": {"kind": "ramp", "l0": self.initial_l0},
            "output": {
                "snapshot_stride": self.snapshot_stride,
                "track_stride": self.track_stride,
                "binary_fields": self.binary_fields,
                "fit_window": list(self.fit_window) if self.fit_window else None,
            },
        }
        if self.terminal is not None:
            d["terminal_condition"] = {
                "kind": self.terminal.kind,
                "center": self.terminal.center,
                "slope": self.terminal.slope,
            }
        if self.mfg is not None:
            d["mfg"] = {
                "theta": self.mfg.theta,
                "tol": self.mfg.tol,
                "max_iter": self.mfg.max_iter,
                "burn_in_frac": self.mfg.burn_in_frac,
                "terminal_trim_frac": self.mfg.terminal_trim_frac,
            }
        if self.particles is not None:
            d["particles"] = {
                "n": self.particles.n,
                "rule": self.particles.rule,
                "seed": self.particles.seed,
                "kernel_width": self.particles.kernel_width,
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            if d.get("schema_version") != SCHEMA_VERSION:
                raise ConfigError(
                    f"schema_version must be {SCHEMA_VERSION}, got {d.get('schema_version')!r}"
                )
            params = ModelParams(**d["params"])
            grid = Grid1D(**d["grid"])
            ic = d.get("initial_condition", {"kind": "ramp", "l0": 5.0})
            if ic.get("kind", "ramp") != "ramp":
                raise ConfigError("initial_condition.kind must be 'ramp'")
            terminal = None
            if "terminal_condition" in d:
                tc = d["terminal_condition"]
                terminal = TerminalCondition(
                    kind=tc.get("kind", "logistic"),
                    center=tc.get("center", 0.0),
                    slope=tc.get("slope", 1.0),
                )
            mfg = MfgConfig(**d["mfg"]) if "mfg" in d else None
            particles = ParticleSpec(**d["particles"]) if "particles" in d else None
            out = d.get("output", {})
            fw = out.get("fit_window")
            return cls(
                name=d["name"],
                mode=d["mode"],
                params=params,
                grid=grid,
                initial_l0=float(ic.get("l0", 5.0)),
                terminal=terminal,
                mfg=mfg,
                particles=particles,
                snapshot_stride=int(out.get("snapshot_stride", 100)),
                track_stride=int(out.get("track_stride", 1)),
                binary_fields=bool(out.get("binary_fields", False)),
                fit_window=tuple(fw) if fw else None,
            )
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
        return cls.from_dict(d)


def ramp_initial(grid: Grid1D, l0: float) -> Profile:
    """Initial distribution: 1 below -l0, 0 above l0, linear in between."""
    vals = np.clip((l0 - grid.x) / (2.0 * l0), 0.0, 1.0)
    return Profile(grid, vals)


# -- presets -----------------------------------------------------------------


def _grid_for(p: ModelParams, t_final: float, dx: float, dt: float) -> Grid1D:
    x_min, x_max = recommended_domain(p.kappa, p.alpha1, t_final)
    nx = int(round((x_max - x_min) / dx)) + 1
    nt = int(round(t_final / dt))
    return Grid1D(x_min, x_max, nx, 0.0, t_final, nt)


def preset_config(name: str) -> ExperimentConfig:
    """Shipped, frozen experiment configurations."""
    if name == "kpp":
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=1.0)
        grid = Grid1D(-20.0, 160.0, 3601, 0.0, 60.0, 6000)
        return ExperimentConfig(
            name=name, mode="kpp", params=p, grid=grid,
            snapshot_stride=400, fit_window=(30.0, 60.0),
        )
    if name == "lottery-intrinsic":
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25)
        return ExperimentConfig(
            name=name, mode="intrinsic", params=p,
            grid=_grid_for(p, 120.0, 0.05, 0.01), snapshot_stride=800,
        )
    if name == "lottery-nash":
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25)
        return ExperimentConfig(
            name=name, mode="nash", params=p,
            grid=_grid_for(p, 40.0, 0.05, 0.02), mfg=MfgConfig(),
            snapshot_stride=100,
        )
    if name == "bgp-probe":
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=4.0)
        return ExperimentConfig(
            name=name, mode="intrinsic", params=p,
            grid=_grid_for(p, 60.0, 0.05, 0.02), snapshot_stride=200,
        )
    if name == "particles-rank":
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=1.0)
        grid = _grid_for(p, 50.0, 0.05, 0.1)
        return ExperimentConfig(
            name=name, mode="particles", params=p, grid=grid,
            particles=ParticleSpec(n=100_000, rule="rank", seed=20240801),
            snapshot_stride=25, fit_window=(20.0, 50.0),
        )
    if name == "particles-ratio":
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)
        grid = _grid_for(p, 20.0, 0.05, 0.1)
        return ExperimentConfig(
            name=name, mode="particles", params=p, grid=grid,
            particles=ParticleSpec(n=20_000, rule="ratio", seed=42),
            snapshot_stride=20,
        )
    if name == "compare-particle-pde":
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=1.0)
        grid = _grid_for(p, 50.0, 0.05, 0.1)
        return ExperimentConfig(
            name=name, mode="compare", params=p, grid=grid,
            particles=ParticleSpec(n=100_000, rule="rank", seed=20240801),
            snapshot_stride=25, fit_window=(20.0, 50.0),
        )
    raise ConfigError(f"unknown preset {name!r}; have {', '.join(PRESET_NAMES)}")


PRESET_NAMES = (
    "kpp",
    "lottery-intrinsic",
    "lottery-nash",
    "bgp-probe",
    "particles-rank",
    "particles-ratio",
    "compare-particle-pde",
)


# -- output writers ----------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.17g}"


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
    arrays = [x] + [cols.get(n, np.full_like(x, math.nan)) for n in names[1:]]
    lines = [f"# t={_fmt(t)}", ",".join(names)]
    for row in zip(*arrays):
        lines.append(",".join(_fmt(v) for v in row))
    (fields_dir / f"snap_{j:06d}.csv").write_text("\n".join(lines) + "\n")


def _write_tracks(path: Path, rows: list[tuple[float, float, float, float]]) -> None:
    lines = ["t,x_median,x_learning,x_intrinsic"]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_diagnostics(path: Path, rows: list[tuple]) -> None:
    lines = ["check,time,passed,worst_violation,location"]
    for check, t, passed, worst, loc in rows:
        lines.append(f"{check},{_fmt(t)},{passed},{_fmt(worst)},{_fmt(loc)}")
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _fit_or_none(track: FrontTrack, window: tuple[float, float]) -> SpeedFit | None:
    try:
        return estimate_speed(track, window)
    except KdlabError:
        return None


def _speeds_entry(fit: SpeedFit | None) -> dict | None:
    if fit is None:
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
    """Serialize a ParticleState, SpaceTimeField, or Profile losslessly.

    The archive is written to a temporary file next to path and then renamed
    over it, so a crash mid-write leaves the previous checkpoint intact.
    """
    path = Path(path)
    meta = {"checkpoint_version": CHECKPOINT_VERSION, "code_version": __version__}
    if config is not None:
        meta["config"] = config.to_dict()
    if isinstance(obj, ParticleState):
        arrays = dict(
            kind="particles", meta=json.dumps(meta, sort_keys=True),
            positions=obj.positions, time=obj.time, seed=obj.seed,
            step_index=obj.step_index, stream_ids=obj.stream_ids,
        )
    elif isinstance(obj, (SpaceTimeField, Profile)):
        g = obj.grid
        arrays = dict(
            kind="field" if isinstance(obj, SpaceTimeField) else "profile",
            meta=json.dumps(meta, sort_keys=True), values=obj.values,
            grid=np.array([g.x_min, g.x_max, g.nx, g.t0, g.t_final, g.nt]),
        )
    else:
        raise CheckpointError(f"cannot checkpoint objects of type {type(obj).__name__}")
    tmp = path.with_name(path.name + ".tmp")
    try:
        # A file object, not a name: np.savez would append ".npz" to a name.
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path):
    """Inverse of save_checkpoint; returns (object, config-or-None)."""
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


def _checkpoint_from_npz(data):
    meta = json.loads(str(data["meta"]))
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint meta must be a JSON object")
    if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {meta.get('checkpoint_version')!r} unsupported"
        )
    config = ExperimentConfig.from_dict(meta["config"]) if "config" in meta else None
    kind = str(data["kind"])
    if kind == "particles":
        state = ParticleState(
            positions=data["positions"], time=float(data["time"]),
            seed=int(data["seed"]), step_index=int(data["step_index"]),
            stream_ids=data["stream_ids"],
        )
        return state, config
    g = data["grid"]
    grid = Grid1D(float(g[0]), float(g[1]), int(g[2]), float(g[3]), float(g[4]), int(g[5]))
    if kind == "field":
        return SpaceTimeField(grid, data["values"]), config
    if kind == "profile":
        return Profile(grid, data["values"]), config
    raise CheckpointError(f"unknown checkpoint kind {kind!r}")


def checkpoint_roundtrip(obj, path: str | Path):
    """Write obj to path and read it back; the result compares equal."""
    save_checkpoint(obj, path)
    loaded, _ = load_checkpoint(path)
    return loaded


# -- runners -----------------------------------------------------------------


@dataclass
class RunResult:
    out_dir: Path
    manifest: dict
    final_state: ParticleState | None = None


def _try_front(prof: Profile, level: float) -> float:
    try:
        return locate_level(prof, level, "decreasing", check_monotone=False)
    except FrontBracketError:
        return math.nan


class _TrackRecorder:
    def __init__(self) -> None:
        self.rows: list[tuple[float, float, float, float]] = []

    def add(self, t: float, median: float, learning: float, intrinsic: float) -> None:
        self.rows.append((t, median, learning, intrinsic))

    def track(self, kind: str) -> FrontTrack:
        col = {"median": 1, "learning": 2, "intrinsic": 3}[kind]
        arr = np.array(self.rows)
        return FrontTrack(kind, arr[:, 0], arr[:, col])


def _run_pde(cfg: ExperimentConfig, out: Path) -> tuple[_TrackRecorder, list[Snapshot]]:
    """Streaming forward run for the kpp / intrinsic modes."""
    p, grid = cfg.params, cfg.grid
    F0 = ramp_initial(grid, cfg.initial_l0)
    strategy = CONSTANT_ALPHA if cfg.mode == "kpp" else INTRINSIC
    rec = _TrackRecorder()
    snaps: list[Snapshot] = []
    for j, vals in iter_forward(F0, strategy, p, grid):
        t = grid.time_at(j)
        J = model.discounted_tail(vals, grid.dx, p.rho_minus_kappa)
        Jprof = Profile(grid, J)
        if j % cfg.track_stride == 0 or j == grid.nt:
            med = _try_front(Profile(grid, vals), 0.5)
            e_l = _try_front(Jprof, p.i_crit)
            rec.add(t, med, e_l, e_l)
        if j % cfg.snapshot_stride == 0 or j == grid.nt:
            s_vals = np.ones_like(vals) if cfg.mode == "kpp" else model.s_m(J, p)
            snaps.append(
                Snapshot(t=t, F=Profile(grid, vals.copy()), intrinsic=Jprof,
                         strategy=Profile(grid, s_vals))
            )
            _write_snapshot(cfg, out, j, t, {"F": vals, "J": J, "s": s_vals})
    return rec, snaps


def _run_nash(cfg: ExperimentConfig, out: Path) -> tuple[_TrackRecorder, list[Snapshot], dict]:
    p, grid = cfg.params, cfg.grid
    F0 = ramp_initial(grid, cfg.initial_l0)
    sol = solve_nash(F0, cfg.terminal, p, grid, cfg.mfg)
    payoff = model.discounted_tail(
        sol.F_field.values * sol.w_field.values, grid.dx, p.rho_minus_kappa
    )
    intrinsic = model.discounted_tail(sol.F_field.values, grid.dx, p.rho_minus_kappa)
    rec = _TrackRecorder()
    snaps: list[Snapshot] = []
    for j in range(grid.nt + 1):
        t = grid.time_at(j)
        Fp = Profile(grid, sol.F_field.values[j])
        Ip = Profile(grid, payoff[j])
        Jp = Profile(grid, intrinsic[j])
        if j % cfg.track_stride == 0 or j == grid.nt:
            rec.add(t, _try_front(Fp, 0.5), _try_front(Ip, p.i_crit), _try_front(Jp, p.i_crit))
        if j % cfg.snapshot_stride == 0 or j == grid.nt:
            snaps.append(
                Snapshot(t=t, F=Fp, w=Profile(grid, sol.w_field.values[j]),
                         payoff=Ip, intrinsic=Jp,
                         strategy=Profile(grid, sol.strategy_field.values[j]))
            )
            _write_snapshot(cfg, out, j, t, {
                "F": sol.F_field.values[j], "w": sol.w_field.values[j],
                "I": payoff[j], "J": intrinsic[j], "s": sol.strategy_field.values[j],
            })
    mfg_info = {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "residuals": sol.residuals,
        "thetas": sol.thetas,
        "contraction": sol.contraction,
    }
    return rec, snaps, mfg_info


def _particle_strategy_nodes(
    cdf_vals: np.ndarray, J: np.ndarray, rule: str, p: ModelParams
) -> np.ndarray | None:
    if rule == "rank":
        return cdf_vals.copy()
    if rule == "ratio":
        return np.minimum(1.0, p.rho_minus_kappa * J)
    return None


def _run_particles(
    cfg: ExperimentConfig, out: Path, max_steps: int | None = None,
    state: ParticleState | None = None,
) -> tuple[_TrackRecorder, list[Snapshot], ParticleState]:
    p, grid, spec = cfg.params, cfg.grid, cfg.particles
    rule = spec.make_rule()
    if state is None:
        init = ramp_initial(grid, cfg.initial_l0)
        state = ParticleState(
            positions=_sample_from_cdf(init, spec.n, spec.seed), time=grid.t0, seed=spec.seed
        )
    rec = _TrackRecorder()
    snaps: list[Snapshot] = []
    last_step = grid.nt if max_steps is None else min(grid.nt, state.step_index + max_steps)

    def observe(st: ParticleState) -> None:
        j = st.step_index
        t = grid.time_at(j)
        est = empirical_cdf(st, grid)
        J = model.discounted_tail(est.profile.values, grid.dx, p.rho_minus_kappa)
        Jprof = Profile(grid, J)
        if j % cfg.track_stride == 0 or j == last_step:
            e_l = _try_front(Jprof, p.i_crit)
            rec.add(t, _try_front(est.profile, 0.5), e_l, e_l)
        if j % cfg.snapshot_stride == 0 or j == last_step:
            s_nodes = _particle_strategy_nodes(est.profile.values, J, spec.rule, p)
            snaps.append(
                Snapshot(t=t, F=est.profile, intrinsic=Jprof,
                         strategy=Profile(grid, s_nodes) if s_nodes is not None else None)
            )
            cols = {"F": est.profile.values, "J": J}
            if s_nodes is not None:
                cols["s"] = s_nodes
            _write_snapshot(cfg, out, j, t, cols)
            save_checkpoint(st, out / "checkpoint.npz", config=cfg)

    observe(state)
    while state.step_index < last_step:
        state = step_particles(state, rule, p, grid.dt)
        observe(state)
    save_checkpoint(state, out / "checkpoint.npz", config=cfg)
    return rec, snaps, state


def _sample_from_cdf(init: Profile, n: int, seed: int) -> np.ndarray:
    """Draw agent positions whose distribution matches the initial profile."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 3], dtype=np.uint64)))
    u = rng.random(n)
    # init holds the fraction above x (decreasing); 1 - init is the usual CDF,
    # increasing in x, which np.interp inverts directly.
    return np.interp(u, 1.0 - init.values, init.grid.x)


def _start_run_dir(config: ExperimentConfig, out_dir: str | Path) -> Path:
    """Create a run directory holding the config.json that `kdlab diag` reads."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.to_json() + "\n")
    return out


def run(
    config: ExperimentConfig, out_dir: str | Path, max_steps: int | None = None
) -> RunResult:
    """Execute one experiment and write its artifact files.

    max_steps truncates a particle run after that many steps (checkpoint
    included), which is how interrupted-run recovery is exercised; PDE modes
    always run to completion.
    """
    out = _start_run_dir(config, out_dir)
    mfg_info = None
    final_state = None
    pde_rec = None
    if config.mode in ("kpp", "intrinsic"):
        rec, snaps = _run_pde(config, out)
    elif config.mode == "nash":
        rec, snaps, mfg_info = _run_nash(config, out)
    elif config.mode == "particles":
        rec, snaps, final_state = _run_particles(config, out, max_steps=max_steps)
    elif config.mode == "compare":
        rec, snaps, final_state = _run_particles(config, out, max_steps=max_steps)
        pde_rec = _run_compare_pde(config, out)
    else:  # pragma: no cover - guarded by config validation
        raise ConfigError(f"unhandled mode {config.mode!r}")

    _write_tracks(out / "tracks.csv", rec.rows)
    if pde_rec is not None:
        _write_tracks(out / "pde_tracks.csv", pde_rec.rows)

    window = config.fit_window or default_window(config.grid.t0, config.grid.t_final)
    speeds = {}
    for kind in ("median", "learning", "intrinsic"):
        speeds[kind] = _speeds_entry(_fit_or_none(rec.track(kind), window))
    if pde_rec is not None:
        speeds["pde_median"] = _speeds_entry(_fit_or_none(pde_rec.track("median"), window))
    (out / "speeds.json").write_text(json.dumps(speeds, indent=2, sort_keys=True) + "\n")

    temporal = config.mode in ("kpp", "intrinsic", "nash")
    report = run_diagnostics(snaps, config.params, temporal=temporal)
    _write_diagnostics(out / "diagnostics.csv", report.to_rows())

    th = TheoryPredictions.from_params(config.params)
    manifest = {
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
    }
    if mfg_info is not None:
        manifest["mfg"] = mfg_info
    if max_steps is not None:
        manifest["partial"] = True
    files = {}
    for f in sorted(out.rglob("*")):
        if f.is_file() and f.name != "manifest.json":
            files[str(f.relative_to(out))] = _sha256(f)
    manifest["files"] = files
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return RunResult(out_dir=out, manifest=manifest, final_state=final_state)


def _run_compare_pde(cfg: ExperimentConfig, out: Path) -> _TrackRecorder:
    """Local rank-strategy PDE run matching the particle configuration."""
    p, grid = cfg.params, cfg.grid
    # The tau-leap step is too coarse for the PDE side; refine in time only.
    refine = max(1, int(math.ceil(grid.dt / 0.02)))
    fine = Grid1D(grid.x_min, grid.x_max, grid.nx, grid.t0, grid.t_final, grid.nt * refine)
    field = solve_rank_local(ramp_initial(fine, cfg.initial_l0), p, fine)
    rec = _TrackRecorder()
    for j in range(0, fine.nt + 1, refine):
        t = fine.time_at(j)
        Fp = Profile(fine, field.values[j])
        J = model.discounted_tail(field.values[j], fine.dx, p.rho_minus_kappa)
        e_l = _try_front(Profile(fine, J), p.i_crit)
        rec.add(t, _try_front(Fp, 0.5), e_l, e_l)
    return rec


def resume(checkpoint_path: str | Path, out_dir: str | Path) -> RunResult:
    """Continue a particle run from a checkpoint to its configured end."""
    state, config = load_checkpoint(checkpoint_path)
    if config is None or not isinstance(state, ParticleState):
        raise CheckpointError("resume needs a particle checkpoint with an embedded config")
    if config.mode not in ("particles", "compare"):
        raise ConfigError(f"resume supports particle runs, not mode {config.mode!r}")
    out = _start_run_dir(config, out_dir)
    rec, snaps, final_state = _run_particles(config, out, state=state)
    _write_tracks(out / "tracks.csv", rec.rows)
    report = run_diagnostics(snaps, config.params, temporal=False)
    _write_diagnostics(out / "diagnostics.csv", report.to_rows())
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "mode": config.mode,
        "name": config.name,
        "resumed_from_step": state.step_index,
        "diagnostics_passed": report.passed,
    }
    files = {}
    for f in sorted(out.rglob("*")):
        if f.is_file() and f.name != "manifest.json":
            files[str(f.relative_to(out))] = _sha256(f)
    manifest["files"] = files
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return RunResult(out_dir=out, manifest=manifest, final_state=final_state)
