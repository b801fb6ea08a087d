"""Harness: configs, presets, runs, checkpoints, resume, CLI."""

import dataclasses
import functools
import gc
import io
import json
import math
import struct
import tempfile
import threading
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdlab.analysis import Snapshot
from kdlab.backward import TerminalCondition
from kdlab.cli import main
from kdlab.errors import CheckpointError, ConfigError, DomainError, KdlabError, NonFiniteError
from kdlab.grid import Grid1D, SpaceTimeField
from kdlab import harness, particles
from kdlab.harness import (
    PRESET_NAMES,
    ExperimentConfig,
    ParticleSpec,
    _write_diagnostics,
    diagnose_run_dir,
    load_checkpoint,
    preset_config,
    ramp_initial,
    resume,
    run,
    save_checkpoint,
)
from kdlab.mfg import MfgConfig
from kdlab.model import ModelParams
from kdlab.particles import ParticleState, step_particles


def tiny_particle_config(name="tiny", n=400, nt=30, seed=11):
    p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)
    grid = Grid1D(-20.0, 40.0, 241, 0.0, nt * 0.1, nt)
    return ExperimentConfig(
        name=name, mode="particles", params=p, grid=grid,
        particles=ParticleSpec(n=n, rule="rank", seed=seed),
        snapshot_stride=10, initial_l0=2.0,
    )


def _as_nash(d):
    """Turn tiny_particle_config's dict into a valid nash config, in place."""
    del d["particles"]
    d["mode"] = "nash"


def assert_diagnostics_rebuilt(out):
    """The diagnostics rebuilt from out/fields equal out/diagnostics.csv byte for byte."""
    rebuilt = out.parent / f"{out.name}-rebuilt.csv"
    _write_diagnostics(rebuilt, diagnose_run_dir(out).to_rows())
    assert rebuilt.read_bytes() == (out / "diagnostics.csv").read_bytes()


#: Configs no preset covers: an explicit terminal condition.
EXTRA_CONFIGS = {
    "nash-terminal": lambda: dataclasses.replace(
        preset_config("lottery-nash"),
        terminal=TerminalCondition(kind="logistic", center=3.5, slope=0.75)),
}


class TestConfig:
    @pytest.mark.parametrize("name", [*PRESET_NAMES, *EXTRA_CONFIGS])
    def test_json_roundtrip(self, name):
        cfg = EXTRA_CONFIGS[name]() if name in EXTRA_CONFIGS else preset_config(name)
        again = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
        assert again.to_json() == cfg.to_json()

    def test_schema_version_checked(self):
        d = json.loads(preset_config("kpp").to_json())
        d["schema_version"] = 99
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_parse_error_reports_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",\n "mode": }\n')
        with pytest.raises(ConfigError, match="line"):
            ExperimentConfig.from_json_file(bad)

    def test_particle_mode_requires_spec(self):
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)
        grid = Grid1D(-20.0, 40.0, 241, 0.0, 1.0, 10)
        with pytest.raises(ConfigError):
            ExperimentConfig(name="x", mode="particles", params=p, grid=grid)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("not-a-preset")

    def test_particle_seed_mandatory(self):
        d = json.loads(preset_config("particles-ratio").to_json())
        del d["particles"]["seed"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_unknown_mode(self):
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)
        grid = Grid1D(-20.0, 40.0, 241, 0.0, 1.0, 10)
        with pytest.raises(ConfigError):
            ExperimentConfig(name="x", mode="warp", params=p, grid=grid)

    def test_ramp_initial(self):
        g = Grid1D(-20.0, 40.0, 241, 0.0, 1.0, 10)
        F0 = ramp_initial(g, 5.0)
        assert F0.values[0] == 1.0 and F0.values[-1] == 0.0
        assert np.all(np.diff(F0.values) <= 0.0)


class TestRun:
    def test_config_checked_again_before_writing(self, tmp_path):
        cfg = tiny_particle_config()
        cfg.snapshot_stride = 0
        with pytest.raises(ConfigError, match="snapshot_stride"):
            run(cfg, tmp_path / "bad")
        assert not (tmp_path / "bad" / "config.json").exists()

    def test_zero_duration_run(self, tmp_path):
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)
        grid = Grid1D(-20.0, 40.0, 241, 0.0, 0.0, 0)
        cfg = ExperimentConfig(name="t0", mode="intrinsic", params=p, grid=grid)
        run(cfg, tmp_path / "t0")
        snaps = list((tmp_path / "t0" / "fields").glob("snap_*.csv"))
        assert len(snaps) == 1
        assert (tmp_path / "t0" / "manifest.json").exists()

    def test_outputs_and_manifest_hashes(self, tmp_path):
        res = run(tiny_particle_config(), tmp_path / "tiny")
        out = res.out_dir
        for f in ("config.json", "tracks.csv", "speeds.json", "diagnostics.csv",
                  "manifest.json", "checkpoint.npz"):
            assert (out / f).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        import hashlib

        on_disk = {str(f.relative_to(out)) for f in out.rglob("*")
                   if f.is_file() and f.name != "manifest.json"}
        assert set(manifest["files"]) == on_disk
        for rel, digest in manifest["files"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
        header = (out / "tracks.csv").read_text().splitlines()[0]
        assert header == "t,x_median,x_learning,x_intrinsic"

    def test_snapshot_format(self, tmp_path):
        run(tiny_particle_config(), tmp_path / "fmt")
        snap = sorted((tmp_path / "fmt" / "fields").glob("snap_*.csv"))[0]
        lines = snap.read_text().splitlines()
        assert lines[0].startswith("# t=")
        assert lines[1] == "x,F,w,I,J,s"

    def test_csv_rows_match_per_value_format(self, tmp_path):
        # Each value as f"{v:.17g}" alone, the format the CSV files have always had.
        vals = np.array([math.nan, -0.0, 5e-324, 1e308, 3.0, -2.0, 0.1, 1.0 / 3.0])
        cfg = dataclasses.replace(tiny_particle_config(), grid=Grid1D(-1.0, 6.0, 8, 0.0, 1.0, 2))
        snap = Snapshot(0.5, cfg.grid, F=vals, J=vals[::-1].copy())
        harness._write_snapshot(cfg, tmp_path, 3, snap)
        nan = np.full(8, math.nan)
        rows = zip(cfg.grid.x, vals, nan, nan, vals[::-1], nan)
        lines = ["# t=0.5", "x,F,w,I,J,s", *(",".join(f"{v:.17g}" for v in r) for r in rows)]
        assert (tmp_path / "fields" / "snap_000003.csv").read_text() == "\n".join(lines) + "\n"

        track_rows = [tuple(vals[i:i + 4]) for i in range(5)]
        harness._write_tracks(tmp_path / "tracks.csv", track_rows)
        lines = ["t,x_median,x_learning,x_intrinsic",
                 *(",".join(f"{v:.17g}" for v in r) for r in track_rows)]
        assert (tmp_path / "tracks.csv").read_text() == "\n".join(lines) + "\n"

    def test_read_tracks_inverts_write_tracks(self, tmp_path):
        t = np.arange(6.0)
        cols = {"median": t / 3.0, "learning": np.array([math.nan, 5e-324, -0.0, 1e308, 0.1, 2.0]),
                "intrinsic": np.full(6, math.nan)}
        harness._write_tracks(tmp_path / "tracks.csv", list(zip(t, *cols.values())))
        tracks = harness.read_tracks(tmp_path / "tracks.csv")
        assert list(tracks) == ["median", "learning"]  # a front with no finite value is left out
        for kind, track in tracks.items():
            assert track.times.tobytes() == t.tobytes()
            assert track.positions.tobytes() == cols[kind].tobytes()
        harness._write_tracks(tmp_path / "one.csv", [(0.5, 1.0, 2.0, 3.0)])
        tracks = harness.read_tracks(tmp_path / "one.csv")
        assert [(tr.times.tolist(), tr.positions.tolist()) for tr in tracks.values()] == [
            ([0.5], [1.0]), ([0.5], [2.0]), ([0.5], [3.0])]

    def test_binary_snapshot_option(self, tmp_path):
        cfg = tiny_particle_config()
        cfg.binary_fields = True
        run(cfg, tmp_path / "bin")
        npz = sorted((tmp_path / "bin" / "fields").glob("snap_*.npz"))
        assert npz
        data = np.load(npz[0])
        assert "F" in data and "x" in data

    def test_particle_fields_only_on_recorded_steps(self, tmp_path):
        # A grid narrower than the cloud, so agents stray off both ends.
        cfg = dataclasses.replace(tiny_particle_config(), track_stride=4, snapshot_stride=8,
                                  grid=Grid1D(-3.0, 3.0, 25, 0.0, 3.0, 30))
        res = run(cfg, tmp_path / "strided")
        recorded = [*range(0, cfg.grid.nt, 4), cfg.grid.nt]  # snapshots 0, 8, ... among them
        # The straggler counts of the recorded states, from bare steps.
        st, below, above = run(cfg, tmp_path / "start", max_steps=0).final_state, [], []
        for j in range(cfg.grid.nt + 1):
            if j in recorded:
                est = particles.empirical_cdf(st, cfg.grid)
                below.append(est.n_below)
                above.append(est.n_above)
            if j < cfg.grid.nt:
                st = step_particles(st, cfg.particles.make_rule(), cfg.params, cfg.grid.dt)
        on_disk = json.loads((res.out_dir / "manifest.json").read_text())
        assert on_disk["particles"] == {"n_below_max": max(below), "n_above_max": max(above)}
        assert min(max(below), max(above)) > 0
        run(dataclasses.replace(cfg, track_stride=1), tmp_path / "full")
        full = (tmp_path / "full" / "tracks.csv").read_text().splitlines()
        strided = (tmp_path / "strided" / "tracks.csv").read_text().splitlines()
        assert strided == [full[0]] + [full[1 + j] for j in recorded]

    def test_zero_horizon_particle_run(self, tmp_path):
        # nt = 0: the grid's dt is a 1.0 placeholder, above dt_max = 0.1 of
        # alpha1 = 1, and the run takes no step, so nothing checks it.
        cfg = tiny_particle_config(nt=0)
        cfg = dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, alpha1=1.0),
                                  grid=dataclasses.replace(cfg.grid, t_final=0.0))
        res = run(cfg, tmp_path / "zero")
        assert res.final_state.step_index == 0 and "partial" not in res.manifest
        assert len((res.out_dir / "tracks.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("mode, max_steps, partial", [
        ("kpp", 5, False), ("particles", 10**6, False), ("particles", 7, True),
    ], ids=["kpp-max-steps-5", "particles-max-steps-past-the-end", "particles-max-steps-7"])
    def test_partial_only_when_the_run_stopped_early(self, tmp_path, mode, max_steps, partial):
        cfg = tiny_particle_config(nt=20)
        if mode == "kpp":
            cfg = dataclasses.replace(cfg, mode="kpp", particles=None)
        res = run(cfg, tmp_path / "run", max_steps=max_steps)
        on_disk = json.loads((res.out_dir / "manifest.json").read_text())
        assert on_disk.get("partial", False) is partial
        rows = (res.out_dir / "tracks.csv").read_text().splitlines()
        assert len(rows) == 1 + (7 if partial else cfg.grid.nt) + 1

    @pytest.mark.parametrize("max_steps", [-1, 1.5, 2.0, True, "3"],
                             ids=["negative", "fraction", "float", "bool", "string"])
    def test_max_steps_must_be_a_non_negative_integer(self, tmp_path, max_steps):
        with pytest.raises(DomainError, match="max_steps"):
            run(tiny_particle_config(nt=20), tmp_path / "run", max_steps=max_steps)
        assert not (tmp_path / "run").exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = tiny_particle_config()
        a = run(cfg, tmp_path / "a")
        b = run(cfg, tmp_path / "b")
        for rel in ("tracks.csv", "diagnostics.csv", "speeds.json"):
            assert (a.out_dir / rel).read_bytes() == (b.out_dir / rel).read_bytes()
        snaps_a = sorted((a.out_dir / "fields").iterdir())
        snaps_b = sorted((b.out_dir / "fields").iterdir())
        for fa, fb in zip(snaps_a, snaps_b):
            assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize("rule", ["rank", "ratio"])
    def test_theory_speed_follows_the_rule(self, tmp_path, rule):
        # The rank rule's mean field is the rank-local equation, whose front
        # has speed 2 sqrt(kappa Q(1)) and decay rate sqrt(Q(1) / kappa) with
        # Q(1) = alpha1 / (k + 1); the other rules keep alpha1 for Q(1).
        cfg = tiny_particle_config(nt=2)
        cfg = dataclasses.replace(cfg, particles=dataclasses.replace(cfg.particles, rule=rule))
        p = cfg.params
        q1 = p.alpha1 / (p.k + 1.0) if rule == "rank" else p.alpha1
        theory = run(cfg, tmp_path / rule).manifest["theory"]
        assert theory["median_speed"] == pytest.approx(2.0 * math.sqrt(p.kappa * q1), abs=1e-12)
        assert theory["decay_rate"] == pytest.approx(math.sqrt(q1 / p.kappa), abs=1e-12)

    @pytest.mark.parametrize("rule", ["rank", "ratio"])
    def test_only_the_rank_rule_writes_a_mean_field_track(self, tmp_path, rule):
        # The rank-local equation is the rank rule's mean field; no PDE
        # matches the ratio rule.
        cfg = tiny_particle_config(nt=20)
        cfg = dataclasses.replace(cfg, particles=dataclasses.replace(cfg.particles, rule=rule))
        res = run(cfg, tmp_path / rule)
        speeds = json.loads((res.out_dir / "speeds.json").read_text())
        written = (res.out_dir / "pde_tracks.csv").exists()
        assert written == ("pde_median" in speeds) == (rule == "rank")
        if written:
            rows = (res.out_dir / "pde_tracks.csv").read_text().splitlines()
            assert rows[0] == "t,x_median,x_learning,x_intrinsic"
            assert len(rows) == 1 + cfg.grid.nt + 1  # one row per particle step
            assert speeds["pde_median"]["n_samples"] > 0


class Boom(Exception):
    pass


def rule_config(rule):
    cfg = tiny_particle_config(nt=25)
    return dataclasses.replace(cfg, particles=dataclasses.replace(cfg.particles, rule=rule))


class TestParticleRunWorker:
    """A particle run's one draw worker and its reused step buffers."""

    @pytest.mark.parametrize("rule", ["rank", "ratio"])
    def test_run_equals_bare_steps(self, tmp_path, rule):
        # Bare steps draw in line into fresh buffers, so a run whose reused
        # buffers carried anything from one step or run to the next would
        # differ from them, or from its own second run.
        cfg = rule_config(rule)
        st = run(cfg, tmp_path / "start", max_steps=0).final_state
        for _ in range(cfg.grid.nt):
            st = step_particles(st, cfg.particles.make_rule(), cfg.params, cfg.grid.dt)
        a = run(cfg, tmp_path / "a")
        b = run(cfg, tmp_path / "b")
        assert np.array_equal(a.final_state.positions, st.positions)
        written = sorted(f.relative_to(a.out_dir) for f in a.out_dir.rglob("*")
                         if f.suffix in (".csv", ".json"))
        assert len(written) > 5
        for rel in written:
            assert (a.out_dir / rel).read_bytes() == (b.out_dir / rel).read_bytes(), rel

    def test_run_joins_its_worker(self, tmp_path):
        before = threading.active_count()
        run(tiny_particle_config(), tmp_path / "run")
        assert threading.active_count() == before

    def test_worker_error_reaches_the_caller(self, tmp_path, monkeypatch):
        # The worker's draws fail from step 10 on, step 11's drawn ahead
        # included; the run raises step 10's first failure, its normals.
        stream = particles._stream

        def fail_mid_run(seed, step, purpose):
            if step >= 10 and purpose != particles._FIRE:
                raise Boom(f"stream {step} {purpose}")
            return stream(seed, step, purpose)

        monkeypatch.setattr(particles, "_stream", fail_mid_run)
        before = threading.active_count()
        with pytest.raises(Boom, match=f"^stream 10 {particles._NOISE}$"):
            run(tiny_particle_config(), tmp_path / "run")
        assert threading.active_count() == before


def write_field_archive(path, kind):
    """An npz in the layout the removed field/profile checkpoint kinds had."""
    if kind == "field":
        g, values = Grid1D(-2.0, 2.0, 17, 0.0, 1.0, 4), np.zeros((5, 17))
    else:
        g, values = Grid1D(-2.0, 2.0, 17, 0.0, 0.0, 0), np.linspace(1, 0, 17)
    meta = {"checkpoint_version": harness.CHECKPOINT_VERSION}
    np.savez(path, kind=kind, meta=json.dumps(meta), values=values,
             grid=np.array([g.x_min, g.x_max, g.nx, g.t0, g.t_final, g.nt]))


class TestSnapshotRoundTrip:
    """One snapshot layer: the reader returns what the recorder kept, in CSV and npz."""

    @pytest.mark.parametrize("binary", [False, True], ids=["csv", "npz"])
    @pytest.mark.parametrize("mode", ["nash", "particles"])
    def test_read_equals_recorded(self, tmp_path, mode, binary):
        if mode == "nash":
            p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25)
            grid = Grid1D(-20.0, 44.0, 321, 0.0, 2.0, 40)
            cfg = ExperimentConfig(name="rt", mode="nash", params=p, grid=grid,
                                   snapshot_stride=20, binary_fields=binary)
            rec, _ = harness._run_nash(cfg, tmp_path)
            present = {"F", "w", "I", "J", "s"}
        else:
            cfg = dataclasses.replace(tiny_particle_config(), binary_fields=binary)
            rec, _, _ = harness._run_particles(cfg, tmp_path)
            present = {"F", "J", "s"}
        paths = sorted((tmp_path / "fields").iterdir())
        assert {f.suffix for f in paths} == {".npz" if binary else ".csv"}
        assert len(paths) == len(rec.snaps) >= 3
        for snap, path in zip(rec.snaps, paths):
            back = harness._read_snapshot(path, cfg.grid)
            assert (back.t, back.grid) == (snap.t, snap.grid)
            for name in ("F", "w", "I", "J", "s"):
                kept, read = getattr(snap, name), getattr(back, name)
                if name in present:
                    assert np.array_equal(read, kept), name
                else:
                    assert kept is None and read is None, name


def mini_binary_run(tmp_path):
    """The run directory of a short intrinsic run with three npz snapshots."""
    p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)
    grid = Grid1D(-20.0, 40.0, 61, 0.0, 1.0, 10)
    cfg = ExperimentConfig(name="mini-npz", mode="intrinsic", params=p, grid=grid,
                           snapshot_stride=5, binary_fields=True)
    return run(cfg, tmp_path / "mini-npz").out_dir


def _damage_member(raw: bytes, name: str, where: str, value: int) -> bytes:
    """raw, an npz, with one field of the zip member name set to value: the
    first byte of its compressed data, its central directory compression
    method, or its local header's extra-field length."""
    info = zipfile.ZipFile(io.BytesIO(raw)).getinfo(name)
    local = info.header_offset
    name_len, extra_len = struct.unpack_from("<HH", raw, local + 26)
    out = bytearray(raw)
    if where == "data":
        out[local + 30 + name_len + extra_len] = value
    elif where == "method":
        central = raw.rindex(name.encode()) - 46  # the directory follows every member
        struct.pack_into("<H", out, central + 10, value)
    else:
        struct.pack_into("<H", out, local + 28, value)
    return bytes(out)


class TestDamagedBinarySnapshot:
    """Damage inside an npz snapshot's zip members is a ConfigError naming the file."""

    @pytest.mark.parametrize("where, value, cause", [
        ("data", 0xFF, zlib.error),
        ("method", 99, NotImplementedError),
        ("extra", 0xFFFF, EOFError),
    ], ids=["zlib-error", "unknown-compression-method", "member-past-the-end"])
    def test_damaged_member(self, tmp_path, where, value, cause):
        # A deflate block of the reserved type; a compression method zipfile
        # does not know; member data said to start past the end of the file.
        snap = sorted((mini_binary_run(tmp_path) / "fields").glob("snap_*.npz"))[1]
        snap.write_bytes(_damage_member(snap.read_bytes(), "F.npy", where, value))
        with pytest.raises(ConfigError, match=snap.name) as err:
            harness._read_snapshot(snap, Grid1D(-20.0, 40.0, 61, 0.0, 1.0, 10))
        assert isinstance(err.value.__cause__, cause)

    def test_truncated_archive_closes_its_file(self, tmp_path):
        snap = sorted((mini_binary_run(tmp_path) / "fields").glob("snap_*.npz"))[1]
        snap.write_bytes(snap.read_bytes()[:500])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ConfigError, match=snap.name):
                harness._read_snapshot(snap, Grid1D(-20.0, 40.0, 61, 0.0, 1.0, 10))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_unopenable_file_stays_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            harness._read_snapshot(tmp_path / "snap_000000.npz", Grid1D(-2.0, 2.0, 9, 0.0, 0.0, 0))


class TestCheckpoint:
    def test_particle_state_roundtrip(self, tmp_path):
        st = ParticleState(positions=np.random.default_rng(0).normal(size=64),
                           seed=9, step_index=15)
        save_checkpoint(st, tmp_path / "st.npz")
        back, _ = load_checkpoint(tmp_path / "st.npz")
        assert np.array_equal(back.positions, st.positions)
        assert (back.seed, back.step_index) == (9, 15)
        with np.load(tmp_path / "st.npz") as data:
            assert sorted(data.files) == ["kind", "meta", "positions", "seed", "step_index"]

    @pytest.mark.parametrize("kind", ["field", "profile"])
    def test_only_particle_states_load(self, tmp_path, kind):
        # An archive in the layout of the removed field/profile kinds.
        path = tmp_path / "f.npz"
        write_field_archive(path, kind)
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        st = ParticleState(positions=np.zeros(4), seed=1)
        path = tmp_path / "v.npz"
        save_checkpoint(st, path)
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(data["meta"]))
        meta["checkpoint_version"] = 999
        data["meta"] = json.dumps(meta)
        np.savez(path, **data)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_checkpoint({"a": 1}, tmp_path / "x.npz")
        g = Grid1D(-2.0, 2.0, 17, 0.0, 1.0, 4)
        with pytest.raises(CheckpointError):
            save_checkpoint(SpaceTimeField(g, np.zeros((5, 17))), tmp_path / "f.npz")
        assert not (tmp_path / "f.npz").exists()

    def test_crash_mid_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        old = ParticleState(positions=np.random.default_rng(2).normal(size=64),
                            seed=9, step_index=15)
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(old, path)

        def torn_write(file, **arrays):
            file.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ParticleState(positions=np.zeros(64), seed=9), path)
        monkeypatch.undo()
        back, _ = load_checkpoint(path)
        assert np.array_equal(back.positions, old.positions)
        assert (back.seed, back.step_index) == (9, 15)
        assert [f.name for f in tmp_path.iterdir()] == ["checkpoint.npz"]

    @pytest.mark.parametrize("drop", ["meta", "kind", "positions", "seed", "step_index"])
    def test_missing_key(self, tmp_path, drop):
        obj = ParticleState(positions=np.zeros(4), seed=1)
        path = tmp_path / "k.npz"
        save_checkpoint(obj, path)
        data = dict(np.load(path, allow_pickle=False))
        del data[drop]
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match=drop):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.5),
        ("seed", np.array([1])),
        ("step_index", 1.5),
        ("step_index", -1),
        ("step_index", True),
    ], ids=["float-seed", "vector-seed", "float-step", "negative-step", "bool-step"])
    def test_malformed_scalar(self, tmp_path, key, value):
        path = tmp_path / "s.npz"
        save_checkpoint(ParticleState(positions=np.zeros(4), seed=1), path)
        data = dict(np.load(path, allow_pickle=False))
        data[key] = value
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)
        assert main(["resume", str(path), "--out", str(tmp_path / "res")]) == 4

    @pytest.mark.parametrize("positions, cause", [
        (np.array([0.0, np.nan, 0.0, 0.0]), NonFiniteError),
        (np.array([0.0]), DomainError),
        (np.array(["0.5", "1.5"]), None),
        (np.array([0.0, 1.0], dtype=object), ValueError),
        (np.array([0.0, 1.0 + 2.0j]), None),
        (np.zeros((2, 2)), None),
    ], ids=["non-finite", "one-agent", "string", "object", "complex", "2-d"])
    def test_loaded_state_is_checked(self, tmp_path, positions, cause):
        # Every malformed positions array is a CheckpointError (exit 4): the
        # loader's own, or one naming the file whose cause is numpy's error or
        # the state's.  A complex array raises no ComplexWarning on the way.
        path = tmp_path / "c.npz"
        save_checkpoint(ParticleState(positions=np.zeros(4), seed=1), path)
        data = dict(np.load(path, allow_pickle=False))
        data["positions"] = positions
        np.savez(path, **data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointError) as exc:
                load_checkpoint(path)
            assert main(["resume", str(path), "--out", str(tmp_path / "res")]) == 4
        if cause is None:
            assert "positions" in str(exc.value)
        else:
            assert str(path) in str(exc.value) and isinstance(exc.value.__cause__, cause)
        assert not (tmp_path / "res").exists()

    def test_version_1_checkpoint_is_refused(self, tmp_path):
        # The version-1 layout also held the agents' stream ids and a clock.
        path = tmp_path / "v1.npz"
        meta = {"checkpoint_version": 1, "config": tiny_particle_config().to_dict()}
        np.savez(path, kind="particles", meta=json.dumps(meta), positions=np.zeros(4),
                 time=0.0, seed=1, step_index=0, stream_ids=np.arange(4))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)
        assert main(["resume", str(path), "--out", str(tmp_path / "res")]) == 4

    def test_unreadable_archive_closes_its_file(self, tmp_path):
        # A zip whose directory does not parse: np.load given the name would
        # leave the file open.
        path = tmp_path / "checkpoint.npz"
        path.write_bytes(b"PK\x03\x04" + bytes(60))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("meta", ["{not json", "[1, 2]"])
    def test_malformed_meta(self, tmp_path, meta):
        path = tmp_path / "m.npz"
        save_checkpoint(ParticleState(positions=np.zeros(4), seed=1), path)
        data = dict(np.load(path, allow_pickle=False))
        data["meta"] = meta
        np.savez(path, **data)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestResume:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        cfg = tiny_particle_config(nt=40)
        full = run(cfg, tmp_path / "full")
        partial = run(cfg, tmp_path / "partial", max_steps=17)
        assert partial.manifest.get("partial") is True
        resumed = resume(partial.out_dir / "checkpoint.npz", tmp_path / "resumed")
        assert np.array_equal(resumed.final_state.positions,
                              full.final_state.positions)
        assert resumed.final_state.step_index == full.final_state.step_index

    def test_resumed_compare_run_has_fresh_run_files(self, tmp_path):
        # A rank-rule run compares itself with its mean field, resumed or not.
        cfg = tiny_particle_config(nt=20)
        fresh = run(cfg, tmp_path / "fresh")
        partial = run(cfg, tmp_path / "partial", max_steps=7)
        resumed = resume(partial.out_dir / "checkpoint.npz", tmp_path / "resumed")
        names = {f.name for f in fresh.out_dir.iterdir()}
        assert {"speeds.json", "pde_tracks.csv"} <= names
        assert {f.name for f in resumed.out_dir.iterdir()} == names
        assert set(resumed.manifest) == set(fresh.manifest) | {"resumed_from_step"}
        assert resumed.manifest["resumed_from_step"] == 7
        on_disk = json.loads((resumed.out_dir / "manifest.json").read_text())
        assert on_disk == resumed.manifest
        tracks = (resumed.out_dir / "tracks.csv").read_text().splitlines()
        assert float(tracks[1].split(",")[0]) == pytest.approx(cfg.grid.time_at(7))
        assert ((resumed.out_dir / "pde_tracks.csv").read_bytes()
                == (fresh.out_dir / "pde_tracks.csv").read_bytes())

    @pytest.mark.parametrize("n, seed, step", [(30, 11, 5), (400, 7, 5), (400, 11, 35)],
                             ids=["agents", "seed", "step-past-the-grid"])
    def test_state_contradicting_its_config_refused(self, tmp_path, n, seed, step):
        # The embedded config runs 400 agents with seed 11 for 20 steps.
        cfg = tiny_particle_config(nt=20)
        path = tmp_path / "checkpoint.npz"
        state = ParticleState(positions=np.linspace(-1.0, 1.0, n), seed=seed, step_index=step)
        save_checkpoint(state, path, config=cfg)
        with pytest.raises(CheckpointError, match="contradicts its config"):
            load_checkpoint(path)
        assert main(["resume", str(path), "--out", str(tmp_path / "res")]) == 4
        assert not (tmp_path / "res").exists()
        # A finished run's checkpoint, at the grid's last step, resumes.
        save_checkpoint(dataclasses.replace(state, positions=np.zeros(400), seed=11,
                                            step_index=20), path, config=cfg)
        assert load_checkpoint(path)[0].step_index == 20

    def test_resume_requires_an_embedded_config(self, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(ParticleState(positions=np.zeros(4), seed=1), path)
        assert load_checkpoint(path)[1] is None
        with pytest.raises(CheckpointError, match="embedded config"):
            resume(path, tmp_path / "out")
        assert main(["resume", str(path), "--out", str(tmp_path / "res")]) == 4
        assert not (tmp_path / "out").exists() and not (tmp_path / "res").exists()

    def test_resume_requires_particles(self, tmp_path):
        write_field_archive(tmp_path / "f.npz", "field")
        with pytest.raises(CheckpointError):
            resume(tmp_path / "f.npz", tmp_path / "out")


def _map_csv_column(path, name, fn):
    """Rewrite a CSV snapshot with fn applied to each value of the named column."""
    lines = path.read_text().splitlines()
    col = lines[1].split(",").index(name)
    rows = [r.split(",") for r in lines[2:]]
    for r in rows:
        r[col] = repr(fn(float(r[col])))
    path.write_text("\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n")


def _npz_with_short_F(path):
    """Replace a CSV snapshot by an npz of its columns whose F lacks its last 5 values."""
    t = float(path.read_text().splitlines()[0][len("# t="):])
    data = np.genfromtxt(path, delimiter=",", names=True, skip_header=1)
    cols = {name: data[name] for name in data.dtype.names}
    cols["F"] = cols["F"][:-5]
    np.savez(path.with_suffix(".npz"), t=t, **cols)
    path.unlink()


def _npz_bare_array(path):
    """Replace a CSV snapshot by an npz-named file that holds one bare .npy array."""
    with open(path.with_suffix(".npz"), "wb") as f:
        np.save(f, np.zeros(8))
    path.unlink()


def mini_kpp_run(tmp_path):
    """The run directory of a short kpp run with three CSV snapshots."""
    p = ModelParams(kappa=1.0, rho=2.0, alpha1=1.0)
    grid = Grid1D(-20.0, 40.0, 241, 0.0, 2.0, 40)
    cfg = ExperimentConfig(name="mini-kpp", mode="kpp", params=p, grid=grid,
                           snapshot_stride=20)
    return run(cfg, tmp_path / "mini-kpp").out_dir


class TestCli:
    def test_preset_list(self, capsys):
        assert main(["preset", "--list"]) == 0
        out = capsys.readouterr().out
        assert "kpp" in out and "lottery-nash" in out

    def test_run_and_speeds_and_diag(self, tmp_path, capsys):
        cfg = tiny_particle_config()
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(cfg.to_json())
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        run_dir = tmp_path / "out" / "tiny"
        assert main(["speeds", str(run_dir / "tracks.csv"), "--window", "0,3"]) == 0
        out = capsys.readouterr().out
        assert "median" in out
        assert main(["diag", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "diagnostics:" in out
        assert main(["diag", str(run_dir / "fields")]) == 0  # the run directory's fields/
        assert capsys.readouterr().out == out
        assert_diagnostics_rebuilt(run_dir)

    def test_run_with_failed_diagnostics_exit_code(self, tmp_path, capsys):
        # A domain too short for the run: the intrinsic front stalls at x_max.
        # The failed checks are printed, and the exit status stays 0.
        d = _small_configs()[1].to_dict()
        d["grid"].update(x_max=20.0, t_final=20.0, nt=100)
        path = tmp_path / "stall.json"
        path.write_text(json.dumps(d))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "diagnostics: FAILED checks intrinsic_front_advance" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["preset"], "preset name required"),
        (["speeds", "tracks.csv", "--window", "a,b"], "--window must be 'a,b'"),
    ], ids=["preset-without-name", "window-not-numbers"])
    def test_argument_error_exit_code(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in (b"{not json", b"\xff\xfe{}", b"[" * 100_000):  # not UTF-8; too deep
            bad.write_bytes(text)
            assert main(["run", str(bad)]) == 2
            assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("break_config", [
        lambda d: [d],
        lambda d: d["grid"].update(nx=241.0),
        lambda d: d["grid"].update(nt=30.0),
        lambda d: d["output"].update(fit_window=[1.0]),
        lambda d: d["output"].update(fit_window=[2.0, 1.0]),
        lambda d: d["output"].update(fit_window="ab"),
        lambda d: d["particles"].update(rule="majority"),
        lambda d: d["particles"].update(rule="smoothed-rank"),
        lambda d: d["particles"].update(kernel_width=None),
        lambda d: d["particles"].update(n=400.5),
        lambda d: d["particles"].update(seed=-1),
        lambda d: d["particles"].update(seed=11.5),
        lambda d: d["output"].update(snapshot_stride=1.5),
        lambda d: d["output"].update(track_stride=1.5),
        lambda d: d["output"].update(binary_fields="false"),
        lambda d: d.update(mfg={"theta": 1.0, "burn_in_frac": 0.1}),
        lambda d: d.update(output=[10]),
        lambda d: d.update(initial_condition=2.0),
        lambda d: d.update(terminal_condition="logistic"),
        lambda d: _as_nash(d) or d.update(terminal_condition={"center": "3"}),
        lambda d: _as_nash(d) or d.update(mfg={"max_iter": 2.5}),
        lambda d: d.update(name=5),
        lambda d: d.update(name="../x"),
        lambda d: d["initial_condition"].update(l0="5"),
        lambda d: d["initial_condition"].update(l0=True),
        lambda d: d.update(out_dir="elsewhere"),
        lambda d: d["output"].update(snapshot_every=5),
        lambda d: d["initial_condition"].update(width=1.0),
        lambda d: d.update(mode="compare"),
        lambda d: d.update(mode="kpp"),
        lambda d: d.update(mfg={}),
        lambda d: d.update(terminal_condition={"center": 3.0}),
        lambda d: d["grid"].update(t_final=0.0),
        lambda d: d["grid"].update(x_min=-2**70),
        lambda d: d["grid"].update(x_max=1e5, nx=61),
        lambda d: d["grid"].update(x_min=0.0, x_max=1e-300, nx=8),
    ], ids=["not-object", "float-nx", "float-nt", "window-length", "window-order",
            "window-string", "unknown-rule", "removed-rule", "removed-particles-key",
            "float-n", "negative-seed", "float-seed", "float-snapshot-stride",
            "float-track-stride", "string-binary-fields", "removed-mfg-key",
            "output-not-object", "initial-not-object", "terminal-not-object",
            "string-terminal-center", "float-max-iter", "int-name", "name-leaves-out-root",
            "string-l0", "bool-l0", "unknown-top-key", "unknown-output-key",
            "unknown-initial-key", "removed-compare-mode", "kpp-with-particles",
            "particles-with-mfg", "particles-with-terminal", "zero-dt", "int-beyond-int64",
            "cell-wider-than-span", "cell-whose-square-underflows"])
    def test_invalid_config_exit_code(self, tmp_path, break_config, capsys):
        d = tiny_particle_config().to_dict()
        d = break_config(d) or d
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert list(tmp_path.iterdir()) == [path]  # no run directory, in or out of --out

    def test_unmapped_kdlab_error_exit_code(self, tmp_path, capsys):
        d = tiny_particle_config().to_dict()
        del d["particles"]
        d["mode"] = "intrinsic"
        d["grid"].update(nt=1, t_final=1.0)  # dt = 1 exceeds 0.1/alpha1 = 0.2
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(d))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "dt_max" in capsys.readouterr().err

    def test_nash_domain_past_the_scaling_range_exit_code(self, tmp_path, capsys):
        # The backward step's scale factors would reach e^{+-750}: the run is
        # refused before its first sweep, and leaves only its config behind.
        d = tiny_particle_config().to_dict()
        _as_nash(d)
        d["grid"].update(x_min=-750.0, x_max=750.0, nx=1501)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(d))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "float range" in capsys.readouterr().err
        run_dir = tmp_path / "out" / "tiny"
        assert [f.name for f in run_dir.iterdir()] == ["config.json"]
        assert main(["diag", str(run_dir)]) == 2

    def test_diag_without_snapshots_exit_code(self, tmp_path, capsys):
        run_dir = mini_kpp_run(tmp_path)
        for snap in (run_dir / "fields").iterdir():
            snap.unlink()
        assert main(["diag", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: no field snapshots") and str(run_dir) in err

    def test_diag_without_manifest_exit_code(self, tmp_path, capsys):
        # A run that failed after writing its snapshots has no manifest.json,
        # which a run writes last: it is not a run directory to pass.
        run_dir = mini_kpp_run(tmp_path)
        (run_dir / "manifest.json").unlink()
        assert main(["diag", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "manifest.json" in err

    @pytest.mark.parametrize("mode, section, key, value, code", [
        ("intrinsic", "params", "alpha1", 5e-324, 0),
        ("intrinsic", "initial_condition", "l0", 5e-324, 0),
        ("intrinsic", "grid", "x_max", 800.0, 0),
        ("particles", "grid", "x_max", 20000.0, 3),
    ], ids=["subnormal-alpha1", "subnormal-l0", "payoff-grown-from-below-1e-300",
            "tail-beyond-float-range"])
    def test_extreme_valid_values(self, tmp_path, mode, section, key, value, code, capsys):
        # Valid values that once raised ZeroDivisionError (i_crit of an
        # alpha1 whose k * alpha1 underflows) or overflow warnings (the ramp
        # of a subnormal l0, the growth check of a pay-off grown from almost
        # 0).  A pay-off tail past the float range is a numerical failure,
        # not an inf written to the snapshots.
        d = next(c for c in _small_configs() if c.mode == mode).to_dict()
        d[section][key] = value
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(d))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code
        if code == 0:
            assert main(["diag", str(tmp_path / "out" / "prop")]) == 0
        else:
            assert "float range" in capsys.readouterr().err

    def test_speeds_needs_t_column(self, tmp_path):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("time,x_median\n0,1\n1,2\n")
        assert main(["speeds", str(tracks), "--window", "0,1"]) == 2

    @pytest.mark.parametrize("content", [
        b"t,x_median\n0,1\n1,2,3\n", b"t,x_median\n0,\xff\xfe\n",
        pytest.param(b"", marks=pytest.mark.filterwarnings("error::UserWarning")),
        b"t,x_median\n1,1\n0,2\n",
    ], ids=["ragged-row", "not-utf8", "empty", "decreasing-times"])
    def test_speeds_malformed_track_file(self, tmp_path, content, capsys):
        tracks = tmp_path / "tracks.csv"
        tracks.write_bytes(content)
        assert main(["speeds", str(tracks), "--window", "0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(tracks) in err

    def test_speeds_of_a_header_only_track_file(self, tmp_path, capsys):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("t,x_median,x_learning,x_intrinsic\n")
        assert main(["speeds", str(tracks), "--window", "0,1"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("window", ["nan,1", "0,inf", "2,1", "1,1"])
    def test_speeds_refuses_the_windows_the_config_refuses(self, tmp_path, window, capsys):
        tracks = tmp_path / "tracks.csv"
        harness._write_tracks(tracks, [(t, 2.0 * t, 3.0 * t, 3.0 * t) for t in range(20)])
        assert main(["speeds", str(tracks), "--window", "0,19"]) == 0
        capsys.readouterr()
        assert main(["speeds", str(tracks), "--window", window]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --window must be two increasing numbers")
        a, b = (float(v) for v in window.split(","))
        with pytest.raises(ConfigError, match="output.fit_window must be two increasing numbers"):
            dataclasses.replace(preset_config("kpp"), fit_window=(a, b))

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["speeds", str(tmp_path / "nope.csv"), "--window", "0,1"]) == 4

    def test_resume_cli(self, tmp_path):
        cfg = tiny_particle_config(nt=20)
        partial = run(cfg, tmp_path / "part", max_steps=7)
        code = main(["resume", str(partial.out_dir / "checkpoint.npz"),
                     "--out", str(tmp_path / "res")])
        assert code == 0

    def test_unreadable_checkpoint_exit_code(self, tmp_path):
        bad = tmp_path / "checkpoint.npz"
        bad.write_bytes(b"garbage")
        assert main(["resume", str(bad), "--out", str(tmp_path / "res")]) == 4
        # A readable archive whose embedded config is malformed.
        cfg = tiny_particle_config().to_dict()
        cfg["grid"]["nx"] = 241.5
        state = ParticleState(positions=np.zeros(4), seed=11)
        save_checkpoint(state, bad)
        data = dict(np.load(bad, allow_pickle=False))
        meta = json.loads(str(data["meta"]))
        data["meta"] = json.dumps({**meta, "config": cfg})
        np.savez(bad, **data)
        with pytest.raises(CheckpointError, match="malformed config"):
            load_checkpoint(bad)
        assert main(["resume", str(bad), "--out", str(tmp_path / "res")]) == 4

    @pytest.mark.parametrize("damage", ["truncated", "bad-crc", "bare-array",
                                        "unknown-compression", "zip-version",
                                        "encrypted-member", "member-past-end"])
    def test_damaged_checkpoint_exit_code(self, tmp_path, damage):
        # A checkpoint cut short, with a flipped byte, or replaced by a bare
        # .npy array is unreadable (exit 4), not a traceback.  So is one
        # whose zip headers zipfile refuses with other exceptions:
        # NotImplementedError for the compression method or zip version,
        # RuntimeError for an encrypted member, EOFError for a member whose
        # data would start past the end of the file.
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(ParticleState(positions=np.zeros(64), seed=11), path)
        raw = bytearray(path.read_bytes())
        central = raw.index(b"PK\x01\x02")  # the first member's central directory entry
        patch = {"unknown-compression": (central + 10, 99), "zip-version": (central + 6, 0xFF),
                 "encrypted-member": (central + 8, raw[central + 8] | 1),
                 "member-past-end": (29, 0xFF)}  # high byte of its local extra-field length
        if damage == "truncated":
            path.write_bytes(raw[: len(raw) // 2])
        elif damage == "bad-crc":
            raw[raw.index(b"positions.npy") + 200] ^= 0xFF
            path.write_bytes(raw)
        elif damage in patch:
            offset, value = patch[damage]
            raw[offset] = value
            path.write_bytes(raw)
        else:
            with open(path, "wb") as f:
                np.save(f, np.zeros(64))
        with pytest.raises(CheckpointError, match="checkpoint.npz"):
            load_checkpoint(path)
        assert main(["resume", str(path), "--out", str(tmp_path / "res")]) == 4

    @staticmethod
    def checkpoint_with_config(tmp_path, edit):
        """A tiny run's checkpoint whose embedded config dict went through edit."""
        ck = run(tiny_particle_config(nt=5), tmp_path / "part").out_dir / "checkpoint.npz"
        data = dict(np.load(ck, allow_pickle=False))
        meta = json.loads(str(data["meta"]))
        edit(meta["config"])
        data["meta"] = json.dumps(meta, sort_keys=True)
        np.savez(ck, **data)
        return ck

    def test_checkpoint_with_removed_particles_key_exit_code(self, tmp_path, capsys):
        # particles.kernel_width is no config key, so a checkpoint whose
        # embedded config still holds it is read like one with any unknown key.
        ck = self.checkpoint_with_config(
            tmp_path, lambda d: d["particles"].update(kernel_width=None))
        with pytest.raises(CheckpointError, match="kernel_width"):
            load_checkpoint(ck)
        assert main(["resume", str(ck), "--out", str(tmp_path / "res")]) == 4
        assert "kernel_width" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_checkpoint_with_removed_compare_mode_exit_code(self, tmp_path, capsys):
        # mode 'compare' is gone: a rank-rule particles run writes its mean
        # field itself, and an older checkpoint that names it is unreadable.
        ck = self.checkpoint_with_config(tmp_path, lambda d: d.update(mode="compare"))
        with pytest.raises(CheckpointError, match="mode"):
            load_checkpoint(ck)
        assert main(["resume", str(ck), "--out", str(tmp_path / "res")]) == 4
        assert "compare" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_checkpoint_with_a_pde_config_exit_code(self, tmp_path, capsys):
        # A particle state under a kpp config contradicts its config.
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(ParticleState(positions=np.zeros(4), seed=1), path,
                        config=preset_config("kpp"))
        with pytest.raises(CheckpointError, match="'kpp'"):
            load_checkpoint(path)
        assert main(["resume", str(path), "--out", str(tmp_path / "res")]) == 4
        assert capsys.readouterr().err.startswith("i/o error:")
        assert not (tmp_path / "res").exists()

    def test_diag_on_resumed_run(self, tmp_path, capsys):
        partial = run(tiny_particle_config(nt=20), tmp_path / "part", max_steps=7)
        resumed = resume(partial.out_dir / "checkpoint.npz", tmp_path / "resumed")
        assert main(["diag", str(resumed.out_dir)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "diagnostics: PASS"
        assert_diagnostics_rebuilt(resumed.out_dir)

    def test_diag_on_coupled_run(self, tmp_path, capsys):
        # Exercise the full snapshot schema (w, I present) through the
        # file-based diagnostics path.
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.25)
        grid = Grid1D(-20.0, 44.0, 321, 0.0, 2.0, 40)
        cfg = ExperimentConfig(name="mini-nash", mode="nash", params=p, grid=grid,
                               snapshot_stride=20)
        res = run(cfg, tmp_path / "mini-nash")
        mfg = res.manifest["mfg"]
        assert mfg["converged"]
        r, thetas = mfg["residuals"], mfg["thetas"]
        assert len(r) == len(thetas) == mfg["iterations"] > 1
        assert thetas[0] == cfg.mfg.theta
        assert mfg["contraction"] == pytest.approx((r[-1] / r[0]) ** (1.0 / (len(r) - 1)))
        assert json.loads((res.out_dir / "manifest.json").read_text())["mfg"] == mfg
        assert main(["diag", str(res.out_dir)]) == 0
        out = capsys.readouterr().out
        assert "payoff_below_intrinsic" in out
        assert "diagnostics: PASS" in out
        assert_diagnostics_rebuilt(res.out_dir)

    @pytest.mark.parametrize("corrupt", [
        lambda f: f.write_text(f.read_text().replace("x,F,", "y,F,", 1)),
        lambda f: f.write_text(f.read_text() + "1,2\n"),
        lambda f: f.write_text(f.read_text().replace("x,F,", "x,G,", 1)),
        lambda f: f.rename(f.with_suffix(".npz")),
        lambda f: f.write_text(f.read_text().replace(",J,", ",K,", 1)),
        lambda f: f.write_text("".join(f.read_text().splitlines(keepends=True)[:-10])),
        lambda f: _map_csv_column(f, "J", lambda v: -v),
        _npz_with_short_F,
        pytest.param(lambda f: f.write_text(f.read_text().splitlines(keepends=True)[0]),
                     marks=pytest.mark.filterwarnings("error::UserWarning")),
        _npz_bare_array,
    ], ids=["no-x-column", "ragged-row", "no-F-column", "csv-named-npz", "no-J-column",
            "truncated", "negative-J", "npz-short-F", "header-only", "npz-bare-array"])
    def test_diag_malformed_snapshot_exit_code(self, tmp_path, corrupt, capsys):
        run_dir = mini_kpp_run(tmp_path)
        snap = sorted((run_dir / "fields").glob("snap_*.csv"))[1]
        corrupt(snap)
        assert main(["diag", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and snap.stem in err

    @pytest.mark.parametrize("binary", [False, True], ids=["csv", "npz"])
    @pytest.mark.parametrize("t", ["inf", "1e308", "nan", "-0.5", "2.5"])
    def test_diag_refuses_a_snapshot_time_off_the_grid(self, tmp_path, capsys, binary, t):
        run_dir = (mini_binary_run if binary else mini_kpp_run)(tmp_path)
        snap = sorted((run_dir / "fields").glob("snap_*"))[1]
        if binary:
            with np.load(snap) as data:
                cols = {name: data[name] for name in data.files}
            np.savez(snap, **{**cols, "t": float(t)})
        else:
            lines = snap.read_text().splitlines(keepends=True)
            snap.write_text(f"# t={t}\n" + "".join(lines[1:]))
        assert main(["diag", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and snap.stem in err and "time" in err

    @pytest.mark.parametrize("edit", ["repeated-time", "earlier-time", "csv-and-npz"])
    def test_diag_refuses_snapshot_times_out_of_order(self, tmp_path, capsys, edit):
        # The snapshots' file-name order is their time order; a time that
        # does not increase would put the temporal checks on the wrong interval.
        run_dir = mini_kpp_run(tmp_path)
        snaps = sorted((run_dir / "fields").glob("snap_*.csv"))  # t = 0, 1, 2
        if edit == "csv-and-npz":
            grid = ExperimentConfig.from_json_file(run_dir / "config.json").grid
            back, bad = harness._read_snapshot(snaps[1], grid), snaps[1].with_suffix(".npz")
            np.savez(bad, t=back.t, x=grid.x, F=back.F, J=back.J)
        else:
            bad, t = (snaps[1], "0") if edit == "repeated-time" else (snaps[2], "0.5")
            lines = bad.read_text().splitlines(keepends=True)
            bad.write_text(f"# t={t}\n" + "".join(lines[1:]))
        with pytest.raises(ConfigError, match="does not follow"):
            diagnose_run_dir(run_dir)
        assert main(["diag", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and bad.name in err and "time" in err

    def test_run_with_snapshots_too_far_apart_to_exponentiate(self, tmp_path, capsys):
        # Snapshots 800 apart at kappa 1: the growth bound's factor e^800
        # overflows a float, and the check is still reported.
        cfg = ExperimentConfig(name="sparse", mode="intrinsic",
                               params=ModelParams(kappa=1.0, rho=2.0, alpha1=0.01),
                               grid=Grid1D(-20.0, 40.0, 61, 0.0, 800.0, 80), snapshot_stride=80)
        out = run(cfg, tmp_path / "sparse").out_dir
        assert (out / "manifest.json").is_file()
        rows = [r.split(",") for r in (out / "diagnostics.csv").read_text().splitlines()]
        growth = [r for r in rows if r[0] == "intrinsic_growth"]
        assert len(growth) == 1 and math.isfinite(float(growth[0][3]))
        assert main(["diag", str(out)]) == 0
        assert "intrinsic_growth t=800" in capsys.readouterr().out
        assert_diagnostics_rebuilt(out)

    def test_diag_damaged_binary_snapshot_exit_code(self, tmp_path, capsys):
        run_dir = mini_binary_run(tmp_path)
        snap = sorted((run_dir / "fields").glob("snap_*.npz"))[1]
        snap.write_bytes(_damage_member(snap.read_bytes(), "J.npy", "data", 0xFF))
        assert main(["diag", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and snap.stem in err

    def test_diag_reports_strategy_out_of_range(self, tmp_path, capsys):
        # The diagnostics read s clipped to [0, 1]: an s outside it is a
        # failed s_range row, not an invalid input.
        run_dir = mini_kpp_run(tmp_path)
        snap = sorted((run_dir / "fields").glob("snap_*.csv"))[1]
        _map_csv_column(snap, "s", lambda v: 1.5)
        assert main(["diag", str(run_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        t = snap.read_text().splitlines()[0][len("# t="):]
        assert any(line.startswith(f"FAIL s_range t={float(t):.6g} ") for line in lines)
        assert lines[-1] == "diagnostics: FAIL"

    def test_diag_reads_binary_snapshots(self, tmp_path, capsys):
        p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)
        grid = Grid1D(-20.0, 40.0, 241, 0.0, 2.0, 40)
        reports = []
        for binary in (False, True):
            cfg = ExperimentConfig(name="mini", mode="intrinsic", params=p, grid=grid,
                                   snapshot_stride=10, binary_fields=binary)
            res = run(cfg, tmp_path / f"binary-{binary}")
            assert main(["diag", str(res.out_dir)]) == 0
            reports.append(capsys.readouterr().out)
            assert_diagnostics_rebuilt(res.out_dir)
        assert "diagnostics: PASS" in reports[1]
        assert reports[1] == reports[0]


# -- malformed input properties ------------------------------------------------

def _small_configs() -> list[ExperimentConfig]:
    """One config per runner, each a run of a few milliseconds."""
    base = dict(name="prop", params=ModelParams(kappa=1.0, rho=2.0, alpha1=0.5),
                grid=Grid1D(-10.0, 20.0, 61, 0.0, 1.0, 10), snapshot_stride=5, initial_l0=2.0)
    return [ExperimentConfig(mode="particles", particles=ParticleSpec(n=50, seed=1), **base),
            ExperimentConfig(mode="intrinsic", **base),
            ExperimentConfig(mode="nash", mfg=MfgConfig(max_iter=2), **base)]


def _leaf_paths(d: dict, head: tuple = ()) -> list[tuple]:
    """The key path of every value in d that is not itself a JSON object."""
    paths = []
    for key, v in d.items():
        paths += _leaf_paths(v, head + (key,)) if isinstance(v, dict) else [head + (key,)]
    return paths


#: Odd values for a config leaf: wrong types, words the config knows in the
#: wrong place, numbers out of range, non-finite or beyond int64.
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.sampled_from(["kpp", "nash", "particles", "compare", "rank", "ratio", "ramp"]),
    st.integers(min_value=-2**70, max_value=2**70), st.integers(min_value=-3, max_value=300),
    st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.5, 1e300]),
    st.lists(st.floats(min_value=-5.0, max_value=5.0), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _near(v) -> st.SearchStrategy:
    """Numbers of v's own type near v, at its scale, or far from it."""
    scales = [0, -1, 0.5, 2, 1e3] if isinstance(v, float) else [0, -1, 2, 10]
    return st.sampled_from([type(v)(v * c) for c in scales] + [v + 1, v - 1])


@st.composite
def odd_configs(draw):
    """A small config dict with one or two leaves set to odd values."""
    d = draw(st.sampled_from(_small_configs())).to_dict()
    for *head, last in draw(st.lists(st.sampled_from(_leaf_paths(d)), min_size=1,
                                     max_size=2, unique=True)):
        node = d
        for key in head:
            node = node[key]
        v = node[last]
        numeric = isinstance(v, (int, float)) and not isinstance(v, bool)
        node[last] = draw(_near(v) if numeric and draw(st.booleans()) else ODD_VALUES)
    return d


def _capped(cfg: ExperimentConfig) -> bool:
    """Whether a valid config is small enough to run: few nodes, steps, agents
    and Picard iterations, and a step the rank-local reference refines little."""
    g = cfg.grid
    return (g.nx <= 256 and g.nt <= 40 and g.dt <= 0.2
            and (cfg.particles is None or cfg.particles.n <= 2000)
            and (cfg.mfg is None or cfg.mfg.max_iter <= 5))


@functools.cache
def _small_checkpoint() -> bytes:
    """The checkpoint a 50-agent rank-rule run leaves, with its config."""
    with tempfile.TemporaryDirectory() as tmp:
        out = run(_small_configs()[0], Path(tmp) / "ck").out_dir
        return (out / "checkpoint.npz").read_bytes()


@functools.cache
def _small_snapshots() -> dict[str, bytes]:
    """A CSV and an npz snapshot of a 61-node intrinsic run, by suffix."""
    snaps = {}
    with tempfile.TemporaryDirectory() as tmp:
        for binary in (False, True):
            cfg = dataclasses.replace(_small_configs()[1], binary_fields=binary)
            snap = sorted((run(cfg, Path(tmp) / f"snap-{binary}").out_dir / "fields").iterdir())[1]
            snaps[snap.suffix] = snap.read_bytes()
    return snaps


@functools.cache
def _small_tracks() -> bytes:
    """The tracks.csv of a 61-node intrinsic run: eleven rows, t from 0 to 1."""
    with tempfile.TemporaryDirectory() as tmp:
        return (run(_small_configs()[1], Path(tmp) / "tracks").out_dir / "tracks.csv").read_bytes()


class TestMalformedInputProperties:
    """Whatever the input, nothing but a KdlabError leaves the harness."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(d=odd_configs())
    def test_odd_config_values(self, d):
        try:
            cfg = ExperimentConfig.from_dict(d)
        except KdlabError:
            return
        if _capped(cfg):
            with tempfile.TemporaryDirectory() as tmp:
                try:
                    run(cfg, Path(tmp) / "run")
                except KdlabError:
                    pass

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(edits=st.lists(st.tuples(st.booleans(), st.integers(min_value=0), st.integers(1, 255)),
                          min_size=1, max_size=3),
           cut=st.none() | st.integers(min_value=0))
    def test_damaged_checkpoint_bytes(self, edits, cut):
        raw = bytearray(_small_checkpoint())
        # Half the edits land in the zip headers, which a uniform offset rarely hits.
        headers = [i for i in range(len(raw) - 3) if raw[i:i + 2] == b"PK"]
        for in_header, offset, mask in edits:
            i = headers[offset % len(headers)] + offset % 46 if in_header else offset
            raw[i % len(raw)] ^= mask
        if cut is not None:
            raw = raw[:cut % len(raw)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "checkpoint.npz"
            path.write_bytes(raw)
            try:
                load_checkpoint(path)
                resume(path, Path(tmp) / "resumed")
            except KdlabError:
                pass

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(suffix=st.sampled_from([".csv", ".npz"]),
           edits=st.lists(st.tuples(st.booleans(), st.integers(min_value=0), st.integers(1, 255)),
                          min_size=1, max_size=3),
           cut=st.none() | st.integers(min_value=0))
    def test_damaged_snapshot_bytes(self, suffix, edits, cut):
        raw = bytearray(_small_snapshots()[suffix])
        # Half the edits land next to structure, which a uniform offset rarely
        # hits: the zip headers of an npz, the line breaks of a CSV.
        marks = [i for i in range(len(raw) - 1)
                 if (raw[i:i + 2] == b"PK" if suffix == ".npz" else raw[i] == ord("\n"))]
        for near_mark, offset, mask in edits:
            i = marks[offset % len(marks)] + offset % 46 if near_mark else offset
            raw[i % len(raw)] ^= mask
        if cut is not None:
            raw = raw[:cut % len(raw)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"snap_000005{suffix}"
            path.write_bytes(raw)
            grid = _small_configs()[1].grid
            try:
                snap = harness._read_snapshot(path, grid)
            except KdlabError:
                return
            assert grid.t0 <= snap.t <= grid.t_final

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(edits=st.lists(st.tuples(st.booleans(), st.integers(min_value=0), st.integers(1, 255)),
                          min_size=1, max_size=3),
           cut=st.none() | st.integers(min_value=0))
    @example(edits=[(True, 0, 1)], cut=0)  # cut to nothing, which few draws hit
    @pytest.mark.filterwarnings("error::UserWarning")  # numpy's, on a file cut to nothing
    def test_damaged_track_bytes(self, edits, cut):
        raw = bytearray(_small_tracks())
        # Half the edits land next to a line break, which a uniform offset rarely hits.
        breaks = [i for i, b in enumerate(raw) if b == ord("\n")]
        for near_break, offset, mask in edits:
            i = breaks[offset % len(breaks)] + offset % 46 if near_break else offset
            raw[i % len(raw)] ^= mask
        if cut is not None:
            raw = raw[:cut % len(raw)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tracks.csv"
            path.write_bytes(raw)
            try:
                harness.read_tracks(path)
            except KdlabError:
                pass
            assert main(["speeds", str(path), "--window", "0,1"]) in (0, 2)
