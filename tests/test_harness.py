"""Harness: configs, presets, runs, checkpoints, resume, CLI."""

import dataclasses
import json
import math

import numpy as np
import pytest

from kdlab.backward import TerminalCondition
from kdlab.cli import main
from kdlab.errors import CheckpointError, ConfigError, DomainError, NonFiniteError
from kdlab.grid import Grid1D, Profile, SpaceTimeField
from kdlab import harness
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
from kdlab.model import ModelParams
from kdlab.particles import ParticleState


def tiny_particle_config(name="tiny", n=400, nt=30, seed=11):
    p = ModelParams(kappa=1.0, rho=2.0, alpha1=0.5)
    grid = Grid1D(-20.0, 40.0, 241, 0.0, nt * 0.1, nt)
    return ExperimentConfig(
        name=name, mode="particles", params=p, grid=grid,
        particles=ParticleSpec(n=n, rule="rank", seed=seed),
        snapshot_stride=10, initial_l0=2.0,
    )


def assert_diagnostics_rebuilt(out):
    """The diagnostics rebuilt from out/fields equal out/diagnostics.csv byte for byte."""
    rebuilt = out.parent / f"{out.name}-rebuilt.csv"
    _write_diagnostics(rebuilt, diagnose_run_dir(out).to_rows())
    assert rebuilt.read_bytes() == (out / "diagnostics.csv").read_bytes()


#: Configs no preset covers: an explicit terminal condition, a smoothed-rank rule.
EXTRA_CONFIGS = {
    "nash-terminal": lambda: dataclasses.replace(
        preset_config("lottery-nash"),
        terminal=TerminalCondition(kind="logistic", center=3.5, slope=0.75)),
    "smoothed-rank": lambda: dataclasses.replace(
        tiny_particle_config(),
        particles=ParticleSpec(n=400, seed=11, rule="smoothed-rank", kernel_width=0.5)),
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

    def test_custom_terminal_rejected(self):
        # A custom profile has no JSON form, so its config.json could not be read back.
        cfg = preset_config("lottery-nash")
        profile = ramp_initial(cfg.grid, 5.0)
        custom = TerminalCondition(kind="custom", profile=Profile(cfg.grid, 1.0 - profile.values))
        with pytest.raises(ConfigError, match="custom"):
            dataclasses.replace(cfg, terminal=custom)

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
        cols = {"F": vals, "J": vals[::-1].copy()}
        harness._write_snapshot(cfg, tmp_path, 3, 0.5, cols)
        nan = np.full(8, math.nan)
        rows = zip(cfg.grid.x, vals, nan, nan, vals[::-1], nan)
        lines = ["# t=0.5", "x,F,w,I,J,s", *(",".join(f"{v:.17g}" for v in r) for r in rows)]
        assert (tmp_path / "fields" / "snap_000003.csv").read_text() == "\n".join(lines) + "\n"

        track_rows = [tuple(vals[i:i + 4]) for i in range(5)]
        harness._write_tracks(tmp_path / "tracks.csv", track_rows)
        lines = ["t,x_median,x_learning,x_intrinsic",
                 *(",".join(f"{v:.17g}" for v in r) for r in track_rows)]
        assert (tmp_path / "tracks.csv").read_text() == "\n".join(lines) + "\n"

    def test_binary_snapshot_option(self, tmp_path):
        cfg = tiny_particle_config()
        cfg.binary_fields = True
        run(cfg, tmp_path / "bin")
        npz = sorted((tmp_path / "bin" / "fields").glob("snap_*.npz"))
        assert npz
        data = np.load(npz[0])
        assert "F" in data and "x" in data

    def test_particle_fields_only_on_recorded_steps(self, tmp_path, monkeypatch):
        # A grid narrower than the cloud, so agents stray off both ends.
        cfg = dataclasses.replace(tiny_particle_config(), track_stride=4, snapshot_stride=8,
                                  grid=Grid1D(-3.0, 3.0, 25, 0.0, 3.0, 30))
        cdf_steps, below, above = [], [], []
        real_cdf = harness.empirical_cdf

        def counted_cdf(state, grid):
            cdf_steps.append(state.step_index)
            est = real_cdf(state, grid)
            below.append(est.n_below)
            above.append(est.n_above)
            return est

        monkeypatch.setattr(harness, "empirical_cdf", counted_cdf)
        res = run(cfg, tmp_path / "strided")
        monkeypatch.undo()
        recorded = [*range(0, cfg.grid.nt, 4), cfg.grid.nt]  # snapshots 0, 8, ... among them
        assert cdf_steps == recorded
        on_disk = json.loads((res.out_dir / "manifest.json").read_text())
        assert on_disk["particles"] == {"n_below_max": max(below), "n_above_max": max(above)}
        assert min(max(below), max(above)) > 0
        run(dataclasses.replace(cfg, track_stride=1), tmp_path / "full")
        full = (tmp_path / "full" / "tracks.csv").read_text().splitlines()
        strided = (tmp_path / "strided" / "tracks.csv").read_text().splitlines()
        assert strided == [full[0]] + [full[1 + j] for j in recorded]

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


def write_field_archive(path, kind):
    """An npz in the layout the removed field/profile checkpoint kinds had."""
    if kind == "field":
        g, values = Grid1D(-2.0, 2.0, 17, 0.0, 1.0, 4), np.zeros((5, 17))
    else:
        g, values = Grid1D(-2.0, 2.0, 17, 0.0, 0.0, 0), np.linspace(1, 0, 17)
    meta = {"checkpoint_version": harness.CHECKPOINT_VERSION}
    np.savez(path, kind=kind, meta=json.dumps(meta), values=values,
             grid=np.array([g.x_min, g.x_max, g.nx, g.t0, g.t_final, g.nt]))


class TestCheckpoint:
    def test_particle_state_roundtrip(self, tmp_path):
        st = ParticleState(positions=np.random.default_rng(0).normal(size=64),
                           time=1.5, seed=9, step_index=15)
        save_checkpoint(st, tmp_path / "st.npz")
        back, _ = load_checkpoint(tmp_path / "st.npz")
        assert np.array_equal(back.positions, st.positions)
        assert (back.time, back.seed, back.step_index) == (1.5, 9, 15)
        assert np.array_equal(back.stream_ids, st.stream_ids)

    @pytest.mark.parametrize("kind", ["field", "profile"])
    def test_only_particle_states_load(self, tmp_path, kind):
        # An archive in the layout of the removed field/profile kinds.
        path = tmp_path / "f.npz"
        write_field_archive(path, kind)
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        st = ParticleState(positions=np.zeros(4), time=0.0, seed=1)
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
                            time=1.5, seed=9, step_index=15)
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(old, path)

        def torn_write(file, **arrays):
            file.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ParticleState(positions=np.zeros(64), time=2.0, seed=9), path)
        monkeypatch.undo()
        back, _ = load_checkpoint(path)
        assert np.array_equal(back.positions, old.positions)
        assert (back.time, back.seed, back.step_index) == (1.5, 9, 15)
        assert [f.name for f in tmp_path.iterdir()] == ["checkpoint.npz"]

    @pytest.mark.parametrize(
        "drop", ["meta", "kind", "positions", "stream_ids", "time", "seed", "step_index"]
    )
    def test_missing_key(self, tmp_path, drop):
        obj = ParticleState(positions=np.zeros(4), time=0.0, seed=1)
        path = tmp_path / "k.npz"
        save_checkpoint(obj, path)
        data = dict(np.load(path, allow_pickle=False))
        del data[drop]
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match=drop):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, error", [
        ("stream_ids", np.array([0, 0, 1, 2]), DomainError),
        ("positions", np.array([0.0, np.nan, 0.0, 0.0]), NonFiniteError),
    ])
    def test_loaded_state_is_checked(self, tmp_path, key, value, error):
        path = tmp_path / "c.npz"
        save_checkpoint(ParticleState(positions=np.zeros(4), time=0.0, seed=1), path)
        data = dict(np.load(path, allow_pickle=False))
        data[key] = value
        np.savez(path, **data)
        with pytest.raises(error):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta", ["{not json", "[1, 2]"])
    def test_malformed_meta(self, tmp_path, meta):
        path = tmp_path / "m.npz"
        save_checkpoint(ParticleState(positions=np.zeros(4), time=0.0, seed=1), path)
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
        cfg = tiny_particle_config(nt=20)
        cfg.mode = "compare"
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

    def test_resume_requires_particles(self, tmp_path):
        write_field_archive(tmp_path / "f.npz", "field")
        with pytest.raises(CheckpointError):
            resume(tmp_path / "f.npz", tmp_path / "out")


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
        assert "diagnostics:" in capsys.readouterr().out
        assert_diagnostics_rebuilt(run_dir)

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
        lambda d: d["particles"].update(rule="smoothed-rank", kernel_width=-0.5),
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
        lambda d: d.update(terminal_condition={"center": "3"}),
        lambda d: d.update(mfg={"max_iter": 2.5}),
        lambda d: d.update(name=5),
        lambda d: d.update(name="../x"),
        lambda d: d["initial_condition"].update(l0="5"),
        lambda d: d["initial_condition"].update(l0=True),
        lambda d: d.update(out_dir="elsewhere"),
        lambda d: d["output"].update(snapshot_every=5),
        lambda d: d["initial_condition"].update(width=1.0),
    ], ids=["not-object", "float-nx", "float-nt", "window-length", "window-order",
            "window-string", "unknown-rule", "smoothed-no-width", "smoothed-negative-width",
            "float-n", "negative-seed", "float-seed", "float-snapshot-stride",
            "float-track-stride", "string-binary-fields", "removed-mfg-key",
            "output-not-object", "initial-not-object", "terminal-not-object",
            "string-terminal-center", "float-max-iter", "int-name", "name-leaves-out-root",
            "string-l0", "bool-l0", "unknown-top-key", "unknown-output-key",
            "unknown-initial-key"])
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

    def test_speeds_needs_t_column(self, tmp_path):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("time,x_median\n0,1\n1,2\n")
        assert main(["speeds", str(tracks), "--window", "0,1"]) == 2

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
        state = ParticleState(positions=np.zeros(4), time=0.0, seed=11)
        save_checkpoint(state, bad)
        data = dict(np.load(bad, allow_pickle=False))
        meta = json.loads(str(data["meta"]))
        data["meta"] = json.dumps({**meta, "config": cfg})
        np.savez(bad, **data)
        with pytest.raises(CheckpointError, match="malformed config"):
            load_checkpoint(bad)
        assert main(["resume", str(bad), "--out", str(tmp_path / "res")]) == 4

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
