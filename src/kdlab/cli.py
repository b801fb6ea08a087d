"""Command-line interface.

Subcommands: run a config file, run a shipped preset, fit speeds from a track
file, re-evaluate diagnostics on a run directory, and resume a checkpointed
particle run.  Exit codes: 0 success, 2 config error or any other invalid
input (a KdlabError without a code of its own, such as a DomainError), 3
numerical failure, 4 I/O error or unreadable checkpoint.  Diagnostic failures
do not change the exit status; they are flagged in the manifest.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import harness
from .analysis import FrontTrack, estimate_speed
from .errors import CheckpointError, ConfigError, KdlabError, NumericalError


def _out_root(override: str | None) -> Path:
    if override:
        return Path(override)
    return Path(os.environ.get(harness.OUTPUT_ROOT_ENV, "runs"))


def _cmd_run(args) -> int:
    config = harness.ExperimentConfig.from_json_file(args.config)
    out = _out_root(args.out) / config.name
    result = harness.run(config, out)
    print(f"wrote {result.out_dir}")
    if not result.manifest["diagnostics_passed"]:
        print("diagnostics: FAILED checks " + ", ".join(result.manifest["diagnostics_failures"]))
    return 0


def _cmd_preset(args) -> int:
    if args.list:
        for name in harness.PRESET_NAMES:
            print(name)
        return 0
    if not args.name:
        raise ConfigError("preset name required (or use --list)")
    config = harness.preset_config(args.name)
    out = _out_root(args.out) / config.name
    result = harness.run(config, out)
    print(f"wrote {result.out_dir}")
    for kind, entry in sorted(result.manifest["speeds"].items()):
        if entry:
            print(f"{kind} speed: {entry['speed']:.4f} (r^2={entry['r_squared']:.5f})")
    if not result.manifest["diagnostics_passed"]:
        print("diagnostics: FAILED checks " + ", ".join(result.manifest["diagnostics_failures"]))
    return 0


def _cmd_speeds(args) -> int:
    try:
        a, b = (float(v) for v in args.window.split(","))
    except ValueError as exc:
        raise ConfigError(f"--window must be 'a,b', got {args.window!r}") from exc
    data = np.genfromtxt(args.track_file, delimiter=",", names=True)
    if "t" not in (data.dtype.names or ()):
        raise ConfigError(f"{args.track_file}: no 't' column")
    t = np.atleast_1d(data["t"])
    for col, kind in (("x_median", "median"), ("x_learning", "learning"), ("x_intrinsic", "intrinsic")):
        if col not in (data.dtype.names or ()):
            continue
        xs = np.atleast_1d(data[col])
        if not np.any(np.isfinite(xs)):
            continue
        track = FrontTrack(kind, t, xs)
        try:
            fit = estimate_speed(track, (a, b))
        except KdlabError as exc:
            print(f"{kind}: {exc}")
            continue
        print(f"{kind}: speed={fit.speed:.6g} intercept={fit.intercept:.6g} r2={fit.r_squared:.6g}")
    return 0


def _cmd_diag(args) -> int:
    report = harness.diagnose_run_dir(args.snapshot_dir)
    for check, t, passed, worst, loc in report.to_rows():
        status = "pass" if passed else "FAIL"
        where = "" if math.isnan(loc) else f" at x={loc:.4g}"
        print(f"{status} {check} t={t:.6g} worst={worst:.3e}{where}")
    print("diagnostics:", "PASS" if report.passed else "FAIL")
    return 0


def _cmd_resume(args) -> int:
    out = _out_root(args.out)
    ck = Path(args.checkpoint)
    run_name = ck.parent.name or "resumed"
    result = harness.resume(ck, out / f"{run_name}-resumed")
    print(f"wrote {result.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdlab",
        description="Knowledge-diffusion mean-field lab: solvers, agents, fronts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", help="output root (default $KDLAB_OUT or ./runs)")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a shipped preset by name")
    p_preset.add_argument("name", nargs="?", help="preset name")
    p_preset.add_argument("--list", action="store_true", help="list preset names")
    p_preset.add_argument("--out", help="output root (default $KDLAB_OUT or ./runs)")
    p_preset.set_defaults(func=_cmd_preset)

    p_speeds = sub.add_parser("speeds", help="fit front speeds from a track file")
    p_speeds.add_argument("track_file")
    p_speeds.add_argument("--window", required=True, help="fit window 'a,b'")
    p_speeds.set_defaults(func=_cmd_speeds)

    p_diag = sub.add_parser("diag", help="re-evaluate diagnostics on a run directory")
    p_diag.add_argument("snapshot_dir")
    p_diag.set_defaults(func=_cmd_diag)

    p_resume = sub.add_parser("resume", help="resume a checkpointed particle run")
    p_resume.add_argument("checkpoint")
    p_resume.add_argument("--out", help="output root (default $KDLAB_OUT or ./runs)")
    p_resume.set_defaults(func=_cmd_resume)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, CheckpointError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except KdlabError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
