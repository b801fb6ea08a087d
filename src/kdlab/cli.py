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

from . import harness
from .analysis import estimate_speed
from .errors import CheckpointError, ConfigError, KdlabError, NumericalError


def _out_root(override: str | None) -> Path:
    return Path(override or os.environ.get(harness.OUTPUT_ROOT_ENV, "runs"))


def _run_and_report(config: harness.ExperimentConfig, out: str | None, speeds: bool = False) -> int:
    """Run config under the output root; print where, the speeds if asked, and any failed checks."""
    result = harness.run(config, _out_root(out) / config.name)
    print(f"wrote {result.out_dir}")
    if speeds:
        for kind, entry in sorted(result.manifest["speeds"].items()):
            if entry:
                print(f"{kind} speed: {entry['speed']:.4f} (r^2={entry['r_squared']:.5f})")
    if not result.manifest["diagnostics_passed"]:
        print("diagnostics: FAILED checks " + ", ".join(result.manifest["diagnostics_failures"]))
    return 0


def _cmd_run(args) -> int:
    return _run_and_report(harness.ExperimentConfig.from_json_file(args.config), args.out)


def _cmd_preset(args) -> int:
    if args.list:
        print("\n".join(harness.PRESET_NAMES))
        return 0
    if not args.name:
        raise ConfigError("preset name required (or use --list)")
    return _run_and_report(harness.preset_config(args.name), args.out, speeds=True)


def _cmd_speeds(args) -> int:
    try:
        window = [float(v) for v in args.window.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--window must be 'a,b', got {args.window!r}") from exc
    window = harness.check_window(window, "--window")
    for kind, track in harness.read_tracks(args.track_file).items():
        try:
            fit = estimate_speed(track, window)
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
    ck = Path(args.checkpoint)
    result = harness.resume(ck, _out_root(args.out) / f"{ck.parent.name or 'resumed'}-resumed")
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
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a shipped preset by name")
    p_preset.add_argument("name", nargs="?", help="preset name")
    p_preset.add_argument("--list", action="store_true", help="list preset names")
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
    p_resume.set_defaults(func=_cmd_resume)
    for p in (p_run, p_preset, p_resume):
        p.add_argument("--out", help="output root (default $KDLAB_OUT or ./runs)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
