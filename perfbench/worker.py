"""One benchmark process: set up kdlab, signal ready, then run one workload.

run.py starts this script in a fresh interpreter for every sample it needs:

    python3 perfbench/worker.py --workload NAME --seed N \
        --mode {probe,measure,trace} --seconds S

The repository root is the parent of this directory: kdlab is imported from
its ``src``, and the run directory is its ``.bench_out/NAME/MODE``.

Set-up is ``import kdlab``, building the preset config and building its
initial profile; the line ``ready`` on stdout marks its end, so the parent
times a fresh process up to ready-to-run.  ``probe`` stops there.
``measure`` repeats ``harness.run`` untraced until S seconds have passed (at
least once), takes the peak RSS, then rereads the last run directory
REREADS times with ``kdlab diag`` through ``cli.main``.  ``trace`` does one run and one
reread with spans around kdlab's public functions.  Every run and reread is
checked; the last stdout line is one JSON object with the samples.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: ``kdlab diag`` repeats on the directory a measuring run wrote.
REREADS = 3

#: Benchmark workload -> shipped preset, run unchanged (the particle seed aside).
PRESETS = {
    "nash": "lottery-nash",
    "intrinsic": "lottery-intrinsic",
    "particles": "compare-particle-pde",
}


def check_run(workload: str, manifest: dict, out: Path) -> list[str]:
    """Output checks at the tolerances the acceptance tests use; returns the problems."""
    problems = []
    if not manifest.get("diagnostics_passed"):
        problems.append(f"diagnostics failed: {manifest.get('diagnostics_failures')}")
    speeds = manifest.get("speeds", {})

    def speed_within(kind: str, target: float, tol: float) -> None:
        entry = speeds.get(kind)
        if entry is None or not abs(entry["speed"] - target) <= tol:
            got = entry["speed"] if entry else None
            problems.append(f"{kind} speed {got} not within {target:.4f} +/- {tol:.4f}")

    if workload == "nash":
        if not manifest.get("mfg", {}).get("converged"):
            problems.append("Picard iteration did not converge")
        rows = [line.split(",") for line in
                (out / "diagnostics.csv").read_text().splitlines()[1:]]
        sandwich = [r[2] == "1" for r in rows if r[0] == "front_sandwich"]
        if not sandwich or not all(sandwich):
            problems.append("learning front left the intrinsic sandwich")
    elif workload == "intrinsic":
        # The gap slope is a known red of this preset and is not checked here.
        speed_within("median", 1.0, 0.10)
        speed_within("learning", 1.25, 0.125)
    elif workload == "particles":
        target = 2.0 * math.sqrt(2.0 / 3.0)
        speed_within("median", target, 0.10 * target)
        speed_within("pde_median", target, 0.10 * target)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PRESETS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import kdlab
    from kdlab import cli, harness
    from kdlab.errors import KdlabError

    if SRC not in Path(kdlab.__file__).resolve().parents:
        print(f"kdlab imported from {kdlab.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    cfg = harness.preset_config(PRESETS[args.workload])
    if cfg.particles is not None and args.seed is not None:
        cfg.particles = dataclasses.replace(cfg.particles, seed=args.seed)
    harness.ramp_initial(cfg.grid, cfg.initial_l0)
    print("ready", flush=True)
    if args.mode == "probe":
        return 0

    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    out = OUT / args.workload / args.mode
    walls: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    manifest = None
    start = time.perf_counter()
    while not walls or (tracer is None and time.perf_counter() - start < args.seconds):
        shutil.rmtree(out, ignore_errors=True)
        attempted += 1
        try:
            t0 = time.perf_counter()
            result = harness.run(cfg, out)
            walls.append(time.perf_counter() - t0)
        except (KdlabError, OSError) as exc:
            failed += 1
            problems.append(f"run raised {type(exc).__name__}: {exc}")
            break
        manifest = result.manifest
        found = check_run(args.workload, manifest, out)
        if found:
            failed += 1
            problems.extend(found)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rereads: list[float] = []
    for _ in range(0 if manifest is None else REREADS if args.mode == "measure" else 1):
        attempted += 1
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["diag", str(out)])
        rereads.append(time.perf_counter() - t0)
        lines = buf.getvalue().splitlines()
        if code != 0 or not lines or lines[-1] != "diagnostics: PASS":
            failed += 1
            problems.append(f"kdlab diag exited {code}: {lines[-1] if lines else ''}")

    import numpy
    import scipy
    record = {
        "walls": walls,
        "rereads": rereads,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "seed": cfg.particles.seed if cfg.particles is not None else None,
        # npz archives carry their write time, so only CSV and JSON can repeat.
        "files": {k: v for k, v in (manifest or {}).get("files", {}).items()
                  if not k.endswith(".npz")},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "kdlab": kdlab.__version__},
    }
    if tracer is not None:
        from spans import layer_metrics
        files = [f for f in out.rglob("*") if f.is_file()]
        record["layers"] = layer_metrics(
            tracer.spans, manifest, walls[0] if walls else math.nan,
            len(files), sum(f.stat().st_size for f in files),
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
