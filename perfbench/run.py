"""kdlab benchmark: one shipped preset per workload, end to end, plus a traced split.

    python3 perfbench/run.py --workload {nash,intrinsic,particles} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the repository root is the parent of this directory, and
the workers import kdlab from its ``src``.  Every sample runs in a fresh
process (worker.py) with BLAS/OpenMP thread caps of 1.

Every run measures, untraced: ``wall_s`` (median ``harness.run`` time over
the runs that fit in S seconds), ``setup_s`` (median time of fresh processes
to ready-to-run), ``peak_rss_mb`` (peak RSS of the run process before the
reread) and ``reread_s`` (median ``kdlab diag`` time on the directory just
written).  Failed checks are counted in ``failed`` out of ``attempted`` and
printed as ``fail_frac``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json in the JSON line; ``reread_s`` is left out there because its
run-to-run spread is wider than any bound, and ``fail_frac`` because it is 0.
``--trace 1`` then runs once more with spans around kdlab's public functions
and reports the per-layer metrics, with ``reread_s`` as ``cli.reread_s`` and
``trace.overhead_s`` as traced minus untraced ``wall_s``.

``--seed`` is the particle seed (default: the preset's); the PDE workloads
are deterministic and ignore it.  ``bit_identical`` compares the run's
artifact hashes (CSV and JSON files) with reference.json, recorded for the
default seed.  A change that alters the outputs on purpose copies the new
hashes from ``.bench_out/<workload>/measure/manifest.json`` into
reference.json and says why.

The last stdout line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit status is 0 when every check passed, 1 when one failed, and 2 when
the benchmark could not run (no kdlab source, a worker crash or timeout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT, PRESETS, ROOT

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Units of the untraced measurements; BENCHMARK.json declares the steady ones.
UNITS = {"wall_s": "s", "setup_s": "s", "reread_s": "s", "peak_rss_mb": "MB"}
#: Fresh processes timed to ready-to-run besides the measuring one.  The
#: host's speed drifts over seconds, so samples spread over the run steady
#: the median.  Each costs about 1.5 s; six keep a run of the slowest
#: workload under a minute.
SETUP_PROBES = 6
#: Every worker must be done this long after start, inside the 180 s limit.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["TMPDIR"] = str(OUT / "tmp")
    env.pop("KDLAB_OUT", None)
    return env


def run_worker(mode: str, args, deadline: float) -> tuple[float, dict | None]:
    """Start worker.py, time it to its ``ready`` line, and return (set-up s, record)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--mode", mode,
           "--seconds", str(args.seconds)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - t0))[0]:
            raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    return setup_s, (json.loads(out.strip().splitlines()[-1]) if mode != "probe" else None)


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "kdlab").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def bit_identical(workload: str, record: dict) -> tuple[bool | None, str]:
    try:
        ref = json.loads(REFERENCE.read_text()).get(workload)
    except (OSError, ValueError):
        ref = None
    if ref is None or ref["seed"] != record["seed"]:
        return None, "no reference for this seed"
    differ = sorted(k for k in ref["files"].keys() | record["files"].keys()
                    if ref["files"].get(k) != record["files"].get(k))
    return not differ, f"{len(differ)} of {len(ref['files'])} files differ" + (
        f": {', '.join(differ[:5])}" if differ else "")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PRESETS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "kdlab" / "__init__.py").is_file():
        raise BenchError(f"no kdlab source under {ROOT / 'src'}")
    deadline = time.perf_counter() + DEADLINE_S
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    # Half the probes run before the measuring process and half after, so the
    # set-up samples span the whole run rather than one slow or fast spell.
    probes = 0 if args.trace else SETUP_PROBES
    setups = [run_worker("probe", args, deadline)[0] for _ in range(probes // 2)]
    setup_s, rec = run_worker("measure", args, deadline)
    setups.append(setup_s)
    setups += [run_worker("probe", args, deadline)[0] for _ in range(probes - probes // 2)]
    records = [rec]
    if args.trace:
        records.append(run_worker("trace", args, deadline)[1])

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    same, detail = bit_identical(args.workload, rec)

    samples = {"wall_s": rec["walls"], "setup_s": setups, "reread_s": rec["rereads"],
               "peak_rss_mb": [rec["peak_rss_mb"]]}
    values = {name: statistics.median(got) for name, got in samples.items()}
    meta = {
        "workload": args.workload, "preset": PRESETS[args.workload], "seed": rec["seed"],
        "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(),
        "src_sha256": source_digest(), **rec["versions"], "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "thread_caps": {var: child_env()[var] for var in THREAD_VARS},
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for problem in (p for r in records for p in r["problems"]):
        print(f"check failed: {problem}")
    for name, got in samples.items():
        print(f"{name:12s} {values[name]:12.6g} {UNITS[name]:3s}"
              f"  median of {len(got)}: {' '.join(f'{v:.4g}' for v in got)}")
    print(f"{'fail_frac':12s} {failed / attempted:12.6g} 1    {failed} of {attempted} failed")
    declared = bench["end_to_end"]
    if args.trace:
        layers = dict(records[1]["layers"])
        layers["cli.reread_s"] = values["reread_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - values["wall_s"]
        values = layers
        declared = bench["per_layer"]
        for m in declared:
            print(f"{m['name']:34s} {values[m['name']]:14.6g} {m['unit']}")
    print(f"bit_identical {same} ({detail})")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
