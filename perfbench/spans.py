"""Spans around the calls into kdlab's public functions, and the per-layer metrics.

The tracer wraps each traced function in every kdlab module namespace that
holds it, so a call is caught wherever its caller looks the name up
(``kdlab.forward.solve_tridiagonal`` and ``kdlab.backward.solve_tridiagonal``
are the same function, wrapped once).  Nothing in the package is edited.  A
name that the package no longer has is simply never called and reads as
zero.

A span's self time is its duration minus the durations of its direct child
spans.  Generator functions (``iter_forward``) are timed per ``next()``: each
step the consumer pulls is one span, so time the consumer spends between
steps is not charged to the generator.

Time steps are counted from the spans that take them, with nx from their
``grid`` argument: one per ``iter_forward`` ``next()`` after the first yield
(which hands out the initial slice), and ``grid.nt`` per ``solve_rank_local``
or ``solve_backward`` call.  They do not depend on how a step is computed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: Traced public function -> layer (the kdlab module that defines it).
LAYER_OF = {
    "run": "harness",
    "save_checkpoint": "harness",
    "iter_forward": "forward",
    "solve_forward": "forward",
    "solve_rank_local": "forward",
    "solve_backward": "backward",
    "solve_nash": "mfg",
    "best_response": "mfg",
    "step_particles": "particles",
    "eval_strategy": "particles",
    "empirical_cdf": "particles",
    "run_diagnostics": "analysis",
    "locate_level": "analysis",
    "discounted_tail": "model",
    "solve_tridiagonal": "grid",
    "main": "cli",
}

#: Traced functions that take whole time steps on their ``grid`` argument.
STEPPERS = {"iter_forward", "solve_rank_local", "solve_backward"}

#: Float64 arrays one tridiagonal solve touches: three bands, the right-hand
#: side and the solution, each of the system's size.
TRIDIAG_ARRAYS = 5
FLOAT_BYTES = 8


class Tracer:
    """Records one span per traced call.

    A span is (name, parent name, duration, self time, steps, nx): the time
    steps the call took and the cells per step, or for ``solve_tridiagonal``
    one solve of nx unknowns; (0, 0) for other functions.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, str | None, float, float, int, int]] = []
        # Open spans: [name, start, time covered by finished children].
        self._stack: list[list] = []

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, steps: int = 0, nx: int = 0) -> None:
        name, start, children = self._stack.pop()
        dur = time.perf_counter() - start
        parent = None
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        self.spans.append((name, parent, dur, dur - children, steps, nx))

    def wrap(self, fn, name: str):
        sig = inspect.signature(fn)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                nx = _grid_size(sig, args, kwargs)[1] if name in STEPPERS else 0
                inner = fn(*args, **kwargs)
                first = True
                try:
                    while True:
                        self._enter(name)
                        stepped = 0
                        try:
                            item = next(inner)
                            # The first item is the initial slice, not a step.
                            stepped = 0 if first else 1
                        except StopIteration:
                            return
                        finally:
                            self._exit(stepped, nx * stepped)
                        first = False
                        yield item
                finally:
                    inner.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            steps = nx = 0
            try:
                out = fn(*args, **kwargs)
                if name == "solve_tridiagonal":
                    steps, nx = 1, _band_size(args)
                elif name in STEPPERS:
                    steps, nx = _grid_size(sig, args, kwargs)
                return out
            finally:
                self._exit(steps, nx)

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded kdlab module namespace that holds it."""
        wrapped: dict[int, object] = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kdlab" or mod_name.startswith("kdlab.")):
                continue
            for name in LAYER_OF:
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn) or not fn.__module__.startswith("kdlab"):
                    continue
                if fn.__name__ != name:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(fn, name)
                setattr(mod, name, wrapped[id(fn)])


def _band_size(args: tuple) -> int:
    """Unknowns of a tridiagonal solve: the length of its first band."""
    try:
        return len(args[0])
    except (IndexError, TypeError):
        return 0


def _grid_size(sig: inspect.Signature, args: tuple, kwargs: dict) -> tuple[int, int]:
    """(nt, nx) of the call's ``grid`` argument; (0, 0) when it has none."""
    try:
        grid = sig.bind(*args, **kwargs).arguments.get("grid")
        return int(grid.nt), int(grid.nx)
    except (TypeError, AttributeError, ValueError):
        return 0, 0


def layer_metrics(spans, manifest: dict | None, run_s: float, files: int,
                  nbytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run and its reread, from the recorded spans.

    ``trace.overhead_s`` needs an untraced run and is added by the caller.
    """
    def layer(name):
        return LAYER_OF.get(name) if name is not None else None

    def total(name, parent_layer=None):
        return sum(s[2] for s in spans
                   if s[0] == name and (parent_layer is None or layer(s[1]) == parent_layer))

    def count(name, parent_layer=None):
        return sum(1 for s in spans
                   if s[0] == name and (parent_layer is None or layer(s[1]) == parent_layer))

    def self_of(lay):
        return sum(s[3] for s in spans if LAYER_OF[s[0]] == lay)

    def steps(names):
        return sum(s[4] for s in spans if s[0] in names)

    def cells(names):
        return sum(s[4] * s[5] for s in spans if s[0] in names)

    tri = [s for s in spans if s[0] == "solve_tridiagonal"]
    forward = ("iter_forward", "solve_rank_local")

    mfg = (manifest or {}).get("mfg") or {}
    iterations = int(mfg.get("iterations", 0))
    res = [r for r in mfg.get("residuals", []) if r > 0]
    contraction = (res[-1] / res[0]) ** (1.0 / (len(res) - 1)) if len(res) > 1 else 0.0
    warm = [s[2] for s in spans if s[0] == "solve_forward" and s[1] == "solve_nash"][:1]
    warm_s = warm[0] if warm else 0.0
    nash_s = total("solve_nash")
    diag_in_cli = sum(s[2] for s in spans if s[0] == "run_diagnostics" and s[1] == "main")

    m = {
        "grid.tridiag_calls": len(tri),
        "grid.tridiag_s": sum(s[2] for s in tri),
        "grid.tridiag_bytes_computed": TRIDIAG_ARRAYS * FLOAT_BYTES * sum(s[5] for s in tri),
        "model.tail_calls": count("discounted_tail"),
        "model.tail_s": total("discounted_tail"),
    }
    for parent in ("harness", "forward", "mfg"):
        m[f"model.tail_calls.in_{parent}"] = count("discounted_tail", parent)
        m[f"model.tail_s.in_{parent}"] = total("discounted_tail", parent)
    m.update({
        "forward.steps": steps(forward),
        "forward.cell_updates_computed": cells(forward),
        "forward.self_s": self_of("forward"),
        "forward.rank_local_s": total("solve_rank_local"),
        "backward.steps": steps(("solve_backward",)),
        "backward.self_s": self_of("backward"),
        "mfg.iterations": iterations,
        "mfg.contraction": contraction,
        "mfg.warm_start_s": warm_s,
        "mfg.iter_s": (nash_s - warm_s) / iterations if iterations else 0.0,
        "mfg.best_response_s": total("best_response"),
        "mfg.self_s": self_of("mfg"),
        "particles.steps": count("step_particles"),
        "particles.strategy_s": total("eval_strategy"),
        "particles.step_self_s": sum(s[3] for s in spans if s[0] == "step_particles"),
        "particles.cdf_s": total("empirical_cdf"),
        "particles.self_s": self_of("particles"),
        "analysis.locate_calls": count("locate_level"),
        "analysis.locate_s": total("locate_level"),
        "analysis.diagnostics_s": total("run_diagnostics"),
        "analysis.self_s": self_of("analysis"),
        "harness.self_s": self_of("harness"),
        "harness.checkpoint_s": total("save_checkpoint"),
        "harness.files_written": files,
        "harness.bytes_written": nbytes,
        "cli.read_s": total("main") - diag_in_cli,
        "trace.spans": len(spans),
        "trace.wall_s": run_s,
    })
    return m
