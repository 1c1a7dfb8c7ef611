"""Per-layer spans around the public functions of the blindspots modules.

The modules bind each other's functions with `from .x import y`, and the CLI
keeps its subcommands in a table, so a wrapper replaces a function in every
`blindspots` module namespace and dict that holds it; otherwise calls from
`cli`, `fields`, `spots` and `decoherence` would escape the trace.

Each wrapped call is a span.  A span nested in a span of the same group (for
example `chord_values` inside `chord_exact`) is not counted again.  Times are
inclusive, except `cli.self_s`: the time in `cmd_*` less the spans inside it,
which leaves parsing, CSV formatting and writing.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np


def _points(args) -> int:
    """Sample count of a (state, xi_p, xi_q) call, or 1 for a (state, xi) call."""
    if len(args) < 3:
        return 1
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _chord(stats, call):
    stats["chord.eval_calls"] += 1
    stats["chord.eval_points"] += _points(call.args)
    stats["chord.eval_s"] += call.dur


def _fourier(stats, call):
    stats["fields.fourier_calls"] += 1
    stats["fields.fourier_cells"] += int(np.asarray(call.args[0].values).size)
    stats["fields.fourier_s"] += call.dur


def _newton(stats, call):
    stats["spots.newton_calls"] += 1
    stats["spots.newton_s"] += call.dur
    if call.failed:
        stats["spots.newton_failed"] += 1
    else:
        stats["spots.newton_iterations"] += call.result.iterations
    if call.in_scan:
        stats["scan.newton_calls"] += 1


def _scan(stats, call):
    stats["spots.scan_s"] += call.dur
    if not call.failed:
        stats["scan.kept"] += len(call.result)


def _wigner_t(stats, call):
    stats["decoherence.wigner_calls"] += 1
    stats["decoherence.wigner_cells"] += _points(call.args[1:])
    stats["decoherence.wigner_s"] += call.dur


def _matrix(stats, call):
    stats["decoherence.matrix_calls"] += 1
    stats["decoherence.matrix_s"] += call.dur


def _corr(stats, call):
    stats["decoherence.corr_calls"] += 1
    stats["decoherence.corr_points"] += int(np.atleast_2d(np.asarray(call.args[2])).shape[0])
    stats["decoherence.corr_s"] += call.dur


def _timer(name):
    def record(stats, call):
        stats[name] += call.dur
    return record


def _cli(stats, call):
    stats["cli.jobs"] += 1
    stats["cli.self_s"] += call.dur - call.child


# (module, function, group, recorder)
TARGETS = (
    ("chord", "chord_values", "chord", _chord),
    ("chord", "chord_gradient", "chord", _chord),
    ("chord", "chord_exact", "chord", _chord),
    ("chord", "wigner_values", "chord", _chord),
    ("fields", "fourier_2d", "fourier", _fourier),
    ("spots", "newton_refine", "newton", _newton),
    ("spots", "find_spots_generic", "scan", _scan),
    ("decoherence", "wigner_evolved_values", "wigner_t", _wigner_t),
    ("decoherence", "positivity_time", "positivity", _timer("decoherence.positivity_s")),
    ("decoherence", "decoherence_matrix", "matrix", _matrix),
    ("decoherence", "husimi_time", "husimi", _timer("decoherence.husimi_s")),
    ("decoherence", "correlation_evolved_points", "corr", _corr),
    ("decoherence", "lifting_time", "lifting", _timer("decoherence.lifting_s")),
    ("decoherence", "lifting_ratio", "ratio", _timer("decoherence.ratio_s")),
) + tuple(("cli", f"cmd_{name}", "cli", _cli)
          for name in ("grid", "spots", "decohere", "invert", "check"))

# Per-layer metrics in the order they are reported, with their units.
METRICS = {
    "chord.eval_calls": "count", "chord.eval_points": "count", "chord.eval_s": "s",
    "fields.fourier_calls": "count", "fields.fourier_cells": "count", "fields.fourier_s": "s",
    "spots.newton_calls": "count", "spots.newton_iterations": "count",
    "spots.newton_failed": "count", "spots.newton_s": "s", "spots.scan_s": "s",
    "spots.scan_yield": "spots/call",
    "decoherence.wigner_calls": "count", "decoherence.wigner_cells": "count",
    "decoherence.wigner_s": "s", "decoherence.positivity_s": "s",
    "decoherence.matrix_calls": "count", "decoherence.matrix_s": "s",
    "decoherence.husimi_s": "s",
    "decoherence.corr_calls": "count", "decoherence.corr_points": "count",
    "decoherence.corr_s": "s",
    "decoherence.lifting_s": "s", "decoherence.ratio_s": "s",
    "cli.jobs": "count", "cli.self_s": "s", "cli.bytes_out": "bytes",
    "cli.out_mb_per_s": "MB/s",
    "trace.overhead_s": "s",
}


class _Call:
    """One span: its group, arguments, outcome, duration and the time of the
    spans inside it."""

    __slots__ = ("group", "args", "result", "failed", "dur", "child", "in_scan")

    def __init__(self, group, args, in_scan):
        self.group, self.args, self.in_scan = group, args, in_scan
        self.result, self.failed, self.dur, self.child = None, True, 0.0, 0.0


class Tracer:
    """Installs the wrappers and sums each layer's counts and times."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.installed = False
        self._stack = []

    def install(self) -> None:
        self.installed = True
        for module, name, group, record in TARGETS:
            original = getattr(sys.modules[f"blindspots.{module}"], name)
            self._replace(original, self._wrap(original, group, record))

    @staticmethod
    def _replace(original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "blindspots" and not modname.startswith("blindspots."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper

    def _wrap(self, fn, group, record):
        stack, stats = self._stack, self.stats

        def wrapper(*args, **kwargs):
            nested = any(call.group == group for call in stack)
            call = _Call(group, args, any(c.group == "scan" for c in stack))
            stack.append(call)
            start = time.perf_counter()
            try:
                call.result = fn(*args, **kwargs)
                call.failed = False
                return call.result
            finally:
                call.dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child += call.dur
                if not nested:
                    record(stats, call)

        return wrapper

    def add_output(self, nbytes: int) -> None:
        """Count the bytes a CLI job wrote, once tracing is on."""
        if self.installed:
            self.stats["cli.bytes_out"] += nbytes

    def metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-round values of every per-layer metric."""
        s = self.stats
        out = {name: s[name] / rounds for name in METRICS}
        out["spots.scan_yield"] = s["scan.kept"] / s["scan.newton_calls"] if s["scan.newton_calls"] else 0.0
        out["cli.out_mb_per_s"] = s["cli.bytes_out"] / 1e6 / s["cli.self_s"] if s["cli.self_s"] else 0.0
        out["trace.overhead_s"] = overhead_s
        return {name: {"value": value, "unit": METRICS[name]} for name, value in out.items()}
