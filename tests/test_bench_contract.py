"""The benchmark's tracer wraps library functions by module and name, and its
jobs call the CLI with a fixed argv; each name must exist and the argv must
parse, or only benchmark runs would find out."""

import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import TARGETS  # noqa: E402

from blindspots import cli  # noqa: E402
from blindspots.cli import main  # noqa: E402


@pytest.mark.parametrize("module, name", [(module, name) for module, name, _, _ in TARGETS])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"blindspots.{module}"), name))


BENCH_CONFIG = {
    "hbar": 0.075,
    "states": [{"amplitude": 1.0, "center": c} for c in ([0.0, 0.0], [0.4, 0.0], [0.0, 0.4])],
    "grid": {"kind": "chord", "window": [[-0.4, 0.4], [-0.4, 0.4]], "shape": [5, 5]},
    "lindblad": {"couplings": [{"re": [1.0, 0.0]}, {"re": [0.0, 1.0]}]},
    "decohere": {"line": {"point": [0.0, 0.0], "direction": [1.0, 0.0]},
                 "s_range": [-0.3, 0.3], "n_samples": 5, "times": [0.0], "summary": False},
    "invert": {"spots": [{"xi": [0.3, 0.1], "k": [0, 0]}, {"xi": [0.1, 0.4], "k": [1, 0]}]},
    "check": {"n_random": 2},
}


@pytest.mark.parametrize("sub", ["grid", "spots", "decohere", "invert", "check"])
def test_cli_accepts_bench_argv(tmp_path, sub):
    """bench/workloads.py runs every job as [sub, cfg, "--out", path, "--threads", "1"]."""
    # the tracer finds cmd_* by identity in cli._COMMANDS; anything else in
    # that table would hide the CLI spans
    assert cli._COMMANDS[sub] is getattr(cli, f"cmd_{sub}")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))
    out = tmp_path / "out.csv"
    assert main([sub, str(cfg), "--out", str(out), "--threads", "1"]) == 0
    assert out.read_text().startswith("# blindspots ")
