"""The benchmark's tracer wraps library functions by module and name; each
of them must exist, or only traced benchmark runs would find out."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize("module, name", [(module, name) for module, name, _, _ in TARGETS])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"blindspots.{module}"), name))
