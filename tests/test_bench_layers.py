"""The benchmark's layer trace calls public names of the package; they must exist."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_every_traced_public_name_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.missing_calls() == []
