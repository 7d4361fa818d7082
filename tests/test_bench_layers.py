"""The benchmark's layer trace calls public names of the package and composes
the episodes that ``generate_episode`` draws."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from evokernel import ExperimentConfig

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_public_name_exists(layers):
    assert layers.missing_calls() == []


@pytest.mark.parametrize(
    "options", [{"cumulative": True, "heat_method": "auto"}, {"cumulative": False, "heat_method": "exact"}]
)
def test_traced_episodes_match_generate_episode(layers, mutag, mutag_dir, options):
    cfg = ExperimentConfig(dataset_dir=str(mutag_dir), dataset_name="MUTAG", seed=42, **options)
    tracer = layers.Tracer()
    with tracer.job(0):
        composed = [
            layers._traced_episode(tracer, g, cfg.time_grid(), cfg, i)
            for i, g in enumerate(mutag.graphs[:12])
        ]
    assert layers.episodes_match(composed, cfg)
