"""Every layer boundary the benchmark's traced pass wraps still exists.

bench/tracing.py reports a boundary whose attribute is gone as an absent
layer and runs on, so a rename in ewansim would silently drop that
layer's counts from the benchmark. The file is loaded as it is and never
changed here.
"""
from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "layer, module, attr",
    [(layer, module, attr)
     for layer, _, module, attr, _ in tracing.BOUNDARIES],
    ids=[f"{module}:{attr}" for _, _, module, attr, _ in tracing.BOUNDARIES])
def test_boundary_resolves(layer, module, attr):
    importlib.import_module(module)
    owner, _ = tracing.Tracer._resolve(module, attr)
    assert owner is not None, (
        f"{module}.{attr} is gone: the benchmark would report layer "
        f"{layer!r} absent")
