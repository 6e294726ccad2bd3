"""The package's exported names all resolve."""
from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["ewansim", "ewansim.protocol"])
def test_star_import_binds_every_exported_name(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
