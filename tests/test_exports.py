"""The package's exported names all resolve."""
from __future__ import annotations

import importlib


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from ewansim import *", namespace)
    assert set(importlib.import_module("ewansim").__all__) <= set(namespace)
