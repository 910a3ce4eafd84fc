"""The public API surface: every exported name resolves."""

import importlib
import pkgutil

import shc_lab


def test_all_names_resolve():
    # a stale __all__ entry would otherwise surface only at import time
    modules = [shc_lab] + [
        importlib.import_module(f"shc_lab.{m.name}") for m in pkgutil.iter_modules(shc_lab.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
    namespace = {}
    exec("from shc_lab import *", namespace)
    assert "heat_content" in namespace
