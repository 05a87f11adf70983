"""The public import surface: star imports and the package's exported names."""

import importlib
import pkgutil

import pytest

import scarf

MODULES = sorted(m.name for m in pkgutil.iter_modules(scarf.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from scarf.{name} import *", namespace)
    module = importlib.import_module(f"scarf.{name}")
    for exported in getattr(module, "__all__", ()):
        assert namespace[exported] is getattr(module, exported)


def test_package_all_resolves():
    missing = [name for name in scarf.__all__ if not hasattr(scarf, name)]
    assert missing == []
    assert len(set(scarf.__all__)) == len(scarf.__all__)
