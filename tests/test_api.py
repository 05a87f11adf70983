"""The public import surface: star imports, exported names, traced names, the README session."""

import doctest
import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_traced_names_resolve():
    # the benchmark's tracer looks these functions up by name
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, qualname, _, _ in spans.TRACED:
        owner = importlib.import_module(f"scarf.{layer}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{layer}.{qualname}")
    assert missing == []


def test_readme_session():
    # the Library section of the README is a doctest of the API that exists
    path = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(path), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
