"""The public import surface: star imports, exported names, traced names, the README session."""

import doctest
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
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


# the result records, with their fields in the order positional calls use
RECORDS = {
    "Orthant": ("signs",),
    "GenericityReport": ("generic", "mode", "witness", "pairwise", "facet"),
    "CompletenessReport": ("dmax_used", "observed_star_dimension", "certified",
                           "candidate_counts"),
    "StarResult": ("center", "vertices", "records", "report"),
    "QuotientResult": ("orbits", "f_vector", "report"),
    "Layering": ("layers", "residual"),
    "Resolution": ("points", "faces_by_dim", "augmentation", "differentials"),
    "ChainCheck": ("ok", "failures"),
}


def test_records_are_named_tuples():
    for name, fields in RECORDS.items():
        record = getattr(scarf, name)
        assert issubclass(record, tuple) and record.__slots__ == ()
        assert record._fields == fields
    assert scarf.GenericityReport._field_defaults == {"pairwise": None, "facet": None}
    assert scarf.Resolution._field_defaults == {"differentials": ()}
    check = scarf.ChainCheck(False, ("composite nonzero",))
    assert not check and check == (False, ("composite nonzero",))
    assert repr(scarf.Orthant((1, -1))) == "Orthant(signs=(1, -1))"


# Run in a fresh interpreter: print what importing the CLI adds to
# sys.modules, then run both oracle paths, which load the oracles themselves.
LEAN_IMPORT = """
import sys
before = set(sys.modules)
import scarf.cli
print(*sorted(set(sys.modules) - before), flush=True)
for argv in (["oracle", "--selftest", "3"], ["oracle", sys.argv[1], "--format", "structured"]):
    assert scarf.cli.main(argv) == 0
"""


def test_cli_import_is_lean(tmp_path):
    # the CLI runs one job per process, so its import is paid by every job:
    # it loads no module that only a few jobs, or none, need
    root = Path(__file__).resolve().parent.parent
    doc = tmp_path / "points.json"
    doc.write_text('{"points": [[0, 2], [1, 1], [2, 0]]}')
    proc = subprocess.run([sys.executable, "-c", LEAN_IMPORT, str(doc)], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added, _, outputs = proc.stdout.partition("\n")
    assert "scarf.cli" in added.split()
    assert {"dataclasses", "decimal", "fractions", "inspect", "typing",
            "scarf.oracles"} & set(added.split()) == set()
    assert "selftest: 3 trials with seed 0: all agreed" in outputs
    assert '"source": "oracle"' in outputs
