"""Every name a qlert module exports through ``__all__`` exists, and each
one is used by the package, the benchmark or the README."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qlert

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["qlert"] + sorted(
    f"qlert.{info.name}" for info in pkgutil.iter_modules(qlert.__path__))

# exported for callers outside the package and the benchmark
UNUSED_BY_DESIGN = {
    # resets the VIOLATIONS registry between runs; tests/conftest.py calls
    # it around every test
    ("qlert.solver", "clear_violations"),
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    stale = [attr for attr in exported if not hasattr(module, attr)]
    assert stale == []


def _references(path):
    """(name, enclosing top-level definition or None) for every ``Name``
    load and ``Attribute`` in one source file."""
    refs = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.add((node.attr, owner))
    return refs


def test_every_export_has_a_user():
    sources = sorted(Path(qlert.__file__).parent.glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    refs = {path.resolve(): _references(path) for path in sources + bench}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        home = Path(module.__file__).resolve()
        for attr in getattr(module, "__all__", []):
            used = any(name == attr and (path != home or owner != attr)
                       for path, found in refs.items()
                       for name, owner in found)
            if (not used and not re.search(rf"\b{re.escape(attr)}\b", readme)
                    and (module_name, attr) not in UNUSED_BY_DESIGN):
                unused.append(f"{module_name}.{attr}")
    assert unused == []
