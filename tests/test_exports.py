"""Every name a qlert module exports through ``__all__`` exists, and each
one is used by the package, the benchmark or the README's Python
example; every option of a public callable is set by one of them, and
every field of a result type is read by one of them."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import qlert
from test_readme import README, python_api_block

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["qlert"] + sorted(
    f"qlert.{info.name}" for info in pkgutil.iter_modules(qlert.__path__))

# exported for callers outside the package and the benchmark
UNUSED_BY_DESIGN = {
    ("qlert.solver", "clear_violations"):
        "resets the VIOLATIONS registry between runs; tests/conftest.py "
        "calls it around every test",
    ("qlert.materials", "tabulated"):
        "builds an arbitrary law from samples; tests build laws with it, "
        "such as the oracle's A4 counterexample in tests/test_oracle.py",
    ("qlert.materials", "validate_assumptions"):
        "the paper's A3/A4 growth checker; tests check every law with it, "
        "and ROADMAP direction 12 plans a caller",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    stale = [attr for attr in exported if not hasattr(module, attr)]
    assert stale == []


def _references(source):
    """(name, enclosing top-level definition or None) for every ``Name``
    load and ``Attribute`` in one source."""
    refs = set()
    for top in ast.parse(source).body:
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
    refs = {path.resolve(): _references(path.read_text(encoding="utf-8"))
            for path in sources + bench}
    refs[README] = _references(python_api_block())
    unused = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        home = Path(module.__file__).resolve()
        for attr in getattr(module, "__all__", []):
            used = any(name == attr and (path != home or owner != attr)
                       for path, found in refs.items()
                       for name, owner in found)
            if not used:
                unused.append((module_name, attr))
    assert sorted(set(unused) - UNUSED_BY_DESIGN.keys()) == []
    # an export that gained a user leaves the list
    assert sorted(UNUSED_BY_DESIGN.keys() - set(unused)) == []


# result types: each field is read by the package, the benchmark or the
# README's Python example
RESULT_TYPES = [
    ("qlert.fem", "FieldSolution"),
    ("qlert.fem", "SolveResult"),
    ("qlert.solver", "LambdaSweep"),
    ("qlert.tomography", "ConductanceMatrix"),
    ("qlert.tomography", "TestDomain"),
    ("qlert.tomography", "Reconstruction"),
    ("qlert.oracle", "EnergySeparation"),
    ("qlert.materials", "ValidationReport"),
    ("qlert.materials", "MaterialModel"),
]

# fields that only the tests read, kept on purpose
READ_BY_DESIGN = {
    ("FieldSolution", "picard_energy"):
        "traces the fixed-point energy, whose descent tests check",
    ("SolveResult", "final_relative_residual"):
        "the quantity conjugate gradients stop on, which tests check",
    ("LambdaSweep", "solutions"):
        "each point's full field, which tests compare across points",
    ("ValidationReport", "small_exponent"):
        "the fitted exponent behind exponents_ok, for diagnosis",
    ("ValidationReport", "large_exponent"):
        "the fitted exponent behind exponents_ok, for diagnosis",
    ("ValidationReport", "a3_lower"):
        "the growth envelope's lower constant behind a3_ok",
    ("ValidationReport", "a3_upper"):
        "the growth envelope's upper constant behind a3_ok",
    ("ValidationReport", "beta0"):
        "the small-field weight limit; ROADMAP direction 12 plans a reader",
    ("ValidationReport", "a4_oscillation"):
        "how strongly Q/E**p0 oscillates when a4_ok fails, for diagnosis",
}


def _attribute_reads(source):
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_result_field_has_a_reader():
    """Matches attributes by name: a field is read when an attribute of
    that name is loaded anywhere in the package, the benchmark or the
    README's Python example."""
    sources = sorted(Path(qlert.__file__).parent.glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    reads = set().union(
        _attribute_reads(python_api_block()),
        *(_attribute_reads(path.read_text("utf-8"))
          for path in sources + bench))
    unread = {(cls, field.name) for module, cls in RESULT_TYPES
              for field in dataclasses.fields(
                  getattr(importlib.import_module(module), cls))
              if field.name not in reads}
    unread_names = sorted(f"{cls}.{name}"
                          for cls, name in unread - READ_BY_DESIGN.keys())
    assert not unread_names, "fields no caller reads: " + ", ".join(
        unread_names)
    # a field that gained a reader leaves the list
    assert sorted(READ_BY_DESIGN.keys() - unread) == []


# options that no command, benchmark or example sets, kept on purpose
OPTIONS_BY_DESIGN = {
    ("qlert.fem", "solve_spd", "tol"):
        "tests take tighter reference solves; a planned caller solves at "
        "another tolerance",
    ("qlert.fem", "solve_spd", "max_iter"):
        "tests drive the non-convergence path with it",
}


def _public_callables(module):
    """(name, object) of a module's public callables: the names in its
    ``__all__``, or the functions it defines when it has none."""
    if hasattr(module, "__all__"):
        names = module.__all__
    else:
        names = [name for name, obj in vars(module).items()
                 if inspect.isfunction(obj) and not name.startswith("_")
                 and obj.__module__ == module.__name__]
    return [(name, getattr(module, name)) for name in names
            if callable(getattr(module, name))]


def _options(obj):
    """(the named parameters of ``obj``, the names of those that have a
    default); neither holds ``*args`` or ``**kwargs``."""
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # exception classes: no signature of their own
        return [], []
    named = [p for p in params
             if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
    return named, [p.name for p in named if p.default is not p.empty]


class _Calls(ast.NodeVisitor):
    """Every call of one source: (called name, positional parameters it
    fills, keywords it names, innermost enclosing definition)."""

    def __init__(self):
        self.calls, self._owner = [], [None]

    def _define(self, node):
        self._owner.append(node.name)
        self.generic_visit(node)
        self._owner.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        positional = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                break
            positional += 1
        keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
        self.calls.append((name, positional, keywords, self._owner[-1]))
        self.generic_visit(node)


def _calls(path, source):
    visitor = _Calls()
    visitor.visit(ast.parse(source, filename=str(path)))
    return [(path, *call) for call in visitor.calls]


def test_every_option_has_a_setter():
    """Each option of a public callable is set, by position, by keyword
    or through ``dataclasses.replace``, by a call in the package outside
    the callable's own definition (a method is a definition of its own),
    in the benchmark or in the README's Python example."""
    sources = sorted(Path(qlert.__file__).parent.glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    calls = [call for path in sources + bench
             for call in _calls(path.resolve(), path.read_text("utf-8"))]
    calls += _calls(README, python_api_block())
    replaced = {kw for _, name, _, keywords, _ in calls if name == "replace"
                for kw in keywords}
    unset = set()
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        home = Path(module.__file__).resolve()
        for attr, obj in _public_callables(module):
            named, options = _options(obj)
            position = {p.name: k for k, p in enumerate(named)
                        if p.kind is not p.KEYWORD_ONLY}
            fields = replaced if dataclasses.is_dataclass(obj) else set()
            for option in options:
                if option not in fields and not any(
                        name == attr and (path != home or owner != attr)
                        and (option in keywords
                             or position.get(option, positional) < positional)
                        for path, name, positional, keywords, owner in calls):
                    unset.add((module_name, attr, option))
    unset_names = sorted(
        f"{module.removeprefix('qlert.')}.{attr}({option})"
        for module, attr, option in unset - OPTIONS_BY_DESIGN.keys())
    assert not unset_names, "options no caller sets: " + ", ".join(unset_names)
    # an option that gained a setter leaves the list
    assert sorted(OPTIONS_BY_DESIGN.keys() - unset) == []
