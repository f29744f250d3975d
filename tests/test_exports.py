"""Every name a qlert module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import qlert

MODULES = ["qlert"] + sorted(
    f"qlert.{info.name}" for info in pkgutil.iter_modules(qlert.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    stale = [attr for attr in exported if not hasattr(module, attr)]
    assert stale == []
