"""Every name a module of the package exports exists in that module."""

import importlib
import pkgutil

import pytest

import edgeworth

MODULES = sorted(info.name for info in pkgutil.iter_modules(edgeworth.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"edgeworth.{name}")
    entries = getattr(module, "__all__", [])
    assert [entry for entry in entries if not hasattr(module, entry)] == []


@pytest.mark.parametrize("module,entry", [
    ("malliavin", "localizer"),
    ("numerics", "sn_tail_bound"),
])
def test_entry_points_used_by_callers_are_exported(module, entry):
    assert entry in importlib.import_module(f"edgeworth.{module}").__all__
