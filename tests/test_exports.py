"""Every name that a module of rdsio exports exists."""

import importlib
import pkgutil

import pytest

import rdsio

# every module but the console entry point, which runs on import
MODULES = ["rdsio", *(f"rdsio.{m.name}" for m in pkgutil.iter_modules(rdsio.__path__)
                      if m.name != "__main__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
