"""Every exported name resolves: a string left in an ``__all__`` after
its function is deleted breaks ``from quadferm import *``."""

import importlib
import pkgutil

import pytest

import quadferm

MODULES = ["quadferm"] + [f"quadferm.{info.name}"
                          for info in pkgutil.iter_modules(quadferm.__path__)
                          if info.name != "__main__"]  # importing runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
