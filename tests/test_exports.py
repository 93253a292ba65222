"""Every name a module exports exists, so a deletion cannot leave a
dangling ``__all__`` entry or re-export behind."""

import importlib
import pkgutil

import pytest

import agdim

MODULES = ["agdim"] + [f"agdim.{m.name}" for m in pkgutil.iter_modules(agdim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
