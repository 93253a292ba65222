"""Every agdim name the benchmark replaces at run time must still exist.

perfbench's tracer and ``BlockLog`` swap agdim functions and methods for
wrappers by name.  A name that no longer exists breaks only the traced
benchmark run, so these tests read the benchmark's own name lists and check
each one against agdim.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_patched_functions_exist(tracer, workloads):
    targets = [t for layer in tracer.WRAPPED.values() for t in layer]
    targets += [("agdim.kernels", name) for name in (*tracer.KERNELS, *workloads.BLOCK_RANGE)]
    missing = [
        f"{mod}.{name}"
        for mod, name in targets
        if not callable(getattr(importlib.import_module(mod), name, None))
    ]
    assert missing == []


def test_patched_methods_exist(tracer):
    missing = [
        f"{mod}.{cls}.{meth}"
        for mod, cls, meth in tracer.WRAPPED_METHODS
        if not callable(getattr(getattr(importlib.import_module(mod), cls, None), meth, None))
    ]
    assert missing == []
