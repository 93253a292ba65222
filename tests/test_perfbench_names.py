"""Every agdim name the benchmark replaces at run time must still exist,
and no agdim table may hold one of those functions by reference.

perfbench's tracer and ``BlockLog`` swap agdim functions and methods for
wrappers by name.  A name that no longer exists breaks only the traced
benchmark run, and a function object stored in a table at import keeps
running unwrapped, so the run silently misses it.  These tests read the
benchmark's own name lists and check each one against agdim.

They also check that every command line the benchmark's workloads run is
one ``agdim.cli`` parses without building argparse parsers, so a change
that sends a workload's form back to argparse fails here, and that ``main``
builds its parsers through the module attribute the tracer replaces.
"""

import dataclasses
import importlib
import importlib.util
import pkgutil
import random
import sys
import types
from pathlib import Path

import pytest

import agdim
import agdim.cli as cli

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


def _children(value) -> list:
    """What a table holds: a dict's keys and values, a tuple's or list's
    items (NamedTuples included), a dataclass instance's fields, and a
    function's closure cells."""
    if isinstance(value, dict):
        return [*value, *value.values()]
    if isinstance(value, (tuple, list)):
        return list(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, types.FunctionType):
        return [c.cell_contents for c in value.__closure__ or ()]
    return []


def test_no_table_holds_a_wrapped_function(tracer, workloads):
    targets = [t for layer in tracer.WRAPPED.values() for t in layer]
    targets += [("agdim.kernels", name) for name in workloads.BLOCK_RANGE]
    wrapped = {id(getattr(importlib.import_module(m), n)): f"{m}.{n}" for m, n in targets}
    for mod, cls, meth in tracer.WRAPPED_METHODS:
        method = getattr(getattr(importlib.import_module(mod), cls), meth)
        wrapped[id(method)] = f"{mod}.{cls}.{meth}"
    modules = [f"agdim.{m.name}" for m in pkgutil.iter_modules(agdim.__path__)]
    held, seen = [], set()
    for name in ["agdim", *(m for m in modules if m != "agdim.__main__")]:
        for attr, root in vars(importlib.import_module(name)).items():
            # a module attribute itself is what the tracer replaces; what it holds is not
            stack = [(f"{name}.{attr}", child) for child in _children(root)]
            while stack:
                path, value = stack.pop()
                if id(value) in wrapped:
                    held.append(f"{path} holds {wrapped[id(value)]}")
                if isinstance(value, (int, float, str, bytes)) or id(value) in seen:
                    continue
                seen.add(id(value))
                stack += [(path, child) for child in _children(value)]
    assert held == []


@pytest.mark.parametrize("scale", ["full", "tiny"])
@pytest.mark.parametrize("name", ["scan", "query"])
def test_workload_argv_parse_directly(workloads, name, scale):
    workload = workloads.WORKLOADS[name]
    passes = workload.passes(random.Random(1), scale)
    ops = [*workload.warmup(scale), *(op for _ in range(5) for op in next(passes))]
    declined = sorted({op.argv for op in ops if cli._parse_direct(list(op.argv)) is None})
    assert declined == []


@pytest.mark.parametrize("name", ["scan", "query"])
def test_main_builds_parsers_through_the_traced_name(workloads, monkeypatch, capsys, name):
    # The tracer times argparse only by replacing cli.build_parser, so main
    # must look that name up when it builds a parser, not hold the function
    # it named at import.
    calls = []
    build_parser = cli.build_parser

    def spy():
        calls.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", spy)
    assert cli.main(["explain", "--format", "json", "5"]) == 0  # declined by the direct parse
    assert len(calls) == 1
    workload = workloads.WORKLOADS[name]
    ops = [*workload.warmup("tiny"), *next(workload.passes(random.Random(1), "tiny"))]
    assert {cli.main(list(argv)) for argv in {op.argv for op in ops}} == {0}
    assert len(calls) == 1
