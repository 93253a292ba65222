"""The names the docs cite exist: a `module.name` or `agdim.module.name` in
README.md is an attribute of that agdim module, and a double-backticked
``_name`` in an agdim module's docstrings is an attribute of that module.
And no line of the package is excluded from the line-coverage record."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import agdim

ROOT = Path(__file__).resolve().parent.parent
MODULES = {m.name for m in pkgutil.iter_modules(agdim.__path__)}
# a dotted name in backticks, with an optional call after it: `cli._dumps`,
# `agdim.arith`, `satake.family_grid(rep_max)`
README_NAME = re.compile(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\([^`]*\))?`")
# a private name (one leading underscore) in double backticks
DOC_NAME = re.compile(r"``(_[^_\W]\w*)``")


def _missing(module: str, path: list[str]) -> bool:
    obj = importlib.import_module(f"agdim.{module}")
    for name in path:
        if not hasattr(obj, name):
            return True
        obj = getattr(obj, name)
    return False


def test_readme_names_exist():
    cited = set()
    for dotted in README_NAME.findall((ROOT / "README.md").read_text(encoding="utf-8")):
        module, *path = dotted.removeprefix("agdim.").split(".")
        if module in MODULES:
            cited.add((module, tuple(path)))
    assert cited and [".".join([m, *p]) for m, p in sorted(cited) if _missing(m, p)] == []


def _docstrings(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield doc


def test_docstring_private_names_exist():
    missing, cited = [], 0
    for module in sorted(MODULES):
        source = (ROOT / "src" / "agdim" / f"{module}.py").read_text(encoding="utf-8")
        names = {name for doc in _docstrings(source) for name in DOC_NAME.findall(doc)}
        cited += len(names)
        missing += [f"{module}.{name}" for name in sorted(names) if _missing(module, [name])]
    assert cited and missing == []


def test_no_line_excluded_from_coverage():
    # A branch that no test runs is deleted, or made a self-check that a
    # test reaches; it is not marked to hide it from line coverage.
    marked = [
        f"{path.name}:{n}"
        for path in sorted((ROOT / "src" / "agdim").glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "pragma: no cover" in line
    ]
    assert marked == []
