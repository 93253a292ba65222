"""Every name a module exports exists, and every import and private
module-level name is read somewhere, so a deletion cannot leave a dangling
``__all__`` entry, re-export, import or helper behind."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import agdim

MODULES = ["agdim"] + [f"agdim.{m.name}" for m in pkgutil.iter_modules(agdim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_package_and_pure_modules_import_no_numpy():
    # The package exports only __version__, so importing it, or a module
    # of pure integer arithmetic or the report it fills, loads no numpy.
    src = str(Path(agdim.__file__).resolve().parent.parent)
    modules = "agdim, agdim.arith, agdim.tables, agdim.schemas, agdim.report, agdim.efficiency"
    script = f"import sys\nimport {modules}\nprint('numpy' in sys.modules)\n"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "agdim").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree: ast.AST) -> set[str]:
    """Every name a module reads: loaded names, attribute names, and strings
    that are identifiers, as ``__all__``, ``getattr`` and ``setattr`` give."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


# every name read anywhere in the package, its tests and its benchmark
_READ = set().union(
    *(_references(_tree(p)) for d in ("src/agdim", "tests", "perfbench") for p in (ROOT / d).glob("*.py"))
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_import_or_private_name(path):
    # An import the module never reads, or a private module-level name
    # (one leading underscore) that no module, test or benchmark reads, is
    # what a deletion leaves behind.
    tree = _tree(path)
    own = _references(tree)
    unused, defined = [], []
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            unused += [name for name in bound if name not in own]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    orphans = [n for n in defined if n.startswith("_") and not n.startswith("__") and n not in _READ]
    assert (unused, orphans) == ([], [])


def _whole_mask_listings(path: Path) -> list[tuple[str, str]]:
    """(enclosing function, call) of every ``flatnonzero`` or ``nonzero``
    call in a module."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner
            func = getattr(child, "func", None)
            if isinstance(func, ast.Attribute) and func.attr in ("flatnonzero", "nonzero"):
                found.append((owner, ast.unparse(child)))
            visit(child, name)

    visit(_tree(path), "")
    return found


def test_every_failure_mask_is_listed_in_one_place():
    # kernels._listing counts a failure mask and lists its first entries
    # without an array of the mask's length; any other flatnonzero or
    # nonzero call in the package is a listing beside it.  The one
    # exception selects every failing cell of a remark-domination row for
    # the row's fallback, which is not a listing.
    found = {path.stem: _whole_mask_listings(path) for path in SOURCES}
    assert {stem: calls for stem, calls in found.items() if calls} == {
        "pairs": [("verify_remark_domination", "np.flatnonzero(failing[i])")]
    }
