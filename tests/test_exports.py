"""Every name a module exports exists, so a deletion cannot leave a
dangling ``__all__`` entry or re-export behind."""

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
