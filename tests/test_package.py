"""One list of public names: each module's ``__all__``; the package itself re-exports nothing."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import helikin

MODULES = [importlib.import_module(info.name) for info in pkgutil.iter_modules(helikin.__path__, "helikin.")]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda module: module.__name__
)
def test_every_name_in_all_resolves(module):
    unresolved = []
    for name in module.__all__:
        try:
            getattr(module, name)
        except AttributeError:
            unresolved.append(name)
    assert unresolved == []


def test_importing_the_package_loads_neither_numpy_nor_a_submodule():
    code = (
        "import sys, helikin; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m.startswith('helikin.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(helikin.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
