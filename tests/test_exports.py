import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import contraction_lab

# every module but the entry point, which runs the CLI on import
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(contraction_lab.__path__) if m.name != "__main__"
)


def _package_imports():
    """(module, name) for each `from .module import name` of the package __init__."""
    tree = ast.parse(Path(contraction_lab.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"contraction_lab.{module}")
    assert mod.__all__, module
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def test_package_imports_resolve():
    pairs = _package_imports()
    assert pairs
    for module, name in pairs:
        mod = importlib.import_module(f"contraction_lab.{module}")
        assert hasattr(mod, name), (module, name)
        assert getattr(contraction_lab, name) is getattr(mod, name), (module, name)


def test_import_loads_no_scipy_integrate():
    # scipy.integrate is the largest part of a fresh import; the package's
    # running integrals are grid._cumulative_trapezoid
    code = (
        "import sys, contraction_lab, contraction_lab.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n"
        "print(callable(contraction_lab.solver.solve_banded))\n"
    )
    src = str(Path(contraction_lab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def test_import_loads_no_jsonschema():
    # only ExperimentConfig.from_dict validates, so only it imports jsonschema
    code = (
        "import sys, contraction_lab, contraction_lab.config\n"
        "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))\n"
    )
    src = str(Path(contraction_lab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split("\n")[0] == "[]"
