import ast
import importlib
import json
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


def _run_fresh(code: str, *args: str) -> list[str]:
    """stdout lines of `code` run in a fresh interpreter on this package."""
    src = str(Path(contraction_lab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.split("\n")


def test_import_loads_no_scipy_integrate():
    # importing scipy.integrate or scipy.linalg is most of a fresh import; the
    # package's running integrals are grid._cumulative_trapezoid, and the
    # solver loads only scipy's compiled LAPACK wrapper, without scipy/__init__
    # and the numpy.f2py that scipy.linalg's array-API layer imports
    code = (
        "import sys, contraction_lab, contraction_lab.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "print('numpy.f2py' in sys.modules)\n"
        "print(callable(contraction_lab.solver.solve_banded))\n"
    )
    assert _run_fresh(code)[:3] == ["['scipy.linalg._flapack']", "False", "True"]


def test_work_imports_no_module(tmp_path):
    # set-up (the import and load_config) loads every module the work needs,
    # so the work of each subcommand adds no entry to sys.modules
    demo = Path(__file__).resolve().parent.parent / "scripts" / "configs" / "contraction_demo.json"
    data = json.loads(demo.read_text())
    data["grid"]["num_cells"] = 256
    data["solver"]["t_end"] = 1.0
    data["poincare"] = {"n_samples": 20}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    (tmp_path / "out").mkdir()
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import contraction_lab.cli as cli\n"
        "from contraction_lab.config import load_config\n"
        "cfg = load_config(sys.argv[1])\n"
        "out = Path(sys.argv[2])\n"
        "before = set(sys.modules)\n"
        "codes = [cli.cmd_wave(cfg, out), cli.cmd_simulate(cfg, out),\n"
        "         cli.cmd_identities(cfg, out, n_random=2), cli.cmd_poincare(cfg, out)]\n"
        "print('RESULT', codes, sorted(set(sys.modules) - before))\n"
    )
    lines = _run_fresh(code, str(cfg_path), str(tmp_path / "out"))
    assert "RESULT [0, 0, 0, 0] []" in lines


def test_import_loads_no_jsonschema():
    # only ExperimentConfig.from_dict validates, so only it imports jsonschema
    code = (
        "import sys, contraction_lab, contraction_lab.config\n"
        "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))\n"
    )
    assert _run_fresh(code)[0] == "[]"
