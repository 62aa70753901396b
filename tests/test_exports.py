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


ROOT = Path(__file__).resolve().parent.parent

# Public names that no module, script or benchmark reads, kept because tests
# use them as oracles; each with the reason it stays.
ORACLES = (
    ("pi_rel", "criterion 7's relative-entropy estimates, and the oracle for the core's Pi"),
    ("xi_of_y", "the inverse of y_of_xi, and the map of the y-coordinate oracles"),
    ("R_poincare", "criterion 8's closed form and the per-sample oracle of the scan"),
)


def _all_of(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _reads(tree: ast.Module) -> set[str]:
    """Every name a module loads, as a bare name or an attribute; a top-level
    function or class does not count its reads of its own name."""
    out = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        out |= names
    return out


def test_every_public_name_is_read():
    # a name in a module's __all__ must be read by the package, a script or
    # the benchmark (a definition, an import or a re-export is not a read),
    # or be an oracle that tests use; so the surface cannot grow back with
    # functions that only tests call
    package = Path(contraction_lab.__file__).resolve().parent
    readers = [*package.glob("*.py"), *(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    read = set().union(*(_reads(ast.parse(path.read_text())) for path in readers))
    oracles = {name for name, _ in ORACLES}
    public = {name for path in package.glob("*.py") for name in _all_of(ast.parse(path.read_text()))}
    assert sorted(public - read - oracles) == []
    # an oracle that the code reads again needs no entry, and a stale one goes
    assert sorted(oracles - (public - read)) == []


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
    # and the numpy.f2py that scipy.linalg's array-API layer imports; the
    # Poincare scan evaluates its polynomials by its own Horner loop, so
    # numpy.polynomial is not loaded either
    code = (
        "import sys, contraction_lab, contraction_lab.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "print('numpy.f2py' in sys.modules)\n"
        "print(callable(contraction_lab.solver.solve_banded))\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    assert _run_fresh(code)[:4] == ["['scipy.linalg._flapack']", "False", "True", "[]"]


def test_work_imports_no_module(tmp_path):
    # set-up (the import and load_config) loads every module the work needs,
    # so the work of each subcommand adds no entry to sys.modules
    demo = Path(__file__).resolve().parent.parent / "scripts" / "configs" / "contraction_demo.json"
    data = json.loads(demo.read_text())
    data["grid"]["num_cells"] = 256
    data["solver"]["t_end"] = 1.0
    data["poincare"] = {"n_samples": 20}
    data["identities"] = {"n_states": 2}
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
        "         cli.cmd_identities(cfg, out), cli.cmd_poincare(cfg, out)]\n"
        "print('RESULT', codes, sorted(set(sys.modules) - before))\n"
    )
    lines = _run_fresh(code, str(cfg_path), str(tmp_path / "out"))
    assert "RESULT [0, 0, 0, 0] []" in lines


def test_import_loads_no_jsonschema(tmp_path):
    # the config is checked by the package's own walk over its schema, so
    # neither the import nor loading a config nor a command loads jsonschema
    demo = Path(__file__).resolve().parent.parent / "scripts" / "configs" / "contraction_demo.json"
    code = (
        "import sys, contraction_lab, contraction_lab.config\n"
        "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))\n"
        "from contraction_lab.cli import main\n"
        "from contraction_lab.config import load_config\n"
        "load_config(sys.argv[1])\n"
        "code = main(['--config', sys.argv[1], '--out', sys.argv[2],\n"
        "             '--override', 'grid.num_cells=256', 'wave'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('jsonschema')))\n"
    )
    lines = _run_fresh(code, str(demo), str(tmp_path / "out"))
    assert lines[0] == "[]"
    assert lines[-2] == "0 []"
    assert (tmp_path / "out" / "wave_summary.json").exists()
