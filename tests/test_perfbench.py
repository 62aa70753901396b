"""The benchmark's contract with the package.

`perfbench/tracer.py` patches `grid.GridField.__post_init__`,
`functionals.State.__post_init__`, `functionals._core(params, state, shift)`
and `solver.solve_banded` by name (a KeyError if one is gone) and reads
`state.n.values`; `perfbench/op.py` reaches `shift.advance` through `run()`
and calls `functionals.y_and_ibad`.  This test installs the tracer as the
benchmark does, so a rename shows here and not only in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import contraction_lab.identities as identities_mod
import contraction_lab.shift as shift_mod
import contraction_lab.solver as solver_mod
from contraction_lab import PerturbationSpec, SolverConfig

from conftest import lab_grid

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_package_spans(small_params):
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    advance = shift_mod.advance
    grid = lab_grid(small_params, num_cells=64)
    spec = PerturbationSpec(kind="gaussian_bump", amplitude_n=0.3, amplitude_q=0.3, width=5.0)
    cfg = SolverConfig(params=small_params, grid=grid, t_end=0.2, dt=0.05, perturbation=spec)
    try:
        tracer.install()
        result = solver_mod.run(cfg)
        identities_mod.check_identities(small_params, grid, n_states=2)
    finally:
        tracer.restore()
    assert shift_mod.advance is advance and solver_mod.advance is advance
    names = {span[0] for span in tracer.spans}
    assert {"shift.advance", "functionals.y_and_ibad"} <= names
    metrics, _ = tracer_mod.layer_metrics(tracer.spans, tracer.eval_keys)
    assert metrics["shift.advance.calls"] == len(result.times) == 4
    # the first substep of each step reads the step's report
    assert metrics["shift.substeps_per_step"] == shift_mod.SUBSTEPS - 1


# The names in the tracer's GROUPS that resolve in the package.  The others
# are functions deleted since the tracer was written, whose metrics read 0;
# losing one more of these would zero another per-layer metric unseen.
TRACED = (
    "wave.profile_n",
    "wave.profile_n_prime",
    "wave.profile_n_second",
    "wave.profile_q",
    "wave.weight_a",
    "wave.weight_a_prime",
    "functionals.reference_arrays",
    "functionals.evaluate_report",
    "functionals.y_and_ibad",
    "functionals.State.__post_init__",
    "grid.integrate_values",
    "grid.GridField.__post_init__",
    "solver.run",
    "solver.solve_banded",
    "shift.advance",
    "poincare.scan_delta_star",
    "identities.random_state",
    "identities.check_identities",
    "config.load_config",
)


def test_traced_names_resolve():
    tracer_mod = _load_tracer()
    assert set(TRACED) <= set(tracer_mod.GROUP_OF)
    for name in TRACED:
        module, *attrs = name.split(".")
        target = importlib.import_module(f"{tracer_mod.PACKAGE}.{module}")
        for attr in attrs:
            assert hasattr(target, attr), name
            target = getattr(target, attr)
        assert callable(target), name
