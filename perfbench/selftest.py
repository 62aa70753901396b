"""Self-tests of the benchmark: inputs, tracer arithmetic and traced counts.

    python3 perfbench/selftest.py        (from the root of a checkout)

The counts below are those of the program at the commit that defined this
benchmark: a change that makes fewer evaluations per step is expected to
fail `test_known_counts`, and the test then documents by how much.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

from contraction_lab import cli, functionals, identities, solver  # noqa: E402
from contraction_lab.config import ExperimentConfig  # noqa: E402
from contraction_lab.grid import Grid  # noqa: E402

STRIDE = 3


def small_contraction_config() -> ExperimentConfig:
    data = inputs.contraction_config(7)
    data["grid"]["num_cells"] = 256
    data["solver"]["t_end"] = 10.0
    data["functionals"]["report_stride"] = STRIDE
    return ExperimentConfig.from_dict(data)


def traced(call):
    """Run `call` with the tracer installed; it must look names up on modules."""
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = call()
    finally:
        tracer.restore()
    return result, tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestSelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            ["a", 0.0, 10.0, -1, None],
            ["b", 1.0, 4.0, 0, None],
            ["c", 2.0, 3.0, 1, None],
            ["d", 5.0, 9.0, 0, None],
            ["e", 11.0, 12.0, -1, None],
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0, 1.0])

    def test_wrapper_nesting_and_errors(self):
        tracer = Tracer(clock=FakeClock())

        def inner():
            return 1

        def boom():
            raise KeyError("x")

        wrapped_inner = tracer.wrap("grid.integrate", inner)
        same_group = tracer.wrap("grid.integrate_values", lambda: wrapped_inner() + 1)
        outer = tracer.wrap("functionals.Y", lambda: same_group() + wrapped_inner())
        self.assertEqual(outer(), 3)
        with self.assertRaises(KeyError):
            tracer.wrap("solver.run", boom)()
        names = [(s[0], s[3], s[4]) for s in tracer.spans]
        # the call made inside a span of its own group records nothing
        self.assertEqual(
            names,
            [
                ("functionals.Y", -1, None),
                ("grid.integrate_values", 0, None),
                ("grid.integrate", 0, None),
                ("solver.run", -1, "KeyError"),
            ],
        )
        for s, own in zip(tracer.spans, self_times(tracer.spans)):
            self.assertGreater(s[2], s[1])
            self.assertGreater(own, 0.0)


class TestTracedRuns(unittest.TestCase):
    def test_restore_puts_originals_back(self):
        before = (functionals.reference_arrays, solver.solve_banded, functionals._core, cli.cmd_wave)
        traced(lambda: None)
        after = (functionals.reference_arrays, solver.solve_banded, functionals._core, cli.cmd_wave)
        self.assertEqual(before, after)

    def test_known_counts(self):
        cfg = small_contraction_config()
        result, tracer = traced(lambda: solver.run(cfg.solver_config()))
        n = len(result.times)
        reports = sum(1 for k in range(1, n + 1) if k % STRIDE == 0 or k == n)
        metrics, _ = layer_metrics(tracer.spans, tracer.eval_keys)
        self.assertGreater(n, 2 * STRIDE)
        self.assertEqual(metrics["functionals.y_and_ibad.calls"], 4 * n)
        self.assertEqual(metrics["shift.substeps_per_step"], 4.0)
        self.assertEqual(metrics["solver.solve_banded.calls"], n)
        self.assertEqual(metrics["shift.advance.calls"], n)
        # 7 evaluations a step, one per stride report, and 4 in set-up
        self.assertEqual(metrics["functionals.reference_arrays.calls"], 4 + 7 * n + reports)
        self.assertAlmostEqual(metrics["functionals.evals_per_step"], (4 + 7 * n + reports) / n)
        self.assertEqual(metrics["wave.profile.calls"], 7 * metrics["functionals.reference_arrays.calls"])
        self.assertEqual(metrics["solver.stability_errors"], 0)

    def test_twelve_evaluations_per_identity_state(self):
        params = small_contraction_config().wave_params()
        grid = Grid(-500.0, 500.0, 128)
        report, tracer = traced(lambda: identities.check_identities(params, grid, 3, (0.05, 0.25, 0.49), 5))
        self.assertTrue(report["all_passed"])
        metrics, absent = layer_metrics(tracer.spans, tracer.eval_keys)
        self.assertEqual(metrics["functionals.reference_arrays.calls"], 12 * 3)
        self.assertEqual(metrics["functionals.useful_eval_ratio"], 3 / 36)
        self.assertGreater(metrics["identities.check.self_s"], 0.0)
        self.assertIn("solver.run.self_s", absent)

    def test_counts_repeat_and_outputs_are_identical(self):
        cfg = small_contraction_config()
        with tempfile.TemporaryDirectory() as tmp:
            dirs = [Path(tmp) / name for name in ("plain", "traced1", "traced2")]
            for d in dirs:
                d.mkdir()
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(cli.cmd_simulate(cfg, dirs[0]), 0)
            counts = []
            for d in dirs[1:]:
                code, tracer = traced(lambda: cli.cmd_simulate(cfg, d))
                self.assertEqual(code, 0)
                metrics, _ = layer_metrics(tracer.spans, tracer.eval_keys)
                counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
            self.assertEqual(counts[0], counts[1])
            for name in ("run.csv", "final.json"):
                plain = (dirs[0] / name).read_bytes()
                for d in dirs[1:]:
                    self.assertEqual((d / name).read_bytes(), plain, name)


class TestInputs(unittest.TestCase):
    def test_default_seed_is_the_demo(self):
        demo = json.loads((ROOT / "scripts" / "configs" / "contraction_demo.json").read_text())
        cfg = inputs.contraction_config(inputs.DEFAULT_SEED)
        self.assertEqual(cfg["solver"].pop("t_end"), inputs.CONTRACTION_T_END)
        demo["solver"].pop("t_end")
        self.assertEqual(cfg, demo)

    def test_seeded(self):
        for workload in inputs.WORKLOADS:
            self.assertEqual(inputs.job_inputs(workload, 3), inputs.job_inputs(workload, 3))
            self.assertNotEqual(inputs.job_inputs(workload, 3), inputs.job_inputs(workload, 4))

    def test_recorded_poincare_scans_match_the_inputs(self):
        recorded = json.loads(inputs.EXPECTED_POINCARE.read_text())
        self.assertEqual(sorted(map(int, recorded["scans"])), sorted(inputs.POINCARE_SEEDS))
        settings = ExperimentConfig.from_dict(inputs.verify_config(1)).data["poincare"]
        self.assertEqual(recorded["poincare"], {k: v for k, v in settings.items() if k != "seed"})

    def test_sweep_cost_does_not_depend_on_seed(self):
        for seed in range(5):
            eps = sorted(p["eps"] for p in inputs.sweep_points(seed))
            self.assertEqual(eps, sorted(inputs.SWEEP_EPS_GRID * inputs.SWEEP_LAMBDAS_PER_EPS))


class TestSpeed(unittest.TestCase):
    def test_probes_are_left_out_and_gaps_scaled(self):
        ref = run.REF_SECONDS
        # kernel times 1, 1, 2, 2 (in REF_SECONDS); smoothed 1, 1, 2, 2
        probes = [(0.0, ref, ref), (2.0, 2.0 + ref, ref), (5.0, 5.0 + 2 * ref, 2 * ref), (8.0, 8.0 + 2 * ref, 2 * ref)]
        speed = run.Speed(probes)
        raw, scaled = speed.measure(-1.0, 11.0)
        self.assertAlmostEqual(raw, 12.0 - 6 * ref)
        gaps = [1.0, 2.0 - ref, 3.0 - ref, 3.0 - 2 * ref, 11.0 - 8.0 - 2 * ref]
        self.assertAlmostEqual(scaled, gaps[0] + gaps[1] + gaps[2] / 1.5 + gaps[3] / 2 + gaps[4] / 2)
        for value in speed.measure(1.0, 1.5):
            self.assertAlmostEqual(value, 0.5)

    def test_a_slower_core_reads_the_same(self):
        def timings(slower):
            """Probes every 0.1 s of a 2 s unit, on a core `slower` times slower."""
            kernel = run.REF_SECONDS * slower
            probes = [(0.1 * k, 0.1 * k + kernel, kernel) for k in range(21)]
            return run.Speed(probes).measure(0.0, 2.0 + kernel)

        raw, scaled = timings(1.0)
        for slower in (1.3, 2.0):
            self.assertAlmostEqual(timings(slower)[0], raw - 20 * run.REF_SECONDS * (slower - 1))
            self.assertAlmostEqual(timings(slower)[1] * slower, timings(slower)[0])


class TestContract(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertTrue(all(m["bound"] <= 0.25 for m in spec["end_to_end"]))

    def test_refuses_a_directory_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "verify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
