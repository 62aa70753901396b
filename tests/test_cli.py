import csv
import dataclasses
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from contraction_lab import PerturbationSpec, SolverConfig
from contraction_lab.cli import _CHUNK_ROWS, _write_table, main
from contraction_lab.config import ConfigError, _schema, apply_override, load_config
from contraction_lab.functionals import evaluate_report
from contraction_lab.grid import integrate_values
from contraction_lab.identities import check_identities
from contraction_lab.poincare import DEFAULT_Y_CELLS
from contraction_lab.wave import profile_n, profile_q, weight_a, weight_a_prime, y_of_xi


def write_config(tmp_path, extra=None):
    data = {
        "wave": {"n_minus": 2.0, "q_minus": 0.0, "eps": 0.1, "lambda": 0.3},
        "grid": {"half_width_factor": 30.0, "num_cells": 512},
    }
    if extra:
        for key, value in extra.items():
            data.setdefault(key, {}).update(value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestConfig:
    def test_defaults_filled(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.data["solver"]["cfl"] == 0.4
        assert cfg.data["functionals"]["delta0"] == 0.01
        assert cfg.data["solver"]["perturbation"]["kind"] == "gaussian_bump"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"wave": {"n_minus": 2, "q_minus": 0, "eps": 0.1, "lambda": 0.3}, "extra": {}}))
        with pytest.raises(ConfigError, match="extra"):
            load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"wave": {"n_minus": 2, "q_minus": 0, "eps": 0.1, "lambda": 0.3, "zeta": 1}})
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_override_dot_path(self):
        data = {"wave": {"eps": 0.1}}
        apply_override(data, "wave.eps", "0.2")
        apply_override(data, "solver.perturbation.kind", "random_fourier")
        assert data["wave"]["eps"] == 0.2
        assert data["solver"]["perturbation"]["kind"] == "random_fourier"

    def test_solver_config_construction(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        sc = cfg.solver_config()
        assert sc.grid.num_cells == 512
        assert sc.params.eps == 0.1

    def test_validation_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"wave": {"n_minus": -2.0, "q_minus": 0, "eps": 0.1, "lambda": 0.3}})
        )
        with pytest.raises(ConfigError, match="n_minus"):
            load_config(path)


def _field_default(cls, name):
    return {f.name: f.default for f in dataclasses.fields(cls)}[name]


def _param_default(fn, name):
    return inspect.signature(fn).parameters[name].default


# (schema path, the Python API default it shadows)
SHADOWED_DEFAULTS = [
    ("solver.cfl", _field_default(SolverConfig, "cfl")),
    ("functionals.report_stride", _field_default(SolverConfig, "report_stride")),
    ("functionals.delta0", _field_default(SolverConfig, "delta0")),
    ("functionals.delta1", _field_default(SolverConfig, "delta1")),
    ("functionals.violation_tol", _field_default(SolverConfig, "violation_tol")),
    *[(f"solver.perturbation.{f.name}", f.default) for f in dataclasses.fields(PerturbationSpec)],
    ("identities.n_states", _param_default(check_identities, "n_states")),
    ("identities.deltas", list(_param_default(check_identities, "deltas"))),
    ("identities.seed", _param_default(check_identities, "seed")),
    ("identities.tol", _param_default(check_identities, "tol")),
    ("poincare.y_cells", DEFAULT_Y_CELLS),
    # evaluate_report states the tube thresholds' defaults a third time
    ("functionals.delta0", _param_default(evaluate_report, "delta0")),
    ("functionals.delta1", _param_default(evaluate_report, "delta1")),
]
# each entry's id is its schema path, and "#k" on the k-th entry of a path
SHADOWED_IDS = [
    path + (f"#{k}" if (k := [p for p, _ in SHADOWED_DEFAULTS[:i + 1]].count(path)) > 1 else "")
    for i, (path, _) in enumerate(SHADOWED_DEFAULTS)
]


@pytest.mark.parametrize("schema_path, api_default", SHADOWED_DEFAULTS, ids=SHADOWED_IDS)
def test_schema_default_matches_api_default(schema_path, api_default):
    node = _schema()
    for key in schema_path.split("."):
        node = node["properties"][key]
    assert node["default"] == api_default


# each command at a small size, with its seed and counts set by --override,
# and the JSON output that echoes its config
ROUND_TRIP = {
    "wave": (["grid.num_cells=64"], "wave_summary.json"),
    "simulate": (
        ["grid.num_cells=128", "solver.t_end=0.3", 'solver.perturbation.kind="random_fourier"',
         "solver.perturbation.amplitude_n=0.1", "solver.perturbation.width=20.0",
         "solver.perturbation.seed=3", "output.snapshot_stride=2"],
        "final.json",
    ),
    "identities": (
        ["identities.n_states=3", "identities.num_cells=64", "identities.seed=5"], "identities.json"
    ),
    "poincare": (
        ["poincare.n_samples=20", "poincare.y_cells=256", "poincare.delta_points=5",
         "poincare.seed=7"],
        "poincare_scan.json",
    ),
}


@pytest.mark.parametrize("command", list(ROUND_TRIP))
def test_echoed_config_reruns_byte_identical(tmp_path, command):
    # a run from the config an output echoes, with no overrides, writes the
    # same bytes: the echo records everything that set the numbers
    overrides, echo_file = ROUND_TRIP[command]
    first, second, echoed = tmp_path / "first", tmp_path / "second", tmp_path / "echoed.json"
    args = [arg for item in overrides for arg in ("--override", item)]
    assert main(["--config", str(write_config(tmp_path)), "--out", str(first), *args, command]) == 0
    echoed.write_text(json.dumps(json.loads((first / echo_file).read_text())["config"]))
    assert main(["--config", str(echoed), "--out", str(second), command]) == 0
    names = sorted(p.name for p in first.iterdir() if p.name != "timings.json")
    assert names == sorted(p.name for p in second.iterdir() if p.name != "timings.json")
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


class TestCommands:
    def test_wave_summary_values(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "wave"]) == 0
        summary = json.loads((out / "wave_summary.json").read_text())
        assert summary["sigma"] == pytest.approx(np.sqrt(1.9), rel=1e-12)
        assert abs(summary["rh_residual_mass"]) < 1e-12
        assert abs(summary["rh_residual_momentum"]) < 1e-12
        assert summary["weight_total_variation"] == pytest.approx(0.3, rel=1e-8)
        assert summary["profile_ode_max_residual"] < 1e-12
        assert summary["decay_lower_bound_holds"] is True
        assert (out / "wave_profile.csv").exists()

    def test_wave_profile_columns_are_the_pointwise_functions(self, tmp_path):
        # "%.17g" round-trips a double, so each column read back is its
        # pointwise function of `wave` at the nodes, to the bit
        cfg_path = write_config(tmp_path, {"grid": {"num_cells": 256}})
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "wave"]) == 0
        with open(out / "wave_profile.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        columns = {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(header)}
        cfg = load_config(cfg_path)
        params = cfg.wave_params()
        grid = cfg.grid(params)
        xi = grid.nodes()
        assert np.array_equal(columns["xi"], xi)
        for name, fn in (("n_tilde", profile_n), ("q_tilde", profile_q), ("a", weight_a),
                         ("a_prime", weight_a_prime), ("y", y_of_xi)):
            assert np.array_equal(columns[name], np.asarray(fn(params, xi))), name
        summary = json.loads((out / "wave_summary.json").read_text())
        assert summary["weight_total_variation"] == integrate_values(columns["a_prime"], grid.dx)

    def test_large_density_wave_is_not_a_config_error(self, tmp_path):
        # a weak shock (eps 1% of n_-) whose jump-condition terms are ~1e4
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        overrides = ["wave.n_minus=10000", "wave.q_minus=3", "wave.eps=100", "wave.lambda=0.3"]
        args = ["--config", str(cfg_path), "--out", str(out)]
        for item in overrides:
            args += ["--override", item]
        with pytest.warns(UserWarning, match="outside eps < lam < 1/2"):
            assert main([*args, "wave"]) == 0
        summary = json.loads((out / "wave_summary.json").read_text())
        assert summary["n_plus"] == 9900.0

    def test_wave_ode_residual_measures_the_profile(self, tmp_path, monkeypatch):
        # a profile whose logistic rate is 1% off must show in the residual
        from contraction_lab import wave

        def off_rate(params, xi):
            z = 1.01 * wave._logistic_arg(params, xi)
            return wave._maybe_scalar(xi, params.n_plus + params.eps / (1.0 + np.exp(z)))

        monkeypatch.setattr(wave, "profile_n", off_rate)
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "wave"]) == 0
        summary = json.loads((out / "wave_summary.json").read_text())
        assert summary["profile_ode_max_residual"] > 1e-8

    def test_output_dir_from_config(self, tmp_path):
        out = tmp_path / "from_config"
        cfg_path = write_config(tmp_path, {"output": {"dir": str(out)}})
        assert main(["--config", str(cfg_path), "wave"]) == 0
        assert (out / "wave_profile.csv").exists()
        assert (out / "wave_summary.json").exists()

    def test_out_flag_overrides_output_dir(self, tmp_path):
        cfg_path = write_config(tmp_path, {"output": {"dir": str(tmp_path / "unused")}})
        out = tmp_path / "flag"
        assert main(["--config", str(cfg_path), "--out", str(out), "wave"]) == 0
        assert (out / "wave_summary.json").exists()
        assert not (tmp_path / "unused").exists()

    def test_simulate_zero_perturbation(self, tmp_path):
        cfg_path = write_config(tmp_path, {"solver": {"t_end": 1.0}})
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out), "simulate"])
        assert code == 0
        verdict = json.loads((out / "final.json").read_text())
        assert verdict["contraction_held"] is True
        assert verdict["max_violation"] == 0.0
        assert verdict["final_X"] == 0.0

    def test_simulate_deterministic_csv(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {
                "solver": {
                    "t_end": 0.5,
                    "perturbation": {"kind": "random_fourier", "amplitude_n": 0.1, "width": 20.0, "seed": 4},
                }
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg_path), "--out", str(out1), "simulate"]) == 0
        assert main(["--config", str(cfg_path), "--out", str(out2), "simulate"]) == 0
        assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()

    def test_simulate_snapshots(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {
                "solver": {"t_end": 0.2},
                "output": {"snapshot_stride": 5},
            },
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "simulate"]) == 0
        assert (out / "fields_final.csv").exists()

    def test_snapshots_keep_only_the_written_states(self, tmp_path, monkeypatch):
        import contraction_lab.cli as cli_mod
        from contraction_lab.solver import run

        results = []

        def keeping(cfg):
            results.append(run(cfg))
            return results[-1]

        monkeypatch.setattr(cli_mod, "run", keeping)
        cfg_path = write_config(
            tmp_path,
            {
                "solver": {"t_end": 2.0},
                "functionals": {"report_stride": 1},
                "output": {"snapshot_stride": 3},
            },
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "simulate"]) == 0
        (result,) = results
        written = sorted(p.name for p in out.glob("fields_0*.csv"))
        reported = len(result.times)
        assert reported > 6
        assert len(result.states) == len(written)
        # reported step j (every step is reported) ends at solver step j + 1
        assert written == [f"fields_{j + 1:06d}.csv" for j in range(0, reported, 3)]

    def test_snapshot_files_are_named_by_solver_step(self, tmp_path, monkeypatch):
        import contraction_lab.cli as cli_mod
        from contraction_lab.solver import run

        results = []
        monkeypatch.setattr(cli_mod, "run", lambda cfg: results.append(run(cfg)) or results[-1])
        cfg_path = write_config(
            tmp_path,
            {
                "solver": {"t_end": 2.0, "dt": 0.1, "perturbation": {"amplitude_n": 0.2, "width": 5.0}},
                "functionals": {"report_stride": 2},
                "output": {"snapshot_stride": 3},
            },
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "simulate"]) == 0
        # reported steps end at solver steps 2, 4, ..., 20; every third is written
        written = sorted(p.name for p in out.glob("fields_0*.csv"))
        assert written == ["fields_000002.csv", "fields_000008.csv", "fields_000014.csv",
                           "fields_000020.csv"]
        (result,) = results
        for name, (t, state) in zip(written, result.states):
            assert t == int(name[7:13]) * 0.1
            n = np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=1)
            assert np.array_equal(n, state.n.values)

    def test_timings_beside_final_json(self, tmp_path):
        import importlib.resources

        cfg_path = write_config(tmp_path, {"solver": {"t_end": 0.5}})
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "simulate"]) == 0
        timings = json.loads((out / "timings.json").read_text())
        ref = importlib.resources.files("contraction_lab") / "schema" / "output_columns.json"
        assert sorted(timings) == sorted(json.loads(ref.read_text())["timings_json"]["keys"])
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        assert not set(timings) & set(json.loads((out / "final.json").read_text()))

    def test_identities_pass(self, tmp_path):
        cfg_path = write_config(tmp_path, {"identities": {"n_states": 5, "num_cells": 256}})
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "identities"]) == 0
        report = json.loads((out / "identities.json").read_text())
        assert report["all_passed"] is True
        assert [e["name"] for e in report["identities"]] == [
            "I_bad - I_good == B_delta - G_delta",
            "Y == Y_g + Y_b + Y_l + Y_s",
        ]

    def test_empty_deltas_is_a_config_error(self, tmp_path, capsys):
        # an empty threshold list would check nothing and report all_passed
        cfg_path = write_config(tmp_path, {"identities": {"n_states": 2, "num_cells": 64}})
        out = tmp_path / "out"
        args = ["--config", str(cfg_path), "--out", str(out), "--override", "identities.deltas=[]"]
        assert main([*args, "identities"]) == 2
        assert "deltas must be non-empty" in capsys.readouterr().err
        assert not (out / "identities.json").exists()

    def test_identities_fail_exit_code(self, tmp_path):
        cfg_path = write_config(
            tmp_path, {"identities": {"n_states": 3, "num_cells": 256, "tol": 1e-30}}
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "identities"]) == 4

    def test_poincare_scan(self, tmp_path):
        cfg_path = write_config(
            tmp_path, {"poincare": {"n_samples": 30, "y_cells": 512, "delta_points": 5}}
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "poincare"]) == 0
        payload = json.loads((out / "poincare_scan.json").read_text())
        assert payload["delta_star_empirical"] > 0

    @pytest.mark.parametrize("key", ["delta_max", "delta_min"])
    def test_poincare_delta_past_one_is_a_config_error(self, tmp_path, capsys, key):
        cfg_path = write_config(tmp_path, {"poincare": {"n_samples": 30, "y_cells": 512}})
        out = tmp_path / "out"
        args = ["--config", str(cfg_path), "--out", str(out), "--override", f"poincare.{key}=3"]
        assert main([*args, "poincare"]) == 2
        assert f"poincare.{key}" in capsys.readouterr().err
        assert not (out / "poincare_scan.json").exists()

    @pytest.mark.parametrize("override", ["solver.t_end=Infinity", "functionals.violation_tol=NaN"])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, override):
        # Python's json reads NaN and Infinity, and JSON Schema admits them
        # as numbers; the config walk refuses them and names the key
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        args = ["--config", str(cfg_path), "--out", str(out), "--override", override, "simulate"]
        assert main(args) == 2
        key = override.split("=")[0]
        assert f"config invalid at {key}: " in capsys.readouterr().err
        assert not (out / "final.json").exists()

    def test_integer_valued_float_runs_as_int(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        base = ["--config", str(cfg_path), "--out", str(out)]
        assert main([*base, "--override", "grid.num_cells=512.0", "wave"]) == 0
        summary = json.loads((out / "wave_summary.json").read_text())
        assert summary["config"]["grid"]["num_cells"] == 512
        assert len((out / "wave_profile.csv").read_text().splitlines()) == 514
        args = [*base, "--override", "identities.n_states=3.0", "--override",
                "identities.num_cells=256.0", "identities"]
        assert main(args) == 0
        report = json.loads((out / "identities.json").read_text())
        assert report["config"]["identities"]["n_states"] == 3

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"wave": {"n_minus": 2.0}}))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "wave"]) == 2

    def test_stability_error_exit_code(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {
                "solver": {
                    "t_end": 50.0,
                    "dt": 25.0,
                    "perturbation": {"amplitude_n": 0.8, "amplitude_q": 0.8, "width": 10.0},
                }
            },
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "simulate"]) == 3

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_step_is_a_stability_error(self, tmp_path, capsys):
        # a step that overflows the state must reach the state check, not be
        # rejected inside the banded solve as a config error
        cfg_path = write_config(
            tmp_path,
            {
                "grid": {"num_cells": 256},
                "solver": {
                    "t_end": 1e300,
                    "dt": 1e300,
                    "perturbation": {"amplitude_n": 0.5, "amplitude_q": 0.5, "width": 5.0},
                },
            },
        )
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "simulate"])
        err = capsys.readouterr().err
        assert code == 3
        assert "stability error: non-finite value in state" in err

    def test_numerics_error_exit_code(self, tmp_path, monkeypatch, capsys):
        # a tube split whose parts miss the total must fail verification,
        # not pass for a config error
        import contraction_lab.functionals as fn

        split = fn._split

        def broken_split(c, delta):
            s = split(c, delta)
            return s._replace(Y_s=s.Y_s + 1.0)

        monkeypatch.setattr(fn, "_split", broken_split)
        cfg_path = write_config(tmp_path, {"solver": {"t_end": 0.2}})
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "simulate"])
        assert code == 4
        assert "decomposition" in capsys.readouterr().err

    def test_error_inside_run_is_not_a_config_error(self, tmp_path, monkeypatch, capsys):
        # a DomainError (a ValueError) raised by an evaluation at step 3 is
        # a failure of the run: exit 4, not 2
        import contraction_lab.functionals as fn
        from contraction_lab.wave import DomainError

        split, calls = fn._split, []

        def failing(c, delta):
            calls.append(delta)
            if len(calls) == 4:  # the reports at t = 0 and after steps 1, 2, 3
                raise DomainError("a functional left its domain")
            return split(c, delta)

        monkeypatch.setattr(fn, "_split", failing)
        cfg_path = write_config(tmp_path, {"solver": {"t_end": 1.0, "dt": 0.1}})
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "simulate"])
        err = capsys.readouterr().err
        assert code == 4
        assert "verification error: a functional left its domain (run failed at step 3 of 10)" in err
        assert "config error" not in err

    def test_error_from_the_step_is_not_a_config_error(self, tmp_path, monkeypatch, capsys):
        from contraction_lab.solver import _Stepper

        step, steps = _Stepper.step, []

        def failing(self, n, q):
            steps.append(None)
            if len(steps) == 3:
                raise ValueError("illegal value in argument 3 of dpttrs")
            return step(self, n, q)

        monkeypatch.setattr(_Stepper, "step", failing)
        cfg_path = write_config(tmp_path, {"solver": {"t_end": 1.0, "dt": 0.1}})
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "simulate"])
        err = capsys.readouterr().err
        assert code == 4
        assert "(run failed at step 3 of 10)" in err and "config error" not in err

    def test_initial_state_error_is_a_config_error(self, tmp_path, capsys):
        # a perturbation that does not decay fails the initial state's checks
        cfg_path = write_config(
            tmp_path, {"solver": {"t_end": 1.0, "perturbation": {"amplitude_n": 0.2, "width": 400.0}}}
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "simulate"]) == 2
        assert "config error: perturbation does not decay" in capsys.readouterr().err
        assert not (out / "final.json").exists()

    def test_override_flag(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--override",
                "wave.eps=0.05",
                "--override",
                "wave.lambda=0.25",
                "wave",
            ]
        )
        assert code == 0
        summary = json.loads((out / "wave_summary.json").read_text())
        assert summary["eps"] == 0.05

    def test_bad_override_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert (
            main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "--override", "oops", "wave"])
            == 2
        )

    def test_explicit_diffusion_is_a_config_error(self, tmp_path, capsys):
        # the implicit solve is the solver's only diffusion path
        cfg_path = write_config(tmp_path)
        override = 'solver.diffusion_mode="explicit"'
        args = ["--config", str(cfg_path), "--out", str(tmp_path / "o"), "--override", override]
        assert main([*args, "simulate"]) == 2
        assert "solver.diffusion_mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, key",
        [("solver.well_balanced=false", "well_balanced"), ("shift.substeps=8", "shift")],
    )
    def test_deleted_option_is_a_config_error(self, tmp_path, capsys, override, key):
        # the delta-form step is the solver's only step, with 4 shift substeps
        cfg_path = write_config(tmp_path)
        args = ["--config", str(cfg_path), "--out", str(tmp_path / "o"), "--override", override]
        assert main([*args, "simulate"]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_custom_file_without_path_is_a_config_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"solver": {"perturbation": {"kind": "custom_file"}}})
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert "perturbation.path" in capsys.readouterr().err

    def test_unreadable_custom_file_is_a_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        cfg_path = write_config(
            tmp_path, {"solver": {"perturbation": {"kind": "custom_file", "path": str(missing)}}}
        )
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_samples_below_one_is_a_config_error(self, tmp_path, capsys, samples):
        cfg_path = write_config(tmp_path, {"identities": {"n_states": 2, "num_cells": 64}})
        out = tmp_path / "out"
        override = f"identities.n_states={samples}"
        assert main(["--config", str(cfg_path), "--out", str(out), "--override", override, "identities"]) == 2
        assert "config invalid at identities.n_states: " in capsys.readouterr().err
        assert not (out / "identities.json").exists()

    def test_run_csv_matches_documented_schema(self, tmp_path):
        import csv
        import importlib.resources

        cfg_path = write_config(
            tmp_path,
            {
                "solver": {
                    "t_end": 0.5,
                    "perturbation": {"amplitude_n": 0.2, "amplitude_q": 0.1, "width": 10.0},
                }
            },
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "simulate"]) == 0

        ref = importlib.resources.files("contraction_lab") / "schema" / "output_columns.json"
        documented = [c["name"] for c in json.loads(ref.read_text())["run_csv"]["columns"]]
        with open(out / "run.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == documented

        # the identities survive serialization: Y and the sum of its tube
        # parts, and the split I_bad - I_good = B_delta - G_delta, each term
        # read from its own column (B_delta and G_delta are the sums of
        # their parts, so summing the parts again would test nothing)
        for row in rows:
            y = float(row["Y"])
            y_sum = sum(float(row[k]) for k in ("Y_g", "Y_b", "Y_l", "Y_s"))
            assert abs(y - y_sum) <= 1e-10 * max(1.0, abs(y))
            ibad, igood, b, g = (float(row[k]) for k in ("I_bad", "I_good", "B_delta", "G_delta"))
            gap = abs((ibad - igood) - (b - g))
            assert gap <= 1e-10 * max(abs(ibad), abs(igood), abs(b), abs(g))
            assert float(row["lab_shift"]) == pytest.approx(
                np.sqrt(1.9) * float(row["t"]) - float(row["X"]), rel=1e-10
            )

    def test_seed_flag_changes_random_perturbation(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {
                "solver": {
                    "t_end": 0.2,
                    "perturbation": {"kind": "random_fourier", "amplitude_n": 0.1, "width": 20.0},
                }
            },
        )
        out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
        for out, seed in [(out1, 1), (out2, 2), (out3, 1)]:
            args = ["--out", str(out), "--override", f"solver.perturbation.seed={seed}", "simulate"]
            assert main(["--config", str(cfg_path), *args]) == 0
        a = (out1 / "run.csv").read_bytes()
        assert a != (out2 / "run.csv").read_bytes()
        assert a == (out3 / "run.csv").read_bytes()

    @pytest.mark.parametrize(
        "args", [["--seed", "1", "simulate"], ["identities", "--samples", "2"]], ids=["seed", "samples"]
    )
    def test_removed_flag_is_refused(self, tmp_path, capsys, args):
        # seeds and counts come from the config alone, so every output echoes them
        cfg_path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), *args])
        assert exc.value.code == 2
        assert "contraction-lab: error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_snapshots_format_is_a_config_error(self, tmp_path, capsys):
        # output.snapshot_stride alone asks for snapshots
        cfg_path = write_config(tmp_path, {"output": {"formats": ["csv", "json", "snapshots"]}})
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "simulate"]) == 2
        assert "config invalid at output.formats" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_uncreatable_output_dir_is_a_config_error(self, tmp_path, capsys, where):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        if where == "flag":
            args = ["--config", str(write_config(tmp_path)), "--out", str(out), "wave"]
        else:
            args = ["--config", str(write_config(tmp_path, {"output": {"dir": str(out)}})), "wave"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_module_entry_point(self, tmp_path):
        cfg_path = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "contraction_lab", "--config", str(cfg_path),
             "--out", str(tmp_path / "out"), "wave"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "sigma" in proc.stdout


def _oracle_fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _oracle_write_csv(path, header, rows):
    # the row-wise writer the CLI had before its column-wise one
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_oracle_fmt(v) for v in row])


class TestWriteTable:
    SPECIAL = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e308, 0.1, -1.0 / 3.0, 0.0]

    @staticmethod
    def assert_same_bytes(tmp_path, header, columns, formats=None):
        _write_table(tmp_path / "new.csv", header, columns, formats)
        _oracle_write_csv(tmp_path / "old.csv", header, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_special_values(self, tmp_path):
        values = np.array(self.SPECIAL)
        self.assert_same_bytes(tmp_path, ["a", "b"], [values, values[::-1]])

    def test_python_floats_and_numpy_scalars(self, tmp_path):
        python_floats = list(self.SPECIAL)
        numpy_scalars = [np.float64(v) for v in self.SPECIAL]
        self.assert_same_bytes(tmp_path, ["p", "n"], [python_floats, numpy_scalars])

    def test_str_column(self, tmp_path):
        regime = ["linear", "saturated_plus", "saturated_minus", "linear"]
        t = np.linspace(0.0, 1.0, 4)
        self.assert_same_bytes(tmp_path, ["t", "regime", "x"], [t, regime, -t], {"regime": "%s"})

    @pytest.mark.parametrize("n_rows", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    def test_row_counts_around_the_chunk(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        columns = [rng.normal(size=n_rows) * 10.0 ** rng.integers(-300, 300, size=n_rows) for _ in range(3)]
        self.assert_same_bytes(tmp_path, ["xi", "n", "q"], columns)
        assert len((tmp_path / "new.csv").read_bytes().split(b"\r\n")) == n_rows + 2
