import dataclasses
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from contraction_lab import PerturbationSpec, SolverConfig
from contraction_lab.cli import main
from contraction_lab.config import ConfigError, _schema, apply_override, load_config
from contraction_lab.identities import check_identities
from contraction_lab.poincare import DEFAULT_Y_CELLS


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
]


@pytest.mark.parametrize(
    "schema_path, api_default", SHADOWED_DEFAULTS, ids=[path for path, _ in SHADOWED_DEFAULTS]
)
def test_schema_default_matches_api_default(schema_path, api_default):
    node = _schema()
    for key in schema_path.split("."):
        node = node["properties"][key]
    assert node["default"] == api_default


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
                "output": {"formats": ["csv", "json", "snapshots"], "snapshot_stride": 5},
            },
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "simulate"]) == 0
        assert (out / "fields_final.csv").exists()

    def test_identities_pass(self, tmp_path):
        cfg_path = write_config(tmp_path, {"identities": {"n_states": 5, "num_cells": 256}})
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "identities"]) == 0
        report = json.loads((out / "identities.json").read_text())
        assert report["all_passed"] is True
        assert len(report["identities"]) == 4

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

        def broken_split(params, c, delta):
            s = split(params, c, delta)
            return s._replace(Y_s=s.Y_s + 1.0)

        monkeypatch.setattr(fn, "_split", broken_split)
        cfg_path = write_config(tmp_path, {"solver": {"t_end": 0.2}})
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "simulate"])
        assert code == 4
        assert "decomposition" in capsys.readouterr().err

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
        assert main(["--config", str(cfg_path), "--out", str(out), "identities", "--samples", samples]) == 2
        assert "--samples" in capsys.readouterr().err
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

        # the decomposition identities survive serialization
        for row in rows:
            y = float(row["Y"])
            y_sum = sum(float(row[k]) for k in ("Y_g", "Y_b", "Y_l", "Y_s"))
            assert abs(y - y_sum) <= 1e-10 * max(1.0, abs(y))
            g = float(row["G_delta"])
            g_sum = sum(float(row[k]) for k in ("G1_in", "G1_out", "G2", "G_D"))
            assert abs(g - g_sum) <= 1e-10 * max(1.0, abs(g))
            b = float(row["B_delta"])
            b_sum = sum(float(row[k]) for k in ("B1", "B2_in", "B2_out", "B3"))
            assert abs(b - b_sum) <= 1e-10 * max(1.0, abs(b))
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
        assert main(["--config", str(cfg_path), "--out", str(out1), "--seed", "1", "simulate"]) == 0
        assert main(["--config", str(cfg_path), "--out", str(out2), "--seed", "2", "simulate"]) == 0
        assert main(["--config", str(cfg_path), "--out", str(out3), "--seed", "1", "simulate"]) == 0
        a = (out1 / "run.csv").read_bytes()
        assert a != (out2 / "run.csv").read_bytes()
        assert a == (out3 / "run.csv").read_bytes()

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
