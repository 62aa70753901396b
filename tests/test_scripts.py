import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from contraction_lab import NumericsError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSweep:
    def test_numerics_error_is_recorded_and_the_sweep_goes_on(self, tmp_path, monkeypatch):
        sweep = _load_script("sweep_eps_lambda")
        real_run = sweep.run
        failing = (0.1, 0.2)

        def run(cfg):
            if (cfg.params.eps, cfg.params.lam) == failing:
                raise NumericsError("I_good < 0 at step 3")
            return real_run(cfg)

        monkeypatch.setattr(sweep, "run", run)
        out = tmp_path / "sweep.json"
        monkeypatch.setattr(
            sys, "argv", ["sweep", "--out", str(out), "--t-end", "0.05", "--cells", "64"]
        )
        sweep.main()

        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == len(sweep.EPS_GRID) * len(sweep.LAM_GRID) == 25
        failed = [r for r in rows if r["status"] != "ok"]
        assert failed == [
            {
                "eps": 0.1,
                "lambda": 0.2,
                "eps_over_lambda": 0.1 / 0.2,
                "status": "numerics_error",
                "detail": "I_good < 0 at step 3",
            }
        ]
        assert all("contraction_held" in r for r in rows if r["status"] == "ok")


class TestExperiment:
    def test_names_the_directory_the_cli_wrote_to(self, tmp_path, monkeypatch, capsys):
        experiment = _load_script("run_contraction_experiment")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "demo"
        small = [
            "--override", "grid.num_cells=256",
            "--override", "solver.t_end=0.05",
            "--override", "identities.n_states=2",
            "--override", "identities.num_cells=64",
            "--override", "poincare.n_samples=10",
            "--override", "poincare.y_cells=64",
        ]
        # argparse keeps the last --out
        argv = ["--out", str(tmp_path / "first"), "--out", str(out), *small]
        assert experiment.run(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"all outputs in {out}/"
        assert (out / "final.json").exists()
        assert not (tmp_path / "first").exists() and not (tmp_path / "out").exists()


class TestOutputUlps:
    def test_ulps_counts_doubles_between(self):
        ulps = _load_script("output_ulps").ulps
        one_up = np.nextafter(1.0, 2.0)
        assert ulps(1.0, one_up) == ulps(one_up, 1.0) == 1.0
        assert ulps(0.0, -0.0) == 0.0
        tiny = 5e-324
        assert ulps(-tiny, tiny) == 2.0
        assert ulps(-1.0, np.nextafter(-1.0, 0.0)) == 1.0
        assert ulps(float("nan"), 1.0) == float("inf") and ulps(float("nan"), float("nan")) == 0.0

    def test_report_names_what_moved(self, tmp_path):
        script = _load_script("output_ulps")
        base, head = tmp_path / "base", tmp_path / "head"
        base.mkdir()
        head.mkdir()
        x = 0.1
        up = [x, float(np.nextafter(x, 1.0)), float(np.nextafter(np.nextafter(x, 1.0), 1.0))]
        (base / "same.csv").write_text("a\n1\n")
        (head / "same.csv").write_text("a\n1\n")
        (base / "run.csv").write_text("t,X,regime\n0,0.1,in\n1,0.1,in\n2,0.1,in\n")
        (head / "run.csv").write_text(
            "t,X,regime\n" + "".join(f"{i},{v!r},{r}\n" for i, (v, r) in enumerate(zip(up, ["in", "in", "out"])))
        )
        (base / "final.json").write_text(json.dumps({"a": {"b": [1.0, 2.0]}, "flag": True, "old": 1}))
        (head / "final.json").write_text(
            json.dumps({"a": {"b": [1.0, float(np.nextafter(2.0, 3.0))]}, "flag": False, "new": 1})
        )
        (head / "extra.json").write_text("{}")
        lines = script.report(base, head)
        assert lines == [
            "- `extra.json`: only here",
            "- `final.json`: **differs**",
            "  - `a.b[1]`: 1 ulps (2.0 -> 2.0000000000000004)",
            "  - `flag`: True -> False",
            "  - `new`: new",
            "  - `old`: gone",
            "- `run.csv`: **differs**",
            "  - `X`: max 2 ulps, median 1",
            "  - `regime`: 1 of 3 rows changed",
            "- `same.csv`: identical",
        ]
        assert script.main([str(base), str(head)]) == 0
