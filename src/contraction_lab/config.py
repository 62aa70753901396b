"""Strict, schema-validated experiment configuration."""

from __future__ import annotations

import copy
import importlib.resources
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import Grid
from .solver import PerturbationSpec, SolverConfig
from .wave import WaveParams, make_wave_params

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "apply_override"]


class ConfigError(ValueError):
    """Configuration file or override rejected."""


def _schema() -> dict:
    ref = importlib.resources.files("contraction_lab") / "schema" / "experiment_config.schema.json"
    return json.loads(ref.read_text())


def _fill_defaults(schema: dict, data: dict) -> dict:
    """Recursively apply schema defaults to missing keys."""
    out = copy.deepcopy(data)
    for key, sub in schema.get("properties", {}).items():
        if sub.get("type") == "object" or "properties" in sub:
            out[key] = _fill_defaults(sub, out.get(key, {}))
        elif key not in out and "default" in sub:
            out[key] = copy.deepcopy(sub["default"])
    return out


def apply_override(data: dict, dotted_key: str, raw_value: str) -> None:
    """Set a dot-path key in a nested dict; value parsed as JSON, else string."""
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    parts = dotted_key.split(".")
    node = data
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {dotted_key!r} crosses a non-object")
    node[parts[-1]] = value


@dataclass
class ExperimentConfig:
    """Validated configuration with every default made explicit."""

    data: dict = field(repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        import jsonschema  # only a validated config pays for its import

        schema = _schema()
        try:
            jsonschema.validate(raw, schema)
        except jsonschema.ValidationError as exc:
            path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
            raise ConfigError(f"config invalid at {path}: {exc.message}") from exc
        return cls(data=_fill_defaults(schema, raw))

    def wave_params(self) -> WaveParams:
        w = self.data["wave"]
        return make_wave_params(
            n_minus=w["n_minus"], q_minus=w["q_minus"], eps=w["eps"],
            lam=w["lambda"], nu=w["nu"],
        )

    def grid(self, params: WaveParams | None = None) -> Grid:
        params = params or self.wave_params()
        g = self.data["grid"]
        half_width = g["half_width_factor"] * params.nu * params.sigma / params.eps
        return Grid(xi_min=-half_width, xi_max=half_width, num_cells=g["num_cells"])

    def perturbation(self, seed: int | None = None) -> PerturbationSpec:
        p = dict(self.data["solver"]["perturbation"])
        if seed is not None:
            p["seed"] = seed
        return PerturbationSpec(**p)

    def solver_config(self, seed: int | None = None) -> SolverConfig:
        params = self.wave_params()
        s = self.data["solver"]
        f = self.data["functionals"]
        return SolverConfig(
            params=params,
            grid=self.grid(params),
            t_end=s["t_end"],
            perturbation=self.perturbation(seed),
            cfl=s["cfl"],
            dt=s["dt"],
            report_stride=f["report_stride"],
            delta0=f["delta0"],
            delta1=f["delta1"],
            violation_tol=f["violation_tol"],
        )

    def poincare_delta_grid(self) -> np.ndarray:
        p = self.data["poincare"]
        return np.geomspace(p["delta_min"], p["delta_max"], p["delta_points"])


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    return ExperimentConfig.from_dict(raw)
