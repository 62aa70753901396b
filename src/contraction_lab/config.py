"""Strict, schema-validated experiment configuration.

The rules live in one file, `schema/experiment_config.schema.json`.  One
walk over it checks a config and fills in its defaults.  The walk knows the
keywords that file uses, with their JSON Schema draft 2020-12 meaning, and
refuses a schema with any other, so that no rule is ignored unseen.
"""

from __future__ import annotations

import copy
import functools
import importlib.resources
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import Grid
from .solver import PerturbationSpec, SolverConfig
from .wave import WaveParams, make_wave_params

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "apply_override"]


class ConfigError(ValueError):
    """Configuration file or override rejected."""


# Every keyword the walk implements; "$schema" and "title" only annotate.
_KEYWORDS = frozenset({
    "$schema", "title", "type", "enum", "minimum", "maximum", "exclusiveMinimum",
    "exclusiveMaximum", "required", "properties", "additionalProperties", "items", "default",
})

# the numeric bounds, each with the test a value must pass against it
_BOUNDS = (
    ("minimum", operator.ge),
    ("maximum", operator.le),
    ("exclusiveMinimum", operator.gt),
    ("exclusiveMaximum", operator.lt),
)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    # draft 2020-12: a float with no fractional part is an integer
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
    "number": _is_number,
    "integer": _is_integer,
}


def _type_names(schema: dict) -> list:
    types = schema.get("type", [])
    return [types] if isinstance(types, str) else types


def _check_keywords(schema: dict, path: tuple = ()) -> None:
    """Raise ValueError if `schema` or a subschema uses a keyword, type name or
    form the walk does not implement."""
    where = ".".join(path) or "<root>"
    unknown = sorted(set(schema) - _KEYWORDS)
    if unknown:
        raise ValueError(f"schema at {where} uses unsupported keywords {unknown}")
    for name in _type_names(schema):
        if name not in _TYPES:
            raise ValueError(f"schema at {where} names unknown type {name!r}")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError(f"schema at {where}: only additionalProperties false is supported")
    for key, sub in schema.get("properties", {}).items():
        _check_keywords(sub, (*path, key))
    if "items" in schema:
        _check_keywords(schema["items"], (*path, "items"))


@functools.cache
def _schema() -> dict:
    """The packaged schema, read and checked once per process (do not mutate)."""
    ref = importlib.resources.files("contraction_lab") / "schema" / "experiment_config.schema.json"
    schema = json.loads(ref.read_text())
    _check_keywords(schema)
    return schema


def _walk(schema: dict, value, path: tuple):
    """`value` checked against `schema`, in new containers with the defaults
    filled in; raises ConfigError at the first rule it breaks.

    An integer-valued float in an integer field is stored as an int, and a
    non-finite number is refused, which JSON Schema itself allows.
    """
    def invalid(message: str) -> ConfigError:
        return ConfigError(f"config invalid at {'.'.join(path) or '<root>'}: {message}")

    if "type" in schema:
        names = _type_names(schema)
        matched = next((name for name in names if _TYPES[name](value)), None)
        if matched is None:
            raise invalid(f"{value!r} is not of type {' or '.join(names)}")
        if matched == "integer" and isinstance(value, float):
            value = int(value)
        elif matched == "number" and isinstance(value, float) and not math.isfinite(value):
            raise invalid(f"{value!r} is not a finite number")
    if "enum" in schema and not any(
        value == option and isinstance(value, bool) == isinstance(option, bool)
        for option in schema["enum"]
    ):
        raise invalid(f"{value!r} is not one of {schema['enum']}")
    if _is_number(value):
        for keyword, holds in _BOUNDS:
            if keyword in schema and not holds(value, schema[keyword]):
                raise invalid(f"{value!r} breaks {keyword} {schema[keyword]!r}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                raise invalid(f"required key {key!r} is missing")
        if "additionalProperties" in schema:
            for key in value:
                if key not in props:
                    raise invalid(f"unexpected key {key!r}")
        out = {
            key: _walk(props[key], item, (*path, key)) if key in props else copy.deepcopy(item)
            for key, item in value.items()
        }
        for key, sub in props.items():
            if key in out:
                continue
            if "default" in sub:
                out[key] = copy.deepcopy(sub["default"])
            elif "properties" in sub:
                out[key] = _walk(sub, {}, (*path, key))
        return out
    if isinstance(value, list) and "items" in schema:
        return [_walk(schema["items"], item, (*path, str(i))) for i, item in enumerate(value)]
    return copy.deepcopy(value)


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
        return cls(data=_walk(_schema(), raw, ()))

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

    def solver_config(self) -> SolverConfig:
        params = self.wave_params()
        s = self.data["solver"]
        f = self.data["functionals"]
        return SolverConfig(
            params=params,
            grid=self.grid(params),
            t_end=s["t_end"],
            perturbation=PerturbationSpec(**s["perturbation"]),
            cfl=s["cfl"],
            dt=s["dt"],
            report_stride=f["report_stride"],
            delta0=f["delta0"],
            delta1=f["delta1"],
            # the run keeps only the reported states that are written
            keep_states=self.data["output"]["snapshot_stride"],
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
