"""The config walk against the reference JSON Schema validator.

The package checks configs with its own walk over the packaged schema; these
tests hold it to jsonschema's Draft 2020-12 decision on a seeded corpus of
mutated demo configs.  jsonschema is a test-only dependency.
"""

import copy
import json
import math
import random
from pathlib import Path

import pytest

from contraction_lab.config import ConfigError, ExperimentConfig, _check_keywords, _schema, _walk

DEMO = json.loads(
    (Path(__file__).resolve().parent.parent / "scripts" / "configs" / "contraction_demo.json").read_text()
)
BOUNDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
# values of every JSON type, finite numbers only
WRONG_VALUES = ("text", "", None, True, False, 0, 1, -3, 2.5, -0.5, [], [1.0], ["csv"], {}, {"a": 1})
N_MUTANTS = 6000


def _fields(schema, path=()):
    """(path, subschema) of every property in the schema, objects included."""
    out = []
    for key, sub in schema.get("properties", {}).items():
        out.append(((*path, key), sub))
        out.extend(_fields(sub, (*path, key)))
    return out


def _types(sub):
    types = sub.get("type", [])
    return [types] if isinstance(types, str) else types


def _bound_values(sub):
    """Values on, and one ulp or one unit either side of, each bound of `sub`."""
    values = []
    for keyword in BOUNDS:
        if keyword not in sub:
            continue
        bound = sub[keyword]
        values += [bound, float(bound), math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
        if float(bound).is_integer():
            values += [int(bound), int(bound) - 1, int(bound) + 1]
    return values


def _parent(data, path):
    node = data
    for key in path[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            return None
    return node


def _mutate(data, rng, fields):
    """Apply one random mutation to `data` in place."""
    path, sub = rng.choice(fields)
    parent = _parent(data, path)
    if parent is None:
        return
    kind = rng.choice(("drop", "unknown", "wrong", "bool", "bound", "enum", "item", "float_int"))
    if kind == "drop":
        parent.pop(path[-1], None)
    elif kind == "unknown":
        target = parent.get(path[-1]) if "properties" in sub else parent
        if isinstance(target, dict):
            target[rng.choice(("extra", "zeta", "nu_"))] = rng.choice(WRONG_VALUES)
    elif kind == "wrong":
        parent[path[-1]] = copy.deepcopy(rng.choice(WRONG_VALUES))
    elif kind == "bool" and {"number", "integer"} & set(_types(sub)):
        parent[path[-1]] = rng.choice((True, False))
    elif kind == "bound" and _bound_values(sub):
        parent[path[-1]] = rng.choice(_bound_values(sub))
    elif kind == "enum" and "enum" in sub:
        parent[path[-1]] = rng.choice([*sub["enum"], "explicit", 1])
    elif kind == "item" and "items" in sub:
        items = sub["items"]
        pool = [*items.get("enum", []), *_bound_values(items), *WRONG_VALUES]
        parent[path[-1]] = [rng.choice(pool) for _ in range(rng.randrange(4))]
    elif kind == "float_int" and "integer" in _types(sub):
        parent[path[-1]] = rng.choice((512.0, 3.0, 0.0, 4.5, -1.0, 1e3))


def _walk_accepts(data) -> bool:
    try:
        ExperimentConfig.from_dict(data)
    except ConfigError:
        return False
    return True


def test_walk_agrees_with_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema()
    validator = jsonschema.Draft202012Validator(schema)
    fields = _fields(schema)
    rng = random.Random(20261019)
    decisions = {True: 0, False: 0}
    disagreements = []
    for i in range(N_MUTANTS):
        data = copy.deepcopy(DEMO)
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            _mutate(data, rng, fields)
        expected = validator.is_valid(data)
        decisions[expected] += 1
        if _walk_accepts(data) != expected:
            disagreements.append((i, expected, data))
    assert not disagreements, disagreements[:3]
    # the corpus tests both decisions, each often
    assert min(decisions.values()) > N_MUTANTS // 5, decisions


def test_walk_fills_defaults_and_leaves_its_input_alone():
    raw = copy.deepcopy(DEMO)
    data = ExperimentConfig.from_dict(raw).data
    assert raw == DEMO
    assert data["wave"]["nu"] == 1.0
    assert data["identities"]["deltas"] == [0.05, 0.25, 0.49]
    assert data["identities"]["deltas"] is not _schema()["properties"]["identities"]["properties"]["deltas"]["default"]
    assert data["output"] is not raw["output"]
    assert data["output"]["formats"] is not raw["output"]["formats"]


@pytest.mark.parametrize("key, value", [("grid.num_cells", 512.0), ("poincare.delta_points", 7.0)])
def test_integer_valued_float_is_stored_as_int(key, value):
    raw = copy.deepcopy(DEMO)
    section, name = key.split(".")
    raw.setdefault(section, {})[name] = value
    stored = ExperimentConfig.from_dict(raw).data[section][name]
    assert stored == value and type(stored) is int


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_number_refused(value):
    raw = copy.deepcopy(DEMO)
    raw["wave"]["q_minus"] = value
    with pytest.raises(ConfigError, match=r"config invalid at wave\.q_minus: .* not a finite number"):
        ExperimentConfig.from_dict(raw)


def test_cfl_of_one_meets_its_float_maximum():
    # an int compared with a float bound: solver.cfl = 1 against maximum 1.0
    raw = copy.deepcopy(DEMO)
    raw["solver"]["cfl"] = 1
    assert ExperimentConfig.from_dict(raw).data["solver"]["cfl"] == 1
    raw["solver"]["cfl"] = math.nextafter(1.0, 2.0)
    with pytest.raises(ConfigError, match="solver.cfl"):
        ExperimentConfig.from_dict(raw)


def test_enum_tells_a_bool_from_a_number():
    # the packaged enums hold strings only; draft 2020-12 keeps true apart from 1
    schema = {"enum": [1, 0.0, "a"]}
    assert _walk(schema, 1.0, ("k",)) == 1.0
    for value in (True, False):
        with pytest.raises(ConfigError, match="config invalid at k: "):
            _walk(schema, value, ("k",))


@pytest.mark.parametrize(
    "path, keyword, value",
    [
        ((), "oneOf", []),
        (("output", "dir"), "pattern", "^out"),
        (("identities", "deltas", "items"), "multipleOf", 0.01),
        (("grid",), "additionalProperties", True),
    ],
)
def test_schema_with_unknown_keyword_refused(path, keyword, value):
    schema = copy.deepcopy(_schema())
    node = schema
    for key in path:
        node = node[key] if key == "items" else node["properties"][key]
    node[keyword] = value
    with pytest.raises(ValueError, match=keyword):
        _check_keywords(schema)


def test_schema_with_unknown_type_refused():
    schema = copy.deepcopy(_schema())
    schema["properties"]["wave"]["properties"]["eps"]["type"] = "float"
    with pytest.raises(ValueError, match="float"):
        _check_keywords(schema)
