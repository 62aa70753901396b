"""In-memory span tracer for the calls one package module makes into another.

`Tracer.install` replaces the package's public functions, in the module that
defines them and in every module that imports them, with wrappers that
record a span (name, start, end, parent) around each call; `restore` puts
the originals back.  A call made inside a span of the same group (say
`profile_n` called by `profile_n_prime`) records nothing, so counts are of
calls across layers.  Spans stay in memory until `dump` writes them.

The tracer also keys every state evaluation (`functionals._core`) on a digest
of the state arrays and the shift, to count how many evaluations were of a
pair already evaluated.  The digest runs in a `trace.digest` span, so its
cost is kept out of the self time of the layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

PACKAGE = "contraction_lab"
MODULES = ("wave", "grid", "functionals", "solver", "shift", "poincare", "identities", "config", "cli")

# Metric groups: several functions whose calls and self time are reported together.
GROUPS = {
    "wave.profile": (
        "wave.profile_n",
        "wave.profile_n_prime",
        "wave.profile_n_second",
        "wave.profile_q",
        "wave.weight_a",
        "wave.weight_a_prime",
        "wave.weight_a_second",
    ),
    "functionals.reference_arrays": ("functionals.reference_arrays",),
    "functionals.evaluate_report": ("functionals.evaluate_report",),
    "functionals.y_and_ibad": ("functionals.y_and_ibad",),
    "functionals.eta": ("functionals.eta_weighted", "functionals.eta_unweighted"),
    "functionals.wrappers": (
        "functionals.Y",
        "functionals.I_bad",
        "functionals.I_good",
        "functionals.B_delta",
        "functionals.G_delta",
        "functionals.decompositions",
    ),
    "grid.integrate": ("grid.integrate_values", "grid.integrate"),
    "grid.field": ("grid.GridField.__post_init__", "functionals.State.__post_init__"),
    "solver.run": ("solver.run",),
    "solver.solve_banded": ("solver.solve_banded",),
    "shift.advance": ("shift.advance",),
    "poincare.sample_W": ("poincare.sample_W",),
    "poincare.scan": ("poincare.scan_delta_star",),
    "identities.random_state": ("identities.random_state",),
    "identities.check": ("identities.check_identities",),
    "config.load": ("config.load_config",),
}
GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

# Per-layer metrics, in the order they are reported.
LAYER_METRICS = (
    ("wave.profile.calls", "count"),
    ("wave.profile.self_s", "s"),
    ("functionals.reference_arrays.calls", "count"),
    ("functionals.reference_arrays.self_s", "s"),
    ("functionals.evals_per_step", "count"),
    ("functionals.useful_eval_ratio", "ratio"),
    ("functionals.evaluate_report.calls", "count"),
    ("functionals.evaluate_report.self_s", "s"),
    ("functionals.y_and_ibad.calls", "count"),
    ("functionals.y_and_ibad.self_s", "s"),
    ("functionals.eta.calls", "count"),
    ("functionals.eta.self_s", "s"),
    ("functionals.wrappers.calls", "count"),
    ("functionals.wrappers.self_s", "s"),
    ("grid.integrate.calls", "count"),
    ("grid.integrate.self_s", "s"),
    ("grid.field.calls", "count"),
    ("grid.field.self_s", "s"),
    ("solver.run.self_s", "s"),
    ("solver.solve_banded.calls", "count"),
    ("solver.solve_banded.self_s", "s"),
    ("solver.stability_errors", "count"),
    ("shift.advance.calls", "count"),
    ("shift.advance.self_s", "s"),
    ("shift.substeps_per_step", "count"),
    ("poincare.sample_W.calls", "count"),
    ("poincare.sample_W.self_s", "s"),
    ("poincare.scan.self_s", "s"),
    ("identities.random_state.self_s", "s"),
    ("identities.check.self_s", "s"),
    ("config.load.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "byte"),
    ("trace.overhead_frac", "ratio"),
)

# Span names, grouped as above, whose presence each metric needs; a metric
# whose spans never occur in an operation is reported as 0 and named absent.
_NEEDS = {
    "functionals.evals_per_step": ("solver.run",),
    "functionals.useful_eval_ratio": ("trace.digest",),
    "solver.stability_errors": ("solver.run",),
    "shift.substeps_per_step": ("shift.advance",),
    "cli.self_s": ("cli",),
    "cli.bytes_written": ("cli",),
    "trace.overhead_frac": (),  # measured by the parent, from every traced run
}


def _digest(array) -> int:
    # SipHash of the bytes: a 64-bit digest, enough to tell apart the few
    # thousand states of one operation, and 5x cheaper than blake2b here.
    return hash(array.tobytes())


class Tracer:
    """Records spans as [name, start, end, parent index, exception name]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.eval_keys: list[tuple] = []
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return `fn` wrapped in a span called `name`."""
        group = GROUP_OF.get(name, name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == group:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1][0] if stack else -1, None]
            stack.append((len(spans), group))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the package's public functions wherever they are bound."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        modules["__init__"] = importlib.import_module(PACKAGE)
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith(PACKAGE + ".") or home not in modules:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(f"{home}.{value.__name__}", value)
                self._patch(module, attr, wrappers[id(value)])
        solver, functionals, grid = modules["solver"], modules["functionals"], modules["grid"]
        self._patch(solver, "solve_banded", self.wrap("solver.solve_banded", solver.solve_banded))
        for cls, name in ((grid.GridField, "grid.GridField"), (functionals.State, "functionals.State")):
            self._patch(cls, "__post_init__", self.wrap(f"{name}.__post_init__", cls.__post_init__))
        self._patch(functionals, "_core", self._keyed_core(functionals._core))

    def _keyed_core(self, core):
        digest_span = self.wrap("trace.digest", self._record_key)

        @functools.wraps(core)
        def keyed(params, state, shift):
            digest_span(state, shift)
            return core(params, state, shift)

        return keyed

    def _record_key(self, state, shift) -> None:
        self.eval_keys.append((_digest(state.n.values), _digest(state.q.values), float(shift)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as one JSON list of [name, start, end, parent]."""
        with open(path, "w") as fh:
            json.dump([s[:4] for s in self.spans], fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, eval_keys) -> tuple[dict, list[str]]:
    """Per-layer metrics of one operation, and the names of absent ones."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, t in zip(spans, own):
        key = GROUP_OF.get(span[0], span[0])
        if span[0].startswith("cli."):
            key = "cli"
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + t

    def in_run(name: str, ancestor: str) -> int:
        return sum(1 for i, s in enumerate(spans) if s[0] == name and _has_ancestor(spans, i, ancestor))

    steps = in_run("shift.advance", "solver.run")
    out = {}
    for group in GROUPS:
        out[f"{group}.calls"] = calls.get(group, 0)
        out[f"{group}.self_s"] = self_s.get(group, 0.0)
    out["functionals.evals_per_step"] = (
        in_run("functionals.reference_arrays", "solver.run") / steps if steps else 0.0
    )
    out["functionals.useful_eval_ratio"] = (
        len(set(eval_keys)) / len(eval_keys) if eval_keys else 0.0
    )
    out["solver.stability_errors"] = sum(
        1 for s in spans if s[0] == "solver.run" and s[4] == "StabilityError"
    )
    advances = calls.get("shift.advance", 0)
    out["shift.substeps_per_step"] = (
        in_run("functionals.y_and_ibad", "shift.advance") / advances if advances else 0.0
    )
    out["cli.self_s"] = self_s.get("cli", 0.0)
    wanted = {name for name, _ in LAYER_METRICS}
    metrics = {k: v for k, v in out.items() if k in wanted}
    absent = [
        name for name in sorted(wanted)
        if not all(calls.get(n) for n in _NEEDS.get(name, (name.rpartition(".")[0],)))
    ]
    return metrics, absent
