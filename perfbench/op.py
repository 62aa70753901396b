"""One benchmark operation, in a fresh interpreter.

    python3 perfbench/op.py JOB_JSON

The job file names the checkout root, the workload, its inputs, an output
directory and whether to trace.  The operation imports `contraction_lab`
from the checkout's `src`, loads its config (set-up ends there), calls the
package's entry points, checks what they wrote, and writes `result.json`
into the output directory.  Times are `time.perf_counter()` readings, which
on Linux are CLOCK_MONOTONIC and so comparable with the parent's.

It also times a short fixed reference kernel (`ReferenceKernel`) before
the first unit of work (a simulate call, a sweep point, a verify
subcommand), after each one and, in an untraced operation, every
PROBE_EVERY_S from a SIGALRM handler, so that these probes sample the
core's speed all through set-up and work.  The parent takes the probes'
time out of every interval it measures and expresses the rest in units of
the core's speed at that moment (see run.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import signal
import sys
import time
import warnings
from pathlib import Path

import numpy as np

PROBE_EVERY_S = 0.1
PROBE_ITERATIONS = 30


class ReferenceKernel:
    """A fixed load like the program's: array passes over 8193 nodes and small-array calls.

    It uses numpy only, never the program, so a change to the program cannot
    change its time; only the speed of the core it runs on does.  Its arrays
    are its own and one untimed iteration brings them back into cache before
    a timing, so that what the program left in the caches hardly matters.
    """

    def __init__(self):
        self.x = np.linspace(-30.0, 30.0, 8193)
        self.dx = np.diff(self.x)
        self.y, self.z, self.w = (np.empty_like(self.x) for _ in range(3))

    def __call__(self, iterations: int) -> float:
        x, dx, y, z, w = self.x, self.dx, self.y, self.z, self.w
        acc = 0.0
        for i in range(iterations):
            np.tanh(np.multiply(x, 1.0 + 1e-3 * i, out=y), out=y)
            np.multiply(x, x, out=z)
            z *= -0.01
            np.exp(z, out=z)
            z *= y
            np.sqrt(np.add(np.multiply(y, y, out=w), 1.0, out=w), out=w)
            z += 0.5 * w
            acc += 0.5 * float(np.dot(z[1:] + z[:-1], dx))
            small = z[::64]
            for k in range(8):
                acc += 1e-9 * float(np.dot(small, small)) + math.sin(k)
        return acc


class Probes:
    """Timings of the reference kernel: [start, end, kernel time] of each probe."""

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.kernel(1)  # its first call pays numpy's first use
        self.spans: list[tuple[float, float, float]] = []
        self.sampling = False

    def sample(self, *_signal_args) -> None:
        if self.sampling:  # the timer fired inside a sample
            return
        self.sampling = True
        t0 = time.perf_counter()
        self.kernel(1)
        t1 = time.perf_counter()
        self.kernel(PROBE_ITERATIONS)
        t2 = time.perf_counter()
        self.spans.append((t0, t2, t2 - t1))
        self.sampling = False

    def start_timer(self) -> None:
        """Sample every PROBE_EVERY_S from now on.  The handler runs between
        bytecodes of the main thread, so it never interrupts numpy's C code."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
class CheckFailed(Exception):
    """An output of the program is not what it must be."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_simulate(code: int, out: Path) -> dict:
    verdict = _read_json(out / "final.json")
    for flag in ("contraction_held", "dissipation_inequality_held", "factor4_held", "shift_bound_held"):
        _require(verdict[flag] is True, f"{flag} is {verdict[flag]}")
    positive = verdict["Rmain_sign_profile"]["steps_positive"]
    _require(positive == 0, f"R_main positive on {positive} steps")
    _require((out / "run.csv").stat().st_size > 0, "run.csv is empty")
    _require(code == 0, f"simulate exited with {code}")
    return verdict


def check_sweep_point(verdict: dict) -> None:
    _require(verdict["contraction_held"] is True, "contraction_held is false")


def check_wave(code: int, out: Path, num_cells: int) -> None:
    summary = _read_json(out / "wave_summary.json")
    for flag in ("decay_lower_bound_holds", "decay_upper_bound_holds", "second_derivative_bound_holds"):
        _require(summary[flag] is True, f"{flag} is {summary[flag]}")
    for key in ("rh_residual_mass", "rh_residual_momentum"):
        _require(abs(summary[key]) < 1e-12, f"{key} = {summary[key]}")
    with open(out / "wave_profile.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    _require(rows == num_cells + 1, f"wave_profile.csv has {rows} rows")
    _require(code == 0, f"wave exited with {code}")


def check_identities(code: int, out: Path, n_states: int) -> None:
    report = _read_json(out / "identities.json")
    _require(report["n_states"] == n_states, f"checked {report['n_states']} states")
    failing = [e["name"] for e in report["identities"] if not e["passed"]]
    _require(report["all_passed"] is True, f"identities failed: {failing}")
    _require(code == 0, f"identities exited with {code}")


def check_poincare(code: int, out: Path, n_samples: int, expected: dict) -> None:
    """The scan must reproduce the parent's threshold and pass counts."""
    scan = _read_json(out / "poincare_scan.json")
    _require(scan["n_samples"] == n_samples, f"scanned {scan['n_samples']} samples")
    for key in ("delta_star_empirical", "pass_counts"):
        _require(scan[key] == expected[key], f"{key} {scan[key]!r} != parent's {expected[key]!r}")
    _require(code == 0, f"poincare exited with {code}")


class Units:
    """Runs checked units of work with a probe before the first and after each.

    `spans[i]` is the (start, end) of unit i.  A failure is recorded, not raised.
    """

    def __init__(self, probes: Probes):
        self.probes = probes
        self.units: list[dict] = []
        self.spans: list[tuple[float, float]] = []
        probes.sample()

    def run(self, name: str, fn):
        t0 = time.perf_counter()
        try:
            value, unit = fn(), {"name": name, "ok": True}
        except (CheckFailed, OSError, KeyError, ValueError, RuntimeError) as exc:
            value, unit = None, {"name": name, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        self.spans.append((t0, time.perf_counter()))
        self.probes.sample()
        self.units.append(unit)
        return value


# The entry points are looked up on their modules at call time, so that a
# traced operation calls the tracer's wrappers.


def run_contraction(cfg, out: Path, units: Units, phases: dict) -> None:
    from contraction_lab import cli

    verdict = units.run("simulate", lambda: check_simulate(cli.cmd_simulate(cfg, out), out))
    phases["steps"] = verdict["steps"] if verdict else 0


def run_sweep(points: list[dict], units: Units, phases: dict) -> None:
    from contraction_lab import grid, solver, wave

    steps = 0
    for p in points:
        def point():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                params = wave.make_wave_params(2.0, 0.0, eps=p["eps"], lam=p["lambda"])
            half = 30.0 * params.sigma / params.eps
            cfg = solver.SolverConfig(
                params=params,
                grid=grid.Grid(-half, half, p["cells"]),
                t_end=p["t_end"],
                perturbation=solver.PerturbationSpec(**p["perturbation"]),
                violation_tol=p["tol"],
            )
            verdict = solver.run(cfg).verdict()
            check_sweep_point(verdict)
            return verdict["steps"]

        steps += units.run(f"eps={p['eps']},lambda={p['lambda']}", point) or 0
    phases["steps"] = steps


def run_verify(cfg, out: Path, expected: dict, units: Units, phases: dict) -> None:
    from contraction_lab import cli

    ident = cfg.data["identities"]
    poin = cfg.data["poincare"]
    units.run("wave", lambda: check_wave(cli.cmd_wave(cfg, out), out, cfg.data["grid"]["num_cells"]))
    units.run("identities", lambda: check_identities(cli.cmd_identities(cfg, out), out, ident["n_states"]))
    units.run("poincare", lambda: check_poincare(cli.cmd_poincare(cfg, out), out, poin["n_samples"], expected))
    phases.update(states=ident["n_states"], samples=poin["n_samples"])


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    probes = Probes()
    if not job["trace"]:
        probes.start_timer()
    try:
        return operate(job, probes)
    finally:
        probes.stop_timer()


def operate(job: dict, probes: Probes) -> int:
    root = Path(job["root"])
    out = Path(job["out_dir"])
    sys.path.insert(0, str(root / "src"))
    import contraction_lab
    from contraction_lab import config

    if not Path(contraction_lab.__file__).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"contraction_lab imported from outside the checkout: {contraction_lab.__file__}")
    if job["workload"] == "warmup":
        return 0
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = config.load_config(out / "config.json") if job["workload"] != "sweep" else None
    t_setup = time.perf_counter()

    units = Units(probes)
    phases: dict = {}
    if job["workload"] == "contraction":
        run_contraction(cfg, out, units, phases)
    elif job["workload"] == "sweep":
        run_sweep(job["points"], units, phases)
    else:
        run_verify(cfg, out, job["expected_poincare"], units, phases)
    probes.stop_timer()

    result = {
        "t_setup": t_setup,
        "unit_spans": units.spans,
        "probe_spans": probes.spans,
        "units": units.units,
        "phases": phases,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": sum(p.stat().st_size for p in out.iterdir() if p.name != "config.json"),
        "sha256": {
            name: _sha256(out / name) for name in ("run.csv", "final.json") if (out / name).exists()
        },
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.restore()
        result["layers"], result["absent"] = layer_metrics(tracer.spans, tracer.eval_keys)
        result["layers"]["cli.bytes_written"] = result["bytes_written"]
        tracer.dump(out / "spans.json")
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
