"""Benchmark of contraction-lab: one workload, one seed, one run.

    python3 perfbench/run.py --workload {contraction,sweep,verify} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout.  Each operation runs in a fresh
interpreter (`op.py`) on the package in `src/`, single-threaded, and checks
its own outputs.  Operations repeat until `--seconds` have passed (at least
MIN_OPS of them) and every figure is the median over them.

The speed of a core on a shared host drifts by a third over minutes and
jumps for a second or two at a time, which a median over one run cannot
remove.  So each operation also times a short fixed reference kernel
(`op.ReferenceKernel`, a probe) between its units of work and, untraced,
every `op.PROBE_EVERY_S`.  Every interval is measured without the probes
in it, once raw and once in seconds of a core that runs the kernel in
REF_SECONDS (`Speed`).  The gated `setup_s` and `wall_s` are medians of the
latter.  The kernel never calls the program, so a change to the program
moves them as much as it moves the raw times, which the report line keeps
as `setup_raw_s` and `wall_raw_s`.

With `--trace 0` the last line of stdout holds the gated end-to-end metrics;
with `--trace 1` operations alternate untraced and traced, and it holds the
per-layer metrics (PER_LAYER) of the traced ones and the tracing overhead.  The line
before it is the full report: every metric with its unit and sample count,
the failures, the sha256 of the outputs, the machine and the inputs.  The
report and the spans of the last traced operation are also written under
`.perfbench_runs/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
THREADS_ENV = "A_CONTRACTION_LAB_THREADS"
RUNS_DIR = ".perfbench_runs"
# An operation takes 2.5..4 s with its set-up on a 2-core Xeon, so a 38 s run
# gives 9..15 of them; three is the fewest whose median discards an outlier.
MIN_OPS = 3
OP_TIMEOUT_S = 120
# About the reference kernel's fastest time on the 2-core Xeon the sizes were
# chosen on; it only sets the unit of the scaled times.
REF_SECONDS = 0.0025
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Gated metrics: they apply to every workload and are never 0.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))
# Per-layer metrics on the last line of a traced run: the counts, and the
# self times of the layers that every workload calls.  A layer a workload
# never calls has a self time of exactly 0 there, run after run; such times
# are on the report line only, with the reason they are absent.
PER_LAYER = tuple(
    (name, unit) for name, unit in LAYER_METRICS
    if unit != "s" or name.rpartition(".")[0] in (
        "wave.profile", "functionals.reference_arrays", "grid.integrate", "grid.field")
)
# Reported, not gated: each applies to some workloads only (or is 0).
THROUGHPUT = {
    "contraction": (("steps_per_s", "1/s"),),
    "sweep": (("steps_per_s", "1/s"), ("runs_per_s", "1/s")),
    "verify": (("states_per_s", "1/s"), ("samples_per_s", "1/s")),
}


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _metric(value: float | None, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _src_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root),
        "seed": seed,
        THREADS_ENV: os.environ.get(THREADS_ENV),
        "child_env": SINGLE_THREAD_ENV,
    }


class Runner:
    """Launches operations of one workload and keeps what they report."""

    def __init__(self, root: Path, run_dir: Path, workload: str, seed: int):
        self.root = root
        self.run_dir = run_dir
        self.inputs = inputs.job_inputs(workload, seed)
        self.units_per_op = len(self.inputs.get("points", ())) or {"contraction": 1, "verify": 3}[workload]
        self.env = {**os.environ, **SINGLE_THREAD_ENV}

    def op(self, workload: str, trace: bool) -> dict:
        """Run one operation; a crash or timeout fails all its units."""
        out = self.run_dir / "op"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        job = {"root": str(self.root), "workload": workload, "out_dir": str(out), "trace": trace}
        for key, value in self.inputs.items():
            if key == "config":
                (out / "config.json").write_text(json.dumps(value, indent=2))
            else:
                job[key] = value
        job_path = self.run_dir / "job.json"
        job_path.write_text(json.dumps(job))
        cmd = [sys.executable, str(HERE / "op.py"), str(job_path)]
        t_launch = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"trace": trace, "error": f"timed out after {OP_TIMEOUT_S} s"}
        if workload == "warmup" or proc.returncode != 0:
            error = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            return {"trace": trace, "error": error if proc.returncode else None}
        result = json.loads((out / "result.json").read_text())
        result.update(trace=trace, t_launch=t_launch)
        speed = Speed(result["probe_spans"])
        result["setup_s"], result["setup_scaled_s"] = speed.measure(t_launch, result["t_setup"])
        work = [speed.measure(start, end) for start, end in result["unit_spans"]]
        result["work_s"] = [raw for raw, _ in work]
        result["wall_s"] = sum(result["work_s"])
        result["wall_scaled_s"] = sum(scaled for _, scaled in work)
        if trace:
            shutil.copyfile(out / "spans.json", self.run_dir / "spans.json")
        return result


def throughput(workload: str, op: dict) -> dict:
    ph, wall = op["phases"], op["wall_s"]
    if workload == "contraction":
        return {"steps_per_s": ph["steps"] / wall}
    if workload == "sweep":
        return {"steps_per_s": ph["steps"] / wall, "runs_per_s": len(op["units"]) / wall}
    _, identities_s, poincare_s = op["work_s"]
    return {"states_per_s": ph["states"] / identities_s, "samples_per_s": ph["samples"] / poincare_s}


class Speed:
    """The core's speed through an operation, from its probes.

    A probe's kernel time is taken as the median of it and its neighbours,
    and each gap between two probes as running at the mean of theirs; the
    time before the first probe and after the last runs at theirs.
    """

    def __init__(self, probes: list[tuple[float, float, float]]):
        kernel = [kernel_s for _, _, kernel_s in probes]
        smooth = [statistics.median(kernel[max(0, k - 1):k + 2]) for k in range(len(kernel))]
        self.gaps = [(-math.inf, probes[0][0], smooth[0])]
        self.gaps += [(probes[k][1], probes[k + 1][0], (smooth[k] + smooth[k + 1]) / 2)
                      for k in range(len(probes) - 1)]
        self.gaps.append((probes[-1][1], math.inf, smooth[-1]))

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """Time in [start, end] outside the probes: raw, and in seconds of a core
        that runs the kernel in REF_SECONDS."""
        raw = scaled = 0.0
        for a, b, kernel_s in self.gaps:
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                raw += overlap
                scaled += overlap * REF_SECONDS / kernel_s
        return raw, scaled


def summarize(workload: str, ops: list[dict], units_per_op: int, trace: bool) -> dict:
    """Failures over every operation; times over those that ran to the end."""
    attempted = failed = 0
    failures = []
    for op in ops:
        units = op.get("units") or [{"name": "operation", "ok": False, "error": op["error"]}] * units_per_op
        attempted += len(units)
        for unit in units:
            if not unit["ok"]:
                failed += 1
                failures.append(f"{unit['name']}: {unit['error']}")
    ran = [op for op in ops if "units" in op]
    plain = [op for op in ran if not op["trace"]]
    traced = [op for op in ran if op["trace"]]
    correct = [op for op in plain if all(u["ok"] for u in op["units"])]
    ref = [kernel_s for op in plain for _, _, kernel_s in op["probe_spans"]]
    metrics = {
        "setup_s": _metric(_median([op["setup_scaled_s"] for op in plain]), "s", len(plain)),
        "wall_s": _metric(_median([op["wall_scaled_s"] for op in plain]), "s", len(plain)),
        "setup_raw_s": _metric(_median([op["setup_s"] for op in plain]), "s", len(plain)),
        "wall_raw_s": _metric(_median([op["wall_s"] for op in plain]), "s", len(plain)),
        "ref_kernel_s": _metric(_median(ref), "s", len(ref)),
        "peak_rss_mb": _metric(_median([op["peak_rss_mib"] for op in plain]), "MiB", len(plain)),
        "failed_frac": _metric(failed / attempted, "ratio", attempted),
    }
    for name, unit in THROUGHPUT[workload]:
        values = [throughput(workload, op)[name] for op in correct]
        metrics[name] = _metric(_median(values), unit, len(values))
    report = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": metrics,
        "per_op": [
            {k: op.get(k) for k in ("trace", "setup_s", "work_s", "peak_rss_mib", "phases", "error",
                                    "t_launch", "t_setup", "unit_spans", "probe_spans")}
            for op in ops
        ],
    }
    hashes = [op["sha256"] for op in ran if op["sha256"]]
    if hashes:
        report["sha256"] = hashes[0]
        report["sha256_same_in_every_op"] = all(h == hashes[0] for h in hashes)
    if trace and traced and plain:
        layers = {k: statistics.median(op["layers"][k] for op in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_frac"] = (
            _median([op["wall_scaled_s"] for op in traced]) / metrics["wall_s"]["value"] - 1.0
        )
        report["layers"] = {name: _metric(layers[name], unit, len(traced)) for name, unit in LAYER_METRICS}
        report["absent"] = {
            name: "not exercised by this workload"
            for name in sorted(set.intersection(*(set(op["absent"]) for op in traced)))
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "contraction_lab" / "__init__.py").is_file():
        print(f"no contraction_lab package under {root / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    if os.environ.get(THREADS_ENV) is not None:
        print(f"{THREADS_ENV} is set; the benchmark measures the default single-threaded path",
              file=sys.stderr)
        return 2
    run_dir = root / RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    runner = Runner(root, run_dir, args.workload, args.seed)
    warm = runner.op("warmup", False)  # compiles bytecode and fills the file cache
    if warm["error"]:
        print(f"warm-up failed: {warm['error']}", file=sys.stderr)
        return 1
    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < args.seconds:
        ops.append(runner.op(args.workload, trace=bool(args.trace) and len(ops) % 2 == 1))

    shutil.rmtree(run_dir / "op")  # outputs of the last operation; the report keeps their hashes
    report = summarize(args.workload, ops, runner.units_per_op, bool(args.trace))
    plain = [op for op in ops if "units" in op and not op["trace"]]
    if not plain or (args.trace and "layers" not in report):
        print("no operation completed; failures: " + "; ".join(report["failures"]), file=sys.stderr)
        return 1
    report.update(workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
                  operations=len(ops), provenance=provenance(root, args.seed), inputs=runner.inputs)
    (run_dir / "report.json").write_text(json.dumps(report, indent=2))

    for name, m in {**report["metrics"], **report.get("layers", {})}.items():
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{args.workload:<12} {name:<40} {value:>14} {m['unit']:<6} (n={m['n']})")
    for name, why in report.get("absent", {}).items():
        print(f"{args.workload:<12} {name:<40} absent: {why}")
    print(json.dumps(report, separators=(",", ":")))

    if args.trace:
        metrics = {name: report["layers"][name] for name, _ in PER_LAYER}
    else:
        metrics = {name: report["metrics"][name] for name, _ in END_TO_END}
    final = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
