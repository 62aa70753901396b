"""Seeded inputs for the three benchmark workloads.

Every input an operation receives comes from here and from nothing else:
the workload seed picks the perturbations, the parameter points and the
random seeds handed to the program, so the same seed always gives the same
inputs.  The sizes below are fixed; the seed never changes how much work an
operation does by more than a few percent, so runs with different seeds
measure the same thing.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

DEFAULT_SEED = 0

# The physics of scripts/configs/contraction_demo.json (eps = 0.05,
# lambda = 0.25, delta1 = 0.2, report_stride = 10, 8192 cells).
DEMO_CONFIG = {
    "wave": {"n_minus": 2.0, "q_minus": 0.0, "eps": 0.05, "lambda": 0.25},
    "grid": {"half_width_factor": 30.0, "num_cells": 8192},
    "solver": {
        "t_end": 50.0,
        "cfl": 0.4,
        "diffusion_mode": "implicit",
        "perturbation": {
            "kind": "gaussian_bump",
            "amplitude_n": 0.5,
            "amplitude_q": 0.5,
            "width": 5.0,
            "center": 0.0,
        },
    },
    "functionals": {"delta0": 0.01, "delta1": 0.2, "report_stride": 10},
    "output": {"dir": "out", "formats": ["csv", "json"]},
}

# contraction: t_end = 5 is 199 steps at the demo amplitude, about 2.5 s of
# simulate on a 2-core Xeon.  The demo's t_end = 50 (1986 steps, ~28 s) would
# leave one operation per run, and a median needs several.
CONTRACTION_T_END = 5.0
# The amplitude moves dt through the CFL limit: 0.48..0.52 keeps the step
# count within 198..200, so wall time differs by under 1% between seeds.
CONTRACTION_AMPLITUDE = (0.48, 0.52)
CONTRACTION_CENTER = (-5.0, 5.0)

# sweep: the grids and the perturbation of scripts/sweep_eps_lambda.py.
SWEEP_EPS_GRID = (0.02, 0.05, 0.1, 0.2, 0.4)
SWEEP_LAM_GRID = (0.05, 0.1, 0.2, 0.3, 0.45)
SWEEP_CELLS = 2048
SWEEP_WIDTH = 5.0
SWEEP_TOL = 1e-7
# Step count depends on eps (the domain scales with 1/eps), not on lambda.
# One lambda per eps keeps every operation at ~300 steps whatever the seed;
# small operations give a run more of them, and so a steadier median.
# t_end = 2 (the script's default is 10) makes each point 8..160 steps, so
# the per-run set-up is a large share of each point.
SWEEP_LAMBDAS_PER_EPS = 1
SWEEP_T_END = 2.0
SWEEP_AMPLITUDE = (0.25, 0.35)
SWEEP_CENTER = (-2.5, 2.5)

# verify: the defaults of the identity suite and of the Poincare scan, but
# for M.  At the default M = 1 every sample passes at every delta, so the
# threshold is the top of the grid whatever the program computes; at M = 6
# it falls inside the grid and pass counts move with any change to R.
VERIFY_IDENTITY_STATES = 100
VERIFY_POINCARE_SAMPLES = 1000
VERIFY_POINCARE_M = 6.0
# Scan seeds whose results the parent recorded (record_expected.py); seeds
# 1000 apart give disjoint samples.
POINCARE_SEEDS = tuple(1000 * k for k in range(64))
EXPECTED_POINCARE = Path(__file__).resolve().parent / "expected_poincare.json"

WORKLOADS = ("contraction", "sweep", "verify")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def contraction_config(seed: int) -> dict:
    """The demo config with a seeded Gaussian bump and a short t_end.

    The default seed keeps the demo's bump (amplitude 0.5 at the centre).
    """
    cfg = copy.deepcopy(DEMO_CONFIG)
    cfg["solver"]["t_end"] = CONTRACTION_T_END
    if seed != DEFAULT_SEED:
        rng = _rng("contraction", seed)
        amplitude = rng.uniform(*CONTRACTION_AMPLITUDE)
        cfg["solver"]["perturbation"].update(
            amplitude_n=amplitude,
            amplitude_q=amplitude,
            center=rng.uniform(*CONTRACTION_CENTER),
        )
    return cfg


def sweep_points(seed: int) -> list[dict]:
    """(eps, lambda) points and bumps drawn from the sweep script's ranges."""
    rng = _rng("sweep", seed)
    points = []
    for eps in SWEEP_EPS_GRID:
        for lam in rng.sample(SWEEP_LAM_GRID, SWEEP_LAMBDAS_PER_EPS):
            amplitude = rng.uniform(*SWEEP_AMPLITUDE)
            points.append(
                {
                    "eps": eps,
                    "lambda": lam,
                    "t_end": SWEEP_T_END,
                    "cells": SWEEP_CELLS,
                    "tol": SWEEP_TOL,
                    "perturbation": {
                        "kind": "gaussian_bump",
                        "amplitude_n": amplitude,
                        "amplitude_q": amplitude,
                        "width": SWEEP_WIDTH,
                        "center": rng.uniform(*SWEEP_CENTER),
                    },
                }
            )
    return points


def verify_config(seed: int) -> dict:
    """Demo physics with seeded identity and Poincare sample seeds."""
    rng = _rng("verify", seed)
    identity_seed = rng.randrange(10**9)
    return {
        "wave": copy.deepcopy(DEMO_CONFIG["wave"]),
        "grid": copy.deepcopy(DEMO_CONFIG["grid"]),
        "identities": {
            "n_states": VERIFY_IDENTITY_STATES,
            "num_cells": 2048,
            "seed": identity_seed,
        },
        "poincare": {
            "M": VERIFY_POINCARE_M,
            "n_samples": VERIFY_POINCARE_SAMPLES,
            "y_cells": 4096,
            "seed": rng.choice(POINCARE_SEEDS),
        },
    }


def job_inputs(workload: str, seed: int) -> dict:
    """What one operation of the workload receives."""
    if workload == "contraction":
        return {"config": contraction_config(seed)}
    if workload == "sweep":
        return {"points": sweep_points(seed)}
    if workload == "verify":
        cfg = verify_config(seed)
        scans = json.loads(EXPECTED_POINCARE.read_text())["scans"]
        return {"config": cfg, "expected_poincare": scans[str(cfg["poincare"]["seed"])]}
    raise ValueError(f"unknown workload {workload!r}")
