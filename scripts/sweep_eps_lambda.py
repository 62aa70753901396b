#!/usr/bin/env python3
"""Map the empirically contractive (eps, lambda) region.

The theory guarantees contraction only for eps/lambda and lambda below
non-constructive thresholds; this sweep runs a short perturbed simulation
on a grid of (eps, lambda) pairs and records where the weighted entropy
stayed non-increasing and the sign functional stayed nonpositive.

    python scripts/sweep_eps_lambda.py [--out out/sweep.json] [--t-end 10]
"""

import argparse
import json
import warnings
from pathlib import Path

from contraction_lab import Grid, NumericsError, PerturbationSpec, SolverConfig, run
from contraction_lab.solver import StabilityError
from contraction_lab.wave import make_wave_params

EPS_GRID = (0.02, 0.05, 0.1, 0.2, 0.4)
LAM_GRID = (0.05, 0.1, 0.2, 0.3, 0.45)


def sweep(t_end: float, num_cells: int, tol: float) -> list[dict]:
    rows = []
    for eps in EPS_GRID:
        for lam in LAM_GRID:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                params = make_wave_params(2.0, 0.0, eps=eps, lam=lam)
            half = 30.0 * params.sigma / params.eps
            cfg = SolverConfig(
                params=params,
                grid=Grid(-half, half, num_cells),
                t_end=t_end,
                perturbation=PerturbationSpec(
                    kind="gaussian_bump", amplitude_n=0.3, amplitude_q=0.3, width=5.0
                ),
                violation_tol=tol,
            )
            entry = {"eps": eps, "lambda": lam, "eps_over_lambda": eps / lam}
            try:
                verdict = run(cfg).verdict()
            except StabilityError as exc:
                entry.update(status="unstable", detail=str(exc))
            except NumericsError as exc:
                entry.update(status="numerics_error", detail=str(exc))
            else:
                entry.update(
                    status="ok",
                    contraction_held=verdict["contraction_held"],
                    max_violation=verdict["max_violation"],
                    rmain_positive_steps=verdict["Rmain_sign_profile"]["steps_positive"],
                )
            rows.append(entry)
            print(
                f"eps={eps:<5g} lam={lam:<5g} -> "
                + (
                    f"contraction={entry.get('contraction_held')} "
                    f"max_violation={entry.get('max_violation', float('nan')):.2e} "
                    f"R+steps={entry.get('rmain_positive_steps')}"
                    if entry["status"] == "ok"
                    else entry["status"].upper()
                )
            )
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/eps_lambda_sweep.json")
    parser.add_argument("--t-end", type=float, default=10.0)
    parser.add_argument("--cells", type=int, default=2048)
    parser.add_argument("--tol", type=float, default=1e-7)
    args = parser.parse_args()

    rows = sweep(args.t_end, args.cells, args.tol)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"t_end": args.t_end, "cells": args.cells, "rows": rows}, indent=2))
    held = sum(1 for r in rows if r.get("contraction_held"))
    print(f"contraction held on {held}/{len(rows)} grid points -> {out}")


if __name__ == "__main__":
    main()
