"""Config-driven command line: wave construction, runs, identity and
threshold scans.

Exit codes: 0 success, 2 config error, 3 stability error, 4 verification
failure (a failed check, or functionals that break an exact identity).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, apply_override, load_config
from .functionals import NumericsError, reference_arrays
from .grid import integrate_values
from .identities import check_identities
from .poincare import scan_delta_star
from .solver import StabilityError, run
from .wave import rankine_hugoniot_residuals, y_of_xi

__all__ = ["main", "cmd_wave", "cmd_simulate", "cmd_identities", "cmd_poincare"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_VERIFICATION = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")


def cmd_wave(cfg: ExperimentConfig, out_dir: Path) -> int:
    params = cfg.wave_params()
    grid = cfg.grid(params)
    refs = reference_arrays(params, grid)
    y = np.asarray(y_of_xi(params, grid.nodes()))
    _write_csv(
        out_dir / "wave_profile.csv",
        ["xi", "n_tilde", "q_tilde", "a", "a_prime", "y"],
        zip(refs.xi, refs.ntil, refs.qtil, refs.a, refs.a_prime, y),
    )

    r1, r2 = rankine_hugoniot_residuals(params.end_states)
    xi_dense = np.linspace(grid.xi_min, grid.xi_max, 10001)
    from .wave import _logistic_arg, profile_n_prime, profile_n_second

    # the profile ODE's right-hand side at profile_n, against the closed-form
    # derivative of the logistic profile
    np_dense = np.asarray(profile_n_prime(params, xi_dense))
    npp_dense = np.asarray(profile_n_second(params, xi_dense))
    z = _logistic_arg(params, xi_dense)
    rate = params.eps**2 / (params.nu * params.sigma)
    closed_form = -rate / ((1.0 + np.exp(z)) * (1.0 + np.exp(-z)))
    ode_residual = np.max(np.abs(np_dense - closed_form))
    decay_env = params.eps**2 / params.sigma_minus * np.exp(
        -params.eps * np.abs(xi_dense) / params.sigma_minus
    )
    decay_lower_ok = bool(np.all(np_dense >= -decay_env - 1e-15))
    decay_upper_ok = bool(np.all(np_dense <= -0.25 * decay_env + 1e-15))
    second_bound_ok = bool(
        np.all(np.abs(npp_dense) <= (4.0 * params.eps / params.sigma_minus) * np.abs(np_dense) + 1e-15)
    )
    summary = {
        "sigma": params.sigma,
        "sigma_minus": params.sigma_minus,
        "n_minus": params.n_minus,
        "n_plus": params.n_plus,
        "q_minus": params.q_minus,
        "q_plus": params.q_plus,
        "eps": params.eps,
        "lambda": params.lam,
        "nu": params.nu,
        "rh_residual_mass": r1,
        "rh_residual_momentum": r2,
        "profile_ode_max_residual": float(ode_residual),
        "decay_lower_bound_holds": decay_lower_ok,
        "decay_upper_bound_holds": decay_upper_ok,
        "second_derivative_bound_holds": second_bound_ok,
        "weight_total_variation": integrate_values(refs.a_prime, grid.dx),
        "config": cfg.data,
    }
    _write_json(out_dir / "wave_summary.json", summary)
    print(f"wave: sigma={params.sigma:.6g} rh_residuals=({r1:.3e},{r2:.3e}) -> {out_dir}")
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, seed: int | None = None) -> int:
    solver_cfg = cfg.solver_config(seed)
    formats = cfg.data["output"]["formats"]
    snapshot_stride = cfg.data["output"]["snapshot_stride"]
    want_snapshots = "snapshots" in formats or snapshot_stride > 0
    if want_snapshots:
        solver_cfg = replace(solver_cfg, keep_states=True)
    result = run(solver_cfg)
    if "csv" in formats:
        _write_csv(out_dir / "run.csv", result.csv_header(), result.csv_rows())
    if want_snapshots:
        xi = solver_cfg.grid.nodes()
        stride = max(snapshot_stride, 1)
        for idx, (t, snap) in enumerate(result.states or []):
            if idx % stride:
                continue
            _write_csv(
                out_dir / f"fields_{idx:06d}.csv",
                ["xi", "n", "q"],
                zip(xi, snap.n.values, snap.q.values),
            )
        _write_csv(
            out_dir / "fields_final.csv",
            ["xi", "n", "q"],
            zip(xi, result.final_state.n.values, result.final_state.q.values),
        )
    verdict = result.verdict()
    verdict["config"] = cfg.data
    if "json" in formats:
        _write_json(out_dir / "final.json", verdict)
    print(
        "simulate: contraction_held={contraction_held} max_violation={max_violation:.3e} "
        "factor4_held={factor4_held} final_X={final_X:.6g}".format(**verdict)
    )
    ok = (
        verdict["contraction_held"]
        and verdict["dissipation_inequality_held"]
        and verdict["factor4_held"]
        and verdict["shift_bound_held"]
        and verdict["Rmain_sign_profile"]["steps_positive"] == 0
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_identities(cfg: ExperimentConfig, out_dir: Path, n_random: int | None = None,
                   seed: int | None = None) -> int:
    if n_random is not None and n_random < 1:
        raise ConfigError(f"--samples must be at least 1, got {n_random}")
    params = cfg.wave_params()
    ident = cfg.data["identities"]
    grid = replace(cfg.grid(params), num_cells=ident["num_cells"])
    report = check_identities(
        params,
        grid,
        n_states=n_random if n_random is not None else ident["n_states"],
        deltas=ident["deltas"],
        seed=seed if seed is not None else ident["seed"],
        tol=ident["tol"],
    )
    report["config"] = cfg.data
    _write_json(out_dir / "identities.json", report)
    for entry in report["identities"]:
        status = "pass" if entry["passed"] else "FAIL"
        print(f"identity [{status}] {entry['name']}: max_rel_err={entry['max_rel_err']:.3e}")
    return EXIT_OK if report["all_passed"] else EXIT_VERIFICATION


def cmd_poincare(cfg: ExperimentConfig, out_dir: Path, seed: int | None = None) -> int:
    p = cfg.data["poincare"]
    result = scan_delta_star(
        M=p["M"],
        n_samples=p["n_samples"],
        delta_grid=cfg.poincare_delta_grid(),
        seed=seed if seed is not None else p["seed"],
        n_cells=p["y_cells"],
    )
    payload = asdict(result)
    payload["config"] = cfg.data
    _write_json(out_dir / "poincare_scan.json", payload)
    print(
        f"poincare: delta_star_empirical={result.delta_star_empirical:.6g} "
        f"({result.n_samples} samples, M={result.M})"
    )
    return EXIT_OK if result.delta_star_empirical > 0.0 else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contraction-lab",
        description="Numerical laboratory for weighted-entropy contraction of viscous shocks.",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument(
        "--out", type=str, default=None, help="output directory (default: the config's output.dir)"
    )
    parser.add_argument("--seed", type=int, default=None, help="override random seeds")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dot-path override into the config, value parsed as JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("wave", help="write the wave profile and its summary")
    sub.add_parser("simulate", help="run the PDE + shift ODE and verify contraction")
    ident = sub.add_parser("identities", help="check the algebraic identity suite")
    ident.add_argument("--samples", type=int, default=None, help="number of random states")
    sub.add_parser("poincare", help="scan the empirical Poincare threshold")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = ExperimentConfig.from_dict(
                {"wave": {"n_minus": 2.0, "q_minus": 0.0, "eps": 0.1, "lambda": 0.3}}
            )
        if args.override:
            data = cfg.data
            for item in args.override:
                if "=" not in item:
                    raise ConfigError(f"override {item!r} is not KEY=VALUE")
                key, value = item.split("=", 1)
                apply_override(data, key, value)
            cfg = ExperimentConfig.from_dict(data)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out if args.out is not None else cfg.data["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "wave":
            return cmd_wave(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, seed=args.seed)
        if args.command == "identities":
            return cmd_identities(cfg, out_dir, n_random=args.samples, seed=args.seed)
        if args.command == "poincare":
            return cmd_poincare(cfg, out_dir, seed=args.seed)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        print(f"stability error: {exc} (t={exc.t}, node={exc.node})", file=sys.stderr)
        return EXIT_STABILITY
    except NumericsError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
