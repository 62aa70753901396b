"""Config-driven command line: wave construction, runs, identity and
threshold scans.

Exit codes: 0 success, 2 config error (the schema, an override, an output
directory that cannot be made, or an initial state that fails its checks),
3 stability error, 4 verification failure (a failed check, functionals that
break an exact identity, or any other error raised inside a run).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, apply_override, load_config
from .functionals import NumericsError
from .grid import integrate_values
from .identities import check_identities
from .poincare import scan_delta_star
from .solver import StabilityError, run
from .wave import (
    _logistic_arg,
    profile_n,
    profile_n_prime,
    profile_n_second,
    profile_q,
    rankine_hugoniot_residuals,
    weight_a,
    weight_a_prime,
    y_of_xi,
)

__all__ = ["main", "cmd_wave", "cmd_simulate", "cmd_identities", "cmd_poincare"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_VERIFICATION = 4


# Rows formatted per write: enough to amortise the per-chunk conversion,
# few enough that the Python floats of a chunk stay small beside the arrays.
_CHUNK_ROWS = 512


def _write_table(path: Path, header: list[str], columns, formats: dict | None = None) -> None:
    """Write equal-length columns as a CSV table, a chunk of rows at a time.

    Each column is an array or a list, one per header name.  A cell is
    written with its column's format from `formats` (keyed by header name),
    "%.17g" by default, and each line ends in "\r\n", csv.writer's
    terminator.  Nothing is quoted, so no header or cell may hold a comma,
    a quote or a line break.
    """
    line = ",".join((formats or {}).get(name, "%.17g") for name in header) + "\r\n"
    n_rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            chunk = [np.asarray(col[start:start + _CHUNK_ROWS]).tolist() for col in columns]
            fh.write("".join(map(line.__mod__, zip(*chunk))))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")


def cmd_wave(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Write the wave profile and its summary."""
    params = cfg.wave_params()
    grid = cfg.grid(params)
    xi = grid.nodes()
    a_prime = weight_a_prime(params, xi)
    _write_table(
        out_dir / "wave_profile.csv",
        ["xi", "n_tilde", "q_tilde", "a", "a_prime", "y"],
        [xi, profile_n(params, xi), profile_q(params, xi), weight_a(params, xi), a_prime,
         y_of_xi(params, xi)],
    )

    r1, r2 = rankine_hugoniot_residuals(params)
    xi_dense = np.linspace(grid.xi_min, grid.xi_max, 10001)
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
        "weight_total_variation": integrate_values(a_prime, grid.dx),
        "config": cfg.data,
    }
    _write_json(out_dir / "wave_summary.json", summary)
    print(f"wave: sigma={params.sigma:.6g} rh_residuals=({r1:.3e},{r2:.3e}) -> {out_dir}")
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Run the PDE + shift ODE and verify contraction."""
    solver_cfg = cfg.solver_config()
    formats = cfg.data["output"]["formats"]
    result = run(solver_cfg)
    if "csv" in formats:
        header, columns = zip(*result.csv_table())
        _write_table(out_dir / "run.csv", header, columns, {"regime": "%s"})
    if result.states is not None:
        xi = solver_cfg.grid.nodes()
        header = ["xi", "n", "q"]
        # NNNNNN is the solver step whose end state the file holds: t = step * dt
        for t, snap in result.states:
            path = out_dir / f"fields_{round(t / result.dt):06d}.csv"
            _write_table(path, header, [xi, snap.n.values, snap.q.values])
        final = result.final_state
        _write_table(out_dir / "fields_final.csv", header, [xi, final.n.values, final.q.values])
    verdict = result.verdict()
    verdict["config"] = cfg.data
    if "json" in formats:
        _write_json(out_dir / "final.json", verdict)
        _write_json(out_dir / "timings.json", result.timings)
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


def cmd_identities(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Check the algebraic identity suite."""
    params = cfg.wave_params()
    ident = cfg.data["identities"]
    grid = replace(cfg.grid(params), num_cells=ident["num_cells"])
    report = check_identities(
        params,
        grid,
        n_states=ident["n_states"],
        deltas=ident["deltas"],
        seed=ident["seed"],
        tol=ident["tol"],
    )
    report["config"] = cfg.data
    _write_json(out_dir / "identities.json", report)
    for entry in report["identities"]:
        status = "pass" if entry["passed"] else "FAIL"
        print(f"identity [{status}] {entry['name']}: max_rel_err={entry['max_rel_err']:.3e}")
    return EXIT_OK if report["all_passed"] else EXIT_VERIFICATION


def cmd_poincare(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Scan the empirical Poincare threshold."""
    p = cfg.data["poincare"]
    result = scan_delta_star(
        M=p["M"],
        n_samples=p["n_samples"],
        delta_grid=cfg.poincare_delta_grid(),
        seed=p["seed"],
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


COMMANDS = {"wave": cmd_wave, "simulate": cmd_simulate, "identities": cmd_identities,
            "poincare": cmd_poincare}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contraction-lab",
        description="Numerical laboratory for weighted-entropy contraction of viscous shocks.",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument(
        "--out", type=str, default=None, help="output directory (default: the config's output.dir)"
    )
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dot-path override into the config, value parsed as JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub.add_parser(name, help=command.__doc__)
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
        out_dir = Path(args.out if args.out is not None else cfg.data["output"]["dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return COMMANDS[args.command](cfg, out_dir)
    except ValueError as exc:  # a ConfigError, or a check of the run's inputs
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        print(f"stability error: {exc} (t={exc.t}, node={exc.node})", file=sys.stderr)
        return EXIT_STABILITY
    except NumericsError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
