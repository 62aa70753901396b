"""Quadrature-exact identity checks on randomly perturbed states.

The maximized split and the tube parts are algebraic rearrangements
of the same nodewise integrands, so on any grid the identities

    I_bad - I_good = B_delta - G_delta          (any delta > 0)
    Y  = Y_g + Y_b + Y_l + Y_s
    B  = B1 + B2_in + B2_out + B3
    G  = G1_in + G1_out + G2 + D

hold to rounding.  This module samples large rough states and measures the
worst relative error of each identity.  Each state is evaluated once (one
nodewise core at shift 0) and split once per delta; every functional of the
suite is read off that core and those splits.

Only the split identity and the Y sum test the quadrature.  B_delta and
G_delta are defined as the sums of their parts (B_delta = B1 + B2_in +
B2_out + B3), so the B and G sums hold by definition and always report
exactly 0.0.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random import default_rng

from . import functionals
from .functionals import ReferenceArrays, State, _split, reference_arrays
from .grid import Grid, GridField
from .wave import DomainError, WaveParams

__all__ = ["random_state", "check_identities"]


@functools.lru_cache(maxsize=4)
def _phase_ramps(grid: Grid) -> tuple[np.ndarray, ...]:
    """2 pi k (xi - xi_min) / span at the nodes for k = 1..6; read-only, shared."""
    xi = grid.nodes()
    span = grid.xi_max - grid.xi_min
    ramps = []
    for k in range(1, 7):
        ramp = 2.0 * np.pi * k * (xi - grid.xi_min) / span
        ramp.flags.writeable = False
        ramps.append(ramp)
    return tuple(ramps)


@functools.lru_cache(maxsize=4)
def _references(params: WaveParams, grid: Grid) -> ReferenceArrays:
    """reference_arrays(params, grid) at shift 0, shared (its arrays are read-only)."""
    return reference_arrays(params, grid)


def random_state(params: WaveParams, grid: Grid, seed: int) -> State:
    """Large smooth random perturbation of the wave, positive by construction.

    The density factor is exp of a random trigonometric sum, so n/n~ sweeps
    well past any tube threshold in (0, 1/2) for most seeds.
    """
    rng = default_rng(seed)
    g = np.zeros(grid.num_nodes)
    h = np.zeros(grid.num_nodes)
    for k, ramp in enumerate(_phase_ramps(grid), start=1):
        g += rng.normal() / k * np.sin(ramp + rng.uniform(0, 2 * np.pi))
        h += rng.normal() / k * np.sin(ramp + rng.uniform(0, 2 * np.pi))
    g *= rng.uniform(0.05, 1.0) / max(np.max(np.abs(g)), 1e-12)
    h *= rng.uniform(0.05, 1.5) / max(np.max(np.abs(h)), 1e-12)
    refs = _references(params, grid)
    n = refs.ntil * np.exp(g)
    q = refs.qtil + h
    return State(n=GridField(grid, n), q=GridField(grid, q))


def _rel_err(lhs: float, rhs: float, scale: float) -> float:
    return abs(lhs - rhs) / max(scale, 1e-30)


def _check_one(params: WaveParams, grid: Grid, seed: int, deltas) -> dict:
    state = random_state(params, grid, seed)
    # looked up at call time, so a wrapper installed on the module sees every build
    c = functionals._core(params, state, 0.0)
    ibad, igood, y = c.I_bad, c.I_good, c.Y
    errors = {"max_split": 0.0, "sum_Y": 0.0, "sum_B": 0.0, "sum_G": 0.0}
    for d in deltas:
        s = _split(c, d)
        b, g = s.B, s.G
        scale = max(abs(ibad), igood, abs(b), g, 1.0)
        errors["max_split"] = max(errors["max_split"], _rel_err(ibad - igood, b - g, scale))
        y_sum = s.Y_g + s.Y_b + s.Y_l + s.Y_s
        b_sum = s.B1 + s.B2_in + s.B2_out + s.B3
        g_sum = s.G1_in + s.G1_out + s.G2 + s.G_D
        errors["sum_Y"] = max(errors["sum_Y"], _rel_err(y, y_sum, max(abs(y), 1.0)))
        errors["sum_B"] = max(errors["sum_B"], _rel_err(b, b_sum, max(abs(b), 1.0)))
        errors["sum_G"] = max(errors["sum_G"], _rel_err(g, g_sum, max(abs(g), 1.0)))
    return errors


def check_identities(
    params: WaveParams,
    grid: Grid,
    n_states: int = 100,
    deltas=(0.05, 0.25, 0.49),
    seed: int = 0,
    tol: float = 1e-10,
) -> dict:
    """Worst relative error of every identity over n_states random states."""
    if not all(d > 0.0 for d in deltas):
        raise DomainError("delta must be positive")
    per_state = [_check_one(params, grid, seed + i, deltas) for i in range(n_states)]

    names = {
        "max_split": "I_bad - I_good == B_delta - G_delta",
        "sum_Y": "Y == Y_g + Y_b + Y_l + Y_s",
        "sum_B": "B == B1 + B2_in + B2_out + B3",
        "sum_G": "G == G1_in + G1_out + G2 + D",
    }
    identities = []
    for key, label in names.items():
        worst = max(errs[key] for errs in per_state)
        identities.append({"name": label, "max_rel_err": worst, "passed": bool(worst <= tol)})
    return {
        "n_states": n_states,
        "seed": seed,
        "num_cells": grid.num_cells,
        "deltas": list(map(float, deltas)),
        "tol": tol,
        "identities": identities,
        "all_passed": bool(all(e["passed"] for e in identities)),
    }
