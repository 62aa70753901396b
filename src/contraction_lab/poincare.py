"""Nonlinear Poincare-type functional on the unit interval.

R_delta(W) = -(1/delta) (int W^2 + 2 int W)^2 + (1+delta) int W^2
             + (2/3) int W^3 + delta int |W|^3
             - (1-delta) int y(1-y) |W'|^2

is nonpositive for every W with int W^2 <= M once delta is below a
threshold delta*(M) > 0.  The threshold is not constructive, so this
module samples test functions and scans for the empirical one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval
from numpy.random import Generator, default_rng

from .grid import GridField, _ddx_central, integrate_values
from .wave import DomainError, WaveParams, profile_n, xi_of_y

__all__ = [
    "PoincareSample",
    "ScanResult",
    "R_poincare",
    "sample_W",
    "scan_delta_star",
    "W_from_state",
    "DEFAULT_Y_CELLS",
    "SAMPLE_FAMILIES",
]

DEFAULT_Y_CELLS = 4096
SAMPLE_FAMILIES = ("fourier", "polynomial", "bump")
# A sample passes at delta when R_delta(W) <= SCAN_TOL.
SCAN_TOL = 1e-10


@functools.lru_cache(maxsize=4)
def _y_nodes(n_cells: int) -> np.ndarray:
    """The n_cells + 1 nodes of [0, 1]; read-only, shared."""
    y = np.linspace(0.0, 1.0, n_cells + 1)
    y.flags.writeable = False
    return y


@functools.lru_cache(maxsize=4)
def _h1_weight(n_cells: int) -> np.ndarray:
    """The weight y(1-y) on the nodes; read-only, shared.

    It vanishes at the endpoints, so the one-sided endpoint W' is never
    weighted.
    """
    y = _y_nodes(n_cells)
    weight = y * (1.0 - y)
    weight.flags.writeable = False
    return weight


def _moments(w: np.ndarray) -> tuple[float, float, float, float, float]:
    """(int W^2, int W, int W^3, int |W|^3, int y(1-y)|W'|^2) by trapezoid."""
    m = len(w) - 1
    dy = 1.0 / m
    dw = _ddx_central(w, dy)
    w2 = w * w
    # products, not w**3: numpy's pow is far slower for negative bases
    w3 = w2 * w
    i2 = integrate_values(w2, dy)
    i1 = integrate_values(w, dy)
    i3 = integrate_values(w3, dy)
    iabs3 = integrate_values(np.abs(w3), dy)
    ih1 = integrate_values(_h1_weight(m) * dw * dw, dy)
    return i2, i1, i3, iabs3, ih1


def _r_from_moments(m: tuple[float, float, float, float, float], delta: float) -> float:
    i2, i1, i3, iabs3, ih1 = m
    return (
        -(i2 + 2.0 * i1) ** 2 / delta
        + (1.0 + delta) * i2
        + (2.0 / 3.0) * i3
        + delta * iabs3
        - (1.0 - delta) * ih1
    )


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:  # past 1 the (1 - delta) H^1 term changes sign
        raise DomainError("delta must lie in (0, 1)")


def R_poincare(W: np.ndarray, delta: float) -> float:
    """Evaluate the functional for W sampled on a uniform grid over [0, 1]."""
    _check_delta(delta)
    w = np.asarray(W, dtype=float)
    if w.ndim != 1 or len(w) < 5:
        raise ValueError("W must be a 1-D sample with at least 5 nodes")
    return _r_from_moments(_moments(w), delta)


@dataclass
class PoincareSample:
    """A test function with its norm data and functional value."""

    W: np.ndarray = field(repr=False)
    delta: float
    M: float
    l2_sq: float
    weighted_h1: float
    R_delta: float
    family: str = "custom"
    seed: int | None = None


@functools.lru_cache(maxsize=4)
def _fourier_basis(n_cells: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(sin(pi k y), cos(pi k y)) for k = 1..8 on the nodes; read-only, shared."""
    y = _y_nodes(n_cells)
    basis = []
    for k in range(1, 9):
        pair = (np.sin(np.pi * k * y), np.cos(np.pi * k * y))
        for a in pair:
            a.flags.writeable = False
        basis.append(pair)
    return tuple(basis)


def _raw_sample(rng: Generator, family: str, y: np.ndarray) -> np.ndarray:
    if family == "fourier":
        w = np.zeros_like(y)
        for k, (sin_k, cos_k) in enumerate(_fourier_basis(len(y) - 1), start=1):
            w += rng.normal() / k * sin_k + rng.normal() / k * cos_k
        return w
    if family == "polynomial":
        degree = int(rng.integers(2, 7))
        coeffs = rng.normal(size=degree + 1)
        return polyval(y, coeffs)
    if family == "bump":
        width = rng.uniform(0.05, 0.12)
        center = rng.uniform(0.45, 0.55)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return sign * np.exp(-((y - center) ** 2) / (2.0 * width**2))
    raise ValueError(f"unknown family {family!r}")


def _draw(seed: int, M: float, family: str, n_cells: int) -> tuple[np.ndarray, tuple]:
    """Seeded test function rescaled into int W^2 in [M/2, M], with its moments."""
    rng = default_rng(seed)
    y = _y_nodes(n_cells)
    w = _raw_sample(rng, family, y)
    i2_raw = integrate_values(w * w, 1.0 / n_cells)
    target = rng.uniform(0.5 * M, M)
    w = w * np.sqrt(target / i2_raw)
    return w, _moments(w)


def sample_W(
    seed: int,
    M: float,
    family: str = "fourier",
    n_cells: int = DEFAULT_Y_CELLS,
    delta: float = 1e-3,
) -> PoincareSample:
    """Seeded random test function rescaled so that int W^2 lies in [M/2, M]."""
    if not M > 0.0:
        raise DomainError("M must be positive")
    _check_delta(delta)
    w, moms = _draw(seed, M, family, n_cells)
    return PoincareSample(
        W=w,
        delta=delta,
        M=M,
        l2_sq=moms[0],
        weighted_h1=moms[4],
        R_delta=_r_from_moments(moms, delta),
        family=family,
        seed=seed,
    )


@dataclass
class ScanResult:
    """Empirical threshold scan over a delta grid."""

    M: float
    delta_grid: list
    pass_counts: list
    delta_star_empirical: float
    worst_sample_seed: int | None
    worst_value: float
    n_samples: int
    tol: float


def scan_delta_star(
    M: float,
    n_samples: int,
    delta_grid,
    seed: int = 0,
    n_cells: int = DEFAULT_Y_CELLS,
) -> ScanResult:
    """Largest grid delta for which every sample satisfies R_delta(W) <= SCAN_TOL.

    Sample i has seed `seed + i` and cycles through SAMPLE_FAMILIES.

    A lower bound on the true threshold; the functional is monotone
    increasing in delta, so the passing deltas form an initial segment of
    the grid.
    """
    if not M > 0.0:
        raise DomainError("M must be positive")
    deltas = sorted(float(d) for d in delta_grid)
    if not deltas:
        raise ValueError("delta_grid must be non-empty")
    for d in deltas:
        _check_delta(d)
    sampled = [
        (seed + i, _draw(seed + i, M, SAMPLE_FAMILIES[i % len(SAMPLE_FAMILIES)], n_cells)[1])
        for i in range(n_samples)
    ]

    pass_counts = []
    delta_star = 0.0
    worst_seed = None
    worst_value = -np.inf
    all_passed_so_far = True
    for d in deltas:
        count = 0
        for s_seed, moms in sampled:
            r = _r_from_moments(moms, d)
            if r <= SCAN_TOL:
                count += 1
            elif r > worst_value:
                worst_value = r
                worst_seed = s_seed
        pass_counts.append(count)
        if count == n_samples and all_passed_so_far:
            delta_star = d
        else:
            all_passed_so_far = False
    return ScanResult(
        M=M,
        delta_grid=deltas,
        pass_counts=pass_counts,
        delta_star_empirical=delta_star,
        worst_sample_seed=worst_seed,
        worst_value=float(worst_value) if np.isfinite(worst_value) else 0.0,
        n_samples=n_samples,
        tol=SCAN_TOL,
    )


def W_from_state(
    params: WaveParams,
    n: GridField,
    n_cells: int = DEFAULT_Y_CELLS,
    delta: float = 1e-3,
) -> PoincareSample:
    """Push a density field onto [0, 1]: W(y) = (lam n_-/eps)(n(xi(y))/n~(xi(y)) - 1).

    The nodewise ratio w = n/n~ - 1 is interpolated linearly in xi; y values
    whose preimage falls outside the grid are clamped to the nearest
    boundary node.
    """
    _check_delta(delta)
    y = _y_nodes(n_cells)
    xi = np.empty_like(y)
    xi[1:-1] = np.asarray(xi_of_y(params, y[1:-1]))
    xi[0] = -np.inf
    xi[-1] = np.inf
    xi = np.clip(xi, n.grid.xi_min, n.grid.xi_max)
    w_nodes = n.values / np.asarray(profile_n(params, n.grid.nodes())) - 1.0
    w = (params.lam * params.n_minus / params.eps) * np.interp(xi, n.grid.nodes(), w_nodes)
    moms = _moments(w)
    return PoincareSample(
        W=w,
        delta=delta,
        M=moms[0],
        l2_sq=moms[0],
        weighted_h1=moms[4],
        R_delta=_r_from_moments(moms, delta),
        family="from_state",
    )
