"""Nonlinear Poincare-type functional on the unit interval.

R_delta(W) = -(1/delta) (int W^2 + 2 int W)^2 + (1+delta) int W^2
             + (2/3) int W^3 + delta int |W|^3
             - (1-delta) int y(1-y) |W'|^2

is nonpositive for every W with int W^2 <= M once delta is below a
threshold delta*(M) > 0.  The threshold is not constructive, so this
module samples test functions and scans for the empirical one.

The samples are drawn in blocks of up to BLOCK_SAMPLES of one family: each
block's functions, their rescale, W' and the five moments are rows of
three (block, nodes) arrays allocated once per scan.  Every row is
bit-equal to drawing its sample alone, which is the same code on a block
of one row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .grid import integrate_values
from .wave import DomainError

__all__ = [
    "ScanResult",
    "R_poincare",
    "scan_delta_star",
    "DEFAULT_Y_CELLS",
    "SAMPLE_FAMILIES",
]

DEFAULT_Y_CELLS = 4096
SAMPLE_FAMILIES = ("fourier", "polynomial", "bump")
# A sample passes at delta when R_delta(W) <= SCAN_TOL.
SCAN_TOL = 1e-10
# Samples of one family drawn together.  The scan's three arrays of 8 x 4097
# values are 768 KiB, which fits a 2 MiB L2 cache beside the 512 KiB Fourier
# basis; blocks of 4 ran as fast and blocks of 16 slower.
BLOCK_SAMPLES = 8
# The divisor k of each Fourier coefficient, in draw order (sin, cos) for k = 1..8.
_FOURIER_K = np.repeat(np.arange(1.0, 9.0), 2)
# Polynomial degrees are 2..6; lower ones get zero leading coefficients.
_POLY_COEFFS = 7


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


def _moment_rows(w: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """(int W^2, int W, int W^3, int |W|^3, int y(1-y)|W'|^2) of each row of
    `w` by trapezoid, as a (5, rows) array; s1 and s2 are scratch rows of
    w's shape.

    W' is the central stencil.  Its endpoint values would be weighted by
    y(1-y) = 0, which gives +0.0 for any finite W', so the integrand's ends
    are set to +0.0 and W' is not taken there.
    """
    m = w.shape[1] - 1
    dy = 1.0 / m
    out = np.empty((5, len(w)))
    w2 = np.multiply(w, w, out=s1)
    out[0] = integrate_values(w2, dy)
    out[1] = integrate_values(w, dy)
    # products, not w**3: numpy's pow is far slower for negative bases
    w3 = np.multiply(w2, w, out=s1)
    out[2] = integrate_values(w3, dy)
    out[3] = integrate_values(np.abs(w3, out=w3), dy)
    dw = np.subtract(w[:, 2:], w[:, :-2], out=s1[:, 1:-1])
    dw /= 2.0 * dy
    h1 = np.multiply(_h1_weight(m)[1:-1], dw, out=s2[:, 1:-1])
    h1 *= dw
    s2[:, 0] = 0.0
    s2[:, -1] = 0.0
    out[4] = integrate_values(s2, dy)
    return out


def _r_values(moments: np.ndarray, delta) -> np.ndarray:
    """R_delta of each sample from its moments.  `delta` is a float, or a
    column of deltas that gives one row of samples per delta."""
    i2, i1, i3, iabs3, ih1 = moments
    return (
        -np.square(i2 + 2.0 * i1) / delta
        + (1.0 + delta) * i2
        + (2.0 / 3.0) * i3
        + delta * iabs3
        - (1.0 - delta) * ih1
    )


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:  # past 1 the (1 - delta) H^1 term changes sign
        raise DomainError("delta must lie in (0, 1)")


def _scratch(rows: int, nodes: int) -> list[np.ndarray]:
    """Three (rows, nodes) arrays: the samples and two scratch rows."""
    return [np.empty((rows, nodes)) for _ in range(3)]


def R_poincare(W: np.ndarray, delta: float) -> float:
    """Evaluate the functional for W sampled on a uniform grid over [0, 1]."""
    _check_delta(delta)
    w = np.asarray(W, dtype=float)
    if w.ndim != 1 or len(w) < 5:
        raise ValueError("W must be a 1-D sample with at least 5 nodes")
    moments = _moment_rows(w[None, :], *np.empty((2, 1, len(w))))
    return float(_r_values(moments, delta)[0])


def _moments(w: np.ndarray) -> tuple[float, float, float, float, float]:
    """The five moments of one sample: `_moment_rows` on a block of one row."""
    return tuple(_moment_rows(w[None, :], *np.empty((2, 1, len(w))))[:, 0].tolist())


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


def _sample_draws(seed: int, M: float, family: str) -> tuple[object, float]:
    """What sample `seed` draws from its own stream, in stream order: the
    family's parameters, then its target int W^2 in [M/2, M]."""
    rng = default_rng(seed)
    if family == "fourier":
        params = rng.normal(size=len(_FOURIER_K))
    elif family == "polynomial":
        degree = int(rng.integers(2, 7))
        params = np.zeros(_POLY_COEFFS)
        params[: degree + 1] = rng.normal(size=degree + 1)
    elif family == "bump":
        width = rng.uniform(0.05, 0.12)
        center = rng.uniform(0.45, 0.55)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        params = (center, 2.0 * width**2, sign)
    else:
        raise ValueError(f"unknown family {family!r}")
    return params, rng.uniform(0.5 * M, M)


def _fill_raw(family: str, params: list, w: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
    """Write the unscaled functions of one family's samples into the rows of w."""
    n_cells = w.shape[1] - 1
    if family == "fourier":
        coeffs = np.array(params) / _FOURIER_K
        w.fill(0.0)
        for j, (sin_k, cos_k) in enumerate(_fourier_basis(n_cells)):
            term = np.multiply(coeffs[:, 2 * j, None], sin_k, out=s1)
            term += np.multiply(coeffs[:, 2 * j + 1, None], cos_k, out=s2)
            w += term
    elif family == "polynomial":
        # Horner from a zero row, as numpy's polyval: c_d + 0 y, then c_j + p y
        coeffs = np.array(params)
        y = _y_nodes(n_cells)
        w.fill(0.0)
        w += coeffs[:, -1, None]
        for j in range(_POLY_COEFFS - 2, -1, -1):
            w *= y
            w += coeffs[:, j, None]
    else:
        # sign exp(-(y - center)^2 / (2 width^2))
        center, denom, sign = np.array(params).T[:, :, None]
        np.subtract(_y_nodes(n_cells), center, out=w)
        np.square(w, out=w)
        np.negative(w, out=w)
        w /= denom
        np.exp(w, out=w)
        w *= sign


def _draw_block(
    seeds, M: float, family: str, w: np.ndarray, s1: np.ndarray, s2: np.ndarray
) -> np.ndarray:
    """Draw the samples of `seeds`, all of `family`, into the rows of w,
    each rescaled to its target int W^2 in [M/2, M]; return their moments."""
    draws = [_sample_draws(s, M, family) for s in seeds]
    _fill_raw(family, [params for params, _ in draws], w, s1, s2)
    i2_raw = integrate_values(np.multiply(w, w, out=s1), 1.0 / (w.shape[1] - 1))
    targets = np.array([target for _, target in draws])
    w *= np.sqrt(targets / i2_raw)[:, None]
    return _moment_rows(w, s1, s2)


def _draw(seed: int, M: float, family: str, n_cells: int) -> tuple[np.ndarray, tuple]:
    """Seeded test function rescaled into int W^2 in [M/2, M], with its
    moments: a block of one sample."""
    w, s1, s2 = _scratch(1, n_cells + 1)
    moments = _draw_block([seed], M, family, w, s1, s2)
    return w[0], tuple(moments[:, 0].tolist())


def _sample_moments(M: float, n_samples: int, seed: int, n_cells: int) -> np.ndarray:
    """The (5, n_samples) moments of the scan's samples, drawn in blocks of
    one family.  The blocks' rows are freed on return, so the scan's
    (deltas x samples) array of R reuses their memory."""
    moments = np.empty((5, n_samples))
    rows = _scratch(min(BLOCK_SAMPLES, n_samples), n_cells + 1)
    stride = len(SAMPLE_FAMILIES)
    for f, family in enumerate(SAMPLE_FAMILIES):
        # a block is every stride-th sample from `first`, at most BLOCK_SAMPLES of them
        for first in range(f, n_samples, stride * BLOCK_SAMPLES):
            block = range(first, min(first + stride * BLOCK_SAMPLES, n_samples), stride)
            w, s1, s2 = (r[: len(block)] for r in rows)
            moments[:, block.start : block.stop : stride] = _draw_block(
                [seed + i for i in block], M, family, w, s1, s2
            )
    return moments


@dataclass
class ScanResult:
    """Empirical threshold scan over a delta grid."""

    M: float
    delta_grid: list
    pass_counts: list
    delta_star_empirical: float
    # every sample passes at the grid's largest delta: delta_star_empirical is the grid's top
    saturated: bool
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

    An upper bound on the true threshold at this M, up to the grid spacing:
    R_delta increases with delta, so the passing deltas form an initial
    segment of the grid, and a random sample can only miss a W that
    violates the inequality, never invent one.
    """
    if not M > 0.0:
        raise DomainError("M must be positive")
    deltas = sorted(float(d) for d in delta_grid)
    if not deltas:
        raise ValueError("delta_grid must be non-empty")
    if n_samples < 1:
        raise DomainError(f"n_samples must be at least 1, got {n_samples}")
    if n_cells < 4:  # R_poincare's floor of 5 nodes
        raise DomainError(f"n_cells must be at least 4, got {n_cells}")
    for d in deltas:
        _check_delta(d)
    # one row of R per delta; a sample passes where R_delta(W) <= SCAN_TOL
    r = _r_values(_sample_moments(M, n_samples, seed, n_cells), np.array(deltas)[:, None])
    pass_counts = (r <= SCAN_TOL).sum(axis=1)
    # the passing deltas: the leading run of the grid where every sample passes
    leading = int(np.logical_and.accumulate(pass_counts == n_samples).sum())
    # keep only the failing values (a NaN neither passes nor fails); the
    # largest is the first by delta, then by sample, as argmax keeps
    r[~(r > SCAN_TOL)] = -np.inf
    worst = int(np.argmax(r))
    worst_value = r.flat[worst]
    return ScanResult(
        M=M,
        delta_grid=deltas,
        pass_counts=pass_counts.tolist(),
        delta_star_empirical=deltas[leading - 1] if leading else 0.0,
        saturated=bool(pass_counts[-1] == n_samples),
        worst_sample_seed=seed + worst % n_samples if worst_value > -np.inf else None,
        worst_value=float(worst_value) if np.isfinite(worst_value) else 0.0,
        n_samples=n_samples,
        tol=SCAN_TOL,
    )
