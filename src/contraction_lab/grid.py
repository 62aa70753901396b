"""Uniform 1-D grid, trapezoid quadrature, and first-derivative stencils."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "GridField",
    "integrate",
    "integrate_values",
    "ddx_central",
]


@dataclass(frozen=True)
class Grid:
    """Uniform node-based grid: nodes xi_min + i*dx, i = 0..num_cells."""

    xi_min: float
    xi_max: float
    num_cells: int

    def __post_init__(self):
        if not self.xi_min < self.xi_max:
            raise ValueError("need xi_min < xi_max")
        if self.num_cells < 4:
            raise ValueError("need at least 4 cells")

    @property
    def dx(self) -> float:
        return (self.xi_max - self.xi_min) / self.num_cells

    @property
    def num_nodes(self) -> int:
        return self.num_cells + 1

    @cached_property
    def _nodes(self) -> np.ndarray:
        """The node coordinates, built once per grid and read-only."""
        xi = np.linspace(self.xi_min, self.xi_max, self.num_cells + 1)
        xi.flags.writeable = False
        return xi

    def nodes(self) -> np.ndarray:
        return self._nodes.copy()


@dataclass
class GridField:
    """Real values sampled at the nodes of a Grid; immutable by convention."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.num_nodes,):
            raise ValueError(
                f"expected {self.grid.num_nodes} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        self.values = vals

    def with_values(self, values: np.ndarray) -> "GridField":
        return GridField(self.grid, values)


def integrate_values(values: np.ndarray, dx: float) -> float:
    """Composite trapezoid rule on raw node values: the package's one trapezoid.

    Bit-equal to `np.trapezoid(values, dx=dx)`, which sums
    `dx * (v[1:] + v[:-1]) / 2.0`: the halving is a multiplication by 0.5
    here, the correctly rounded value of the same real number, and the
    scaling happens in place on the one temporary, so the sum reads the same
    array in the same order.
    """
    v = np.asarray(values, dtype=float)
    buf = np.add(v[1:], v[:-1])
    buf *= dx
    buf *= 0.5
    return float(buf.sum())


def integrate(f: GridField) -> float:
    """Composite trapezoid rule over the field's grid."""
    return integrate_values(f.values, f.grid.dx)


def _cumulative_trapezoid(values: np.ndarray, d) -> np.ndarray:
    """Running trapezoid integrals over [x_0, x_j], j = 1..m-1, with spacing
    `d`: a scalar dx or the m-1 steps np.diff(x).

    The expression of `scipy.integrate.cumulative_trapezoid` without
    `initial`, with its `/ 2.0` as `* 0.5` (see `integrate_values`), so the
    two agree bit for bit.
    """
    return np.cumsum(d * (values[1:] + values[:-1]) * 0.5)


def _ddx_central(v: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dx)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dx)
    return out


def ddx_central(f: GridField) -> GridField:
    """Second-order central derivative; second-order one-sided at boundaries."""
    return f.with_values(_ddx_central(f.values, f.grid.dx))


def _ddx_forward_biased(v: np.ndarray, dx: float) -> np.ndarray:
    """Second-order three-point forward stencil; central where it does not fit."""
    out = np.empty_like(v)
    out[:-2] = (-3.0 * v[:-2] + 4.0 * v[1:-1] - v[2:]) / (2.0 * dx)
    # the last two nodes of the central stencil, from the last three values
    out[-2:] = _ddx_central(v[-3:], dx)[1:]
    return out
