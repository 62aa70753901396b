"""Uniform 1-D grid, trapezoid quadrature, and first-derivative stencils."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "GridField",
    "integrate_values",
]


@dataclass(frozen=True)
class Grid:
    """Uniform node-based grid: nodes xi_min + i*dx, i = 0..num_cells."""

    xi_min: float
    xi_max: float
    num_cells: int

    def __post_init__(self):
        if not -np.inf < self.xi_min < self.xi_max < np.inf:
            raise ValueError(f"need finite xi_min < xi_max, got {self.xi_min}, {self.xi_max}")
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
        # one pass: a finite sum means every value is finite, and only a sum
        # that is not looks at each value (values whose sum overflows, or
        # +inf beside -inf, also warn from the sum)
        if not math.isfinite(np.add.reduce(vals)) and not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        self.values = vals


def integrate_values(values: np.ndarray, dx: float):
    """Composite trapezoid rule on raw node values: the package's one trapezoid.

    `dx * (sum(v) - (v[0] + v[-1]) / 2)`, with the sum one pairwise
    `np.add.reduce` over the nodes: one pass over the values.  It is the
    rule of `np.trapezoid(values, dx=dx)` and agrees with it to rounding,
    not bit for bit: the rounding error is a small multiple of
    `eps * dx * sum(|v|)` (see the README).  An input of zeros only, of
    either sign, integrates to +0.0.

    A (k, m) array is k rows of node values, and the result is an array of
    their k integrals, each bit-equal to the call on its row alone.  That
    holds while each row is contiguous, so the sum runs over it as one
    inner loop; an input that is not C-ordered is copied first.
    """
    v = np.ascontiguousarray(values, dtype=float)
    if v.ndim == 1:
        return dx * (float(np.add.reduce(v)) - 0.5 * (float(v[0]) + float(v[-1])))
    total = np.add.reduce(v, -1)
    total -= 0.5 * (v[:, 0] + v[:, -1])
    total *= dx
    return total


def _cumulative_trapezoid(values: np.ndarray, d) -> np.ndarray:
    """Running trapezoid integrals over [x_0, x_j], j = 1..m-1, with spacing
    `d`: a scalar dx or the m-1 steps np.diff(x).

    The expression of `scipy.integrate.cumulative_trapezoid` without
    `initial`, with its `/ 2.0` as `* 0.5` (the correctly rounded value of
    the same real number), so the two agree bit for bit.
    """
    return np.cumsum(d * (values[1:] + values[:-1]) * 0.5)


def _ddx_central(v: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Second-order central derivative; second-order one-sided at boundaries.
    Written into `out`, or into a new array.

    Both stencils scale by 1 / (2 dx), taken once, and divide nothing: an
    array multiply costs under half an array divide.  The ends take the
    same scale, so an end equals the interior's arithmetic on its values.
    """
    out = np.empty_like(v) if out is None else out
    scale = 1.0 / (2.0 * dx)
    interior = np.subtract(v[2:], v[:-2], out=out[1:-1])
    interior *= scale
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) * scale
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) * scale
    return out


def _ddx_forward_biased(v: np.ndarray, dx: float, out=None, scratch=None, speed=1.0) -> np.ndarray:
    """Second-order three-point forward stencil; central where it does not fit.
    Written into `out`, or into a new array; `scratch` (len(v) values, or
    None for a temporary) holds the 4 v term.  Scaled by speed / (2 dx), one
    number, so a caller that wants the derivative times a speed pays no
    second pass; at the default speed 1 the scale is `_ddx_central`'s."""
    out = np.empty_like(v) if out is None else out
    scale = speed / (2.0 * dx)
    body = np.multiply(-3.0, v[:-2], out=out[:-2])
    body += np.multiply(4.0, v[1:-1], out=None if scratch is None else scratch[:-2])
    body -= v[2:]
    body *= scale
    # the last two nodes of the central stencil (`_ddx_central`'s interior
    # and right end), written out on the last three values
    a, b, c = v[-3:].tolist()
    out[-2] = (c - a) * scale
    out[-1] = (3.0 * c - 4.0 * b + a) * scale
    return out
