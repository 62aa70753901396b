"""Scalar functionals of a state relative to the traveling wave.

Relative entropies, the entropy-evolution pieces Y / I_bad / I_good, their
maximized split B_delta / G_delta, the dissipation D, and the parts of Y, B
and G over the tube {|n/n~ - 1| <= delta_1} and its complement.

All reference objects (n~, q~, a and derivatives) are evaluated in closed
form at arbitrary points, optionally translated by a shift; only solution
fields are ever differenced.  Every integral is the same composite
trapezoid rule, so the algebraic identities between these functionals hold
at machine precision on any grid.

Every functional of one (state, shift) pair comes from one straight-line
kernel that writes each nodewise array into a row of its grid's workspace
(`_Rows`), allocated once per grid.  Its first stage, `_core`, builds the
references and the arrays that Y and I_bad read, and is where every
evaluation starts; the shift substeps stop there.  A report goes on to
`_complete` and `_split`, which read the same rows.  Two arrays outlive an
evaluation: d/dxi log n is kept on its State for the state's life, and the
node coordinates on their Grid.

`evaluate_report` is the one way to read the functionals of a pair: it
returns one flat `FunctionalReport` whose field order is the column order of
the run table.  The shift substeps need only Y and I_bad, and read them with
`y_and_ibad`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import Grid, GridField, _ddx_central, integrate_values
from .wave import (
    DomainError,
    WaveParams,
    _a_derivative_of,
    _a_of,
    _n_prime_of,
    _n_second_of,
    _offsets_of,
    _q_of,
    profile_n,
)

__all__ = [
    "State",
    "NumericsError",
    "FunctionalReport",
    "REPORT_COLUMNS",
    "evaluate_report",
    "y_and_ibad",
    "ReferenceArrays",
    "reference_arrays",
    "pi_rel",
]


@dataclass
class State:
    """Solution pair U = (n, q) on one grid; n strictly positive."""

    n: GridField
    q: GridField

    def __post_init__(self):
        if self.n.grid != self.q.grid:
            raise ValueError("n and q must share one grid")
        if np.any(self.n.values <= 0.0):
            raise DomainError("density must be strictly positive at every node")

    @property
    def grid(self) -> Grid:
        return self.n.grid

    @cached_property
    def _dlog_n(self) -> np.ndarray:
        """d/dxi log n by the central stencil: built on first use, then kept
        (read-only) for the life of the state, whatever the shift."""
        out = _ddx_central(np.log(self.n.values), self.grid.dx)
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class ReferenceArrays:
    """Analytic wave/weight arrays on the grid nodes, translated by a shift."""

    xi: np.ndarray
    ntil: np.ndarray
    ntil_prime: np.ndarray
    ntil_second: np.ndarray
    qtil: np.ndarray
    a: np.ndarray
    a_prime: np.ndarray


def _references_into(params: WaveParams, ntil, a, ntil_second, ntil_prime, qtil, a_prime) -> None:
    """The references other than n~, from n~, into the five rows given, by
    the expressions of the pointwise functions of `wave`.  The offsets
    n~ - n_-, n~ - n_+ go into the rows of a and n~'', and become them once
    nothing else reads them.  a'' is not among them: B1, its one reader,
    builds it."""
    below, above = _offsets_of(params, ntil, a, ntil_second)
    _n_prime_of(params, below, above, out=ntil_prime)
    _q_of(params, below, out=qtil)
    _n_second_of(params, ntil_prime, below, above, out=above)
    _a_of(params, below, out=below)
    _a_derivative_of(params, ntil_prime, out=a_prime)


def reference_arrays(params: WaveParams, grid: Grid, shift: float = 0.0) -> ReferenceArrays:
    """Evaluate all reference objects at the grid nodes minus the shift.

    Functionals of the shifted state U^X use references translated by X;
    translating the analytic objects is exact and never interpolates U.
    The arrays are new and read-only, so an in-place operation aimed at one
    raises; an evaluation builds its own references in its grid's rows.
    """
    # at shift 0 the nodes are xi to the bit: their read-only array serves
    xi = grid._nodes - shift if shift else grid._nodes
    arrays = [xi, *(np.empty(grid.num_nodes) for _ in range(6))]
    _, ntil, ntil_prime, ntil_second, qtil, a, a_prime = arrays
    profile_n(params, xi, ascending=True, out=ntil)
    _references_into(params, ntil, a, ntil_second, ntil_prime, qtil, a_prime)
    for array in arrays:
        array.flags.writeable = False
    return ReferenceArrays(*arrays)


def pi_rel(n1, n2):
    """Relative density entropy Pi(n1 | n2) = n1 log(n1/n2) - (n1 - n2).

    Nonnegative, zero iff n1 == n2.  Works elementwise on arrays.  The raw
    expression can round one ulp below zero near coincidence, so it is
    clamped.
    """
    n1a = np.asarray(n1, dtype=float)
    n2a = np.asarray(n2, dtype=float)
    if np.any(n1a <= 0.0) or np.any(n2a <= 0.0):
        raise DomainError("pi_rel requires positive densities")
    out = np.maximum(n1a * np.log(n1a / n2a) - (n1a - n2a), 0.0)
    return float(out) if out.ndim == 0 else out


_PAGE = 4096
# Page offsets of the rows, 64-byte aligned and spread over the page.
_ROW_SPACING = 192


def _placed_row(n: int, page_offset: int) -> np.ndarray:
    """A new array of n values that starts `page_offset` bytes into a page.

    Rows of 2^k + 1 values allocated one after another land 16 bytes apart
    modulo the page, so a ufunc that reads one row and writes another
    stores where it is about to load, modulo 4 KiB, and the core stalls
    the load on the store (4K aliasing).  Where the run of rows starts in
    the page depends on what the process allocated before them.  Spread
    over the page, the rows keep clear of each other whatever came before.
    """
    raw = np.empty(n + _PAGE // 8)
    start = (page_offset - raw.ctypes.data) % _PAGE // 8
    return raw[start : start + n]


class _Rows:
    """The rows of one grid: every nodewise array of an evaluation, and the
    evaluation's integrals as attributes beside them.

    They are allocated once per grid (`_rows`), and each evaluation on the
    grid writes them again.  A row whose value is dead takes a later one:
    the second names below are the same rows as the first, written by the
    report stage (`_complete`) or the split.  So an array read off the rows
    holds its value until the next evaluation on the grid, or until a later
    stage reuses its row.  The stepper borrows rows for its stage arrays,
    since no evaluation runs during a step.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.dx = grid.dx
        # one array each, not one block: rows of one grid's size come from
        # the heap, where a block of them would be a mapping of its own
        self.rows = [_placed_row(grid.num_nodes, i * _ROW_SPACING) for i in range(20)]
        (self.ntil, self.a, self.ntil_second, self.ntil_prime, self.qtil, self.a_prime,
         self.u, self.dn, self.dn_rel, self.n_over_ntil, self.logratio, self.pi, self.dlog,
         self.eta, self.neg_a_prime, self.a_prime_pi, self.ratio_a, self.ratio_a_a_prime,
         self.y_integrand, self.w) = self.rows
        # q~ is dead once int -a' q~ Pi is taken: its row is the scratch v
        self.v = self.qtil
        # the report stage's arrays, over arrays only the first stage reads;
        # sigma phi's row holds (eps/lam) a, then 1 + (eps/lam) a/n~ first
        self.phi, self.a_prime_phi, self.u_plus_phi = self.logratio, self.dlog, self.dn
        self.u_plus_phi_sq, self.sigma_phi = self.ntil_second, self.ratio_a
        self.deviation = self.n_over_ntil  # |n/n~ - 1|, the tube's test
        # the split's tube masks
        self.inside, self.outside = self.ntil_prime, self.a_prime_pi


_workspace: list[_Rows] = []


def _rows(grid: Grid) -> _Rows:
    """The rows of `grid`, kept for the last grid asked for only."""
    if not _workspace or (_workspace[0].grid is not grid and _workspace[0].grid != grid):
        _workspace.clear()  # the last grid's rows go before the next are made
        _workspace.append(_Rows(grid))
    return _workspace[0]


def _release_rows() -> None:
    """Free the rows once a run or an identity suite has made its last
    evaluation, for what comes next (the next run's set-up, the output)."""
    _workspace.clear()


def _core(params: WaveParams, state: State, shift: float) -> _Rows:
    """The first stage of an evaluation of (state, shift): the references
    and the arrays that Y and I_bad read, and those two integrals.

    Every evaluation, a report or the (Y, I_bad) of a shift substep, starts
    here, once.  Each array is one chain of in-place operations on its row,
    in the left-to-right order of the formula it belongs to, so each value is
    bit-identical to writing the formula out in full.  The one
    shift-independent array, d/dxi log n, is kept on the State.
    """
    c = _rows(state.grid)
    c.params, c.n = params, state.n.values
    n, q, dx, w = c.n, state.q.values, c.dx, c.w
    ntil, a, ntil_prime, qtil, a_prime = c.ntil, c.a, c.ntil_prime, c.qtil, c.a_prime
    ratio, sigma = params.eps / params.lam, params.sigma
    np.subtract(state.grid._nodes, shift, out=ntil)  # xi, until the profile overwrites it
    profile_n(params, ntil, ascending=True, out=ntil)
    _references_into(params, ntil, a, c.ntil_second, ntil_prime, qtil, a_prime)

    u = np.subtract(q, qtil, out=c.u)
    dn = np.subtract(n, ntil, out=c.dn)
    np.divide(dn, ntil, out=c.dn_rel)
    logratio = np.log(np.divide(n, ntil, out=c.n_over_ntil), out=c.logratio)
    # Pi(n | n~) = max(n log(n/n~) - (n - n~), 0)
    pi = np.multiply(n, logratio, out=c.pi)
    pi -= dn
    np.maximum(pi, 0.0, out=pi)
    # d/dxi log(n/n~): only the solution part is differenced, n~'/n~ is analytic
    dlog = np.divide(ntil_prime, ntil, out=c.dlog)
    np.subtract(state._dlog_n, dlog, out=dlog)
    # eta = 0.5 u u + Pi
    eta = np.multiply(0.5, u, out=c.eta)
    eta *= u
    eta += pi
    neg_a_prime = np.negative(a_prime, out=c.neg_a_prime)
    a_prime_pi = np.multiply(a_prime, pi, out=c.a_prime_pi)
    ratio_a_a_prime = np.multiply(np.multiply(ratio, a, out=c.ratio_a), a_prime, out=c.ratio_a_a_prime)

    # Y: int -a' eta - (eps/lam) a a' ((n - n~)/n~ - u/sigma); restricted to
    # the tube's complement its integrand is Y_s's
    y = np.multiply(neg_a_prime, eta, out=c.y_integrand)
    np.divide(u, sigma, out=w)
    np.subtract(c.dn_rel, w, out=w)
    w *= ratio_a_a_prime
    y -= w
    c.Y = integrate_values(y, dx)
    # int -a' q~ Pi: a term of I_bad and of B1; q~ is dead after it
    np.multiply(neg_a_prime, qtil, out=w)
    w *= pi
    c.qtil_term = integrate_values(w, dx)

    # I_bad = int -(a' Pi + (a' - a n~'/n~)(n - n~)) u, the q~ term,
    # int (a n~'/n~ - a') n log(n/n~) d/dxi log(n/n~) and int a (n~''/n~) Pi
    a_ntil_prime = np.multiply(a, ntil_prime, out=c.v)
    a_ntil_prime /= ntil
    np.subtract(a_prime, a_ntil_prime, out=w)
    w *= dn
    w += a_prime_pi
    np.negative(w, out=w)
    w *= u
    t1 = integrate_values(w, dx)
    f = np.subtract(a_ntil_prime, a_prime, out=a_ntil_prime)
    f *= n
    f *= logratio
    f *= dlog
    t3 = integrate_values(f, dx)
    np.divide(c.ntil_second, ntil, out=w)
    w *= a
    w *= pi
    c.I_bad = t1 + c.qtil_term + t3 + integrate_values(w, dx)
    return c


def _complete(c: _Rows) -> None:
    """The report stage of the evaluation in `c`: I_good, D, the tube-free
    B1 and B3, and the arrays that the split reads."""
    params = c.params
    n, dx, w = c.n, c.dx, c.w
    ntil, a, a_prime, u, pi, dlog = c.ntil, c.a, c.a_prime, c.u, c.pi, c.dlog
    ratio, sigma = params.eps / params.lam, params.sigma
    # I_good: sigma int a' u u / 2, sigma int a' Pi (G2) and the dissipation
    # D = int a n |d/dxi log(n/n~)|^2
    np.multiply(0.5, a_prime, out=w)
    w *= u
    w *= u
    g_q = sigma * integrate_values(w, dx)
    c.G_pi = sigma * integrate_values(c.a_prime_pi, dx)
    np.multiply(a, n, out=w)
    w *= dlog
    w *= dlog
    c.D = integrate_values(w, dx)
    c.I_good = g_q + c.G_pi + c.D
    # B1 = int -a' q~ Pi - (eps/lam) int a'' (a/n~) Pi
    _a_derivative_of(params, c.ntil_second, out=w)
    w *= -ratio
    w *= np.divide(a, ntil, out=c.v)
    w *= pi
    c.B1 = c.qtil_term + integrate_values(w, dx)
    # B3 = int -a' (1 + (eps/lam) a/n~) n log(n/n~) d/dxi log(n/n~)
    coeff = np.divide(c.ratio_a, ntil, out=c.ratio_a)
    coeff += 1.0
    np.multiply(c.neg_a_prime, coeff, out=w)
    w *= n
    w *= c.logratio
    w *= dlog
    c.B3 = integrate_values(w, dx)
    # sigma phi = Pi(n|n~) + (1 + (eps/lam) a/n~)(n - n~)
    sigma_phi = np.multiply(coeff, c.dn, out=c.sigma_phi)
    sigma_phi += pi
    phi = np.divide(sigma_phi, sigma, out=c.phi)
    np.multiply(a_prime, phi, out=c.a_prime_phi)
    np.square(np.add(u, phi, out=c.u_plus_phi), out=c.u_plus_phi_sq)
    deviation = np.subtract(c.n_over_ntil, 1.0, out=c.deviation)
    np.abs(deviation, out=deviation)


def _entropies(c: _Rows) -> tuple[float, float]:
    """int a eta and int eta of the evaluation in `c`: the report's two
    relative entropies, which the identity suite does not read.  The rows of
    a and eta hold through `_complete` and the split."""
    weighted = integrate_values(np.multiply(c.a, c.eta, out=c.w), c.dx)
    return weighted, integrate_values(c.eta, c.dx)


class _Split(NamedTuple):
    """The tube parts of Y, B and G at one threshold delta, in the column
    order of the report."""

    Y_g: float
    Y_b: float
    Y_l: float
    Y_s: float
    B1: float
    B2_in: float
    B2_out: float
    B3: float
    G1_in: float
    G1_out: float
    G2: float
    G_D: float

    @property
    def B(self) -> float:
        return self.B1 + self.B2_in + self.B2_out + self.B3

    @property
    def G(self) -> float:
        return self.G1_in + self.G1_out + self.G2 + self.G_D


def _split(c: _Rows, delta: float) -> _Split:
    """The tube parts at threshold delta of the completed evaluation in `c`;
    B1, B3, G2 and D come off it.  The eight tube integrands are built in two
    scratch rows, so a completed evaluation can be split at many deltas.
    """
    sigma, dx, w, v = c.params.sigma, c.dx, c.w, c.v
    a_prime, phi, a_prime_phi, u = c.a_prime, c.phi, c.a_prime_phi, c.u
    upp, upp_sq = c.u_plus_phi, c.u_plus_phi_sq
    inside = np.less_equal(c.deviation, delta, out=c.inside)  # 1.0 or 0.0; ties go inside
    outside = np.subtract(1.0, inside, out=c.outside)

    np.multiply(a_prime_phi, phi, out=w)
    w *= inside
    b2_in = 0.5 * sigma * integrate_values(w, dx)
    np.multiply(c.neg_a_prime, c.sigma_phi, out=w)
    w *= u
    w *= outside
    b2_out = integrate_values(w, dx)
    np.multiply(a_prime, upp_sq, out=w)
    w *= inside
    g1_in = 0.5 * sigma * integrate_values(w, dx)
    np.multiply(a_prime, u, out=w)
    w *= u
    w *= outside
    g1_out = 0.5 * sigma * integrate_values(w, dx)

    # (-a' (phi^2/2 + Pi) - (eps/lam) a a' ((n - n~)/n~ + phi/sigma)) inside
    np.multiply(0.5, phi, out=w)
    w *= phi
    w += c.pi
    w *= c.neg_a_prime
    np.divide(phi, sigma, out=v)
    np.add(c.dn_rel, v, out=v)
    v *= c.ratio_a_a_prime
    w -= v
    w *= inside
    y_g = integrate_values(w, dx)

    # (-a' (u + phi)^2 / 2 + a' phi (u + phi)) inside
    np.multiply(-0.5, a_prime, out=w)
    w *= upp_sq
    w += np.multiply(a_prime_phi, upp, out=v)
    w *= inside
    y_b = integrate_values(w, dx)

    np.multiply(c.a, a_prime, out=w)
    w *= upp
    w *= inside
    y_l = (c.params.eps / c.params.lam / sigma) * integrate_values(w, dx)
    y_s = integrate_values(np.multiply(c.y_integrand, outside, out=w), dx)
    return _Split(y_g, y_b, y_l, y_s, c.B1, b2_in, b2_out, c.B3, g1_in, g1_out, c.G_pi, c.D)



class NumericsError(RuntimeError):
    """Computed functionals break a sign or an identity that holds exactly."""


@dataclass(frozen=True)
class FunctionalReport:
    """Every functional of one (state, shift) pair, in the column order of
    the run table; building one checks the signs and the tube sums."""

    eta_weighted: float
    Y: float
    I_bad: float
    I_good: float
    B_delta: float
    G_delta: float
    D: float
    Y_g: float
    Y_b: float
    Y_l: float
    Y_s: float
    B1: float
    B2_in: float
    B2_out: float
    B3: float
    G1_in: float
    G1_out: float
    G2: float
    G_D: float
    R_main: float
    delta_used: float
    eta_unweighted: float

    def __post_init__(self):
        if self.I_good < 0 or self.G_delta < -1e-15 or self.D < 0:
            raise NumericsError("good terms must be nonnegative")
        for total, parts in (
            (self.Y, (self.Y_g, self.Y_b, self.Y_l, self.Y_s)),
            (self.B_delta, (self.B1, self.B2_in, self.B2_out, self.B3)),
            (self.G_delta, (self.G1_in, self.G1_out, self.G2, self.G_D)),
        ):
            gap = abs(total - sum(parts))
            if gap > 1e-10 * max(1.0, abs(total)):
                raise NumericsError(f"decomposition does not reproduce total: gap={gap:.3e}")


REPORT_COLUMNS = tuple(f.name for f in fields(FunctionalReport))


def evaluate_report(
    params: WaveParams,
    state: State,
    delta0: float = 0.01,
    delta1: float = 0.25,
    shift: float = 0.0,
) -> FunctionalReport:
    """Every functional of (state, shift), from one core and one split at the
    tube threshold delta1 (inf puts the whole line inside the tube).

    Its R_main is the one definition of the sign functional
    -(1/eps^4) Y^2 + B + delta0 (eps/lam) |B| - G + delta0 D: negative
    whenever the contraction machinery has margin; monitored, not assumed.
    """
    if not 0.0 < delta0 < 0.5:
        raise DomainError("delta0 must lie in (0, 1/2)")
    if not delta1 > 0.0:
        raise DomainError("delta1 must be positive")
    c = _core(params, state, shift)
    _complete(c)
    s = _split(c, delta1)
    eta_weighted, eta_unweighted = _entropies(c)
    y, b, g = c.Y, s.B, s.G
    r = -(y * y) / params.eps**4 + b + delta0 * (params.eps / params.lam) * abs(b) - g + delta0 * s.G_D
    return FunctionalReport(
        eta_weighted, y, c.I_bad, c.I_good, b, g, c.D, *s, r, delta1, eta_unweighted
    )


def y_and_ibad(params: WaveParams, state: State, shift: float = 0.0) -> tuple[float, float]:
    """Just Y and I_bad: the shift ODE right-hand side inputs."""
    c = _core(params, state, shift)
    return c.Y, c.I_bad
