"""Scalar functionals of a state relative to the traveling wave.

Relative entropies, the entropy-evolution pieces Y / I_bad / I_good, their
maximized split B_delta / G_delta, the dissipation D, and the parts of Y, B
and G over the tube {|n/n~ - 1| <= delta_1} and its complement.

All reference objects (n~, q~, a and derivatives) are evaluated in closed
form at the nodes translated by a shift, by the expressions of the
pointwise functions of `wave`; only solution fields are ever differenced.
Every integral is the same composite trapezoid rule, so the algebraic
identities between these functionals hold at machine precision on any grid.

Every functional of one (state, shift) pair comes from one straight-line
kernel that writes each nodewise array into a row of its grid's workspace
(`_Rows`: 17 rows, allocated once per grid).  Its first stage, `_core`, is
where every evaluation starts, and the shift substeps stop there.  It
builds n~, n~', q~, a and the offsets' sum, the differences u = q - q~ and
n - n~, log(n/n~), 1/n~, Pi, d/dxi log(n/n~), eta and a/n~, and Y and I_bad
from them.  The shift enters only through the logistic's exponential,
exp(k (xi - X)) with k = eps/(nu sigma), which is one array E of the grid
times the number exp(anchor - kX).  E = exp(clip(k xi - anchor)) is built
once per (params, grid, anchor) and kept in a row of its own; the anchor is
the multiple of ANCHOR_SPACING (8) nearest to kX, and 0 while |kX| < 4 (see
`_core`).  The kernel reads the weight's slope a' = -(lam/eps) n~' only
through n~': every weighted integrand is n~' times one bracket, and a
constant of the formula (lam/eps, -sigma lam/eps, -sigma lam/(2 eps) or
-1/sigma) multiplies the integral.  So a substep makes two reductions.  A
report goes on to `_complete` (I_good, D, B1 and B3, which finish brackets
of I_bad left in their rows, and the arrays of the split, over rows the
first stage no longer reads), to `_split`, whose tube masks carry the
factor n~', and to `_entropies`: 2 + 5 + 8 + 2 = 17 reductions in all.
Three arrays outlive an evaluation: d/dxi log n is kept on its State for
the state's life, the node coordinates on their Grid, and E in its row.

An array divide costs over twice an array multiply, so the kernel divides
only where the divisor is an array and a product would not do.  An
evaluation makes three array divisions: eps / (1 + E exp(anchor - kX)) in
the profile, the row 1/n~, and n/n~.  Every other "/ n~" of the formulas is
a product with the 1/n~ row, and every division by a number is a product
with its reciprocal.  n/n~ stays a division so that n = n~ gives n/n~ = 1,
and so log(n/n~) = 0, exactly: n (1/n~) need not round to 1.

`evaluate_report` is the one way to read the functionals of a pair: it
returns one flat `FunctionalReport` whose field order is the column order of
the run table.  The shift substeps need only Y and I_bad, and read them with
`y_and_ibad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import Grid, GridField, _ddx_central, integrate_values
from .wave import (
    EXP_CLAMP,
    DomainError,
    WaveParams,
    _a_of,
    _n_prime_of,
    _offsets_of,
    _profile_of_exp,
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
        if not self.n.values.min() > 0.0:  # one pass
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
    """The sampled wave: n~ and q~ at the grid nodes, new and read-only."""

    ntil: np.ndarray
    qtil: np.ndarray


def reference_arrays(params: WaveParams, grid: Grid) -> ReferenceArrays:
    """The wave n~, q~ at the grid nodes, in new read-only arrays: the run's
    fixed point, to which a perturbation is added.  An evaluation builds its
    own references in its grid's rows (`_core`), these to the bit at shift 0."""
    ntil = profile_n(params, grid._nodes)
    below = np.subtract(ntil, params.n_minus)
    qtil = _q_of(params, below, out=below)
    ntil.flags.writeable = qtil.flags.writeable = False
    return ReferenceArrays(ntil, qtil)


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
        self.rows = [_placed_row(grid.num_nodes, i * _ROW_SPACING) for i in range(17)]
        (self.ntil, self.a, self.offsets, self.ntil_prime, self.qtil, self.u, self.dn,
         self.exp_anchored, self.logratio, self.nlog, self.pi, self.dlog, self.eta,
         self.a_over_ntil, self.y_bracket, self.w, self.t) = self.rows
        # exp(eps xi / (nu sigma) - anchor), kept from one evaluation to the
        # next while (eps / (nu sigma), anchor) is this key (`_core`); the
        # stepper borrows only the first six rows
        self.exp_key = None
        # n~ is dead once n - n~ and n/n~ are taken: its row then holds 1/n~,
        # and (n - n~)/n~ once the report stage has read 1/n~ for the last time
        self.inv_ntil = self.dn_rel = self.ntil
        # q~ is dead once B1 is taken: its row is the scratch v
        self.v = self.qtil
        # the report stage's arrays, over arrays that B1, B3 and sigma phi
        # read last: log(n/n~) is dead once n log(n/n~) is taken
        self.phi, self.u_plus_phi, self.u_plus_phi_sq = self.logratio, self.dn, self.offsets
        self.sigma_phi = self.nlog
        self.deviation = self.a_over_ntil  # |(n - n~)/n~|, the tube's test
        # the split's tube masks, weighted by n~': d/dxi log(n/n~) is dead
        # after D, and t after B3
        self.inside, self.outside = self.dlog, self.t


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


# The anchors of the logistic's argument z = eps (xi - X) / (nu sigma): its
# exponential is exp(eps xi / (nu sigma) - anchor) times exp(anchor - kX),
# with the anchor the multiple of ANCHOR_SPACING nearest to kX (`_core`).
ANCHOR_SPACING = 8.0


def _core(params: WaveParams, state: State, shift: float) -> _Rows:
    """The first stage of an evaluation of (state, shift): the references
    and the arrays that Y and I_bad read, and those two integrals.

    Every evaluation, a report or the (Y, I_bad) of a shift substep, starts
    here, once.  Each array is one chain of in-place operations on its row,
    in the left-to-right order of the formula it belongs to, so each value is
    bit-identical to writing the formula out in full, with x / n~ read as
    x (1/n~) and x / s as x (1/s) for a number s.  It divides twice: the row
    1/n~, and n/n~ (see the module docstring); the profile divides once
    more.  The two shift-independent arrays are kept: d/dxi log n on the
    State, and the wave's exponential on the rows.

    The shift only translates the wave, so the logistic's exponential
    exp(k (xi - X)), k = eps / (nu sigma), is one array times one number:
    E = exp(clip(k xi - anchor)) times exp(anchor - kX), where the anchor is
    the multiple of ANCHOR_SPACING nearest to kX.  E is built with the
    profile's arithmetic, the anchor taken off before the clamp, when
    (k, anchor) changes, and kept in its row otherwise.  So the first stage
    makes one multiply where it would subtract, scale and exponentiate.
    For |kX| < ANCHOR_SPACING / 2 the anchor is 0 and E is the profile's
    exponential at the nodes; at X = 0 the factor is exp(0) = 1, so at
    shift 0 every reference equals its pointwise function of `wave` at the
    nodes to the bit, and n~ and q~ are those of `reference_arrays`.  At
    other shifts they agree with those functions at the nodes minus X to
    rounding.  The factor is at most exp(ANCHOR_SPACING / 2), so E times it
    is finite and a node clamped in E stays saturated on its side.  An
    evaluation depends on its (state, shift) alone, not on what was
    evaluated before.

    Y and I_bad are one integrand each, n~' times a bracket, so an
    evaluation makes two reductions.  The weight's slope a' = -(lam/eps) n~'
    and (eps/lam) a a' = -a n~' are folded into that factor, and u + q~ = q
    joins I_bad's two Pi terms.  Y's bracket stays in its row for Y_s.
    """
    c = _rows(state.grid)
    c.params, c.n = params, state.n.values
    n, q, dx, w, t = c.n, state.q.values, c.dx, c.w, c.t
    ntil, a, offsets, ntil_prime = c.ntil, c.a, c.offsets, c.ntil_prime
    ell = params.lam / params.eps
    k = params.eps / (params.nu * params.sigma)
    kx = k * shift
    if not -math.inf < kx < math.inf:
        raise DomainError(f"the shift must be finite, got {shift}")
    anchor = ANCHOR_SPACING * round(kx / ANCHOR_SPACING)
    if c.exp_key != (k, anchor):
        # the profile's exponential at the nodes, anchored: clamped after the
        # anchor is taken off, so a clamped node is saturated for the shift
        e = np.multiply(k, c.grid._nodes, out=c.exp_anchored)
        e -= anchor
        np.clip(e, -EXP_CLAMP, EXP_CLAMP, out=e)
        np.exp(e, out=e)
        c.exp_key = (k, anchor)
    # anchor - kx is exact and at most ANCHOR_SPACING / 2 in size: the anchor
    # is ANCHOR_SPACING times the integer nearest kx / ANCHOR_SPACING, so it
    # is 0 or within a factor 2 of kx
    np.multiply(c.exp_anchored, math.exp(anchor - kx), out=ntil)
    _profile_of_exp(params, ntil, out=ntil)
    # the offsets n~ - n_-, n~ - n_+ become a and the offsets' sum, which is
    # nu sigma n~''/n~', the form in which I_bad and B1 read n~''
    below, above = _offsets_of(params, ntil, a, offsets)
    _n_prime_of(params, below, above, out=ntil_prime)
    _q_of(params, below, out=c.qtil)
    np.add(below, above, out=above)
    _a_of(params, below, out=below)

    u = np.subtract(q, c.qtil, out=c.u)
    dn = np.subtract(n, ntil, out=c.dn)
    # a division, not n (1/n~): n = n~ must give n/n~ = 1 and log(n/n~) = 0
    logratio = np.log(np.divide(n, ntil, out=c.logratio), out=c.logratio)
    # nothing reads n~ after this: every "/ n~" below is a product with 1/n~,
    # written over it
    inv_ntil = np.divide(1.0, ntil, out=c.inv_ntil)
    # Pi(n | n~) = max(n log(n/n~) - (n - n~), 0)
    nlog = np.multiply(n, logratio, out=c.nlog)
    pi = np.subtract(nlog, dn, out=c.pi)
    np.maximum(pi, 0.0, out=pi)
    # d/dxi log(n/n~): only the solution part is differenced, n~'/n~ is analytic
    dlog = np.multiply(ntil_prime, inv_ntil, out=c.dlog)
    np.subtract(state._dlog_n, dlog, out=dlog)
    # eta = 0.5 u u + Pi
    eta = np.multiply(0.5, u, out=c.eta)
    eta *= u
    eta += pi
    a_over_ntil = np.multiply(a, inv_ntil, out=c.a_over_ntil)

    # Y = int n~' (ell eta + (a/n~)(n - n~) - a u/sigma), ell = lam/eps; the
    # bracket keeps its row, since Y_s reads it against the tube's complement
    y = np.multiply(ell, eta, out=c.y_bracket)
    y += np.multiply(a_over_ntil, dn, out=w)
    np.multiply(a, u, out=w)
    w *= 1.0 / params.sigma
    y -= w
    c.Y = integrate_values(np.multiply(y, ntil_prime, out=w), dx)

    # I_bad = int n~' ((a/n~ + ell)((n - n~) u + n log(n/n~) d/dxi log(n/n~))
    #   + Pi ((a/n~)(A + B)/(nu sigma) + ell q)), with A + B the offsets'
    #   sum, so (A + B)/(nu sigma) = n~''/n~'.  The report's B1 and B3 read
    #   three of its arrays off their rows: n log(n/n~) d/dxi log(n/n~) in
    #   `nlog`, a/n~ + ell in t, and (a/n~)(A + B)/(nu sigma), written over
    #   the offsets' sum; the Pi bracket takes the dead row of log(n/n~)
    np.multiply(dn, u, out=w)
    nlog *= dlog
    w += nlog
    w *= np.add(a_over_ntil, ell, out=t)
    offsets *= a_over_ntil
    offsets *= 1.0 / (params.nu * params.sigma)
    bracket = np.multiply(ell, q, out=c.logratio)
    bracket += offsets
    bracket *= pi
    w += bracket
    w *= ntil_prime
    c.I_bad = integrate_values(w, dx)
    return c


def _complete(c: _Rows) -> None:
    """The report stage of the evaluation in `c`: I_good, D, the tube-free
    B1 and B3, and the arrays that the split reads.

    As in `_core`, each weighted integrand is n~' times a bracket (a' =
    -ell n~', ell = lam/eps), and a constant factor of the formula is
    applied to the integral.  B1 and B3 finish brackets that `_core` left
    in its rows."""
    params = c.params
    n, dx, w = c.n, c.dx, c.w
    a, u, pi, dlog, ntil_prime, a_over_ntil = c.a, c.u, c.pi, c.dlog, c.ntil_prime, c.a_over_ntil
    ell, sigma = params.lam / params.eps, params.sigma
    # I_good = sigma int a' u u/2 + sigma int a' Pi (G2) + D
    #   = -(sigma ell/2) int n~' u u - sigma ell int n~' Pi + D, with the
    #   dissipation D = int a n |d/dxi log(n/n~)|^2
    np.multiply(u, u, out=w)
    w *= ntil_prime
    g_q = -(0.5 * sigma * ell) * integrate_values(w, dx)
    c.G_pi = -(sigma * ell) * integrate_values(np.multiply(ntil_prime, pi, out=w), dx)
    np.multiply(a, n, out=w)
    w *= dlog
    w *= dlog
    c.D = integrate_values(w, dx)
    c.I_good = g_q + c.G_pi + c.D
    # B1 = int n~' Pi ((a/n~)(A + B)/(nu sigma) + ell q~): I_bad's Pi bracket
    # with q~ for q, since -(eps/lam) a'' = n~'' = n~' (A + B)/(nu sigma)
    np.multiply(ell, c.qtil, out=w)
    w += c.offsets
    w *= pi
    w *= ntil_prime
    c.B1 = integrate_values(w, dx)
    # B3 = int n~' (a/n~ + ell) n log(n/n~) d/dxi log(n/n~)
    np.multiply(c.t, c.nlog, out=w)
    w *= ntil_prime
    c.B3 = integrate_values(w, dx)
    # sigma phi = Pi(n|n~) + (1 + (eps/lam) a/n~)(n - n~)
    sigma_phi = np.multiply(a_over_ntil, params.eps / params.lam, out=c.sigma_phi)
    sigma_phi += 1.0
    sigma_phi *= c.dn
    sigma_phi += pi
    # 1/n~ is read for the last time (a/n~ was, above: its row takes the
    # tube's test)
    np.multiply(c.dn, c.inv_ntil, out=c.dn_rel)
    phi = np.multiply(sigma_phi, 1.0 / sigma, out=c.phi)
    np.square(np.add(u, phi, out=c.u_plus_phi), out=c.u_plus_phi_sq)
    np.abs(c.dn_rel, out=c.deviation)


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
    B1, B3, G2 and D come off it.  The tube masks carry the weight n~', so
    each of the eight tube integrands is one bracket times a mask, built in
    two scratch rows: a completed evaluation can be split at many deltas.
    """
    params = c.params
    sigma, ell, dx, w, v = params.sigma, params.lam / params.eps, c.dx, c.w, c.v
    phi, u, upp, upp_sq = c.phi, c.u, c.u_plus_phi, c.u_plus_phi_sq
    half = 0.5 * sigma * ell
    # n~' where |(n - n~)/n~| <= delta (ties go inside) and 0 elsewhere, and
    # n~' - that: each node's n~' goes whole to one mask
    inside = np.less_equal(c.deviation, delta, out=c.inside)
    inside *= c.ntil_prime
    outside = np.subtract(c.ntil_prime, inside, out=c.outside)

    np.multiply(phi, phi, out=w)
    w *= inside
    b2_in = -half * integrate_values(w, dx)
    np.multiply(c.sigma_phi, u, out=w)
    w *= outside
    b2_out = ell * integrate_values(w, dx)
    g1_in = -half * integrate_values(np.multiply(upp_sq, inside, out=w), dx)
    np.multiply(u, u, out=w)
    w *= outside
    g1_out = -half * integrate_values(w, dx)

    # ell (phi^2/2 + Pi) + a ((n - n~)/n~ + phi/sigma), inside
    np.multiply(0.5, phi, out=w)
    w *= phi
    w += c.pi
    w *= ell
    np.multiply(phi, 1.0 / sigma, out=v)
    v += c.dn_rel
    v *= c.a
    w += v
    w *= inside
    y_g = integrate_values(w, dx)

    # ell ((u + phi)^2/2 - phi (u + phi)), inside
    np.multiply(0.5, upp_sq, out=w)
    w -= np.multiply(phi, upp, out=v)
    w *= inside
    y_b = ell * integrate_values(w, dx)

    np.multiply(c.a, upp, out=w)
    w *= inside
    y_l = -(1.0 / sigma) * integrate_values(w, dx)
    y_s = integrate_values(np.multiply(c.y_bracket, outside, out=w), dx)
    return _Split(y_g, y_b, y_l, y_s, c.B1, b2_in, b2_out, c.B3, g1_in, g1_out, c.G_pi, c.D)


class NumericsError(RuntimeError):
    """Computed functionals break a sign or an identity that holds exactly."""


@dataclass(frozen=True)
class FunctionalReport:
    """Every functional of one (state, shift) pair, in the column order of
    the run table; building one checks the signs and the sum of Y's parts."""

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
        # B_delta and G_delta are the sums of their parts (_Split.B and .G);
        # Y comes from its own integrand, so its parts can disagree with it
        gap = abs(self.Y - (self.Y_g + self.Y_b + self.Y_l + self.Y_s))
        if gap > 1e-10 * max(1.0, abs(self.Y)):
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
