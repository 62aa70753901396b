"""Scalar functionals of a state relative to the traveling wave.

Relative entropies, the entropy-evolution pieces Y / I_bad / I_good, their
maximized split B_delta / G_delta, the dissipation D, the wave-strength
expansion functionals, the tube truncation, and the parts of Y, B and G
over the tube {|n/n~ - 1| <= delta_1} and its complement.

All reference objects (n~, q~, a and derivatives) are evaluated in closed
form at arbitrary points, optionally translated by a shift; only solution
fields are ever differenced.  Every integral is the same composite
trapezoid rule, so the algebraic identities between these functionals hold
at machine precision on any grid.

Every functional of one (state, shift) pair reads one `_Core`, which builds
each nodewise array and each shared integral at most once, on first use, and
keeps it for as long as the core lives (one evaluation).  Two arrays outlive
a core: d/dxi log n is kept on its State for the state's life, and the node
coordinates on their Grid.

`evaluate_report` is the one way to read the functionals of a pair: it
returns one flat `FunctionalReport` whose field order is the column order of
the run table.  The shift substeps need only Y and I_bad, and read them with
`y_and_ibad`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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
    profile_q,
    weight_a,
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
    "eta_rel",
    "phi_of_n",
    "truncate",
    "ExpansionFunctionals",
    "expansion_functionals",
    "R_eps_delta",
]


class _cached:
    """`functools.cached_property` as Python 3.12 has it: without a lock.

    On 3.10 and 3.11 the first read of a cached_property on any instance
    takes one RLock that all instances share, and a run reads ~67 of them
    for the first time each step.  This descriptor defines no __set__, so
    the first read stores the value in the instance's __dict__ and every
    later read finds it there without calling the descriptor.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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

    @_cached
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


def reference_arrays(params: WaveParams, grid: Grid, shift: float = 0.0) -> ReferenceArrays:
    """Evaluate all reference objects at the grid nodes minus the shift.

    Functionals of the shifted state U^X use references translated by X;
    translating the analytic objects is exact and never interpolates U.
    The profile and its offsets n~ - n_-, n~ - n_+ are evaluated once; the
    other five arrays are algebraic in them, through the same expressions as
    the pointwise functions of `wave`.  a'' is not among them: the split's
    B1, its only reader, builds it.
    """
    xi = grid._nodes - shift
    n = np.asarray(profile_n(params, xi))
    below, above = _offsets_of(params, n)
    n_prime = _n_prime_of(params, below, above)
    return ReferenceArrays(
        xi=xi,
        ntil=n,
        ntil_prime=n_prime,
        ntil_second=_n_second_of(params, n_prime, below, above),
        qtil=_q_of(params, below),
        a=_a_of(params, below),
        a_prime=_a_derivative_of(params, n_prime),
    )


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


def eta_rel(u1, u2):
    """Relative entropy |q1 - q2|^2 / 2 + Pi(n1 | n2) for states (n, q)."""
    n1, q1 = u1
    n2, q2 = u2
    dq = np.asarray(q1, dtype=float) - np.asarray(q2, dtype=float)
    out = 0.5 * dq * dq + pi_rel(n1, n2)
    return float(out) if np.ndim(out) == 0 else out


def phi_of_n(params: WaveParams, xi, n):
    """phi(n) = (1/sigma) (Pi(n|n~) + (1 + (eps/lam) a/n~)(n - n~)) at xi."""
    ntil = np.asarray(profile_n(params, xi))
    a = np.asarray(weight_a(params, xi))
    n_arr = np.asarray(n, dtype=float)
    ratio = params.eps / params.lam
    out = (pi_rel(n_arr, ntil) + (1.0 + ratio * a / ntil) * (n_arr - ntil)) / params.sigma
    return float(out) if out.ndim == 0 else out


class _Core:
    """The nodewise arrays and shared integrals of one (state, shift) pair.

    The references are built with the core; every other array and integral
    is a cached property, filled on first use from the ones it reads and
    kept for the life of the core (one evaluation: a report, or the
    (Y, I_bad) of one shift substep).  So each is built at most once per
    pair, and a core asked only for Y and I_bad never builds phi or the
    split's arrays.  Each piece keeps the left-to-right operation order of
    the formulas that read it, so every value is bit-identical to writing
    those formulas out in full.  The one shift-independent array, d/dxi
    log n, is kept on the State and shared by its cores at every shift.
    """

    def __init__(self, params: WaveParams, state: State, shift: float):
        self.params = params
        self.state = state
        self.refs = reference_arrays(params, state.grid, shift)
        self.dx = state.grid.dx
        self.n = state.n.values
        self.q = state.q.values
        self.ratio = params.eps / params.lam

    @_cached
    def u(self) -> np.ndarray:
        return self.q - self.refs.qtil

    @_cached
    def dn(self) -> np.ndarray:
        """n - n~"""
        return self.n - self.refs.ntil

    @_cached
    def dn_rel(self) -> np.ndarray:
        """(n - n~) / n~"""
        return self.dn / self.refs.ntil

    @_cached
    def n_over_ntil(self) -> np.ndarray:
        return self.n / self.refs.ntil

    @_cached
    def logratio(self) -> np.ndarray:
        """log(n / n~)"""
        return np.log(self.n_over_ntil)

    @_cached
    def pi(self) -> np.ndarray:
        """Pi(n | n~)"""
        return np.maximum(self.n * self.logratio - self.dn, 0.0)

    @_cached
    def dlog(self) -> np.ndarray:
        """d/dxi log(n/n~): only the solution part is differenced."""
        # n~'/n~ analytic avoids cancellation
        return self.state._dlog_n - self.refs.ntil_prime / self.refs.ntil

    @_cached
    def eta(self) -> np.ndarray:
        return 0.5 * self.u * self.u + self.pi

    @_cached
    def neg_a_prime(self) -> np.ndarray:
        return -self.refs.a_prime

    @_cached
    def a_prime_pi(self) -> np.ndarray:
        return self.refs.a_prime * self.pi

    @_cached
    def ratio_a(self) -> np.ndarray:
        """(eps/lam) a"""
        return self.ratio * self.refs.a

    @_cached
    def ratio_a_a_prime(self) -> np.ndarray:
        """(eps/lam) a a'"""
        return self.ratio_a * self.refs.a_prime

    @_cached
    def coeff(self) -> np.ndarray:
        """1 + (eps/lam) a / n~"""
        return 1.0 + self.ratio_a / self.refs.ntil

    @_cached
    def sigma_phi(self) -> np.ndarray:
        """sigma phi = Pi(n|n~) + (1 + (eps/lam) a/n~)(n - n~)"""
        return self.pi + self.coeff * self.dn

    @_cached
    def phi(self) -> np.ndarray:
        return self.sigma_phi / self.params.sigma

    @_cached
    def a_prime_phi(self) -> np.ndarray:
        return self.refs.a_prime * self.phi

    @_cached
    def u_plus_phi(self) -> np.ndarray:
        return self.u + self.phi

    @_cached
    def u_plus_phi_sq(self) -> np.ndarray:
        return self.u_plus_phi**2

    @_cached
    def y_integrand(self) -> np.ndarray:
        """Integrand of Y; restricted to the tube's complement it is Y_s's."""
        return self.neg_a_prime * self.eta - self.ratio_a_a_prime * (
            self.dn_rel - self.u / self.params.sigma
        )

    @_cached
    def qtil_term(self) -> float:
        """int -a' q~ Pi(n|n~): a term of I_bad and of B1."""
        return integrate_values(self.neg_a_prime * self.refs.qtil * self.pi, self.dx)

    @_cached
    def G_pi(self) -> float:
        """sigma int a' Pi(n|n~): a term of I_good, and G2."""
        return self.params.sigma * integrate_values(self.a_prime_pi, self.dx)

    @_cached
    def D(self) -> float:
        """The dissipation int a n |d/dxi log(n/n~)|^2."""
        return integrate_values(self.refs.a * self.n * self.dlog * self.dlog, self.dx)

    @_cached
    def eta_weighted(self) -> float:
        return integrate_values(self.refs.a * self.eta, self.dx)

    @_cached
    def eta_unweighted(self) -> float:
        return integrate_values(self.eta, self.dx)

    @_cached
    def Y(self) -> float:
        """Shift-sensitivity functional Y(U) in its explicit rewritten form."""
        return integrate_values(self.y_integrand, self.dx)

    @_cached
    def I_bad(self) -> float:
        """Sign-indefinite terms of the entropy-evolution identity."""
        r = self.refs
        a_ntil_prime = r.a * r.ntil_prime / r.ntil
        coupling = self.a_prime_pi + (r.a_prime - a_ntil_prime) * self.dn
        t1 = integrate_values(-coupling * self.u, self.dx)
        t3 = integrate_values(
            (a_ntil_prime - r.a_prime) * self.n * self.logratio * self.dlog, self.dx
        )
        t4 = integrate_values(r.a * (r.ntil_second / r.ntil) * self.pi, self.dx)
        return t1 + self.qtil_term + t3 + t4

    @_cached
    def I_good(self) -> float:
        """Sum of the three nonnegative dissipative terms."""
        u = self.u
        g_q = self.params.sigma * integrate_values(0.5 * self.refs.a_prime * u * u, self.dx)
        return g_q + self.G_pi + self.D


def _core(params: WaveParams, state: State, shift: float) -> _Core:
    return _Core(params, state, shift)


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


def _split(params: WaveParams, c: _Core, delta: float) -> _Split:
    r = c.refs
    inside = (np.abs(c.n_over_ntil - 1.0) <= delta).astype(float)  # ties go inside
    outside = 1.0 - inside

    a_second = _a_derivative_of(params, r.ntil_second)
    b1 = c.qtil_term + integrate_values(-c.ratio * a_second * (r.a / r.ntil) * c.pi, c.dx)
    b2_in = 0.5 * params.sigma * integrate_values(c.a_prime_phi * c.phi * inside, c.dx)
    b2_out = integrate_values(c.neg_a_prime * c.sigma_phi * c.u * outside, c.dx)
    b3 = integrate_values(c.neg_a_prime * c.coeff * c.n * c.logratio * c.dlog, c.dx)

    g1_in = 0.5 * params.sigma * integrate_values(r.a_prime * c.u_plus_phi_sq * inside, c.dx)
    g1_out = 0.5 * params.sigma * integrate_values(r.a_prime * c.u * c.u * outside, c.dx)

    y_g = integrate_values(
        (c.neg_a_prime * (0.5 * c.phi * c.phi + c.pi)
         - c.ratio_a_a_prime * (c.dn_rel + c.phi / params.sigma))
        * inside,
        c.dx,
    )
    y_b = integrate_values(
        (-0.5 * r.a_prime * c.u_plus_phi_sq + c.a_prime_phi * c.u_plus_phi) * inside, c.dx
    )
    y_l = (c.ratio / params.sigma) * integrate_values(
        r.a * r.a_prime * c.u_plus_phi * inside, c.dx
    )
    y_s = integrate_values(c.y_integrand * outside, c.dx)
    return _Split(y_g, y_b, y_l, y_s, b1, b2_in, b2_out, b3, g1_in, g1_out, c.G_pi, c.D)


def truncate(params: WaveParams, n: GridField, theta: float, shift: float = 0.0) -> GridField:
    """Clamp n into the tube |n/n~ - 1| <= theta around the (shifted) wave."""
    if not 0.0 < theta < 0.5:
        raise DomainError("theta must lie in (0, 1/2)")
    refs = reference_arrays(params, n.grid, shift)
    w = n.values / refs.ntil - 1.0
    out = np.where(w > theta, (1.0 + theta) * refs.ntil, n.values)
    out = np.where(w < -theta, (1.0 - theta) * refs.ntil, out)
    return n.with_values(out)


class ExpansionFunctionals(NamedTuple):
    """The density-only functionals of the wave-strength expansion."""

    Y_g: float
    I1: float
    I2: float
    G2: float
    D: float


def expansion_functionals(
    params: WaveParams, n: GridField, shift: float = 0.0
) -> ExpansionFunctionals:
    """Evaluate (Y_g, I1, I2, G2, D) for a density field over the whole line.

    They are the split of the state (n, q~), whose q-perturbation vanishes,
    with the whole line inside the tube: Y_g, B1, B2_in, G2 and D.
    """
    q = n.with_values(np.asarray(profile_q(params, n.grid._nodes - shift)))
    s = _split(params, _core(params, State(n=n, q=q), shift), np.inf)
    return ExpansionFunctionals(s.Y_g, s.B1, s.B2_in, s.G2, s.G_D)


def R_eps_delta(params: WaveParams, n: GridField, delta: float, shift: float = 0.0) -> float:
    """Density-only sign functional of the near-wave expansion."""
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    f = expansion_functionals(params, n, shift)
    ratio = params.eps / params.lam
    return (
        -(f.Y_g**2) / (params.eps * delta)
        + (f.I1 + f.I2)
        + delta * ratio * (abs(f.I1) + abs(f.I2))
        - (1.0 - delta * ratio) * f.G2
        - (1.0 - delta) * f.D
    )


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
    s = _split(params, c, delta1)
    y, b, g = c.Y, s.B, s.G
    r = -(y * y) / params.eps**4 + b + delta0 * (params.eps / params.lam) * abs(b) - g + delta0 * s.G_D
    return FunctionalReport(
        c.eta_weighted, y, c.I_bad, c.I_good, b, g, c.D, *s, r, delta1, c.eta_unweighted
    )


def y_and_ibad(params: WaveParams, state: State, shift: float = 0.0) -> tuple[float, float]:
    """Just Y and I_bad: the shift ODE right-hand side inputs."""
    c = _core(params, state, shift)
    return c.Y, c.I_bad
