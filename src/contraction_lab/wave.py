"""Exact traveling-wave profiles, the monotone weight, and coordinate maps.

Everything here is closed form: the density profile is the logistic solution
of its first-order ODE, and the velocity profile, weight, and xi <-> y maps
follow algebraically.  No quantity in this module is ever obtained by
numerical differentiation or ODE integration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "EndStates",
    "WaveParams",
    "derive_end_state",
    "make_wave_params",
    "rankine_hugoniot_residuals",
    "profile_n",
    "profile_n_prime",
    "profile_n_second",
    "profile_q",
    "weight_a",
    "weight_a_prime",
    "y_of_xi",
    "xi_of_y",
    "characteristic_speeds",
]

# exp argument beyond this the logistic is constant to machine precision
EXP_CLAMP = 700.0


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


def _wave_speed(n_plus: float, q_minus: float) -> float:
    """Positive root of sigma^2 + q_- sigma - n_+ = 0.

    For q_- > 0 the textbook form -q_- + sqrt(q_-^2 + 4 n_+) cancels
    catastrophically when n_+ is small; the conjugate form avoids it.
    """
    disc = math.sqrt(q_minus**2 + 4.0 * n_plus)
    if q_minus > 0.0:
        return 2.0 * n_plus / (q_minus + disc)
    return 0.5 * (-q_minus + disc)


@dataclass(frozen=True)
class EndStates:
    """Left/right constant states joined by the shock.

    Normalized to the decreasing-density branch: n_- > n_+ > 0 and
    q_- < q_+.  Construction enforces the jump conditions.
    """

    n_minus: float
    n_plus: float
    q_minus: float
    q_plus: float

    def __post_init__(self):
        if not (self.n_minus > 0.0 and self.n_plus > 0.0):
            raise DomainError("densities must be positive")
        if not (self.n_minus > self.n_plus and self.q_minus < self.q_plus):
            raise DomainError(
                "end states must satisfy n_- > n_+ and q_- < q_+ "
                "(normalize with x -> -x first)"
            )
        r1, r2 = rankine_hugoniot_residuals(self)
        if max(abs(r1), abs(r2)) > 1e-12:
            raise DomainError(f"jump-condition residuals too large: {r1:.3e}, {r2:.3e}")

    @property
    def sigma(self) -> float:
        return _wave_speed(self.n_plus, self.q_minus)


def rankine_hugoniot_residuals(end: EndStates) -> tuple[float, float]:
    """Residuals of the two jump conditions at the end states' shock speed."""
    sigma = _wave_speed(end.n_plus, end.q_minus)
    r1 = -sigma * (end.n_plus - end.n_minus) - (
        end.n_plus * end.q_plus - end.n_minus * end.q_minus
    )
    r2 = -sigma * (end.q_plus - end.q_minus) - (end.n_plus - end.n_minus)
    return r1, r2


def derive_end_state(n_minus: float, q_minus: float, eps: float) -> EndStates:
    """Complete (n_-, q_-) and a shock strength eps to a full end-state pair.

    n_+ = n_- - eps and q_+ follows from the jump condition
    q_+ = q_- + eps / sigma with sigma the positive speed root.
    """
    if not eps > 0.0:
        raise DomainError("eps must be positive")
    if eps >= n_minus:
        raise DomainError("eps >= n_minus would make n_+ non-positive")
    n_plus = n_minus - eps
    sigma = _wave_speed(n_plus, q_minus)
    q_plus = q_minus + eps / sigma
    return EndStates(n_minus=n_minus, n_plus=n_plus, q_minus=q_minus, q_plus=q_plus)


@dataclass(frozen=True)
class WaveParams:
    """End states plus the parameters every downstream functional needs.

    eps is the shock strength n_- - n_+, lam the total variation of the
    weight, sigma the shock speed, sigma_minus the left sound-type speed,
    nu the viscosity (profiles stretch as xi/nu).
    """

    end_states: EndStates
    eps: float
    lam: float
    sigma: float
    sigma_minus: float
    nu: float = 1.0

    def __post_init__(self):
        e = self.end_states
        if not (0.0 < self.eps < e.n_minus):
            raise DomainError("need 0 < eps < n_minus")
        if abs(self.eps - (e.n_minus - e.n_plus)) > 1e-12 * max(1.0, e.n_minus):
            raise DomainError("eps must equal n_minus - n_plus")
        if not self.lam > 0.0:
            raise DomainError("lam must be positive")
        if not self.nu > 0.0:
            raise DomainError("nu must be positive")
        sig = _wave_speed(e.n_plus, e.q_minus)
        sig_minus = _wave_speed(e.n_minus, e.q_minus)
        if abs(self.sigma - sig) > 1e-12 * max(1.0, sig):
            raise DomainError("sigma is not the positive speed root")
        if abs(self.sigma_minus - sig_minus) > 1e-12 * max(1.0, sig_minus):
            raise DomainError("sigma_minus inconsistent with end states")
        if not (0.0 < self.sigma < self.sigma_minus):
            raise DomainError("expected 0 < sigma < sigma_minus")

    @property
    def n_minus(self) -> float:
        return self.end_states.n_minus

    @property
    def n_plus(self) -> float:
        return self.end_states.n_plus

    @property
    def q_minus(self) -> float:
        return self.end_states.q_minus

    @property
    def q_plus(self) -> float:
        return self.end_states.q_plus


def make_wave_params(
    n_minus: float,
    q_minus: float,
    eps: float,
    lam: float,
    nu: float = 1.0,
) -> WaveParams:
    """Build WaveParams from primitive inputs.

    The contraction theory needs eps/lam and lam both small; a hard
    threshold is non-constructive, so only the structurally necessary part
    (eps < lam < 1/2) is checked, as a warning.
    """
    end = derive_end_state(n_minus, q_minus, eps)
    if not (eps < lam < 0.5):
        warnings.warn(
            f"eps={eps:g}, lam={lam:g} outside eps < lam < 1/2; "
            "contraction is not expected to be provable in this regime",
            stacklevel=2,
        )
    return WaveParams(
        end_states=end,
        eps=eps,
        lam=lam,
        sigma=_wave_speed(n_minus - eps, q_minus),
        sigma_minus=_wave_speed(n_minus, q_minus),
        nu=nu,
    )


def _logistic_arg(params: WaveParams, xi):
    z = params.eps * np.asarray(xi, dtype=float) / (params.nu * params.sigma)
    return np.clip(z, -EXP_CLAMP, EXP_CLAMP)


def _maybe_scalar(x, arr):
    return float(arr) if np.isscalar(x) or np.ndim(x) == 0 else arr


def profile_n(params: WaveParams, xi):
    """Density profile n~(xi) = n_+ + eps / (1 + exp(eps xi / (nu sigma))).

    Monotone decreasing, n~(0) = (n_- + n_+)/2, limits n_- and n_+.
    """
    z = _logistic_arg(params, xi)
    return _maybe_scalar(xi, params.n_plus + params.eps / (1.0 + np.exp(z)))


def _offsets_of(params: WaveParams, n):
    """(n~ - n_-, n~ - n_+), <= 0 and >= 0: the differences every formula
    below reads, named `below` and `above` there."""
    return n - params.n_minus, n - params.n_plus


def _n_prime_of(params: WaveParams, below, above):
    """n~' from the offsets (n~ - n_-, n~ - n_+) through the profile ODE."""
    return below * above / (params.nu * params.sigma)


def _n_second_of(params: WaveParams, n_prime, below, above):
    """n~'' from n~' and the offsets (n~ - n_-, n~ - n_+)."""
    return n_prime * (below + above) / (params.nu * params.sigma)


def _q_of(params: WaveParams, below):
    """q~ from n~ - n_-."""
    return params.q_minus - below / params.sigma


def _a_of(params: WaveParams, below):
    """a from n~ - n_-.

    1 - (lam/eps)(n~ - n_-) is 1 + (lam/eps)(n_- - n~) to the bit: a
    difference and a product change sign exactly.
    """
    return 1.0 - (params.lam / params.eps) * below


def _a_derivative_of(params: WaveParams, n_derivative):
    """a' from n~', or a'' from n~''."""
    return -(params.lam / params.eps) * n_derivative


def profile_n_prime(params: WaveParams, xi):
    """n~'(xi) = (n~ - n_-)(n~ - n_+) / (nu sigma) < 0."""
    n = np.asarray(profile_n(params, xi))
    return _maybe_scalar(xi, _n_prime_of(params, *_offsets_of(params, n)))


def profile_n_second(params: WaveParams, xi):
    """n~''(xi) = n~' * ((n~ - n_-) + (n~ - n_+)) / (nu sigma)."""
    n = np.asarray(profile_n(params, xi))
    below, above = _offsets_of(params, n)
    return _maybe_scalar(xi, _n_second_of(params, _n_prime_of(params, below, above), below, above))


def profile_q(params: WaveParams, xi):
    """Velocity-type profile q~(xi) = q_- - (n~(xi) - n_-) / sigma."""
    n = np.asarray(profile_n(params, xi))
    return _maybe_scalar(xi, _q_of(params, _offsets_of(params, n)[0]))


def weight_a(params: WaveParams, xi):
    """Weight a(xi) = 1 + (lam/eps)(n_- - n~(xi)); increases from 1 to 1+lam."""
    n = np.asarray(profile_n(params, xi))
    return _maybe_scalar(xi, _a_of(params, _offsets_of(params, n)[0]))


def weight_a_prime(params: WaveParams, xi):
    """a'(xi) = -(lam/eps) n~'(xi) > 0."""
    return _maybe_scalar(xi, _a_derivative_of(params, np.asarray(profile_n_prime(params, xi))))


def y_of_xi(params: WaveParams, xi):
    """Normalized wave coordinate y = (n_- - n~(xi)) / eps in (0, 1).

    Equals the logistic 1/(1 + exp(-eps xi / (nu sigma))).
    """
    z = _logistic_arg(params, xi)
    # evaluate the logistic on the stable side of the exponent
    out = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    return _maybe_scalar(xi, out)


def xi_of_y(params: WaveParams, y):
    """Inverse map xi = (nu sigma / eps) * log(y / (1 - y)) for y in (0, 1)."""
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0.0) or np.any(y_arr >= 1.0):
        raise DomainError("xi_of_y requires 0 < y < 1 (endpoints map to +-infinity)")
    out = (params.nu * params.sigma / params.eps) * np.log(y_arr / (1.0 - y_arr))
    return _maybe_scalar(y, out)


def characteristic_speeds(n, q, sigma: float):
    """Eigenvalues of the moving-frame first-order part at state (n, q).

    mu_pm = -sigma + (-q +- sqrt(q^2 + 4n)) / 2; used for CFL control.
    """
    n = np.asarray(n, dtype=float)
    q = np.asarray(q, dtype=float)
    root = np.sqrt(q * q + 4.0 * n)
    return -sigma + 0.5 * (-q - root), -sigma + 0.5 * (-q + root)
