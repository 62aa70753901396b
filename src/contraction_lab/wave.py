"""Exact traveling-wave profiles, the monotone weight, and coordinate maps.

Everything here is closed form: the density profile is the logistic solution
of its first-order ODE, and the velocity profile, weight, and xi <-> y maps
follow algebraically.  No quantity in this module is ever obtained by
numerical differentiation or ODE integration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainError",
    "WaveParams",
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
class WaveParams:
    """The five inputs that fix the wave, and what follows from them.

    n_minus, q_minus are the left state, eps the shock strength
    n_- - n_+, lam the total variation of the weight, nu the viscosity
    (profiles stretch as xi/nu).  The right state n_plus = n_- - eps and
    q_plus = q_- + eps / sigma, the shock speed sigma (the positive root of
    sigma^2 + q_- sigma - n_+ = 0) and the left sound-type speed sigma_minus
    are derived from them.  Construction enforces the decreasing-density
    branch n_- > n_+ > 0, q_- < q_+ and the jump conditions.
    """

    n_minus: float
    q_minus: float
    eps: float
    lam: float
    nu: float = 1.0
    n_plus: float = field(init=False)
    q_plus: float = field(init=False)
    sigma: float = field(init=False)
    sigma_minus: float = field(init=False)

    def __post_init__(self):
        if not self.eps > 0.0:
            raise DomainError("eps must be positive")
        if self.eps >= self.n_minus:
            raise DomainError("eps >= n_minus would make n_+ non-positive")
        n_plus = self.n_minus - self.eps
        sigma = _wave_speed(n_plus, self.q_minus)
        object.__setattr__(self, "n_plus", n_plus)
        object.__setattr__(self, "q_plus", self.q_minus + self.eps / sigma)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma_minus", _wave_speed(self.n_minus, self.q_minus))
        # n_+ > 0 follows from 0 < eps < n_-; this also refuses a NaN n_-
        if not (self.n_minus > n_plus and self.q_minus < self.q_plus):
            raise DomainError(
                "end states must satisfy n_- > n_+ and q_- < q_+ "
                "(normalize with x -> -x first)"
            )
        # the terms of the jump conditions (sigma n_-+, n_-+ q_-+; sigma q_-+,
        # n_-+) grow like sigma n, so each residual is held to the largest term
        # of its condition: r2 is 0 by algebra, and r1 equals
        # (eps/sigma)(sigma^2 + q_- sigma - n_+), so it tests the speed's root
        r1, r2 = rankine_hugoniot_residuals(self)
        mass = max(sigma * self.n_minus, abs(n_plus * self.q_plus), abs(self.n_minus * self.q_minus))
        momentum = max(sigma * abs(self.q_plus), sigma * abs(self.q_minus), self.n_minus)
        if abs(r1) > 1e-12 * mass or abs(r2) > 1e-12 * momentum:
            raise DomainError(f"jump-condition residuals too large: {r1:.3e}, {r2:.3e}")
        if not self.lam > 0.0:
            raise DomainError("lam must be positive")
        if not self.nu > 0.0:
            raise DomainError("nu must be positive")
        if not (0.0 < sigma < self.sigma_minus):
            raise DomainError("expected 0 < sigma < sigma_minus")


def rankine_hugoniot_residuals(params: WaveParams) -> tuple[float, float]:
    """Residuals of the two jump conditions at the wave's end states and speed."""
    p = params
    r1 = -p.sigma * (p.n_plus - p.n_minus) - (p.n_plus * p.q_plus - p.n_minus * p.q_minus)
    r2 = -p.sigma * (p.q_plus - p.q_minus) - (p.n_plus - p.n_minus)
    return r1, r2


def make_wave_params(
    n_minus: float,
    q_minus: float,
    eps: float,
    lam: float,
    nu: float = 1.0,
) -> WaveParams:
    """Build WaveParams from its five inputs.

    The contraction theory needs eps/lam and lam both small; a hard
    threshold is non-constructive, so only the structurally necessary part
    (eps < lam < 1/2) is checked, as a warning.
    """
    params = WaveParams(n_minus=n_minus, q_minus=q_minus, eps=eps, lam=lam, nu=nu)
    if not (eps < lam < 0.5):
        warnings.warn(
            f"eps={eps:g}, lam={lam:g} outside eps < lam < 1/2; "
            "contraction is not expected to be provable in this regime",
            stacklevel=2,
        )
    return params


def _logistic_arg(params: WaveParams, xi):
    """eps xi / (nu sigma) clamped to +-EXP_CLAMP, in one new array (0-d for
    a scalar xi) that the caller may overwrite.

    The scale is one multiply by the number eps / (nu sigma): an array
    divide costs over twice a multiply, so the helpers below multiply by
    the reciprocal where a formula divides by a number.  The one array
    division left is the profile's eps / (1 + exp(.)), whose divisor is an
    array.
    """
    z = np.multiply(params.eps / (params.nu * params.sigma), xi, out=np.empty(np.shape(xi)))
    return np.clip(z, -EXP_CLAMP, EXP_CLAMP, out=z)


def _maybe_scalar(x, arr):
    return float(arr) if np.isscalar(x) or np.ndim(x) == 0 else arr


def profile_n(params: WaveParams, xi):
    """Density profile n~(xi) = n_+ + eps / (1 + exp(eps xi / (nu sigma))).

    Monotone decreasing, n~(0) = (n_- + n_+)/2, limits n_- and n_+.
    """
    e = _logistic_arg(params, xi)
    np.exp(e, out=e)
    return _maybe_scalar(xi, _profile_of_exp(params, e, out=e))


def _profile_of_exp(params: WaveParams, e, out=None):
    """n~ = n_+ + eps / (1 + e) from e = exp(eps xi / (nu sigma)), into
    `out` (it may be e) or into new storage."""
    n = np.add(e, 1.0, out=out)
    np.divide(params.eps, n, out=n)
    n += params.n_plus
    return n


def _offsets_of(params: WaveParams, n, below=None, above=None):
    """(n~ - n_-, n~ - n_+), <= 0 and >= 0: the differences every formula
    below reads, named `below` and `above` there (and the optional outputs)."""
    return np.subtract(n, params.n_minus, out=below), np.subtract(n, params.n_plus, out=above)


def _n_prime_of(params: WaveParams, below, above, out=None):
    """n~' from the offsets (n~ - n_-, n~ - n_+) through the profile ODE.

    Like the helpers below it computes into `out` when one is given (it may
    be an input the caller no longer needs), and into new storage otherwise.
    """
    n_prime = np.multiply(below, above, out=out)
    return np.multiply(n_prime, 1.0 / (params.nu * params.sigma), out=out)


def _n_second_of(params: WaveParams, n_prime, offset_sum, out=None):
    """n~'' from n~' and the sum (n~ - n_-) + (n~ - n_+) of the offsets."""
    n_second = np.multiply(n_prime, offset_sum, out=out)
    return np.multiply(n_second, 1.0 / (params.nu * params.sigma), out=out)


def _q_of(params: WaveParams, below, out=None):
    """q~ from n~ - n_-."""
    q = np.multiply(below, 1.0 / params.sigma, out=out)
    return np.subtract(params.q_minus, q, out=out)


def _a_of(params: WaveParams, below, out=None):
    """a from n~ - n_-.

    1 - (lam/eps)(n~ - n_-) is 1 + (lam/eps)(n_- - n~) to the bit: a
    difference and a product change sign exactly.
    """
    a = np.multiply(params.lam / params.eps, below, out=out)
    return np.subtract(1.0, a, out=out)


def _a_derivative_of(params: WaveParams, n_derivative, out=None):
    """a' from n~', or a'' from n~''."""
    return np.multiply(-(params.lam / params.eps), n_derivative, out=out)


def profile_n_prime(params: WaveParams, xi):
    """n~'(xi) = (n~ - n_-)(n~ - n_+) / (nu sigma) < 0."""
    n = np.asarray(profile_n(params, xi))
    return _maybe_scalar(xi, _n_prime_of(params, *_offsets_of(params, n)))


def profile_n_second(params: WaveParams, xi):
    """n~''(xi) = n~' * ((n~ - n_-) + (n~ - n_+)) / (nu sigma)."""
    n = np.asarray(profile_n(params, xi))
    below, above = _offsets_of(params, n)
    return _maybe_scalar(xi, _n_second_of(params, _n_prime_of(params, below, above), below + above))


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
