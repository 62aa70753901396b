"""Shift velocity law and its explicit sub-stepped integrator.

The shift X(t) translates the reference wave so that the weighted relative
entropy is non-increasing: Xdot = Phi_eps(Y(U^X)) (2 |I_bad(U^X)| + 1),
X(0) = 0, with Phi_eps saturating at +-1/eps^2 outside |Y| <= eps^2.
"""

from __future__ import annotations

from .functionals import State, y_and_ibad
from .wave import WaveParams

__all__ = ["SUBSTEPS", "phi_eps", "phi_regime", "velocity", "advance"]

# forward-Euler substeps of the shift ODE per PDE step
SUBSTEPS = 4


def phi_eps(y: float, eps: float) -> float:
    """Continuous, odd, nonincreasing velocity gain.

    1/eps^2 for y <= -eps^2, -y/eps^4 in between, -1/eps^2 for y >= eps^2.
    """
    e2 = eps * eps
    if y <= -e2:
        return 1.0 / e2
    if y >= e2:
        return -1.0 / e2
    return -y / (e2 * e2)


def phi_regime(y: float, eps: float) -> str:
    e2 = eps * eps
    if y <= -e2:
        return "saturated_plus"
    if y >= e2:
        return "saturated_minus"
    return "linear"


def velocity(y: float, ibad: float, eps: float) -> float:
    """The shift velocity Xdot = Phi_eps(Y) (2 |I_bad| + 1) of a state's Y and I_bad."""
    return phi_eps(y, eps) * (2.0 * abs(ibad) + 1.0)


def advance(
    x: float, state: State, dt: float, params: WaveParams, start: tuple[float, float]
) -> float:
    """Advance the shift X across one PDE step with the state frozen; return
    the new X.

    SUBSTEPS forward-Euler substeps of Xdot = velocity(Y, I_bad, eps), with
    eps = params.eps; Y and I_bad are re-evaluated with the references
    translated by each intermediate X, so the right-hand side stays smooth
    in X through the analytic profiles.  Each (state, X) pair is evaluated
    once: `start` is (Y, I_bad) at (state, x), which the caller already
    holds, and only the later substeps evaluate.
    """
    h = dt / SUBSTEPS
    x += h * velocity(*start, params.eps)
    for _ in range(SUBSTEPS - 1):
        x += h * velocity(*y_and_ibad(params, state, shift=x), params.eps)
    return x
