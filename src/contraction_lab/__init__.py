"""Numerical laboratory for weighted-entropy contraction of viscous shocks
in a 1-D hyperbolic-parabolic chemotaxis system."""

from .functionals import (
    FunctionalReport,
    NumericsError,
    State,
    evaluate_report,
    pi_rel,
    reference_arrays,
)
from .grid import Grid, GridField
from .poincare import R_poincare, scan_delta_star
from .shift import advance, phi_eps
from .solver import (
    PerturbationSpec,
    RunResult,
    SolverConfig,
    StabilityError,
    initial_state,
    run,
)
from .wave import (
    DomainError,
    WaveParams,
    make_wave_params,
    profile_n,
    profile_n_prime,
    profile_n_second,
    profile_q,
    weight_a,
    weight_a_prime,
    xi_of_y,
    y_of_xi,
)

__version__ = "0.1.0"
