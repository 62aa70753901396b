from typing import NamedTuple

import numpy as np
import pytest

from contraction_lab import Grid, make_wave_params
from contraction_lab.functionals import _complete, _core, _entropies
from contraction_lab.wave import (
    profile_n,
    profile_n_prime,
    profile_n_second,
    profile_q,
    weight_a,
    weight_a_prime,
)


@pytest.fixture(scope="session")
def params():
    """Default lab wave: n_- = 2, q_- = 0, eps = 0.1, lam = 0.3."""
    return make_wave_params(2.0, 0.0, eps=0.1, lam=0.3)


@pytest.fixture(scope="session")
def small_params():
    """Weak shock used by the contraction-scale checks."""
    return make_wave_params(2.0, 0.0, eps=0.05, lam=0.25)


def lab_grid(params, num_cells=1024, half_width_factor=30.0):
    half = half_width_factor * params.nu * params.sigma / params.eps
    return Grid(-half, half, num_cells)


@pytest.fixture(scope="session")
def grid(params):
    return lab_grid(params)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


def report_core(params, state, shift):
    """The evaluation of (state, shift) through its report stage: the rows
    and integrals a report reads, before the split, with the two entropies
    set on it as eta_weighted and eta_unweighted.  Its arrays hold until the
    next evaluation on the grid."""
    c = _core(params, state, shift)
    _complete(c)
    c.eta_weighted, c.eta_unweighted = _entropies(c)
    return c


class References(NamedTuple):
    """The wave and weight at the nodes of a grid, translated by a shift."""

    xi: np.ndarray
    ntil: np.ndarray
    ntil_prime: np.ndarray
    ntil_second: np.ndarray
    qtil: np.ndarray
    a: np.ndarray
    a_prime: np.ndarray


def pointwise_references(params, grid, shift=0.0):
    """Every reference at the grid nodes minus `shift`, from the pointwise
    functions of `wave`: the oracle that the kernel's rows are held to."""
    xi = grid.nodes() - shift
    return References(xi, *(
        np.asarray(fn(params, xi))
        for fn in (profile_n, profile_n_prime, profile_n_second, profile_q, weight_a, weight_a_prime)
    ))
