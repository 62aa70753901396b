import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import contraction_lab as cl
from contraction_lab import (
    DomainError,
    Grid,
    GridField,
    State,
    evaluate_report,
    pi_rel,
)
from contraction_lab.functionals import (
    ANCHOR_SPACING,
    _complete,
    _core,
    _split,
    reference_arrays,
)
from contraction_lab.grid import _ddx_central, integrate_product, integrate_values
from contraction_lab.identities import random_state
from contraction_lab.wave import (
    EXP_CLAMP,
    _logistic_arg,
    make_wave_params,
    profile_n,
    profile_q,
)

from conftest import References, lab_grid, pointwise_references, report_core

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*outside eps < lam < 1/2.*:UserWarning"
)

LN2 = np.log(2.0)


def wave_state(params, grid):
    refs = reference_arrays(params, grid)
    return State(n=GridField(grid, refs.ntil.copy()), q=GridField(grid, refs.qtil.copy()))


def perturbed_state(params, grid, amp_n=0.1, amp_q=0.1, width=None, seed=None):
    refs = reference_arrays(params, grid)
    xi = grid.nodes()
    w = width or 5.0 * params.sigma / params.eps * 0.2
    bump = np.exp(-(xi**2) / (2 * w**2))
    if seed is not None:
        rng = np.random.default_rng(seed)
        phase = rng.uniform(0, 2 * np.pi)
        bump = bump * np.cos(2 * np.pi * xi / (4 * w) + phase)
    n = refs.ntil * (1.0 + amp_n * bump)
    q = refs.qtil + amp_q * bump
    return State(n=GridField(grid, n), q=GridField(grid, q))


class TestPiRel:
    def test_coincidence(self):
        for x in (0.1, 1.0, 7.3):
            assert pi_rel(x, x) == 0.0

    def test_known_value(self):
        # oracle: Pi(n) = n log n - n, relative remainder at (2, 1)
        def big_pi(n):
            return n * np.log(n) - n

        oracle = big_pi(2.0) - big_pi(1.0) - np.log(1.0) * (2.0 - 1.0)
        assert oracle == pytest.approx(2 * LN2 - 1, rel=1e-15)
        assert pi_rel(2.0, 1.0) == pytest.approx(oracle, rel=1e-14)
        assert pi_rel(2.0, 1.0) == pytest.approx(0.3862943611198906, rel=1e-12)

    def test_monotone_in_distance(self):
        assert pi_rel(3.0, 1.0) > pi_rel(2.0, 1.0)
        assert pi_rel(0.2, 1.0) > pi_rel(0.5, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            pi_rel(-1.0, 1.0)
        with pytest.raises(DomainError):
            pi_rel(1.0, 0.0)

    @given(
        n1=st.floats(1e-3, 1e3),
        n2=st.floats(1e-3, 1e3),
    )
    def test_nonnegative_and_definite(self, n1, n2):
        val = pi_rel(n1, n2)
        assert val >= 0.0
        if abs(n1 / n2 - 1.0) > 1e-7:
            assert val > 0.0

    @given(
        m=st.floats(0.05, 20.0),
        a=st.floats(0.0, 5.0),
        b=st.floats(0.0, 5.0),
    )
    def test_monotonicity_away_from_anchor(self, m, a, b):
        # for m <= n2 <= n1 or n1 <= n2 <= m the value grows with distance
        n2, n1 = m + min(a, b), m + max(a, b)
        if n1 > 0 and n2 > 0:
            assert pi_rel(n1, m) >= pi_rel(n2, m) - 1e-14
        n2b, n1b = m * (1 - min(a, b) / 6.0), m * (1 - max(a, b) / 6.0)
        if n1b > 0 and n2b > 0:
            assert pi_rel(n1b, m) >= pi_rel(n2b, m) - 1e-14

    def test_quadratic_sandwich_frozen_constant(self):
        # frozen fit for n_- = 2: extremal ratio Pi/|dn|^2 is 0.2164 at
        # n1/n2 = 1.5, n2 = 2, so C1 = 5 sandwiches with margin
        c1 = 5.0
        rng = np.random.default_rng(42)
        n2 = rng.uniform(1.0, 2.0, size=100_000)  # (n_-/2, n_-)
        ratio = rng.uniform(0.5, 1.5, size=100_000)  # |n1/n2 - 1| <= 1/2
        n1 = ratio * n2
        val = pi_rel(n1, n2)
        gap2 = (n1 - n2) ** 2
        assert np.all(val <= c1 * gap2 + 1e-15)
        assert np.all(val >= gap2 / c1 - 1e-15)

    def test_taylor_lower_bound_and_radius(self):
        # exact cubic lower bound; locate the empirical radius by bisection
        def violated(radius):
            w = np.linspace(-radius, radius, 20001)
            w = w[np.abs(w) > 1e-9]
            n2 = 1.7
            lhs = pi_rel(n2 * (1.0 + w), n2)
            rhs = (n2 / 2.0) * (w**2 - w**3 / 3.0)
            return np.any(lhs < rhs - 1e-15)

        assert not violated(0.1)
        lo, hi = 0.1, 0.999
        if not violated(hi):
            radius = hi
        else:
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if violated(mid):
                    hi = mid
                else:
                    lo = mid
            radius = lo
        assert radius >= 0.1


def near_wave_state(params, grid, ratio=1.0, q_gap=0.0):
    """n = ratio * n~ and q = q~ + q_gap on the grid."""
    refs = reference_arrays(params, grid)
    return State(n=GridField(grid, ratio * refs.ntil), q=GridField(grid, refs.qtil + q_gap))


class TestEtaRel:
    """The kernel's nodewise relative entropy |q - q~|^2 / 2 + Pi(n | n~)."""

    def test_coincidence(self, params, grid):
        assert np.all(_core(params, wave_state(params, grid), 0.0).eta == 0.0)

    def test_pure_q_gap(self, params, grid):
        eta = _core(params, near_wave_state(params, grid, q_gap=2.0), 0.0).eta
        np.testing.assert_allclose(eta, 2.0, rtol=1e-14)

    def test_pure_n_gap_reduces_to_pi(self, params, grid):
        state = near_wave_state(params, grid, ratio=2.0)
        eta = _core(params, state, 0.0).eta
        refs = reference_arrays(params, grid)
        np.testing.assert_allclose(eta, pi_rel(state.n.values, refs.ntil), rtol=1e-15)

    @given(ratio=st.floats(0.1, 10), q_gap=st.floats(-5, 5))
    def test_positive_definite(self, params, ratio, q_gap):
        grid = lab_grid(params, num_cells=64)
        assert np.all(_core(params, near_wave_state(params, grid, ratio, q_gap), 0.0).eta >= 0.0)


class TestPhi:
    """The kernel's phi = (1/sigma) (Pi(n|n~) + (1 + (eps/lam) a/n~)(n - n~))."""

    def test_zero_on_wave(self, params):
        grid = Grid(-3.0, 7.5, 7)
        np.testing.assert_allclose(
            report_core(params, wave_state(params, grid), 0.0).phi, 0.0, rtol=0.0, atol=1e-15
        )

    def test_positive_above_wave(self, params):
        grid = Grid(-20.0, 20.0, 100)
        assert np.all(report_core(params, near_wave_state(params, grid, ratio=1.3), 0.0).phi > 0.0)

    def test_linearization_bound(self, params):
        # |phi(n) - (n~/sigma) w| <= C delta |w| on |w| <= delta with
        # delta := max(tube size, eps/lam); C fitted on one scan, then
        # verified on a fresh denser scan
        grid = Grid(-30.0, 30.0, 6)  # the nodes -30, -20, ..., 30
        ntil = reference_arrays(params, grid).ntil

        def worst_constant(deltas, n_w):
            worst = 0.0
            for tube in deltas:
                delta = max(tube, params.eps / params.lam)
                for w in np.linspace(-tube, tube, n_w):
                    if abs(w) <= 1e-12:
                        continue
                    phi = report_core(params, near_wave_state(params, grid, ratio=1.0 + w), 0.0).phi
                    gap = np.abs(phi - (ntil / params.sigma) * w)
                    worst = max(worst, np.max(gap / (delta * abs(w))))
            return worst

        c_fit = worst_constant((0.02, 0.1, 0.3), 801)
        c_check = worst_constant((0.015, 0.05, 0.25), 1601)
        assert c_check <= 1.05 * c_fit  # recorded constant keeps holding
        assert c_fit < 10.0


class TestEvolutionFunctionals:
    def test_all_vanish_on_wave(self, params, grid):
        st_wave = wave_state(params, grid)
        assert _core(params, st_wave, 0.0).Y == 0.0
        assert _core(params, st_wave, 0.0).I_bad == 0.0
        # I_good and D keep only the squared O(dx^2) mismatch between the
        # discrete and analytic log-derivative of the wave itself; it is
        # tiny and shrinks at fourth order
        dust = report_core(params, st_wave, 0.0).I_good
        assert dust < 1e-10
        assert report_core(params, st_wave, 0.0).D < 1e-10
        finer = lab_grid(params, num_cells=4 * grid.num_cells)
        dust_fine = report_core(params, wave_state(params, finer), 0.0).I_good
        assert dust_fine < dust / 100.0

    def test_constant_density_ratio_kills_dissipation(self, params, grid):
        # constant n/n~ leaves only the discrete-log dust, same as the wave
        refs = reference_arrays(params, grid)
        state = State(
            n=GridField(grid, 2.0 * refs.ntil), q=GridField(grid, refs.qtil.copy())
        )
        dust = report_core(params, state, 0.0).D
        assert dust < 1e-10
        finer = lab_grid(params, num_cells=4 * grid.num_cells)
        refs_f = reference_arrays(params, finer)
        state_f = State(
            n=GridField(finer, 2.0 * refs_f.ntil), q=GridField(finer, refs_f.qtil.copy())
        )
        assert report_core(params, state_f, 0.0).D < dust / 100.0

    def test_dissipation_against_refined_quadrature(self, params):
        # oracle: the same integral with the derivative taken analytically;
        # the grid must be fine enough for the discrete log-derivative to
        # converge below the stated tolerance
        grid = lab_grid(params, num_cells=2**20)
        xi = grid.nodes()
        ntil = np.asarray(profile_n(params, xi))
        state = State(
            n=GridField(grid, ntil * (1.0 + 0.1 * np.sin(xi))),
            q=GridField(grid, np.asarray(profile_q(params, xi))),
        )
        value = report_core(params, state, 0.0).D

        a = 1.0 + (params.lam / params.eps) * (params.n_minus - ntil)
        ratio = 1.0 + 0.1 * np.sin(xi)
        dlog_exact = 0.1 * np.cos(xi) / ratio
        oracle = integrate_values(a * ntil * ratio * dlog_exact**2, grid.dx)
        assert value == pytest.approx(oracle, rel=1e-6)
        assert value > 0.0

    def test_i_good_nonnegative_on_random_states(self, params, grid):
        for seed in range(100):
            state = random_state(params, grid, seed)
            assert report_core(params, state, 0.0).I_good >= 0.0

    def test_y_matches_entropy_weighted_form(self, params, grid):
        # the rewritten Y must agree with its defining form
        # -int a' eta + int a grad-entropy-slope (U - wave)
        state = random_state(params, grid, 3)
        refs = pointwise_references(params, grid)
        n, q = state.n.values, state.q.values
        eta = 0.5 * (q - refs.qtil) ** 2 + pi_rel(n, refs.ntil)
        qtil_prime = -refs.ntil_prime / params.sigma
        defining = integrate_values(-refs.a_prime * eta, grid.dx) + integrate_values(
            refs.a * (refs.ntil_prime / refs.ntil * (n - refs.ntil) + qtil_prime * (q - refs.qtil)),
            grid.dx,
        )
        assert _core(params, state, 0.0).Y == pytest.approx(defining, rel=1e-12)


class TestMaximizedSplit:
    @pytest.mark.parametrize("delta", [0.05, 0.25, 0.49])
    def test_split_identity_random_states(self, params, grid, delta):
        for seed in range(20):
            state = random_state(params, grid, seed)
            rep = evaluate_report(params, state, delta1=delta)
            lhs = rep.I_bad - rep.I_good
            rhs = rep.B_delta - rep.G_delta
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) / scale < 1e-10

    def test_split_vanishes_on_wave(self, params, grid):
        rep = evaluate_report(params, wave_state(params, grid), delta1=0.25)
        assert rep.B_delta == pytest.approx(0.0, abs=1e-10)
        assert rep.G_delta == pytest.approx(0.0, abs=1e-10)

    def test_g_delta_nonnegative(self, params, grid):
        for seed in range(50):
            state = random_state(params, grid, seed)
            assert evaluate_report(params, state, delta1=0.25).G_delta >= 0.0

    def test_completing_the_square_single_node(self):
        # alpha x^2 + beta x == alpha (x + beta/2alpha)^2 - beta^2/(4alpha)
        alpha, beta, x = -0.7, 1.9, 0.37  # x plays q - q~
        lhs = alpha * x * x + beta * x
        rhs = alpha * (x + beta / (2 * alpha)) ** 2 - beta**2 / (4 * alpha)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def expansion_split(params, n):
    """The split of (n, q~), whose q-perturbation vanishes, with the whole line
    inside the tube: its Y_g, B1, B2_in, G2 and G_D are the wave-strength
    expansion functionals Y_g, I1, I2, G2 and D."""
    q = GridField(n.grid, reference_arrays(params, n.grid).qtil.copy())
    return _split(report_core(params, State(n=n, q=q), 0.0), np.inf)


class TestExpansionFunctionals:
    def test_all_vanish_on_wave(self, params, grid):
        refs = reference_arrays(params, grid)
        vals = expansion_split(params, GridField(grid, refs.ntil.copy()))
        assert vals.Y_g == 0.0
        assert vals.B1 == 0.0
        assert vals.B2_in == 0.0
        assert vals.G2 == 0.0
        assert vals.G_D < 1e-10

    def test_g2_nonnegative(self, params, grid):
        for seed in range(30):
            state = random_state(params, grid, seed)
            assert expansion_split(params, state.n).G2 >= 0.0

    def test_truncated_state_matches_tube_parts(self, params, grid):
        # with the whole grid inside the tube, B1 = I1 and B2_in = I2
        state = random_state(params, grid, 5)
        refs = reference_arrays(params, grid)
        clipped = GridField(grid, refs.ntil * np.clip(state.n.values / refs.ntil, 0.8, 1.2))
        truncated = State(n=clipped, q=state.q)
        vals = expansion_split(params, clipped)
        rep = evaluate_report(params, truncated, delta1=0.25)
        assert rep.B1 == pytest.approx(vals.B1, rel=1e-12, abs=1e-15)
        assert rep.B2_in == pytest.approx(vals.B2_in, rel=1e-12, abs=1e-15)
        assert rep.B2_in <= vals.B2_in + 1e-14

    def test_b1_equals_i1_for_any_state(self, params, grid):
        state = random_state(params, grid, 9)
        vals = expansion_split(params, state.n)
        assert evaluate_report(params, state, delta1=0.25).B1 == pytest.approx(vals.B1, rel=1e-12)


class TestDecompositions:
    def test_sum_checks_many_states(self, params, grid):
        for seed in range(100):
            state = random_state(params, grid, seed)
            rep = evaluate_report(params, state, delta1=0.25)
            # the totals from cores of their own
            y = _core(params, state, 0.0).Y
            s = _split(report_core(params, state, 0.0), 0.25)
            b, g = s.B, s.G
            assert abs(y - (rep.Y_g + rep.Y_b + rep.Y_l + rep.Y_s)) <= 1e-10 * max(1.0, abs(y))
            assert abs(b - (rep.B1 + rep.B2_in + rep.B2_out + rep.B3)) <= 1e-10 * max(1.0, abs(b))
            assert abs(g - (rep.G1_in + rep.G1_out + rep.G2 + rep.G_D)) <= 1e-10 * max(1.0, abs(g))

    def test_small_perturbation_has_empty_complement(self, params, grid):
        state = perturbed_state(params, grid, amp_n=0.05, amp_q=0.1)
        rep = evaluate_report(params, state, delta1=0.25)
        assert rep.Y_s == 0.0
        assert rep.B2_out == 0.0
        assert rep.G1_out == 0.0

    def test_huge_perturbation_has_empty_tube(self, params, grid):
        refs = reference_arrays(params, grid)
        state = State(
            n=GridField(grid, 3.0 * refs.ntil),
            q=GridField(grid, refs.qtil + 1.0),
        )
        rep = evaluate_report(params, state, delta1=0.25)
        assert rep.Y_b == 0.0 and rep.Y_l == 0.0 and rep.Y_g == 0.0
        assert rep.B2_in == 0.0
        assert rep.G1_in == 0.0

    def test_tie_nodes_counted_inside(self, params):
        # on a far-left window the wave is bitwise constant, so the density
        # ratio 1.25 is float-exact and every node sits on the tube edge
        scale = params.sigma / params.eps
        far = cl.Grid(-45 * scale, -40 * scale, 256)
        refs = reference_arrays(params, far)
        assert np.all(refs.ntil == params.n_minus)
        state = State(n=GridField(far, 1.25 * refs.ntil), q=GridField(far, refs.qtil + 0.3))
        rep = evaluate_report(params, state, delta1=0.25)
        # equality counts as inside: nothing lands in the complement
        assert rep.Y_s == 0.0
        assert rep.B2_out == 0.0
        assert rep.G1_out == 0.0
        # an infinitesimally smaller threshold flips every node outside
        rep2 = evaluate_report(params, state, delta1=0.25 - 1e-12)
        assert rep2.Y_g == 0.0 and rep2.Y_b == 0.0
        assert rep2.B2_in == 0.0


class TestSignFunctionals:
    def test_r_main_zero_on_wave(self, params, grid):
        st_wave = wave_state(params, grid)
        assert evaluate_report(params, st_wave, 0.01, 0.25).R_main == pytest.approx(0.0, abs=1e-10)

    def test_r_main_negative_for_small_perturbations(self, small_params):
        grid = lab_grid(small_params, num_cells=2048)
        eps2 = small_params.eps**2
        found = 0
        for seed in range(10):
            state = perturbed_state(
                small_params, grid, amp_n=0.02, amp_q=0.01, seed=seed
            )
            rep = evaluate_report(small_params, state, 0.01, 0.25)
            if abs(rep.Y) <= eps2:
                found += 1
                assert rep.R_main <= 0.0
        assert found >= 5  # the family must actually exercise |Y| <= eps^2

    def test_r_main_pure_q_reduced_formula(self, params, grid):
        # with n = n~ only the q-coupling survives; hand expansion:
        # R = -Y^2/eps^4 - sigma int a' u^2/2 (+ discrete-dissipation dust)
        refs = pointwise_references(params, grid)
        xi = grid.nodes()
        u = 0.05 * np.exp(-((xi - 3.0) ** 2) / 50.0)
        state = State(n=GridField(grid, refs.ntil.copy()), q=GridField(grid, refs.qtil + u))
        y_hand = integrate_values(-refs.a_prime * 0.5 * u * u, grid.dx) + (
            params.eps / params.lam
        ) / params.sigma * integrate_values(refs.a * refs.a_prime * u, grid.dx)
        g_hand = params.sigma * integrate_values(refs.a_prime * 0.5 * u * u, grid.dx)
        d_dust = report_core(params, state, 0.0).D
        expected = -(y_hand**2) / params.eps**4 - g_hand + 0.01 * d_dust - (1 - 0.0) * d_dust + d_dust
        # i.e. R = -Y^2/eps^4 + 0 + 0 - (G1_in + G2 + D) + delta0 D with
        # G1_in = g_hand (phi = 0), G2 = 0
        expected = -(y_hand**2) / params.eps**4 - g_hand - d_dust + 0.01 * d_dust
        assert evaluate_report(params, state, 0.01, 0.25).R_main == pytest.approx(expected, rel=1e-10)


class TestDualCoordinateEvaluation:
    def test_expansion_functionals_match_y_coordinate_forms(self, small_params):
        # oracle: map every integral to y in (0,1) with the exact Jacobian
        # d(xi)/dy = nu sigma / (eps y (1-y)) and integrate there
        p = small_params
        grid = lab_grid(p, num_cells=2**17)
        xi = grid.nodes()
        width = 18.0
        g_amp = 0.08

        ntil = np.asarray(profile_n(p, xi))
        n = GridField(grid, ntil * (1.0 + g_amp * np.exp(-(xi**2) / (2 * width**2))))
        vals = expansion_split(p, n)

        y = np.linspace(0.0, 1.0, 200001)[1:-1]
        xi_y = np.asarray(cl.xi_of_y(p, y))
        jac = p.nu * p.sigma / (p.eps * y * (1.0 - y))
        ntil_y = np.asarray(profile_n(p, xi_y))
        ntil_prime_y = (ntil_y - p.n_minus) * (ntil_y - p.n_plus) / (p.nu * p.sigma)
        qtil_y = p.q_minus - (ntil_y - p.n_minus) / p.sigma
        a_y = 1.0 + (p.lam / p.eps) * (p.n_minus - ntil_y)
        a_prime_y = -(p.lam / p.eps) * ntil_prime_y
        a_second_y = -(p.lam / p.eps) * ntil_prime_y * (
            (ntil_y - p.n_minus) + (ntil_y - p.n_plus)
        ) / (p.nu * p.sigma)
        ratio = p.eps / p.lam

        g_y = g_amp * np.exp(-(xi_y**2) / (2 * width**2))
        n_y = ntil_y * (1.0 + g_y)
        pi_y = n_y * np.log1p(g_y) - (n_y - ntil_y)
        phi_y = (pi_y + (1.0 + ratio * a_y / ntil_y) * (n_y - ntil_y)) / p.sigma
        dg = g_amp * np.exp(-(xi_y**2) / (2 * width**2)) * (-xi_y / width**2)
        dlog_y = dg / (1.0 + g_y)

        dy = y[1] - y[0]

        def trap(vals_y):
            return float(np.trapezoid(vals_y, dx=dy))

        y_g = trap(
            (
                -a_prime_y * (0.5 * phi_y**2 + pi_y)
                - ratio * a_y * a_prime_y * ((n_y - ntil_y) / ntil_y + phi_y / p.sigma)
            )
            * jac
        )
        i1 = trap(
            (-a_prime_y * qtil_y * pi_y - ratio * a_second_y * (a_y / ntil_y) * pi_y) * jac
        )
        i2 = trap(0.5 * p.sigma * a_prime_y * phi_y**2 * jac)
        g2 = trap(p.sigma * a_prime_y * pi_y * jac)
        d_val = trap(a_y * n_y * dlog_y**2 * jac)

        assert vals.Y_g == pytest.approx(y_g, rel=1e-6)
        assert vals.B1 == pytest.approx(i1, rel=1e-6)
        assert vals.B2_in == pytest.approx(i2, rel=1e-6)
        assert vals.G2 == pytest.approx(g2, rel=1e-6)
        assert vals.G_D == pytest.approx(d_val, rel=1e-6)


class TestNuScaling:
    @pytest.mark.parametrize("nu", [0.5, 2.0, 10.0])
    def test_weighted_entropy_scaling(self, nu):
        base = make_wave_params(2.0, 0.0, eps=0.1, lam=0.3, nu=1.0)
        scaled = make_wave_params(2.0, 0.0, eps=0.1, lam=0.3, nu=nu)
        grid = lab_grid(base, num_cells=2048)
        state = random_state(base, grid, 17)

        nodes = grid.nodes()
        grid_nu = cl.Grid(nu * grid.xi_min, nu * grid.xi_max, grid.num_cells)
        state_nu = State(
            n=GridField(grid_nu, state.n.values.copy()),
            q=GridField(grid_nu, state.q.values.copy()),
        )
        lhs = report_core(scaled, state_nu, 0.0).eta_weighted
        rhs = nu * report_core(base, state, 0.0).eta_weighted
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestReport:
    def test_report_consistency(self, params, grid):
        state = random_state(params, grid, 23)
        rep = evaluate_report(params, state, 0.01, 0.25)
        assert rep.I_good >= 0 and rep.G_delta >= 0 and rep.D >= 0
        assert rep.Y == pytest.approx(_core(params, state, 0.0).Y, rel=1e-14)
        split = _split(report_core(params, state, 0.0), 0.25)
        assert rep.B_delta == pytest.approx(split.B, rel=1e-14)
        assert rep.G_D == rep.D
        assert rep.eta_unweighted == report_core(params, state, 0.0).eta_unweighted
        assert rep.delta_used == 0.25

    @pytest.mark.parametrize(
        "delta0, delta1",
        [(0.0, 0.25), (0.5, 0.25), (0.01, 0.0)],
        ids=["delta0_positive", "delta0_below_half", "delta1_positive"],
    )
    def test_thresholds_out_of_range_rejected(self, params, grid, delta0, delta1):
        state = random_state(params, grid, 23)
        with pytest.raises(DomainError):
            evaluate_report(params, state, delta0, delta1)

    def test_state_checks(self, grid):
        with pytest.raises(DomainError):
            State(n=GridField(grid, np.zeros(grid.num_nodes)), q=GridField(grid, np.zeros(grid.num_nodes)))
        other = cl.Grid(-1.0, 1.0, grid.num_cells)
        with pytest.raises(ValueError):
            State(
                n=GridField(grid, np.ones(grid.num_nodes)),
                q=GridField(other, np.zeros(other.num_nodes)),
            )

    def test_R_main_is_the_report_value(self, params, grid):
        # R_main written out from the core and split of fresh evaluations
        ratio = params.eps / params.lam
        for seed in (23, 24):
            state = random_state(params, grid, seed)
            for shift in (0.0, 2.5):
                rep = evaluate_report(params, state, 0.01, 0.2, shift=shift)
                y = _core(params, state, shift).Y
                s = _split(report_core(params, state, shift), 0.2)
                want = -(y * y) / params.eps**4 + s.B + 0.01 * ratio * abs(s.B) - s.G + 0.01 * s.G_D
                assert rep.R_main == want

    def test_broken_decomposition_is_a_numerics_error(self, params, grid):
        rep = evaluate_report(params, random_state(params, grid, 23), 0.01, 0.25)
        with pytest.raises(cl.NumericsError, match="decomposition") as info:
            cl.FunctionalReport(**{**rep.__dict__, "Y_s": rep.Y_s + 1.0})
        assert not isinstance(info.value, ValueError)
        with pytest.raises(cl.NumericsError, match="nonnegative"):
            cl.FunctionalReport(**{**rep.__dict__, "D": -1.0})


class TestReferenceArrays:
    @pytest.mark.parametrize("shift_kind", ["zero"])
    def test_bit_identical_to_pointwise_profiles(self, params, grid, shift_kind):
        refs = reference_arrays(params, grid)
        xi = grid.nodes()
        for field, fn in (("ntil", profile_n), ("qtil", profile_q)):
            assert np.array_equal(getattr(refs, field), np.asarray(fn(params, xi))), field

    def test_arrays_are_read_only(self, params, grid):
        refs = reference_arrays(params, grid)
        for field in dataclasses.fields(refs):
            array = getattr(refs, field.name)
            assert not array.flags.writeable, field.name
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0
        # no two fields share storage
        arrays = [getattr(refs, f.name) for f in dataclasses.fields(refs)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


# The core, split and report written out eagerly: every array of the core
# built up front as a new array, every formula written out in full, with
# each "/ n~" a product with the one array 1/n~ and each division by a
# number a product with its reciprocal.  The oracle for the bit-identity of
# the kernel, which writes the same operations into its grid's rows.
def _anchored_references(params, grid, shift):
    """The references by the kernel's rule: the logistic's exponential
    exp(k (xi - X)), k = eps/(nu sigma), as exp(clip(k xi - anchor)) times
    exp(anchor - kX), with the anchor the multiple of ANCHOR_SPACING nearest
    to kX; the rest by the expressions of `wave`'s helpers."""
    k = params.eps / (params.nu * params.sigma)
    anchor = ANCHOR_SPACING * round(k * shift / ANCHOR_SPACING)
    xi = grid.nodes()
    e = np.exp(np.clip(k * xi - anchor, -EXP_CLAMP, EXP_CLAMP)) * math.exp(anchor - k * shift)
    ntil = params.n_plus + params.eps / (1.0 + e)
    below, above = ntil - params.n_minus, ntil - params.n_plus
    ntil_prime = below * above * (1.0 / (params.nu * params.sigma))
    ntil_second = ntil_prime * (below + above) * (1.0 / (params.nu * params.sigma))
    qtil = params.q_minus - below * (1.0 / params.sigma)
    a = 1.0 - (params.lam / params.eps) * below
    a_prime = -(params.lam / params.eps) * ntil_prime
    return References(xi - shift, ntil, ntil_prime, ntil_second, qtil, a, a_prime)


def _eager_core(params, state, shift, refs=None):
    """The eager arrays of (state, shift), on the kernel's references unless
    `refs` are given."""
    refs = _anchored_references(params, state.grid, shift) if refs is None else refs
    n = state.n.values
    q = state.q.values
    inv = 1.0 / refs.ntil
    u = q - refs.qtil
    pi = np.maximum(n * np.log(n / refs.ntil) - (n - refs.ntil), 0.0)
    logratio = np.log(n / refs.ntil)
    dlog = _ddx_central(np.log(n), state.grid.dx) - refs.ntil_prime * inv
    sigma_phi = pi + (1.0 + refs.a * inv * (params.eps / params.lam)) * (n - refs.ntil)
    eta = 0.5 * u * u + pi
    return dict(refs=refs, dx=state.grid.dx, n=n, q=q, inv=inv, u=u, pi=pi,
                logratio=logratio, dlog=dlog, sigma_phi=sigma_phi,
                phi=sigma_phi * (1.0 / params.sigma), eta=eta)


def _eager_dissipation(c):
    return integrate_product(c["refs"].a * c["n"] * c["dlog"], c["dlog"], c["dx"])


def _eager_Y_bracket(params, c):
    r, inv, ell = c["refs"], c["inv"], params.lam / params.eps
    return ell * c["eta"] + r.a * inv * (c["n"] - r.ntil) - r.a * c["u"] * (1.0 / params.sigma)


def _eager_Y(params, c):
    return integrate_product(_eager_Y_bracket(params, c), c["refs"].ntil_prime, c["dx"])


def _eager_pi_bracket(params, c, q):
    """I_bad's Pi bracket (a/n~)(A + B)/(nu sigma) + ell q; B1's with q~ for q."""
    r = c["refs"]
    offsets = (r.ntil - params.n_minus) + (r.ntil - params.n_plus)
    return r.a * c["inv"] * offsets * (1.0 / (params.nu * params.sigma)) + params.lam / params.eps * q


def _eager_I_bad(params, c):
    r, n, u, pi, inv = c["refs"], c["n"], c["u"], c["pi"], c["inv"]
    ell, a_over_ntil = params.lam / params.eps, r.a * inv
    bracket = (
        (a_over_ntil + ell) * ((n - r.ntil) * u + n * c["logratio"] * c["dlog"])
        + pi * _eager_pi_bracket(params, c, c["q"])
    )
    return integrate_product(bracket, r.ntil_prime, c["dx"])


def _eager_I_good(params, c):
    r, dx, ell = c["refs"], c["dx"], params.lam / params.eps
    g_q = -(0.5 * params.sigma * ell) * integrate_product(c["u"] * c["u"], r.ntil_prime, dx)
    g_pi = -(params.sigma * ell) * integrate_product(r.ntil_prime, c["pi"], dx)
    return g_q + g_pi + _eager_dissipation(c)


def _eager_split(params, c, delta):
    r, n, u, pi, phi, dx = (c[k] for k in ("refs", "n", "u", "pi", "phi", "dx"))
    inv, over_sigma = c["inv"], 1.0 / params.sigma
    ell = params.lam / params.eps
    half = 0.5 * params.sigma * ell
    # the tube masks carry the weight n~'
    inside = (np.abs((n - r.ntil) * inv) <= delta) * r.ntil_prime
    outside = r.ntil_prime - inside
    b1 = integrate_product(_eager_pi_bracket(params, c, r.qtil) * pi, r.ntil_prime, dx)
    b2_in = -half * integrate_product(phi * phi, inside, dx)
    b2_out = ell * integrate_product(c["sigma_phi"] * u, outside, dx)
    b3 = integrate_product((r.a * inv + ell) * (n * c["logratio"] * c["dlog"]), r.ntil_prime, dx)
    g1_in = -half * integrate_product((u + phi) ** 2, inside, dx)
    g1_out = -half * integrate_product(u * u, outside, dx)
    g2 = -(params.sigma * ell) * integrate_product(r.ntil_prime, pi, dx)
    d = _eager_dissipation(c)
    y_g = integrate_product(
        (0.5 * phi * phi + pi) * ell + ((n - r.ntil) * inv + phi * over_sigma) * r.a, inside, dx
    )
    y_b = ell * integrate_product(0.5 * (u + phi) ** 2 - phi * (u + phi), inside, dx)
    y_l = -over_sigma * integrate_product(r.a * (u + phi), inside, dx)
    y_s = integrate_product(_eager_Y_bracket(params, c), outside, dx)
    return (b1, b2_in, b2_out, b3), (g1_in, g1_out, g2, d), (y_g, y_b, y_l, y_s)


def _report_of(params, delta0, delta1, y, i_bad, i_good, b_parts, g_parts, y_parts,
               eta_weighted, eta_unweighted):
    """The report's fields from its integrals, in column order."""
    g = g_parts[0] + g_parts[1] + g_parts[2] + g_parts[3]
    b = b_parts[0] + b_parts[1] + b_parts[2] + b_parts[3]
    r = -(y * y) / params.eps**4 + b + delta0 * (params.eps / params.lam) * abs(b) - g + delta0 * g_parts[3]
    return {
        "eta_weighted": eta_weighted,
        "Y": y,
        "I_bad": i_bad,
        "I_good": i_good,
        "B_delta": b,
        "G_delta": g,
        "D": g_parts[3],
        **dict(zip(("Y_g", "Y_b", "Y_l", "Y_s"), y_parts)),
        **dict(zip(("B1", "B2_in", "B2_out", "B3"), b_parts)),
        **dict(zip(("G1_in", "G1_out", "G2", "G_D"), g_parts)),
        "R_main": r,
        "delta_used": delta1,
        "eta_unweighted": eta_unweighted,
    }


def _eager_report(params, c, delta0, delta1):
    return _report_of(
        params, delta0, delta1, _eager_Y(params, c), _eager_I_bad(params, c),
        _eager_I_good(params, c), *_eager_split(params, c, delta1),
        integrate_product(c["refs"].a, c["eta"], c["dx"]), integrate_values(c["eta"], c["dx"]),
    )


# The same report in the division form of the kernel before it multiplied by
# reciprocals, kept verbatim: the references, the central stencil and the
# formulas with every "/" a division.  The multiply form is held to it
# within a bound derived from the terms (`_rounding_bounds`).
def _division_references(params, grid, shift):
    xi = grid.nodes() - shift
    z = np.clip(params.eps * xi / (params.nu * params.sigma), -EXP_CLAMP, EXP_CLAMP)
    ntil = params.n_plus + params.eps / (1.0 + np.exp(z))
    below, above = ntil - params.n_minus, ntil - params.n_plus
    ntil_prime = below * above / (params.nu * params.sigma)
    ntil_second = ntil_prime * (below + above) / (params.nu * params.sigma)
    qtil = params.q_minus - below / params.sigma
    a = 1.0 - (params.lam / params.eps) * below
    a_prime = -(params.lam / params.eps) * ntil_prime
    return References(xi, ntil, ntil_prime, ntil_second, qtil, a, a_prime)


def _division_central(v, dx):
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dx)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dx)
    return out


def _division_core(params, state, shift):
    refs = _division_references(params, state.grid, shift)
    n = state.n.values
    q = state.q.values
    u = q - refs.qtil
    pi = np.maximum(n * np.log(n / refs.ntil) - (n - refs.ntil), 0.0)
    logratio = np.log(n / refs.ntil)
    dlog = _division_central(np.log(n), state.grid.dx) - refs.ntil_prime / refs.ntil
    ratio = params.eps / params.lam
    phi = (pi + (1.0 + ratio * refs.a / refs.ntil) * (n - refs.ntil)) / params.sigma
    eta = 0.5 * u * u + pi
    return dict(refs=refs, dx=state.grid.dx, n=n, q=q, u=u, pi=pi, logratio=logratio,
                dlog=dlog, phi=phi, eta=eta)


def _division_Y(params, c):
    r = c["refs"]
    ratio = params.eps / params.lam
    integ = -r.a_prime * c["eta"] - ratio * r.a * r.a_prime * (
        (c["n"] - r.ntil) / r.ntil - c["u"] / params.sigma
    )
    return integrate_values(integ, c["dx"])


def _division_I_bad(params, c):
    r, n, u, pi, dx = c["refs"], c["n"], c["u"], c["pi"], c["dx"]
    coupling = r.a_prime * pi + (r.a_prime - r.a * r.ntil_prime / r.ntil) * (n - r.ntil)
    t1 = integrate_values(-coupling * u, dx)
    t2 = integrate_values(-r.a_prime * r.qtil * pi, dx)
    t3 = integrate_values(
        (r.a * r.ntil_prime / r.ntil - r.a_prime) * n * c["logratio"] * c["dlog"], dx
    )
    t4 = integrate_values(r.a * (r.ntil_second / r.ntil) * pi, dx)
    return t1 + t2 + t3 + t4


def _division_split(params, c, delta):
    r, n, u, pi, phi, eta, dx = (c[k] for k in ("refs", "n", "u", "pi", "phi", "eta", "dx"))
    ratio = params.eps / params.lam
    inside = (np.abs(n / r.ntil - 1.0) <= delta).astype(float)
    outside = 1.0 - inside
    coeff = 1.0 + ratio * r.a / r.ntil
    a_second = -(params.lam / params.eps) * r.ntil_second
    b1 = integrate_values(-r.a_prime * r.qtil * pi, dx) + integrate_values(
        -ratio * a_second * (r.a / r.ntil) * pi, dx
    )
    b2_in = 0.5 * params.sigma * integrate_values(r.a_prime * phi * phi * inside, dx)
    b2_out = integrate_values(-r.a_prime * (pi + coeff * (n - r.ntil)) * u * outside, dx)
    b3 = integrate_values(-r.a_prime * coeff * n * c["logratio"] * c["dlog"], dx)
    g1_in = 0.5 * params.sigma * integrate_values(r.a_prime * (u + phi) ** 2 * inside, dx)
    g1_out = 0.5 * params.sigma * integrate_values(r.a_prime * u * u * outside, dx)
    g2 = params.sigma * integrate_values(r.a_prime * pi, dx)
    d = _eager_dissipation(c)
    y_g = integrate_values(
        (-r.a_prime * (0.5 * phi * phi + pi)
         - ratio * r.a * r.a_prime * ((n - r.ntil) / r.ntil + phi / params.sigma))
        * inside,
        dx,
    )
    y_b = integrate_values(
        (-0.5 * r.a_prime * (u + phi) ** 2 + r.a_prime * phi * (u + phi)) * inside, dx
    )
    y_l = (ratio / params.sigma) * integrate_values(r.a * r.a_prime * (u + phi) * inside, dx)
    y_s = integrate_values(
        (-r.a_prime * eta
         - ratio * r.a * r.a_prime * ((n - r.ntil) / r.ntil - u / params.sigma))
        * outside,
        dx,
    )
    return (b1, b2_in, b2_out, b3), (g1_in, g1_out, g2, d), (y_g, y_b, y_l, y_s)


def _division_I_good(params, c):
    r, dx = c["refs"], c["dx"]
    g_q = params.sigma * integrate_values(0.5 * r.a_prime * c["u"] * c["u"], dx)
    g_pi = params.sigma * integrate_values(r.a_prime * c["pi"], dx)
    return g_q + g_pi + _eager_dissipation(c)


def _division_report(params, c, delta0, delta1):
    return _report_of(
        params, delta0, delta1, _division_Y(params, c), _division_I_bad(params, c),
        _division_I_good(params, c), *_division_split(params, c, delta1),
        integrate_values(c["refs"].a * c["eta"], c["dx"]), integrate_values(c["eta"], c["dx"]),
    )


# Roundings allowed per term between the two forms, to first order.  The
# forms round the logistic's argument z differently, each by at most 2u |z|,
# and the logistic carries that into the offsets n~ - n_+-, and so into every
# reference, as at most 4u |z| of their magnitude: 124 u at |z| <= 31, the
# reach of this grid and shift.  The rest of the longest chain from xi to a
# term (the profile, an offset, n~', a weight, a kernel array, the products
# of the integrand) is at most 24 roundings in each form, 48; and each
# form's pairwise sum over 1025 nodes errs by at most 10 u: 20.
ROUNDINGS = 124 + 48 + 20


def _rounding_bounds(params, c, delta0, delta1, want, roundings=ROUNDINGS):
    """A bound on |multiply form - division form| for every report field.

    Each field is a sum of integrals of products.  Its absolute form is
    each term with every factor at its magnitude, and with every
    difference the kernel takes made a sum of magnitudes (|x - y| <= |x| +
    |y|), since the forms' references, and so the operands, differ by
    roundings: n - n~ by ulps of n~, say, not of n - n~.  log(n/n~) errs
    absolutely, so its magnitude is 1 + |log(n/n~)|.  At each node a
    rounding moves a term by at most u times its absolute form, so the
    bound is `roundings` u times the integral of the field's absolute forms.
    R_main's propagates those of Y, B, G and D through its formula, plus
    the roundings of the formula itself; `want` is the division form's
    report.  A node whose tube test flips between the forms would break
    the bound, so the test checks first that none does.
    """
    r, n, dx = c["refs"], c["n"], c["dx"]
    ratio, sigma = params.eps / params.lam, params.sigma
    ntil, a, a_prime, qtil = r.ntil, np.abs(r.a), np.abs(r.a_prime), np.abs(r.qtil)
    ntil_prime, ntil_second = np.abs(r.ntil_prime), np.abs(r.ntil_second)
    a_second = ntil_second / ratio
    u = np.abs(c["q"]) + qtil
    dn = n + ntil
    log = 1.0 + np.abs(c["logratio"])
    pi = n * log + dn
    dlog = np.abs(_division_central(np.log(n), dx)) + ntil_prime / ntil
    eta = 0.5 * u * u + pi
    coeff = 1.0 + ratio * a / ntil
    phi = (pi + coeff * dn) / sigma
    inside = (np.abs(n / ntil - 1.0) <= delta1).astype(float)
    outside = 1.0 - inside

    y = a_prime * eta + ratio * a * a_prime * (dn / ntil + u / sigma)
    qtil_term = a_prime * qtil * pi
    d = a * n * dlog * dlog
    g2 = sigma * a_prime * pi
    terms = {
        "eta_weighted": [a * eta],
        "Y": [y],
        "I_bad": [
            (a_prime * pi + (a_prime + a * ntil_prime / ntil) * dn) * u,
            qtil_term,
            (a * ntil_prime / ntil + a_prime) * n * log * dlog,
            a * ntil_second / ntil * pi,
        ],
        "I_good": [0.5 * sigma * a_prime * u * u, g2, d],
        "D": [d],
        "Y_g": [(a_prime * (0.5 * phi * phi + pi)
                 + ratio * a * a_prime * (dn / ntil + phi / sigma)) * inside],
        "Y_b": [(0.5 * a_prime * (u + phi) ** 2 + a_prime * phi * (u + phi)) * inside],
        "Y_l": [ratio / sigma * a * a_prime * (u + phi) * inside],
        "Y_s": [y * outside],
        "B1": [qtil_term, ratio * a_second * a / ntil * pi],
        "B2_in": [0.5 * sigma * a_prime * phi * phi * inside],
        "B2_out": [a_prime * (pi + coeff * dn) * u * outside],
        "B3": [a_prime * coeff * n * log * dlog],
        "G1_in": [0.5 * sigma * a_prime * (u + phi) ** 2 * inside],
        "G1_out": [0.5 * sigma * a_prime * u * u * outside],
        "G2": [g2],
        "G_D": [d],
        "eta_unweighted": [eta],
    }
    terms["B_delta"] = [t for k in ("B1", "B2_in", "B2_out", "B3") for t in terms[k]]
    terms["G_delta"] = [t for k in ("G1_in", "G1_out", "G2", "G_D") for t in terms[k]]
    u_round = np.finfo(float).eps / 2.0
    bound = {k: roundings * u_round * sum(integrate_values(t, dx) for t in ts)
             for k, ts in terms.items()}
    y_abs, b_abs, g_abs = abs(want["Y"]), abs(want["B_delta"]), abs(want["G_delta"])
    bound["R_main"] = (
        (2.0 * y_abs + bound["Y"]) * bound["Y"] / params.eps**4
        + (1.0 + delta0 * ratio) * bound["B_delta"] + bound["G_delta"] + delta0 * bound["D"]
        + roundings * u_round * (
            y_abs * y_abs / params.eps**4 + (1.0 + delta0 * ratio) * b_abs + g_abs
            + delta0 * want["D"]
        )
    )
    bound["delta_used"] = 0.0
    return bound


class TestDivisionForm:
    @pytest.mark.parametrize("shift", [0.0, 3.7, -3.7])
    def test_report_within_rounding_of_division_form(self, params, grid, shift):
        # the kernel multiplies by 1/n~ and by reciprocals of numbers where
        # it divided before; every report field stays within the rounding
        # bound of the division form, on large random states
        for seed in (3, 17, 40):
            state = random_state(params, grid, seed)
            rep = evaluate_report(params, state, 0.01, 0.25, shift)
            c = _division_core(params, state, shift)
            want = _division_report(params, c, 0.01, 0.25)
            bound = _rounding_bounds(params, c, 0.01, 0.25, want)
            assert list(want) == list(cl.functionals.REPORT_COLUMNS) and set(bound) == set(want)
            # the bound holds only if every node is on the same side of the
            # tube in both forms: the kernel's test, on its deviation row
            inside = np.abs(c["n"] / c["refs"].ntil - 1.0) <= 0.25
            kernel_inside = cl.functionals._rows(grid).deviation <= 0.25
            assert np.array_equal(kernel_inside, inside), "a tube test flips between the forms"
            for name, value in want.items():
                assert abs(getattr(rep, name) - value) <= bound[name], name


# Y and I_bad as the kernel wrote them before it took the factor n~' out of
# each, kept verbatim: Y with a' and (eps/lam) a a', I_bad as four integrals.
# The factored kernel is held to them within a bound derived from the terms.
def _a_prime_Y(params, c):
    r, inv = c["refs"], c["inv"]
    ratio = params.eps / params.lam
    integ = -r.a_prime * c["eta"] - ratio * r.a * r.a_prime * (
        (c["n"] - r.ntil) * inv - c["u"] * (1.0 / params.sigma)
    )
    return integrate_values(integ, c["dx"])


def _a_prime_I_bad(params, c):
    r, n, u, pi, dx, inv = c["refs"], c["n"], c["u"], c["pi"], c["dx"], c["inv"]
    coupling = r.a_prime * pi + (r.a_prime - r.a * r.ntil_prime * inv) * (n - r.ntil)
    t1 = integrate_values(-coupling * u, dx)
    t2 = integrate_values(-r.a_prime * r.qtil * pi, dx)
    t3 = integrate_values(
        (r.a * r.ntil_prime * inv - r.a_prime) * n * c["logratio"] * c["dlog"], dx
    )
    t4 = integrate_values(r.a * (r.ntil_second * inv) * pi, dx)
    return t1 + t2 + t3 + t4


# Roundings allowed between the two forms, to first order.  They read the
# same references and the same nodewise arrays (u, n - n~, Pi, log(n/n~),
# d/dxi log(n/n~), eta, 1/n~), so only the products of the integrands and
# the sums differ: at most 8 roundings a product chain and 10 for a
# pairwise sum over 1025 nodes, in each form, and 3 for the additions of
# the four integrals.
FACTORED_ROUNDINGS = 2 * (8 + 10) + 3


def _a_prime_bounds(params, c):
    """A bound on |factored form - a' form| for Y and I_bad: the rounding
    count times u times the integral of each term with every factor at its
    magnitude.  The factored terms are no larger: ell |n~'| is |a'|, a |n~'|
    is (eps/lam) a |a'|, |n~'| (A + B)/(nu sigma) is |n~''| and |q| is at
    most |u| + |q~|."""
    r, n, dx = c["refs"], c["n"], c["dx"]
    ratio, sigma, inv = params.eps / params.lam, params.sigma, c["inv"]
    a, a_prime, ntil_prime = np.abs(r.a), np.abs(r.a_prime), np.abs(r.ntil_prime)
    u, dn, pi, eta = np.abs(c["u"]), np.abs(n - r.ntil), c["pi"], c["eta"]
    y = a_prime * eta + ratio * a * a_prime * (dn * inv + u / sigma)
    i_bad = (
        (a_prime * pi + (a_prime + a * ntil_prime * inv) * dn) * u
        + a_prime * np.abs(r.qtil) * pi
        + (a * ntil_prime * inv + a_prime) * n * np.abs(c["logratio"] * c["dlog"])
        + a * np.abs(r.ntil_second) * inv * pi
    )
    u_round = np.finfo(float).eps / 2.0
    return tuple(FACTORED_ROUNDINGS * u_round * integrate_values(t, dx) for t in (y, i_bad))


class TestFactoredForm:
    @pytest.mark.parametrize("shift", [0.0, 0.3, -0.3, -7.1])
    def test_y_and_ibad_within_rounding_of_a_prime_form(self, params, grid, shift):
        # Y and I_bad each as n~' times one bracket, against the a' form
        # with four integrals for I_bad, on large random states
        for seed in (3, 17, 40):
            state = random_state(params, grid, seed)
            got = cl.functionals.y_and_ibad(params, state, shift)
            c = _eager_core(params, state, shift)
            want = (_a_prime_Y(params, c), _a_prime_I_bad(params, c))
            for g, w, bound in zip(got, want, _a_prime_bounds(params, c)):
                assert abs(g - w) <= bound, (g, w, bound)

# The kernel's references against the pointwise functions of `wave` at
# xi - X, which take the logistic's exponential as exp(clip(k (xi - X))),
# k = eps/(nu sigma), where the kernel takes exp(clip(k xi - anchor))
# exp(anchor - kX).  In units u of the unit roundoff, against the
# exponential of the exact argument: the pointwise functions round xi - X
# and k (xi - X), each by u |z| (z the argument), and exp by 2 u:
# 2 |z| + 2 = 70.2 at |z| <= 34.1, the reach of
# the lab grid (30 widths) plus |kX| <= 4.1.  The kernel rounds k xi by
# u |k xi| <= 30 u, k xi - anchor by u |k xi - anchor| <= 38 u (|anchor| <=
# 8), kX by u |kX| <= 4.1 u, each exp by 2 u and the product by u
# (anchor - kX is exact): 77.1.  The two exponentials differ by at most
# 148 u of their size, and the logistic carries that into the offsets
# n~ - n_-+ no larger (their logarithmic slope in e is 1/(1 + e) or
# e/(1 + e)), so into every reference.  A term of a report field is a
# product of at most 6 factors that read a reference (B3's a, 1/n~,
# log(n/n~), d/dxi log(n/n~) through n~' and 1/n~, and n~'), so it moves by
# at most 6 * 148 u of its absolute form.  Both sides then round the same
# operations on different operands: 48 for the chain and 20 for the sums,
# as in ROUNDINGS.  Nodes clamped on both sides saturate to the same
# references, and add nothing.
ANCHORED_ROUNDINGS = 6 * 148 + 48 + 20


class TestAnchoredReferences:
    """The kernel's anchored exponential: exact at shift 0, within rounding
    of the pointwise references elsewhere, finite and order-free at any
    shift."""

    @staticmethod
    def k(params):
        return params.eps / (params.nu * params.sigma)

    def test_shift_zero_reads_reference_arrays_to_the_bit(self, params, grid):
        # the stepper's fixed point is reference_arrays' n~ and q~, so the
        # kernel must read them to the bit at shift 0, and the rest of its
        # references must be the pointwise functions' at the nodes
        refs = reference_arrays(params, grid)
        anchored = _anchored_references(params, grid, 0.0)
        assert np.array_equal(anchored.ntil, refs.ntil) and np.array_equal(anchored.qtil, refs.qtil)
        for name, want in pointwise_references(params, grid)._asdict().items():
            assert np.array_equal(getattr(anchored, name), want), name
        # below |kX| = ANCHOR_SPACING / 2 the kernel's exponential is the
        # profile's at the nodes, whatever the shift
        for kx in (0.0, 1.0, -3.9, 3.99):
            _core(params, random_state(params, grid, 3), kx / self.k(params))
            assert np.array_equal(
                cl.functionals._rows(grid).exp_anchored,
                np.exp(_logistic_arg(params, grid.nodes())),
            )

    @pytest.mark.parametrize("shift_kind", ["plus", "minus", "kx_3.9", "kx_-3.9", "kx_4.1",
                                            "kx_-4.1", "past_clamp_plus", "past_clamp_minus"])
    def test_report_within_rounding_of_reference_arrays(self, params, grid, shift_kind):
        # every report field within ANCHORED_ROUNDINGS u times the integral
        # of its absolute form of the report on the pointwise references at
        # the nodes minus the shift, on large random states
        if shift_kind.startswith("kx_"):
            shift = float(shift_kind[3:]) / self.k(params)
        else:
            shift = TestLazyCore.shift_of(params, grid, shift_kind)
        refs = pointwise_references(params, grid, shift)
        for seed in (3, 17, 40):
            state = random_state(params, grid, seed)
            rep = evaluate_report(params, state, 0.01, 0.25, shift)
            kernel_inside = cl.functionals._rows(grid).deviation <= 0.25
            c = _eager_core(params, state, shift, refs=refs)
            want = _eager_report(params, c, 0.01, 0.25)
            bound = _rounding_bounds(params, c, 0.01, 0.25, want, ANCHORED_ROUNDINGS)
            inside = np.abs((c["n"] - refs.ntil) * c["inv"]) <= 0.25
            assert np.array_equal(kernel_inside, inside), "a tube test flips between the forms"
            for name, value in want.items():
                assert abs(getattr(rep, name) - value) <= bound[name], name

    def test_far_anchors_stay_finite_saturated_and_order_free(self, params):
        # a grid of 1.5 clamp widths each side: at shift 0 its outer nodes
        # are clamped, and shifts of about 600 widths bring them back
        reach = EXP_CLAMP / self.k(params)
        grid = Grid(-1.5 * reach, 1.5 * reach, 2048)
        state = random_state(params, grid, 9)
        shifts = [kx / self.k(params) for kx in (603.3, -597.9, 0.0, 1e6)]
        reports = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for shift in shifts:
                reports[shift] = evaluate_report(params, state, 0.01, 0.25, shift)
                c = _core(params, state, shift)
                refs = pointwise_references(params, grid, shift)
                # where the pointwise n~ saturates, the kernel's n~ is the same
                # number: its 1/n~ and a are bit-equal there
                saturated = (refs.ntil == params.n_plus) | (refs.ntil == params.n_plus + params.eps)
                z = self.k(params) * (grid.nodes() - shift)
                assert np.all(saturated[np.abs(z) >= EXP_CLAMP])
                assert np.array_equal(c.inv_ntil[saturated], 1.0 / refs.ntil[saturated])
                assert np.array_equal(c.a[saturated], refs.a[saturated])
                assert np.all(np.isfinite(c.inv_ntil)) and np.all(np.isfinite(c.exp_anchored))
        # an evaluation depends on its (state, shift) alone, not on the anchor
        # the evaluation before it left
        for shift in reversed(shifts):
            cl.functionals._release_rows()
            assert evaluate_report(params, state, 0.01, 0.25, shift) == reports[shift]
        for shift in reversed(shifts):
            assert evaluate_report(params, state, 0.01, 0.25, shift) == reports[shift]

    @pytest.mark.parametrize("shift", [np.inf, -np.inf, np.nan])
    def test_non_finite_shift_is_a_domain_error(self, params, grid, shift):
        with pytest.raises(DomainError, match="shift must be finite"):
            cl.functionals.y_and_ibad(params, random_state(params, grid, 3), shift)


class TestShiftDerivative:
    @pytest.mark.parametrize("kx", [0.0, 5.0])
    def test_y_is_the_shift_derivative_of_the_weighted_entropy(self, small_params, kx):
        # Y = d/dX of the trapezoid of a(xi - X) eta(U | U~(xi - X)), by a
        # 4th-order central difference at h = 0.1, on the demo bump at 2048
        # cells, at X = 0 and past the first anchor (kX = 5, anchor 8)
        params = small_params
        grid = lab_grid(params, num_cells=2048)
        spec = cl.solver.PerturbationSpec(amplitude_n=0.5, amplitude_q=0.5, width=5.0)
        state = cl.solver.initial_state(params, grid, spec, reference_arrays(params, grid))
        x, h = kx * params.nu * params.sigma / params.eps, 0.1

        def entropy(shift):
            return evaluate_report(params, state, shift=shift).eta_weighted

        slope = (entropy(x - 2 * h) - 8 * entropy(x - h) + 8 * entropy(x + h) - entropy(x + 2 * h)) / (12 * h)
        y = evaluate_report(params, state, shift=x).Y
        assert abs(slope - y) <= 1e-9 * abs(y), (slope, y)


class TestLazyCore:
    """The kernel (`_core`, `_complete`, `_split` on a grid's rows) against
    the eager oracle, and what it keeps between evaluations."""

    SHIFTS = ("zero", "plus", "minus", "plus_small", "minus_small",
              "past_clamp_plus", "past_clamp_minus")
    DELTAS = (0.05, 0.25, 0.49, np.inf)

    @staticmethod
    def shift_of(params, grid, kind):
        beyond = 2.0 * EXP_CLAMP * params.nu * params.sigma / params.eps + grid.xi_max
        return {"zero": 0.0, "plus": 3.7, "minus": -3.7, "plus_small": 1.5, "minus_small": -1.5,
                "past_clamp_plus": beyond, "past_clamp_minus": -beyond}[kind]

    @pytest.mark.parametrize("shift_kind", SHIFTS)
    @pytest.mark.parametrize("delta1", DELTAS)
    def test_report_equals_eager_oracle(self, params, grid, shift_kind, delta1):
        shift = self.shift_of(params, grid, shift_kind)
        for seed in (3, 17, 40):
            state = random_state(params, grid, seed)
            rep = evaluate_report(params, state, 0.01, delta1, shift)
            want = _eager_report(params, _eager_core(params, state, shift), 0.01, delta1)
            assert list(want) == list(cl.functionals.REPORT_COLUMNS)
            for name, value in want.items():
                assert getattr(rep, name) == value, name
            c = _eager_core(params, state, shift)
            assert cl.functionals.y_and_ibad(params, state, shift) == (
                _eager_Y(params, c), _eager_I_bad(params, c)
            )

    @pytest.mark.parametrize("shift_kind", ["zero", "plus_small", "minus_small", "past_clamp_plus"])
    def test_one_evaluation_split_at_every_delta(self, params, grid, shift_kind):
        # the identity suite's path: one evaluation, completed once, then
        # split at each delta in turn; no split may disturb the next
        shift = self.shift_of(params, grid, shift_kind)
        for seed in (3, 17):
            state = random_state(params, grid, seed)
            oracle = _eager_core(params, state, shift)
            c = report_core(params, state, shift)
            for delta in self.DELTAS:
                b_parts, g_parts, y_parts = _eager_split(params, oracle, delta)
                s = _split(c, delta)
                assert (s.Y_g, s.Y_b, s.Y_l, s.Y_s) == y_parts
                assert (s.B1, s.B2_in, s.B2_out, s.B3) == b_parts
                assert (s.G1_in, s.G1_out, s.G2, s.G_D) == g_parts
            assert (c.Y, c.I_bad, c.I_good) == (
                _eager_Y(params, oracle), _eager_I_bad(params, oracle), _eager_I_good(params, oracle)
            )

    def test_shift_substep_core_builds_no_split_arrays(self, params, monkeypatch):
        # a shift substep stops at Y and I_bad: on a grid's new rows it sets
        # no report-stage integral, and advance() never completes one
        grid = lab_grid(params, num_cells=96)
        state = random_state(params, grid, 5)
        c = cl.functionals._core(params, state, 1.5)
        built = set(vars(c))
        assert {"Y", "I_bad"} <= built
        assert not built & {"G_pi", "D", "I_good", "eta_weighted", "eta_unweighted", "B1", "B3"}
        stages = []
        complete, core = cl.functionals._complete, cl.functionals._core
        monkeypatch.setattr(cl.functionals, "_complete", lambda c: stages.append("complete") or complete(c))
        monkeypatch.setattr(cl.functionals, "_core",
                            lambda *args: stages.append("core") or core(*args))
        # the first substep reads the (Y, I_bad) it is given
        cl.shift.advance(1.5, state, 0.1, params, (c.Y, c.I_bad))
        assert stages == ["core"] * (cl.shift.SUBSTEPS - 1)

    def test_stage_reductions_match_the_docstring(self, params, grid, monkeypatch):
        # each stage makes the reductions the module docstring states, and
        # none rebuilds a' or n~'': the kernel reads the weight through n~'
        # alone, so a second form of the weight would show here
        stated = re.search(r"(\d+) \+ (\d+) \+ (\d+) \+ (\d+) = (\d+) reductions",
                           " ".join(cl.functionals.__doc__.split()))
        core_n, complete_n, split_n, entropies_n, total = map(int, stated.groups())
        assert core_n + complete_n + split_n + entropies_n == total
        # both entry points count: every integral but int eta is a product
        calls = []
        for name in ("integrate_values", "integrate_product"):
            rule = getattr(cl.functionals, name)
            monkeypatch.setattr(cl.functionals, name,
                                lambda *args, name=name, rule=rule: calls.append(name) or rule(*args))
        for name in ("_a_derivative_of", "_n_second_of"):
            monkeypatch.setattr(cl.wave, name, lambda *args, name=name, **kw: pytest.fail(name))

        def counted(stage, *args):
            calls.clear()
            out = stage(*args)
            return len(calls), out

        count, c = counted(cl.functionals._core, params, random_state(params, grid, 5), 0.0)
        assert count == core_n and len(c.rows) <= 17
        assert counted(_complete, c)[0] == complete_n
        splits = []
        for delta in (0.05, 0.25, 0.49, np.inf):
            count, s = counted(_split, c, delta)
            assert count == split_n
            splits.append(s)
        assert counted(cl.functionals._entropies, c)[0] == entropies_n
        assert calls == ["integrate_product", "integrate_values"]
        # the tube-free parts come off the evaluation, whatever the delta
        assert {(s.B1, s.B3, s.G2, s.G_D) for s in splits} == {(c.B1, c.B3, c.G_pi, c.D)}

    def test_second_read_is_the_stored_object(self, params):
        # the rows are allocated once per grid: a second evaluation on an
        # equal grid writes the same arrays; another grid replaces them
        grid = lab_grid(params, num_cells=128)
        first = cl.functionals._core(params, random_state(params, grid, 7), 0.4)
        rows = [id(row) for row in first.rows]
        twin = Grid(grid.xi_min, grid.xi_max, grid.num_cells)
        second = cl.functionals._core(params, random_state(params, twin, 8), -0.4)
        assert second is first and [id(row) for row in second.rows] == rows
        assert len(rows) == len(set(rows)) and not any(
            np.shares_memory(a, b) for i, a in enumerate(first.rows) for b in first.rows[i + 1:]
        )
        other = cl.functionals._core(params, random_state(params, lab_grid(params, 64), 7), 0.0)
        assert other is not first and cl.functionals._workspace == [other]

    @pytest.mark.parametrize("cells", [64, 2048, 8192])
    def test_rows_sit_apart_in_the_page(self, cells):
        # every row starts at its own 64-byte aligned offset in a 4 KiB page,
        # whatever was allocated before it
        for before in (0, 1, 37, 4096):
            held = np.empty(before)
            rows = cl.functionals._Rows(Grid(-1.0, 1.0, cells)).rows
            offsets = [row.ctypes.data % 4096 for row in rows]
            assert offsets == [192 * i for i in range(len(rows))], before
            assert all(row.shape == (cells + 1,) and row.flags.c_contiguous for row in rows)
            del held

    def test_log_n_slope_is_per_state(self, params, grid):
        a = random_state(params, grid, 5)
        b = random_state(params, grid, 6)
        fresh = _ddx_central(np.log(a.n.values), grid.dx)
        cl.functionals._core(params, a, 0.0)
        cl.functionals._core(params, b, 0.0)
        kept = a._dlog_n
        assert np.array_equal(kept, fresh)
        cl.functionals._core(params, a, 2.0)
        assert a._dlog_n is kept
        assert b._dlog_n is not kept
        assert np.array_equal(b._dlog_n, _ddx_central(np.log(b.n.values), grid.dx))
        copy = State(n=GridField(grid, a.n.values.copy()), q=a.q)
        assert "_dlog_n" not in vars(copy)
        assert not kept.flags.writeable

    def test_nodes_built_once_per_grid(self, grid):
        assert grid._nodes is grid._nodes
        assert not grid._nodes.flags.writeable
        fresh = grid.nodes()
        assert fresh is not grid._nodes and fresh.flags.writeable
        assert np.array_equal(
            fresh, np.linspace(grid.xi_min, grid.xi_max, grid.num_cells + 1)
        )

    @pytest.mark.parametrize("shift", [0.0, 1.5, 1e6])
    def test_y_and_ibad_allocates_no_grid_array(self, params, shift):
        # after its first call on a grid (which makes the rows and the
        # state's d/dxi log n), an evaluation allocates nothing of grid size
        grid = lab_grid(params, num_cells=4096)
        state = random_state(params, grid, 11)
        cl.functionals.y_and_ibad(params, state, 0.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cl.functionals.y_and_ibad(params, state, shift)
            peak = tracemalloc.get_traced_memory()[1] - before
            # the probe sees a grid array when one is made
            np.empty(grid.num_nodes).fill(0.0)
            seen = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 * grid.num_nodes // 4 <= seen

    def test_later_evaluation_leaves_earlier_report_unchanged(self, params, grid):
        a = random_state(params, grid, 21)
        b = random_state(params, grid, 22)
        rep = evaluate_report(params, a, 0.01, 0.25, 0.5)
        copy = dataclasses.replace(rep)
        cl.functionals.y_and_ibad(params, b, -1.0)
        other = evaluate_report(params, b, 0.01, 0.1, 2.0)
        assert rep == copy and rep != other
        assert rep == evaluate_report(params, a, 0.01, 0.25, 0.5)
