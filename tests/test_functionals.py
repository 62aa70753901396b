import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import contraction_lab as cl
from contraction_lab import (
    DomainError,
    GridField,
    R_eps_delta,
    State,
    eta_rel,
    evaluate_report,
    expansion_functionals,
    phi_of_n,
    pi_rel,
    truncate,
)
from contraction_lab.functionals import _core, _split, reference_arrays
from contraction_lab.grid import _ddx_central, integrate_values
from contraction_lab.identities import random_state
from contraction_lab.wave import (
    EXP_CLAMP,
    _a_derivative_of,
    make_wave_params,
    profile_n,
    profile_n_prime,
    profile_n_second,
    profile_q,
    weight_a,
    weight_a_prime,
)

from conftest import lab_grid

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


class TestEtaRel:
    def test_coincidence(self):
        assert eta_rel((1.5, -2.0), (1.5, -2.0)) == 0.0

    def test_pure_q_gap(self):
        assert eta_rel((1.0, 3.0), (1.0, 1.0)) == pytest.approx(2.0, rel=1e-15)

    def test_pure_n_gap_reduces_to_pi(self):
        assert eta_rel((2.0, 0.0), (1.0, 0.0)) == pytest.approx(pi_rel(2.0, 1.0), rel=1e-15)

    @given(
        n1=st.floats(0.1, 10),
        q1=st.floats(-5, 5),
        n2=st.floats(0.1, 10),
        q2=st.floats(-5, 5),
    )
    def test_positive_definite(self, n1, q1, n2, q2):
        val = eta_rel((n1, q1), (n2, q2))
        assert val >= 0.0


class TestPhi:
    def test_zero_on_wave(self, params):
        for xi in (-3.0, 0.0, 7.5):
            assert phi_of_n(params, xi, profile_n(params, xi)) == pytest.approx(0.0, abs=1e-15)

    def test_positive_above_wave(self, params):
        xi = np.linspace(-20, 20, 101)
        ntil = np.asarray(profile_n(params, xi))
        vals = phi_of_n(params, xi, 1.3 * ntil)
        assert np.all(np.asarray(vals) > 0.0)

    def test_linearization_bound(self, params):
        # |phi(n) - (n~/sigma) w| <= C delta |w| on |w| <= delta with
        # delta := max(tube size, eps/lam); C fitted on one scan, then
        # verified on a fresh denser scan
        def worst_constant(deltas, n_w):
            worst = 0.0
            for tube in deltas:
                delta = max(tube, params.eps / params.lam)
                for xi in np.linspace(-30, 30, 7):
                    ntil = profile_n(params, xi)
                    w = np.linspace(-tube, tube, n_w)
                    w = w[np.abs(w) > 1e-12]
                    n = ntil * (1.0 + w)
                    gap = np.abs(
                        np.asarray(phi_of_n(params, xi, n)) - (ntil / params.sigma) * w
                    )
                    worst = max(worst, np.max(gap / (delta * np.abs(w))))
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
        dust = _core(params, st_wave, 0.0).I_good
        assert dust < 1e-10
        assert _core(params, st_wave, 0.0).D < 1e-10
        finer = lab_grid(params, num_cells=4 * grid.num_cells)
        dust_fine = _core(params, wave_state(params, finer), 0.0).I_good
        assert dust_fine < dust / 100.0

    def test_constant_density_ratio_kills_dissipation(self, params, grid):
        # constant n/n~ leaves only the discrete-log dust, same as the wave
        refs = reference_arrays(params, grid)
        state = State(
            n=GridField(grid, 2.0 * refs.ntil), q=GridField(grid, refs.qtil.copy())
        )
        dust = _core(params, state, 0.0).D
        assert dust < 1e-10
        finer = lab_grid(params, num_cells=4 * grid.num_cells)
        refs_f = reference_arrays(params, finer)
        state_f = State(
            n=GridField(finer, 2.0 * refs_f.ntil), q=GridField(finer, refs_f.qtil.copy())
        )
        assert _core(params, state_f, 0.0).D < dust / 100.0

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
        value = _core(params, state, 0.0).D

        a = 1.0 + (params.lam / params.eps) * (params.n_minus - ntil)
        ratio = 1.0 + 0.1 * np.sin(xi)
        dlog_exact = 0.1 * np.cos(xi) / ratio
        oracle = integrate_values(a * ntil * ratio * dlog_exact**2, grid.dx)
        assert value == pytest.approx(oracle, rel=1e-6)
        assert value > 0.0

    def test_i_good_nonnegative_on_random_states(self, params, grid):
        for seed in range(100):
            state = random_state(params, grid, seed)
            assert _core(params, state, 0.0).I_good >= 0.0

    def test_y_matches_entropy_weighted_form(self, params, grid):
        # the rewritten Y must agree with its defining form
        # -int a' eta + int a grad-entropy-slope (U - wave)
        state = random_state(params, grid, 3)
        refs = reference_arrays(params, grid)
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


class TestTruncation:
    def test_upper_branch(self, params, grid):
        # theta = 1/2 itself is outside the open domain, so clamp just below
        refs = reference_arrays(params, grid)
        n = GridField(grid, 1.6 * refs.ntil)
        theta = 0.5 - 1e-9
        clipped = truncate(params, n, theta)
        np.testing.assert_allclose(clipped.values, (1.0 + theta) * refs.ntil, rtol=1e-14)

    def test_identity_branch(self, params, grid):
        refs = reference_arrays(params, grid)
        n = GridField(grid, refs.ntil * (1.0 + 0.05 * np.sin(grid.nodes())))
        clipped = truncate(params, n, 0.1)
        np.testing.assert_array_equal(clipped.values, n.values)

    def test_lower_branch(self, params, grid):
        refs = reference_arrays(params, grid)
        n = GridField(grid, 0.3 * refs.ntil)
        clipped = truncate(params, n, 0.25)
        np.testing.assert_allclose(clipped.values, 0.75 * refs.ntil, rtol=1e-14)

    def test_tube_bound_holds_everywhere(self, params, grid):
        state = random_state(params, grid, 11)
        refs = reference_arrays(params, grid)
        for theta in (0.05, 0.25, 0.45):
            clipped = truncate(params, state.n, theta)
            assert np.max(np.abs(clipped.values / refs.ntil - 1.0)) <= theta + 1e-14

    def test_pi_never_increases(self, params, grid):
        refs = reference_arrays(params, grid)
        for seed in range(20):
            state = random_state(params, grid, seed)
            clipped = truncate(params, state.n, 0.25)
            before = pi_rel(state.n.values, refs.ntil)
            after = pi_rel(clipped.values, refs.ntil)
            assert np.all(after <= before + 1e-14)

    def test_bad_theta_rejected(self, params, grid):
        state = random_state(params, grid, 0)
        with pytest.raises(DomainError):
            truncate(params, state.n, 0.5)
        with pytest.raises(DomainError):
            truncate(params, state.n, 0.0)


class TestExpansionFunctionals:
    def test_all_vanish_on_wave(self, params, grid):
        refs = reference_arrays(params, grid)
        vals = expansion_functionals(params, GridField(grid, refs.ntil.copy()))
        assert vals.Y_g == 0.0
        assert vals.I1 == 0.0
        assert vals.I2 == 0.0
        assert vals.G2 == 0.0
        assert vals.D < 1e-10

    def test_g2_nonnegative(self, params, grid):
        for seed in range(30):
            state = random_state(params, grid, seed)
            assert expansion_functionals(params, state.n).G2 >= 0.0

    def test_truncated_state_matches_tube_parts(self, params, grid):
        # with the whole grid inside the tube, B1 = I1 and B2_in = I2
        state = random_state(params, grid, 5)
        clipped = truncate(params, state.n, 0.2)
        truncated = State(n=clipped, q=state.q)
        vals = expansion_functionals(params, clipped)
        rep = evaluate_report(params, truncated, delta1=0.25)
        assert rep.B1 == pytest.approx(vals.I1, rel=1e-12, abs=1e-15)
        assert rep.B2_in == pytest.approx(vals.I2, rel=1e-12, abs=1e-15)
        assert rep.B2_in <= vals.I2 + 1e-14

    def test_b1_equals_i1_for_any_state(self, params, grid):
        state = random_state(params, grid, 9)
        vals = expansion_functionals(params, state.n)
        assert evaluate_report(params, state, delta1=0.25).B1 == pytest.approx(vals.I1, rel=1e-12)


class TestDecompositions:
    def test_sum_checks_many_states(self, params, grid):
        for seed in range(100):
            state = random_state(params, grid, seed)
            rep = evaluate_report(params, state, delta1=0.25)
            # the totals from cores of their own
            y = _core(params, state, 0.0).Y
            s = _split(params, _core(params, state, 0.0), 0.25)
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
        refs = reference_arrays(params, grid)
        xi = grid.nodes()
        u = 0.05 * np.exp(-((xi - 3.0) ** 2) / 50.0)
        state = State(n=GridField(grid, refs.ntil.copy()), q=GridField(grid, refs.qtil + u))
        y_hand = integrate_values(-refs.a_prime * 0.5 * u * u, grid.dx) + (
            params.eps / params.lam
        ) / params.sigma * integrate_values(refs.a * refs.a_prime * u, grid.dx)
        g_hand = params.sigma * integrate_values(refs.a_prime * 0.5 * u * u, grid.dx)
        d_dust = _core(params, state, 0.0).D
        expected = -(y_hand**2) / params.eps**4 - g_hand + 0.01 * d_dust - (1 - 0.0) * d_dust + d_dust
        # i.e. R = -Y^2/eps^4 + 0 + 0 - (G1_in + G2 + D) + delta0 D with
        # G1_in = g_hand (phi = 0), G2 = 0
        expected = -(y_hand**2) / params.eps**4 - g_hand - d_dust + 0.01 * d_dust
        assert evaluate_report(params, state, 0.01, 0.25).R_main == pytest.approx(expected, rel=1e-10)

    def test_r_eps_delta_zero_on_wave(self, params, grid):
        refs = reference_arrays(params, grid)
        assert R_eps_delta(params, GridField(grid, refs.ntil.copy()), 0.01) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_r_eps_delta_negative_on_slow_modes(self):
        p = make_wave_params(2.0, 0.0, eps=0.02, lam=0.2)
        grid = lab_grid(p, num_cells=4096)
        xi = grid.nodes()
        ntil = np.asarray(profile_n(p, xi))
        n = GridField(grid, ntil * (1.0 + 0.01 * np.sin(p.eps * xi / p.sigma)))
        assert R_eps_delta(p, n, 0.01) <= 0.0

    def test_r_eps_delta_negativity_scan(self):
        p = make_wave_params(2.0, 0.0, eps=0.02, lam=0.2)
        grid = lab_grid(p, num_cells=4096)
        xi = grid.nodes()
        ntil = np.asarray(profile_n(p, xi))
        for amp in (0.001, 0.005, 0.02):
            for k in (0.5, 1.0, 3.0):
                n = GridField(grid, ntil * (1.0 + amp * np.sin(k * p.eps * xi / p.sigma)))
                assert R_eps_delta(p, n, 0.01) <= 0.0


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
        vals = expansion_functionals(p, n)

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
        assert vals.I1 == pytest.approx(i1, rel=1e-6)
        assert vals.I2 == pytest.approx(i2, rel=1e-6)
        assert vals.G2 == pytest.approx(g2, rel=1e-6)
        assert vals.D == pytest.approx(d_val, rel=1e-6)


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
        lhs = _core(scaled, state_nu, 0.0).eta_weighted
        rhs = nu * _core(base, state, 0.0).eta_weighted
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestReport:
    def test_report_consistency(self, params, grid):
        state = random_state(params, grid, 23)
        rep = evaluate_report(params, state, 0.01, 0.25)
        assert rep.I_good >= 0 and rep.G_delta >= 0 and rep.D >= 0
        assert rep.Y == pytest.approx(_core(params, state, 0.0).Y, rel=1e-14)
        split = _split(params, _core(params, state, 0.0), 0.25)
        assert rep.B_delta == pytest.approx(split.B, rel=1e-14)
        assert rep.G_D == rep.D
        assert rep.eta_unweighted == _core(params, state, 0.0).eta_unweighted
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
                s = _split(params, _core(params, state, shift), 0.2)
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
    @pytest.mark.parametrize(
        "shift_kind", ["zero", "plus", "minus", "past_clamp_plus", "past_clamp_minus"]
    )
    def test_bit_identical_to_pointwise_profiles(self, params, grid, shift_kind):
        beyond = 2.0 * EXP_CLAMP * params.nu * params.sigma / params.eps + grid.xi_max
        shift = {
            "zero": 0.0,
            "plus": 3.7,
            "minus": -3.7,
            "past_clamp_plus": beyond,
            "past_clamp_minus": -beyond,
        }[shift_kind]
        refs = reference_arrays(params, grid, shift)
        xi = grid.nodes() - shift
        assert np.array_equal(refs.xi, xi)
        for field, fn in (
            ("ntil", profile_n),
            ("ntil_prime", profile_n_prime),
            ("ntil_second", profile_n_second),
            ("qtil", profile_q),
            ("a", weight_a),
            ("a_prime", weight_a_prime),
        ):
            assert np.array_equal(getattr(refs, field), np.asarray(fn(params, xi))), field
        if shift_kind.startswith("past_clamp"):
            z = params.eps * xi / (params.nu * params.sigma)
            assert np.all(np.abs(z) > EXP_CLAMP)


# The eager core, split and report as they were before the core filled its
# arrays lazily: every array of the core built up front, every formula
# written out in full.  The oracle for the bit-identity of the lazy core.
def _eager_core(params, state, shift):
    refs = reference_arrays(params, state.grid, shift)
    n = state.n.values
    q = state.q.values
    u = q - refs.qtil
    pi = np.maximum(n * np.log(n / refs.ntil) - (n - refs.ntil), 0.0)
    logratio = np.log(n / refs.ntil)
    dlog = _ddx_central(np.log(n), state.grid.dx) - refs.ntil_prime / refs.ntil
    ratio = params.eps / params.lam
    phi = (pi + (1.0 + ratio * refs.a / refs.ntil) * (n - refs.ntil)) / params.sigma
    eta = 0.5 * u * u + pi
    return dict(refs=refs, dx=state.grid.dx, n=n, q=q, u=u, pi=pi, logratio=logratio,
                dlog=dlog, phi=phi, eta=eta)


def _eager_dissipation(c):
    return integrate_values(c["refs"].a * c["n"] * c["dlog"] * c["dlog"], c["dx"])


def _eager_Y(params, c):
    r = c["refs"]
    ratio = params.eps / params.lam
    integ = -r.a_prime * c["eta"] - ratio * r.a * r.a_prime * (
        (c["n"] - r.ntil) / r.ntil - c["u"] / params.sigma
    )
    return integrate_values(integ, c["dx"])


def _eager_I_bad(params, c):
    r, n, u, pi, dx = c["refs"], c["n"], c["u"], c["pi"], c["dx"]
    coupling = r.a_prime * pi + (r.a_prime - r.a * r.ntil_prime / r.ntil) * (n - r.ntil)
    t1 = integrate_values(-coupling * u, dx)
    t2 = integrate_values(-r.a_prime * r.qtil * pi, dx)
    t3 = integrate_values(
        (r.a * r.ntil_prime / r.ntil - r.a_prime) * n * c["logratio"] * c["dlog"], dx
    )
    t4 = integrate_values(r.a * (r.ntil_second / r.ntil) * pi, dx)
    return t1 + t2 + t3 + t4


def _eager_I_good(params, c):
    r, dx = c["refs"], c["dx"]
    g_q = params.sigma * integrate_values(0.5 * r.a_prime * c["u"] * c["u"], dx)
    g_pi = params.sigma * integrate_values(r.a_prime * c["pi"], dx)
    return g_q + g_pi + _eager_dissipation(c)


def _eager_split(params, c, delta):
    r, n, u, pi, phi, eta, dx = (c[k] for k in ("refs", "n", "u", "pi", "phi", "eta", "dx"))
    ratio = params.eps / params.lam
    inside = (np.abs(n / r.ntil - 1.0) <= delta).astype(float)
    outside = 1.0 - inside
    coeff = 1.0 + ratio * r.a / r.ntil
    a_second = _a_derivative_of(params, profile_n_second(params, r.xi))
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


def _eager_report(params, c, delta0, delta1):
    b_parts, g_parts, y_parts = _eager_split(params, c, delta1)
    y = _eager_Y(params, c)
    g = g_parts[0] + g_parts[1] + g_parts[2] + g_parts[3]
    b = b_parts[0] + b_parts[1] + b_parts[2] + b_parts[3]
    r = -(y * y) / params.eps**4 + b + delta0 * (params.eps / params.lam) * abs(b) - g + delta0 * g_parts[3]
    return {
        "eta_weighted": integrate_values(c["refs"].a * c["eta"], c["dx"]),
        "Y": y,
        "I_bad": _eager_I_bad(params, c),
        "I_good": _eager_I_good(params, c),
        "B_delta": b,
        "G_delta": g,
        "D": g_parts[3],
        **dict(zip(("Y_g", "Y_b", "Y_l", "Y_s"), y_parts)),
        **dict(zip(("B1", "B2_in", "B2_out", "B3"), b_parts)),
        **dict(zip(("G1_in", "G1_out", "G2", "G_D"), g_parts)),
        "R_main": r,
        "delta_used": delta1,
        "eta_unweighted": integrate_values(c["eta"], c["dx"]),
    }


class TestLazyCore:
    SHIFTS = ("zero", "plus", "minus", "past_clamp_plus", "past_clamp_minus")

    @staticmethod
    def shift_of(params, grid, kind):
        beyond = 2.0 * EXP_CLAMP * params.nu * params.sigma / params.eps + grid.xi_max
        return {"zero": 0.0, "plus": 3.7, "minus": -3.7,
                "past_clamp_plus": beyond, "past_clamp_minus": -beyond}[kind]

    @pytest.mark.parametrize("shift_kind", SHIFTS)
    @pytest.mark.parametrize("delta1", [0.05, 0.25, 0.49, np.inf])
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

    def test_shift_substep_core_builds_no_split_arrays(self, params, grid):
        state = random_state(params, grid, 5)
        c = cl.functionals._core(params, state, 1.5)
        c.Y, c.I_bad
        built = set(vars(c))
        assert {"eta", "pi", "dlog", "y_integrand", "Y", "I_bad"} <= built
        assert not built & {
            "phi", "sigma_phi", "a_prime_phi", "u_plus_phi", "u_plus_phi_sq", "coeff",
            "G_pi", "D", "I_good", "eta_weighted", "eta_unweighted",
        }

    def test_second_read_is_the_stored_object(self, params, grid):
        c = cl.functionals._core(params, random_state(params, grid, 7), 0.4)
        for name in ("dn", "pi", "y_integrand", "Y"):
            first = getattr(c, name)
            assert vars(c)[name] is first
            assert getattr(c, name) is first
            # no __set__: the instance __dict__ answers every later read
            assert not hasattr(type(c).__dict__[name], "__set__")

    def test_log_n_slope_is_per_state(self, params, grid):
        a = random_state(params, grid, 5)
        b = random_state(params, grid, 6)
        fresh = _ddx_central(np.log(a.n.values), grid.dx)
        cl.functionals._core(params, a, 0.0).dlog
        cl.functionals._core(params, b, 0.0).dlog
        kept = a._dlog_n
        assert np.array_equal(kept, fresh)
        assert cl.functionals._core(params, a, 2.0).state._dlog_n is kept
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
