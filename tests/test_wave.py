import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from contraction_lab import (
    DomainError,
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
from contraction_lab.grid import integrate_values
from contraction_lab.wave import WaveParams, _wave_speed, characteristic_speeds, rankine_hugoniot_residuals

from conftest import lab_grid

# several parameter sweeps intentionally leave the provable regime
pytestmark = pytest.mark.filterwarnings(
    "ignore:.*outside eps < lam < 1/2.*:UserWarning"
)


class TestEndStates:
    def test_unit_shock(self):
        end = WaveParams(2.0, 0.0, 1.0, 0.3)
        assert end.n_plus == 1.0
        assert end.sigma == pytest.approx(1.0, abs=1e-15)
        assert end.q_plus == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_shock_limit(self):
        end = WaveParams(1.0, 0.0, 1e-12, 0.3)
        assert end.sigma == pytest.approx(1.0, abs=1e-9)
        assert end.q_plus == pytest.approx(end.q_minus, abs=1e-9)

    def test_jump_conditions_direct_substitution(self):
        # independent oracle: plug the constructed states into both jump
        # conditions written out by hand
        end = WaveParams(2.0, 1.0, 0.5, 0.3)
        sigma = end.sigma
        mass = -sigma * (end.n_plus - end.n_minus) - (
            end.n_plus * end.q_plus - end.n_minus * end.q_minus
        )
        momentum = -sigma * (end.q_plus - end.q_minus) - (end.n_plus - end.n_minus)
        assert abs(mass) < 1e-12
        assert abs(momentum) < 1e-12

    def test_rh_residuals_helper_agrees(self):
        r1, r2 = rankine_hugoniot_residuals(WaveParams(5.0, -1.0, 0.25, 0.3))
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12

    def test_eps_too_large_rejected(self):
        with pytest.raises(DomainError):
            WaveParams(1.0, 0.0, 1.0, 0.3)
        with pytest.raises(DomainError):
            WaveParams(1.0, 0.0, 2.0, 0.3)

    @given(
        n_minus=st.floats(0.2, 50.0),
        q_minus=st.floats(-5.0, 5.0),
        frac=st.floats(1e-6, 0.999),
    )
    def test_lax_ordering_always_holds(self, n_minus, q_minus, frac):
        end = WaveParams(n_minus, q_minus, frac * n_minus, 0.3)
        assert end.n_minus > end.n_plus > 0
        assert end.q_minus < end.q_plus

    @pytest.mark.parametrize(
        "n_minus, q_minus, eps, lam", [(1e4, 3.0, 100.0, 0.3), (1e4, 0.0, 3000.0, 0.25), (1e6, 3.0, 1e4, 0.25)]
    )
    def test_large_density_waves_build(self, n_minus, q_minus, eps, lam):
        # the jump-condition terms grow like sigma n, so an absolute
        # tolerance on the residuals refused these waves
        p = make_wave_params(n_minus, q_minus, eps, lam)
        r1, r2 = rankine_hugoniot_residuals(p)
        assert abs(r1) <= 1e-14 * p.n_plus * p.q_plus and abs(r2) <= 1e-14 * eps

    @pytest.mark.parametrize("n_minus, q_minus, eps", [(2.0, 0.0, 0.05), (1e4, 3.0, 100.0)])
    def test_inexact_speed_refused(self, monkeypatch, n_minus, q_minus, eps):
        # a speed 1e-9 off its quadratic's root breaks the mass condition
        import contraction_lab.wave as wave_mod

        exact = wave_mod._wave_speed
        monkeypatch.setattr(wave_mod, "_wave_speed", lambda n, q: exact(n, q) * (1.0 + 1e-9))
        with pytest.raises(DomainError, match="jump-condition"):
            WaveParams(n_minus, q_minus, eps, 0.3)

    def test_speed_ordering(self, params):
        assert 0.0 < params.sigma < params.sigma_minus
        # weak shocks: sigma within [sigma_-/2, sigma_-)
        for n_minus in (1.0, 2.0, 5.0):
            p = make_wave_params(n_minus, 0.0, eps=0.05 * n_minus, lam=0.2)
            assert p.sigma_minus / 2 <= p.sigma < p.sigma_minus


class TestWaveParams:
    POINTS = [(2.0, 0.0, 0.1), (2.0, 0.0, 0.05), (1.0, 0.7, 0.3), (5.0, -1.0, 0.25), (0.5, 3.0, 1e-3)]

    @pytest.mark.parametrize("n_minus, q_minus, eps", POINTS)
    def test_derived_quantities_are_the_formulas(self, n_minus, q_minus, eps):
        # q_minus > 0 takes the conjugate root of the speed quadratic
        p = make_wave_params(n_minus, q_minus, eps=eps, lam=0.3)
        assert p.sigma == _wave_speed(n_minus - eps, q_minus)
        assert p.sigma_minus == _wave_speed(n_minus, q_minus)
        assert p.n_plus == n_minus - eps
        assert p.q_plus == q_minus + eps / p.sigma

    def test_exactly_five_inputs(self):
        init = [f.name for f in dataclasses.fields(WaveParams) if f.init]
        assert init == ["n_minus", "q_minus", "eps", "lam", "nu"]

    def test_replace_rederives(self, params):
        moved = dataclasses.replace(params, eps=0.2)
        assert moved == make_wave_params(params.n_minus, params.q_minus, eps=0.2, lam=params.lam)
        assert moved.n_plus == params.n_minus - 0.2

    def test_derived_speed_is_not_an_input(self):
        with pytest.raises(TypeError):
            WaveParams(2.0, 0.0, 0.1, 0.3, sigma=1.0)

    @pytest.mark.parametrize(
        "kwargs", [{"eps": 0.0}, {"eps": 2.0}, {"lam": 0.0}, {"nu": -1.0}]
    )
    def test_bad_inputs_rejected(self, kwargs):
        args = {"n_minus": 2.0, "q_minus": 0.0, "eps": 0.1, "lam": 0.3, **kwargs}
        with pytest.raises(DomainError):
            WaveParams(**args)


class TestProfiles:
    def test_midpoint_normalization(self, params):
        assert profile_n(params, 0.0) == pytest.approx(
            0.5 * (params.n_minus + params.n_plus), abs=1e-15
        )

    def test_far_field_limits(self, params):
        scale = params.sigma / params.eps
        assert profile_n(params, 1000.0 * scale) == pytest.approx(params.n_plus, abs=1e-12)
        assert profile_n(params, -1000.0 * scale) == pytest.approx(params.n_minus, abs=1e-12)
        assert profile_q(params, -1000.0 * scale) == pytest.approx(params.q_minus, abs=1e-12)
        assert profile_q(params, 1000.0 * scale) == pytest.approx(params.q_plus, abs=1e-12)

    def test_exp_overflow_clamped(self, params):
        huge = 1e6
        assert np.isfinite(profile_n(params, huge))
        assert profile_n(params, huge) == params.n_plus
        assert profile_n(params, -huge) == params.n_minus

    def test_ode_residual_closed_form(self, params):
        xi = np.linspace(-40 * params.sigma / params.eps, 40 * params.sigma / params.eps, 1000)
        n = np.asarray(profile_n(params, xi))
        residual = np.asarray(profile_n_prime(params, xi)) - (n - params.n_minus) * (
            n - params.n_plus
        ) / (params.nu * params.sigma)
        assert np.max(np.abs(residual)) < 1e-12

    def test_derivative_at_center(self, params):
        assert profile_n_prime(params, 0.0) == pytest.approx(
            -params.eps**2 / (4 * params.sigma), rel=1e-14
        )

    def test_profile_monotonicity(self, params):
        xi = np.linspace(-200, 200, 4001)
        n = np.asarray(profile_n(params, xi))
        q = np.asarray(profile_q(params, xi))
        assert np.all(np.diff(n) < 0)
        assert np.all(np.diff(q) > 0)
        assert np.all(np.asarray(profile_n_prime(params, xi)) < 0)

    def test_q_midpoint(self, params):
        assert profile_q(params, 0.0) == pytest.approx(
            params.q_minus + params.eps / (2 * params.sigma), rel=1e-14
        )

    def test_second_derivative_identity_and_bound(self):
        for n_minus in (1.0, 2.0, 5.0):
            p = make_wave_params(n_minus, 0.5, eps=0.1 * n_minus, lam=0.3)
            xi = np.linspace(-30 * p.sigma / p.eps, 30 * p.sigma / p.eps, 2000)
            npp = np.asarray(profile_n_second(p, xi))
            np1 = np.asarray(profile_n_prime(p, xi))
            bound = (4 * p.eps / p.sigma_minus) * np.abs(np1)
            assert np.all(np.abs(npp) <= bound + 1e-15)

    def test_decay_envelope_weak_shock(self):
        # the two-sided exponential envelope of the derivative at eps = 0.05 n_-
        for n_minus in (1.0, 2.0, 5.0):
            for q_minus in (-1.0, 0.0, 1.0):
                p = make_wave_params(n_minus, q_minus, eps=0.05 * n_minus, lam=0.2)
                xi = np.linspace(-25 * p.sigma / p.eps, 25 * p.sigma / p.eps, 3000)
                np1 = np.asarray(profile_n_prime(p, xi))
                env = (p.eps**2 / p.sigma_minus) * np.exp(-p.eps * np.abs(xi) / p.sigma_minus)
                assert np.all(np1 >= -env - 1e-15)
                assert np.all(np1 <= -0.25 * env + 1e-15)

    def test_decay_envelope_empirical_threshold(self, capsys):
        # the validity threshold of the envelope is not known in closed
        # form; record the largest eps/n_- on a scan and require it to
        # cover the 0.05 n_- working point
        def envelope_holds(frac):
            p = make_wave_params(2.0, 0.0, eps=frac * 2.0, lam=0.45)
            xi = np.linspace(-25 * p.sigma / p.eps, 25 * p.sigma / p.eps, 2000)
            np1 = np.asarray(profile_n_prime(p, xi))
            env = (p.eps**2 / p.sigma_minus) * np.exp(-p.eps * np.abs(xi) / p.sigma_minus)
            return bool(np.all(np1 >= -env - 1e-15) and np.all(np1 <= -0.25 * env + 1e-15))

        fractions = np.linspace(0.01, 0.22, 43)
        holding = [f for f in fractions if envelope_holds(f)]
        threshold = max(holding)
        print(f"empirical envelope threshold: eps <= {threshold:.3f} n_minus")
        assert threshold >= 0.05

    def test_against_numeric_ode_solve(self, params):
        # cross-check oracle: integrate the profile ODE numerically from the
        # midpoint and compare with the closed form
        span = 20 * params.sigma / params.eps

        def rhs(_, n):
            return (n - params.n_minus) * (n - params.n_plus) / (params.nu * params.sigma)

        mid = 0.5 * (params.n_minus + params.n_plus)
        sol = solve_ivp(rhs, (0, span), [mid], rtol=1e-12, atol=1e-14, dense_output=True)
        xi = np.linspace(0, span, 200)
        numeric = sol.sol(xi)[0]
        closed = np.asarray(profile_n(params, xi))
        assert np.max(np.abs(numeric - closed)) < 1e-9

    def test_viscosity_stretches_profile(self, params):
        p_nu = make_wave_params(2.0, 0.0, eps=0.1, lam=0.3, nu=2.5)
        xi = np.linspace(-80, 80, 401)
        np.testing.assert_allclose(
            np.asarray(profile_n(p_nu, 2.5 * xi)),
            np.asarray(profile_n(params, xi)),
            rtol=1e-14,
        )


class TestWeight:
    def test_midpoint_value(self, params):
        assert weight_a(params, 0.0) == pytest.approx(1 + params.lam / 2, rel=1e-14)

    def test_monotone_with_limits(self, params):
        # stay inside the window where the tails are still resolvable in floats
        span = 25 * params.sigma / params.eps
        xi = np.linspace(-span, span, 2001)
        a = np.asarray(weight_a(params, xi))
        assert np.all(np.diff(a) > 0)
        assert np.all(a > 1.0) and np.all(a < 1.0 + params.lam)
        assert np.all(np.asarray(weight_a_prime(params, xi)) > 0)

    def test_total_variation_is_lambda(self, params):
        g = lab_grid(params, num_cells=4096)
        a_prime = np.asarray(weight_a_prime(params, g.nodes()))
        assert integrate_values(a_prime, g.dx) == pytest.approx(params.lam, rel=1e-10)


class TestCoordinateMap:
    def test_center_maps_to_half(self, params):
        assert y_of_xi(params, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_round_trip_core(self, params):
        # float64 can only resolve the logistic tail while 1 - y is well above
        # machine epsilon; the +-10 sigma/eps window keeps the inverse
        # conditioned, and the saturation beyond it is checked separately
        xi = np.linspace(-10 * params.sigma / params.eps, 10 * params.sigma / params.eps, 1001)
        back = np.asarray(xi_of_y(params, np.asarray(y_of_xi(params, xi))))
        assert np.max(np.abs(back - xi)) < 1e-10

    def test_round_trip_y_side_full_range(self, params):
        y = np.linspace(1e-12, 1 - 1e-12, 10001)
        forth = np.asarray(y_of_xi(params, np.asarray(xi_of_y(params, y))))
        assert np.max(np.abs(forth - y)) < 1e-12

    def test_tail_saturation(self, params):
        far = 50 * params.sigma / params.eps
        assert y_of_xi(params, far) == pytest.approx(1.0, abs=1e-15)
        assert y_of_xi(params, -far) == pytest.approx(0.0, abs=1e-15)

    def test_endpoints_rejected(self, params):
        with pytest.raises(DomainError):
            xi_of_y(params, 0.0)
        with pytest.raises(DomainError):
            xi_of_y(params, 1.0)

    def test_dy_dxi_identity(self, params):
        xi = np.linspace(-15 * params.sigma / params.eps, 15 * params.sigma / params.eps, 1000)
        y = np.asarray(y_of_xi(params, xi))
        lhs = -np.asarray(profile_n_prime(params, xi)) / params.eps  # dy/dxi
        rhs = (params.eps / (params.nu * params.sigma)) * y * (1 - y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dy_dxi_matches_weight_slope(self, params):
        xi = np.linspace(-30, 30, 301)
        lhs = -np.asarray(profile_n_prime(params, xi)) / params.eps
        rhs = np.asarray(weight_a_prime(params, xi)) / params.lam
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13)


class TestCharacteristicSpeeds:
    def test_eigenvalues_of_frame_jacobian(self, params):
        # every run's dt comes from these speeds: the eigenvalues of the
        # Jacobian of the moving-frame flux (-sigma n - n q, -sigma q - n)
        rng = np.random.default_rng(8)
        n = rng.uniform(1e-3, 10.0, 50)
        q = rng.uniform(-5.0, 5.0, 50)
        lo, hi = characteristic_speeds(n, q, params.sigma)
        for k in range(n.size):
            jac = [[-params.sigma - q[k], -n[k]], [-1.0, -params.sigma]]
            want = np.sort(np.linalg.eigvals(jac).real)
            np.testing.assert_allclose([lo[k], hi[k]], want, rtol=1e-12, atol=1e-12)


class TestWarnings:
    def test_regime_warning(self):
        with pytest.warns(UserWarning):
            make_wave_params(2.0, 0.0, eps=0.5, lam=0.3)  # eps > lam
        with pytest.warns(UserWarning):
            make_wave_params(2.0, 0.0, eps=0.1, lam=0.7)  # lam > 1/2
