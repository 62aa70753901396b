import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import contraction_lab.shift as shift_mod
from contraction_lab import (
    GridField,
    PerturbationSpec,
    SolverConfig,
    State,
    advance,
    phi_eps,
    run,
)
from contraction_lab.functionals import reference_arrays, y_and_ibad
from contraction_lab.identities import random_state
from contraction_lab.shift import velocity

from conftest import lab_grid, pointwise_references, report_core


class TestPhiEps:
    def test_zero_at_origin(self):
        assert phi_eps(0.0, 0.1) == 0.0

    def test_branch_agreement_at_knots(self):
        for eps in (0.05, 0.1, 0.5):
            e2 = eps * eps
            # values from the linear branch at the knots equal the plateaus
            assert phi_eps(-e2, eps) == pytest.approx(1.0 / e2, rel=1e-15)
            assert phi_eps(e2, eps) == pytest.approx(-1.0 / e2, rel=1e-15)
            assert -(-e2) / e2**2 == pytest.approx(phi_eps(-e2, eps), rel=1e-15)

    def test_linear_branch_value(self):
        assert phi_eps(0.005, 0.1) == pytest.approx(-50.0, rel=1e-14)

    def test_saturation_values(self):
        assert phi_eps(-1.0, 0.1) == pytest.approx(100.0)
        assert phi_eps(1.0, 0.1) == pytest.approx(-100.0)

    @given(y=st.floats(-1e6, 1e6, allow_nan=False), eps=st.floats(1e-3, 10.0))
    def test_odd_bounded_nonincreasing(self, y, eps):
        val = phi_eps(y, eps)
        assert abs(val) <= 1.0 / eps**2 + 1e-12
        assert phi_eps(-y, eps) == pytest.approx(-val, rel=1e-12, abs=1e-300)
        assert phi_eps(y + abs(y) * 0.01 + 1e-9, eps) <= val + 1e-12

    def test_regimes(self):
        assert shift_mod.phi_regime(-1.0, 0.1) == "saturated_plus"
        assert shift_mod.phi_regime(0.0, 0.1) == "linear"
        assert shift_mod.phi_regime(1.0, 0.1) == "saturated_minus"


def xdot(params, state):
    """The shift velocity Phi_eps(Y) (2 |I_bad| + 1) of the state at shift 0."""
    return velocity(*y_and_ibad(params, state), params.eps)


class TestXdot:
    def test_zero_on_wave(self, params, grid):
        refs = reference_arrays(params, grid)
        state = State(n=GridField(grid, refs.ntil.copy()), q=GridField(grid, refs.qtil.copy()))
        assert xdot(params, state) == 0.0

    def test_saturated_branch_is_exact(self, params, grid):
        # a large perturbation drives |Y| >= eps^2, where the velocity equals
        # the bound exactly
        state = random_state(params, grid, 2)
        y, ibad = y_and_ibad(params, state)
        assert abs(y) >= params.eps**2  # the seed is chosen to saturate
        assert abs(xdot(params, state)) == pytest.approx(
            (2.0 * abs(ibad) + 1.0) / params.eps**2, rel=1e-15
        )

    def test_bound_on_random_states(self, params, grid):
        for seed in range(30):
            state = random_state(params, grid, seed)
            _, ibad = y_and_ibad(params, state)
            bound = (2.0 * abs(ibad) + 1.0) / params.eps**2
            assert abs(xdot(params, state)) <= bound * (1.0 + 1e-12)


class TestAdvance:
    def test_frozen_constant_velocity_is_exact(self, params, grid, monkeypatch):
        # freeze the ODE right-hand side: Euler substeps then accumulate
        # c * dt exactly
        state = random_state(params, grid, 0)
        c = -3.7
        # phi_eps(y)*(2|ibad|+1) == c for y = -c*eps^4, ibad = 0
        monkeypatch.setattr(shift_mod, "y_and_ibad", lambda *a, **k: (c * params.eps**4, 0.0))
        out = advance(0.0, state, 0.25, params, (c * params.eps**4, 0.0))
        assert out == pytest.approx(-c * 0.25, rel=1e-15)

    def test_zero_perturbation_keeps_zero(self, params, grid):
        refs = reference_arrays(params, grid)
        state = State(n=GridField(grid, refs.ntil.copy()), q=GridField(grid, refs.qtil.copy()))
        x = 0.0
        for _ in range(20):
            x = advance(x, state, 0.05, params, y_and_ibad(params, state, shift=x))
        assert x == 0.0 and xdot(params, state) == 0.0

    def test_substep_refinement_changes_x_at_order_dt(self, small_params, monkeypatch):
        grid = lab_grid(small_params, num_cells=512)
        state = random_state(small_params, grid, 4)
        start = y_and_ibad(small_params, state)

        def final_x(dt):
            coarse = advance(0.0, state, dt, small_params, start)
            with monkeypatch.context() as m:
                m.setattr(shift_mod, "SUBSTEPS", 4 * shift_mod.SUBSTEPS)
                fine = advance(0.0, state, dt, small_params, start)
            return abs(coarse - fine)

        gap_1, gap_2 = final_x(0.04), final_x(0.02)
        assert gap_2 <= 0.75 * gap_1  # shrinks with dt
        assert gap_1 <= 10.0 * 0.04  # O(dt) with a moderate constant


class TestShiftedFunctionalConsistency:
    def test_translated_references_define_the_shift(self, small_params):
        # the two sides of the change of variables are literally the same
        # computation: evaluating at shift X equals evaluating the state
        # against references translated by X
        grid = lab_grid(small_params, num_cells=512)
        state = random_state(small_params, grid, 8)
        x = 2.314
        refs = pointwise_references(small_params, grid, shift=x)
        np.testing.assert_array_equal(
            refs.ntil,
            np.asarray(
                __import__("contraction_lab").profile_n(small_params, grid.nodes() - x)
            ),
        )
        y1, ib1 = y_and_ibad(small_params, state, shift=x)
        y2, ib2 = y_and_ibad(small_params, state, shift=x)
        assert y1 == y2 and ib1 == ib2

    def test_change_of_variables_against_index_translation(self, small_params):
        # for a shift that is an exact multiple of dx the translated state
        # can be built by pure index shifting (no interpolation), giving an
        # independent evaluation of int a(xi) eta(U(xi+X) | wave(xi))
        from contraction_lab import GridField, State
        from contraction_lab.wave import profile_n, profile_q

        grid = lab_grid(small_params, num_cells=2048)
        k = 7
        x = k * grid.dx
        xi = grid.nodes()
        ntil = np.asarray(profile_n(small_params, xi))
        qtil = np.asarray(profile_q(small_params, xi))
        bump = 0.2 * np.exp(-(xi**2) / (2 * 25.0))
        state = State(n=GridField(grid, ntil + bump), q=GridField(grid, qtil + bump))

        # left-hand side: V(xi) := U(xi + k dx) by index shift, tails padded
        # with the wave the state relaxes to
        n_shift = np.concatenate([state.n.values[k:], ntil[-1] * np.ones(k)])
        q_shift = np.concatenate([state.q.values[k:], qtil[-1] * np.ones(k)])
        # the perturbation is compactly supported, so the pads sit on the
        # flat tail where the profile is constant to rounding
        shifted = State(n=GridField(grid, n_shift), q=GridField(grid, q_shift))
        lhs = report_core(small_params, shifted, 0.0).eta_weighted
        rhs = report_core(small_params, state, x).eta_weighted
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_run_reports_shift_bound_every_step(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        cfg = SolverConfig(
            params=small_params,
            grid=grid,
            t_end=1.0,
            perturbation=PerturbationSpec(
                kind="gaussian_bump", amplitude_n=0.3, amplitude_q=0.3, width=5.0
            ),
        )
        res = run(cfg)
        m = res.monitor
        assert np.all(
            np.abs(np.asarray(m["X_dot"])) <= np.asarray(m["xdot_bound"]) * (1 + 1e-12)
        )


class TestAdvanceStart:
    @pytest.mark.parametrize("seed,x0", [(0, 0.0), (3, 1.25), (5, -2.0)])
    def test_known_first_values_change_nothing(self, params, grid, seed, x0, monkeypatch):
        # advance() from the caller's (Y, I_bad) equals every substep
        # evaluated, its first one included
        state = random_state(params, grid, seed)
        start = y_and_ibad(params, state, shift=x0)
        for substeps in (1, 4):
            monkeypatch.setattr(shift_mod, "SUBSTEPS", substeps)
            plain = x0
            for _ in range(substeps):
                plain += 0.05 / substeps * velocity(*y_and_ibad(params, state, shift=plain), params.eps)
            assert advance(x0, state, 0.05, params, start) == plain

    def test_known_first_values_skip_one_evaluation(self, params, grid, monkeypatch):
        state = random_state(params, grid, 1)
        shifts = []

        def counting(p, s, shift=0.0):
            shifts.append(shift)
            return y_and_ibad(p, s, shift=shift)

        monkeypatch.setattr(shift_mod, "y_and_ibad", counting)
        start = y_and_ibad(params, state, shift=0.0)
        advance(0.0, state, 0.05, params, start)
        assert len(shifts) == 3 and 0.0 not in shifts
