from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import solve_banded

from contraction_lab import (
    Grid,
    GridField,
    PerturbationSpec,
    SolverConfig,
    StabilityError,
    State,
    initial_state,
    reconstruct_concentration,
    run,
)
from contraction_lab.functionals import (
    REPORT_COLUMNS,
    FunctionalReport,
    _core,
    evaluate_report,
    reference_arrays,
)
from contraction_lab.grid import ddx_central, integrate
from contraction_lab.identities import random_state
from contraction_lab.shift import phi_eps, phi_regime
from contraction_lab.solver import EVALUATION_COLUMNS, _check_state, _stable_dt, _Stepper
from contraction_lab.wave import profile_n_second

from conftest import lab_grid


def bump_spec(amp_n=0.2, amp_q=0.2, width=5.0, **kw):
    return PerturbationSpec(
        kind="gaussian_bump", amplitude_n=amp_n, amplitude_q=amp_q, width=width, **kw
    )


class TestInitialState:
    def test_wave_plus_bump_positive(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        state = initial_state(small_params, grid, bump_spec())
        assert np.all(state.n.values > 0)

    def test_negative_density_rejected(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        with pytest.raises(ValueError, match="non-positive"):
            initial_state(small_params, grid, bump_spec(amp_n=-5.0))

    def test_non_decaying_perturbation_rejected(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        wide = bump_spec(width=0.5 * (grid.xi_max - grid.xi_min))
        with pytest.raises(ValueError, match="decay"):
            initial_state(small_params, grid, wide)

    def test_random_fourier_deterministic(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        spec = PerturbationSpec(kind="random_fourier", amplitude_n=0.1, width=20.0, seed=5)
        a = initial_state(small_params, grid, spec)
        b = initial_state(small_params, grid, spec)
        np.testing.assert_array_equal(a.n.values, b.n.values)

    def test_shifted_wave_kind(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        spec = PerturbationSpec(kind="shifted_wave", center=3.0)
        state = initial_state(small_params, grid, spec)
        refs = reference_arrays(small_params, grid, shift=3.0)
        np.testing.assert_allclose(state.n.values, refs.ntil, rtol=1e-12)

    def test_custom_file_kind(self, small_params, tmp_path):
        grid = lab_grid(small_params, num_cells=512)
        xi = np.linspace(-10, 10, 200)
        path = tmp_path / "pert.csv"
        dn = 0.05 * np.exp(-(xi**2))
        with open(path, "w") as fh:
            fh.write("xi,dn,dq\n")
            for row in zip(xi, dn, 0.0 * xi):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        spec = PerturbationSpec(kind="custom_file", path=str(path))
        state = initial_state(small_params, grid, spec)
        refs = reference_arrays(small_params, grid)
        assert np.max(state.n.values - refs.ntil) == pytest.approx(0.05, abs=1e-3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSpec(kind="sawtooth")


def make_stepper(params, grid, dt):
    return _Stepper(params, grid, reference_arrays(params, grid), dt)


def take_steps(stepper, state, steps):
    """`steps` steps from `state`, each checked by the state check that names
    run()'s stability errors."""
    n, q = state.n.values.copy(), state.q.values.copy()
    for _ in range(steps):
        n, q = stepper.step(n, q)
        _check_state(n, q)
    return n, q


# The step as it was before the stepper factored its matrix and wrote its
# stages in place: every stage a new array, every stencil written out in
# full, and the banded matrix solved by scipy.linalg.solve_banded (LAPACK's
# gtsv).  The oracle for the bit-identity of the stepper.
def _eager_central(v, dx):
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dx)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dx)
    return out


def _eager_forward(v, dx):
    out = np.empty_like(v)
    out[:-2] = (-3.0 * v[:-2] + 4.0 * v[1:-1] - v[2:]) / (2.0 * dx)
    out[-2:] = _eager_central(v[-3:], dx)[1:]
    return out


def _eager_step(params, grid, refs, dt, n, q):
    sigma, dx = params.sigma, grid.dx

    def hyperbolic(n, q):
        rn = sigma * _eager_forward(n, dx) + _eager_central(n * q, dx)
        rq = sigma * _eager_forward(q, dx) + _eager_central(n, dx)
        return rn, rq

    residual_n, residual_q = hyperbolic(refs.ntil, refs.qtil)

    def rhs(n, q):
        rn, rq = hyperbolic(n, q)
        rn = rn - residual_n
        rq = rq - residual_q
        rn[0] = rn[-1] = rq[0] = rq[-1] = 0.0
        return rn, rq

    rn1, rq1 = rhs(n, q)
    rn2, rq2 = rhs(n + dt * rn1, q + dt * rq1)
    n_star = n + 0.5 * dt * (rn1 + rn2)
    q_new = q + 0.5 * dt * (rq1 + rq2)

    r = params.nu * dt / (dx * dx)
    ab = np.zeros((3, grid.num_nodes))
    ab[0, 2:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-2] = -r
    ab[1, 0] = ab[1, -1] = 1.0
    ab[0, 1] = 0.0
    ab[2, -2] = 0.0
    delta = n_star - refs.ntil
    delta[0] = delta[-1] = 0.0
    n_new = refs.ntil + solve_banded((1, 1), ab, delta)
    n_new[0], n_new[-1] = refs.ntil[0], refs.ntil[-1]
    q_new[0], q_new[-1] = refs.qtil[0], refs.qtil[-1]
    return n_new, q_new


class TestStep:
    def test_lapack_routines_are_scipys(self):
        # the solver loads scipy's LAPACK extension on its own; the routines
        # are the very objects scipy.linalg.lapack exports
        import scipy.linalg.lapack

        import contraction_lab.solver as solver_mod

        assert solver_mod.dgttrf is scipy.linalg.lapack.dgttrf
        assert solver_mod.dgttrs is scipy.linalg.lapack.dgttrs

    def test_missing_lapack_extension_is_an_import_error(self, monkeypatch):
        # no fallback: the error names the directory searched and scipy's version
        import importlib.machinery
        from importlib.metadata import version
        from pathlib import Path

        import scipy

        import contraction_lab.solver as solver_mod

        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError) as info:
            solver_mod._load_flapack()
        message = str(info.value)
        assert str(Path(scipy.__file__).parent / "linalg") in message
        assert f"(scipy {version('scipy')})" in message

    @pytest.mark.parametrize("cells", [512, 2048, 8192])
    def test_step_equals_eager_oracle(self, small_params, cells):
        grid = lab_grid(small_params, num_cells=cells)
        refs = reference_arrays(small_params, grid)
        for seed in (3, 17):
            state = random_state(small_params, grid, seed)
            dt = _stable_dt(small_params, grid, state, 0.4)
            stepper = _Stepper(small_params, grid, refs, dt)
            n, q = state.n.values.copy(), state.q.values.copy()
            got = stepper.step(n, q)
            want = _eager_step(small_params, grid, refs, dt, n, q)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            # the step writes only to the arrays it returns, which are new
            assert np.array_equal(n, state.n.values) and np.array_equal(q, state.q.values)
            assert not np.shares_memory(got[0], n) and not np.shares_memory(got[1], q)
            # the sampled wave (read-only) is a bit-exact fixed point
            wave = stepper.step(refs.ntil, refs.qtil)
            assert np.array_equal(wave[0], refs.ntil) and np.array_equal(wave[1], refs.qtil)

    def test_constant_state_exactly_preserved(self, params):
        # far-left window: the wave is bitwise constant there, so a constant
        # state sees zero spatial derivatives and Dirichlet values that match
        scale = params.sigma / params.eps
        far = Grid(-45 * scale, -40 * scale, 128)
        n0 = np.full(far.num_nodes, params.n_minus)
        q0 = np.full(far.num_nodes, params.q_minus)
        state = State(n=GridField(far, n0), q=GridField(far, q0))
        n, q = take_steps(make_stepper(params, far, 1e-3), state, 1)
        np.testing.assert_array_equal(n, n0)
        np.testing.assert_array_equal(q, q0)

    def test_wave_residuals_refine_at_order(self, small_params):
        # the stored residuals of the sampled wave are the first-order terms'
        # truncation error: exactly sigma n~' + (n~ q~)' = -nu n~'' and
        # sigma q~' + n~' = 0 on the wave
        errors_n, errors_q = [], []
        for cells in (512, 1024, 2048, 4096):
            grid = lab_grid(small_params, num_cells=cells)
            stepper = make_stepper(small_params, grid, 0.01)
            exact_n = -small_params.nu * np.asarray(profile_n_second(small_params, grid.nodes()))
            errors_n.append(np.max(np.abs(stepper.residual_n - exact_n)))
            errors_q.append(np.max(np.abs(stepper.residual_q)))
        order_n = np.log2(np.array(errors_n[:-1]) / errors_n[1:])
        order_q = np.log2(np.array(errors_q[:-1]) / errors_q[1:])
        assert np.all(order_n >= 1.8), order_n
        assert np.all(order_q >= 1.8), order_q

    def test_well_balanced_wave_is_fixed_point(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        refs = reference_arrays(small_params, grid)
        state = State(n=GridField(grid, refs.ntil), q=GridField(grid, refs.qtil))
        n, q = take_steps(make_stepper(small_params, grid, 0.05), state, 1)
        np.testing.assert_array_equal(n, refs.ntil)
        np.testing.assert_array_equal(q, refs.qtil)

    def test_perturbation_mass_is_conserved(self, small_params):
        # divergence form: interior stencils telescope, boundary strips stay
        # at wave values, so the perturbation integrals drift only at rounding
        grid = lab_grid(small_params, num_cells=2048)
        state = initial_state(small_params, grid, bump_spec(amp_n=0.1, amp_q=0.1))
        refs = reference_arrays(small_params, grid)
        mass_n0 = integrate(GridField(grid, state.n.values - refs.ntil))
        mass_q0 = integrate(GridField(grid, state.q.values - refs.qtil))
        n, q = take_steps(make_stepper(small_params, grid, 0.02), state, 50)
        mass_n = integrate(GridField(grid, n - refs.ntil))
        mass_q = integrate(GridField(grid, q - refs.qtil))
        assert abs(mass_n - mass_n0) < 1e-8
        assert abs(mass_q - mass_q0) < 1e-8

    def test_blowup_raises_stability_error(self, small_params):
        grid = lab_grid(small_params, num_cells=256)
        state = initial_state(small_params, grid, bump_spec(amp_n=1.5, amp_q=1.5, width=3.0))
        stepper = make_stepper(small_params, grid, 5.0)
        with pytest.raises(StabilityError):
            take_steps(stepper, state, 50)


class TestRun:
    def test_zero_perturbation_identically_zero(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        cfg = SolverConfig(
            params=small_params,
            grid=grid,
            t_end=2.0,
            perturbation=PerturbationSpec(amplitude_n=0.0, amplitude_q=0.0),
        )
        res = run(cfg)
        m = res.monitor
        assert np.all(np.asarray(m["X"]) == 0.0)
        assert np.all(np.asarray(m["eta_weighted"]) == 0.0)
        assert np.all(np.asarray(m["Y"]) == 0.0)
        assert np.all(np.asarray(m["violation"]) == 0.0)
        assert res.verdict()["contraction_held"]
        assert res.verdict()["max_violation"] == 0.0

    def test_entropy_decreases_on_perturbed_run(self, small_params):
        grid = lab_grid(small_params, num_cells=1024)
        cfg = SolverConfig(
            params=small_params, grid=grid, t_end=4.0, perturbation=bump_spec(0.3, 0.3)
        )
        res = run(cfg)
        e = res.monitor["eta_weighted"]
        assert e[-1] < res.e0
        assert res.verdict()["contraction_held"]
        assert res.verdict()["shift_bound_held"]

    def test_dissipation_excess_matches_scipy(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        cfg = SolverConfig(
            params=small_params, grid=grid, t_end=2.0, perturbation=bump_spec(0.3, 0.3)
        )
        res = run(cfg)

        def scipy_excess(r):
            cum_d = cumulative_trapezoid(r.column("D"), r.column("t"))
            excess = r.monitor["eta_weighted"] + cfg.delta0 * cum_d - r.e0
            return float(np.max(excess))

        assert res.verdict()["dissipation_excess"] == scipy_excess(res) < 0
        # lower E_0 so that the excess is positive and reads the running integral
        table = res.evaluations.copy()
        table[0, EVALUATION_COLUMNS.index("eta_weighted")] = -1.0
        lowered = replace(res, evaluations=table)
        want = scipy_excess(lowered)
        assert want > 1.0
        assert lowered.verdict()["dissipation_excess"] == want

    def test_grid_must_bracket_center(self, small_params):
        with pytest.raises(ValueError, match="bracket"):
            SolverConfig(
                params=small_params,
                grid=Grid(1.0, 2.0, 64),
                t_end=1.0,
                perturbation=bump_spec(),
            )

    def test_run_table_layout(self, small_params):
        # the report's fields are the run table's columns, and the run.csv
        # header is the same as before the report was flat
        assert REPORT_COLUMNS == tuple(f.name for f in fields(FunctionalReport))
        assert REPORT_COLUMNS == (
            "eta_weighted", "Y", "I_bad", "I_good", "B_delta", "G_delta", "D",
            "Y_g", "Y_b", "Y_l", "Y_s", "B1", "B2_in", "B2_out", "B3",
            "G1_in", "G1_out", "G2", "G_D", "R_main", "delta_used", "eta_unweighted",
        )
        assert EVALUATION_COLUMNS == ("t", "X", *REPORT_COLUMNS)
        cfg = SolverConfig(
            params=small_params,
            grid=lab_grid(small_params, num_cells=64),
            t_end=0.1,
            perturbation=bump_spec(0.1, 0.0),
        )
        assert run(cfg).csv_header() == [
            "t", "X", "X_dot", "regime", "lab_shift", *REPORT_COLUMNS,
            "violation", "balance_residual",
        ]

    def test_report_rows_match_header(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        cfg = SolverConfig(
            params=small_params,
            grid=grid,
            t_end=0.5,
            perturbation=bump_spec(0.1, 0.0),
            report_stride=5,
        )
        res = run(cfg)
        header = res.csv_header()
        rows = list(zip(*res.csv_columns()))
        n = len(res.times)
        assert res.evaluations.shape == (n + 1, len(EVALUATION_COLUMNS))
        assert all(len(row) == len(header) for row in rows)
        # one row per stride-th step and one for the last, each carrying the
        # table row of the time level that ends its step
        ends = [k + 1 for k in range(n) if (k + 1) % 5 == 0 or k == n - 1]
        assert len(rows) == len(ends) and ends[-1] == n
        for row, j in zip(rows, ends):
            table = dict(zip(EVALUATION_COLUMNS, res.evaluations[j].tolist()))
            assert all(row[header.index(name)] == v for name, v in table.items())

    def test_shifted_wave_is_tracked_by_the_shift(self, small_params):
        # initial data = the wave translated by 8: the weighted entropy must
        # decay to zero while X converges to the translation
        grid = lab_grid(small_params, num_cells=2048)
        cfg = SolverConfig(
            params=small_params,
            grid=grid,
            t_end=20.0,
            perturbation=PerturbationSpec(kind="shifted_wave", center=8.0),
        )
        res = run(cfg)
        v = res.verdict()
        assert v["contraction_held"]
        assert res.monitor["eta_weighted"][-1] < 1e-3 * res.e0
        assert v["final_X"] == pytest.approx(8.0, abs=1e-2)

    def test_lab_shift_column(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        cfg = SolverConfig(
            params=small_params, grid=grid, t_end=1.0, perturbation=bump_spec(0.1, 0.1)
        )
        res = run(cfg)
        m = res.monitor
        np.testing.assert_allclose(
            np.asarray(m["lab_shift"]),
            small_params.sigma * np.asarray(m["t"]) - np.asarray(m["X"]),
            rtol=1e-12,
        )


    def test_monitoring_equals_fresh_evaluations(self, small_params):
        # one shared evaluation per (state, shift) pair must give exactly
        # what separate evaluations of that pair give
        grid = Grid(-80.0, 80.0, 400)
        cfg = SolverConfig(
            params=small_params,
            grid=grid,
            t_end=1.0,
            perturbation=bump_spec(0.4, 0.4),
            report_stride=1,
            keep_states=True,
            delta1=0.2,
        )
        res = run(cfg)
        m = res.monitor
        x = res.column("X")
        assert len(res.states) == len(res.evaluations) - 1 == len(m["X"]) > 5
        assert np.any(x != 0.0)
        levels = [(0.0, res.initial_state)] + res.states
        fresh = []
        for j, (t, st) in enumerate(levels):
            row = res.evaluations[j].tolist()
            rep = evaluate_report(small_params, st, cfg.delta0, cfg.delta1, shift=x[j])
            assert row[0] == t
            assert row[2:] == [getattr(rep, name) for name in REPORT_COLUMNS]
            assert row[-1] == _core(small_params, st, x[j]).eta_unweighted
            assert rep.eta_weighted == _core(small_params, st, x[j]).eta_weighted
            fresh.append(rep)
        for k in range(len(res.states)):
            # step k ends at level k + 1 and starts at level k
            assert m["t"][k] == res.states[k][0]
            assert m["X"][k] == x[k + 1]
            assert m["eta_weighted"][k] == fresh[k + 1].eta_weighted
            assert m["eta_unweighted"][k] == res.evaluations[k + 1, -1]
            assert m["Y"][k] == fresh[k].Y
            assert m["R_main"][k] == fresh[k].R_main
            assert m["D"][k] == fresh[k].D
        rep0 = evaluate_report(small_params, res.initial_state, cfg.delta0, cfg.delta1)
        assert res.e0 == rep0.eta_weighted and m["D"][0] == rep0.D
        assert res.eta0_unweighted == _core(small_params, res.initial_state, 0.0).eta_unweighted

    def test_dissipation_integral_pairs_D_with_its_time_level(self, small_params):
        # with eta_weighted held at e0 the excess is delta0 times the whole
        # integral of D, which must pair D_j with t_j; a lag by one level
        # moves it whenever D changes
        grid = lab_grid(small_params, num_cells=512)
        cfg = SolverConfig(
            params=small_params, grid=grid, t_end=1.0, dt=0.05, perturbation=bump_spec(0.3, 0.3)
        )
        res = run(cfg)
        table = res.evaluations.copy()
        table[:, EVALUATION_COLUMNS.index("eta_weighted")] = res.e0
        flat = replace(res, evaluations=table)
        d, t = res.column("D"), res.column("t")
        assert np.any(np.diff(d) != 0.0)
        lagged = np.trapezoid(np.concatenate([d[:1], d[:-1]]), t)
        aligned = np.trapezoid(d, t)
        assert aligned != lagged
        assert flat.verdict()["dissipation_excess"] == pytest.approx(cfg.delta0 * aligned, rel=1e-12)

    def test_step_checks_match_scalar_arithmetic(self, small_params):
        # the per-step columns derived from the table, recomputed one step at
        # a time with Python floats in the order the run loop used to apply
        grid = lab_grid(small_params, num_cells=512)
        cfg = SolverConfig(
            params=small_params, grid=grid, t_end=1.0, dt=0.05, perturbation=bump_spec(0.3, 0.3)
        )
        res = run(cfg)
        m = res.monitor
        col = {name: res.column(name).tolist() for name in EVALUATION_COLUMNS}
        eps, dt = small_params.eps, res.dt
        assert len(m["X_dot"]) == len(col["t"]) - 1 > 5
        assert any(v != 0.0 for v in m["balance_residual"])
        for k in range(len(col["t"]) - 1):
            y, ibad, igood = col["Y"][k], col["I_bad"][k], col["I_good"][k]
            e_prev, e_new = col["eta_weighted"][k], col["eta_weighted"][k + 1]
            xdot_eff = (col["X"][k + 1] - col["X"][k]) / dt
            assert m["X_dot"][k] == phi_eps(y, eps) * (2.0 * abs(ibad) + 1.0)
            assert m["regime"][k] == phi_regime(y, eps)
            assert m["xdot_bound"][k] == (2.0 * abs(ibad) + 1.0) / eps**2
            assert m["lab_shift"][k] == small_params.sigma * col["t"][k + 1] - col["X"][k + 1]
            assert m["violation"][k] == max(e_new - e_prev, 0.0)
            assert m["balance_residual"][k] == (e_new - e_prev) / dt - (
                xdot_eff * y + ibad - igood
            )

    def test_repeat_runs_are_identical(self, small_params):
        # what a run keeps on its grid (the nodes) and states (d/dxi log n)
        # must not leak into a later run on the same grid
        grid = lab_grid(small_params, num_cells=512)
        cfg = SolverConfig(
            params=small_params, grid=grid, t_end=1.0, perturbation=bump_spec(0.3, 0.3)
        )
        first = run(cfg)
        run(replace(cfg, perturbation=bump_spec(0.5, -0.2, width=3.0), delta1=0.1))
        second = run(cfg)
        assert np.array_equal(first.evaluations, second.evaluations)
        assert np.array_equal(first.final_state.n.values, second.final_state.n.values)
        assert np.array_equal(first.final_state.q.values, second.final_state.q.values)

    def test_keep_states_keeps_every_stride_th_report(self, small_params):
        grid = lab_grid(small_params, num_cells=512)
        cfg = SolverConfig(
            params=small_params, grid=grid, t_end=1.0, dt=0.05, perturbation=bump_spec(0.3, 0.3),
            report_stride=2,
        )
        every = run(replace(cfg, keep_states=True)).states
        assert [t for t, _ in every] == [t for t in run(cfg).times[1::2]]
        third = run(replace(cfg, keep_states=3)).states
        assert [t for t, _ in third] == [t for t, _ in every[::3]]
        for (_, a), (_, b) in zip(third, every[::3]):
            assert np.array_equal(a.n.values, b.n.values)
        assert run(cfg).states is None
        with pytest.raises(ValueError, match="keep_states"):
            replace(cfg, keep_states=-1)

    def test_references_built_once_per_evaluation(self, small_params, monkeypatch):
        # one set-up build shared by the stepper and the initial state, then
        # one per evaluated (state, shift) pair: t = 0, and per step the
        # evaluation at its end and shift substeps 2..4
        import contraction_lab.functionals as fn
        import contraction_lab.solver as solver_mod

        calls = []
        original = fn.reference_arrays

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fn, "reference_arrays", counting)
        monkeypatch.setattr(solver_mod, "reference_arrays", counting)
        grid = lab_grid(small_params, num_cells=512)
        spec = bump_spec(0.3, 0.3)
        cfg = SolverConfig(params=small_params, grid=grid, t_end=1.0, dt=0.05, perturbation=spec)
        res = run(cfg)
        assert len(calls) == 2 + 4 * len(res.times)
        fresh = initial_state(small_params, grid, spec)
        assert np.array_equal(res.initial_state.n.values, fresh.n.values)
        assert np.array_equal(res.initial_state.q.values, fresh.q.values)

    def test_density_lost_positivity_names_time_and_node(self, small_params, monkeypatch):
        # a finite step that drives one density value negative: the new
        # State rejects it, and run() reports it with the step's time and node
        step = _Stepper.step
        steps = []

        def dipping(self, n, q):
            n_new, q_new = step(self, n, q)
            steps.append(None)
            if len(steps) == 3:
                n_new[17] = -0.25
            return n_new, q_new

        monkeypatch.setattr(_Stepper, "step", dipping)
        grid = lab_grid(small_params, num_cells=256)
        cfg = SolverConfig(
            params=small_params, grid=grid, t_end=1.0, dt=0.1, perturbation=bump_spec(0.3, 0.3)
        )
        with pytest.raises(StabilityError, match=r"density lost positivity \(min -2.500e-01\)") as info:
            run(cfg)
        assert info.value.t == 3 * 0.1
        assert info.value.node == 17
        assert len(steps) == 3


class TestConcentration:
    def test_zero_velocity_gives_reference(self):
        g = Grid(-2.0, 2.0, 128)
        c = reconstruct_concentration(GridField(g, np.zeros(129)), c_ref=3.5)
        np.testing.assert_array_equal(c.values, 3.5)

    def test_constant_velocity_gives_exponential(self):
        g = Grid(-1.0, 3.0, 256)
        k = 0.7
        c = reconstruct_concentration(GridField(g, np.full(257, k)), c_ref=2.0)
        expected = 2.0 * np.exp(-k * (g.nodes() - g.xi_min))
        np.testing.assert_allclose(c.values, expected, rtol=1e-12)

    def test_round_trip_inverts_transform(self):
        g = Grid(-4.0, 4.0, 2048)
        q = GridField(g, 0.3 * np.tanh(g.nodes()) + 0.1)
        c = reconstruct_concentration(q, c_ref=1.0)
        back = -ddx_central(GridField(g, np.log(c.values))).values
        assert np.max(np.abs(back[1:-1] - q.values[1:-1])) < 5e-5  # O(dx^2)

    def test_positive_everywhere(self):
        g = Grid(-2.0, 2.0, 128)
        q = GridField(g, 3.0 * np.sin(5 * g.nodes()))
        c = reconstruct_concentration(q, c_ref=1e-3)
        assert np.all(c.values > 0)

    def test_requires_positive_anchor(self):
        g = Grid(-1.0, 1.0, 32)
        with pytest.raises(ValueError):
            reconstruct_concentration(GridField(g, np.zeros(33)), c_ref=0.0)
