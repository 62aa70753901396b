"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  The contraction-scale run (8192 cells, t_end = 50) and its
refined twin are shared session fixtures.
"""

import time

import numpy as np
import pytest

from contraction_lab import (
    Grid,
    GridField,
    PerturbationSpec,
    SolverConfig,
    State,
    pi_rel,
    run,
    scan_delta_star,
)
from contraction_lab.identities import check_identities, random_state
from contraction_lab.poincare import R_poincare
from contraction_lab.wave import (
    make_wave_params,
    profile_n,
    profile_n_prime,
    profile_n_second,
    rankine_hugoniot_residuals,
)

from conftest import lab_grid, report_core


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def poincare_scan():
    """Criterion 8's calibration, reused as delta_1 by criterion 9."""
    return scan_delta_star(
        M=1.0, n_samples=1000, delta_grid=np.geomspace(1e-4, 0.2, 25), seed=0
    )


@pytest.fixture(scope="session")
def contraction_setup(poincare_scan):
    delta1 = min(poincare_scan.delta_star_empirical, 0.4999)
    assert delta1 >= 1e-3
    params = make_wave_params(2.0, 0.0, eps=0.05, lam=0.25)
    half = 30.0 * params.sigma / params.eps

    def config(num_cells, dt=None):
        return SolverConfig(
            params=params,
            grid=Grid(-half, half, num_cells),
            t_end=50.0,
            perturbation=PerturbationSpec(
                kind="gaussian_bump", amplitude_n=0.5, amplitude_q=0.5, width=5.0
            ),
            cfl=0.4,
            dt=dt,
            delta0=0.01,
            delta1=delta1,
        )

    return params, config, delta1


@pytest.fixture(scope="session")
def contraction_run(contraction_setup):
    _, config, _ = contraction_setup
    t0 = time.time()
    result = run(config(8192))
    return result, time.time() - t0


@pytest.fixture(scope="session")
def contraction_run_refined(contraction_setup, contraction_run):
    _, config, _ = contraction_setup
    base, _ = contraction_run
    return run(config(16384, dt=base.dt / 2.0))


class TestCriterion1:
    def test_wave_exactness(self):
        t0 = time.time()
        worst_ode = worst_rh = worst_second = 0.0
        decay_ok = True
        for n_minus in (1.0, 2.0, 5.0):
            for q_minus in (-1.0, 0.0, 1.0):
                p = make_wave_params(n_minus, q_minus, eps=0.05 * n_minus, lam=0.3)
                r1, r2 = rankine_hugoniot_residuals(p)
                worst_rh = max(worst_rh, abs(r1), abs(r2))

                xi = np.linspace(-30 * p.sigma / p.eps, 30 * p.sigma / p.eps, 10_000)
                n = np.asarray(profile_n(p, xi))
                np1 = np.asarray(profile_n_prime(p, xi))
                npp = np.asarray(profile_n_second(p, xi))
                ode = np.max(
                    np.abs(np1 - (n - p.n_minus) * (n - p.n_plus) / (p.nu * p.sigma))
                )
                worst_ode = max(worst_ode, ode)

                env = (p.eps**2 / p.sigma_minus) * np.exp(-p.eps * np.abs(xi) / p.sigma_minus)
                decay_ok = decay_ok and bool(
                    np.all(np1 >= -env - 1e-15) and np.all(np1 <= -0.25 * env + 1e-15)
                )
                gap = np.abs(npp) - (4 * p.eps / p.sigma_minus) * np.abs(np1)
                worst_second = max(worst_second, float(np.max(gap)))
        elapsed = time.time() - t0
        report(
            1,
            worst_ode < 1e-12 and worst_rh < 1e-12 and decay_ok and worst_second <= 1e-15
            and elapsed < 1.0,
            f"ode_residual={worst_ode:.2e} rh={worst_rh:.2e} decay={decay_ok} "
            f"second_bound_gap={worst_second:.2e} runtime={elapsed:.2f}s (<1s)",
        )


class TestCriterion2:
    def test_identity_suite(self, params):
        t0 = time.time()
        grid = lab_grid(params, num_cells=2048)
        result = check_identities(
            params, grid, n_states=100, deltas=(0.05, 0.25, 0.49), seed=0, tol=1e-10
        )
        elapsed = time.time() - t0
        worst = max(e["max_rel_err"] for e in result["identities"])
        report(
            2,
            result["all_passed"] and elapsed < 30.0,
            f"4 identities x 100 states x 3 deltas, worst_rel_err={worst:.2e} "
            f"runtime={elapsed:.1f}s (<30s)",
        )


class TestCriterion3:
    def test_entropy_balance_refinement(self, small_params):
        t0 = time.time()
        half = 30.0 * small_params.sigma / small_params.eps

        def residual(num_cells, dt):
            cfg = SolverConfig(
                params=small_params,
                grid=Grid(-half, half, num_cells),
                t_end=1.0,
                perturbation=PerturbationSpec(
                    kind="gaussian_bump", amplitude_n=0.05, amplitude_q=0.05, width=5.0
                ),
                dt=dt,
            )
            return np.max(np.abs(run(cfg).monitor["balance_residual"]))

        # dt ladder on a grid fine enough that the spatial floor stays below;
        # the largest dt must sit inside the advective stability limit
        r_dt = [residual(8192, dt) for dt in (0.04, 0.02, 0.01)]
        orders_dt = [np.log2(r_dt[i] / r_dt[i + 1]) for i in range(2)]
        # dx ladder at a dt small enough that the temporal part stays below
        r_dx = [residual(c, 0.002) for c in (1024, 2048, 4096)]
        orders_dx = [np.log2(r_dx[i] / r_dx[i + 1]) for i in range(2)]
        elapsed = time.time() - t0
        report(
            3,
            min(orders_dt) >= 1.0 and min(orders_dx) >= 1.8 and elapsed < 300.0,
            f"dt orders={[f'{o:.2f}' for o in orders_dt]} (>=1) "
            f"dx orders={[f'{o:.2f}' for o in orders_dx]} (>=1.8) "
            f"runtime={elapsed:.0f}s (<5min)",
        )


class TestCriterion4:
    def test_contraction_at_scale(self, contraction_run, contraction_run_refined):
        result, elapsed = contraction_run
        verdict = result.verdict()
        refined = contraction_run_refined.verdict()
        base_viol = verdict["max_violation"]
        ref_viol = refined["max_violation"]
        # violations of an exactly monotone run sit at 0; a refinement must
        # stay on the floor or shrink by >= 4x
        shrink_ok = ref_viol <= max(base_viol / 4.0, 1e-12)
        report(
            4,
            verdict["contraction_held"]
            and base_viol <= 1e-7
            and verdict["dissipation_inequality_held"]
            and verdict["factor4_held"]
            and refined["contraction_held"]
            and shrink_ok
            and elapsed < 600.0,
            f"max_violation={base_viol:.2e} (<=1e-7) refined={ref_viol:.2e} "
            f"dissipation_excess={verdict['dissipation_excess']:.2e} "
            f"factor4={verdict['factor4_held']} max_eta_ratio={verdict['max_eta_ratio']:.3f} "
            f"runtime={elapsed:.0f}s (<10min)",
        )


class TestCriterion5:
    def test_shift_bound_every_step(self, contraction_run):
        result, _ = contraction_run
        m = result.monitor
        gaps = np.abs(np.asarray(m["X_dot"])) - np.asarray(m["xdot_bound"])
        bound_ok = bool(np.all(gaps <= 1e-12 * np.asarray(m["xdot_bound"])))
        report(
            5,
            bound_ok,
            f"|Xdot| <= (2|I_bad|+1)/eps^2 at all {len(gaps)} steps "
            f"(worst gap {np.max(gaps):.2e})",
        )

    def test_zero_perturbation_shift_stays_zero(self, small_params):
        grid = lab_grid(small_params, num_cells=1024)
        cfg = SolverConfig(
            params=small_params,
            grid=grid,
            t_end=5.0,
            perturbation=PerturbationSpec(amplitude_n=0.0, amplitude_q=0.0),
        )
        res = run(cfg)
        x = np.asarray(res.monitor["X"])
        report(5, bool(np.all(x == 0.0)), f"zero perturbation: max|X|={np.max(np.abs(x)):.1e}")


class TestCriterion6:
    @pytest.mark.filterwarnings("ignore:.*outside eps < lam.*:UserWarning")
    def test_nu_scaling(self, params):
        t0 = time.time()
        grid = lab_grid(params, num_cells=2048)
        worst = 0.0
        for nu in (0.5, 2.0, 10.0):
            scaled = make_wave_params(2.0, 0.0, eps=0.1, lam=0.3, nu=nu)
            for seed in range(5):
                state = random_state(params, grid, seed)
                grid_nu = Grid(nu * grid.xi_min, nu * grid.xi_max, grid.num_cells)
                state_nu = State(
                    n=GridField(grid_nu, state.n.values.copy()),
                    q=GridField(grid_nu, state.q.values.copy()),
                )
                lhs = report_core(scaled, state_nu, 0.0).eta_weighted
                rhs = nu * report_core(params, state, 0.0).eta_weighted
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
        elapsed = time.time() - t0
        report(
            6,
            worst < 1e-8 and elapsed < 10.0,
            f"scaling identity worst_rel_err={worst:.2e} (<1e-8) runtime={elapsed:.1f}s",
        )


class TestCriterion7:
    def test_pi_estimate_suite(self):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        n_pairs = 100_000
        violations = 0

        # nonnegativity + coincidence on broad pairs
        n1 = rng.uniform(1e-3, 50.0, n_pairs)
        n2 = rng.uniform(1e-3, 50.0, n_pairs)
        vals = pi_rel(n1, n2)
        violations += int(np.sum(vals < 0.0))
        violations += int(np.sum(pi_rel(n2, n2) != 0.0))

        # monotonicity: m <= n2 <= n1 and n1 <= n2 <= m orderings
        m = rng.uniform(0.1, 10.0, n_pairs)
        step_a = rng.uniform(0.0, 5.0, n_pairs)
        step_b = rng.uniform(0.0, 5.0, n_pairs)
        hi2, hi1 = m + np.minimum(step_a, step_b), m + np.maximum(step_a, step_b)
        violations += int(np.sum(pi_rel(hi1, m) < pi_rel(hi2, m) - 1e-14))
        frac_a = rng.uniform(0.0, 0.9, n_pairs)
        frac_b = rng.uniform(0.0, 0.9, n_pairs)
        lo2 = m * (1.0 - np.minimum(frac_a, frac_b))
        lo1 = m * (1.0 - np.maximum(frac_a, frac_b))
        violations += int(np.sum(pi_rel(lo1, m) < pi_rel(lo2, m) - 1e-14))

        # frozen quadratic sandwich for the n_- = 2 region
        c1 = 5.0
        base = rng.uniform(1.0, 2.0, n_pairs)
        ratio = rng.uniform(0.5, 1.5, n_pairs)
        near = pi_rel(ratio * base, base)
        gap2 = (ratio * base - base) ** 2
        violations += int(np.sum(near > c1 * gap2 + 1e-15))
        violations += int(np.sum(near < gap2 / c1 - 1e-15))

        # exact cubic Taylor lower bound on |w| <= 0.1
        w = rng.uniform(-0.1, 0.1, n_pairs)
        anchor = rng.uniform(0.5, 4.0, n_pairs)
        lower = (anchor / 2.0) * (w**2 - w**3 / 3.0)
        violations += int(np.sum(pi_rel(anchor * (1.0 + w), anchor) < lower - 1e-15))

        elapsed = time.time() - t0
        report(
            7,
            violations == 0 and elapsed < 5.0,
            f"{n_pairs} pairs x 5 properties, violations={violations} "
            f"runtime={elapsed:.1f}s (<5s)",
        )


class TestCriterion8:
    def test_poincare_scan(self, poincare_scan):
        t0 = time.time()
        res = poincare_scan
        # zero violations at delta = 1e-3 means every delta <= 1e-3 passed
        idx = [i for i, d in enumerate(res.delta_grid) if d <= 1e-3]
        all_pass_at_small = all(res.pass_counts[i] == res.n_samples for i in idx)

        c = 1.0
        delta = 0.1
        closed = -((c + 2 * c) ** 2) / delta + (1 + delta) * c + (2 / 3) * c + delta * c
        measured = R_poincare(np.ones(4097), delta)
        const_ok = abs(measured - closed) < 1e-9
        elapsed = time.time() - t0
        report(
            8,
            res.delta_star_empirical >= 1e-3 and all_pass_at_small and const_ok
            and elapsed < 60.0,
            f"delta_star={res.delta_star_empirical:.4g} (>=1e-3) zero violations at 1e-3: "
            f"{all_pass_at_small} constant-case gap={abs(measured - closed):.1e} (<1e-9) "
            f"runtime={elapsed:.1f}s",
        )


class TestCriterion9:
    def test_r_main_sign_monitor(self, contraction_run, contraction_setup):
        result, _ = contraction_run
        _, _, delta1 = contraction_setup
        profile = result.verdict()["Rmain_sign_profile"]
        report(
            9,
            profile["steps_positive"] == 0 and profile["steps_monitored"] > 0,
            f"R_main <= 0 at all {profile['steps_monitored']} steps with |Y| <= eps^2 "
            f"(delta0=0.01, delta1={delta1:.3g} from criterion 8; "
            f"max R_main={profile['max_R_main']:.3e})",
        )
