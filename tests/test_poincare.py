from dataclasses import asdict

import numpy as np
import pytest

import contraction_lab as cl
from contraction_lab import GridField, R_poincare, W_from_state, sample_W, scan_delta_star
from contraction_lab.poincare import (
    DEFAULT_Y_CELLS,
    SAMPLE_FAMILIES,
    _draw,
    _h1_weight,
    _moments,
    _y_nodes,
)
from contraction_lab.wave import DomainError, profile_n

from conftest import lab_grid


class TestRPoincare:
    def test_zero_function(self):
        assert R_poincare(np.zeros(4097), 0.1) == 0.0

    def test_constant_closed_form(self):
        # derivative term drops; the rest is elementary arithmetic in c
        for c, delta in ((1.0, 0.1), (-0.5, 0.05), (2.0, 0.3)):
            W = np.full(4097, c)
            expected = (
                -((c * c + 2 * c) ** 2) / delta
                + (1 + delta) * c * c
                + (2.0 / 3.0) * c**3
                + delta * abs(c) ** 3
            )
            assert R_poincare(W, delta) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_constant_one_at_tenth(self):
        # -90 + 1.1 + 2/3 + 0.1
        assert R_poincare(np.ones(4097), 0.1) == pytest.approx(-88.13333333333, rel=1e-9)

    def test_normalized_sine_negative_at_small_delta(self):
        y = np.linspace(0, 1, 4097)
        W = np.sin(2 * np.pi * y)
        W /= np.sqrt(np.trapezoid(W * W, dx=1 / 4096))
        assert R_poincare(W, 1e-3) < 0.0

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(0)
        y = np.linspace(0, 1, 1025)
        W = rng.normal(size=3)[0] * np.sin(np.pi * y) + 0.3 * np.cos(2 * np.pi * y)
        deltas = np.geomspace(1e-4, 0.5, 30)
        vals = [R_poincare(W, d) for d in deltas]
        assert np.all(np.diff(vals) > 0)

    def test_delta_domain_checked(self):
        with pytest.raises(DomainError):
            R_poincare(np.ones(33), 0.0)
        with pytest.raises(DomainError):
            R_poincare(np.ones(33), 1.0)


class TestMoments:
    def test_cubes_exact_to_rounding(self):
        for i in range(30):
            w = sample_W(i, 6.0, family=SAMPLE_FAMILIES[i % 3]).W
            _, _, i3, iabs3, _ = _moments(w)
            dy = 1.0 / (len(w) - 1)
            assert abs(i3 - np.trapezoid(w**3, dx=dy)) <= 1e-14 * iabs3
            assert abs(iabs3 - np.trapezoid(np.abs(w) ** 3, dx=dy)) <= 1e-14 * iabs3
            assert abs(i3) <= iabs3


def _oracle_draw(seed, M, family, n_cells):
    """_draw written out in full on fresh nodes, with np.trapezoid."""
    rng = np.random.default_rng(seed)
    y = np.linspace(0.0, 1.0, n_cells + 1)
    if family == "fourier":
        w = np.zeros_like(y)
        for k in range(1, 9):
            w += rng.normal() / k * np.sin(np.pi * k * y) + rng.normal() / k * np.cos(np.pi * k * y)
    elif family == "polynomial":
        degree = int(rng.integers(2, 7))
        w = np.polynomial.polynomial.polyval(y, rng.normal(size=degree + 1))
    else:
        width = rng.uniform(0.05, 0.12)
        center = rng.uniform(0.45, 0.55)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        w = sign * np.exp(-((y - center) ** 2) / (2.0 * width**2))
    dy = 1.0 / n_cells
    w = w * np.sqrt(rng.uniform(0.5 * M, M) / float(np.trapezoid(w * w, dx=dy)))
    # the interior is the central stencil; the weight zeroes both endpoints
    dw = np.gradient(w, dy, edge_order=2)
    moments = (
        float(np.trapezoid(w * w, dx=dy)),
        float(np.trapezoid(w, dx=dy)),
        float(np.trapezoid(w * w * w, dx=dy)),
        float(np.trapezoid(np.abs(w * w * w), dx=dy)),
        float(np.trapezoid(y * (1.0 - y) * dw * dw, dx=dy)),
    )
    return w, moments


class TestDrawIsItsOracle:
    @pytest.mark.parametrize("family", SAMPLE_FAMILIES)
    @pytest.mark.parametrize("n_cells", [1024, DEFAULT_Y_CELLS])
    def test_bit_equal(self, family, n_cells):
        for seed in (0, 7, 1234):
            w, moms = _draw(seed, 6.0, family, n_cells)
            want_w, want_moms = _oracle_draw(seed, 6.0, family, n_cells)
            assert np.array_equal(w, want_w)
            assert moms == want_moms

    @pytest.mark.parametrize("n_cells", [1024, DEFAULT_Y_CELLS])
    def test_nodes_and_weight_are_shared_and_read_only(self, n_cells):
        y, weight = _y_nodes(n_cells), _h1_weight(n_cells)
        assert _y_nodes(n_cells) is y and _h1_weight(n_cells) is weight
        assert not y.flags.writeable and not weight.flags.writeable
        assert np.array_equal(y, np.linspace(0.0, 1.0, n_cells + 1))
        assert np.array_equal(weight, y * (1.0 - y))
        sample_W(3, 1.0, n_cells=n_cells)
        assert _y_nodes(n_cells) is y and _h1_weight(n_cells) is weight


class TestSampleW:
    def test_deterministic(self):
        a = sample_W(17, 1.0, family="fourier")
        b = sample_W(17, 1.0, family="fourier")
        np.testing.assert_array_equal(a.W, b.W)

    def test_norm_budget_respected(self):
        for i in range(300):
            fam = SAMPLE_FAMILIES[i % 3]
            s = sample_W(i, 1.0, family=fam)
            assert s.l2_sq <= 1.0 + 1e-12
            assert s.l2_sq >= 0.5 - 1e-12

    def test_bump_concentrates_near_center(self):
        for seed in range(20):
            s = sample_W(seed, 1.0, family="bump")
            y = np.linspace(0, 1, len(s.W))
            inner = (y >= 0.25) & (y <= 0.75)
            total = np.trapezoid(s.W**2, dx=y[1] - y[0])
            inside = np.trapezoid(np.where(inner, s.W**2, 0.0), dx=y[1] - y[0])
            assert inside >= 0.9 * total

    def test_finite_weighted_h1(self):
        for fam in SAMPLE_FAMILIES:
            s = sample_W(3, 2.0, family=fam)
            assert np.isfinite(s.weighted_h1)

    def test_fourier_matches_uncached_evaluation(self):
        seed, M, n_cells = 29, 3.0, DEFAULT_Y_CELLS
        rng = np.random.default_rng(seed)
        y = np.linspace(0.0, 1.0, n_cells + 1)
        w = np.zeros_like(y)
        for k in range(1, 9):
            w += rng.normal() / k * np.sin(np.pi * k * y) + rng.normal() / k * np.cos(np.pi * k * y)
        w = w * np.sqrt(rng.uniform(0.5 * M, M) / float(np.trapezoid(w * w, dx=1.0 / n_cells)))
        np.testing.assert_array_equal(sample_W(seed, M, family="fourier").W, w)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            sample_W(0, -1.0)
        with pytest.raises(ValueError):
            sample_W(0, 1.0, family="chirp")


class TestScan:
    def test_scan_returns_positive_threshold(self):
        res = scan_delta_star(1.0, 200, np.geomspace(1e-4, 0.2, 15), seed=0)
        assert res.delta_star_empirical >= 1e-3
        assert res.pass_counts[0] == 200

    def test_larger_budget_never_helps(self):
        grid_d = np.geomspace(1e-4, 0.2, 10)
        small = scan_delta_star(1.0, 100, grid_d, seed=0)
        large = scan_delta_star(16.0, 100, grid_d, seed=0)
        assert large.delta_star_empirical <= small.delta_star_empirical

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            scan_delta_star(1.0, 10, [])

    def test_json_payload_shape(self):
        res = scan_delta_star(1.0, 20, [1e-3, 1e-2], seed=1)
        payload = asdict(res)
        assert set(payload) == {
            "M",
            "delta_grid",
            "pass_counts",
            "delta_star_empirical",
            "worst_sample_seed",
            "worst_value",
            "n_samples",
            "tol",
        }

    def test_matches_per_sample_reference(self):
        # every sample drawn through the public sample_W and judged by R_poincare
        M, n, seed, n_cells = 6.0, 60, 5, 1024
        grid_d = np.geomspace(1e-4, 0.3, 12)
        res = scan_delta_star(M, n, grid_d, seed=seed, n_cells=n_cells)
        samples = [
            sample_W(seed + i, M, family=SAMPLE_FAMILIES[i % 3], n_cells=n_cells).W
            for i in range(n)
        ]
        counts, worst_seed, worst = [], None, -np.inf
        for d in sorted(grid_d):
            values = [R_poincare(W, d) for W in samples]
            counts.append(sum(r <= 1e-10 for r in values))
            for i, r in enumerate(values):
                if r > 1e-10 and r > worst:
                    worst, worst_seed = r, seed + i
        assert res.pass_counts == counts
        assert worst_seed is not None and res.worst_sample_seed == worst_seed
        assert res.worst_value == worst

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(DomainError):
            scan_delta_star(-1.0, 10, [1e-3])

    def test_adversarial_kernel_family_stays_negative(self):
        # alpha (3y^2 - c) tuned so int W^2 + 2 int W = 0: the dominant
        # negative term vanishes and the derivative term must carry the sign
        y = np.linspace(0, 1, 4097)
        for c in (0.25, 0.5, 0.75):
            int_p = 1.0 - c
            int_p2 = 9.0 / 5.0 - 2.0 * c + c * c
            alpha = -2.0 * int_p / int_p2
            W = alpha * (3.0 * y * y - c)
            i2, i1, _, _, _ = _moments(W)
            assert abs(i2 + 2 * i1) < 1e-6  # kernel up to quadrature error
            assert R_poincare(W, 1e-3) <= 1e-10

    def test_dominant_term_kicks_in_away_from_kernel(self):
        # any sample with |int W^2 + 2 int W| >= 1/2 is negative already at
        # delta = 0.1
        hits = 0
        for seed in range(200):
            s = sample_W(seed, 1.0, family=SAMPLE_FAMILIES[seed % 3])
            i2, i1, _, _, _ = _moments(s.W)
            if abs(i2 + 2 * i1) >= 0.5:
                hits += 1
                assert R_poincare(s.W, 0.1) < 0.0
        assert hits > 50  # the family produces plenty of off-kernel samples


class TestWFromState:
    def test_wave_maps_to_zero(self, small_params):
        grid = lab_grid(small_params, num_cells=2048)
        n = GridField(grid, np.asarray(profile_n(small_params, grid.nodes())))
        s = W_from_state(small_params, n, n_cells=1024)
        assert np.max(np.abs(s.W)) == 0.0

    def test_constructed_inverse_image(self, small_params):
        # seed the state with W = g(y) pulled back through the coordinate
        # map; pushing forward must recover g up to interpolation error
        p = small_params
        grid = lab_grid(p, num_cells=2**15)
        xi = grid.nodes()
        y_xi = np.asarray(cl.y_of_xi(p, xi))
        g = np.sin(2 * np.pi * y_xi) * y_xi * (1 - y_xi)  # vanishes at the ends
        scale = p.eps / (p.lam * p.n_minus)
        n = GridField(grid, np.asarray(profile_n(p, xi)) * (1.0 + scale * g))
        s = W_from_state(p, n, n_cells=1024)
        y = np.linspace(0, 1, 1025)
        expected = np.sin(2 * np.pi * y) * y * (1 - y)
        assert np.max(np.abs(s.W - expected)) < 1e-5

    def test_dual_coordinate_l2(self, small_params):
        # int_0^1 W^2 dy computed on the y-grid against the xi-side integral
        # with the exact Jacobian dy/dxi
        p = small_params
        grid = lab_grid(p, num_cells=2**16)
        xi = grid.nodes()
        y_xi = np.asarray(cl.y_of_xi(p, xi))
        g = np.exp(-((y_xi - 0.5) ** 2) / 0.02) * 0.7
        scale = p.eps / (p.lam * p.n_minus)
        ntil = np.asarray(profile_n(p, xi))
        n = GridField(grid, ntil * (1.0 + scale * g))
        s = W_from_state(p, n, n_cells=2**14)

        w_xi = n.values / ntil - 1.0
        W_xi = (p.lam * p.n_minus / p.eps) * w_xi
        dy_dxi = (p.eps / (p.nu * p.sigma)) * y_xi * (1.0 - y_xi)
        xi_side = np.trapezoid(W_xi**2 * dy_dxi, dx=grid.dx)
        assert s.l2_sq == pytest.approx(xi_side, rel=1e-6)

    def test_invariants_of_sample(self, small_params):
        grid = lab_grid(small_params, num_cells=2048)
        state_n = GridField(
            grid,
            np.asarray(profile_n(small_params, grid.nodes())) * 1.1,
        )
        s = W_from_state(small_params, state_n, n_cells=512)
        assert s.l2_sq >= 0 and s.weighted_h1 >= 0
        assert s.M == s.l2_sq
