import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from contraction_lab import R_poincare, scan_delta_star
from contraction_lab.poincare import (
    BLOCK_SAMPLES,
    DEFAULT_Y_CELLS,
    SAMPLE_FAMILIES,
    SCAN_TOL,
    _draw,
    _dominant,
    _draw_block,
    _h1_weight,
    _moments,
    _r_values,
    _scratch,
    _y_nodes,
)
from contraction_lab.wave import DomainError


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
            w, _ = _draw(i, 6.0, SAMPLE_FAMILIES[i % 3], DEFAULT_Y_CELLS)
            _, _, i3, iabs3, _ = _moments(w)
            dy = 1.0 / (len(w) - 1)
            assert abs(i3 - np.trapezoid(w**3, dx=dy)) <= 1e-14 * iabs3
            assert abs(iabs3 - np.trapezoid(np.abs(w) ** 3, dx=dy)) <= 1e-14 * iabs3
            assert abs(i3) <= iabs3


def _trapezoid(v, dy):
    """The package's trapezoid rule, dy (sum v - (v[0] + v[-1]) / 2), written
    out: the sum is one np.add.reduce over a fresh contiguous copy of v, and
    the rest is Python float arithmetic."""
    fresh = np.array(v, dtype=float)
    return dy * (float(np.add.reduce(fresh)) - (float(fresh[0]) + float(fresh[-1])) / 2.0)


def _oracle_draw(seed, M, family, n_cells):
    """_draw written out in full on fresh nodes, with its own trapezoid."""
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
    w = w * np.sqrt(rng.uniform(0.5 * M, M) / _trapezoid(w * w, dy))
    # the interior is the central stencil; the weight zeroes both endpoints
    dw = np.gradient(w, dy, edge_order=2)
    moments = (
        _trapezoid(w * w, dy),
        _trapezoid(w, dy),
        _trapezoid(w * w * w, dy),
        _trapezoid(np.abs(w * w * w), dy),
        _trapezoid(y * (1.0 - y) * dw * dw, dy),
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
        _draw(3, 1.0, "fourier", n_cells)
        assert _y_nodes(n_cells) is y and _h1_weight(n_cells) is weight


class TestSampleW:
    """The scan's seeded draw: a test function with int W^2 in [M/2, M], and its moments."""

    def test_deterministic(self):
        a, moms_a = _draw(17, 1.0, "fourier", DEFAULT_Y_CELLS)
        b, moms_b = _draw(17, 1.0, "fourier", DEFAULT_Y_CELLS)
        np.testing.assert_array_equal(a, b)
        assert moms_a == moms_b

    def test_norm_budget_respected(self):
        for i in range(300):
            _, (l2_sq, *_) = _draw(i, 1.0, SAMPLE_FAMILIES[i % 3], DEFAULT_Y_CELLS)
            assert l2_sq <= 1.0 + 1e-12
            assert l2_sq >= 0.5 - 1e-12

    def test_bump_concentrates_near_center(self):
        for seed in range(20):
            w, _ = _draw(seed, 1.0, "bump", DEFAULT_Y_CELLS)
            y = np.linspace(0, 1, len(w))
            inner = (y >= 0.25) & (y <= 0.75)
            total = np.trapezoid(w**2, dx=y[1] - y[0])
            inside = np.trapezoid(np.where(inner, w**2, 0.0), dx=y[1] - y[0])
            assert inside >= 0.9 * total

    def test_finite_weighted_h1(self):
        for fam in SAMPLE_FAMILIES:
            _, moms = _draw(3, 2.0, fam, DEFAULT_Y_CELLS)
            assert np.isfinite(moms[4])

    def test_fourier_matches_uncached_evaluation(self):
        seed, M, n_cells = 29, 3.0, DEFAULT_Y_CELLS
        rng = np.random.default_rng(seed)
        y = np.linspace(0.0, 1.0, n_cells + 1)
        w = np.zeros_like(y)
        for k in range(1, 9):
            w += rng.normal() / k * np.sin(np.pi * k * y) + rng.normal() / k * np.cos(np.pi * k * y)
        w = w * np.sqrt(rng.uniform(0.5 * M, M) / _trapezoid(w * w, 1.0 / n_cells))
        np.testing.assert_array_equal(_draw(seed, M, "fourier", n_cells)[0], w)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown family"):
            _draw(0, 1.0, "chirp", DEFAULT_Y_CELLS)


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
        # every sample drawn on its own by the oracle, which shares no code
        # with the scan, and R taken on its moments in Python floats
        M, n, seed, n_cells = 6.0, 60, 5, 1024
        grid_d = np.geomspace(1e-4, 0.3, 12)
        res = scan_delta_star(M, n, grid_d, seed=seed, n_cells=n_cells)
        assert _outcome(res) == _reference_scan(M, n, grid_d, seed, n_cells)
        assert res.worst_sample_seed is not None
        # the public R_poincare on the scan's own draws passes the same samples
        samples = [_draw(seed + i, M, SAMPLE_FAMILIES[i % 3], n_cells)[0] for i in range(n)]
        counts = [sum(R_poincare(W, d) <= SCAN_TOL for W in samples) for d in sorted(grid_d)]
        assert res.pass_counts == counts

    @pytest.mark.parametrize("grid_d", [[0.1, 1.0], [0.1, 3.0], [-0.1, 0.1], [0.0, 0.1]])
    def test_delta_outside_unit_interval_rejected(self, grid_d):
        # the (1 - delta) H^1 term changes sign at delta = 1
        with pytest.raises(DomainError, match=r"delta must lie in \(0, 1\)"):
            scan_delta_star(1.0, 3, grid_d)

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
            w, _ = _draw(seed, 1.0, SAMPLE_FAMILIES[seed % 3], DEFAULT_Y_CELLS)
            i2, i1, _, _, _ = _moments(w)
            if abs(i2 + 2 * i1) >= 0.5:
                hits += 1
                assert R_poincare(w, 0.1) < 0.0
        assert hits > 50  # the family produces plenty of off-kernel samples


def _reference_scan(M, n, grid_d, seed, n_cells):
    """The scan one sample at a time: each drawn alone by the oracle, and R
    taken on its moments in Python floats.  (pass counts, threshold, worst
    seed, worst value), as ScanResult holds them."""
    moments = [_oracle_draw(seed + i, M, SAMPLE_FAMILIES[i % 3], n_cells)[1] for i in range(n)]
    counts, delta_star, worst_seed, worst = [], 0.0, None, -np.inf
    all_passed = True
    for d in sorted(grid_d):
        count = 0
        for i, (i2, i1, i3, iabs3, ih1) in enumerate(moments):
            r = -(i2 + 2.0 * i1) ** 2 / d + (1.0 + d) * i2 + (2.0 / 3.0) * i3 + d * iabs3 - (1.0 - d) * ih1
            if r <= SCAN_TOL:
                count += 1
            elif r > worst:
                worst, worst_seed = r, seed + i
        counts.append(count)
        if count == n and all_passed:
            delta_star = d
        else:
            all_passed = False
    return counts, delta_star, worst_seed, worst if np.isfinite(worst) else 0.0


def _outcome(res):
    return res.pass_counts, res.delta_star_empirical, res.worst_sample_seed, res.worst_value


class TestBlockScan:
    """Samples drawn in blocks of one family equal the same samples drawn one by one."""

    SIZES = sorted({1, 2, BLOCK_SAMPLES - 1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1, 3 * BLOCK_SAMPLES + 2})
    GRID = np.geomspace(1e-3, 0.9, 10)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("M", [1.0, 6.0, 20.0])
    def test_matches_per_sample_reference(self, n, M):
        # every family, whole and partial blocks, and a last block of each size
        res = scan_delta_star(M, n, self.GRID, seed=11, n_cells=512)
        assert _outcome(res) == _reference_scan(M, n, self.GRID, 11, 512)
        if n == 3 * BLOCK_SAMPLES + 2:
            assert res.worst_sample_seed is not None  # the reference's worst is exercised

    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_block_size_does_not_move_the_result(self, block, monkeypatch):
        want = _outcome(scan_delta_star(6.0, 41, self.GRID, seed=4, n_cells=256))
        monkeypatch.setattr("contraction_lab.poincare.BLOCK_SAMPLES", block)
        assert _outcome(scan_delta_star(6.0, 41, self.GRID, seed=4, n_cells=256)) == want

    def test_all_pass(self):
        n = 3 * BLOCK_SAMPLES + 2
        res = scan_delta_star(1.0, n, [1e-4, 1e-3], seed=0, n_cells=512)
        assert res.worst_sample_seed is None and res.worst_value == 0.0
        assert res.pass_counts == [n, n] and res.delta_star_empirical == 1e-3
        assert _outcome(res) == _reference_scan(1.0, n, [1e-4, 1e-3], 0, 512)

    @pytest.mark.parametrize("family", SAMPLE_FAMILIES)
    def test_block_rows_are_the_oracle(self, family):
        # each row of a block, the last one partial, is its sample drawn alone
        n_cells, seeds = 1024, [5 + 3 * j for j in range(BLOCK_SAMPLES - 1)]
        w, s1, s2 = (r[: len(seeds)] for r in _scratch(BLOCK_SAMPLES, n_cells + 1))
        moments = _draw_block(seeds, 6.0, family, w, s1, s2)
        for j, seed in enumerate(seeds):
            want_w, want_moms = _oracle_draw(seed, 6.0, family, n_cells)
            assert np.array_equal(w[j], want_w)
            assert tuple(moments[:, j].tolist()) == want_moms

    def test_r_values_are_python_float_arithmetic(self):
        # R of every sample, taken at once, is the closed form in Python
        # floats bit for bit; numpy's x * x for the square would differ from
        # Python's ** in a few of these values
        moments = np.random.default_rng(3).normal(size=(5, 20000))
        moments[3:] = np.abs(moments[3:])
        for d in (1e-3, 0.1, 0.7):
            want = [
                -(i2 + 2.0 * i1) ** 2 / d + (1.0 + d) * i2 + (2.0 / 3.0) * i3 + d * iabs3 - (1.0 - d) * ih1
                for i2, i1, i3, iabs3, ih1 in zip(*moments.tolist())
            ]
            assert _r_values(moments, _dominant(moments), d).tolist() == want

    def test_reproduces_recorded_benchmark_scans(self):
        # two of the benchmark's recorded scans (M 6, 1000 samples, 4096 cells)
        path = Path(__file__).resolve().parent.parent / "perfbench" / "expected_poincare.json"
        recorded = json.loads(path.read_text())
        p = recorded["poincare"]
        grid_d = np.geomspace(p["delta_min"], p["delta_max"], p["delta_points"])
        seeds = sorted(recorded["scans"], key=int)
        for key in (seeds[0], seeds[-1]):
            res = scan_delta_star(p["M"], p["n_samples"], grid_d, seed=int(key), n_cells=p["y_cells"])
            want = recorded["scans"][key]
            assert res.delta_star_empirical == want["delta_star_empirical"]
            assert res.pass_counts == want["pass_counts"]
