import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, quad

from contraction_lab.grid import (
    Grid,
    GridField,
    _cumulative_trapezoid,
    _ddx_central,
    _ddx_forward_biased,
    integrate_values,
)


def sampled(fn, xi_min=-1.0, xi_max=1.0, num_cells=64):
    """fn at the nodes of a grid, with the grid's dx."""
    g = Grid(xi_min, xi_max, num_cells)
    return fn(g.nodes()), g.dx


class TestGridBasics:
    def test_nodes_and_dx(self):
        g = Grid(-2.0, 3.0, 10)
        assert g.dx == pytest.approx(0.5)
        nodes = g.nodes()
        assert len(nodes) == 11
        assert nodes[0] == -2.0 and nodes[-1] == 3.0

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid(1.0, -1.0, 16)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 2)

    @pytest.mark.parametrize(
        "xi_min, xi_max", [(-np.inf, 1.0), (-1.0, np.inf), (-np.inf, np.inf), (np.nan, 1.0)]
    )
    def test_non_finite_bounds_rejected(self, xi_min, xi_max):
        # an infinite end would build NaN nodes
        with pytest.raises(ValueError, match="need finite xi_min < xi_max"):
            Grid(xi_min, xi_max, 8)

    def test_field_length_checked(self):
        g = Grid(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            GridField(g, np.zeros(5))

    def test_field_rejects_non_finite(self):
        g = Grid(0.0, 1.0, 8)
        vals = np.zeros(9)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            GridField(g, vals)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            GridField(g, vals)


class TestIntegrate:
    def test_constant_exact(self):
        for cells in (4, 17, 256):
            values, dx = sampled(lambda x: np.ones_like(x), 0.0, 1.0, cells)
            assert integrate_values(values, dx) == pytest.approx(1.0, abs=1e-15)

    def test_odd_function_cancels(self):
        values, dx = sampled(lambda x: x, -1.0, 1.0, 100)
        assert integrate_values(values, dx) == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_against_quadrature(self):
        values, dx = sampled(lambda x: np.exp(-(x**2)), -8.0, 8.0, 16000)
        oracle, _ = quad(lambda x: np.exp(-(x**2)), -8, 8, epsabs=1e-13, limit=200)
        assert integrate_values(values, dx) == pytest.approx(oracle, abs=1e-8)
        assert integrate_values(values, dx) == pytest.approx(np.sqrt(np.pi), abs=1e-8)

    def test_exact_on_linear_fields(self):
        values, dx = sampled(lambda x: 2.0 * x + 1.0, -1.0, 2.0, 37)
        assert integrate_values(values, dx) == pytest.approx(6.0, rel=1e-14)  # int of 2x+1 on [-1,2]

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    def test_linearity(self, a, b):
        f1, dx = sampled(np.sin, -1.0, 1.0, 32)
        f2, _ = sampled(lambda x: np.cos(2 * x), -1.0, 1.0, 32)
        assert integrate_values(a * f1 + b * f2, dx) == pytest.approx(
            a * integrate_values(f1, dx) + b * integrate_values(f2, dx), rel=1e-12, abs=1e-12
        )


EPS = np.finfo(float).eps
# the smallest subnormal: a product or quotient that lands among the
# subnormals errs by up to ETA / 2, whatever its size (so bounds built on it
# are taken in Fractions, where ETA / 2 does not round to zero)
ETA = 2.0**-1074


def _exact_trapezoid(v, dx) -> Fraction:
    """The composite trapezoid rule on the float inputs, in exact arithmetic."""
    values = [Fraction(x) for x in v]
    return Fraction(dx) * (sum(values) - (values[0] + values[-1]) / 2)


def _bound(v, dx) -> Fraction:
    """The accuracy the tests hold the quadrature to on normal numbers:
    (ceil(log2 m) + 4) eps dx sum|v|, for m nodes."""
    m = len(v)
    abs_sum = sum(abs(Fraction(x)) for x in v)
    return (math.ceil(math.log2(m)) + 4) * Fraction(EPS) * Fraction(dx) * abs_sum


class TestIntegrateValuesIsNumpys:
    """The package's one trapezoid is numpy's composite trapezoid rule, summed
    in one pairwise pass: within rounding of the exact rule and of
    np.trapezoid, each row of a block bit-equal to the call on the row, and
    bit-exact where the rule's real arithmetic is. The class is named for the
    earlier rule, bit-equal to np.trapezoid; the name keeps its test ids
    stable, and no test here compares bits with np.trapezoid."""

    SIZES = [2, 3, 4097, 8193]
    KINDS = ["normal", "signed_zeros", "negative_zeros", "subnormal", "huge"]

    @staticmethod
    def _values(kind, size):
        rng = np.random.default_rng(size)
        if kind == "normal":
            return rng.normal(size=size)
        if kind == "signed_zeros":
            return np.where(rng.random(size) < 0.5, -0.0, 0.0)
        if kind == "negative_zeros":
            return np.full(size, -0.0)
        if kind == "subnormal":
            return rng.normal(size=size) * 5e-324 * 2**20
        if kind == "huge":
            return rng.choice([1e300, -1e300], size=size) * rng.uniform(0.5, 1.0, size=size)
        raise ValueError(kind)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dx", [0.0137, 1.0 / 4096, 3.0])
    def test_within_bound(self, kind, size, dx):
        v = self._values(kind, size)
        got = integrate_values(v, dx)
        bound = _bound(v, dx)
        # on subnormal values the bound is below one subnormal step: add the
        # absolute floor of the rounded halving (times dx) and the product
        floor = (1 + Fraction(dx)) * Fraction(ETA) / 2
        assert abs(Fraction(got) - _exact_trapezoid(v, dx)) <= bound + floor
        # np.trapezoid rounds a product and a halving at each of its m - 1
        # terms, so its subnormal floor grows with m
        floor += size * (1 + Fraction(dx)) * Fraction(ETA)
        assert abs(Fraction(got) - Fraction(float(np.trapezoid(v, dx=dx)))) <= bound + floor

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dx", [0.0137, 1.0 / 4096, 3.0])
    def test_bit_equal(self, kind, size, dx):
        """integrate(-v) is -integrate(v), and integrate(2^k v) is
        2^k integrate(v), bit for bit."""
        # the rule's operations are odd and commute with a power of two, and
        # so does their rounding: only the sign of a zero result is fixed
        v = self._values(kind, size)
        got = integrate_values(v, dx)
        negated = integrate_values(-v, dx)
        assert negated == -got
        assert np.signbit(negated) == (np.signbit(-got) and got != 0.0)
        # the halving of an odd multiple of the smallest subnormal rounds,
        # and the same halving scaled up does not, so subnormals are left out
        if kind != "subnormal":
            scale = 2.0**-40 if kind == "huge" else 2.0**40
            scaled = integrate_values(v * scale, dx)
            assert scaled == got * scale
            assert np.signbit(scaled) == np.signbit(got)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("layout", ["C", "F", "strided_out"])
    def test_rows_bit_equal(self, kind, size, layout):
        # a (k, m) block: each row's integral is the 1-D call's, bit for bit,
        # whatever the order of the block's values
        dx = 1.0 / 4096
        v = self._values(kind, 5 * size).reshape(5, size)
        values = v
        if layout == "F":
            values = np.asfortranarray(v)
        elif layout == "strided_out":
            # rows cut out of a wider array: each row contiguous, the block not
            values = np.empty((5, size + 1))[:, 1:]
            values[...] = v
        got = integrate_values(values, dx)
        assert got.shape == (5,)
        for row, g in zip(v, got):
            want = integrate_values(row, dx)
            assert g == want
            assert np.signbit(g) == np.signbit(want)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", ["signed_zeros", "negative_zeros", "positive_zeros"])
    def test_zeros_integrate_to_positive_zero(self, kind, size):
        # whatever sign the reduction gives a sum of -0.0 values, the endpoint
        # correction's subtraction, -0.0 - (-0.0), is +0.0
        v = np.zeros(size) if kind == "positive_zeros" else self._values(kind, size)
        got = integrate_values(v, 0.0137)
        assert got == 0.0 and not np.signbit(got)
        rows = integrate_values(np.stack([v, -v]), 0.0137)
        assert np.array_equal(rows, [0.0, 0.0]) and not np.signbit(rows).any()

    def test_huge_values_stay_finite(self):
        # the sum of |v| must stay below the largest float, 1.8e308; the
        # integrand's scale alone never overflows
        rng = np.random.default_rng(7)
        v = 1e300 * rng.uniform(0.5, 1.0, size=16385)
        for values in (v, np.where(rng.random(16385) < 0.5, -v, v)):
            for dx in (1.0 / 16384, 3.0):
                got = integrate_values(values, dx)
                assert np.isfinite(got)
                assert abs(Fraction(got) - _exact_trapezoid(values, dx)) <= _bound(values, dx)

    @pytest.mark.parametrize("size", SIZES)
    def test_python_list(self, size):
        v = self._values("normal", size)
        got = integrate_values(v.tolist(), 0.25)
        assert got == integrate_values(v, 0.25)
        assert isinstance(got, float)


class TestCumulativeTrapezoid:
    """The private running trapezoid is scipy's, bit for bit."""

    SIZES = [2, 3, 4097, 8193]

    @pytest.mark.parametrize("size", SIZES)
    def test_scalar_dx(self, size):
        y = np.random.default_rng(size).normal(size=size)
        dx = 0.0137
        assert np.array_equal(_cumulative_trapezoid(y, dx), cumulative_trapezoid(y, dx=dx))

    @pytest.mark.parametrize("size", SIZES)
    def test_non_uniform_abscissae(self, size):
        rng = np.random.default_rng(size + 1)
        y = rng.normal(size=size)
        x = np.cumsum(rng.uniform(0.01, 1.0, size=size)) - 3.0
        assert np.array_equal(_cumulative_trapezoid(y, np.diff(x)), cumulative_trapezoid(y, x))

    @pytest.mark.parametrize("size", SIZES)
    def test_initial_zero(self, size):
        y = np.random.default_rng(size + 2).normal(size=size)
        dx = 0.25
        got = np.concatenate(([0.0], _cumulative_trapezoid(y, dx)))
        assert np.array_equal(got, cumulative_trapezoid(y, dx=dx, initial=0.0))


class TestStencils:
    def test_central_exact_on_linear(self):
        values, dx = sampled(lambda x: 3.0 * x - 2.0)
        np.testing.assert_allclose(_ddx_central(values, dx), 3.0, rtol=1e-12)

    def test_central_second_order(self):
        errs = []
        for cells in (64, 128, 256):
            g = Grid(-1.0, 1.0, cells)
            approx = _ddx_central(np.sin(g.nodes()), g.dx)
            errs.append(np.max(np.abs(approx - np.cos(g.nodes()))))
        s1, s2 = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert s1 >= 1.95 and s2 >= 1.95

    def test_upwind_biased_second_order(self):
        # the frame speed is negative at every node, so upwind-biased is forward
        errs = []
        for cells in (64, 128, 256):
            g = Grid(-1.0, 1.0, cells)
            approx = _ddx_forward_biased(np.sin(g.nodes()), g.dx)
            errs.append(np.max(np.abs(approx - np.cos(g.nodes()))))
        slope = np.log2(errs[0] / errs[1])
        assert slope >= 1.9

    @pytest.mark.parametrize("cells", [4, 5, 64])
    def test_forward_biased_is_upwind_biased_at_negative_speed(self, cells):
        g = Grid(-1.0, 1.0, cells)
        v = np.random.default_rng(cells).normal(size=g.num_nodes)
        # the upwind-biased stencil at negative speed, written out: the
        # three-point forward stencil over the central one
        want = _ddx_central(v, g.dx).copy()
        want[:-2] = (-3.0 * v[:-2] + 4.0 * v[1:-1] - v[2:]) * (1.0 / (2.0 * g.dx))
        got = _ddx_forward_biased(v, g.dx)
        assert np.array_equal(got, want)
