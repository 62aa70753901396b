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


class TestIntegrateValuesIsNumpys:
    """The package's one trapezoid is np.trapezoid, bit for bit."""

    SIZES = [2, 3, 4097, 8193]

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
    @pytest.mark.parametrize(
        "kind", ["normal", "signed_zeros", "negative_zeros", "subnormal", "huge"]
    )
    @pytest.mark.parametrize("dx", [0.0137, 1.0 / 4096, 3.0])
    def test_bit_equal(self, kind, size, dx):
        v = self._values(kind, size)
        got = integrate_values(v, dx)
        want = float(np.trapezoid(v, dx=dx))
        assert got == want
        assert np.signbit(got) == np.signbit(want)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize(
        "kind", ["normal", "signed_zeros", "negative_zeros", "subnormal", "huge"]
    )
    @pytest.mark.parametrize("layout", ["C", "F", "strided_out"])
    def test_rows_bit_equal(self, kind, size, layout):
        # a (k, m) block: each row's integral is the 1-D call's, bit for bit,
        # whatever the order of the values or of a caller's temporary
        dx = 1.0 / 4096
        v = self._values(kind, 5 * size).reshape(5, size)
        values, out = v, None
        if layout == "F":
            values = np.asfortranarray(v)
        elif layout == "strided_out":
            out = np.empty((5, size + 1))[:, 1:size]
        got = integrate_values(values, dx, out)
        want = np.trapezoid(v, dx=dx, axis=-1)
        assert got.shape == (5,)
        for row, g, w in zip(v, got, want):
            assert g == w == integrate_values(row, dx)
            assert np.signbit(g) == np.signbit(w)

    @pytest.mark.parametrize("size", SIZES)
    def test_python_list(self, size):
        v = self._values("normal", size).tolist()
        assert integrate_values(v, 0.25) == float(np.trapezoid(v, dx=0.25))


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
        want[:-2] = (-3.0 * v[:-2] + 4.0 * v[1:-1] - v[2:]) / (2.0 * g.dx)
        got = _ddx_forward_biased(v, g.dx)
        assert np.array_equal(got, want)
