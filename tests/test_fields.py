"""Grids, fields, quadrature and finite-difference derivatives."""

import numpy as np
import pytest

import koopid
from koopid import Field, Grid1D, derivative, inner_product
from koopid.errors import InvalidInputError, PreconditionError, ShapeError
from koopid.fields import diff_values, trapezoid_weights


class TestGrid:
    def test_spacing_and_nodes(self):
        g = Grid1D(0.0, 1.0, 11)
        assert g.spacing == pytest.approx(0.1)
        assert np.allclose(g.nodes(), np.linspace(0, 1, 11))

    def test_invalid_extent(self):
        with pytest.raises(InvalidInputError):
            Grid1D(1.0, 0.0, 16)

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            Grid1D(0.0, 1.0, 4)


class TestField:
    def test_shape_mismatch(self, grid):
        with pytest.raises(ShapeError):
            Field(grid, np.zeros(grid.num_points + 1))

    def test_non_finite_values(self, grid):
        v = np.zeros(grid.num_points)
        v[3] = np.nan
        with pytest.raises(InvalidInputError):
            Field(grid, v)

    def test_dirichlet_requires_zero_boundary(self, grid):
        v = np.ones(grid.num_points)
        with pytest.raises(InvalidInputError):
            Field(grid, v, dirichlet=True)

    def test_values_are_defensively_copied_and_frozen(self, grid):
        src = np.zeros(grid.num_points)
        f = Field(grid, src)
        src[0] = 7.0
        assert f.values[0] == 0.0
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestQuadrature:
    def test_weights_sum_to_length(self):
        g = Grid1D(-2.0, 3.0, 41)
        assert trapezoid_weights(g).sum() == pytest.approx(5.0)

    def test_matches_numpy_trapezoid(self):
        g = Grid1D(0.0, np.pi, 101)
        v = np.sin(g.nodes())
        w = Field(g, np.ones(g.num_points))
        assert inner_product(Field(g, v), w) == pytest.approx(
            np.trapezoid(v, g.nodes()), abs=1e-14
        )

    def test_polynomial_oracle(self):
        # int_0^1 x^2 * x dx = 1/4; trapezoid converges at O(h^2)
        g = Grid1D(0.0, 1.0, 2001)
        x = g.nodes()
        assert inner_product(Field(g, x**2), Field(g, x)) == pytest.approx(0.25, abs=1e-6)

    def test_grid_mismatch(self):
        a = Field(Grid1D(0.0, 1.0, 16), np.zeros(16))
        b = Field(Grid1D(0.0, 1.0, 17), np.zeros(17))
        with pytest.raises(ShapeError):
            inner_product(a, b)


class TestDerivatives:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_second_order_convergence(self, order):
        # error on a smooth non-periodic function must drop ~4x per refinement
        def err(n):
            g = Grid1D(0.0, 1.0, n)
            x = g.nodes()
            u = Field(g, np.exp(x))
            return float(np.max(np.abs(derivative(u, order).values - np.exp(x))))

        e1, e2 = err(101), err(201)
        assert e1 / e2 > 3.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_dirichlet_reflection_convergence(self, order):
        # sine mode vanishing at the boundary: odd reflection keeps O(h^2)
        def err(n):
            g = Grid1D(0.0, 1.0, n)
            x = g.nodes()
            v = np.sin(np.pi * x)
            v[0] = v[-1] = 0.0
            u = Field(g, v, dirichlet=True)
            exact = {
                1: np.pi * np.cos(np.pi * x),
                2: -np.pi**2 * np.sin(np.pi * x),
                3: -np.pi**3 * np.cos(np.pi * x),
            }[order]
            return float(np.max(np.abs(derivative(u, order).values - exact)))

        e1, e2 = err(101), err(201)
        assert e1 / e2 > 3.0

    def test_exact_on_low_degree_polynomials(self):
        g = Grid1D(0.0, 2.0, 33)
        x = g.nodes()
        u = Field(g, x**2)
        assert np.allclose(derivative(u, 1).values, 2 * x, atol=1e-10)
        assert np.allclose(derivative(u, 2).values, 2.0, atol=1e-9)

    def test_invalid_order(self, grid):
        with pytest.raises(InvalidInputError):
            derivative(Field(grid, np.zeros(grid.num_points)), 4)

    def test_too_few_nodes_for_order(self):
        with pytest.raises(PreconditionError):
            diff_values(np.zeros(6), 0.1, 3, dirichlet=False)

    def test_batched_last_axis(self):
        g = Grid1D(0.0, 1.0, 64)
        x = g.nodes()
        batch = np.stack([np.sin(x), np.cos(x)])
        d = diff_values(batch, g.spacing, 1, dirichlet=False)
        assert d.shape == batch.shape
        assert np.allclose(d[0], np.cos(x), atol=1e-3)
        assert np.allclose(d[1], -np.sin(x), atol=1e-3)

