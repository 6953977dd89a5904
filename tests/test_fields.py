"""Grids, quadrature and finite-difference derivatives."""

import math

import numpy as np
import pytest

from koopid import Grid1D
from koopid.errors import InvalidInputError, PreconditionError
from koopid.fields import diff_operator, diff_values, stencil_operator, trapezoid_weights


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

    @pytest.mark.parametrize("x_min, x_max", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_non_finite_endpoints(self, x_min, x_max):
        name, bad = ("x_max", x_max) if np.isfinite(x_min) else ("x_min", x_min)
        with pytest.raises(InvalidInputError) as exc:
            Grid1D(x_min, x_max, 16)
        assert str(exc.value) == f"grid endpoint {name} must be finite, got {bad!r}"


class TestQuadrature:
    def test_weights_sum_to_length(self):
        g = Grid1D(-2.0, 3.0, 41)
        assert trapezoid_weights(g).sum() == pytest.approx(5.0)

    def test_matches_numpy_trapezoid(self):
        g = Grid1D(0.0, np.pi, 101)
        v = np.sin(g.nodes())
        w = np.ones(g.num_points)
        assert trapezoid_weights(g) @ (v * w) == pytest.approx(
            np.trapezoid(v, g.nodes()), abs=1e-14
        )

    def test_polynomial_oracle(self):
        # int_0^1 x^2 * x dx = 1/4; trapezoid converges at O(h^2)
        g = Grid1D(0.0, 1.0, 2001)
        x = g.nodes()
        assert trapezoid_weights(g) @ (x**2 * x) == pytest.approx(0.25, abs=1e-6)


class TestDerivatives:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_second_order_convergence(self, order):
        # error on a smooth non-periodic function must drop ~4x per refinement
        def err(n):
            g = Grid1D(0.0, 1.0, n)
            x = g.nodes()
            d = diff_values(np.exp(x), g.spacing, order, dirichlet=False)
            return float(np.max(np.abs(d - np.exp(x))))

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
            exact = {
                1: np.pi * np.cos(np.pi * x),
                2: -np.pi**2 * np.sin(np.pi * x),
                3: -np.pi**3 * np.cos(np.pi * x),
            }[order]
            d = diff_values(v, g.spacing, order, dirichlet=True)
            return float(np.max(np.abs(d - exact)))

        e1, e2 = err(101), err(201)
        assert e1 / e2 > 3.0

    @pytest.mark.parametrize("order, p", [(k, p) for k in (1, 2, 3) for p in range(k + 2)])
    def test_exact_on_low_degree_polynomials(self, order, p):
        # every row, the one-sided end rows included, is exact up to degree k + 1
        g = Grid1D(-0.7, 2.0, 33)
        x = g.nodes()
        exact = math.perm(p, order) * x ** max(p - order, 0)
        d = diff_values(x**p, g.spacing, order, dirichlet=False)
        assert np.allclose(d, exact, rtol=1e-9, atol=1e-9)

    def test_matrix_is_cached_and_read_only(self):
        d = diff_operator(16, 0.1, 2, dirichlet=True)
        assert diff_operator(16, 0.1, 2, dirichlet=True) is d
        for block in (d.head, d.tail):
            with pytest.raises(ValueError):
                block[0, 0] = 1.0

    @pytest.mark.parametrize("dirichlet", [False, True])
    @pytest.mark.parametrize("orders", [{1: 1.0}, {2: 1.0}, {3: 1.0}, {1: -0.5, 2: 1.0, 3: 0.1}],
                             ids=["k1", "k2", "k3", "k123"])
    def test_batch_layouts_match_row_by_row(self, orders, dirichlet):
        # the taps run over the flattened batch and read across row ends, so
        # each layout must give what each row gives alone: the centred rows
        # exactly, and the boundary blocks up to BLAS's rounding, which can
        # depend on the batch size
        n = 9
        op = stencil_operator(n, 0.3, orders, dirichlet)
        r = op.head.shape[1]
        batch = np.random.default_rng(5).standard_normal((2, 3, n))
        rows = np.stack([op(row) for row in batch.reshape(-1, n)]).reshape(batch.shape)
        wide = np.zeros((3, 2 * n))
        wide[:, ::2] = batch[0]
        for got, want in [
            (op(batch), rows), (op(batch[1]), rows[1]), (op(batch[1, 2]), rows[1, 2]),
            # every other row, and every other column: two non-contiguous layouts
            (op(batch[:, ::2]), rows[:, ::2]), (op(wide[:, ::2]), rows[0]),
        ]:
            assert got.shape == want.shape
            assert np.array_equal(got[..., r:n - r], want[..., r:n - r])
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_invalid_order(self, grid):
        with pytest.raises(InvalidInputError):
            diff_values(np.zeros(grid.num_points), grid.spacing, 4, dirichlet=False)

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
