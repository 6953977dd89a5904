"""Candidate operators: monomial-derivative terms, graphon couplings and
dictionary right-hand sides."""

import numpy as np
import pytest

import koopid
from koopid import (
    Constant,
    Dictionary,
    Field,
    Grid1D,
    GraphonKernel,
    KernelSpec,
    MonomialDerivative,
    apply_rhs,
)
from koopid.errors import DomainError, InvalidInputError, ShapeError
from koopid.fields import trapezoid_weights
from koopid.operators import _int_power, describe_term, rhs_values, term_values


@pytest.fixture
def unit_grid():
    return Grid1D(0.0, 1.0, 101)


class TestTermValidation:
    def test_constant_monomial_disallowed(self):
        with pytest.raises(InvalidInputError):
            MonomialDerivative(0, 0)

    def test_derivative_order_bounded(self):
        with pytest.raises(InvalidInputError):
            MonomialDerivative(1, 4)

    def test_kernel_coefficients_finite(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(np.inf, 0.0, 0.0)


class TestDictionaryValidation:
    def test_duplicate_terms_rejected(self):
        with pytest.raises(InvalidInputError):
            Dictionary((MonomialDerivative(1, 0), MonomialDerivative(1, 0)))

    def test_coefficient_count_mismatch(self):
        with pytest.raises(ShapeError):
            Dictionary((Constant(),), coefficients=(1.0, 2.0))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Dictionary(())


class TestMonomialTerms:
    def test_monomial_derivative_oracle(self, unit_grid):
        # u = x^2 on [0,1]: u * du/dx = 2 x^3 exactly (quadratics are exact)
        x = unit_grid.nodes()
        out = term_values(MonomialDerivative(1, 1), x**2, unit_grid, dirichlet=False)
        assert np.allclose(out, 2 * x**3, atol=1e-9)

    def test_constant_term(self, unit_grid):
        out = term_values(Constant(), unit_grid.nodes(), unit_grid, dirichlet=False)
        assert np.allclose(out, 1.0)


class TestGraphonTerms:
    def test_fast_path_matches_direct_double_integral(self, unit_grid):
        # separable evaluation vs literal O(N^2) per-node trapezoid quadrature
        rng = np.random.default_rng(5)
        x = unit_grid.nodes()
        u = 0.1 * np.cos(3 * x) + 0.05 * rng.standard_normal(x.size)
        ker = KernelSpec(-1.0, 0.7, 0.3)
        out = term_values(GraphonKernel(ker), u, unit_grid, dirichlet=False)
        q = trapezoid_weights(unit_grid)
        f = ker.c0 + ker.cx * x[:, None] + ker.cy * x[None, :]
        direct = (f * (u[None, :] - u[:, None])) @ q
        assert np.allclose(out, direct, atol=1e-12)

    def test_constant_kernel_on_constant_field_is_zero(self, unit_grid):
        u = np.full(unit_grid.num_points, 0.7)
        out = term_values(GraphonKernel(KernelSpec.one()), u, unit_grid, dirichlet=False)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_affine_kernel_decomposes(self, unit_grid):
        # affine kernel = c0 * one + cx * coord_x + cy * coord_y, node-wise
        u = np.sin(2 * np.pi * unit_grid.nodes()) * 0.3

        def graphon(ker):
            return term_values(GraphonKernel(ker), u, unit_grid, dirichlet=False)

        combo = graphon(KernelSpec(-1.0, 0.7, 0.3))
        parts = (
            -1.0 * graphon(KernelSpec.one())
            + 0.7 * graphon(KernelSpec.coord_x())
            + 0.3 * graphon(KernelSpec.coord_y())
        )
        assert np.allclose(combo, parts, atol=1e-12)

    def test_requires_unit_interval(self):
        g = Grid1D(0.0, 2.0, 32)
        with pytest.raises(DomainError):
            term_values(GraphonKernel(KernelSpec.one()), np.zeros(32), g, dirichlet=False)


class TestIntPower:
    @pytest.fixture
    def mixed(self):
        v = np.random.default_rng(7).standard_normal((25, 256))
        v.setflags(write=False)
        return v

    @pytest.mark.parametrize("j", [1, 2])
    def test_bit_identical_to_pow_up_to_squares(self, mixed, j):
        assert np.array_equal(_int_power(mixed, j), mixed**j)

    def test_cube_within_one_ulp(self, mixed):
        ref = mixed**3
        assert np.all(np.abs(_int_power(mixed, 3) - ref) <= np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_new_writeable_array_from_read_only_input(self, mixed, j):
        out = _int_power(mixed, j)
        assert out.flags.writeable
        assert not np.shares_memory(out, mixed)


class TestRhs:
    @pytest.mark.parametrize("skip_zero", [True, False])
    def test_folded_graphon_kernel_matches_per_term_sum(self, skip_zero):
        model = koopid.graphon_model()
        ds = koopid.generate_pairs(model, koopid.ICFamily.GRAPHON, 5, 5, 0.5, seed=1)
        dic = model.dictionary
        out = rhs_values(dic, ds.u, model.grid, False, skip_zero=skip_zero)
        ref = sum(c * term_values(t, ds.u, model.grid, False)
                  for t, c in zip(dic.terms, dic.coefficients))
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_cancelling_graphon_terms_still_need_unit_interval(self):
        g = Grid1D(0.0, 2.0, 32)
        dic = Dictionary(
            (MonomialDerivative(1, 0), GraphonKernel(KernelSpec.one()),
             GraphonKernel(KernelSpec(2.0, 0.0, 0.0))),
            coefficients=(-1.0, 1.0, -0.5),
        )
        with pytest.raises(DomainError):
            rhs_values(dic, np.zeros((2, 32)), g, dirichlet=False)

    def test_weighted_sum_of_terms(self, unit_grid):
        x = unit_grid.nodes()
        u = Field(unit_grid, x**2)
        dic = Dictionary(
            (MonomialDerivative(1, 0), MonomialDerivative(0, 1)),
            coefficients=(2.0, -1.0),
        )
        out = apply_rhs(dic, u)
        assert np.allclose(out.values, 2 * x**2 - 2 * x, atol=1e-9)

    def test_requires_coefficients(self, unit_grid):
        dic = Dictionary((Constant(),))
        with pytest.raises(InvalidInputError):
            apply_rhs(dic, Field(unit_grid, np.zeros(unit_grid.num_points)))

    def test_dirichlet_clamps_boundary(self):
        g = Grid1D(0.0, 1.0, 64)
        v = np.sin(np.pi * g.nodes())
        v[0] = v[-1] = 0.0
        dic = Dictionary((Constant(),), coefficients=(1.0,))  # rhs = 1 everywhere
        out = apply_rhs(dic, Field(g, v, dirichlet=True), dirichlet=True)
        assert out.values[0] == 0.0 and out.values[-1] == 0.0
        assert np.allclose(out.values[1:-1], 1.0)

    def test_batched_evaluation_matches_per_row(self, unit_grid):
        from koopid.operators import rhs_values

        rng = np.random.default_rng(2)
        batch = 0.1 * rng.standard_normal((3, unit_grid.num_points))
        dic = Dictionary(
            (MonomialDerivative(1, 0), MonomialDerivative(2, 0), GraphonKernel(KernelSpec.one())),
            coefficients=(-0.5, 1.5, -1.0),
        )
        full = rhs_values(dic, batch, unit_grid, dirichlet=False)
        for i in range(3):
            row = rhs_values(dic, batch[i], unit_grid, dirichlet=False)
            assert np.allclose(full[i], row, atol=1e-14)


class TestDescribe:
    def test_labels(self):
        assert describe_term(Constant()) == "1"
        assert describe_term(MonomialDerivative(1, 0)) == "u"
        assert describe_term(MonomialDerivative(2, 2)) == "u^2*d2u/dx2"
        assert "graphon" in describe_term(GraphonKernel(KernelSpec.one()))
