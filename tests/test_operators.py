"""Candidate operators: monomial-derivative terms, graphon couplings and
dictionary right-hand sides."""

import numpy as np
import pytest

import koopid
from koopid import (
    Dictionary,
    Grid1D,
    GraphonKernel,
    MonomialDerivative,
    RhsPlan,
    rhs_values,
)
from koopid.errors import InvalidInputError, PreconditionError
from koopid.fields import stencil_operator, trapezoid_weights
from koopid.operators import _int_power, describe_term, fold_terms, term_values
from koopid.simulate import REAL_SHARE, RK4_REAL_LIMIT, SAFETY, _term_bounds
from helpers import heat_model


@pytest.fixture
def unit_grid():
    return Grid1D(0.0, 1.0, 101)


class TestTermValidation:
    def test_derivative_order_bounded(self):
        with pytest.raises(InvalidInputError):
            MonomialDerivative(1, 4)

    def test_kernel_coefficients_finite(self):
        with pytest.raises(InvalidInputError):
            GraphonKernel(np.inf, 0.0, 0.0)


class TestDictionaryValidation:
    def test_duplicate_terms_rejected(self):
        with pytest.raises(InvalidInputError):
            Dictionary((MonomialDerivative(1, 0), MonomialDerivative(1, 0)))

    def test_coefficient_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            Dictionary((MonomialDerivative(0, 0),), coefficients=(1.0, 2.0))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Dictionary(())

    @pytest.mark.parametrize("coefficients, message", [
        (("a",), "coefficient 0 must be a real number, got 'a'"),
        ((None,), "coefficient 0 must be a real number, got None"),
        (("1.5",), "coefficient 0 must be a real number, got '1.5'"),
        ((True,), "coefficient 0 must be a real number, got True"),
        ((np.nan,), "coefficient 0 must be finite, got nan"),
        ((-np.inf,), "coefficient 0 must be finite, got -inf"),
        ((10**400,), f"coefficient 0 must be finite, got {10**400}"),
        (2.0, "coefficients must be a sequence of numbers"),
    ], ids=["text", "none", "numeric-text", "bool", "nan", "inf", "huge-int", "scalar"])
    def test_coefficients_must_be_finite_numbers(self, coefficients, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            Dictionary((MonomialDerivative(1, 0),), coefficients=coefficients)


class TestMonomialTerms:
    def test_monomial_derivative_oracle(self, unit_grid):
        # u = x^2 on [0,1]: u * du/dx = 2 x^3 exactly (quadratics are exact)
        x = unit_grid.nodes()
        out = term_values(MonomialDerivative(1, 1), x**2, unit_grid, dirichlet=False)
        assert np.allclose(out, 2 * x**3, atol=1e-9)

    def test_constant_term(self, unit_grid):
        v = np.random.default_rng(4).standard_normal((3, unit_grid.num_points))
        out = term_values(MonomialDerivative(0, 0), v, unit_grid, dirichlet=False)
        assert out.shape == v.shape and np.all(out == 1.0)
        assert describe_term(MonomialDerivative(0, 0)) == "1"

    def test_dirichlet_boundary_entries_are_zero(self):
        # the integrator never moves the two boundary nodes, so a lifted
        # functional must not see the stencil's value there either
        g = Grid1D(0.0, 5.0, 64)
        v = np.sin(np.pi * g.nodes() / 5.0) ** 2
        for term in (MonomialDerivative(0, 0), MonomialDerivative(1, 1), MonomialDerivative(0, 2)):
            free = term_values(term, v, g, dirichlet=False)
            pinned = term_values(term, v, g, dirichlet=True)
            assert pinned[0] == 0.0 and pinned[-1] == 0.0
            assert np.array_equal(pinned[1:-1], free[1:-1])


class TestGraphonTerms:
    def test_fast_path_matches_direct_double_integral(self, unit_grid):
        # separable evaluation vs literal O(N^2) per-node trapezoid quadrature
        rng = np.random.default_rng(5)
        x = unit_grid.nodes()
        u = 0.1 * np.cos(3 * x) + 0.05 * rng.standard_normal(x.size)
        ker = GraphonKernel(-1.0, 0.7, 0.3)
        out = term_values(ker, u, unit_grid, dirichlet=False)
        q = trapezoid_weights(unit_grid)
        f = ker.c0 + ker.cx * x[:, None] + ker.cy * x[None, :]
        direct = (f * (u[None, :] - u[:, None])) @ q
        assert np.allclose(out, direct, atol=1e-12)

    def test_constant_kernel_on_constant_field_is_zero(self, unit_grid):
        u = np.full(unit_grid.num_points, 0.7)
        out = term_values(GraphonKernel(1.0, 0.0, 0.0), u, unit_grid, dirichlet=False)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_affine_kernel_decomposes(self, unit_grid):
        # affine kernel = c0 * 1 + cx * x + cy * y, node-wise
        u = np.sin(2 * np.pi * unit_grid.nodes()) * 0.3

        def graphon(*kernel):
            return term_values(GraphonKernel(*kernel), u, unit_grid, dirichlet=False)

        combo = graphon(-1.0, 0.7, 0.3)
        parts = (
            -1.0 * graphon(1.0, 0.0, 0.0)
            + 0.7 * graphon(0.0, 1.0, 0.0)
            + 0.3 * graphon(0.0, 0.0, 1.0)
        )
        assert np.allclose(combo, parts, atol=1e-12)

    def test_requires_unit_interval(self):
        g = Grid1D(0.0, 2.0, 32)
        with pytest.raises(InvalidInputError):
            term_values(GraphonKernel(1.0, 0.0, 0.0), np.zeros(32), g, dirichlet=False)


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
    @pytest.mark.parametrize("extra_zero_kernel", [True, False])
    def test_folded_graphon_kernel_matches_per_term_sum(self, extra_zero_kernel):
        model = koopid.graphon_model()
        ds = koopid.generate_pairs(model, koopid.ICFamily.GRAPHON, 5, 5, 0.5, seed=1)
        dic = model.dictionary
        if extra_zero_kernel:  # a zero-coefficient kernel must not change the fold
            dic = Dictionary(
                dic.terms + (GraphonKernel(2.0, 0.5, 0.0),),
                coefficients=dic.coefficients + (0.0,),
            )
        out = rhs_values(RhsPlan(dic, model.grid, False), ds.u)
        ref = sum(c * term_values(t, ds.u, model.grid, False)
                  for t, c in zip(dic.terms, dic.coefficients))
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_cancelling_graphon_terms_still_need_unit_interval(self):
        g = Grid1D(0.0, 2.0, 32)
        dic = Dictionary(
            (MonomialDerivative(1, 0), GraphonKernel(1.0, 0.0, 0.0),
             GraphonKernel(2.0, 0.0, 0.0)),
            coefficients=(-1.0, 1.0, -0.5),
        )
        with pytest.raises(InvalidInputError):
            rhs_values(RhsPlan(dic, g, dirichlet=False), np.zeros((2, 32)))

    def test_weighted_sum_of_terms(self, unit_grid):
        x = unit_grid.nodes()
        dic = Dictionary(
            (MonomialDerivative(1, 0), MonomialDerivative(0, 1)),
            coefficients=(2.0, -1.0),
        )
        out = rhs_values(RhsPlan(dic, unit_grid, dirichlet=False), x**2)
        assert np.allclose(out, 2 * x**2 - 2 * x, atol=1e-9)

    def test_requires_coefficients(self, unit_grid):
        dic = Dictionary((MonomialDerivative(0, 0),))
        with pytest.raises(InvalidInputError):
            RhsPlan(dic, unit_grid, dirichlet=False)

    def test_dirichlet_clamps_boundary(self):
        g = Grid1D(0.0, 1.0, 64)
        v = np.sin(np.pi * g.nodes())
        v[0] = v[-1] = 0.0
        dic = Dictionary((MonomialDerivative(0, 0),), coefficients=(1.0,))  # rhs = 1 everywhere
        out = rhs_values(RhsPlan(dic, g, dirichlet=True), v)
        assert out[0] == 0.0 and out[-1] == 0.0
        assert np.allclose(out[1:-1], 1.0)

    def test_batched_evaluation_matches_per_row(self, unit_grid):
        rng = np.random.default_rng(2)
        batch = 0.1 * rng.standard_normal((3, unit_grid.num_points))
        dic = Dictionary(
            (MonomialDerivative(1, 0), MonomialDerivative(2, 0), GraphonKernel(1.0, 0.0, 0.0)),
            coefficients=(-0.5, 1.5, -1.0),
        )
        plan = RhsPlan(dic, unit_grid, dirichlet=False)
        full = rhs_values(plan, batch)
        for i in range(3):
            row = rhs_values(plan, batch[i])
            assert np.allclose(full[i], row, atol=1e-14)


def _mixed_order_model(num_points=40):
    """A non-Dirichlet model with k = 1, 2, 3 terms at powers 0, 1 and 2, so
    that the one-sided rows 0, 1, N-2 and N-1 of every order are used."""
    dic = Dictionary(
        (MonomialDerivative(0, 0), MonomialDerivative(1, 0), MonomialDerivative(3, 0),
         MonomialDerivative(0, 1), MonomialDerivative(1, 1), MonomialDerivative(0, 2),
         MonomialDerivative(2, 2), MonomialDerivative(0, 3), MonomialDerivative(1, 3)),
        coefficients=(0.3, -1.0, 0.5, 0.7, -1.2, 0.05, 0.02, 0.001, -0.002),
    )
    return koopid.Model("mixed", dic, Grid1D(-1.0, 2.0, num_points), dirichlet=False)


def _graphon_only_model():
    """Graphon terms alone: the polynomial holds only the coupling's diagonal."""
    dic = Dictionary(
        (GraphonKernel(1.0, -0.7, -0.3), GraphonKernel(0.0, 0.0, 1.0)),
        coefficients=(0.8, 0.1),
    )
    return koopid.Model("coupling", dic, Grid1D(0.0, 1.0, 50), dirichlet=False)


def _per_term_sum(model, values):
    """The right-hand side term by term, the form a plan replaces."""
    dic = model.dictionary
    return sum(c * term_values(t, values, model.grid, model.dirichlet)
               for t, c in zip(dic.terms, dic.coefficients))


class TestRhsPlan:
    @pytest.mark.parametrize("dirichlet", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 9, 10, 23])
    def test_stencils_equal_diff_values_on_identity_rows(self, dirichlet, k, n):
        # the stencils are written out here, independently of koopid.fields, and
        # applied to every identity row the boundary rule admits: under
        # Dirichlet, the rows that vanish at both ends
        grid = Grid1D(0.0, 1.3, n)
        h = grid.spacing
        u = np.eye(n)[1:-1] if dirichlet else np.eye(n)
        # odd-reflection ghosts u(x_min - d) = -u(x_min + d), u(x_max + d) = -u(x_max - d)
        e = np.concatenate([-u[:, [2, 1]], u, -u[:, [n - 2, n - 3]]], axis=1)
        m2, m1, c, p1, p2 = (e[:, s:s + n] for s in range(5))
        expected = {
            1: (p1 - m1) / (2.0 * h),
            2: (p1 - 2.0 * c + m1) / (h * h),
            3: (p2 - 2.0 * p1 + 2.0 * m1 - m2) / (2.0 * h**3),
        }[k]
        if not dirichlet:
            # one-sided rows at the left end; the right end mirrors them with sign (-1)^k
            rows, den = {
                1: ([(-3.0, 4.0, -1.0)], 2.0 * h),
                2: ([(2.0, -5.0, 4.0, -1.0)], h * h),
                3: ([(-5.0, 18.0, -24.0, 14.0, -3.0), (-3.0, 10.0, -12.0, 6.0, -1.0)],
                    2.0 * h**3),
            }[k]
            for i, row in enumerate(rows):
                expected[:, i] = u[:, :len(row)] @ row / den
                expected[:, n - 1 - i] = (-1.0) ** k * (u[:, ::-1][:, :len(row)] @ row) / den
        got = stencil_operator(n, h, {k: 1.0}, dirichlet)(u)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("make_model", [
        koopid.burgers_model, heat_model, koopid.pde1_model, koopid.graphon_model,
        _mixed_order_model, lambda: _mixed_order_model(160), _graphon_only_model,
    ], ids=["burgers", "heat", "pde1", "graphon", "mixed-orders", "mixed-orders-160",
            "graphon-only"])
    def test_matches_per_term_sum(self, make_model):
        # pde1 and mixed-orders have at most DENSE_STENCIL_NODES nodes, so
        # their plans take dense stencils; burgers, heat and mixed-orders-160
        # take the banded ones
        model = make_model()
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((6, model.grid.num_points))
        if model.dirichlet:
            batch[:, [0, -1]] = 0.0
        plan = RhsPlan(model.dictionary, model.grid, model.dirichlet)
        ref = _per_term_sum(model, batch)
        out = rhs_values(plan, batch)
        assert out.shape == batch.shape
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        edges = [0, 1, -2, -1]
        assert np.max(np.abs(out[:, edges] - ref[:, edges])) <= 1e-13 * np.max(np.abs(ref))
        row = rhs_values(plan, batch[2])
        assert row.shape == batch[2].shape
        assert np.max(np.abs(row - ref[2])) <= 1e-13 * np.max(np.abs(ref))

    def test_built_once_per_generate_pairs(self, monkeypatch):
        import koopid.simulate

        plans, calls = [], []

        class CountedPlan(RhsPlan):
            def __init__(self, *args, **kwargs):
                plans.append(args)
                super().__init__(*args, **kwargs)

        def counted_rhs(plan, values):
            calls.append(plan)
            return rhs_values(plan, values)

        steps = []
        step = koopid.simulate._LawsonRK4.step

        def counted_step(self, u, h):
            steps.append(len(u))
            return step(self, u, h)

        model = koopid.pde1_model()
        substeps = int(np.ceil(0.01 / koopid.simulate._LawsonRK4(model).dt))
        monkeypatch.setattr(koopid.simulate, "RhsPlan", CountedPlan)
        monkeypatch.setattr(koopid.simulate, "rhs_values", counted_rhs)
        monkeypatch.setattr(koopid.simulate._LawsonRK4, "step", counted_step)
        koopid.generate_pairs(model, koopid.ICFamily.PDE1, 2, 4, 0.01, seed=1)
        assert len(plans) == 1
        # 2 segments of at least `substeps` substeps each (more where a start
        # larger than 1 refines them), 4 evaluations per substep
        assert len(steps) > 2 * substeps
        assert len(calls) == 4 * len(steps)
        assert all(plan is calls[0] for plan in calls)

    def test_skip_zero_drops_zero_terms(self):
        g = Grid1D(0.0, 2.0, 32)
        dic = Dictionary(
            (MonomialDerivative(1, 0), MonomialDerivative(0, 2), GraphonKernel(1.0, 0.0, 0.0)),
            coefficients=(-1.0, 0.0, 0.0),
        )
        u = np.sin(np.arange(32.0))
        # the zero-coefficient graphon term is left out, so [0, 2] is accepted
        out = rhs_values(RhsPlan(dic, g, dirichlet=False), u)
        assert np.array_equal(out, -u)

    def test_too_few_nodes_for_an_order(self):
        # Grid1D admits no grid this short; the stencil_operator check still guards the plan
        from types import SimpleNamespace

        dic = Dictionary((MonomialDerivative(0, 3),), coefficients=(1.0,))
        with pytest.raises(PreconditionError):
            RhsPlan(dic, SimpleNamespace(num_points=7, spacing=0.1), dirichlet=False)

    def test_values_off_the_plan_grid_rejected(self, unit_grid):
        dic = Dictionary((MonomialDerivative(0, 1),), coefficients=(1.0,))
        with pytest.raises(InvalidInputError):
            rhs_values(RhsPlan(dic, unit_grid, dirichlet=False), np.zeros((2, 50)))


def _items(fold):
    """A fold's three parts with every mapping as a list of its items, so that
    comparing two folds also compares their orders."""
    poly, groups, kernel = fold
    return list(poly.items()), [(j, list(o.items())) for j, o in groups.items()], kernel


class TestFoldTerms:
    @pytest.mark.parametrize("make_model, expected", [
        (koopid.burgers_model, ([], [(1, [(1, -1.0)]), (0, [(2, 1.0)])], None)),
        (koopid.pde1_model,
         ([(1, -2.0)], [(0, [(1, -0.5), (2, 1.0), (3, 0.1)]), (1, [(1, -0.5), (2, -0.2)])], None)),
        (koopid.graphon_model, ([(1, -0.5), (2, 1.5), (3, -1.0)], [], (1.0, -0.7, -0.3))),
    ], ids=["burgers", "pde1", "graphon"])
    def test_builtin_dictionaries(self, make_model, expected):
        assert _items(fold_terms(make_model().dictionary)) == expected

    def test_mixed_dictionary_and_its_bounds(self):
        # a zero-coefficient term, u at orders 2 and 1, a constant, u^2 and two
        # graphon terms whose kernels cancel: the fold keeps a zero kernel,
        # which bounds nothing
        dic = Dictionary(
            (MonomialDerivative(2, 3), MonomialDerivative(1, 2), MonomialDerivative(0, 0),
             MonomialDerivative(1, 1), MonomialDerivative(2, 0),
             GraphonKernel(1.0, 0.5, -0.25), GraphonKernel(2.0, 1.0, -0.5)),
            coefficients=(0.0, 0.5, 3.0, -2.0, 0.25, 2.0, -1.0),
        )
        fold = fold_terms(dic)
        assert _items(fold) == ([(0, 3.0), (2, 0.25)], [(1, [(2, 0.5), (1, -2.0)])],
                                (0.0, 0.0, 0.0))
        h = 0.1
        # the table's order carries no meaning: compare it sorted
        assert sorted(_term_bounds(fold, h), key=lambda e: (e[2], e[1])) == [
            (pytest.approx(REAL_SHARE * RK4_REAL_LIMIT / (2 * 0.25)), 1, 0),
            (pytest.approx(2.0 * h / 2.0), 1, 1),
            (pytest.approx(SAFETY * h**2 / 0.5), 1, 2),
        ]

    def test_requires_coefficients_as_the_plan_does(self, unit_grid):
        dic = Dictionary((MonomialDerivative(0, 0),))
        message = "right-hand side evaluation requires coefficients"
        with pytest.raises(InvalidInputError, match=message):
            fold_terms(dic)
        with pytest.raises(InvalidInputError, match=message):
            RhsPlan(dic, unit_grid, dirichlet=False)


class TestDescribe:
    def test_labels(self):
        assert describe_term(MonomialDerivative(1, 0)) == "u"
        assert describe_term(MonomialDerivative(0, 3)) == "d3u/dx3"
        assert describe_term(MonomialDerivative(2, 2)) == "u^2*d2u/dx2"
        assert describe_term(GraphonKernel(1.0, -0.7, 0.0)) == "graphon(c0=1,cx=-0.7,cy=0)"
