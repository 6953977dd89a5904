"""Observable functionals, weighting functions and basis builders."""

import numpy as np
import pytest

from koopid import (
    Bump,
    Dictionary,
    Grid1D,
    InnerProductPower,
    LiftedTerm,
    MonomialDerivative,
    PointEvaluation,
    PowerLaw,
    build_burgers_basis,
    build_lifting_basis,
    functional_values,
)
from koopid.errors import InvalidInputError, PreconditionError
from koopid.fields import trapezoid_weights
from koopid.observables import identity_index, weight_values


class TestWeights:
    def test_bump_support_and_smooth_interior(self):
        g = Grid1D(-6.0, 6.0, 241)
        w = weight_values(Bump(5.0), g)
        x = g.nodes()
        assert np.all(w[np.abs(x) >= 5.0] == 0.0)
        mid = w[np.abs(x) < 1e-9]
        assert mid == pytest.approx(np.exp(-1.0))

    def test_recentered_bump_vanishes_at_interval_ends(self):
        g = Grid1D(0.0, 5.0, 101)
        w = weight_values(Bump(5.0, recentered=True), g)
        assert w[0] == 0.0 and w[-1] == 0.0
        assert w[50] == pytest.approx(np.exp(-1.0))  # maximum at the midpoint

    def test_power_law_and_constant(self):
        g = Grid1D(0.0, 1.0, 11)
        assert np.allclose(weight_values(PowerLaw(2), g), g.nodes() ** 2)
        assert np.allclose(weight_values(PowerLaw(0), g), 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidInputError):
            Bump(-1.0)
        with pytest.raises(InvalidInputError):
            PowerLaw(-2)


class TestInnerProductPower:
    def test_analytic_oracle(self):
        # <cos(pi x / 2), u> with u = cos(pi x / 2) on [-1, 1] equals 1
        g = Grid1D(-1.0, 1.0, 2001)
        u = np.cos(np.pi * g.nodes() / 2.0)
        spec = InnerProductPower(a=1.0, b=0.0)
        assert functional_values(spec, u, g, False) == pytest.approx(1.0, abs=1e-6)

    def test_outer_power_is_power_of_inner_value(self):
        g = Grid1D(-1.0, 1.0, 301)
        u = 0.5 + 0.1 * g.nodes()
        base = functional_values(InnerProductPower(0.3, 0.7, 2, 1), u, g, False)
        cubed = functional_values(InnerProductPower(0.3, 0.7, 2, 3), u, g, False)
        assert cubed == pytest.approx(base**3, rel=1e-12)

    def test_cubes_match_pow_form(self):
        # 1e-14 relative to the size of <w, u^3> without cancellation: the cube
        # of each node value may move by 1 ulp, and a mixed-sign sum scales that
        # by its cancellation; the outer cube triples the inner relative error
        g = Grid1D(-1.0, 1.0, 256)
        x = g.nodes()
        batch = np.random.default_rng(3).standard_normal((25, 256))
        spec = InnerProductPower(0.3, 0.7, 3, 3)
        weights = trapezoid_weights(g) * np.cos(0.3 * np.pi * x / 2.0 + 0.7 * np.pi / 2.0)
        inner = batch**3 @ weights
        size = np.abs(batch) ** 3 @ np.abs(weights)
        out = functional_values(spec, batch, g, dirichlet=False)
        assert np.all(np.abs(out - inner**3) <= 1e-14 * 3.0 * inner**2 * size)

    def test_powers_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            InnerProductPower(0.0, 0.0, 0, 1)

    @pytest.mark.parametrize("a, b", [(np.inf, 0.0), (0.0, -np.inf), (np.nan, 0.0)],
                             ids=["inf-a", "inf-b", "nan-a"])
    def test_coefficients_must_be_finite(self, a, b):
        name, bad = ("b", b) if np.isfinite(a) else ("a", a)
        with pytest.raises(InvalidInputError) as exc:
            InnerProductPower(a, b)
        assert str(exc.value) == f"cosine coefficient {name} must be finite, got {bad!r}"


class TestPointEvaluation:
    def test_interpolates_between_nodes(self):
        g = Grid1D(0.0, 1.0, 11)
        u = g.nodes() ** 2
        # linear interpolation between x=0.1 (0.01) and x=0.2 (0.04)
        assert functional_values(PointEvaluation(0.15), u, g, False) == pytest.approx(0.025)

    def test_batch_matches_numpy_interp(self):
        # at a node, between nodes and at both ends, row by row
        g = Grid1D(-1.0, 2.0, 31)
        x = g.nodes()
        batch = np.random.default_rng(0).standard_normal((4, 31))
        for x_j in (x[0], x[7], 0.3 * x[11] + 0.7 * x[12], x[-1]):
            got = functional_values(PointEvaluation(x_j), batch, g, False)
            ref = [np.interp(x_j, x, row) for row in batch]
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-15)

    def test_outside_domain_rejected(self):
        g = Grid1D(0.0, 1.0, 11)
        with pytest.raises(InvalidInputError):
            functional_values(PointEvaluation(2.0), np.zeros(11), g, False)


class TestLiftedTerm:
    def test_lifted_identity_is_weighted_average(self):
        g = Grid1D(0.0, 1.0, 1001)
        x = g.nodes()
        spec = LiftedTerm(MonomialDerivative(1, 0), PowerLaw(2))
        # <u, x^2> = int_0^1 x^3 dx = 1/4 for u = x
        assert functional_values(spec, x, g, False) == pytest.approx(0.25, abs=1e-6)

    def test_lifted_derivative_uses_dirichlet_tag(self):
        g = Grid1D(0.0, 1.0, 101)
        v = np.sin(np.pi * g.nodes())
        v[0] = v[-1] = 0.0
        tagged = functional_values(
            LiftedTerm(MonomialDerivative(0, 2), PowerLaw(0)), v, g, dirichlet=True
        )
        # <u_xx, 1> for u = sin(pi x) on [0,1] is -pi^2 * 2/pi = -2 pi
        assert tagged == pytest.approx(-2.0 * np.pi, rel=1e-3)


# a kind from the other family in each slot, and a plain string
@pytest.mark.parametrize("build, message", [
    (lambda: Dictionary((MonomialDerivative(1, 0), PowerLaw(1))),
     "unknown term type: PowerLaw(p=1)"),
    (lambda: Dictionary(("u",)), "unknown term type: 'u'"),
    (lambda: LiftedTerm(Bump(1.0), PowerLaw(0)),
     "unknown term type: Bump(L=1.0, recentered=False)"),
    (lambda: LiftedTerm(MonomialDerivative(1, 0), "w"), "unknown weight spec: 'w'"),
    (lambda: LiftedTerm(MonomialDerivative(1, 0), MonomialDerivative(0, 0)),
     "unknown weight spec: MonomialDerivative(j=0, k=0)"),
], ids=["dictionary-weight", "dictionary-text", "lifted-term", "lifted-weight-text",
        "lifted-weight-term"])
def test_foreign_kinds_refused_at_construction(build, message):
    with pytest.raises(InvalidInputError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("spec, shape", [
    (InnerProductPower(0.3, 0.7, 2, 1), (3, 10)),
    (InnerProductPower(0.3, 0.7, 2, 1), ()),
    (PointEvaluation(0.9), (5,)),
    (LiftedTerm(MonomialDerivative(1, 1), PowerLaw(1)), (3, 10)),
], ids=["cosine-batch", "cosine-scalar", "point-state", "lifted-batch"])
def test_functional_values_need_the_grids_last_axis(spec, shape):
    g = Grid1D(0.0, 1.0, 16)
    with pytest.raises(InvalidInputError) as exc:
        functional_values(spec, np.ones(shape), g, dirichlet=False)
    assert str(exc.value) == f"values must have a last axis of length 16, got shape {shape}"


class TestBurgersBasis:
    def test_structure(self):
        basis = build_burgers_basis(1)
        assert len(basis) == 27
        # one (a, b) draw shared across each group of nine
        groups = {(s.a, s.b) for s in basis}
        assert len(groups) == 3
        kl = [(s.state_power, s.outer_power) for s in basis[:9]]
        assert kl == [(k, l) for k in (1, 2, 3) for l in (1, 2, 3)]

    def test_deterministic_per_seed(self):
        assert build_burgers_basis(3) == build_burgers_basis(3)
        assert build_burgers_basis(3) != build_burgers_basis(4)


class TestLiftingBasis:
    def test_basis_follows_dictionary_order(self):
        dic = Dictionary(
            (MonomialDerivative(0, 0), MonomialDerivative(1, 0), MonomialDerivative(0, 2))
        )
        basis = build_lifting_basis(dic, PowerLaw(0))
        assert [spec.term for spec in basis] == list(dic.terms)
        assert identity_index(dic) == 1

    def test_identity_required(self):
        dic = Dictionary((MonomialDerivative(0, 0), MonomialDerivative(0, 2)))
        with pytest.raises(PreconditionError):
            build_lifting_basis(dic, PowerLaw(0))
