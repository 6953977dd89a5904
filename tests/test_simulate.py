"""Time integration and snapshot-pair dataset generation."""

import re

import numpy as np
import pytest
import scipy.linalg

import koopid
from koopid import (
    BlowUpError,
    Dictionary,
    Grid1D,
    ICFamily,
    MonomialDerivative,
    generate_pairs,
    integrate,
)
from koopid.errors import InvalidInputError, KoopidError, PreconditionError
from koopid.fields import diff_values
from koopid.observables import (
    Bump, InnerProductPower, PointEvaluation, PowerLaw, build_burgers_basis,
)
from koopid.operators import (DENSE_STENCIL_NODES, GraphonKernel, fold_terms, rhs_values,
                              term_values)
from koopid.simulate import (
    BUILTIN_MODELS,
    DT_MAX,
    EXPERIMENT_DEFAULTS,
    MAX_REFINE,
    MIN_SUBSTEP,
    SINE_FLOOR,
    Model,
    SnapshotDataset,
    _LawsonRK4,
    _split_linear,
    _term_bounds,
    sample_initial_condition,
)
from helpers import heat_model, sine_mode
from oracles import burgers_cole_hopf, lawson_rk4_step


def split(model):
    """The explicit terms and the split-off linear part that a stepper of
    ``model`` takes."""
    fold = fold_terms(model.dictionary)
    return _split_linear(model, fold, _term_bounds(fold, model.grid.spacing))[:2]


def flow_route(stepper):
    """How a stepper applies its half-step flow: through sine modes, as a
    dense matrix, or not at all."""
    if stepper.model.dirichlet and stepper._linear.keys() == {2}:
        return "sine"
    return "dense" if stepper._linear else "none"


def dispersive_model(num_points):
    """``u_t = -u u_x + 0.1 u_xx + 0.001 u_xxx`` on [-1, 1] under Dirichlet
    conditions: the u_xx bound sets the unsplit step, so the whole linear
    part is split off, as a dense flow."""
    dic = Dictionary((MonomialDerivative(1, 1), MonomialDerivative(0, 2), MonomialDerivative(0, 3)),
                     coefficients=(-1.0, 0.1, 0.001))
    return Model("dispersive", dic, Grid1D(-1.0, 1.0, num_points), dirichlet=True)


class TestStableSubstep:
    def test_diffusion_limit(self):
        # u_xx sets the unsplit step; without Dirichlet conditions it is split
        # off into the dense exact flow, and nothing else limits the step
        g = Grid1D(-1.0, 1.0, 101)  # h = 0.02
        dic = Dictionary((MonomialDerivative(0, 2),), coefficients=(1.0,))
        assert min(b for b, _, _ in _term_bounds(fold_terms(dic), g.spacing)) == pytest.approx(
            0.25 * 0.02**2)
        assert _LawsonRK4(Model("heat", dic, g)).dt == DT_MAX

    def test_dirichlet_diffusion_split_off(self):
        # Burgers and heat integrate u_xx exactly; Burgers then steps at its
        # advection bound 2 h / |c| = 2 h, heat at DT_MAX
        burgers, heat = koopid.burgers_model(), heat_model(num_points=101)
        for m in (burgers, heat):
            explicit, linear = split(m)
            assert linear == {2: 1.0}
            # the split-off term stays in place with coefficient 0
            assert explicit.terms == m.dictionary.terms
            assert explicit.coefficients[-1] == 0.0
        assert _LawsonRK4(burgers).dt == 2.0 * burgers.grid.spacing
        assert _LawsonRK4(heat).dt == DT_MAX

    def test_dirichlet_constant_stays_explicit(self):
        # u^0 with no derivative is no stencil: only c u_xx is split off, and
        # the constant source is stepped explicitly
        m = Model("source", Dictionary((MonomialDerivative(0, 0), MonomialDerivative(0, 2)),
                                       coefficients=(0.5, 1.0)), Grid1D(0.0, 1.0, 64), dirichlet=True)
        explicit, linear = split(m)
        assert linear == {2: 1.0} and explicit.coefficients == (0.5, 0.0)
        out = integrate(m, np.zeros(64), 0.1)
        assert out[0] == 0.0 and out[-1] == 0.0 and np.all(out[1:-1] > 0.0)

    @pytest.mark.parametrize("model", [
        koopid.graphon_model(),     # no derivative terms
        Model("backward-heat", Dictionary((MonomialDerivative(0, 2),), coefficients=(-1.0,)),
              Grid1D(-1.0, 1.0, 101), dirichlet=True),
        # 2 h / 2 = 5e-3 binds before 0.25 h^2 / 1e-3 = 6.25e-3
        Model("transport", Dictionary((MonomialDerivative(0, 1), MonomialDerivative(0, 2)),
                                      coefficients=(-2.0, 1e-3)), Grid1D(0.0, 1.0, 201)),
    ], ids=["graphon", "backward-heat", "transport"])
    def test_no_split_where_diffusion_does_not_set_the_step(self, model):
        assert split(model) == (model.dictionary, {})

    @pytest.mark.parametrize("num_points", [64, 256], ids=["pde1", "pde1-256"])
    def test_split_where_dispersion_sets_the_step(self, num_points):
        # pde1's u_xxx bound binds, so its whole linear part is split off and
        # RK4 steps -0.5 u u_x - 0.2 u u_xx, where the u u_xx bound binds
        m = koopid.pde1_model(num_points)
        h = m.grid.spacing
        explicit, linear = split(m)
        assert linear == {1: -0.5, 2: 1.0, 3: 0.1}
        assert min(b for b, _, _ in _term_bounds(fold_terms(m.dictionary), h)) == pytest.approx(
            0.25 * h**3 / 0.1)
        assert _LawsonRK4(m).dt == pytest.approx(0.25 * h**2 / 0.2)
        assert dict(zip(explicit.terms, explicit.coefficients)) == {
            **dict(zip(m.dictionary.terms, m.dictionary.coefficients)),
            MonomialDerivative(0, 1): 0.0, MonomialDerivative(0, 2): 0.0,
            MonomialDerivative(0, 3): 0.0,
        }

    def test_unsplit_builtin_substeps_stay(self):
        # pde1: u_xxx binds the unsplit step, u u_xx the split one; graphon
        # has no derivative terms
        pde1 = koopid.pde1_model()
        h = pde1.grid.spacing
        assert min(b for b, _, _ in _term_bounds(fold_terms(pde1.dictionary), h)) == pytest.approx(
            0.25 * h**3 / 0.1)
        assert _LawsonRK4(pde1).dt == pytest.approx(0.25 * h**2 / 0.2)
        assert _LawsonRK4(koopid.graphon_model()).dt == DT_MAX

    @pytest.mark.parametrize("advection, route", [(0.5, "sine"), (5.0, "dense")])
    def test_dirichlet_diffusion_keeps_sine_flow_where_it_suffices(self, advection, route):
        # u_xx binds the unsplit step.  With u_xx alone split off, c u_x is
        # stepped explicitly at 2 h / |c|: capped at DT_MAX for c = 0.5, so the
        # sine flow gives the full split's step; for c = 5 it does not
        m = Model("advection-diffusion", Dictionary(
            (MonomialDerivative(0, 1), MonomialDerivative(0, 2)), coefficients=(advection, 1.0)),
            Grid1D(0.0, 1.0, 64), dirichlet=True)
        explicit, linear = split(m)
        stepper = _LawsonRK4(m)
        assert stepper.dt == DT_MAX
        if route == "sine":
            assert linear == {2: 1.0} and explicit.coefficients == (advection, 0.0)
            assert flow_route(stepper) == "sine"
        else:
            assert linear == {1: advection, 2: 1.0} and explicit.coefficients == (0.0, 0.0)
            assert flow_route(stepper) == "dense"

    def test_large_state_refines_substep(self):
        # pde1's u u_xx bound, 0.25 h^2 / 0.2, is the stable substep at
        # |u| <= 1; a state of magnitude 6 needs 2^3 pieces (6 > 4) and the
        # pieces are capped at 2^MAX_REFINE
        m = koopid.pde1_model()
        stepper = _LawsonRK4(m)
        dt = stepper.dt
        states = np.stack([np.full(64, v) for v in (0.5, 1.0, 1.5, 6.0, 1e300)])
        assert list(stepper._refinements(states, dt)) == [0, 0, 1, 3, MAX_REFINE]
        assert list(stepper._refinements(states, dt / 8)) == [0, 0, 0, 0, MAX_REFINE]
        assert stepper._refinements(states[:2], dt) is None

    def test_large_state_within_its_bound_takes_one_step(self):
        # at dt / 8 a state of magnitude 1.5 is within every bound (ratio
        # 1.5 / 8 = 0.19), so all rows form one r = 0 group: the plain step
        stepper = _LawsonRK4(koopid.pde1_model())
        h = stepper.dt / 8
        u = np.stack([np.full(64, v) for v in (0.5, -1.5, 1.2)])
        u[:, [0, -1]] = 0.0
        assert np.abs(u).max() == 1.5
        assert list(stepper._refinements(u, h)) == [0, 0, 0]
        assert np.array_equal(stepper._substep(u, h), stepper.step(u, h))

    def test_large_state_converged_at_stable_substep(self):
        # pde1 on 128 nodes from starts of magnitude up to 6.2: where u > 5
        # its total diffusion coefficient is negative, and a substep bound
        # that ignores |u| steps the exact flow past the growing modes (3e-3
        # relative from a quarter substep at t = 0.1)
        m = koopid.pde1_model(128)
        rng = np.random.default_rng(1)
        u0 = np.stack([sample_initial_condition(ICFamily.PDE1, m.grid, *rng.random(2))
                       for _ in range(3)])
        stepper = _LawsonRK4(m)
        coarse = stepper.advance(u0, 0.1)
        stepper.dt /= 4
        fine = stepper.advance(u0, 0.1)
        assert np.max(np.abs(coarse - fine)) <= 1e-5 * np.max(np.abs(fine))

    @pytest.mark.parametrize("name, route", [
        ("burgers", "sine"), ("pde1", "dense"), ("graphon", "none"),
    ])
    def test_builtin_flow_routes(self, name, route):
        assert flow_route(_LawsonRK4(BUILTIN_MODELS[name]())) == route

    def test_capped_at_dt_max(self):
        # reaction-only model has no derivative terms: dt = DT_MAX
        g = Grid1D(0.0, 1.0, 64)
        dic = Dictionary((MonomialDerivative(1, 0),), coefficients=(-1.0,))
        assert _LawsonRK4(Model("decay", dic, g)).dt == DT_MAX

    @pytest.mark.parametrize("num_points", [256, 1024])
    def test_advection_limit_sets_burgers_step(self, num_points):
        # u u_x with c = -1: dt = 2 h / |c|, below DT_MAX on both grids
        m = koopid.burgers_model(num_points)
        assert _LawsonRK4(m).dt == 2.0 * m.grid.spacing < DT_MAX

    def test_advection_limit(self):
        g = Grid1D(0.0, 1.0, 201)  # h = 0.005
        dic = Dictionary((MonomialDerivative(0, 1),), coefficients=(-2.0,))
        assert _LawsonRK4(Model("transport", dic, g)).dt == pytest.approx(2.0 * 0.005 / 2.0)

    def test_dispersion_limit(self):
        # Airy: u_xxx sets the unsplit step and is split off
        g = Grid1D(0.0, 5.0, 128)
        dic = Dictionary((MonomialDerivative(0, 3),), coefficients=(0.1,))
        h = g.spacing
        assert min(b for b, _, _ in _term_bounds(fold_terms(dic), h)) == pytest.approx(
            0.25 * h**3 / 0.1)
        assert _LawsonRK4(Model("airy", dic, g)).dt == DT_MAX

    def test_substep_at_floor_is_refused(self):
        # u u_xxx on a grid 1e-3 long: 0.25 h^3 = 9.998e-16 would skip every
        # substep and return the initial state
        g = Grid1D(0.0, 1e-3, 64)
        dic = Dictionary((MonomialDerivative(1, 3), MonomialDerivative(1, 0)),
                         coefficients=(1.0, -1.0))
        m = Model("tiny", dic, g)
        assert _LawsonRK4(m).dt <= MIN_SUBSTEP
        with pytest.raises(PreconditionError, match="1e-15"):
            integrate(m, np.cos(g.nodes()), 0.5)


class TestLawsonStep:
    """``_LawsonRK4.step`` against the textbook formula of
    ``oracles.lawson_rk4_step``, one step of ``dt`` on three states."""

    @staticmethod
    def _states(model, family):
        rng = np.random.default_rng(5)
        return np.stack([sample_initial_condition(family, model.grid, *rng.random(2))
                         for _ in range(3)])

    @staticmethod
    def _formula(stepper, rhs, u):
        ref = lawson_rk4_step(stepper._half_flow(stepper.dt), rhs, u, stepper.dt)
        if stepper.model.dirichlet:
            ref[:, [0, -1]] = 0.0
        return ref

    @pytest.mark.parametrize("model, family, route", [
        (koopid.graphon_model(), ICFamily.GRAPHON, "none"),
        (koopid.burgers_model(), ICFamily.BURGERS, "sine"),
        (dispersive_model(160), ICFamily.BURGERS, "dense"),
    ], ids=["graphon", "burgers", "dispersive-160"])
    def test_bit_identical_with_banded_stencils(self, model, family, route):
        # above DENSE_STENCIL_NODES the plan applies the banded taps, so the
        # in-place stages must round exactly as the formula does
        assert model.grid.num_points > DENSE_STENCIL_NODES
        stepper = _LawsonRK4(model)
        assert flow_route(stepper) == route
        u = self._states(model, family)
        start = u.copy()
        got = stepper.step(u, stepper.dt)
        assert np.array_equal(u, start)  # the identity flow hands the stages u itself
        assert np.array_equal(got, self._formula(stepper, lambda v: rhs_values(stepper.plan, v), u))

    @pytest.mark.parametrize("num_points", [32, 64, 128])
    def test_pde1_dense_stencils_agree_with_the_banded_terms(self, num_points):
        model = koopid.pde1_model(num_points)
        assert num_points <= DENSE_STENCIL_NODES
        stepper = _LawsonRK4(model)
        explicit, _ = split(model)

        def banded(v):
            # term by term through the banded operators of diff_values
            return sum(c * term_values(t, v, model.grid, True)
                       for t, c in zip(explicit.terms, explicit.coefficients) if c)

        u = self._states(model, ICFamily.PDE1)
        ref = self._formula(stepper, banded, u)
        got = stepper.step(u, stepper.dt)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestDerivativeFreeBounds:
    """The k = 0 entries of the step table: 35% of RK4's real-axis limit
    2.785 over the rate of the reaction polynomial and of the coupling."""

    @staticmethod
    def reaction_bounds(model):
        fold = fold_terms(model.dictionary)
        return [(b, p) for b, p, k in _term_bounds(fold, model.grid.spacing)
                if k == 0]

    def test_builtin_steps_do_not_move(self):
        # pde1's -2u: 0.975 / 2; graphon's reaction rate 0.5 + 3 + 3, coupling
        # rate 2 max |1 - 0.7x - 0.3y| = 2; Burgers has no k = 0 term
        assert self.reaction_bounds(koopid.pde1_model()) == [
            (pytest.approx(0.35 * 2.785 / 2.0), 0)]
        assert self.reaction_bounds(koopid.graphon_model()) == [
            (pytest.approx(0.35 * 2.785 / 6.5), 2), (pytest.approx(0.35 * 2.785 / 2.0), 0)]
        assert min(b for b, _ in self.reaction_bounds(koopid.graphon_model())) >= 0.115
        assert self.reaction_bounds(koopid.burgers_model()) == []
        assert _LawsonRK4(koopid.pde1_model()).dt == pytest.approx(7.8735e-3, rel=1e-4)
        assert _LawsonRK4(koopid.graphon_model()).dt == DT_MAX

    def test_reaction_is_bounded_as_a_sum(self):
        # u - 2u^2 + u^3: rate 1 + 4 + 3, refined by |u|^2 where |u| > 1
        g = Grid1D(0.0, 1.0, 16)
        dic = Dictionary((MonomialDerivative(1, 0), MonomialDerivative(2, 0),
                          MonomialDerivative(3, 0)), coefficients=(1.0, -2.0, 1.0))
        m = Model("cubic", dic, g)
        assert self.reaction_bounds(m) == [(pytest.approx(0.35 * 2.785 / 8.0), 2)]
        stepper = _LawsonRK4(m)
        assert stepper._powers.tolist() == [2]

    @pytest.mark.parametrize("c, horizon", [(-200.0, 1.0), (-1000.0, 0.2)])
    def test_linear_decay_takes_rk4_amplification(self, c, horizon):
        # before these bounds c = -200 stepped at the cap, z = -5, and grew to
        # 3.0e45 by t = 1 where exp(-200) is 1.4e-87
        g = Grid1D(0.0, 1.0, 64)
        m = Model("decay", Dictionary((MonomialDerivative(1, 0),), coefficients=(c,)), g)
        u0 = np.cos(np.pi * g.nodes())
        dt = _LawsonRK4(m).dt
        assert dt == pytest.approx(0.35 * 2.785 / abs(c))

        def amplification(z):
            return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0

        n_full = int(horizon / dt)
        rem = horizon - n_full * dt
        factor = amplification(c * dt) ** n_full
        if rem > MIN_SUBSTEP:
            factor *= amplification(c * rem)
        assert 0.0 < factor < np.exp(c * horizon) * 1e3
        assert np.allclose(integrate(m, u0, horizon), factor * u0, rtol=1e-9, atol=0.0)

    def test_strong_graphon_coupling_decays(self):
        # coefficient 500 on f = 1: rate 1000, where the cap reached 1.6e115
        g = Grid1D(0.0, 1.0, 64)
        m = Model("couple", Dictionary((GraphonKernel(1.0, 0.0, 0.0),), coefficients=(500.0,)), g)
        assert _LawsonRK4(m).dt == pytest.approx(0.35 * 2.785 / 1000.0)
        u0 = np.cos(np.pi * g.nodes())
        out = integrate(m, u0, 1.0)
        assert np.max(np.abs(out - out.mean())) <= 1e-12 * np.max(np.abs(u0))

    def test_too_stiff_reaction_is_refused(self):
        # c = -1e7 steps at 9.7475e-8, about 1.03e7 substeps per time unit
        g = Grid1D(0.0, 1.0, 16)
        m = Model("stiff", Dictionary((MonomialDerivative(1, 0),), coefficients=(-1e7,)), g)
        with pytest.raises(InvalidInputError, match="would take 10259041 substeps"):
            integrate(m, np.ones(16), 1.0)


#: node values that are not real numbers, each with the message that
#: refuses it; before the array rule the text and the bools were read as
#: numbers and a complex state lost its imaginary part with a ComplexWarning
NOT_REAL_NUMBERS = pytest.mark.parametrize("convert, message", [
    (lambda u: u.astype(str), "values must hold numbers, got dtype <U32"),
    (lambda u: u != 0.0, "values must hold numbers, got dtype bool"),
    (lambda u: u + 0j, "values must be real, got dtype complex128"),
], ids=["numeric-text", "bool", "complex"])


class TestIntegrate:
    def test_heat_mode_decay_oracle(self):
        # mode k of the heat equation on [-1,1] decays at exp(-(k pi/2)^2 t)
        m = heat_model(num_points=256)
        u0 = sine_mode(m.grid, 2)
        t = 0.1
        out = integrate(m, u0, t)
        expected = np.exp(-((2 * np.pi / 2) ** 2) * t) * u0
        assert np.allclose(out, expected, atol=5e-4)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_heat_sine_mode_is_exact(self, k):
        # the split-off diffusion flow is exact on the discrete eigenvectors,
        # including the shorter last substep of a horizon off the dt grid
        m = heat_model(num_points=256)
        n, h = m.grid.num_points, m.grid.spacing
        lam = -(4.0 / h**2) * np.sin(k * np.pi / (2 * (n - 1))) ** 2
        u0 = sine_mode(m.grid, k)
        t = 0.1234
        out = integrate(m, u0, t)
        assert np.max(np.abs(out - np.exp(lam * t) * u0)) <= 1e-12

    @pytest.mark.parametrize("num_points", [64, 256])
    def test_dirichlet_diffusion_flow_matches_expm(self, num_points):
        # the factored half-step flow of Burgers' u_xx is expm((h/2) L) of the
        # Dirichlet stencil on the interior nodes, at the default substep, at
        # the remainder of a horizon off the dt grid and at a substep short
        # enough to keep every sine mode; its boundary rows and columns are
        # exactly 0.  The interior stencil is symmetric, so the reference
        # exponential is taken through its eigh: at the 256-node step the
        # Pade expm is 1.7e-13 from it, the flow 6.7e-14
        m = koopid.burgers_model(num_points)
        stepper = _LawsonRK4(m)
        gen = diff_values(np.eye(num_points), m.grid.spacing, 2, True).T[1:-1, 1:-1]
        assert np.array_equal(gen, gen.T)
        lam, vec = np.linalg.eigh(gen)
        t = 0.1234
        for h in (stepper.dt, t - int(t / stepper.dt) * stepper.dt, 1e-3):
            p_t = stepper._half_flow(h)(np.eye(num_points))
            ref = (vec * np.exp(0.5 * h * lam)) @ vec.T
            assert np.max(np.abs(p_t[1:-1, 1:-1] - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert not p_t[[0, -1]].any() and not p_t[:, [0, -1]].any()

    def test_sine_flow_keeps_the_modes_above_the_floor(self):
        # the modes whose half-step factor exp((h/2) lam_k) is at least
        # SINE_FLOOR: on 256 nodes 49 of 254 at the default substep, 57 at
        # the remainder of a 0.2 horizon and all of them at h = 1e-3.  Fewer
        # than N - 2 at the defaults: the flow is not the dense one
        m = koopid.burgers_model()
        n, dx = m.grid.num_points, m.grid.spacing
        lam = -(4.0 / dx**2) * np.sin(np.arange(1, n - 1) * np.pi / (2 * (n - 1))) ** 2
        stepper = _LawsonRK4(m)
        lengths = (stepper.dt, 0.2 - int(0.2 / stepper.dt) * stepper.dt, 1e-3)
        kept = [stepper._sine_factor(h)[1].size for h in lengths]
        assert kept == [49, 57, n - 2]
        for h, r in zip(lengths, kept):
            assert r == np.count_nonzero(np.exp(0.5 * h * lam) >= SINE_FLOOR)

    def test_strong_diffusion_keeps_no_sine_mode(self):
        # at c = 1e4 even the slowest sine mode decays below SINE_FLOOR in
        # half a step of DT_MAX: the interior comes out exactly 0, without error
        m = Model("strong-heat", Dictionary((MonomialDerivative(0, 2),), coefficients=(1e4,)),
                  Grid1D(-1.0, 1.0, 64), dirichlet=True)
        stepper = _LawsonRK4(m)
        assert stepper.dt == DT_MAX
        assert stepper._sine_factor(stepper.dt)[1].size == 0
        assert not stepper._half_flow(stepper.dt)(np.eye(64)).any()
        assert not integrate(m, sine_mode(m.grid, 1), 0.05).any()

    @pytest.mark.parametrize("model", [
        Model("pde1-linear", Dictionary(
            (MonomialDerivative(0, 1), MonomialDerivative(0, 2), MonomialDerivative(0, 3)),
            coefficients=(-0.5, 1.0, 0.1)), Grid1D(0.0, 5.0, 64), dirichlet=True),
        Model("advection-dispersion", Dictionary(
            (MonomialDerivative(0, 1), MonomialDerivative(0, 2), MonomialDerivative(0, 3)),
            coefficients=(0.3, 0.5, 0.01)), Grid1D(0.0, 2.0, 48)),
    ], ids=["pde1-linear-dirichlet", "advection-dispersion"])
    def test_linear_model_is_exact(self, model):
        # with nothing left for RK4 the dense flow is exp(t L), including the
        # shorter last substep of a horizon off the dt grid.  The one-sided end
        # stencils make L far from normal, so that even scipy's expm is good
        # only to about 1e-12 on data that are large at the ends: the
        # non-Dirichlet start is a bump that is small there
        g = model.grid
        x = g.nodes()
        if model.dirichlet:
            u0 = sample_initial_condition(ICFamily.PDE1, g, 0.3, 0.6)
        else:
            u0 = np.exp(-20.0 * (x - 1.0) ** 2)
        gen = sum(c * diff_values(np.eye(g.num_points), g.spacing, t.k, model.dirichlet).T
                  for t, c in zip(model.dictionary.terms, model.dictionary.coefficients))
        if model.dirichlet:
            gen[[0, -1]] = 0.0
        t = 0.1234
        assert t / _LawsonRK4(model).dt % 1.0 > 0.1
        # scipy's kernel, so that the flow is not checked against its own expm
        ref = scipy.linalg.expm(t * gen) @ u0
        out = integrate(model, u0, t)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_too_many_substeps_refused_before_the_first_step(self, monkeypatch):
        # 1e5 time units at the 2.5e-2 cap need 4e6 substeps
        def no_step(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr(_LawsonRK4, "step", no_step)
        m = koopid.graphon_model(16)
        with pytest.raises(InvalidInputError, match="4000000 substeps"):
            integrate(m, np.zeros(16), 1e5)

    def test_reaction_only_exponential_decay(self):
        g = Grid1D(0.0, 1.0, 32)
        dic = Dictionary((MonomialDerivative(1, 0),), coefficients=(-2.0,))
        m = Model("decay", dic, g)
        out = integrate(m, np.ones(32), 0.5)
        assert np.allclose(out, np.exp(-1.0), atol=1e-9)

    def test_dirichlet_boundary_pinned(self):
        m = koopid.burgers_model(64)
        out = integrate(m, sine_mode(m.grid, 1), 0.2)
        assert out[0] == 0.0 and out[-1] == 0.0

    def test_substep_convergence(self):
        # halving the substep must not change the result materially
        m = koopid.burgers_model(64)
        u0 = sine_mode(m.grid, 1)
        stepper = _LawsonRK4(m)
        a = stepper.advance(u0, 0.2)
        stepper.dt /= 2
        b = stepper.advance(u0, 0.2)
        assert np.max(np.abs(a - b)) <= 1e-4 * max(1.0, np.max(np.abs(a)))

    @pytest.mark.parametrize("viscosity", [1.0, 0.0], ids=["burgers", "inviscid"])
    def test_fine_burgers_grid_integrates(self, viscosity):
        # 1024 nodes: DT_MAX would put RK4 at CFL number 12.8 on u u_x, which
        # blows up the inviscid flow within one default segment
        g = Grid1D(-1.0, 1.0, 1024)
        dic = Dictionary((MonomialDerivative(1, 1), MonomialDerivative(0, 2)),
                         coefficients=(-1.0, viscosity))
        m = Model("burgers", dic, g, dirichlet=True)
        rng = np.random.default_rng(1)
        u0 = np.stack([sample_initial_condition(ICFamily.BURGERS, g, *rng.random(2))
                       for _ in range(3)])
        out = integrate(m, u0, EXPERIMENT_DEFAULTS["burgers"][2])
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_default_segment_converged_at_stable_substep(self, name):
        # one default-ts segment after the default burn-in moves by less than
        # 1e-7 relative when the substep is cut to a quarter
        m = BUILTIN_MODELS[name]()
        _, _, ts, family, burn_in = EXPERIMENT_DEFAULTS[name]
        rng = np.random.default_rng(1)
        u0 = np.stack([sample_initial_condition(family, m.grid, *rng.random(2))
                       for _ in range(3)])
        stepper = _LawsonRK4(m)
        if burn_in:
            u0 = stepper.advance(u0, burn_in)
        coarse = stepper.advance(u0, ts)
        stepper.dt /= 4
        fine = stepper.advance(u0, ts)
        assert np.max(np.abs(coarse - fine)) <= 1e-7 * np.max(np.abs(fine))

    @staticmethod
    def time_and_space_errors(name):
        """Over one default segment of the built-in model ``name`` from three
        seed-1 starts: the largest gap between dt and dt / 4 on 256 nodes
        (time error) and between 256 and 511 nodes at the shared nodes
        (spatial error), with the steppers' dt on 256 and 511 nodes."""
        _, _, ts, family, _ = EXPERIMENT_DEFAULTS[name]
        steps = []

        def segment(num_points, quarter=False):
            m = BUILTIN_MODELS[name](num_points)
            rng = np.random.default_rng(1)
            u0 = np.stack([sample_initial_condition(family, m.grid, *rng.random(2))
                           for _ in range(3)])
            stepper = _LawsonRK4(m)
            steps.append(stepper.dt)
            if quarter:
                stepper.dt /= 4
            return stepper.advance(u0, ts)

        coarse = segment(256)
        time_error = np.max(np.abs(coarse - segment(256, quarter=True)))
        space_error = np.max(np.abs(coarse - segment(511)[:, ::2]))
        return time_error, space_error, steps[0], steps[-1]

    def test_graphon_time_error_below_its_spatial_error(self):
        # graphon steps at the DT_MAX cap, which no derivative bound undercuts.
        # Over one default segment its time error (dt against dt / 4, 4.0e-9
        # relative) stays under a tenth of its spatial error (256 against 511
        # nodes at the shared nodes, 3.4e-7), so a shorter cap buys nothing
        time_error, space_error, *steps = self.time_and_space_errors("graphon")
        assert steps == [DT_MAX, DT_MAX]
        assert time_error <= 0.1 * space_error

    def test_burgers_time_error_below_its_spatial_error(self):
        # Burgers steps at its advection bound 2 h, 71% of RK4's limit on the
        # imaginary axis.  Over one default segment its time error (5.0e-8
        # relative) stays under a tenth of its spatial error (7.4e-6), so a
        # shorter step buys nothing
        time_error, space_error, *steps = self.time_and_space_errors("burgers")
        assert steps == [2.0 * koopid.burgers_model(n).grid.spacing for n in (256, 511)]
        assert time_error <= 0.1 * space_error

    def test_burgers_matches_cole_hopf_at_second_order(self):
        # the seed-1 default starts against the exact solution at t = 0.2 and
        # 1.0, each trajectory relative to its own largest value.  Measured:
        # 3.0e-4 on 128 nodes and 7.4e-5 on 256, a ratio of 4.03, the
        # centred stencils' h^2; the bounds allow twice the errors
        a, b = np.random.default_rng(1).random((EXPERIMENT_DEFAULTS["burgers"][1], 2)).T
        start = lambda s: (s**2 - 1.0) * np.cos(np.pi * (a[:, None] * s + b[:, None]))
        errors = {}
        for n in (128, 256):
            x = koopid.burgers_model(n).grid.nodes()
            exact = [burgers_cole_hopf(start, x, t) for t in (0.2, 1.0)]
            errors[n] = [np.max(np.max(np.abs(integrate(koopid.burgers_model(n), start(x), t) - u),
                                       axis=1) / np.max(np.abs(u), axis=1))
                         for t, u in zip((0.2, 1.0), exact)]
        assert max(errors[128]) <= 6.0e-4 and max(errors[256]) <= 1.5e-4
        for coarse, fine in zip(errors[128], errors[256]):
            assert 3.6 <= coarse / fine <= 4.4

    @staticmethod
    def refinement_gaps(name, grids, horizon):
        """The largest gap at the shared nodes between the states that
        successive ``grids`` reach at ``horizon``, from the seed-1 starts of
        the default dataset of the built-in model ``name``, drawn as
        ``generate_pairs`` draws them."""
        _, trajectories, _, family, _ = EXPERIMENT_DEFAULTS[name]
        rng = np.random.default_rng(1)
        params = [tuple(rng.random(2)) for _ in range(trajectories)]
        states = []
        for n in grids:
            m = BUILTIN_MODELS[name](n)
            u0 = np.stack([sample_initial_condition(family, m.grid, a, b) for a, b in params])
            states.append(integrate(m, u0, horizon))
        return [np.max(np.abs(coarse - fine[:, ::2])) for coarse, fine in zip(states, states[1:])]

    def test_pde1_refines_below_second_order(self):
        # to t = 1.8 (burn-in 1.5 plus ts 0.3) on 33, 65 and 129 nodes.
        # Measured: gaps 3.01e-4 and 1.03e-4, a ratio of 2.94 (2.96 and 3.00
        # at seeds 2 and 3), below the stencils' nominal 4; the larger gap of
        # the finer pair sits next to the right boundary.  The bounds allow
        # twice the gaps and the ratio 10% either way
        gaps = self.refinement_gaps("pde1", (33, 65, 129), 1.8)
        assert gaps[0] <= 6.0e-4 and gaps[1] <= 2.1e-4
        assert 2.64 <= gaps[0] / gaps[1] <= 3.23

    def test_graphon_refines_at_second_order(self):
        # to t = 5 on 65, 129, 257 and 513 nodes.  Measured: gaps 4.96e-7,
        # 1.24e-7 and 3.10e-8, ratios 4.000 and 4.000 (the trapezoid rule's
        # h^2; graphon takes no derivative).  The bounds allow twice the gaps
        # and the ratios 2.5% either way
        gaps = self.refinement_gaps("graphon", (65, 129, 257, 513), 5.0)
        assert gaps[0] <= 1.0e-6 and gaps[1] <= 2.5e-7 and gaps[2] <= 6.2e-8
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.9 <= coarse / fine <= 4.1

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan, 1e-16])
    def test_rejects_nonpositive_or_non_finite_horizon(self, horizon):
        m = koopid.graphon_model(16)
        with pytest.raises(InvalidInputError):
            integrate(m, np.zeros(16), horizon)

    def test_blow_up_reports_time(self):
        # explosive growth: du/dt = u^3 from u = 10 in row 1; row 0 stays at 0
        g = Grid1D(0.0, 1.0, 32)
        dic = Dictionary((MonomialDerivative(3, 0),), coefficients=(1.0,))
        m = Model("explode", dic, g)
        with pytest.raises(BlowUpError) as exc:
            integrate(m, np.stack([np.zeros(32), np.full(32, 10.0)]), 1.0)
        assert exc.value.time is not None and exc.value.time < 1.0
        assert exc.value.trajectory == 1
        assert f"trajectory 1 of model 'explode' blew up at t = {exc.value.time:.6g}" in str(exc.value)

    def test_blow_up_time_is_absolute_in_a_dataset(self):
        # starts of magnitude <= 0.1 under du/dt = 1e3 u^3 take at least 0.05
        # to blow up, so a time below ts = 0.01 would be relative to a segment
        g = Grid1D(0.0, 1.0, 16)
        dic = Dictionary((MonomialDerivative(3, 0),), coefficients=(1e3,))
        m = Model("explode", dic, g)
        with pytest.raises(BlowUpError) as exc:
            generate_pairs(m, ICFamily.GRAPHON, 4, 200, 0.01, seed=1, burn_in=0.02)
        assert exc.value.time > 0.05
        assert 0 <= exc.value.trajectory < 4
        assert f"trajectory {exc.value.trajectory} of" in str(exc.value)
        assert f"t = {exc.value.time:.6g}" in str(exc.value)

    def test_finite_state_with_overflowing_sum_is_not_a_blow_up(self):
        # the sum of 32 entries of 1e307 overflows; the entries themselves decay
        g = Grid1D(0.0, 1.0, 32)
        m = Model("decay", Dictionary((MonomialDerivative(1, 0),), (-1.0,)), g)
        out = integrate(m, np.full(32, 1e307), 0.01)
        assert np.allclose(out, 1e307 * np.exp(-0.01), rtol=1e-12)

    def test_model_needs_coefficients(self):
        candidates = Dictionary((MonomialDerivative(1, 0),))
        with pytest.raises(InvalidInputError, match="^a model dictionary must carry coefficients$"):
            Model("candidates", candidates, Grid1D(0.0, 1.0, 16))

    @NOT_REAL_NUMBERS
    def test_refuses_values_that_are_not_real_numbers(self, convert, message):
        m = koopid.graphon_model(16)
        with pytest.raises(InvalidInputError) as exc:
            integrate(m, convert(np.cos(m.grid.nodes())), 0.1)
        assert str(exc.value) == message

    def test_rejects_a_third_axis(self):
        m = koopid.graphon_model(16)
        with pytest.raises(InvalidInputError) as exc:
            integrate(m, np.zeros((1, 2, 16)), 0.1)
        assert str(exc.value) == ("values must be 1-D or 2-D with at least one row and column, "
                                  "got shape (1, 2, 16)")

    def test_rejects_mismatched_grid(self):
        m = heat_model(num_points=64)
        with pytest.raises(InvalidInputError):
            integrate(m, np.zeros(32), 0.1)

    def test_dirichlet_model_requires_zero_boundary_ic(self):
        m = heat_model(num_points=64)
        with pytest.raises(PreconditionError):
            integrate(m, np.ones(64), 0.1)

    @pytest.mark.parametrize("model", [
        koopid.burgers_model(64), koopid.graphon_model(64), koopid.pde1_model(),
    ], ids=["burgers", "graphon", "pde1"])
    def test_batch_matches_row_by_row(self, model):
        family = ICFamily(model.name)
        rng = np.random.default_rng(4)
        batch = np.stack([sample_initial_condition(family, model.grid, *rng.random(2))
                          for _ in range(3)])
        out = integrate(model, batch, 0.2)
        assert out.shape == batch.shape
        for row, got in zip(batch, out):
            ref = integrate(model, row, 0.2)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestBuiltinModels:
    def test_graphon_kernel_is_a_graphon(self):
        # the couplings int f(x, y) (u(y) - u(x)) dy diffuse only for f >= 0,
        # and a graphon takes values in [0, 1]
        dic = koopid.graphon_model().dictionary
        x, y = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 21))
        g = sum(c * (t.c0 + t.cx * x + t.cy * y)
                for t, c in zip(dic.terms, dic.coefficients)
                if isinstance(t, GraphonKernel))
        assert g.min() >= -1e-12
        assert g.max() <= 1.0 + 1e-12


class TestInitialConditions:
    def test_families_match_formulas(self):
        g = Grid1D(-1.0, 1.0, 64)
        x = g.nodes()
        v = sample_initial_condition(ICFamily.BURGERS, g, 0.3, 0.6)
        assert np.allclose(v, (x**2 - 1) * np.cos(0.3 * np.pi * x + 0.6 * np.pi))
        g5 = Grid1D(0.0, 5.0, 64)
        x5 = g5.nodes()
        v5 = sample_initial_condition(ICFamily.PDE1, g5, 0.3, 0.6)
        assert np.allclose(v5, x5 * (x5 - 5) * np.cos(0.3 * np.pi * x5 / 5 + 0.6 * np.pi))
        g1 = Grid1D(0.0, 1.0, 64)
        x1 = g1.nodes()
        v1 = sample_initial_condition(ICFamily.GRAPHON, g1, 0.3, 0.6)
        assert np.allclose(v1, 0.03 * np.cos(0.6 * np.pi * x1 + 0.6 * np.pi))


class TestGeneratePairs:
    def test_round_robin_quotas_and_order(self):
        m = koopid.graphon_model(64)
        ds = generate_pairs(m, ICFamily.GRAPHON, 3, 5, 0.5, seed=1)
        assert len(ds) == 5
        # quotas 2, 2, 1 in trajectory-major order: pair k starts trajectory
        # traj at segment seg; every trajectory is simulated here on its own
        rng = np.random.default_rng(1)
        snapshots = [np.stack([
            sample_initial_condition(ICFamily.GRAPHON, m.grid, *rng.random(2)) for _ in range(3)
        ])]
        for _ in range(2):
            snapshots.append(_LawsonRK4(m).advance(snapshots[-1], 0.5))
        for k, (traj, seg) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]):
            assert np.allclose(ds.u[k], snapshots[seg][traj], rtol=0.0, atol=1e-12)
            assert np.allclose(ds.u_next[k], snapshots[seg + 1][traj], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("model, family", [
        (koopid.burgers_model(32), ICFamily.BURGERS), (koopid.pde1_model(32), ICFamily.PDE1),
        (koopid.graphon_model(32), ICFamily.GRAPHON),
    ], ids=["burgers", "pde1", "graphon"])
    def test_starts_are_the_per_trajectory_draws(self, model, family):
        # the first pair of each trajectory starts at its own rng.random(2)
        # draw; 29 pairs over 7 trajectories give quotas 5, 4, 4, 4, 4, 4, 4
        ds = generate_pairs(model, family, 7, 29, 0.01, seed=5)
        rng = np.random.default_rng(5)
        starts = [sample_initial_condition(family, model.grid, *rng.random(2)) for _ in range(7)]
        assert np.array_equal(ds.u[[0, 5, 9, 13, 17, 21, 25]], np.stack(starts))

    def test_deterministic_per_seed(self):
        m = koopid.graphon_model(64)
        a = generate_pairs(m, ICFamily.GRAPHON, 2, 4, 0.5, seed=9)
        b = generate_pairs(m, ICFamily.GRAPHON, 2, 4, 0.5, seed=9)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.u_next, b.u_next)

    def test_seed_changes_data(self):
        m = koopid.graphon_model(64)
        a = generate_pairs(m, ICFamily.GRAPHON, 2, 4, 0.5, seed=1)
        b = generate_pairs(m, ICFamily.GRAPHON, 2, 4, 0.5, seed=2)
        assert not np.array_equal(a.u[0], b.u[0])

    def test_burn_in_shifts_sampling_window(self):
        # burn-in b then one step equals no burn-in sampled one segment later
        m = koopid.graphon_model(64)
        a = generate_pairs(m, ICFamily.GRAPHON, 1, 2, 0.5, seed=3, burn_in=0.5)
        b = generate_pairs(m, ICFamily.GRAPHON, 1, 3, 0.5, seed=3)
        assert np.allclose(a.u[0], b.u[1], atol=1e-12)
        assert a.provenance["burn_in"] == 0.5

    def test_negative_burn_in_rejected(self):
        m = koopid.graphon_model(64)
        with pytest.raises(InvalidInputError):
            generate_pairs(m, ICFamily.GRAPHON, 1, 2, 0.5, seed=3, burn_in=-1.0)

    @pytest.mark.parametrize("t_s, burn_in", [
        (np.inf, 0.0), (np.nan, 0.0), (0.5, np.inf), (0.5, np.nan),
    ], ids=["ts-inf", "ts-nan", "burn-in-inf", "burn-in-nan"])
    def test_non_finite_times_rejected(self, t_s, burn_in):
        m = koopid.graphon_model(16)
        with pytest.raises(InvalidInputError):
            generate_pairs(m, ICFamily.GRAPHON, 1, 2, t_s, seed=3, burn_in=burn_in)

    def test_idle_trajectories_rejected(self):
        m = koopid.graphon_model(64)
        with pytest.raises(InvalidInputError):
            generate_pairs(m, ICFamily.GRAPHON, 10, 5, 0.5, seed=1)

    def test_pde1_default_grid_avoids_mesh_instability(self):
        # the third-order benchmark has negative-diffusivity regions; the
        # model default grid must integrate its experiment settings cleanly
        m = koopid.pde1_model()
        burn = EXPERIMENT_DEFAULTS["pde1"][4]
        ds = generate_pairs(m, ICFamily.PDE1, 5, 10, 0.3, seed=1, burn_in=burn)
        assert len(ds) == 10


def _pairs(num_trajectories=2, total_pairs=4, seed=1, burn_in=0.0):
    return generate_pairs(koopid.graphon_model(16), ICFamily.GRAPHON, num_trajectories,
                          total_pairs, 0.5, seed, burn_in)


# each integer field of the library API: a builder, a valid value and the
# message that refuses a non-integer
INTEGER_FIELDS = {
    "grid-nodes": (lambda v: Grid1D(0.0, 1.0, v), 16, "num_points must be an integer"),
    "monomial-j": (lambda v: MonomialDerivative(v, 0), 1, "monomial power j"),
    "monomial-k": (lambda v: MonomialDerivative(0, v), 1, "derivative order k"),
    "state-power": (lambda v: InnerProductPower(0.5, 0.5, v, 1), 1, "state_power must be in"),
    "outer-power": (lambda v: InnerProductPower(0.5, 0.5, 1, v), 1, "outer_power must be in"),
    "power-law exponent": (PowerLaw, 2, "power-law exponent must be a non-negative integer"),
    "basis-seed": (build_burgers_basis, 1, "basis seed must be a non-negative integer"),
    "trajectories": (lambda v: _pairs(num_trajectories=v), 2,
                     "num_trajectories must be an integer"),
    "pairs": (lambda v: _pairs(total_pairs=v), 4, "total_pairs must be an integer"),
    "seed": (lambda v: _pairs(seed=v), 1, "seed must be a non-negative integer"),
}


@pytest.mark.parametrize("field", list(INTEGER_FIELDS))
def test_integer_fields_refuse_non_integers(field):
    build, valid, message = INTEGER_FIELDS[field]
    build(np.int64(valid))  # a numpy integer is an integer
    for value in (valid + 0.5, float(valid), np.nan, str(valid)):
        with pytest.raises(InvalidInputError, match=message):
            build(value)


@pytest.mark.parametrize("field", list(INTEGER_FIELDS))
def test_integer_fields_refuse_bool(field):
    # a JSON boolean is refused in these fields of an input file, and so is
    # True here, although Python counts it as the integer 1
    build, _, message = INTEGER_FIELDS[field]
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}.*, got True$"):
        build(True)


def _sweep(ts_list, burn_in=0.0):
    graphon = koopid.graphon_model(16)
    return koopid.ts_convergence_study(
        graphon, Dictionary(graphon.dictionary.terms), PowerLaw(2), ts_list,
        ICFamily.GRAPHON, 5, 10, 1, burn_in)


# each real-number field of the library API and the name that its message gives
FLOAT_FIELDS = {
    "kernel-c0": (lambda v: GraphonKernel(v, 0.0, 0.0), "kernel coefficient c0"),
    "kernel-cy": (lambda v: GraphonKernel(0.0, 0.0, v), "kernel coefficient cy"),
    "coefficient": (lambda v: Dictionary((MonomialDerivative(1, 0),), (v,)), "coefficient 0"),
    "bump-radius": (Bump, "bump radius L"),
    "cosine-a": (lambda v: InnerProductPower(v, 0.5), "cosine coefficient a"),
    "cosine-b": (lambda v: InnerProductPower(0.5, v), "cosine coefficient b"),
    "point": (PointEvaluation, "evaluation point x_j"),
    "grid-x-min": (lambda v: Grid1D(v, 1.0, 16), "grid endpoint x_min"),
    "grid-x-max": (lambda v: Grid1D(0.0, v, 16), "grid endpoint x_max"),
    "sampling-time": (lambda v: SnapshotDataset(Grid1D(0.0, 1.0, 16), v, np.zeros((1, 16)),
                                                np.zeros((1, 16))), "sampling time"),
    "fit-sampling-time": (lambda v: koopid.edmd_fit(np.eye(3), np.eye(3), v), "sampling time"),
    "horizon": (lambda v: integrate(koopid.graphon_model(16), np.zeros(16), v), "horizon"),
    "burn-in": (lambda v: generate_pairs(koopid.graphon_model(16), ICFamily.GRAPHON, 1, 2, 0.5,
                                         seed=1, burn_in=v), "burn-in (0 for none)"),
    "sweep-sampling-time": (lambda v: _sweep([v, 0.25, 0.125]), "sampling time"),
}


@pytest.mark.parametrize("field", list(FLOAT_FIELDS))
def test_float_fields_refuse_non_numbers(field):
    build, name = FLOAT_FIELDS[field]
    build(np.float64(0.5))  # a numpy float is a real number
    for value in ("x", None, True, [0.5]):
        with pytest.raises(InvalidInputError) as exc:
            build(value)
        assert str(exc.value) == f"{name} must be a real number, got {value!r}"


@pytest.mark.parametrize("field", list(FLOAT_FIELDS))
def test_float_fields_refuse_non_finite_values(field):
    # 10**400 is an int that no float holds
    build, name = FLOAT_FIELDS[field]
    for value in (10**400, np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError) as exc:
            build(value)
        assert str(exc.value) == f"{name} must be finite, got {value!r}"


@pytest.mark.parametrize("build, message", [
    (lambda: Grid1D(0, 1, 4), "num_points must be an integer >= 8, got 4"),
    (lambda: _pairs(num_trajectories=0), "num_trajectories must be an integer >= 1, got 0"),
    (lambda: _pairs(total_pairs=0), "total_pairs must be an integer >= 1, got 0"),
    (lambda: _pairs(seed=-1), "seed must be a non-negative integer, got -1"),
    (lambda: PowerLaw(-2), "power-law exponent must be a non-negative integer, got -2"),
    (lambda: InnerProductPower(0.5, 0.5, 1, 65), "outer_power must be in 1..64, got 65"),
], ids=["grid-nodes", "trajectories", "pairs", "seed", "power-law exponent", "outer-power"])
def test_integers_out_of_range_keep_the_range_message(build, message):
    with pytest.raises(InvalidInputError) as exc:
        build()
    assert str(exc.value) == message


def test_integer_fields_keep_a_python_int():
    # a numpy integer is stored as the int that require_int returns, which
    # the JSON writer takes
    one = np.int64(1)
    term, cosine = MonomialDerivative(one, one), InnerProductPower(0.5, 0.5, one, one)
    for value in (Grid1D(0.0, 1.0, np.int64(16)).num_points, term.j, term.k, PowerLaw(one).p,
                  cosine.state_power, cosine.outer_power):
        assert type(value) is int


# each flag of the library API, which is also the name its message gives
FLAG_FIELDS = {
    "model-dirichlet": (lambda v: Model("m", koopid.graphon_model(16).dictionary,
                                        Grid1D(0.0, 1.0, 16), dirichlet=v), "dirichlet"),
    "dataset-dirichlet": (lambda v: SnapshotDataset(Grid1D(0.0, 1.0, 16), 0.5, np.zeros((1, 16)),
                                                    np.zeros((1, 16)), dirichlet=v), "dirichlet"),
    "bump-recentered": (lambda v: Bump(1.0, recentered=v), "recentered"),
}


@pytest.mark.parametrize("field", list(FLAG_FIELDS))
def test_flag_fields_refuse_non_bools(field):
    # a truthy string such as "false" must not stand for True
    build, name = FLAG_FIELDS[field]
    for flag in (np.True_, np.False_):  # a numpy bool is kept as the Python bool
        assert getattr(build(flag), name) is bool(flag)
    for value in ("false", 0, 1, None):
        with pytest.raises(InvalidInputError) as exc:
            build(value)
        assert str(exc.value) == f"{name} must be a boolean, got {value!r}"


@pytest.mark.parametrize("run", [
    lambda burn_in: _pairs(burn_in=burn_in), lambda burn_in: _sweep([0.5, 0.25, 0.125], burn_in),
], ids=["pairs", "sweep"])
def test_burn_in_refuses_false(run):
    # False == 0, so a zero test alone would take False for no burn-in
    with pytest.raises(InvalidInputError) as exc:
        run(False)
    assert str(exc.value) == "burn-in (0 for none) must be a real number, got False"


def test_zero_burn_in_is_none():
    for burn_in in (0, 0.0, np.int64(0)):
        assert _pairs(burn_in=burn_in).provenance["burn_in"] == 0.0


class TestSnapshotDataset:
    GRID = Grid1D(0.0, 1.0, 16)

    def rows(self):
        """Three Dirichlet snapshots on GRID."""
        return np.outer([1.0, -0.5, 2.0], sine_mode(self.GRID, 1))

    def test_holds_read_only_copies(self):
        u = self.rows()
        ds = SnapshotDataset(self.GRID, 0.1, u, 0.5 * u, dirichlet=True)
        assert len(ds) == 3 and ds.u.shape == ds.u_next.shape == (3, 16)
        u[0, 1] = 7.0
        assert ds.u[0, 1] != 7.0
        with pytest.raises(ValueError):
            ds.u_next[0, 1] = 1.0
        # a buffer of the caller's array is copied too; a list converts to a
        # new array, which is read-only as well
        ds = SnapshotDataset(self.GRID, 0.1, memoryview(u), u.tolist(), dirichlet=True)
        u[0, 1] = 8.0
        assert ds.u[0, 1] == ds.u_next[0, 1] == 7.0
        assert not ds.u.flags.writeable and not ds.u_next.flags.writeable

    @pytest.mark.parametrize(
        "case", ["non-finite", "last-axis", "shape-mismatch", "zero-pairs", "dirichlet-boundary"]
    )
    def test_rejects_malformed_arrays(self, case):
        u = self.rows()
        u_next = 0.5 * u
        if case == "non-finite":
            u_next[1, 3] = np.nan
        elif case == "last-axis":
            u, u_next = u[:, :-1], u_next[:, :-1]
        elif case == "shape-mismatch":
            u_next = u_next[:2]
        elif case == "zero-pairs":
            u, u_next = u[:0], u_next[:0]
        else:
            u_next[2, -1] = 1e-3
        with pytest.raises(KoopidError):
            SnapshotDataset(self.GRID, 0.1, u, u_next, dirichlet=True)

    @NOT_REAL_NUMBERS
    def test_refuses_values_that_are_not_real_numbers(self, convert, message):
        u = self.rows()
        with pytest.raises(InvalidInputError) as exc:
            SnapshotDataset(self.GRID, 0.1, convert(u), 0.5 * u, dirichlet=True)
        assert str(exc.value) == message

    def test_refuses_one_bool_in_a_list(self):
        # a list mixing bools and numbers converts to floats; a True in u and
        # a False at a boundary entry of u_next, where 0.0 would pass
        u = self.rows().tolist()
        u[1][3] = True
        with pytest.raises(InvalidInputError) as exc:
            SnapshotDataset(self.GRID, 0.1, u, self.rows(), dirichlet=True)
        assert str(exc.value) == "values must hold numbers, got True at index [1, 3]"
        u_next = self.rows().tolist()
        u_next[2][-1] = False
        with pytest.raises(InvalidInputError) as exc:
            SnapshotDataset(self.GRID, 0.1, self.rows(), u_next, dirichlet=True)
        assert str(exc.value) == "values must hold numbers, got False at index [2, 15]"

    @pytest.mark.parametrize("ts", [1e-16, 1e-15])
    def test_rejects_sampling_time_at_or_below_min_substep(self, ts):
        # the time rule of simulate: logm(U) / ts would overflow to inf and nan
        u = self.rows()
        with pytest.raises(InvalidInputError, match="sampling time"):
            SnapshotDataset(self.GRID, ts, u, 0.5 * u, dirichlet=True)
