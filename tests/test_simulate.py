"""Time integration and snapshot-pair dataset generation."""

import numpy as np
import pytest

import koopid
from koopid import (
    BlowUpError,
    Dictionary,
    Field,
    Grid1D,
    ICFamily,
    MonomialDerivative,
    generate_pairs,
    heat_model,
    integrate,
)
from koopid.errors import InvalidInputError, PreconditionError, ShapeError
from koopid.operators import GraphonKernel
from koopid.simulate import (
    DT_MAX,
    EXPERIMENT_DEFAULTS,
    Model,
    _split_diffusion,
    sample_initial_condition,
    stable_substep,
)
from helpers import sine_mode


class TestStableSubstep:
    def test_diffusion_limit(self):
        # without Dirichlet conditions u_xx stays explicit and limits the step
        g = Grid1D(-1.0, 1.0, 101)  # h = 0.02
        dic = Dictionary((MonomialDerivative(0, 2),), coefficients=(1.0,))
        assert stable_substep(Model("heat", dic, g)) == pytest.approx(0.25 * 0.02**2)

    def test_dirichlet_diffusion_split_off(self):
        # Burgers and heat integrate u_xx exactly and step at DT_MAX
        for m in (koopid.burgers_model(), heat_model(num_points=101)):
            explicit, c = _split_diffusion(m)
            assert c == 1.0
            # the split-off term stays in place with coefficient 0
            assert explicit.terms == m.dictionary.terms
            assert explicit.coefficients[-1] == 0.0
            assert stable_substep(m) == DT_MAX

    @pytest.mark.parametrize("model", [
        koopid.pde1_model(),        # u_xxx and DT_MAX bind, not u_xx
        koopid.pde1_model(256),     # u_xxx binds
        koopid.graphon_model(),     # no u_xx, no Dirichlet conditions
        Model("backward-heat", Dictionary((MonomialDerivative(0, 2),), coefficients=(-1.0,)),
              Grid1D(-1.0, 1.0, 101), dirichlet=True),
    ], ids=["pde1", "pde1-256", "graphon", "backward-heat"])
    def test_no_split_where_diffusion_does_not_set_the_step(self, model):
        assert _split_diffusion(model) == (model.dictionary, 0.0)

    def test_unsplit_builtin_substeps_stay(self):
        assert stable_substep(koopid.pde1_model()) == 1e-3
        assert stable_substep(koopid.graphon_model()) == 1e-3

    def test_capped_at_dt_max(self):
        # reaction-only model has no derivative terms: dt = DT_MAX
        g = Grid1D(0.0, 1.0, 64)
        dic = Dictionary((MonomialDerivative(1, 0),), coefficients=(-1.0,))
        assert stable_substep(Model("decay", dic, g)) == pytest.approx(1e-3)

    def test_dispersion_limit(self):
        g = Grid1D(0.0, 5.0, 128)
        dic = Dictionary((MonomialDerivative(0, 3),), coefficients=(0.1,))
        h = g.spacing
        assert stable_substep(Model("airy", dic, g)) == pytest.approx(0.25 * h**3 / 0.1)


class TestIntegrate:
    def test_heat_mode_decay_oracle(self):
        # mode k of the heat equation on [-1,1] decays at exp(-(k pi/2)^2 t)
        m = heat_model(num_points=256)
        u0 = Field(m.grid, sine_mode(m.grid, 2), dirichlet=True)
        t = 0.1
        out = integrate(m, u0, t)
        expected = np.exp(-((2 * np.pi / 2) ** 2) * t) * u0.values
        assert np.allclose(out.values, expected, atol=5e-4)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_heat_sine_mode_is_exact(self, k):
        # the split-off diffusion flow is exact on the discrete eigenvectors,
        # including the shorter last substep of a horizon off the dt grid
        m = heat_model(num_points=256)
        n, h = m.grid.num_points, m.grid.spacing
        lam = -(4.0 / h**2) * np.sin(k * np.pi / (2 * (n - 1))) ** 2
        u0 = Field(m.grid, sine_mode(m.grid, k), dirichlet=True)
        t = 0.1234
        out = integrate(m, u0, t)
        assert np.max(np.abs(out.values - np.exp(lam * t) * u0.values)) <= 1e-12

    def test_reaction_only_exponential_decay(self):
        g = Grid1D(0.0, 1.0, 32)
        dic = Dictionary((MonomialDerivative(1, 0),), coefficients=(-2.0,))
        m = Model("decay", dic, g)
        u0 = Field(g, np.ones(32))
        out = integrate(m, u0, 0.5)
        assert np.allclose(out.values, np.exp(-1.0), atol=1e-9)

    def test_dirichlet_boundary_pinned(self):
        m = koopid.burgers_model(64)
        u0 = Field(m.grid, sine_mode(m.grid, 1), dirichlet=True)
        out = integrate(m, u0, 0.2)
        assert out.values[0] == 0.0 and out.values[-1] == 0.0

    def test_substep_convergence(self):
        # halving the substep must not change the result materially
        from koopid.simulate import _advance

        m = koopid.burgers_model(64)
        u0 = sine_mode(m.grid, 1)
        dt = stable_substep(m)
        a = _advance(m, u0, 0.2, dt)
        b = _advance(m, u0, 0.2, dt / 2)
        assert np.max(np.abs(a - b)) <= 1e-4 * max(1.0, np.max(np.abs(a)))

    def test_blow_up_reports_time(self):
        # explosive growth: du/dt = u^3 from u = 10
        g = Grid1D(0.0, 1.0, 32)
        dic = Dictionary((MonomialDerivative(3, 0),), coefficients=(1.0,))
        m = Model("explode", dic, g)
        with pytest.raises(BlowUpError) as exc:
            integrate(m, Field(g, np.full(32, 10.0)), 1.0)
        assert exc.value.time is not None and exc.value.time < 1.0

    def test_rejects_mismatched_grid(self):
        m = heat_model(num_points=64)
        other = Field(Grid1D(-1.0, 1.0, 32), np.zeros(32))
        with pytest.raises(ShapeError):
            integrate(m, other, 0.1)

    def test_dirichlet_model_requires_zero_boundary_ic(self):
        m = heat_model(num_points=64)
        with pytest.raises(PreconditionError):
            integrate(m, Field(m.grid, np.ones(64)), 0.1)


class TestBuiltinModels:
    def test_graphon_kernel_is_a_graphon(self):
        # the couplings int f(x, y) (u(y) - u(x)) dy diffuse only for f >= 0,
        # and a graphon takes values in [0, 1]
        dic = koopid.graphon_model().dictionary
        x, y = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 21))
        g = sum(c * (t.kernel.c0 + t.kernel.cx * x + t.kernel.cy * y)
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
        # quotas 2,2,1: trajectory-major means pairs 0-1 share a trajectory
        assert np.allclose(ds.pairs[0][1].values, ds.pairs[1][0].values)

    def test_deterministic_per_seed(self):
        m = koopid.graphon_model(64)
        a = generate_pairs(m, ICFamily.GRAPHON, 2, 4, 0.5, seed=9)
        b = generate_pairs(m, ICFamily.GRAPHON, 2, 4, 0.5, seed=9)
        for (u1, v1), (u2, v2) in zip(a.pairs, b.pairs):
            assert np.array_equal(u1.values, u2.values)
            assert np.array_equal(v1.values, v2.values)

    def test_seed_changes_data(self):
        m = koopid.graphon_model(64)
        a = generate_pairs(m, ICFamily.GRAPHON, 2, 4, 0.5, seed=1)
        b = generate_pairs(m, ICFamily.GRAPHON, 2, 4, 0.5, seed=2)
        assert not np.array_equal(a.pairs[0][0].values, b.pairs[0][0].values)

    def test_burn_in_shifts_sampling_window(self):
        # burn-in b then one step equals no burn-in sampled one segment later
        m = koopid.graphon_model(64)
        a = generate_pairs(m, ICFamily.GRAPHON, 1, 2, 0.5, seed=3, burn_in=0.5)
        b = generate_pairs(m, ICFamily.GRAPHON, 1, 3, 0.5, seed=3)
        assert np.allclose(a.pairs[0][0].values, b.pairs[1][0].values, atol=1e-12)
        assert a.provenance["burn_in"] == 0.5

    def test_negative_burn_in_rejected(self):
        m = koopid.graphon_model(64)
        with pytest.raises(InvalidInputError):
            generate_pairs(m, ICFamily.GRAPHON, 1, 2, 0.5, seed=3, burn_in=-1.0)

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
