"""Lifting and direct coefficient identification."""

import numpy as np
import pytest

import koopid
from koopid import (
    BranchCutError,
    ConstantWeight,
    Dictionary,
    Field,
    ICFamily,
    MonomialDerivative,
    RankDeficiencyError,
    SnapshotDataset,
    direct_identify,
    generate_pairs,
    heat_model,
    lifting_identify,
    reconstruct_operator,
    true_coefficients,
    ts_convergence_study,
    weak_residual,
)
from koopid.errors import PreconditionError
from koopid.simulate import _advance, stable_substep
from helpers import dirichlet_field, sine_mode


def heat_modes_dataset(modes=(1, 3), ts=0.1, seed=1, num_states=5, grid_points=256):
    """Heat-equation pairs with states confined to a span of sine modes.

    The sine modes are exact eigenvectors of the discrete Dirichlet
    Laplacian, so the lifted two-functional dynamics is exactly linear and
    the lifting identification is exact up to integrator noise.
    """
    m = heat_model(num_points=grid_points)
    rng = np.random.default_rng(seed)
    states = np.stack(
        [
            sum(rng.uniform(0.5, 1.5) * (-1) ** rng.integers(2) * sine_mode(m.grid, k)
                for k in modes)
            for _ in range(num_states)
        ]
    )
    states[:, 0] = 0.0
    states[:, -1] = 0.0
    dt = stable_substep(m)
    s1 = _advance(m, states, ts, dt)
    s2 = _advance(m, s1, ts, dt)
    pairs = []
    for i in range(num_states):
        pairs.append((dirichlet_field(m.grid, states[i]), dirichlet_field(m.grid, s1[i])))
        pairs.append((dirichlet_field(m.grid, s1[i]), dirichlet_field(m.grid, s2[i])))
    return m, SnapshotDataset(m.grid, ts, tuple(pairs))


HEAT_CANDIDATES = Dictionary((MonomialDerivative(1, 0), MonomialDerivative(0, 2)))


class TestLiftingIdentify:
    def test_exact_on_invariant_lift(self):
        # linear dynamics + invariant lifted span: error bounded by solver noise
        _, ds = heat_modes_dataset()
        result = lifting_identify(ds, HEAT_CANDIDATES, ConstantWeight())
        assert np.allclose(result.estimates, [0.0, 1.0], atol=1e-3)

    def test_exactness_independent_of_sampling_time(self):
        for ts in (0.05, 0.2):
            _, ds = heat_modes_dataset(ts=ts)
            result = lifting_identify(ds, HEAT_CANDIDATES, ConstantWeight())
            assert np.allclose(result.estimates, [0.0, 1.0], atol=1e-3)

    def test_estimates_in_input_dictionary_order(self):
        # identity not first in the input dictionary: estimates must still
        # line up with the input order
        _, ds = heat_modes_dataset()
        flipped = Dictionary((MonomialDerivative(0, 2), MonomialDerivative(1, 0)))
        result = lifting_identify(ds, flipped, ConstantWeight())
        assert np.allclose(result.estimates, [1.0, 0.0], atol=1e-3)

    def test_weight_scaling_invariance(self):
        # both data matrices scale by c, so the estimates cannot change;
        # verified by comparing two proportional weights on symmetric data
        from koopid.identify import _lifted_fit_inputs
        from koopid.koopman import edmd_fit
        from koopid.linalg import logm

        _, ds = heat_modes_dataset()
        xi1, xi2, _ = _lifted_fit_inputs(ds, HEAT_CANDIDATES, ConstantWeight())
        base = logm(edmd_fit(xi1, xi2, ds.sampling_time).U)[:, 0]
        scaled = logm(edmd_fit(5.0 * xi1, 5.0 * xi2, ds.sampling_time).U)[:, 0]
        assert np.allclose(base, scaled, atol=1e-10)

    def test_identity_term_required(self):
        _, ds = heat_modes_dataset()
        with pytest.raises(PreconditionError):
            lifting_identify(ds, Dictionary((MonomialDerivative(0, 2),)), ConstantWeight())

    def test_rank_deficiency_names_columns(self):
        # duplicate information: u and u_xx act identically on a single mode
        _, ds = heat_modes_dataset(modes=(1,), num_states=6)
        with pytest.raises(RankDeficiencyError) as exc:
            lifting_identify(ds, HEAT_CANDIDATES, ConstantWeight())
        assert exc.value.columns

    def test_branch_cut_reported_with_context(self):
        # sampling the stiff third-order benchmark from t = 0 leaves a fast
        # transient whose one-step multiplier is negative real: the matrix
        # logarithm must fail with a hint about the sampling time
        m = koopid.pde1_model()
        ds = generate_pairs(m, ICFamily.PDE1, 25, 50, 0.3, seed=1, burn_in=0.0)
        cand = Dictionary(m.dictionary.terms)
        with pytest.raises(BranchCutError, match="sampling time"):
            lifting_identify(ds, cand, koopid.Bump(5.0, recentered=True))


class TestDirectIdentify:
    def test_recovers_slow_linear_system(self):
        # pure decay du/dt = -2u: forward differences are accurate for slow rates
        g = koopid.Grid1D(0.0, 1.0, 32)
        dic = Dictionary((MonomialDerivative(1, 0),), coefficients=(-2.0,))
        m = koopid.Model("decay", dic, g)
        dt = stable_substep(m)
        ts = 0.001
        states = np.stack([np.full(32, c) for c in (0.5, 1.0, 1.5)])
        s1 = _advance(m, states, ts, dt)
        pairs = tuple(
            (Field(g, states[i]), Field(g, s1[i])) for i in range(3)
        )
        ds = SnapshotDataset(g, ts, pairs)
        result = direct_identify(ds, Dictionary((MonomialDerivative(1, 0),)), ConstantWeight())
        assert result.estimates[0] == pytest.approx(-2.0, abs=1e-2)

    def test_no_l_tilde(self):
        _, ds = heat_modes_dataset()
        result = direct_identify(ds, HEAT_CANDIDATES, ConstantWeight())
        assert result.l_tilde is None


class TestTrueCoefficients:
    def test_maps_onto_candidates_with_zero_fill(self):
        m = koopid.pde1_model()
        cand = Dictionary(m.dictionary.terms)
        truth = true_coefficients(m, cand)
        assert truth.tolist() == list(m.dictionary.coefficients)
        extra = Dictionary((MonomialDerivative(1, 0), MonomialDerivative(3, 0)))
        truth2 = true_coefficients(m, extra)
        assert truth2[0] == -2.0 and truth2[1] == 0.0


class TestConvergenceStudy:
    def test_requires_three_decreasing_times(self):
        m = koopid.graphon_model(64)
        cand = Dictionary(m.dictionary.terms)
        with pytest.raises(PreconditionError):
            ts_convergence_study(m, cand, koopid.PowerLaw(2), [0.5, 0.25],
                                 ICFamily.GRAPHON, 5, 10, 1)
        with pytest.raises(PreconditionError):
            ts_convergence_study(m, cand, koopid.PowerLaw(2), [0.25, 0.5, 0.1],
                                 ICFamily.GRAPHON, 5, 10, 1)

    def test_error_shrinks_with_sampling_time(self):
        m = koopid.graphon_model(64)
        cand = Dictionary(m.dictionary.terms)
        report = ts_convergence_study(
            m, cand, koopid.PowerLaw(2), [0.5, 0.25, 0.1], ICFamily.GRAPHON, 5, 10, 1
        )
        assert report.monotone
        assert report.entries[-1].max_error < report.entries[0].max_error

    def test_shared_burn_in_gives_generate_pairs_data(self, monkeypatch):
        # one burn-in serves every sampling time; each dataset must still be
        # bit-identical to a separate generate_pairs call
        import koopid.identify

        seen = []
        fit = koopid.identify.lifting_identify

        def spy(dataset, dictionary, weight):
            seen.append(dataset)
            return fit(dataset, dictionary, weight)

        monkeypatch.setattr(koopid.identify, "lifting_identify", spy)
        m = koopid.graphon_model(64)
        ts_list = [0.5, 0.25, 0.1]
        ts_convergence_study(m, Dictionary(m.dictionary.terms), koopid.PowerLaw(2),
                             ts_list, ICFamily.GRAPHON, 5, 10, 1, burn_in=0.3)
        assert [ds.sampling_time for ds in seen] == ts_list
        for ds, t_s in zip(seen, ts_list):
            ref = generate_pairs(m, ICFamily.GRAPHON, 5, 10, t_s, 1, burn_in=0.3)
            assert ds.provenance == ref.provenance
            for (u, un), (v, vn) in zip(ds.pairs, ref.pairs, strict=True):
                assert np.array_equal(u.values, v.values)
                assert np.array_equal(un.values, vn.values)


class TestReconstruction:
    def test_reconstruct_matches_true_rhs_when_estimates_exact(self):
        m, ds = heat_modes_dataset()
        result = lifting_identify(ds, HEAT_CANDIDATES, ConstantWeight())
        u = ds.pairs[0][0]
        est = reconstruct_operator(result, u)
        ref = koopid.apply_rhs(m.dictionary, u, dirichlet=True)
        scale = np.max(np.abs(ref.values))
        assert np.allclose(est.values, ref.values, atol=1e-2 * scale)

    def test_weak_residual_zero_for_exact_estimates(self):
        m, ds = heat_modes_dataset()
        result = lifting_identify(ds, HEAT_CANDIDATES, ConstantWeight())
        states = [ds.pairs[0][0], ds.pairs[1][0]]
        r = weak_residual(result, m, states, ConstantWeight())
        assert r <= 1e-4
