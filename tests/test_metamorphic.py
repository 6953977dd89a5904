"""Exact symmetries of the simulator and both pipelines, checked against
the code itself on the seed-1 defaults.

Scaling by alpha = 2 moves every floating-point product by a power of two,
so the relations that hold in exact arithmetic hold bit for bit wherever
the step rule scales with the coefficients.  Scaling by alpha = 3 and
reordering terms, pairs or basis functionals round differently, so those
relations hold to a gap that each test bounds at about twice its measured
size (numpy 2.4.6, scipy 1.17.1).
"""

import numpy as np
import pytest

import koopid
from koopid import (
    Dictionary, Grid1D, Model, SnapshotDataset, generate_pairs, integrate, lifting_identify,
)
from koopid.simulate import BUILTIN_MODELS, EXPERIMENT_DEFAULTS, sample_initial_condition

ALPHA = 2.0

#: the lifting weights of the pde1 and graphon pipelines
WEIGHTS = {"pde1": koopid.Bump(5.0, recentered=True), "graphon": koopid.PowerLaw(2)}


def time_scaled(model, alpha):
    """``model`` with every coefficient multiplied by ``alpha``: the same flow
    run ``alpha`` times faster."""
    dic = model.dictionary
    return Model(model.name, Dictionary(dic.terms, tuple(alpha * c for c in dic.coefficients)),
                 model.grid, model.dirichlet)


def space_scaled(model, alpha):
    """``model`` on a domain stretched by ``alpha``, each k-th-derivative
    coefficient multiplied by ``alpha**k``: the same right-hand side on the
    same node values."""
    dic, g = model.dictionary, model.grid
    coeffs = tuple(c * alpha**term.k for term, c in zip(dic.terms, dic.coefficients))
    return Model(model.name, Dictionary(dic.terms, coeffs),
                 Grid1D(alpha * g.x_min, alpha * g.x_max, g.num_points), model.dirichlet)


def default_pairs(name, alpha=1.0):
    """The seed-1 default dataset of a built-in model, time-scaled by ``alpha``
    with the sampling time and the burn-in divided by it."""
    pairs, trajectories, ts, family, burn_in = EXPERIMENT_DEFAULTS[name]
    model = time_scaled(BUILTIN_MODELS[name](), alpha)
    return generate_pairs(model, family, trajectories, pairs, ts / alpha, 1,
                          burn_in=burn_in / alpha)


def relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(a)))


def default_starts(name):
    """The built-in model and its seed-1 default initial conditions."""
    model = BUILTIN_MODELS[name]()
    _, trajectories, _, family, _ = EXPERIMENT_DEFAULTS[name]
    rng = np.random.default_rng(1)
    return model, np.stack([sample_initial_condition(family, model.grid, *rng.random(2))
                            for _ in range(trajectories)])


def permutations(n):
    """Two fixed reorderings of n items: the reversal and a seeded shuffle."""
    return [np.arange(n)[::-1], np.random.default_rng(0).permutation(n)]


@pytest.mark.parametrize("name", ["pde1", "burgers"])
def test_time_scale_gives_bit_identical_datasets(name):
    base, scaled = default_pairs(name), default_pairs(name, ALPHA)
    assert scaled.sampling_time == base.sampling_time / ALPHA
    assert np.array_equal(base.u, scaled.u)
    assert np.array_equal(base.u_next, scaled.u_next)


def test_time_scale_doubles_pde1_lifting_estimates():
    dic = Dictionary(koopid.pde1_model().dictionary.terms)
    weight = koopid.Bump(5.0, recentered=True)
    base = lifting_identify(default_pairs("pde1"), dic, weight)
    scaled = lifting_identify(default_pairs("pde1", ALPHA), dic, weight)
    assert np.array_equal(scaled.estimates, ALPHA * base.estimates)


@pytest.mark.parametrize("name", ["pde1", "burgers"])
def test_space_scale_gives_bit_identical_integration(name):
    model, u0 = default_starts(name)
    ts = EXPERIMENT_DEFAULTS[name][2]
    assert np.array_equal(integrate(model, u0, ts), integrate(space_scaled(model, ALPHA), u0, ts))


@pytest.mark.parametrize("name, bound", [("pde1", 3.6e-14), ("burgers", 2.6e-15)])
def test_time_scale_by_three_stays_at_rounding(name, bound):
    # measured 1.8e-14 (pde1) and 1.3e-15 (Burgers)
    base, scaled = default_pairs(name), default_pairs(name, 3.0)
    assert relative_gap(base.u, scaled.u) <= bound
    assert relative_gap(base.u_next, scaled.u_next) <= bound


def test_time_scale_by_three_triples_pde1_estimates():
    # measured 3.4e-10
    dic = Dictionary(koopid.pde1_model().dictionary.terms)
    base = lifting_identify(default_pairs("pde1"), dic, WEIGHTS["pde1"])
    scaled = lifting_identify(default_pairs("pde1", 3.0), dic, WEIGHTS["pde1"])
    assert relative_gap(3.0 * base.estimates, scaled.estimates) <= 7.0e-10


@pytest.mark.parametrize("name, bound", [("pde1", 1.2e-14), ("burgers", 2.3e-15)])
def test_space_scale_by_three_stays_at_rounding(name, bound):
    # measured 5.6e-15 (pde1) and 1.1e-15 (Burgers)
    model, u0 = default_starts(name)
    ts = EXPERIMENT_DEFAULTS[name][2]
    assert relative_gap(integrate(model, u0, ts), integrate(space_scaled(model, 3.0), u0, ts)) <= bound


@pytest.mark.parametrize("name, bound", [("pde1", 9.1e-10), ("graphon", 3.7e-12)])
def test_term_order_moves_estimates_by_rounding(name, bound):
    # measured, reversal and shuffle: pde1 4.5e-10 and 1.6e-10, graphon 4.7e-13 and 1.8e-12
    ds, terms = default_pairs(name), BUILTIN_MODELS[name]().dictionary.terms
    base = lifting_identify(ds, Dictionary(terms), WEIGHTS[name]).estimates
    for perm in permutations(len(terms)):
        moved = lifting_identify(ds, Dictionary(tuple(terms[i] for i in perm)), WEIGHTS[name])
        assert relative_gap(base[perm], moved.estimates) <= bound


@pytest.mark.parametrize("name, bound", [("pde1", 1.7e-9), ("graphon", 4.7e-13)])
def test_pair_order_moves_estimates_by_rounding(name, bound):
    # measured, reversal and shuffle: pde1 8.3e-10 and 6.0e-11, graphon 1.9e-13 and 2.4e-13
    ds, dic = default_pairs(name), Dictionary(BUILTIN_MODELS[name]().dictionary.terms)
    base = lifting_identify(ds, dic, WEIGHTS[name]).estimates
    for perm in permutations(len(ds)):
        moved = SnapshotDataset(ds.grid, ds.sampling_time, ds.u[perm], ds.u_next[perm],
                                ds.dirichlet)
        assert relative_gap(base, lifting_identify(moved, dic, WEIGHTS[name]).estimates) <= bound


def test_basis_order_moves_burgers_spectrum_by_rounding():
    # measured, reversal and shuffle: 6.4e-10 and 7.1e-10 relative on each of
    # the top five generator eigenvalues, whose rank order stays
    ds, basis = default_pairs("burgers"), koopid.build_burgers_basis(1)

    def top_five(basis):
        fit = koopid.edmd_fit(*koopid.build_data_matrices(ds, basis), ds.sampling_time)
        return koopid.spectrum(fit).lambda_l[:5]

    base = top_five(basis)
    for perm in permutations(len(basis)):
        moved = top_five([basis[i] for i in perm])
        assert np.max(np.abs(moved - base) / np.abs(base)) <= 1.4e-9


def test_graphon_time_scale_gap_stays_at_its_measured_size():
    # graphon steps at the absolute cap DT_MAX, which does not scale with the
    # coefficients, so the scaled model takes a relatively 2x longer step and
    # RK4's error grows about 2^4.  Measured: datasets 5.2e-8 relative,
    # estimates 1.8e-6; the bounds allow about twice that
    base, scaled = default_pairs("graphon"), default_pairs("graphon", ALPHA)
    assert relative_gap(base.u_next, scaled.u_next) <= 1.1e-7
    assert relative_gap(base.u, scaled.u) <= 1.1e-7
    dic = Dictionary(koopid.graphon_model().dictionary.terms)
    weight = koopid.PowerLaw(2)
    estimates = lifting_identify(base, dic, weight).estimates
    scaled_estimates = lifting_identify(scaled, dic, weight).estimates
    assert relative_gap(ALPHA * estimates, scaled_estimates) <= 3.6e-6
