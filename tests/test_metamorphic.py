"""Exact symmetries of the simulator and the lifting pipeline, checked
against the code itself on the seed-1 defaults.

Scaling by alpha = 2 moves every floating-point product by a power of two,
so the relations that hold in exact arithmetic hold bit for bit wherever
the step rule scales with the coefficients.
"""

import numpy as np
import pytest

import koopid
from koopid import Dictionary, Grid1D, Model, generate_pairs, integrate, lifting_identify
from koopid.simulate import BUILTIN_MODELS, EXPERIMENT_DEFAULTS, sample_initial_condition

ALPHA = 2.0


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
    model = BUILTIN_MODELS[name]()
    _, trajectories, ts, family, _ = EXPERIMENT_DEFAULTS[name]
    rng = np.random.default_rng(1)
    u0 = np.stack([sample_initial_condition(family, model.grid, *rng.random(2))
                   for _ in range(trajectories)])
    assert np.array_equal(integrate(model, u0, ts), integrate(space_scaled(model, ALPHA), u0, ts))


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
