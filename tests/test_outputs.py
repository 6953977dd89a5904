"""Characterisation test: seed-1 default outputs against recorded values.

``outputs.json`` records, for the built-in models at their default
experiment settings, numbers that a refactor should leave unchanged up to
rounding:

* ``projections``: 8 fixed random projections of ``u`` and of ``u_next`` of
  each built-in ``simulate`` dataset;
* ``identify``: pde1 and graphon estimates at four weights each, by both
  methods;
* ``sweep``: the criterion-5 ``sweep-ts`` rows, max error first;
* ``spectrum``: the top 20 ``lambda_U`` of the Burgers spectrum at seeds 1,
  2 and 107 (basis seed = dataset seed), in rank order.

Each group carries its tolerance: an entry of a recorded vector may move by
at most that fraction of the vector's largest magnitude.  A change that moves
a value further on purpose rewrites the file with ``python
tests/test_outputs.py`` and states which values moved, how far and why;
tolerances are not widened to take a move.
"""

import json
import pathlib

import numpy as np
import pytest

import koopid
from koopid.fileio import parse_weight_spec
from koopid.observables import build_burgers_basis
from koopid.simulate import BUILTIN_MODELS, EXPERIMENT_DEFAULTS

OUTPUTS = pathlib.Path(__file__).with_name("outputs.json")

#: relative tolerance of each group, the rounding moves measured for a refactor
TOLERANCES = {"projections": 1e-12, "identify": 1e-8, "sweep": 1e-4, "spectrum": 5e-7}

#: the weights of each model's identify estimates
WEIGHTS = {
    "pde1": ("bump:5:recentered", "bump:5", "power:1", "power:2"),
    "graphon": ("power:2", "power:3", "bump:1:recentered", "bump:1"),
}

SWEEP_TS = (0.3, 0.15, 0.075, 0.0375)
SPECTRUM_SEEDS = (1, 2, 107)


def default_dataset(name, seed=1):
    pairs, trajectories, ts, family, burn_in = EXPERIMENT_DEFAULTS[name]
    return koopid.generate_pairs(
        BUILTIN_MODELS[name](), family, trajectories, pairs, ts, seed, burn_in=burn_in
    )


def projections(a):
    """8 fixed random projections of the whole array."""
    return np.random.default_rng(0).standard_normal((8, a.size)) @ a.ravel()


def compute():
    """Every recorded value, grouped and keyed as in ``outputs.json``."""
    datasets = {name: default_dataset(name) for name in BUILTIN_MODELS}
    out = {group: {} for group in TOLERANCES}
    for name, ds in datasets.items():
        out["projections"][f"{name}/u"] = projections(ds.u).tolist()
        out["projections"][f"{name}/u_next"] = projections(ds.u_next).tolist()
    for name, weights in WEIGHTS.items():
        candidates = koopid.Dictionary(BUILTIN_MODELS[name]().dictionary.terms)
        for weight in weights:
            for method in (koopid.lifting_identify, koopid.direct_identify):
                result = method(datasets[name], candidates, parse_weight_spec(weight))
                key = f"{name}/{weight}/{method.__name__.split('_')[0]}"
                out["identify"][key] = result.estimates.tolist()
    model = BUILTIN_MODELS["pde1"]()
    pairs, trajectories, _, family, burn_in = EXPERIMENT_DEFAULTS["pde1"]
    report = koopid.ts_convergence_study(
        model, koopid.Dictionary(model.dictionary.terms), koopid.Bump(5.0, recentered=True),
        SWEEP_TS, family, trajectories, pairs, seed=1, burn_in=burn_in,
    )
    for t_s, errors in zip(report.t_s.tolist(), report.errors.tolist()):
        out["sweep"][repr(t_s)] = [max(errors)] + errors
    for seed in SPECTRUM_SEEDS:
        ds = datasets["burgers"] if seed == 1 else default_dataset("burgers", seed)
        xi1, xi2 = koopid.build_data_matrices(ds, build_burgers_basis(seed))
        result = koopid.spectrum(koopid.edmd_fit(xi1, xi2, ds.sampling_time))
        out["spectrum"][str(seed)] = [[z.real, z.imag] for z in result.lambda_u[:20].tolist()]
    return out


def as_vector(values):
    """A recorded vector; ``[re, im]`` rows read as complex numbers."""
    a = np.asarray(values, dtype=float)
    return a[:, 0] + 1j * a[:, 1] if a.ndim == 2 else a


@pytest.fixture(scope="module")
def recorded():
    return json.loads(OUTPUTS.read_text())


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.mark.parametrize("group", sorted(TOLERANCES))
def test_outputs_match_record(group, recorded, computed):
    tol = recorded[group]["tol"]
    want_all, got_all = recorded[group]["values"], computed[group]
    assert sorted(got_all) == sorted(want_all)
    moved = []
    for key, values in want_all.items():
        want, got = as_vector(values), as_vector(got_all[key])
        assert got.shape == want.shape, key
        gap = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        if not gap <= tol:
            moved.append(f"{key}: {gap:.3g}")
    assert not moved, f"{group} moved beyond {tol:g} relative: {'; '.join(moved)}"


if __name__ == "__main__":
    values = compute()
    OUTPUTS.write_text(json.dumps(
        {group: {"tol": TOLERANCES[group], "values": values[group]} for group in TOLERANCES},
        indent=1,
    ) + "\n")
