"""The benchmark tracer's wrap table still resolves against the package.

``benchmarks/tracing.py`` wraps functions by the attribute name their caller
looks them up through, so renaming or deleting one of those names breaks
only traced benchmark runs.  This test keeps that in tier-1.
"""

import pathlib
import sys

import numpy as np
import pytest

import koopid
import koopid.cli
import koopid.fileio
import koopid.identify
import koopid.koopman
import koopid.linalg
import koopid.observables
import koopid.operators
import koopid.simulate
from helpers import heat_model, sine_mode

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
MODULES = (
    koopid.cli, koopid.fileio, koopid.identify, koopid.koopman, koopid.linalg,
    koopid.observables, koopid.operators, koopid.simulate,
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    return tracing


def test_instrument_resolves_every_name_and_undo_restores(tracing):
    before = [dict(vars(m)) for m in MODULES]
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        assert koopid.simulate.rhs_values is not before[-1]["rhs_values"]
        # the RK4 loop calls the wrapped module-level rhs_values
        koopid.integrate(heat_model(num_points=16), np.zeros(16), 0.02)
        assert "operators.rhs" in tracer.names
        assert tracer.counts["operators.rhs_elems"] > 0
    finally:
        undo()
    for module, names in zip(MODULES, before):
        for name, value in names.items():
            assert getattr(module, name) is value, f"{module.__name__}.{name} not restored"


def test_lifted_derivatives_record_diff_spans(tracing):
    # term_values calls diff_values under that name, which the table wraps
    model = koopid.pde1_model()
    u = np.outer([1.0, -0.5, 2.0], sine_mode(model.grid, 1))
    dataset = koopid.SnapshotDataset(model.grid, 0.3, u, 0.5 * u, dirichlet=True)
    basis = koopid.build_lifting_basis(model.dictionary, koopid.Bump(5.0, recentered=True))
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        koopid.koopman.build_data_matrices(dataset, basis)
    finally:
        undo()
    # pde1's 9 derivative terms, each once on the batch of initial and
    # advanced snapshots
    assert tracer.span_times()["fields.diff"][0] == 9


def test_direct_identify_records_one_fit_span(tracing):
    # the direct method reads its estimates from the same EDMD fit as lifting
    model = koopid.graphon_model(16)
    rng = np.random.default_rng(1)
    u = rng.standard_normal((10, 16))
    dataset = koopid.SnapshotDataset(model.grid, 0.5, u, 0.9 * u + 0.1 * u**2)
    dictionary = koopid.Dictionary(model.dictionary.terms)
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        koopid.direct_identify(dataset, dictionary, koopid.PowerLaw(2))
    finally:
        undo()
    spans = tracer.span_times()
    assert spans["koopman.fit"][0] == 1
    assert spans["linalg.logm"][0] == 0
