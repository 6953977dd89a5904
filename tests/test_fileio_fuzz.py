"""Property tests of the record readers: on any input each reader returns or
raises a KoopidError, and valid records round-trip to identical objects.  A
dataset of any finite values reads back bit-exact, through the package's
reader and through the standard library's ``json``."""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import koopid
from koopid import fileio
from koopid.errors import InvalidInputError, KoopidError

from helpers import read_dataset_text

FUZZ = settings(
    derandomize=True, database=None, deadline=None, max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

#: every field name the readers look up, plus values that select a branch
KEYS = st.sampled_from([
    "kind", "j", "k", "f", "c0", "cx", "cy", "L", "recentered", "p", "a", "b",
    "l", "x", "term", "weight", "grid", "x_min", "x_max", "num_points",
    "dictionary", "coefficients", "boundary", "name", "family", "pairs", "u",
    "u_next", "sampling_time", "dirichlet", "provenance",
])
WORDS = st.sampled_from([
    "constant", "monomial", "graphon", "bump", "power", "cosine", "point",
    "lifted", "dirichlet", "none", "burgers", "pde1", "recentered", "",
])
LEAVES = (
    st.none() | st.booleans() | st.integers(-10, 10) | st.integers()
    | st.just(10**400) | st.floats() | WORDS | st.text(max_size=6)
)
JSON = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=5),
    max_leaves=12,
)
FINITE = st.floats(-1e6, 1e6, allow_nan=False)

TERMS = st.one_of(
    st.builds(koopid.MonomialDerivative, st.integers(0, 4), st.integers(0, 3)),
    st.builds(koopid.GraphonKernel, FINITE, FINITE, FINITE),
)


TERM_LISTS = st.lists(TERMS, min_size=1, max_size=5, unique=True)
DICTIONARY_RECORDS = TERM_LISTS.map(lambda terms: [fileio.term_to_record(t) for t in terms])


@st.composite
def weights(draw):
    """A weight record and the weight it describes.  A bump's record leaves
    out ``recentered`` when it is false."""
    kind = draw(st.sampled_from(["bump", "power", "constant"]))
    if kind == "bump":
        radius, recentered = draw(st.floats(1e-3, 1e3)), draw(st.booleans())
        record = {"kind": "bump", "L": radius}
        if recentered:
            record["recentered"] = True
        return record, koopid.Bump(radius, recentered)
    if kind == "power":
        p = draw(st.integers(0, 6))
        return {"kind": "power", "p": p}, koopid.PowerLaw(p)
    return {"kind": "constant"}, koopid.PowerLaw(0)


@st.composite
def functionals(draw):
    """A basis functional record and the functional it describes."""
    kind = draw(st.sampled_from(["cosine", "point", "lifted"]))
    if kind == "cosine":
        a, b = draw(FINITE), draw(FINITE)
        k, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        return {"kind": "cosine", "a": a, "b": b, "k": k, "l": l}, koopid.InnerProductPower(a, b, k, l)
    if kind == "point":
        x = draw(FINITE)
        return {"kind": "point", "x": x}, koopid.PointEvaluation(x)
    term = draw(TERMS)
    record, weight = draw(weights())
    return ({"kind": "lifted", "term": fileio.term_to_record(term), "weight": record},
            koopid.LiftedTerm(term, weight))


@st.composite
def models(draw):
    """A model file's record and the model it describes."""
    terms = draw(TERM_LISTS)
    coefficients = draw(st.lists(FINITE, min_size=len(terms), max_size=len(terms)))
    x_min = draw(FINITE)
    grid = koopid.Grid1D(x_min, x_min + draw(st.floats(1e-3, 1e3)), draw(st.integers(8, 64)))
    name = draw(st.text(max_size=6))
    boundary = draw(st.sampled_from(["dirichlet", "none"]))
    doc = {
        "name": name,
        "family": draw(st.sampled_from([f.value for f in koopid.ICFamily])),
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "num_points": grid.num_points},
        "dictionary": [fileio.term_to_record(t) for t in terms],
        "coefficients": coefficients,
        "boundary": boundary,
    }
    model = koopid.Model(name, koopid.Dictionary(tuple(terms), tuple(coefficients)), grid,
                         dirichlet=boundary == "dirichlet")
    return doc, model


@st.composite
def datasets(draw):
    n = draw(st.integers(8, 12))
    m = draw(st.integers(1, 3))
    dirichlet = draw(st.booleans())
    u, u_next = (np.array(draw(st.lists(FINITE, min_size=m * n, max_size=m * n))).reshape(m, n)
                 for _ in range(2))
    if dirichlet:
        u[:, [0, -1]] = u_next[:, [0, -1]] = 0.0
    x_min = draw(FINITE)
    grid = koopid.Grid1D(x_min, x_min + draw(st.floats(1e-3, 1e3)), n)
    provenance = draw(st.none() | st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))
    return koopid.SnapshotDataset(grid, draw(st.floats(1e-6, 1e3)), u, u_next,
                                  dirichlet=dirichlet, provenance=provenance or None)


#: any finite double, weighted towards the ends of [1e-4, 1e16), outside
#: which orjson's exponent layout differs from ``repr``'s
DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | (
    st.floats(9e-5, 1.1e-4) | st.floats(9e15, 1.1e16)
    | st.sampled_from([1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0), 5e-324])
).flatmap(lambda x: st.sampled_from([x, -x]))


#: array layouts a dataset may be built from: C order, Fortran order, every
#: other column of a wider array, rows reversed
LAYOUTS = st.sampled_from([
    lambda a: a, np.asfortranarray, lambda a: np.repeat(a, 2, axis=1)[:, ::2],
    lambda a: a[::-1],
])


@st.composite
def snapshot_arrays(draw):
    """A dataset whose two snapshot arrays hold any finite doubles, in any of
    the LAYOUTS."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(8, 12))
    u, u_next = (draw(LAYOUTS)(draw(arrays(np.float64, (m, n), elements=DOUBLES)))
                 for _ in range(2))
    return koopid.SnapshotDataset(koopid.Grid1D(0.0, 1.0, n), 0.5, u, u_next)


@st.composite
def mutated(draw, docs):
    """A document from ``docs`` with one value replaced by arbitrary JSON, or
    one object field dropped, at a randomly chosen depth."""
    doc = copy.deepcopy(draw(docs))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(JSON)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON)
    return doc


def returns_or_raises_koopid_error(reader, arg):
    try:
        reader(arg)
    except KoopidError:
        pass


READERS = [
    (fileio.term_from_record, TERMS.map(fileio.term_to_record)),
    (fileio.weight_from_record, weights().map(lambda pair: pair[0])),
    (fileio.functional_from_record, functionals().map(lambda pair: pair[0])),
    (fileio.dictionary_from_records, DICTIONARY_RECORDS),
    (fileio.model_from_record, models().map(lambda pair: pair[0])),
]


@pytest.mark.parametrize("reader, valid", READERS, ids=lambda r: getattr(r, "__name__", ""))
class TestRecordReaders:
    def test_arbitrary_json(self, reader, valid):
        @FUZZ
        @given(JSON)
        def check(doc):
            returns_or_raises_koopid_error(reader, doc)

        check()

    def test_mutated_valid_record(self, reader, valid):
        @FUZZ
        @given(mutated(valid))
        def check(doc):
            returns_or_raises_koopid_error(reader, doc)

        check()


class TestRoundTrips:
    @FUZZ
    @given(TERMS)
    def test_term(self, term):
        assert fileio.term_from_record(json.loads(json.dumps(fileio.term_to_record(term)))) == term

    @FUZZ
    @given(weights())
    def test_weight(self, pair):
        record, weight = pair
        assert fileio.weight_from_record(json.loads(json.dumps(record))) == weight

    @FUZZ
    @given(functionals())
    def test_functional(self, pair):
        record, spec = pair
        assert fileio.functional_from_record(json.loads(json.dumps(record))) == spec

    @FUZZ
    @given(TERM_LISTS)
    def test_dictionary(self, terms):
        dic = koopid.Dictionary(tuple(terms))
        records = json.loads(json.dumps(fileio.dictionary_to_records(dic)))
        assert fileio.dictionary_from_records(records) == dic

    @FUZZ
    @given(models())
    def test_model(self, pair):
        doc, model = pair
        assert fileio.model_from_record(json.loads(json.dumps(doc))) == model

    @FUZZ
    @given(datasets())
    def test_dataset(self, ds):
        back = read_dataset_text(fileio.dataset_to_json(ds))
        assert (back.grid, back.sampling_time, back.dirichlet, back.provenance) == (
            ds.grid, ds.sampling_time, ds.dirichlet, ds.provenance
        )
        assert np.array_equal(back.u, ds.u) and np.array_equal(back.u_next, ds.u_next)

    @FUZZ
    @given(snapshot_arrays())
    def test_dataset_reads_back_bit_exact(self, ds):
        text = fileio.dataset_to_json(ds)
        pairs, back = json.loads(text)["pairs"], read_dataset_text(text)
        for key, want in (("u", ds.u), ("u_next", ds.u_next)):
            for got in (np.array([p[key] for p in pairs]), getattr(back, key)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @FUZZ
    @given(weights())
    def test_weight_spec(self, pair):
        _, weight = pair
        if isinstance(weight, koopid.Bump):
            text = f"bump:{weight.L!r}" + (":recentered" if weight.recentered else "")
        elif isinstance(weight, koopid.PowerLaw):
            text = f"power:{weight.p}"
        else:
            text = "constant"
        assert fileio.parse_weight_spec(text) == weight


class TestTextReaders:
    @FUZZ
    @given(mutated(datasets().map(lambda ds: json.loads(fileio.dataset_to_json(ds)))))
    def test_dataset_from_mutated_json(self, doc):
        returns_or_raises_koopid_error(read_dataset_text, json.dumps(doc))

    @FUZZ
    @given(st.text(max_size=40))
    def test_dataset_from_arbitrary_text(self, text):
        returns_or_raises_koopid_error(read_dataset_text, text)

    @FUZZ
    @given(st.text(max_size=12) | st.builds(
        "{}:{}".format, st.sampled_from(["bump", "power", "constant"]),
        st.text(max_size=8) | FINITE.map(repr),
    ))
    def test_weight_spec(self, text):
        returns_or_raises_koopid_error(fileio.parse_weight_spec, text)


GRID = {"x_min": 0.0, "x_max": 1.0, "num_points": 8}
MODEL = {"grid": GRID, "dictionary": [{"kind": "monomial", "j": 1, "k": 0}], "coefficients": [1.0]}


def _dataset_text(**changes):
    doc = {"grid": GRID, "sampling_time": 0.1, "pairs": [{"u": [0.0] * 8, "u_next": [0.0] * 8}]}
    doc.update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("reader, arg", [
    *(pytest.param(fileio.parse_weight_spec, text, id=text)
      for text in ("bump:abc", "power:x", "bump:5:sideways", "power:1.5")),
    pytest.param(fileio.term_from_record,
                 {"kind": "graphon", "f": {"c0": 10**400, "cx": 0, "cy": 0}}, id="huge-int"),
    pytest.param(fileio.term_from_record, {"kind": "monomial", "j": float("inf"), "k": 0},
                 id="infinite-int"),
    pytest.param(fileio.model_from_record, {**MODEL, "coefficients": ["a"]}, id="text-coef"),
    pytest.param(fileio.model_from_record, {**MODEL, "coefficients": 5}, id="number-coefs"),
    pytest.param(fileio.model_from_record, {**MODEL, "dictionary": 5}, id="number-dict"),
    pytest.param(fileio.model_from_record, {**MODEL, "grid": {**GRID, "num_points": "abc"}},
                 id="text-num-points"),
    pytest.param(read_dataset_text, _dataset_text(sampling_time=float("nan")),
                 id="nan-sampling-time"),
    pytest.param(read_dataset_text,
                 _dataset_text(pairs=[{"u": [10**400] * 8, "u_next": [0] * 8}]), id="huge-value"),
    pytest.param(read_dataset_text, "1" * 5000, id="unreadable-int"),
])
def test_known_leaks_are_input_errors(reader, arg):
    with pytest.raises(InvalidInputError):
        reader(arg)


BUMP = {"kind": "bump", "L": 1.0}


@pytest.mark.parametrize("reader, arg", [
    pytest.param(fileio.term_from_record, {"kind": "monomial", "j": 1.5, "k": 0},
                 id="fractional-int"),
    pytest.param(fileio.term_from_record, {"kind": "monomial", "j": True, "k": "2"},
                 id="bool-and-text-int"),
    pytest.param(fileio.term_from_record, {"kind": "monomial", "j": 1, "k": 2.0},
                 id="float-int"),
    pytest.param(fileio.term_from_record,
                 {"kind": "graphon", "f": {"c0": "1.5", "cx": 0.0, "cy": 0.0}}, id="text-float"),
    pytest.param(fileio.weight_from_record, {**BUMP, "L": True}, id="bool-float"),
    pytest.param(fileio.weight_from_record, {**BUMP, "recentered": "false"}, id="text-flag"),
    pytest.param(fileio.weight_from_record, {**BUMP, "recentered": 1}, id="number-flag"),
    pytest.param(fileio.model_from_record, {**MODEL, "grid": {**GRID, "num_points": 64.9}},
                 id="fractional-num-points"),
    pytest.param(fileio.model_from_record, {**MODEL, "coefficients": ["1.5"]},
                 id="numeric-text-coef"),
    pytest.param(fileio.model_from_record, {**MODEL, "coefficients": [True]}, id="bool-coef"),
    pytest.param(read_dataset_text, _dataset_text(dirichlet="no"), id="text-dirichlet"),
    pytest.param(read_dataset_text, _dataset_text(sampling_time="0.1"),
                 id="text-sampling-time"),
    pytest.param(fileio.model_from_record, {**MODEL, "name": {"a": 1}}, id="object-name"),
    pytest.param(read_dataset_text, _dataset_text(provenance=[1, 2]), id="list-provenance"),
    pytest.param(read_dataset_text, _dataset_text(provenance="abc"), id="text-provenance"),
])
def test_values_of_the_wrong_json_type_are_input_errors(reader, arg):
    # each of these was read as something else: 1.5 as 1, "2" as 2, "no" as
    # true, {"a": 1} as the name "{'a': 1}", [1, 2] as a provenance record
    with pytest.raises(InvalidInputError):
        reader(arg)


def test_truth_of_the_wrong_json_type_is_input_error(tmp_path):
    path = tmp_path / "truth.json"
    path.write_text(json.dumps([1.0, "2.5", True]))
    with pytest.raises(InvalidInputError):
        fileio.read_truth(str(path), 3)


def test_unknown_model_family_is_input_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**MODEL, "family": "nope"}))
    with pytest.raises(InvalidInputError):
        fileio.read_model(str(path))
