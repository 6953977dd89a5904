"""File formats owned by the command-line layer: dataset JSON, dictionary /
weight / functional-basis / model records, and the CSV result schemas.

All files are written atomically (temp file in the target directory, then
rename) and numbers are serialized at full round-trip precision, so identical
inputs yield byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import os
import re
import reprlib
import tempfile
from typing import List

import numpy as np

from .errors import InvalidInputError, require_real
from .fields import Grid1D
from .identify import ConvergenceReport, IdentificationResult
from .koopman import SpectrumResult
from .observables import (
    Bump,
    FunctionalSpec,
    InnerProductPower,
    LiftedTerm,
    PointEvaluation,
    PowerLaw,
    WeightSpec,
)
from .operators import (
    Dictionary,
    GraphonKernel,
    MonomialDerivative,
    TermSpec,
    describe_term,
)
from .simulate import DEFAULT_GRID_POINTS, ICFamily, Model, SnapshotDataset


def atomic_write_text(path: str, text: str):
    """Write ``text`` to ``path`` through a temp file in its directory and a
    rename.  The temp file never outlives the call, and an OSError names
    ``path``, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


#: the JSON name of each type that :func:`_convert` checks.  Numbers and flags
#: go as read to the constructors, whose rules (``errors.require_int``,
#: ``require_real`` and ``require_bool``) refuse a wrong one
_JSON_TYPES = {list: "list", str: "string", dict: "object"}

_REQUIRED = object()


def _convert(value, convert, what: str):
    """``value`` if it has the JSON type ``convert`` in ``_JSON_TYPES``, else
    ``convert(value)`` for any other callable; anything else raises
    InvalidInputError naming ``what``."""
    name = _JSON_TYPES.get(convert, convert.__name__)
    if convert in _JSON_TYPES:
        if not isinstance(value, convert):
            raise InvalidInputError(f"{what} must be a JSON {name}, got {reprlib.repr(value)}")
        return value
    try:
        return convert(value)
    except ValueError:
        raise InvalidInputError(f"{what} is not a valid {name}: {reprlib.repr(value)}") from None


def _get(rec, key: str, what: str, convert=None, default=_REQUIRED):
    """``rec[key]``, passed through ``convert`` when given (see
    :func:`_convert`), or ``default`` when the key is absent and a default is
    given; a record that is not an object, lacks a required key or holds a
    value ``convert`` rejects raises InvalidInputError naming ``what``."""
    if not isinstance(rec, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {type(rec).__name__}")
    if key not in rec:
        if default is not _REQUIRED:
            return default
        raise InvalidInputError(f"{what} has no {key!r} field")
    if convert is None:
        return rec[key]
    return _convert(rec[key], convert, f"{what} field {key!r}")


#: the deepest nesting of lists and objects an input file may have.  The
#: parser recurses once per level and has no limit of its own: a valid
#: document 150,000 levels deep overflows the C stack.
MAX_NESTING = 1000

#: a JSON string, escapes included.  An unterminated string, or a lone
#: backslash, runs to the end of the text: every match then succeeds from its
#: opening quote, and the scan stays linear in the text's length.
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\[\s\S]?[^"\\]*)*(?:"|\Z)')
#: every byte but the four brackets
_NOT_BRACKETS = bytes(range(256)).translate(None, b"[]{}")


def _nesting(text: str) -> int:
    """The deepest nesting of lists and objects in ``text``, outside JSON
    strings."""
    plain = _JSON_STRING.sub("", text).encode("utf-8", "surrogatepass")
    brackets = np.frombuffer(plain.translate(None, _NOT_BRACKETS), np.uint8)
    steps = np.where((brackets == ord("[")) | (brackets == ord("{")), 1, -1)
    return int(np.cumsum(steps).max(initial=0))


def _read_json(path: str, kind: str):
    """The JSON document in the file at ``path``.  Its bytes are decoded as
    ``json.loads`` decodes them: UTF-8, -16 or -32, with or without a BOM.
    Text that is not JSON (``NaN`` and ``Infinity`` included), a number beyond
    double range, bytes that do not decode and nesting deeper than
    MAX_NESTING raise InvalidInputError naming ``kind``.  An integer beyond
    64 bits reads as a float."""
    import orjson  # loaded on the first read, not by ``import koopid``

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode(json.detect_encoding(data), "surrogatepass")
        # at most MAX_NESTING brackets cannot nest deeper: skip the scan
        if text.count("[") + text.count("{") > MAX_NESTING and _nesting(text) > MAX_NESTING:
            raise InvalidInputError(f"{kind} nests lists and objects deeper than {MAX_NESTING}")
        return orjson.loads(text)
    # orjson.JSONDecodeError or UnicodeDecodeError
    except ValueError as exc:
        raise InvalidInputError(f"{kind} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# term / dictionary / weight / functional records

def term_to_record(term: TermSpec) -> dict:
    if isinstance(term, MonomialDerivative):
        return {"kind": "monomial", "j": term.j, "k": term.k}
    return {"kind": "graphon", "f": {"c0": term.c0, "cx": term.cx, "cy": term.cy}}


def term_from_record(rec: dict) -> TermSpec:
    """The term a record holds; ``{"kind": "constant"}`` is read as
    ``MonomialDerivative(0, 0)``."""
    kind = _get(rec, "kind", "term record")
    if kind == "constant":
        return MonomialDerivative(0, 0)
    if kind == "monomial":
        return MonomialDerivative(_get(rec, "j", "monomial term"), _get(rec, "k", "monomial term"))
    if kind == "graphon":
        f = _get(rec, "f", "graphon term")
        return GraphonKernel(*(_get(f, c, "graphon kernel") for c in ("c0", "cx", "cy")))
    raise InvalidInputError(f"unknown term kind: {kind!r}")


def dictionary_to_records(dictionary: Dictionary) -> List[dict]:
    return [term_to_record(t) for t in dictionary.terms]


def dictionary_from_records(records: List[dict]) -> Dictionary:
    return Dictionary(tuple(term_from_record(r) for r in _convert(records, list, "dictionary")))


def weight_from_record(rec: dict) -> WeightSpec:
    """The weight a record holds; ``{"kind": "constant"}`` is read as
    ``PowerLaw(0)``."""
    kind = _get(rec, "kind", "weight record")
    if kind == "bump":
        return Bump(_get(rec, "L", "bump weight"),
                    recentered=_get(rec, "recentered", "bump weight", default=False))
    if kind == "power":
        return PowerLaw(_get(rec, "p", "power weight"))
    if kind == "constant":
        return PowerLaw(0)
    raise InvalidInputError(f"unknown weight kind: {kind!r}")


def parse_weight_spec(text: str) -> WeightSpec:
    """Parse the CLI shorthand: ``bump:L``, ``power:p`` or ``constant`` (read
    as ``power:0``)."""
    parts = text.split(":")
    try:
        if parts[0] == "constant" and len(parts) == 1:
            return PowerLaw(0)
        if parts[0] == "bump" and len(parts) in (2, 3) and parts[2:] in ([], ["recentered"]):
            return Bump(float(parts[1]), recentered=len(parts) == 3)
        if parts[0] == "power" and len(parts) == 2:
            return PowerLaw(int(parts[1]))
    except ValueError:
        pass
    raise InvalidInputError(f"cannot parse weight spec {text!r}")


def functional_from_record(rec: dict) -> FunctionalSpec:
    kind = _get(rec, "kind", "functional record")
    if kind == "cosine":
        return InnerProductPower(*(_get(rec, key, "cosine functional")
                                   for key in ("a", "b", "k", "l")))
    if kind == "point":
        return PointEvaluation(_get(rec, "x", "point functional"))
    if kind == "lifted":
        return LiftedTerm(
            term_from_record(_get(rec, "term", "lifted functional")),
            weight_from_record(_get(rec, "weight", "lifted functional")),
        )
    raise InvalidInputError(f"unknown functional kind: {kind!r}")


# ---------------------------------------------------------------------------
# dataset JSON

def dataset_to_json(dataset: SnapshotDataset) -> str:
    """The dataset as one JSON document whose floats read back bit-exact.

    The head is ``json.dumps``, which writes an integer of any size (orjson
    refuses one beyond 64 bits, and a provenance seed may be one) and, with
    ``allow_nan=False``, refuses what the reader would refuse.  The ``pairs``
    list, the document's last key, is one ``orjson.dumps`` call: shortest
    round-trip digits, as ``repr`` gives, in orjson's layout (``0.00001``).
    """
    import orjson  # loaded on the first write, as the reader loads it

    head = json.dumps({
        "grid": {
            "x_min": dataset.grid.x_min,
            "x_max": dataset.grid.x_max,
            "num_points": dataset.grid.num_points,
        },
        "sampling_time": dataset.sampling_time,
        "dirichlet": dataset.dirichlet,
        "provenance": dataset.provenance or {},
    }, allow_nan=False)
    # orjson serializes only C-contiguous arrays; a Fortran-ordered input
    # keeps its layout in SnapshotDataset
    pairs = orjson.dumps(
        [{"u": u, "u_next": un} for u, un in
         zip(np.ascontiguousarray(dataset.u), np.ascontiguousarray(dataset.u_next))],
        option=orjson.OPT_SERIALIZE_NUMPY,
    ).decode()
    return f'{head[:-1]}, "pairs": {pairs}}}'


def write_dataset(path: str, dataset: SnapshotDataset):
    atomic_write_text(path, dataset_to_json(dataset))


def read_dataset(path: str) -> SnapshotDataset:
    doc = _read_json(path, "dataset")
    g = _get(doc, "grid", "dataset")
    grid = Grid1D(*(_get(g, key, "dataset grid") for key in ("x_min", "x_max", "num_points")))
    pairs = _get(doc, "pairs", "dataset", list)
    provenance = doc.get("provenance")
    if provenance is not None:  # absent, null and {} all read as no provenance
        provenance = _get(doc, "provenance", "dataset", dict) or None
    return SnapshotDataset(
        grid, _get(doc, "sampling_time", "dataset"),
        [_get(p, "u", "dataset pair") for p in pairs],
        [_get(p, "u_next", "dataset pair") for p in pairs],
        dirichlet=_get(doc, "dirichlet", "dataset", default=False),
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# model files (custom models for the CLI)

def model_from_record(doc: dict, num_points: int | None = None) -> Model:
    g = _get(doc, "grid", "model")
    if num_points is None:
        num_points = _get(g, "num_points", "model grid", default=DEFAULT_GRID_POINTS)
    grid = Grid1D(_get(g, "x_min", "model grid"), _get(g, "x_max", "model grid"), num_points)
    terms = tuple(term_from_record(r) for r in _get(doc, "dictionary", "model", list))
    dic = Dictionary(terms, _get(doc, "coefficients", "model", list))
    boundary = doc.get("boundary", "none")
    if boundary not in ("dirichlet", "none"):
        raise InvalidInputError(f"boundary must be 'dirichlet' or 'none', got {boundary!r}")
    name = _get(doc, "name", "model", str, "custom")
    return Model(name, dic, grid, dirichlet=boundary == "dirichlet")


def read_model(path: str, num_points: int | None = None):
    """Read a custom model file; returns (model, ic_family)."""
    doc = _read_json(path, "model")
    model = model_from_record(doc, num_points)
    family = _get(doc, "family", "model", ICFamily, ICFamily.BURGERS)
    return model, family


def read_dictionary(path: str) -> Dictionary:
    return dictionary_from_records(_read_json(path, "dictionary"))


def read_basis(path: str) -> List[FunctionalSpec]:
    return [functional_from_record(r) for r in _convert(_read_json(path, "basis"), list, "basis")]


def read_truth(path: str, num_terms: int) -> np.ndarray:
    """Read the true coefficients: one number per dictionary term."""
    doc = _convert(_read_json(path, "truth"), list, "truth")
    if len(doc) != num_terms:
        raise InvalidInputError(
            f"truth must be a list of {num_terms} numbers, one per dictionary term"
        )
    return np.array([require_real(f"truth coefficient {i}", c) for i, c in enumerate(doc)])


# ---------------------------------------------------------------------------
# CSV result schemas

def _fmt(x: float) -> str:
    return repr(float(x))


def spectrum_to_csv(result: SpectrumResult) -> str:
    rows = [["re_lambda_L", "im_lambda_L", "re_lambda_U", "im_lambda_U", "residual_score"]]
    for lam_l, lam_u, score in zip(result.lambda_l, result.lambda_u, result.residual_scores):
        generator = ["", ""] if np.isnan(lam_l) else [_fmt(lam_l.real), _fmt(lam_l.imag)]
        rows.append(generator + [_fmt(lam_u.real), _fmt(lam_u.imag), _fmt(score)])
    return _csv_text(rows)


def identification_to_csv(result: IdentificationResult, truth: np.ndarray | None = None) -> str:
    rows = [["term_index", "term_descriptor", "c_true", "c_hat", "abs_error"]]
    for i, term in enumerate(result.dictionary.terms):
        c_hat = result.estimates[i]
        if truth is None:
            c_true, err = "", ""
        else:
            c_true = _fmt(truth[i])
            err = _fmt(abs(c_hat - truth[i]))
        rows.append([str(i + 1), describe_term(term), c_true, _fmt(c_hat), err])
    return _csv_text(rows)


def sweep_to_csv(report: ConvergenceReport, dictionary: Dictionary) -> str:
    header = ["ts", "max_abs_error"] + [
        f"err_{i + 1}_{describe_term(t)}" for i, t in enumerate(dictionary.terms)
    ]
    rows = [header]
    for t_s, errors in zip(report.t_s, report.errors):
        rows.append([_fmt(t_s), _fmt(errors.max())] + [_fmt(e) for e in errors])
    return _csv_text(rows)


def _csv_text(rows: List[List[str]]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()
