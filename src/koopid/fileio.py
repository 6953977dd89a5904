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
import tempfile
from typing import List, Sequence

import numpy as np

from .errors import InvalidInputError
from .fields import Grid1D
from .identify import ConvergenceReport, IdentificationResult
from .koopman import SpectrumResult
from .observables import (
    Bump,
    ConstantWeight,
    FunctionalSpec,
    InnerProductPower,
    LiftedTerm,
    PointEvaluation,
    PowerLaw,
    WeightSpec,
)
from .operators import (
    Constant,
    Dictionary,
    GraphonKernel,
    KernelSpec,
    MonomialDerivative,
    TermSpec,
    describe_term,
)
from .simulate import ICFamily, Model, SnapshotDataset


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _get(rec, key: str, what: str, convert=None):
    """``rec[key]``, passed through ``convert`` when given; a record that is
    not an object, lacks the key or holds a value ``convert`` rejects raises
    InvalidInputError naming ``what``."""
    if not isinstance(rec, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {type(rec).__name__}")
    if key not in rec:
        raise InvalidInputError(f"{what} has no {key!r} field")
    if convert is None:
        return rec[key]
    try:
        return convert(rec[key])
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(
            f"{what} field {key!r} is not a valid {convert.__name__}: {rec[key]!r}"
        ) from None


def _records(value, what: str) -> list:
    """``value`` if it is a JSON list, else InvalidInputError naming ``what``."""
    if not isinstance(value, (list, tuple)):
        raise InvalidInputError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


# ---------------------------------------------------------------------------
# term / dictionary / weight / functional records

def term_to_record(term: TermSpec) -> dict:
    if isinstance(term, Constant):
        return {"kind": "constant"}
    if isinstance(term, MonomialDerivative):
        return {"kind": "monomial", "j": term.j, "k": term.k}
    if isinstance(term, GraphonKernel):
        ker = term.kernel
        return {"kind": "graphon", "f": {"c0": ker.c0, "cx": ker.cx, "cy": ker.cy}}
    raise InvalidInputError(f"unknown term type: {term!r}")


def term_from_record(rec: dict) -> TermSpec:
    kind = _get(rec, "kind", "term record")
    if kind == "constant":
        return Constant()
    if kind == "monomial":
        return MonomialDerivative(
            _get(rec, "j", "monomial term", int), _get(rec, "k", "monomial term", int)
        )
    if kind == "graphon":
        f = _get(rec, "f", "graphon term")
        return GraphonKernel(KernelSpec(
            *(_get(f, c, "graphon kernel", float) for c in ("c0", "cx", "cy"))
        ))
    raise InvalidInputError(f"unknown term kind: {kind!r}")


def dictionary_to_records(dictionary: Dictionary) -> List[dict]:
    return [term_to_record(t) for t in dictionary.terms]


def dictionary_from_records(records: Sequence[dict]) -> Dictionary:
    return Dictionary(tuple(term_from_record(r) for r in _records(records, "dictionary")))


def weight_to_record(weight: WeightSpec) -> dict:
    if isinstance(weight, Bump):
        rec = {"kind": "bump", "L": weight.L}
        if weight.recentered:
            rec["recentered"] = True
        return rec
    if isinstance(weight, PowerLaw):
        return {"kind": "power", "p": weight.p}
    if isinstance(weight, ConstantWeight):
        return {"kind": "constant"}
    raise InvalidInputError(f"unknown weight spec: {weight!r}")


def weight_from_record(rec: dict) -> WeightSpec:
    kind = _get(rec, "kind", "weight record")
    if kind == "bump":
        return Bump(_get(rec, "L", "bump weight", float),
                    recentered=bool(rec.get("recentered", False)))
    if kind == "power":
        return PowerLaw(_get(rec, "p", "power weight", int))
    if kind == "constant":
        return ConstantWeight()
    raise InvalidInputError(f"unknown weight kind: {kind!r}")


def parse_weight_spec(text: str) -> WeightSpec:
    """Parse the CLI shorthand: ``bump:L``, ``power:p`` or ``constant``."""
    parts = text.split(":")
    try:
        if parts[0] == "constant" and len(parts) == 1:
            return ConstantWeight()
        if parts[0] == "bump" and len(parts) in (2, 3) and parts[2:] in ([], ["recentered"]):
            return Bump(float(parts[1]), recentered=len(parts) == 3)
        if parts[0] == "power" and len(parts) == 2:
            return PowerLaw(int(parts[1]))
    except ValueError:
        pass
    raise InvalidInputError(f"cannot parse weight spec {text!r}")


def functional_to_record(spec: FunctionalSpec) -> dict:
    if isinstance(spec, InnerProductPower):
        return {"kind": "cosine", "a": spec.a, "b": spec.b, "k": spec.state_power, "l": spec.outer_power}
    if isinstance(spec, PointEvaluation):
        return {"kind": "point", "x": spec.x_j}
    if isinstance(spec, LiftedTerm):
        return {"kind": "lifted", "term": term_to_record(spec.term), "weight": weight_to_record(spec.weight)}
    raise InvalidInputError(f"unknown functional spec: {spec!r}")


def functional_from_record(rec: dict) -> FunctionalSpec:
    kind = _get(rec, "kind", "functional record")
    if kind == "cosine":
        return InnerProductPower(
            _get(rec, "a", "cosine functional", float), _get(rec, "b", "cosine functional", float),
            _get(rec, "k", "cosine functional", int), _get(rec, "l", "cosine functional", int),
        )
    if kind == "point":
        return PointEvaluation(_get(rec, "x", "point functional", float))
    if kind == "lifted":
        return LiftedTerm(
            term_from_record(_get(rec, "term", "lifted functional")),
            weight_from_record(_get(rec, "weight", "lifted functional")),
        )
    raise InvalidInputError(f"unknown functional kind: {kind!r}")


# ---------------------------------------------------------------------------
# dataset JSON

def dataset_to_json(dataset: SnapshotDataset) -> str:
    doc = {
        "grid": {
            "x_min": dataset.grid.x_min,
            "x_max": dataset.grid.x_max,
            "num_points": dataset.grid.num_points,
        },
        "sampling_time": dataset.sampling_time,
        "dirichlet": bool(dataset.dirichlet),
        "provenance": dataset.provenance or {},
        "pairs": [
            {"u": u, "u_next": un}
            for u, un in zip(dataset.u.tolist(), dataset.u_next.tolist())
        ],
    }
    return json.dumps(doc, indent=1)


def dataset_from_json(text: str) -> SnapshotDataset:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise InvalidInputError(f"dataset is not valid JSON: {exc}") from None
    g = _get(doc, "grid", "dataset")
    grid = Grid1D(
        _get(g, "x_min", "dataset grid", float),
        _get(g, "x_max", "dataset grid", float),
        _get(g, "num_points", "dataset grid", int),
    )
    pairs = _get(doc, "pairs", "dataset", list)
    return SnapshotDataset(
        grid, _get(doc, "sampling_time", "dataset", float),
        [_get(p, "u", "dataset pair") for p in pairs],
        [_get(p, "u_next", "dataset pair") for p in pairs],
        dirichlet=bool(doc.get("dirichlet", False)),
        provenance=doc.get("provenance") or None,
    )


def write_dataset(path: str, dataset: SnapshotDataset):
    atomic_write_text(path, dataset_to_json(dataset))


def read_dataset(path: str) -> SnapshotDataset:
    with open(path) as fh:
        return dataset_from_json(fh.read())


# ---------------------------------------------------------------------------
# model files (custom models for the CLI)

def model_from_record(doc: dict, num_points: int | None = None) -> Model:
    g = _get(doc, "grid", "model")
    x_min = _get(g, "x_min", "model grid", float)
    x_max = _get(g, "x_max", "model grid", float)
    if not num_points:
        num_points = _get(g, "num_points", "model grid", int) if "num_points" in g else 256
    grid = Grid1D(x_min, x_max, num_points)
    terms = tuple(
        term_from_record(r) for r in _records(_get(doc, "dictionary", "model"), "model dictionary")
    )
    coefficients = _records(_get(doc, "coefficients", "model"), "model coefficients")
    dic = Dictionary(terms, coefficients)
    boundary = doc.get("boundary", "none")
    if boundary not in ("dirichlet", "none"):
        raise InvalidInputError(f"boundary must be 'dirichlet' or 'none', got {boundary!r}")
    return Model(str(doc.get("name", "custom")), dic, grid, dirichlet=boundary == "dirichlet")


def read_model(path: str, num_points: int | None = None):
    """Read a custom model file; returns (model, ic_family)."""
    with open(path) as fh:
        doc = json.load(fh)
    model = model_from_record(doc, num_points)
    family = _get(doc, "family", "model", ICFamily) if "family" in doc else ICFamily.BURGERS
    return model, family


def read_dictionary(path: str) -> Dictionary:
    with open(path) as fh:
        return dictionary_from_records(json.load(fh))


def read_basis(path: str) -> List[FunctionalSpec]:
    with open(path) as fh:
        return [functional_from_record(r) for r in _records(json.load(fh), "basis")]


def read_truth(path: str, num_terms: int) -> np.ndarray:
    """Read the true coefficients: one number per dictionary term."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        truth = np.array(doc, dtype=float)
    except (TypeError, ValueError):
        truth = None
    if truth is None or truth.shape != (num_terms,):
        raise InvalidInputError(
            f"truth must be a list of {num_terms} numbers, one per dictionary term"
        )
    return truth


# ---------------------------------------------------------------------------
# CSV result schemas

def _fmt(x: float) -> str:
    return repr(float(x))


def spectrum_to_csv(result: SpectrumResult) -> str:
    rows = [["re_lambda_L", "im_lambda_L", "re_lambda_U", "im_lambda_U", "residual_score"]]
    for mode in result.modes:
        if mode.lambda_l is None:
            re_l, im_l = "", ""
        else:
            re_l, im_l = _fmt(mode.lambda_l.real), _fmt(mode.lambda_l.imag)
        rows.append(
            [re_l, im_l, _fmt(mode.lambda_u.real), _fmt(mode.lambda_u.imag), _fmt(mode.residual_score)]
        )
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
    for entry in report.entries:
        rows.append([_fmt(entry.t_s), _fmt(entry.max_error)] + [_fmt(e) for e in entry.errors])
    return _csv_text(rows)


def _csv_text(rows: List[List[str]]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()
