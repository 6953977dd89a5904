"""File formats: dataset JSON, dictionary/weight/basis records, CSV schemas."""

import json
import os
import time

import numpy as np
import pytest

import koopid
from koopid import fileio
from koopid.errors import InvalidInputError

from helpers import read_dataset_text


def small_dataset():
    m = koopid.graphon_model(64)
    return m, koopid.generate_pairs(m, koopid.ICFamily.GRAPHON, 2, 4, 0.5, seed=1)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        p = tmp_path / "out.txt"
        fileio.atomic_write_text(str(p), "one")
        fileio.atomic_write_text(str(p), "two")
        assert p.read_text() == "two"
        assert list(tmp_path.iterdir()) == [p]  # no temp files left behind

    def test_failed_replace_names_the_path_and_leaves_no_temp_file(self, tmp_path):
        p = tmp_path / "taken"
        p.mkdir()
        with pytest.raises(OSError) as info:
            fileio.atomic_write_text(str(p), "one")
        assert info.value.filename == str(p)
        assert list(tmp_path.iterdir()) == [p]


class TestDatasetRoundTrip:
    def test_bit_exact_values(self, tmp_path):
        _, ds = small_dataset()
        p = tmp_path / "d.json"
        fileio.write_dataset(str(p), ds)
        back = fileio.read_dataset(str(p))
        assert back.sampling_time == ds.sampling_time
        assert back.grid == ds.grid
        assert len(back) == len(ds)
        assert np.array_equal(back.u, ds.u)
        assert np.array_equal(back.u_next, ds.u_next)

    def test_bit_exact_on_extreme_floats(self):
        # the document keeps its keys and their order, and every double its bits
        g = koopid.Grid1D(0.0, 1.0, 8)
        rng = np.random.default_rng(0)
        u = rng.standard_normal((3, 8)) * 10.0 ** rng.integers(-300, 300, (3, 8))
        u[0, :4] = [5e-324, -0.0, np.nextafter(1.0, 2.0), np.finfo(float).max]
        # the ends of [1e-4, 1e16), where orjson's exponent layout and repr's differ
        u[1, :6] = [1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0), 1e15, 100.0]
        ds = koopid.SnapshotDataset(g, 1.0 / 3.0, u, -u)
        text = fileio.dataset_to_json(ds)
        assert list(json.loads(text)) == ["grid", "sampling_time", "dirichlet", "provenance", "pairs"]
        back = read_dataset_text(text)
        assert back.sampling_time == ds.sampling_time
        assert np.array_equal(back.u.view(np.uint64), u.view(np.uint64))
        assert np.array_equal(back.u_next.view(np.uint64), (-u).view(np.uint64))

    def test_preserves_provenance_and_dirichlet(self, tmp_path):
        m = koopid.burgers_model(64)
        ds = koopid.generate_pairs(m, koopid.ICFamily.BURGERS, 2, 4, 0.2, seed=2)
        p = tmp_path / "d.json"
        fileio.write_dataset(str(p), ds)
        back = fileio.read_dataset(str(p))
        assert back.provenance["seed"] == 2
        assert back.provenance["burn_in"] == 0.0
        assert back.dirichlet is True

    @pytest.mark.parametrize("grid, t_s", [
        (koopid.Grid1D(0.0, 1.0, np.int64(8)), 0.5),
        (koopid.Grid1D(np.float32(0), 1.0, 8), 0.5),
        (koopid.Grid1D(0, 1, 8), np.float32(0.5)),
        (koopid.Grid1D(0.0, 1.0, 8), 1),
    ], ids=["int64-nodes", "float32-endpoint", "float32-sampling-time", "int-sampling-time"])
    def test_numpy_and_int_scalars_round_trip(self, tmp_path, grid, t_s):
        # the constructors keep Python numbers, which the JSON writer takes,
        # and an int reads back as the float it was written as
        u = np.random.default_rng(1).standard_normal((2, 8))
        ds = koopid.SnapshotDataset(grid, t_s, u, -u)
        p = tmp_path / "d.json"
        fileio.write_dataset(str(p), ds)
        back = fileio.read_dataset(str(p))
        assert back.grid == ds.grid and back.sampling_time == ds.sampling_time == float(t_s)
        assert fileio.dataset_to_json(back) == fileio.dataset_to_json(ds)

    def test_deterministic_serialization(self, tmp_path):
        _, ds = small_dataset()
        assert fileio.dataset_to_json(ds) == fileio.dataset_to_json(ds)


class TestDatasetText:
    def test_signed_zeros_keep_their_sign(self):
        # rows equal in value but not in bytes read back apart
        g = koopid.Grid1D(0.0, 1.0, 8)
        u = np.array([[0.0, 1.0, 0.0, 2.0] * 2, [-0.0, 1.0, -0.0, 2.0] * 2])
        ds = koopid.SnapshotDataset(g, 0.5, u, u[::-1], provenance={"seed": 1})
        text = fileio.dataset_to_json(ds)
        for back in (np.array([p["u"] for p in json.loads(text)["pairs"]]),
                     read_dataset_text(text).u):
            assert np.array_equal(np.signbit(back), np.signbit(u))

    def test_non_finite_provenance_is_refused_before_the_write(self, tmp_path):
        # the reader refuses NaN, so the writer must not emit it
        g = koopid.Grid1D(0.0, 1.0, 8)
        ds = koopid.SnapshotDataset(g, 0.5, np.ones((1, 8)), np.ones((1, 8)),
                                    provenance={"note": float("nan")})
        p = tmp_path / "d.json"
        with pytest.raises(ValueError):
            fileio.write_dataset(str(p), ds)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("provenance", [[1, 2], "seed 1", 7])
    def test_provenance_that_is_not_a_dict_is_refused(self, provenance):
        # the reader takes only a JSON object, so no dataset holds anything else
        g = koopid.Grid1D(0.0, 1.0, 8)
        with pytest.raises(InvalidInputError, match="provenance must be a dict or None"):
            koopid.SnapshotDataset(g, 0.1, np.ones((1, 8)), np.ones((1, 8)), provenance=provenance)


class TestJsonReading:
    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-be", "utf-32"])
    def test_utf8_with_bom_utf16_and_utf32_read_as_utf8(self, tmp_path, encoding):
        # decoded as json.loads decodes bytes: the parser reads only bare UTF-8
        _, ds = small_dataset()
        text = fileio.dataset_to_json(ds)
        plain, coded = tmp_path / "plain.json", tmp_path / "coded.json"
        plain.write_bytes(text.encode("utf-8"))
        coded.write_bytes(text.encode(encoding))
        want, back = fileio.read_dataset(str(plain)), fileio.read_dataset(str(coded))
        assert (back.grid, back.sampling_time, back.dirichlet, back.provenance) == (
            want.grid, want.sampling_time, want.dirichlet, want.provenance
        )
        assert np.array_equal(back.u.view(np.uint64), want.u.view(np.uint64))
        assert np.array_equal(back.u_next.view(np.uint64), want.u_next.view(np.uint64))

    def test_brackets_inside_strings_do_not_nest(self):
        # 4,000 brackets force the depth scan; an escaped quote and backslash
        # come first, so a scan that ended the string there would count them
        g = koopid.Grid1D(0.0, 1.0, 8)
        provenance = {"open": '"\\' + "[" * 2000, "close": "]" * 2000}
        ds = koopid.SnapshotDataset(g, 0.5, np.ones((1, 8)), np.ones((1, 8)),
                                    provenance=provenance)
        assert read_dataset_text(fileio.dataset_to_json(ds)).provenance == provenance

    def test_unterminated_string_is_refused_in_linear_time(self):
        # a string that never closes once took time quadratic in its escapes
        text = "[" * (fileio.MAX_NESTING + 1) + '"' + '\\"' * 20_000
        start = time.perf_counter()
        with pytest.raises(InvalidInputError):
            read_dataset_text(text)
        assert time.perf_counter() - start < 1.0

    def test_closing_brackets_inside_strings_hide_no_nesting(self):
        depth = fileio.MAX_NESTING + 1
        text = '["' + "]" * 2000 + '", ' + "[" * depth + "]" * depth + "]"
        with pytest.raises(InvalidInputError, match=f"deeper than {fileio.MAX_NESTING}"):
            read_dataset_text(text)


class TestRecordRoundTrips:
    @pytest.mark.parametrize(
        "term",
        [
            koopid.MonomialDerivative(0, 0),
            koopid.MonomialDerivative(2, 3),
            koopid.GraphonKernel(-1.0, 0.7, 0.3),
        ],
    )
    def test_term(self, term):
        assert fileio.term_from_record(fileio.term_to_record(term)) == term

    @pytest.mark.parametrize(
        "weight",  # (record, weight it describes)
        [
            ({"kind": "bump", "L": 5.0}, koopid.Bump(5.0)),
            ({"kind": "bump", "L": 5.0, "recentered": True}, koopid.Bump(5.0, recentered=True)),
            ({"kind": "power", "p": 2}, koopid.PowerLaw(2)),
            ({"kind": "power", "p": 0}, koopid.PowerLaw(0)),
            ({"kind": "constant"}, koopid.PowerLaw(0)),
        ],
    )
    def test_weight(self, weight):
        record, expected = weight
        assert fileio.weight_from_record(record) == expected

    @pytest.mark.parametrize(
        "spec",  # (record, functional it describes)
        [
            ({"kind": "cosine", "a": 0.3, "b": 0.7, "k": 2, "l": 3},
             koopid.InnerProductPower(0.3, 0.7, 2, 3)),
            ({"kind": "point", "x": 0.25}, koopid.PointEvaluation(0.25)),
            ({"kind": "lifted", "term": {"kind": "monomial", "j": 1, "k": 0},
              "weight": {"kind": "power", "p": 2}},
             koopid.LiftedTerm(koopid.MonomialDerivative(1, 0), koopid.PowerLaw(2))),
        ],
    )
    def test_functional(self, spec):
        record, expected = spec
        assert fileio.functional_from_record(record) == expected

    def test_dictionary_of_numpy_integers(self, tmp_path):
        # the terms keep the Python ints that require_int returns, which
        # json.dumps takes
        dic = koopid.Dictionary((koopid.MonomialDerivative(np.int64(1), np.int64(0)),
                                 koopid.MonomialDerivative(np.int64(2), np.int64(1))))
        path = tmp_path / "dict.json"
        path.write_text(json.dumps(fileio.dictionary_to_records(dic)))
        assert fileio.read_dictionary(str(path)) == dic

    def test_constant_term_record_reads_as_u_to_the_zero(self):
        term = fileio.term_from_record({"kind": "constant"})
        assert term == koopid.MonomialDerivative(0, 0)
        assert fileio.term_to_record(term) == {"kind": "monomial", "j": 0, "k": 0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            fileio.term_from_record({"kind": "mystery"})

    def test_dictionary_must_be_a_json_list(self):
        # a tuple is no JSON value: records come from the JSON parser
        records = ({"kind": "monomial", "j": 1, "k": 0},)
        with pytest.raises(InvalidInputError, match="dictionary must be a JSON list"):
            fileio.dictionary_from_records(records)


class TestWeightSpecParsing:
    def test_shorthand_forms(self):
        assert fileio.parse_weight_spec("constant") == koopid.PowerLaw(0)
        assert fileio.parse_weight_spec("bump:5") == koopid.Bump(5.0)
        assert fileio.parse_weight_spec("bump:5:recentered") == koopid.Bump(5.0, recentered=True)
        assert fileio.parse_weight_spec("power:2") == koopid.PowerLaw(2)

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInputError):
            fileio.parse_weight_spec("gaussian:1")


class TestModelFile:
    def test_custom_model_round_trip(self, tmp_path):
        doc = {
            "name": "demo",
            "family": "graphon",
            "grid": {"x_min": 0.0, "x_max": 1.0, "num_points": 64},
            "dictionary": [{"kind": "monomial", "j": 1, "k": 0}],
            "coefficients": [-1.0],
            "boundary": "none",
        }
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        model, family = fileio.read_model(str(p))
        assert model.name == "demo"
        assert family == koopid.ICFamily.GRAPHON
        assert model.dictionary.coefficients == (-1.0,)

    def test_bad_boundary_rejected(self, tmp_path):
        doc = {
            "grid": {"x_min": 0.0, "x_max": 1.0},
            "dictionary": [{"kind": "monomial", "j": 1, "k": 0}],
            "coefficients": [1.0],
            "boundary": "periodic",
        }
        with pytest.raises(InvalidInputError):
            fileio.model_from_record(doc)


class TestCsvSchemas:
    def test_spectrum_csv_header_and_blank_branch_cut(self):
        from koopid.koopman import edmd_fit, spectrum

        result = spectrum(edmd_fit(np.eye(2), np.diag([-0.5, 0.5]), 0.1))
        text = fileio.spectrum_to_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "re_lambda_L,im_lambda_L,re_lambda_U,im_lambda_U,residual_score"
        assert len(lines) == 3
        assert any(line.startswith(",,") for line in lines[1:])  # branch-cut row

    def test_sweep_csv_rows(self):
        from koopid.identify import ConvergenceReport

        dictionary = koopid.Dictionary((
            koopid.MonomialDerivative(1, 0), koopid.MonomialDerivative(2, 1),
            koopid.GraphonKernel(1.0, 0.0, 0.5),
        ))
        report = ConvergenceReport(
            t_s=np.array([0.3, 0.15]),
            errors=np.array([[0.5, 0.25, 2.0], [0.125, 1e-3, 0.0625]]),
            monotone=True,
        )
        assert fileio.sweep_to_csv(report, dictionary) == (
            'ts,max_abs_error,err_1_u,err_2_u^2*du/dx,"err_3_graphon(c0=1,cx=0,cy=0.5)"\n'
            "0.3,2.0,0.5,0.25,2.0\n"
            "0.15,0.125,0.125,0.001,0.0625\n"
        )

    def test_identification_csv_includes_truth_errors(self):
        m = koopid.graphon_model(64)
        ds = koopid.generate_pairs(m, koopid.ICFamily.GRAPHON, 5, 10, 0.5, seed=1)
        cand = koopid.Dictionary(koopid.graphon_model(64).dictionary.terms)
        result = koopid.lifting_identify(ds, cand, koopid.PowerLaw(2))
        truth = koopid.true_coefficients(koopid.graphon_model(64), cand)
        text = fileio.identification_to_csv(result, truth)
        lines = text.strip().split("\n")
        assert lines[0] == "term_index,term_descriptor,c_true,c_hat,abs_error"
        assert len(lines) == 8
