"""Command-line interface: subcommands, exit codes, determinism."""

import json

import pytest

import koopid
from koopid.cli import (
    EXIT_BLOWUP,
    EXIT_BRANCH,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    main,
)

PDE1_DICT = (
    [{"kind": "monomial", "j": 1, "k": 0}, {"kind": "constant"},
     {"kind": "monomial", "j": 2, "k": 0}]
    + [{"kind": "monomial", "j": j, "k": k} for k in (1, 2, 3) for j in (0, 1, 2)]
)


GRAPHON_DICT = [
    {"kind": "constant"}, {"kind": "monomial", "j": 1, "k": 0},
    {"kind": "monomial", "j": 2, "k": 0}, {"kind": "monomial", "j": 3, "k": 0},
    {"kind": "graphon", "f": {"c0": 1.0, "cx": 0.0, "cy": 0.0}},
    {"kind": "graphon", "f": {"c0": 0.0, "cx": 1.0, "cy": 0.0}},
    {"kind": "graphon", "f": {"c0": 0.0, "cx": 0.0, "cy": 1.0}},
]


@pytest.fixture
def graphon_data(tmp_path):
    out = tmp_path / "g.json"
    code = main([
        "simulate", "--model", "graphon", "--pairs", "10", "--trajectories", "5",
        "--ts", "0.5", "--seed", "1", "--grid", "64", "--out", str(out),
    ])
    assert code == EXIT_OK
    return out


class TestSimulate:
    def test_writes_dataset(self, graphon_data):
        doc = json.loads(graphon_data.read_text())
        assert len(doc["pairs"]) == 10
        assert doc["sampling_time"] == 0.5

    def test_unknown_model_is_usage_error(self, tmp_path, capsys):
        code = main([
            "simulate", "--model", "nope", "--pairs", "4", "--trajectories", "2",
            "--ts", "0.1", "--seed", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self, tmp_path):
        code = main(["simulate", "--model", "graphon"])
        assert code == EXIT_USAGE

    def test_model_file_not_an_object_is_usage_error(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps([{"kind": "monomial", "j": 1, "k": 0}]))
        code = main([
            "simulate", "--model", f"custom:{model_path}", "--pairs", "4",
            "--trajectories", "2", "--ts", "0.1", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_USAGE
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["dictionary", "coefficients"])
    def test_model_list_field_holding_a_number_is_usage_error(self, tmp_path, capsys, field):
        doc = {
            "grid": {"x_min": 0.0, "x_max": 1.0, "num_points": 32},
            "dictionary": [{"kind": "monomial", "j": 1, "k": 0}],
            "coefficients": [-1.0],
        }
        doc[field] = 5
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(doc))
        code = main([
            "simulate", "--model", f"custom:{model_path}", "--pairs", "4",
            "--trajectories", "2", "--ts", "0.1", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_USAGE
        assert "JSON list" in capsys.readouterr().err

    def test_model_unknown_family_is_usage_error(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps({
            "grid": {"x_min": 0.0, "x_max": 1.0, "num_points": 32},
            "dictionary": [{"kind": "monomial", "j": 1, "k": 0}],
            "coefficients": [-1.0],
            "family": "nope",
        }))
        code = main([
            "simulate", "--model", f"custom:{model_path}", "--pairs", "4",
            "--trajectories", "2", "--ts", "0.1", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_USAGE
        assert "'family'" in capsys.readouterr().err

    def test_blow_up_exit_code(self, tmp_path, capsys):
        # the third-order benchmark is mesh-unstable on a fine grid
        code = main([
            "simulate", "--model", "pde1", "--pairs", "4", "--trajectories", "2",
            "--ts", "0.3", "--seed", "1", "--grid", "256",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_BLOWUP
        assert "blow-up" in capsys.readouterr().err


class TestSpectrum:
    def test_pipeline_and_determinism(self, tmp_path, graphon_data, capsys):
        # use a burgers dataset so the 27-functional basis applies
        data = tmp_path / "b.json"
        assert main([
            "simulate", "--model", "burgers", "--pairs", "28", "--trajectories", "7",
            "--ts", "0.2", "--seed", "1", "--grid", "64", "--out", str(data),
        ]) == EXIT_OK
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (out1, out2):
            code = main(["spectrum", "--data", str(data), "--basis", "burgers:1",
                         "--out", str(out)])
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_insufficient_data_exit_code(self, tmp_path, graphon_data, capsys):
        # 10 pairs cannot determine 27 functionals
        data = tmp_path / "b.json"
        assert main([
            "simulate", "--model", "burgers", "--pairs", "10", "--trajectories", "5",
            "--ts", "0.2", "--seed", "1", "--grid", "64", "--out", str(data),
        ]) == EXIT_OK
        from koopid.cli import EXIT_INSUFFICIENT

        code = main(["spectrum", "--data", str(data), "--basis", "burgers:1",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_INSUFFICIENT

    def test_basis_file_holding_a_number_is_usage_error(self, tmp_path, graphon_data, capsys):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text("5")
        code = main(["spectrum", "--data", str(graphon_data), "--basis", f"file:{basis_path}",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        assert "JSON list" in capsys.readouterr().err

    def test_bad_basis_spec(self, tmp_path, graphon_data):
        code = main(["spectrum", "--data", str(graphon_data), "--basis", "what",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE


class TestIdentify:
    def test_lifting_with_truth(self, tmp_path, graphon_data, capsys):
        dict_path = tmp_path / "dict.json"
        dict_path.write_text(json.dumps(GRAPHON_DICT))
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps(list(koopid.graphon_model().dictionary.coefficients)))
        out = tmp_path / "id.csv"
        code = main([
            "identify", "--data", str(graphon_data), "--dict", str(dict_path),
            "--weight", "power:2", "--method", "lifting",
            "--truth", str(truth_path), "--out", str(out),
        ])
        assert code == EXIT_OK
        assert "max abs error" in capsys.readouterr().out
        assert out.exists()

    def _identify(self, tmp_path, data, records, truth=None):
        dict_path = tmp_path / "dict.json"
        dict_path.write_text(json.dumps(records))
        argv = ["identify", "--data", str(data), "--dict", str(dict_path),
                "--weight", "power:2", "--method", "lifting", "--out", str(tmp_path / "id.csv")]
        if truth is not None:
            truth_path = tmp_path / "truth.json"
            truth_path.write_text(json.dumps(truth))
            argv += ["--truth", str(truth_path)]
        return main(argv)

    def test_short_truth_is_usage_error(self, tmp_path, graphon_data, capsys):
        code = self._identify(tmp_path, graphon_data, GRAPHON_DICT, truth=[1.0, -0.5, 1.5])
        assert code == EXIT_USAGE
        assert "7 numbers" in capsys.readouterr().err

    def test_incomplete_term_record_is_usage_error(self, tmp_path, graphon_data, capsys):
        code = self._identify(tmp_path, graphon_data, [{"kind": "monomial", "j": 1}])
        assert code == EXIT_USAGE
        assert "'k'" in capsys.readouterr().err

    def test_dictionary_file_holding_a_number_is_usage_error(self, tmp_path, graphon_data,
                                                             capsys):
        code = self._identify(tmp_path, graphon_data, 5)
        assert code == EXIT_USAGE
        assert "JSON list" in capsys.readouterr().err

    def test_dataset_without_grid_bound_is_usage_error(self, tmp_path, graphon_data, capsys):
        doc = json.loads(graphon_data.read_text())
        del doc["grid"]["x_min"]
        graphon_data.write_text(json.dumps(doc))
        code = self._identify(tmp_path, graphon_data, GRAPHON_DICT)
        assert code == EXIT_USAGE
        assert "'x_min'" in capsys.readouterr().err

    def test_dataset_pairs_not_a_list_is_usage_error(self, tmp_path, graphon_data, capsys):
        doc = json.loads(graphon_data.read_text())
        doc["pairs"] = 5
        graphon_data.write_text(json.dumps(doc))
        code = self._identify(tmp_path, graphon_data, GRAPHON_DICT)
        assert code == EXIT_USAGE
        assert "'pairs'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["ragged", "text"])
    def test_dataset_snapshot_not_numbers_is_usage_error(self, tmp_path, graphon_data, capsys,
                                                         bad):
        doc = json.loads(graphon_data.read_text())
        u = doc["pairs"][3]["u"]
        doc["pairs"][3]["u"] = u[:-1] if bad == "ragged" else ["x"] * len(u)
        graphon_data.write_text(json.dumps(doc))
        code = self._identify(tmp_path, graphon_data, GRAPHON_DICT)
        assert code == EXIT_USAGE
        assert "rectangular array of numbers" in capsys.readouterr().err

    def test_branch_cut_exit_code_with_hint(self, tmp_path, capsys):
        # pde1 sampled without burn-in at ts = 0.3 hits the logarithm branch cut
        data = tmp_path / "p.json"
        assert main([
            "simulate", "--model", "pde1", "--pairs", "50", "--trajectories", "25",
            "--ts", "0.3", "--seed", "1", "--burn-in", "0", "--out", str(data),
        ]) == EXIT_OK
        dict_path = tmp_path / "dict.json"
        dict_path.write_text(json.dumps(PDE1_DICT))
        code = main([
            "identify", "--data", str(data), "--dict", str(dict_path),
            "--weight", "bump:5:recentered", "--method", "lifting",
            "--out", str(tmp_path / "id.csv"),
        ])
        assert code == EXIT_BRANCH
        assert "reduce --ts" in capsys.readouterr().err

    def test_missing_identity_is_precondition_error(self, tmp_path, graphon_data, capsys):
        dict_path = tmp_path / "dict.json"
        dict_path.write_text(json.dumps([{"kind": "constant"}]))
        code = main([
            "identify", "--data", str(graphon_data), "--dict", str(dict_path),
            "--weight", "power:2", "--method", "lifting",
            "--out", str(tmp_path / "id.csv"),
        ])
        assert code == EXIT_PRECONDITION


class TestSweep:
    def test_sweep_writes_rows(self, tmp_path, capsys):
        out = tmp_path / "sw.csv"
        code = main([
            "sweep-ts", "--model", "graphon", "--weight", "power:2",
            "--ts-list", "0.5,0.25,0.1", "--seed", "1", "--pairs", "10",
            "--trajectories", "5", "--grid", "64", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert len(out.read_text().strip().split("\n")) == 4
        assert "decreasing" in capsys.readouterr().out

    def test_too_few_sampling_times(self, tmp_path):
        code = main([
            "sweep-ts", "--model", "graphon", "--weight", "power:2",
            "--ts-list", "0.5,0.25", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE
