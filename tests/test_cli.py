"""Command-line interface: subcommands, exit codes, determinism."""

import copy
import functools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import koopid
from koopid.cli import (
    EXIT_BLOWUP,
    EXIT_BRANCH,
    EXIT_INSUFFICIENT,
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


def fresh_env():
    """The environment of a fresh interpreter that imports this checkout's koopid."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


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

    def test_unwritable_out_names_the_requested_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = main([
            "simulate", "--model", "graphon", "--pairs", "2", "--trajectories", "1",
            "--ts", "0.5", "--seed", "1", "--grid", "16", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: [Errno 2] No such file or directory: {str(out)!r}" in err
        assert ".tmp-" not in err

    def test_unknown_model_is_usage_error(self, tmp_path, capsys):
        code = main([
            "simulate", "--model", "nope", "--pairs", "4", "--trajectories", "2",
            "--ts", "0.1", "--seed", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: unknown model 'nope'; expected one of ['burgers', 'graphon', 'pde1'] "
            "or custom:<path>\n"
        )

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

    @pytest.mark.parametrize("flag, value", [
        ("--ts", "inf"), ("--ts", "nan"), ("--burn-in", "inf"),
        # below the shortest substep, so it would integrate nothing
        ("--ts", "1e-16"), ("--burn-in", "1e-16"),
    ])
    def test_non_finite_time_is_usage_error(self, tmp_path, capsys, flag, value):
        argv = [
            "simulate", "--model", "graphon", "--pairs", "2", "--trajectories", "1",
            "--ts", "0.5", "--burn-in", "0", "--seed", "1", "--grid", "16",
            "--out", str(tmp_path / "x.json"),
        ]
        argv[argv.index(flag) + 1] = value
        code = main(argv)
        assert code == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be a non-negative integer, got -1"),
        ("--burn-in", "-1", "burn-in (0 for none) must be finite and above 1e-15, got -1.0"),
    ])
    def test_bad_seed_or_burn_in_is_named(self, tmp_path, capsys, flag, value, message):
        argv = [
            "simulate", "--model", "graphon", "--pairs", "2", "--trajectories", "1",
            "--ts", "0.5", "--burn-in", "0", "--seed", "1", "--grid", "16",
            "--out", str(tmp_path / "x.json"),
        ]
        argv[argv.index(flag) + 1] = value
        code = main(argv)
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_seed_beyond_64_bits_is_written_and_read_as_a_float(self, tmp_path):
        out = tmp_path / "x.json"
        code = main([
            "simulate", "--model", "graphon", "--pairs", "2", "--trajectories", "1",
            "--ts", "0.5", "--seed", str(2**64), "--grid", "16", "--out", str(out),
        ])
        assert code == EXIT_OK
        seed = koopid.fileio.read_dataset(str(out)).provenance["seed"]
        assert isinstance(seed, float) and seed == 2.0**64

    def simulate_custom(self, tmp_path, doc, *flags):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(doc))
        return main([
            "simulate", "--model", f"custom:{model_path}", "--pairs", "4",
            "--trajectories", "2", "--ts", "0.3", "--seed", "1",
            "--out", str(tmp_path / "x.json"), *flags,
        ])

    DECAY = {
        "grid": {"x_min": 0.0, "x_max": 5.0, "num_points": 16},
        "dictionary": [{"kind": "monomial", "j": 1, "k": 0}],
        "coefficients": [-1.0],
        "family": "pde1",
    }

    def test_custom_grid_zero_is_usage_error(self, tmp_path, capsys):
        # an explicit --grid 0 is rejected, not replaced by the file's grid
        code = self.simulate_custom(tmp_path, self.DECAY, "--grid", "0")
        assert code == EXIT_USAGE
        assert "num_points" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_custom_model_named_like_a_builtin_gets_no_burn_in(self, tmp_path):
        # the built-in defaults belong to --model pde1, not to a file named "pde1"
        code = self.simulate_custom(tmp_path, {**self.DECAY, "name": "pde1"})
        assert code == EXIT_OK
        provenance = json.loads((tmp_path / "x.json").read_text())["provenance"]
        assert provenance["model"] == "pde1"
        assert provenance["burn_in"] == 0.0

    def test_blow_up_exit_code(self, tmp_path, capsys):
        # the third-order benchmark is mesh-unstable on a fine grid: its
        # diffusion coefficient 1 - 0.2 u turns negative where u > 5
        code = main([
            "simulate", "--model", "pde1", "--pairs", "4", "--trajectories", "2",
            "--ts", "0.3", "--seed", "1", "--grid", "256",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_BLOWUP
        assert "blow-up" in capsys.readouterr().err

    def test_custom_blow_up_exit_code(self, tmp_path, capsys):
        # du/dt = u^3 from pde1 starts, whose magnitude reaches 6.25, grows
        # beyond floating-point range within one segment
        code = self.simulate_custom(tmp_path, {
            "grid": {"x_min": 0.0, "x_max": 5.0, "num_points": 32},
            "dictionary": [{"kind": "monomial", "j": 3, "k": 0}],
            "coefficients": [1.0],
            "family": "pde1",
        })
        assert code == EXIT_BLOWUP
        assert "blow-up" in capsys.readouterr().err

    def test_too_stiff_reaction_is_usage_error(self, tmp_path, capsys):
        # du/dt = -1e7 u: its reaction bound 9.75e-8 needs 6.2e6 substeps for
        # 4 pairs over 2 trajectories at ts = 0.3, more than MAX_SUBSTEPS
        code = self.simulate_custom(tmp_path, {**self.DECAY, "coefficients": [-1e7]})
        assert code == EXIT_USAGE
        assert "more than 1000000" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("burn_in", ["0", "0.1"])
    def test_dirichlet_start_off_the_boundary_is_precondition_error(self, tmp_path, capsys,
                                                                    burn_in):
        # graphon starts 0.1 a cos(b pi (x + 1)) do not vanish at x = 0 and x = 1
        code = self.simulate_custom(tmp_path, {
            "grid": {"x_min": 0.0, "x_max": 1.0, "num_points": 16},
            "dictionary": [{"kind": "monomial", "j": 0, "k": 2}],
            "coefficients": [0.1],
            "family": "graphon",
            "boundary": "dirichlet",
        }, "--burn-in", burn_in)
        assert code == EXIT_PRECONDITION
        assert "vanishing at the boundaries" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_substep_at_floor_is_precondition_error(self, tmp_path, capsys):
        # u u_xxx on a grid 1e-3 long: the stable substep is 9.998e-16
        code = self.simulate_custom(tmp_path, {
            "grid": {"x_min": 0.0, "x_max": 1e-3, "num_points": 64},
            "dictionary": [{"kind": "monomial", "j": 1, "k": 3},
                           {"kind": "monomial", "j": 1, "k": 0}],
            "coefficients": [1.0, -1.0],
        })
        assert code == EXIT_PRECONDITION
        assert "1e-15" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("times, count", [
        (["--ts", "1e6"], 40000000), (["--ts", "0.5", "--burn-in", "1e6"], 40000020),
        # a count beyond 15 digits is printed in exponent form, not 302 digits
        (["--ts", "1e300"], "4e+301"),
    ], ids=["ts", "burn-in", "huge-ts"])
    def test_too_many_substeps_is_usage_error(self, tmp_path, capsys, monkeypatch, times, count):
        # 1e6 time units at the 2.5e-2 cap need 4e7 substeps: the run is
        # refused, naming the count, before its first step
        def no_step(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr(koopid.simulate._LawsonRK4, "step", no_step)
        code = main([
            "simulate", "--model", "graphon", "--pairs", "1", "--trajectories", "1",
            *times, "--seed", "1", "--grid", "8", "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"would take {count} substeps" in err
        assert f"more than {koopid.simulate.MAX_SUBSTEPS}" in err
        assert not (tmp_path / "x.json").exists()


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

    def test_basis_file_holding_a_large_object_is_named_briefly(self, tmp_path, graphon_data,
                                                               capsys):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps({"functionals": [{"kind": "point", "x": 0.5}] * 20000}))
        code = main(["spectrum", "--data", str(graphon_data), "--basis", f"file:{basis_path}",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        # the rejected value is abbreviated, not printed whole (580 kB here)
        assert err.startswith("error: basis must be a JSON list, got {'functionals': [")
        assert err.endswith(", ...]}\n") and len(err) < 300

    def test_weight_flag_holding_text_is_usage_error(self, tmp_path, graphon_data, capsys):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([{
            "kind": "lifted", "term": {"kind": "monomial", "j": 1, "k": 0},
            "weight": {"kind": "bump", "L": 1.0, "recentered": "false"},
        }]))
        code = main(["spectrum", "--data", str(graphon_data), "--basis", f"file:{basis_path}",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: recentered must be a boolean, got 'false'\n"

    def test_bad_basis_spec(self, tmp_path, graphon_data):
        code = main(["spectrum", "--data", str(graphon_data), "--basis", "what",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE

    def test_negative_basis_seed_is_named(self, tmp_path, graphon_data, capsys):
        code = main(["spectrum", "--data", str(graphon_data), "--basis", "burgers:-1",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        assert "basis seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_point_functional_off_the_domain_is_named(self, tmp_path, graphon_data, capsys):
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([{"kind": "point", "x": 0.5},
                                          {"kind": "point", "x": 2.0}]))
        code = main(["spectrum", "--data", str(graphon_data), "--basis", f"file:{basis_path}",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: functional 1 failed: evaluation point 2.0 outside domain [0.0, 1.0]\n"
        )
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("spec", ["burgers:1.5", "burgers:"])
    def test_non_integer_basis_seed_names_the_flag(self, tmp_path, graphon_data, capsys, spec):
        code = main(["spectrum", "--data", str(graphon_data), "--basis", spec,
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--basis {spec!r} is not of the form burgers:SEED" in err


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

    @pytest.mark.parametrize("record, value", [
        ({"kind": "monomial", "j": 1.5, "k": 0}, "1.5"),
        ({"kind": "monomial", "j": True, "k": "2"}, "True"),
    ], ids=["fractional-j", "bool-j-text-k"])
    def test_term_field_not_a_json_integer_is_usage_error(self, tmp_path, graphon_data, capsys,
                                                           record, value):
        code = self._identify(tmp_path, graphon_data, [record])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: monomial power j must be in 0..64, got {value}\n"

    def test_dataset_flag_holding_text_is_usage_error(self, tmp_path, graphon_data, capsys):
        doc = json.loads(graphon_data.read_text())
        doc["dirichlet"] = "no"
        graphon_data.write_text(json.dumps(doc))
        code = self._identify(tmp_path, graphon_data, GRAPHON_DICT)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: dirichlet must be a boolean, got 'no'\n"

    def test_constant_listed_under_both_spellings_is_usage_error(self, tmp_path, graphon_data,
                                                                 capsys):
        # {"kind": "constant"} reads as u^0, so the dictionary repeats a term
        dictionary = [{"kind": "constant"}, {"kind": "monomial", "j": 1, "k": 0},
                      {"kind": "monomial", "j": 0, "k": 0}]
        code = self._identify(tmp_path, graphon_data, dictionary)
        assert code == EXIT_USAGE
        assert "pairwise distinct" in capsys.readouterr().err

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

    def _read_fails(self, tmp_path, data, capsys, message):
        """``identify`` and ``spectrum`` on ``data`` exit 64 with ``message``."""
        assert self._identify(tmp_path, data, GRAPHON_DICT) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        code = main(["spectrum", "--data", str(data), "--basis", "burgers:1",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("bad", ["ragged", "text", "numeric-text", "bool", "one-true"])
    def test_dataset_snapshot_not_numbers_is_usage_error(self, tmp_path, graphon_data, capsys,
                                                         bad):
        # numeric text and true were read as numbers before the array rule.
        # The bool case makes every u row true, a bool array; numpy reads the
        # one-true case's list as floats, and the entry is refused by its
        # Python type
        doc = json.loads(graphon_data.read_text())
        u = doc["pairs"][3]["u"]
        if bad == "bool":
            for pair in doc["pairs"]:
                pair["u"] = [True] * len(u)
        else:
            doc["pairs"][3]["u"] = {"ragged": u[:-1], "text": ["x"] * len(u),
                                    "numeric-text": [str(v) for v in u],
                                    "one-true": u[:5] + [True] + u[6:]}[bad]
        graphon_data.write_text(json.dumps(doc))
        message = {"ragged": "values must be a rectangular array of numbers",
                   "bool": "values must hold numbers, got dtype bool",
                   "one-true": "values must hold numbers, got True at index [3, 5]"}
        self._read_fails(tmp_path, graphon_data, capsys,
                         message.get(bad, "values must hold numbers, got dtype <U32"))

    def test_false_at_a_dirichlet_boundary_is_usage_error(self, tmp_path, capsys):
        # false reads as 0.0, which the Dirichlet boundary check would accept
        data = tmp_path / "p.json"
        assert main([
            "simulate", "--model", "pde1", "--pairs", "4", "--trajectories", "2",
            "--ts", "0.1", "--seed", "1", "--grid", "32", "--out", str(data),
        ]) == EXIT_OK
        doc = json.loads(data.read_text())
        assert doc["dirichlet"] and doc["pairs"][1]["u_next"][0] == 0.0
        doc["pairs"][1]["u_next"][0] = False
        data.write_text(json.dumps(doc))
        capsys.readouterr()
        self._read_fails(tmp_path, data, capsys,
                         "values must hold numbers, got False at index [1, 0]")

    def test_dataset_without_pairs_is_usage_error(self, tmp_path, graphon_data, capsys):
        doc = json.loads(graphon_data.read_text())
        doc["pairs"] = []
        graphon_data.write_text(json.dumps(doc))
        self._read_fails(tmp_path, graphon_data, capsys,
                         "values must be 2-D with at least one row and column, got shape (0,)")

    def test_overflowing_data_is_usage_error_without_numpy_warnings(self, tmp_path, graphon_data,
                                                                     capsys):
        # finite snapshots of size 1e150 overflow the cubic functionals
        doc = json.loads(graphon_data.read_text())
        for pair in doc["pairs"]:
            pair["u"] = [1e150 * v for v in pair["u"]]
            pair["u_next"] = [1e150 * v for v in pair["u_next"]]
        graphon_data.write_text(json.dumps(doc))
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps([
            {"kind": "lifted", "term": t, "weight": {"kind": "power", "p": 2}}
            for t in GRAPHON_DICT[:4]
        ]))
        (tmp_path / "dict.json").write_text(json.dumps(GRAPHON_DICT))
        for argv in (
            ["identify", "--data", str(graphon_data), "--dict", str(tmp_path / "dict.json"),
             "--weight", "power:2", "--method", "lifting", "--out", str(tmp_path / "id.csv")],
            ["spectrum", "--data", str(graphon_data), "--basis", f"file:{basis_path}",
             "--out", str(tmp_path / "s.csv")],
        ):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == EXIT_USAGE
            assert "functional 3 is not finite" in err
            assert "RuntimeWarning" not in err
        assert not (tmp_path / "id.csv").exists() and not (tmp_path / "s.csv").exists()

    def test_tiny_sampling_time_is_usage_error(self, tmp_path, graphon_data, capsys):
        # finite but tiny: logm(U) / ts would give inf and nan estimates
        doc = json.loads(graphon_data.read_text())
        doc["sampling_time"] = 1e-310
        graphon_data.write_text(json.dumps(doc))
        code = self._identify(tmp_path, graphon_data, GRAPHON_DICT)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "sampling time" in err and "RuntimeWarning" not in err
        assert not (tmp_path / "id.csv").exists()

    @pytest.mark.parametrize("method", ["lifting", "direct"])
    def test_fewer_pairs_than_terms_is_insufficient_data(self, tmp_path, capsys, method):
        data = tmp_path / "p.json"
        assert main([
            "simulate", "--model", "pde1", "--pairs", "8", "--trajectories", "4",
            "--ts", "0.1", "--seed", "1", "--out", str(data),
        ]) == EXIT_OK
        dict_path = tmp_path / "dict.json"
        dict_path.write_text(json.dumps(PDE1_DICT))
        capsys.readouterr()
        code = main([
            "identify", "--data", str(data), "--dict", str(dict_path),
            "--weight", "bump:5:recentered", "--method", method,
            "--out", str(tmp_path / "id.csv"),
        ])
        assert code == EXIT_INSUFFICIENT
        assert capsys.readouterr().err == "insufficient data: m < n (8 < 12)\n"
        assert not (tmp_path / "id.csv").exists()

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

    @pytest.mark.parametrize("ts_list", ["0.3,inf", "inf,0.3,0.15", "0.3,nan,0.15"])
    def test_non_finite_sampling_time_is_usage_error(self, tmp_path, ts_list):
        code = main([
            "sweep-ts", "--model", "graphon", "--weight", "power:2",
            "--ts-list", ts_list, "--seed", "1", "--pairs", "2", "--trajectories", "1",
            "--grid", "16", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE

    def test_non_numeric_sampling_time_names_the_flag(self, tmp_path, capsys):
        code = main([
            "sweep-ts", "--model", "graphon", "--weight", "power:2",
            "--ts-list", "0.3,abc,0.1", "--seed", "1", "--pairs", "2", "--trajectories", "1",
            "--grid", "16", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--ts-list '0.3,abc,0.1' is not a comma-separated list of numbers" in err

    def test_negative_seed_is_named(self, tmp_path, capsys):
        code = main([
            "sweep-ts", "--model", "graphon", "--weight", "power:2",
            "--ts-list", "0.5,0.25,0.1", "--seed", "-1", "--pairs", "2", "--trajectories", "1",
            "--grid", "16", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--pairs", "--trajectories"])
    def test_zero_count_is_usage_error(self, tmp_path, capsys, flag):
        # an explicit 0 is rejected, not replaced by the model's default
        code = main([
            "sweep-ts", "--model", "pde1", "--weight", "bump:5",
            "--ts-list", "0.3,0.15,0.075", "--seed", "1", "--grid", "16",
            flag, "0", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE
        name = {"--pairs": "total_pairs", "--trajectories": "num_trajectories"}[flag]
        assert capsys.readouterr().err == f"error: {name} must be an integer >= 1, got 0\n"
        assert not (tmp_path / "x.csv").exists()

    def test_too_few_sampling_times(self, tmp_path):
        code = main([
            "sweep-ts", "--model", "graphon", "--weight", "power:2",
            "--ts-list", "0.5,0.25", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE

    def test_increasing_sampling_times_are_usage_error(self, tmp_path, capsys):
        code = main([
            "sweep-ts", "--model", "graphon", "--weight", "power:2",
            "--ts-list", "0.1,0.2,0.3", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE
        assert "sampling times must be strictly decreasing" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def reading(kind, path, graphon_data, tmp_path):
    """A command line whose one input of ``kind`` (dataset, dictionary, truth,
    basis or model) is the file at ``path``; the others are valid, and the
    output goes to ``out.csv`` in ``tmp_path``."""
    good_dict = tmp_path / "dict.json"
    good_dict.write_text(json.dumps(GRAPHON_DICT))
    out = str(tmp_path / "out.csv")
    identify = ["identify", "--data", str(graphon_data), "--dict", str(good_dict),
                "--weight", "power:2", "--method", "lifting", "--out", out]
    return {
        "dataset": identify[:2] + [str(path)] + identify[3:],
        "dictionary": identify[:4] + [str(path)] + identify[5:],
        "truth": identify + ["--truth", str(path)],
        "basis": ["spectrum", "--data", str(graphon_data), "--basis", f"file:{path}",
                  "--out", out],
        "model": ["simulate", "--model", f"custom:{path}", "--pairs", "2",
                  "--trajectories", "1", "--ts", "0.1", "--seed", "1", "--out", out],
    }[kind]


@pytest.mark.parametrize("kind, content", [
    ("dataset", b"{bad"), ("dictionary", b"{bad"), ("truth", b"{bad"), ("basis", b"{bad"),
    ("model", b"{bad"), ("dataset", b'{"grid": \xff}'),
], ids=["dataset", "dictionary", "truth", "basis", "model", "dataset-undecodable"])
def test_malformed_json_file_is_named(tmp_path, graphon_data, capsys, kind, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(reading(kind, bad, graphon_data, tmp_path)) == EXIT_USAGE
    assert f"error: {kind} is not valid JSON: " in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["dataset", "dictionary", "truth", "basis", "model"])
def test_deeply_nested_file_is_usage_error_without_traceback(tmp_path, graphon_data, kind):
    # a valid document 150,000 levels deep: json.loads raised RecursionError
    # on it and orjson overflows the C stack, so the reader runs in a fresh
    # interpreter that a regression kills instead of pytest
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 150_000 + "]" * 150_000)
    out = str(tmp_path / "out.csv")
    argv = reading(kind, deep, graphon_data, tmp_path)
    proc = subprocess.run([sys.executable, "-m", "koopid.cli", *argv], cwd=tmp_path,
                          env=fresh_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr == (
        f"error: {kind} nests lists and objects deeper than {koopid.fileio.MAX_NESTING}\n"
    )
    assert not os.path.exists(out)


#: a valid document of each input file kind; "dataset" is the graphon_data file
VALID_FILES = {
    "dictionary": [{"kind": "monomial", "j": 1, "k": 0},
                   {"kind": "graphon", "f": {"c0": 1.0, "cx": 0.0, "cy": 0.0}}],
    "basis": [
        {"kind": "lifted", "term": {"kind": "monomial", "j": 1, "k": 0},
         "weight": {"kind": "bump", "L": 1.0, "recentered": False}},
        {"kind": "lifted", "term": {"kind": "monomial", "j": 1, "k": 0},
         "weight": {"kind": "power", "p": 2}},
        {"kind": "cosine", "a": 1.0, "b": 0.0, "k": 1, "l": 1},
        {"kind": "point", "x": 0.5},
    ],
    "model": {"grid": {"x_min": 0.0, "x_max": 1.0, "num_points": 16},
              "dictionary": [{"kind": "monomial", "j": 1, "k": 0}], "coefficients": [-1.0]},
    "truth": [0.0] * len(GRAPHON_DICT),
}

#: each number and flag field a reader takes: the file kind, the keys that
#: lead to the field in its VALID_FILES document, and the name that the
#: constructor's message gives
READ_FIELDS = {
    "term-j": ("dictionary", (0, "j"), "monomial power j"),
    "term-k": ("dictionary", (0, "k"), "derivative order k"),
    **{f"graphon-{c}": ("dictionary", (1, "f", c), f"kernel coefficient {c}")
       for c in ("c0", "cx", "cy")},
    "bump-L": ("basis", (0, "weight", "L"), "bump radius L"),
    "bump-recentered": ("basis", (0, "weight", "recentered"), "recentered"),
    "power-p": ("basis", (1, "weight", "p"), "power-law exponent"),
    "cosine-a": ("basis", (2, "a"), "cosine coefficient a"),
    "cosine-b": ("basis", (2, "b"), "cosine coefficient b"),
    "cosine-k": ("basis", (2, "k"), "state_power"),
    "cosine-l": ("basis", (2, "l"), "outer_power"),
    "point-x": ("basis", (3, "x"), "evaluation point x_j"),
    **{f"{kind}-{key}": (kind, ("grid", key), name) for kind in ("dataset", "model")
       for key, name in (("x_min", "grid endpoint x_min"), ("x_max", "grid endpoint x_max"),
                         ("num_points", "num_points"))},
    "dataset-sampling_time": ("dataset", ("sampling_time",), "sampling time"),
    "dataset-dirichlet": ("dataset", ("dirichlet",), "dirichlet"),
    "model-coefficient": ("model", ("coefficients", 0), "coefficient 0"),
    "truth-entry": ("truth", (0,), "truth coefficient 0"),
}

READERS = {
    "dataset": koopid.fileio.read_dataset, "dictionary": koopid.fileio.read_dictionary,
    "basis": koopid.fileio.read_basis, "model": koopid.fileio.read_model,
    "truth": lambda path: koopid.fileio.read_truth(path, len(GRAPHON_DICT)),
}


@pytest.mark.parametrize("field", list(READ_FIELDS))
def test_every_number_and_flag_a_reader_takes_is_refused_by_its_rule(tmp_path, graphon_data,
                                                                      capsys, field):
    # the readers pass each value as read to the constructor, whose rule
    # (require_int, require_real, require_bool) refuses it with its message
    kind, keys, name = READ_FIELDS[field]
    doc = json.loads(graphon_data.read_text()) if kind == "dataset" else VALID_FILES[kind]
    flag = name in ("dirichlet", "recentered")
    for value in ("false", None, [True], 1) if flag else ("2", None, [1], True):
        bad = copy.deepcopy(doc)
        parent = functools.reduce(lambda node, key: node[key], keys[:-1], bad)
        parent[keys[-1]] = value
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(koopid.InvalidInputError) as exc:
            READERS[kind](str(path))
        message = str(exc.value)
        assert message.startswith(f"{name} must be ") and message.endswith(f", got {value!r}")
        assert main(reading(kind, path, graphon_data, tmp_path)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("extra, message", [
    (1, "nests lists and objects deeper than"), (0, "term record must be a JSON object"),
], ids=["too-deep", "at-the-limit"])
def test_dictionary_nesting_limit(tmp_path, graphon_data, capsys, extra, message):
    # nesting up to MAX_NESTING reaches the record checks; one level more is refused
    depth = koopid.fileio.MAX_NESTING + extra
    path = tmp_path / "dict.json"
    path.write_text("[" * depth + "]" * depth)
    code = main(["identify", "--data", str(graphon_data), "--dict", str(path),
                 "--weight", "power:2", "--method", "lifting", "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["dictionary", "basis", "model"])
def test_huge_power_is_usage_error(tmp_path, graphon_data, capsys, kind):
    # a power of 10^8 would take 10^8 multiplications per element (and a
    # right-hand-side polynomial of 10^8 + 1 coefficients) before failing
    huge = {"kind": "monomial", "j": 100000000, "k": 0}
    path, out = tmp_path / f"{kind}.json", str(tmp_path / "out")
    argv = {
        "dictionary": ["identify", "--data", str(graphon_data), "--dict", str(path),
                       "--weight", "power:2", "--method", "lifting", "--out", out],
        "basis": ["spectrum", "--data", str(graphon_data), "--basis", f"file:{path}",
                  "--out", out],
        "model": ["simulate", "--model", f"custom:{path}", "--pairs", "2", "--trajectories",
                  "1", "--ts", "0.1", "--seed", "1", "--out", out],
    }[kind]
    path.write_text(json.dumps({
        "dictionary": [{"kind": "monomial", "j": 1, "k": 0}, huge],
        "basis": [{"kind": "cosine", "a": 1, "b": 0, "k": 100000000, "l": 1}],
        "model": {"grid": {"x_min": 0.0, "x_max": 1.0, "num_points": 32},
                  "dictionary": [huge], "coefficients": [-1.0]},
    }[kind]))
    start = time.perf_counter()
    assert main(argv) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert "must be in " in capsys.readouterr().err


def test_out_of_memory_is_usage_error(tmp_path, monkeypatch, capsys):
    # a grid of 10^12 nodes makes np.linspace raise MemoryError; the grid
    # here is small and its nodes raise instead, so nothing large is allocated
    def no_memory(self):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000000,) and data type float64")

    monkeypatch.setattr(koopid.Grid1D, "nodes", no_memory)
    code = main([
        "simulate", "--model", "graphon", "--pairs", "2", "--trajectories", "1",
        "--ts", "0.5", "--seed", "1", "--grid", "16", "--out", str(tmp_path / "x.json"),
    ])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array with shape " \
                  "(1000000000000,) and data type float64\n"


def test_consecutive_calls_share_no_state(tmp_path, graphon_data, capsys):
    # the parser is built once per process: a usage error leaves nothing
    # behind for the next call, and a --truth of one call is not read by the next
    dict_path = tmp_path / "dict.json"
    dict_path.write_text(json.dumps(GRAPHON_DICT))
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(json.dumps(list(koopid.graphon_model().dictionary.coefficients)))
    identify = ["identify", "--data", str(graphon_data), "--dict", str(dict_path),
                "--weight", "power:2", "--method", "lifting", "--out", str(tmp_path / "id.csv")]
    assert main(identify[:-2]) == EXIT_USAGE
    assert "--out" in capsys.readouterr().err
    assert main(identify + ["--truth", str(truth_path)]) == EXIT_OK
    assert "max abs error" in capsys.readouterr().out
    assert main(identify) == EXIT_OK
    out = capsys.readouterr().out
    assert "coefficient estimates (lifting)" in out and "max abs error" not in out
    assert koopid.cli.build_parser() is koopid.cli.build_parser()


# Runs each argv list of the JSON in sys.argv[1] through koopid.cli.main and
# exits with a message at the first step that fails or leaves loaded a module
# named in the comma-separated list in sys.argv[2], or one of its submodules.
_NO_SCIPY_CHILD = """
import json, sys

steps, banned = json.loads(sys.argv[1]), sys.argv[2].split(",")

def check(step):
    found = sorted(m for m in sys.modules for b in banned if m == b or m.startswith(b + "."))
    if found:
        sys.exit(f"{step} loaded {', '.join(found[:5])}")

import koopid
check("import koopid")
import koopid.cli
check("import koopid.cli")
for argv in steps:
    code = koopid.cli.main(argv)
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited {code}")
    check(" ".join(argv))
"""


class TestStartup:
    """Importing koopid, and every command but a pde1 or custom-model
    simulation, load no scipy module; a pde1 simulation loads scipy.linalg
    for the expm of its linear flow, and no scipy.sparse.  Importing scipy
    costs more than a whole graphon identification.  This process has scipy
    loaded already, so each check runs in a fresh interpreter."""

    def run_fresh(self, steps, cwd, banned="scipy"):
        proc = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_CHILD, json.dumps(steps), banned], cwd=cwd,
            env=fresh_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_no_scipy(self, tmp_path):
        # nor orjson, which only dataset files and input files need: a
        # graphon sweep reads no file and writes only a CSV
        self.run_fresh([
            ["sweep-ts", "--model", "graphon", "--weight", "power:2", "--grid", "16",
             "--pairs", "30", "--trajectories", "3", "--ts-list", "0.5,0.25,0.125",
             "--seed", "1", "--out", str(tmp_path / "sweep.csv")],
        ], tmp_path, banned="scipy,orjson")

    def test_graphon_commands_and_burgers_spectrum_load_no_scipy(self, tmp_path):
        data, dict_path = str(tmp_path / "g.json"), tmp_path / "dict.json"
        dict_path.write_text(json.dumps(GRAPHON_DICT))
        self.run_fresh([
            # 30 pairs, enough for the 27 functionals of burgers:1
            ["simulate", "--model", "graphon", "--pairs", "30", "--trajectories", "3",
             "--ts", "0.5", "--seed", "1", "--grid", "16", "--out", data],
            *(["identify", "--data", data, "--dict", str(dict_path), "--weight", "power:2",
               "--method", method, "--out", str(tmp_path / f"{method}.csv")]
              for method in ("lifting", "direct")),
            ["spectrum", "--data", data, "--basis", "burgers:1",
             "--out", str(tmp_path / "s.csv")],
        ], tmp_path)

    def test_burgers_simulate_and_spectrum_load_no_scipy(self, tmp_path):
        # the Burgers diffusion flow is built in closed form, not by expm, and
        # its advection term takes its derivative through numpy stencils
        data = str(tmp_path / "b.json")
        self.run_fresh([
            ["simulate", "--model", "burgers", "--pairs", "28", "--trajectories", "7",
             "--ts", "0.2", "--seed", "1", "--grid", "64", "--out", data],
            ["spectrum", "--data", data, "--basis", "burgers:1",
             "--out", str(tmp_path / "s.csv")],
        ], tmp_path)

    def test_pde1_simulate_loads_no_scipy_sparse_and_identify_no_scipy(self, tmp_path):
        # the lifting basis takes third derivatives, whose boundary rows are
        # the widest blocks of the stencils
        data, dict_path = str(tmp_path / "p.json"), tmp_path / "dict.json"
        dict_path.write_text(json.dumps(PDE1_DICT))
        self.run_fresh([
            ["simulate", "--model", "pde1", "--pairs", "24", "--trajectories", "12",
             "--ts", "0.3", "--seed", "1", "--grid", "32", "--out", data],
        ], tmp_path, banned="scipy.sparse")
        self.run_fresh([
            ["identify", "--data", data, "--dict", str(dict_path),
             "--weight", "bump:5:recentered", "--method", "lifting",
             "--out", str(tmp_path / "id.csv")],
        ], tmp_path)
