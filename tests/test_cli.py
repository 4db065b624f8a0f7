import csv
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twistorgh import classifier as cl, cli, curvature as cur, selftest

from random_fourdim import negate_sign_table

ROOT = Path(__file__).resolve().parents[1]

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_flat_detects_hermitian_semi_kaehler(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                               "--n", "1", "--t1", "1", "--t2", "1")
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["detected"] == "W3"
        assert doc["config"]["source"] == "model:flat"

    def test_negative_constant_curvature_example(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "constant_curvature",
                               "--s", "-12", "--component", "+-", "--n", "4",
                               "--t1", "0.5")
        assert code == cli.EXIT_OK
        assert json.loads(out)["detected"] == "W2W3"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                               "--n", "1", "--format", "csv")
        assert code == cli.EXIT_OK
        header, row, _tail = out.split("\n")
        assert header.startswith("detected,")
        assert row.startswith("W3,")

    def test_csv_quotes_a_source_with_commas(self, capsys, tmp_path):
        path = tmp_path / "a,b.json"
        path.write_text(json.dumps({"matrix": np.eye(6).tolist()}))
        code, out, _ = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                               "--n", "1", "--format", "csv")
        assert code == cli.EXIT_OK
        header, row = csv.reader(io.StringIO(out))
        assert len(row) == len(header)
        assert row[header.index("source")] == f"file:{path}"

    def test_input_file_with_blocks(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        wm = cur.random_traceless_symmetric(np.random.default_rng(0))
        doc = {"blocks": {"s": 5.2, "Wminus": wm.tolist()}}
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "classify", "--input", str(path), "--component", "+-",
                               "--n", "1", "--t1", "0.8")
        assert code == cli.EXIT_OK
        assert json.loads(out)["detected"] == "W3"

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                               "--n", "1")
        assert code == cli.EXIT_INPUT
        assert "malformed JSON" in err

    @pytest.mark.parametrize("text", [
        '{"matrix": ' + "[" * 100_000,  # past the decoder's recursion limit
        '{"matrix": [[1' + "0" * 5000 + "]]}",  # past Python's 4300-digit limit
    ], ids=["deep-nesting", "long-integer"])
    def test_undecodable_json_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                                 "--n", "1")
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_directory_input_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "classify", "--input", str(tmp_path),
                                 "--component", "++", "--n", "1")
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_non_utf8_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"matrix": "é"}'.encode("latin-1"))
        code, out, err = run_cli(capsys, "classify", "--input", str(path),
                                 "--component", "++", "--n", "1")
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_bad_field_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[1.0] * 5] * 5}))
        code, _, err = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                               "--n", "1")
        assert code == cli.EXIT_INPUT
        assert "'matrix'" in err

    def test_unknown_top_level_field_exits_2(self, capsys, tmp_path):
        # valid blocks beside a misspelt "matrix" would otherwise classify silently
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"blocks": {"s": 12.0}, "matirx": np.zeros((6, 6)).tolist()}))
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--component=+-",
                                 "--n", "3", "--t1", "0.25")
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "'matirx'" in err

    @pytest.mark.parametrize("doc", [
        {"blocks": {"s": True}},
        {"matrix": [["1"] + ["0"] * 5] + np.eye(6)[1:].tolist()},
        {"matrix": [[True, 1.0, 0, 0, 0, 0], [1.0] + [0] * 5] + np.eye(6)[2:].tolist()},
        {"blocks": {"s": 12.0, "Wminus": [[False, 0, 0], [0, 0, 0], [0, 0, 0]]}},
    ])
    def test_boolean_or_string_entry_exits_2(self, capsys, tmp_path, doc):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                                 "--n", "1")
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "number" in err

    def test_asymmetric_matrix_exits_3(self, capsys, tmp_path):
        mat = np.eye(6).tolist()
        mat[0][1] = 0.25
        path = tmp_path / "asym.json"
        path.write_text(json.dumps({"matrix": mat}))
        code, _, err = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                               "--n", "1")
        assert code == cli.EXIT_VALIDATION
        assert "not symmetric" in err

    def test_roundoff_asymmetry_of_large_entries_classifies(self, capsys, tmp_path):
        # entries near 1e5 with an asymmetry of 1.5e-11, a few ulp: the symmetry
        # bound is relative to max(1, max|R|)
        mat = 1e5 * cur.random_strict_operator(np.random.default_rng(12))
        mat[0, 4] += 1.5e-11
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"matrix": mat.tolist()}))
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                                 "--n", "1")
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["flags"]["strict"]

    def test_written_asymmetry_of_large_entries_classifies(self, capsys, tmp_path):
        # 5e-8 is within 1e-12 max|R| of this operator; write_json's W+ block
        # carries it and the reader measures it against the operator too
        mat = cur.model("constant_curvature", s=12e5)
        mat[0, 1] += 5e-8
        path = tmp_path / "written.json"
        cur.write_json(mat, path)
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--component=+-",
                                 "--n", "3")
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["detected"]

    def test_non_finite_matrix_exits_3(self, capsys, tmp_path):
        mat = np.eye(6)
        mat[1, 1] = np.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"matrix": mat.tolist()}))
        code, _, err = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                               "--n", "1")
        assert code == cli.EXIT_VALIDATION
        assert "non-finite" in err

    @pytest.mark.parametrize("blocks, message", [
        ({"s": float("nan")}, "must be finite"),
        ({"s": 12.0, "Wplus": [[float("nan"), 0, 0], [0, 0, 0], [0, 0, 0]]}, "non-finite"),
        ({"s": 12.0, "Wplus": [[0, 0.25, 0], [0, 0, 0], [0, 0, 0]]},
         "is not symmetric: max|R - R^T| = 2.500e-01"),
    ])
    def test_invalid_blocks_exit_3_like_the_matrix_form(self, capsys, tmp_path, blocks, message):
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps({"blocks": blocks}))
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                                 "--n", "1")
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("blocks, message", [
        ({"s": 12.0, "strict": "maybe"}, "must be true or false"),
        ({"s": 12.0, "strict": 1}, "must be true or false"),
        ({"s": 12.0, "Wminus": np.eye(3).tolist(), "strict": True},
         "'blocks.strict' is true, but the operator's Weyl blocks give strict = false"),
        ({"s": 12.0, "strict": False},
         "'blocks.strict' is false, but the operator's Weyl blocks give strict = true"),
    ])
    def test_strict_flag_is_checked(self, capsys, tmp_path, blocks, message):
        path = tmp_path / "strict.json"
        path.write_text(json.dumps({"blocks": blocks}))
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                                 "--n", "1")
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert message in err

    def test_minus_minus_component(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "flat", "--component=--",
                               "--n", "1")
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["component"] == "--"
        expected = cl.classify(cur.model("flat"), "--", (1.0, 1.0), 1, cl.SamplingConfig())
        assert doc["detected"] == expected.detected == "W3"

    def test_matrix_model_requires_input_file(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--model", "asd_general",
                               "--component", "++", "--n", "1")
        assert code == cli.EXIT_INPUT
        assert "--input" in err

    def test_scalar_flag_validation(self, capsys):
        # curvature.model decides the parameter set, and a wrong one is a schema error
        code, _, err = run_cli(capsys, "classify", "--model", "constant_curvature",
                               "--component", "++", "--n", "1")
        assert code == cli.EXIT_INPUT
        assert "model 'constant_curvature' requires s, got none" in err
        code, _, err = run_cli(capsys, "classify", "--model", "flat", "--s", "3",
                               "--component", "++", "--n", "1")
        assert code == cli.EXIT_INPUT
        assert "model 'flat' requires no parameters, got s" in err

    def test_a_bad_scalar_for_a_model_exits_3(self, capsys):
        # the value is invalid, the parameter set is right: curvature.model's
        # CurvatureError, not its SchemaError
        code, out, err = run_cli(capsys, "classify", "--model", "w2_witness", "--s", "5",
                                 "--component=+-", "--n", "3")
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert "w2_witness requires s < 0, got s = 5.0" in err

    def test_scalar_flag_with_input_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"matrix": np.eye(6).tolist()}))
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--s", "5",
                                 "--component", "++", "--n", "1")
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "--s" in err

    def test_unknown_model(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--model", "bogus",
                               "--component", "++", "--n", "1")
        assert code == cli.EXIT_INPUT
        assert "unknown model" in err

    def test_invalid_t1_is_a_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                               "--n", "1", "--t1", "-2")
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [
        ["--model", "flat", "--component", "++", "--n", "1", "--t1", "inf"],
        # finite inputs whose residuals overflow to NaN
        ["--model", "constant_curvature", "--s", "1e300", "--t1", "1e300",
         "--component", "+-", "--n", "3"],
    ])
    def test_non_finite_inputs_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, "classify", *argv)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", ["constant_curvature", "kaehler_witness", "w1_witness",
                                       "w2_witness"])
    @pytest.mark.parametrize("s", ["inf", "-inf", "nan"])
    def test_non_finite_scalar_exits_3_without_a_warning(self, capsys, model, s):
        code, out, err = run_cli(capsys, "classify", "--model", model, f"--s={s}",
                                 "--component=+-", "--n", "1")
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "scalar part s must be finite" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("doc", [
        {"matrix": np.diag([1e308] * 6).tolist()},  # the trace overflows
        # trace(W+) overflows, s does not
        {"matrix": np.diag([0.89e308, 0.89e308, -1.7e308, -0.83e308, 0.0, 0.0]).tolist()},
        # finite blocks whose sum (s/12) Id + W+ overflows
        {"blocks": {"s": 1.7e308, "Wplus": np.diag([1.7e308, -0.85e308, -0.85e308]).tolist()}},
    ])
    def test_overflowing_operator_exits_3_without_a_warning(self, capsys, tmp_path, doc):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--component=+-",
                                 "--n", "3")
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("doc, code, message", [
        # B's part of R - R^T is zero by construction, so no difference overflows;
        # the classifier's residuals do
        ({"blocks": {"B": [[0, 1.5e308, 0], [-1.5e308, 0, 0], [0, 0, 0]]}},
         cli.EXIT_VALIDATION, "non-finite residuals"),
        ({"matrix": [[1, 1e308, 0, 0, 0, 0], [-1e308, 1, 0, 0, 0, 0]] + np.eye(6)[2:].tolist()},
         cli.EXIT_VALIDATION, "not symmetric: max|R - R^T| = inf"),
        ({"matrix": (1e308 * np.eye(6)).tolist(),
          "blocks": {"Wplus": (-1e308 * np.eye(3)).tolist()}},
         cli.EXIT_INPUT, "describe different operators"),
    ], ids=["asymmetric-B", "asymmetric-matrix", "matrix-blocks-gap"])
    def test_differences_that_overflow_exit_without_a_warning(self, capsys, tmp_path, doc, code,
                                                              message):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        got, out, err = run_cli(capsys, "classify", "--input", str(path), "--component=+-",
                                "--n", "3")
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("doc, field", [
        ({"matrix": [[1, 2], [3]]}, "'matrix' must be a 6x6 matrix"),
        ({"blocks": {"s": [12]}}, "'blocks.s' must be a number"),
        ({"blocks": {"s": 12, "Wminus": {"row": [0, 0, 0]}}}, "'blocks.Wminus' must be a 3x3"),
        ([], "curvature document must be a JSON object"),
        ({"blocks": [1]}, "field 'blocks' must be a JSON object"),
    ], ids=["ragged-matrix", "nested-s", "block-object", "array-document", "array-blocks"])
    def test_malformed_fields_exit_2(self, capsys, tmp_path, doc, field):
        # the reader checks the nesting itself: numpy 1.24 and 2.x build arrays
        # from ragged lists differently
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                                 "--n", "1")
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert field in err and err.count("\n") == 1

    def test_output_to_missing_directory_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                                 "--n", "1", "--output", str(out_path))
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "cannot write" in err

    def test_report_schema(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                               "--n", "1")
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["schema"] == "gh-class-report/2"
        assert set(doc) == {"schema", "config", "residuals", "detected", "flags"}
        code, out, _ = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                               "--n", "1", "--format", "csv")
        header = out.split("\n")[0].split(",")
        assert "nijenhuis_reading" not in header
        assert header[:12] == ["detected", "source", "component", "n", "t1", "t2", "seed",
                               "num_points", "num_arg_triples", "tol", "strict",
                               "possible_class_violation"]

    def test_runs_at_the_default_sample_with_the_given_seed(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                               "--n", "1", "--seed", "3")
        assert code == cli.EXIT_OK
        report = cl.classify(cur.model("flat"), "++", (1.0, 1.0), 1,
                             cl.SamplingConfig(3), source="model:flat")
        assert out == report.to_json()
        config = json.loads(out)["config"]
        assert (config["num_points"], config["num_arg_triples"]) == cl.SAMPLE

    def test_byte_identical_reports(self, tmp_path, capsys):
        args = ["classify", "--model", "constant_curvature", "--s", "12",
                "--component", "+-", "--n", "3", "--t1", "0.25", "--seed", "11"]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--output", str(f1)]) == cli.EXIT_OK
        assert cli.main(args + ["--output", str(f2)]) == cli.EXIT_OK
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()


class TestVerifyCommand:
    def test_all_statements_at_reduced_sampling(self, capsys):
        # the violations read the suite's own reduced sample of 16 points x 8 triples
        code, out, _ = run_cli(capsys, "verify", "--all", "--seed", "7")
        assert code == cli.EXIT_OK
        assert "passed 16/16" in out

    def test_all_runs_at_the_default_sample(self, capsys, tmp_path):
        report = tmp_path / "verify.json"
        code, _, _ = run_cli(capsys, "verify", "--all", "--seed", "2", "--output", str(report))
        assert code == cli.EXIT_OK
        assert report.read_text() == cl.verify_report_json(cl.verify_all(cl.SamplingConfig(2)))

    def test_single_statement(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, out, _ = run_cli(capsys, "verify", "--id", "4.6b", "--seed", "7",
                               "--output", str(out_path))
        assert code == cli.EXIT_OK
        assert "4.6b  PASS" in out
        doc = json.loads(out_path.read_text())
        assert doc["summary"]["failed"] == 0
        checks = doc["results"][0]["checks"]
        assert any(c["require"] == "<=" for c in checks)

    def test_output_to_missing_directory_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "verify.json"
        code, _, err = run_cli(capsys, "verify", "--id", "4.6b", "--seed", "7",
                               "--output", str(out_path))
        assert code == cli.EXIT_INPUT
        assert "cannot write" in err
        assert not out_path.exists()

    def test_missing_output_directory_fails_before_the_suite_runs(self, capsys, tmp_path,
                                                                  monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the suite ran although --output cannot be written")

        monkeypatch.setattr(cl, "verify_all", never)
        monkeypatch.setattr(cl, "classify", never)
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "verify", "--all", "--output", str(out_path))
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "cannot write" in err
        code, out, err = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                                 "--n", "1", "--output", str(out_path))
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "cannot write" in err
        code, out, err = run_cli(capsys, "verify", "--all", "--output", str(tmp_path))
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "is a directory" in err

    def test_failing_statement_exits_1_and_writes_its_report(self, capsys, tmp_path,
                                                            monkeypatch):
        bad = {"name": "injected-check", "value": 1.0, "require": "<=", "bound": cl.TOL,
               "ok": False}
        monkeypatch.setattr(cl, "verify_theorem", lambda tid, cfg: cl.TheoremResult(
            tid, cl.THEOREM_STATEMENTS[tid], False, [bad]))
        out_path = tmp_path / "verify.json"
        code, out, err = run_cli(capsys, "verify", "--id", "4.6b", "--output", str(out_path))
        assert code == cli.EXIT_FAILURE
        assert "    BAD injected-check" in out
        assert err == "failing ids: 4.6b\n"
        assert json.loads(out_path.read_text())["summary"]["failed_ids"] == ["4.6b"]

    def test_unknown_id_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--id", "bogus")
        assert code == cli.EXIT_INPUT
        assert "unknown statement id" in err


class TestSelftestCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "1")
        assert code == cli.EXIT_OK
        assert "nijenhuis-identity" in out
        assert "FAIL" not in out

    def test_runs_the_default_trials(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "2")
        assert code == cli.EXIT_OK
        assert out.splitlines() == [r.line() for r in selftest.run_selftest(seed=2)]

    def test_corrupted_sign_table_fails_naming_the_check(self, capsys, monkeypatch):
        negate_sign_table(monkeypatch)
        code, out, err = run_cli(capsys, "selftest", "--seed", "1")
        assert code == cli.EXIT_FAILURE
        assert "FAIL nijenhuis-identity" in out
        assert "nijenhuis-identity" in err

    def test_corrupt_sign_table_is_a_usage_error(self, capsys):
        # the sign table is corrupted only by tests, never from the command line
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", "--corrupt-sign-table"])
        assert exc.value.code == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --corrupt-sign-table" in captured.err


@pytest.mark.parametrize("argv", [["classify", "--model", "flat", "--component", "++", "--n", "1"],
                                  ["verify", "--id", "4.2a"],
                                  ["selftest"]])
def test_negative_seed_is_a_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert "seed must be a non-negative integer" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv, last_line", [
    (["classify", "--model", "flat", "--component", "++", "--n", "1"], []),
    (["verify", "--id", "4.2a"], ["passed 1/1"]),
])
def test_output_that_fails_at_write_time_exits_2(capsys, argv, last_line):
    # the directory exists, so only the write itself fails, with ENOSPC; classify
    # prints nothing, verify prints its results before it writes the report
    code, out, err = run_cli(capsys, *argv, "--output", "/dev/full")
    assert code == cli.EXIT_INPUT
    assert out.splitlines()[-1:] == last_line
    assert err.startswith("error: cannot write '/dev/full'") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # the class threshold is fixed: classifier.TOL
    ["verify", "--all", "--tol", "1e-3"],
    ["classify", "--model", "flat", "--component", "++", "--n", "1", "--tol", "1e-6"],
    # every command runs at its one validated sample size
    ["verify", "--all", "--samples", "8"],
    ["verify", "--all", "--triples", "8"],
    ["classify", "--model", "flat", "--component", "++", "--n", "1", "--samples", "8"],
    ["classify", "--model", "flat", "--component", "++", "--n", "1", "--triples", "8"],
    ["selftest", "--trials", "3"],
])
def test_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-2]}" in captured.err


def test_cached_parser_carries_nothing_between_calls(capsys, tmp_path):
    # one parser serves every call of the process, so no call may see the
    # options or the defaults of the call before it
    assert cli.build_parser() is cli.build_parser()
    flat = ["classify", "--model", "flat", "--component", "++", "--n", "1"]
    code, out, _ = run_cli(capsys, *flat, "--format", "csv", "--seed", "5")
    assert code == cli.EXIT_OK
    assert out.startswith("detected,")
    report = tmp_path / "verify.json"
    code, _, _ = run_cli(capsys, "verify", "--id", "4.2a", "--output", str(report))
    assert code == cli.EXIT_OK
    runs = {seed: cl.verify_report_json([cl.verify_theorem("4.2a", cl.SamplingConfig(seed))])
            for seed in (0, 5)}
    assert runs[0] != runs[5]
    assert report.read_text() == runs[0]
    code, out, _ = run_cli(capsys, *flat)
    assert code == cli.EXIT_OK
    assert json.loads(out)["config"]["seed"] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main([*flat, "--n", "7"])
    assert exc.value.code == cli.EXIT_INPUT
    assert "invalid choice" in capsys.readouterr().err
    assert run_cli(capsys, *flat)[:2] == (code, out)


class TestModelsCommand:
    def test_lists_models(self, capsys):
        code, out, _ = run_cli(capsys, "models")
        assert code == cli.EXIT_OK
        for name in cur.MODEL_SPECS:
            assert name in out


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "twistorgh", "models"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "constant_curvature" in proc.stdout


def readme_commands():
    """The argument lists of the ``twistorgh`` examples in README's "Command
    line" section, continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for line in section.replace("\\\n", " ").splitlines()
            if line.startswith("    twistorgh ")]


class TestDocumentedEntry:
    COMMANDS = readme_commands()

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_readme_example_parses(self, argv):
        assert cli.build_parser().parse_args(argv).command == argv[0]

    def test_readme_shows_every_command(self):
        assert {argv[0] for argv in self.COMMANDS} == {"classify", "verify", "selftest", "models"}

    def test_console_script_is_cli_main(self):
        # the script every README example runs, which nothing else here starts
        tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        assert project["scripts"] == {"twistorgh": "twistorgh.cli:main"}
        module, name = project["scripts"]["twistorgh"].split(":")
        assert getattr(importlib.import_module(module), name) is cli.main
