import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from twistorgh import classifier as cl, cli, curvature as cur

from random_fourdim import negate_sign_table

FAST = ["--samples", "12", "--triples", "6"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_flat_detects_hermitian_semi_kaehler(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                               "--n", "1", "--t1", "1", "--t2", "1", *FAST)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["detected"] == "W3"
        assert doc["config"]["source"] == "model:flat"

    def test_negative_constant_curvature_example(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "constant_curvature",
                               "--s", "-12", "--component", "+-", "--n", "4",
                               "--t1", "0.5", *FAST)
        assert code == cli.EXIT_OK
        assert json.loads(out)["detected"] == "W2W3"

    def test_impossible_tolerance_flags_the_class(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                               "--n", "1", "--tol", "1e-30", *FAST)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["detected"] == "W1W2W3"
        assert doc["flags"]["possible_class_violation"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                               "--n", "1", "--format", "csv", *FAST)
        assert code == cli.EXIT_OK
        header, row, _tail = out.split("\n")
        assert header.startswith("detected,")
        assert row.startswith("W3,")

    def test_csv_quotes_a_source_with_commas(self, capsys, tmp_path):
        path = tmp_path / "a,b.json"
        path.write_text(json.dumps({"matrix": np.eye(6).tolist()}))
        code, out, _ = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                               "--n", "1", "--format", "csv", *FAST)
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
                               "--n", "1", "--t1", "0.8", *FAST)
        assert code == cli.EXIT_OK
        assert json.loads(out)["detected"] == "W3"

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "classify", "--input", str(path), "--component", "++",
                               "--n", "1")
        assert code == cli.EXIT_INPUT
        assert "malformed JSON" in err

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
        ({"s": 12.0, "Wplus": [[0, 0.25, 0], [0, 0, 0], [0, 0, 0]]}, "must be symmetric"),
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
                               "--n", "1", *FAST)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["component"] == "--"
        cfg = cl.SamplingConfig(seed=0, num_points=12, num_arg_triples=6)
        expected = cl.classify(cur.model("flat"), "--", (1.0, 1.0), 1, cfg).detected
        assert doc["detected"] == expected == "W3"

    def test_matrix_model_requires_input_file(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--model", "asd_general",
                               "--component", "++", "--n", "1")
        assert code == cli.EXIT_INPUT
        assert "--input" in err

    def test_scalar_flag_validation(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--model", "constant_curvature",
                               "--component", "++", "--n", "1")
        assert code == cli.EXIT_INPUT
        assert "--s" in err
        code, _, err = run_cli(capsys, "classify", "--model", "flat", "--s", "3",
                               "--component", "++", "--n", "1")
        assert code == cli.EXIT_INPUT

    def test_scalar_flag_with_input_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"matrix": np.eye(6).tolist()}))
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--s", "5",
                                 "--component", "++", "--n", "1", *FAST)
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
        ["--model", "flat", "--component", "++", "--n", "1", "--tol", "inf"],
        # finite inputs whose residuals overflow to NaN
        ["--model", "constant_curvature", "--s", "1e300", "--t1", "1e300",
         "--component", "+-", "--n", "3"],
    ])
    def test_non_finite_inputs_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, "classify", *argv, *FAST)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", ["constant_curvature", "kaehler_witness", "w1_witness",
                                       "w2_witness"])
    @pytest.mark.parametrize("s", ["inf", "-inf", "nan"])
    def test_non_finite_scalar_exits_3_without_a_warning(self, capsys, model, s):
        code, out, err = run_cli(capsys, "classify", "--model", model, f"--s={s}",
                                 "--component=+-", "--n", "1", *FAST)
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite s" in err

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
                                 "--n", "3", *FAST)
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows" in err

    def test_output_to_missing_directory_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                                 "--n", "1", *FAST, "--output", str(out_path))
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "cannot write" in err

    def test_report_schema(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                               "--n", "1", *FAST)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["schema"] == "gh-class-report/2"
        assert set(doc) == {"schema", "config", "residuals", "detected", "flags"}
        code, out, _ = run_cli(capsys, "classify", "--model", "flat", "--component", "++",
                               "--n", "1", "--format", "csv", *FAST)
        header = out.split("\n")[0].split(",")
        assert "nijenhuis_reading" not in header
        assert header[:12] == ["detected", "source", "component", "n", "t1", "t2", "seed",
                               "num_points", "num_arg_triples", "tol", "strict",
                               "possible_class_violation"]

    def test_byte_identical_reports(self, tmp_path, capsys):
        args = ["classify", "--model", "constant_curvature", "--s", "12",
                "--component", "+-", "--n", "3", "--t1", "0.25", "--seed", "11", *FAST]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--output", str(f1)]) == cli.EXIT_OK
        assert cli.main(args + ["--output", str(f2)]) == cli.EXIT_OK
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()


class TestVerifyCommand:
    def test_all_statements_at_reduced_sampling(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--seed", "7",
                               "--samples", "8", "--triples", "4")
        assert code == cli.EXIT_OK
        assert "passed 16/16" in out

    def test_single_statement(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, out, _ = run_cli(capsys, "verify", "--id", "4.6b", "--seed", "7", *FAST,
                               "--output", str(out_path))
        assert code == cli.EXIT_OK
        assert "4.6b  PASS" in out
        doc = json.loads(out_path.read_text())
        assert doc["summary"]["failed"] == 0
        checks = doc["results"][0]["checks"]
        assert any(c["require"] == "<=" for c in checks)

    @pytest.mark.parametrize("argv", [["--id", "4.2a", "--samples", "0"],
                                      ["--all", "--triples", "0"]])
    def test_bad_sampling_arguments_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error: ")

    def test_tol_is_a_usage_error(self, capsys):
        # the suite checks fixed bounds, so a --tol would be silently ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--all", "--tol", "1e-3"])
        assert exc.value.code == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol" in captured.err

    def test_output_to_missing_directory_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "verify.json"
        code, _, err = run_cli(capsys, "verify", "--id", "4.6b", "--seed", "7", *FAST,
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

    def test_unknown_id_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--id", "bogus")
        assert code == cli.EXIT_INPUT
        assert "unknown statement id" in err


class TestSelftestCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "1", "--trials", "25")
        assert code == cli.EXIT_OK
        assert "nijenhuis-identity" in out
        assert "FAIL" not in out

    def test_corrupted_sign_table_fails_naming_the_check(self, capsys, monkeypatch):
        negate_sign_table(monkeypatch)
        code, out, err = run_cli(capsys, "selftest", "--seed", "1", "--trials", "25")
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

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_a_validation_error(self, capsys, trials):
        code, out, err = run_cli(capsys, "selftest", "--trials", trials)
        assert code == cli.EXIT_VALIDATION
        assert "ok" not in out
        assert "trials" in err


@pytest.mark.parametrize("argv", [["classify", "--model", "flat", "--component", "++", "--n", "1"],
                                  ["verify", "--id", "4.2a"],
                                  ["selftest"]])
def test_negative_seed_is_a_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert "seed must be a non-negative integer" in err


@pytest.mark.parametrize("argv", [["classify", "--model", "flat", "--component", "++", "--n", "1"],
                                  ["verify", "--id", "4.2a"],
                                  ["verify", "--all"]])
@pytest.mark.parametrize("message", ["Unable to allocate 14.9 GiB for an array", ""])
def test_out_of_memory_exits_3(monkeypatch, capsys, argv, message):
    # a sampling config too large to allocate (--triples 100000000) is a bad
    # input, not a suite failure; the failed allocation is simulated, since
    # a real one may succeed and fill the memory
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cl, "condition_residuals", no_memory)
    code, out, err = run_cli(capsys, *argv, *FAST)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err.startswith("error: not enough memory for --samples 12 --triples 6")
    assert message in err and err.count("\n") == 1


def test_cached_parser_carries_nothing_between_calls(capsys, tmp_path):
    # one parser serves every call of the process, so no call may see the
    # options or the defaults of the call before it
    assert cli.build_parser() is cli.build_parser()
    flat = ["classify", "--model", "flat", "--component", "++", "--n", "1", *FAST]
    code, out, _ = run_cli(capsys, *flat, "--format", "csv", "--seed", "5")
    assert code == cli.EXIT_OK
    assert out.startswith("detected,")
    report = tmp_path / "verify.json"
    code, _, _ = run_cli(capsys, "verify", "--id", "4.2a", *FAST, "--output", str(report))
    assert code == cli.EXIT_OK
    runs = {seed: cl.verify_report_json([cl.verify_theorem("4.2a",
                                                          cl.SamplingConfig(seed, 12, 6))])
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
