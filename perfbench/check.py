#!/usr/bin/env python3
"""Tests of the benchmark itself (about a minute on two cores).

    python3 perfbench/check.py

Kept out of the program's pytest suite on purpose: these run the benchmark
end to end, which the tier-1 suite should not pay for.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from speed import SpeedSampler
from tracer import Tracer
from workloads import WORKLOADS, ClassifySurvey, VerifySuite, canonical, fresh_dir

RUN = [sys.executable, str(Path(run.__file__).resolve())]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = run.ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if proc.returncode == 0 and lines else None)


class TestSpec(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class TestReference(unittest.TestCase):
    def test_rows_agree_with_their_statements(self):
        ref = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
        rows = ref["classify"]["rows"]
        self.assertEqual(len({(r["seed"]) for r in rows}), len(rows))
        self.assertEqual({r["component"] for r in rows}, {"++", "+-", "-+"})
        self.assertEqual({r["n"] for r in rows}, {1, 2, 3, 4})
        for r in rows:
            if r["predicted"] is not None:
                self.assertEqual(r["detected"], r["predicted"], r)
            self.assertEqual(len(r["residuals"]), 8)
        self.assertTrue(all(s["passed"] for s in ref["verify"]["statements"].values()))
        self.assertEqual(len(ref["verify"]["statements"]), 16)
        self.assertTrue(all(ok for _, ok in ref["selftest"]["oracles"]))


class TestInProcess(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(run.ROOT)
        cls.prog = run.load_program()
        cls.ref = run.load_json(run.REFERENCE)
        cls.work = fresh_dir(run.OUT_DIR / "check")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def survey(self, ref, name):
        return ClassifySurvey(self.prog, ref, 5, self.work / name)

    def test_wrong_reference_class_makes_ops_fail(self):
        survey = self.survey(self.ref, "good")
        with SpeedSampler() as speed:
            good = run.run_round(next(survey.rounds())[:2], speed)
        self.assertEqual(good["errors"], [])
        self.assertTrue(all(0 < t for t in good["adjusted"]))

        bad_ref = copy.deepcopy(self.ref)
        for row in bad_ref["classify"]["rows"]:
            row["detected"] = "OTHER" if row["detected"] != "OTHER" else "K"
        bad = self.survey(bad_ref, "bad")
        with SpeedSampler() as speed:
            result = run.run_round(next(bad.rounds())[:2], speed)
        self.assertEqual(len(result["errors"]), 2)
        self.assertGreater(len(result["errors"]) / len(result["times"]), 0.0)

    def test_traced_round_gives_the_untraced_outputs(self):
        for workload, take in ((self.survey(self.ref, "trace"), 1),
                               (VerifySuite(self.prog, self.ref, 5, self.work), 2)):
            ops = next(workload.rounds())[:take]
            with SpeedSampler() as speed:
                plain = run.run_round(ops, speed)
                tracer = Tracer().install()
                try:
                    traced = run.run_round(ops, speed, tracer)
                finally:
                    tracer.uninstall()
            self.assertEqual(plain["errors"] + traced["errors"], [])
            self.assertEqual([canonical(o) for o in plain["outputs"]],
                             [canonical(o) for o in traced["outputs"]])
            self.assertGreater(sum(tracer.layer_calls.values()), 0)

    def test_classify_report_is_byte_identical_across_calls(self):
        survey = self.survey(self.ref, "repeat")
        op = next(survey.rounds())[0]
        first = op.output(op.run())
        second = op.output(op.run())
        self.assertEqual(first, second)

    def test_tracer_survives_a_removed_name(self):
        tensors = self.prog.tensors
        dcov, acs = tensors._dcov, tensors._acs_unchecked
        del tensors._acs_unchecked
        try:
            tracer = Tracer().install()
            self.assertIsNot(tensors._dcov, dcov)
            tracer.uninstall()
            metrics = run.layer_metrics(tracer, ["4.2a"], ["restriction"])
        finally:
            tensors._acs_unchecked = acs
        self.assertIs(tensors._dcov, dcov)
        self.assertEqual(metrics["tensors.acs.calls"], 0)
        self.assertEqual(metrics["tensors.acs.s"], 0.0)


class TestEndToEnd(unittest.TestCase):
    """Smoke runs at the smallest size: one selftest round of a few seconds."""

    def test_untraced_run_is_correct_and_deterministic(self):
        spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
        outputs = run.ROOT / run.OUT_DIR / "selftest-oracles-s11-t0" / "outputs.json"
        reports = []
        for _ in range(2):
            proc, result = bench("--workload", "selftest-oracles", "--seed", "11",
                                 "--seconds", "1", "--trace", "0")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in spec["end_to_end"]])
            self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
            env = json.loads(proc.stdout.strip().splitlines()[-2])["env"]
            self.assertTrue({"nproc", "python", "numpy", "git_commit"} <= set(env))
            reports.append(outputs.read_bytes())
        self.assertEqual(reports[0], reports[1])

    def test_traced_run_reports_every_layer_metric(self):
        spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
        proc, result = bench("--workload", "selftest-oracles", "--seed", "11",
                             "--seconds", "1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in spec["per_layer"]])
        for name in ("selftest.restriction.s", "fourdim.calls", "fibre.calls",
                     "tensors.public.calls", "tensors.argview.calls",
                     "tensors.resolve_reading.s"):
            self.assertGreater(metrics[name]["value"], 0, name)
        spans = run.ROOT / run.OUT_DIR / "selftest-oracles-s11-t1" / "spans.jsonl"
        first = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
        self.assertEqual(set(first), {"id", "name", "label", "start", "end", "parent", "op"})

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.SPEC, tmp)
            shutil.copytree(Path(run.__file__).parent, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify-suite",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
