"""Every row of the benchmark's reference survey gets its recorded class and residuals,
every statement its recorded verdicts, and every validated selftest seed its
recorded oracle verdicts.

The rows of ``perfbench/reference.json`` cover the eight survey kinds on all
four components; the operators are built and the residuals compared exactly
as the benchmark's classify-survey workload does, with its ``build_operator``
and ``RES_TOL``.  The statements are checked as its verify-suite workload
checks them: each check's name and verdict, in order.  The selftest seeds are
checked as its selftest-oracles workload checks them: each oracle's name and
verdict, in order.
"""

import importlib.util
import json
import sys
from pathlib import Path

from twistorgh import classifier as cl
from twistorgh import curvature as cur
from twistorgh import selftest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _reference():
    return json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def test_every_reference_row_keeps_its_class_and_residuals():
    workloads = _workloads()
    reference = _reference()
    rows = reference["classify"]["rows"]
    assert len(rows) == 256
    bad = []
    for row in rows:
        # the operator as the CLI reads it back from the survey's input file
        rmat = cur.from_json_dict(cur.to_json_dict(workloads.build_operator(cur, row)))
        report = cl.classify(rmat, row["component"], (row["t1"], row["t2"]), row["n"],
                             cl.SamplingConfig(seed=row["seed"]))
        if report.detected != row["detected"]:
            bad.append(f"row {row['id']}: class {report.detected} != {row['detected']}")
        for cond, ref in row["residuals"].items():
            got = report.residuals[cond]
            if not abs(got - ref) <= workloads.RES_TOL * max(1.0, abs(ref)):
                bad.append(f"row {row['id']}: {cond} = {got!r} != {ref!r}")
    assert bad == [], "\n".join(bad[:20])


def test_every_statement_keeps_its_verdicts_with_a_cold_and_a_warm_cache():
    # the second run finds every geometry block of the first in the cache
    reference = _reference()["verify"]
    want = reference["statements"]  # per statement: [name, ok] of each check, and passed
    cfg = cl.SamplingConfig(seed=reference["seed"])
    cl._block_points.cache_clear()
    for run in ("cold", "warm"):
        got = {r.tid: {"checks": [[c["name"], c["ok"]] for c in r.checks], "passed": r.passed}
               for r in cl.verify_all(cfg)}
        assert list(got) == list(want), run
        assert got == want, run
    assert cl._block_points.cache_info().hits > 0


def test_every_check_keeps_its_seed_7_value():
    # tests/verify_seed7.json is `verify --all --seed 7 --output` of the suite
    # as first written; a slip in a statement's draw order moves these values
    # even where the verdicts hold
    tol = _workloads().RES_TOL
    golden = json.loads(Path(__file__).with_name("verify_seed7.json")
                        .read_text(encoding="utf-8"))["results"]
    got = cl.verify_all(cl.SamplingConfig(seed=7))
    assert [r.tid for r in got] == [r["id"] for r in golden]
    bad = []
    for result, ref in zip(got, golden):
        assert [c["name"] for c in result.checks] == [c["name"] for c in ref["checks"]], ref["id"]
        for check, want in zip(result.checks, ref["checks"]):
            if ({k: check[k] for k in ("require", "bound", "ok")}
                    != {k: want[k] for k in ("require", "bound", "ok")}):
                bad.append(f"{ref['id']} {want['name']}: {check} != {want}")
            if not abs(check["value"] - want["value"]) <= tol * max(1.0, abs(want["value"])):
                bad.append(f"{ref['id']} {want['name']}: value {check['value']!r} "
                           f"!= {want['value']!r}")
    assert bad == [], "\n".join(bad[:20])


def test_every_validated_selftest_seed_keeps_its_oracle_verdicts():
    # the oracles' report order is the order of selftest.ORACLES, so a reorder or
    # rename there fails every op of the selftest-oracles workload
    reference = _reference()["selftest"]
    want = reference["oracles"]  # [name, ok] of each oracle, in report order
    assert list(selftest.ORACLES) == [name for name, _ in want]
    for seed in reference["validated_seeds"]:
        got = [[r.name, r.ok] for r in selftest.run_selftest(seed=seed)]
        assert got == want, seed
