"""The benchmark's three workloads and the checks of their outputs.

Each workload is a closed loop with one caller.  Its set-up happens in the
constructor; ``rounds()`` then yields lists of ops.  An op's ``run`` is the
timed call into the program's public entry point, ``output`` turns its return
value into plain data (untimed), and ``check`` compares that data with the
committed reference and returns an error message or None.

    classify-survey   cli.main(["classify", "--input", op.json, ...]) at the
                      default config; one round is one operator of each of
                      the eight survey kinds
    verify-suite      classifier.verify_theorem(tid, SamplingConfig(seed=7));
                      one round is the 16 statements in a seeded order
    selftest-oracles  selftest.run_selftest(seed=s), s drawn from the
                      workload seed; one round is one call
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Residuals are compared with |got - ref| <= RES_TOL * max(1, |ref|).  The bound
#: is fixed from float64 epsilon, not from the data: it admits reordered sums
#: (2**14 ulp of the terms, which the survey keeps of moderate size) and stays
#: far below the class threshold 1e-9, so it cannot hide a changed class.
RES_TOL = 2.0 ** 14 * sys.float_info.epsilon


class BenchError(RuntimeError):
    """The benchmark cannot run: missing program, reference or bad arguments."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    output: Callable[[Any], Any]
    check: Callable[[Any], "str | None"]


def _plain(x):
    """JSON fallback for numpy scalars in program outputs."""
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"not JSON serialisable: {type(x).__name__}")


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, default=_plain)


def build_operator(curvature, row: dict) -> np.ndarray:
    """The 6x6 operator of a survey row, built through the curvature module."""
    if row["model"] == "random_strict":
        mat = curvature.random_strict_operator(np.random.default_rng(row["op_seed"]))
    else:
        params = {k: (np.array(v) if isinstance(v, list) else v)
                  for k, v in row["params"].items()}
        mat = curvature.model(row["model"], **params)
    if row["swap"]:
        mat = curvature.swap_halves(mat)
    return mat


def classify_argv(row: dict, input_path: str, output_path: str) -> list[str]:
    # "--component=-+": a separate "-+" or "--" would parse as an option
    return ["classify", "--input", input_path, f"--component={row['component']}",
            "--n", str(row["n"]), "--t1", repr(row["t1"]), "--t2", repr(row["t2"]),
            "--seed", str(row["seed"]), "--output", output_path]


def check_classify(row: dict, output) -> str | None:
    code, text = output
    if code != 0:
        return f"exit code {code}"
    report = json.loads(text)
    if report["detected"] != row["detected"]:
        return f"class {report['detected']} != reference {row['detected']}"
    for cond, ref in row["residuals"].items():
        got = report["residuals"].get(cond)
        if got is None or not abs(got - ref) <= RES_TOL * max(1.0, abs(ref)):
            return f"residual {cond} = {got!r} != reference {ref!r}"
    return None


class ClassifySurvey:
    name = "classify-survey"

    def __init__(self, prog, reference: dict, seed: int, workdir: Path):
        self.prog = prog
        self.rows = reference["classify"]["rows"]
        self.seed = seed
        inputs = workdir / "inputs"
        self.reports = workdir / "reports"
        inputs.mkdir(parents=True, exist_ok=True)
        self.reports.mkdir(parents=True, exist_ok=True)
        self.inputs = {}
        for row in self.rows:
            path = inputs / f"op-{row['id']:03d}.json"
            prog.curvature.write_json(build_operator(prog.curvature, row), path)
            self.inputs[row["id"]] = path

    def op(self, row: dict) -> Op:
        report = self.reports / f"op-{row['id']:03d}.json"
        argv = classify_argv(row, str(self.inputs[row["id"]]), str(report))
        main = self.prog.cli

        def run():
            return main.main(argv)

        def output(code):
            return [code, report.read_text(encoding="utf-8") if code == 0 else ""]

        return Op(f"row{row['id']}", run, output, lambda out: check_classify(row, out))

    def rounds(self):
        """One row of each kind per round; a row is used at most once per run."""
        rng = random.Random(self.seed)
        kinds: dict[str, list[dict]] = {}
        for row in self.rows:
            kinds.setdefault(row["kind"], []).append(row)
        order = sorted(kinds)
        for rows in kinds.values():
            rng.shuffle(rows)
        for r in range(min(len(rows) for rows in kinds.values())):
            batch = [kinds[k][r] for k in order]
            rng.shuffle(batch)
            yield [self.op(row) for row in batch]


class VerifySuite:
    name = "verify-suite"

    def __init__(self, prog, reference: dict, seed: int, workdir: Path):
        self.prog = prog
        self.statements = reference["verify"]["statements"]
        self.cfg = prog.classifier.SamplingConfig(seed=reference["verify"]["seed"])
        self.seed = seed

    def op(self, tid: str) -> Op:
        classifier, cfg, ref = self.prog.classifier, self.cfg, self.statements[tid]

        def run():
            return classifier.verify_theorem(tid, cfg)

        def check(out) -> str | None:
            verdicts = [[c["name"], c["ok"]] for c in out["checks"]]
            if out["passed"] != ref["passed"] or verdicts != ref["checks"]:
                bad = [v for v in verdicts if v not in ref["checks"]]
                return f"{tid}: verdicts differ from the reference: {bad}"
            return None

        return Op(tid, run, lambda result: result.to_json_dict(), check)

    def rounds(self):
        rng = random.Random(self.seed)
        ids = list(self.statements)
        while True:
            rng.shuffle(ids)
            yield [self.op(tid) for tid in ids]


class SelftestOracles:
    name = "selftest-oracles"

    def __init__(self, prog, reference: dict, seed: int, workdir: Path):
        self.prog = prog
        self.expected = reference["selftest"]["oracles"]
        self.seed = seed

    def op(self, s: int) -> Op:
        selftest, expected = self.prog.selftest, self.expected

        def run():
            return selftest.run_selftest(seed=s)

        def output(results):
            return [{"name": r.name, "max_residual": float(r.max_residual), "tol": r.tol,
                     "trials": r.trials, "ok": bool(r.ok), "worst": r.worst}
                    for r in results]

        def check(out) -> str | None:
            got = [[r["name"], r["ok"]] for r in out]
            return None if got == expected else f"seed {s}: oracles {got} != {expected}"

        return Op(f"seed{s}", run, output, check)

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            yield [self.op(rng.randrange(1, 2 ** 31))]


WORKLOADS = {w.name: w for w in (ClassifySurvey, VerifySuite, SelftestOracles)}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
