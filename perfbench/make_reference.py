#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

The reference holds the classify-survey rows (operator spec, CLI arguments,
detected class and the 8 residuals), the verdict of every check of every
statement at seed 7, and the list of self-test oracles, which must all be ok.
Run it only on a commit whose results are trusted: the benchmark counts every
output that differs from this file as a failed op.

Survey operators are finite and of moderate scale (max|R| * max(t1, t2, 1) is
at most 16), and no residual lies within two decades of the threshold 1e-9,
so the scale and NaN defects of the detector do not enter the reference.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import run  # noqa: E402
from workloads import ClassifySurvey, build_operator, canonical, fresh_dir  # noqa: E402

ROWS_PER_KIND = 32
POOL_SEED = 20261017
SELFTEST_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
MAX_SCALE = 16.0
MARGIN = 100.0

#: kind -> (model, n values, sign of s, t1 from s, predicted class, statement)
WITNESSES = {
    "cc_pos": ("constant_curvature", (3, 4), 1, lambda s: 3.0 / s, "W1W3", "4.6b"),
    "cc_neg": ("constant_curvature", (3, 4), -1, lambda s: -6.0 / s, "W2W3", "4.7b"),
    "kaehler": ("kaehler_witness", (1, 2), 1, lambda s: 6.0 / s, "K", "4.2b"),
    "w1": ("w1_witness", (3, 4), 1, lambda s: 3.0 / s, "W1", "4.8b"),
    "w2": ("w2_witness", (3, 4), -1, lambda s: -6.0 / s, "W2", "4.9b"),
}
#: "--" is left out: argparse drops a "--" value, so `classify --component=--`
#: exits 3 and the component cannot be reached through the CLI at all.
COMPONENTS = ("++", "+-", "-+")


def survey_rows() -> list[dict]:
    """The fixed operator mix; ``-+`` rows use the half-swapped operator."""
    rng = random.Random(POOL_SEED)
    nrng = np.random.default_rng(POOL_SEED)
    rows = []

    def add(kind, model, params, component, n, t1, predicted, statement, op_seed=None):
        rows.append({
            "id": len(rows), "kind": kind, "model": model, "params": params,
            "op_seed": op_seed, "swap": component == "-+",
            "component": component, "n": n, "t1": t1, "t2": rng.uniform(0.5, 1.5),
            "seed": 1000 + len(rows), "statement": statement, "predicted": predicted,
        })

    for kind, (model, ns, sign, t1_of, predicted, statement) in WITNESSES.items():
        for _ in range(ROWS_PER_KIND):
            s = sign * rng.uniform(2.0, 16.0)
            add(kind, model, {"s": s}, rng.choice(("+-", "-+")), rng.choice(ns),
                t1_of(s), predicted, statement)
    for _ in range(ROWS_PER_KIND):
        comp, n = rng.choice(COMPONENTS), rng.randint(1, 4)
        half = "a" if comp == "++" else "b"
        statement = ("4.3" if n <= 2 else "4.5") + half
        add("flat", "flat", {}, comp, n, rng.uniform(0.5, 2.0),
            "W3" if n <= 2 else "W1W2", statement)
    for _ in range(ROWS_PER_KIND):
        s = rng.choice((1, -1)) * rng.uniform(2.0, 16.0)
        wm = nrng.standard_normal((3, 3))
        wm = 0.5 * (wm + wm.T)
        wm = 0.7 * (wm - np.trace(wm) / 3.0 * np.eye(3))
        n = rng.randint(1, 4)
        add("einstein_asd", "einstein_asd", {"s": s, "Wminus": wm.tolist()},
            rng.choice(("+-", "-+")), n, rng.uniform(0.5, 2.0),
            "W3" if n <= 2 else "W1W2W3", "4.3b" if n <= 2 else "4.4b")
    for _ in range(ROWS_PER_KIND):
        add("random_strict", "random_strict", {}, rng.choice(COMPONENTS), rng.randint(1, 4),
            rng.uniform(0.5, 2.0), None, None, op_seed=rng.randrange(2 ** 31))
    return rows


def classify_reference(prog, rows: list[dict], workdir: Path) -> list[dict]:
    tol = prog.classifier.SamplingConfig().tol
    survey = ClassifySurvey(prog, {"classify": {"rows": rows}}, 0, workdir)
    out = []
    for row in rows:
        mat = build_operator(prog.curvature, row)
        scale = float(np.max(np.abs(mat))) * max(row["t1"], row["t2"], 1.0)
        if not (np.all(np.isfinite(mat)) and scale <= MAX_SCALE):
            raise SystemExit(f"row {row['id']}: operator scale {scale} is not moderate")
        op = survey.op(row)
        code, text = op.output(op.run())
        if code != 0:
            raise SystemExit(f"row {row['id']}: exit code {code}")
        report = json.loads(text)
        detected, residuals = report["detected"], report["residuals"]
        if row["predicted"] is not None and detected != row["predicted"]:
            raise SystemExit(f"row {row['id']} ({row['kind']}, statement {row['statement']}): "
                             f"detected {detected}, predicted {row['predicted']}")
        if row["predicted"] is None and (
                detected not in prog.classifier.ALLOWED_DETECTED[row["n"]]
                or report["flags"]["possible_class_violation"]):
            raise SystemExit(f"row {row['id']}: strict operator detected as {detected}")
        for cond, r in residuals.items():
            if not (math.isfinite(r) and (r <= tol / MARGIN or r >= tol * MARGIN)):
                raise SystemExit(f"row {row['id']}: residual {cond} = {r} is near the threshold")
        out.append(dict(row, detected=detected, residuals=residuals))
        print(f"row {row['id']:3d} {row['kind']:<14} {row['component']} n={row['n']} "
              f"-> {detected}", file=sys.stderr)
    return out


def verify_reference(prog) -> dict:
    cfg = prog.classifier.SamplingConfig(seed=7)
    statements = {}
    for tid in prog.classifier.THEOREM_IDS:
        result = prog.classifier.verify_theorem(tid, cfg)
        if not result.passed:
            raise SystemExit(f"statement {tid} fails at seed 7")
        statements[tid] = {"passed": result.passed,
                           "checks": [[c["name"], c["ok"]] for c in result.checks]}
        print(f"verify {tid} ok", file=sys.stderr)
    return {"seed": cfg.seed, "statements": statements}


def selftest_reference(prog) -> dict:
    names = None
    for seed in SELFTEST_SEEDS:
        results = prog.selftest.run_selftest(seed=seed)
        if not all(r.ok for r in results):
            raise SystemExit(f"selftest fails at seed {seed}")
        names = [r.name for r in results]
    return {"oracles": [[name, True] for name in names], "validated_seeds": list(SELFTEST_SEEDS)}


def dump(ref: dict) -> str:
    """One survey row per line, so that reference diffs stay readable."""
    rows = ref["classify"]["rows"]
    head = dict(ref, classify=dict(ref["classify"], rows="@ROWS@"))
    text = json.dumps(head, indent=1, sort_keys=True)
    body = ",\n  ".join(canonical(r) for r in rows)
    return text.replace('"@ROWS@"', "[\n  " + body + "\n ]") + "\n"


def main() -> int:
    os.chdir(run.ROOT)
    prog = run.load_program()
    prog.tensors.resolve_nijenhuis_reading()
    workdir = fresh_dir(run.OUT_DIR / "reference")
    ref = {
        "schema": "twistorgh-bench-reference/1",
        "generated_with": run.environment(),
        "classify": {"rows": classify_reference(prog, survey_rows(), workdir)},
        "verify": verify_reference(prog),
        "selftest": selftest_reference(prog),
    }
    run.REFERENCE.write_text(dump(ref), encoding="utf-8")
    json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    print(f"wrote {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
