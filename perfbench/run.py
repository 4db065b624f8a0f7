#!/usr/bin/env python3
"""twistorgh benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; nothing else is needed.  Each run is one process on one
thread: BLAS pools are pinned to one thread before numpy loads.

Workloads (see workloads.py): classify-survey, verify-suite,
selftest-oracles.  A run sets the workload up, then runs whole rounds of ops
as a closed loop with one caller; it starts another round only while the
median round still fits in ``--seconds`` (at least one round always runs).
Every op's output is checked against perfbench/reference.json.

--trace 0 prints the end-to-end metrics.  Times are speed-adjusted (see
speed.py); the raw times are on the info line.
    setup_s       interpreter start to the first op: a fresh child process
                  imports the program, builds the inputs and resolves the
                  Nijenhuis reading; median of SETUP_SAMPLES children
    wall_s        time of one round of ops, median over the rounds
    op_p50_s      median op time over all ops of the run
    peak_rss_mib  peak resident memory of the run (getrusage)
    ok_frac       ops that neither raised nor differed from the reference,
                  over ops attempted (fail_frac = 1 - ok_frac)
--trace 1 runs pairs of rounds, the same ops untraced then traced, checks
that both give identical outputs, and prints the per-layer metrics of the
traced rounds (median over rounds) and trace_overhead_s.

The last line of standard output is the JSON result; the line before it
records the environment.  Outputs of the first round go to
.perfbench_out/<workload>-s<seed>-t<trace>/outputs.json (deterministic for a
seed), and the spans of a traced run to spans.jsonl next to it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, sleep  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from speed import WINDOW_S, SpeedSampler  # noqa: E402
from tracer import BOUNDARY_LAYERS, FINE, PUBLIC_EVALUATORS, Tracer  # noqa: E402
from workloads import WORKLOADS, BenchError, canonical, fresh_dir  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = Path(".perfbench_out")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60.0
MODULES = ("cli", "classifier", "curvature", "fibre", "fourdim", "selftest", "tensors")


def load_program() -> SimpleNamespace:
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "twistorgh" / "__init__.py").is_file():
        raise BenchError(f"no program at {src / 'twistorgh'}; run from a checkout root")
    sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"twistorgh.{m}") for m in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src):
        raise BenchError(f"twistorgh was imported from {mods['cli'].__file__}, not {src}")
    return SimpleNamespace(**mods)


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def src_digest() -> str:
    """sha256 of the program's sources, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "src_sha256": src_digest(), "machine": platform.machine()}


def resolve_reading(prog) -> None:
    """The one-time Nijenhuis reading resolution that classify relies on."""
    fn = getattr(prog.tensors, "resolve_nijenhuis_reading", None)
    if fn is not None:
        fn()


def set_up(name: str, seed: int, prog, reference: dict, workdir: Path):
    workload = WORKLOADS[name](prog, reference, seed, workdir)
    resolve_reading(prog)
    return workload


# -- timing -------------------------------------------------------------------

def run_round(ops, speed: SpeedSampler, tracer: Tracer | None = None) -> dict:
    """Run one round; op times exclude checking the outputs."""
    spans, outputs, errors = [], [], []
    op_target = tracer.manual_target("op") if tracer else None
    for op in ops:
        if tracer:
            tracer.op = op.label
        raw, err = None, None
        t0 = perf_counter()
        try:
            if tracer:
                with tracer.span(op_target):
                    raw = op.run()
            else:
                raw = op.run()
        except Exception as exc:  # an op that raises is a failed op
            err = f"{type(exc).__name__}: {exc}"
        spans.append((t0, perf_counter()))
        out = None
        if err is None:
            try:
                out = op.output(raw)
                err = op.check(out)
            except Exception as exc:  # unreadable output is a failed op too
                err = f"output unreadable: {type(exc).__name__}: {exc}"
        outputs.append(out)
        if err:
            errors.append(f"{op.label}: {err}")
    times = [end - start for start, end in spans]
    adjusted = [speed.adjust(start, end) for start, end in spans]
    return {"labels": [op.label for op in ops], "times": times, "adjusted": adjusted,
            "outputs": outputs, "errors": errors,
            "wall": sum(times), "wall_adjusted": sum(adjusted)}


def setup_child(name: str, seed: int, workdir: Path) -> int:
    """Body of a set-up child: set up, say "ready", then print the factor that
    speed-adjusts the set-up time, from probes sampled while it ran."""
    with SpeedSampler() as speed:
        start = perf_counter()
        set_up(name, seed, load_program(), load_json(REFERENCE), fresh_dir(workdir))
        ready = perf_counter()
        print("ready", flush=True)
        sleep(WINDOW_S)  # the sampler keeps running: samples after the set-up too
    print(speed.adjust(start, ready) / (ready - start), flush=True)
    shutil.rmtree(workdir)
    return 0


def setup_time(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its workload being set up,
    raw and speed-adjusted by the factor the child reports."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only", str(workdir)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        factor = proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    try:
        if line.strip() != "ready" or proc.returncode != 0:
            raise ValueError(line)
        return elapsed, elapsed * float(factor)
    except ValueError:
        raise BenchError(f"set-up child failed (exit {proc.returncode}): {line!r}") from None


def fits(started: float, seconds: float, durations: list[float]) -> bool:
    """Another unit of work fits when its median duration fits what is left."""
    return not durations or perf_counter() - started + statistics.median(durations) <= seconds


# -- per-layer metrics ----------------------------------------------------------

def layer_metrics(tr: Tracer, verify_ids, oracles) -> dict:
    """Per-layer metrics of one traced round."""
    def total(values, name):
        return sum(v for n, v in zip(tr.names, values) if n == name)

    m = {}
    for metric, _, _ in FINE:
        m[f"{metric}.calls"] = total(tr.calls, metric)
        m[f"{metric}.s"] = total(tr.incl, metric)
    samples = tr.samples
    m["classifier.samples"] = samples
    m["tensors.argview_per_sample"] = m["tensors.argview.calls"] / samples if samples else 0.0
    m["tensors.dcov_per_sample"] = m["tensors.dcov.calls"] / samples if samples else 0.0
    m["classifier.condition_residuals.calls"] = total(tr.calls, "classifier.condition_residuals")
    m["classifier.condition_residuals.self_s"] = total(tr.self_time,
                                                       "classifier.condition_residuals")
    m["cli.main.calls"] = total(tr.calls, "cli.main")
    m["cli.main.self_s"] = total(tr.self_time, "cli.main")
    for layer in BOUNDARY_LAYERS:
        m[f"{layer}.calls"] = tr.layer_calls[layer]
        m[f"{layer}.s"] = tr.layer_time[layer]

    span_name = {sid: name for sid, name, *_ in tr.spans}
    by_label: dict[tuple, float] = {}
    public_outer = 0.0
    for sid, name, label, start, end, parent, _op in tr.spans:
        by_label[name, label] = by_label.get((name, label), 0.0) + (end - start)
        if (name.startswith("tensors.public.")
                and not span_name.get(parent, "").startswith("tensors.public.")):
            public_outer += end - start
    for tid in verify_ids:
        m[f"classifier.verify_theorem.{tid}.s"] = by_label.get(
            ("classifier.verify_theorem", tid), 0.0)
    for oracle in oracles:
        m[f"selftest.{oracle}.s"] = by_label.get(("selftest.oracle", oracle), 0.0)
    for fn in PUBLIC_EVALUATORS:
        m[f"tensors.public.{fn}.calls"] = total(tr.calls, f"tensors.public.{fn}")
        m[f"tensors.public.{fn}.s"] = total(tr.incl, f"tensors.public.{fn}")
    m["tensors.public.calls"] = sum(m[f"tensors.public.{fn}.calls"] for fn in PUBLIC_EVALUATORS)
    m["tensors.public.s"] = public_outer
    return m


def write_spans(path: Path, spans: list[tuple], origin: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, label, start, end, parent, op in spans:
            fh.write(json.dumps({"id": sid, "name": name, "label": label,
                                 "start": start - origin, "end": end - origin,
                                 "parent": parent, "op": op}) + "\n")


# -- runs -----------------------------------------------------------------------

def run_untraced(name, seed, seconds, prog, reference, workdir) -> tuple[dict, dict]:
    workload = set_up(name, seed, prog, reference, workdir)
    setups = [setup_time(name, seed, workdir / f"setup{i}") for i in range(SETUP_SAMPLES)]
    rounds = []
    started = perf_counter()
    with SpeedSampler() as speed:
        for ops in workload.rounds():
            if not fits(started, seconds, [r["wall"] for r in rounds]):
                break
            rounds.append(run_round(ops, speed))
    attempted = sum(len(r["times"]) for r in rounds)
    failed = sum(len(r["errors"]) for r in rounds)
    metrics = {
        "setup_s": statistics.median(adj for _, adj in setups),
        "wall_s": statistics.median(r["wall_adjusted"] for r in rounds),
        "op_p50_s": statistics.median(t for r in rounds for t in r["adjusted"]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    info = {"rounds": len(rounds), "ops": attempted, "ops_per_round": len(rounds[0]["times"]),
            "setup_samples": len(setups),
            "raw_setup_s": statistics.median(raw for raw, _ in setups),
            "raw_wall_s": statistics.median(r["wall"] for r in rounds),
            "raw_op_p50_s": statistics.median(t for r in rounds for t in r["times"]),
            "probe_iter_p50_s": speed.median_probe()}
    return finish(rounds, attempted, failed, metrics, info, workdir)


def run_traced(name, seed, seconds, prog, reference, workdir) -> tuple[dict, dict]:
    verify_ids = list(reference["verify"]["statements"])
    oracles = [o for o, _ in reference["selftest"]["oracles"]]
    origin = perf_counter()
    tracer = Tracer().install()
    reading = tracer.manual_target("tensors.resolve_reading", "tensors")
    try:
        tracer.op = "setup"
        workload = WORKLOADS[name](prog, reference, seed, workdir)
        with tracer.span(reading):
            resolve_reading(prog)
    finally:
        tracer.uninstall()
    spans = list(tracer.spans)
    setup = {"curvature.setup.calls": tracer.layer_calls["curvature"],
             "curvature.setup.s": tracer.layer_time["curvature"],
             "tensors.resolve_reading.s": tracer.incl[reading]}

    rounds, per_round, overheads, pair_walls = [], [], [], []
    mismatched = 0
    started = perf_counter()
    with SpeedSampler() as speed:
        for ops in workload.rounds():
            if not fits(started, seconds, pair_walls):
                break
            t0 = perf_counter()
            plain = run_round(ops, speed)
            tracer = Tracer().install()
            try:
                traced = run_round(ops, speed, tracer)
            finally:
                tracer.uninstall()
            pair_walls.append(perf_counter() - t0)
            for label, a, b in zip(plain["labels"], plain["outputs"], traced["outputs"]):
                if canonical(a) != canonical(b):
                    traced["errors"].append(f"{label}: traced output differs from untraced")
                    mismatched += 1
            rounds += [plain, traced]
            per_round.append(layer_metrics(tracer, verify_ids, oracles))
            overheads.append(traced["wall_adjusted"] - plain["wall_adjusted"])
            spans += tracer.spans
    write_spans(workdir / "spans.jsonl", spans, origin)

    attempted = sum(len(r["times"]) for r in rounds)
    failed = sum(len(r["errors"]) for r in rounds)
    metrics = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
    metrics.update(setup)
    metrics["trace_overhead_s"] = statistics.median(overheads)
    metrics["fail_frac"] = failed / attempted
    info = {"pairs": len(per_round), "ops": attempted, "mismatched": mismatched,
            "spans": len(spans)}
    return finish(rounds, attempted, failed, metrics, info, workdir)


def finish(rounds, attempted, failed, metrics, info, workdir) -> tuple[dict, dict]:
    first = rounds[0]
    outputs = [{"op": label, "output": out} for label, out in zip(first["labels"],
                                                                  first["outputs"])]
    (workdir / "outputs.json").write_text(canonical(outputs) + "\n", encoding="utf-8")
    errors = [e for r in rounds for e in r["errors"]]
    for path in (workdir / "inputs", workdir / "reports"):
        shutil.rmtree(path, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    info["errors"] = errors[:20]
    return result, info


def with_units(metrics: dict, declared: list[dict]) -> dict:
    """Attach the declared units; the computed and declared names must agree."""
    names = [d["name"] for d in declared]
    if set(names) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                         f"{sorted(set(names) - set(metrics))}, extra "
                         f"{sorted(set(metrics) - set(names))}")
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.setup_only:
            return setup_child(args.workload, args.seed, Path(args.setup_only))
        prog = load_program()
        reference = load_json(REFERENCE)
        spec = load_json(SPEC)
        workdir = fresh_dir(OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}")
        runner = run_traced if args.trace else run_untraced
        result, info = runner(args.workload, args.seed, args.seconds, prog, reference, workdir)
        result["metrics"] = with_units(result["metrics"],
                                       spec["per_layer" if args.trace else "end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for err in info["errors"]:
        print(f"failed op: {err}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, "env": environment(), **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
