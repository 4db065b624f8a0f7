"""Command line front end.

Commands:
    classify   run the class detector on a built-in model or an operator file
    verify     run the classification-statement suite (ids 4.2a .. 4.9b)
    selftest   run the internal-consistency oracles
    models     list the built-in curvature models

Exit codes: 0 success, 1 suite/assertion failure, 2 input error (a SchemaError),
3 validation error (a CurvatureError or ClassifierError).  The commands raise;
``main`` alone maps their errors to these codes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import classifier, curvature, selftest

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_VALIDATION = 3

#: models with a matrix-valued parameter, which --s cannot give: they come by --input
_FILE_MODELS = {name for name, (params, _, _) in curvature.MODEL_SPECS.items()
                if set(params) - {"s"}}


@functools.cache  # parsing leaves the parser unchanged, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twistorgh", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="detect the Gray-Hervella class")
    src = p_cls.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="built-in curvature model name")
    src.add_argument("--input", help="JSON curvature-operator file")
    p_cls.add_argument("--s", type=float, default=None, help="scalar curvature for --model")
    p_cls.add_argument("--component", required=True, choices=list(classifier.COMPONENTS))
    p_cls.add_argument("--n", type=int, required=True, choices=[1, 2, 3, 4])
    p_cls.add_argument("--t1", type=float, default=1.0)
    p_cls.add_argument("--t2", type=float, default=1.0)
    p_cls.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_cls.add_argument("--format", choices=["json", "csv"], default="json")
    p_cls.add_argument("--output", help="write the report here instead of stdout")

    p_ver = sub.add_parser("verify", help="run the classification-statement suite")
    which = p_ver.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="run every statement")
    which.add_argument("--id", help="run one statement, e.g. 4.6b")
    p_ver.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_ver.add_argument("--output", help="write the JSON report here")

    p_self = sub.add_parser("selftest", help="run the internal-consistency oracles")
    p_self.add_argument("--seed", type=int, default=1)

    sub.add_parser("models", help="list built-in curvature models")
    return parser


def _emit(text: str, output: str | None) -> None:
    """Write a report to ``output`` or stdout; a SchemaError if the file cannot be written."""
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise curvature.SchemaError(f"cannot write {output!r}: {exc}") from None


def _check_output_dir(output: str | None) -> None:
    """A SchemaError if ``output`` is a directory or lies in one that does not exist.

    Called before any work, so a bad path fails at once, not after the run.
    """
    if output and os.path.isdir(output):
        raise curvature.SchemaError(f"cannot write {output!r}: it is a directory")
    if output and not os.path.isdir(os.path.dirname(output) or "."):
        raise curvature.SchemaError(f"cannot write {output!r}: its directory does not exist")


def _load_operator(args) -> tuple[object, str]:
    """The operator and its source label.  ``curvature.model`` decides which
    parameters a model takes: it raises SchemaError for an unknown name, a
    missing --s or an --s the model does not take, and CurvatureError for a
    bad s."""
    if args.model is not None:
        if args.model in _FILE_MODELS:
            raise curvature.SchemaError(
                f"model {args.model!r} needs matrix-valued blocks; supply it via --input FILE")
        params = {} if args.s is None else {"s": args.s}
        return curvature.model(args.model, **params), f"model:{args.model}"
    if args.s is not None:
        raise curvature.SchemaError("--s applies to --model only; the file fixes the operator")
    try:
        return curvature.read_json(args.input), f"file:{args.input}"
    except OSError as exc:  # missing, a directory, unreadable
        raise curvature.SchemaError(f"cannot read {args.input!r}: {exc}") from None


def cmd_classify(args) -> int:
    _check_output_dir(args.output)
    rmat, source = _load_operator(args)
    # argparse of Python 3.10-3.12 strips the value of "--component=--" to [];
    # 3.13 keeps "--"
    report = classifier.classify(rmat, args.component or "--", (args.t1, args.t2), args.n,
                                 classifier.SamplingConfig(args.seed), source=source)
    _emit(report.to_json() if args.format == "json" else report.to_csv(), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_output_dir(args.output)
    cfg = classifier.SamplingConfig(args.seed)
    if args.id is not None and args.id not in classifier.THEOREM_IDS:
        raise curvature.SchemaError(f"unknown statement id {args.id!r}; "
                                    f"known: {', '.join(classifier.THEOREM_IDS)}")
    results = ([classifier.verify_theorem(args.id, cfg)] if args.id is not None
               else classifier.verify_all(cfg))
    detailed = args.id is not None
    for r in results:
        print(f"{r.tid}  {'PASS' if r.passed else 'FAIL'}  {r.statement}")
        if detailed or not r.passed:
            for c in r.checks:
                mark = "ok " if c["ok"] else "BAD"
                print(f"    {mark} {c['name']:<44} {c['value']:.3e} "
                      f"{c['require']} {c['bound']:.0e}")
    failed = [r.tid for r in results if not r.passed]
    print(f"passed {len(results) - len(failed)}/{len(results)}")
    if args.output:
        _emit(classifier.verify_report_json(results), args.output)
    if failed:
        print(f"failing ids: {', '.join(failed)}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = selftest.run_selftest(seed=args.seed)
    for r in results:
        print(r.line())
    if not selftest.all_ok(results):
        failing = ", ".join(r.name for r in results if not r.ok)
        print(f"failing checks: {failing} (seed={args.seed})", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_models(_args) -> int:
    for name, (params, _, doc) in curvature.MODEL_SPECS.items():
        sig = ", ".join(params) if params else "-"
        via = "--input file" if name in _FILE_MODELS else "flags"
        print(f"{name:<20} params: {sig:<16} via {via:<12} {doc}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"classify": cmd_classify, "verify": cmd_verify,
               "selftest": cmd_selftest, "models": cmd_models}[args.command]
    try:  # the one map of errors to exit codes; any other exception is a bug
        return handler(args)
    except curvature.SchemaError as exc:  # bad input: documents, names, --s, --output
        code, error = EXIT_INPUT, exc
    except (curvature.CurvatureError, classifier.ClassifierError) as exc:  # invalid values
        code, error = EXIT_VALIDATION, exc
    print(f"error: {error}", file=sys.stderr)
    return code
