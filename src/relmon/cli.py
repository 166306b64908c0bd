"""Command-line surface: validation, decision procedures, audits, the suite.

Exit codes: 0 pass, 1 negative verdict or failed property, 2 inconclusive at
the configured bound, 3 input error, 4 budget exceeded.  Every invocation
builds a JSON report object; --report writes it byte-stably, the default
output is a short human summary.  Reports contain deterministic work
counters rather than wall-clock durations so identical invocations produce
identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from . import corpus
from .algebra import enumerate_algebras
from .colim import is_dense
from .errors import (
    BudgetExceeded,
    ParseFailure,
    RelmonError,
    ValidationFailure,
)
from .fincat import FinCategory, functor_from_dict, validate_category
from .monad import enumerate_relative_monads, monad_from_dict
from .monadicity import (
    DEFAULT_ELEMENT_CAP,
    Run,
    creation_audit,
    decide_composite_monadicity,
    default_shape_family,
    run_theorem_suite,
)
from .reladj import adjunction_from_dict, find_left_relative_adjoint, paste_adjunction

EXIT_PASS = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_BUDGET = 4


class _UsageError(Exception):
    pass


class _ReportUnwritable(Exception):
    """--report names a path that cannot be written; _emit has said so on stderr."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# input loading


def _resolve(path: str, base: Path) -> Path:
    p = Path(path)
    return p if p.is_absolute() else base / p


def _category(ref, where, base, seen):
    """A category given inline or as a path relative to base, named by its
    field in where ("<file>: j.dom" names it j.dom).  seen lists (document,
    category) for each category validated while loading one document, so
    an equal document is validated once; each reference keeps its name."""

    name = where.rpartition(": ")[2]
    if isinstance(ref, str):
        path = _resolve(ref, base)
        ref, where = corpus.load_json(path), str(path)
    elif not isinstance(ref, dict):
        raise ParseFailure(where, "must be a JSON object or a path")
    C = next((C for raw, C in seen if raw == ref), None)
    if C is None:
        C = validate_category(ref, name=name, where=where)
        seen.append((ref, C))
    elif C.name != name:
        C = FinCategory(name, C.objects, C.morphisms, C.identities, C.composition)
    return C


def _functor(ref, where, base, seen):
    """A functor given inline or as a path relative to base."""

    if isinstance(ref, str):
        return load_functor_file(_resolve(ref, base), seen)
    return functor_from_dict(ref, ref, partial(_category, base=base, seen=seen), where, where,
                             name=where.rpartition(": ")[2])


def load_functor_file(path, seen=None):
    """A standalone functor document: dom/cod inline or as relative paths.
    seen is _category's list, shared by a document that references this one."""

    doc = corpus.load_json(path)
    category = partial(_category, base=Path(path).parent, seen=[] if seen is None else seen)
    return functor_from_dict(doc, doc, category, str(path), str(path), name=str(path))


def load_monad_file(path):
    functor = partial(_functor, base=Path(path).parent, seen=[])
    return monad_from_dict(corpus.load_json(path), functor, str(path), name=str(path))


def load_adjunction_file(path):
    functor = partial(_functor, base=Path(path).parent, seen=[])
    return adjunction_from_dict(corpus.load_json(path), functor, str(path), name=str(path))


# ---------------------------------------------------------------------------
# reports


def _report(command: str, verdict, mode=None, witnesses=(), census=None, durations=None,
            error=None, extra=None) -> dict:
    doc = {
        "schema": 1,
        "command": command,
        "verdict": verdict,
        "mode": mode,
        "witnesses": list(witnesses),
        "census": census or {},
        "durations": durations or {},
    }
    if error is not None:
        doc["error"] = error
    if extra:
        doc.update(extra)
    return doc


def _emit(doc: dict, args, out=None) -> None:
    """Print doc's summary on out (standard output, looked up at call time)
    and write doc to --report."""
    out = out if out is not None else sys.stdout
    if doc.get("error"):
        print(f"{doc['command']}: error: {doc['error']}", file=out)
    else:
        verdict = doc["verdict"]
        tag = {True: "PASS", False: "FAIL", None: "-"}.get(verdict, str(verdict))
        print(f"{doc['command']}: {tag}", file=out)
        for key, value in sorted(doc.get("census", {}).items()):
            print(f"  {key}: {value}", file=out)
        for w in doc["witnesses"][:8]:
            print(f"  witness: {w}", file=out)
    if getattr(args, "report", None):
        try:
            corpus.save_json(doc, args.report)
        except OSError as exc:
            print(f"relmon: error: cannot write report: {exc}", file=sys.stderr)
            raise _ReportUnwritable from exc


def _fail(args, code: int, error: str, witnesses=()) -> int:
    """Print error on stderr and write it to --report; returns code."""

    try:
        _emit(_report(args.command, None, error=error, witnesses=witnesses), args, out=sys.stderr)
    except _ReportUnwritable:
        pass
    return code


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    path = Path(args.file)
    try:
        if path.is_dir():
            inst = corpus.load_instance(path)
            errors = corpus.validate_instance(inst)
            doc = _report("validate", not errors, witnesses=errors,
                          census={"kind": "instance", "name": inst.name})
            _emit(doc, args)
            return EXIT_PASS if not errors else EXIT_NEGATIVE
        raw = corpus.load_json(path)
        if "objects" in raw:
            validate_category(raw, name=str(path), where=str(path))
            kind = "category"
        elif "on_objects" in raw:
            load_functor_file(path)
            kind = "functor"
        elif "unit" in raw:
            load_monad_file(path)
            kind = "monad"
        elif "sharp" in raw:
            load_adjunction_file(path)
            kind = "adjunction"
        else:
            raise ParseFailure(str(path), "unrecognized document shape")
    except ValidationFailure as exc:
        doc = _report("validate", False,
                      witnesses=[str(v) for v in exc.violations],
                      census={"subject": exc.subject})
        _emit(doc, args)
        return EXIT_NEGATIVE
    doc = _report("validate", True, census={"kind": kind})
    _emit(doc, args)
    return EXIT_PASS


def _cmd_density(args) -> int:
    j = load_functor_file(args.j)
    dense, witness = is_dense(j)
    doc = _report("density", dense,
                  witnesses=[] if dense else [list(witness)],
                  census={"domain_objects": len(j.dom.objects)})
    _emit(doc, args)
    return EXIT_PASS if dense else EXIT_NEGATIVE


def _cmd_adjoint(args) -> int:
    j = load_functor_file(args.j)
    r = load_functor_file(args.r)
    adj = find_left_relative_adjoint(j, r)
    extra = {}
    if adj is not None:
        extra["adjunction"] = {"l": adj.left.to_dict(), "sharp": adj.to_dict()["sharp"]}
    doc = _report("adjoint", adj is not None, extra=extra)
    _emit(doc, args)
    return EXIT_PASS if adj is not None else EXIT_NEGATIVE


def _cmd_monad(args) -> int:
    if args.action == "validate":
        if not args.file:
            raise _UsageError("monad validate requires a file argument")
        try:
            load_monad_file(args.file)
        except ValidationFailure as exc:
            doc = _report("monad", False, witnesses=[str(v) for v in exc.violations])
            _emit(doc, args)
            return EXIT_NEGATIVE
        _emit(_report("monad", True), args)
        return EXIT_PASS
    if not args.j:
        raise _UsageError("monad enumerate requires --j")
    j = load_functor_file(args.j)
    monads = enumerate_relative_monads(j)
    listing = []
    for T in monads:
        doc = T.to_dict()
        listing.append({"carrier": doc["t"], "unit": doc["unit"], "ext": doc["ext"]})
    doc = _report("monad", True, census={"count": len(monads)},
                  extra={"monads": listing})
    _emit(doc, args)
    return EXIT_PASS


def _cmd_algebras(args) -> int:
    T = load_monad_file(args.monad)
    algs = enumerate_algebras(T, corpus.terminal_category())
    doc = _report("algebras", True, census={"count": len(algs)},
                  extra={"algebras": [
                      {"carrier": alg.carrier.ob("*"),
                       "alpha": {f"{a}|{f}": g for ((a, d, f), g) in sorted(alg.alpha.items())}}
                      for alg in algs]})
    _emit(doc, args)
    return EXIT_PASS


def _cmd_monadic(args) -> int:
    if args.audit and args.co:
        raise _UsageError("--audit with --co is not supported; audit the dual inputs directly")
    j = load_functor_file(args.j)
    r = load_functor_file(args.r)
    mode = "nonstrict" if args.nonstrict else "strict"
    run = Run()
    rep = run.resolution(j, r, co=args.co).report(mode)
    census = {"algebras": (rep.algebra_category_size or (0, 0))[0],
              "adjoint_found": rep.adjoint_found,
              "dense_root": rep.dense_root}
    witnesses = [] if rep.verdict else [rep.reason]
    exit_code = EXIT_PASS if rep.verdict else EXIT_NEGATIVE
    extra = {"decision": rep.to_dict()}
    if args.audit:
        shapes = default_shape_family()[: args.shapes] if args.shapes else default_shape_family()
        audit = creation_audit(run, j, r, shapes, args.cap)
        extra["audit"] = audit.to_dict()
        census["audited_items"] = len(extra["audit"]["items"])
        if audit.discrepancies:
            witnesses.extend(audit.discrepancies)
            exit_code = EXIT_NEGATIVE
        elif not rep.verdict and rep.adjoint_found and not audit.failing_items(mode):
            exit_code = EXIT_INCONCLUSIVE
            witnesses.append("negative verdict not witnessed within the census bound")
    doc = _report("monadic", rep.verdict, mode=mode, witnesses=witnesses,
                  census=census, durations={"audited": census.get("audited_items", 0)},
                  extra=extra)
    _emit(doc, args)
    return exit_code


def _cmd_paste(args) -> int:
    first = load_adjunction_file(args.inner)
    second = load_adjunction_file(args.outer)
    if args.direction == "paste":
        report = paste_adjunction(first, second, "paste")
    else:
        # unpaste: --outer carries the composite, --inner the factor
        report = paste_adjunction(second, first, "unpaste")
    extra = {"pasting": report.to_dict()}
    if report.valid and report.outer is not None and args.direction == "paste":
        extra["outer_sharp"] = report.outer.to_dict()["sharp"]
    if report.valid and report.inner is not None and args.direction == "unpaste":
        extra["inner_sharp"] = report.inner.to_dict()["sharp"]
    doc = _report("paste", report.valid, witnesses=report.notes, extra=extra)
    _emit(doc, args)
    return EXIT_PASS if report.valid else EXIT_NEGATIVE


def _cmd_composite(args) -> int:
    j = load_functor_file(args.j)
    rprime = load_functor_file(args.rprime)
    r = load_functor_file(args.r)
    mode = "nonstrict" if args.nonstrict else "strict"
    rep = decide_composite_monadicity(j, rprime, r, mode)
    doc = _report("composite", rep.inner.verdict, mode=mode,
                  census={"biconditional": rep.biconditional},
                  extra={"composite": rep.to_dict()})
    _emit(doc, args)
    return EXIT_PASS if rep.inner.verdict else EXIT_NEGATIVE


def _cmd_suite(args) -> int:
    if args.corpus:
        root = Path(args.corpus)
        if not root.is_dir():
            raise ParseFailure(str(root), "--corpus must be a directory of instance bundles")
        instances = []
        for sub in sorted(p for p in root.iterdir() if p.is_dir()):
            instances.append(corpus.load_instance(sub))
        if not instances:
            raise ParseFailure(str(root), "no instance bundles found")
    else:
        instances = corpus.builtin_corpus()
    shapes = default_shape_family()[: args.shapes] if args.shapes else default_shape_family()
    suite = run_theorem_suite(instances, shapes, args.cap)
    if suite.input_errors:
        doc = _report("suite", False, witnesses=suite.input_errors,
                      census={"instances": len(instances)},
                      extra={"suite": suite.to_dict()})
        _emit(doc, args)
        return EXIT_INPUT_ERROR
    checked = {r.name: r.checked for r in suite.results}
    doc = _report("suite", suite.passed,
                  witnesses=[d for r in suite.results for d in r.details if not r.passed],
                  census={"instances": len(instances),
                          "theorems": len(suite.results)},
                  durations=checked,
                  extra={"suite": suite.to_dict()})
    _emit(doc, args)
    return EXIT_PASS if suite.passed else EXIT_NEGATIVE


# ---------------------------------------------------------------------------


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _add_mode_flags(p) -> None:
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true")
    mode.add_argument("--nonstrict", action="store_true")


def _add_bounds(p) -> None:
    p.add_argument("--shapes", type=_non_negative_int, default=0)
    p.add_argument("--cap", type=_non_negative_int, default=DEFAULT_ELEMENT_CAP)


def _required(*flags):
    """An add-arguments function for the required options flags, in order."""

    def add(p) -> None:
        for flag in flags:
            p.add_argument(flag, required=True)
    return add


def _validate_arguments(p) -> None:
    p.add_argument("file")


def _monad_arguments(p) -> None:
    p.add_argument("action", choices=["validate", "enumerate"])
    p.add_argument("file", nargs="?")
    p.add_argument("--j")


def _monadic_arguments(p) -> None:
    p.add_argument("--j", required=True)
    p.add_argument("--r", required=True)
    _add_mode_flags(p)
    p.add_argument("--co", action="store_true")
    p.add_argument("--audit", action="store_true")
    _add_bounds(p)


def _paste_arguments(p) -> None:
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--direction", choices=["paste", "unpaste"], required=True)


def _composite_arguments(p) -> None:
    p.add_argument("--j", required=True)
    p.add_argument("--rprime", required=True)
    p.add_argument("--r", required=True)
    _add_mode_flags(p)


def _suite_arguments(p) -> None:
    p.add_argument("--corpus")
    _add_bounds(p)


# (name, help, add-arguments function, handler) per subcommand, in help order;
# every subcommand also takes --report, added last
COMMANDS = (
    ("validate", "validate a category/functor/monad/adjunction file or bundle",
     _validate_arguments, _cmd_validate),
    ("density", "is the functor a dense root?", _required("--j"), _cmd_density),
    ("adjoint", "search for a left relative adjoint", _required("--j", "--r"), _cmd_adjoint),
    ("monad", "validate or enumerate relative monads", _monad_arguments, _cmd_monad),
    ("algebras", "enumerate algebras of a monad", _required("--monad"), _cmd_algebras),
    ("monadic", "decide relative monadicity", _monadic_arguments, _cmd_monadic),
    ("paste", "paste or unpaste relative adjunctions", _paste_arguments, _cmd_paste),
    ("composite", "composite monadicity biconditional", _composite_arguments, _cmd_composite),
    ("suite", "run the theorem cross-validation suite", _suite_arguments, _cmd_suite),
)


def build_parser(command=None) -> _Parser:
    """The relmon parser, with only command's subparser when command names
    one, else with every subparser.

    The top-level parser has no option but -h, and a subparser takes every
    argument after its name, so on an argv that starts with command the
    one-subparser parser gives the same namespace, help and usage errors
    as the full one.
    """

    parser = _Parser(prog="relmon",
                     description="finite-category engine for relative monadicity")
    sub = parser.add_subparsers(dest="command", required=True)
    named = any(name == command for name, _, _, _ in COMMANDS)
    for name, help_text, add_arguments, handler in COMMANDS:
        if named and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.add_argument("--report")
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"relmon: usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"relmon: usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except _ReportUnwritable:
        return EXIT_INPUT_ERROR
    except BudgetExceeded as exc:
        return _fail(args, EXIT_BUDGET, str(exc))
    except ValidationFailure as exc:
        return _fail(args, EXIT_INPUT_ERROR, str(exc), [str(v) for v in exc.violations])
    except RelmonError as exc:
        return _fail(args, EXIT_INPUT_ERROR, str(exc))


if __name__ == "__main__":
    sys.exit(main())
