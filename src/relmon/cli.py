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
import json
import sys
from pathlib import Path

from . import corpus
from .colim import is_dense
from .errors import (
    BudgetExceeded,
    ParseFailure,
    RelmonError,
    ValidationFailure,
)
from .fincat import check_name_map, split_keys, validate_category, validate_functor
from .monad import enumerate_relative_monads, validate_relative_monad
from .monadicity import (
    DEFAULT_ELEMENT_CAP,
    creation_audit,
    decide_composite_monadicity,
    decide_monadicity,
    default_shape_family,
    run_theorem_suite,
)
from .reladj import find_left_relative_adjoint, paste_adjunction, validate_relative_adjunction

EXIT_PASS = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_BUDGET = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# input loading


def _load_doc(path_or_obj, base: Path):
    if isinstance(path_or_obj, dict):
        return path_or_obj
    p = Path(path_or_obj)
    if not p.is_absolute():
        p = base / p
    return corpus.load_json(p)


def load_functor_file(path):
    """A standalone functor document: dom/cod inline or as relative paths."""

    base = Path(path).parent
    doc = corpus.load_json(path)
    for key in ("dom", "cod", "on_objects", "on_morphisms"):
        if key not in doc:
            raise ParseFailure(str(path), f"functor file missing {key!r}")
    dom = validate_category(_load_doc(doc["dom"], base), name="dom")
    cod = validate_category(_load_doc(doc["cod"], base), name="cod")
    return validate_functor(doc, dom, cod, name=str(path))


def load_monad_file(path):
    base = Path(path).parent
    doc = corpus.load_json(path)
    for key in ("j", "t", "unit", "ext"):
        if key not in doc:
            raise ParseFailure(str(path), f"monad file missing {key!r}")
    j = _functor_from_doc(doc["j"], base, "j")
    t = _functor_from_doc(doc["t"], base, "t")
    unit = check_name_map(doc["unit"], f"{path}: unit")
    ext = split_keys(doc["ext"], 3, f"{path}: ext")
    return validate_relative_monad(j, t, unit, ext, name=str(path))


def _functor_from_doc(doc, base, name):
    if isinstance(doc, str):
        p = Path(doc)
        if not p.is_absolute():
            p = base / p
        return load_functor_file(p)
    dom = validate_category(_load_doc(doc["dom"], base), name=f"{name}.dom")
    cod = validate_category(_load_doc(doc["cod"], base), name=f"{name}.cod")
    return validate_functor(doc, dom, cod, name=name)


def load_adjunction_file(path):
    base = Path(path).parent
    doc = corpus.load_json(path)
    for key in ("j", "l", "r", "sharp"):
        if key not in doc:
            raise ParseFailure(str(path), f"adjunction file missing {key!r}")
    j = _functor_from_doc(doc["j"], base, "j")
    left = _functor_from_doc(doc["l"], base, "l")
    right = _functor_from_doc(doc["r"], base, "r")
    sharp = split_keys(doc["sharp"], 3, f"{path}: sharp")
    return validate_relative_adjunction(j, left, right, sharp, name=str(path))


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


def _emit(doc: dict, args, out=sys.stdout) -> None:
    if getattr(args, "report", None):
        corpus.save_json(doc, args.report)
    if doc.get("error"):
        print(f"{doc['command']}: error: {doc['error']}", file=out)
        return
    verdict = doc["verdict"]
    tag = {True: "PASS", False: "FAIL", None: "-"}.get(verdict, str(verdict))
    print(f"{doc['command']}: {tag}", file=out)
    for key, value in sorted(doc.get("census", {}).items()):
        print(f"  {key}: {value}", file=out)
    for w in doc["witnesses"][:8]:
        print(f"  witness: {w}", file=out)


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
            validate_category(raw, name=str(path))
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
        extra["adjunction"] = {"l": adj.left.to_dict(),
                               "sharp": {f"{a}|{c}|{k}": v for ((a, c, k), v) in adj.sharp_table()}}
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
    from .algebra import enumerate_algebras
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
    j = load_functor_file(args.j)
    r = load_functor_file(args.r)
    mode = "nonstrict" if args.nonstrict else "strict"
    rep = decide_monadicity(j, r, mode, co=args.co)
    census = {"algebras": (rep.algebra_category_size or (0, 0))[0],
              "adjoint_found": rep.adjoint_found,
              "dense_root": rep.dense_root}
    witnesses = [] if rep.verdict else [rep.reason]
    exit_code = EXIT_PASS if rep.verdict else EXIT_NEGATIVE
    extra = {"decision": rep.to_dict()}
    if args.audit:
        if args.co:
            raise _UsageError("--audit with --co is not supported; audit the dual inputs directly")
        shapes = default_shape_family()[: args.shapes] if args.shapes else default_shape_family()
        audit = creation_audit(j, r, shapes, args.cap,
                               reports={"strict": rep if mode == "strict" else decide_monadicity(j, r, "strict"),
                                        "nonstrict": rep if mode == "nonstrict" else decide_monadicity(j, r, "nonstrict")})
        extra["audit"] = audit.to_dict()
        census["audited_items"] = len(audit.items)
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
        extra["outer_sharp"] = {f"{a}|{c}|{k}": v for ((a, c, k), v) in report.outer.sharp_table()}
    if report.valid and report.inner is not None and args.direction == "unpaste":
        extra["inner_sharp"] = {f"{a}|{c}|{k}": v for ((a, c, k), v) in report.inner.sharp_table()}
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


def _add_mode_flags(p) -> None:
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true")
    mode.add_argument("--nonstrict", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="relmon",
                     description="finite-category engine for relative monadicity")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a category/functor/monad/adjunction file or bundle")
    p.add_argument("file")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("density", help="is the functor a dense root?")
    p.add_argument("--j", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("adjoint", help="search for a left relative adjoint")
    p.add_argument("--j", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_adjoint)

    p = sub.add_parser("monad", help="validate or enumerate relative monads")
    p.add_argument("action", choices=["validate", "enumerate"])
    p.add_argument("file", nargs="?")
    p.add_argument("--j")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_monad)

    p = sub.add_parser("algebras", help="enumerate algebras of a monad")
    p.add_argument("--monad", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_algebras)

    p = sub.add_parser("monadic", help="decide relative monadicity")
    p.add_argument("--j", required=True)
    p.add_argument("--r", required=True)
    _add_mode_flags(p)
    p.add_argument("--co", action="store_true")
    p.add_argument("--audit", action="store_true")
    p.add_argument("--shapes", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_monadic)

    p = sub.add_parser("paste", help="paste or unpaste relative adjunctions")
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--direction", choices=["paste", "unpaste"], required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_paste)

    p = sub.add_parser("composite", help="composite monadicity biconditional")
    p.add_argument("--j", required=True)
    p.add_argument("--rprime", required=True)
    p.add_argument("--r", required=True)
    _add_mode_flags(p)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_composite)

    p = sub.add_parser("suite", help="run the theorem cross-validation suite")
    p.add_argument("--corpus")
    p.add_argument("--shapes", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
    except BudgetExceeded as exc:
        doc = _report(args.command, None, error=str(exc))
        _emit(doc, args, out=sys.stderr)
        return EXIT_BUDGET
    except (ParseFailure, FileNotFoundError) as exc:
        doc = _report(args.command, None, error=str(exc))
        _emit(doc, args, out=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValidationFailure as exc:
        doc = _report(args.command, None, error=str(exc),
                      witnesses=[str(v) for v in exc.violations])
        _emit(doc, args, out=sys.stderr)
        return EXIT_INPUT_ERROR
    except RelmonError as exc:
        doc = _report(args.command, None, error=str(exc))
        _emit(doc, args, out=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
