"""The benchmark's three workloads: seeded inputs, one timed pass, answer checks.

``suite``      runs the theorem suite on the builtin corpus, as ``relmon suite``.
``enumerate``  runs ``relmon monad enumerate`` and then ``relmon algebras`` on
               every monad found, on deloopings of small monoids and on
               generated categories.
``audit``      runs ``relmon monadic --audit`` on generated categories.

The question structures of ``enumerate`` and ``audit`` are fixed, so every
seed asks for the same amount of search.  The seed draws a fresh name for
every object and morphism and the order of the questions.  Renaming keeps
the sort order of names, so the engine walks the same candidates in the
same order, and mapping the names of a report back gives the report of the
unrenamed question.  Its digest is compared with the one recorded in
``expected.json``.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import itertools
import json
import random
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from relmon import cli, corpus, monadicity
from relmon.fincat import enumerate_functors, identity_functor

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

# Renamed names: "Q" and six characters; equal length keeps string order.
TOKEN = re.compile(r"Q[0-9A-Z]{6}")
ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def relmon_modules() -> dict:
    return {name: importlib.import_module(f"relmon.{name}") for name in tracing.MODULES}


def load_oracles():
    """tools/compute_oracles.py, the package-independent brute force."""

    spec = importlib.util.spec_from_file_location("compute_oracles", ROOT / "tools" / "compute_oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# renaming


def rename_map(names, rng: random.Random) -> dict:
    """Order-preserving map from names to fresh random tokens."""

    names = sorted(set(names))
    tokens = set()
    while len(tokens) < len(names):
        tokens.add("Q" + "".join(rng.choice(ALPHABET) for _ in range(6)))
    return dict(zip(names, sorted(tokens)))


def rename_category(doc: dict, m: dict) -> dict:
    def comp_key(key):
        f, _, g = key.partition(";")
        return f"{m[f]};{m[g]}"
    return {
        "objects": [m[x] for x in doc["objects"]],
        "morphisms": [{"name": m[f["name"]], "dom": m[f["dom"]], "cod": m[f["cod"]]}
                      for f in doc["morphisms"]],
        "identities": {m[x]: m[f] for x, f in doc["identities"].items()},
        "composition": {comp_key(k): m[h] for k, h in doc["composition"].items()},
    }


def category_names(doc: dict) -> set:
    return set(doc["objects"]) | {f["name"] for f in doc["morphisms"]}


def restore_names(obj, inverse: dict):
    """Map every renamed token in a report back to the original name."""

    if isinstance(obj, dict):
        return {restore_names(k, inverse): restore_names(v, inverse) for k, v in obj.items()}
    if isinstance(obj, list):
        return [restore_names(v, inverse) for v in obj]
    if isinstance(obj, str) and inverse:
        return TOKEN.sub(lambda hit: inverse.get(hit.group(0), hit.group(0)), obj)
    return obj


def canonical_digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# question structures


@dataclass
class Question:
    """One CLI question chain on explicit tables, before renaming.

    categories: name -> category document; functors: file stem -> (dom
    name, cod name, object map, morphism map), written with both categories
    inline.  monoid is the
    multiplication table of a point-rooted delooping, checked by the oracle.
    """

    key: str
    categories: dict
    functors: dict
    monoid: dict = None


def _cyclic(n: int) -> dict:
    els = [f"g{i}" for i in range(n)]
    return {(els[a], els[b]): els[(a + b) % n] for a in range(n) for b in range(n)}


def _left_zero(n: int) -> dict:
    """A unit e plus n - 1 left zeros: z;x = z."""

    els = ["e"] + [f"z{i}" for i in range(n - 1)]
    return {(a, b): (b if a == "e" else a) for a in els for b in els}


def _bm3() -> dict:
    return dict(load_oracles().BM3)


def _functor_entry(F, dom: str, cod: str) -> tuple:
    return (dom, cod, dict(F.on_objects), dict(F.on_morphisms))


def _root_question(key: str, j, root: str, monoid=None) -> Question:
    E = j.cod.to_dict()
    if root == "id":
        return Question(key, {"E": E}, {"j": _functor_entry(j, "E", "E")}, monoid)
    return Question(key, {"A": j.dom.to_dict(), "E": E}, {"j": _functor_entry(j, "A", "E")}, monoid)


# Deloopings: every monoid with a point root, the small ones with the
# identity root too; the last three exceed the default budget (exit 4).
DELOOPINGS = (("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z5", 5), ("LZ2", 2), ("LZ3", 3),
              ("LZ4", 4), ("BM3", 3))
IDENTITY_ROOTED = ("Z2", "Z3", "LZ2", "LZ3", "BM3")
REFUSED = (("Z7", 7), ("Z8", 8), ("LZ7", 7))
# Generated categories: (objects, max_hom, root, generation seeds).
GENERATED_ENUMERATE = ((1, 3, "id", range(0, 10)), (2, 1, "id", range(0, 10)),
                       (2, 2, "pt", range(0, 10)), (2, 2, "id", range(10, 14)))
# Audit: E from (objects, max_hom), D from (objects, max_hom), generation
# seeds, and the number of functors D -> E tried as r besides the identity.
GENERATED_AUDIT = (((1, 3), (1, 2), range(0, 7), 4), ((2, 1), (1, 2), range(0, 3), 4))


def _monoid(name: str, n: int) -> dict:
    if name == "BM3":
        return _bm3()
    return _cyclic(n) if name.startswith("Z") else _left_zero(n)


def enumerate_questions() -> list:
    out = []
    for name, n in DELOOPINGS + REFUSED:
        table = _monoid(name, n)
        C = corpus.delooping(table, name=name)
        oracle = table if (name, n) in DELOOPINGS else None
        out.append(_root_question(f"delooping/{name}/pt", corpus.point_functor(C, "*"), "pt", oracle))
        if name in IDENTITY_ROOTED:
            out.append(_root_question(f"delooping/{name}/id", identity_functor(C), "id"))
    for objects, max_hom, root, seeds in GENERATED_ENUMERATE:
        for g in seeds:
            E = corpus.generate_category(g, objects, max_hom)
            j = identity_functor(E) if root == "id" else corpus.point_functor(E, E.objects[0])
            out.append(_root_question(f"generated/{objects}/{max_hom}/{g}/{root}", j, root))
    return out


def audit_questions() -> list:
    out = []
    for (eo, eh), (do, dh), seeds, k in GENERATED_AUDIT:
        out.extend(_audit_questions(eo, eh, do, dh, seeds, k))
    return out


def _audit_questions(eo, eh, do, dh, seeds, k) -> list:
    out = []
    for g in seeds:
        E = corpus.generate_category(g, eo, eh)
        D = corpus.generate_category(g + 1000, do, dh)
        roots = {"id": identity_functor(E), "pt": corpus.point_functor(E, E.objects[0])}
        rs = {"id": identity_functor(E)}
        for i, F in enumerate(itertools.islice(enumerate_functors(D, E), k)):
            rs[f"f{i}"] = F
        for jname, j in roots.items():
            for rname, r in rs.items():
                cats = {"E": E.to_dict(), "D": D.to_dict()}
                funs = {"r": _functor_entry(r, "D" if rname != "id" else "E", "E")}
                if jname == "pt":
                    cats["A"] = j.dom.to_dict()
                    funs["j"] = _functor_entry(j, "A", "E")
                else:
                    funs["j"] = _functor_entry(j, "E", "E")
                out.append(Question(f"generated/{eo}/{eh}/{g}/{jname}/{rname}", cats, funs))
    return out


# ---------------------------------------------------------------------------
# outcomes and checks


@dataclass
class Outcome:
    key: str
    exit: object
    seconds: float
    report: bytes = None
    error: str = None
    problems: list = field(default_factory=list)
    doc: dict = None
    digest: str = None


def run_cli(key: str, argv: list, report: Path, clock) -> Outcome:
    start = clock()
    try:
        code, error = cli.main(argv + ["--report", str(report)]), None
    except Exception:   # a traceback escaping the CLI fails the item, not the run
        code, error = None, traceback.format_exc()
    elapsed = clock() - start
    raw = report.read_bytes() if report.exists() else None
    return Outcome(key, code, elapsed, raw, error)


class QuestionWorkload:
    """enumerate or audit: write renamed inputs, ask, check against records."""

    def __init__(self, name: str, seed, workdir: Path):
        self.name = name
        questions = enumerate_questions() if name == "enumerate" else audit_questions()
        rng = random.Random(seed) if seed is not None else None
        if rng is not None:
            rng.shuffle(questions)
        self.oracles = load_oracles()
        self.expected_answers = {}
        self.workdir = workdir
        self.jobs = []    # (question, file tag, renamed categories, inverse name map)
        for i, q in enumerate(questions):
            names = set().union(*(category_names(doc) for doc in q.categories.values()))
            m = rename_map(names, rng) if rng is not None else {n: n for n in names}
            # one flat directory and categories inline in the functor files:
            # creating files is the noisiest part of set-up on ext4
            tag = f"q{i:03d}"
            cats = {stem: rename_category(doc, m) if rng else doc for stem, doc in q.categories.items()}
            for stem, (dom, cod, on_ob, on_mor) in q.functors.items():
                write_json({"dom": cats[dom], "cod": cats[cod],
                            "on_objects": {m[a]: m[b] for a, b in on_ob.items()},
                            "on_morphisms": {m[a]: m[b] for a, b in on_mor.items()}},
                           self.file(tag, stem))
            if q.monoid is not None:
                self.expected_answers[q.key] = self._oracle(q.monoid)
            inverse = {v: k for k, v in m.items()} if rng is not None else {}
            self.jobs.append((q, tag, cats, inverse))

    def file(self, tag: str, stem: str) -> Path:
        return self.workdir / f"{tag}-{stem}.json"

    def _oracle(self, table: dict) -> list:
        """(unit, extension, algebras) of every monad over the point, by brute force."""

        out = []
        for mon in self.oracles.relative_monads_over_point(table):
            algebras = self.oracles.algebras_over_point(table, mon)
            out.append((mon["eta"], sorted(mon["dagger"].items()),
                        sorted(sorted(alpha.items()) for alpha in algebras)))
        return sorted(out)

    def run(self, clock=time.perf_counter) -> dict:
        outcomes = []
        start = clock()
        for q, tag, cats, _ in self.jobs:
            if self.name == "enumerate":
                outcomes.extend(self._enumerate_chain(q, tag, cats, clock))
            else:
                outcomes.append(run_cli(q.key, ["monadic", "--j", str(self.file(tag, "j")), "--r",
                                                str(self.file(tag, "r")), "--audit"], self.file(tag, "report"),
                                        clock))
        wall = clock() - start
        return {"wall_s": wall, "outcomes": outcomes}

    def _enumerate_chain(self, q: Question, tag: str, cats: dict, clock) -> list:
        first = run_cli(q.key, ["monad", "enumerate", "--j", str(self.file(tag, "j"))], self.file(tag, "monads"),
                        clock)
        out = [first]
        if first.exit != 0 or first.report is None:
            return out
        dom = cats["A"] if "A" in cats else cats["E"]
        for i, mon in enumerate(json.loads(first.report)["monads"]):
            path = self.file(tag, f"monad{i}")
            write_json({"j": self.file(tag, "j").name, "t": {"dom": dom, "cod": cats["E"], **mon["carrier"]},
                        "unit": mon["unit"], "ext": mon["ext"]}, path)
            out.append(run_cli(f"{q.key}/monad{i}", ["algebras", "--monad", str(path)],
                               self.file(tag, f"algebras{i}"), clock))
        return out

    def _read_reports(self, outcomes: list) -> dict:
        """Set each outcome's report with names mapped back, and its digest."""

        inverse_of = {q.key: inv for q, _, _, inv in self.jobs}
        by_question = {}
        for o in outcomes:
            qkey = o.key.split("/monad")[0]
            by_question.setdefault(qkey, []).append(o)
            if o.report:
                o.doc = restore_names(json.loads(o.report), inverse_of[qkey])
                o.digest = canonical_digest(o.doc)
        return by_question

    def check(self, outcomes: list, expected: dict) -> None:
        """Record in each outcome's problems why its answer is wrong."""

        by_question = self._read_reports(outcomes)
        for o in outcomes:
            if o.error:
                o.problems.append("traceback: " + o.error.strip().splitlines()[-1])
            if o.exit == cli.EXIT_INPUT_ERROR:
                o.problems.append("exit 3 (input error)")
            want = expected.get(o.key)
            if want is None:
                o.problems.append("no recorded answer")
            elif want["exit"] != o.exit:
                o.problems.append(f"exit {o.exit}, recorded {want['exit']}")
            elif want["sha256"] != o.digest:
                o.problems.append("report differs from the record")
            if self.name == "audit" and o.doc is not None:
                o.problems.extend(audit_invariants(o.doc))
        for q, _, _, _ in self.jobs:
            if q.key in self.expected_answers:
                got = oracle_view(by_question[q.key])
                if got != self.expected_answers[q.key]:
                    by_question[q.key][0].problems.append("differs from the brute-force oracle")

    def record(self, outcomes: list) -> dict:
        self._read_reports(outcomes)
        return {o.key: {"exit": o.exit, "sha256": o.digest} for o in outcomes}


def oracle_view(outcomes: list) -> list:
    """The engine's point-rooted answers in the oracle's shape."""

    first, algebra_runs = outcomes[0], outcomes[1:]
    if first.doc is None:
        return None
    out = []
    for mon, run in zip(first.doc["monads"], algebra_runs):
        (eta,) = mon["unit"].values()
        dagger = sorted((key.split("|")[2], g) for key, g in mon["ext"].items())
        algebras = sorted(sorted((key.split("|")[1], g) for key, g in alg["alpha"].items())
                          for alg in (run.doc or {}).get("algebras", []))
        out.append((eta, dagger, algebras))
    return sorted(out)


def audit_invariants(doc: dict) -> list:
    problems = []
    decision = doc.get("decision") or {}
    comparison = decision.get("comparison") or {}
    if decision.get("verdict") and not comparison.get("is_equivalence"):
        problems.append("strict verdict without a nonstrict one")
    audit = doc.get("audit") or {}
    for item in audit.get("items", []):
        if item["strict_pass"] and item["nonstrict_pass"] is False:
            problems.append("audited item created strictly but not non-strictly")
            break
    if audit.get("dense_root") and audit.get("discrepancies"):
        problems.append("dense root with discrepancies")
    return problems


# ---------------------------------------------------------------------------
# suite


class SuiteWorkload:
    """run_theorem_suite on the builtin corpus with the default shapes and cap."""

    name = "suite"

    def __init__(self):
        self.instances = corpus.builtin_corpus()

    def run(self, clock=time.perf_counter) -> dict:
        start = clock()
        report = monadicity.run_theorem_suite(self.instances)
        wall = clock() - start
        return {"wall_s": wall, "report": report}

    @staticmethod
    def observe(report) -> dict:
        return {"checked": {r.name: r.checked for r in report.results},
                "passed": {r.name: r.passed for r in report.results},
                "sha256": canonical_digest(report.to_dict())}

    def check(self, report, expected: dict) -> list:
        """Outcomes, one per theorem, with problems against the record."""

        seen = self.observe(report)
        outcomes = []
        for theorem in tracing.THEOREMS:
            o = Outcome(theorem, 0, 0.0)
            if theorem not in seen["checked"]:
                o.problems.append("theorem missing from the report")
            else:
                if not seen["passed"][theorem]:
                    o.problems.append("theorem failed")
                if seen["checked"][theorem] != expected["checked"].get(theorem):
                    o.problems.append(f"checked {seen['checked'][theorem]} "
                                      f"(recorded {expected['checked'].get(theorem)})")
            if seen["sha256"] != expected["sha256"]:
                o.problems.append("suite report digest differs from the record")
            outcomes.append(o)
        return outcomes


def make(name: str, seed, workdir: Path):
    if name == "suite":
        return SuiteWorkload()
    return QuestionWorkload(name, seed, workdir)
