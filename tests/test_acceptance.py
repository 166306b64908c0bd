"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -v tests/test_acceptance.py` to see one line per criterion;
the shared theorem-suite run is reused across criteria so the whole module
stays inside its runtime bounds.
"""

import json
import random
import time

import pytest

from relmon import corpus
from relmon.algebra import build_algebra_category, enumerate_algebras, verify_algebra_object
from relmon.cli import main as cli_main
from relmon.colim import is_dense
from relmon.errors import ValidationFailure
from relmon.fincat import FunctorData, build_category, classify_functor, validate_category
from relmon.monad import enumerate_relative_monads, monad_violations, trivial_relative_monad, monad_from_adjunction
from relmon.monadicity import Run, creation_audit, decide_monadicity, run_theorem_suite
from relmon.reladj import adjunction_violations
from relmon.prof import enumerate_graded_cells, hom_distributor
from relmon.fincat import identity_functor

from .reference import enumerate_natural_transformations

SEED = 20260808


@pytest.fixture(scope="module")
def instances():
    return corpus.builtin_corpus()


@pytest.fixture(scope="module")
def suite_run(instances):
    start = time.monotonic()
    report = run_theorem_suite(instances)
    elapsed = time.monotonic() - start
    return report, elapsed


def _row(suite_report, name):
    return next(r for r in suite_report.results if r.name == name)


def _verdict(criterion, ok, note=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" ({note})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: law suites and mutation rejection, < 10 s


def _mutation_sites(instances):
    """Every single-entry mutation of composition/monad/adjunction tables."""

    sites = []
    for inst in instances:
        for role in sorted(inst.categories):
            C = inst.categories[role]
            for (f, g), h in sorted(C.composition.items()):
                for alt in C.morphism_names():
                    if alt != h and C.dom(alt) == C.dom(f) and C.cod(alt) == C.cod(g):
                        sites.append(("category", inst.name, role, (f, g), alt))
        for role in sorted(inst.monads):
            T = inst.monads[role]
            E = T.j.cod
            for (a, b, f), g in sorted(T.ext.items()):
                for alt in E.hom(E.dom(g), E.cod(g)):
                    if alt != g:
                        sites.append(("monad_ext", inst.name, role, (a, b, f), alt))
            for a in sorted(T.unit):
                cur = T.eta(a)
                for alt in E.hom(E.dom(cur), E.cod(cur)):
                    if alt != cur:
                        sites.append(("monad_unit", inst.name, role, a, alt))
        for role in sorted(inst.adjunctions):
            adj = inst.adjunctions[role]
            E = adj.j.cod
            for (a, c, k), v in sorted(adj.sharp.items()):
                for alt in E.hom(E.dom(v), E.cod(v)):
                    if alt != v:
                        sites.append(("adjunction", inst.name, role, (a, c, k), alt))
    return sites


# independent law oracles: direct loops over the mutated tables, sharing no
# code with the validators under test


def _oracle_category_ok(raw):
    dom = {m["name"]: m["dom"] for m in raw["morphisms"]}
    cod = {m["name"]: m["cod"] for m in raw["morphisms"]}
    comp = {}
    for key, h in raw["composition"].items():
        f, _, g = key.partition(";")
        comp[(f, g)] = h
    idm = raw["identities"]
    for f in dom:
        if comp[(idm[dom[f]], f)] != f or comp[(f, idm[cod[f]])] != f:
            return False
    for f in dom:
        for g in dom:
            if cod[f] != dom[g]:
                continue
            for h in dom:
                if cod[g] != dom[h]:
                    continue
                if comp[(comp[(f, g)], h)] != comp[(f, comp[(g, h)])]:
                    return False
    return True


def _oracle_monad_ok(T, unit, ext):
    E, A = T.j.cod, T.j.dom
    for h in A.morphism_names():
        a, a2 = A.dom(h), A.cod(h)
        if E.comp(T.j.mor(h), unit[a2]) != E.comp(unit[a], T.t.mor(h)):
            return False
    for a in A.objects:
        if ext[(a, a, unit[a])] != E.id_of(T.t.ob(a)):
            return False
        for b in A.objects:
            for f in E.hom(T.j.ob(a), T.t.ob(b)):
                if E.comp(unit[a], ext[(a, b, f)]) != f:
                    return False
    for h in A.morphism_names():
        a2, a = A.dom(h), A.cod(h)
        for k in A.morphism_names():
            b, b2 = A.dom(k), A.cod(k)
            for f in E.hom(T.j.ob(a), T.t.ob(b)):
                if ext[(a2, b2, E.comp_many(T.j.mor(h), f, T.t.mor(k)))] != \
                        E.comp_many(T.t.mor(h), ext[(a, b, f)], T.t.mor(k)):
                    return False
    for a in A.objects:
        for b in A.objects:
            for c in A.objects:
                for f in E.hom(T.j.ob(a), T.t.ob(b)):
                    for g in E.hom(T.j.ob(b), T.t.ob(c)):
                        if ext[(a, c, E.comp(f, ext[(b, c, g)]))] != \
                                E.comp(ext[(a, b, f)], ext[(b, c, g)]):
                            return False
    return True


def _oracle_adjunction_ok(adj, sharp):
    A, C, E = adj.j.dom, adj.apex, adj.j.cod
    for a in A.objects:
        for c in C.objects:
            source = C.hom(adj.left.ob(a), c)
            target = E.hom(adj.j.ob(a), adj.right.ob(c))
            images = [sharp[(a, c, k)] for k in source]
            if len(set(images)) != len(source) or set(images) != set(target):
                return False
    for a in A.objects:
        for c in C.objects:
            for k in C.hom(adj.left.ob(a), c):
                for m in C.morphism_names():
                    if C.dom(m) != c:
                        continue
                    if sharp[(a, C.cod(m), C.comp(k, m))] != \
                            E.comp(sharp[(a, c, k)], adj.right.mor(m)):
                        return False
    for h in A.morphism_names():
        a2, a = A.dom(h), A.cod(h)
        for c in C.objects:
            for k in C.hom(adj.left.ob(a), c):
                if sharp[(a2, c, C.comp(adj.left.mor(h), k))] != \
                        E.comp(adj.j.mor(h), sharp[(a, c, k)]):
                    return False
    return True


def _apply_mutation(instances, site):
    """(engine_rejects, witnesses_located, oracle_rejects) for one mutation."""

    kind, iname, role, key, alt = site
    inst = next(i for i in instances if i.name == iname)
    if kind == "category":
        C = inst.categories[role]
        raw = C.to_dict()
        raw["composition"][f"{key[0]};{key[1]}"] = alt
        oracle_bad = not _oracle_category_ok(raw)
        try:
            validate_category(raw)
            return False, False, oracle_bad
        except ValidationFailure as exc:
            return True, all(v.witness for v in exc.violations), oracle_bad
    if kind == "monad_ext":
        T = inst.monads[role]
        ext = dict(T.ext)
        ext[key] = alt
        violations = monad_violations(T.j, T.t, T.unit, ext)
        oracle_bad = not _oracle_monad_ok(T, T.unit, ext)
        return bool(violations), all(v.witness for v in violations), oracle_bad
    if kind == "monad_unit":
        T = inst.monads[role]
        unit = dict(T.unit)
        unit[key] = alt
        violations = monad_violations(T.j, T.t, unit, T.ext)
        oracle_bad = not _oracle_monad_ok(T, unit, T.ext)
        return bool(violations), all(v.witness for v in violations), oracle_bad
    adj = inst.adjunctions[role]
    sharp = dict(adj.sharp)
    sharp[key] = alt
    violations = adjunction_violations(adj.j, adj.left, adj.right, sharp)
    oracle_bad = not _oracle_adjunction_ok(adj, sharp)
    return bool(violations), all(v.witness for v in violations), oracle_bad


def test_criterion_1_law_suites_and_mutations(instances):
    start = time.monotonic()
    ok = len(instances) >= 12
    for inst in instances:
        if corpus.validate_instance(inst):
            ok = False
    pool = _mutation_sites(instances)
    assert len(pool) >= 100
    rng = random.Random(SEED)
    rng.shuffle(pool)
    rejected = 0
    lawful_mutants = 0
    agreement = True
    for site in pool:
        engine_rejects, located, oracle_rejects = _apply_mutation(instances, site)
        if engine_rejects != oracle_rejects:
            agreement = False
            break
        if engine_rejects:
            if not located:
                agreement = False
                break
            rejected += 1
            if rejected == 100:
                break
        else:
            # rare lawful mutants (e.g. s;s -> s turns BZ2 into the
            # idempotent two-element monoid); both checkers must accept
            lawful_mutants += 1
    elapsed = time.monotonic() - start
    _verdict("1 (law suites + 100 mutations)",
             ok and agreement and rejected == 100 and elapsed < 10.0,
             f"{rejected} rejected, {lawful_mutants} lawful mutants, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: resolution property


def test_criterion_2_resolution_property(instances, suite_run):
    report, _ = suite_run
    row = _row(report, "resolution_property")
    extra_ok = True
    for inst in instances:
        for role in sorted(inst.monads):
            T = inst.monads[role]
            algcat = build_algebra_category(T)
            recovered = monad_from_adjunction(algcat.adjunction)
            if recovered.table() != T.table() or recovered.t != T.t:
                extra_ok = False
    _verdict("2 (resolution property)", row.passed and extra_ok,
             f"{row.checked} adjunctions checked")


# ---------------------------------------------------------------------------
# criterion 3: conservativity and creation, < 5 min


def test_criterion_3_creation_propositions(suite_run):
    report, elapsed = suite_run
    conservative = _row(report, "forgetful_conservative")
    creates = _row(report, "forgetful_creates")
    ok = conservative.passed and creates.passed and elapsed < 300.0
    _verdict("3 (conservative + strict/nonstrict creation)", ok,
             f"{creates.checked} creation checks, suite {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 4: algebra-object universal property + negative control


def _full_subcategory(cat, keep):
    objects = [o for o in cat.objects if o in keep]
    morphisms = [(m, d, c) for (m, d, c) in cat.morphisms if d in keep and c in keep]
    names = {m for (m, _, _) in morphisms}
    identities = {o: cat.id_of(o) for o in objects}
    comp = {(f, g): h for ((f, g), h) in cat.composition.items()
            if f in names and g in names}
    return build_category(f"{cat.name}|sub", objects, morphisms, identities, comp)


def test_criterion_4_algebra_object(instances, suite_run):
    report, _ = suite_run
    row = _row(report, "algebra_object_up")

    # negative control on a corpus monad with at least two algebras
    E = corpus.interval_category()
    T = trivial_relative_monad(identity_functor(E))
    algcat = build_algebra_category(T)
    sub = _full_subcategory(algcat.category, {algcat.category.objects[0]})
    u_sub = FunctorData(sub, E, {o: algcat.u.ob(o) for o in sub.objects},
                        {m: algcat.u.mor(m) for m in sub.morphism_names()})
    alpha_sub = {k: v for k, v in algcat.alpha_T.items() if k[1] in sub.objects}
    control = verify_algebra_object(u_sub, alpha_sub, T, [corpus.terminal_category()])
    control_ok = (not control.passed) and control.clause1_failures
    _verdict("4 (algebra-object universal property)", row.passed and bool(control_ok),
             f"{row.checked} monads, negative control witnessed")


# ---------------------------------------------------------------------------
# criterion 5: monadicity cross-check over dense pairs


def test_criterion_5_monadicity_crosscheck(instances, suite_run):
    report, _ = suite_run
    row = _row(report, "monadicity_crosscheck")
    ok = row.passed
    detail = []
    # one run, and so one census, for every audit, as the suite's monadicity_crosscheck shares its run's
    run = Run()
    for inst in instances:
        root_role = inst.roles.get("root")
        if root_role is None:
            continue
        j = inst.functors[root_role]
        dense, _ = is_dense(j)
        if not dense:
            continue
        for rrole in inst.roles.get("candidates", []):
            r = inst.functors[rrole]
            reports = {m: run.resolution(j, r).report(m) for m in ("strict", "nonstrict")}
            audit = creation_audit(run, j, r)
            if audit.vacuous:
                continue
            if audit.discrepancies:
                ok = False
                detail.append(f"{inst.name}/{rrole}: discrepancy")
            for mode in ("strict", "nonstrict"):
                if reports[mode].verdict:
                    if audit.failing_items(mode):
                        ok = False
                    if audit.targeted_extension_is_forgetful is False or \
                            audit.retraction_identity is False:
                        ok = False
                else:
                    if not audit.failing_items(mode) and mode not in audit.inconclusive_at_bound:
                        ok = False
                        detail.append(f"{inst.name}/{rrole} ({mode}): no witness, bound not flagged")
    _verdict("5 (monadicity cross-check)", ok, "; ".join(detail) or f"{row.checked} pairs")


# ---------------------------------------------------------------------------
# criterion 6: degenerate root, exact


def test_criterion_6_degenerate_root(instances, suite_run):
    report, _ = suite_run
    row = _row(report, "degenerate_root")
    count = 0
    ok = row.passed
    for inst in instances:
        root_role = inst.roles.get("root")
        if root_role is None or inst.functors[root_role].dom.objects:
            continue
        j = inst.functors[root_role]
        for rrole in inst.roles.get("candidates", []):
            r = inst.functors[rrole]
            count += 1
            if decide_monadicity(j, r, "strict").verdict != classify_functor(r).is_iso:
                ok = False
    _verdict("6 (degenerate root iff iso)", ok and count >= 4, f"{count} empty-root functors")


# ---------------------------------------------------------------------------
# criterion 7: pasting biconditional


def test_criterion_7_pasting(suite_run):
    report, _ = suite_run
    row = _row(report, "pasting_composite")
    # row.checked counts (triple, mode) runs; 5 triples over 2 modes = 10
    _verdict("7 (composite pasting biconditional)", row.passed and row.checked >= 10,
             f"{row.checked} (triple, mode) runs")


# ---------------------------------------------------------------------------
# criterion 8: transport bijection


def test_criterion_8_transport(suite_run):
    report, _ = suite_run
    row = _row(report, "transport_bijection")
    _verdict("8 (algebra transport bijection)", row.passed and row.checked >= 3,
             f"{row.checked} instances")


# ---------------------------------------------------------------------------
# criterion 9: oracle equality


def test_criterion_9_oracles(instances):
    oracles = corpus.load_oracles()
    ok = True
    notes = []

    bz2 = corpus.bz2_category()
    j = corpus.point_functor(bz2, "*")
    monads = enumerate_relative_monads(j)
    if len(monads) != oracles["point_bz2"]["relative_monads"]:
        ok = False
    if sorted(T.eta("*") for T in monads) != oracles["point_bz2"]["monad_etas"]:
        ok = False
    for T in monads:
        expected = oracles["point_bz2"]["algebras_per_monad"][T.eta("*")]
        got = len(enumerate_algebras(T, corpus.terminal_category()))
        if got != expected:
            ok = False
        notes.append(f"eta={T.eta('*')}: {got} algebras")

    bm3 = corpus.bm3_category()
    j3 = corpus.point_functor(bm3, "*")
    monads3 = enumerate_relative_monads(j3)
    if len(monads3) != oracles["point_bm3"]["relative_monads"]:
        ok = False

    nats = enumerate_natural_transformations(identity_functor(bz2), identity_functor(bz2))
    if len(nats) != oracles["nat_trans_bz2_identity"]:
        ok = False
    cells = enumerate_graded_cells([hom_distributor(bz2)], identity_functor(bz2),
                                   identity_functor(bz2), hom_distributor(bz2))
    if len(cells) != oracles["graded_cells_bz2_hom_n1"]:
        ok = False
    _verdict("9 (committed oracle equality)", ok, "; ".join(notes))


# ---------------------------------------------------------------------------
# criterion 10: duality involution


def test_criterion_10_duality(suite_run):
    report, _ = suite_run
    row = _row(report, "duality_involution")
    _verdict("10 (comonadicity duality involution)", row.passed,
             f"{row.checked} dual decisions")


# ---------------------------------------------------------------------------
# criterion 11: CLI determinism and exit codes


def test_criterion_11_cli_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["suite", "--report", str(a)]) == 0
    assert cli_main(["suite", "--report", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()

    # scripted exit-code matrix
    root = tmp_path
    corpus.save_json(corpus.bz2_category().to_dict(), root / "bz2.json")
    corpus.save_json(corpus.disc2_category().to_dict(), root / "disc2.json")
    corpus.save_json(corpus.terminal_category().to_dict(), root / "terminal.json")
    corpus.save_json(corpus.empty_category().to_dict(), root / "empty.json")
    corpus.save_json({"dom": "bz2.json", "cod": "bz2.json",
                      "on_objects": {"*": "*"}, "on_morphisms": {"e": "e", "s": "s"}},
                     root / "id_bz2.json")
    corpus.save_json({"dom": "empty.json", "cod": "disc2.json",
                      "on_objects": {}, "on_morphisms": {}}, root / "empty_root.json")
    corpus.save_json({"dom": "disc2.json", "cod": "disc2.json",
                      "on_objects": {"0": "0", "1": "0"},
                      "on_morphisms": {"id0": "id0", "id1": "id0"}}, root / "noniso.json")
    corpus.save_json({"dom": "terminal.json", "cod": "disc2.json",
                      "on_objects": {"*": "0"}, "on_morphisms": {"id": "id0"}},
                     root / "point_disc2.json")

    codes = {
        "pass": cli_main(["monadic", "--j", str(root / "id_bz2.json"),
                          "--r", str(root / "id_bz2.json"), "--strict"]),
        "negative": cli_main(["monadic", "--j", str(root / "empty_root.json"),
                              "--r", str(root / "noniso.json")]),
        "inconclusive": cli_main(["monadic", "--j", str(root / "empty_root.json"),
                                  "--r", str(root / "point_disc2.json"),
                                  "--audit", "--shapes", "2", "--cap", "1"]),
        "input_error": cli_main(["validate", str(root / "missing.json")]),
    }
    import os
    os.environ["RELMON_BUDGET"] = "1"
    try:
        codes["budget"] = cli_main(["monad", "enumerate", "--j", str(root / "id_bz2.json")])
    finally:
        del os.environ["RELMON_BUDGET"]

    expected = {"pass": 0, "negative": 1, "inconclusive": 2, "input_error": 3, "budget": 4}
    matrix_ok = codes == expected
    _verdict("11 (CLI determinism + exit codes)", identical and matrix_ok,
             f"codes={codes}")
