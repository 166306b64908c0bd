"""Creation verdicts and colimiting cocones answer as the definitions do.

The suite reads creation verdicts through a run-scoped census and decides
whether a cocone is colimiting from stored colimits; these tests compare
both against direct checks over generated categories, with caches cold and
warm and in either call order.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from relmon import colim, corpus
from relmon.algebra import build_algebra_category
from relmon.census import DownstairsCensus
from relmon.colim import (
    check_creation,
    cocone_is_colimiting,
    creation_entry,
    creation_records,
    enumerate_cocones,
    is_j_absolute,
    try_weighted_colimit,
    try_weighted_limit,
)
from relmon.errors import BudgetExceeded, DownstairsMissing
from relmon.fincat import compose_functors, enumerate_functors, identity_functor, opposite
from relmon.monad import enumerate_relative_monads
from relmon.monadicity import Run, creation_audit
from relmon.prof import enumerate_distributors
from relmon.reladj import find_left_relative_adjoint

from . import reference
from .reference import NO_COLIMIT

TEST_BUDGET = 3000


def shapes():
    return [corpus.terminal_category(), corpus.interval_category()]


# (seed, objects, max_hom) for corpus.generate_category
generated = st.builds(lambda seed, shape: (seed, *shape),
                      st.integers(min_value=0, max_value=10**4),
                      st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))


def roots(E):
    return [identity_functor(E), corpus.point_functor(E, E.objects[-1])]


def candidates(j, D):
    """Functors r into E with a left j-relative adjoint, so that their audits
    are not vacuous: the forgetful functor of the first monad over j, which
    creates every audited colimit, and the first few functors D -> E, which
    need not."""
    out = []
    try:
        monads = enumerate_relative_monads(j, budget=TEST_BUDGET)
        out += [build_algebra_category(T, budget=TEST_BUDGET).u for T in monads[:1]]
    except BudgetExceeded:
        pass
    out += [r for r in list(enumerate_functors(D, j.cod))[:4]
            if find_left_relative_adjoint(j, r) is not None]
    return out


def audit_verdicts(j, r, run):
    rep = creation_audit(run, j, r, shapes(), 1)
    return [(it.shape_pair, it.weight_index, it.diagram, it.strict_pass, it.nonstrict_pass)
            for it in rep.items]


def direct_verdicts(j, r):
    """The audit's item loop, with every verdict from a direct search and
    a direct check_creation call."""
    out = []
    for X in shapes():
        for Y in shapes():
            for widx, p in enumerate(enumerate_distributors(X, Y, 1, budget=TEST_BUDGET)):
                for f in enumerate_functors(Y, r.dom):
                    down, _ = try_weighted_colimit(p, compose_functors(f, r))
                    if down is None or not is_j_absolute(j, down)[0]:
                        continue
                    out.append(((X.name, Y.name), widx, dict(f.on_objects),
                                check_creation(r, p, f, mode="strict").passed,
                                check_creation(r, p, f, mode="nonstrict").passed))
    return out


@settings(max_examples=8, deadline=None)
@given(params=generated, root=st.sampled_from([0, 1]))
def test_audit_creation_verdicts_match_direct_checks(params, root):
    """Every audited creation verdict equals check_creation(...).passed, with
    a cold run's census and a warm one, in both orders of the candidates."""
    seed, objects, max_hom = params
    E = corpus.generate_category(seed, objects, max_hom)
    D = corpus.generate_category(seed + 1, objects, max_hom)
    assume(E is not None and D is not None)
    j = roots(E)[root]
    rs = candidates(j, D)
    assume(rs)
    direct = [direct_verdicts(j, r) for r in rs]
    for order in (range(len(rs)), reversed(range(len(rs)))):
        run = Run(TEST_BUDGET)
        for i in order:
            assert audit_verdicts(j, rs[i], run) == direct[i]


def cocone_cases(W):
    """(p, f) over Terminal and Interval weights into W, with a flag saying
    whether the colimit exists."""
    for X in shapes():
        for Y in shapes():
            for p in enumerate_distributors(X, Y, 1):
                for f in enumerate_functors(Y, W):
                    yield p, f, try_weighted_colimit(p, f)[0] is not None


def assert_cocones_match_reference(W) -> set:
    seen = set()
    for p, f, exists in cocone_cases(W):
        by_comparison = reference.colimiting_test(try_weighted_colimit(p, f)[0])
        for w, legs in enumerate_cocones(p, f, {}):
            want = reference.cocone_is_colimiting(p, f, w, legs)
            assert cocone_is_colimiting(p, f, w, legs) == want
            assert by_comparison(w.on_objects, legs) == want
            assert not want or exists
            seen.add(exists)
    return seen


@settings(max_examples=8, deadline=None)
@given(params=generated)
def test_colimiting_cocones_match_reference(params):
    """Every cocone from enumerate_cocones is colimiting exactly when the
    docstring's bijection check says so, by the checker's bijections and by
    the comparison map from the stored colimit."""
    W = corpus.generate_category(*params)
    assume(W is not None)
    assert_cocones_match_reference(W)


def test_colimiting_cocones_with_colimit_present_and_absent():
    seen = set()
    for name in ("Disc2", "Split", "Vee"):
        seen |= assert_cocones_match_reference(corpus.STANDARD_CATEGORIES[name]())
    assert seen == {True, False}


def creation_verdicts(census, j, gs):
    """Every creation question of the suite's forgetful_creates shape for
    each g: kinds, modes and (weight, diagram) positions whose downstairs
    (co)limit exists, colimits only where j-absolute; verdicts read through
    census, or asked of check_creation directly when census is None."""
    out = []
    for g in gs:
        fresh = census if census is not None else DownstairsCensus()
        diagrams = {Z: fresh.diagrams(Z, g) for Z in shapes()}
        for X in shapes():
            for Y in shapes():
                for w in reference.weights(fresh, X, Y, 1, TEST_BUDGET):
                    for diagram in diagrams[Y]:
                        down, _ = try_weighted_colimit(w.p, diagram.d)
                        if down is None or not is_j_absolute(j, down)[0]:
                            continue
                        for mode in ("strict", "nonstrict"):
                            out.append(verdict(census, g, w, diagram, "colimit", mode))
                    for diagram in diagrams[X]:
                        if try_weighted_limit(w.p, diagram.d)[0] is None:
                            continue
                        for mode in ("strict", "nonstrict"):
                            out.append(verdict(census, g, w, diagram, "limit", mode))
    return out


def verdict(census, g, w, diagram, kind, mode):
    if census is None:
        return check_creation(g, w.p, diagram.f, mode=mode, kind=kind).passed
    return reference.creation(census, w, diagram, kind, mode)


@settings(max_examples=8, deadline=None)
@given(params=generated, root=st.sampled_from([0, 1]))
def test_census_creation_verdicts_match_direct_checks(params, root):
    """reference.creation equals check_creation(...).passed for a forgetful
    functor and plain functors, with a cold census and a warm one, asked in
    both orders."""
    seed, objects, max_hom = params
    E = corpus.generate_category(seed, objects, max_hom)
    D = corpus.generate_category(seed + 1, objects, max_hom)
    assume(E is not None and D is not None)
    j = roots(E)[root]
    gs = candidates(j, D)[:3]
    assume(gs)
    direct = [creation_verdicts(None, j, [g]) for g in gs]
    for order in (range(len(gs)), reversed(range(len(gs)))):
        census = DownstairsCensus()
        order = list(order)
        assert creation_verdicts(census, j, [gs[i] for i in order]) == sum(
            (direct[i] for i in order), [])
        # warm: the census answers again without a new creation row
        rows = len(census._creations)
        assert creation_verdicts(census, j, [gs[i] for i in order]) == sum(
            (direct[i] for i in order), [])
        assert len(census._creations) == rows


def creation_cases(W, V):
    """(g, p, f, kind) over the first functors g: W -> V, Terminal and
    Interval weights and every diagram into W, for colimits and limits."""
    for g in itertools.islice(enumerate_functors(W, V), 3):
        for X in shapes():
            for Y in shapes():
                for p in enumerate_distributors(X, Y, 1):
                    for kind, Z in (("colimit", Y), ("limit", X)):
                        for f in enumerate_functors(Z, W):
                            yield g, p, f, kind


def assert_nonstrict_creation_matches_reference(W, V) -> set:
    """check_creation in non-strict mode against reference.check_creation,
    which lists every cocone; limits go through the formal dual in both.
    Returns the upstairs_exists values seen."""
    seen = set()
    for g, p, f, kind in creation_cases(W, V):
        try:
            got = check_creation(g, p, f, mode="nonstrict", kind=kind).to_dict()
        except DownstairsMissing:
            continue
        assert got == reference.check_creation(g, p, f, "nonstrict", kind).to_dict()
        seen.add(got["upstairs_exists"])
    return seen


@settings(max_examples=8, deadline=None)
@given(params=generated, params2=generated)
def test_nonstrict_creation_matches_reference(params, params2):
    """Non-strict creation reports, violation strings included, equal the
    cocone-listing reference over generated (g, p, f)."""
    W = corpus.generate_category(*params)
    V = corpus.generate_category(*params2)
    assume(W is not None and V is not None)
    assert_nonstrict_creation_matches_reference(W, V)


def test_nonstrict_creation_with_upstairs_colimit_present_and_absent():
    seen = set()
    # PP into Split has non-natural components that would tell the two
    # tests apart at an earlier apex than any cocone does
    for W, V in (("Split", "Terminal"), ("Vee", "Interval"), ("Indisc2", "Terminal"),
                 ("Disc2", "Disc2"), ("PP", "Split")):
        seen |= assert_nonstrict_creation_matches_reference(
            corpus.STANDARD_CATEGORIES[W](), corpus.STANDARD_CATEGORIES[V]())
    assert seen == {True, False}


def has_nonidentity_iso(C) -> bool:
    return any(not C.is_identity(m) and C.inverse(m) is not None for m in C.morphism_names())


def creation_through_store(g, p, f, mode, kind, store):
    """check_creation(g, p, f, mode, kind) as the census asks it: the
    creation records at each x read through the (diagram, g) entry in
    store."""
    records = creation_records(g, p, f, kind, creation_entry(g, f, kind, store))
    return colim._creation_report(mode, kind, colim.creation_search(records, mode))


def upstairs(p, f, kind):
    return (try_weighted_colimit if kind == "colimit" else try_weighted_limit)(p, f)[0]


def assert_strict_creation_matches_reference(W, V) -> set:
    """check_creation in strict mode, cold, and through one store shared by
    every (g, p, f, kind) (creation_through_store), against
    reference.check_creation, which runs the picked-cocone reference over
    every colimiting cocone.  Returns the
    (kind, upstairs (co)limit exists, verdict moved from the picked cocone's)
    triples seen; the last is None for limits."""
    store = {}
    seen = set()
    for g, p, f, kind in creation_cases(W, V):
        try:
            want = reference.check_creation(g, p, f, "strict", kind).to_dict()
        except DownstairsMissing:
            with pytest.raises(DownstairsMissing):
                creation_through_store(g, p, f, "strict", kind, store)
            continue
        assert check_creation(g, p, f, mode="strict", kind=kind).to_dict() == want
        assert creation_through_store(g, p, f, "strict", kind, store).to_dict() == want
        moved = None
        if kind == "colimit":
            down, _ = try_weighted_colimit(p, compose_functors(f, g))
            picked = reference.strict_colimit_creation(g, p, f, down, upstairs(p, f, kind))
            moved = picked.passed and not want["passed"]
        seen.add((kind, upstairs(p, f, kind) is not None, moved))
    return seen


@settings(max_examples=10, deadline=None)
@given(params=generated, params2=generated)
def test_strict_creation_matches_every_cocone_reference(params, params2):
    """Strict creation reports, lift counts and lifted apexes included,
    equal the every-cocone reference over generated (g, p, f), for colimits
    and limits."""
    W = corpus.generate_category(*params)
    V = corpus.generate_category(*params2)
    assume(W is not None and V is not None)
    assert_strict_creation_matches_reference(W, V)


def test_strict_creation_over_isomorphic_cocones():
    """The reference comparison on standard categories covers colimits and
    limits with the upstairs (co)limit present and absent, and targets
    with non-identity isomorphisms, where some verdict differs from the one
    the picked cocone alone would give."""
    seen = set()
    for W, V in (("Indisc2", "Indisc2"), ("Terminal", "Indisc2"), ("Disc2", "Indisc2"),
                 ("Split", "Terminal"), ("Vee", "Interval"), ("PP", "Split")):
        W, V = corpus.STANDARD_CATEGORIES[W](), corpus.STANDARD_CATEGORIES[V]()
        seen |= {(kind, exists, moved and has_nonidentity_iso(V))
                 for kind, exists, moved in assert_strict_creation_matches_reference(W, V)}
    assert {(kind, exists) for kind, exists, _ in seen} == {
        (kind, exists) for kind in ("colimit", "limit") for exists in (True, False)}
    assert ("colimit", True, True) in seen


def interval_positions(W, V):
    """(g, p, f, creation records) for the first functors g: W -> V, the
    weights out of the non-discrete Interval into Terminal (cap 2) and
    Interval (cap 1), and every diagram f into W whose composite with g has
    a colimit."""
    I = corpus.interval_category()
    for g in itertools.islice(enumerate_functors(W, V), 3):
        store = {}
        for Y, cap in ((corpus.terminal_category(), 2), (I, 1)):
            for p in enumerate_distributors(I, Y, cap, budget=TEST_BUDGET):
                for f in enumerate_functors(Y, W):
                    try:
                        yield g, p, f, creation_records(g, p, f, "colimit",
                                                        creation_entry(g, f, "colimit", store))
                    except DownstairsMissing:
                        continue


def assert_strict_records_decide(W, V) -> set:
    """At each interval position, check_creation's strict report equals the
    every-cocone reference's and that of the lift search walked past the
    records (every strict flag cleared).  Where every record is strict, the
    reference finds exactly one lift over each colimiting cocone, and it is
    colimiting.  Returns the (every record strict, passed) pairs seen."""
    seen = set()
    for g, p, f, records in interval_positions(W, V):
        got = check_creation(g, p, f).to_dict()
        assert got == reference.check_creation(g, p, f, "strict").to_dict()
        walked = [r._replace(strict=False) for r in records.records]
        searched = colim._strict_colimit_creation(g, records.p, walked)
        assert got == colim._creation_report("strict", "colimit", searched).to_dict()
        all_strict = all(r.strict for r in records.records)
        if all_strict:
            assert got["passed"] and got["lift_count"] == 1
        seen.add((all_strict, got["passed"]))
    return seen


@settings(max_examples=20, deadline=None)
@given(params=generated, params2=generated)
def test_strict_records_decide_creation_over_the_interval(params, params2):
    """The records decide strict creation whenever they are all strict, for
    weights out of the non-discrete Interval too, over generated (g, p, f)."""
    W = corpus.generate_category(*params)
    V = corpus.generate_category(*params2)
    assume(W is not None and V is not None)
    assert_strict_records_decide(W, V)


def test_strict_records_decide_creation_on_standard_categories():
    """The same on standard categories, which reach every case: all records
    strict, and positions with a record that is not, passing (two lifts at
    an x with an empty column, one of which no k leaves) and failing."""
    cats = corpus.STANDARD_CATEGORIES
    seen = set()
    for W, V in ((opposite(cats["Vee"]()), cats["Interval"]()), (cats["Square"](), cats["Split"]()),
                 (cats["Split"](), cats["Terminal"]())):
        seen |= assert_strict_records_decide(W, V)
    assert seen == {(True, True), (False, True), (False, False)}


def assert_verdict_only_search_matches(W, V) -> set:
    """Over the first two functors g: W -> V, the cap-1 weights out of
    Terminal, Interval and Disc2 into Terminal and Interval, and every
    diagram into W whose composite with g has a (co)limit, through one
    census and one store: the census's strict verdict and the verdict-only
    search over the records walked past their strict flags equal the
    verdict of check_creation through the store (creation_through_store),
    and its report and that of the full search over the walked records,
    lift count included, equal reference.check_creation's.  Over a
    discrete source (Terminal, Disc2; for a limit, the dual weight's) the
    search multiplies the lift counts per x; elsewhere the verdict-only
    search stops at a second lift.
    Returns the (discrete, lift count capped at 2, passed) triples seen."""
    census, store, seen = DownstairsCensus(), {}, set()
    for g in itertools.islice(enumerate_functors(W, V), 2):
        for X in shapes() + [corpus.disc2_category()]:
            for Y in shapes():
                for w in reference.weights(census, X, Y, 1, TEST_BUDGET):
                    for kind, Z in (("colimit", Y), ("limit", X)):
                        for diagram in census.diagrams(Z, g):
                            try:
                                want = reference.check_creation(g, w.p, diagram.f, "strict", kind).to_dict()
                            except DownstairsMissing:
                                continue
                            got = creation_through_store(g, w.p, diagram.f, "strict", kind, store)
                            assert got.to_dict() == want
                            entry = creation_entry(g, diagram.f, kind, store)
                            records = creation_records(g, w.p, diagram.f, kind, entry)
                            walked = records._replace(records=[r._replace(strict=False) for r in records.records])
                            found = colim.creation_search(walked, "strict")
                            assert colim._creation_report("strict", kind, found).to_dict() == want
                            assert colim.creation_search(walked, "strict", True)[0] == got.passed
                            assert reference.creation(census, w, diagram, kind, "strict") == got.passed
                            seen.add((not walked.p.left_plan()[0], min(found[1], 2), got.passed))
    return seen


@settings(max_examples=10, deadline=None)
@given(params=generated, params2=generated)
def test_verdict_only_strict_creation_matches_check_creation(params, params2):
    """The census's verdict-only strict creation equals check_creation's
    verdict, whose lift counts equal the reference's, over generated
    (g, p, f) with discrete and non-discrete weights."""
    W = corpus.generate_category(*params)
    V = corpus.generate_category(*params2)
    assume(W is not None and V is not None)
    assert_verdict_only_search_matches(W, V)


def test_verdict_only_strict_creation_on_standard_categories():
    """The same on standard categories, which reach no lift, one and
    several, failing and passing, over discrete and non-discrete weights."""
    cats = corpus.STANDARD_CATEGORIES
    seen = set()
    for W, V in (("Vee", "Interval"), ("Disc2", "Terminal"), ("PP", "Split")):
        seen |= assert_verdict_only_search_matches(cats[W](), cats[V]())
    assert seen >= {(discrete, count, count == 1) for discrete in (True, False) for count in (0, 1, 2)}
    assert (False, 1, False) in seen


def corpus_positions():
    """(question name, r, w, diagram, kind) for every corpus root question
    r and every Terminal and Interval cap-1 weight and diagram into dom r
    whose downstairs (co)limit exists, as reference.colimit with the root
    and reference.limit say, through one census."""
    census = DownstairsCensus()
    out = []
    for inst in corpus.builtin_corpus():
        if inst.roles.get("root") != "j":
            continue
        j = inst.functors["j"]
        exists = {"colimit": lambda w, diagram: reference.colimit(census, j, w, diagram) != NO_COLIMIT,
                  "limit": lambda w, diagram: reference.limit(census, w, diagram)}
        for role in inst.roles["candidates"]:
            r = inst.functors[role]
            for X in shapes():
                for Y in shapes():
                    for w in reference.weights(census, X, Y, 1, TEST_BUDGET):
                        for kind, Z in (("colimit", Y), ("limit", X)):
                            for diagram in census.diagrams(Z, r):
                                if exists[kind](w, diagram):
                                    out.append((f"{inst.name}/{role}", r, w, diagram, kind))
    return census, out


def test_corpus_creation_matches_reference():
    """On every corpus root question, both modes' reports through one store
    and the census's verdicts equal the references'."""
    census, positions = corpus_positions()
    store = {}
    for name, r, w, diagram, kind in positions:
        for mode in ("strict", "nonstrict"):
            want = reference.check_creation(r, w.p, diagram.f, mode, kind).to_dict()
            got = creation_through_store(r, w.p, diagram.f, mode, kind, store)
            assert got.to_dict() == want, (name, mode, kind)
            assert reference.creation(census, w, diagram, kind, mode) == want["passed"], (name, mode, kind)


def test_creation_with_weights_out_of_categories_with_composites():
    """Both modes against the references for weights out of categories
    with composable non-identity morphisms (the delooping of Z/2, whose
    s ; s is the identity, and a 3-element monoid), where a lift's
    morphisms must compose as X's do."""
    cats = corpus.STANDARD_CATEGORIES
    for X in (cats["BZ2"](), cats["BM3"]()):
        for Y in shapes():
            for W, V in (("Indisc2", "Indisc2"), ("BZ2", "BZ2"), ("Split", "Terminal")):
                W, V = cats[W](), cats[V]()
                for g in itertools.islice(enumerate_functors(W, V), 2):
                    store = {}
                    for p in enumerate_distributors(X, Y, 1):
                        for kind, Z in (("colimit", Y), ("limit", X)):
                            for f in enumerate_functors(Z, W):
                                for mode in ("strict", "nonstrict"):
                                    try:
                                        want = reference.check_creation(g, p, f, mode, kind)
                                    except DownstairsMissing:
                                        continue
                                    got = creation_through_store(g, p, f, mode, kind, store)
                                    assert got.to_dict() == want.to_dict()
