"""The run-scoped downstairs census answers exactly as the searches it stands in for."""

import collections
import itertools
import json
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from relmon import algebra, colim, corpus, fincat, monadicity, prof, reladj, suite
from relmon import census as census_module
from relmon.algebra import build_algebra_category
from relmon.census import DownstairsCensus, bits
from relmon.colim import (
    WeightedColimit,
    WeightedLimit,
    check_creation,
    is_j_absolute,
    store_records,
    try_weighted_colimit,
    try_weighted_limit,
)
from relmon.errors import BudgetExceeded, DownstairsMissing
from relmon.fincat import (
    FunctorData,
    compose_functors,
    enumerate_functors,
    identity_functor,
    opposite,
    opposite_functor,
)
from relmon.monad import budget_limit, enumerate_relative_monads
from relmon.monadicity import Run, creation_audit, default_shape_family, run_theorem_suite
from relmon.prof import Distributor, dual_distributor, enumerate_distributors
from relmon.suite import _check_forgetful_creates, _Context, _small_weights

from . import reference
from .reference import ABSOLUTE_COLIMIT, COLIMIT, NO_COLIMIT

SHAPES = {"Terminal": corpus.terminal_category, "Interval": corpus.interval_category,
          "Disc2": corpus.disc2_category}


def direct_colimit_verdict(j, p, d):
    down, _ = try_weighted_colimit(p, d)
    if down is None:
        return NO_COLIMIT
    absolute, _ = is_j_absolute(j, down)
    return ABSOLUTE_COLIMIT if absolute else COLIMIT


def relabel(p, perms: dict) -> Distributor:
    """p with the elements of each component (y, x) renamed: its i-th
    element becomes its perms[(y, x)][i]-th, the actions carried along."""
    X, Y = p.src, p.tgt
    name = {(y, x): dict(zip(p.el(y, x), [p.el(y, x)[i] for i in perms[(y, x)]]))
            for y in Y.objects for x in X.objects}
    right = {(m, x, name[(Y.cod(m), x)][e]): name[(Y.dom(m), x)][v] for (m, x, e), v in p.right_action.items()}
    left = {(n, y, name[(y, X.dom(n))][e]): name[(y, X.cod(n))][v] for (n, y, e), v in p.left_action.items()}
    return Distributor(X, Y, p.elements, right, left)


def relabellings(p):
    """p relabelled by every family of per-component permutations."""
    comps = [(y, x) for y in p.tgt.objects for x in p.src.objects]
    for choice in itertools.product(*[itertools.permutations(range(len(p.el(*c)))) for c in comps]):
        yield relabel(p, dict(zip(comps, choice)))


def shared_classes(weights) -> set:
    """The classes of two or more of the given weight handles."""
    members = collections.defaultdict(set)
    for w in weights:
        members[(w.p.src, w.p.tgt, w.cap, w.cls)].add(w.index)
    return {key for key, indices in members.items() if len(indices) > 1}


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       objects=st.integers(min_value=1, max_value=2),
       max_hom=st.integers(min_value=1, max_value=2),
       shapes=st.lists(st.sampled_from(sorted(SHAPES)), min_size=1, max_size=2, unique=True))
def test_census_matches_direct_searches(seed, objects, max_hom, shapes):
    """One census over two roots and every shape pair, as a suite run shares
    it.  Terminal -|-> Interval and Interval -|-> Terminal have their cap-2
    lists too, whose classes have several members: the later members read
    the row the first one filled."""
    E = corpus.generate_category(seed, objects, max_hom)
    assume(E is not None)
    roots = [identity_functor(E), corpus.point_functor(E, E.objects[-1])]
    shape_cats = [SHAPES[name]() for name in shapes]
    census = DownstairsCensus()
    asked = []
    # twice: the first pass fills the census, the second reads it back
    for _ in range(2):
        for j in roots:
            for X in shape_cats:
                for Y in shape_cats:
                    caps = (1, 2) if {X.name, Y.name} == {"Terminal", "Interval"} else (1,)
                    for w in [w for cap in caps for w in reference.weights(census, X, Y, cap, 200_000)]:
                        asked.append(w)
                        for diagram in census.diagrams(Y, identity_functor(E)):
                            assert reference.colimit(census, j, w, diagram) == (
                                direct_colimit_verdict(j, w.p, diagram.d))
                        for diagram in census.diagrams(X, identity_functor(E)):
                            assert reference.limit(census, w, diagram) == (
                                try_weighted_limit(w.p, diagram.d)[0] is not None)
    assert bool(shared_classes(asked)) == ({"Terminal", "Interval"} <= set(shapes))


def through_store(census, p, d, kind):
    """The p-weighted (co)limit of d assembled from the records in the
    census's pointwise store, a limit as the colimit of d^op weighted by
    p's dual."""
    if kind == "colimit":
        found, _ = colim._assemble(p, d, store_records(census._pointwise, d))
        return found and WeightedColimit(p, d, *found)
    pd = dual_distributor(p)
    dop = opposite_functor(d, pd.tgt, opposite(d.cod))
    found, _ = colim._assemble(pd, dop, store_records(census._pointwise, dop))
    return found and WeightedLimit(p, d, FunctorData(p.tgt, d.cod, found[0].on_objects,
                                                     found[0].on_morphisms), found[1])


def same_result(stored, found) -> bool:
    if found is None:
        return stored is None
    return (stored is not None and stored.weight is found.weight
            and stored.diagram.table() == found.diagram.table()
            and stored.apex.table() == found.apex.table()
            and list(stored.legs.items()) == list(found.legs.items()))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       objects=st.integers(min_value=1, max_value=2),
       max_hom=st.integers(min_value=1, max_value=2))
def test_census_answers_equal_searches_through_g(seed, objects, max_hom):
    """reference.colimit and reference.limit equal try_weighted_colimit with
    is_j_absolute and try_weighted_limit, first cold and then warm, on the
    diagrams reached through a non-identity g: d = f ; g into E, and f into
    dom g.  The cap-2 weights Terminal -|-> Interval, which have two
    elements in one component, and Terminal -|-> Disc2 sit beside the
    cap-1 lists of the same categories, which are not a prefix of the
    latter.  The census's existence answers for f agree with the searches
    too (read at the same position through the identity of dom g), and a
    (co)limit searched through the census's pointwise store is the one a
    fresh search finds, and it verifies."""
    E = corpus.generate_category(seed, objects, max_hom)
    D = corpus.generate_category(seed + 1, objects, max_hom)
    assume(E is not None and D is not None)
    gs = [g for g in enumerate_functors(D, E) if g.table() != identity_functor(E).table()][:2]
    assume(gs)
    census = DownstairsCensus()
    T, I = corpus.terminal_category(), corpus.interval_category()
    weights = [w for X in (T, I) for Y in (T, I, corpus.disc2_category())
               for w in reference.weights(census, X, Y, 1, 200_000)]
    weights += [w for Y in (I, corpus.disc2_category()) for w in reference.weights(census, T, Y, 2, 200_000)]
    assert any(len(w.p.el(y, x)) == 2 for w in weights for y in w.p.tgt.objects
               for x in w.p.src.objects)
    # later members of a class read the row the first one filled
    assert shared_classes(weights)
    roots = {E: [identity_functor(E), corpus.point_functor(E, E.objects[-1])], D: [identity_functor(D)]}
    one_D = identity_functor(D)
    for _ in range(2):
        for g in gs:
            for h in (g, one_D):
                for w in weights:
                    ups = census.diagrams(w.p.tgt, one_D)
                    for diagram in census.diagrams(w.p.tgt, h):
                        for j in roots[h.cod]:
                            assert reference.colimit(census, j, w, diagram) == direct_colimit_verdict(j, w.p, diagram.d)
                        down = through_store(census, w.p, diagram.d, "colimit")
                        assert same_result(down, try_weighted_colimit(w.p, diagram.d)[0])
                        assert down is None or reference.verify_weighted_colimit(down)
                        up = try_weighted_colimit(w.p, diagram.f)[0]
                        assert same_result(through_store(census, w.p, diagram.f, "colimit"), up)
                        exists = reference.colimit(census, one_D, w, ups[diagram.index]) != NO_COLIMIT
                        assert exists == (up is not None)
                    ups = census.diagrams(w.p.src, one_D)
                    for diagram in census.diagrams(w.p.src, h):
                        found = try_weighted_limit(w.p, diagram.d)[0]
                        assert reference.limit(census, w, diagram) == (found is not None)
                        down = through_store(census, w.p, diagram.d, "limit")
                        assert same_result(down, found)
                        assert down is None or reference.verify_weighted_limit(down)
                        up = try_weighted_limit(w.p, diagram.f)[0]
                        assert same_result(through_store(census, w.p, diagram.f, "limit"), up)
                        assert reference.limit(census, w, ups[diagram.index]) == (up is not None)


def _audit_questions():
    """Two non-vacuous audit questions over the same E = BZ2 and root."""
    j = corpus.point_functor(corpus.bz2_category(), "*")
    forgetful = [build_algebra_category(T).u for T in enumerate_relative_monads(j)]
    return j, forgetful[0], forgetful[1]


def test_census_keeps_one_weight_list_per_categories_cap_and_budget():
    census = DownstairsCensus()
    T = corpus.terminal_category()
    first = reference.weights(census, T, T, 1, 200_000)
    assert [w.p.table() for w in first] == [p.table() for p in enumerate_distributors(T, T, 1)]
    # each handle names its own position and its list's cap
    assert [(w.index, w.cap) for w in first] == [(i, 1) for i in range(len(first))]
    # equal-content categories built separately get the same list
    assert reference.weights(census, corpus.terminal_category(), corpus.terminal_category(), 1, 200_000) is first
    assert len(reference.weights(census, T, T, 2, 200_000)) > len(first)
    # a fresh census rebuilds an equal list
    again = reference.weights(DownstairsCensus(), T, T, 1, 200_000)
    assert again is not first and [w.p.table() for w in again] == [w.p.table() for w in first]
    # a list kept under a larger budget is not returned under one it exceeds
    with pytest.raises(BudgetExceeded):
        reference.weights(census, T, T, 1, 1)


def test_audit_identical_with_cold_and_warm_census():
    j, r1, r2 = _audit_questions()
    shapes = [corpus.terminal_category(), corpus.interval_category()]

    def audit(r, run):
        rep = creation_audit(run, j, r, shapes, 1)
        assert not rep.vacuous and rep.items
        return rep.to_dict()

    cold = {"r1": audit(r1, Run()), "r2": audit(r2, Run())}
    E = j.cod

    def stored_into_E(census):
        """The diagrams into E whose colimits at each x the pointwise store holds."""
        return {key for key in census._pointwise if len(key) == 3 and key[1] == E}

    for first, second in (("r1", "r2"), ("r2", "r1")):
        run = Run()
        r = {"r1": r1, "r2": r2}
        assert audit(r[first], run) == cold[first]
        stored = stored_into_E(run.census)
        assert stored
        assert audit(r[second], run) == cold[second]
        # both questions read and write the same store records into E: the second ran warm
        assert stored_into_E(run.census) == stored


def test_two_suite_runs_in_one_process_give_identical_reports():
    names = ("point_bz2", "empty_root_disc2")
    reports = []
    for _ in range(2):
        instances = [i for i in corpus.builtin_corpus() if i.name in names]
        report = run_theorem_suite(instances, element_cap=1)
        assert report.passed
        reports.append(corpus.dumps_canonical(report.to_dict()).encode())
    assert reports[0] == reports[1]
    checked = {r["name"]: r["checked"] for r in json.loads(reports[0])["results"]}
    # the three theorems that share the census all did work
    assert checked["forgetful_creates"] and checked["monadicity_crosscheck"]
    assert checked["density_necessity"]


def test_cap_3_suite_records_the_blocks_the_budget_skipped():
    """At cap 3 the weights Interval -|-> Interval are over the default
    budget.  The suite still passes, but each theorem that left the block
    unchecked records it in skipped, keyed "X->Y": forgetful_creates and
    monadicity_crosscheck skip it, and preservation_conservativity reads
    its small weights from the cap-1 list.  At cap 2 nothing is skipped
    and no result writes the key."""
    instances = [i for i in corpus.builtin_corpus() if i.name == "point_bz2"]
    report = run_theorem_suite(instances, element_cap=3)
    assert report.passed
    over = {"Interval->Interval": "weight census over budget"}
    assert {r.name: r.to_dict().get("skipped") for r in report.results if r.skipped} == {
        "forgetful_creates": over, "monadicity_crosscheck": over,
        "preservation_conservativity": {
            "Interval->Interval": "weight census over budget; small weights read from the cap-1 list"}}
    assert not any("skipped" in r.to_dict() for r in run_theorem_suite(instances).results)


def test_small_weights_of_the_cap_2_list_are_the_cap_1_list():
    """preservation_conservativity and algebraic_tight_cells read the small
    weights from the cap-2 list, or from the cap-1 list when the cap-2 list
    is over budget: both must give the same tables in the same order.
    _small_weights gives the first member of each small class, for each
    small weight in list order the index of its class's, and the size of
    each small class: a class is small or not as a whole."""
    shapes = default_shape_family()
    budget = budget_limit()
    ctx, skipped = _Context([], shapes, 2, budget), {}
    for X in shapes:
        for Y in shapes:
            firsts, of, sizes = _small_weights(ctx, X, Y, skipped)
            weights = reference.weights(ctx.census, X, Y, 2, budget)
            small = [w for w in weights if all(len(w.p.el(y, x)) <= 1 for y in Y.objects for x in X.objects)]
            assert {w.cap for w in firsts} == {2}
            assert [firsts[k].cls for k in of] == [w.cls for w in small]
            assert sizes == [of.count(k) for k in range(len(firsts))]
            assert len({w.cls for w in small}) == len(firsts) == len({w.cls for w in weights}) - len(
                {w.cls for w in weights} - {w.cls for w in small})
            assert [w.p.table() for w in small] == (
                [w.p.table() for w in reference.weights(ctx.census, X, Y, 1, budget)])
    # no list is over budget at cap 2, so none fell back to cap 1
    assert skipped == {}


def corpus_question(name: str, role: str):
    inst = next(i for i in corpus.builtin_corpus() if i.name == name)
    return inst.functors["j"], inst.functors[role]


def small_weights(census) -> list:
    """The cap-1 weights between Terminal and Interval, then the cap-2
    weights of the pairs of two components, whose classes have several
    members."""
    shapes = [corpus.terminal_category(), corpus.interval_category()]
    return [w for cap in (1, 2) for X in shapes for Y in shapes if cap == 1 or len(X.objects) * len(Y.objects) <= 2
            for w in reference.weights(census, X, Y, cap, 200_000)]


def creation_positions(census, j, g):
    """(w, diagram, kind) for every cap-1 weight between Terminal and
    Interval, and every cap-2 one of two components, and every diagram
    into dom g whose downstairs (co)limit exists, as reference.colimit
    with the root j and reference.limit say."""
    exists = {"colimit": lambda w, diagram: reference.colimit(census, j, w, diagram) != NO_COLIMIT,
              "limit": lambda w, diagram: reference.limit(census, w, diagram)}
    out = []
    for w in small_weights(census):
        for kind, Z in (("colimit", w.p.tgt), ("limit", w.p.src)):
            for diagram in census.diagrams(Z, g):
                if exists[kind](w, diagram):
                    out.append((w, diagram, kind))
    return out


@pytest.mark.parametrize("name, role", [("indisc2_to_terminal", "r_indisc"),
                                        ("empty_root_indisc2", "r_const")])
def test_census_creation_answers_each_mode_in_either_order(name, role):
    """reference.creation in both modes equals check_creation, whichever mode a
    position is asked in first; the functors strictly create some
    (co)limits that they only non-strictly create elsewhere."""
    j, g = corpus_question(name, role)
    want = {}
    for w, diagram, kind in creation_positions(DownstairsCensus(), j, g):
        for mode in ("strict", "nonstrict"):
            want[(w.p.table(), diagram.f.table(), kind, mode)] = (
                check_creation(g, w.p, diagram.f, mode=mode, kind=kind).passed)
    differ = {key[:3] for key, passed in want.items() if passed != want[key[:3] + ("nonstrict",)]}
    assert {kind for _, _, kind in differ} == {"colimit", "limit"}
    for modes in (("strict", "nonstrict"), ("nonstrict", "strict")):
        census = DownstairsCensus()
        positions = creation_positions(census, j, g)
        assert shared_classes([w for w, _, _ in positions])
        for w, diagram, kind in positions:
            for mode in modes:
                key = (w.p.table(), diagram.f.table(), kind, mode)
                assert reference.creation(census, w, diagram, kind, mode) == want[key], key


def content(F) -> tuple:
    return (F.dom, F.cod, F.table())


def test_creation_audit_does_each_absoluteness_and_creation_check_once(monkeypatch):
    """Over one creation audit: E(j, f) is built at most once per (j,
    diagram) pair that absoluteness is asked about, the census asks each
    (j, diagram, column) absoluteness once, and only where the colimit
    exists at every x, and no one is checked twice,
    each creation position is asked about once and decided either by the
    records already stored at its columns alone, which are then present,
    strict, upstairs and closed, or by one fetch of its creation records,
    made only where the stored records did not settle it, and one check
    per mode from them, without reading or assembling a
    whole (co)limit, no (g, diagram, column)
    creation record is computed twice, no census question (colimits,
    limits, creations or preserved, the last also asked at every position
    of the audit's shapes) assembles a whole (co)limit, each (diagram id,
    column id) record a census question makes is the census store's and
    is made once, and no census existence question searches a column that
    is already searched or outside the census store."""
    j, r = corpus_question("point_split", "r_id")
    pairs, builds, columns, checks, reads, records = [], [], [], [], [], []
    fetches, assembled, made, searching, wasted, facts = [], [], [], [], [], []
    inside, asked = [], {}

    def within(name):
        return any(label == name for label, _ in inside)

    def wrap(owner, name, record, label=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            inside.append((label or name, args))
            try:
                record(*args, **kwargs)
                return original(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, wrapper)

    def absolute(q, j, p, x, apex, legs):
        # the diagram of q = E(j, f): the census's entry q, or is_j_absolute's colimit
        f = next((args[1].diagram for label, args in reversed(inside) if label == "is_j_absolute"), None) or next(
            d for (_, d), entry in census._entries.items() if entry is q)
        pairs.append((content(j), content(f)))
        columns.append((content(j), content(f), p.column(x)))
        if within("census.colimit"):
            facts.append((content(j), content(f), p.column(x)))
            # the census checks absoluteness only where the colimit exists at every x
            records = census._pointwise.get(colim._diagram_id(f), {})
            assert all(c in records and records[c].searched and records[c].found for _, c in p.columns())

    def build(E, j, f):
        if within("census.colimit") or within("is_j_absolute"):
            builds.append((content(j), content(f)))

    def settled_by_records(entry, p, kind) -> bool:
        q = dual_distributor(p) if kind == "limit" else p
        records = [entry.records.get(column) for _, column in q.columns()]
        return all(r is not None and r.strict and r.upstairs and r.closed for r in records)

    def creation(found, mode, verdict=False):
        checks.append(next(key for key, fetched in fetches if fetched is found) + (mode,))

    def fetch(g, p, f, kind, entry):
        assert not settled_by_records(entry, p, kind)
        inside.append(("creation_records", (g, p, f)))
        try:
            found = original_fetch(g, p, f, kind, entry)
        finally:
            inside.pop()
        fetches.append(((content(g), p.table(), f.table(), kind), found))
        return found

    def ask(census, diagrams, pairs, kind):
        for w, mask in pairs:
            for diagram in (diagrams[i] for i in bits(mask)):
                key = (content(diagrams.g), w.p.table(), diagram.f.table(), kind)
                assert key not in asked
                asked[key] = (getattr(diagram, kind), w.p, kind)

    def read(*args, **kwargs):
        if within("creation") or within("census.preserves"):
            reads.append(args)

    def record(g, upstairs, downstairs):
        records.append((content(g), content(upstairs.f), upstairs.p.column(upstairs.x)))

    questions = ("census.colimit", "census.limit", "creation", "census.preserves")

    def assemble(p, f, records):
        if any(within(label) for label in questions):
            assembled.append(p)

    def key(column):
        return colim._diagram_id(column.f), column.p.column(column.x)

    def stored(column) -> bool:
        diagram_id, column_id = key(column)
        return census._pointwise.get(diagram_id, {}).get(column_id) is column

    def column_made(column, p, x, f):
        if any(within(label) for label in questions):
            made.append(column)

    def column_searched(column):
        if any(within(label) for label in ("census.colimit", "census.limit", "census.preserves")):
            (wasted if column.searched or not stored(column) else searching).append(key(column))

    wrap(colim, "first_failing_root", absolute)
    wrap(colim, "hom_restriction", build)
    wrap(prof, "hom_restriction", build)
    wrap(monadicity, "is_j_absolute", lambda *args: None)
    wrap(colim, "creation_search", creation)
    original_fetch = colim.creation_records
    monkeypatch.setattr(colim, "creation_records", fetch)
    wrap(DownstairsCensus, "creations", ask, "creation")
    wrap(DownstairsCensus, "colimits", lambda *args: None, "census.colimit")
    wrap(DownstairsCensus, "limits", lambda *args: None, "census.limit")
    wrap(DownstairsCensus, "preserved", lambda *args: None, "census.preserves")
    wrap(colim, "try_weighted_colimit", read)
    wrap(colim, "try_weighted_limit", read)
    wrap(colim, "_creation_at", record)
    wrap(colim, "_assemble", assemble)
    wrap(colim._Column, "__init__", column_made)
    wrap(colim._Column, "_search", column_searched)
    shapes = [corpus.terminal_category(), corpus.interval_category()]
    run = Run()
    census = run.census
    report = creation_audit(run, j, r, shapes, 1)
    assert not report.vacuous and report.items
    assert len(builds) == len(set(builds)) <= len(set(pairs)) < len(pairs)
    assert facts and len(facts) == len(set(facts))
    assert columns and len(columns) == len(set(columns))
    positions = {key[:4] for key in checks}
    assert len(checks) == len(set(checks)) == 2 * len(positions)
    fetched = [key for key, _ in fetches]
    assert len(fetched) == len(set(fetched)) and set(fetched) == positions
    # a position its stored records settle is neither fetched nor searched
    # (fetch asserts that the records did not settle it), the others are, once
    settled = set(asked) - positions
    assert len(asked) == len(report.items) and positions <= set(asked)
    assert settled and all(settled_by_records(*asked[key]) for key in settled)
    assert reads == []
    limits = {reference.limit(census, w, diagram) for X in shapes for Y in shapes
              for w in reference.weights(census, X, Y, 1, 200_000) for diagram in census.diagrams(X, r)}
    assert True in limits
    assert records and len(records) == len(set(records))
    # r preserves every colimit it is asked about; the first functors out of
    # Disc2 and Interval do not, for want of an upstairs colimit or in spite of one
    gs = [r] + [next(enumerate_functors(corpus.STANDARD_CATEGORIES[W](), r.cod))
                for W in ("Disc2", "Interval")]
    preserved = {reference.preserves(census, w, diagram) for g in gs for X in shapes for Y in shapes
                 for w in reference.weights(census, X, Y, 1, 200_000) for diagram in census.diagrams(Y, g)}
    assert preserved == {True, False}
    assert reads == []
    assert assembled == []
    assert made and all(map(stored, made)) and len({key(c) for c in made}) == len(made)
    assert searching and wasted == [] and len(searching) == len(set(searching))


def reference_preserves(g, p, f) -> tuple:
    """(f has a p-weighted colimit, f ; g has one, g sends the first to a
    colimit), from whole colimits and reference.colimiting_test."""
    up = try_weighted_colimit(p, f)[0]
    down = try_weighted_colimit(p, compose_functors(f, g))[0]
    preserved = up is not None and reference.colimiting_test(down)(
        {x: g.ob(up.apex.ob(x)) for x in p.src.objects}, {key: g.mor(v) for key, v in up.legs.items()})
    return up is not None, down is not None, preserved


def colimit_positions(census, gs):
    """(g, w, diagram) for each g, every cap-1 weight between Terminal and
    Interval, every cap-2 one of two components, and every diagram into
    dom g."""
    return [(g, w, diagram) for g in gs for w in small_weights(census)
            for diagram in census.diagrams(w.p.tgt, g)]


def assert_preserves_matches_reference(W, V) -> set:
    """reference.preserves against reference_preserves for the first functors
    g: W -> V, cold, warm, and after reference.creation wrote the positions'
    rows.  Returns the reference triples seen."""
    gs = list(itertools.islice(enumerate_functors(W, V), 3))
    want = [reference_preserves(g, w.p, diagram.f)
            for g, w, diagram in colimit_positions(DownstairsCensus(), gs)]
    census = DownstairsCensus()
    for _ in range(2):
        assert [reference.preserves(census, w, diagram) for _, w, diagram in colimit_positions(census, gs)] == (
            [preserved for _, _, preserved in want])
    census = DownstairsCensus()
    for (g, w, diagram), (_, down, preserved) in zip(colimit_positions(census, gs), want):
        if down:
            reference.creation(census, w, diagram, "colimit", "nonstrict")
        assert reference.preserves(census, w, diagram) == preserved
    return set(want)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
       seed2=st.integers(min_value=0, max_value=10**4))
def test_preserves_matches_whole_colimit_reference(seed, shape, seed2):
    """reference.preserves equals the comparison-map test on whole colimits
    over generated (g, p, f)."""
    W = corpus.generate_category(seed, *shape)
    V = corpus.generate_category(seed2, *shape)
    assume(W is not None and V is not None)
    assert_preserves_matches_reference(W, V)


def test_preserves_with_upstairs_or_downstairs_missing():
    """The reference comparison covers a missing upstairs colimit, a missing
    downstairs colimit, and colimits that g preserves and does not."""
    seen = set()
    for W, V in (("Terminal", "Disc2"), ("Disc2", "Split"), ("Interval", "Split"),
                 ("Indisc2", "Terminal")):
        seen |= assert_preserves_matches_reference(corpus.STANDARD_CATEGORIES[W](),
                                                   corpus.STANDARD_CATEGORIES[V]())
    assert {(False, True, False), (True, False, False), (True, True, True), (True, True, False)} <= seen


def a_colimit_position(census, name="indisc2_to_terminal", role="r_indisc"):
    """(j, g, w, diagram): a position whose downstairs colimit exists."""
    j, g = corpus_question(name, role)
    w, diagram = next((w, diagram) for w, diagram, kind in creation_positions(census, j, g)
                      if kind == "colimit")
    return j, g, w, diagram


def creation_entries_are_empty(census) -> bool:
    return all(not records for key, records in census._pointwise.items()
               if len(key) == 4 and key[1] == "creation")


@pytest.mark.parametrize("ask, allowed", [
    (lambda census, g, w, diagram: check_creation(g, w.p, diagram.f, mode="bogus"),
     "unknown mode 'bogus'; mode must be one of 'strict', 'nonstrict'"),
    (lambda census, g, w, diagram: check_creation(g, w.p, diagram.f, kind="lim"),
     "unknown kind 'lim'; kind must be one of 'colimit', 'limit'"),
    (lambda census, g, w, diagram: colim.creation_records(g, w.p, diagram.f, "lim", diagram.colimit),
     "unknown kind 'lim'; kind must be one of 'colimit', 'limit'"),
    (lambda census, g, w, diagram: reference.creation(census, w, diagram, "colimt", "strict"),
     "unknown kind 'colimt'; kind must be one of 'colimit', 'limit'"),
    (lambda census, g, w, diagram: reference.creation(census, w, diagram, "colimit", "bogus"),
     "unknown mode 'bogus'; mode must be one of 'strict', 'nonstrict'"),
], ids=["check_creation mode", "check_creation kind", "creation_records kind",
        "census kind", "census mode"])
def test_unknown_mode_or_kind_is_refused(ask, allowed):
    """An unknown mode or kind raises a ValueError naming the allowed
    values, before any creation record or creation row is written."""
    census = DownstairsCensus()
    _, g, w, diagram = a_colimit_position(census)
    with pytest.raises(ValueError, match=allowed):
        ask(census, g, w, diagram)
    assert census._creations == {} and creation_entries_are_empty(census)


def test_handle_reprs_stay_short_after_a_question():
    """A weight or diagram handle holds its list, and a diagram handle its
    store entries, which a question fills: their reprs show neither, so a
    failing assertion prints a line, not the census (a diagram handle of
    this list printed 6,937 characters after the question)."""
    census = DownstairsCensus()
    I = corpus.interval_category()
    one = identity_functor(I)
    for X in (corpus.terminal_category(), I):
        weights = reference.weights(census, X, I, 2, 200_000)
        ds = census.diagrams(I, one)
        census.colimits(one, ds, [(w, ds.every) for w in weights])
        assert any(census._pointwise.values())
        assert all(len(repr(h)) < 200 for h in [*ds, ds, weights[0], weights])
    assert repr(ds[0]) == "Diagram(0, {'0': '0', '1': '0'})" and repr(ds) == "Diagrams(3 handles)"


def test_diagram_handles_answer_only_in_their_census():
    """A diagram handle holds its census's store entries: another census
    refuses it rather than read them."""
    first, second = DownstairsCensus(), DownstairsCensus()
    j, _, w, diagram = a_colimit_position(first, "point_split", "r_id")
    stored = {key: len(records) for key, records in first._pointwise.items()}
    other_w = reference.weights(second, w.p.src, w.p.tgt, w.cap, 200_000)[w.index]
    for ask in (lambda: reference.colimit(second, j, other_w, diagram),
                lambda: reference.limit(second, other_w, diagram),
                lambda: reference.creation(second, other_w, diagram, "colimit", "strict"),
                lambda: reference.preserves(second, other_w, diagram)):
        with pytest.raises(ValueError, match="census that made it"):
            ask()
    assert second._pointwise == second._diagrams == second._creations == {}
    assert {key: len(records) for key, records in first._pointwise.items()} == stored


def test_questions_take_the_weights_of_one_list_of_their_census():
    """Each question kind (colimits, limits, creations, preserved) refuses
    (ValueError) weights of two lists, here the cap-1 and cap-2 lists of
    one pair of shapes, and weights of another census's list, before it
    numbers a column or decides a fact; it accepts the weights of one list
    repeated and in any order, answering each pair as it answers that pair
    alone."""
    census = DownstairsCensus()
    j, g, w, _ = a_colimit_position(DownstairsCensus(), "point_split", "r_id")
    X, Y = w.p.src, w.p.tgt
    cap_1, cap_2 = reference.weights(census, X, Y, 1, 200_000), reference.weights(census, X, Y, 2, 200_000)
    other = reference.weights(DownstairsCensus(), X, Y, 1, 200_000)
    colimits, limits = census.diagrams(Y, g), census.diagrams(X, g)
    questions = {
        "colimits": lambda pairs: census.colimits(j, colimits, pairs),
        "limits": lambda pairs: census.limits(limits, [(v, limits.every) for v, _ in pairs]),
        "creations": lambda pairs: census.creations(colimits, pairs, "colimit"),
        "preserved": lambda pairs: census.preserved(colimits, pairs),
    }
    for name, ask in questions.items():
        for mixed in ([cap_1[0], cap_2[-1]], [cap_2[0]] + list(cap_1), [cap_1[0], other[1]], [other[0]]):
            with pytest.raises(ValueError, match="weights of one list of its census"):
                ask([(v, colimits.every) for v in mixed])
    assert census._ids == {} and census._creations == {} and not any(ds.masks for ds in census._diagrams.values())
    exists = {v.index: census.colimits(j, colimits, [(v, colimits.every)])[0][0] for v in cap_1}
    repeated = [cap_1[-1], cap_1[0], cap_1[-1], cap_1[1], cap_1[0]]
    for name, ask in questions.items():
        pairs = [(v, exists[v.index]) for v in repeated]
        assert any(m for _, m in pairs) and ask(pairs) == [ask([pair])[0] for pair in pairs], name


def test_census_answers_only_mask_questions():
    """The census's public surface is its weight lists, its diagram lists
    and the four mask questions; the one-position questions and the plain
    weight list are tests/reference.py's, asked through these."""
    assert sorted(name for name in vars(DownstairsCensus) if not name.startswith("_")) == [
        "colimits", "creations", "diagrams", "limits", "preserved", "weight_classes"]


def test_questions_list_functors_only_into_dom_g(monkeypatch):
    """Building diagrams(Z, g) and asking every question kind about it lists
    functors into dom g (or its opposite, for a limit in the dual) and
    never into cod g: each answer's bits are positions of that one list."""
    S = corpus.STANDARD_CATEGORIES
    W, V = S["Vee"](), S["PP"]()
    g = list(itertools.islice(enumerate_functors(W, V), 6))[-1]
    listed = {"census": [], "colim": []}

    def wrapped(module, name):
        original = module.enumerate_functors

        def enumerate_functors_(C, D, **kwargs):
            listed[name].append((C, D))
            return original(C, D, **kwargs)
        monkeypatch.setattr(module, "enumerate_functors", enumerate_functors_)
    wrapped(fincat, "census")
    wrapped(colim, "colim")
    census = DownstairsCensus()
    I = corpus.interval_category()
    weights = reference.weights(census, I, I, 2, 200_000)
    ds = census.diagrams(I, g)
    exists = [e for e, _ in census.colimits(identity_functor(V), ds, [(w, ds.every) for w in weights])]
    limits = census.limits(ds, [(w, ds.every) for w in weights])
    census.preserved(ds, [(w, ds.every) for w in weights])
    for kind, masks in (("colimit", exists), ("limit", limits)):
        census.creations(ds, list(zip(weights, masks)), kind)
    assert any(exists) and any(limits)
    assert listed["census"] == [(I, W)]
    assert listed["colim"] and {D for _, D in listed["colim"]} <= {W, opposite(W)}
    assert V not in {W, opposite(W)} and opposite(V) not in {W, opposite(W)}


def outcome(ask):
    """What ask() returns, or the name of the exception it raises."""
    try:
        return ask()
    except DownstairsMissing as exc:
        return type(exc).__name__


def interleaved_weights(census) -> list:
    """The last weights Terminal -|-> Interval and Interval -|-> Terminal of
    the cap-1 lists, the weight Interval -|-> Terminal at the same position
    of the cap-2 list: another weight whose handle shares its categories
    and index with the cap-1 one, and the first and last member of the last
    class of that list with several: two weights that share one row."""
    T, I = corpus.terminal_category(), corpus.interval_category()
    last = len(reference.weights(census, I, T, 1, 200_000)) - 1
    weights = [reference.weights(census, X, Y, cap, 200_000)[last if cap == 2 else -1]
               for X, Y, cap in ((T, I, 1), (I, T, 1), (I, T, 2))]
    assert weights[2].p.table() != weights[1].p.table()
    cap_2 = reference.weights(census, I, T, 2, 200_000)
    mates = [w for w in cap_2 if w.cls == max(cls for *_, cls in shared_classes(cap_2))]
    assert mates[0].p.table() != mates[-1].p.table() and mates[0].cls == mates[-1].cls
    return weights + [mates[0], mates[-1]]


def interleaved_questions(census, gs, roots) -> list:
    """(key, row, question) for every colimit, limit, preserves and
    creation question about five weights, two roots and two g's, in row
    order: the positions of each row (question kind, root or g, weight)
    one after another.  key is (kind, g, weight, diagram position, root or
    (creation kind, mode)), by index, the same in every census; question
    asks it of census."""
    out = []
    for gi, g in enumerate(gs):
        for wi, w in enumerate(interleaved_weights(census)):
            ds = {"colimit": census.diagrams(w.p.tgt, g), "limit": census.diagrams(w.p.src, g)}
            for ji, j in enumerate(roots):
                out += [(("colimit", gi, wi, d.index, ji), ("colimit", ji, wi),
                         lambda j=j, w=w, d=d: reference.colimit(census, j, w, d)) for d in ds["colimit"]]
            out += [(("limit", gi, wi, d.index, None), ("limit", wi),
                     lambda w=w, d=d: reference.limit(census, w, d)) for d in ds["limit"]]
            out += [(("preserves", gi, wi, d.index, None), ("preserves", gi, wi),
                     lambda w=w, d=d: reference.preserves(census, w, d)) for d in ds["colimit"]]
            for kind in ("colimit", "limit"):
                for mode in ("strict", "nonstrict"):
                    out += [(("creation", gi, wi, d.index, (kind, mode)), ("creation", gi, wi, kind, mode),
                             lambda w=w, d=d, kind=kind, mode=mode: reference.creation(census, w, d, kind, mode))
                            for d in ds[kind]]
    return out


def direct_answer(key, gs, roots, weights):
    """The answer to key from try_weighted_colimit with is_j_absolute,
    try_weighted_limit, reference_preserves and check_creation, without a
    census."""
    question, gi, wi, index, extra = key
    p, g = weights[wi].p, gs[gi]
    Z = p.src if question == "limit" or (question == "creation" and extra[0] == "limit") else p.tgt
    f = list(enumerate_functors(Z, g.dom))[index]
    d = compose_functors(f, g)
    if question == "colimit":
        return direct_colimit_verdict(roots[extra], p, d)
    if question == "limit":
        return try_weighted_limit(p, d)[0] is not None
    if question == "preserves":
        return reference_preserves(g, p, f)[2]
    kind, mode = extra
    return outcome(lambda: check_creation(g, p, f, mode=mode, kind=kind).passed)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       seed2=st.integers(min_value=0, max_value=10**4),
       shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
       data=st.data())
def test_interleaved_questions_answer_as_in_row_order_and_directly(seed, seed2, shape, data):
    """Questions asked position by position across two roots, two g's and
    five weights, and in an order hypothesis draws, get the answers they get
    in row order, and those are the direct searches' answers: the row a
    question keeps from its last call never serves another root, g or
    weight list, and two weights of one class answer as their own
    searches do."""
    W = corpus.generate_category(seed, *shape)
    V = corpus.generate_category(seed2, *shape)
    assume(W is not None and V is not None)
    gs = list(itertools.islice(enumerate_functors(W, V), 2))
    assume(len(gs) == 2)
    roots = [identity_functor(V), corpus.point_functor(V, V.objects[-1])]
    census = DownstairsCensus()
    in_row = {key: outcome(ask) for key, _, ask in interleaved_questions(census, gs, roots)}
    weights = interleaved_weights(census)
    assert in_row == {key: direct_answer(key, gs, roots, weights) for key in in_row}
    # position by position: the first position of every row, then the second, ...
    questions, seen, ranks = interleaved_questions(DownstairsCensus(), gs, roots), collections.Counter(), []
    for _, row, _ in questions:
        seen[row] += 1
        ranks.append(seen[row])
    alternating = [item for _, item in sorted(zip(ranks, questions), key=lambda pair: pair[0])]
    assert len({row for _, row, _ in alternating}) > 8
    assert {key: outcome(ask) for key, _, ask in alternating} == in_row
    questions = interleaved_questions(DownstairsCensus(), gs, roots)
    order = data.draw(st.permutations(range(len(questions))))
    assert {questions[i][0]: outcome(questions[i][2]) for i in order} == in_row


def drawn_mask(data, n: int) -> int:
    """A mask over n diagram positions that hypothesis draws, empty ones included."""
    return sum(kept << i for i, kept in enumerate(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n))))


def every_other(n: int) -> int:
    """The mask of the positions n - 1, n - 3, ... of n."""
    return sum(1 << i for i in range(n - 1, -1, -2))


def masked(answers: dict) -> int:
    """The mask of the positions whose answer in answers (position: answer) is true."""
    return sum(bool(answer) << i for i, answer in answers.items())


def assert_masks_match_references(census, g, asked: list, roots: list, sublist) -> None:
    """Mask questions about the weights asked (handles of one list of
    census, in the order given, repeats allowed), each with the mask of
    every diagram position and then with sublist(number of positions), and
    the first weight asked again with the empty mask second, answer bit by
    bit what the references give without a census: try_weighted_colimit
    with is_j_absolute (colimits, for each root), try_weighted_limit
    (limits), reference_preserves (preserved) and check_creation in both
    modes (creations, of colimits and limits where the downstairs one
    exists).  Every bit names a position of the diagram list, so a g that
    sends two diagrams to one composite answers for each of them apart.
    The first pass fills
    the census, the second reads it, so a question reading another
    diagram's or another class's row answers wrongly wherever the answers
    differ."""
    down_ds, up_ds = census.diagrams(asked[0].p.tgt, g), census.diagrams(asked[0].p.src, g)
    for pick in (lambda n: (1 << n) - 1, sublist):
        down = [(w, pick(len(down_ds))) for w in asked]
        up = [(w, pick(len(up_ds))) for w in asked]
        down.insert(1, (asked[0], 0))
        up.insert(1, (asked[0], 0))
        for j in roots:
            verdicts = [{i: direct_colimit_verdict(j, w.p, down_ds[i].d) for i in bits(m)} for w, m in down]
            assert census.colimits(j, down_ds, down) == [
                (masked({i: v != NO_COLIMIT for i, v in vs.items()}),
                 masked({i: v == ABSOLUTE_COLIMIT for i, v in vs.items()})) for vs in verdicts]
        assert census.limits(up_ds, up) == [
            masked({i: try_weighted_limit(w.p, up_ds[i].d)[0] is not None for i in bits(m)}) for w, m in up]
        assert census.preserved(down_ds, down) == [
            masked({i: reference_preserves(g, w.p, down_ds[i].f)[2] for i in bits(m)}) for w, m in down]
        for kind, ds, pairs, search in (("colimit", down_ds, down, try_weighted_colimit),
                                        ("limit", up_ds, up, try_weighted_limit)):
            pairs = [(w, masked({i: search(w.p, ds[i].d)[0] is not None for i in bits(m)})) for w, m in pairs]
            assert census.creations(ds, pairs, kind) == [
                tuple(masked({i: check_creation(g, w.p, ds[i].f, mode=mode, kind=kind).passed for i in bits(m)})
                      for mode in ("strict", "nonstrict")) for w, m in pairs]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       seed2=st.integers(min_value=0, max_value=10**4),
       shape=st.sampled_from([(2, 1), (2, 2), (3, 1)]),
       data=st.data())
def test_batches_answer_as_per_position_references(seed, seed2, shape, data):
    """Mask questions over every diagram position and over drawn masks,
    empty ones included, answer as the per-position references do, for a
    drawn g: W -> V between generated categories and weights of several
    classes, two of them of one class, in one census."""
    W = corpus.generate_category(seed, *shape)
    V = corpus.generate_category(seed2, *shape)
    assume(W is not None and V is not None)
    g = data.draw(st.sampled_from(list(itertools.islice(enumerate_functors(W, V), 12))))
    T, I, D2 = corpus.terminal_category(), corpus.interval_category(), corpus.disc2_category()
    X, Y = data.draw(st.sampled_from([(T, I), (I, T), (I, I), (I, D2), (D2, I)]))
    census = DownstairsCensus()
    weights = reference.weights(census, X, Y, 2, 200_000)
    mates = [w for w in weights if w.cls == min(cls for *_, cls in shared_classes(weights))]
    asked = data.draw(st.lists(st.sampled_from(weights), min_size=2, max_size=3)) + [mates[0], mates[-1]]
    roots = [identity_functor(V), corpus.point_functor(V, V.objects[-1])]
    assert_masks_match_references(census, g, asked, roots, lambda n: drawn_mask(data, n))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       seed2=st.integers(min_value=0, max_value=10**4),
       shape=st.sampled_from([(1, 2), (2, 1), (2, 2)]),
       data=st.data())
def test_list_questions_answer_as_per_position_references(seed, seed2, shape, data):
    """One question per kind about a drawn weight list answers position by
    position as the references do, for a drawn g: W -> V between generated
    categories.  The list holds several members of one class, repeated
    pairs, a later member of a class before the first one, classes out of
    their order with the highest last, and empty masks; a question of no
    pairs, or of empty masks only, resolves no row.  Every
    creation record the census stored that is strict is also upstairs and
    closed, which is why the census reads both modes from strict records
    alone (colim.settled_records)."""
    W = corpus.generate_category(seed, *shape)
    V = corpus.generate_category(seed2, *shape)
    assume(W is not None and V is not None)
    g = data.draw(st.sampled_from(list(itertools.islice(enumerate_functors(W, V), 12))))
    T, I = corpus.terminal_category(), corpus.interval_category()
    X, Y = data.draw(st.sampled_from([(T, I), (I, T), (I, I)]))
    census = DownstairsCensus()
    weights, ds = reference.weights(census, X, Y, 2, 200_000), census.diagrams(X, g)
    assert census.colimits(identity_functor(V), census.diagrams(Y, g), []) == []
    assert census.creations(ds, [], "limit") == [] and census.limits(ds, [(w, 0) for w in weights[:2]]) == [0, 0]
    assert census._creations == {} and not any(ds.masks for ds in census._diagrams.values())
    mates = [w for w in weights if w.cls == min(cls for *_, cls in shared_classes(weights))]
    drawn = data.draw(st.lists(st.sampled_from(weights), min_size=1, max_size=4))
    asked = [mates[-1]] + drawn + drawn[:1] + [mates[0], max(weights, key=lambda w: w.cls)]
    roots = [identity_functor(V), corpus.point_functor(V, V.objects[-1])]
    assert_masks_match_references(census, g, asked, roots, lambda n: drawn_mask(data, n))
    records = [record for key, entry in census._pointwise.items() if len(key) == 4 and key[1] == "creation"
               for record in entry.values() if record is not None]
    assert all(record.upstairs and record.closed for record in records if record.strict)


@pytest.mark.parametrize("X, Y", [("Terminal", "Interval"), ("Interval", "Terminal")])
def test_batches_answer_as_references_where_answers_vary(X, Y):
    """The same over every weight of the cap-2 lists Terminal -|-> Interval
    and Interval -|-> Terminal and the sixth functor Vee -> PP, where
    neighbouring diagrams get different answers in every kind of question,
    and over every other position.  Each creation row then
    holds masks per class of the list, and each of them and each colimit,
    absoluteness and limit mask holds facts only about the diagrams of the
    list it is asked over, and only facts it knows."""
    S = corpus.STANDARD_CATEGORIES
    V = S["PP"]()
    g = list(itertools.islice(enumerate_functors(S["Vee"](), V), 6))[-1]
    census = DownstairsCensus()
    weights = reference.weights(census, S[X](), S[Y](), 2, 200_000)
    assert shared_classes(weights)
    roots = [identity_functor(V), corpus.point_functor(V, V.objects[-1])]
    assert_masks_match_references(census, g, weights, roots, every_other)
    rows = list(census._creations.items())
    assert rows and all(set(classes) <= {w.cls for w in weights} for _, classes in rows)
    for (_, kind, src, tgt, _), classes in rows:
        n = len(census.diagrams(src if kind == "limit" else tgt, g))
        assert all(row >> 4 * n == 0 and all(row >> k * n & ~row & (1 << n) - 1 == 0 for k in (1, 2, 3))
                   for row in classes.values())
    masks = [(len(ds), mask) for ds in census._diagrams.values() for key, columns in ds.masks.items()
             if key[0] != "settled" for mask in columns.values()]
    assert masks and all(known >> n == 0 and holds & ~known == 0 for n, (known, holds, _) in masks)


def test_settled_walk_computes_a_missing_record_at_its_own_column(monkeypatch):
    """Over the cap-2 list Interval -|-> Interval in reversed order and the
    sixth functor Vee -> PP, a limit question reaches a column at its
    second x that no earlier question reached, past a first column whose
    creation record settles it: the settled walk computes the record
    there, from that x's column records, as creation_records would, and
    every question answers as the per-position references do."""
    S = corpus.STANDARD_CATEGORIES
    V = S["PP"]()
    g = list(itertools.islice(enumerate_functors(S["Vee"](), V), 6))[-1]
    census = DownstairsCensus()
    weights = reference.weights(census, S["Interval"](), S["Interval"](), 2, 200_000)
    later, real = [], colim.creation_at

    def creation_at(entry, p, x, column):
        if sys._getframe(1).f_code.co_name == "decide":
            later.append(column not in entry.records and x != p.src.objects[0])
        return real(entry, p, x, column)
    monkeypatch.setattr(colim, "creation_at", creation_at)
    roots = [identity_functor(V), corpus.point_functor(V, V.objects[-1])]
    assert_masks_match_references(census, g, weights[::-1], roots, every_other)
    assert any(later)


def shared_carrier_forgetful():
    """u_T for the first relative monad T on the point root at o0 of
    generate_category(24, 2, 2) with two algebras on one carrier: u_T sends
    two diagrams to one composite."""
    V = corpus.generate_category(24, 2, 2)
    for T in enumerate_relative_monads(corpus.point_functor(V, V.objects[0])):
        u = build_algebra_category(T).u
        if len(set(map(u.ob, u.dom.objects))) < len(u.dom.objects):
            return u


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       seed2=st.integers(min_value=0, max_value=10**4),
       shape=st.sampled_from([(1, 2), (2, 1), (2, 2)]),
       shared=st.booleans(),
       data=st.data())
def test_mask_questions_answer_as_per_position_references(seed, seed2, shape, shared, data):
    """Every mask question answers bit by bit as the per-position
    references do, over weights of a drawn list asked in reverse list
    order, with every position, drawn masks and empty masks, for g either
    a forgetful functor that sends two diagrams of each list to one
    composite (shared_carrier_forgetful) or a drawn functor between
    generated categories."""
    if shared:
        g = shared_carrier_forgetful()
    else:
        W, V = corpus.generate_category(seed, *shape), corpus.generate_category(seed2, *shape)
        assume(W is not None and V is not None)
        g = data.draw(st.sampled_from(list(itertools.islice(enumerate_functors(W, V), 12))))
    T, I = corpus.terminal_category(), corpus.interval_category()
    X, Y = data.draw(st.sampled_from([(T, T), (T, I), (I, T), (I, I)]))
    census = DownstairsCensus()
    weights = reference.weights(census, X, Y, 2, 200_000)
    picked = data.draw(st.lists(st.sampled_from(range(len(weights))), min_size=1, max_size=4, unique=True))
    asked = [weights[i] for i in sorted(picked, reverse=True)]
    if shared:
        assert all(len({d.d.table() for d in census.diagrams(Z, g)}) < len(census.diagrams(Z, g)) for Z in (X, Y))
    roots = [identity_functor(g.cod), corpus.point_functor(g.cod, g.cod.objects[-1])]
    assert_masks_match_references(census, g, asked, roots, lambda n: drawn_mask(data, n))


# ---------------------------------------------------------------------------
# weight classes


def test_class_ids_are_the_isomorphism_classes():
    """Each list's class ids number the isomorphism classes of its weights
    in the order of their first members: two weights share an id exactly
    when some renaming of each component's elements carries one to the
    other, found here by trying every renaming.  The suite's shapes at cap
    2 hold 615 weights in 315 classes."""
    census = DownstairsCensus()
    shapes = default_shape_family()
    sizes = []
    for cap in (1, 2):
        for X in shapes:
            for Y in shapes:
                weights = reference.weights(census, X, Y, cap, 200_000)
                forms = [min(q.table() for q in relabellings(w.p)) for w in weights]
                first = {}
                assert [w.cls for w in weights] == [first.setdefault(form, len(first)) for form in forms]
                sizes.append((cap, len(weights), len(first)))
    assert sum(n for cap, n, _ in sizes if cap == 2) == 615
    assert sum(classes for cap, _, classes in sizes if cap == 2) == 315
    # at cap 1 no component has two elements to swap
    assert all(n == classes for cap, n, classes in sizes if cap == 1)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       seed2=st.integers(min_value=0, max_value=10**4),
       shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
       data=st.data())
def test_relabelled_weights_share_a_class_and_answer_as_their_searches(seed, seed2, shape, data):
    """A listed weight relabelled at random, per component, is the listed
    weight of the same class id.  After the census answered the first, it
    answers the relabelled one from the same row, and those answers are
    the direct searches' on the relabelled weight: colimit and
    j-absoluteness, limit, preservation and both creation modes and kinds,
    for g: W -> V between generated categories."""
    W = corpus.generate_category(seed, *shape)
    V = corpus.generate_category(seed2, *shape)
    assume(W is not None and V is not None)
    g = next(enumerate_functors(W, V), None)
    assume(g is not None)
    census = DownstairsCensus()
    T, I, D2 = corpus.terminal_category(), corpus.interval_category(), corpus.disc2_category()
    X, Y = data.draw(st.sampled_from([(T, I), (I, T), (I, I), (I, D2), (D2, I)]))
    weights = reference.weights(census, X, Y, 2, 200_000)
    w = data.draw(st.sampled_from([w for w in weights if any(v.cls == w.cls and v is not w for v in weights)]))
    perms = {(y, x): data.draw(st.permutations(range(len(w.p.el(y, x))))) for y in Y.objects for x in X.objects}
    q = relabel(w.p, perms)
    v = next(v for v in weights if v.p.table() == q.table())
    assert v.cls == w.cls
    roots = [identity_functor(V), corpus.point_functor(V, V.objects[-1])]
    colimits, limits = census.diagrams(Y, g), census.diagrams(X, g)

    def answers(handle):
        out = [reference.colimit(census, j, handle, d) for j in roots for d in colimits]
        out += [reference.limit(census, handle, d) for d in limits]
        out += [reference.preserves(census, handle, d) for d in colimits]
        out += [outcome(lambda: reference.creation(census, handle, d, kind, mode))
                for kind, ds in (("colimit", colimits), ("limit", limits)) for d in ds
                for mode in ("strict", "nonstrict")]
        return out

    answers(w)
    direct = [direct_colimit_verdict(j, q, d.d) for j in roots for d in colimits]
    direct += [try_weighted_limit(q, d.d)[0] is not None for d in limits]
    direct += [reference_preserves(g, q, d.f)[2] for d in colimits]
    direct += [outcome(lambda: check_creation(g, q, d.f, mode=mode, kind=kind).passed)
               for kind, ds in (("colimit", colimits), ("limit", limits)) for d in ds
               for mode in ("strict", "nonstrict")]
    assert answers(v) == direct


def test_class_level_loops_answer_as_per_weight_loops(monkeypatch):
    """forgetful_creates and the creation audit ask the census once per
    question kind along a list, about the first member of each weight
    class, and give the class's later members its answers.  With census
    creations patched to fail in some classes, both equal plain loops over
    every labelled weight (tests/reference.py): forgetful_creates the same
    checked count and details in the same order, and each audit the same
    items, weight indices included, and downstairs colimit counts."""
    original = DownstairsCensus.creations

    def creations(self, diagrams, asked, kind):
        # a function of the class, as every census answer is
        return [tuple(passed & sum(1 << i for i in bits(m) if (w.cls + i) % modulus != 1)
                      for passed, modulus in zip(answers, (3, 5)))
                for (w, m), answers in zip(asked, original(self, diagrams, asked, kind))]

    monkeypatch.setattr(DownstairsCensus, "creations", creations)
    instances, shapes, budget = corpus.builtin_corpus(), default_shape_family(), budget_limit()
    result = _check_forgetful_creates(_Context(instances, shapes, 2, budget))
    checked, details = reference.forgetful_creates(_Context(instances, shapes, 2, budget))
    assert (result.checked, result.details) == (checked, details)
    assert checked == 34_364 and len(set(details)) < len(details)

    failing, shared = 0, set()
    for inst, j, role, r in _Context(instances, shapes, 2, budget).root_pairs()[:6]:
        got = creation_audit(Run(), j, r, shapes, 2)
        items, tested = reference.audit_items(DownstairsCensus(), j, r, shapes, 2, budget)
        assert [it.to_dict() for it in got.items] == [it.to_dict() for it in items], (inst.name, role)
        assert (got.census["downstairs_colimits"], got.census["absolute"]) == (tested, len(items))
        failing += len(got.failing_items("strict"))
        shared |= {(it.shape_pair, it.weight_index) for it in got.items}
    census = DownstairsCensus()
    classes = collections.Counter((X.name, Y.name, w.cls) for X in shapes for Y in shapes
                                  for w in reference.weights(census, X, Y, 2, budget)
                                  if ((X.name, Y.name), w.index) in shared)
    assert failing and max(classes.values()) > 1


def test_suite_pass_answers_each_weight_class_once(monkeypatch):
    """Over one suite pass on the builtin corpus: at most 1,854 creation
    positions fetch their creation records (12,516 when every cold
    position did; 2,817 when the settled walk left a missing record
    unknown) and the others are settled by the records stored or computed
    there, at most 3,708 creation searches (25,032), 30,000
    pointwise_colimit calls (53,657) and none of them, nor of
    is_j_absolute, made by a census question itself (28,025 and 16,117
    when the census filled each position on its own), at most 3,881
    colimit, absoluteness and limit facts decided by the census's column
    masks, kept over the positions of the diagram lists asked (2,406 when
    colimit and limit facts were kept over the composites' positions,
    which two diagrams may share; 21,890 colimit and 5,673 limit positions
    were filled one by one), at most
    1,893 colimit searches at a column and 4,263 natural_families calls,
    no CreationReport built by the census, and E(j, d) built at most
    once per (root, diagram) by the census.  Every strict
    creation search the census makes reads only the verdict, and limit
    store entries are built only for diagram lists asked a limit question
    (80 of 237 handles; all 237 when every handle built its own).  The suite's
    loops ask the census once per question kind and weight list, about
    the first member of each class: at most 15,230 creation positions
    (each answered in both modes; asked one mode at a time, 15,215
    positions took 30,053 questions, and 53,537 per labelled weight) and
    36,800 colimit positions (71,880 per labelled weight) are asked, each
    question checking its diagram list once, by identity, at
    most 24,000 list resolutions in all (77,812 when every question
    resolved its own row) and at most 1,500 questions (35,270 when the
    loops asked once per weight class and question kind).  Strict creation walks its lifts
    (reading the weight's left plan) only at positions whose records are
    not all strict (1,854), verify_algebra_object enumerates the lifted
    graded cells at most 1,063 times, once per (alg1, alg2, chain) with a
    graded morphism (1,573 once per morphism), over a lift distributor
    built once per algebra pair with one (at most 950 restrict_distributor
    calls in the pass; 1,756 when it was built once per chain), and the monadicity
    decisions build at most 119 comparison functors, one per (j, r, co)
    asked with a left relative adjoint (317 when every decision built
    its own), from at most 121 resolutions.  Every monadicity question
    reads its resolution's adjunction and density: the pass makes at most
    132 left relative adjoint searches (160 when the resolution property
    searched each root pair again and the monadic-iff-adjoint check
    searched beside its decision).  The run builds each algebra category
    and density verdict once: at most 47 algebra categories (147 when
    each resolution and composite triple built its own) and 40 density
    checks (151 once per resolution, 222 when the audits and the
    tight-cell loop checked the root again).  Questions take and return
    masks and the audits keep theirs, so the pass builds no AuditItem
    (9,398 when each audit expanded its items) and computes class
    representatives once per weight list, 9 calls (89 when the small
    weights were filtered per call)."""
    counts, entries, inside, per_batch = collections.Counter(), collections.Counter(), [], []
    censuses = []
    # a census question's own frames: a call made from one of them is the census's
    questions = ("colimits", "limits", "creations", "preserved", "_asks", "_creation_masks")

    def count(owner, name, note=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if note:
                note(*args)
            inside.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, wrapper)

    def batch(name, asked):
        original = getattr(DownstairsCensus, name)

        def wrapper(self, *args):
            counts[name] += 1
            counts[name + " positions"] += sum(mask.bit_count() for _, mask in asked(*args))
            rows, _ = counts["list resolutions"], inside.append(name)
            try:
                return original(self, *args)
            finally:
                inside.pop()
                per_batch.append(counts["list resolutions"] - rows)
        monkeypatch.setattr(DownstairsCensus, name, wrapper)

    strict, limit_lists = [], {}

    def strict_search(g, p, records, verdict=False):
        strict.append(all(r.strict for r in records))
        counts["not all strict"] += not strict[-1]
        counts["verdict only"] += verdict

    def limit_entry(g, f, kind, store):
        counts["limit entries"] += kind == "limit"

    def asked_limits(diagrams, kind="limit"):
        if kind == "limit":
            limit_lists[id(diagrams)] = len(diagrams)

    def left_plan(p):
        if inside[-1:] == ["_strict_colimit_creation"]:
            counts["lift walks"] += 1
            assert not strict[-1]

    def per_position(*_):
        if inside[-1:] and inside[-1] in questions:
            counts["census per-position calls"] += 1

    count(DownstairsCensus, "__init__", lambda self: censuses.append(self))
    count(colim, "creation_records")
    count(colim, "creation_search")
    count(colim, "pointwise_colimit", per_position)
    count(colim, "is_j_absolute", per_position)
    count(colim, "natural_families")
    count(colim._Column, "_search")
    count(prof, "hom_restriction", lambda E, j, f: "colimits" in inside and entries.update(
        [(content(j), content(f))]))
    count(colim, "_strict_colimit_creation", strict_search)
    count(colim, "creation_entry", limit_entry)
    count(Distributor, "left_plan", left_plan)
    batch("colimits", lambda j, diagrams, asked: asked)
    batch("limits", lambda diagrams, asked: asked_limits(diagrams) or asked)
    batch("creations", lambda diagrams, asked, kind: asked_limits(diagrams, kind) or asked)
    batch("preserved", lambda diagrams, asked: asked)
    # every question resolves its lists once; one of empty masks resolves none
    count(DownstairsCensus, "_asks", lambda self, diagrams, asked, *_: any(m for _, m in asked) and counts.update(
        ["list resolutions"]))
    count(colim.CreationReport, "__init__", lambda *_: "_creation_masks" in inside and counts.update(["census report"]))
    count(DownstairsCensus, "_creation_masks")
    count(census_module, "class_representatives")
    count(monadicity, "AuditItem")
    count(monadicity, "comparison_functor")
    for module in (colim, reladj, corpus, monadicity, suite):
        for name in ("find_left_relative_adjoint", "is_dense", "build_algebra_category"):
            if hasattr(module, name):
                count(module, name)
    resolution = monadicity.Run.resolution

    def resolve(self, j, r, co=False):
        counts["resolutions"] += (j, r, co) not in self._resolutions
        return resolution(self, j, r, co)
    monkeypatch.setattr(monadicity.Run, "resolution", resolve)
    count(suite, "verify_algebra_object")
    count(prof, "restrict_distributor")
    count(algebra, "_graded_morphisms")
    count(algebra, "enumerate_graded_cells", lambda *_: "verify_algebra_object" in inside and (
        "_graded_morphisms" not in inside) and counts.update(["graded lifts"]))
    report = run_theorem_suite(corpus.builtin_corpus())
    assert report.passed and sum(r.checked for r in report.results) == 34_975
    assert 0 < counts["creation_records"] <= 1_854
    assert 0 < counts["creation_search"] <= 3_708
    assert counts["creation_search"] == 2 * counts["creation_records"]
    assert counts["verdict only"] == counts["_strict_colimit_creation"] == counts["creation_records"]
    assert 0 < counts["limit entries"] <= sum(limit_lists.values()) < sum(
        len(handles) for census in censuses for handles in census._diagrams.values())
    assert 0 < counts["pointwise_colimit"] <= 30_000
    assert counts["census per-position calls"] == 0
    facts = [mask[0].bit_count() for census in censuses for ds in census._diagrams.values()
             for key, columns in ds.masks.items() if key[0] != "settled" for mask in columns.values()]
    assert 0 < sum(facts) <= 3_881
    assert 0 < counts["_search"] <= 1_893
    assert 0 < counts["natural_families"] <= 4_263
    assert counts["census report"] == 0
    assert entries and max(entries.values()) == 1
    assert 0 < counts["creations positions"] <= 15_230
    assert 0 < counts["colimits positions"] <= 36_800
    assert 0 < counts["list resolutions"] <= 24_000 and max(per_batch) == 1
    assert counts["_asks"] <= 1_500
    assert 0 < counts["class_representatives"] <= 9 and counts["AuditItem"] == 0
    assert len(per_batch) == sum(counts[name] for name in ("colimits", "limits", "creations", "preserved"))
    assert 0 < counts["lift walks"] == counts["not all strict"] <= 1_854
    assert 0 < counts["graded lifts"] <= 1_063
    assert 0 < counts["restrict_distributor"] <= 950
    assert 0 < counts["comparison_functor"] <= 119
    assert 0 < counts["resolutions"] <= 121
    assert 0 < counts["find_left_relative_adjoint"] <= 132
    assert 0 < counts["is_dense"] <= 40
    assert 0 < counts["build_algebra_category"] <= 47
