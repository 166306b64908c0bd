import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from relmon import colim as colim_module
from relmon import corpus
from relmon.colim import (
    check_creation,
    extension_unit,
    is_dense,
    is_j_absolute,
    left_extension,
    natural_families,
    try_left_extension,
    try_weighted_colimit,
    try_weighted_limit,
    verify_weighted_colimit,
    weighted_colimit,
    weighted_limit,
)
from relmon.errors import DownstairsMissing, TheoremViolation
from relmon.fincat import FunctorData, constant_functor, enumerate_functors, identity_functor
from relmon.prof import (
    Distributor,
    enumerate_distributors,
    hom_distributor,
    hom_restriction,
    restrict_distributor,
    validate_distributor,
)

from . import reference


@pytest.fixture(scope="module")
def cats():
    return {name: make() for name, make in corpus.STANDARD_CATEGORIES.items()}


def representable_weight(Y, y0):
    """p: Terminal -|-> Y with p(y, *) = Y(y, y0)."""
    return restrict_distributor(hom_distributor(Y), identity_functor(Y),
                                corpus.point_functor(Y, y0))


def conical_weight(Y):
    """Constant singleton weight Terminal -|-> Y for conical (co)limits."""
    T = corpus.terminal_category()
    elements = {(y, "*"): ("c",) for y in Y.objects}
    right = {(m, "*", "c"): "c" for m in Y.morphism_names() if not Y.is_identity(m)}
    return validate_distributor(Distributor(T, Y, elements, right, {}))


def brute_force_families(p, x, f, W, wprime):
    """Every assignment of the slots, in product order, kept when natural."""
    Y = p.tgt
    slots = [(y, e) for y in Y.objects for e in p.el(y, x)]
    out = []
    for combo in itertools.product(*[W.hom(f.ob(y), wprime) for (y, _) in slots]):
        phi = dict(zip(slots, combo))
        if all(phi[(Y.dom(m), p.act_r(m, x, e))] == W.comp(f.mor(m), phi[(Y.cod(m), e)])
               for m in Y.morphism_names() for e in p.el(Y.cod(m), x)):
            out.append(phi)
    return out


def corpus_weights(Y):
    return [representable_weight(Y, y0) for y0 in Y.objects] + [conical_weight(Y)]


# ---------------------------------------------------------------------------
# natural families and the column records


def test_natural_families_match_product_then_filter(cats, monkeypatch):
    """Fresh and stored families equal product-then-filter, in order.

    A fresh call builds its own family plan; a column record builds one on
    its first enumeration and reuses it for every w'.
    """
    plans = []
    build_plan = colim_module._family_plan
    monkeypatch.setattr(colim_module, "_family_plan",
                        lambda *args: plans.append(args) or build_plan(*args))
    checked = 0
    for name in ("Interval", "BZ2", "BM3", "Split", "Indisc2", "Vee", "Span", "Square", "PP"):
        Y = cats[name]
        diagrams = [identity_functor(Y)] + list(enumerate_functors(Y, cats["Split"]))[:4]
        for p in corpus_weights(Y):
            for f in diagrams:
                W = f.cod
                records = {}
                plans.clear()
                for x in p.src.objects:
                    column = colim_module._column(records, p, x, f)
                    for wprime in W.objects:
                        got = natural_families(p, x, f, W, wprime)
                        cached = [dict(zip(p.slots(x), values)) for values in column.family_values(wprime)]
                        want = brute_force_families(p, x, f, W, wprime)
                        assert got == want and cached == want
                        assert ([list(fam) for fam in got] == [list(fam) for fam in cached]
                                == [list(fam) for fam in want])
                        checked += 1
                fresh = len(p.src.objects) * len(W.objects)
                assert len(plans) == fresh + len(records)
    assert checked > 100


def test_cached_colimit_equals_fresh_search(cats, monkeypatch):
    """A colimit read from one store shared by every weight and diagram
    equals a fresh search in a private store, and the shared store builds
    and searches each (diagram id, column id) record at most once."""
    built, searched, sharing = [], [], [False]
    init, search = colim_module._Column.__init__, colim_module._Column._search

    def key(record):
        return colim_module._diagram_id(record.f), record.p.column(record.x)

    def counted_init(record, *args):
        init(record, *args)
        if sharing[0]:
            built.append(key(record))

    def counted_search(record):
        if sharing[0]:
            searched.append(key(record))
        return search(record)

    monkeypatch.setattr(colim_module._Column, "__init__", counted_init)
    monkeypatch.setattr(colim_module._Column, "_search", counted_search)
    store = {}
    for name in ("Interval", "BZ2", "Split", "Indisc2", "Vee", "PP"):
        Y = cats[name]
        for p in corpus_weights(Y):
            for f in [identity_functor(Y)] + list(enumerate_functors(Y, cats["Interval"])):
                fresh, fresh_failed = try_weighted_colimit(p, f)
                sharing[0] = True
                colim, failed = try_weighted_colimit(p, f, store)
                sharing[0] = False
                if colim is None:
                    assert fresh is None and failed == fresh_failed
                    continue
                assert colim.apex.on_objects == fresh.apex.on_objects
                assert colim.apex.on_morphisms == fresh.apex.on_morphisms
                assert colim.legs == fresh.legs
                assert verify_weighted_colimit(colim)
    assert built and len(built) == len(set(built)) == sum(map(len, store.values()))
    assert searched and len(searched) == len(set(searched)) and set(searched) <= set(built)


def test_equal_content_colimits_bind_callers_objects():
    Y1, Y2 = corpus.split_category(), corpus.split_category()
    p1, p2 = representable_weight(Y1, "x"), representable_weight(Y2, "x")
    f1, f2 = identity_functor(Y1), identity_functor(Y2)
    assert p1 is not p2 and f1 is not f2

    first, _ = try_weighted_colimit(p1, f1)
    second, _ = try_weighted_colimit(p2, f2)
    assert second.weight is p2 and second.diagram is f2
    assert second.apex.dom is p2.src and second.apex.cod is f2.cod
    assert first.weight is p1 and first.apex.cod is f1.cod
    assert second.legs == first.legs and second.legs is not first.legs


# ---------------------------------------------------------------------------
# weighted colimits


def test_yoneda_representable_weights(cats):
    # representable weight -> apex isomorphic to f(y0), for every corpus
    # category and every diagram into itself
    for name in ("Interval", "BZ2", "Split", "Indisc2", "Vee"):
        Y = cats[name]
        f = identity_functor(Y)
        for y0 in Y.objects:
            colim = weighted_colimit(representable_weight(Y, y0), f)
            apex = colim.apex.ob("*")
            assert Y.iso_related(apex, f.ob(y0))
            assert verify_weighted_colimit(colim)


def test_indisc2_point_weight_least_choice(cats):
    I = cats["Indisc2"]
    p = representable_weight(I, "1")
    colim = weighted_colimit(p, identity_functor(I))
    # both objects represent; canonical order picks 0
    assert colim.apex.ob("*") == "0"
    assert verify_weighted_colimit(colim)


def test_empty_weight_gives_initial_object(cats):
    T = corpus.terminal_category()
    E = cats["Empty"]
    f = FunctorData(E, cats["Interval"], {}, {})
    # weight Terminal -|-> Empty: colimit indexed by Terminal, empty diagram
    p = Distributor(T, E, {}, {}, {})
    colim, failed = try_weighted_colimit(p, f)
    assert colim is not None
    assert colim.apex.ob("*") == "0"

    f2 = FunctorData(E, cats["Disc2"], {}, {})
    colim2, failed2 = try_weighted_colimit(p, f2)
    assert colim2 is None and failed2 == "*"   # Disc2 has no initial object


def test_empty_weight_limit_gives_terminal_object(cats):
    T = corpus.terminal_category()
    E = cats["Empty"]
    g = FunctorData(E, cats["Interval"], {}, {})
    p = Distributor(E, T, {}, {}, {})   # limit indexed by Terminal, empty diagram
    lim, _ = try_weighted_limit(p, g)
    assert lim is not None
    assert lim.apex.ob("*") == "1"


def test_weighted_limit_representable_dual_yoneda(cats):
    # dual Yoneda: limit weighted by corepresentable weight is g at the object
    for name in ("Interval", "Split"):
        Y = cats[name]
        g = identity_functor(Y)
        for y0 in Y.objects:
            # weight Y -|-> Terminal with p(*, x) = Y(y0, x)
            p = restrict_distributor(hom_distributor(Y), corpus.point_functor(Y, y0),
                                     identity_functor(Y))
            lim, _ = try_weighted_limit(p, g)
            assert lim is not None
            assert Y.iso_related(lim.apex.ob("*"), y0)


def test_limit_is_dual_of_colimit_tablewise(cats):
    # duality round-trip on a batch of instances: computing the limit equals
    # dualizing, computing the colimit, and dualizing back; spot check via
    # the conical coproduct/product pair in Vee and its opposite
    from relmon.fincat import opposite
    from relmon.prof import dual_distributor
    from relmon.fincat import opposite_functor

    Vee = cats["Vee"]
    D2 = cats["Disc2"]
    f = FunctorData(D2, Vee, {"0": "a", "1": "b"}, {"id0": "ida", "id1": "idb"})
    p = conical_weight(D2)
    colim, _ = try_weighted_colimit(p, f)
    assert colim is not None and colim.apex.ob("*") == "c"

    Wedge = opposite(Vee)   # c -> a, c -> b: has binary product c
    pd = dual_distributor(p)
    g_op = opposite_functor(f, opposite(D2), Wedge)
    lim, _ = try_weighted_limit(pd, g_op)
    assert lim is not None and lim.apex.ob("*") == "c"


def test_limit_universal_property_verified_directly(cats):
    # independent cross-check of the dualization route: every computed limit
    # must satisfy the limit universal property checked in un-dualized terms,
    # over a batch of more than 20 corpus instances
    from relmon.colim import verify_weighted_limit
    from relmon.prof import dual_distributor
    checked = 0
    for name in ("Interval", "Split", "BZ2", "Indisc2", "Vee", "Square", "PP"):
        Y = cats[name]
        g = identity_functor(Y)
        for y0 in Y.objects:
            p = restrict_distributor(hom_distributor(Y), corpus.point_functor(Y, y0),
                                     identity_functor(Y))
            lim, _ = try_weighted_limit(p, g)
            if lim is None:
                continue
            assert verify_weighted_limit(lim), (name, y0)
            checked += 1
    # conical product shapes and the empty weight
    Wedge = __import__("relmon.fincat", fromlist=["opposite"]).opposite(cats["Vee"])
    D2 = cats["Disc2"]
    gg = FunctorData(D2, Wedge, {"0": "a", "1": "b"}, {"id0": "ida", "id1": "idb"})
    pl = dual_distributor(conical_weight(D2))
    lim, _ = try_weighted_limit(pl, gg)
    assert lim is not None and verify_weighted_limit(lim)
    checked += 1
    T = corpus.terminal_category()
    E = cats["Empty"]
    lim2, _ = try_weighted_limit(Distributor(E, T, {}, {}, {}),
                                 FunctorData(E, cats["Interval"], {}, {}))
    assert verify_weighted_limit(lim2)
    checked += 1
    for name in ("Interval", "Split", "BZ2"):
        C = cats[name]
        h = hom_distributor(C)
        lim3, _ = try_weighted_limit(h, identity_functor(C))
        if lim3 is not None:
            assert verify_weighted_limit(lim3), name
            checked += 1
    assert checked >= 20


def test_split_coequalizer_colimit(cats):
    E = cats["Split"]
    PP = cats["PP"]
    f = FunctorData(PP, E, {"0": "x", "1": "x"},
                    {"id0": "idx", "id1": "idx", "a": "e", "b": "idx"})
    colim = weighted_colimit(conical_weight(PP), f)
    assert colim.apex.ob("*") == "y"
    assert colim.leg("1", "*", "c") == "r"
    assert verify_weighted_colimit(colim)


# ---------------------------------------------------------------------------
# absoluteness


def test_empty_root_makes_everything_absolute(cats):
    E = cats["Vee"]
    D2 = cats["Disc2"]
    f = FunctorData(D2, E, {"0": "a", "1": "b"}, {"id0": "ida", "id1": "idb"})
    colim, _ = try_weighted_colimit(conical_weight(D2), f)
    ok, witness = is_j_absolute(corpus.empty_functor(E), colim)
    assert ok and witness is None


def test_split_idempotent_splitting_is_absolute(cats):
    E = cats["Split"]
    PP = cats["PP"]
    f = FunctorData(PP, E, {"0": "x", "1": "x"},
                    {"id0": "idx", "id1": "idx", "a": "e", "b": "idx"})
    colim, _ = try_weighted_colimit(conical_weight(PP), f)
    ok, witness = is_j_absolute(identity_functor(E), colim)
    assert ok, witness


def test_vee_coproduct_not_absolute(cats):
    E = cats["Vee"]
    D2 = cats["Disc2"]
    f = FunctorData(D2, E, {"0": "a", "1": "b"}, {"id0": "ida", "id1": "idb"})
    colim, _ = try_weighted_colimit(conical_weight(D2), f)
    ok, witness = is_j_absolute(identity_functor(E), colim)
    assert not ok
    assert witness == ("c", "*")   # hom(c,-) sees an empty tensor but one map


def test_yoneda_colimits_absolute_for_identity_root(cats):
    # representable-weight colimits are j-absolute for every root into E
    for name in ("Interval", "Split"):
        E = cats[name]
        for y0 in E.objects:
            colim = weighted_colimit(representable_weight(E, y0), identity_functor(E))
            ok, _ = is_j_absolute(identity_functor(E), colim)
            assert ok


def absolute_cases(E, roots):
    """(j, colim) for each root j into E and each existing colimit in E of a
    cap-1 weight between Terminal, Interval and Disc2 (Disc2 gives two
    columns per weight, so a later x can fail at an earlier a)."""
    shapes = [corpus.terminal_category(), corpus.interval_category(), corpus.disc2_category()]
    out = []
    for X in shapes:
        for Y in shapes:
            for p in enumerate_distributors(X, Y, 1):
                for f in enumerate_functors(Y, E):
                    colim, _ = try_weighted_colimit(p, f)
                    if colim is not None:
                        out += [(j, colim) for j in roots]
    return out


def assert_absoluteness_matches_reference(cases):
    """is_j_absolute with a private store, and through one store cold, warm
    and in reverse order, against the per-call reference."""
    want = [reference.is_j_absolute(j, colim) for j, colim in cases]
    assert [is_j_absolute(j, colim) for j, colim in cases] == want
    store = {}
    for _ in range(2):
        assert [is_j_absolute(j, colim, store) for j, colim in cases] == want
    store = {}
    assert [is_j_absolute(j, colim, store) for j, colim in cases[::-1]] == want[::-1]
    return want


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
def test_absoluteness_matches_reference_on_generated_roots(seed, shape):
    """Roots with one and with several objects over one E share every
    diagram and column of one store."""
    E = corpus.generate_category(seed, *shape)
    assume(E is not None)
    roots = [identity_functor(E), corpus.point_functor(E, E.objects[-1])]
    roots += list(enumerate_functors(corpus.disc2_category(), E))[:2]
    assert_absoluteness_matches_reference(absolute_cases(E, roots))


def test_absoluteness_matches_reference_on_corpus_roots():
    verdicts = set()
    for inst in corpus.builtin_corpus():
        if inst.roles.get("root") == "j":
            j = inst.functors["j"]
            verdicts |= {ok for ok, _ in assert_absoluteness_matches_reference(absolute_cases(j.cod, [j]))}
    assert verdicts == {True, False}


def test_absoluteness_with_empty_index_or_empty_root(cats):
    E = cats["Vee"]
    empty = cats["Empty"]
    T = cats["Terminal"]
    for p in enumerate_distributors(empty, T, 1):
        for f in enumerate_functors(T, E):
            colim, _ = try_weighted_colimit(p, f)
            assert is_j_absolute(identity_functor(E), colim, {}) == (True, None)
    for j, colim in absolute_cases(E, [corpus.empty_functor(E)]):
        assert is_j_absolute(j, colim, {}) == (True, None)


def span_coproduct(cats):
    """In Span, the colimit of f = (l, l): Disc2 -> Span weighted by p with
    p(-, 0) empty and p(-, 1) one element at each y: the initial object at
    0 and l + l at 1.  Along the identity root, x = 0 first fails at a = m
    and x = 1 already at a = l."""
    D2, E = cats["Disc2"], cats["Span"]
    p = validate_distributor(Distributor(D2, D2, {("0", "1"): ("e0",), ("1", "1"): ("e0",)}, {}, {}))
    f = next(f for f in enumerate_functors(D2, E) if f.on_objects == {"0": "l", "1": "l"})
    return p, f


def test_first_failing_pair_is_a_major_when_a_later_x_fails_first(cats):
    p, f = span_coproduct(cats)
    j = identity_functor(cats["Span"])
    colim = weighted_colimit(p, f)
    q = hom_restriction(j.cod, j, f)
    at = colim_module.pointwise_colimit(p, f)
    assert at["1"] == (colim.apex.ob("1"), (colim.leg("0", "1", "e0"), colim.leg("1", "1", "e0")))
    assert [colim_module._first_failing_root(q, j, p, x, *at[x]) for x in ("0", "1")] == [1, 0]
    assert reference.is_j_absolute(j, colim) == (False, ("l", "1"))
    for store in (None, {}):
        assert is_j_absolute(j, colim, store) == (False, ("l", "1"))


def test_legs_not_natural_in_y_raise_on_a_cold_absoluteness_check(cats):
    """Legs idx, idx from (x, x) into x, which the split pair's zig-zag
    identifies: the canonical map is not class-invariant."""
    E, PP = cats["Split"], cats["PP"]
    f = FunctorData(PP, E, {"0": "x", "1": "x"},
                    {"id0": "idx", "id1": "idx", "a": "e", "b": "idx"})
    apex = FunctorData(cats["Terminal"], E, {"*": "x"}, {"id": "idx"})
    bad = colim_module.WeightedColimit(conical_weight(PP), f, apex,
                                       {("0", "*", "c"): "idx", ("1", "*", "c"): "idx"})
    for store in (None, {}):
        with pytest.raises(TheoremViolation, match="class-invariant"):
            is_j_absolute(identity_functor(E), bad, store)


def test_weights_sharing_a_column_share_one_absoluteness_check(cats, monkeypatch):
    """p(-, 1) and the Terminal-indexed weight with one element at each y
    have one column: through one store the second weight checks nothing."""
    p, f = span_coproduct(cats)
    T, D2 = cats["Terminal"], cats["Disc2"]
    p2 = validate_distributor(Distributor(T, D2, {("0", "*"): ("c",), ("1", "*"): ("d",)}, {}, {}))
    assert p2.column("*") == p.column("1") != p.column("0")
    checks = []

    def counted(q, j, p, x, apex, legs):
        checks.append(x)
        return first_failing_root(q, j, p, x, apex, legs)

    first_failing_root = colim_module._first_failing_root
    monkeypatch.setattr(colim_module, "_first_failing_root", counted)
    j = identity_functor(cats["Span"])
    store = {}
    assert is_j_absolute(j, weighted_colimit(p, f), store) == (False, ("l", "1"))
    assert checks == ["0", "1"]
    colim2 = weighted_colimit(p2, f)
    assert is_j_absolute(j, colim2, store) == reference.is_j_absolute(j, colim2) == (False, ("l", "*"))
    assert checks == ["0", "1"]
    # a private store checks again
    assert is_j_absolute(j, colim2) == (False, ("l", "*"))
    assert checks == ["0", "1", "*"]


# ---------------------------------------------------------------------------
# density


def test_empty_into_indisc2_dense(cats):
    ok, witness = is_dense(corpus.empty_functor(cats["Indisc2"]))
    assert ok and witness is None


def test_empty_into_disc2_not_dense(cats):
    ok, witness = is_dense(corpus.empty_functor(cats["Disc2"]))
    assert not ok
    assert witness in (("0", "1"), ("1", "0"))


def test_point_into_bz2_dense_matches_module_map_oracle(cats):
    # independent oracle: transformations of the nerve are maps M -> M with
    # phi(v;u) = v;phi(u); enumerate all 4 maps and filter.  Exactly |M| = 2
    # survive, and they are the postcompositions by e and s.
    E = cats["BZ2"]
    M = ("e", "s")
    surviving = []
    for vals in itertools.product(M, repeat=2):
        phi = dict(zip(M, vals))
        if all(phi[E.comp(v, u)] == E.comp(v, phi[u]) for v in M for u in M):
            surviving.append(phi)
    assert len(surviving) == 2
    postcomps = [{u: E.comp(u, k) for u in M} for k in M]
    assert all(pc in surviving for pc in postcomps)

    ok, witness = is_dense(corpus.point_functor(E, "*"))
    assert ok, witness


def test_point_into_bm3_dense(cats):
    ok, _ = is_dense(corpus.point_functor(cats["BM3"], "*"))
    assert ok


def test_identity_roots_always_dense(cats):
    for C in cats.values():
        ok, witness = is_dense(identity_functor(C))
        assert ok, (C.name, witness)


def test_point0_into_disc2_not_dense(cats):
    ok, witness = is_dense(corpus.point_functor(cats["Disc2"], "0"))
    assert not ok and witness == ("1", "0")


def test_disc2_into_interval_dense(cats):
    D2, I = cats["Disc2"], cats["Interval"]
    j = FunctorData(D2, I, {"0": "0", "1": "1"}, {"id0": "id0", "id1": "id1"})
    ok, _ = is_dense(j)
    assert ok


def test_point_x_into_split_dense(cats):
    ok, _ = is_dense(corpus.point_functor(cats["Split"], "x"))
    assert ok


# ---------------------------------------------------------------------------
# left extensions


def test_extension_along_identity_is_r(cats):
    for name in ("Interval", "BZ2", "Split"):
        C = cats[name]
        r = identity_functor(C)
        ext = left_extension(identity_functor(C), r)
        assert ext.apex.on_objects == r.on_objects
        assert ext.apex.on_morphisms == r.on_morphisms
        for d in C.objects:
            assert extension_unit(ext, identity_functor(C), d) == C.id_of(d)


def test_extension_of_indiscrete_diagram(cats):
    I = cats["Indisc2"]
    c = constant_functor(I, cats["Terminal"], "*")
    ext = left_extension(c, identity_functor(I))
    assert ext.apex.ob("*") == "0"    # least of the two isomorphic choices


def test_extension_along_empty_needs_initial(cats):
    E = cats["Empty"]
    c = FunctorData(E, cats["Terminal"], {}, {})
    r_ok = FunctorData(E, cats["Interval"], {}, {})
    ext, _ = try_left_extension(c, r_ok)
    assert ext is not None and ext.apex.ob("*") == "0"

    r_bad = FunctorData(E, cats["Disc2"], {}, {})
    ext2, failed = try_left_extension(c, r_bad)
    assert ext2 is None and failed == "*"


# ---------------------------------------------------------------------------
# creation


def test_identity_strictly_creates(cats):
    E = cats["Split"]
    PP = cats["PP"]
    f = FunctorData(PP, E, {"0": "x", "1": "x"},
                    {"id0": "idx", "id1": "idx", "a": "e", "b": "idx"})
    report = check_creation(identity_functor(E), conical_weight(PP), f,
                            mode="strict", kind="colimit")
    assert report.passed and report.lift_count == 1
    report2 = check_creation(identity_functor(E), conical_weight(PP), f,
                             mode="nonstrict", kind="colimit")
    assert report2.passed


def test_indisc2_to_terminal_strict_fails_nonstrict_passes(cats):
    # the classic equivalence-but-not-iso situation: two on-the-nose lifts
    I, T = cats["Indisc2"], cats["Terminal"]
    g = constant_functor(I, T, "*")
    TT = corpus.terminal_category()
    p = representable_weight(TT, "*")                      # singleton weight
    f = corpus.point_functor(I, "0")
    strict = check_creation(g, p, f, mode="strict", kind="colimit")
    assert not strict.passed and strict.lift_count == 2
    nonstrict = check_creation(g, p, f, mode="nonstrict", kind="colimit")
    assert nonstrict.passed


def test_downstairs_missing_raises(cats):
    # empty colimit in Disc2 does not exist, so creation cannot be checked
    D2 = cats["Disc2"]
    T = corpus.terminal_category()
    p = Distributor(T, corpus.empty_category(), {}, {}, {})
    f = FunctorData(corpus.empty_category(), D2, {}, {})
    with pytest.raises(DownstairsMissing):
        check_creation(identity_functor(D2), p, f, mode="strict", kind="colimit")


def test_identity_strictly_creates_everything_in_census(cats):
    # sweep: wherever the downstairs colimit exists, the identity functor
    # strictly and non-strictly creates it
    from relmon.prof import enumerate_distributors
    from relmon.fincat import enumerate_functors
    T = corpus.terminal_category()
    for name in ("Interval", "Split"):
        E = cats[name]
        for Y in (corpus.terminal_category(), corpus.disc2_category()):
            for p in enumerate_distributors(T, Y, 1):
                for f in enumerate_functors(Y, E):
                    down, _ = try_weighted_colimit(p, f)
                    if down is None:
                        continue
                    for mode in ("strict", "nonstrict"):
                        rep = check_creation(identity_functor(E), p, f,
                                             mode=mode, kind="colimit")
                        assert rep.passed, (name, Y.name, mode)


def test_limit_creation_via_duality(cats):
    # identity strictly creates the binary product in Vee^op presented as Wedge
    from relmon.fincat import opposite
    Wedge = opposite(cats["Vee"])
    D2 = cats["Disc2"]
    g = FunctorData(D2, Wedge, {"0": "a", "1": "b"}, {"id0": "ida", "id1": "idb"})
    p = conical_weight(D2)
    from relmon.prof import dual_distributor
    # limit weight: Disc2 -|-> Terminal with p(*, x) singleton
    pl = dual_distributor(p)
    report = check_creation(identity_functor(Wedge), pl, g, mode="strict", kind="limit")
    assert report.passed
