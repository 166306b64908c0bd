"""The engine's enumerations give the product-then-filter lists of tests/reference.py.

Same list, same order, and BudgetExceeded on the same inputs.
"""

import itertools

from hypothesis import assume, example, given, settings, strategies as st

from relmon import corpus
from relmon.algebra import (
    _count_resolution_morphisms,
    _factorizations,
    build_algebra_category,
    enumerate_algebras,
)
from relmon.colim import (
    _cone_families,
    enumerate_cocones,
    is_dense,
    nerve_transform_families,
)
from relmon.errors import BudgetExceeded
from relmon.fincat import (
    build_category,
    enumerate_functors,
    enumerate_natural_transformations,
    find_natural_isomorphism,
    identity_functor,
)
from relmon.monad import enumerate_relative_monads
from relmon.prof import enumerate_distributors, enumerate_graded_cells, hom_distributor
from relmon.reladj import find_left_relative_adjoint, paste_adjunction
from relmon.suite import _concrete_functor

from . import reference

# small enough that the reference walks every raw space it accepts quickly,
# large enough that most generated questions get past the budget check
TEST_BUDGET = 3000


def outcome(enumerate_fn, *args, **kwargs):
    """The enumeration's list as tables (carrier table first), or its refusal."""
    try:
        found = enumerate_fn(*args, **kwargs)
    except BudgetExceeded as exc:
        return ("budget", exc.what, exc.needed, exc.budget)
    return ("ok", [(x.t.table() if hasattr(x, "t") else None, x.table()) for x in found])


def roots(E):
    return [identity_functor(E), corpus.point_functor(E, E.objects[-1])]


def assert_same_monads_and_algebras(j, budget, shapes):
    got = outcome(enumerate_relative_monads, j, budget=budget)
    assert got == outcome(reference.enumerate_relative_monads, j, budget=budget)
    if got[0] != "ok":
        return
    for T in enumerate_relative_monads(j, budget=budget)[:3]:
        for D in shapes:
            found = outcome(enumerate_algebras, T, D, budget=budget)
            assert found == outcome(reference.enumerate_algebras, T, D, budget=budget)


# (seed, objects, max_hom); three objects only with thin homs, whose
# reference walks stay short
generated = st.builds(lambda seed, shape: (seed, *shape),
                      st.integers(min_value=0, max_value=10**4),
                      st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)]))


@settings(max_examples=15, deadline=None)
@given(params=generated, root=st.sampled_from([0, 1]))
# inputs whose lists change when one law is dropped from the search: the
# monad's left unit; the algebra's naturality in d; the monad's
# associativity and the algebra's compatibility
@example(params=(10, 2, 3), root=0)
@example(params=(0, 2, 2), root=1)
@example(params=(1234, 3, 3), root=1)
def test_generated_monads_and_algebras_match_reference(params, root):
    E = corpus.generate_category(*params)
    assume(E is not None)
    shapes = [corpus.terminal_category(), corpus.interval_category()]
    assert_same_monads_and_algebras(roots(E)[root], TEST_BUDGET, shapes)


@settings(max_examples=10, deadline=None)
@given(params=generated, budget=st.integers(min_value=1, max_value=400))
def test_budget_refuses_the_same_inputs(params, budget):
    E = corpus.generate_category(*params)
    assume(E is not None)
    for j in roots(E):
        assert_same_monads_and_algebras(j, budget, [corpus.terminal_category()])


def test_builtin_deloopings_match_reference():
    cyclic3 = {(f"g{a}", f"g{b}"): f"g{(a + b) % 3}" for a in range(3) for b in range(3)}
    left_zero3 = {(a, b): (b if a == "e" else a) for a in ("e", "z0", "z1") for b in ("e", "z0", "z1")}
    shapes = [corpus.terminal_category(), corpus.disc2_category()]
    for C in (corpus.bz2_category(), corpus.bm3_category(),
              corpus.delooping(cyclic3, name="Z3"), corpus.delooping(left_zero3, name="LZ3")):
        for j in roots(C):
            assert_same_monads_and_algebras(j, None, shapes)


def test_default_budget_refuses_the_z7_point_delooping():
    cyclic7 = {(f"g{a}", f"g{b}"): f"g{(a + b) % 7}" for a in range(7) for b in range(7)}
    j = corpus.point_functor(corpus.delooping(cyclic7, name="Z7"), "*")
    got = outcome(enumerate_relative_monads, j)
    assert got[0] == "budget"
    assert got == outcome(reference.enumerate_relative_monads, j)


@settings(max_examples=10, deadline=None)
@given(params=generated)
def test_nerve_families_and_density_match_reference(params):
    E = corpus.generate_category(*params)
    assume(E is not None)
    for j in roots(E) + [corpus.point_functor(E, E.objects[0])]:
        for e in E.objects:
            for e2 in E.objects:
                got = nerve_transform_families(j, e, e2)
                want = reference.nerve_transform_families(j, e, e2)
                assert [list(phi.items()) for phi in got] == [list(phi.items()) for phi in want]
        assert is_dense(j) == reference.is_dense(j)


@settings(max_examples=8, deadline=None)
@given(params=generated)
def test_cone_families_match_reference(params):
    E = corpus.generate_category(*params)
    assume(E is not None)
    shapes = [corpus.terminal_category(), corpus.interval_category(), corpus.disc2_category()]
    for X in shapes:
        for Y in shapes[:2]:
            for p in enumerate_distributors(X, Y, 1):
                for g in enumerate_functors(X, E):
                    for y in Y.objects:
                        for wprime in E.objects:
                            assert (_cone_families(p, g, y, wprime)
                                    == reference.cone_families(p, g, y, wprime))


# ---------------------------------------------------------------------------
# functors, natural transformations, cocones and the filtered functor searches

# raw spaces (every object map times every morphism map) the product
# reference walks for one pair of categories
FUNCTOR_SPACE = 20000


def functor_space(C, D) -> int:
    return len(D.objects) ** len(C.objects) * len(D.morphisms) ** len(C.morphisms)


def tables(functors) -> list:
    return [(F.dom, F.cod, F.table()) for F in functors]


def test_corpus_functors_match_product_reference():
    """Every pair of corpus categories whose raw space is small enough,
    the empty category on either side included."""
    cats = [make() for make in corpus.STANDARD_CATEGORIES.values()]
    pairs = [(C, D) for C in cats for D in cats if functor_space(C, D) <= FUNCTOR_SPACE]
    assert len(pairs) > 100
    for C, D in pairs:
        assert tables(enumerate_functors(C, D)) == tables(reference.product_functors(C, D))


def test_empty_domain_has_one_functor():
    empty = corpus.empty_category()
    for D in (empty, corpus.terminal_category(), corpus.bz2_category()):
        found = list(enumerate_functors(empty, D))
        assert tables(found) == tables(reference.product_functors(empty, D))
        assert len(found) == 1 and found[0].on_objects == found[0].on_morphisms == {}
    assert list(enumerate_functors(corpus.terminal_category(), empty)) == []


def small_pair(params, params2):
    C = corpus.generate_category(*params)
    D = corpus.generate_category(*params2)
    assume(C is not None and D is not None and functor_space(C, D) <= FUNCTOR_SPACE)
    return C, D


@settings(max_examples=15, deadline=None)
@given(params=generated, params2=generated)
def test_generated_functors_match_product_reference(params, params2):
    C, D = small_pair(params, params2)
    assert tables(enumerate_functors(C, D)) == tables(reference.product_functors(C, D))


@settings(max_examples=15, deadline=None)
@given(params=generated, params2=generated, data=st.data())
def test_filtered_functors_match_product_reference(params, params2, data):
    """ob_ok and mor_ok reject drawn object and morphism images, identity
    images included."""
    C, D = small_pair(params, params2)
    obs = data.draw(st.sets(st.sampled_from([(x, d) for x in C.objects for d in D.objects])))
    mors = data.draw(st.sets(st.sampled_from(
        [(f, m) for f in C.morphism_names() for m in D.morphism_names()])))
    kwargs = dict(ob_ok=lambda x, d: (x, d) not in obs, mor_ok=lambda f, m: (f, m) not in mors)
    assert tables(enumerate_functors(C, D, **kwargs)) == tables(
        reference.product_functors(C, D, **kwargs))


def test_mor_ok_rejecting_an_identity_image_drops_the_object_choice():
    interval = corpus.interval_category()
    C, D = interval, interval
    for x in C.objects:
        for d in D.objects:
            def mor_ok(f, m, x=x, d=d):
                return not (f == C.id_of(x) and m == D.id_of(d))
            found = list(enumerate_functors(C, D, mor_ok=mor_ok))
            assert tables(found) == tables(reference.product_functors(C, D, mor_ok=mor_ok))
            assert found and all(F.ob(x) != d for F in found)


def shared_name_categories():
    """Categories whose morphisms share names with objects: identities named
    after their objects, and non-identities named after other objects."""
    ids = {"a": "a", "b": "b", "c": "c"}
    comp = {(i, i): i for i in ids.values()}
    comp.update({("a", "f"): "f", ("f", "b"): "f", ("b", "g"): "g", ("g", "c"): "g",
                 ("a", "h"): "h", ("h", "c"): "h", ("f", "g"): "h"})
    own = build_category("Own", ["a", "b", "c"],
                         [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c"),
                          ("f", "a", "b"), ("g", "b", "c"), ("h", "a", "c")], ids, comp)
    ids = {"a": "ia", "b": "ib", "c": "ic"}
    comp = {(i, i): i for i in ids.values()}
    comp.update({("ia", "c"): "c", ("c", "ib"): "c", ("ib", "a"): "a", ("a", "ic"): "a",
                 ("ia", "b"): "b", ("b", "ic"): "b", ("c", "a"): "b"})
    other = build_category("Other", ["a", "b", "c"],
                           [("ia", "a", "a"), ("ib", "b", "b"), ("ic", "c", "c"),
                            ("c", "a", "b"), ("a", "b", "c"), ("b", "a", "c")], ids, comp)
    loop = build_category("Loop", ["*"], [("*", "*", "*"), ("s", "*", "*")], {"*": "*"},
                          {("*", "*"): "*", ("*", "s"): "s", ("s", "*"): "s", ("s", "s"): "*"})
    arrow = build_category("Arrow", ["a", "b"], [("a", "a", "a"), ("b", "b", "b"), ("f", "a", "b")],
                           {"a": "a", "b": "b"},
                           {("a", "a"): "a", ("b", "b"): "b", ("a", "f"): "f", ("f", "b"): "f"})
    return [own, other, loop, arrow, corpus.interval_category()]


def test_functors_between_categories_whose_morphisms_share_object_names():
    cats = shared_name_categories()
    pairs = [(C, D) for C in cats for D in cats if functor_space(C, D) <= FUNCTOR_SPACE]
    assert len(pairs) == 21
    for C, D in pairs:
        assert tables(enumerate_functors(C, D)) == tables(reference.product_functors(C, D))
        kwargs = dict(ob_ok=lambda x, d: (x, d) != ("a", "b"),
                      mor_ok=lambda f, m: (f, m) not in {("a", "b"), ("f", "c"), ("s", "*")})
        assert tables(enumerate_functors(C, D, **kwargs)) == tables(
            reference.product_functors(C, D, **kwargs))


def nat_tables(nats) -> list:
    return [(n.source.table(), n.target.table(), n.table()) for n in nats]


def assert_natural_transformations_match_reference(C, D, functors: int):
    found = list(itertools.islice(enumerate_functors(C, D), functors))
    for F in found:
        for G in found:
            assert (nat_tables(enumerate_natural_transformations(F, G))
                    == nat_tables(reference.enumerate_natural_transformations(F, G)))
            assert (nat_tables(filter(None, [find_natural_isomorphism(F, G)]))
                    == nat_tables(filter(None, [reference.find_natural_isomorphism(F, G)])))


@settings(max_examples=10, deadline=None)
@given(params=generated, params2=generated)
def test_natural_transformations_match_reference(params, params2):
    C = corpus.generate_category(*params)
    D = corpus.generate_category(*params2)
    assume(C is not None and D is not None)
    assert_natural_transformations_match_reference(C, D, 6)


def test_corpus_natural_transformations_match_reference():
    cats = [make() for make in corpus.STANDARD_CATEGORIES.values()]
    for C in cats:
        for D in cats:
            assert_natural_transformations_match_reference(C, D, 4)


def weights():
    shapes = [corpus.terminal_category(), corpus.interval_category()]
    return [p for X in shapes for Y in shapes for p in enumerate_distributors(X, Y, 1)]


def cocone_tables(cocones) -> list:
    return [(w.table(), sorted(legs.items())) for w, legs in cocones]


@settings(max_examples=8, deadline=None)
@given(params=generated)
def test_cocones_match_reference(params):
    W = corpus.generate_category(*params)
    assume(W is not None)
    for p in weights():
        for f in enumerate_functors(p.tgt, W):
            assert cocone_tables(enumerate_cocones(p, f)) == cocone_tables(
                reference.enumerate_cocones(p, f))


def resolution_cases(j, monads):
    """Algebra categories of the monads over j, and adjunctions over j: the
    resolutions of those monads and the left adjoints of a few functors."""
    algcats = [build_algebra_category(T, budget=TEST_BUDGET) for T in monads]
    adjs = [a.adjunction for a in algcats]
    for D in (corpus.terminal_category(), corpus.interval_category(), j.cod):
        for r in itertools.islice(enumerate_functors(D, j.cod), 6):
            adj = find_left_relative_adjoint(j, r)
            if adj is not None:
                adjs.append(adj)
    return algcats, adjs


def assert_algebra_sites_match_reference(j, monads):
    algcats, adjs = resolution_cases(j, monads)
    shapes = [corpus.terminal_category(), corpus.interval_category()]
    for adj in adjs:
        for algcat in algcats:
            assert (_count_resolution_morphisms(adj, algcat)
                    == reference.count_resolution_morphisms(adj, algcat))
    for src in algcats:
        for tgt in algcats:
            got = _concrete_functor(src, tgt)
            want = reference.concrete_functor(src, tgt)
            assert tables(filter(None, [got])) == tables(filter(None, [want]))
            for D in shapes:
                for alg in enumerate_algebras(tgt.monad, D, budget=TEST_BUDGET)[:4]:
                    assert tables(_factorizations(src.u, src.alpha_T, alg, src.category)) \
                        == tables(reference.factorizations(src.u, src.alpha_T, alg, src.category))
    for primary in adjs:
        for factor in adjs:
            got = paste_adjunction(primary, factor, "unpaste")
            want = reference.unpaste(primary, factor)
            assert got.to_dict() == want.to_dict()
            assert (got.inner is None) == (want.inner is None)
            if got.inner is not None:
                assert got.inner == want.inner


def test_builtin_algebra_sites_match_reference():
    """Resolution counts, concrete functors, factorizations and unpasting
    over every root of the builtin corpus."""
    for inst in corpus.builtin_corpus():
        if "root" in inst.roles and inst.monads:
            monads = [inst.monads[role] for role in sorted(inst.monads)]
            assert_algebra_sites_match_reference(inst.functors[inst.roles["root"]], monads)


@settings(max_examples=8, deadline=None)
@given(params=generated, root=st.sampled_from([0, 1, 2]))
def test_generated_algebra_sites_match_reference(params, root):
    """Identity, point and empty roots; under the empty root every functor
    into E has a left adjoint, so unpasting is constrained only by r ; r'."""
    E = corpus.generate_category(*params)
    assume(E is not None)
    j = (roots(E) + [corpus.empty_functor(E)])[root]
    try:
        monads = enumerate_relative_monads(j, budget=TEST_BUDGET)[:3]
    except BudgetExceeded:
        monads = []
    assume(monads)
    assert_algebra_sites_match_reference(j, monads)


# ---------------------------------------------------------------------------
# graded cells

# raw spaces the reference walks for one graded-cell question
GRADED_BUDGET = 3000


def graded_outcome(enumerate_fn, chain, f0, fn, q, budget):
    """The cells' component tables in list order, or the refusal."""
    try:
        cells = enumerate_fn(chain, f0, fn, q, budget=budget)
    except BudgetExceeded as exc:
        return ("budget", exc.what, exc.needed, exc.budget)
    return ("ok", [cell.table() for cell in cells])


def assert_same_graded_cells(chain, f0, fn, q, budget=GRADED_BUDGET):
    got = graded_outcome(enumerate_graded_cells, chain, f0, fn, q, budget)
    assert got == graded_outcome(reference.enumerate_graded_cells, chain, f0, fn, q, budget)
    return got


def hom_chains(C):
    """The chains of hom(C) of length 0, 1 and 2."""
    h = hom_distributor(C)
    return [[], [h], [h, h]]


def small_chains(shapes, links: int):
    """Chains of two links over the shapes, from the first few distributors
    with at most one element per component (enumerate_distributors(..., 1)),
    with their end categories: (chain, dom f0, dom fn)."""
    out = []
    for X in shapes:
        for Y in shapes:
            ps = enumerate_distributors(X, Y, 1)[:links]
            out.extend(([p], Y, X) for p in ps)
            for Z in shapes:
                for p2 in enumerate_distributors(X, Z, 1)[:links]:
                    out.extend(([p1, p2], Y, X) for p1 in enumerate_distributors(Z, Y, 1)[:links])
    return out


def test_corpus_graded_cells_match_reference():
    """Chains of hom(C) of length 0, 1 and 2 over every corpus category,
    with identity boundaries and target hom(C); the larger ones are refused
    by the budget, in the same way."""
    outcomes = []
    for make in corpus.STANDARD_CATEGORIES.values():
        C = make()
        one, h = identity_functor(C), hom_distributor(C)
        for chain in hom_chains(C):
            outcomes.append(assert_same_graded_cells(chain, one, one, h)[0])
    assert "budget" in outcomes and outcomes.count("ok") > 30


def test_corpus_graded_cells_with_nonidentity_boundaries_match_reference():
    """Boundary functors other than the identity, into corpus categories."""
    found = 0
    for C_name, E_name in (("Interval", "Split"), ("Interval", "BM3"), ("BZ2", "Split"),
                           ("BZ2", "BM3"), ("BM3", "BM3"), ("Split", "Split"),
                           ("Split", "BM3"), ("Vee", "Split")):
        C = corpus.STANDARD_CATEGORIES[C_name]()
        E = corpus.STANDARD_CATEGORIES[E_name]()
        functors = list(itertools.islice(enumerate_functors(C, E), 3))
        for chain in hom_chains(C):
            for f0 in functors:
                for fn in functors:
                    got = assert_same_graded_cells(chain, f0, fn, hom_distributor(E))
                    if got[0] == "ok":
                        found += len(got[1])
    assert found > 300


@settings(max_examples=10, deadline=None)
@given(params=generated)
def test_generated_graded_cells_match_reference(params):
    """Chains of hom(E) and of small distributors over Terminal and
    Interval, with identity, point and other boundaries into a generated E."""
    E = corpus.generate_category(*params)
    assume(E is not None)
    one, h = identity_functor(E), hom_distributor(E)
    for chain in hom_chains(E):
        assert_same_graded_cells(chain, one, one, h)
    shapes = [corpus.terminal_category(), corpus.interval_category()]
    boundaries = {D: list(itertools.islice(enumerate_functors(D, E), 3)) for D in shapes}
    for chain, D0, Dn in small_chains(shapes, 3):
        for f0 in boundaries[D0]:
            for fn in boundaries[Dn][:2]:
                assert_same_graded_cells(chain, f0, fn, h)


@settings(max_examples=10, deadline=None)
@given(params=generated, budget=st.integers(min_value=1, max_value=60))
def test_graded_budget_refuses_the_same_inputs(params, budget):
    E = corpus.generate_category(*params)
    assume(E is not None)
    one, h = identity_functor(E), hom_distributor(E)
    for chain in hom_chains(E):
        assert_same_graded_cells(chain, one, one, h, budget=budget)


def test_graded_budget_refusal_on_bm3():
    C = corpus.bm3_category()
    one, h = identity_functor(C), hom_distributor(C)
    got = assert_same_graded_cells([h, h], one, one, h, budget=1000)
    assert got == ("budget", "graded cell enumeration", 2187, 1000)
