import itertools

import pytest
from hypothesis import given, settings, strategies as st

from relmon import corpus, prof
from relmon.errors import BudgetExceeded, ChainMismatch, EndpointMismatch, ValidationFailure
from relmon.fincat import FunctorData, identity_functor
from relmon.prof import (
    Distributor,
    distributor_from_dict,
    distributor_violations,
    dual_distributor,
    enumerate_distributors,
    enumerate_graded_cells,
    hom_distributor,
    hom_restriction,
    restrict_distributor,
    tensor_set,
    validate_distributor,
)

from . import reference


@pytest.fixture(scope="module")
def cats():
    return {name: make() for name, make in corpus.STANDARD_CATEGORIES.items()}


# ---------------------------------------------------------------------------
# hom distributors and restriction


def test_hom_terminal_single_element(cats):
    p = hom_distributor(cats["Terminal"])
    assert p.el("*", "*") == ("id",)
    assert distributor_violations(p) == []


def test_hom_interval_components(cats):
    p = hom_distributor(cats["Interval"])
    assert p.el("0", "1") == ("u",)
    assert p.el("1", "0") == ()
    assert distributor_violations(p) == []


def test_hom_bz2_group_actions(cats):
    p = hom_distributor(cats["BZ2"])
    assert p.el("*", "*") == ("e", "s")
    assert p.act_r("s", "*", "e") == "s"    # precompose
    assert p.act_l("s", "*", "e") == "s"    # postcompose
    assert p.act_r("s", "*", "s") == "e"
    assert distributor_violations(p) == []


def test_all_standard_homs_validate(cats):
    for C in cats.values():
        validate_distributor(hom_distributor(C))


def test_restrict_along_identities_is_identity(cats):
    for name in ("Interval", "BZ2", "Split"):
        C = cats[name]
        p = hom_distributor(C)
        q = restrict_distributor(p, identity_functor(C), identity_functor(C))
        assert q == p


def test_restrict_indisc2_along_constants_singleton(cats):
    I, T = cats["Indisc2"], cats["Terminal"]
    f = FunctorData(T, I, {"*": "0"}, {"id": "id0"})
    g = FunctorData(T, I, {"*": "1"}, {"id": "id1"})
    q = restrict_distributor(hom_distributor(I), f, g)
    assert q.el("*", "*") == ("m01",)
    assert distributor_violations(q) == []


def test_hom_restriction_E_j_r(cats):
    # E(j, r) for j = point into BZ2, r = identity: components E(j a, r c)
    E = cats["BZ2"]
    j = corpus.point_functor(E, "*")
    q = hom_restriction(E, j, identity_functor(E))
    assert q.src == E and q.tgt == j.dom
    assert q.el("*", "*") == ("e", "s")


def test_restrict_endpoint_mismatch(cats):
    p = hom_distributor(cats["Interval"])
    with pytest.raises(EndpointMismatch):
        restrict_distributor(p, identity_functor(cats["BZ2"]), identity_functor(cats["Interval"]))


def test_serialization_round_trip(cats):
    for name in ("Interval", "BZ2", "Split"):
        C = cats[name]
        p = hom_distributor(C)
        q = distributor_from_dict(p.to_dict(), C, C)
        assert q == p


def test_bad_action_key_rejected(cats):
    C = cats["BZ2"]
    raw = hom_distributor(C).to_dict()
    raw["right_action"]["s|*|*|e"] = "e"   # should be s: breaks functoriality
    with pytest.raises(ValidationFailure):
        distributor_from_dict(raw, C, C)


# ---------------------------------------------------------------------------
# dual


def test_dual_involution(cats):
    for name in ("Interval", "BZ2", "Split", "Vee"):
        C = cats[name]
        p = hom_distributor(C)
        dd = dual_distributor(dual_distributor(p))
        assert dd.elements == p.elements
        assert dd._full_tables() == p._full_tables()


def test_dual_swaps_components(cats):
    p = hom_distributor(cats["Interval"])
    d = dual_distributor(p)
    assert d.el("1", "0") == p.el("0", "1") == ("u",)
    # built once and kept on p, with its own memos (left_plan of the dual)
    assert dual_distributor(p) is d and d.left_plan() is dual_distributor(p).left_plan()


# ---------------------------------------------------------------------------
# tensor sets


def _relabel(p: Distributor, prefix: str) -> Distributor:
    ren = {}
    for comp, els in p.elements.items():
        for i, e in enumerate(els):
            ren[(comp, e)] = f"{prefix}{comp[0]}_{comp[1]}_{i}"
    elements = {comp: tuple(ren[(comp, e)] for e in els) for comp, els in p.elements.items()}
    right = {}
    left = {}
    for (m, x, e), v in p.right_action.items():
        y = p.tgt.cod(m)
        right[(m, x, ren[((y, x), e)])] = ren[((p.tgt.dom(m), x), v)]
    for (n, y, e), v in p.left_action.items():
        x = p.src.dom(n)
        left[(n, y, ren[((y, x), e)])] = ren[((y, p.src.cod(n)), v)]
    return Distributor(p.src, p.tgt, elements, right, left)


def test_tensor_split_idempotent_classes(cats):
    # oracle (hand computation): tensoring the conical weight on the parallel
    # pair with E(e0, f-) for the split coequalizer diagram yields one class
    # for e0 = x and one class for e0 = y.
    E = cats["Split"]
    PP = cats["PP"]
    T = cats["Terminal"]
    f = FunctorData(PP, E, {"0": "x", "1": "x"}, {"id0": "idx", "id1": "idx", "a": "e", "b": "idx"})
    weight = Distributor(T, PP, {("0", "*"): ("w",), ("1", "*"): ("w",)},
                         {("a", "*", "w"): "w", ("b", "*", "w"): "w"}, {})
    validate_distributor(weight)
    for e0 in ("x", "y"):
        e0f = corpus.point_functor(E, e0)
        q = hom_restriction(E, e0f, f)   # q(*, y) = E(e0, f y), distributor PP -|-> Terminal
        ts = tensor_set(q, weight, "*", "*")
        assert ts.class_count() == 1


def test_tensor_relabeling_invariance(cats):
    E = cats["BZ2"]
    q = hom_distributor(E)
    p = hom_distributor(E)
    base = tensor_set(q, p, "*", "*").class_count()
    assert tensor_set(_relabel(q, "L"), _relabel(p, "R"), "*", "*").class_count() == base


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_tensor_relabeling_invariance_random(seed):
    import random
    E = corpus.split_category()
    q = hom_distributor(E)
    p = hom_distributor(E)
    rng = random.Random(seed)
    token = f"r{rng.randrange(10**6)}_"
    for a in E.objects:
        for x in E.objects:
            got = tensor_set(_relabel(q, token), _relabel(p, token + "b"), a, x).class_count()
            assert got == tensor_set(q, p, a, x).class_count()


def test_tensor_of_homs_recovers_hom_count(cats):
    # hom (.)l hom over a category with all composites is the hom again
    for name in ("Interval", "BZ2", "Split"):
        C = cats[name]
        h = hom_distributor(C)
        for a in C.objects:
            for x in C.objects:
                assert tensor_set(h, h, a, x).class_count() == len(C.hom(a, x))


# ---------------------------------------------------------------------------
# graded cells


def test_graded_cells_empty_chain_terminal(cats):
    T = cats["Terminal"]
    cells = enumerate_graded_cells([], identity_functor(T), identity_functor(T),
                                   hom_distributor(T))
    assert len(cells) == 1


def test_graded_cells_n1_terminal(cats):
    T = cats["Terminal"]
    cells = enumerate_graded_cells([hom_distributor(T)], identity_functor(T),
                                   identity_functor(T), hom_distributor(T))
    assert len(cells) == 1


def test_graded_cells_n1_bz2_matches_bruteforce(cats):
    # independent oracle: filter the 2^2 component maps M -> M by the two
    # naturality equations phi(m;u) = m;phi(u) and phi(u;k) = phi(u);k
    C = cats["BZ2"]
    M = ("e", "s")
    expected = []
    for vals in itertools.product(M, repeat=2):
        phi = dict(zip(M, vals))
        ok = all(
            phi[C.comp(m, u)] == C.comp(m, phi[u]) and phi[C.comp(u, k)] == C.comp(phi[u], k)
            for m in M for u in M for k in M
        )
        if ok:
            expected.append(phi)
    assert len(expected) == 2   # frozen: centre of Z/2 is everything

    cells = enumerate_graded_cells([hom_distributor(C)], identity_functor(C),
                                   identity_functor(C), hom_distributor(C))
    assert len(cells) == len(expected)


def test_graded_cells_n2_within_cap(cats):
    T = cats["Terminal"]
    h = hom_distributor(T)
    cells = enumerate_graded_cells([h, h], identity_functor(T), identity_functor(T), h)
    assert len(cells) == 1
    with pytest.raises(ChainMismatch):
        enumerate_graded_cells([h, h, h], identity_functor(T), identity_functor(T), h)


def test_graded_cells_nonidentity_boundaries(cats):
    # n = 0 and n = 1 cells whose boundary functors are distinct points of
    # the split-idempotent category: exactly one component r fits each slot
    S = cats["Split"]
    T = cats["Terminal"]
    fx = corpus.point_functor(S, "x")
    fy = corpus.point_functor(S, "y")
    cells0 = enumerate_graded_cells([], fx, fy, hom_distributor(S))
    assert len(cells0) == 1
    assert cells0[0].at(("*",), ()) == "r"
    cells1 = enumerate_graded_cells([hom_distributor(T)], fx, fy, hom_distributor(S))
    assert len(cells1) == 1


def test_graded_cells_n1_bm3(cats):
    # oracle: maps phi with phi(m;u) = m;phi(u) and phi(u;k) = phi(u);k over
    # the right-zero monoid: phi(u) = phi(e;u)... second law forces
    # phi = postcompose by phi(e), first law forces phi(e) central = e only.
    C = cats["BM3"]
    cells = enumerate_graded_cells([hom_distributor(C)], identity_functor(C),
                                   identity_functor(C), hom_distributor(C))
    assert len(cells) == 1


# ---------------------------------------------------------------------------
# distributor census


def test_enumerate_distributors_terminal_terminal(cats):
    T = cats["Terminal"]
    ds = enumerate_distributors(T, T, element_cap=2)
    assert len(ds) == 3    # sizes 0, 1, 2


def test_enumerate_distributors_terminal_interval(cats):
    # presheaves on Interval with component sizes <= 1: (0,0), (1,0), (1,1)
    ds = enumerate_distributors(cats["Terminal"], cats["Interval"], element_cap=1)
    assert len(ds) == 3
    for d in ds:
        assert distributor_violations(d) == []


def test_enumerate_distributors_bz2_side(cats):
    # right Z/2-sets of size <= 1 on each component: the action on a
    # singleton must be the identity by functoriality (s;s = e)
    ds = enumerate_distributors(cats["Terminal"], cats["BZ2"], element_cap=1)
    assert len(ds) == 2
    ds2 = enumerate_distributors(cats["Terminal"], cats["BZ2"], element_cap=2)
    # sizes 0,1,2; size 2 admits id and swap actions: 1 + 1 + 2
    assert len(ds2) == 4



def census_answer(X, Y, cap, budget, enumerate):
    """The tables enumerate(X, Y, cap, budget) lists, in order, or
    BudgetExceeded's message when it refuses."""
    try:
        return [p.table() for p in enumerate(X, Y, cap, budget)]
    except BudgetExceeded as exc:
        return str(exc)


def test_enumerate_distributors_matches_product_then_filter(cats):
    """The pruned census lists what filtering every element and action table
    by the distributor laws lists, in the same order, and refuses the same
    budgets; Empty gives the one distributor with no components.  Indisc2
    (composites of non-identities that are identities across two objects),
    BM3 (an order-3 group) and Split (an idempotent) reach the laws whose
    composite is an identity.  Cap 2 runs over the categories whose raw
    spaces stay small."""
    names = ("Empty", "Terminal", "Interval", "Disc2", "BZ2", "Vee", "PP", "Indisc2", "BM3", "Split")
    cases = [(X, Y, 1) for X in names for Y in names]
    cases += [(X, Y, 2) for X in names[:5] for Y in names[:5]]
    for X, Y, cap in cases:
        for budget in (200_000, 1, 3, 9, 40):
            want = census_answer(cats[X], cats[Y], cap, budget, reference.enumerate_distributors)
            assert census_answer(cats[X], cats[Y], cap, budget, enumerate_distributors) == want


def test_enumerate_distributors_builds_only_survivors(cats, monkeypatch):
    """The census checks the laws while it chooses the action tables: it
    constructs one Distributor per distributor it lists and never filters
    a finished candidate with distributor_violations."""
    built, filtered = [], []

    class Counted(prof.Distributor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    def counted_violations(p):
        filtered.append(1)
        return distributor_violations(p)

    monkeypatch.setattr(prof, "Distributor", Counted)
    monkeypatch.setattr(prof, "distributor_violations", counted_violations)
    ds = enumerate_distributors(cats["Interval"], cats["Disc2"], 3)
    assert (len(ds), len(built), len(filtered)) == (3600, 3600, 0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       shapes=st.tuples(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
                        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)])))
def test_enumerate_distributors_matches_product_then_filter_generated(seed, shapes):
    X = corpus.generate_category(seed, *shapes[0])
    Y = corpus.generate_category(seed + 1, *shapes[1])
    if X is None or Y is None:
        return
    for budget in (200_000, 30):
        assert census_answer(X, Y, 1, budget, enumerate_distributors) == (
            census_answer(X, Y, 1, budget, reference.enumerate_distributors))


def least_listing_budget(X, Y, cap):
    """The least budget at which enumerate_distributors(X, Y, cap) lists
    instead of refusing (the refusals are monotone in the budget)."""
    def refuses(budget):
        try:
            enumerate_distributors(X, Y, cap, budget)
        except BudgetExceeded:
            return True
        return False
    lo, hi = 0, 1
    while refuses(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if refuses(mid) else (lo, mid)
    return hi


def assert_refusals_build_nothing(X, Y, cap, budgets):
    """Under each budget, enumerate_distributors either lists, building one
    Distributor per distributor listed, or refuses with the arguments of the
    product-then-filter reference and builds none.  Returns whether some
    refusal came from one choice of sizes rather than from their number."""
    built = []

    class Counted(prof.Distributor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    late = False
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prof, "Distributor", Counted)
        for budget in budgets:
            built.clear()
            try:
                listed = enumerate_distributors(X, Y, cap, budget)
            except BudgetExceeded as exc:
                assert built == []
                with pytest.raises(BudgetExceeded) as want:
                    reference.enumerate_distributors(X, Y, cap, budget)
                assert (exc.what, exc.needed, exc.budget) == (
                    want.value.what, want.value.needed, want.value.budget)
                late = late or (cap + 1) ** (len(X.objects) * len(Y.objects)) <= budget
            else:
                assert len(built) == len(listed)
    return late


def budgets_around(threshold):
    return sorted({max(threshold - d, 1) for d in (0, 1, 2)} | {max(threshold // 2, 1), 1})


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       shapes=st.tuples(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
                        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)])),
       cap=st.sampled_from([1, 2]))
def test_refused_distributor_census_builds_no_distributor(seed, shapes, cap):
    """Budgets at and below the least one that lists, over generated X and
    Y: a refused call builds no Distributor, though earlier choices of
    sizes would list some, and it refuses as the reference does."""
    X = corpus.generate_category(seed, *shapes[0])
    Y = corpus.generate_category(seed + 1, *shapes[1])
    if X is None or Y is None:
        return
    threshold = least_listing_budget(X, Y, cap)
    if threshold <= 5_000:
        assert_refusals_build_nothing(X, Y, cap, budgets_around(threshold))


def test_refused_distributor_census_builds_no_distributor_late_in_the_walk(cats):
    """Interval -|-> Interval at cap 2 is refused by its last choices of
    sizes, after every earlier choice could have been listed."""
    I = cats["Interval"]
    threshold = least_listing_budget(I, I, 2)
    assert assert_refusals_build_nothing(I, I, 2, budgets_around(threshold))
