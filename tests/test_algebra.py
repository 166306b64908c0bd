import itertools

import pytest

from relmon import corpus, suite
from relmon.algebra import (
    Algebra,
    algebra_violations,
    build_algebra_category,
    comparison_functor,
    enumerate_algebras,
    graded_algebra_morphisms,
    is_algebra_morphism,
    transport_algebra_backward,
    transport_algebra_forward,
    transport_algebras,
    transport_graded_backward,
    transport_graded_forward,
    verify_algebra_object,
)
from relmon.errors import MonadMismatch, ValidationFailure, budget_limit
from relmon.fincat import FunctorData, classify_functor, compose_functors, identity_functor, build_category
from relmon.monad import (
    enumerate_relative_monads,
    monad_from_adjunction,
    postcompose_along_adjunction,
    trivial_relative_monad,
)
from relmon.monadicity import Run, default_shape_family
from relmon.reladj import adjunction_violations, identity_adjunction, validate_relative_adjunction
from relmon.suite import _check_transport_bijection, _Context


@pytest.fixture(scope="module")
def cats():
    return {name: make() for name, make in corpus.STANDARD_CATEGORIES.items()}


@pytest.fixture(scope="module")
def bz2_monads(cats):
    j = corpus.point_functor(cats["BZ2"], "*")
    return enumerate_relative_monads(j)


# ---------------------------------------------------------------------------
# algebra enumeration


def test_trivial_monad_one_algebra_per_object(cats):
    # oracle: for each object e the unit law forces alpha to the identity,
    # so candidate filtration leaves exactly one algebra per object
    for name in ("Interval", "BZ2", "Split"):
        E = cats[name]
        T = trivial_relative_monad(identity_functor(E))
        algs = enumerate_algebras(T, corpus.terminal_category())
        assert len(algs) == len(E.objects)
        for alg in algs:
            for (a, d, f), g in alg.alpha.items():
                assert g == f


def test_empty_root_monad_vacuous_algebras(cats):
    E = cats["Interval"]
    j = corpus.empty_functor(E)
    T = enumerate_relative_monads(j)[0]
    algs = enumerate_algebras(T, corpus.terminal_category())
    assert len(algs) == len(E.objects)
    assert all(alg.alpha == {} for alg in algs)


def test_point_bz2_algebra_counts_match_bruteforce(bz2_monads, cats):
    # independent oracle: for each monad over the point root, filter the 4
    # candidate alpha maps by the unit and compatibility laws directly
    E = cats["BZ2"]
    M = ("e", "s")
    for T in bz2_monads:
        eta = T.eta("*")
        expected = 0
        for vals in itertools.product(M, repeat=2):
            al = dict(zip(M, vals))
            unit_ok = all(E.comp(eta, al[f]) == f for f in M)
            compat_ok = all(
                al[E.comp(g, al[f])] == E.comp(T.dagger("*", "*", g), al[f])
                for g in M for f in M
            )
            expected += unit_ok and compat_ok
        assert expected == 1      # frozen by hand computation
        algs = enumerate_algebras(T, corpus.terminal_category())
        assert len(algs) == expected


def test_perturbed_alpha_rejected(bz2_monads, cats):
    T = bz2_monads[0]
    alg = enumerate_algebras(T, corpus.terminal_category())[0]
    bad = dict(alg.alpha)
    key = sorted(bad)[0]
    bad[key] = "s" if bad[key] == "e" else "e"
    assert algebra_violations(T, alg.carrier, bad)


# ---------------------------------------------------------------------------
# algebra categories


def test_alg_of_trivial_monad_iso_to_base(cats):
    for name in ("Interval", "BZ2", "Split"):
        E = cats[name]
        T = trivial_relative_monad(identity_functor(E))
        algcat = build_algebra_category(T)
        cl = classify_functor(algcat.u)
        assert cl.is_iso
        assert algcat.size() == (len(E.objects), len(E.morphisms))


def test_alg_of_empty_monad_iso_to_base(cats):
    E = cats["Disc2"]
    T = enumerate_relative_monads(corpus.empty_functor(E))[0]
    algcat = build_algebra_category(T)
    assert classify_functor(algcat.u).is_iso


def test_point_bz2_algebra_categories(bz2_monads, cats):
    for T in bz2_monads:
        algcat = build_algebra_category(T)
        assert algcat.size() == (1, 2)
        cl = classify_functor(algcat.u)
        assert cl.conservative
        # the resolution validates and recovers T table-exactly
        assert adjunction_violations(algcat.adjunction.j, algcat.adjunction.left,
                                     algcat.adjunction.right, algcat.adjunction.sharp) == []
        recovered = monad_from_adjunction(algcat.adjunction)
        assert recovered.table() == T.table()
        assert recovered.t == T.t


def test_generic_extension_is_an_algebra(bz2_monads, cats):
    # (u_T, alpha_T) must itself satisfy the T-algebra laws over Alg(T)
    for T in bz2_monads:
        algcat = build_algebra_category(T)
        assert algebra_violations(T, algcat.u, algcat.alpha_T) == []
    E = cats["Interval"]
    T = trivial_relative_monad(identity_functor(E))
    algcat = build_algebra_category(T)
    assert algebra_violations(T, algcat.u, algcat.alpha_T) == []


def test_resolution_recovers_monad_for_identity_roots(cats):
    for name in ("Interval", "Split"):
        E = cats[name]
        T = trivial_relative_monad(identity_functor(E))
        algcat = build_algebra_category(T)
        assert monad_from_adjunction(algcat.adjunction).table() == T.table()


# ---------------------------------------------------------------------------
# comparison


def test_comparison_of_terminal_resolution_is_identity_like(bz2_monads):
    for T in bz2_monads:
        algcat = build_algebra_category(T)
        comp = comparison_functor(algcat.adjunction, algcat, monad_from_adjunction(algcat.adjunction))
        assert comp.classification.is_iso
        assert comp.unique
        assert comp.functor.on_objects == {o: o for o in algcat.category.objects}


def test_comparison_identity_adjunction_trivial_monad(cats):
    E = cats["Interval"]
    T = trivial_relative_monad(identity_functor(E))
    algcat = build_algebra_category(T)
    adj = identity_adjunction(E)
    comp = comparison_functor(adj, algcat, monad_from_adjunction(adj))
    assert comp.classification.is_iso and comp.unique


def test_comparison_empty_root_noniso(cats):
    # []_E adjunction with non-iso r: comparison exists but is not an iso
    E = cats["Disc2"]
    T = enumerate_relative_monads(corpus.empty_functor(E))[0]
    algcat = build_algebra_category(T)
    D = cats["Terminal"]
    r = FunctorData(D, E, {"*": "0"}, {"id": "id0"})
    adj = validate_relative_adjunction(corpus.empty_functor(E),
                                       FunctorData(corpus.empty_category(), D, {}, {}),
                                       r, {})
    comp = comparison_functor(adj, algcat, monad_from_adjunction(adj))
    assert not comp.classification.is_iso
    assert not comp.classification.is_equivalence


def test_comparison_monad_mismatch(bz2_monads, cats):
    T1, T2 = bz2_monads
    algcat1 = build_algebra_category(T1)
    algcat2 = build_algebra_category(T2)
    with pytest.raises(MonadMismatch):
        comparison_functor(algcat1.adjunction, algcat2, monad_from_adjunction(algcat1.adjunction))


def test_resolution_compares_its_monad_with_the_algebra_category_handed_back(bz2_monads):
    """Run.resolution hands comparison_functor the monad it derived,
    which is still compared with the algebra category's own: a run that
    hands back another monad's algebra category is refused."""
    T1, T2 = bz2_monads
    assert T1.table() != T2.table()
    u = build_algebra_category(T1).u

    class Mismatched(Run):
        def algcat(self, T):
            return build_algebra_category(T2)

    assert Run().resolution(T1.j, u).comparison.classification.is_iso
    with pytest.raises(MonadMismatch):
        Mismatched().resolution(T1.j, u)


# ---------------------------------------------------------------------------
# universal property


def _full_subcategory(cat, keep):
    objects = [o for o in cat.objects if o in keep]
    morphisms = [(m, d, c) for (m, d, c) in cat.morphisms if d in keep and c in keep]
    names = {m for (m, _, _) in morphisms}
    identities = {o: cat.id_of(o) for o in objects}
    comp = {(f, g): h for ((f, g), h) in cat.composition.items()
            if f in names and g in names}
    return build_category(f"{cat.name}|sub", objects, morphisms, identities, comp)


def test_verify_algebra_object_passes_on_built_alg(bz2_monads, cats):
    shapes = [corpus.terminal_category(), corpus.interval_category()]
    for T in bz2_monads:
        algcat = build_algebra_category(T)
        report = verify_algebra_object(algcat.u, algcat.alpha_T, T, shapes, grade_bound=1)
        assert report.passed, report.to_dict()
        assert report.clause1_checked > 0 and report.clause2_checked > 0


def test_verify_algebra_object_trivial_interval(cats):
    E = cats["Interval"]
    T = trivial_relative_monad(identity_functor(E))
    algcat = build_algebra_category(T)
    shapes = [corpus.terminal_category(), corpus.disc2_category()]
    report = verify_algebra_object(algcat.u, algcat.alpha_T, T, shapes, grade_bound=1)
    assert report.passed, report.to_dict()


def test_restricted_candidate_fails_clause1(cats):
    # drop one algebra from Alg(T): the dropped algebra cannot factor
    E = cats["Interval"]
    T = trivial_relative_monad(identity_functor(E))
    algcat = build_algebra_category(T)
    keep = {algcat.category.objects[0]}
    sub = _full_subcategory(algcat.category, keep)
    u_sub = FunctorData(sub, E,
                        {o: algcat.u.ob(o) for o in sub.objects},
                        {m: algcat.u.mor(m) for m in sub.morphism_names()})
    alpha_sub = {k: v for k, v in algcat.alpha_T.items() if k[1] in keep}
    report = verify_algebra_object(u_sub, alpha_sub, T, [corpus.terminal_category()])
    assert not report.passed
    assert report.clause1_failures
    assert "0 factorizations" in report.clause1_failures[0][2]


def test_verify_algebra_object_grade_2(bz2_monads):
    # the grade bound is configurable to 2: chains of two weights also lift
    T = bz2_monads[0]
    algcat = build_algebra_category(T)
    report = verify_algebra_object(algcat.u, algcat.alpha_T, T,
                                   [corpus.terminal_category()], grade_bound=2)
    assert report.passed, report.to_dict()
    assert report.grade_bound == 2


def test_graded_cells_over_the_budget_are_noted_and_skipped(bz2_monads):
    """verify_algebra_object bounds its graded cells by the budget it is
    handed, as it does its distributor census.  With budget 4 the
    Terminal-shaped algebras of the first monad on the point of BZ2 are
    listed (4 raw candidates), but some grade-2 chain of cap-2 weights
    spans more graded cells: that enumeration is noted and skipped, and no
    BudgetExceeded escapes.  The default budget checks every cell."""
    T = bz2_monads[0]
    algcat = build_algebra_category(T)
    shapes = [corpus.terminal_category()]
    full = verify_algebra_object(algcat.u, algcat.alpha_T, T, shapes, grade_bound=2, element_cap=2)
    bounded = verify_algebra_object(algcat.u, algcat.alpha_T, T, shapes, grade_bound=2, element_cap=2, budget=4)
    assert full.passed and full.notes == []
    assert bounded.passed and 0 < bounded.clause2_checked < full.clause2_checked
    assert bounded.notes and all(note.startswith("graded cells Terminal->Terminal (grade 2")
                                 and note.endswith("over budget; skipped") for note in bounded.notes)


def test_transport_check_records_what_the_budget_refuses(monkeypatch):
    """transport_bijection hands the run's budget to every graded
    enumeration and records a refusal in skipped instead of raising.  No
    builtin monad has more raw graded cells than raw algebra candidates
    (point_bm3 needs 3 of each), so the check runs on a one-instance
    context of point_bm3 whose algebra category is built at the default
    budget: at budget 2 the algebra transport is refused; at the default
    budget, with each graded enumeration held to 2, every one is refused
    and the first refusal is recorded.  The default budget skips nothing."""
    inst = next(i for i in corpus.builtin_corpus() if i.name == "point_bm3")
    ctx = _Context([inst], default_shape_family(), 1, budget_limit())
    assert [role for _, role, _ in ctx.monad_entries()] == ["T0"]
    ctx.algcat(inst.monads["T0"])
    full = _check_transport_bijection(ctx)
    assert full.checked == 1 and full.skipped == {}

    ctx.budget = 2
    refused = _check_transport_bijection(ctx)
    assert refused.checked == 0 and refused.skipped == {"Terminal->Terminal": "algebra transport over budget"}

    ctx.budget, budgets, real = budget_limit(), [], suite.graded_algebra_morphisms

    def held(alg1, alg2, chain, budget):
        budgets.append(budget)
        return real(alg1, alg2, chain, 2)

    monkeypatch.setattr(suite, "graded_algebra_morphisms", held)
    graded = _check_transport_bijection(ctx)
    assert graded.checked == 1 and graded.passed
    assert graded.skipped == {"Terminal->Terminal": "graded cells over budget (grade 0)"}
    # every graded enumeration was handed the run's budget
    assert budgets and set(budgets) == {budget_limit()}


def _candidate_with_arrows(algcat, arrows: int):
    """Alg(T) for the trivial monad on Interval with its one non-identity
    arrow dropped (arrows=0) or doubled (arrows=2), and u and alpha to
    match: every Terminal-shaped algebra still factors once, but the
    graded morphism over that arrow lifts 0 or 2 times."""
    C, u = algcat.category, algcat.u
    arrow = next(m for m, d, c in C.morphisms if d != c)
    names = [arrow + "'" * i for i in range(arrows)]
    morphisms = [(m, d, c) for m, d, c in C.morphisms if m != arrow]
    morphisms += [(m, C.dom(arrow), C.cod(arrow)) for m in names]
    comp = {(f, g): h for (f, g), h in C.composition.items() if arrow not in (f, g)}
    for m in names:
        comp[(C.id_of(C.dom(arrow)), m)] = comp[(m, C.id_of(C.cod(arrow)))] = m
    M = build_category("Alg|arrows", C.objects, morphisms, {o: C.id_of(o) for o in C.objects}, comp)
    on_morphisms = {m: u.mor(arrow if m in names else m) for m in M.morphism_names()}
    return FunctorData(M, u.cod, dict(u.on_objects), on_morphisms), algcat.alpha_T


def test_clause2_counts_the_lifts_of_each_graded_morphism(cats):
    """A graded morphism over the arrow 0 -> 1, of grade 0 or 1, lifts 0
    times through a candidate that lacks the arrow and twice through one
    that doubles it; every other graded morphism lifts once."""
    T = trivial_relative_monad(identity_functor(cats["Interval"]))
    algcat = build_algebra_category(T)
    full = verify_algebra_object(algcat.u, algcat.alpha_T, T, [corpus.terminal_category()])
    assert full.passed and full.clause2_checked > 1
    for arrows in (0, 2):
        u, alpha = _candidate_with_arrows(algcat, arrows)
        report = verify_algebra_object(u, alpha, T, [corpus.terminal_category()])
        assert not report.clause1_failures and report.clause2_checked == full.clause2_checked
        assert [(f[0], f[-1]) for f in report.clause2_failures] == [("grade0", arrows), ("grade1", arrows)]


def test_perturbed_candidate_fails_precheck(bz2_monads):
    T = bz2_monads[0]
    algcat = build_algebra_category(T)
    bad = dict(algcat.alpha_T)
    key = sorted(bad)[0]
    bad[key] = "s" if bad[key] == "e" else "e"
    report = verify_algebra_object(algcat.u, bad, T, [corpus.terminal_category()])
    assert not report.passed and not report.candidate_valid


# ---------------------------------------------------------------------------
# transport


@pytest.fixture(scope="module")
def transport_setup(bz2_monads):
    Tp = bz2_monads[0]
    algcatp = build_algebra_category(Tp)
    T = trivial_relative_monad(algcatp.f)
    return algcatp, T


def test_transport_forward_backward_identity(transport_setup):
    algcatp, T = transport_setup
    pairs = transport_algebras(algcatp, T, "forward")
    assert pairs
    for alg, image in pairs:
        back = transport_algebra_backward(algcatp, T, image)
        assert back.table() == alg.table()


def test_transport_backward_forward_identity(transport_setup):
    algcatp, T = transport_setup
    pairs = transport_algebras(algcatp, T, "backward")
    assert pairs
    for alg, image in pairs:
        forth = transport_algebra_forward(algcatp, T, image)
        assert forth.table() == alg.table()


def test_trivial_monad_composite_recovers_base_monad(transport_setup):
    # the composite of the trivial f_{T'}-monad with u_{T'} is T' itself,
    # so the transport bijection is a relabeling of T'-algebras
    algcatp, T = transport_setup
    Tu = postcompose_along_adjunction(T, algcatp.adjunction)
    Tp = algcatp.monad
    assert Tu.t == Tp.t
    assert Tu.table() == Tp.table()


def test_transport_counts_match(transport_setup):
    # the bijection matches the full enumerations on both sides
    algcatp, T = transport_setup
    Tu = postcompose_along_adjunction(T, algcatp.adjunction)
    n_T = len(enumerate_algebras(T, corpus.terminal_category()))
    n_Tu = len(enumerate_algebras(Tu, corpus.terminal_category()))
    assert n_T == n_Tu == len(transport_algebras(algcatp, T, "forward"))


def test_transport_graded_round_trip(transport_setup):
    algcatp, T = transport_setup
    algs = enumerate_algebras(T, corpus.terminal_category())
    from relmon.prof import enumerate_distributors
    Tm = corpus.terminal_category()
    chains = [[]] + [[p] for p in enumerate_distributors(Tm, Tm, 1)]
    for chain in chains:
        for alg1 in algs:
            for alg2 in algs:
                for cell in graded_algebra_morphisms(alg1, alg2, chain):
                    down = transport_graded_forward(algcatp, T, cell)
                    up = transport_graded_backward(algcatp, T, alg1, alg2, down)
                    assert up == cell.components


def test_transport_graded_bijection_onto_composite_side(transport_setup):
    # postcomposition hits exactly the graded morphisms of the images
    algcatp, T = transport_setup
    pairs = transport_algebras(algcatp, T, "forward")
    image_of = {alg.table(): img for alg, img in pairs}
    algs = enumerate_algebras(T, corpus.terminal_category())
    from relmon.prof import enumerate_distributors
    Tm = corpus.terminal_category()
    for chain in [[]] + [[p] for p in enumerate_distributors(Tm, Tm, 1)]:
        for a1 in algs:
            for a2 in algs:
                ups = graded_algebra_morphisms(a1, a2, chain)
                downs = graded_algebra_morphisms(image_of[a1.table()],
                                                 image_of[a2.table()], chain)
                forwarded = {
                    tuple(sorted(transport_graded_forward(algcatp, T, c).items()))
                    for c in ups
                }
                assert forwarded == {tuple(sorted(c.components.items())) for c in downs}
                assert len(forwarded) == len(ups)


def test_transport_accepts_monad_directly(bz2_monads):
    # spec-level signature: the base monad itself, algebra category built
    # internally
    Tp = bz2_monads[0]
    algcatp = build_algebra_category(Tp)
    T = trivial_relative_monad(algcatp.f)
    via_monad = transport_algebras(Tp, T, "forward")
    via_algcat = transport_algebras(algcatp, T, "forward")
    assert [(a.table(), b.table()) for a, b in via_monad] == \
        [(a.table(), b.table()) for a, b in via_algcat]


def test_empty_root_transport(cats):
    # degenerate: empty-root monads transport vacuously
    E = cats["Terminal"]
    Tp = trivial_relative_monad(identity_functor(E))
    algcatp = build_algebra_category(Tp)
    T = trivial_relative_monad(algcatp.f)
    pairs = transport_algebras(algcatp, T, "forward")
    for alg, image in pairs:
        assert transport_algebra_backward(algcatp, T, image).table() == alg.table()
