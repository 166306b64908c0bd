import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relmon import corpus, monadicity
from relmon.algebra import build_algebra_category
from relmon.colim import is_dense
from relmon.errors import Inapplicable, PremiseFail
from relmon.fincat import (
    FunctorData,
    classify_functor,
    compose_functors,
    enumerate_functors,
    identity_functor,
    opposite,
    opposite_functor,
)
from relmon.monad import RelativeMonad, enumerate_relative_monads, trivial_relative_monad
from relmon.monadicity import (
    Run,
    check_monadic_iff_left_adjoint,
    creation_audit,
    decide_composite_monadicity,
    decide_monadicity,
    default_shape_family,
    run_theorem_suite,
)

from .reference import constant_functor


@pytest.fixture(scope="module")
def cats():
    return {name: make() for name, make in corpus.STANDARD_CATEGORIES.items()}


@pytest.fixture(scope="module")
def bz2_built(cats):
    j = corpus.point_functor(cats["BZ2"], "*")
    monads = enumerate_relative_monads(j)
    return j, monads, [build_algebra_category(T) for T in monads]


# ---------------------------------------------------------------------------
# decide_monadicity


def test_identity_root_identity_r_strictly_monadic(cats):
    for name in ("Terminal", "Interval", "BZ2"):
        E = cats[name]
        rep = decide_monadicity(identity_functor(E), identity_functor(E), "strict")
        assert rep.verdict and rep.adjoint_found
        assert rep.comparison["is_iso"]


def test_empty_root_iff_iso(cats):
    E = cats["Disc2"]
    j = corpus.empty_functor(E)
    iso = FunctorData(E, E, {"0": "1", "1": "0"}, {"id0": "id1", "id1": "id0"})
    noniso = constant_functor(E, E, "0")
    assert decide_monadicity(j, iso, "strict").verdict
    assert decide_monadicity(j, identity_functor(E), "strict").verdict
    rep = decide_monadicity(j, noniso, "strict")
    assert not rep.verdict and rep.adjoint_found
    assert "not invertible" in rep.reason


def test_forgetful_functors_strictly_monadic(bz2_built):
    j, monads, algcats = bz2_built
    for algcat in algcats:
        rep = decide_monadicity(j, algcat.u, "strict")
        assert rep.verdict, rep.reason


def test_indisc2_to_terminal_nonstrict_only(cats):
    j = identity_functor(cats["Terminal"])
    r = constant_functor(cats["Indisc2"], cats["Terminal"], "*")
    strict = decide_monadicity(j, r, "strict")
    nonstrict = decide_monadicity(j, r, "nonstrict")
    assert not strict.verdict and strict.adjoint_found
    assert nonstrict.verdict


def test_no_adjoint_verdict(cats):
    E = cats["BZ2"]
    r = FunctorData(cats["Indisc2"], E, {"0": "*", "1": "*"},
                    {"id0": "e", "id1": "e", "m01": "e", "m10": "e"})
    rep = decide_monadicity(identity_functor(E), r, "strict")
    assert not rep.verdict and not rep.adjoint_found
    assert rep.reason == "no left relative adjoint"


def test_co_mode_involution(cats):
    from relmon.fincat import opposite, opposite_functor
    E = cats["Interval"]
    j = identity_functor(E)
    r = identity_functor(E)
    j_op = opposite_functor(j, opposite(E), opposite(E))
    for mode in ("strict", "nonstrict"):
        assert decide_monadicity(j_op, j_op, mode, co=True).verdict == \
            decide_monadicity(j, r, mode).verdict


# ---------------------------------------------------------------------------
# creation audit


def test_audit_forgetful_clean(bz2_built):
    j, monads, algcats = bz2_built
    for T, algcat in zip(monads, algcats):
        audit = creation_audit(Run(), j, algcat.u)
        assert not audit.vacuous and audit.dense_root
        assert audit.discrepancies == []
        assert audit.targeted_extension_found
        assert audit.targeted_extension_is_forgetful
        assert audit.targeted_extension_absolute
        assert audit.retraction_found and audit.retraction_identity
        assert audit.failing_items("strict") == []


def test_audit_finds_strict_witness(cats):
    j = identity_functor(cats["Terminal"])
    r = constant_functor(cats["Indisc2"], cats["Terminal"], "*")
    audit = creation_audit(Run(), j, r)
    # strict verdict is negative: some absolute colimit must fail strictly
    assert audit.failing_items("strict")
    # non-strict verdict is positive: no non-strict failures allowed
    assert audit.failing_items("nonstrict") == []
    assert audit.discrepancies == []


def test_audit_witnesses_strict_verdict_over_isomorphic_cocones(cats):
    # r picks 0 of Indisc2 under an empty (dense) root: the comparison is an
    # equivalence, not an isomorphism.  Each audited colimit has a cocone
    # conjugated by the swap 0 <-> 1 that nothing over r lies over, so strict
    # creation fails and witnesses the negative strict verdict
    inst = next(i for i in corpus.builtin_corpus() if i.name == "empty_root_indisc2")
    j, r = inst.functors["j"], inst.functors["r_point"]
    audit = creation_audit(Run(), j, r)
    assert audit.dense_root and not decide_monadicity(j, r, "strict").verdict
    failing = audit.failing_items("strict")
    assert failing and len(failing) == len(audit.items)
    assert "strict" not in audit.inconclusive_at_bound
    assert audit.failing_items("nonstrict") == []
    assert audit.discrepancies == []


def test_audit_density_necessity_exhibit(cats):
    # the documented counterexample: j = [] into Disc2 is not dense; the
    # point inclusion strictly creates every audited colimit yet is not
    # monadic -- recorded, not a discrepancy
    E = cats["Disc2"]
    j = corpus.empty_functor(E)
    r = corpus.point_functor(E, "0")
    rep = decide_monadicity(j, r, "strict")
    assert not rep.verdict
    audit = creation_audit(Run(), j, r)
    assert not audit.dense_root
    assert audit.failing_items("strict") == []
    assert audit.discrepancies == []
    assert any("not dense" in n for n in audit.notes)


def test_split_root_forgetful_functors_monadic_with_clean_audits(cats):
    # a dense non-identity root whose algebra categories differ structurally:
    # one is split-shaped (2 objects, 5 morphisms), one is terminal
    split = cats["Split"]
    j = corpus.point_functor(split, "x")
    monads = enumerate_relative_monads(j)
    sizes = []
    for T in monads:
        algcat = build_algebra_category(T)
        sizes.append(algcat.size())
        run = Run()
        assert run.resolution(j, algcat.u).report("strict").verdict
        audit = creation_audit(run, j, algcat.u)
        assert audit.discrepancies == []
        assert audit.targeted_extension_is_forgetful
        assert audit.retraction_identity
        assert audit.failing_items("strict") == []
    assert sorted(sizes) == [(1, 1), (2, 5)]


def test_audit_vacuous_without_adjoint(cats):
    E = cats["BZ2"]
    r = FunctorData(cats["Indisc2"], E, {"0": "*", "1": "*"},
                    {"id0": "e", "id1": "e", "m01": "e", "m10": "e"})
    audit = creation_audit(Run(), identity_functor(E), r)
    assert audit.vacuous


# ---------------------------------------------------------------------------
# composite monadicity


def test_composite_identity_r(bz2_built):
    j, monads, algcats = bz2_built
    algcat = algcats[0]
    rep = decide_composite_monadicity(j, algcat.u, identity_functor(algcat.category), "strict")
    assert rep.biconditional and rep.inner.verdict and rep.outer.verdict


def test_composite_with_u_S(bz2_built):
    j, monads, algcats = bz2_built
    algcat = algcats[0]
    S = enumerate_relative_monads(algcat.f)[0]
    algcat_s = build_algebra_category(S)
    for mode in ("strict", "nonstrict"):
        rep = decide_composite_monadicity(j, algcat.u, algcat_s.u, mode)
        assert rep.biconditional
        assert rep.inner.verdict and rep.outer.verdict


def test_composite_no_adjoint_both_negative(bz2_built, cats):
    j, monads, algcats = bz2_built
    algcat = algcats[0]
    D = algcat.category
    I = cats["Indisc2"]
    const = FunctorData(I, D, {o: D.objects[0] for o in I.objects},
                        {m: D.id_of(D.objects[0]) for m in I.morphism_names()})
    rep = decide_composite_monadicity(j, algcat.u, const, "strict")
    assert rep.biconditional
    assert not rep.inner.verdict and not rep.inner.adjoint_found
    assert not rep.outer.verdict and not rep.outer.adjoint_found


def test_composite_premise_fail(cats):
    j = identity_functor(cats["Terminal"])
    r = constant_functor(cats["Indisc2"], cats["Terminal"], "*")
    with pytest.raises(PremiseFail):
        decide_composite_monadicity(j, r, identity_functor(cats["Indisc2"]), "strict")


def counted_work(monkeypatch) -> dict:
    """Calls of the adjoint search, density check and algebra-category
    build that a run makes, by name."""
    counts = dict.fromkeys(("find_left_relative_adjoint", "is_dense", "build_algebra_category"), 0)
    for name in counts:
        def counted(*args, name=name, original=getattr(monadicity, name), **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(monadicity, name, counted)
    return counts


def test_composite_decision_resolves_a_shared_question_once(bz2_built, monkeypatch):
    """On r' = u_T and r = identity, r ; r' is r': the outer question is
    the premise's, so one run makes two adjoint searches, two density
    checks (j and the left adjoint) and two algebra categories, where three
    separate decisions make three of each, and reports the same."""
    j, monads, algcats = bz2_built
    u, r = algcats[0].u, identity_functor(algcats[0].category)
    counts = counted_work(monkeypatch)
    for mode in ("strict", "nonstrict"):
        prem = decide_monadicity(j, u, mode)
        left = Run().resolution(j, u).adjunction.left
        separate = monadicity.composite_monadicity(
            prem, decide_monadicity(left, r, mode), decide_monadicity(j, compose_functors(r, u), mode))
        counts.update(dict.fromkeys(counts, 0))
        assert decide_composite_monadicity(j, u, r, mode).to_dict() == separate.to_dict()
        assert counts == dict.fromkeys(counts, 2)


def test_monadic_iff_left_adjoint_checks_the_density_of_j_prime_once(cats, monkeypatch):
    """The premise's density check on j' is the resolution's: one run makes
    one is_dense(j') call, one adjoint search, and two algebra categories,
    of T and of the monad the adjoint induces."""
    E = cats["BZ2"]
    j, jp = corpus.point_functor(E, "*"), identity_functor(E)
    T = enumerate_relative_monads(j)[0]
    counts = counted_work(monkeypatch)
    assert check_monadic_iff_left_adjoint(j, jp, T).equivalence_holds
    assert counts == {"find_left_relative_adjoint": 1, "is_dense": 1, "build_algebra_category": 2}


# ---------------------------------------------------------------------------
# monadic iff left adjoint


def test_monadic_iff_left_adjoint_point_bz2(cats):
    # j = point, j' = identity on BZ2: the induced monads admit adjoints and
    # the proposition's equivalence holds
    E = cats["BZ2"]
    j = corpus.point_functor(E, "*")
    jp = identity_functor(E)
    from relmon.monad import precompose_root
    for T in enumerate_relative_monads(j):
        rep = check_monadic_iff_left_adjoint(j, jp, T)
        assert rep.applicable and rep.equivalence_holds


def test_monadic_iff_left_adjoint_factored(cats):
    # j: [] -> Terminal, j' = point into BZ2 (dense): T = empty-rooted monad
    E = cats["BZ2"]
    j = corpus.empty_functor(cats["Terminal"])
    jp = corpus.point_functor(E, "*")
    T = enumerate_relative_monads(corpus.empty_functor(E))[0]
    rep = check_monadic_iff_left_adjoint(j, jp, T)
    assert rep.applicable and rep.equivalence_holds
    assert rep.adjoint_exists and rep.monadic


def test_monadic_iff_left_adjoint_inapplicable(cats):
    j = corpus.empty_functor(cats["Terminal"])
    jp = corpus.point_functor(cats["Disc2"], "0")   # not dense
    T = enumerate_relative_monads(corpus.empty_functor(cats["Disc2"]))[0]
    with pytest.raises(Inapplicable):
        check_monadic_iff_left_adjoint(j, jp, T)


def test_unknown_mode_is_refused_before_any_adjoint_search(cats, monkeypatch):
    """decide_monadicity, decide_composite_monadicity and
    check_monadic_iff_left_adjoint refuse an unknown mode with the
    ValueError of colim.check_choice, before they search for an adjoint;
    in a known mode the same questions do search."""
    searches = []
    search = monadicity.find_left_relative_adjoint
    monkeypatch.setattr(monadicity, "find_left_relative_adjoint",
                        lambda *args: searches.append(args) or search(*args))
    E = cats["BZ2"]
    j, jp = corpus.point_functor(E, "*"), identity_functor(E)
    T = enumerate_relative_monads(j)[0]
    asks = [lambda mode: decide_monadicity(jp, jp, mode),
            lambda mode: decide_composite_monadicity(jp, jp, jp, mode),
            lambda mode: check_monadic_iff_left_adjoint(j, jp, T, mode)]
    for ask in asks:
        with pytest.raises(ValueError, match="^unknown mode 'sideways'; mode must be one of 'strict', 'nonstrict'$"):
            ask("sideways")
    assert searches == []
    for ask in asks:
        ask("strict")
    # the composite's three questions, (jp, jp), (jp, jp) and (jp, jp ; jp), are resolved once
    assert len(searches) == 3


def test_default_shape_family_within_bounds():
    for C in default_shape_family():
        assert len(C.objects) <= 2
        assert len(C.morphisms) <= 6


# ---------------------------------------------------------------------------
# theorem suite edge behavior


def test_suite_reports_mutated_monad_as_input_error():
    instances = [i for i in corpus.builtin_corpus() if i.name in ("terminal", "point_bz2")]
    inst = next(i for i in instances if i.name == "point_bz2")
    T = inst.monads["T0"]
    ext = dict(T.ext)
    key = sorted(ext)[0]
    ext[key] = "s" if ext[key] == "e" else "e"
    inst.monads["T0"] = RelativeMonad(T.j, T.t, T.unit, ext)
    report = run_theorem_suite(instances, element_cap=1)
    assert not report.passed
    assert report.input_errors            # invalid input, not a theorem failure
    assert report.results == []


def test_suite_degenerate_subcorpus_passes():
    instances = [i for i in corpus.builtin_corpus() if i.name in ("empty", "terminal")]
    report = run_theorem_suite(instances, element_cap=1)
    assert report.passed


def counted_resolutions(monkeypatch) -> list:
    """The (j, r, co) of each resolution the suite makes: each call of
    Run.resolution on a suite context whose question it has not resolved yet."""
    from relmon import suite
    calls = []
    resolution = Run.resolution

    def counted(self, j, r, co=False):
        if isinstance(self, suite._Context) and (j, r, co) not in self._resolutions:
            calls.append((j, r, co))
        return resolution(self, j, r, co)

    monkeypatch.setattr(Run, "resolution", counted)
    return calls


def test_suite_decides_pairs_of_equal_content_once(monkeypatch):
    """The suite's resolutions are keyed by content: a second (j, r) pair
    built separately with the same tables reuses the first resolution, in
    both modes."""
    from relmon import suite
    calls = counted_resolutions(monkeypatch)
    ctx = suite._Context([], default_shape_family(), 1, 10_000)
    pairs = []
    for _ in range(2):
        E = corpus.bz2_category()
        pairs.append((corpus.point_functor(E, "*"), identity_functor(E)))
    assert pairs[0][0] is not pairs[1][0] and pairs[0][1] is not pairs[1][1]
    first = ctx.resolution(*pairs[0])
    assert ctx.resolution(*pairs[1]) is first
    for mode in ("strict", "nonstrict"):
        assert ctx.resolution(*pairs[1]).report(mode).to_dict() == decide_monadicity(*pairs[0], mode).to_dict()
    assert len(calls) == 1


def test_suite_resolves_each_question_as_given_once(monkeypatch, cats):
    """The suite keys a resolution by (j, r, co) as given, before dualizing:
    the comonadicity question on (j, r) and the one on the dual inputs,
    whose dualized inputs equal (j, r), are resolved apart from the direct
    question, so duality_involution compares two resolutions and never
    reads the direct verdict back.  Each is resolved once for both modes,
    and every report equals decide_monadicity's."""
    from relmon import suite
    calls = counted_resolutions(monkeypatch)
    ctx = suite._Context([], default_shape_family(), 1, 10_000)
    E = cats["Interval"]
    j, r = identity_functor(E), constant_functor(cats["Terminal"], E, "1")
    questions = [(j, r, False), (j, r, True), (dual(j), dual(r), True), (dual(j), dual(r), False)]
    # the direct and co verdicts on (j, r) differ
    assert decide_monadicity(j, r).verdict != decide_monadicity(j, r, co=True).verdict
    for _ in range(2):
        for question in questions:
            for mode in ("strict", "nonstrict"):
                assert ctx.resolution(*question).report(mode).to_dict() == (
                    decide_monadicity(*question[:2], mode, co=question[2]).to_dict()), (question, mode)
    assert calls == questions
    assert len({id(ctx.resolution(*question)) for question in questions}) == 4


def test_suite_builds_each_algebra_category_once_per_content_and_name():
    """A suite run keeps one algebra category per monad by content and
    name, which names the category: monads of equal tables built apart
    with the same name share one AlgebraCategory, and monads that differ
    only in name do not.  The comonadicity question on the dual inputs
    reads the same algebra category as the direct question, whose
    dualized inputs it equals, but keeps its own adjunction and comparison."""
    from relmon import suite
    ctx = suite._Context([], default_shape_family(), 1, 10_000)
    T, again = (next(i for i in corpus.builtin_corpus() if i.name == "point_bz2").monads["T0"] for _ in range(2))
    assert T is not again and T.j is not again.j and T.name == again.name
    assert ctx.algcat(again) is ctx.algcat(T)
    named = RelativeMonad(T.j, T.t, T.unit, T.ext, name="T0")
    assert ctx.algcat(named) is not ctx.algcat(T)
    assert (ctx.algcat(named).category.name, ctx.algcat(T).category.name) == ("Alg(T0)", "Alg(?)")

    E = corpus.bz2_category()
    j, r = corpus.point_functor(E, "*"), identity_functor(E)
    direct, co = ctx.resolution(j, r), ctx.resolution(dual(j), dual(r), co=True)
    assert direct.adjunction is not None and co.algcat is direct.algcat
    assert co.adjunction is not direct.adjunction and co.comparison is not direct.comparison
    for mode in ("strict", "nonstrict"):
        assert co.report(mode).to_dict() == decide_monadicity(dual(j), dual(r), mode, co=True).to_dict()


# ---------------------------------------------------------------------------
# the relative monadicity theorem over generated pairs


def dual(F):
    return opposite_functor(F, opposite(F.dom), opposite(F.cod))


def assert_theorem_holds(j, r):
    """For a dense root j and an r with a left j-relative adjoint, the
    creation audit (the first two shapes, cap 1) finds no discrepancy with
    the comparison verdicts: every audited j-absolute colimit is created on
    a positive verdict, and the targeted extension is the forgetful
    functor.  Strict creation implies non-strict creation, for the verdicts
    and for every audited item.  Returns the verdicts."""
    run = Run()
    reports = {mode: run.resolution(j, r).report(mode) for mode in ("strict", "nonstrict")}
    if reports["strict"].verdict:
        assert reports["nonstrict"].verdict
    if not (reports["strict"].adjoint_found and is_dense(j)[0]):
        return reports["strict"].verdict, reports["nonstrict"].verdict
    audit = creation_audit(run, j, r, default_shape_family()[:2], 1)
    assert not audit.vacuous and audit.discrepancies == []
    assert not [item for item in audit.items if item.strict_pass and not item.nonstrict_pass]
    if reports["nonstrict"].verdict:
        assert audit.targeted_extension_found and audit.targeted_extension_is_forgetful
    return reports["strict"].verdict, reports["nonstrict"].verdict


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       e_shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
       d_shape=st.sampled_from([(1, 1), (1, 2), (2, 1)]))
@example(seed=13, e_shape=(2, 1), d_shape=(2, 1))
def test_relative_monadicity_theorem_on_generated_pairs(seed, e_shape, d_shape):
    """For a dense root, r is j-monadic iff it has a left j-relative adjoint
    and creates j-absolute colimits: the creation audit of generated (E, D),
    j the identity or a point of E and r among the first functors D -> E,
    agrees with the comparison verdicts, and so does the audit of the dual
    inputs, whose verdicts are decide_monadicity's with co.  The explicit
    example has a strict verdict that only creation over every colimiting
    cocone downstairs reproduces."""
    E = corpus.generate_category(seed, *e_shape)
    D = corpus.generate_category(seed + 1000, *d_shape)
    assume(E is not None and D is not None)
    rs = list(itertools.islice(enumerate_functors(D, E), 3))
    assume(rs)
    for j in (identity_functor(E), corpus.point_functor(E, E.objects[0])):
        for r in rs:
            assert_theorem_holds(j, r)
            co = assert_theorem_holds(dual(j), dual(r))
            assert co == tuple(decide_monadicity(j, r, mode, co=True).verdict
                               for mode in ("strict", "nonstrict"))


# ---------------------------------------------------------------------------
# the composite monadicity theorem over generated triples


def composite_cases(j, D):
    """decide_composite_monadicity over the triples (j, r', r) for a dense
    root j: r' = u_T for the first two monads T on j, and r the first four
    functors D -> Alg(T), then u_S for the first monad S on Alg(T)'s free
    functor.  Asserts that the theorem raises no TheoremViolation and that
    r has a left l'-adjoint iff r ; r' has a left j-adjoint (pasting of
    relative adjunctions).  Returns the (mode, inner adjoint found, inner
    verdict) triples reached."""
    seen = set()
    for T in enumerate_relative_monads(j)[:2]:
        algcat = build_algebra_category(T)
        rs = list(itertools.islice(enumerate_functors(D, algcat.category), 4))
        rs += [build_algebra_category(S).u for S in enumerate_relative_monads(algcat.f)[:1]]
        for r in rs:
            for mode in ("strict", "nonstrict"):
                try:
                    rep = decide_composite_monadicity(j, algcat.u, r, mode)
                except PremiseFail:
                    continue
                assert rep.biconditional
                assert rep.inner.adjoint_found == rep.outer.adjoint_found
                seen.add((mode, rep.inner.adjoint_found, rep.inner.verdict))
    return seen


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       point=st.sampled_from([None, 0, 1]),
       d_shape=st.sampled_from([(1, 1), (1, 2), (2, 1)]))
def test_composite_monadicity_theorem_on_generated_triples(seed, point, d_shape):
    """With r' j-monadic, r is l'-monadic iff r ; r' is j-monadic, in both
    modes, on generated triples (composite_cases): E with 2 objects and at
    most 2 morphisms per hom, j its identity or a point, when dense."""
    E = corpus.generate_category(seed, 2, 2)
    D = corpus.generate_category(seed + 1000, *d_shape)
    assume(E is not None and D is not None)
    j = identity_functor(E) if point is None else corpus.point_functor(E, E.objects[point])
    assume(is_dense(j)[0])
    composite_cases(j, D)


def test_composite_theorem_where_r_has_an_adjoint_but_is_not_monadic():
    """A pinned generated triple reaches every inner outcome in both modes,
    among them an r with a left l'-adjoint that is not l'-monadic, which no
    builtin triple reaches."""
    E, D = corpus.generate_category(12, 2, 2), corpus.generate_category(1012, 1, 1)
    assert composite_cases(corpus.point_functor(E, E.objects[1]), D) == {
        (mode, adjoint, verdict) for mode in ("strict", "nonstrict")
        for adjoint, verdict in ((False, False), (True, False), (True, True))}
