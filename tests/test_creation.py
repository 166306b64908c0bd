"""Creation verdicts and colimiting cocones answer as the definitions do.

The suite reads creation verdicts through a run-scoped census and decides
whether a cocone is colimiting from stored colimits; these tests compare
both against direct checks over generated categories, with caches cold and
warm and in either call order.
"""

from hypothesis import assume, given, settings, strategies as st

from relmon import corpus
from relmon.algebra import build_algebra_category
from relmon.census import DownstairsCensus
from relmon.colim import (
    check_creation,
    cocone_is_colimiting,
    enumerate_cocones,
    colimiting_test,
    is_j_absolute,
    try_weighted_colimit,
    try_weighted_limit,
)
from relmon.errors import BudgetExceeded
from relmon.fincat import compose_functors, enumerate_functors, identity_functor
from relmon.monad import enumerate_relative_monads
from relmon.monadicity import creation_audit
from relmon.prof import enumerate_distributors
from relmon.reladj import find_left_relative_adjoint

from . import reference

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


def audit_verdicts(j, r, census):
    rep = creation_audit(j, r, shapes(), 1, budget=TEST_BUDGET, census=census)
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
    a cold census and a warm one, in both orders of the candidates."""
    seed, objects, max_hom = params
    E = corpus.generate_category(seed, objects, max_hom)
    D = corpus.generate_category(seed + 1, objects, max_hom)
    assume(E is not None and D is not None)
    j = roots(E)[root]
    rs = candidates(j, D)
    assume(rs)
    direct = [direct_verdicts(j, r) for r in rs]
    for order in (range(len(rs)), reversed(range(len(rs)))):
        census = DownstairsCensus()
        for i in order:
            assert audit_verdicts(j, rs[i], census) == direct[i]


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
        by_comparison = colimiting_test(try_weighted_colimit(p, f)[0])
        for w, legs in enumerate_cocones(p, f):
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
                for widx, p in enumerate(enumerate_distributors(X, Y, 1)):
                    for diagram in diagrams[Y]:
                        down, _ = try_weighted_colimit(p, diagram.d)
                        if down is None or not is_j_absolute(j, down)[0]:
                            continue
                        for mode in ("strict", "nonstrict"):
                            out.append(verdict(census, g, p, widx, diagram, "colimit", mode))
                    for diagram in diagrams[X]:
                        if try_weighted_limit(p, diagram.d)[0] is None:
                            continue
                        for mode in ("strict", "nonstrict"):
                            out.append(verdict(census, g, p, widx, diagram, "limit", mode))
    return out


def verdict(census, g, p, widx, diagram, kind, mode):
    if census is None:
        return check_creation(g, p, diagram.f, mode=mode, kind=kind).passed
    return census.creation(g, p, widx, diagram, 1, kind, mode)


@settings(max_examples=8, deadline=None)
@given(params=generated, root=st.sampled_from([0, 1]))
def test_census_creation_verdicts_match_direct_checks(params, root):
    """census.creation equals check_creation(...).passed for a forgetful
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
