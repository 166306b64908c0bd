"""The run-scoped downstairs census answers exactly as the searches it stands in for."""

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from relmon import corpus
from relmon.algebra import build_algebra_category
from relmon.census import ABSOLUTE_COLIMIT, COLIMIT, NO_COLIMIT, DownstairsCensus
from relmon.colim import (
    is_j_absolute,
    try_weighted_colimit,
    try_weighted_limit,
)
from relmon.errors import BudgetExceeded
from relmon.fincat import enumerate_functors, identity_functor
from relmon.monad import enumerate_relative_monads
from relmon.monadicity import creation_audit, run_theorem_suite
from relmon.prof import enumerate_distributors

SHAPES = {"Terminal": corpus.terminal_category, "Interval": corpus.interval_category,
          "Disc2": corpus.disc2_category}


def direct_colimit_verdict(j, p, d):
    down, _ = try_weighted_colimit(p, d)
    if down is None:
        return NO_COLIMIT
    absolute, _ = is_j_absolute(j, down)
    return ABSOLUTE_COLIMIT if absolute else COLIMIT


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4),
       objects=st.integers(min_value=1, max_value=2),
       max_hom=st.integers(min_value=1, max_value=2),
       shapes=st.lists(st.sampled_from(sorted(SHAPES)), min_size=1, max_size=2, unique=True))
def test_census_matches_direct_searches(seed, objects, max_hom, shapes):
    """One census over two roots and every shape pair, as a suite run shares it."""
    E = corpus.generate_category(seed, objects, max_hom)
    assume(E is not None)
    roots = [identity_functor(E), corpus.point_functor(E, E.objects[-1])]
    shape_cats = [SHAPES[name]() for name in shapes]
    census = DownstairsCensus()
    # twice: the first pass fills the census, the second reads it back
    for _ in range(2):
        for j in roots:
            for X in shape_cats:
                for Y in shape_cats:
                    for widx, p in enumerate(enumerate_distributors(X, Y, 1)):
                        for diagram in census.diagrams(Y, identity_functor(E)):
                            assert census.colimit(j, p, widx, diagram, 1) == (
                                direct_colimit_verdict(j, p, diagram.d))
                        for diagram in census.diagrams(X, identity_functor(E)):
                            assert census.limit(p, widx, diagram, 1) == (
                                try_weighted_limit(p, diagram.d)[0] is not None)


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
def test_stored_results_equal_searches(seed, objects, max_hom):
    """Stored downstairs and upstairs (co)limits equal try_weighted_colimit and
    try_weighted_limit, whether searched, read back or copied across."""
    E = corpus.generate_category(seed, objects, max_hom)
    D = corpus.generate_category(seed + 1, objects, max_hom)
    assume(E is not None and D is not None)
    census = DownstairsCensus()
    search = {"colimit": try_weighted_colimit, "limit": try_weighted_limit}
    functors = [identity_functor(E)] + list(enumerate_functors(D, E))[:2]
    for _ in range(2):
        for g in functors:
            for X in (corpus.terminal_category(), corpus.interval_category()):
                for Y in (corpus.terminal_category(), corpus.disc2_category()):
                    for widx, p in enumerate(enumerate_distributors(X, Y, 1)):
                        for kind, Z in (("colimit", Y), ("limit", X)):
                            for diagram in census.diagrams(Z, g):
                                assert same_result(census.downstairs(p, widx, diagram, 1, kind),
                                                   search[kind](p, diagram.d)[0])
                                assert same_result(census.upstairs(p, widx, diagram, 1, kind),
                                                   search[kind](p, diagram.f)[0])


def _audit_questions():
    """Two non-vacuous audit questions over the same E = BZ2 and root."""
    j = corpus.point_functor(corpus.bz2_category(), "*")
    forgetful = [build_algebra_category(T).u for T in enumerate_relative_monads(j)]
    return j, forgetful[0], forgetful[1]


def test_census_keeps_one_weight_list_per_categories_cap_and_budget():
    census = DownstairsCensus()
    T = corpus.terminal_category()
    first = census.weights(T, T, 1, 200_000)
    assert [p.table() for p in first] == [p.table() for p in enumerate_distributors(T, T, 1)]
    # equal-content categories built separately get the same list
    assert census.weights(corpus.terminal_category(), corpus.terminal_category(), 1, 200_000) is first
    assert len(census.weights(T, T, 2, 200_000)) > len(first)
    # a fresh census rebuilds an equal list
    again = DownstairsCensus().weights(T, T, 1, 200_000)
    assert again is not first and [p.table() for p in again] == [p.table() for p in first]
    # a list kept under a larger budget is not returned under one it exceeds
    with pytest.raises(BudgetExceeded):
        census.weights(T, T, 1, 1)


def test_audit_identical_with_cold_and_warm_census():
    j, r1, r2 = _audit_questions()
    shapes = [corpus.terminal_category(), corpus.interval_category()]

    def audit(r, census):
        rep = creation_audit(j, r, shapes, 1, census=census)
        assert not rep.vacuous and rep.items
        return rep.to_dict()

    cold = {"r1": audit(r1, DownstairsCensus()), "r2": audit(r2, DownstairsCensus())}
    for first, second in (("r1", "r2"), ("r2", "r1")):
        census = DownstairsCensus()
        r = {"r1": r1, "r2": r2}
        assert audit(r[first], census) == cold[first]
        rows = census.size()[0]
        assert audit(r[second], census) == cold[second]
        # both questions read and write the same rows: the second ran warm
        assert census.size()[0] == rows
    # an audit without a census argument makes its own
    assert creation_audit(j, r1, shapes, 1).to_dict() == cold["r1"]


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
