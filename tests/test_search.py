"""The engine's enumerations give the product-then-filter lists of tests/reference.py.

Same list, same order, and BudgetExceeded on the same inputs.
"""

from hypothesis import assume, example, given, settings, strategies as st

from relmon import corpus
from relmon.algebra import enumerate_algebras
from relmon.colim import _cone_families, is_dense, nerve_transform_families
from relmon.errors import BudgetExceeded
from relmon.fincat import enumerate_functors, identity_functor
from relmon.monad import enumerate_relative_monads
from relmon.prof import enumerate_distributors

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
