import itertools

import pytest
from hypothesis import given, settings, strategies as st

from relmon import corpus
from relmon.errors import NotParallel, ValidationFailure
from relmon.fincat import (
    FunctorData,
    classify_functor,
    compose_functors,
    constant_functor,
    category_violations,
    enumerate_functors,
    enumerate_natural_transformations,
    identity_functor,
    opposite,
    validate_category,
    validate_functor,
)


@pytest.fixture(scope="module")
def cats():
    return {name: make() for name, make in corpus.STANDARD_CATEGORIES.items()}


# ---------------------------------------------------------------------------
# category validation


def test_interval_validates(cats):
    C = cats["Interval"]
    assert C.hom("0", "1") == ("u",)
    assert C.hom("1", "0") == ()
    assert C.comp("id0", "u") == "u"


def test_bz2_validates_against_hand_enumeration(cats):
    # oracle: check the 8 composable triples of BZ2 by direct enumeration
    C = cats["BZ2"]
    names = C.morphism_names()
    assert names == ("e", "s")
    for f, g, h in itertools.product(names, repeat=3):
        assert C.comp(C.comp(f, g), h) == C.comp(f, C.comp(g, h))
    assert C.comp("s", "s") == "e"


def test_revalidation_is_idempotent(cats):
    for C in cats.values():
        again = validate_category(C.to_dict(), name=C.name)
        assert again == C
        assert validate_category(again.to_dict(), name=C.name) == again


def test_missing_identity_reported():
    raw = corpus.interval_category().to_dict()
    del raw["identities"]["1"]
    with pytest.raises(ValidationFailure) as exc:
        validate_category(raw)
    assert any(v.kind == "missing_identity" and v.witness == ("1",)
               for v in exc.value.violations)


def test_non_composable_entry_rejected():
    raw = corpus.interval_category().to_dict()
    raw["composition"]["u;u"] = "u"
    with pytest.raises(ValidationFailure) as exc:
        validate_category(raw)
    assert any(v.kind == "bad_composite" for v in exc.value.violations)


def test_duplicate_names_rejected():
    raw = corpus.disc2_category().to_dict()
    raw["morphisms"].append({"name": "id0", "dom": "0", "cod": "0"})
    with pytest.raises(ValidationFailure) as exc:
        validate_category(raw)
    assert exc.value.violations[0].kind == "duplicate_name"


def test_bz2_idempotent_mutation_is_a_lawful_monoid():
    # s;s = s with everything else fixed yields the two-element idempotent
    # monoid {1,0}: associative and unital, so validation accepts it. The
    # mutation harness therefore draws from unit-breaking entries instead.
    raw = corpus.bz2_category().to_dict()
    raw["composition"]["s;s"] = "s"
    assert category_violations(raw) == []


def test_identity_entry_mutations_always_rejected():
    raw = corpus.bz2_category().to_dict()
    raw["composition"]["e;s"] = "e"
    with pytest.raises(ValidationFailure) as exc:
        validate_category(raw)
    assert any(v.kind in ("missing_identity", "non_associative")
               for v in exc.value.violations)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unit_row_mutations_rejected_with_witness(data):
    # property: mutating any identity-row composition entry breaks the laws
    name = data.draw(st.sampled_from(["BZ2", "BM3", "Split", "Indisc2"]))
    C = corpus.STANDARD_CATEGORIES[name]()
    raw = C.to_dict()
    unit_keys = [
        k for k in raw["composition"]
        if C.is_identity(k.partition(";")[0]) or C.is_identity(k.partition(";")[2])
    ]
    key = data.draw(st.sampled_from(sorted(unit_keys)))
    f, _, g = key.partition(";")
    old = raw["composition"][key]
    slot = [m for m in C.morphism_names()
            if C.dom(m) == C.dom(f) and C.cod(m) == C.cod(g) and m != old]
    if not slot:
        return
    raw["composition"][key] = data.draw(st.sampled_from(slot))
    violations = category_violations(raw)
    assert violations, f"mutation of {key} was not rejected"
    assert all(v.witness for v in violations)


# ---------------------------------------------------------------------------
# opposite


def test_opposite_involution(cats):
    for C in cats.values():
        assert opposite(opposite(C)).table()[:2] == C.table()[:2]
        assert opposite(opposite(C)).composition == C.composition


def test_opposite_is_built_once_per_category(cats):
    for C in cats.values():
        assert opposite(C) is opposite(C)
        assert opposite(opposite(C)) == C


def test_equal_content_categories_compare_and_hash_equal(cats):
    for name, make in corpus.STANDARD_CATEGORIES.items():
        C, C2 = cats[name], make()
        assert C is not C2
        assert C == C2 and hash(C) == hash(C2)
        assert C.table() is C.table()
    assert cats["Interval"] != cats["Disc2"]
    assert cats["Interval"] != opposite(cats["Interval"])


def test_opposite_interval_flips_u(cats):
    op = opposite(cats["Interval"])
    assert op.dom("u") == "1" and op.cod("u") == "0"


def test_opposite_bz2_equals_itself(cats):
    # abelian group: transposing the table is a no-op
    assert opposite(cats["BZ2"]).composition == cats["BZ2"].composition


# ---------------------------------------------------------------------------
# functors


def test_identity_functor_valid(cats):
    for C in cats.values():
        F = validate_functor(identity_functor(C).to_dict(), C, C)
        assert F == identity_functor(C)


def test_constant_functor_to_terminal(cats):
    C, T = cats["Interval"], cats["Terminal"]
    F = constant_functor(C, T, "*")
    assert not __import__("relmon.fincat", fromlist=["functor_violations"]).functor_violations(F.to_dict(), C, T)


def test_inconsistent_swap_breaks_identity(cats):
    D = cats["Disc2"]
    raw = {"on_objects": {"0": "1", "1": "0"},
           "on_morphisms": {"id0": "id0", "id1": "id1"}}
    with pytest.raises(ValidationFailure) as exc:
        validate_functor(raw, D, D)
    kinds = {v.kind for v in exc.value.violations}
    assert "breaks_identity" in kinds or "breaks_composition" in kinds


def test_enumerate_functors_counts(cats):
    # oracle: functors Terminal -> Interval are the two objects
    assert len(list(enumerate_functors(cats["Terminal"], cats["Interval"]))) == 2
    # oracle: functors BZ2 -> BZ2 are the two monoid endomorphisms of Z/2
    assert len(list(enumerate_functors(cats["BZ2"], cats["BZ2"]))) == 2
    # oracle: functors Interval -> Interval: monotone maps with arrow images
    # {00,01,11} -> 3
    assert len(list(enumerate_functors(cats["Interval"], cats["Interval"]))) == 3
    assert len(list(enumerate_functors(cats["Empty"], cats["BZ2"]))) == 1


# ---------------------------------------------------------------------------
# natural transformations


def test_nat_trans_terminal_identity(cats):
    T = cats["Terminal"]
    assert len(enumerate_natural_transformations(identity_functor(T), identity_functor(T))) == 1


def test_nat_trans_bz2_identity_pair(cats):
    # oracle: brute force over the 2 candidate components; both are natural
    # because Z/2 is commutative
    C = cats["BZ2"]
    nats = enumerate_natural_transformations(identity_functor(C), identity_functor(C))
    assert [n.components["*"] for n in nats] == ["e", "s"]


def test_nat_trans_bm3_center_only(cats):
    # oracle: the right-zero monoid has trivial center, so only the unit
    # component is natural for the identity functor
    C = cats["BM3"]
    nats = enumerate_natural_transformations(identity_functor(C), identity_functor(C))
    assert [n.components["*"] for n in nats] == ["e"]


def test_nat_trans_distinct_constants_empty(cats):
    D = cats["Disc2"]
    F = constant_functor(D, D, "0")
    G = constant_functor(D, D, "1")
    assert enumerate_natural_transformations(F, G) == []


def test_nat_trans_not_parallel(cats):
    with pytest.raises(NotParallel):
        enumerate_natural_transformations(
            identity_functor(cats["Terminal"]), identity_functor(cats["BZ2"]))


def test_nat_trans_count_matches_unfiltered_bruteforce(cats):
    # independent oracle: filter all component assignments by naturality
    C = cats["Split"]
    F = identity_functor(C)
    expected = 0
    for c_x in C.hom("x", "x"):
        for c_y in C.hom("y", "y"):
            comp = {"x": c_x, "y": c_y}
            ok = all(
                C.comp(f, comp[C.cod(f)]) == C.comp(comp[C.dom(f)], f)
                for f in C.morphism_names()
            )
            expected += ok
    got = enumerate_natural_transformations(F, F)
    assert len(got) == expected


# ---------------------------------------------------------------------------
# classification


def test_classify_identity_all_true(cats):
    for C in cats.values():
        cl = classify_functor(identity_functor(C))
        assert cl.is_iso and cl.is_equivalence and cl.conservative


def test_classify_interval_to_terminal(cats):
    F = constant_functor(cats["Interval"], cats["Terminal"], "*")
    cl = classify_functor(F)
    assert cl.faithful and cl.essentially_surjective
    # hom(1,0) is empty upstairs but a singleton downstairs
    assert not cl.full and cl.witnesses["full"] == ("1", "0", "id")
    assert not cl.conservative       # u maps to an identity but is not invertible
    assert cl.witnesses["conservative"] == ("u",)
    assert not cl.is_iso and not cl.is_equivalence


def test_classify_disc2_into_indisc2(cats):
    D, I = cats["Disc2"], cats["Indisc2"]
    F = FunctorData(D, I, {"0": "0", "1": "1"}, {"id0": "id0", "id1": "id1"})
    cl = classify_functor(F)
    assert cl.faithful and cl.essentially_surjective and not cl.full
    assert cl.conservative
    assert not cl.is_equivalence


def test_classify_indisc2_to_terminal_equivalence(cats):
    # all hom-sets on both sides are singletons: fully faithful and eso
    F = constant_functor(cats["Indisc2"], cats["Terminal"], "*")
    cl = classify_functor(F)
    assert cl.is_equivalence and not cl.is_iso
    assert cl.faithful and cl.full


def test_compose_functors(cats):
    C = cats["Interval"]
    F = identity_functor(C)
    assert compose_functors(F, F) == F


def test_conservativity_morphism_level_matches_2cell_level(cats):
    # spot-test of the design decision: reflecting invertibility of
    # morphisms coincides with reflecting invertibility of natural
    # transformations phi over small shapes
    from relmon.fincat import FunctorData
    samples = [
        identity_functor(cats["Interval"]),
        constant_functor(cats["Interval"], cats["Terminal"], "*"),
        FunctorData(cats["Disc2"], cats["Indisc2"], {"0": "0", "1": "1"},
                    {"id0": "id0", "id1": "id1"}),
        constant_functor(cats["Indisc2"], cats["Terminal"], "*"),
        constant_functor(cats["Split"], cats["Terminal"], "*"),
    ]
    shapes = [cats["Terminal"], cats["Interval"]]
    for g in samples:
        morphism_level = classify_functor(g).conservative
        two_cell_level = True
        for Z in shapes:
            for F1 in enumerate_functors(Z, g.dom):
                for F2 in enumerate_functors(Z, g.dom):
                    for phi in enumerate_natural_transformations(F1, F2):
                        image_invertible = all(
                            g.cod.is_invertible(g.mor(v)) for v in phi.components.values())
                        phi_invertible = all(
                            g.dom.is_invertible(v) for v in phi.components.values())
                        if image_invertible and not phi_invertible:
                            two_cell_level = False
        assert morphism_level == two_cell_level
