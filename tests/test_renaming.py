"""Answers survive renaming: isomorphic questions get isomorphic answers.

A drawn bijection renames every object, morphism and distributor element
of a question, and may also permute the order in which they are listed.
Verdicts and counts must not change.  With the renaming alone (listing
order kept) every witness must map back through the bijection, because
canonical order follows listing order; a permutation may pick other
witnesses, so then only verdicts and counts are compared.

Questions asked through one census share its stored answers, so the
renamed question is also asked through the census that answered the
original, in both orders.
"""

import ast
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from relmon import corpus
from relmon.census import DownstairsCensus
from relmon.colim import verify_weighted_colimit
from relmon.colim import check_creation, is_j_absolute, try_weighted_colimit, try_weighted_limit
from relmon.errors import BudgetExceeded, DownstairsMissing
from relmon.fincat import FunctorData, build_category, enumerate_functors, identity_functor
from relmon.monadicity import creation_audit, decide_monadicity
from relmon.prof import Distributor, enumerate_distributors

from . import reference
from .test_creation import TEST_BUDGET, candidates, generated


class Renaming:
    """A drawn bijection on the names of every category, functor and
    distributor it is given, optionally permuting listing order.  Equal
    categories get the same renaming, so functors between them compose."""

    def __init__(self, seed: int, permute: bool, categories: bool = True):
        self.rng = random.Random(seed)
        self.permute = permute
        self.categories = categories    # False: rename distributor elements only
        self.cats = {}          # C -> (renamed C, object map, morphism map)

    def _fresh(self, count: int) -> list:
        used, out = set(), []
        while len(out) < count:
            name = self.rng.choice("pqrstuvw") + str(self.rng.randrange(1000))
            if name not in used:
                used.add(name)
                out.append(name)
        return out

    def _shuffled(self, items: list) -> list:
        if self.permute:
            self.rng.shuffle(items)
        return items

    def category(self, C):
        if C not in self.cats and not self.categories:
            self.cats[C] = (C, {x: x for x in C.objects}, {m: m for m in C.morphism_names()})
        if C not in self.cats:
            om = dict(zip(C.objects, self._fresh(len(C.objects))))
            mm = dict(zip(C.morphism_names(), self._fresh(len(C.morphisms))))
            renamed = build_category(
                C.name, self._shuffled([om[x] for x in C.objects]),
                self._shuffled([(mm[m], om[d], om[c]) for (m, d, c) in C.morphisms]),
                {om[x]: mm[i] for x, i in C.identities.items()},
                {(mm[f], mm[g]): mm[h] for (f, g), h in C.composition.items()})
            self.cats[C] = (renamed, om, mm)
        return self.cats[C][0]

    def ob(self, C, x: str) -> str:
        self.category(C)
        return self.cats[C][1][x]

    def mor(self, C, m: str) -> str:
        self.category(C)
        return self.cats[C][2][m]

    def functor(self, F: FunctorData) -> FunctorData:
        C, D = F.dom, F.cod
        return FunctorData(self.category(C), self.category(D),
                           {self.ob(C, x): self.ob(D, F.ob(x)) for x in C.objects},
                           {self.mor(C, m): self.mor(D, F.mor(m)) for m in C.morphism_names()})

    def distributor(self, p: Distributor) -> tuple:
        """(renamed p, element map (y, x, e) -> new name)."""
        X, Y = p.src, p.tgt
        el = {}
        elements = {}
        for (y, x), els in p.elements.items():
            names = self._fresh(len(els))
            el.update({(y, x, e): n for e, n in zip(els, names)})
            elements[(self.ob(Y, y), self.ob(X, x))] = tuple(self._shuffled(list(names)))
        right = {(self.mor(Y, m), self.ob(X, x), el[(Y.cod(m), x, e)]): el[(Y.dom(m), x, v)]
                 for (m, x, e), v in p.right_action.items()}
        left = {(self.mor(X, n), self.ob(Y, y), el[(y, X.dom(n), e)]): el[(y, X.cod(n), v)]
                for (n, y, e), v in p.left_action.items()}
        return Distributor(self.category(X), self.category(Y), elements, right, left, name=p.name), el


def shapes():
    return [corpus.terminal_category(), corpus.interval_category()]


def colimit_image(ren: Renaming, colim, p, el) -> tuple:
    """colim's apex and legs, renamed: what the renamed question must answer."""
    X, W = p.src, colim.diagram.cod
    apex = ({ren.ob(X, x): ren.ob(W, w) for x, w in colim.apex.on_objects.items()},
            {ren.mor(X, n): ren.mor(W, k) for n, k in colim.apex.on_morphisms.items()})
    legs = {(ren.ob(p.tgt, y), ren.ob(X, x), el[(y, x, e)]): ren.mor(W, k)
            for (y, x, e), k in colim.legs.items()}
    return apex, legs


def limit_image(ren: Renaming, lim, p, el) -> tuple:
    Y, W = p.tgt, lim.diagram.cod
    apex = ({ren.ob(Y, y): ren.ob(W, w) for y, w in lim.apex.on_objects.items()},
            {ren.mor(Y, m): ren.mor(W, k) for m, k in lim.apex.on_morphisms.items()})
    legs = {(ren.ob(p.src, x), ren.ob(Y, y), el[(y, x, e)]): ren.mor(W, k)
            for (x, y, e), k in lim.legs.items()}
    return apex, legs


def creation_answer(g, p, f, mode, kind):
    try:
        return check_creation(g, p, f, mode=mode, kind=kind).to_dict()
    except DownstairsMissing:
        return None


def renamed_report(ren: Renaming, report: dict, A, C) -> dict:
    """report with every apex it names (an object map A -> C) renamed: the
    lifted apex, and the apex a violation string names."""

    def rename(apex: dict) -> dict:
        return {ren.ob(A, a): ren.ob(C, c) for a, c in apex.items()}

    out = dict(report)
    if out["lifted_apex"] is not None:
        out["lifted_apex"] = rename(out["lifted_apex"])
    violations = []
    for v in out["violations"]:
        head, sep, apex = v.partition(" at apex ")
        violations.append(head + sep + str(rename(ast.literal_eval(apex))) if sep else v)
    out["violations"] = violations
    return out


@settings(max_examples=6, deadline=None)
@given(params=generated, seed=st.integers(min_value=0, max_value=2**16), permute=st.booleans())
def test_per_call_answers_survive_renaming(params, seed, permute):
    """try_weighted_colimit, try_weighted_limit, is_j_absolute and
    check_creation (both modes, both kinds) on a question and its renaming."""
    s, objects, max_hom = params
    W = corpus.generate_category(s, objects, max_hom)
    D = corpus.generate_category(s + 1, objects, max_hom)
    assume(W is not None and D is not None)
    ren = Renaming(seed, permute)
    roots = [identity_functor(W), corpus.point_functor(W, W.objects[-1])]
    gs = [identity_functor(W)] + list(enumerate_functors(D, W))[:1]
    compared = 0
    for X in shapes():
        for Y in shapes():
            for p in enumerate_distributors(X, Y, 1):
                p2, el = ren.distributor(p)
                for f in enumerate_functors(Y, W):
                    colim, failed = try_weighted_colimit(p, f)
                    colim2, failed2 = try_weighted_colimit(p2, ren.functor(f))
                    assert (colim is None) == (colim2 is None)
                    if not permute:
                        if colim is None:
                            assert failed2 == ren.ob(X, failed)
                        else:
                            apex, legs = colimit_image(ren, colim, p, el)
                            assert (colim2.apex.on_objects, colim2.apex.on_morphisms) == apex
                            assert colim2.legs == legs
                    if colim is None:
                        continue
                    for j in roots:
                        absolute, at = is_j_absolute(j, colim)
                        absolute2, at2 = is_j_absolute(ren.functor(j), colim2)
                        assert absolute == absolute2
                        if not permute and not absolute:
                            assert at2 == (ren.ob(j.dom, at[0]), ren.ob(X, at[1]))
                    compared += 1
                for f in enumerate_functors(X, W):
                    lim, _ = try_weighted_limit(p, f)
                    lim2, _ = try_weighted_limit(p2, ren.functor(f))
                    assert (lim is None) == (lim2 is None)
                    if lim is not None and not permute:
                        apex, legs = limit_image(ren, lim, p, el)
                        assert (lim2.apex.on_objects, lim2.apex.on_morphisms) == apex
                        assert lim2.legs == legs
                for g in gs:
                    g2 = ren.functor(g)
                    for kind, Z, A in (("colimit", Y, X), ("limit", X, Y)):
                        for f in enumerate_functors(Z, g.dom):
                            for mode in ("strict", "nonstrict"):
                                want = creation_answer(g, p, f, mode, kind)
                                got = creation_answer(g2, p2, ren.functor(f), mode, kind)
                                assert (want is None) == (got is None)
                                if want is None:
                                    continue
                                if permute:
                                    assert got["passed"] == want["passed"]
                                    assert got["upstairs_exists"] == want["upstairs_exists"]
                                else:
                                    assert got == renamed_report(ren, want, A, g.dom)
    assert compared


def audit_answer(j, r, census, back, budget):
    """creation_audit's items and counts, diagrams mapped back by back."""
    rep = creation_audit(j, r, shapes(), 1, budget=budget, census=census)
    items = [(it.shape_pair, it.weight_index, back(it.diagram), it.strict_pass, it.nonstrict_pass)
             for it in rep.items]
    doc = rep.to_dict()
    counts = {k: doc[k] for k in ("vacuous", "dense_root", "census", "targeted_extension_found",
                                  "targeted_extension_is_forgetful", "targeted_extension_absolute",
                                  "retraction_found", "retraction_identity", "discrepancies",
                                  "inconclusive_at_bound", "notes")}
    return items, counts


def decision(j, r, mode, budget):
    rep = decide_monadicity(j, r, mode, budget=budget).to_dict()
    if rep["comparison"] is not None:
        rep["comparison"].pop("witnesses", None)
    return rep


def assert_question_survives_renaming(j, r, seed, permute, budget=TEST_BUDGET):
    ren = Renaming(seed, permute)
    j2, r2 = ren.functor(j), ren.functor(r)
    for mode in ("strict", "nonstrict"):
        try:
            want = decision(j, r, mode, budget)
        except BudgetExceeded:
            return
        assert decision(j2, r2, mode, budget) == want

    def back(diagram: dict) -> dict:
        # a diagram from a shape (kept unrenamed) into the renamed dom r
        ob = {v: k for k, v in ren.cats[r.dom][1].items()}
        return {y: ob[d] for y, d in diagram.items()}

    for renamed_first in (False, True):
        census = DownstairsCensus()
        if renamed_first:
            items2, counts2 = audit_answer(j2, r2, census, back, budget)
            items, counts = audit_answer(j, r, census, dict, budget)
        else:
            items, counts = audit_answer(j, r, census, dict, budget)
            items2, counts2 = audit_answer(j2, r2, census, back, budget)
        if permute:
            assert counts2 == counts
            assert sorted(items2, key=repr) == sorted(items, key=repr)
        else:
            assert counts2 == counts
            assert items2 == items


@pytest.fixture(scope="module")
def corpus_questions():
    out = []
    for inst in corpus.builtin_corpus():
        if inst.roles.get("root") != "j":
            continue
        j = inst.functors["j"]
        for role in inst.roles["candidates"]:
            out.append((inst.name, role, j, inst.functors[role]))
    return out


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), permute=st.booleans())
def test_corpus_questions_survive_renaming(corpus_questions, seed, permute):
    """decide_monadicity (both modes) and creation_audit on every corpus
    root question and its renaming, through one census in both orders."""
    for name, role, j, r in corpus_questions:
        assert_question_survives_renaming(j, r, seed, permute, budget=None)


@settings(max_examples=5, deadline=None)
@given(params=generated, root=st.sampled_from([0, 1]),
       seed=st.integers(min_value=0, max_value=2**16), permute=st.booleans())
def test_generated_questions_survive_renaming(params, root, seed, permute):
    s, objects, max_hom = params
    E = corpus.generate_category(s, objects, max_hom)
    D = corpus.generate_category(s + 1, objects, max_hom)
    assume(E is not None and D is not None)
    j = [identity_functor(E), corpus.point_functor(E, E.objects[-1])][root]
    rs = candidates(j, D)
    assume(rs)
    assert_question_survives_renaming(j, rs[0], seed, permute)


def colimit_answer(p, f, store):
    """try_weighted_colimit(p, f) through store, as plain data, each found
    colimit checked against the docstring's definition."""
    colim, failed = try_weighted_colimit(p, f, store)
    if colim is None:
        return None, failed
    assert reference.cocone_is_colimiting(p, f, colim.apex, colim.legs)
    assert verify_weighted_colimit(colim)
    return colim.apex.table(), sorted(colim.legs.items())


@settings(max_examples=8, deadline=None)
@given(params=generated, seed=st.integers(min_value=0, max_value=2**16), permute=st.booleans())
def test_shared_store_answers_survive_element_renaming(params, seed, permute):
    """Weights and their element renamings asked through one store, in both
    orders, answer as each asked alone: a stored answer is read back by
    slot index into the names of whichever weight asks."""
    W = corpus.generate_category(*params)
    assume(W is not None)
    ren = Renaming(seed, permute, categories=False)
    T, I = shapes()
    # cap 2 gives columns with equal element counts and different actions
    weights = [p for X in (T, I) for Y in (T, I) for p in enumerate_distributors(X, Y, 1)]
    weights += enumerate_distributors(T, I, 2)
    pairs = []
    for p in weights:
        p2, el = ren.distributor(p)
        pairs += [(p, p2, el, f) for f in enumerate_functors(p.tgt, W)]
    questions = [q for (p, p2, _, f) in pairs for q in ((p, f), (p2, f))]
    cold = [colimit_answer(p, f, None) for p, f in questions]
    for order in (questions, questions[::-1]):
        store = {}
        warm = {id(q): colimit_answer(*q, store) for q in order}
        assert [warm[id(q)] for q in questions] == cold
    for (p, p2, el, f), first, second in zip(pairs, cold[::2], cold[1::2]):
        assert (first[0] is None) == (second[0] is None)
        if first[0] is not None and not permute:
            assert second == (first[0], sorted(((y, x, el[(y, x, e)]), leg)
                                               for (y, x, e), leg in first[1]))
