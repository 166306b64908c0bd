"""Naive reference searches: product-then-filter, straight from the definitions.

The engine's searches prune as they go; these walk the whole product of
their tables and keep what the law checks accept, in itertools.product
order.  Differential tests compare the engine against them: same list, same
order.
"""

from __future__ import annotations

import itertools

from relmon.algebra import Algebra, algebra_violations
from relmon.errors import BudgetExceeded
from relmon.fincat import enumerate_functors
from relmon.monad import RelativeMonad, budget_limit, monad_violations


def enumerate_relative_monads(j, budget: int = None) -> list:
    """All (t, unit, ext) triples over every candidate carrier, law-filtered.

    Canonical order: carriers in functor-enumeration order, then unit and
    extension tables in product order.  Raises BudgetExceeded when the raw
    candidate space for some carrier exceeds the budget.
    """

    budget = budget or budget_limit()
    A, E = j.dom, j.cod
    out = []
    for t in enumerate_functors(A, E):
        unit_slots = [E.hom(j.ob(a), t.ob(a)) for a in A.objects]
        ext_slots = []
        for a in A.objects:
            for b in A.objects:
                source = E.hom(j.ob(a), t.ob(b))
                target = E.hom(t.ob(a), t.ob(b))
                for f in source:
                    ext_slots.append(((a, b, f), target))
        space = 1
        for cs in unit_slots:
            space *= max(len(cs), 1)
        for _, cs in ext_slots:
            space *= max(len(cs), 1)
            if space > budget:
                raise BudgetExceeded("relative monad enumeration", space, budget)
        if any(not cs for cs in unit_slots):
            continue
        if any(not cs for _, cs in ext_slots):
            continue
        for unit_combo in itertools.product(*unit_slots):
            unit = dict(zip(A.objects, unit_combo))
            for ext_combo in itertools.product(*[cs for _, cs in ext_slots]):
                ext = {key: v for (key, _), v in zip(ext_slots, ext_combo)}
                if not monad_violations(j, t, unit, ext):
                    out.append(RelativeMonad(j, t, unit, ext))
    return out


def enumerate_algebras(T, D, budget: int = None) -> list:
    """All (carrier, alpha) pairs with domain D, law-filtered, canonical order."""

    budget = budget or budget_limit()
    A, E = T.j.dom, T.j.cod
    out = []
    for carrier in enumerate_functors(D, E):
        slots = []
        for a in A.objects:
            for d in D.objects:
                source = E.hom(T.j.ob(a), carrier.ob(d))
                target = E.hom(T.t.ob(a), carrier.ob(d))
                for f in source:
                    slots.append(((a, d, f), target))
        space = 1
        feasible = True
        for _, target in slots:
            if not target:
                feasible = False
                break
            space *= len(target)
            if space > budget:
                raise BudgetExceeded("algebra enumeration", space, budget)
        if not feasible:
            continue
        for combo in itertools.product(*[t for _, t in slots]):
            alpha = {key: v for (key, _), v in zip(slots, combo)}
            if not algebra_violations(T, carrier, alpha):
                out.append(Algebra(T, carrier, alpha))
    return out


def nerve_transform_families(j, e: str, e2: str) -> list:
    """Every phi_a: E(j a, e) -> E(j a, e2) with phi_{a'}(v; u) = v; phi_a(u)
    for all v: j a' -> j a, as dicts keyed (a, u), in product order."""

    A, E = j.dom, j.cod
    slots = [(a, u) for a in A.objects for u in E.hom(j.ob(a), e)]
    out = []
    for combo in itertools.product(*[E.hom(j.ob(a), e2) for (a, _) in slots]):
        phi = dict(zip(slots, combo))
        if all(phi[(a2, E.comp(v, u))] == E.comp(v, phi[(a, u)])
               for a in A.objects for a2 in A.objects
               for v in E.hom(j.ob(a2), j.ob(a)) for u in E.hom(j.ob(a), e)):
            out.append(phi)
    return out


def is_dense(j):
    """Full faithfulness of the nerve, over the product-then-filter families."""

    E = j.cod
    for e in E.objects:
        for e2 in E.objects:
            fams = {tuple(sorted(phi.items())) for phi in nerve_transform_families(j, e, e2)}
            slots = [(a, u) for a in j.dom.objects for u in E.hom(j.ob(a), e)]
            images = [tuple(sorted((s, E.comp(s[1], k)) for s in slots)) for k in E.hom(e, e2)]
            if len(set(images)) != len(images) or set(images) != fams:
                return False, (e, e2)
    return True, None


def cone_families(p, g, y: str, wprime: str):
    """The slots (x, e) of p(y, -) and every family W(w', g x) natural in x,
    as tuples in slot order, in product order."""

    X, W = p.src, g.cod
    slots = [(x, e) for x in X.objects for e in p.el(y, x)]
    out = []
    for combo in itertools.product(*[W.hom(wprime, g.ob(x)) for (x, _) in slots]):
        phi = dict(zip(slots, combo))
        if all(phi[(X.cod(n), p.act_l(n, y, e))] == W.comp(phi[(X.dom(n), e)], g.mor(n))
               for n in X.morphism_names() for e in p.el(y, X.dom(n))):
            out.append(combo)
    return slots, out


def natural_families(p, x: str, f, wprime: str) -> list:
    """Every family phi_y: p(y, x) -> W(f y, wprime) natural in y, as tuples
    in slot order, in product order."""

    Y, W = p.tgt, f.cod
    slots = [(y, e) for y in Y.objects for e in p.el(y, x)]
    out = []
    for combo in itertools.product(*[W.hom(f.ob(y), wprime) for (y, _) in slots]):
        phi = dict(zip(slots, combo))
        if all(phi[(Y.dom(m), p.act_r(m, x, e))] == W.comp(f.mor(m), phi[(Y.cod(m), e)])
               for m in Y.morphism_names() for e in p.el(Y.cod(m), x)):
            out.append(combo)
    return out


def cocone_is_colimiting(p, f, w, legs: dict) -> bool:
    """The colimit module docstring's definition: for every x and w',
    postcomposition with the legs at x is a bijection from W(w x, w') onto
    the natural families p(-, x) => W(f -, w')."""

    Y, W = p.tgt, f.cod
    for x in p.src.objects:
        slots = [(y, e) for y in Y.objects for e in p.el(y, x)]
        for wprime in W.objects:
            images = [tuple(W.comp(legs[(y, x, e)], k) for (y, e) in slots)
                      for k in W.hom(w.ob(x), wprime)]
            if len(set(images)) != len(images) or set(images) != set(natural_families(p, x, f, wprime)):
                return False
    return True
