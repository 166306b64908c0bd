"""Relative monads: validation, induction from adjunctions, enumeration.

A j-relative monad is (j, t, unit, ext) with unit components j a -> t a and
extension tables ext_{a,b}: E(j a, t b) -> E(t a, t b) satisfying unit
naturality, binaturality of ext, and the three monad laws.

monad_violations checks given tables against every law.  The enumeration
does not call it: it lists the monads over a root with a pruned search
(search.Search) that checks each law instance at the last table slot it
reads, which yields the same list, in the same product order, as filtering
every candidate through monad_violations.  The budget still bounds the raw
candidate space, the product of the table sizes, before any search.
"""

from __future__ import annotations

from .errors import BudgetExceeded, EndpointMismatch, ValidationFailure, Violation, budget_limit
from .fincat import (
    FunctorData,
    check_field,
    check_name_map,
    field_at,
    compose_functors,
    enumerate_functors,
    split_keys,
)
from .reladj import RelativeAdjunction
from .search import Search

class RelativeMonad:
    def __init__(self, j: FunctorData, t: FunctorData, unit: dict, ext: dict, name=None):
        self.name = name
        self.j = j
        self.t = t
        self.unit = dict(unit)          # a -> morphism j a -> t a
        self.ext = dict(ext)            # (a, b, f) -> morphism t a -> t b

    def eta(self, a: str) -> str:
        return self.unit[a]

    def dagger(self, a: str, b: str, f: str) -> str:
        return self.ext[(a, b, f)]

    def table(self):
        return (tuple(sorted(self.unit.items())), tuple(sorted(self.ext.items())))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RelativeMonad) and self.j == other.j
                and self.t == other.t and self.table() == other.table())

    def __repr__(self) -> str:
        return f"RelativeMonad({self.name or '?'} on root {self.j.name or '?'})"

    def to_dict(self) -> dict:
        return {
            "j": self.j.to_dict(),
            "t": self.t.to_dict(),
            "unit": dict(sorted(self.unit.items())),
            "ext": {f"{a}|{b}|{f}": g for ((a, b, f), g) in sorted(self.ext.items())},
        }


def monad_violations(j: FunctorData, t: FunctorData, unit: dict, ext: dict) -> list[Violation]:
    A, E = j.dom, j.cod
    violations: list[Violation] = []
    if t.dom != A or t.cod != E:
        return [Violation("endpoint_mismatch", (), "carrier must be parallel to the root")]

    for a in A.objects:
        u = unit.get(a)
        if u is None or u not in E.hom(j.ob(a), t.ob(a)):
            violations.append(Violation("law_fail", ("unit_typing", a)))
    for a in A.objects:
        for b in A.objects:
            for f in E.hom(j.ob(a), t.ob(b)):
                g = ext.get((a, b, f))
                if g is None or g not in E.hom(t.ob(a), t.ob(b)):
                    violations.append(Violation("law_fail", ("ext_typing", a, b, f)))
    if violations:
        return violations

    for h in A.morphism_names():
        a, a2 = A.dom(h), A.cod(h)
        if E.comp(j.mor(h), unit[a2]) != E.comp(unit[a], t.mor(h)):
            violations.append(Violation("law_fail", ("unit_naturality", h)))
    for h in A.morphism_names():
        a2, a = A.dom(h), A.cod(h)        # h: a2 -> a reindexes the first slot
        for k in A.morphism_names():
            b, b2 = A.dom(k), A.cod(k)
            for f in E.hom(j.ob(a), t.ob(b)):
                lhs = ext[(a2, b2, E.comp_many(j.mor(h), f, t.mor(k)))]
                rhs = E.comp_many(t.mor(h), ext[(a, b, f)], t.mor(k))
                if lhs != rhs:
                    violations.append(Violation("law_fail", ("binaturality", h, k, f)))
    for a in A.objects:
        if ext[(a, a, unit[a])] != E.id_of(t.ob(a)):
            violations.append(Violation("law_fail", ("left_unit", a)))
    for a in A.objects:
        for b in A.objects:
            for f in E.hom(j.ob(a), t.ob(b)):
                if E.comp(unit[a], ext[(a, b, f)]) != f:
                    violations.append(Violation("law_fail", ("right_unit", a, b, f)))
    for a in A.objects:
        for b in A.objects:
            for c in A.objects:
                for f in E.hom(j.ob(a), t.ob(b)):
                    for g in E.hom(j.ob(b), t.ob(c)):
                        lhs = ext[(a, c, E.comp(f, ext[(b, c, g)]))]
                        rhs = E.comp(ext[(a, b, f)], ext[(b, c, g)])
                        if lhs != rhs:
                            violations.append(Violation("law_fail", ("associativity", a, b, c, f, g)))
    return violations


def validate_relative_monad(j: FunctorData, t: FunctorData, unit: dict, ext: dict,
                            name: str = "") -> RelativeMonad:
    violations = monad_violations(j, t, unit, ext)
    if violations:
        raise ValidationFailure(f"relative monad {name or '?'}", violations)
    return RelativeMonad(j, t, unit, ext, name=name or None)


def monad_from_dict(doc, functor, where: str, name: str = "") -> RelativeMonad:
    """The monad of a document {j, t, unit, ext}; where locates doc in its file.

    functor(ref, where) resolves a functor reference found at where.  A
    field of the wrong shape raises ParseFailure at its location."""

    j, t = (functor(check_field(doc, key, where), field_at(where, key)) for key in ("j", "t"))
    unit = check_name_map(check_field(doc, "unit", where), field_at(where, "unit"))
    ext = split_keys(check_field(doc, "ext", where), 3, field_at(where, "ext"))
    return validate_relative_monad(j, t, unit, ext, name=name)


def trivial_relative_monad(j: FunctorData) -> RelativeMonad:
    """Carrier j, identity unit, identity extension tables; always valid."""

    A, E = j.dom, j.cod
    unit = {a: E.id_of(j.ob(a)) for a in A.objects}
    ext = {}
    for a in A.objects:
        for b in A.objects:
            for f in E.hom(j.ob(a), j.ob(b)):
                ext[(a, b, f)] = f
    return validate_relative_monad(j, j, unit, ext, name="trivial")


def monad_from_adjunction(adj: RelativeAdjunction, name: str = "") -> RelativeMonad:
    """The induced monad: carrier l;r, unit sharp(id), extension r(flat(-))."""

    j = adj.j
    A, E = j.dom, j.cod
    t = compose_functors(adj.left, adj.right)
    C = adj.apex
    unit = {a: adj.transpose(a, adj.left.ob(a), C.id_of(adj.left.ob(a))) for a in A.objects}
    ext = {}
    for a in A.objects:
        for b in A.objects:
            for f in E.hom(j.ob(a), t.ob(b)):
                k = adj.untranspose(a, adj.left.ob(b), f)
                ext[(a, b, f)] = adj.right.mor(k)
    return validate_relative_monad(j, t, unit, ext, name=name)


def precompose_root(T: RelativeMonad, j: FunctorData) -> RelativeMonad:
    """Reindex a monad on root j': E' -> E'' along j: A -> E'."""

    if j.cod != T.j.dom:
        raise EndpointMismatch("precomposition functor must land in the monad's index")
    root = compose_functors(j, T.j)
    carrier = compose_functors(j, T.t)
    unit = {a: T.eta(j.ob(a)) for a in j.dom.objects}
    ext = {}
    E2 = T.j.cod
    for a in j.dom.objects:
        for b in j.dom.objects:
            for f in E2.hom(root.ob(a), carrier.ob(b)):
                ext[(a, b, f)] = T.dagger(j.ob(a), j.ob(b), f)
    return validate_relative_monad(root, carrier, unit, ext,
                                   name=f"{T.name}|{j.name}" if T.name else None)


def postcompose_along_adjunction(T: RelativeMonad, adj: RelativeAdjunction) -> RelativeMonad:
    """Compose a monad rooted at adj.left with adj's right adjoint.

    For T a monad with root l' where l' -|_j r', the result is the j-monad
    with carrier t ; r', the construction behind composite monadicity.
    """

    if T.j != adj.left:
        raise EndpointMismatch("monad root must be the adjunction's left adjoint")
    j = adj.j
    A, E = j.dom, j.cod
    D = adj.apex
    carrier = compose_functors(T.t, adj.right)
    unit = {a: adj.transpose(a, T.t.ob(a), T.eta(a)) for a in A.objects}
    ext = {}
    for a in A.objects:
        for b in A.objects:
            for f in E.hom(j.ob(a), carrier.ob(b)):
                k = adj.untranspose(a, T.t.ob(b), f)      # l' a -> t b in D
                ext[(a, b, f)] = adj.right.mor(T.dagger(a, b, k))
    return validate_relative_monad(j, carrier, unit, ext)


def _monad_search(j: FunctorData, t: FunctorData, unit_slots: list, ext_slots: list) -> Search:
    """The unit slots, then the extension slots, and every monad law instance.

    Each instance is checked at the latest slot it reads.  The laws that
    index ext through another slot's value, ext[(a, a, unit[a])] and
    ext[(a, c, f; ext(b, c, g))], are registered once per possible value of
    that slot, guarded by it.  Instances at identities hold for every typed
    table and are left out.
    """

    A, E = j.dom, j.cod
    comp = E.composition
    search = Search()
    unit = {a: search.slot(cs) for a, cs in zip(A.objects, unit_slots)}
    ext = {key: search.slot(cs) for key, cs in ext_slots}
    homs = {(a, b): E.hom(j.ob(a), t.ob(b)) for a in A.objects for b in A.objects}

    for a in A.objects:             # right unit: unit a ; f-dagger = f
        for b in A.objects:
            for f in homs[(a, b)]:
                search.require(lambda v, u=unit[a], x=ext[(a, b, f)], f=f: comp[(v[u], v[x])] == f,
                               unit[a], ext[(a, b, f)])
    for a, cs in zip(A.objects, unit_slots):    # left unit: ext(a, a, unit a) = id
        for u in cs:
            x = ext[(a, a, u)]
            search.require(lambda v, s=unit[a], u=u, x=x, i=E.id_of(t.ob(a)): v[s] != u or v[x] == i,
                           unit[a], x)
    for h in A.morphism_names():    # unit naturality: j h ; unit a2 = unit a ; t h
        if A.is_identity(h):
            continue
        a, a2 = A.dom(h), A.cod(h)
        search.require(lambda v, s=unit[a], s2=unit[a2], jh=j.mor(h), th=t.mor(h):
                       comp[(jh, v[s2])] == comp[(v[s], th)], unit[a], unit[a2])
    for h in A.morphism_names():    # binaturality, h: a2 -> a reindexing the first slot
        a2, a = A.dom(h), A.cod(h)
        for k in A.morphism_names():
            if A.is_identity(h) and A.is_identity(k):
                continue
            b, b2 = A.dom(k), A.cod(k)
            jh, th, tk = j.mor(h), t.mor(h), t.mor(k)
            for f in homs[(a, b)]:
                lhs, rhs = ext[(a2, b2, E.comp_many(jh, f, tk))], ext[(a, b, f)]
                search.require(lambda v, l=lhs, r=rhs, th=th, tk=tk: v[l] == comp[(comp[(th, v[r])], tk)],
                               lhs, rhs)
    for a in A.objects:             # associativity: ext(a, c, f ; g-dagger) = f-dagger ; g-dagger
        for b in A.objects:
            for c in A.objects:
                for f in homs[(a, b)]:
                    sf = ext[(a, b, f)]
                    for g in homs[(b, c)]:
                        sg = ext[(b, c, g)]
                        for w in search.domains[sg]:
                            sl = ext[(a, c, comp[(f, w)])]
                            search.require(lambda v, sf=sf, sg=sg, sl=sl, w=w:
                                           v[sg] != w or v[sl] == comp[(v[sf], w)], sf, sg, sl)
    return search


def enumerate_relative_monads(j: FunctorData, budget: int = None) -> list[RelativeMonad]:
    """All (t, unit, ext) triples over every candidate carrier, law-filtered.

    Canonical order: carriers in functor-enumeration order, then unit and
    extension tables in product order.  The list comes from a pruned search
    (search.Search) that checks each law instance as soon as its slots are
    bound; it equals filtering the full product through monad_violations,
    in the same order.  Raises BudgetExceeded when the raw candidate space
    (the product of the table sizes) for some carrier exceeds the budget,
    whatever the search would prune.
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
        n = len(A.objects)
        for values in _monad_search(j, t, unit_slots, ext_slots).solutions():
            unit = dict(zip(A.objects, values))
            ext = {key: v for (key, _), v in zip(ext_slots, values[n:])}
            out.append(RelativeMonad(j, t, unit, ext))
    return out
