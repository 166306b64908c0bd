"""Relative monads: validation, induction from adjunctions, enumeration.

A j-relative monad is (j, t, unit, ext) with unit components j a -> t a and
extension tables ext_{a,b}: E(j a, t b) -> E(t a, t b) satisfying unit
naturality, binaturality of ext, and the three monad laws.
"""

from __future__ import annotations

import itertools
import os

from .errors import BudgetExceeded, EndpointMismatch, ValidationFailure, Violation
from .fincat import FunctorData, compose_functors, enumerate_functors, identity_functor
from .reladj import RelativeAdjunction

DEFAULT_BUDGET = 500_000


def budget_limit() -> int:
    raw = os.environ.get("RELMON_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return max(int(raw), 1)
    except ValueError:
        return DEFAULT_BUDGET


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


def enumerate_relative_monads(j: FunctorData, budget: int = None) -> list[RelativeMonad]:
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
