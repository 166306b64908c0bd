"""Weighted colimits and limits, left extensions, absoluteness, density, creation.

A p-weighted colimit of f: Y -> W (p: X -|-> Y) is an apex functor X -> W
with legs lam_{y,x}: p(y,x) -> W(f y, apex x), natural in y and x, such that
postcomposition with the legs is a bijection

    W(apex x, w')  ~=  { families p(-,x) => W(f-, w') natural in y }

for every x and w'.  Limits are computed by dualizing everything, running
the colimit search, and dualizing back.  Absoluteness of a colimit along a
root j is the bijectivity of the canonical map from the tensor quotient
(E(j,f) (.)l p) to E(j, apex), which at Set level is preservation by the
nerve of j.

Caches, what keys them and how long they live:

* DownstairsCensus holds one byte per (weight, diagram) position for the
  downstairs questions of creation: does the p-weighted colimit of
  d: Y -> E exist, and is it j-absolute; does the p-weighted limit exist.
  Rows are keyed by content, (kind, E, root, X, Y, element_cap); inside a
  row a verdict sits at the weight's index in the distributor census and
  the diagram's index in enumerate_functors(Y, E).  A suite run holds one
  in its context for forgetful_creates, monadicity_crosscheck and
  density_necessity; a creation audit without one makes its own.  It is
  dropped with the run or the audit.
* The checker LRU holds one _UniversalityChecker per (p, f): its family
  plans (slots and naturality checks, one per x), its natural families and
  their key sets, and its colimit search.  It is process-wide, holds at
  most CHECKER_CACHE_SIZE (64) checkers, and is keyed by the structural
  content of p and f (their categories' tables, p's element and action
  tables, f's object and morphism maps), never by object identity.  A
  creation check that asks about a (p, f) just searched finds it there,
  and an answer is always bound to the caller's own p and f.
* Memos kept on immutable inputs for their lifetime, derived only from
  their tables: a FinCategory keeps its table, hash, opposite() and
  hom_distributor(); a Distributor keeps its table().
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .errors import ColimitNotFound, DownstairsMissing, EndpointMismatch, TheoremViolation
from .fincat import (
    FinCategory,
    FunctorData,
    compose_functors,
    enumerate_functors,
    functor_violations,
    identity_functor,
    opposite,
    opposite_functor,
)
from .lru import LRUCache
from .prof import Distributor, dual_distributor, hom_restriction, tensor_set
from .search import Search

# ---------------------------------------------------------------------------
# natural families


def _family_plan(p: Distributor, x: str, f: FunctorData) -> tuple:
    """The slots (y, e) of a family at x in canonical order, and its naturality checks.

    checks[i] holds (a, b, f m), meaning phi[b] = f(m); phi[a], for every
    constraint whose later slot max(a, b) is i.
    """

    Y = p.tgt
    slots = [(y, e) for y in Y.objects for e in p.el(y, x)]
    slot_index = {s: i for i, s in enumerate(slots)}
    checks: list[list] = [[] for _ in slots]
    for m in Y.morphism_names():
        if Y.is_identity(m):
            continue
        y, y2 = Y.cod(m), Y.dom(m)
        fm = f.mor(m)
        for e in p.el(y, x):
            a, b = slot_index[(y, e)], slot_index[(y2, p.act_r(m, x, e))]
            checks[max(a, b)].append((a, b, fm))
    return slots, checks


def natural_families(p: Distributor, x: str, f: FunctorData, W: FinCategory, wprime: str,
                     plan: tuple = None):
    """All families phi_{y}: p(y, x) -> W(f y, wprime) natural in y.

    Naturality: phi_{y'}(m.e) = f(m); phi_y(e) for every m: y' -> y in Y.
    Returned as dicts keyed (y, e), in canonical enumeration order.  Each
    constraint is checked once, at the later of its two slots, as soon as
    both are assigned.  plan is _family_plan(p, x, f), built here when not
    given; it does not depend on wprime, so a caller may share it.
    """

    slots, checks = plan if plan is not None else _family_plan(p, x, f)
    comp = W.composition
    domains = [W.hom(f.ob(y), wprime) for (y, _) in slots]
    out = []
    assignment: list[Optional[str]] = [None] * len(slots)

    def rec(i: int):
        if i == len(slots):
            out.append(dict(zip(slots, assignment)))
            return
        for k in domains[i]:
            assignment[i] = k
            for (a, b, fm) in checks[i]:
                if assignment[b] != comp[(fm, assignment[a])]:
                    break
            else:
                rec(i + 1)
        assignment[i] = None

    rec(0)
    return out


class _UniversalityChecker:
    """Natural families, their key sets and the colimit search for one (weight, diagram) pair.

    A family's key is the tuple of its values in slot order.  The family
    plan (slots and naturality checks) is built once per x and shared by
    every w'.
    """

    def __init__(self, p: Distributor, f: FunctorData):
        self.p = p
        self.f = f
        self.W = f.cod
        self._plans: dict[str, tuple] = {}
        self._fams: dict[tuple[str, str], list] = {}
        self._keys: dict[tuple[str, str], frozenset] = {}
        self._colimit = None

    def plan(self, x: str) -> tuple:
        if x not in self._plans:
            self._plans[x] = _family_plan(self.p, x, self.f)
        return self._plans[x]

    def slots(self, x: str) -> list:
        return self.plan(x)[0]

    def families(self, x: str, wprime: str):
        key = (x, wprime)
        if key not in self._fams:
            self._fams[key] = natural_families(self.p, x, self.f, self.W, wprime,
                                               plan=self.plan(x))
        return self._fams[key]

    def family_keys(self, x: str, wprime: str) -> frozenset:
        key = (x, wprime)
        if key not in self._keys:
            self._keys[key] = frozenset(tuple(fam.values()) for fam in self.families(x, wprime))
        return self._keys[key]

    def is_colimiting_at(self, x: str, apex_obj: str, legs_at_x: dict) -> bool:
        """Is postcomposition with the legs a bijection W(apex, w') ~= families(x, w')?"""

        W = self.W
        comp = W.composition
        legs = [legs_at_x[s] for s in self.slots(x)]
        for wprime in W.objects:
            homs = W.hom(apex_obj, wprime)
            fam_keys = self.family_keys(x, wprime)
            if len(homs) != len(fam_keys):
                return False
            images = set()
            for k in homs:
                img = tuple([comp[(v, k)] for v in legs])
                if img in images or img not in fam_keys:
                    return False
                images.add(img)
        return True

    def is_cocone_colimiting(self, w: FunctorData, legs: dict) -> bool:
        p = self.p
        for x in p.src.objects:
            legs_at_x = {(y, e): legs[(y, x, e)] for (y, e) in self.slots(x)}
            if not self.is_colimiting_at(x, w.ob(x), legs_at_x):
                return False
        return True

    def colimit(self):
        """((apex on objects, apex on morphisms, legs), None), or (None, first failing x).

        The search runs on the first call only.
        """

        if self._colimit is None:
            self._colimit = self._search()
        return self._colimit

    def _search(self):
        p, W = self.p, self.W
        X = p.src
        chosen_obj: dict[str, str] = {}
        chosen_legs: dict[str, dict] = {}
        for x in X.objects:
            found = False
            for w0 in W.objects:
                for fam in self.families(x, w0):
                    if self.is_colimiting_at(x, w0, fam):
                        chosen_obj[x] = w0
                        chosen_legs[x] = fam
                        found = True
                        break
                if found:
                    break
            if not found:
                return None, x

        on_morphisms = {}
        for n in X.morphism_names():
            x, x2 = X.dom(n), X.cod(n)
            target = {s: chosen_legs[x2][(s[0], p.act_l(n, s[0], s[1]))]
                      for s in chosen_legs[x]}
            matches = [
                k for k in W.hom(chosen_obj[x], chosen_obj[x2])
                if all(W.comp(chosen_legs[x][s], k) == target[s] for s in chosen_legs[x])
            ]
            if len(matches) != 1:
                raise TheoremViolation("universal property must pin the apex action")
            on_morphisms[n] = matches[0]
        apex = FunctorData(X, W, chosen_obj, on_morphisms)
        if functor_violations(apex.to_dict(), X, W):
            raise TheoremViolation("colimit apex must be a functor")
        legs = {(y, x, e): chosen_legs[x][(y, e)]
                for x in X.objects for (y, e) in chosen_legs[x]}
        return (chosen_obj, on_morphisms, legs), None


CHECKER_CACHE_SIZE = 64
_checkers = LRUCache(CHECKER_CACHE_SIZE)


def _shared_checker(p: Distributor, f: FunctorData) -> _UniversalityChecker:
    # categories compare and hash by their tables, so the key is content only
    key = (p.src, p.tgt, p.table(), f.dom, f.cod, f.table())
    checker = _checkers.get(key)
    if checker is None:
        checker = _UniversalityChecker(p, f)
        _checkers.put(key, checker)
    return checker


# ---------------------------------------------------------------------------
# weighted colimits


@dataclass
class WeightedColimit:
    weight: Distributor
    diagram: FunctorData
    apex: FunctorData
    legs: dict = field(repr=False)   # (y, x, e) -> morphism f y -> apex x

    def leg(self, y: str, x: str, e: str) -> str:
        return self.legs[(y, x, e)]


@dataclass
class WeightedLimit:
    weight: Distributor
    diagram: FunctorData
    apex: FunctorData
    legs: dict = field(repr=False)   # (x, y, e) -> morphism apex y -> g x

    def leg(self, x: str, y: str, e: str) -> str:
        return self.legs[(x, y, e)]


def try_weighted_colimit(p: Distributor, f: FunctorData):
    """The p-weighted colimit of f, or (None, first failing x).

    The search runs once per (p, f) content in the shared checker cache;
    the result is bound to the caller's own p and f.
    """

    if f.dom != p.tgt:
        raise EndpointMismatch("diagram must start at the weight's target")
    found, failed = _shared_checker(p, f).colimit()
    if found is None:
        return None, failed
    on_objects, on_morphisms, legs = found
    apex = FunctorData(p.src, f.cod, on_objects, on_morphisms)
    return WeightedColimit(p, f, apex, dict(legs)), None


def weighted_colimit(p: Distributor, f: FunctorData) -> WeightedColimit:
    colim, failed = try_weighted_colimit(p, f)
    if colim is None:
        raise ColimitNotFound(failed)
    return colim


def verify_weighted_colimit(colim: WeightedColimit) -> bool:
    """Re-check naturality of the legs and every bijection certificate."""

    p, f, apex = colim.weight, colim.diagram, colim.apex
    W, X, Y = f.cod, p.src, p.tgt
    for (y, x, e), leg in colim.legs.items():
        if W.dom(leg) != f.ob(y) or W.cod(leg) != apex.ob(x):
            return False
    for m in Y.morphism_names():
        y, y2 = Y.cod(m), Y.dom(m)
        for x in X.objects:
            for e in p.el(y, x):
                if colim.legs[(y2, x, p.act_r(m, x, e))] != W.comp(f.mor(m), colim.legs[(y, x, e)]):
                    return False
    for n in X.morphism_names():
        x, x2 = X.dom(n), X.cod(n)
        for y in Y.objects:
            for e in p.el(y, x):
                if colim.legs[(y, x2, p.act_l(n, y, e))] != W.comp(colim.legs[(y, x, e)], apex.mor(n)):
                    return False
    return _shared_checker(p, f).is_cocone_colimiting(apex, colim.legs)


# ---------------------------------------------------------------------------
# weighted limits (by dualization)


def _dualize_colimit_to_limit(p: Distributor, g: FunctorData, colim: WeightedColimit) -> WeightedLimit:
    Y, W = p.tgt, g.cod
    apex = FunctorData(Y, W, colim.apex.on_objects, colim.apex.on_morphisms)
    legs = {(x, y, e): v for ((x, y, e), v) in colim.legs.items()}
    return WeightedLimit(p, g, apex, legs)


def try_weighted_limit(p: Distributor, g: FunctorData):
    """The p-weighted limit of g: src(p) -> W, indexed by tgt(p); dual route."""

    if g.dom != p.src:
        raise EndpointMismatch("limit diagram must start at the weight's source")
    pd = dual_distributor(p)
    g_op = opposite_functor(g, pd.tgt, opposite(g.cod))
    colim, failed = try_weighted_colimit(pd, g_op)
    if colim is None:
        return None, failed
    colim_back = WeightedColimit(
        pd, g_op,
        FunctorData(p.tgt, g.cod, colim.apex.on_objects, colim.apex.on_morphisms),
        colim.legs,
    )
    return _dualize_colimit_to_limit(p, g, colim_back), None


def weighted_limit(p: Distributor, g: FunctorData) -> WeightedLimit:
    lim, failed = try_weighted_limit(p, g)
    if lim is None:
        raise ColimitNotFound(failed)
    return lim


def _cone_families(p: Distributor, g: FunctorData, y: str, wprime: str) -> tuple:
    """The slots (x, e) of p(y, -), and every family phi_x: W(wprime, g x)
    natural in x, as tuples in slot order, in product order."""

    X, W = p.src, g.cod
    comp = W.composition
    slots = [(x, e) for x in X.objects for e in p.el(y, x)]
    search = Search()
    index = {(x, e): search.slot(W.hom(wprime, g.ob(x))) for (x, e) in slots}
    for n in X.morphism_names():
        if X.is_identity(n):
            continue
        x, x2, gn = X.dom(n), X.cod(n), g.mor(n)
        for e in p.el(y, x):
            a, b = index[(x, e)], index[(x2, p.act_l(n, y, e))]
            search.require(lambda v, a=a, b=b, gn=gn: v[b] == comp[(v[a], gn)], a, b)
    return slots, search.solutions()


def verify_weighted_limit(lim: WeightedLimit) -> bool:
    """Direct check of the limit universal property, independent of the
    dualization route: cone naturality plus the bijection

        W(w', apex y)  ~=  { families p(y,-) => W(w', g -) natural in x }

    for every y and w'."""

    p, g, apex = lim.weight, lim.diagram, lim.apex
    W, X, Y = g.cod, p.src, p.tgt
    for (x, y, e), leg in lim.legs.items():
        if W.dom(leg) != apex.ob(y) or W.cod(leg) != g.ob(x):
            return False
    for n in X.morphism_names():
        x, x2 = X.dom(n), X.cod(n)
        for y in Y.objects:
            for e in p.el(y, x):
                if lim.legs[(x2, y, p.act_l(n, y, e))] != W.comp(lim.legs[(x, y, e)], g.mor(n)):
                    return False
    for m in Y.morphism_names():
        y, y2 = Y.cod(m), Y.dom(m)
        for x in X.objects:
            for e in p.el(y, x):
                if lim.legs[(x, y2, p.act_r(m, x, e))] != W.comp(apex.mor(m), lim.legs[(x, y, e)]):
                    return False

    for y in Y.objects:
        for wprime in W.objects:
            slots, fams = _cone_families(p, g, y, wprime)
            images = set()
            for k in W.hom(wprime, apex.ob(y)):
                img = tuple(W.comp(k, lim.legs[(x, y, e)]) for (x, e) in slots)
                if img in images:
                    return False
                images.add(img)
            if images != set(fams):
                return False
    return True


# ---------------------------------------------------------------------------
# left extensions


def extension_weight(c: FunctorData) -> Distributor:
    """C'(c, 1): the weight whose colimit of r is the left extension c |> r."""
    Cp = c.cod
    return hom_restriction(Cp, c, identity_functor(Cp))


def try_left_extension(c: FunctorData, r: FunctorData):
    """Pointwise left extension of r along c (shared domain), or (None, x)."""

    if c.dom != r.dom:
        raise EndpointMismatch("extension needs functors with a shared domain")
    return try_weighted_colimit(extension_weight(c), r)


def left_extension(c: FunctorData, r: FunctorData) -> WeightedColimit:
    ext, failed = try_left_extension(c, r)
    if ext is None:
        raise ColimitNotFound(failed)
    return ext


def extension_unit(ext: WeightedColimit, c: FunctorData, d: str) -> str:
    """The unit component r d -> ext(c d) of a left extension."""
    cd = c.ob(d)
    return ext.legs[(d, cd, c.cod.id_of(cd))]


# ---------------------------------------------------------------------------
# absoluteness and density


def is_j_absolute(j: FunctorData, colim: WeightedColimit):
    """Bijectivity of the canonical map (E(j,f) (.)l p)(a,x) -> E(j a, apex x).

    Returns (True, None) or (False, (a, x)) with the first failing pair.
    """

    E = j.cod
    if colim.diagram.cod != E:
        raise EndpointMismatch("colimit must live in the root's codomain")
    f = colim.diagram
    p = colim.weight
    q = hom_restriction(E, j, f)      # q(a, y) = E(j a, f y)
    A = j.dom
    for a in A.objects:
        for x in p.src.objects:
            ts = tensor_set(q, p, a, x)
            target = E.hom(j.ob(a), colim.apex.ob(x))
            images = {}
            for (y, u, e) in ts.pairs:
                rep = ts.class_of[(y, u, e)]
                val = E.comp(u, colim.legs[(y, x, e)])
                if rep in images:
                    if images[rep] != val:
                        raise TheoremViolation("canonical map must be class-invariant")
                else:
                    images[rep] = val
            vals = [images[r] for r in ts.classes]
            if len(set(vals)) != len(vals) or set(vals) != set(target):
                return False, (a, x)
    return True, None


def nerve_transform_families(j: FunctorData, e: str, e2: str):
    """Transformations E(j-, e) => E(j-, e2) respecting every hom between j-images.

    A family assigns phi_a: E(j a, e) -> E(j a, e2) such that
    phi_{a'}(v; u) = v; phi_a(u) for all v: j a' -> j a in E.  Precomposition
    by images j h is a special case, so these are module maps over the full
    image of j, matching how nerves of non-fully-faithful roots behave.
    Returned as dicts keyed (a, u), in product order.
    """

    A, E = j.dom, j.cod
    comp = E.composition
    slots = _nerve_slots(j, e)
    search = Search()
    index = {(a, u): search.slot(E.hom(j.ob(a), e2)) for (a, u) in slots}
    for a in A.objects:
        for a2 in A.objects:
            for v in E.hom(j.ob(a2), j.ob(a)):
                for u in E.hom(j.ob(a), e):
                    src, dst = index[(a, u)], index[(a2, comp[(v, u)])]
                    search.require(lambda x, s=src, t=dst, v=v: x[t] == comp[(v, x[s])], src, dst)
    return [dict(zip(slots, values)) for values in search.solutions()]


def _family_key(fam: dict) -> tuple:
    return tuple(sorted(fam.items()))


def is_dense(j: FunctorData):
    """Full faithfulness of the nerve: E(e, e') ~= transformations of nerves.

    Returns (True, None) or (False, (e, e')) with the first failing pair.
    """

    E = j.cod
    for e in E.objects:
        for e2 in E.objects:
            fams = nerve_transform_families(j, e, e2)
            fam_keys = {_family_key(f) for f in fams}
            images = set()
            ok = True
            slots = _nerve_slots(j, e)
            for k in E.hom(e, e2):
                img = _family_key({s: E.comp(s[1], k) for s in slots})
                if img in images:
                    ok = False
                    break
                images.add(img)
            if not ok or images != fam_keys:
                return False, (e, e2)
    return True, None


def _nerve_slots(j: FunctorData, e: str):
    A, E = j.dom, j.cod
    return [(a, u) for a in A.objects for u in E.hom(j.ob(a), e)]


# ---------------------------------------------------------------------------
# downstairs census


NO_COLIMIT, COLIMIT, ABSOLUTE_COLIMIT = 0, 1, 2
_UNKNOWN = 255


class DownstairsCensus:
    """Downstairs (co)limit verdicts, one byte per (weight, diagram) position.

    A downstairs answer depends only on the weight p: X -|-> Y, the diagram
    d into E and, for absoluteness, the root j: A -> E; not on the functor
    whose composite produced d.  One census is held for one suite run or
    one creation audit and dropped with it.

    Rows are keyed by content, never by object identity: (kind, E, root, X,
    Y, element_cap), where root is (j.dom, j.table()) for colimits and None
    for limits.  Inside a row, the verdict for p and d sits at
    weight_index * n + diagram_index: weight_index is p's position in
    enumerate_distributors(X, Y, element_cap), which the caller passes in;
    diagram_index is d's position in enumerate_functors(dom d, E), found
    through one {table: index} dict per (dom d, E); n is the number of those
    functors.  Colimit bytes are NO_COLIMIT, COLIMIT or ABSOLUTE_COLIMIT;
    limit bytes are 1 when the limit exists.
    """

    def __init__(self):
        self._rows: dict[tuple, bytearray] = {}
        self._diagrams: dict[tuple, dict] = {}

    def _position(self, row_key: tuple, weight_index: int, d: FunctorData) -> tuple:
        index = self._diagrams.get((d.dom, d.cod))
        if index is None:
            index = {g.table(): i for i, g in enumerate(enumerate_functors(d.dom, d.cod))}
            self._diagrams[(d.dom, d.cod)] = index
        n = len(index)
        row = self._rows.get(row_key)
        if row is None:
            row = self._rows[row_key] = bytearray()
        if len(row) < (weight_index + 1) * n:
            row.extend(bytes([_UNKNOWN]) * ((weight_index + 1) * n - len(row)))
        return row, weight_index * n + index[d.table()]

    def colimit(self, j: FunctorData, p: Distributor, weight_index: int, d: FunctorData,
                element_cap: int) -> int:
        """NO_COLIMIT, COLIMIT (not j-absolute) or ABSOLUTE_COLIMIT for the p-weighted colimit of d."""

        key = ("colimit", d.cod, (j.dom, j.table()), p.src, p.tgt, element_cap)
        row, pos = self._position(key, weight_index, d)
        if row[pos] == _UNKNOWN:
            down, _ = try_weighted_colimit(p, d)
            if down is None:
                row[pos] = NO_COLIMIT
            else:
                absolute, _ = is_j_absolute(j, down)
                row[pos] = ABSOLUTE_COLIMIT if absolute else COLIMIT
        return row[pos]

    def limit(self, p: Distributor, weight_index: int, d: FunctorData, element_cap: int) -> bool:
        """Does the p-weighted limit of d exist?"""

        key = ("limit", d.cod, None, p.src, p.tgt, element_cap)
        row, pos = self._position(key, weight_index, d)
        if row[pos] == _UNKNOWN:
            row[pos] = try_weighted_limit(p, d)[0] is not None
        return bool(row[pos])

    def size(self) -> tuple[int, int]:
        """(rows, bytes) held."""
        return len(self._rows), sum(len(row) for row in self._rows.values())


# ---------------------------------------------------------------------------
# cocones and creation


def enumerate_cocones(p: Distributor, f: FunctorData):
    """All p-cocones (w, legs) for f with apex functor into cod f, canonical order."""

    X, W = p.src, f.cod
    checker = _shared_checker(p, f)
    out = []
    for w in enumerate_functors(X, W):
        per_x = []
        feasible = True
        for x in X.objects:
            fams = checker.families(x, w.ob(x))
            if not fams:
                feasible = False
                break
            per_x.append((x, fams))
        if not feasible and X.objects:
            continue
        for combo in itertools.product(*[fams for (_, fams) in per_x]):
            legs = {}
            for (x, _), fam in zip(per_x, combo):
                for (y, e), v in fam.items():
                    legs[(y, x, e)] = v
            if _legs_natural_in_x(p, w, legs, W):
                out.append((w, legs))
    return out


def _legs_natural_in_x(p: Distributor, w: FunctorData, legs: dict, W: FinCategory) -> bool:
    X, Y = p.src, p.tgt
    for n in X.morphism_names():
        if X.is_identity(n):
            continue
        x, x2 = X.dom(n), X.cod(n)
        for y in Y.objects:
            for e in p.el(y, x):
                if legs[(y, x2, p.act_l(n, y, e))] != W.comp(legs[(y, x, e)], w.mor(n)):
                    return False
    return True


def cocone_is_colimiting(p: Distributor, f: FunctorData, w: FunctorData, legs: dict) -> bool:
    return _shared_checker(p, f).is_cocone_colimiting(w, legs)


@dataclass
class CreationReport:
    mode: str                      # "strict" | "nonstrict"
    kind: str                      # "colimit" | "limit"
    passed: bool
    lift_count: Optional[int] = None
    lifted_apex: Optional[dict] = None
    colimiting: Optional[bool] = None
    upstairs_exists: Optional[bool] = None
    violations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "kind": self.kind,
            "passed": self.passed,
            "lift_count": self.lift_count,
            "lifted_apex": self.lifted_apex,
            "colimiting": self.colimiting,
            "upstairs_exists": self.upstairs_exists,
            "violations": [str(v) for v in self.violations],
        }


def _strict_colimit_creation(g: FunctorData, p: Distributor, f: FunctorData) -> CreationReport:
    W, V = g.dom, g.cod
    down, failed = try_weighted_colimit(p, compose_functors(f, g))
    if down is None:
        raise DownstairsMissing(f"downstairs colimit missing at {failed!r}")
    X, Y = p.src, p.tgt

    lifts = []
    obj_candidates = []
    for x in X.objects:
        cands = [w0 for w0 in W.objects if g.ob(w0) == down.apex.ob(x)]
        obj_candidates.append(cands)
    for combo in itertools.product(*obj_candidates):
        w_ob = dict(zip(X.objects, combo))
        mor_candidates = []
        names = X.morphism_names()
        ok = True
        for n in names:
            cands = [k for k in W.hom(w_ob[X.dom(n)], w_ob[X.cod(n)])
                     if g.mor(k) == down.apex.mor(n)]
            if not cands:
                ok = False
                break
            mor_candidates.append(cands)
        if not ok:
            continue
        for mor_combo in itertools.product(*mor_candidates):
            w = FunctorData(X, W, w_ob, dict(zip(names, mor_combo)))
            if functor_violations(w.to_dict(), X, W):
                continue
            leg_slots = [(y, x, e) for x in X.objects for y in Y.objects for e in p.el(y, x)]
            leg_candidates = []
            ok2 = True
            for (y, x, e) in leg_slots:
                cands = [k for k in W.hom(f.ob(y), w_ob[x])
                         if g.mor(k) == down.legs[(y, x, e)]]
                if not cands:
                    ok2 = False
                    break
                leg_candidates.append(cands)
            if not ok2:
                continue
            for leg_combo in itertools.product(*leg_candidates):
                legs = dict(zip(leg_slots, leg_combo))
                if _legs_natural_in_y(p, f, legs, W) and _legs_natural_in_x(p, w, legs, W):
                    lifts.append((w, legs))

    if len(lifts) != 1:
        return CreationReport("strict", "colimit", False, lift_count=len(lifts),
                              violations=[f"{len(lifts)} on-the-nose lifts (need exactly 1)"])
    w, legs = lifts[0]
    colimiting = cocone_is_colimiting(p, f, w, legs)
    violations = [] if colimiting else ["unique lift is not colimiting"]
    return CreationReport("strict", "colimit", colimiting, lift_count=1,
                          lifted_apex=dict(w.on_objects), colimiting=colimiting,
                          violations=violations)


def _legs_natural_in_y(p: Distributor, f: FunctorData, legs: dict, W: FinCategory) -> bool:
    Y = p.tgt
    for m in Y.morphism_names():
        if Y.is_identity(m):
            continue
        y, y2 = Y.cod(m), Y.dom(m)
        for x in p.src.objects:
            for e in p.el(y, x):
                if legs[(y2, x, p.act_r(m, x, e))] != W.comp(f.mor(m), legs[(y, x, e)]):
                    return False
    return True


def _nonstrict_colimit_creation(g: FunctorData, p: Distributor, f: FunctorData) -> CreationReport:
    fg = compose_functors(f, g)
    down, failed = try_weighted_colimit(p, fg)
    if down is None:
        raise DownstairsMissing(f"downstairs colimit missing at {failed!r}")

    up_checker = _shared_checker(p, f)
    down_checker = _shared_checker(p, fg)
    up, _ = try_weighted_colimit(p, f)
    upstairs_exists = up is not None
    violations = []
    if not upstairs_exists:
        violations.append("upstairs colimit does not exist")

    biconditional_ok = True
    witness = None
    for (w, legs) in enumerate_cocones(p, f):
        down_w = compose_functors(w, g)
        down_legs = {key: g.mor(v) for key, v in legs.items()}
        down_colimiting = down_checker.is_cocone_colimiting(down_w, down_legs)
        up_colimiting = up_checker.is_cocone_colimiting(w, legs)
        if down_colimiting != up_colimiting:
            biconditional_ok = False
            witness = (dict(w.on_objects), down_colimiting, up_colimiting)
            break
    if not biconditional_ok:
        violations.append(f"cocone biconditional fails at apex {witness[0]}")
    passed = upstairs_exists and biconditional_ok
    return CreationReport("nonstrict", "colimit", passed,
                          upstairs_exists=upstairs_exists, violations=violations)


def check_creation(g: FunctorData, p: Distributor, f: FunctorData,
                   mode: str = "strict", kind: str = "colimit") -> CreationReport:
    """Does g create the downstairs p-weighted (co)limit of (f ; g)?

    For colimits f: tgt(p) -> dom(g); for limits f: src(p) -> dom(g).  The
    limit case runs the colimit check in the formal dual and relabels.
    """

    if kind == "limit":
        W, V = g.dom, g.cod
        g_op = opposite_functor(g, opposite(W), opposite(V))
        pd = dual_distributor(p)
        f_op = opposite_functor(f, pd.tgt, opposite(W))
        report = check_creation(g_op, pd, f_op, mode=mode, kind="colimit")
        report.kind = "limit"
        return report
    if mode == "strict":
        return _strict_colimit_creation(g, p, f)
    return _nonstrict_colimit_creation(g, p, f)
