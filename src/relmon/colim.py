"""Weighted colimits and limits, left extensions, absoluteness, density, creation.

A p-weighted colimit of f: Y -> W (p: X -|-> Y) is an apex functor X -> W
with legs lam_{y,x}: p(y,x) -> W(f y, apex x), natural in y and x, such that
postcomposition with the legs is a bijection

    W(apex x, w')  ~=  { families p(-,x) => W(f-, w') natural in y }

for every x and w'.  Limits are computed by dualizing everything, running
the colimit search, and reading the result back.  Absoluteness of a colimit
along a root j is the bijectivity of the canonical map from the tensor
quotient (E(j,f) (.)l p) to E(j, apex), which at Set level is preservation
by the nerve of j.  A cocone is colimiting iff its comparison map from the
colimit is invertible at every x: its legs factor through the colimit's
legs by exactly one k at each x.  Creation is decided pointwise in x too:
per (g, diagram, column) a record holds what both modes and preservation
need at one x, and each question checks only what spans two x's.  Strict
creation asks that every colimiting cocone downstairs, the colimit
conjugated by any family of isomorphisms, have exactly one cocone over
it, and that this one be colimiting.  Non-strict creation with an
upstairs colimit c lists the natural transformations k: c => w instead
of the cocones with apex w, which they are in bijection with (Yoneda),
and only when some x leaves the answer open.

Caches, what keys them and how long they live:

* census.DownstairsCensus holds per-column bit masks of (co)limit and creation
  facts for one run (monadicity.Run); see that module.
* The pointwise store: a p-weighted colimit is pointwise in x, so the
  colimit at x and the natural families at (x, w') depend only on the
  column p(-, x) and on f, and creation by g at x only on g besides.  A
  store keeps one _Column record per (diagram id, column id), holding
  the family plan, the natural families at each w' and the colimit, in
  slot order, for every weight that has the column; and per (diagram
  id, g by content) the creation record for each column id.
  The census owns one for its run, resolves a diagram's entries once
  (store_records, creation_entry) and reads them one column at a time
  (colimit_at, creation_records); none of them assembles a whole
  (co)limit.  Absoluteness at x (first_failing_root) is not stored: the
  census's masks decide each (root, list position, column) once.  The
  whole-question searches (try_weighted_colimit, try_weighted_limit,
  try_left_extension, check_creation) take no store and keep a private
  one for the call; is_j_absolute keeps none.  _Column and
  creation_records give the layout.  This module keeps no cache of its
  own.
* Memos kept on immutable inputs for their lifetime, derived only from
  their tables: a FinCategory keeps its table, hash, opposite() and
  hom_distributor(); a Distributor keeps its table(), slots(x), column
  ids, left_indices(), left_plan() and dual; a FunctorData keeps its
  table() and hash.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import DownstairsMissing, EndpointMismatch, TheoremViolation
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
from .prof import Distributor, dual_distributor, hom_restriction, tensor_set
from .search import Search

# ---------------------------------------------------------------------------
# natural families


def _family_plan(p: Distributor, x: str, f: FunctorData) -> tuple:
    """The slots (y, e) of a family at x, p.slots(x), and its naturality checks.

    A check (a, b, f m) means phi[b] = f(m); phi[a].
    """

    Y = p.tgt
    slots = p.slots(x)
    slot_index = {s: i for i, s in enumerate(slots)}
    checks = []
    for m in Y.morphism_names():
        if Y.is_identity(m):
            continue
        y, y2 = Y.cod(m), Y.dom(m)
        fm = f.mor(m)
        for e in p.el(y, x):
            checks.append((slot_index[(y, e)], slot_index[(y2, p.act_r(m, x, e))], fm))
    return slots, checks


def natural_families(p: Distributor, x: str, f: FunctorData, W: FinCategory, wprime: str,
                     plan: tuple = None):
    """All families phi_{y}: p(y, x) -> W(f y, wprime) natural in y.

    Naturality: phi_{y'}(m.e) = f(m); phi_y(e) for every m: y' -> y in Y.
    Returned as dicts keyed (y, e), in canonical enumeration order.  Each
    constraint is checked once, at the later of its two slots
    (search.Search).  plan is _family_plan(p, x, f), built here when not
    given; it does not depend on wprime, so a caller may share it.
    """

    slots, checks = plan if plan is not None else _family_plan(p, x, f)
    comp = W.composition
    search = Search()
    for (y, _) in slots:
        search.slot(W.hom(f.ob(y), wprime))
    for (a, b, fm) in checks:
        search.require(lambda v, a=a, b=b, fm=fm: v[b] == comp[(fm, v[a])], a, b)
    return [dict(zip(slots, values)) for values in search.solutions()]


def _diagram_id(f: FunctorData) -> tuple:
    """The store's key for a diagram f: its content (dom f = tgt p for a
    p-weighted colimit)."""
    return (f.dom, f.cod, f.table())


def store_records(store: dict, f: FunctorData) -> dict:
    """The column records (_Column) of the diagram f in store, keyed by
    column id."""
    return store.setdefault(_diagram_id(f), {})


class _Column:
    """The natural families and the colimit of a diagram f at one column p(-, x).

    The answers at x depend only on the column p(-, x) and on f, so a store
    keeps one record per (diagram id, column id): the diagram id is (dom f,
    cod f, f.table()), the column id is p.column(x).  A record holds the
    family plan at x, the natural families at each w' of cod f in its
    object order, and the colimit at x: (apex object, legs) or None when
    there is none.  Each is built on first use, the plan from the p and x
    that made the record.  Legs and families are tuples of values in slot
    order: slot i of a column is its i-th element in every distributor
    with that column, so a record is read back into any of them by
    zip(p.slots(x), values).  A store is a dict keyed by diagram id,
    holding each diagram's records keyed by column id (store_records;
    creation_records keeps its entries in the same dict, keyed (diagram
    id, "creation", cod g, g.table())).
    """

    __slots__ = ("p", "x", "f", "plan", "families", "searched", "found")

    def __init__(self, p: Distributor, x: str, f: FunctorData):
        self.p, self.x, self.f = p, x, f
        self.plan = None
        self.families = [None] * len(f.cod.objects)
        self.searched, self.found = False, None

    def family_values(self, wprime: str) -> tuple:
        """The natural families at w' as tuples in slot order."""
        i = self.f.cod._obj_index[wprime]
        if self.families[i] is None:
            if self.plan is None:
                self.plan = _family_plan(self.p, self.x, self.f)
            self.families[i] = tuple(tuple(fam.values()) for fam in natural_families(
                self.p, self.x, self.f, self.f.cod, wprime, plan=self.plan))
        return self.families[i]

    def is_colimiting(self, apex_obj: str, legs: tuple) -> bool:
        """Is postcomposition with the legs (in slot order) a bijection W(apex, w') ~= families at w'?"""

        W = self.f.cod
        comp = W.composition
        for wprime in W.objects:
            homs = W.hom(apex_obj, wprime)
            families = self.family_values(wprime)
            if len(homs) != len(families):
                return False
            images = set()
            for k in homs:
                img = tuple([comp[(v, k)] for v in legs])
                if img in images or img not in families:
                    return False
                images.add(img)
        return True

    def colimit(self):
        """(apex object, legs in slot order) of the colimit at x, or None;
        searched on the first call."""
        if not self.searched:
            self.found, self.searched = self._search(), True
        return self.found

    def _search(self):
        for w0 in self.f.cod.objects:
            found = next((values for values in self.family_values(w0)
                          if self.is_colimiting(w0, values)), None)
            if found is not None:
                return w0, found
        return None


def _column(records: dict, p: Distributor, x: str, f: FunctorData) -> _Column:
    """f's record at the column p(-, x) in its records (store_records),
    made there on first use."""
    column = p.column(x)
    record = records.get(column)
    if record is None:
        record = records[column] = _Column(p, x, f)
    return record


def _colimiting(p: Distributor, f: FunctorData, records: dict, w: FunctorData, legs: dict) -> bool:
    """Is the p-cocone for f with apex w and legs keyed (y, x, e) colimiting
    at every x, read from f's records?"""
    return all(_column(records, p, x, f).is_colimiting(
        w.ob(x), tuple([legs[(y, x, e)] for y, e in p.slots(x)])) for x in p.src.objects)


def _assemble(p: Distributor, f: FunctorData, records: dict):
    """((apex, legs), None) for the p-weighted colimit of f, from the
    colimit at each x in f's records, or (None, first failing x)."""

    X, W = p.src, f.cod
    at = {}
    for x in X.objects:
        at[x] = _column(records, p, x, f).colimit()
        if at[x] is None:
            return None, x
    chosen_obj = {x: found[0] for x, found in at.items()}
    on_morphisms = {}
    for n in X.morphism_names():
        x, x2 = X.dom(n), X.cod(n)
        if X.is_identity(n):
            # postcomposition with colimiting legs is injective, so
            # only the identity k has legs ; k = legs
            on_morphisms[n] = W.id_of(chosen_obj[x])
        else:
            on_morphisms[n] = _factor(W, at[x][0], at[x2][0], at[x][1],
                                      [at[x2][1][j] for j in p.left_indices(n)],
                                      "universal property must pin the apex action")
    apex = FunctorData(X, W, chosen_obj, on_morphisms)
    if functor_violations(apex.to_dict(), X, W):
        raise TheoremViolation("colimit apex must be a functor")
    legs = {(y, x, e): leg for x in X.objects for (y, e), leg in zip(p.slots(x), at[x][1])}
    return (apex, legs), None


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
    """The p-weighted colimit of f, or (None, first failing x), assembled
    from the colimit at each x."""

    if f.dom != p.tgt:
        raise EndpointMismatch("diagram must start at the weight's target")
    found, failed = _assemble(p, f, {})
    if found is None:
        return None, failed
    return WeightedColimit(p, f, *found), None


def pointwise_colimit(p: Distributor, f: FunctorData, records: dict) -> Optional[dict]:
    """The colimit of f at each x of src p, as {x: (apex object, legs in
    slot order)}; None when some x has none, which is exactly when f has no
    p-weighted colimit.  Each x is read from f's records (store_records) by
    its column id (p.columns()), and only a column never searched there is
    searched.  Nothing is assembled."""

    at = {}
    for x, column in p.columns():
        at[x] = colimit_at(records, p, x, column, f)
        if at[x] is None:
            return None
    return at


def colimit_at(records: dict, p: Distributor, x: str, column: tuple, f: FunctorData):
    """pointwise_colimit at the one x whose column id is column: (apex object,
    legs in slot order) or None, searched in f's records only when cold."""
    return (records.get(column) or _column(records, p, x, f)).colimit()


# ---------------------------------------------------------------------------
# weighted limits (by dualization)


def try_weighted_limit(p: Distributor, g: FunctorData):
    """The p-weighted limit of g: src(p) -> W, indexed by tgt(p): the
    dual_distributor(p)-weighted colimit of g^op, read back in W."""

    if g.dom != p.src:
        raise EndpointMismatch("limit diagram must start at the weight's source")
    pd = dual_distributor(p)
    found, failed = _assemble(pd, opposite_functor(g, pd.tgt, opposite(g.cod)), {})
    if found is None:
        return None, failed
    apex, legs = found
    return WeightedLimit(p, g, FunctorData(p.tgt, g.cod, apex.on_objects, apex.on_morphisms), legs), None


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


# ---------------------------------------------------------------------------
# absoluteness and density


def is_j_absolute(j: FunctorData, colim: WeightedColimit):
    """Bijectivity of the canonical map (E(j,f) (.)l p)(a,x) -> E(j a, apex x).

    Returns (True, None) or (False, (a, x)) with the first failing pair in
    a-major order: a the least first_failing_root over x, x the first x
    whose index is a.
    """

    p, f, legs = colim.weight, colim.diagram, colim.legs
    if f.cod != j.cod:
        raise EndpointMismatch("colimit must live in the root's codomain")
    q, A = hom_restriction(j.cod, j, f), j.dom      # q(a, y) = E(j a, f y)
    least, at_x = len(A.objects), None
    for x in p.src.objects:
        first = first_failing_root(q, j, p, x, colim.apex.ob(x), tuple(legs[(y, x, e)] for y, e in p.slots(x)))
        if first < least:
            least, at_x = first, x
            if least == 0:
                break
    if at_x is None:
        return True, None
    return False, (A.objects[least], at_x)


def first_failing_root(q: Distributor, j: FunctorData, p: Distributor, x: str,
                       apex: str, legs: tuple) -> int:
    """The index of the first a of j.dom at which the canonical map
    (q (.)l p)(a, x) -> E(j a, apex) is not a bijection, for q = E(j, f)
    and the colimit's apex object and legs (in slot order) at x;
    len(j.dom.objects) when it is one at every a.

    The map at x depends only on j, f and the column p(-, x): the colimit
    is pointwise in x, and its apex at x is unique up to an isomorphism
    under which the map stays a bijection or not."""

    E = j.cod
    leg = dict(zip(p.slots(x), legs))
    for i, a in enumerate(j.dom.objects):
        ts = tensor_set(q, p, a, x)
        target = E.hom(j.ob(a), apex)
        images = {}
        for (y, u, e) in ts.pairs:
            rep = ts.class_of[(y, u, e)]
            val = E.comp(u, leg[(y, e)])
            if rep in images:
                if images[rep] != val:
                    raise TheoremViolation("canonical map must be class-invariant")
            else:
                images[rep] = val
        vals = [images[r] for r in ts.classes]
        if len(set(vals)) != len(vals) or set(vals) != set(target):
            return i
    return len(j.dom.objects)


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
# cocones and creation


def enumerate_cocones(p: Distributor, f: FunctorData, records: dict):
    """All p-cocones (w, legs) for f with apex functor into cod f, canonical order.

    For each apex w, one search slot per x holds a family natural in y at
    x, read from f's records in a store (store_records); naturality in x
    along n: x -> x2 is checked once both are chosen.
    """

    X, W = p.src, f.cod
    comp = W.composition
    columns = [_column(records, p, x, f) for x in X.objects]
    index = X._obj_index
    along = [(index[x], index[x2], n, pairs) for n, x, x2, pairs in p.left_plan()[0]]
    out = []
    for w in enumerate_functors(X, W):
        domains = [column.family_values(w.ob(x)) for x, column in zip(X.objects, columns)]
        if not all(domains):
            continue                    # some x has no family at w x
        search = Search()
        for domain in domains:
            search.slot(domain)
        for a, b, n, pairs in along:
            search.require(lambda v, a=a, b=b, wn=w.mor(n), pairs=pairs: all(
                v[b][j] == comp[(v[a][i], wn)] for i, j in pairs), a, b)
        for values in search.solutions():
            out.append((w, {(y, x, e): leg for x, vals in zip(X.objects, values)
                            for (y, e), leg in zip(p.slots(x), vals)}))
    return out


def cocone_is_colimiting(p: Distributor, f: FunctorData, w: FunctorData, legs: dict) -> bool:
    return _colimiting(p, f, {}, w, legs)


CREATION_MODES, CREATION_KINDS = ("strict", "nonstrict"), ("colimit", "limit")


def check_choice(name: str, value: str, allowed: tuple) -> None:
    """ValueError naming the allowed values unless value is one of them."""
    if value not in allowed:
        raise ValueError(f"unknown {name} {value!r}; {name} must be one of {', '.join(map(repr, allowed))}")


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


def _factor(W: FinCategory, c: str, w: str, legs: list, targets: list, broken: str) -> str:
    """The unique k: c -> w with legs[i] ; k = targets[i] for every i, where
    legs are a colimit's legs at one x; TheoremViolation(broken) unless
    exactly one k exists."""

    comp = W.composition
    ks = [k for k in W.hom(c, w) if all(comp[(leg, k)] == t for leg, t in zip(legs, targets))]
    if len(ks) != 1:
        raise TheoremViolation(broken)
    return ks[0]


class _CreationAt(NamedTuple):
    """What creation by g: W -> V of the colimit of f ; g needs at one x.

    upstairs says whether f has a colimit c at x, and preserved that g
    sends it to a colimit: h is invertible, h: d x -> g(c x) the factor of
    c's g-image through the colimit d of f ; g at x.  flags maps each k out
    of c x to (k invertible, h ; g(k) invertible); closed says that no k
    tells the two apart (True without an upstairs colimit, when flags is
    None).  isos lists each isomorphism i out of d x, in the order
    [i for v in V.objects for i in V.hom(d x, v)], with its lifts at x:
    every (w0, legs, colimiting) with g w0 = cod i and legs natural in y
    whose g-images are d's legs followed by i, colimiting saying whether
    those legs are colimiting at x.  identity is the index of d x's
    identity among the isos, and strict says that every i has exactly one
    lift and that lift is colimiting at x.

    Why one record serves every position with the same g, diagram f and
    column p(-, x):
    * The colimits of f and f ; g at x depend only on the diagram and the
      column (they are pointwise in x), and slot i of a column is its i-th
      element in every weight that has it, so the legs read the same.
    * The apex at x is unique up to a unique isomorphism, and the store
      keeps the one every search over that column finds, so h, the flags
      and the lifts are those of each position's colimit at x.
    * Every colimiting cocone of f ; g is that colimit conjugated by one
      family (i_x) of isomorphisms out of its apex, and every family gives
      one (Mac Lane, CWM III.3): listing the isomorphisms at each x lists
      every colimiting cocone, and a cocone over one is colimiting exactly
      when it is colimiting at every x.
    What spans two x's, the apex on morphisms and naturality in x, is left
    to each position.
    """

    upstairs: bool
    preserved: bool
    flags: Optional[dict]
    closed: bool
    isos: tuple
    identity: int
    strict: bool


def _creation_at(g: FunctorData, upstairs: _Column, downstairs: _Column) -> Optional[_CreationAt]:
    """The creation record at one column, from the column records of f
    (upstairs) and f ; g (downstairs) there; None when f ; g has no
    colimit there."""

    down = downstairs.colimit()
    if down is None:
        return None
    W, V = g.dom, g.cod
    d, down_legs = down
    up = upstairs.colimit()
    flags, closed, preserved = None, True, False
    if up is not None:
        c, up_legs = up
        h = _factor(V, d, g.ob(c), down_legs, [g.mor(leg) for leg in up_legs],
                    "cocone legs must factor once through the colimit")
        preserved = V.inverse(h) is not None
        flags = {k: (W.inverse(k) is not None, V.inverse(V.comp(h, g.mor(k))) is not None)
                 for w0 in W.objects for k in W.hom(c, w0)}
        closed = all(up_inv == down_inv for up_inv, down_inv in flags.values())
    comp = V.composition
    isos = []
    for i in [i for v in V.objects for i in V.hom(d, v) if V.inverse(i) is not None]:
        targets = tuple(comp[(leg, i)] for leg in down_legs)
        lifts = tuple((w0, legs, upstairs.is_colimiting(w0, legs))
                      for w0 in W.objects if g.ob(w0) == V.cod(i)
                      for legs in upstairs.family_values(w0)
                      if tuple(g.mor(leg) for leg in legs) == targets)
        isos.append((i, lifts))
    return _CreationAt(up is not None, preserved, flags, closed, tuple(isos),
                       [i for i, _ in isos].index(V.id_of(d)),
                       all(len(lifts) == 1 and lifts[0][2] for _, lifts in isos))


class CreationEntry(NamedTuple):
    """g, f, d = f ; g, the colimit records of f (up) and d (down) and the
    creation records by column id, resolved once by creation_entry; for a
    limit question, those of its formal dual."""

    g: FunctorData
    f: FunctorData
    d: FunctorData
    up: dict
    down: dict
    records: dict


def creation_entry(g: FunctorData, f: FunctorData, kind: str, store: dict) -> CreationEntry:
    """The entry in store of check_creation(g, p, f, kind=kind) for every
    p: creation records are kept per (diagram id of f, g by content), next
    to the colimit records (_CreationAt says why sharing them is sound)."""

    check_choice("kind", kind, CREATION_KINDS)
    d = compose_functors(f, g)
    if kind == "limit":
        Z, W, V = opposite(f.dom), opposite(g.dom), opposite(g.cod)
        g, f, d = opposite_functor(g, W, V), opposite_functor(f, Z, W), opposite_functor(d, Z, V)
    records = store.setdefault((_diagram_id(f), "creation", g.cod, g.table()), {})
    return CreationEntry(g, f, d, store_records(store, f), store_records(store, d), records)


class CreationRecords(NamedTuple):
    """The creation records of one (g, p, f) question, one per x, fetched
    once for check_creation in either mode, with their entry; for a limit
    question, those of its formal dual, p being dual_distributor(p)."""

    entry: CreationEntry
    p: Distributor
    records: list


def _question_weight(p: Distributor, f: FunctorData, kind: str) -> Distributor:
    """p, or dual_distributor(p) for a limit, once f is checked to start at p's target (source)."""

    check_choice("kind", kind, CREATION_KINDS)
    if kind == "limit":
        if f.dom != p.src:
            raise EndpointMismatch("limit diagram must start at the weight's source")
        return dual_distributor(p)
    if f.dom != p.tgt:
        raise EndpointMismatch("diagram must start at the weight's target")
    return p


def creation_at(entry: CreationEntry, p: Distributor, x: str, column: tuple) -> Optional[_CreationAt]:
    """entry's creation record at x, column being p.column(x) (p the question's weight,
    dualized for a limit), computed on first use and kept in entry.records."""

    records = entry.records
    if column not in records:
        records[column] = _creation_at(entry.g, _column(entry.up, p, x, entry.f), _column(entry.down, p, x, entry.d))
    return records[column]


def creation_records(g: FunctorData, p: Distributor, f: FunctorData, kind: str,
                     entry: CreationEntry) -> CreationRecords:
    """The creation record (_CreationAt) at each x of src p, in object
    order, for check_creation(g, p, f, kind=kind).

    For colimits f: tgt(p) -> dom(g); for limits f: src(p) -> dom(g), and
    the records are those of the formal dual.  entry is creation_entry(g,
    f, kind, store), which a caller asking about many weights resolves
    once.  A record is None at a column where f ; g has no (co)limit, and
    DownstairsMissing is raised at the first such x.
    """

    p = _question_weight(p, f, kind)
    out = []
    for x, column in p.columns():
        record = creation_at(entry, p, x, column)
        if record is None:
            raise DownstairsMissing(f"downstairs colimit missing at {x!r}")
        out.append(record)
    return CreationRecords(entry, p, out)


def _creation_report(mode: str, kind: str, found: tuple) -> CreationReport:
    """check_creation's report from creation_search's result: for strict
    creation the lift count and, when there is one lift, its apex; for
    non-strict creation whether the upstairs colimit exists and the witness."""

    if mode == "nonstrict":
        passed, upstairs_exists, witness = found
        violations = [] if upstairs_exists else ["upstairs colimit does not exist"]
        if witness is not None:
            violations.append(f"cocone biconditional fails at apex {dict(witness.on_objects)}")
        return CreationReport(mode, kind, passed, upstairs_exists=upstairs_exists, violations=violations)
    passed, lifts, lift = found
    if lifts != 1:
        return CreationReport(mode, kind, False, lift_count=lifts,
                              violations=[f"{lifts} on-the-nose lifts (need exactly 1)"])
    return CreationReport(mode, kind, passed, lift_count=1,
                          lifted_apex={x: w0 for x, (w0, _, _) in lift.items()}, colimiting=passed,
                          violations=[] if passed else ["unique lift is not colimiting"])


def _strict_colimit_creation(g: FunctorData, p: Distributor, records: list, verdict: bool = False) -> tuple:
    """Does every colimiting cocone of f ; g have exactly one cocone over it,
    and is that one colimiting?  (passed, lift count, lift) of the first
    failing cocone, or of the identity family's when all pass; the cocones
    are the stored colimit conjugated by each family of isomorphisms (i_x),
    the identity family first and then the others in product order.

    A cocone over the family picks a lift at each x (_CreationAt.isos) and,
    for each non-identity n: x -> x2, a k along which the lifted legs are
    natural, such that the k's compose as the n's do.  g(k) is then the
    conjugated apex on n, as the definition asks: both are morphisms m with
    leg_x ; m = leg_x2 at n.e for the colimiting legs downstairs, and
    postcomposition with those is injective.

    Over a discrete X no k is asked for: a family's lift count is the
    product of its counts per x.  With verdict only passed is read, and a
    count stops at 2.
    """

    objects = p.src.objects
    along, composable = p.left_plan()
    W = g.dom
    comp, ids = W.composition, W.identities

    def lifts_over(lists: list) -> tuple:
        """(number of lifts, the last one) for the lifts at each x in lists."""
        if not along:
            count = math.prod(map(len, lists))
            return count, dict(zip(objects, [lifts[-1] for lifts in lists])) if count else None
        count, lift = 0, None
        for choice in itertools.product(*lists):
            chosen = dict(zip(objects, choice))
            ks = [[k for k in W.hom(chosen[x][0], chosen[x2][0])
                   if all(comp[(chosen[x][1][i], k)] == chosen[x2][1][j] for i, j in pairs)]
                  for _, x, x2, pairs in along]
            for morphisms in itertools.product(*ks):
                if all(comp[(morphisms[a], morphisms[b])] ==
                       (ids[chosen[x][0]] if ab is None else morphisms[ab])
                       for a, b, ab, x in composable):
                    count, lift = count + 1, chosen
                    if verdict and count == 2:
                        return count, lift
        return count, lift

    identity = tuple(r.identity for r in records)
    families = itertools.chain([identity], (family for family in itertools.product(
        *[range(len(r.isos)) for r in records]) if family != identity))
    for family in families:
        count, lift = lifts_over([r.isos[k][1] for r, k in zip(records, family)])
        if count != 1 or not all(colimiting_at for _, _, colimiting_at in lift.values()):
            return False, count, lift
        if family is identity:
            first = lift
    return True, 1, first


def _nonstrict_colimit_creation(entry: CreationEntry, p: Distributor, records: list) -> tuple:
    """Is a cocone for f colimiting exactly when its g-image is?  (passed,
    upstairs colimit exists, witness): the witness is the first apex, in
    enumerate_cocones order, of a cocone where the two differ, or None.
    Without a colimit of f at some x, the cocones are listed and each
    g-image is tested at each x; otherwise the records' flags decide, and
    the natural k's are searched only when some x leaves the question
    open."""

    g = entry.g
    upstairs_exists = all(r.upstairs for r in records)
    if not upstairs_exists:
        witness = next((w for (w, legs) in enumerate_cocones(p, entry.f, entry.up)
                        if _colimiting(p, entry.d, entry.down, compose_functors(w, g),
                                       {key: g.mor(v) for key, v in legs.items()})), None)
    elif all(r.closed for r in records):
        witness = None                  # no k_x tells the two tests apart
    else:
        witness = _first_mismatch(g.dom, p, pointwise_colimit(p, entry.f, entry.up),
                                  [r.flags for r in records])
    return upstairs_exists and witness is None, upstairs_exists, witness


def _first_mismatch(W: FinCategory, p: Distributor, up: dict, flags: list):
    """The first apex w in enumerate_functors order with a cocone for the
    p-weighted colimit of f (up: its apex object and legs at each x, as
    pointwise_colimit returns them) that is colimiting upstairs but not
    downstairs, or the other way round; None when there is none.

    With c the colimit, the cocones with apex w are c's legs followed by k
    for the natural k: c => w (Yoneda), and such a cocone is colimiting iff
    every k_x is invertible.  Its g-image factors through the downstairs
    colimit by h_x ; g(k_x), h_x the factor of c's g-image, so it is
    colimiting downstairs iff every h_x ; g(k_x) is; flags[x] maps each k_x
    to both answers (_CreationAt).  k is natural along n: x -> x2 iff
    c(n) ; k_x2 = k_x ; w(n) after each leg of c at x (postcomposition with
    colimiting legs is injective), so c is never assembled on morphisms.
    """

    X = p.src
    comp = W.composition
    index = X._obj_index
    along = [(index[x], index[x2], n, [(up[x][1][i], up[x2][1][j]) for i, j in pairs])
             for n, x, x2, pairs in p.left_plan()[0]]
    for w in enumerate_functors(X, W):
        search = Search()
        for x in X.objects:
            search.slot(W.hom(up[x][0], w.ob(x)))
        for a, b, n, legs in along:
            search.require(lambda v, a=a, b=b, wn=w.mor(n), legs=legs: all(
                comp[(leg2, v[b])] == comp[(comp[(leg, v[a])], wn)] for leg, leg2 in legs), a, b)
        for ks in search.solutions():
            answers = [at[k] for at, k in zip(flags, ks)]
            if all(up_inv for up_inv, _ in answers) != all(down_inv for _, down_inv in answers):
                return w
    return None


def check_creation(g: FunctorData, p: Distributor, f: FunctorData,
                   mode: str = "strict", kind: str = "colimit") -> CreationReport:
    """Does g create the downstairs p-weighted (co)limit of (f ; g)?

    For colimits f: tgt(p) -> dom(g); for limits f: src(p) -> dom(g).  The
    limit case runs the colimit check in the formal dual and relabels.
    Strict creation asks that every colimiting cocone downstairs have
    exactly one cocone over it and that it be colimiting (Mac Lane, CWM
    V.1).  Both modes are decided from the creation records at each x,
    creation_records(g, p, f, kind, entry), fetched with their entry in a
    private store; only what spans two x's is checked per call.  Raises
    DownstairsMissing when f ; g has no (co)limit, ValueError for an
    unknown mode or kind.
    """

    check_choice("mode", mode, CREATION_MODES)
    check_choice("kind", kind, CREATION_KINDS)
    records = creation_records(g, p, f, kind, creation_entry(g, f, kind, {}))
    return _creation_report(mode, kind, creation_search(records, mode))


def creation_search(records: CreationRecords, mode: str, verdict: bool = False) -> tuple:
    """The one search of mode over a question's creation records, verdict
    first: (passed, lift count, last lift) for strict creation, (passed,
    upstairs colimit exists, witness) for non-strict.  With verdict the
    caller reads only passed, and a strict lift count stops at 2."""
    if mode == "strict":
        return _strict_colimit_creation(records.entry.g, records.p, records.records, verdict)
    return _nonstrict_colimit_creation(records.entry, records.p, records.records)
