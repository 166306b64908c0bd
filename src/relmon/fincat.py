"""Finite categories, functors, and natural transformations as explicit tables.

Conventions used across the engine:
  * composition is written diagrammatically: the table key (f, g) with
    cod f = dom g holds "f then g", serialized as "f;g".
  * hom(x, y) is the tuple of morphism names with dom x and cod y, in the
    category's canonical (file) order.
  * all enumerations iterate objects and morphisms in canonical order, so
    identical inputs give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import NotParallel, ParseFailure, ValidationFailure, Violation
from .search import Search

RESERVED_CHARS = (";", "|", "\n")


def _check_name(name: str, where: str) -> None:
    if not isinstance(name, str) or not name:
        raise ParseFailure(where, f"names must be non-empty strings, got {name!r}")
    for ch in RESERVED_CHARS:
        if ch in name:
            raise ParseFailure(where, f"name {name!r} contains reserved character {ch!r}")


class FinCategory:
    """A finite category: object list, morphism list, identity and composition tables.

    Instances are immutable by convention; construct them through
    validate_category so every instance satisfies the category laws.
    """

    def __init__(self, name, objects, morphisms, identities, composition):
        self.name = name
        self.objects = tuple(objects)
        self.morphisms = tuple((m, d, c) for (m, d, c) in morphisms)
        self.identities = dict(identities)
        self.composition = dict(composition)
        self._dom = {m: d for (m, d, c) in self.morphisms}
        self._cod = {m: c for (m, d, c) in self.morphisms}
        self._hom: dict[tuple[str, str], tuple[str, ...]] = {}
        for x in self.objects:
            for y in self.objects:
                self._hom[(x, y)] = tuple(
                    m for (m, d, c) in self.morphisms if d == x and c == y
                )
        self._obj_index = {x: i for i, x in enumerate(self.objects)}
        self._mor_index = {m: i for i, (m, _, _) in enumerate(self.morphisms)}
        self._names = tuple(m for (m, _, _) in self.morphisms)
        self._identity_names = frozenset(
            m for (m, d, c) in self.morphisms if d == c and self.identities.get(d) == m)
        self._inverses: Optional[dict[str, Optional[str]]] = None
        # composable pairs, structural table, its hash, the opposite category
        # and the hom distributor (kept by prof.hom_distributor), built on
        # first use
        self._composable: Optional[tuple] = None
        self._table = None
        self._hash: Optional[int] = None
        self._opposite: Optional[FinCategory] = None
        self._hom_distributor = None

    # -- basic accessors -------------------------------------------------

    def morphism_names(self) -> tuple[str, ...]:
        return self._names

    def dom(self, f: str) -> str:
        return self._dom[f]

    def cod(self, f: str) -> str:
        return self._cod[f]

    def id_of(self, x: str) -> str:
        return self.identities[x]

    def is_identity(self, f: str) -> bool:
        return f in self._identity_names

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom[(x, y)]

    def comp(self, f: str, g: str) -> str:
        """Composite "f then g"; requires cod f = dom g."""
        return self.composition[(f, g)]

    def composable_pairs(self) -> tuple[tuple[str, str, str], ...]:
        """Every (f, g, f;g) with cod f = dom g, in canonical (f, g) order."""
        if self._composable is None:
            self._composable = tuple(
                (f, g, self.composition[(f, g)])
                for f in self._names for g in self._names if self._cod[f] == self._dom[g])
        return self._composable

    def comp_many(self, *fs: str) -> str:
        out = fs[0]
        for g in fs[1:]:
            out = self.comp(out, g)
        return out

    # -- invertibility ---------------------------------------------------

    def inverse(self, f: str) -> Optional[str]:
        if self._inverses is None:
            inv: dict[str, Optional[str]] = {}
            for (m, d, c) in self.morphisms:
                inv[m] = None
                for g in self._hom[(c, d)]:
                    if (
                        self.composition[(m, g)] == self.identities[d]
                        and self.composition[(g, m)] == self.identities[c]
                    ):
                        inv[m] = g
                        break
            self._inverses = inv
        return self._inverses[f]

    def is_invertible(self, f: str) -> bool:
        return self.inverse(f) is not None

    def iso_related(self, x: str, y: str) -> bool:
        return any(self.is_invertible(f) for f in self._hom[(x, y)])

    # -- structural equality and serialization ---------------------------

    def table(self):
        if self._table is None:
            self._table = (self.objects, self.morphisms, tuple(sorted(self.identities.items())),
                           tuple(sorted(self.composition.items())))
        return self._table

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FinCategory) or hash(self) != hash(other):
            return False
        return self._table == other._table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.table())
        return self._hash

    def __repr__(self) -> str:
        nm = self.name or "?"
        return f"FinCategory({nm}: {len(self.objects)} objects, {len(self.morphisms)} morphisms)"

    def to_dict(self) -> dict:
        return {
            "objects": list(self.objects),
            "morphisms": [{"name": m, "dom": d, "cod": c} for (m, d, c) in self.morphisms],
            "identities": dict(self.identities),
            "composition": {f"{f};{g}": h for ((f, g), h) in self.composition.items()},
        }


def category_violations(raw: dict) -> list[Violation]:
    """All category-law violations of a structurally well-formed description."""

    violations: list[Violation] = []
    objects = list(raw["objects"])
    morphisms = [(m["name"], m["dom"], m["cod"]) for m in raw["morphisms"]]

    seen: set[str] = set()
    for x in objects:
        if x in seen:
            violations.append(Violation("duplicate_name", (x,), "object declared twice"))
        seen.add(x)
    mseen: set[str] = set()
    for (m, _, _) in morphisms:
        if m in mseen:
            violations.append(Violation("duplicate_name", (m,), "morphism declared twice"))
        mseen.add(m)
    if violations:
        return violations

    dom = {m: d for (m, d, c) in morphisms}
    cod = {m: c for (m, d, c) in morphisms}
    for (m, d, c) in morphisms:
        if d not in seen or c not in seen:
            violations.append(Violation("bad_composite", (m,), "dangling dom/cod object"))
    identities = dict(raw["identities"])
    for x in objects:
        i = identities.get(x)
        if i is None or i not in dom or dom[i] != x or cod[i] != x:
            violations.append(Violation("missing_identity", (x,), "no identity assigned"))
    if violations:
        return violations

    comp: dict[tuple[str, str], str] = {}
    for key, h in raw["composition"].items():
        f, _, g = key.partition(";")
        if f not in dom or g not in dom:
            violations.append(Violation("bad_composite", (f, g), "unknown morphism in key"))
            continue
        comp[(f, g)] = h

    names = [m for (m, _, _) in morphisms]
    for f in names:
        for g in names:
            composable = cod[f] == dom[g]
            entry = comp.get((f, g))
            if composable and entry is None:
                violations.append(Violation("bad_composite", (f, g), "composable pair missing"))
            elif not composable and entry is not None:
                violations.append(Violation("bad_composite", (f, g), "pair is not composable"))
            elif composable:
                if entry not in dom:
                    violations.append(Violation("bad_composite", (f, g), f"unknown composite {entry!r}"))
                elif dom[entry] != dom[f] or cod[entry] != cod[g]:
                    violations.append(Violation("bad_composite", (f, g), "composite has wrong dom/cod"))
    if violations:
        return violations

    for f in names:
        if comp[(identities[dom[f]], f)] != f:
            violations.append(Violation("missing_identity", (dom[f], f), "left unit fails"))
        if comp[(f, identities[cod[f]])] != f:
            violations.append(Violation("missing_identity", (cod[f], f), "right unit fails"))
    for f in names:
        for g in names:
            if cod[f] != dom[g]:
                continue
            for h in names:
                if cod[g] != dom[h]:
                    continue
                if comp[(comp[(f, g)], h)] != comp[(f, comp[(g, h)])]:
                    violations.append(Violation("non_associative", (f, g, h)))
    return violations


def split_keys(table, parts: int, where: str, sep: str = "|") -> dict:
    """{(a, b, ...): value} from a JSON object keyed "a|b|..." (or with sep).

    Every key must split into exactly `parts` names; otherwise, or when
    table is not an object, raises ParseFailure at `where`.
    """

    if not isinstance(table, dict):
        raise ParseFailure(where, "must be a JSON object")
    out = {}
    for key, value in table.items():
        names = tuple(key.split(sep))
        if len(names) != parts:
            raise ParseFailure(where, f"key {key!r} must have {parts} {sep!r}-separated parts")
        out[names] = value
    return out


def _check_names(table: dict, where: str) -> None:
    """Every value of a parsed table is a name."""
    for value in table.values():
        _check_name(value, where)


def field_at(where: str, key: str) -> str:
    """The location of field key of the document at where: "<file>: key", or
    "<file>: outer.key" when where names a field, or key when where is empty."""
    return f"{where}.{key}" if ": " in where else f"{where}: {key}" if where else key


def check_field(doc, key: str, where: str):
    """doc[key], when doc is a JSON object holding key; otherwise raises
    ParseFailure at `where`, the location of doc."""

    if not isinstance(doc, dict):
        raise ParseFailure(where, "must be a JSON object")
    if key not in doc:
        raise ParseFailure(where, f"missing field {key!r}")
    return doc[key]


def check_name_map(table, where: str) -> dict:
    """table, when it is a JSON object from names to names; otherwise raises
    ParseFailure at `where`."""

    if not isinstance(table, dict):
        raise ParseFailure(where, "must be a JSON object")
    for key in table:
        _check_name(key, where)
    _check_names(table, where)
    return table


def validate_category(raw: dict, name: str = "", where: str = "") -> FinCategory:
    """Validate a category description; raises ValidationFailure listing violations.

    A document of the wrong shape (a missing field, a field of the wrong
    JSON type, a composition key that is not "f;g", a name that is not a
    string) raises ParseFailure at the field instead; where locates raw.
    """

    objects, morphisms, identities, composition = (
        check_field(raw, key, where) for key in ("objects", "morphisms", "identities", "composition"))
    for key, value in (("objects", objects), ("morphisms", morphisms)):
        if not isinstance(value, list):
            raise ParseFailure(field_at(where, key), "must be a JSON list")
    for x in objects:
        _check_name(x, field_at(where, "objects"))
    for m in morphisms:
        if not isinstance(m, dict) or set(m) != {"name", "dom", "cod"}:
            raise ParseFailure(field_at(where, "morphisms"), f"bad morphism entry {m!r}")
        for part in ("name", "dom", "cod"):
            _check_name(m[part], field_at(where, "morphisms"))
    if not isinstance(identities, dict):
        raise ParseFailure(field_at(where, "identities"), "must be a JSON object")
    _check_names(identities, field_at(where, "identities"))
    comp = split_keys(composition, 2, field_at(where, "composition"), sep=";")
    _check_names(comp, field_at(where, "composition"))
    violations = category_violations(raw)
    if violations:
        raise ValidationFailure(f"category {name or raw.get('name', '?')}", violations)
    return FinCategory(name or raw.get("name"), objects,
                       [(m["name"], m["dom"], m["cod"]) for m in morphisms], identities, comp)


def build_category(name, objects, morphisms, identities, composition) -> FinCategory:
    """Programmatic constructor running the same validation as file input."""

    raw = {
        "objects": list(objects),
        "morphisms": [{"name": m, "dom": d, "cod": c} for (m, d, c) in morphisms],
        "identities": dict(identities),
        "composition": {f"{f};{g}": h for ((f, g), h) in composition.items()},
    }
    return validate_category(raw, name=name)


def opposite(C: FinCategory) -> FinCategory:
    """Formal dual: same names, dom/cod swapped, composition table transposed.

    Built once per category and kept on it, so repeated dualizations share
    one instance.
    """

    if C._opposite is None:
        morphisms = [(m, c, d) for (m, d, c) in C.morphisms]
        comp = {(g, f): h for ((f, g), h) in C.composition.items()}
        C._opposite = FinCategory(f"{C.name}^op" if C.name else None,
                                  C.objects, morphisms, C.identities, comp)
    return C._opposite


# ---------------------------------------------------------------------------
# functors


class FunctorData:
    def __init__(self, dom: FinCategory, cod: FinCategory, on_objects, on_morphisms, name=None):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.on_objects = dict(on_objects)
        self.on_morphisms = dict(on_morphisms)
        self._table = self._hash = None

    def ob(self, x: str) -> str:
        return self.on_objects[x]

    def mor(self, f: str) -> str:
        return self.on_morphisms[f]

    def table(self):
        """Both maps as sorted tuples, built on first use and kept, like the
        hash: instances are immutable by convention."""
        if self._table is None:
            self._table = (tuple(sorted(self.on_objects.items())),
                           tuple(sorted(self.on_morphisms.items())))
        return self._table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FunctorData)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.table() == other.table()
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.table())
        return self._hash

    def __repr__(self) -> str:
        return f"FunctorData({self.name or '?'}: {self.dom.name or '?'} -> {self.cod.name or '?'})"

    def to_dict(self) -> dict:
        return {"on_objects": dict(self.on_objects), "on_morphisms": dict(self.on_morphisms)}


def functor_violations(raw: dict, C: FinCategory, D: FinCategory) -> list[Violation]:
    violations: list[Violation] = []
    on_ob = dict(raw["on_objects"])
    on_mor = dict(raw["on_morphisms"])
    for x in C.objects:
        if x not in on_ob:
            violations.append(Violation("not_total", (x,), "object unassigned"))
        elif on_ob[x] not in D.objects:
            violations.append(Violation("not_total", (x,), f"unknown target object {on_ob[x]!r}"))
    for f in C.morphism_names():
        if f not in on_mor:
            violations.append(Violation("not_total", (f,), "morphism unassigned"))
        elif on_mor[f] not in D.morphism_names():
            violations.append(Violation("not_total", (f,), f"unknown target morphism {on_mor[f]!r}"))
    if violations:
        return violations

    for f in C.morphism_names():
        img = on_mor[f]
        if D.dom(img) != on_ob[C.dom(f)] or D.cod(img) != on_ob[C.cod(f)]:
            violations.append(Violation("breaks_composition", (f,), "image has wrong dom/cod"))
    if violations:
        return violations
    for x in C.objects:
        if on_mor[C.id_of(x)] != D.id_of(on_ob[x]):
            violations.append(Violation("breaks_identity", (x,)))
    for (f, g, fg) in C.composable_pairs():
        if on_mor[fg] != D.comp(on_mor[f], on_mor[g]):
            violations.append(Violation("breaks_composition", (f, g)))
    return violations


def validate_functor(raw: dict, C: FinCategory, D: FinCategory, name: str = "",
                     where: str = "") -> FunctorData:
    """The functor C -> D with the maps of raw; where locates raw."""

    for key in ("on_objects", "on_morphisms"):
        check_name_map(check_field(raw, key, where), field_at(where, key))
    violations = functor_violations(raw, C, D)
    if violations:
        raise ValidationFailure(f"functor {name or '?'}", violations)
    return FunctorData(C, D, raw["on_objects"], raw["on_morphisms"], name=name or None)


def functor_from_dict(tables, refs, category, where: str, refs_where: str,
                      name: str = "") -> FunctorData:
    """The functor with the maps of tables, found at where, between the
    categories named by refs["dom"] and refs["cod"], found at refs_where;
    category(ref, where) resolves a category reference found at where."""

    dom, cod = (category(check_field(refs, key, refs_where), field_at(refs_where, key))
                for key in ("dom", "cod"))
    return validate_functor(tables, dom, cod, name=name, where=where)


def identity_functor(C: FinCategory) -> FunctorData:
    return FunctorData(C, C, {x: x for x in C.objects},
                       {f: f for f in C.morphism_names()}, name=f"1_{C.name}" if C.name else "1")


def compose_functors(F: FunctorData, G: FunctorData) -> FunctorData:
    """F then G (diagrammatic)."""
    if F.cod != G.dom:
        raise NotParallel("functors do not compose")
    return FunctorData(
        F.dom, G.cod,
        {x: G.ob(F.ob(x)) for x in F.dom.objects},
        {f: G.mor(F.mor(f)) for f in F.dom.morphism_names()},
    )


def opposite_functor(F: FunctorData, dom_op: FinCategory, cod_op: FinCategory) -> FunctorData:
    return FunctorData(dom_op, cod_op, F.on_objects, F.on_morphisms, name=F.name)


def enumerate_functors(C: FinCategory, D: FinCategory, *, ob_ok=None,
                       mor_ok=None) -> Iterator[FunctorData]:
    """All functors C -> D in canonical order (object map, then morphism maps).

    ob_ok(x, d) and mor_ok(f, m), when given, keep only the functors sending
    each object x to a d and each morphism f (identities too) to an m they
    accept; the survivors keep their order.  One search slot per object and
    per non-identity morphism; an identity's image is fixed by its object's.
    """

    objects = C.objects
    nonid = [f for f in C.morphism_names() if not C.is_identity(f)]
    D_dom, D_cod, D_comp, D_id = D._dom, D._cod, D.composition, D.identities
    search = Search()
    # objects and morphisms get separate slot maps: a morphism may share an object's name
    oslot = {x: search.slot(d for d in D.objects
                            if (ob_ok is None or ob_ok(x, d))
                            and (mor_ok is None or mor_ok(C.id_of(x), D_id[d])))
             for x in objects}
    mslot = {}
    for f in nonid:
        s = mslot[f] = search.slot(m for m in D._names if mor_ok is None or mor_ok(f, m))
        a, b = oslot[C.dom(f)], oslot[C.cod(f)]
        search.require(lambda v, s=s, a=a, b=b: D_dom[v[s]] == v[a] and D_cod[v[s]] == v[b], s)
    for (f, g, fg) in C.composable_pairs():
        if f not in mslot or g not in mslot:
            continue                    # a composite with an identity holds by dom/cod
        a, b = mslot[f], mslot[g]
        if fg in mslot:
            c = mslot[fg]
            search.require(lambda v, a=a, b=b, c=c: D_comp[(v[a], v[b])] == v[c], a, b, c)
        else:                           # f ; g is the identity of dom f
            c = oslot[C.dom(fg)]
            search.require(lambda v, a=a, b=b, c=c: D_comp[(v[a], v[b])] == D_id[v[c]], a, b)
    identities = [(C.id_of(x), oslot[x]) for x in objects]
    for values in search.solutions():
        on_mor = {i: D_id[values[s]] for i, s in identities}
        on_mor.update((f, values[s]) for f, s in mslot.items())
        yield FunctorData(C, D, dict(zip(objects, values)), on_mor)


# ---------------------------------------------------------------------------
# natural transformations


class NatTransData:
    def __init__(self, source: FunctorData, target: FunctorData, components):
        self.source = source
        self.target = target
        self.components = dict(components)

    def at(self, x: str) -> str:
        return self.components[x]

    def table(self):
        return tuple(sorted(self.components.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, NatTransData) and self.table() == other.table() \
            and self.source == other.source and self.target == other.target

    def __repr__(self) -> str:
        return f"NatTransData({self.components})"


def find_natural_isomorphism(F: FunctorData, G: FunctorData) -> Optional[NatTransData]:
    """First natural transformation F => G with all components invertible,
    componentwise by morphism order; None when there is none or F and G are
    not parallel.  One search slot per object; naturality at f: x -> y is
    checked once both components are chosen."""

    if F.dom != G.dom or F.cod != G.cod:
        return None
    C, D = F.dom, F.cod
    comp = D.composition
    search = Search()
    slot = {x: search.slot(k for k in D.hom(F.ob(x), G.ob(x)) if D.is_invertible(k)) for x in C.objects}
    for f in C.morphism_names():
        if C.is_identity(f):
            continue
        a, b, Ff, Gf = slot[C.dom(f)], slot[C.cod(f)], F.mor(f), G.mor(f)
        search.require(lambda v, a=a, b=b, Ff=Ff, Gf=Gf: comp[(Ff, v[b])] == comp[(v[a], Gf)],
                       a, b)
    values = next(search.solutions(), None)
    return None if values is None else NatTransData(F, G, dict(zip(C.objects, values)))


# ---------------------------------------------------------------------------
# classification


@dataclass
class FunctorClassification:
    faithful: bool
    full: bool
    essentially_surjective: bool
    bijective_on_objects: bool
    bijective_on_morphisms: bool
    conservative: bool
    is_iso: bool
    is_equivalence: bool
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "faithful": self.faithful,
            "full": self.full,
            "essentially_surjective": self.essentially_surjective,
            "bijective_on_objects": self.bijective_on_objects,
            "bijective_on_morphisms": self.bijective_on_morphisms,
            "conservative": self.conservative,
            "is_iso": self.is_iso,
            "is_equivalence": self.is_equivalence,
        }
        if self.witnesses:
            out["witnesses"] = {k: list(v) for k, v in self.witnesses.items()}
        return out


def classify_functor(F: FunctorData) -> FunctorClassification:
    """Compute every classification flag, recording a witness per failed flag.

    Conservativity is decided at the morphism level: every morphism whose
    image is invertible must itself be invertible.
    """

    C, D = F.dom, F.cod
    witnesses: dict[str, tuple] = {}

    faithful = True
    for x in C.objects:
        for y in C.objects:
            seen: dict[str, str] = {}
            for f in C.hom(x, y):
                img = F.mor(f)
                if img in seen:
                    faithful = False
                    witnesses.setdefault("faithful", (seen[img], f))
                seen[img] = f

    full = True
    for x in C.objects:
        for y in C.objects:
            images = {F.mor(f) for f in C.hom(x, y)}
            for k in D.hom(F.ob(x), F.ob(y)):
                if k not in images:
                    full = False
                    witnesses.setdefault("full", (x, y, k))

    eso = True
    hit = [F.ob(x) for x in C.objects]
    for d in D.objects:
        if not any(D.iso_related(h, d) for h in hit):
            eso = False
            witnesses.setdefault("essentially_surjective", (d,))
            break

    obj_images = [F.ob(x) for x in C.objects]
    bij_ob = len(set(obj_images)) == len(obj_images) == len(D.objects)
    if not bij_ob:
        witnesses.setdefault("bijective_on_objects", ())
    mor_images = [F.mor(f) for f in C.morphism_names()]
    bij_mor = len(set(mor_images)) == len(mor_images) == len(D.morphisms)
    if not bij_mor:
        witnesses.setdefault("bijective_on_morphisms", ())

    conservative = True
    for f in C.morphism_names():
        if D.is_invertible(F.mor(f)) and not C.is_invertible(f):
            conservative = False
            witnesses.setdefault("conservative", (f,))
            break

    return FunctorClassification(
        faithful=faithful,
        full=full,
        essentially_surjective=eso,
        bijective_on_objects=bij_ob,
        bijective_on_morphisms=bij_mor,
        conservative=conservative,
        is_iso=bij_ob and bij_mor,
        is_equivalence=full and faithful and eso,
        witnesses=witnesses,
    )
