"""Built-in instances, generated categories, oracle data, and persistence.

The builtin categories are the desk-scale universe every theorem check runs
over: degenerate shapes (empty, terminal), posets with interesting (co)limits
(interval, vee, square), delooped monoids, the walking split idempotent, and
the parallel pair.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .errors import NotAMonoid, ParseFailure, RelmonError, ValidationFailure
from .fincat import (
    FinCategory,
    FunctorData,
    build_category,
    check_name_map,
    constant_functor,
    identity_functor,
    split_keys,
    validate_category,
    validate_functor,
)

# ---------------------------------------------------------------------------
# standard categories


def empty_category() -> FinCategory:
    return build_category("Empty", [], [], {}, {})


def terminal_category() -> FinCategory:
    return build_category("Terminal", ["*"], [("id", "*", "*")], {"*": "id"},
                          {("id", "id"): "id"})


def interval_category() -> FinCategory:
    """Two objects 0, 1 and a single arrow u: 0 -> 1."""
    morphisms = [("id0", "0", "0"), ("id1", "1", "1"), ("u", "0", "1")]
    comp = {
        ("id0", "id0"): "id0", ("id1", "id1"): "id1",
        ("id0", "u"): "u", ("u", "id1"): "u",
    }
    return build_category("Interval", ["0", "1"], morphisms, {"0": "id0", "1": "id1"}, comp)


def disc2_category() -> FinCategory:
    morphisms = [("id0", "0", "0"), ("id1", "1", "1")]
    comp = {("id0", "id0"): "id0", ("id1", "id1"): "id1"}
    return build_category("Disc2", ["0", "1"], morphisms, {"0": "id0", "1": "id1"}, comp)


def indisc2_category() -> FinCategory:
    """Two objects with exactly one morphism in each direction (indiscrete)."""
    morphisms = [("id0", "0", "0"), ("id1", "1", "1"), ("m01", "0", "1"), ("m10", "1", "0")]
    comp = {
        ("id0", "id0"): "id0", ("id1", "id1"): "id1",
        ("id0", "m01"): "m01", ("m01", "id1"): "m01",
        ("id1", "m10"): "m10", ("m10", "id0"): "m10",
        ("m01", "m10"): "id0", ("m10", "m01"): "id1",
    }
    return build_category("Indisc2", ["0", "1"], morphisms, {"0": "id0", "1": "id1"}, comp)


def delooping(mult_table: dict, name: str = "BM") -> FinCategory:
    """One-object category from a monoid multiplication table.

    mult_table maps (a, b) -> a·b written diagrammatically (a then b); the
    unit must be a left and right identity; raises NotAMonoid otherwise.
    """

    elements = sorted({a for (a, _) in mult_table} | {b for (_, b) in mult_table})
    unit = None
    for e in elements:
        if all(mult_table.get((e, a)) == a and mult_table.get((a, e)) == a for a in elements):
            unit = e
            break
    if unit is None:
        raise NotAMonoid(("no-unit",))
    for a in elements:
        for b in elements:
            if (a, b) not in mult_table or mult_table[(a, b)] not in elements:
                raise NotAMonoid((a, b))
    for a in elements:
        for b in elements:
            for c in elements:
                if mult_table[(mult_table[(a, b)], c)] != mult_table[(a, mult_table[(b, c)])]:
                    raise NotAMonoid((a, b, c))
    # unit listed first so canonical order starts at the identity
    ordered = [unit] + [x for x in elements if x != unit]
    morphisms = [(m, "*", "*") for m in ordered]
    comp = {(a, b): mult_table[(a, b)] for a in ordered for b in ordered}
    return build_category(name, ["*"], morphisms, {"*": unit}, comp)


def bz2_category() -> FinCategory:
    """Delooping of Z/2: morphisms e (unit) and s with s;s = e."""
    table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return delooping(table, name="BZ2")


def bm3_category() -> FinCategory:
    """Delooping of the 3-element right-zero-adjoined monoid: x;a = a, x;b = b."""
    els = ["e", "a", "b"]
    table = {}
    for x in els:
        table[(x, "e")] = x
        table[(x, "a")] = "a"
        table[(x, "b")] = "b"
    return delooping(table, name="BM3")


def split_category() -> FinCategory:
    """The walking split idempotent: e = r;s on x, s;r = id_y."""
    morphisms = [
        ("idx", "x", "x"), ("idy", "y", "y"),
        ("e", "x", "x"), ("r", "x", "y"), ("s", "y", "x"),
    ]
    comp = {
        ("idx", "idx"): "idx", ("idy", "idy"): "idy",
        ("idx", "e"): "e", ("e", "idx"): "e", ("e", "e"): "e",
        ("idx", "r"): "r", ("r", "idy"): "r", ("e", "r"): "r",
        ("idy", "s"): "s", ("s", "idx"): "s", ("s", "e"): "s",
        ("r", "s"): "e", ("s", "r"): "idy",
    }
    return build_category("Split", ["x", "y"], morphisms, {"x": "idx", "y": "idy"}, comp)


def span_category() -> FinCategory:
    """Shape m -> l, m -> rr (for pushout diagrams)."""
    morphisms = [
        ("idl", "l", "l"), ("idm", "m", "m"), ("idr", "rr", "rr"),
        ("f", "m", "l"), ("g", "m", "rr"),
    ]
    comp = {
        ("idl", "idl"): "idl", ("idm", "idm"): "idm", ("idr", "idr"): "idr",
        ("idm", "f"): "f", ("f", "idl"): "f",
        ("idm", "g"): "g", ("g", "idr"): "g",
    }
    return build_category("Span", ["l", "m", "rr"], morphisms,
                          {"l": "idl", "m": "idm", "rr": "idr"}, comp)


def vee_category() -> FinCategory:
    """Cospan poset a -> c <- b; c is the binary coproduct of a and b."""
    morphisms = [
        ("ida", "a", "a"), ("idb", "b", "b"), ("idc", "c", "c"),
        ("ac", "a", "c"), ("bc", "b", "c"),
    ]
    comp = {
        ("ida", "ida"): "ida", ("idb", "idb"): "idb", ("idc", "idc"): "idc",
        ("ida", "ac"): "ac", ("ac", "idc"): "ac",
        ("idb", "bc"): "bc", ("bc", "idc"): "bc",
    }
    return build_category("Vee", ["a", "b", "c"], morphisms,
                          {"a": "ida", "b": "idb", "c": "idc"}, comp)


def square_category() -> FinCategory:
    """Commutative square poset a -> b, a -> c, b -> d, c -> d (pushout shape)."""
    morphisms = [
        ("ida", "a", "a"), ("idb", "b", "b"), ("idc", "c", "c"), ("idd", "d", "d"),
        ("ab", "a", "b"), ("ac", "a", "c"), ("bd", "b", "d"), ("cd", "c", "d"),
        ("ad", "a", "d"),
    ]
    comp = {
        ("ida", "ida"): "ida", ("idb", "idb"): "idb",
        ("idc", "idc"): "idc", ("idd", "idd"): "idd",
        ("ida", "ab"): "ab", ("ab", "idb"): "ab",
        ("ida", "ac"): "ac", ("ac", "idc"): "ac",
        ("idb", "bd"): "bd", ("bd", "idd"): "bd",
        ("idc", "cd"): "cd", ("cd", "idd"): "cd",
        ("ida", "ad"): "ad", ("ad", "idd"): "ad",
        ("ab", "bd"): "ad", ("ac", "cd"): "ad",
    }
    return build_category("Square", ["a", "b", "c", "d"], morphisms,
                          {"a": "ida", "b": "idb", "c": "idc", "d": "idd"}, comp)


def parallel_pair_category() -> FinCategory:
    """Two objects with a parallel pair a, b: 0 -> 1 (coequalizer shape)."""
    morphisms = [("id0", "0", "0"), ("id1", "1", "1"), ("a", "0", "1"), ("b", "0", "1")]
    comp = {
        ("id0", "id0"): "id0", ("id1", "id1"): "id1",
        ("id0", "a"): "a", ("a", "id1"): "a",
        ("id0", "b"): "b", ("b", "id1"): "b",
    }
    return build_category("PP", ["0", "1"], morphisms, {"0": "id0", "1": "id1"}, comp)


def point_functor(E: FinCategory, obj: str, name: str = "") -> FunctorData:
    """Terminal -> E picking obj."""
    T = terminal_category()
    return FunctorData(T, E, {"*": obj}, {"id": E.id_of(obj)},
                       name=name or f"pt_{obj}")


def empty_functor(E: FinCategory) -> FunctorData:
    return FunctorData(empty_category(), E, {}, {}, name=f"[]_{E.name}" if E.name else "[]")


STANDARD_CATEGORIES = {
    "Empty": empty_category,
    "Terminal": terminal_category,
    "Interval": interval_category,
    "Disc2": disc2_category,
    "Indisc2": indisc2_category,
    "BZ2": bz2_category,
    "BM3": bm3_category,
    "Split": split_category,
    "Span": span_category,
    "Vee": vee_category,
    "Square": square_category,
    "PP": parallel_pair_category,
}


# ---------------------------------------------------------------------------
# random generation


def generate_category(seed: int, objects: int, max_hom: int, attempts: int = 2000):
    """Rejection-sample composition tables until the category laws hold.

    Deterministic per (seed, objects, max_hom); returns None when every
    attempt was rejected.
    """

    # stable across processes: tuple seeding hashes, which is run-dependent
    rng = random.Random(seed * 1_000_003 + objects * 1_009 + max_hom)
    if objects == 0:
        return empty_category()
    obs = [f"o{i}" for i in range(objects)]
    for _ in range(attempts):
        morphisms = []
        identities = {}
        for x in obs:
            ident = f"id_{x}"
            morphisms.append((ident, x, x))
            identities[x] = ident
        for x in obs:
            for y in obs:
                extra = rng.randrange(0, max_hom + 1)
                if x == y:
                    extra = max(0, extra - 1)  # identity already occupies one slot
                for k in range(extra):
                    morphisms.append((f"m_{x}_{y}_{k}", x, y))
        dom = {m: d for (m, d, c) in morphisms}
        cod = {m: c for (m, d, c) in morphisms}
        by_hom: dict[tuple[str, str], list[str]] = {}
        for (m, d, c) in morphisms:
            by_hom.setdefault((d, c), []).append(m)
        comp = {}
        ok = True
        for f in dom:
            for g in dom:
                if cod[f] != dom[g]:
                    continue
                if f == identities[dom[f]]:
                    comp[(f, g)] = g
                    continue
                if g == identities[cod[g]]:
                    comp[(f, g)] = f
                    continue
                slot = by_hom.get((dom[f], cod[g]), [])
                if not slot:
                    ok = False
                    break
                comp[(f, g)] = rng.choice(slot)
            if not ok:
                break
        if not ok:
            continue
        try:
            return build_category(f"gen{seed}", obs, morphisms, identities, comp)
        except ValidationFailure:
            continue
    return None


# ---------------------------------------------------------------------------
# persistence

CANONICAL_JSON = dict(indent=2, sort_keys=True, ensure_ascii=False)


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, **CANONICAL_JSON) + "\n"


def save_json(doc: dict, path) -> None:
    Path(path).write_text(dumps_canonical(doc), encoding="utf-8")


def load_json(path) -> dict:
    """The JSON object in the file at path; any other JSON value is a ParseFailure."""

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RelmonError(f"io error reading {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(str(path), f"invalid JSON at line {exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise ParseFailure(str(path), f"document must be a JSON object, not {type(doc).__name__}")
    return doc


# ---------------------------------------------------------------------------
# instances


@dataclass
class Instance:
    """A named bundle of validated structures with resolvable cross-references.

    roles collects semantic hints for the suite: "root" names the functor to
    use as j, "candidates" lists right-adjoint candidates, "monads" lists
    monads rooted at j.
    """

    name: str
    provenance: str
    categories: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    distributors: dict = field(default_factory=dict)
    monads: dict = field(default_factory=dict)
    adjunctions: dict = field(default_factory=dict)
    roles: dict = field(default_factory=dict)


def _category_instance(name: str, C: FinCategory) -> "Instance":
    from .fincat import identity_functor
    from .prof import hom_distributor
    from .reladj import identity_adjunction
    inst = Instance(
        name=name, provenance="builtin",
        categories={"E": C},
        functors={"id": identity_functor(C)},
        distributors={"hom": hom_distributor(C)} if C.objects else {},
        roles={"root": "id", "candidates": ["id"]},
    )
    inst.adjunctions = {"identity": identity_adjunction(C)}
    return inst


def _root_instance(name: str, j: FunctorData, candidates: dict,
                   with_monads: bool = True) -> "Instance":
    from .monad import enumerate_relative_monads
    inst = Instance(
        name=name, provenance="builtin",
        categories={"A": j.dom, "E": j.cod},
        functors={"j": j, **candidates},
        roles={"root": "j", "candidates": sorted(candidates)},
    )
    # auxiliary domains/codomains of candidate functors must be resolvable
    extra = 0
    for F in candidates.values():
        for C in (F.dom, F.cod):
            if not any(C == reg for reg in inst.categories.values()):
                inst.categories[f"C{extra}"] = C
                extra += 1
    from .reladj import identity_adjunction
    inst.adjunctions["identity_E"] = identity_adjunction(j.cod)
    if with_monads:
        monads = enumerate_relative_monads(j)
        inst.monads = {f"T{i}": T for i, T in enumerate(monads)}
        inst.roles["monads"] = sorted(inst.monads)
    from .reladj import find_left_relative_adjoint
    for role in inst.roles["candidates"]:
        adj = find_left_relative_adjoint(j, inst.functors[role])
        if adj is not None:
            inst.adjunctions[f"found_{role}"] = adj
            break
    return inst


def builtin_corpus() -> list:
    """The shipped instances: small categories plus the root exhibits."""

    from .fincat import FunctorData, identity_functor

    cats = {name: make() for name, make in STANDARD_CATEGORIES.items()}
    out = [
        _category_instance(name.lower(), cats[name])
        for name in ("Empty", "Terminal", "Interval", "Disc2", "Indisc2",
                     "BZ2", "BM3", "Split", "Span", "Vee", "Square", "PP")
    ]

    bz2, bm3, split = cats["BZ2"], cats["BM3"], cats["Split"]
    disc2, indisc2, interval, term = cats["Disc2"], cats["Indisc2"], cats["Interval"], cats["Terminal"]

    out.append(_root_instance(
        "point_bz2", point_functor(bz2, "*"),
        {"r_id": identity_functor(bz2)}))
    out.append(_root_instance(
        "point_bm3", point_functor(bm3, "*"),
        {"r_id": identity_functor(bm3)}))
    out.append(_root_instance(
        "point_split", point_functor(split, "x"),
        {"r_id": identity_functor(split)}))
    out.append(_root_instance(
        "empty_root_disc2", empty_functor(disc2),
        {
            "r_id": identity_functor(disc2),
            "r_swap": FunctorData(disc2, disc2, {"0": "1", "1": "0"},
                                  {"id0": "id1", "id1": "id0"}),
            "r_const": FunctorData(disc2, disc2, {"0": "0", "1": "0"},
                                   {"id0": "id0", "id1": "id0"}),
            "r_point": point_functor(disc2, "0"),
        }))
    out.append(_root_instance(
        "empty_root_indisc2", empty_functor(indisc2),
        {
            "r_id": identity_functor(indisc2),
            "r_const": FunctorData(indisc2, indisc2, {"0": "0", "1": "0"},
                                   {"id0": "id0", "id1": "id0", "m01": "id0", "m10": "id0"}),
            "r_point": point_functor(indisc2, "0"),
        }))
    out.append(_root_instance(
        "nondense_point_disc2", point_functor(disc2, "0"),
        {"r_id": identity_functor(disc2)}))
    out.append(_root_instance(
        "interval_id_root", identity_functor(interval),
        {"r_id": identity_functor(interval)}))
    out.append(_root_instance(
        "indisc2_to_terminal", identity_functor(term),
        {"r_indisc": FunctorData(indisc2, term,
                                 {"0": "*", "1": "*"},
                                 {"id0": "id", "id1": "id", "m01": "id", "m10": "id"})},
        with_monads=False))
    inc = FunctorData(disc2, interval, {"0": "0", "1": "1"}, {"id0": "id0", "id1": "id1"})
    out.append(_root_instance(
        "disc2_interval_root", inc, {"r_id": identity_functor(interval)}))
    out.append(_root_instance(
        "bz2_id_root", identity_functor(bz2), {"r_id": identity_functor(bz2)}))
    out.append(_root_instance(
        "bm3_id_root", identity_functor(bm3), {"r_id": identity_functor(bm3)}))
    return out


def validate_instance(inst: Instance) -> list:
    """Re-run every law check in the bundle; returns human-readable errors."""

    from .fincat import functor_violations
    from .prof import distributor_violations
    from .monad import monad_violations
    from .reladj import adjunction_violations

    errors = []
    for role, C in inst.categories.items():
        try:
            validate_category(C.to_dict(), name=C.name or role)
        except (ValidationFailure, ParseFailure) as exc:
            errors.append(f"{inst.name}/{role}: {exc}")
    for role, F in inst.functors.items():
        vs = functor_violations(F.to_dict(), F.dom, F.cod)
        errors.extend(f"{inst.name}/{role}: {v}" for v in vs)
    for role, p in inst.distributors.items():
        vs = distributor_violations(p)
        errors.extend(f"{inst.name}/{role}: {v}" for v in vs)
    for role, T in inst.monads.items():
        vs = monad_violations(T.j, T.t, T.unit, T.ext)
        errors.extend(f"{inst.name}/{role}: {v}" for v in vs)
    for role, adj in inst.adjunctions.items():
        vs = adjunction_violations(adj.j, adj.left, adj.right, adj.sharp)
        errors.extend(f"{inst.name}/{role}: {v}" for v in vs)
    return errors


# ---------------------------------------------------------------------------
# instance bundles on disk


def save_instance(inst: Instance, path) -> None:
    """Write a bundle directory with manifest.json and one file per structure."""

    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": 1,
        "name": inst.name,
        "provenance": inst.provenance,
        "categories": {},
        "functors": {},
        "distributors": {},
        "monads": {},
        "adjunctions": {},
        "roles": inst.roles,
    }
    cat_role_of = {}
    for role in sorted(inst.categories):
        C = inst.categories[role]
        rel = f"cat_{role}.json"
        save_json(C.to_dict(), root / rel)
        manifest["categories"][role] = rel
        cat_role_of[id(C)] = role

    def catref(C):
        for role in sorted(inst.categories):
            if inst.categories[role] == C:
                return role
        raise RelmonError(f"category of instance {inst.name} is not registered")

    for role in sorted(inst.functors):
        F = inst.functors[role]
        rel = f"fun_{role}.json"
        save_json(F.to_dict(), root / rel)
        manifest["functors"][role] = {"path": rel, "dom": catref(F.dom), "cod": catref(F.cod)}
    for role in sorted(inst.distributors):
        p = inst.distributors[role]
        rel = f"dist_{role}.json"
        save_json(p.to_dict(), root / rel)
        manifest["distributors"][role] = {"path": rel, "src": catref(p.src), "tgt": catref(p.tgt)}

    def funref(F):
        for role in sorted(inst.functors):
            if inst.functors[role] == F:
                return role
        raise RelmonError(f"functor of instance {inst.name} is not registered")

    for role in sorted(inst.monads):
        T = inst.monads[role]
        rel = f"mon_{role}.json"
        doc = T.to_dict()
        doc_refs = {"unit": doc["unit"], "ext": doc["ext"]}
        try:
            doc_refs["j"] = funref(T.j)
            doc_refs["t"] = funref(T.t)
        except RelmonError:
            # carriers are often anonymous; inline them
            doc_refs["j"] = {"inline": T.j.to_dict(),
                             "dom": catref(T.j.dom), "cod": catref(T.j.cod)}
            doc_refs["t"] = {"inline": T.t.to_dict(),
                             "dom": catref(T.t.dom), "cod": catref(T.t.cod)}
        save_json(doc_refs, root / rel)
        manifest["monads"][role] = rel
    for role in sorted(inst.adjunctions):
        adj = inst.adjunctions[role]
        rel = f"adj_{role}.json"
        doc = adj.to_dict()
        doc_refs = {"sharp": doc["sharp"]}
        for part, F in (("j", adj.j), ("l", adj.left), ("r", adj.right)):
            try:
                doc_refs[part] = funref(F)
            except RelmonError:
                doc_refs[part] = {"inline": F.to_dict(),
                                  "dom": catref(F.dom), "cod": catref(F.cod)}
        save_json(doc_refs, root / rel)
        manifest["adjunctions"][role] = rel
    save_json(manifest, root / "manifest.json")


def load_instance(path) -> Instance:
    from .fincat import validate_functor
    from .monad import validate_relative_monad
    from .reladj import validate_relative_adjunction
    from .prof import distributor_from_dict

    root = Path(path)
    manifest = load_json(root / "manifest.json")
    for key in ("schema", "name", "categories", "functors", "roles"):
        if key not in manifest:
            raise ParseFailure("manifest.json", f"missing field {key!r}")
    inst = Instance(name=manifest["name"],
                    provenance=manifest.get("provenance", "file"),
                    roles=manifest["roles"])
    for role, rel in manifest["categories"].items():
        raw = load_json(root / rel)
        inst.categories[role] = validate_category(raw, name=role)

    def resolve_functor(ref, where):
        if isinstance(ref, str):
            if ref not in inst.functors:
                raise ParseFailure(where, f"dangling functor reference {ref!r}")
            return inst.functors[ref]
        dom = inst.categories.get(ref.get("dom"))
        cod = inst.categories.get(ref.get("cod"))
        if dom is None or cod is None:
            raise ParseFailure(where, "dangling category reference")
        return validate_functor(ref["inline"], dom, cod)

    for role, ref in manifest["functors"].items():
        raw = load_json(root / ref["path"])
        dom = inst.categories.get(ref["dom"])
        cod = inst.categories.get(ref["cod"])
        if dom is None or cod is None:
            raise ParseFailure(ref["path"], "dangling category reference")
        inst.functors[role] = validate_functor(raw, dom, cod, name=role)
    for role, ref in manifest.get("distributors", {}).items():
        raw = load_json(root / ref["path"])
        src = inst.categories.get(ref["src"])
        tgt = inst.categories.get(ref["tgt"])
        if src is None or tgt is None:
            raise ParseFailure(ref["path"], "dangling category reference")
        inst.distributors[role] = distributor_from_dict(raw, src, tgt, name=role)
    for role, rel in manifest.get("monads", {}).items():
        raw = load_json(root / rel)
        j = resolve_functor(raw["j"], rel)
        t = resolve_functor(raw["t"], rel)
        unit = check_name_map(raw["unit"], f"{rel}: unit")
        ext = split_keys(raw["ext"], 3, f"{rel}: ext")
        inst.monads[role] = validate_relative_monad(j, t, unit, ext, name=role)
    for role, rel in manifest.get("adjunctions", {}).items():
        raw = load_json(root / rel)
        j = resolve_functor(raw["j"], rel)
        left = resolve_functor(raw["l"], rel)
        right = resolve_functor(raw["r"], rel)
        sharp = split_keys(raw["sharp"], 3, f"{rel}: sharp")
        inst.adjunctions[role] = validate_relative_adjunction(j, left, right, sharp, name=role)
    return inst


# ---------------------------------------------------------------------------
# committed oracle data


def load_oracles() -> dict:
    here = Path(__file__).parent / "data" / "oracles.json"
    return load_json(here)
