"""Relative adjunctions: validation, left-adjoint search, and the pasting law.

An adjunction l -|_j r is stored with its sharp transposition table
C(l a, c) -> E(j a, r c); flat is derived as the pointwise inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import EndpointMismatch, TheoremViolation, ValidationFailure, Violation
from .colim import is_dense, is_j_absolute, try_left_extension
from .fincat import (
    FinCategory,
    FunctorData,
    check_field,
    field_at,
    compose_functors,
    enumerate_functors,
    find_natural_isomorphism,
    identity_functor,
    split_keys,
)


class RelativeAdjunction:
    def __init__(self, j: FunctorData, left: FunctorData, right: FunctorData, sharp, name=None):
        self.name = name
        self.j = j
        self.left = left
        self.right = right
        self.sharp = dict(sharp)       # (a, c, k) -> transpose of k: l a -> c
        self.flat = {(a, c, v): k for ((a, c, k), v) in self.sharp.items()}

    @property
    def apex(self) -> FinCategory:
        return self.left.cod

    def transpose(self, a: str, c: str, k: str) -> str:
        return self.sharp[(a, c, k)]

    def untranspose(self, a: str, c: str, f: str) -> str:
        return self.flat[(a, c, f)]

    def sharp_table(self):
        return tuple(sorted(self.sharp.items()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RelativeAdjunction)
                and self.j == other.j and self.left == other.left
                and self.right == other.right and self.sharp_table() == other.sharp_table())

    def __repr__(self) -> str:
        return f"RelativeAdjunction({self.name or '?'}: {len(self.sharp)} transposes)"

    def to_dict(self) -> dict:
        return {
            "j": self.j.to_dict(),
            "l": self.left.to_dict(),
            "r": self.right.to_dict(),
            "sharp": {f"{a}|{c}|{k}": v for ((a, c, k), v) in sorted(self.sharp.items())},
        }


def adjunction_violations(j: FunctorData, left: FunctorData, right: FunctorData,
                          sharp: dict) -> list[Violation]:
    A, C, E = j.dom, left.cod, j.cod
    violations: list[Violation] = []
    if left.dom != A or right.dom != C or right.cod != E:
        return [Violation("endpoint_mismatch", (), "triangle does not compose")]

    for a in A.objects:
        for c in C.objects:
            source = C.hom(left.ob(a), c)
            target = E.hom(j.ob(a), right.ob(c))
            images = []
            for k in source:
                v = sharp.get((a, c, k))
                if v is None or v not in target:
                    violations.append(Violation("not_bijective", (a, c), f"missing/invalid at {k!r}"))
                else:
                    images.append(v)
            if len(set(images)) != len(source) or set(images) != set(target):
                violations.append(Violation("not_bijective", (a, c)))
    if violations:
        return violations

    for a in A.objects:
        for c in C.objects:
            for k in C.hom(left.ob(a), c):
                for m in C.morphism_names():
                    if C.dom(m) != c:
                        continue
                    lhs = sharp[(a, C.cod(m), C.comp(k, m))]
                    rhs = E.comp(sharp[(a, c, k)], right.mor(m))
                    if lhs != rhs:
                        violations.append(Violation("naturality_fail", ("right", m, a, c, k)))
    for h in A.morphism_names():
        a2, a = A.dom(h), A.cod(h)
        for c in C.objects:
            for k in C.hom(left.ob(a), c):
                lhs = sharp[(a2, c, C.comp(left.mor(h), k))]
                rhs = E.comp(j.mor(h), sharp[(a, c, k)])
                if lhs != rhs:
                    violations.append(Violation("naturality_fail", ("left", h, c, k)))
    return violations


def validate_relative_adjunction(j: FunctorData, left: FunctorData, right: FunctorData,
                                 sharp: dict, name: str = "") -> RelativeAdjunction:
    violations = adjunction_violations(j, left, right, sharp)
    if violations:
        raise ValidationFailure(f"relative adjunction {name or '?'}", violations)
    return RelativeAdjunction(j, left, right, sharp, name=name or None)


def adjunction_from_dict(doc, functor, where: str, name: str = "") -> RelativeAdjunction:
    """The adjunction of a document {j, l, r, sharp}; where locates doc in its file.

    functor(ref, where) resolves a functor reference found at where.  A
    field of the wrong shape raises ParseFailure at its location."""

    j, left, right = (functor(check_field(doc, key, where), field_at(where, key))
                      for key in ("j", "l", "r"))
    sharp = split_keys(check_field(doc, "sharp", where), 3, field_at(where, "sharp"))
    return validate_relative_adjunction(j, left, right, sharp, name=name)


def identity_adjunction(E: FinCategory) -> RelativeAdjunction:
    one = identity_functor(E)
    sharp = {(a, c, k): k for a in E.objects for c in E.objects for k in E.hom(a, c)}
    return RelativeAdjunction(one, one, one, sharp, name=f"1{E.name or ''}")


def find_left_relative_adjoint(j: FunctorData, r: FunctorData) -> Optional[RelativeAdjunction]:
    """Representability search for l with C(l a, c) ~= E(j a, r c).

    For each a, candidates (x, u) are scanned in canonical order; u must make
    m |-> u ; r m bijective for every c.  Returns None when some a has no
    representation.
    """

    if j.cod != r.cod:
        raise EndpointMismatch("j and r must share their codomain")
    A, D, E = j.dom, r.dom, j.cod

    chosen: dict[str, tuple[str, str]] = {}
    for a in A.objects:
        found = None
        for x in D.objects:
            for u in E.hom(j.ob(a), r.ob(x)):
                if all(_pairing_bijective(u, x, c, r, E, D) for c in D.objects):
                    found = (x, u)
                    break
            if found:
                break
        if found is None:
            return None
        chosen[a] = found

    on_objects = {a: chosen[a][0] for a in A.objects}
    on_morphisms = {}
    for h in A.morphism_names():
        a, a2 = A.dom(h), A.cod(h)
        x, u = chosen[a]
        x2, u2 = chosen[a2]
        target = E.comp(j.mor(h), u2)
        matches = [m for m in D.hom(x, x2) if E.comp(u, r.mor(m)) == target]
        if len(matches) != 1:
            raise TheoremViolation("left relative adjoint must be pinned on morphisms")
        on_morphisms[h] = matches[0]
    # each image is the unique m above, so identities and composites are kept
    left = FunctorData(A, D, on_objects, on_morphisms)

    sharp = {}
    for a in A.objects:
        x, u = chosen[a]
        for c in D.objects:
            for m in D.hom(x, c):
                sharp[(a, c, m)] = E.comp(u, r.mor(m))
    return validate_relative_adjunction(j, left, r, sharp)


def _pairing_bijective(u: str, x: str, c: str, r: FunctorData, E: FinCategory, D: FinCategory) -> bool:
    source = D.hom(x, c)
    target = E.hom(E.dom(u), r.ob(c))
    images = [E.comp(u, r.mor(m)) for m in source]
    return len(set(images)) == len(images) == len(target) and set(images) == set(target)


# ---------------------------------------------------------------------------
# pasting


@dataclass
class PastingReport:
    direction: str
    inner: Optional[RelativeAdjunction]
    outer: Optional[RelativeAdjunction]
    valid: bool
    rho_applicable: bool = False
    rho_extension_ok: Optional[bool] = None
    rho_extension_absolute: Optional[bool] = None
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "valid": self.valid,
            "rho_applicable": self.rho_applicable,
            "rho_extension_ok": self.rho_extension_ok,
            "rho_extension_absolute": self.rho_extension_absolute,
            "notes": list(self.notes),
        }


def paste_adjunction(primary: RelativeAdjunction, factor: RelativeAdjunction,
                     direction: str) -> PastingReport:
    """Paste or unpaste around a fixed factor adjunction l' -|_j r'.

    direction "paste": primary is the inner triangle l -|_{l'} r; its root
    must be the factor's left adjoint.  Produces the outer l -|_j (r ; r').

    direction "unpaste": primary is the outer triangle l -|_j r~; recovers
    the inner right adjoint r with r ; r' = r~ by search and validates
    l -|_{l'} r.
    """

    if direction == "paste":
        if primary.j != factor.left:
            raise EndpointMismatch("inner root must be the factor's left adjoint")
        r_comp = compose_functors(primary.right, factor.right)
        sharp_out = {}
        for (a, c, k), v in primary.sharp.items():
            sharp_out[(a, c, k)] = factor.sharp[(a, primary.right.ob(c), v)]
        outer = validate_relative_adjunction(factor.j, primary.left, r_comp, sharp_out)
        report = PastingReport("paste", primary, outer, True)
        _certify_rho(report, primary.right, factor)
        return report

    if direction == "unpaste":
        if primary.j != factor.j:
            raise EndpointMismatch("outer and factor adjunctions must share the root")
        C = primary.apex
        r, r_factor = primary.right, factor.right
        for r_cand in enumerate_functors(C, factor.apex,
                                         ob_ok=lambda c, d: r_factor.ob(d) == r.ob(c),
                                         mor_ok=lambda k, m: r_factor.mor(m) == r.mor(k)):
            sharp_in = {}
            ok = True
            for a in primary.j.dom.objects:
                for c in C.objects:
                    for k in C.hom(primary.left.ob(a), c):
                        v = primary.sharp[(a, c, k)]
                        key = (a, r_cand.ob(c), v)
                        if key not in factor.flat:
                            ok = False
                            break
                        sharp_in[(a, c, k)] = factor.flat[key]
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                continue
            if adjunction_violations(factor.left, primary.left, r_cand, sharp_in):
                continue
            inner = RelativeAdjunction(factor.left, primary.left, r_cand, sharp_in)
            report = PastingReport("unpaste", inner, primary, True)
            _certify_rho(report, r_cand, factor)
            return report
        return PastingReport("unpaste", None, primary, False,
                             notes=["no inner right adjoint factors the outer one"])

    raise ValueError(f"unknown direction {direction!r}")


def _certify_rho(report: PastingReport, r_inner: FunctorData, factor: RelativeAdjunction) -> None:
    """When the root is dense and r_inner is a right-morphism (l;r = l'),
    certify that the factor's right adjoint is the absolute extension."""

    outer = report.outer
    if outer is None:
        return
    if compose_functors(outer.left, r_inner) != factor.left:
        return
    dense, _ = is_dense(outer.j)
    if not dense:
        report.notes.append("root not dense: extension certificate skipped")
        return
    report.rho_applicable = True
    ext, _ = try_left_extension(r_inner, outer.right)
    if ext is None:
        report.rho_extension_ok = False
        return
    report.rho_extension_ok = find_natural_isomorphism(ext.apex, factor.right) is not None
    absolute, _ = is_j_absolute(outer.j, ext)
    report.rho_extension_absolute = absolute
