"""Algebras for a relative monad, the algebra category, comparison, transport.

An algebra for T = (j, t, unit, ext) is a carrier e: D -> E with extension
tables alpha_{a,d}: E(j a, e d) -> E(t a, e d) satisfying unit and
compatibility laws.  The algebra category Alg(T) has as objects the algebras
with domain the terminal category and as morphisms the carrier maps that
intertwine the extensions; algebras with general domain D are recovered as
functors D -> Alg(T) through the universal property.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    BudgetExceeded,
    MonadMismatch,
    RootMismatch,
    TheoremViolation,
    ValidationFailure,
    Violation,
    budget_limit,
)
from .fincat import (
    FinCategory,
    FunctorData,
    build_category,
    compose_functors,
    classify_functor,
    enumerate_functors,
    identity_functor,
)
from .monad import RelativeMonad, postcompose_along_adjunction
from .prof import Distributor, GradedCell, enumerate_distributors, enumerate_graded_cells, hom_restriction
from .reladj import RelativeAdjunction, validate_relative_adjunction
from .search import Search
from .corpus import terminal_category


class Algebra:
    def __init__(self, monad: RelativeMonad, carrier: FunctorData, alpha: dict, name=None):
        self.name = name
        self.monad = monad
        self.carrier = carrier          # D -> E
        self.alpha = dict(alpha)        # (a, d, f) -> morphism t a -> e d

    @property
    def domain(self) -> FinCategory:
        return self.carrier.dom

    def ext(self, a: str, d: str, f: str) -> str:
        return self.alpha[(a, d, f)]

    def table(self):
        return (self.carrier.table(), tuple(sorted(self.alpha.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, Algebra) and self.table() == other.table()

    def __repr__(self) -> str:
        return f"Algebra({self.name or '?'})"


def algebra_violations(T: RelativeMonad, carrier: FunctorData, alpha: dict) -> list[Violation]:
    A, E = T.j.dom, T.j.cod
    D = carrier.dom
    violations: list[Violation] = []
    if carrier.cod != E:
        return [Violation("endpoint_mismatch", (), "carrier must land in the monad's codomain")]

    for a in A.objects:
        for d in D.objects:
            for f in E.hom(T.j.ob(a), carrier.ob(d)):
                g = alpha.get((a, d, f))
                if g is None or g not in E.hom(T.t.ob(a), carrier.ob(d)):
                    violations.append(Violation("law_fail", ("alpha_typing", a, d, f)))
    if violations:
        return violations

    # binaturality in a (contravariant reindexing along the root)
    for h in A.morphism_names():
        a2, a = A.dom(h), A.cod(h)
        for d in D.objects:
            for f in E.hom(T.j.ob(a), carrier.ob(d)):
                lhs = alpha[(a2, d, E.comp(T.j.mor(h), f))]
                rhs = E.comp(T.t.mor(h), alpha[(a, d, f)])
                if lhs != rhs:
                    violations.append(Violation("law_fail", ("alpha_binaturality", h, d, f)))
    # naturality in d
    for k in D.morphism_names():
        d, d2 = D.dom(k), D.cod(k)
        for a in A.objects:
            for f in E.hom(T.j.ob(a), carrier.ob(d)):
                lhs = alpha[(a, d2, E.comp(f, carrier.mor(k)))]
                rhs = E.comp(alpha[(a, d, f)], carrier.mor(k))
                if lhs != rhs:
                    violations.append(Violation("law_fail", ("alpha_naturality", k, a, f)))
    # unit law
    for a in A.objects:
        for d in D.objects:
            for f in E.hom(T.j.ob(a), carrier.ob(d)):
                if E.comp(T.eta(a), alpha[(a, d, f)]) != f:
                    violations.append(Violation("law_fail", ("alpha_unit", a, d, f)))
    # compatibility with the monad extension
    for a in A.objects:
        for b in A.objects:
            for d in D.objects:
                for g in E.hom(T.j.ob(a), T.t.ob(b)):
                    for f in E.hom(T.j.ob(b), carrier.ob(d)):
                        lhs = alpha[(a, d, E.comp(g, alpha[(b, d, f)]))]
                        rhs = E.comp(T.dagger(a, b, g), alpha[(b, d, f)])
                        if lhs != rhs:
                            violations.append(Violation("law_fail", ("alpha_compat", a, b, d, g, f)))
    return violations


def validate_algebra(T: RelativeMonad, carrier: FunctorData, alpha: dict, name: str = "") -> Algebra:
    violations = algebra_violations(T, carrier, alpha)
    if violations:
        raise ValidationFailure(f"algebra {name or '?'}", violations)
    return Algebra(T, carrier, alpha, name=name or None)


def _algebra_search(T: RelativeMonad, carrier: FunctorData, slots: list) -> Search:
    """One slot per (a, d, f) in canonical order, and every algebra law instance.

    Each instance is checked at the latest slot it reads; compatibility,
    which indexes alpha through the value of alpha(b, d, f), is registered
    once per possible value, guarded by it.  Instances at identities hold
    for every typed table and are left out.
    """

    A, E = T.j.dom, T.j.cod
    D = carrier.dom
    j, t = T.j, T.t
    comp = E.composition
    search = Search()
    alpha = {key: search.slot(target) for key, target in slots}
    homs = {(a, d): E.hom(j.ob(a), carrier.ob(d)) for a in A.objects for d in D.objects}

    for (a, d, f), s in alpha.items():      # unit: unit a ; alpha(a, d, f) = f
        search.require(lambda v, s=s, u=T.eta(a), f=f: comp[(u, v[s])] == f, s)
    for h in A.morphism_names():            # binaturality in a, h: a2 -> a
        if A.is_identity(h):
            continue
        a2, a = A.dom(h), A.cod(h)
        jh, th = j.mor(h), t.mor(h)
        for d in D.objects:
            for f in homs[(a, d)]:
                lhs, rhs = alpha[(a2, d, comp[(jh, f)])], alpha[(a, d, f)]
                search.require(lambda v, l=lhs, r=rhs, th=th: v[l] == comp[(th, v[r])], lhs, rhs)
    for k in D.morphism_names():            # naturality in d, k: d -> d2
        if D.is_identity(k):
            continue
        d, d2 = D.dom(k), D.cod(k)
        ek = carrier.mor(k)
        for a in A.objects:
            for f in homs[(a, d)]:
                lhs, rhs = alpha[(a, d2, comp[(f, ek)])], alpha[(a, d, f)]
                search.require(lambda v, l=lhs, r=rhs, ek=ek: v[l] == comp[(v[r], ek)], lhs, rhs)
    for a in A.objects:                     # compatibility: alpha(a, d, g ; w) = g-dagger ; w
        for b in A.objects:
            for d in D.objects:
                for g in E.hom(j.ob(a), t.ob(b)):
                    gd = T.dagger(a, b, g)
                    for f in homs[(b, d)]:
                        sf = alpha[(b, d, f)]
                        for w in search.domains[sf]:
                            sl = alpha[(a, d, comp[(g, w)])]
                            search.require(lambda v, sf=sf, sl=sl, w=w, x=comp[(gd, w)]:
                                           v[sf] != w or v[sl] == x, sf, sl)
    return search


def enumerate_algebras(T: RelativeMonad, D: FinCategory, budget: int = None) -> list[Algebra]:
    """All (carrier, alpha) pairs with domain D, law-filtered, canonical order.

    Carriers in functor-enumeration order, then alpha tables in product
    order.  The list comes from a pruned search (search.Search) that checks
    each law instance as soon as its slots are bound; it equals filtering
    the full product through algebra_violations, in the same order.  Raises
    BudgetExceeded when the raw candidate space of some carrier exceeds the
    budget, whatever the search would prune.
    """

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
        for values in _algebra_search(T, carrier, slots).solutions():
            alpha = {key: v for (key, _), v in zip(slots, values)}
            out.append(Algebra(T, carrier, alpha))
    return out


def is_algebra_morphism(alg1: Algebra, alg2: Algebra, phi: str) -> bool:
    """Grade-0 morphism law for phi: e -> e' between Terminal-domain algebras."""

    E = alg1.monad.j.cod
    A = alg1.monad.j.dom
    for a in A.objects:
        for f in E.hom(alg1.monad.j.ob(a), alg1.carrier.ob("*")):
            if E.comp(alg1.ext(a, "*", f), phi) != alg2.ext(a, "*", E.comp(f, phi)):
                return False
    return True


def _algebra_name(alg: Algebra) -> str:
    sig = ",".join(f"{a}.{f}>{g}" for ((a, d, f), g) in sorted(alg.alpha.items()))
    return f"alg({alg.carrier.ob('*')}:{sig})"


def _split_alg_morphism(m: str) -> tuple[str, str, str]:
    """Invert the "{i}.{phi}.{i2}" naming; phi itself may contain dots."""
    i, _, rest = m.partition(".")
    phi, _, i2 = rest.rpartition(".")
    return i, phi, i2


@dataclass
class AlgebraCategory:
    monad: RelativeMonad
    category: FinCategory
    algebras: list = field(repr=False)
    u: FunctorData = None
    f: FunctorData = None
    alpha_T: dict = field(default=None, repr=False)     # (a, obj_name, f) -> morphism
    adjunction: RelativeAdjunction = None
    free_of: dict = field(default=None, repr=False)     # root object -> Alg object name
    by_structure: dict = field(default=None, repr=False)  # _structure(carrier, alpha) -> Alg object name

    def size(self) -> tuple[int, int]:
        return (len(self.category.objects), len(self.category.morphisms))


def _structure(carrier_obj: str, alpha: dict) -> tuple:
    """The key of by_structure for an algebra over Terminal, alpha keyed (a, "*", f)."""
    return (carrier_obj, tuple(sorted(alpha.items())))


def build_algebra_category(T: RelativeMonad, budget: int = None) -> AlgebraCategory:
    """Assemble Alg(T) with u_T, f_T, the generic extension, and the resolution."""

    E = T.j.cod
    A = T.j.dom
    algebras = enumerate_algebras(T, terminal_category(), budget=budget)
    names = []
    for alg in algebras:
        alg.name = _algebra_name(alg)
        names.append(alg.name)

    morphisms = []
    identities = {}
    hom_pairs: dict[tuple[int, int], list[str]] = {}
    for i, alg1 in enumerate(algebras):
        for i2, alg2 in enumerate(algebras):
            carriers = E.hom(alg1.carrier.ob("*"), alg2.carrier.ob("*"))
            homs = [phi for phi in carriers if is_algebra_morphism(alg1, alg2, phi)]
            hom_pairs[(i, i2)] = homs
            for phi in homs:
                mname = f"{i}.{phi}.{i2}"
                morphisms.append((mname, names[i], names[i2]))
                if i == i2 and phi == E.id_of(alg1.carrier.ob("*")):
                    identities[names[i]] = mname
    composition = {}
    for (i, i2), homs in hom_pairs.items():
        for phi in homs:
            for (i2b, i3), homs2 in hom_pairs.items():
                if i2b != i2:
                    continue
                for psi in homs2:
                    composition[(f"{i}.{phi}.{i2}", f"{i2}.{psi}.{i3}")] = \
                        f"{i}.{E.comp(phi, psi)}.{i3}"
    cat = build_category(f"Alg({T.name or '?'})", names, morphisms, identities, composition)

    u = FunctorData(cat, E,
                    {names[i]: algebras[i].carrier.ob("*") for i in range(len(algebras))},
                    {m: _split_alg_morphism(m)[1] for m in cat.morphism_names()},
                    name="u_T")

    alpha_T = {}
    for i, alg in enumerate(algebras):
        for (a, _, f), g in alg.alpha.items():
            alpha_T[(a, names[i], f)] = g

    free_of = {}
    by_structure = {_structure(alg.carrier.ob("*"), alg.alpha): names[i]
                    for i, alg in enumerate(algebras)}
    for a in A.objects:
        carrier_obj = T.t.ob(a)
        alpha = {}
        for b in A.objects:
            for f in E.hom(T.j.ob(b), carrier_obj):
                alpha[(b, "*", f)] = T.dagger(b, a, f)
        free_of[a] = by_structure.get(_structure(carrier_obj, alpha))
        if free_of[a] is None:
            raise TheoremViolation("free algebra must appear in the enumeration")

    f_obj = {a: free_of[a] for a in A.objects}
    f_mor = {}
    for h in A.morphism_names():
        a, a2 = A.dom(h), A.cod(h)
        i, i2 = cat._obj_index[free_of[a]], cat._obj_index[free_of[a2]]
        f_mor[h] = f"{i}.{T.t.mor(h)}.{i2}"
    f = FunctorData(A, cat, f_obj, f_mor, name="f_T")

    sharp = {}
    for a in A.objects:
        for cname in cat.objects:
            for m in cat.hom(free_of[a], cname):
                phi = _split_alg_morphism(m)[1]
                sharp[(a, cname, m)] = E.comp(T.eta(a), phi)
    adjunction = validate_relative_adjunction(T.j, f, u, sharp, name="f_T -| u_T")

    return AlgebraCategory(T, cat, algebras, u, f, alpha_T, adjunction, free_of, by_structure)


def export_algebra_category(algcat: AlgebraCategory) -> dict:
    """Standard category JSON plus the forgetful/free blocks and the generic
    extension table."""

    doc = algcat.category.to_dict()
    doc["u_T"] = algcat.u.to_dict()
    doc["f_T"] = algcat.f.to_dict()
    doc["alpha_T"] = {f"{a}|{obj}|{f}": g
                      for ((a, obj, f), g) in sorted(algcat.alpha_T.items())}
    return doc


# ---------------------------------------------------------------------------
# comparison


@dataclass
class ComparisonData:
    functor: FunctorData
    classification: object
    unique: bool

    def to_dict(self) -> dict:
        return {
            "classification": self.classification.to_dict(),
            "unique": self.unique,
        }


def comparison_functor(adj: RelativeAdjunction, algcat: AlgebraCategory, induced: RelativeMonad) -> ComparisonData:
    """The unique K with K ; u_T = r and l ; K = f_T, with certificates.
    induced is monad_from_adjunction(adj), which must be algcat's monad T."""

    T = algcat.monad
    if induced.j != T.j or induced.t != T.t or induced.table() != T.table():
        raise MonadMismatch("adjunction does not induce this algebra category's monad")

    C = adj.apex
    E = T.j.cod
    cat = algcat.category

    on_objects = {}
    for c in C.objects:
        alpha = {}
        for a in T.j.dom.objects:
            for f in E.hom(T.j.ob(a), adj.right.ob(c)):
                alpha[(a, "*", f)] = adj.right.mor(adj.untranspose(a, c, f))
        on_objects[c] = algcat.by_structure.get(_structure(adj.right.ob(c), alpha))
        if on_objects[c] is None:
            raise TheoremViolation("comparison image must be an enumerated algebra")
    on_morphisms = {}
    for k in C.morphism_names():
        i = cat._obj_index[on_objects[C.dom(k)]]
        i2 = cat._obj_index[on_objects[C.cod(k)]]
        mname = f"{i}.{adj.right.mor(k)}.{i2}"
        if mname not in cat.morphism_names():
            raise TheoremViolation("comparison image must be an algebra morphism")
        on_morphisms[k] = mname
    K = FunctorData(C, cat, on_objects, on_morphisms, name="K")

    if compose_functors(K, algcat.u) != adj.right:
        raise TheoremViolation("comparison functor must commute with the right adjoints")
    if compose_functors(adj.left, K) != algcat.f:
        raise TheoremViolation("comparison functor must commute with the left adjoints")

    count = _count_resolution_morphisms(adj, algcat)
    return ComparisonData(K, classify_functor(K), unique=(count == 1))


def _count_resolution_morphisms(adj: RelativeAdjunction, algcat: AlgebraCategory) -> int:
    """Functors K' with K' ; u_T = r and l ; K' = f_T, by pruned search."""

    r, l = adj.right, adj.left
    u, f = algcat.u, algcat.f
    # l ; K' = f_T pins K' on the image of l, on objects through their identities
    pins = {}
    for h in adj.j.dom.morphism_names():
        pins.setdefault(l.mor(h), set()).add(f.mor(h))
    return sum(1 for _ in enumerate_functors(
        adj.apex, algcat.category, ob_ok=lambda c, o: u.ob(o) == r.ob(c),
        mor_ok=lambda k, m: u.mor(m) == r.mor(k) and pins.get(k, {m}) == {m}))


# ---------------------------------------------------------------------------
# universal property verification


@dataclass
class AlgebraObjectReport:
    candidate_valid: bool
    clause1_checked: int = 0
    clause1_failures: list = field(default_factory=list)
    clause2_checked: int = 0
    clause2_failures: list = field(default_factory=list)
    grade_bound: int = 1
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.candidate_valid and not self.clause1_failures and not self.clause2_failures

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "candidate_valid": self.candidate_valid,
            "clause1_checked": self.clause1_checked,
            "clause1_failures": [str(w) for w in self.clause1_failures],
            "clause2_checked": self.clause2_checked,
            "clause2_failures": [str(w) for w in self.clause2_failures],
            "grade_bound": self.grade_bound,
            "notes": list(self.notes),
        }


def verify_algebra_object(candidate_u: FunctorData, candidate_alpha: dict, T: RelativeMonad,
                          shapes: list, grade_bound: int = 1, element_cap: int = 1,
                          budget: int = None) -> AlgebraObjectReport:
    """Check both clauses of the algebra-object universal property.

    Clause 1: every algebra with domain in shapes factors through a unique
    structure-preserving functor into the candidate.  Clause 2: every graded
    algebra morphism with chain length <= grade_bound (distributors between
    shape categories, component sizes <= element_cap) lifts uniquely.
    """

    budget = budget or budget_limit()
    report = AlgebraObjectReport(candidate_valid=True, grade_bound=grade_bound)
    M = candidate_u.dom
    E = T.j.cod
    if algebra_violations(T, candidate_u, candidate_alpha):
        report.candidate_valid = False
        report.notes.append("candidate fails the T-algebra laws")
        return report

    shape_algebras = {}
    for D in shapes:
        shape_algebras[D.name] = enumerate_algebras(T, D, budget=budget)

    factorizations = {}
    for D in shapes:
        for idx, alg in enumerate(shape_algebras[D.name]):
            report.clause1_checked += 1
            found = _factorizations(candidate_u, candidate_alpha, alg, M)
            factorizations[(D.name, idx)] = found
            if len(found) != 1:
                report.clause1_failures.append(
                    (D.name or "?", idx, f"{len(found)} factorizations (need exactly 1)"))
    if report.clause1_failures:
        return report

    if grade_bound >= 1:
        def chains_between(D_src, D_tgt):
            try:
                return enumerate_distributors(D_src, D_tgt, element_cap, budget=budget)
            except BudgetExceeded:
                report.notes.append(
                    f"graded weight census {D_src.name}->{D_tgt.name} over budget; skipped")
                return []

        for D in shapes:
            for Dp in shapes:
                algs1 = list(enumerate(shape_algebras[D.name]))
                algs2 = list(enumerate(shape_algebras[Dp.name]))
                chain_lists = [[p] for p in chains_between(Dp, D)]
                if grade_bound >= 2:
                    for Dm in shapes:
                        for p1 in chains_between(Dm, D):
                            for p2 in chains_between(Dp, Dm):
                                chain_lists.append([p1, p2])
                if D.name == Dp.name:
                    chain_lists = [[]] + chain_lists   # grade-0 morphisms
                ends = (identity_functor(D), identity_functor(Dp))
                for i1, alg1 in algs1:
                    F1 = factorizations[(D.name, i1)][0]
                    for i2, alg2 in algs2:
                        F2 = factorizations[(Dp.name, i2)][0]
                        q, lift = hom_restriction(E, alg1.carrier, alg2.carrier), None
                        for chain in chain_lists:
                            try:
                                cells = _graded_morphisms(alg1, alg2, chain, q, budget, ends)
                                if cells and lift is None:
                                    lift = hom_restriction(M, F1, F2)
                                lifts = _lifts_by_image(candidate_u, chain, ends, lift, budget) if cells else {}
                            except BudgetExceeded:
                                report.notes.append(f"graded cells {D.name}->{Dp.name} (grade {len(chain)}, "
                                                    f"algebras {i1}, {i2}) over budget; skipped")
                                continue
                            for cell in cells:
                                report.clause2_checked += 1
                                lifted = lifts.get(tuple(cell.components.items()), 0)
                                if lifted != 1:
                                    report.clause2_failures.append(
                                        (f"grade{len(chain)}", D.name, i1, Dp.name, i2, lifted))
    return report


def _factorizations(candidate_u: FunctorData, candidate_alpha: dict,
                    alg: Algebra, M: FinCategory) -> list[FunctorData]:
    """Functors F with F ; u = carrier and the candidate extension matching."""

    return list(enumerate_functors(
        alg.domain, M,
        ob_ok=lambda d, o: (candidate_u.ob(o) == alg.carrier.ob(d)
                            and _alpha_slice_matches(candidate_alpha, o, alg, d)),
        mor_ok=lambda k, m: candidate_u.mor(m) == alg.carrier.mor(k)))


def _alpha_slice_matches(candidate_alpha: dict, obj: str, alg: Algebra, d: str) -> bool:
    T = alg.monad
    E = T.j.cod
    for a in T.j.dom.objects:
        for f in E.hom(T.j.ob(a), alg.carrier.ob(d)):
            if candidate_alpha.get((a, obj, f)) != alg.ext(a, d, f):
                return False
    return True


def graded_algebra_morphisms(alg1: Algebra, alg2: Algebra, chain: list, budget: int = None) -> list:
    """Graded T-algebra morphisms in the alternative form p_1..p_n => E(e, e').

    Every natural cell whose components all satisfy the intertwining law
    alpha(f) ; eps = alpha'(f ; eps), within budget (budget_limit() by default).
    """

    return _graded_morphisms(alg1, alg2, chain, hom_restriction(alg1.monad.j.cod, alg1.carrier, alg2.carrier),
                             budget, (identity_functor(alg1.domain), identity_functor(alg2.domain)))


def _graded_morphisms(alg1: Algebra, alg2: Algebra, chain: list, q: Distributor, budget: int, ends: tuple) -> list:
    """graded_algebra_morphisms over q = E(alg1.carrier, alg2.carrier) and ends, the identities of
    both domains, built once by a caller asking about several chains."""

    cells = enumerate_graded_cells(chain, *ends, q, budget)
    return [cell for cell in cells if _graded_law_holds(alg1, alg2, cell)]


def _graded_law_holds(alg1: Algebra, alg2: Algebra, cell: GradedCell) -> bool:
    T = alg1.monad
    E = T.j.cod
    for (xs, es), eps in cell.components.items():
        d0, dn = xs[0], xs[-1]
        for a in T.j.dom.objects:
            for f in E.hom(T.j.ob(a), alg1.carrier.ob(d0)):
                if E.comp(alg1.ext(a, d0, f), eps) != alg2.ext(a, dn, E.comp(f, eps)):
                    return False
    return True


def _lifts_by_image(candidate_u, chain, ends: tuple, lift: Distributor, budget: int) -> Counter:
    """The natural lifts through the candidate of the graded cells over chain into lift =
    M(F1, F2), F1 and F2 the factorized boundary functors and ends their domains' identities,
    counted by their image under the candidate (their components, in key order)."""

    return Counter(tuple((key, candidate_u.mor(v)) for key, v in lifted.components.items())
                   for lifted in enumerate_graded_cells(chain, *ends, lift, budget))


# ---------------------------------------------------------------------------
# transport of algebras along the pasting situation (section on composites)


def transport_algebra_forward(algcatp: AlgebraCategory, T: RelativeMonad, alg: Algebra) -> Algebra:
    """Postcompose a T-algebra (T rooted at f_{T'}) with u_{T'}."""

    if T.j != algcatp.f:
        raise RootMismatch("monad must be rooted at the free functor of the algebra category")
    adjp = algcatp.adjunction
    up = algcatp.u
    E = adjp.j.cod
    carrier = compose_functors(alg.carrier, up)
    alpha = {}
    for a in adjp.j.dom.objects:
        for d in alg.domain.objects:
            for f in E.hom(adjp.j.ob(a), carrier.ob(d)):
                phi = adjp.untranspose(a, alg.carrier.ob(d), f)
                alpha[(a, d, f)] = up.mor(alg.ext(a, d, phi))
    Tu = postcompose_along_adjunction(T, adjp)
    return validate_algebra(Tu, carrier, alpha)


def transport_algebra_backward(algcatp: AlgebraCategory, T: RelativeMonad, alg: Algebra) -> Algebra:
    """Rebuild the Alg(T')-valued algebra from a (T ; u_{T'})-algebra."""

    if T.j != algcatp.f:
        raise RootMismatch("monad must be rooted at the free functor of the algebra category")
    adjp = algcatp.adjunction
    up = algcatp.u
    cat = algcatp.category
    E = adjp.j.cod
    A = adjp.j.dom
    D = alg.domain

    on_objects = {}
    for d in D.objects:
        beta = {}
        for b in A.objects:
            for f in E.hom(adjp.j.ob(b), alg.carrier.ob(d)):
                eta_b = up.mor(T.eta(b))           # t' b -> u'(t b)
                beta[(b, "*", f)] = E.comp(eta_b, alg.ext(b, d, f))
        on_objects[d] = algcatp.by_structure.get(_structure(alg.carrier.ob(d), beta))
        if on_objects[d] is None:
            raise ValidationFailure("transport", [Violation("law_fail", ("no_Tprime_algebra", d))])
    on_morphisms = {}
    for k in D.morphism_names():
        i = cat._obj_index[on_objects[D.dom(k)]]
        i2 = cat._obj_index[on_objects[D.cod(k)]]
        mname = f"{i}.{alg.carrier.mor(k)}.{i2}"
        if mname not in cat.morphism_names():
            raise ValidationFailure("transport", [Violation("law_fail", ("carrier_map_not_algebraic", k))])
        on_morphisms[k] = mname
    x = FunctorData(D, cat, on_objects, on_morphisms)

    alpha_bar = {}
    for a in A.objects:
        for d in D.objects:
            for phi in cat.hom(algcatp.f.ob(a), on_objects[d]):
                f = adjp.transpose(a, on_objects[d], phi)      # j a -> e d
                val = alg.ext(a, d, f)                          # u'(t a) -> e d
                # lift val through the faithful u' into Alg(T')(t a, x d)
                src = T.t.ob(a)
                lifts = [m for m in cat.hom(src, on_objects[d]) if up.mor(m) == val]
                if len(lifts) != 1:
                    raise ValidationFailure(
                        "transport", [Violation("law_fail", ("no_unique_lift", a, d, phi))])
                alpha_bar[(a, d, phi)] = lifts[0]
    return validate_algebra(T, x, alpha_bar)


def transport_algebras(Tprime_or_algcat, T: RelativeMonad, direction: str,
                       budget: int = None):
    """Map every enumerated algebra across the bijection, returning pairs.

    The first argument is the base monad T' (its algebra category is built
    on demand) or an already-built AlgebraCategory.
    """

    if isinstance(Tprime_or_algcat, AlgebraCategory):
        algcatp = Tprime_or_algcat
    else:
        algcatp = build_algebra_category(Tprime_or_algcat, budget=budget)
    Tu = postcompose_along_adjunction(T, algcatp.adjunction)
    out = []
    if direction == "forward":
        for alg in enumerate_algebras(T, terminal_category(), budget=budget):
            out.append((alg, transport_algebra_forward(algcatp, T, alg)))
    elif direction == "backward":
        for alg in enumerate_algebras(Tu, terminal_category(), budget=budget):
            out.append((alg, transport_algebra_backward(algcatp, T, alg)))
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return out


def transport_graded_forward(algcatp: AlgebraCategory, T: RelativeMonad,
                             cell: GradedCell) -> dict:
    """Components of the transported graded morphism (postcompose u')."""

    up = algcatp.u
    return {key: up.mor(v) for key, v in cell.components.items()}


def transport_graded_backward(algcatp: AlgebraCategory, T: RelativeMonad,
                              src_alg: Algebra, tgt_alg: Algebra, components: dict) -> dict:
    """Lift graded-morphism components through the faithful u'."""

    cat = algcatp.category
    up = algcatp.u
    out = {}
    for (xs, es), v in components.items():
        src = src_alg.carrier.ob(xs[0])
        tgt = tgt_alg.carrier.ob(xs[-1])
        lifts = [m for m in cat.hom(src, tgt) if up.mor(m) == v]
        if len(lifts) != 1:
            raise ValidationFailure("transport",
                                    [Violation("law_fail", ("graded_lift", xs, es))])
        out[(xs, es)] = lifts[0]
    return out
