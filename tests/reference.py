"""Naive reference searches: product-then-filter, straight from the definitions.

The engine's searches prune as they go; these walk the whole product of
their tables and keep what the law checks accept, in itertools.product
order.  Differential tests compare the engine against them: same list, same
order.
"""

from __future__ import annotations

import itertools

from relmon.algebra import Algebra, _alpha_slice_matches, algebra_violations
from relmon.census import ABSOLUTE_COLIMIT, NO_COLIMIT
from relmon.colim import (
    CreationReport,
    WeightedColimit,
    _factor,
    try_weighted_colimit,
)
from relmon.errors import (
    BudgetExceeded,
    ChainMismatch,
    DownstairsMissing,
    EndpointMismatch,
    NotParallel,
    TheoremViolation,
    Violation,
)
from relmon.fincat import (
    FunctorData,
    NatTransData,
    compose_functors,
    enumerate_functors,
    functor_violations,
    opposite,
    opposite_functor,
)
from relmon.monad import RelativeMonad, budget_limit, monad_violations
from relmon.monadicity import AuditItem
from relmon.prof import (
    MAX_CHAIN,
    Distributor,
    GradedCell,
    _chain_domains,
    _component_keys,
    distributor_violations,
    dual_distributor,
    hom_restriction,
    tensor_set,
)
from relmon.reladj import PastingReport, RelativeAdjunction, _certify_rho, adjunction_violations


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


def product_functors(C, D, ob_ok=None, mor_ok=None) -> list:
    """Every object map times every morphism map C -> D, kept when it is a
    functor (functor_violations) whose images ob_ok(x, d) and mor_ok(f, m)
    accept, identities included; in itertools.product order."""

    names = C.morphism_names()
    out = []
    for obs in itertools.product(D.objects, repeat=len(C.objects)):
        on_ob = dict(zip(C.objects, obs))
        if ob_ok is not None and not all(ob_ok(x, d) for x, d in on_ob.items()):
            continue
        for mors in itertools.product(D.morphism_names(), repeat=len(names)):
            on_mor = dict(zip(names, mors))
            if mor_ok is not None and not all(mor_ok(f, m) for f, m in on_mor.items()):
                continue
            if not functor_violations({"on_objects": on_ob, "on_morphisms": on_mor}, C, D):
                out.append(FunctorData(C, D, on_ob, on_mor))
    return out


# ---------------------------------------------------------------------------
# the product-then-filter searches that the engine ran before its functor,
# natural-transformation and cocone searches moved onto search.Search


def nat_trans_violations(F: FunctorData, G: FunctorData, components: dict) -> list[Violation]:
    D = F.cod
    violations = []
    for x in F.dom.objects:
        c = components.get(x)
        if c is None or c not in D.morphism_names() \
                or D.dom(c) != F.ob(x) or D.cod(c) != G.ob(x):
            violations.append(Violation("not_total", (x,), "bad component"))
    if violations:
        return violations
    for f in F.dom.morphism_names():
        x, y = F.dom.dom(f), F.dom.cod(f)
        if D.comp(F.mor(f), components[y]) != D.comp(components[x], G.mor(f)):
            violations.append(Violation("naturality_fail", (f,)))
    return violations


def find_natural_isomorphism(F, G):
    """First natural transformation F => G with all components invertible."""

    if F.dom != G.dom or F.cod != G.cod:
        return None
    D = F.cod
    xs = F.dom.objects
    candidate_sets = [
        tuple(k for k in D.hom(F.ob(x), G.ob(x)) if D.is_invertible(k)) for x in xs
    ]
    for combo in itertools.product(*candidate_sets):
        components = dict(zip(xs, combo))
        if not nat_trans_violations(F, G, components):
            return NatTransData(F, G, components)
    return None


def enumerate_natural_transformations(F, G) -> list:
    """The complete duplicate-free list, ordered componentwise by morphism order."""

    if F.dom != G.dom or F.cod != G.cod:
        raise NotParallel("source and target functors are not parallel")
    D = F.cod
    xs = F.dom.objects
    candidate_sets = [D.hom(F.ob(x), G.ob(x)) for x in xs]
    out = []
    for combo in itertools.product(*candidate_sets):
        components = dict(zip(xs, combo))
        if not nat_trans_violations(F, G, components):
            out.append(NatTransData(F, G, components))
    return out


def enumerate_cocones(p, f):
    """All p-cocones (w, legs) for f with apex functor into cod f, canonical order."""

    X, Y, W = p.src, p.tgt, f.cod
    out = []
    for w in enumerate_functors(X, W):
        per_x = []
        feasible = True
        for x in X.objects:
            slots = [(y, e) for y in Y.objects for e in p.el(y, x)]
            fams = [dict(zip(slots, combo)) for combo in natural_families(p, x, f, w.ob(x))]
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


def _legs_natural_in_x(p, w, legs: dict, W) -> bool:
    X, Y = p.src, p.tgt
    return all(legs[(y, X.cod(n), p.act_l(n, y, e))] == W.comp(legs[(y, X.dom(n), e)], w.mor(n))
               for n in X.morphism_names() for y in Y.objects for e in p.el(y, X.dom(n)))


def _legs_natural_in_y(p, f, legs: dict, W) -> bool:
    X, Y = p.src, p.tgt
    return all(legs[(Y.dom(m), x, p.act_r(m, x, e))] == W.comp(f.mor(m), legs[(Y.cod(m), x, e)])
               for m in Y.morphism_names() for x in X.objects for e in p.el(Y.cod(m), x))


def strict_colimit_creation(g, p, f, down, up):
    """Strict creation of the one cocone down, up the colimit of f or None:
    the cocones over down, listed product-then-filter, must be exactly one,
    and it must be colimiting."""
    W = g.dom
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
    colimiting = colimiting_test(up)(w.on_objects, legs)
    violations = [] if colimiting else ["unique lift is not colimiting"]
    return CreationReport("strict", "colimit", colimiting, lift_count=1,
                          lifted_apex=dict(w.on_objects), colimiting=colimiting,
                          violations=violations)


def colimiting_test(colim):
    """A test of cocones (apex objects, legs) for colim's weight and diagram:
    is the cocone colimiting?  colim is their colimit, or None when it does
    not exist, and then no cocone is colimiting.

    Since colim is colimiting, at each x the cocone's legs factor through
    colim's legs by exactly one k: colim x -> apex x.  Postcomposition with
    the cocone's legs is then postcomposition with k followed by the
    bijection of colim, so the cocone is colimiting at x iff k is
    invertible (Yoneda).  Raises TheoremViolation when the legs do not
    factor exactly once.
    """

    if colim is None:
        return lambda apex_objects, legs: False
    W = colim.diagram.cod
    at_x = {x: (colim.apex.ob(x), [], []) for x in colim.weight.src.objects}
    for key, leg in colim.legs.items():
        at_x[key[1]][1].append(key)
        at_x[key[1]][2].append(leg)

    def colimiting(apex_objects: dict, legs: dict) -> bool:
        return all(W.inverse(_factor(W, c, apex_objects[x], colim_legs, [legs[key] for key in keys],
                                     "cocone legs must factor once through the colimit")) is not None
                   for x, (c, keys, colim_legs) in at_x.items())

    return colimiting


def nonstrict_colimit_creation(g, p, f, down, up):
    """Non-strict creation by listing every cocone upstairs and testing each
    against both colimits; the engine decides it from the comparison maps."""
    down_colimiting_test = colimiting_test(down)
    up_colimiting_test = colimiting_test(up)
    upstairs_exists = up is not None
    violations = []
    if not upstairs_exists:
        violations.append("upstairs colimit does not exist")

    biconditional_ok = True
    witness = None
    for (w, legs) in enumerate_cocones(p, f):
        down_apex = {x: g.ob(w.ob(x)) for x in p.src.objects}
        down_legs = {key: g.mor(v) for key, v in legs.items()}
        down_colimiting = down_colimiting_test(down_apex, down_legs)
        up_colimiting = up_colimiting_test(w.on_objects, legs)
        if down_colimiting != up_colimiting:
            biconditional_ok = False
            witness = (dict(w.on_objects), down_colimiting, up_colimiting)
            break
    if not biconditional_ok:
        violations.append(f"cocone biconditional fails at apex {witness[0]}")
    passed = upstairs_exists and biconditional_ok
    return CreationReport("nonstrict", "colimit", passed,
                          upstairs_exists=upstairs_exists, violations=violations)


def iso_conjugates(down):
    """Every colimiting cocone of down's weight and diagram: down conjugated
    by a family (i_x) of isomorphisms out of its apex, the apex at x moved to
    cod i_x, each leg followed by i_x and each apex morphism n: x -> x2 sent
    to i_x^-1 ; down(n) ; i_x2.  The identity family comes first, then every
    other family in product order, each i_x in the order of
    [k for c in objects for k in hom(down x, c)]."""

    V, X = down.diagram.cod, down.weight.src
    isos = [[k for c in V.objects for k in V.hom(down.apex.ob(x), c) if V.inverse(k) is not None]
            for x in X.objects]
    identity = tuple(V.id_of(down.apex.ob(x)) for x in X.objects)
    for family in [identity] + [fam for fam in itertools.product(*isos) if fam != identity]:
        i = dict(zip(X.objects, family))
        apex = FunctorData(X, V, {x: V.cod(i[x]) for x in X.objects},
                           {n: V.comp_many(V.inverse(i[X.dom(n)]), down.apex.mor(n), i[X.cod(n)])
                            for n in X.morphism_names()})
        legs = {(y, x, e): V.comp(leg, i[x]) for (y, x, e), leg in down.legs.items()}
        yield WeightedColimit(down.weight, down.diagram, apex, legs)


def every_cocone_strict_creation(g, p, f, down, up):
    """Strict creation as Mac Lane defines it: every colimiting cocone of
    f ; g has exactly one cocone over it, and that one is colimiting.  Runs
    strict_colimit_creation over each of iso_conjugates(down) and reports
    the first failing cocone; when all pass, the identity family's report
    (lift count 1 and the lift over down itself)."""

    first = None
    for cocone in iso_conjugates(down):
        report = strict_colimit_creation(g, p, f, cocone, up)
        if not report.passed:
            return report
        first = first or report
    return first


def check_creation(g, p, f, mode: str = "strict", kind: str = "colimit"):
    """colim.check_creation answered by the references: both (co)limits
    searched afresh, limits in the formal dual, strict creation over every
    colimiting cocone, non-strict creation by listing every cocone."""

    if kind == "limit":
        g_op = opposite_functor(g, opposite(g.dom), opposite(g.cod))
        pd = dual_distributor(p)
        report = check_creation(g_op, pd, opposite_functor(f, pd.tgt, opposite(g.dom)), mode)
        report.kind = "limit"
        return report
    down, failed = try_weighted_colimit(p, compose_functors(f, g))
    if down is None:
        raise DownstairsMissing(f"downstairs colimit missing at {failed!r}")
    up, _ = try_weighted_colimit(p, f)
    if mode == "strict":
        return every_cocone_strict_creation(g, p, f, down, up)
    return nonstrict_colimit_creation(g, p, f, down, up)


def count_resolution_morphisms(adj, algcat) -> int:
    """Functors K' with K' ; u_T = r and l ; K' = f_T, by pruned search."""

    C = adj.apex
    cat = algcat.category
    u, f = algcat.u, algcat.f
    obj_cands = []
    for c in C.objects:
        cands = [o for o in cat.objects if u.ob(o) == adj.right.ob(c)]
        obj_cands.append(cands)
    count = 0
    for combo in itertools.product(*obj_cands):
        on_objects = dict(zip(C.objects, combo))
        ok = all(on_objects[adj.left.ob(a)] == f.ob(a) for a in adj.j.dom.objects)
        if not ok:
            continue
        mor_cands = []
        for k in C.morphism_names():
            cands = [m for m in cat.hom(on_objects[C.dom(k)], on_objects[C.cod(k)])
                     if u.mor(m) == adj.right.mor(k)]
            mor_cands.append((k, cands))
        if any(not cands for _, cands in mor_cands):
            continue
        for mor_combo in itertools.product(*[c for _, c in mor_cands]):
            on_morphisms = dict(zip([k for k, _ in mor_cands], mor_combo))
            cand = FunctorData(C, cat, on_objects, on_morphisms)
            if functor_violations(cand.to_dict(), C, cat):
                continue
            if all(cand.mor(adj.left.mor(h)) == f.mor(h) for h in adj.j.dom.morphism_names()):
                count += 1
    return count


def factorizations(candidate_u, candidate_alpha, alg, M) -> list:
    """Functors F with F ; u = carrier and the candidate extension matching."""

    D = alg.domain
    obj_cands = []
    for d in D.objects:
        cands = [o for o in M.objects
                 if candidate_u.ob(o) == alg.carrier.ob(d)
                 and _alpha_slice_matches(candidate_alpha, o, alg, d)]
        obj_cands.append(cands)
    found = []
    for combo in itertools.product(*obj_cands):
        on_objects = dict(zip(D.objects, combo))
        mor_cands = []
        for k in D.morphism_names():
            cands = [m for m in M.hom(on_objects[D.dom(k)], on_objects[D.cod(k)])
                     if candidate_u.mor(m) == alg.carrier.mor(k)]
            mor_cands.append((k, cands))
        if any(not c for _, c in mor_cands):
            continue
        for mc in itertools.product(*[c for _, c in mor_cands]):
            on_morphisms = dict(zip([k for k, _ in mor_cands], mc))
            F = FunctorData(D, M, on_objects, on_morphisms)
            if not functor_violations(F.to_dict(), D, M):
                found.append(F)
    return found


def concrete_functor(alg_src, alg_tgt):
    """First functor i: Alg_src -> Alg_tgt with i ; u_tgt = u_src."""

    C, D = alg_src.category, alg_tgt.category
    u_src, u_tgt = alg_src.u, alg_tgt.u
    obj_cands = [[o for o in D.objects if u_tgt.ob(o) == u_src.ob(c)] for c in C.objects]
    for combo in itertools.product(*obj_cands):
        on_objects = dict(zip(C.objects, combo))
        mor_cands = []
        for k in C.morphism_names():
            cands = [m for m in D.hom(on_objects[C.dom(k)], on_objects[C.cod(k)])
                     if u_tgt.mor(m) == u_src.mor(k)]
            mor_cands.append((k, cands))
        if any(not c for _, c in mor_cands):
            continue
        for mc in itertools.product(*[c for _, c in mor_cands]):
            F = FunctorData(C, D, on_objects, dict(zip([k for k, _ in mor_cands], mc)))
            if not functor_violations(F.to_dict(), C, D):
                return F
    return None


def unpaste(primary, factor):
    """paste_adjunction(primary, factor, "unpaste"): the inner right adjoint
    r with r ; r' = r~ found by filtering every functor C -> D."""

    if primary.j != factor.j:
        raise EndpointMismatch("outer and factor adjunctions must share the root")
    C = primary.apex
    D = factor.apex
    for r_cand in enumerate_functors(C, D):
        if compose_functors(r_cand, factor.right) != primary.right:
            continue
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


# ---------------------------------------------------------------------------
# the product-then-filter graded-cell search: every table of components,
# kept when graded_cell_violations finds no broken law


def graded_cell_violations(cell: GradedCell) -> list[Violation]:
    chain, f0, fn, q = cell.chain, cell.f0, cell.fn, cell.target
    cats = _chain_domains(chain, f0, fn)
    n = len(chain)
    violations = []
    for (xs, es) in _component_keys(chain, cats):
        val = cell.components.get((xs, es))
        if val is None or val not in q.el(f0.ob(xs[0]), fn.ob(xs[-1])):
            violations.append(Violation("not_total", (xs, es)))
    if violations:
        return violations

    if n == 0:
        D = cats[0]
        for m in D.morphism_names():
            x, x2 = D.dom(m), D.cod(m)
            lhs = q.act_l(fn.mor(m), f0.ob(x), cell.at((x,), ()))
            rhs = q.act_r(f0.mor(m), fn.ob(x2), cell.at((x2,), ()))
            if lhs != rhs:
                violations.append(Violation("naturality_fail", (m,)))
        return violations

    for (xs, es) in _component_keys(chain, cats):
        val = cell.at(xs, es)
        # outer contravariant variable x_0
        for m in cats[0].morphism_names():
            if cats[0].cod(m) != xs[0]:
                continue
            xs2 = (cats[0].dom(m),) + xs[1:]
            es2 = (chain[0].act_r(m, xs[1], es[0]),) + es[1:]
            if cell.at(xs2, es2) != q.act_r(f0.mor(m), fn.ob(xs[-1]), val):
                violations.append(Violation("naturality_fail", ("x0", m, xs, es)))
        # outer covariant variable x_n
        for m in cats[n].morphism_names():
            if cats[n].dom(m) != xs[n]:
                continue
            xs2 = xs[:n] + (cats[n].cod(m),)
            es2 = es[:n - 1] + (chain[n - 1].act_l(m, xs[n - 1], es[n - 1]),)
            if cell.at(xs2, es2) != q.act_l(fn.mor(m), f0.ob(xs[0]), val):
                violations.append(Violation("naturality_fail", ("xn", m, xs, es)))
        # inner dinaturality
        for i in range(1, n):
            for m in cats[i].morphism_names():
                if cats[i].dom(m) != xs[i] or cats[i].is_identity(m):
                    continue
                xs2 = xs[:i] + (cats[i].cod(m),) + xs[i + 1:]
                # left side: push e_i forward along m; e_{i+1} must live at cod m
                for e_next in chain[i].el(cats[i].cod(m), xs[i + 1]):
                    es_l = es[:i - 1] + (chain[i - 1].act_l(m, xs[i - 1], es[i - 1]), e_next) + es[i + 1:]
                    es_r = es[:i] + (chain[i].act_r(m, xs[i + 1], e_next),) + es[i + 1:]
                    if cell.at(xs2, es_l) != cell.at(xs, es_r):
                        violations.append(Violation("naturality_fail", (f"x{i}", m, xs, es)))
    return violations


def enumerate_graded_cells(chain, f0: FunctorData, fn: FunctorData, q: Distributor,
                           max_n: int = MAX_CHAIN, budget: int = 1_000_000):
    """Complete list of natural families over the chain, in canonical order."""

    if len(chain) > max_n:
        raise ChainMismatch(f"chains longer than {max_n} are not supported")
    cats = _chain_domains(chain, f0, fn)
    keys = _component_keys(chain, cats)
    candidate_sets = [q.el(f0.ob(xs[0]), fn.ob(xs[-1])) for (xs, es) in keys]
    total = 1
    for cs in candidate_sets:
        total *= max(len(cs), 1)
        if total > budget:
            raise BudgetExceeded("graded cell enumeration", total, budget)
        if not cs:
            return []
    out = []
    for combo in itertools.product(*candidate_sets):
        cell = GradedCell(chain, f0, fn, q, dict(zip(keys, combo)))
        if not graded_cell_violations(cell):
            out.append(cell)
    return out


# ---------------------------------------------------------------------------
# absoluteness per call, as the engine decided it before it kept answers per
# column in the run's store


def is_j_absolute(j: FunctorData, colim):
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


# ---------------------------------------------------------------------------
# the product-then-filter distributor census


def enumerate_distributors(X, Y, element_cap: int, budget: int = 200_000) -> list:
    """Every element table with component sizes <= element_cap, times every
    right-action table, times every left-action table, kept when
    distributor_violations finds no broken law; in itertools.product order.

    Raises BudgetExceeded where prof.enumerate_distributors does: when the
    size choices exceed the budget, or when, for one choice of sizes, the
    product of the action tables' slot sizes does, walked slot by slot up
    to the first empty slot.
    """

    comps = [(y, x) for y in Y.objects for x in X.objects]
    size_choices = (element_cap + 1) ** len(comps)
    if size_choices > budget:
        raise BudgetExceeded("distributor census", size_choices, budget)
    out = []
    for sizes in itertools.product(range(element_cap + 1), repeat=len(comps)):
        elements = {comp: tuple(f"e{i}" for i in range(k)) for comp, k in zip(comps, sizes)}
        right_slots = [((m, x, e), elements[(Y.dom(m), x)])
                       for m in Y.morphism_names() if not Y.is_identity(m)
                       for x in X.objects for e in elements[(Y.cod(m), x)]]
        left_slots = [((n, y, e), elements[(y, X.cod(n))])
                      for n in X.morphism_names() if not X.is_identity(n)
                      for y in Y.objects for e in elements[(y, X.dom(n))]]
        space = 1
        for _, targets in right_slots + left_slots:
            if not targets:
                break
            space *= len(targets)
            if space > budget:
                raise BudgetExceeded("distributor census", space, budget)
        for combo in itertools.product(*[targets for _, targets in right_slots + left_slots]):
            right = {key: v for (key, _), v in zip(right_slots, combo)}
            left = {key: v for (key, _), v in zip(left_slots, combo[len(right_slots):])}
            p = Distributor(X, Y, elements, right, left)
            if not distributor_violations(p):
                out.append(p)
    return out


# ---------------------------------------------------------------------------
# the census loops, one question per labelled weight


def audit_items(census, j, r, shape_family, element_cap: int, budget: int) -> tuple:
    """(items, downstairs colimits) of monadicity.creation_audit's census
    loop, by a plain loop that asks census about every labelled weight of
    every list and every diagram into dom r: each j-absolute colimit gives
    an item with its strict and non-strict creation verdicts by r."""

    items, tested = [], 0
    for X in shape_family:
        for Y in shape_family:
            try:
                weights = census.weights(X, Y, element_cap, budget)
            except BudgetExceeded:
                continue
            for w in weights:
                for d in census.diagrams(Y, r):
                    verdict = census.colimit(j, w, d)
                    tested += verdict != NO_COLIMIT
                    if verdict == ABSOLUTE_COLIMIT:
                        items.append(AuditItem((X.name, Y.name), w.index, dict(d.f.on_objects), "colimit", True,
                                               *(census.creation(r, w, d, "colimit", mode)
                                                 for mode in ("strict", "nonstrict"))))
    return items, tested


def forgetful_creates(ctx) -> tuple:
    """(checked, details) of the suite's forgetful_creates, by a plain loop
    that asks ctx.census about every labelled weight of every list: for each
    j-absolute colimit and each limit at the weight, strict then non-strict
    creation by the forgetful functor."""

    census = ctx.census
    checked, details = 0, []
    for inst, role, T in ctx.monad_entries():
        u = ctx.algcat(T).u
        diagrams = {Z: census.diagrams(Z, u) for Z in ctx.shape_family}
        for X in ctx.shape_family:
            for Y in ctx.shape_family:
                try:
                    weights = census.weights(X, Y, ctx.element_cap, ctx.budget)
                except BudgetExceeded:
                    continue
                for w in weights:
                    items = [("colimit", d) for d in diagrams[Y]
                             if census.colimit(T.j, w, d) == ABSOLUTE_COLIMIT]
                    items += [("limit", d) for d in diagrams[X] if census.limit(w, d)]
                    for kind, d in items:
                        for mode in ("strict", "nonstrict"):
                            checked += 1
                            if not census.creation(u, w, d, kind, mode):
                                details.append(
                                    f"{inst.name}/{role}: {mode} {kind} creation fails "
                                    f"(weight {X.name}->{Y.name}, diagram {dict(d.f.on_objects)})")
    return checked, details
