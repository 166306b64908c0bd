"""Per-theorem cross-validators run over the corpus.

Each check returns one row of the pass/fail matrix.  Checks are bounded by
the shape family and element cap they are handed; a check that skips work
says why in its details.
"""

from __future__ import annotations

import itertools

from .algebra import (
    build_algebra_category,
    enumerate_algebras,
    graded_algebra_morphisms,
    transport_algebra_backward,
    transport_algebra_forward,
    transport_algebras,
    transport_graded_backward,
    transport_graded_forward,
    verify_algebra_object,
)
from .census import ABSOLUTE_COLIMIT, DownstairsCensus
from .colim import (
    check_creation,
    cocone_is_colimiting,
    is_dense,
    is_j_absolute,
    try_weighted_colimit,
    try_weighted_limit,
)
from .corpus import Instance, terminal_category, validate_instance
from .errors import BudgetExceeded, DownstairsMissing, PremiseFail, TheoremViolation
from .fincat import (
    FunctorData,
    classify_functor,
    compose_functors,
    enumerate_functors,
    functor_violations,
    identity_functor,
    opposite,
    opposite_functor,
)
from .monad import enumerate_relative_monads, monad_from_adjunction, trivial_relative_monad
from .prof import enumerate_distributors
from .reladj import find_left_relative_adjoint
from .monadicity import (
    AuditReport,
    MonadicityReport,
    SuiteReport,
    SuiteResult,
    creation_audit,
    decide_monadicity,
    decide_composite_monadicity,
)


class _Context:
    """Shared lazily-built state for one suite run.

    census holds the downstairs (co)limit verdicts that forgetful_creates,
    monadicity_crosscheck and density_necessity all ask for; it lives and
    dies with the run.
    """

    def __init__(self, instances, shape_family, element_cap, budget):
        self.instances = instances
        self.shape_family = shape_family
        self.element_cap = element_cap
        self.budget = budget
        self.census = DownstairsCensus()
        self._algcats = {}
        self._decisions = {}

    def monad_entries(self):
        """(instance, role, monad) triples in canonical order."""
        out = []
        for inst in self.instances:
            for role in sorted(inst.monads):
                out.append((inst, role, inst.monads[role]))
        return out

    def algcat(self, inst, role):
        key = (inst.name, role)
        if key not in self._algcats:
            self._algcats[key] = build_algebra_category(inst.monads[role], budget=self.budget)
        return self._algcats[key]

    def decision(self, j, r, mode):
        key = (id(j), id(r), mode)
        if key not in self._decisions:
            self._decisions[key] = decide_monadicity(j, r, mode, budget=self.budget)
        return self._decisions[key]

    def root_pairs(self):
        """(instance, j, candidate role, r) for every root instance."""
        out = []
        for inst in self.instances:
            root_role = inst.roles.get("root")
            if root_role is None:
                continue
            j = inst.functors[root_role]
            for role in inst.roles.get("candidates", []):
                out.append((inst, j, role, inst.functors[role]))
        return out


def run_all_checks(instances, shape_family, element_cap, budget) -> SuiteReport:
    ctx = _Context(instances, shape_family, element_cap, budget)
    report = SuiteReport()
    for inst in instances:
        report.input_errors.extend(validate_instance(inst))
    if report.input_errors:
        return report
    checks = [
        _check_resolution_property,
        _check_forgetful_conservative,
        _check_forgetful_creates,
        _check_preservation_conservativity,
        _check_algebra_object_up,
        _check_monadicity_crosscheck,
        _check_degenerate_root,
        _check_density_necessity,
        _check_pasting_composite,
        _check_cancellability,
        _check_algebraic_tight_cells,
        _check_transport_bijection,
        _check_duality_involution,
    ]
    for check in checks:
        report.results.append(check(ctx))
    return report


# ---------------------------------------------------------------------------


def _check_resolution_property(ctx) -> SuiteResult:
    """Every resolution induces its monad; terminal resolutions recover it."""

    details = []
    checked = 0
    for inst, role, T in ctx.monad_entries():
        algcat = ctx.algcat(inst, role)
        checked += 1
        recovered = monad_from_adjunction(algcat.adjunction)
        if recovered.table() != T.table() or recovered.t != T.t:
            details.append(f"{inst.name}/{role}: terminal resolution does not recover the monad")
    for inst, j, rrole, r in ctx.root_pairs():
        adj = find_left_relative_adjoint(j, r)
        if adj is None:
            continue
        checked += 1
        try:
            monad_from_adjunction(adj)
        except Exception as exc:
            details.append(f"{inst.name}/{rrole}: induced monad invalid: {exc}")
    for inst in ctx.instances:
        for role in sorted(inst.adjunctions):
            checked += 1
            try:
                monad_from_adjunction(inst.adjunctions[role])
            except Exception as exc:
                details.append(f"{inst.name}/{role}: induced monad invalid: {exc}")
    return SuiteResult("resolution_property", not details, checked, details)


def _check_forgetful_conservative(ctx) -> SuiteResult:
    details = []
    checked = 0
    for inst, role, T in ctx.monad_entries():
        algcat = ctx.algcat(inst, role)
        checked += 1
        if not classify_functor(algcat.u).conservative:
            details.append(f"{inst.name}/{role}: forgetful functor is not conservative")
    return SuiteResult("forgetful_conservative", not details, checked, details)


def _creation_items(ctx, j, u):
    """Audited (kind, p, weight index, diagram) items for the forgetful functor u."""

    census, cap = ctx.census, ctx.element_cap
    diagrams = {Z: census.diagrams(Z, u) for Z in ctx.shape_family}
    for X in ctx.shape_family:
        for Y in ctx.shape_family:
            try:
                weights = enumerate_distributors(X, Y, cap, budget=ctx.budget)
            except BudgetExceeded:
                continue
            for widx, p in enumerate(weights):
                for diagram in diagrams[Y]:
                    if census.colimit(j, p, widx, diagram, cap) == ABSOLUTE_COLIMIT:
                        yield ("colimit", p, widx, diagram)
                for diagram in diagrams[X]:
                    if census.limit(p, widx, diagram, cap):
                        yield ("limit", p, widx, diagram)


def _check_forgetful_creates(ctx) -> SuiteResult:
    """Strict and non-strict creation of limits and j-absolute colimits by u_T."""

    details = []
    checked = 0
    for inst, role, T in ctx.monad_entries():
        u = ctx.algcat(inst, role).u
        for kind, p, widx, diagram in _creation_items(ctx, T.j, u):
            for mode in ("strict", "nonstrict"):
                checked += 1
                if not ctx.census.creation(u, p, widx, diagram, ctx.element_cap, kind, mode):
                    details.append(
                        f"{inst.name}/{role}: {mode} {kind} creation fails "
                        f"(weight {p.src.name}->{p.tgt.name}, diagram {dict(diagram.f.on_objects)})")
    return SuiteResult("forgetful_creates", not details, checked, details)


def _check_preservation_conservativity(ctx) -> SuiteResult:
    """Preservation plus conservativity implies non-strict creation."""

    details = []
    checked = 0
    cap = min(ctx.element_cap, 1)
    gs = []
    for inst, role, T in ctx.monad_entries():
        algcat = ctx.algcat(inst, role)
        gs.append((f"{inst.name}/{role}", algcat.u))
    for label, g in gs:
        if not classify_functor(g).conservative:
            continue
        W = g.dom
        for X in ctx.shape_family[:2]:
            for Y in ctx.shape_family[:2]:
                try:
                    weights = enumerate_distributors(X, Y, cap, budget=ctx.budget)
                except BudgetExceeded:
                    continue
                for p in weights:
                    for f in enumerate_functors(Y, W):
                        up, _ = try_weighted_colimit(p, f)
                        if up is None:
                            continue
                        image_legs = {key: g.mor(v) for key, v in up.legs.items()}
                        preserved = cocone_is_colimiting(
                            p, compose_functors(f, g), compose_functors(up.apex, g), image_legs)
                        if not preserved:
                            continue
                        checked += 1
                        rep = check_creation(g, p, f, mode="nonstrict", kind="colimit")
                        if not rep.passed:
                            details.append(f"{label}: preserved colimit not non-strictly created")
    return SuiteResult("preservation_conservativity", not details, checked, details)


def _check_algebra_object_up(ctx) -> SuiteResult:
    from .corpus import interval_category
    shapes = [terminal_category(), interval_category()]
    details = []
    checked = 0
    for inst, role, T in ctx.monad_entries():
        algcat = ctx.algcat(inst, role)
        checked += 1
        rep = verify_algebra_object(algcat.u, algcat.alpha_T, T, shapes,
                                    grade_bound=1, element_cap=1, budget=ctx.budget)
        if not rep.passed:
            details.append(f"{inst.name}/{role}: universal property fails: "
                           f"{rep.clause1_failures or rep.clause2_failures}")
    return SuiteResult("algebra_object_up", not details, checked, details)


def _check_monadicity_crosscheck(ctx) -> SuiteResult:
    """The relative monadicity theorem as a falsification harness."""

    details = []
    checked = 0
    for inst, j, rrole, r in ctx.root_pairs():
        dense, _ = is_dense(j)
        if not dense:
            continue
        reports = {
            "strict": ctx.decision(j, r, "strict"),
            "nonstrict": ctx.decision(j, r, "nonstrict"),
        }
        audit = creation_audit(j, r, ctx.shape_family, ctx.element_cap,
                               budget=ctx.budget, reports=reports, census=ctx.census)
        checked += 1
        if audit.vacuous:
            continue
        if audit.discrepancies:
            details.append(f"{inst.name}/{rrole}: {audit.discrepancies}")
        for mode in ("strict", "nonstrict"):
            rep = reports[mode]
            if rep.verdict:
                if audit.targeted_extension_is_forgetful is False:
                    details.append(f"{inst.name}/{rrole}: targeted extension mismatch ({mode})")
                if audit.retraction_identity is False:
                    details.append(f"{inst.name}/{rrole}: retraction mismatch ({mode})")
    return SuiteResult("monadicity_crosscheck", not details, checked, details)


def _check_degenerate_root(ctx) -> SuiteResult:
    """Over an empty root: strictly monadic iff isomorphism (equivalence
    for the non-strict reading)."""

    details = []
    checked = 0
    for inst, j, rrole, r in ctx.root_pairs():
        if j.dom.objects:
            continue
        cl = classify_functor(r)
        strict = ctx.decision(j, r, "strict")
        nonstrict = ctx.decision(j, r, "nonstrict")
        checked += 1
        if strict.verdict != cl.is_iso:
            details.append(f"{inst.name}/{rrole}: strict verdict {strict.verdict} vs iso {cl.is_iso}")
        if nonstrict.verdict != cl.is_equivalence:
            details.append(
                f"{inst.name}/{rrole}: nonstrict verdict {nonstrict.verdict} "
                f"vs equivalence {cl.is_equivalence}")
    return SuiteResult("degenerate_root", not details, checked, details)


def _check_density_necessity(ctx) -> SuiteResult:
    """The documented counterexample: a non-dense empty root admits a
    non-invertible functor that passes every audited creation check."""

    details = []
    checked = 0
    for inst, j, rrole, r in ctx.root_pairs():
        if j.dom.objects:
            continue
        dense, _ = is_dense(j)
        if dense:
            continue
        cl = classify_functor(r)
        if cl.is_iso:
            continue
        checked += 1
        strict = ctx.decision(j, r, "strict")
        if strict.verdict:
            details.append(f"{inst.name}/{rrole}: non-iso over empty root decided monadic")
        audit = creation_audit(j, r, ctx.shape_family, ctx.element_cap,
                               budget=ctx.budget,
                               reports={"strict": strict,
                                        "nonstrict": ctx.decision(j, r, "nonstrict")},
                               census=ctx.census)
        if audit.discrepancies:
            details.append(f"{inst.name}/{rrole}: counterexample recorded as discrepancy")
    passed = not details
    if checked == 0:
        details = ["skipped: no non-dense empty-root exhibit in this corpus"]
    return SuiteResult("density_necessity", passed, checked, details)


def _composite_triples(ctx):
    """(label, j, r', r) with r' strictly j-monadic, in canonical order."""

    triples = []
    for inst, role, T in ctx.monad_entries():
        dense, _ = is_dense(T.j)
        if not dense:
            continue
        algcat = ctx.algcat(inst, role)
        D = algcat.category
        triples.append((f"{inst.name}/{role}/id", T.j, algcat.u, identity_functor(D)))
        try:
            monads_s = enumerate_relative_monads(algcat.f, budget=ctx.budget)
        except BudgetExceeded:
            monads_s = []
        if monads_s:
            S = monads_s[0]
            algcat_s = build_algebra_category(S, budget=ctx.budget)
            triples.append((f"{inst.name}/{role}/uS", T.j, algcat.u, algcat_s.u))
        if inst.name == "point_bz2" and role == "T0":
            from .corpus import indisc2_category
            I = indisc2_category()
            obj = D.objects[0]
            const = FunctorData(I, D, {o: obj for o in I.objects},
                                {m: D.id_of(obj) for m in I.morphism_names()})
            triples.append((f"{inst.name}/{role}/noadjoint", T.j, algcat.u, const))
    for inst, j, rrole, r in ctx.root_pairs():
        if j.dom.objects or not classify_functor(r).is_iso:
            continue
        triples.append((f"{inst.name}/{rrole}/emptyroot", j, r, identity_functor(r.dom)))
        break
    return triples


def _check_pasting_composite(ctx) -> SuiteResult:
    details = []
    checked = 0
    for label, j, rprime, r in _composite_triples(ctx):
        for mode in ("strict", "nonstrict"):
            try:
                rep = decide_composite_monadicity(j, rprime, r, mode, budget=ctx.budget)
            except PremiseFail:
                continue
            except TheoremViolation as exc:
                details.append(f"{label} ({mode}): {exc}")
                continue
            checked += 1
            if not rep.biconditional:
                details.append(f"{label} ({mode}): biconditional is false")
    passed = not details
    if checked < 5:
        details.append(f"note: only {checked} composite triples in this corpus")
    return SuiteResult("pasting_composite", passed, checked, details)


def _check_cancellability(ctx) -> SuiteResult:
    """If r' and r;r' are monadic and r has a left adjoint, r is monadic."""

    details = []
    checked = 0
    for label, j, rprime, r in _composite_triples(ctx):
        if j.dom != j.cod or j != identity_functor(j.cod):
            continue
        D = rprime.dom
        C = r.dom
        one_D = identity_functor(D)
        one_C = identity_functor(C)
        if not ctx.decision(j, rprime, "strict").verdict:
            continue
        composite = compose_functors(r, rprime)
        if not decide_monadicity(j, composite, "strict", budget=ctx.budget).verdict:
            continue
        if find_left_relative_adjoint(one_D, r) is None:
            continue
        checked += 1
        if not decide_monadicity(one_D, r, "strict", budget=ctx.budget).verdict:
            details.append(f"{label}: cancellability fails")
    return SuiteResult("cancellability", not details, checked, details)


def _check_algebraic_tight_cells(ctx) -> SuiteResult:
    """Concrete functors between algebra categories create limits and the
    colimits sent to j-absolute ones, and are monadic iff left-adjointable."""

    details = []
    checked = 0
    by_instance: dict = {}
    for inst, role, T in ctx.monad_entries():
        by_instance.setdefault(inst.name, []).append((inst, role, T))
    for name in sorted(by_instance):
        entries = by_instance[name]
        for (inst_a, role_a, T_a) in entries:
            for (inst_b, role_b, T_b) in entries:
                if T_a.j != T_b.j:
                    continue
                dense, _ = is_dense(T_a.j)
                if not dense:
                    continue
                alg_a = ctx.algcat(inst_a, role_a)
                alg_b = ctx.algcat(inst_b, role_b)
                i = _concrete_functor(alg_b, alg_a)
                if i is None:
                    continue
                checked += 1
                one = identity_functor(alg_a.category)
                has_adjoint = find_left_relative_adjoint(one, i) is not None
                monadic = decide_monadicity(one, i, "strict", budget=ctx.budget).verdict
                if has_adjoint != monadic:
                    details.append(f"{name}:{role_b}->{role_a}: monadic {monadic} "
                                   f"vs adjoint {has_adjoint}")
                bad = _algebraic_creation_sample(ctx, T_a.j, alg_a.u, i)
                details.extend(f"{name}:{role_b}->{role_a}: {b}" for b in bad)
    passed = not details
    if checked == 0:
        details = ["skipped: no commuting triangle of algebra categories in this corpus"]
    return SuiteResult("algebraic_tight_cells", passed, checked, details)


def _concrete_functor(alg_src, alg_tgt):
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


def _algebraic_creation_sample(ctx, j, r, i):
    """Creation checks for i over Terminal-shaped weights (bounded sample)."""

    out = []
    Tm = terminal_category()
    D_src = i.dom
    try:
        weights = enumerate_distributors(Tm, Tm, min(ctx.element_cap, 1), budget=ctx.budget)
    except BudgetExceeded:
        return out
    for p in weights:
        for f in enumerate_functors(Tm, D_src):
            down, _ = try_weighted_colimit(p, compose_functors(f, i))
            if down is None:
                continue
            image = compose_functors(down.apex, r)
            image_legs = {key: r.mor(v) for key, v in down.legs.items()}
            if not cocone_is_colimiting(p, compose_functors(f, compose_functors(i, r)),
                                        image, image_legs):
                continue
            absolute, _ = is_j_absolute(j, try_weighted_colimit(
                p, compose_functors(f, compose_functors(i, r)))[0])
            if not absolute:
                continue
            rep = check_creation(i, p, f, mode="nonstrict", kind="colimit")
            if not rep.passed:
                out.append("colimit sent to j-absolute not non-strictly created")
        for g in enumerate_functors(Tm, D_src):
            down, _ = try_weighted_limit(p, compose_functors(g, i))
            if down is None:
                continue
            rep = check_creation(i, p, g, mode="nonstrict", kind="limit")
            if not rep.passed:
                out.append("limit not non-strictly created")
    return out


def _check_transport_bijection(ctx) -> SuiteResult:
    details = []
    checked = 0
    for inst, role, Tp in ctx.monad_entries():
        algcatp = ctx.algcat(inst, role)
        T = trivial_relative_monad(algcatp.f)
        try:
            pairs = transport_algebras(algcatp, T, "forward", budget=ctx.budget)
        except BudgetExceeded:
            continue
        checked += 1
        image_of = {}
        for alg, image in pairs:
            image_of[alg.table()] = image
            if transport_algebra_backward(algcatp, T, image).table() != alg.table():
                details.append(f"{inst.name}/{role}: forward/backward round trip broken")
        back_pairs = transport_algebras(algcatp, T, "backward", budget=ctx.budget)
        for alg, image in back_pairs:
            if transport_algebra_forward(algcatp, T, image).table() != alg.table():
                details.append(f"{inst.name}/{role}: backward/forward round trip broken")

        # graded morphisms up to grade 1: postcomposition must be a bijection
        # onto the graded morphisms of the transported algebras
        algs = enumerate_algebras(T, terminal_category(), budget=ctx.budget)
        Tm = terminal_category()
        try:
            weights = enumerate_distributors(Tm, Tm, 1, budget=ctx.budget)
        except BudgetExceeded:
            weights = []
        for chain in [[]] + [[p] for p in weights]:
            for a1 in algs:
                for a2 in algs:
                    up_cells = graded_algebra_morphisms(a1, a2, chain)
                    down_cells = graded_algebra_morphisms(
                        image_of[a1.table()], image_of[a2.table()], chain)
                    forwarded = [
                        tuple(sorted(transport_graded_forward(algcatp, T, c).items()))
                        for c in up_cells
                    ]
                    target = {tuple(sorted(c.components.items())) for c in down_cells}
                    if len(set(forwarded)) != len(forwarded) or set(forwarded) != target:
                        details.append(
                            f"{inst.name}/{role}: graded transport not bijective (n={len(chain)})")
                    for cell in up_cells:
                        down = transport_graded_forward(algcatp, T, cell)
                        up = transport_graded_backward(algcatp, T, a1, a2, down)
                        if up != cell.components:
                            details.append(f"{inst.name}/{role}: graded round trip broken")
    passed = not details
    if checked < 3:
        details.append(f"note: only {checked} transport instances in this corpus")
    return SuiteResult("transport_bijection", passed, checked, details)


def _check_duality_involution(ctx) -> SuiteResult:
    """co=True on dualized inputs must reproduce the direct verdicts."""

    details = []
    checked = 0
    for inst, j, rrole, r in ctx.root_pairs():
        j_op = opposite_functor(j, opposite(j.dom), opposite(j.cod))
        r_op = opposite_functor(r, opposite(r.dom), opposite(r.cod))
        for mode in ("strict", "nonstrict"):
            direct = ctx.decision(j, r, mode)
            co = decide_monadicity(j_op, r_op, mode, co=True, budget=ctx.budget)
            checked += 1
            if direct.verdict != co.verdict:
                details.append(f"{inst.name}/{rrole} ({mode}): duality involution broken")
    return SuiteResult("duality_involution", not details, checked, details)
