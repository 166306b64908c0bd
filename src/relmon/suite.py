"""Per-theorem cross-validators run over the corpus.

Each check returns one row of the pass/fail matrix.  Checks are bounded by
the shape family and element cap they are handed; a check that skips work
says why in its details.
"""

from __future__ import annotations

import functools

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
from .census import DownstairsCensus, bits
from .colim import is_dense
from .corpus import indisc2_category, interval_category, terminal_category, validate_instance
from .errors import BudgetExceeded, PremiseFail, TheoremViolation, ValidationFailure
from .fincat import (
    FunctorData,
    classify_functor,
    compose_functors,
    enumerate_functors,
    identity_functor,
    opposite,
    opposite_functor,
)
from .monad import enumerate_relative_monads, monad_from_adjunction, trivial_relative_monad
from .prof import enumerate_distributors
from .monadicity import (
    MODES,
    SuiteReport,
    SuiteResult,
    composite_monadicity,
    creation_audit,
    resolve_monadicity,
)


class _Context:
    """Shared lazily-built state for one suite run.

    census holds the (co)limits and creation verdicts that
    forgetful_creates, preservation_conservativity, monadicity_crosscheck,
    density_necessity and algebraic_tight_cells ask for; one resolution per
    (j, r, co) serves every monadicity decision in both modes.  algcat and
    dense build each algebra category once per monad (by content and name)
    and each density verdict once per root, for the checks and the
    resolutions alike.  All live and die with the run.
    """

    def __init__(self, instances, shape_family, element_cap, budget):
        self.instances = instances
        self.shape_family = shape_family
        self.element_cap = element_cap
        self.budget = budget
        self.census = DownstairsCensus()
        self._algcats = {}
        self._dense = {}
        self._resolutions = {}

    def monad_entries(self):
        """(instance, role, monad) triples in canonical order."""
        out = []
        for inst in self.instances:
            for role in sorted(inst.monads):
                out.append((inst, role, inst.monads[role]))
        return out

    def algcat(self, T):
        """build_algebra_category(T), keyed by T's content and name, which names the category."""
        key = (T.j, T.t, T.table(), T.name)
        if key not in self._algcats:
            self._algcats[key] = build_algebra_category(T, budget=self.budget)
        return self._algcats[key]

    def dense(self, j) -> bool:
        """is_dense(j)'s verdict, once per root by content."""
        if j not in self._dense:
            self._dense[j] = is_dense(j)[0]
        return self._dense[j]

    def resolution(self, j, r, co=False):
        """resolve_monadicity(j, r, co), keyed by the inputs as given, not dualized."""
        key = (j, r, co)
        if key not in self._resolutions:
            self._resolutions[key] = resolve_monadicity(j, r, co, budget=self.budget, run=self)
        return self._resolutions[key]

    def decision(self, j, r, mode, co=False):
        return self.resolution(j, r, co).report(mode)

    composite_triples = functools.cached_property(lambda self: _composite_triples(self))

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
        algcat = ctx.algcat(T)
        checked += 1
        recovered = monad_from_adjunction(algcat.adjunction)
        if recovered.table() != T.table() or recovered.t != T.t:
            details.append(f"{inst.name}/{role}: terminal resolution does not recover the monad")
    for inst, j, rrole, r in ctx.root_pairs():
        # the resolution induces the monad of the adjunction it finds
        try:
            if ctx.resolution(j, r).adjunction is None:
                continue
        except ValidationFailure as exc:
            details.append(f"{inst.name}/{rrole}: induced monad invalid: {exc}")
        checked += 1
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
        algcat = ctx.algcat(T)
        checked += 1
        if not classify_functor(algcat.u).conservative:
            details.append(f"{inst.name}/{role}: forgetful functor is not conservative")
    return SuiteResult("forgetful_conservative", not details, checked, details)


def _check_forgetful_creates(ctx) -> SuiteResult:
    """Strict and non-strict creation of limits and j-absolute colimits by
    u_T.  Each question kind is asked once per weight list, about the first
    member of each class; each class's checks count once per member, and
    its details are repeated for each member in list order."""

    details, skipped = [], {}
    checked = 0
    census = ctx.census
    for inst, role, T in ctx.monad_entries():
        u = ctx.algcat(T).u
        diagrams = {Z: census.diagrams(Z, u) for Z in ctx.shape_family}
        for X in ctx.shape_family:
            for Y in ctx.shape_family:
                try:
                    _, firsts, of, sizes = census.weight_classes(X, Y, ctx.element_cap, ctx.budget)
                except BudgetExceeded:
                    skipped[f"{X.name}->{Y.name}"] = "weight census over budget"
                    continue
                colimits, limits = diagrams[Y], diagrams[X]
                absolute = [a for _, a in census.colimits(T.j, colimits, [(w, colimits.every) for w in firsts])]
                asked = (("colimit", colimits, absolute),
                         ("limit", limits, census.limits(limits, [(w, limits.every) for w in firsts])))
                created = [census.creations(u, ds, list(zip(firsts, masks)), kind) for kind, ds, masks in asked]
                checked += 2 * sum(masks[k].bit_count() * n for _, _, masks in asked for k, n in enumerate(sizes))
                failures = [[f"{inst.name}/{role}: {mode} {kind} creation fails "
                             f"(weight {X.name}->{Y.name}, diagram {dict(ds[i].f.on_objects)})"
                             for (kind, ds, masks), answers in zip(asked, created)
                             for i in bits(masks[k] & ~(answers[k][0] & answers[k][1]))
                             for mode, passed in zip(("strict", "nonstrict"), answers[k]) if not passed >> i & 1]
                            for k in range(len(firsts))]
                if any(failures):
                    details += [bad for k in of for bad in failures[k]]
    return SuiteResult("forgetful_creates", not details, checked, details, skipped)


def _check_preservation_conservativity(ctx) -> SuiteResult:
    """Preservation plus conservativity implies non-strict creation."""

    details, skipped = [], {}
    checked = 0
    census = ctx.census
    shapes = ctx.shape_family[:2]
    for inst, role, T in ctx.monad_entries():
        g = ctx.algcat(T).u
        if not classify_functor(g).conservative:
            continue
        diagrams = {Y: census.diagrams(Y, g) for Y in shapes}
        for X in shapes:
            for Y in shapes:
                firsts, _, sizes = _small_weights(ctx, X, Y, skipped)
                preserved = census.preserved(g, diagrams[Y], [(w, diagrams[Y].every) for w in firsts])
                created = census.creations(g, diagrams[Y], list(zip(firsts, preserved)), "colimit")
                checked += sum(found.bit_count() * n for found, n in zip(preserved, sizes))
                details += sum((found & ~nonstrict).bit_count() * n for found, (_, nonstrict), n in zip(
                    preserved, created, sizes)) * [f"{inst.name}/{role}: preserved colimit not non-strictly created"]
    return SuiteResult("preservation_conservativity", not details, checked, details, skipped)


def _small_weights(ctx, X, Y, skipped):
    """class_representatives of the weights X -|-> Y with at most one element per component,
    a class test, from the census's list at the suite's element cap, whose rows
    forgetful_creates has filled, or at cap 1 when that list is over budget, or none when
    that one is too; skipped records either case.  Both lists order the small weights alike."""

    try:
        _, firsts, of, sizes = ctx.census.weight_classes(X, Y, ctx.element_cap, ctx.budget)
    except BudgetExceeded:
        try:
            _, firsts, of, sizes = ctx.census.weight_classes(X, Y, min(ctx.element_cap, 1), ctx.budget)
        except BudgetExceeded:
            skipped[f"{X.name}->{Y.name}"] = "weight census over budget"
            return [], [], []
        skipped[f"{X.name}->{Y.name}"] = "weight census over budget; small weights read from the cap-1 list"
    index = {k: i for i, k in enumerate(k for k, w in enumerate(firsts) if all(
        len(w.p.el(y, x)) <= 1 for y in Y.objects for x in X.objects))}
    return [firsts[k] for k in index], [index[k] for k in of if k in index], [sizes[k] for k in index]


def _check_algebra_object_up(ctx) -> SuiteResult:
    shapes = [terminal_category(), interval_category()]
    details = []
    checked = 0
    for inst, role, T in ctx.monad_entries():
        algcat = ctx.algcat(T)
        checked += 1
        rep = verify_algebra_object(algcat.u, algcat.alpha_T, T, shapes,
                                    grade_bound=1, element_cap=1, budget=ctx.budget)
        if not rep.passed:
            details.append(f"{inst.name}/{role}: universal property fails: "
                           f"{rep.clause1_failures or rep.clause2_failures}")
    return SuiteResult("algebra_object_up", not details, checked, details)


def _check_monadicity_crosscheck(ctx) -> SuiteResult:
    """The relative monadicity theorem as a falsification harness."""

    details, skipped = [], {}
    checked = 0
    for inst, j, rrole, r in ctx.root_pairs():
        resolution = ctx.resolution(j, r)
        if not resolution.dense:
            continue
        audit = creation_audit(j, r, ctx.shape_family, ctx.element_cap,
                               budget=ctx.budget, resolution=resolution, census=ctx.census)
        checked += 1
        if audit.vacuous:
            continue
        skipped.update((key, why) for key, why in audit.inconclusive_at_bound.items() if "->" in key)
        if audit.discrepancies:
            details.append(f"{inst.name}/{rrole}: {audit.discrepancies}")
        for mode in MODES:
            if resolution.report(mode).verdict:
                if audit.targeted_extension_is_forgetful is False:
                    details.append(f"{inst.name}/{rrole}: targeted extension mismatch ({mode})")
                if audit.retraction_identity is False:
                    details.append(f"{inst.name}/{rrole}: retraction mismatch ({mode})")
    return SuiteResult("monadicity_crosscheck", not details, checked, details, skipped)


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
        resolution = ctx.resolution(j, r)
        if resolution.dense or classify_functor(r).is_iso:
            continue
        checked += 1
        if resolution.report("strict").verdict:
            details.append(f"{inst.name}/{rrole}: non-iso over empty root decided monadic")
        audit = creation_audit(j, r, ctx.shape_family, ctx.element_cap, budget=ctx.budget,
                               resolution=resolution, census=ctx.census)
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
        if not ctx.dense(T.j):
            continue
        algcat = ctx.algcat(T)
        D = algcat.category
        triples.append((f"{inst.name}/{role}/id", T.j, algcat.u, identity_functor(D)))
        try:
            monads_s = enumerate_relative_monads(algcat.f, budget=ctx.budget)
        except BudgetExceeded:
            monads_s = []
        if monads_s:
            S = monads_s[0]
            algcat_s = ctx.algcat(S)
            triples.append((f"{inst.name}/{role}/uS", T.j, algcat.u, algcat_s.u))
        if inst.name == "point_bz2" and role == "T0":
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
    for label, j, rprime, r in ctx.composite_triples:
        premise = ctx.resolution(j, rprime)
        for mode in MODES:
            try:
                prem = premise.report(mode)
                rep = composite_monadicity(
                    prem, prem.verdict and ctx.decision(premise.adjunction.left, r, mode),
                    prem.verdict and ctx.decision(j, compose_functors(r, rprime), mode))
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
    for label, j, rprime, r in ctx.composite_triples:
        if j.dom != j.cod or j != identity_functor(j.cod):
            continue
        one_D = identity_functor(rprime.dom)
        if not ctx.decision(j, rprime, "strict").verdict:
            continue
        if not ctx.decision(j, compose_functors(r, rprime), "strict").verdict:
            continue
        if ctx.resolution(one_D, r).adjunction is None:
            continue
        checked += 1
        if not ctx.decision(one_D, r, "strict").verdict:
            details.append(f"{label}: cancellability fails")
    return SuiteResult("cancellability", not details, checked, details)


def _check_algebraic_tight_cells(ctx) -> SuiteResult:
    """Concrete functors between algebra categories create limits and the
    colimits sent to j-absolute ones, and are monadic iff left-adjointable."""

    details, skipped = [], {}
    checked = 0
    by_instance: dict = {}
    for inst, role, T in ctx.monad_entries():
        by_instance.setdefault(inst.name, []).append((inst, role, T))
    for name in sorted(by_instance):
        entries = by_instance[name]
        for (inst_a, role_a, T_a) in entries:
            if not ctx.dense(T_a.j):
                continue
            for (inst_b, role_b, T_b) in entries:
                if T_a.j != T_b.j:
                    continue
                alg_a = ctx.algcat(T_a)
                alg_b = ctx.algcat(T_b)
                i = _concrete_functor(alg_b, alg_a)
                if i is None:
                    continue
                checked += 1
                resolution = ctx.resolution(identity_functor(alg_a.category), i)
                has_adjoint = resolution.adjunction is not None
                monadic = resolution.report("strict").verdict
                if has_adjoint != monadic:
                    details.append(f"{name}:{role_b}->{role_a}: monadic {monadic} "
                                   f"vs adjoint {has_adjoint}")
                bad = _algebraic_creation_sample(ctx, T_a.j, alg_a.u, i, skipped)
                details.extend(f"{name}:{role_b}->{role_a}: {b}" for b in bad)
    passed = not details
    if checked == 0:
        details = ["skipped: no commuting triangle of algebra categories in this corpus"]
    return SuiteResult("algebraic_tight_cells", passed, checked, details, skipped)


def _concrete_functor(alg_src, alg_tgt):
    """First functor i: Alg_src -> Alg_tgt with i ; u_tgt = u_src."""

    u_src, u_tgt = alg_src.u, alg_tgt.u
    return next(enumerate_functors(alg_src.category, alg_tgt.category,
                                   ob_ok=lambda c, o: u_tgt.ob(o) == u_src.ob(c),
                                   mor_ok=lambda k, m: u_tgt.mor(m) == u_src.mor(k)), None)


def _algebraic_creation_sample(ctx, j, r, i, skipped):
    """Creation checks for i over Terminal-shaped weights (bounded sample),
    read from the run's census, each question kind asked once about the
    first member of each weight class."""

    census = ctx.census
    Tm = terminal_category()
    firsts, of, _ = _small_weights(ctx, Tm, Tm, skipped)
    diagrams, diagrams_r = census.diagrams(Tm, i), census.diagrams(Tm, r)
    # the d positions of f ; i are the f positions of f ; i ; r among diagrams_r
    image = diagrams.down(diagrams.every)
    absolute = [a for _, a in census.colimits(j, diagrams_r, [(w, image) for w in firsts])]
    preserved = census.preserved(r, diagrams_r, list(zip(firsts, absolute)))
    asked = (("colimit sent to j-absolute", "colimit", [diagrams.up(p) for p in preserved]),
             ("limit", "limit", census.limits(diagrams, [(w, diagrams.every) for w in firsts])))
    created = [census.creations(i, diagrams, list(zip(firsts, masks)), kind) for _, kind, masks in asked]
    failures = [[f"{what} not non-strictly created" for (what, _, masks), answers in zip(asked, created)
                 for _ in range((masks[k] & ~answers[k][1]).bit_count())] for k in range(len(firsts))]
    return [bad for k in of for bad in failures[k]]


def _check_transport_bijection(ctx) -> SuiteResult:
    """The first refusal of the budget is kept in skipped, keyed by the block, Terminal->Terminal."""

    details, skipped, checked = [], {}, 0
    Tm = terminal_category()
    block = f"{Tm.name}->{Tm.name}"
    for inst, role, Tp in ctx.monad_entries():
        algcatp = ctx.algcat(Tp)
        T = trivial_relative_monad(algcatp.f)
        try:
            pairs = transport_algebras(algcatp, T, "forward", budget=ctx.budget)
        except BudgetExceeded:
            skipped.setdefault(block, "algebra transport over budget")
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
        algs = enumerate_algebras(T, Tm, budget=ctx.budget)
        try:
            weights = enumerate_distributors(Tm, Tm, 1, budget=ctx.budget)
        except BudgetExceeded:
            skipped.setdefault(block, "weight census over budget")
            weights = []
        for chain in [[]] + [[p] for p in weights]:
            for a1 in algs:
                for a2 in algs:
                    try:
                        up_cells = graded_algebra_morphisms(a1, a2, chain, ctx.budget)
                        down_cells = graded_algebra_morphisms(
                            image_of[a1.table()], image_of[a2.table()], chain, ctx.budget)
                    except BudgetExceeded:
                        skipped.setdefault(block, f"graded cells over budget (grade {len(chain)})")
                        continue
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
    return SuiteResult("transport_bijection", passed, checked, details, skipped)


def _check_duality_involution(ctx) -> SuiteResult:
    """co=True on dualized inputs must reproduce the direct verdicts."""

    details = []
    checked = 0
    for inst, j, rrole, r in ctx.root_pairs():
        j_op = opposite_functor(j, opposite(j.dom), opposite(j.cod))
        r_op = opposite_functor(r, opposite(r.dom), opposite(r.cod))
        for mode in ("strict", "nonstrict"):
            direct = ctx.decision(j, r, mode)
            co = ctx.decision(j_op, r_op, mode, co=True)
            checked += 1
            if direct.verdict != co.verdict:
                details.append(f"{inst.name}/{rrole} ({mode}): duality involution broken")
    return SuiteResult("duality_involution", not details, checked, details)
