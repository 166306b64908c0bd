"""Decision procedures for relative monadicity and the cross-validation suite.

The comparison functor is the decision oracle: a functor is strictly
j-monadic when the comparison into the constructed algebra category is an
isomorphism (an equivalence for the non-strict reading).  The creation audit
re-derives the verdict through the colimit-creation characterisation over a
bounded census of weights, and flags its bound when the census cannot
reproduce a negative verdict.  Comonadicity questions are answered by
dualizing the inputs and running the same pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import AlgebraCategory, build_algebra_category, comparison_functor
from .census import ABSOLUTE_COLIMIT, NO_COLIMIT, DownstairsCensus
from .colim import (
    extension_weight,
    is_dense,
    is_j_absolute,
    try_left_extension,
)
from .corpus import disc2_category, interval_category, terminal_category
from .errors import (
    BudgetExceeded,
    DownstairsMissing,
    Inapplicable,
    PremiseFail,
    TheoremViolation,
)
from .fincat import (
    FinCategory,
    FunctorData,
    classify_functor,
    compose_functors,
    find_natural_isomorphism,
    identity_functor,
    opposite,
    opposite_functor,
)
from .monad import budget_limit, monad_from_adjunction
from .prof import enumerate_distributors
from .reladj import RelativeAdjunction, find_left_relative_adjoint


def default_shape_family() -> list[FinCategory]:
    """Weight endpoints for creation audits: small categories within the
    documented bounds (at most 2 objects and 6 morphisms, cap 2 elements)."""

    return [terminal_category(), interval_category(), disc2_category()]


DEFAULT_ELEMENT_CAP = 2


# ---------------------------------------------------------------------------
# monadicity decision


@dataclass
class MonadicityReport:
    mode: str
    co: bool
    verdict: bool
    adjoint_found: bool
    reason: str = ""
    monad_table: Optional[tuple] = None
    algebra_category_size: Optional[tuple] = None
    comparison: Optional[dict] = None
    dense_root: Optional[bool] = None
    adjunction: Optional[RelativeAdjunction] = None
    algcat: Optional[AlgebraCategory] = None
    comparison_functor: Optional[FunctorData] = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "co": self.co,
            "verdict": self.verdict,
            "adjoint_found": self.adjoint_found,
            "reason": self.reason,
            "algebra_category_size": list(self.algebra_category_size or ()),
            "comparison": self.comparison,
            "dense_root": self.dense_root,
        }


def decide_monadicity(j: FunctorData, r: FunctorData, mode: str = "strict",
                      co: bool = False, budget: int = None) -> MonadicityReport:
    """Adjoint search, induced monad, algebra category, comparison, classify.

    strict verdict: the comparison is an isomorphism; nonstrict: an
    equivalence.  co=True dualizes both inputs first, deciding relative
    comonadicity of the originals.
    """

    if mode not in ("strict", "nonstrict"):
        raise ValueError(f"unknown mode {mode!r}")
    if co:
        j = opposite_functor(j, opposite(j.dom), opposite(j.cod))
        r = opposite_functor(r, opposite(r.dom), opposite(r.cod))

    dense, _ = is_dense(j)
    adj = find_left_relative_adjoint(j, r)
    if adj is None:
        return MonadicityReport(mode, co, verdict=False, adjoint_found=False,
                                reason="no left relative adjoint", dense_root=dense)
    T = monad_from_adjunction(adj)
    algcat = build_algebra_category(T, budget=budget)
    comp = comparison_functor(adj, algcat)
    cl = comp.classification
    verdict = cl.is_iso if mode == "strict" else cl.is_equivalence
    reason = "comparison is an isomorphism" if cl.is_iso else (
        "comparison is an equivalence" if cl.is_equivalence else "comparison not invertible")
    return MonadicityReport(
        mode, co, verdict=verdict, adjoint_found=True, reason=reason,
        monad_table=T.table(), algebra_category_size=algcat.size(),
        comparison=cl.to_dict(), dense_root=dense,
        adjunction=adj, algcat=algcat, comparison_functor=comp.functor,
    )


# ---------------------------------------------------------------------------
# creation audit


@dataclass
class AuditItem:
    shape_pair: tuple
    weight_index: int
    diagram: dict
    kind: str
    absolute: Optional[bool]
    strict_pass: Optional[bool]
    nonstrict_pass: Optional[bool]
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "shapes": list(self.shape_pair),
            "weight": self.weight_index,
            "diagram": self.diagram,
            "kind": self.kind,
            "absolute": self.absolute,
            "strict_pass": self.strict_pass,
            "nonstrict_pass": self.nonstrict_pass,
            "note": self.note,
        }


@dataclass
class AuditReport:
    vacuous: bool
    dense_root: bool
    items: list = field(default_factory=list)
    targeted_extension_found: Optional[bool] = None
    targeted_extension_is_forgetful: Optional[bool] = None
    targeted_extension_absolute: Optional[bool] = None
    retraction_found: Optional[bool] = None
    retraction_identity: Optional[bool] = None
    census: dict = field(default_factory=dict)
    discrepancies: list = field(default_factory=list)
    inconclusive_at_bound: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def failing_items(self, mode: str):
        key = "strict_pass" if mode == "strict" else "nonstrict_pass"
        return [it for it in self.items
                if it.absolute and getattr(it, key) is False]

    def to_dict(self) -> dict:
        return {
            "vacuous": self.vacuous,
            "dense_root": self.dense_root,
            "items": [it.to_dict() for it in self.items],
            "targeted_extension_found": self.targeted_extension_found,
            "targeted_extension_is_forgetful": self.targeted_extension_is_forgetful,
            "targeted_extension_absolute": self.targeted_extension_absolute,
            "retraction_found": self.retraction_found,
            "retraction_identity": self.retraction_identity,
            "census": dict(self.census),
            "discrepancies": list(self.discrepancies),
            "inconclusive_at_bound": dict(self.inconclusive_at_bound),
            "notes": list(self.notes),
        }


def creation_audit(j: FunctorData, r: FunctorData, shape_family=None,
                   element_cap: int = DEFAULT_ELEMENT_CAP, budget: int = None,
                   reports: dict = None, census: DownstairsCensus = None) -> AuditReport:
    """Falsification harness for the creation characterisation of monadicity.

    Enumerates weights between shape-family categories and diagrams into
    dom(r); every downstairs colimit that exists and is j-absolute is run
    through strict and non-strict creation.  The two targeted items from the
    theorems' proofs are always included: the extension of r along the
    comparison (which must be the forgetful functor) and, when the verdict
    is positive, the retraction whose composite with the comparison is the
    identity.  Discrepancies against the comparison verdicts are collected;
    a negative verdict with no failing witness flags the census bound.

    Downstairs verdicts are read from census, which a caller asking several
    audits over the same E may share; without one the audit makes its own.
    """

    budget = budget or budget_limit()
    shape_family = shape_family if shape_family is not None else default_shape_family()
    census = census if census is not None else DownstairsCensus()
    dense, _ = is_dense(j)
    reports = reports or {
        "strict": decide_monadicity(j, r, "strict", budget=budget),
        "nonstrict": decide_monadicity(j, r, "nonstrict", budget=budget),
    }
    strict_rep, nonstrict_rep = reports["strict"], reports["nonstrict"]

    if not strict_rep.adjoint_found:
        return AuditReport(vacuous=True, dense_root=dense,
                           notes=["no left relative adjoint; audit is vacuous"])

    report = AuditReport(vacuous=False, dense_root=dense)
    if not dense:
        report.notes.append(
            "root is not dense: theorem semantics do not apply; counterexample record only")

    D = r.dom
    tested = 0
    absolute_count = 0
    diagrams = {Y: census.diagrams(Y, r) for Y in shape_family}
    for X in shape_family:
        for Y in shape_family:
            try:
                weights = enumerate_distributors(X, Y, element_cap, budget=budget)
            except BudgetExceeded:
                report.inconclusive_at_bound[f"{X.name}->{Y.name}"] = "weight census over budget"
                continue
            for widx, p in enumerate(weights):
                for diagram in diagrams[Y]:
                    verdict = census.colimit(j, p, widx, diagram, element_cap)
                    if verdict == NO_COLIMIT:
                        continue
                    tested += 1
                    if verdict != ABSOLUTE_COLIMIT:
                        continue
                    absolute_count += 1
                    strict = census.creation(r, p, widx, diagram, element_cap, "colimit", "strict")
                    nonstrict = census.creation(r, p, widx, diagram, element_cap, "colimit",
                                                "nonstrict")
                    item = AuditItem((X.name, Y.name), widx, dict(diagram.f.on_objects),
                                     "colimit", True, strict, nonstrict)
                    report.items.append(item)
    report.census = {
        "shapes": [c.name for c in shape_family],
        "element_cap": element_cap,
        "downstairs_colimits": tested,
        "absolute": absolute_count,
    }

    # targeted items: extensions are canonical only up to isomorphism (the
    # representing-object tie-break), so the comparisons search a natural iso
    K = strict_rep.comparison_functor
    ext, _ = try_left_extension(K, r)
    report.targeted_extension_found = ext is not None
    if ext is not None:
        u = strict_rep.algcat.u
        report.targeted_extension_is_forgetful = (
            find_natural_isomorphism(ext.apex, u) is not None)
        absolute, _ = is_j_absolute(j, ext)
        report.targeted_extension_absolute = absolute
    if strict_rep.verdict or nonstrict_rep.verdict:
        ret, _ = try_left_extension(K, identity_functor(D))
        report.retraction_found = ret is not None
        if ret is not None:
            composite = compose_functors(K, ret.apex)
            report.retraction_identity = (
                find_natural_isomorphism(composite, identity_functor(D)) is not None)

    for mode, rep in (("strict", strict_rep), ("nonstrict", nonstrict_rep)):
        failing = report.failing_items(mode)
        if rep.verdict:
            if failing and dense:
                report.discrepancies.append(
                    f"{mode}: verdict yes but {len(failing)} audited items fail creation")
            if dense and report.targeted_extension_found and not report.targeted_extension_is_forgetful:
                report.discrepancies.append(
                    f"{mode}: targeted extension does not compute the forgetful functor")
            if dense and report.retraction_found and report.retraction_identity is False:
                report.discrepancies.append(f"{mode}: retraction composite is not the identity")
        else:
            if dense and not failing:
                report.inconclusive_at_bound[mode] = (
                    "negative verdict not witnessed within the census bound")
    return report


# ---------------------------------------------------------------------------
# composite monadicity


@dataclass
class CompositeReport:
    mode: str
    premise_ok: bool
    inner: Optional[MonadicityReport]
    outer: Optional[MonadicityReport]
    biconditional: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "premise_ok": self.premise_ok,
            "inner": self.inner.to_dict() if self.inner else None,
            "outer": self.outer.to_dict() if self.outer else None,
            "biconditional": self.biconditional,
        }


def decide_composite_monadicity(j: FunctorData, rprime: FunctorData, r: FunctorData,
                                mode: str = "strict", budget: int = None) -> CompositeReport:
    """r is l'-monadic iff r;r' is j-monadic, given r' j-monadic.

    Raises PremiseFail when r' is not j-monadic in the requested mode, and
    TheoremViolation if the biconditional ever breaks (engine bug).
    """

    prem = decide_monadicity(j, rprime, mode, budget=budget)
    if not prem.verdict:
        raise PremiseFail(f"r' is not {mode}ly j-monadic")
    lprime = prem.adjunction.left
    inner = decide_monadicity(lprime, r, mode, budget=budget)
    outer = decide_monadicity(j, compose_functors(r, rprime), mode, budget=budget)
    if inner.verdict != outer.verdict:
        raise TheoremViolation(
            f"composite monadicity biconditional failed: inner={inner.verdict} outer={outer.verdict}")
    return CompositeReport(mode, True, inner, outer, inner.verdict == outer.verdict)


# ---------------------------------------------------------------------------
# monadic iff left adjoint


@dataclass
class MonadicIffAdjointReport:
    applicable: bool
    adjoint_exists: Optional[bool] = None
    monadic: Optional[bool] = None
    equivalence_holds: Optional[bool] = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "adjoint_exists": self.adjoint_exists,
            "monadic": self.monadic,
            "equivalence_holds": self.equivalence_holds,
            "note": self.note,
        }


def check_monadic_iff_left_adjoint(j: FunctorData, jprime: FunctorData, T,
                                   mode: str = "strict", budget: int = None) -> MonadicIffAdjointReport:
    """For T rooted at j;j' with j' dense: u_T is j'-monadic iff it has a
    left j'-adjoint (algebra objects always exist at this scale)."""

    if T.j.dom != j.dom or compose_functors(j, jprime) != T.j:
        raise Inapplicable("monad must be rooted at the composite j;j'")
    dense, _ = is_dense(jprime)
    if not dense:
        raise Inapplicable("j' is not dense")
    algcat = build_algebra_category(T, budget=budget)
    adj = find_left_relative_adjoint(jprime, algcat.u)
    rep = decide_monadicity(jprime, algcat.u, mode, budget=budget)
    return MonadicIffAdjointReport(
        applicable=True,
        adjoint_exists=adj is not None,
        monadic=rep.verdict,
        equivalence_holds=(adj is not None) == rep.verdict,
    )


# ---------------------------------------------------------------------------
# theorem suite


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    details: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "checked": self.checked, "details": [str(d) for d in self.details]}


@dataclass
class SuiteReport:
    results: list = field(default_factory=list)
    input_errors: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.input_errors and all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "results": [r.to_dict() for r in self.results],
            "input_errors": [str(e) for e in self.input_errors],
        }


def run_theorem_suite(instances=None, shape_family=None,
                      element_cap: int = DEFAULT_ELEMENT_CAP,
                      budget: int = None) -> SuiteReport:
    """Cross-validate every theorem on the corpus; see the corpus module for
    the instance roles this consumes."""

    from . import corpus as corpus_mod
    from .suite import run_all_checks
    instances = instances if instances is not None else corpus_mod.builtin_corpus()
    return run_all_checks(instances, shape_family or default_shape_family(),
                          element_cap, budget or budget_limit())
