"""Decision procedures for relative monadicity and the cross-validation suite.

The comparison functor is the decision oracle: a functor is strictly
j-monadic when the comparison into the constructed algebra category is an
isomorphism (an equivalence for the non-strict reading).  The creation audit
re-derives the verdict through the colimit-creation characterisation over a
bounded census of weights, and flags its bound when the census cannot
reproduce a negative verdict.  Comonadicity questions are answered by
dualizing the inputs and running the same pipeline.

A Run holds what one top-level run shares: the budget, the census, and
one algebra category per monad, density verdict per root and resolution
per question; a CLI command, a decision function and a suite run each
make one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .algebra import AlgebraCategory, ComparisonData, build_algebra_category, comparison_functor
from .census import DownstairsCensus, bits
from .colim import CREATION_MODES, check_choice, is_dense, is_j_absolute, try_left_extension
from .corpus import builtin_corpus, disc2_category, interval_category, terminal_category
from .errors import (
    BudgetExceeded,
    Inapplicable,
    PremiseFail,
    TheoremViolation,
    budget_limit,
)
from .fincat import (
    FinCategory,
    FunctorData,
    compose_functors,
    find_natural_isomorphism,
    identity_functor,
    opposite,
    opposite_functor,
)
from .monad import monad_from_adjunction
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
    """One mode's verdict on a Resolution, holding only what to_dict writes;
    the adjunction, algebra category and comparison it reads stay on the
    resolution."""

    mode: str
    co: bool
    verdict: bool
    adjoint_found: bool
    reason: str = ""
    algebra_category_size: Optional[tuple] = None
    comparison: Optional[dict] = None
    dense_root: Optional[bool] = None

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


class Resolution(NamedTuple):
    """Everything a monadicity question reads about (j, r, co), found once
    and shared by both modes: whether the root is dense and, when r has a
    left relative adjoint, the adjunction, the algebra category of its
    monad and the comparison functor into it, all of the dualized inputs
    when co.  Callers read these objects here; report(mode) is only what
    a decision serialises."""

    co: bool
    dense: bool
    adjunction: Optional[RelativeAdjunction] = None
    algcat: Optional[AlgebraCategory] = None
    comparison: Optional[ComparisonData] = None

    def report(self, mode: str) -> MonadicityReport:
        """The verdict of mode: strict, the comparison is an isomorphism; nonstrict, an equivalence."""

        if self.adjunction is None:
            return MonadicityReport(mode, self.co, verdict=False, adjoint_found=False,
                                    reason="no left relative adjoint", dense_root=self.dense)
        cl = self.comparison.classification
        reason = "comparison is an isomorphism" if cl.is_iso else (
            "comparison is an equivalence" if cl.is_equivalence else "comparison not invertible")
        return MonadicityReport(
            mode, self.co, verdict=cl.is_iso if mode == "strict" else cl.is_equivalence,
            adjoint_found=True, reason=reason, algebra_category_size=self.algcat.size(),
            comparison=cl.to_dict(), dense_root=self.dense)


class Run:
    """What one top-level run shares across its questions: the budget, read
    once, the census of (co)limit and creation verdicts, and one algebra
    category per monad (by content and name, which names the category),
    one density verdict per root and one resolution per (j, r, co) as
    given.  A CLI command, a decision function and a suite run each make
    one; all of it lives and dies with the run."""

    def __init__(self, budget: int = None):
        self.budget = budget or budget_limit()
        self.census = DownstairsCensus()
        self._algcats, self._dense, self._resolutions = {}, {}, {}

    def algcat(self, T) -> AlgebraCategory:
        """build_algebra_category(T), keyed by T's content and name."""
        key = (T.j, T.t, T.table(), T.name)
        if key not in self._algcats:
            self._algcats[key] = build_algebra_category(T, budget=self.budget)
        return self._algcats[key]

    def dense(self, j: FunctorData) -> bool:
        """is_dense(j)'s verdict, once per root by content."""
        if j not in self._dense:
            self._dense[j] = is_dense(j)[0]
        return self._dense[j]

    def resolution(self, j: FunctorData, r: FunctorData, co: bool = False) -> Resolution:
        """Adjoint search, induced monad, algebra category, comparison,
        once per (j, r, co) as given.  co=True dualizes both inputs first,
        for relative comonadicity of the originals."""

        key = (j, r, co)
        if key not in self._resolutions:
            if co:
                j = opposite_functor(j, opposite(j.dom), opposite(j.cod))
                r = opposite_functor(r, opposite(r.dom), opposite(r.cod))
            dense, adj = self.dense(j), find_left_relative_adjoint(j, r)
            if adj is None:
                self._resolutions[key] = Resolution(co, dense)
            else:
                T = monad_from_adjunction(adj)
                algcat = self.algcat(T)
                self._resolutions[key] = Resolution(co, dense, adj, algcat, comparison_functor(adj, algcat, T))
        return self._resolutions[key]


def decide_monadicity(j: FunctorData, r: FunctorData, mode: str = "strict",
                      co: bool = False, budget: int = None) -> MonadicityReport:
    """The verdict of mode on one run's resolution of (j, r, co): strict
    when the comparison is an isomorphism, nonstrict when an equivalence."""

    check_choice("mode", mode, CREATION_MODES)
    return Run(budget).resolution(j, r, co).report(mode)


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
    blocks: list = field(default_factory=list)
    targeted_extension_found: Optional[bool] = None
    targeted_extension_is_forgetful: Optional[bool] = None
    targeted_extension_absolute: Optional[bool] = None
    retraction_found: Optional[bool] = None
    retraction_identity: Optional[bool] = None
    census: dict = field(default_factory=dict)
    discrepancies: list = field(default_factory=list)
    inconclusive_at_bound: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def items(self) -> list:
        """One AuditItem per (weight, j-absolute diagram), built on each read from the blocks: per (X, Y),
        shape names, weights, their classes, class sizes, diagrams, per class (absolute, (strict, nonstrict)) masks."""
        return [AuditItem(shapes, w.index, dict(diagrams[i].f.on_objects), "colimit", True,
                          *(bool(passed >> i & 1) for passed in created[k]))
                for shapes, weights, of, _, diagrams, absolute, created in self.blocks
                for w, k in zip(weights, of) for i in bits(absolute[k])]

    def failing_items(self, mode: str):
        key = "strict_pass" if mode == "strict" else "nonstrict_pass"
        return [it for it in self.items if getattr(it, key) is False]

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


def creation_audit(run: Run, j: FunctorData, r: FunctorData, shape_family=None,
                   element_cap: int = DEFAULT_ELEMENT_CAP) -> AuditReport:
    """Falsification harness for the creation characterisation of monadicity.

    Enumerates weights between shape-family categories and diagrams into
    dom(r); every downstairs colimit that exists and is j-absolute is run
    through strict and non-strict creation.  The two targeted items from the
    theorems' proofs are always included: the extension of r along the
    comparison (which must be the forgetful functor) and, when the verdict
    is positive, the retraction whose composite with the comparison is the
    identity.  Discrepancies against the comparison verdicts are collected;
    a negative verdict with no failing witness flags the census bound.

    The density of j, both verdicts, the comparison and the forgetful
    functor are read from run.resolution(j, r), made once for both modes;
    weights and downstairs verdicts from run.census, under run.budget.
    """

    shape_family = shape_family if shape_family is not None else default_shape_family()
    census, resolution = run.census, run.resolution(j, r)
    dense = resolution.dense
    if resolution.adjunction is None:
        return AuditReport(vacuous=True, dense_root=dense,
                           notes=["no left relative adjoint; audit is vacuous"])

    report = AuditReport(vacuous=False, dense_root=dense)
    if not dense:
        report.notes.append(
            "root is not dense: theorem semantics do not apply; counterexample record only")

    D = r.dom
    tested = 0
    for X in shape_family:
        for Y in shape_family:
            try:
                weights, firsts, of, sizes = census.weight_classes(X, Y, element_cap, run.budget)
            except BudgetExceeded:
                report.inconclusive_at_bound[f"{X.name}->{Y.name}"] = "weight census over budget"
                continue
            # each question kind once, about the first member of each class
            ds = census.diagrams(Y, r)
            verdicts = census.colimits(j, ds, [(w, ds.every) for w in firsts])
            absolute = [a for _, a in verdicts]
            created = census.creations(ds, list(zip(firsts, absolute)), "colimit")
            report.blocks.append(((X.name, Y.name), weights, of, sizes, ds, absolute, created))
            tested += sum(exists.bit_count() * n for (exists, _), n in zip(verdicts, sizes))
    report.census = {
        "shapes": [c.name for c in shape_family],
        "element_cap": element_cap,
        "downstairs_colimits": tested,
        "absolute": sum(a.bit_count() * n for *_, ns, _, ab, _ in report.blocks for a, n in zip(ab, ns)),
    }

    # targeted items: extensions are canonical only up to isomorphism (the
    # representing-object tie-break), so the comparisons search a natural iso
    K = resolution.comparison.functor
    verdicts = {mode: resolution.report(mode).verdict for mode in CREATION_MODES}
    ext, _ = try_left_extension(K, r)
    report.targeted_extension_found = ext is not None
    if ext is not None:
        report.targeted_extension_is_forgetful = (
            find_natural_isomorphism(ext.apex, resolution.algcat.u) is not None)
        absolute, _ = is_j_absolute(j, ext)
        report.targeted_extension_absolute = absolute
    if any(verdicts.values()):
        ret, _ = try_left_extension(K, identity_functor(D))
        report.retraction_found = ret is not None
        if ret is not None:
            composite = compose_functors(K, ret.apex)
            report.retraction_identity = (
                find_natural_isomorphism(composite, identity_functor(D)) is not None)

    for mode, verdict in verdicts.items():
        failing = sum((a & ~c[CREATION_MODES.index(mode)]).bit_count() * n
                      for *_, ns, _, ab, cr in report.blocks for a, c, n in zip(ab, cr, ns))
        if verdict:
            if failing and dense:
                report.discrepancies.append(
                    f"{mode}: verdict yes but {failing} audited items fail creation")
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


def composite_monadicity(premise: MonadicityReport, inner, outer) -> CompositeReport:
    """The composite theorem on three decisions in one mode: r' is
    j-monadic (premise), so r is l'-monadic (inner) iff r;r' is j-monadic
    (outer).  inner and outer are read only when the premise holds.

    Raises PremiseFail when it does not, and TheoremViolation if the
    biconditional ever breaks (engine bug).
    """

    if not premise.verdict:
        raise PremiseFail(f"r' is not {premise.mode}ly j-monadic")
    if inner.verdict != outer.verdict:
        raise TheoremViolation(
            f"composite monadicity biconditional failed: inner={inner.verdict} outer={outer.verdict}")
    return CompositeReport(premise.mode, True, inner, outer, True)


def decide_composite_monadicity(j: FunctorData, rprime: FunctorData, r: FunctorData,
                                mode: str = "strict", budget: int = None) -> CompositeReport:
    """r is l'-monadic iff r;r' is j-monadic, given r' j-monadic (composite_monadicity)."""

    check_choice("mode", mode, CREATION_MODES)
    run = Run(budget)
    resolution = run.resolution(j, rprime)
    prem = resolution.report(mode)
    return composite_monadicity(
        prem, prem.verdict and run.resolution(resolution.adjunction.left, r).report(mode),
        prem.verdict and run.resolution(j, compose_functors(r, rprime)).report(mode))


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

    check_choice("mode", mode, CREATION_MODES)
    if T.j.dom != j.dom or compose_functors(j, jprime) != T.j:
        raise Inapplicable("monad must be rooted at the composite j;j'")
    run = Run(budget)
    if not run.dense(jprime):
        raise Inapplicable("j' is not dense")
    resolution = run.resolution(jprime, run.algcat(T).u)
    adjoint_exists, monadic = resolution.adjunction is not None, resolution.report(mode).verdict
    return MonadicIffAdjointReport(applicable=True, adjoint_exists=adjoint_exists, monadic=monadic,
                                   equivalence_holds=adjoint_exists == monadic)


# ---------------------------------------------------------------------------
# theorem suite


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    details: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """skipped, the weight blocks "X->Y" left unchecked at the budget, only when some is."""
        return {"name": self.name, "passed": self.passed, "checked": self.checked,
                "details": [str(d) for d in self.details], **({"skipped": dict(self.skipped)} if self.skipped else {})}


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

    from .suite import run_all_checks
    instances = instances if instances is not None else builtin_corpus()
    return run_all_checks(instances, shape_family or default_shape_family(),
                          element_cap, budget or budget_limit())
