"""Per-layer tracing installed from outside the engine.

The tracer wraps public functions of the relmon modules: each wrapper is
put into the defining module and into every relmon module that bound the
same object with ``from .x import ...``.  Self time is computed in place
on a call stack: a call's duration minus the part its traced children
cover.  Coarse calls also leave a span (id, name, start, end, parent) that
is written out when the run ends; hot inner functions are only aggregated,
so span memory stays small.  Wrappers return what the wrapped function
returns and let every exception through unchanged.
"""

from __future__ import annotations

import functools
import math
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("fincat", "prof", "colim", "reladj", "monad", "algebra",
           "monadicity", "suite", "corpus", "cli")

# The per-theorem checks run_all_checks runs; suite._check_<name> for each.
THEOREMS = ("resolution_property", "forgetful_conservative", "forgetful_creates",
            "preservation_conservativity", "algebra_object_up", "monadicity_crosscheck",
            "degenerate_root", "density_necessity", "pasting_composite", "cancellability",
            "algebraic_tight_cells", "transport_bijection", "duality_involution")

# Spans beyond this many are dropped (and counted) rather than kept.
MAX_SPANS = 200_000


class Tracer:
    """Call-stack accounting of calls, self time and inclusive time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []                  # frames: [name, start, covered, span_id]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()          # extra per-function counters
        self.spans = []                  # (id, name, start, end, parent id)
        self.spans_dropped = 0

    def enter(self, name: str, span: bool = False) -> list:
        span_id = None
        if span:
            span_id = len(self.spans) + self.spans_dropped + 1
        frame = [name, 0.0, 0.0, span_id]
        self.stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        name, start, covered, span_id = frame
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"trace stack out of order at {name}")
        duration = end - start
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, name, start, end, self._parent_span()))
            else:
                self.spans_dropped += 1

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    @contextmanager
    def untimed(self):
        """Charge the enclosed work, and the calls it makes, to no layer."""

        start = self.clock()
        calls, self.calls = self.calls, Counter()
        try:
            yield
        finally:
            self.calls = calls
            if self.stack:
                self.stack[-1][2] += self.clock() - start


# ---------------------------------------------------------------------------
# wrappers


def timed(tracer: Tracer, name, fn, span: bool = False, tally=None, after=None):
    """Wrap fn: count the call, time it, then run tally and after on (args, kwargs, result).

    name is a string or a callable (args, kwargs) -> string.  tally must
    not call into relmon; it runs as it is, which keeps hot wrappers cheap.
    after may call into relmon; it runs untimed, so its time and the calls
    it makes are charged to no layer.
    """

    name_of = name if callable(name) else (lambda args, kwargs: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name_of(args, kwargs)
        tracer.calls[label] += 1
        frame = tracer.enter(label, span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if tally is not None:
            tally(args, kwargs, result)
        if after is not None:
            with tracer.untimed():
                after(args, kwargs, result)
        return result

    return wrapper


def timed_generator(tracer: Tracer, name: str, fn):
    """Wrap a generator function: time each resumption, count the items."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        inner = fn(*args, **kwargs)
        try:
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                tracer.counts[name + ".yielded"] += 1
                yield item
        finally:
            inner.close()

    return wrapper


def counted(tracer: Tracer, name: str, fn):
    """Wrap fn to count calls only; its time stays with the caller."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _arg(args, kwargs, index: int, key: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


# ---------------------------------------------------------------------------
# installation


class Installation:
    """The set of patches made by install(); undo() restores the originals."""

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self.modules = modules
        self.patches = []        # (owner, attribute, original)
        self.seen = defaultdict(set)
        self.cat_keys = {}       # id(category) -> (weak reference, structural hash)
        self.original_table = modules["fincat"].FinCategory.table

    def replace(self, module_name: str, attr: str, wrapper) -> None:
        original = getattr(self.modules[module_name], attr)
        for mod in self.modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def replace_method(self, cls, attr: str, wrapper) -> None:
        self.patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def undo(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # -- structural keys for the repeat ratios ---------------------------

    def cat_key(self, C) -> int:
        key = id(C)
        entry = self.cat_keys.get(key)
        if entry is None or entry[0]() is not C:
            drop = functools.partial(self.cat_keys.pop, key, None)
            entry = (weakref.ref(C, lambda _: drop()), hash(self.original_table(C)))
            self.cat_keys[key] = entry
        return entry[1]

    def functor_key(self, F) -> tuple:
        return (self.cat_key(F.dom), self.cat_key(F.cod), F.table())

    def repeat(self, name: str, key) -> None:
        seen = self.seen[name]
        digest = hash(key)
        if digest in seen:
            self.tracer.counts[name + ".repeats"] += 1
        else:
            seen.add(digest)


def install(tracer: Tracer, modules: dict) -> Installation:
    """Patch the relmon modules (name -> module) so calls report to tracer."""

    inst = Installation(tracer, modules)
    FinCategory = modules["fincat"].FinCategory
    original_enumerate_functors = modules["fincat"].enumerate_functors
    counts = tracer.counts

    def wrap(module_name, fn_name, span=False, tally=None, after=None, name=None):
        fn = getattr(modules[module_name], fn_name)
        label = name or f"{module_name}.{fn_name}"
        inst.replace(module_name, fn_name, timed(tracer, label, fn, span, tally, after))

    def count_only(module_name, fn_name):
        fn = getattr(modules[module_name], fn_name)
        inst.replace(module_name, fn_name, counted(tracer, f"{module_name}.{fn_name}", fn))

    # fincat
    inst.replace("fincat", "enumerate_functors",
                 timed_generator(tracer, "fincat.enumerate_functors", original_enumerate_functors))
    for fn_name in ("classify_functor", "find_natural_isomorphism", "opposite", "build_category"):
        wrap("fincat", fn_name)
    for attr in ("morphism_names", "__eq__", "table"):
        inst.replace_method(FinCategory, attr,
                            counted(tracer, f"fincat.FinCategory.{attr}", FinCategory.__dict__[attr]))

    # prof
    def distributor_census(args, kwargs, result):
        X, Y, cap = _arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "Y"), _arg(args, kwargs, 2, "element_cap")
        inst.repeat("prof.enumerate_distributors", (inst.cat_key(X), inst.cat_key(Y), cap))
    wrap("prof", "enumerate_distributors", span=True, after=distributor_census)
    wrap("prof", "tensor_set")
    wrap("prof", "enumerate_graded_cells")

    # colim
    def families(args, kwargs, result):
        counts["colim.natural_families.yielded"] += len(result)
    wrap("colim", "natural_families", tally=families)

    def colimit_search(args, kwargs, result):
        p, f = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "f")
        if result[0] is not None:
            counts["colim.try_weighted_colimit.found"] += 1
        inst.repeat("colim.try_weighted_colimit",
                    (inst.cat_key(p.src), inst.cat_key(p.tgt), p.table(), inst.functor_key(f)))
    wrap("colim", "try_weighted_colimit", after=colimit_search)

    def limit_search(args, kwargs, result):
        if result[0] is not None:
            counts["colim.try_weighted_limit.found"] += 1
    wrap("colim", "try_weighted_limit", tally=limit_search)

    def absolute(args, kwargs, result):
        if result[0]:
            counts["colim.is_j_absolute.true"] += 1
    wrap("colim", "is_j_absolute", tally=absolute)
    wrap("colim", "is_dense", span=True)

    def creation_mode(args, kwargs):
        return "colim.check_creation." + _arg(args, kwargs, 3, "mode", "strict")
    def creation(args, kwargs, result):
        if result.passed:
            counts["colim.check_creation.passed"] += 1
    wrap("colim", "check_creation", tally=creation, name=creation_mode)
    wrap("colim", "try_left_extension")
    wrap("colim", "cocone_is_colimiting")

    # reladj
    def adjoint(args, kwargs, result):
        if result is not None:
            counts["reladj.find_left_relative_adjoint.found"] += 1
    wrap("reladj", "find_left_relative_adjoint", span=True, tally=adjoint)

    # monad
    def monad_space(args, kwargs, result):
        j = _arg(args, kwargs, 0, "j")
        A, E = j.dom, j.cod
        raw = 0
        for t in original_enumerate_functors(A, E):
            sizes = [len(E.hom(j.ob(a), t.ob(a))) for a in A.objects]
            sizes += [len(E.hom(t.ob(a), t.ob(b)))
                      for a in A.objects for b in A.objects
                      for _ in E.hom(j.ob(a), t.ob(b))]
            raw += math.prod(sizes)
        counts["monad.enumerate_relative_monads.raw_candidates"] += raw
        counts["monad.enumerate_relative_monads.kept"] += len(result)
    wrap("monad", "enumerate_relative_monads", span=True, after=monad_space)
    wrap("monad", "monad_from_adjunction", span=True)
    count_only("monad", "monad_violations")

    # algebra
    def algebra_space(args, kwargs, result):
        T, D = _arg(args, kwargs, 0, "T"), _arg(args, kwargs, 1, "D")
        A, E = T.j.dom, T.j.cod
        raw = 0
        for carrier in original_enumerate_functors(D, E):
            raw += math.prod([len(E.hom(T.t.ob(a), carrier.ob(d)))
                             for a in A.objects for d in D.objects
                             for _ in E.hom(T.j.ob(a), carrier.ob(d))])
        counts["algebra.enumerate_algebras.raw_candidates"] += raw
        counts["algebra.enumerate_algebras.kept"] += len(result)
    wrap("algebra", "build_algebra_category", span=True)
    wrap("algebra", "enumerate_algebras", span=True, after=algebra_space)
    wrap("algebra", "comparison_functor", span=True)
    wrap("algebra", "verify_algebra_object", span=True)
    wrap("algebra", "transport_algebras", span=True)
    count_only("algebra", "algebra_violations")

    # monadicity
    def decision(args, kwargs, result):
        j, r = _arg(args, kwargs, 0, "j"), _arg(args, kwargs, 1, "r")
        mode, co = _arg(args, kwargs, 2, "mode", "strict"), _arg(args, kwargs, 3, "co", False)
        inst.repeat("monadicity.decide_monadicity",
                    (inst.functor_key(j), inst.functor_key(r), mode, bool(co)))
    wrap("monadicity", "decide_monadicity", span=True, after=decision)
    wrap("monadicity", "creation_audit", span=True)
    wrap("monadicity", "decide_composite_monadicity", span=True)

    # suite: one timed span per theorem check in run_all_checks
    for theorem in THEOREMS:
        def checked(args, kwargs, result, theorem=theorem):
            counts[f"suite.{theorem}.checked"] += result.checked
        wrap("suite", "_check_" + theorem, span=True, tally=checked, name=f"suite.{theorem}")

    # corpus and cli
    wrap("corpus", "builtin_corpus", span=True)
    wrap("corpus", "generate_category")
    wrap("corpus", "load_json")
    wrap("corpus", "save_json")
    wrap("cli", "main", span=True)
    return inst


# ---------------------------------------------------------------------------
# metrics


TIMED = {
    "fincat": ("enumerate_functors", "classify_functor", "find_natural_isomorphism",
               "opposite", "build_category"),
    "prof": ("enumerate_distributors", "tensor_set", "enumerate_graded_cells"),
    "colim": ("natural_families", "try_weighted_colimit", "try_weighted_limit", "is_j_absolute",
              "is_dense", "check_creation.strict", "check_creation.nonstrict",
              "try_left_extension", "cocone_is_colimiting"),
    "reladj": ("find_left_relative_adjoint",),
    "monad": ("enumerate_relative_monads", "monad_from_adjunction"),
    "algebra": ("build_algebra_category", "enumerate_algebras", "comparison_functor",
                "verify_algebra_object", "transport_algebras"),
    "monadicity": ("decide_monadicity", "creation_audit", "decide_composite_monadicity"),
    "corpus": ("builtin_corpus", "generate_category", "load_json", "save_json"),
    "cli": ("main",),
}
COUNTED = ("fincat.FinCategory.morphism_names", "fincat.FinCategory.__eq__",
           "fincat.FinCategory.table", "monad.monad_violations", "algebra.algebra_violations")


def layer_metrics(tracer: Tracer) -> dict:
    """Flat name -> (value, unit) for every per-layer metric."""

    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}

    def ratio(num, den):
        return num / den if den else 0.0

    for module, fns in TIMED.items():
        total = 0.0
        for fn in fns:
            name = f"{module}.{fn}"
            out[name + ".calls"] = (calls[name], "count")
            out[name + ".self_s"] = (self_s[name], "s")
            total += self_s[name]
        out[f"{module}.self_s"] = (total, "s")
    out["suite.self_s"] = (sum(self_s[f"suite.{t}"] for t in THEOREMS), "s")
    for name in COUNTED:
        out[name + ".calls"] = (calls[name], "count")

    out["fincat.enumerate_functors.yielded"] = (counts["fincat.enumerate_functors.yielded"], "count")
    out["prof.enumerate_distributors.repeat_ratio"] = (
        ratio(counts["prof.enumerate_distributors.repeats"], calls["prof.enumerate_distributors"]), "ratio")
    out["colim.natural_families.yielded"] = (counts["colim.natural_families.yielded"], "count")
    n = calls["colim.try_weighted_colimit"]
    out["colim.try_weighted_colimit.found_ratio"] = (ratio(counts["colim.try_weighted_colimit.found"], n), "ratio")
    out["colim.try_weighted_colimit.repeat_ratio"] = (ratio(counts["colim.try_weighted_colimit.repeats"], n), "ratio")
    out["colim.try_weighted_limit.found_ratio"] = (
        ratio(counts["colim.try_weighted_limit.found"], calls["colim.try_weighted_limit"]), "ratio")
    out["colim.is_j_absolute.true_ratio"] = (
        ratio(counts["colim.is_j_absolute.true"], calls["colim.is_j_absolute"]), "ratio")
    creations = calls["colim.check_creation.strict"] + calls["colim.check_creation.nonstrict"]
    out["colim.check_creation.passed_ratio"] = (ratio(counts["colim.check_creation.passed"], creations), "ratio")
    out["reladj.find_left_relative_adjoint.found_ratio"] = (
        ratio(counts["reladj.find_left_relative_adjoint.found"], calls["reladj.find_left_relative_adjoint"]), "ratio")
    raw = counts["monad.enumerate_relative_monads.raw_candidates"]
    kept = counts["monad.enumerate_relative_monads.kept"]
    out["monad.enumerate_relative_monads.raw_candidates"] = (raw, "count")
    out["monad.enumerate_relative_monads.kept"] = (kept, "count")
    out["monad.enumerate_relative_monads.kept_ratio"] = (ratio(kept, raw), "ratio")
    out["algebra.enumerate_algebras.raw_candidates"] = (counts["algebra.enumerate_algebras.raw_candidates"], "count")
    out["algebra.enumerate_algebras.kept"] = (counts["algebra.enumerate_algebras.kept"], "count")
    out["monadicity.decide_monadicity.repeat_ratio"] = (
        ratio(counts["monadicity.decide_monadicity.repeats"], calls["monadicity.decide_monadicity"]), "ratio")
    for theorem in THEOREMS:
        out[f"suite.{theorem}.s"] = (tracer.total_s[f"suite.{theorem}"], "s")
        out[f"suite.{theorem}.checked"] = (counts[f"suite.{theorem}.checked"], "count")
    return out


def shares(layers: dict, traced_s: float) -> dict:
    """Per-module and per-theorem times as shares of the traced child's time.

    Times of layers a workload never enters read exactly 0 on every run;
    as shares they stay comparable across workloads.
    """

    out = {}
    for module in MODULES:
        out[f"{module}.self_share"] = (layers[f"{module}.self_s"][0] / traced_s, "ratio")
    for theorem in THEOREMS:
        out[f"suite.{theorem}.share"] = (layers[f"suite.{theorem}.s"][0] / traced_s, "ratio")
    return out
