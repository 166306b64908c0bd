"""Finite Set-valued distributors (loose-cells), their calculus, and graded cells.

Variance convention, fixed for the whole engine: a distributor p: X -|-> Y
has components p(y, x) for y in Y (contravariant: a right action by
Y-morphisms into y) and x in X (covariant: a left action by X-morphisms out
of x).  With this choice the hom-restriction E(j, 1) along j: A -> E is a
distributor E -|-> A with components E(j a, e), and weighted colimits of
f: Y -> W are indexed by X.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    ChainMismatch,
    EndpointMismatch,
    ParseFailure,
    ValidationFailure,
    Violation,
    budget_limit,
)
from .fincat import FinCategory, FunctorData, check_field, field_at, opposite, split_keys
from .search import Search


class Distributor:
    """Elements p(y, x) with a right Y-action and a left X-action.

    right_action is keyed (m, x, e) for m: y' -> y in Y and e in p(y, x),
    giving the image in p(y', x); left_action is keyed (n, y, e) for
    n: x -> x' in X and e in p(y, x), giving the image in p(y, x').
    Identity actions are stored implicitly.  Instances are immutable by
    convention; table(), slots(x), column(x), columns(), left_indices(n),
    left_plan() and the dual (dual_distributor) are built on first use and
    kept.
    """

    def __init__(self, src: FinCategory, tgt: FinCategory, elements,
                 right_action, left_action, name=None):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.elements = {k: tuple(v) for k, v in elements.items()}
        for y in tgt.objects:
            for x in src.objects:
                self.elements.setdefault((y, x), ())
        self.right_action = dict(right_action)
        self.left_action = dict(left_action)
        self._table = None
        self._slots: dict[str, tuple] = {}
        self._columns: dict[str, tuple] = {}
        self._left: dict[str, tuple] = {}
        self._plan = self._dual = self._column_ids = None

    def el(self, y: str, x: str) -> tuple[str, ...]:
        return self.elements[(y, x)]

    def act_r(self, m: str, x: str, e: str) -> str:
        """Action of m: y' -> y in tgt, mapping p(y, x) to p(y', x)."""
        if self.tgt.is_identity(m):
            return e
        return self.right_action[(m, x, e)]

    def act_l(self, n: str, y: str, e: str) -> str:
        """Action of n: x -> x' in src, mapping p(y, x) to p(y, x')."""
        if self.src.is_identity(n):
            return e
        return self.left_action[(n, y, e)]

    def table(self):
        if self._table is None:
            self._table = (tuple(sorted(self.elements.items())),
                           tuple(sorted(self.right_action.items())),
                           tuple(sorted(self.left_action.items())))
        return self._table

    def slots(self, x: str) -> tuple:
        """The elements of p(-, x) as (y, e), y in tgt's order, then el(y, x):
        the slot order in which the engine lists a family or the legs at x.
        Built on first use and kept, like table()."""
        slots = self._slots.get(x)
        if slots is None:
            slots = self._slots[x] = tuple((y, e) for y in self.tgt.objects for e in self.elements[(y, x)])
        return slots

    def column(self, x: str) -> tuple:
        """The content of p(-, x) up to the names of its elements: the
        number of elements at each y of tgt, then the right action of each
        non-identity m: y' -> y of tgt on p(y, x), as indices into el(y', x).
        Built on first use and kept, like table()."""
        column = self._columns.get(x)
        if column is None:
            Y = self.tgt
            action = []
            for m in Y.morphism_names():
                if Y.is_identity(m):
                    continue
                index = {e: i for i, e in enumerate(self.elements[(Y.dom(m), x)])}
                action.extend(index[self.right_action[(m, x, e)]]
                              for e in self.elements[(Y.cod(m), x)])
            column = self._columns[x] = (tuple(len(self.elements[(y, x)]) for y in Y.objects),
                                         tuple(action))
        return column

    def columns(self) -> tuple:
        """(x, column(x)) for each x of src in order, built on first use and kept."""
        if self._column_ids is None:
            self._column_ids = tuple((x, self.column(x)) for x in self.src.objects)
        return self._column_ids

    def left_indices(self, n: str) -> tuple:
        """The left action of n: x -> x2 of src up to the names of elements:
        for each element of p(-, x) in slots(x), the index of its image in
        slots(x2).  Built on first use and kept, like column(x)."""
        indices = self._left.get(n)
        if indices is None:
            index = {s: j for j, s in enumerate(self.slots(self.src.cod(n)))}
            indices = self._left[n] = tuple(index[(y, self.act_l(n, y, e))]
                                            for y, e in self.slots(self.src.dom(n)))
        return indices

    def left_plan(self) -> tuple:
        """(along, composable): (n, x, x2, enumerate(left_indices(n))) for
        each non-identity n: x -> x2 of src in order, and (a, b, c, dom a)
        for each composable pair of them by position in along, c that of
        a ; b or None for an identity.  Built on first use and kept."""
        if self._plan is None:
            X = self.src
            nonid = [n for n in X.morphism_names() if not X.is_identity(n)]
            slot = {n: s for s, n in enumerate(nonid)}
            self._plan = (tuple((n, X.dom(n), X.cod(n), tuple(enumerate(self.left_indices(n)))) for n in nonid),
                          tuple((slot[a], slot[b], slot.get(ab), X.dom(a))
                                for a, b, ab in X.composable_pairs() if a in slot and b in slot))
        return self._plan

    def __eq__(self, other) -> bool:
        return (isinstance(other, Distributor) and self.src == other.src
                and self.tgt == other.tgt and self._full_tables() == other._full_tables())

    def _full_tables(self):
        right = {}
        left = {}
        for (y, x), els in sorted(self.elements.items()):
            for e in els:
                for m in self.tgt.morphism_names():
                    if self.tgt.cod(m) == y:
                        right[(m, x, e)] = self.act_r(m, x, e)
                for n in self.src.morphism_names():
                    if self.src.dom(n) == x:
                        left[(n, y, e)] = self.act_l(n, y, e)
        return (tuple(sorted(self.elements.items())), tuple(sorted(right.items())),
                tuple(sorted(left.items())))

    def __repr__(self) -> str:
        total = sum(len(v) for v in self.elements.values())
        return f"Distributor({self.name or '?'}: {self.src.name or '?'} -|-> {self.tgt.name or '?'}, {total} elements)"

    def to_dict(self) -> dict:
        right = {}
        left = {}
        for (y, x), els in sorted(self.elements.items()):
            for e in els:
                for m in self.tgt.morphism_names():
                    if self.tgt.cod(m) == y and not self.tgt.is_identity(m):
                        right[f"{m}|{y}|{x}|{e}"] = self.act_r(m, x, e)
                for n in self.src.morphism_names():
                    if self.src.dom(n) == x and not self.src.is_identity(n):
                        left[f"{n}|{y}|{x}|{e}"] = self.act_l(n, y, e)
        return {
            "src": self.src.name or "",
            "tgt": self.tgt.name or "",
            "elements": {f"{y}|{x}": list(els) for (y, x), els in sorted(self.elements.items())},
            "right_action": right,
            "left_action": left,
        }


def distributor_violations(p: Distributor) -> list[Violation]:
    violations: list[Violation] = []
    X, Y = p.src, p.tgt
    for (y, x), els in p.elements.items():
        if y not in Y.objects or x not in X.objects:
            violations.append(Violation("endpoint_mismatch", (y, x), "unknown component"))
            continue
        if len(set(els)) != len(els):
            violations.append(Violation("duplicate_name", (y, x), "repeated element"))
    if violations:
        return violations

    for m in Y.morphism_names():
        if Y.is_identity(m):
            continue
        y, y2 = Y.cod(m), Y.dom(m)
        for x in X.objects:
            for e in p.el(y, x):
                img = p.right_action.get((m, x, e))
                if img is None or img not in p.el(y2, x):
                    violations.append(Violation("not_total", (m, y, x, e), "bad right action"))
    for n in X.morphism_names():
        if X.is_identity(n):
            continue
        x, x2 = X.dom(n), X.cod(n)
        for y in Y.objects:
            for e in p.el(y, x):
                img = p.left_action.get((n, y, e))
                if img is None or img not in p.el(y, x2):
                    violations.append(Violation("not_total", (n, y, x, e), "bad left action"))
    if violations:
        return violations

    # contravariant functoriality of the right action
    for m in Y.morphism_names():
        for m2 in Y.morphism_names():
            if Y.cod(m2) != Y.dom(m):
                continue
            comp = Y.comp(m2, m)
            for x in X.objects:
                for e in p.el(Y.cod(m), x):
                    if p.act_r(m2, x, p.act_r(m, x, e)) != p.act_r(comp, x, e):
                        violations.append(Violation("functoriality_fail", (m2, m, x, e), "right action"))
    # covariant functoriality of the left action
    for n in X.morphism_names():
        for n2 in X.morphism_names():
            if X.cod(n) != X.dom(n2):
                continue
            comp = X.comp(n, n2)
            for y in Y.objects:
                for e in p.el(y, X.dom(n)):
                    if p.act_l(n2, y, p.act_l(n, y, e)) != p.act_l(comp, y, e):
                        violations.append(Violation("functoriality_fail", (n, n2, y, e), "left action"))
    # the two actions commute
    for m in Y.morphism_names():
        for n in X.morphism_names():
            y, x = Y.cod(m), X.dom(n)
            for e in p.el(y, x):
                if p.act_l(n, Y.dom(m), p.act_r(m, x, e)) != p.act_r(m, X.cod(n), p.act_l(n, y, e)):
                    violations.append(Violation("actions_do_not_commute", (m, n, y, x, e)))
    return violations


def validate_distributor(p: Distributor, name: str = "") -> Distributor:
    violations = distributor_violations(p)
    if violations:
        raise ValidationFailure(f"distributor {name or p.name or '?'}", violations)
    return p


def distributor_from_dict(raw: dict, src: FinCategory, tgt: FinCategory, name: str = "",
                          where: str = "") -> Distributor:
    """The distributor src -|-> tgt of a document {elements, right_action,
    left_action}; where locates raw."""

    keys = ("elements", "right_action", "left_action")
    elements_doc, right_doc, left_doc = (check_field(raw, key, where) for key in keys)
    at_elements, at_right, at_left = (field_at(where, key) for key in keys)
    elements = {}
    for (y, x), els in split_keys(elements_doc, 2, at_elements).items():
        if not isinstance(els, list) or not all(isinstance(e, str) for e in els):
            raise ParseFailure(at_elements, f"component {y}|{x} must be a list of names")
        elements[(y, x)] = tuple(els)
    right = {}
    for (m, y, x, e), val in split_keys(right_doc, 4, at_right).items():
        if m not in tgt.morphism_names() or tgt.cod(m) != y:
            raise ParseFailure(at_right, f"key {m}|{y}|{x}|{e}: morphism must have cod {y!r}")
        right[(m, x, e)] = val
    left = {}
    for (n, y, x, e), val in split_keys(left_doc, 4, at_left).items():
        if n not in src.morphism_names() or src.dom(n) != x:
            raise ParseFailure(at_left, f"key {n}|{y}|{x}|{e}: morphism must have dom {x!r}")
        left[(n, y, e)] = val
    for at, table in ((at_right, right), (at_left, left)):
        if not all(isinstance(val, str) for val in table.values()):
            raise ParseFailure(at, "values must be element names")
    return validate_distributor(Distributor(src, tgt, elements, right, left, name=name or None))


# ---------------------------------------------------------------------------
# constructions


def hom_distributor(C: FinCategory) -> Distributor:
    """The loose-identity: p(y, x) = C(y, x) with composition actions.

    Built once per category and kept on it, as opposite() is.
    """

    if C._hom_distributor is None:
        C._hom_distributor = _build_hom_distributor(C)
    return C._hom_distributor


def _build_hom_distributor(C: FinCategory) -> Distributor:
    elements = {(y, x): C.hom(y, x) for y in C.objects for x in C.objects}
    right = {}
    left = {}
    for m in C.morphism_names():
        if C.is_identity(m):
            continue
        for x in C.objects:
            for e in C.hom(C.cod(m), x):
                right[(m, x, e)] = C.comp(m, e)
    for n in C.morphism_names():
        if C.is_identity(n):
            continue
        for y in C.objects:
            for e in C.hom(y, C.dom(n)):
                left[(n, y, e)] = C.comp(e, n)
    return Distributor(C, C, elements, right, left,
                       name=f"hom({C.name})" if C.name else "hom")


def restrict_distributor(p: Distributor, f: FunctorData, g: FunctorData) -> Distributor:
    """Restriction p(f, g): components p(f y', g x') with transported actions."""

    if f.cod != p.tgt or g.cod != p.src:
        raise EndpointMismatch("restriction functors must land in p's endpoints")
    Y2, X2 = f.dom, g.dom
    elements = {(y2, x2): p.el(f.ob(y2), g.ob(x2)) for y2 in Y2.objects for x2 in X2.objects}
    right = {}
    left = {}
    for m in Y2.morphism_names():
        if Y2.is_identity(m):
            continue
        for x2 in X2.objects:
            for e in elements[(Y2.cod(m), x2)]:
                right[(m, x2, e)] = p.act_r(f.mor(m), g.ob(x2), e)
    for n in X2.morphism_names():
        if X2.is_identity(n):
            continue
        for y2 in Y2.objects:
            for e in elements[(y2, X2.dom(n))]:
                left[(n, y2, e)] = p.act_l(g.mor(n), f.ob(y2), e)
    return Distributor(X2, Y2, elements, right, left)


def hom_restriction(E: FinCategory, f: FunctorData, g: FunctorData) -> Distributor:
    """E(f, g): the hom of E restricted along f (contravariant) and g (covariant)."""
    return restrict_distributor(hom_distributor(E), f, g)


def dual_distributor(p: Distributor) -> Distributor:
    """The same data read in the opposite categories: (p^op)(x, y) = p(y, x).

    Weighted limits are computed as weighted colimits of the dual.  Built
    once per distributor and kept on it, like FinCategory's opposite().
    """

    if p._dual is not None:
        return p._dual
    src_op = opposite(p.tgt)
    tgt_op = opposite(p.src)
    elements = {(x, y): p.el(y, x) for y in p.tgt.objects for x in p.src.objects}
    right = {}
    left = {}
    # right action of q along m in src(p)^op is the left action of p along m
    for m in p.src.morphism_names():
        if p.src.is_identity(m):
            continue
        for y in p.tgt.objects:
            for e in p.el(y, p.src.dom(m)):
                right[(m, y, e)] = p.act_l(m, y, e)
    for n in p.tgt.morphism_names():
        if p.tgt.is_identity(n):
            continue
        for x in p.src.objects:
            for e in p.el(p.tgt.cod(n), x):
                left[(n, x, e)] = p.act_r(n, x, e)
    p._dual = Distributor(src_op, tgt_op, elements, right, left, name=f"{p.name}^op" if p.name else None)
    return p._dual


# ---------------------------------------------------------------------------
# tensor (pointwise left-composite)


@dataclass
class TensorSet:
    """The coend-style quotient ((+)_y q(a, y) x p(y, x)) / zig-zag.

    pairs lists (y, u, e) triples in canonical order; class_of maps each to
    the least member of its class, which names the class.
    """

    pairs: tuple
    class_of: dict
    classes: tuple

    def class_count(self) -> int:
        return len(self.classes)


def tensor_set(q: Distributor, p: Distributor, a: str, x: str) -> TensorSet:
    """Component at (a, x) of the composite q (.)l p for p: X -|-> Y, q: Y -|-> A.

    The zig-zag relation identifies (u.m, e) with (u, m.e) for every
    m: y' -> y in Y, u in q(a, y') and e in p(y, x).
    """

    if q.src != p.tgt:
        raise EndpointMismatch("tensor needs src(q) = tgt(p)")
    Y = q.src
    pairs = []
    for y in Y.objects:
        for u in q.el(a, y):
            for e in p.el(y, x):
                pairs.append((y, u, e))
    index = {t: i for i, t in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for m in Y.morphism_names():
        if Y.is_identity(m):
            continue
        y, y2 = Y.cod(m), Y.dom(m)   # m: y2 -> y
        for u in q.el(a, y2):
            pushed = q.act_l(m, a, u)           # u.m in q(a, y)
            for e in p.el(y, x):
                pulled = p.act_r(m, x, e)       # m.e in p(y2, x)
                union(index[(y, pushed, e)], index[(y2, u, pulled)])

    class_of = {}
    reps = []
    for i, t in enumerate(pairs):
        r = pairs[find(i)]
        class_of[t] = r
        if r == t:
            reps.append(r)
    return TensorSet(tuple(pairs), class_of, tuple(reps))


# ---------------------------------------------------------------------------
# graded 2-cells


class GradedCell:
    """A natural family over a chain p_1, ..., p_n into a target distributor.

    Chain orientation: tgt(p_1) = dom(f0), src(p_i) = tgt(p_{i+1}), and
    src(p_n) = dom(fn).  Components are keyed by (object tuple, element
    tuple) and take values in q(f0 x_0, fn x_n).  For n = 0 the component at
    x is keyed ((x,), ()).
    """

    def __init__(self, chain, f0: FunctorData, fn: FunctorData, target: Distributor, components):
        self.chain = list(chain)
        self.f0 = f0
        self.fn = fn
        self.target = target
        self.components = dict(components)

    def at(self, xs: tuple, es: tuple) -> str:
        return self.components[(tuple(xs), tuple(es))]

    def table(self):
        return tuple(sorted(self.components.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedCell) and self.table() == other.table()

    def __repr__(self) -> str:
        return f"GradedCell(n={len(self.chain)}, {len(self.components)} components)"


def _chain_domains(chain, f0: FunctorData, fn: FunctorData):
    cats = [f0.dom]
    for i, p in enumerate(chain):
        if p.tgt != cats[-1]:
            raise ChainMismatch(f"chain link {i} target does not match")
        cats.append(p.src)
    if cats[-1] != fn.dom:
        raise ChainMismatch("chain end does not match fn's domain")
    return cats


def _component_keys(chain, cats):
    """All (object tuple, element tuple) keys in canonical order."""

    keys = []
    obj_tuples = itertools.product(*[c.objects for c in cats])
    for xs in obj_tuples:
        element_sets = [chain[i].el(xs[i], xs[i + 1]) for i in range(len(chain))]
        for es in itertools.product(*element_sets):
            keys.append((xs, es))
    return keys


MAX_CHAIN = 2


def enumerate_graded_cells(chain, f0: FunctorData, fn: FunctorData, q: Distributor, budget: int = None):
    """Complete list of natural families over a chain of at most MAX_CHAIN
    distributors, in canonical order.

    The list comes from a pruned search (_graded_search) and equals
    filtering the product of the component tables by the laws, in the
    same order.  Raises BudgetExceeded when that product exceeds the
    budget (budget_limit() by default), whatever the search would prune.
    """

    budget = budget or budget_limit()
    if len(chain) > MAX_CHAIN:
        raise ChainMismatch(f"chains longer than {MAX_CHAIN} are not supported")
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
    search = _graded_search(chain, cats, f0, fn, q, keys, candidate_sets)
    return [GradedCell(chain, f0, fn, q, dict(zip(keys, values))) for values in search.solutions()]


def _graded_search(chain, cats, f0: FunctorData, fn: FunctorData, q: Distributor,
                   keys: list, candidate_sets: list) -> Search:
    """One slot per component key, and every law instance of a graded cell.

    Each instance relates two components and is checked at the later one:
    naturality for n = 0; otherwise naturality in the outer variables x_0
    and x_n and dinaturality in the inner ones.  Instances at identities
    hold for every table and are left out.
    """

    search = Search()
    slot = {key: search.slot(cs) for key, cs in zip(keys, candidate_sets)}
    n = len(chain)
    if n == 0:
        D = cats[0]
        for m in D.morphism_names():
            if D.is_identity(m):
                continue
            x, x2 = D.dom(m), D.cod(m)
            a, b = slot[((x,), ())], slot[((x2,), ())]
            search.require(lambda v, a=a, b=b, fm=fn.mor(m), gm=f0.mor(m), y=f0.ob(x), y2=fn.ob(x2):
                           q.act_l(fm, y, v[a]) == q.act_r(gm, y2, v[b]), a, b)
        return search

    for (xs, es), s in slot.items():
        # outer contravariant variable x_0
        for m in cats[0].morphism_names():
            if cats[0].cod(m) != xs[0] or cats[0].is_identity(m):
                continue
            t = slot[((cats[0].dom(m),) + xs[1:], (chain[0].act_r(m, xs[1], es[0]),) + es[1:])]
            search.require(lambda v, s=s, t=t, gm=f0.mor(m), y=fn.ob(xs[-1]):
                           v[t] == q.act_r(gm, y, v[s]), s, t)
        # outer covariant variable x_n
        for m in cats[n].morphism_names():
            if cats[n].dom(m) != xs[n] or cats[n].is_identity(m):
                continue
            t = slot[(xs[:n] + (cats[n].cod(m),),
                      es[:n - 1] + (chain[n - 1].act_l(m, xs[n - 1], es[n - 1]),))]
            search.require(lambda v, s=s, t=t, fm=fn.mor(m), y=f0.ob(xs[0]):
                           v[t] == q.act_l(fm, y, v[s]), s, t)
        # inner dinaturality along m: x_i -> x_i', each instance once, from
        # the component whose e_{i+1} is the pullback of e_next along m
        for i in range(1, n):
            for m in cats[i].morphism_names():
                if cats[i].dom(m) != xs[i] or cats[i].is_identity(m):
                    continue
                xs2 = xs[:i] + (cats[i].cod(m),) + xs[i + 1:]
                pushed = chain[i - 1].act_l(m, xs[i - 1], es[i - 1])
                for e_next in chain[i].el(cats[i].cod(m), xs[i + 1]):
                    if chain[i].act_r(m, xs[i + 1], e_next) != es[i]:
                        continue
                    t = slot[(xs2, es[:i - 1] + (pushed, e_next) + es[i + 1:])]
                    search.require(lambda v, s=s, t=t: v[s] == v[t], s, t)
    return search


# ---------------------------------------------------------------------------
# exhaustive distributor census (for audits)


def enumerate_distributors(X: FinCategory, Y: FinCategory, element_cap: int, budget: int = None):
    """All distributors X -|-> Y with component sizes <= element_cap.

    Elements are named canonically per component.  For each choice of sizes
    the list comes from a pruned search (_distributor_search) and equals
    filtering the product of the action tables by the laws, in the same
    order.  Raises BudgetExceeded when the size choices, or the action tables
    of one choice, exceed the budget (budget_limit() by default), whatever
    the search would prune; every choice is checked before any distributor
    is built, so a refused call builds none.  Nothing is memoized: a caller
    that asks again reads the list through its run's census
    (DownstairsCensus.weights).
    """

    budget = budget or budget_limit()
    comps = [(y, x) for y in Y.objects for x in X.objects]
    size_choices = (element_cap + 1) ** len(comps) if comps else 1
    if size_choices > budget:
        raise BudgetExceeded("distributor census", size_choices, budget)

    # (source, target) component of the entries of each action table, in
    # entry order: right-action entries (m, x, e), then left-action ones (n, y, e)
    index = {comp: i for i, comp in enumerate(comps)}
    rights = [(m, x) for m in Y.morphism_names() if not Y.is_identity(m) for x in X.objects]
    lefts = [(n, y) for n in X.morphism_names() if not X.is_identity(n) for y in Y.objects]
    groups = ([(index[(Y.cod(m), x)], index[(Y.dom(m), x)]) for m, x in rights]
              + [(index[(y, X.dom(n))], index[(y, X.cod(n))]) for n, y in lefts])
    kept = []
    for sizes in itertools.product(range(element_cap + 1), repeat=len(comps)):
        space = 1
        for s, t in groups:
            if not sizes[s]:
                continue
            if not sizes[t]:
                break       # an entry with nowhere to go: no distributor has these sizes
            if space * sizes[t] ** sizes[s] > budget:
                while space <= budget:      # the first entry past the budget
                    space *= sizes[t]
                raise BudgetExceeded("distributor census", space, budget)
            space *= sizes[t] ** sizes[s]
        else:
            kept.append(sizes)
    out = []
    for sizes in kept:
        elements = {comp: tuple(f"e{i}" for i in range(k)) for comp, k in zip(comps, sizes)}
        right = {(m, x, e): elements[(Y.dom(m), x)] for m, x in rights for e in elements[(Y.cod(m), x)]}
        left = {(n, y, e): elements[(y, X.cod(n))] for n, y in lefts for e in elements[(y, X.dom(n))]}
        search = _distributor_search(X, Y, right, left)
        out.extend(Distributor(X, Y, elements, zip(right, values), zip(left, values[len(right):]))
                   for values in search.solutions())
    return out


def _distributor_search(X: FinCategory, Y: FinCategory, right: dict, left: dict) -> Search:
    """One slot per right-action entry, then one per left-action entry, and
    every law instance at non-identity morphisms, guarded by the entries
    whose values choose the entries it reads (search.py).  Where a composite
    is an identity, its side of the law is the element itself."""

    search = Search()
    R = {key: search.slot(targets) for key, targets in right.items()}
    L = {key: search.slot(targets) for key, targets in left.items()}
    # act(g, z, act(f, z, e)) == act(fg, z, e) for f then g in the order the
    # action applies them: fg is f ; g for the left action, g ; f for the right
    for C, T, pairs in ((Y, R, [(g, f, fg) for f, g, fg in Y.composable_pairs()]),
                        (X, L, X.composable_pairs())):
        for (f, z, e), a in T.items():
            for f2, g, fg in pairs:
                if f2 != f or C.is_identity(g):
                    continue
                c = T.get((fg, z, e))       # None where fg is an identity
                for u in search.domains[a]:
                    b = T[(g, z, u)]
                    if c is None:
                        search.require(lambda v, a=a, u=u, b=b, e=e: v[a] != u or v[b] == e, a, b)
                    else:
                        search.require(lambda v, a=a, u=u, b=b, c=c: v[a] != u or v[b] == v[c], a, b, c)
    # act_l(n, y', act_r(m, x, e)) == act_r(m, x', act_l(n, y, e)) for m: y' -> y, n: x -> x';
    # the entries d of act_r(m, x', -) are right-action slots, so all precede b
    for (m, x, e), a in R.items():
        for (n, y, e2), b in L.items():
            if (X.dom(n), y, e2) != (x, Y.cod(m), e):
                continue
            d = {w: R[(m, X.cod(n), w)] for w in search.domains[b]}
            for u in search.domains[a]:
                c = L[(n, Y.dom(m), u)]
                search.require(lambda v, a=a, u=u, b=b, c=c, d=d: v[a] != u or v[c] == v[d[v[b]]],
                               a, b, c, *d.values())
    return search
