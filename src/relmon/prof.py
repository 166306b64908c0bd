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
)
from .fincat import FinCategory, FunctorData, opposite
from .lru import LRUCache


class Distributor:
    """Elements p(y, x) with a right Y-action and a left X-action.

    right_action is keyed (m, x, e) for m: y' -> y in Y and e in p(y, x),
    giving the image in p(y', x); left_action is keyed (n, y, e) for
    n: x -> x' in X and e in p(y, x), giving the image in p(y, x').
    Identity actions are stored implicitly.
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
        return (tuple(sorted(self.elements.items())),
                tuple(sorted(self.right_action.items())),
                tuple(sorted(self.left_action.items())))

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


def distributor_from_dict(raw: dict, src: FinCategory, tgt: FinCategory, name: str = "") -> Distributor:
    for key in ("elements", "right_action", "left_action"):
        if key not in raw:
            raise ParseFailure(key, "missing field")
    elements = {}
    for key, els in raw["elements"].items():
        parts = key.split("|")
        if len(parts) != 2:
            raise ParseFailure("elements", f"bad component key {key!r}")
        elements[(parts[0], parts[1])] = tuple(els)
    right = {}
    for key, val in raw["right_action"].items():
        parts = key.split("|")
        if len(parts) != 4:
            raise ParseFailure("right_action", f"bad key {key!r}")
        m, y, x, e = parts
        if m not in tgt.morphism_names() or tgt.cod(m) != y:
            raise ParseFailure("right_action", f"key {key!r}: morphism must have cod {y!r}")
        right[(m, x, e)] = val
    left = {}
    for key, val in raw["left_action"].items():
        parts = key.split("|")
        if len(parts) != 4:
            raise ParseFailure("left_action", f"bad key {key!r}")
        n, y, x, e = parts
        if n not in src.morphism_names() or src.dom(n) != x:
            raise ParseFailure("left_action", f"key {key!r}: morphism must have dom {x!r}")
        left[(n, y, e)] = val
    return validate_distributor(Distributor(src, tgt, elements, right, left, name=name or None))


# ---------------------------------------------------------------------------
# constructions


def hom_distributor(C: FinCategory) -> Distributor:
    """The loose-identity: p(y, x) = C(y, x) with composition actions."""

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

    Weighted limits are computed as weighted colimits of the dual.
    """

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
    return Distributor(src_op, tgt_op, elements, right, left,
                       name=f"{p.name}^op" if p.name else None)


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


MAX_CHAIN = 2


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
# exhaustive distributor census (for audits)


CENSUS_CACHE_SIZE = 32
_census_cache = LRUCache(CENSUS_CACHE_SIZE)


def enumerate_distributors(X: FinCategory, Y: FinCategory, element_cap: int,
                           budget: int = 200_000):
    """All distributors X -|-> Y with component sizes <= element_cap.

    Elements are named canonically per component; enumeration order is
    deterministic.  Raises BudgetExceeded when the raw candidate space is
    too large to walk.  Results are memoized per (X, Y, cap, budget) by
    content, in a bounded LRU of CENSUS_CACHE_SIZE entries; the budget is
    part of the key because it decides whether the census raises.
    """

    cache_key = (X.table(), Y.table(), element_cap, budget)
    cached = _census_cache.get(cache_key)
    if cached is not None:
        return cached
    out = _enumerate_distributors(X, Y, element_cap, budget)
    _census_cache.put(cache_key, out)
    return out


def _enumerate_distributors(X: FinCategory, Y: FinCategory, element_cap: int,
                            budget: int):
    comps = [(y, x) for y in Y.objects for x in X.objects]
    size_choices = (element_cap + 1) ** len(comps) if comps else 1
    if size_choices > budget:
        raise BudgetExceeded("distributor census", size_choices, budget)

    nonid_Y = [m for m in Y.morphism_names() if not Y.is_identity(m)]
    nonid_X = [n for n in X.morphism_names() if not X.is_identity(n)]
    out = []
    for sizes in itertools.product(range(element_cap + 1), repeat=len(comps)):
        elements = {
            comp: tuple(f"e{i}" for i in range(k))
            for comp, k in zip(comps, sizes)
        }

        right_slots = []
        for m in nonid_Y:
            for x in X.objects:
                src_els = elements[(Y.cod(m), x)]
                tgt_els = elements[(Y.dom(m), x)]
                for e in src_els:
                    right_slots.append(((m, x, e), tgt_els))
        left_slots = []
        for n in nonid_X:
            for y in Y.objects:
                src_els = elements[(y, X.dom(n))]
                tgt_els = elements[(y, X.cod(n))]
                for e in src_els:
                    left_slots.append(((n, y, e), tgt_els))

        space = 1
        feasible = True
        for _, tgt_els in right_slots + left_slots:
            if not tgt_els:
                feasible = False
                break
            space *= len(tgt_els)
            if space > budget:
                raise BudgetExceeded("distributor census", space, budget)
        if not feasible:
            continue

        for right_combo in itertools.product(*[t for _, t in right_slots]):
            right = {k: v for (k, _), v in zip(right_slots, right_combo)}
            cand = Distributor(X, Y, elements, right, {})
            if _right_functorial(cand, nonid_Y):
                for left_combo in itertools.product(*[t for _, t in left_slots]):
                    left = {k: v for (k, _), v in zip(left_slots, left_combo)}
                    full = Distributor(X, Y, elements, right, left)
                    if not distributor_violations(full):
                        out.append(full)
    return out


def _right_functorial(p: Distributor, nonid_Y) -> bool:
    Y = p.tgt
    for m in nonid_Y:
        for m2 in nonid_Y:
            if Y.cod(m2) != Y.dom(m):
                continue
            comp = Y.comp(m2, m)
            for x in p.src.objects:
                for e in p.el(Y.cod(m), x):
                    if p.act_r(m2, x, p.act_r(m, x, e)) != p.act_r(comp, x, e):
                        return False
    return True
