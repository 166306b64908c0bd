"""The run-scoped census of weights, (co)limits, absoluteness and creation verdicts.

A suite run asks the same (co)limit and creation questions again and
again, across theorems, monads and roots.  DownstairsCensus answers each
one once per (weight, diagram) position: it stores the (co)limit found as
an id into one table of interned results, in rows keyed without the root
so that every root over one E shares one search; a j-absoluteness byte,
read first so that a warm lookup decodes nothing; and a creation byte per
(g, kind, mode), checked with both (co)limits read from the census.  The
class docstring gives the row layout.

The census also keeps the weight lists its positions index: weights(X, Y,
cap, budget) enumerates the distributors X -|-> Y once per census.  And it
owns the pointwise store that every (co)limit search and creation check it
runs reads and fills: one record per (diagram id, column id) with the
colimit at one x and the natural families there, shared by every weight
whose column p(-, x) has the same content (colim._UniversalityChecker
gives the layout).  Positions share answers only per whole (weight,
diagram); the store shares them per x across weights.

A suite run holds one census in its context for forgetful_creates,
preservation_conservativity, monadicity_crosscheck, density_necessity and
algebraic_tight_cells; a creation audit without one makes its own.  It is
dropped with the run or the audit, and it is the engine's only cache of
colimit results, natural families and weight lists.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

# the searches are called through their modules, so that instrumentation
# patching module attributes (bench/tracing.py) counts the census's calls
from . import colim, fincat, prof
from .colim import WeightedColimit, WeightedLimit
from .fincat import FinCategory, FunctorData, compose_functors
from .prof import Distributor, dual_distributor


NO_COLIMIT, COLIMIT, ABSOLUTE_COLIMIT = 0, 1, 2
# result rows hold 0 (not searched), _MISSING, or a result's id + _FIRST_ID
_MISSING, _FIRST_ID = 1, 2


class Diagram(NamedTuple):
    """f: Z -> dom g at position index of enumerate_functors(Z, dom g), and
    its composite d = f ; g at position d_index of enumerate_functors(Z, cod g)."""

    f: FunctorData
    index: int
    d: FunctorData
    d_index: int


def _leg_slots(p: Distributor, kind: str) -> list:
    """The keys of a (co)limit's legs, in the order the search lists them."""

    X, Y = p.src, p.tgt
    if kind == "colimit":
        return [(y, x, e) for x in X.objects for y in Y.objects for e in p.el(y, x)]
    return [(x, y, e) for y in Y.objects for x in X.objects for e in p.el(y, x)]


def _cell(rows: dict, key: tuple, typecode: str, n: int, weight_index: int, index: int) -> tuple:
    """(row, position) of the entry for (weight_index, index) in a row of n
    entries per weight, growing the row with zeros (unknown) as needed."""

    row = rows.get(key)
    if row is None:
        row = rows[key] = array(typecode)
    end = (weight_index + 1) * n
    if len(row) < end:
        row.frombytes(bytes((end - len(row)) * row.itemsize))
    return row, weight_index * n + index


class DownstairsCensus:
    """(Co)limits, absoluteness and creation verdicts, one entry per (weight, diagram) position.

    A (co)limit depends only on the weight p: X -|-> Y and the diagram;
    j-absoluteness also on the root j: A -> E; a creation verdict on the
    functor g: W -> E, p and f: Z -> W.  None depends on which monad or
    candidate produced the question.  One census is held for one suite run
    or one creation audit and dropped with it.

    Rows are keyed by content, never by object identity, and indexed by
    position: the entry for p and a diagram sits at weight_index * n +
    diagram_index, where weight_index is p's position in the list that
    weights(X, Y, element_cap, budget) keeps, and diagram_index the
    diagram's position among the n functors that diagrams(Z, g) walks.

    * Result rows, keyed (target, X, Y, element_cap, kind) without the root,
      hold the (co)limit of each diagram as an id into one table of interned
      results; a result is packed as 2-byte indices of the apex's objects
      and morphisms and of the legs into the target's objects and
      morphisms.  Downstairs rows (diagrams into E) and upstairs rows
      (diagrams into dom g) are kept in separate maps, so that size()
      counts the downstairs ones; each map copies what the other knows.
    * Absoluteness rows, keyed (root j: A -> E by content, X, Y,
      element_cap), hold one byte per colimit: NO_COLIMIT, COLIMIT or
      ABSOLUTE_COLIMIT, plus one.
    * Creation rows, keyed (g by content, X, Y, element_cap, kind, mode),
      hold one byte per question: 1 fails, 2 passes.

    Zero means unknown everywhere.
    """

    def __init__(self):
        self._absolute: dict[tuple, array] = {}
        self._downstairs: dict[tuple, array] = {}
        self._upstairs: dict[tuple, array] = {}
        self._creations: dict[tuple, array] = {}
        self._results: list[bytes] = []
        self._result_ids: dict[bytes, int] = {}
        self._positions: dict[tuple, dict] = {}
        self._counts: dict[tuple, int] = {}
        self._contents: dict[tuple, tuple] = {}
        self._dual = (None, None)
        self._weights: dict[tuple, list] = {}
        self._pointwise: dict[tuple, dict] = {}

    def weights(self, X: FinCategory, Y: FinCategory, element_cap: int, budget: int) -> list:
        """enumerate_distributors(X, Y, element_cap, budget), computed once per
        census.  The budget is part of the key because it decides whether the
        enumeration raises BudgetExceeded."""

        key = (X, Y, element_cap, budget)
        weights = self._weights.get(key)
        if weights is None:
            weights = self._weights[key] = prof.enumerate_distributors(X, Y, element_cap, budget)
        return weights

    def diagrams(self, Z: FinCategory, g: FunctorData) -> list[Diagram]:
        """Every f: Z -> dom g in enumerate_functors order, with f ; g and its position."""

        E = g.cod
        positions = self._positions.get((Z, E))
        if positions is None:
            positions = {d.table(): i for i, d in enumerate(fincat.enumerate_functors(Z, E))}
            self._positions[(Z, E)] = positions
        out = []
        for i, f in enumerate(fincat.enumerate_functors(Z, g.dom)):
            d = compose_functors(f, g)
            out.append(Diagram(f, i, d, positions[d.table()]))
        self._counts[(Z, g.dom)] = len(out)
        return out

    def colimit(self, j: FunctorData, p: Distributor, weight_index: int, diagram: Diagram,
                element_cap: int) -> int:
        """NO_COLIMIT, COLIMIT (not j-absolute) or ABSOLUTE_COLIMIT for the p-weighted colimit of diagram.d."""

        d = diagram.d
        n = len(self._positions[(p.tgt, d.cod)])
        key = (self._content(j), p.src, p.tgt, element_cap)
        row, pos = _cell(self._absolute, key, "B", n, weight_index, diagram.d_index)
        if not row[pos]:
            down = self.downstairs(p, weight_index, diagram, element_cap, "colimit")
            if down is None:
                row[pos] = NO_COLIMIT + 1
            else:
                row[pos] = (ABSOLUTE_COLIMIT if colim.is_j_absolute(j, down)[0] else COLIMIT) + 1
        return row[pos] - 1

    def limit(self, p: Distributor, weight_index: int, diagram: Diagram, element_cap: int) -> bool:
        """Does the p-weighted limit of diagram.d exist?"""

        return self._entry(False, p, weight_index, diagram, element_cap, "limit")[0] != _MISSING

    def downstairs(self, p: Distributor, weight_index: int, diagram: Diagram, element_cap: int,
                   kind: str):
        """The p-weighted (co)limit of diagram.d, as try_weighted_colimit or
        try_weighted_limit finds it, or None."""

        return self._result(False, p, weight_index, diagram, element_cap, kind)

    def upstairs(self, p: Distributor, weight_index: int, diagram: Diagram, element_cap: int,
                 kind: str):
        """The p-weighted (co)limit of diagram.f, or None."""

        return self._result(True, p, weight_index, diagram, element_cap, kind)

    def creation(self, g: FunctorData, p: Distributor, weight_index: int, diagram: Diagram,
                 element_cap: int, kind: str, mode: str) -> bool:
        """check_creation(g, p, diagram.f, mode, kind).passed, checked once per
        census with both (co)limits read from it."""

        f = diagram.f
        n = self._counts[(f.dom, f.cod)]
        key = (self._content(g), p.src, p.tgt, element_cap, kind, mode)
        row, pos = _cell(self._creations, key, "B", n, weight_index, diagram.index)
        if not row[pos]:
            report = colim.check_creation(
                g, p, f, mode=mode, kind=kind,
                down=self.downstairs(p, weight_index, diagram, element_cap, kind),
                up=self.upstairs(p, weight_index, diagram, element_cap, kind),
                store=self._pointwise)
            row[pos] = 1 + report.passed
        return row[pos] == 2

    def size(self) -> tuple[int, int]:
        """(rows, bytes) held for diagrams into E: absoluteness and downstairs result rows."""

        rows = list(self._absolute.values()) + list(self._downstairs.values())
        return len(rows), sum(len(row) * row.itemsize for row in rows)

    def _entry(self, upstairs: bool, p: Distributor, weight_index: int, diagram: Diagram,
               element_cap: int, kind: str) -> tuple:
        """(row entry, the (co)limit when it was searched now, else None) for
        diagram.f (upstairs) or diagram.d.  An entry known at the same
        position of the same row in the other map is copied, not searched."""

        if upstairs:
            rows, other, d, index = self._upstairs, self._downstairs, diagram.f, diagram.index
            n = self._counts[(d.dom, d.cod)]
        else:
            rows, other, d, index = self._downstairs, self._upstairs, diagram.d, diagram.d_index
            n = len(self._positions[(d.dom, d.cod)])
        key = (d.cod, p.src, p.tgt, element_cap, kind)
        row, pos = _cell(rows, key, "I", n, weight_index, index)
        if not row[pos]:
            known = other.get(key)
            if known is not None and pos < len(known):
                row[pos] = known[pos]
        if row[pos]:
            return row[pos], None
        if kind == "colimit":
            found, _ = colim.try_weighted_colimit(p, d, store=self._pointwise)
        else:
            found, _ = colim.dual_limit_search(p, self._dual_of(p), d, store=self._pointwise)
        row[pos] = _MISSING if found is None else self._intern(found, kind) + _FIRST_ID
        return row[pos], found

    def _result(self, upstairs: bool, p: Distributor, weight_index: int, diagram: Diagram,
                element_cap: int, kind: str):
        entry, found = self._entry(upstairs, p, weight_index, diagram, element_cap, kind)
        if found is not None or entry == _MISSING:
            return found
        d = diagram.f if upstairs else diagram.d
        W = d.cod
        Z = p.src if kind == "colimit" else p.tgt
        code = array("H", self._results[entry - _FIRST_ID])
        objects, names = Z.objects, Z.morphism_names()
        n_ob, n_mor = len(objects), len(names)
        W_names = W.morphism_names()
        apex = FunctorData(Z, W, {z: W.objects[i] for z, i in zip(objects, code)},
                           {m: W_names[i] for m, i in zip(names, code[n_ob:])})
        legs = {s: W_names[i] for s, i in zip(_leg_slots(p, kind), code[n_ob + n_mor:])}
        return (WeightedColimit if kind == "colimit" else WeightedLimit)(p, d, apex, legs)

    def _intern(self, found, kind: str) -> int:
        W = found.diagram.cod
        apex = found.apex
        code = array("H", [W._obj_index[apex.ob(z)] for z in apex.dom.objects]
                     + [W._mor_index[apex.mor(m)] for m in apex.dom.morphism_names()]
                     + [W._mor_index[found.legs[s]] for s in _leg_slots(found.weight, kind)]).tobytes()
        result_id = self._result_ids.get(code)
        if result_id is None:
            result_id = self._result_ids[code] = len(self._results)
            self._results.append(code)
        return result_id

    def _content(self, F: FunctorData) -> tuple:
        """(dom, cod, table) of F, stored once per content and shared by
        every row key that names F."""

        key = (F.dom, F.cod, F.table())
        return self._contents.setdefault(key, key)

    def _dual_of(self, p: Distributor) -> Distributor:
        """dual_distributor(p), built once while one weight's diagrams are asked in a row."""

        if self._dual[0] is not p:
            self._dual = (p, dual_distributor(p))
        return self._dual[1]
