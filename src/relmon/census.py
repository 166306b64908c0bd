"""The run-scoped census of weights, (co)limits, absoluteness and creation verdicts.

A suite run asks the same (co)limit and creation questions again and
again, across theorems, monads and roots.  DownstairsCensus answers each
one once per (weight, diagram) position: it stores the (co)limit found as
an id into one table of interned results, in one map of rows keyed by the
diagram's target without the root, so that every root over one E and
both ways of asking (upstairs, downstairs) share one search; a
j-absoluteness byte, read first so that a warm lookup decodes nothing;
and a creation byte per (g, kind) holding both modes' verdicts, checked
together, from creation records in the pointwise store, without reading
a whole (co)limit.  The class docstring gives the row layout.

Questions name a weight by a handle from weights(X, Y, cap, budget), which
enumerates the distributors X -|-> Y once per census: a Weight holds p,
its position in that list, the list's cap and its leg keys, so a caller
cannot name a position the census did not hand out.  The census also owns
the pointwise store that every (co)limit search and creation check it runs
reads and fills: one record per (diagram id, column id) with the colimit
at one x and the natural families there, shared by every weight whose
column p(-, x) has the same content (colim._UniversalityChecker gives the
layout); per (root, diagram id) the j-absoluteness at each column
(colim.is_j_absolute); and per (diagram id, g by content) the creation
record at each column (colim._CreationAt), which holds what both creation
modes need at one x, strict creation over every colimiting cocone
included, so that a position fetches its records once for both modes
and checks only what spans two x's.  Limit creation is checked in the
dual: g's opposite is built once per census, a weight's dual once while
its positions are asked in a row, and the diagram's once per position.

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
# a creation byte: _CHECKED, plus _PASSED << i for each _MODES[i] whose check passed
_CHECKED, _PASSED = 1, 2
_MODES = ("strict", "nonstrict")


class Weight(NamedTuple):
    """A weight p: X -|-> Y at position index of the list that
    DownstairsCensus.weights(X, Y, cap, budget) returned, with the keys of
    its colimit and limit legs in the order the searches list them."""

    p: Distributor
    index: int
    cap: int
    colimit_legs: tuple
    limit_legs: tuple

    def legs(self, kind: str) -> tuple:
        return self.colimit_legs if kind == "colimit" else self.limit_legs


class Diagram(NamedTuple):
    """f: Z -> dom g at position index of enumerate_functors(Z, dom g), and
    its composite d = f ; g at position d_index of enumerate_functors(Z, cod g)."""

    f: FunctorData
    index: int
    d: FunctorData
    d_index: int


def _handles(weights: list, cap: int) -> list[Weight]:
    """A Weight for each p in weights, the list at cap; equal leg keys,
    which most weights of one list share, are held once."""

    legs = {}
    out = []
    for i, p in enumerate(weights):
        X, Y = p.src, p.tgt
        colimit = tuple((y, x, e) for x in X.objects for y in Y.objects for e in p.el(y, x))
        limit = tuple((x, y, e) for y in Y.objects for x in X.objects for e in p.el(y, x))
        out.append(Weight(p, i, cap, legs.setdefault(colimit, colimit), legs.setdefault(limit, limit)))
    return out


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
    position: the entry for a weight handle w and a diagram Z -> C sits at
    w.index * n + i, where i is the diagram's position among the n
    functors of enumerate_functors(Z, C), as diagrams(Z, g) records them
    for C = cod g and C = dom g.

    * Result rows, keyed (C, X, Y, cap, kind) without the root, hold the
      (co)limit of each diagram into C as an id into one table of interned
      results; a result is packed as 2-byte indices of the apex's objects
      and morphisms and of the legs, in the handle's leg order, into C's
      objects and morphisms.  A diagram f into dom g (upstairs) and a
      diagram d into E (downstairs) read the same map, so a question asked
      both ways is searched once.
    * Absoluteness rows, keyed (root j: A -> E by content, X, Y, cap),
      hold one byte per colimit: NO_COLIMIT, COLIMIT or ABSOLUTE_COLIMIT,
      plus one.
    * Creation rows, keyed (g by content, X, Y, cap, kind) without the
      mode, hold one byte per position: _CHECKED, plus _PASSED << i for
      each mode _MODES[i] that passes.  The first question at a position
      checks both modes from the creation records at its x's, kept in the
      pointwise store per (g, diagram, column), not from the position's
      (co)limits.

    Zero means unknown everywhere.
    """

    def __init__(self):
        self._absolute: dict[tuple, array] = {}
        self._found: dict[tuple, array] = {}
        self._creations: dict[tuple, array] = {}
        self._results: list[bytes] = []
        self._result_ids: dict[bytes, int] = {}
        self._positions: dict[tuple, dict] = {}
        self._contents: dict[tuple, tuple] = {}
        self._dual = (None, None)
        self._opposites: dict[tuple, FunctorData] = {}
        self._weights: dict[tuple, list] = {}
        self._pointwise: dict[tuple, dict] = {}

    def weights(self, X: FinCategory, Y: FinCategory, cap: int, budget: int) -> list[Weight]:
        """A handle for each of enumerate_distributors(X, Y, cap, budget),
        computed once per census.  The budget is part of the key because it
        decides whether the enumeration raises BudgetExceeded."""

        key = (X, Y, cap, budget)
        weights = self._weights.get(key)
        if weights is None:
            weights = self._weights[key] = _handles(prof.enumerate_distributors(X, Y, cap, budget), cap)
        return weights

    def diagrams(self, Z: FinCategory, g: FunctorData) -> list[Diagram]:
        """Every f: Z -> dom g in enumerate_functors order, with f ; g and its
        position, recording the positions of both enumerations."""

        positions, E = self._positions, g.cod
        if (Z, E) not in positions:
            positions[(Z, E)] = {d.table(): i for i, d in enumerate(fincat.enumerate_functors(Z, E))}
        fs = list(fincat.enumerate_functors(Z, g.dom))
        if (Z, g.dom) not in positions:
            positions[(Z, g.dom)] = {f.table(): i for i, f in enumerate(fs)}
        down, ds = positions[(Z, E)], [compose_functors(f, g) for f in fs]
        return [Diagram(f, i, d, down[d.table()]) for i, (f, d) in enumerate(zip(fs, ds))]

    def colimit(self, j: FunctorData, w: Weight, diagram: Diagram) -> int:
        """NO_COLIMIT, COLIMIT (not j-absolute) or ABSOLUTE_COLIMIT for the w.p-weighted colimit of diagram.d."""

        d = diagram.d
        n = len(self._positions[(d.dom, d.cod)])
        key = (self._content(j), w.p.src, w.p.tgt, w.cap)
        row, pos = _cell(self._absolute, key, "B", n, w.index, diagram.d_index)
        if not row[pos]:
            down = self.downstairs(w, diagram, "colimit")
            if down is None:
                row[pos] = NO_COLIMIT + 1
            else:
                absolute, _ = colim.is_j_absolute(j, down, store=self._pointwise)
                row[pos] = (ABSOLUTE_COLIMIT if absolute else COLIMIT) + 1
        return row[pos] - 1

    def limit(self, w: Weight, diagram: Diagram) -> bool:
        """Does the w.p-weighted limit of diagram.d exist?"""

        return self._entry(w, diagram.d, diagram.d_index, "limit")[0] != _MISSING

    def downstairs(self, w: Weight, diagram: Diagram, kind: str):
        """The w.p-weighted (co)limit of diagram.d, as try_weighted_colimit or
        try_weighted_limit finds it, or None."""

        return self._result(w, diagram.d, diagram.d_index, kind)

    def upstairs(self, w: Weight, diagram: Diagram, kind: str):
        """The w.p-weighted (co)limit of diagram.f, or None."""

        return self._result(w, diagram.f, diagram.index, kind)

    def creation(self, g: FunctorData, w: Weight, diagram: Diagram, kind: str, mode: str) -> bool:
        """check_creation(g, w.p, diagram.f, mode, kind).passed.  The first
        question at a position fetches its creation records from the
        pointwise store once (for a limit, in the dual built once) and
        checks both modes from them, and the census keeps both verdicts."""

        f = diagram.f
        n = len(self._positions[(f.dom, f.cod)])
        g_key = self._content(g)
        row, pos = _cell(self._creations, (g_key, w.p.src, w.p.tgt, w.cap, kind), "B",
                         n, w.index, diagram.index)
        if not row[pos]:
            g_op = pd = None
            if kind == "limit":
                g_op, pd = self._opposite(g_key, g), self._dual_of(w.p)
            records = colim.creation_records(g, w.p, f, kind, store=self._pointwise, g_op=g_op, pd=pd)
            verdicts = _CHECKED
            for i, checked_mode in enumerate(_MODES):
                report = colim.check_creation(g, w.p, f, mode=checked_mode, kind=kind, records=records)
                if report.passed:
                    verdicts |= _PASSED << i
            row[pos] = verdicts
        return bool(row[pos] & (_PASSED << _MODES.index(mode)))

    def _entry(self, w: Weight, d: FunctorData, index: int, kind: str) -> tuple:
        """(row entry, the (co)limit when it was searched now, else None) for
        the diagram d at position index of enumerate_functors(d.dom, d.cod)."""

        p = w.p
        n = len(self._positions[(d.dom, d.cod)])
        row, pos = _cell(self._found, (d.cod, p.src, p.tgt, w.cap, kind), "I", n, w.index, index)
        if row[pos]:
            return row[pos], None
        if kind == "colimit":
            found, _ = colim.try_weighted_colimit(p, d, store=self._pointwise)
        else:
            found, _ = colim.dual_limit_search(p, self._dual_of(p), d, store=self._pointwise)
        row[pos] = _MISSING if found is None else self._intern(w, found, kind) + _FIRST_ID
        return row[pos], found

    def _result(self, w: Weight, d: FunctorData, index: int, kind: str):
        entry, found = self._entry(w, d, index, kind)
        if found is not None or entry == _MISSING:
            return found
        W = d.cod
        Z = w.p.src if kind == "colimit" else w.p.tgt
        code = array("H", self._results[entry - _FIRST_ID])
        objects, names = Z.objects, Z.morphism_names()
        n_ob, n_mor = len(objects), len(names)
        W_names = W.morphism_names()
        apex = FunctorData(Z, W, {z: W.objects[i] for z, i in zip(objects, code)},
                           {m: W_names[i] for m, i in zip(names, code[n_ob:])})
        legs = {s: W_names[i] for s, i in zip(w.legs(kind), code[n_ob + n_mor:])}
        return (WeightedColimit if kind == "colimit" else WeightedLimit)(w.p, d, apex, legs)

    def _intern(self, w: Weight, found, kind: str) -> int:
        W = found.diagram.cod
        apex = found.apex
        code = array("H", [W._obj_index[apex.ob(z)] for z in apex.dom.objects]
                     + [W._mor_index[apex.mor(m)] for m in apex.dom.morphism_names()]
                     + [W._mor_index[found.legs[s]] for s in w.legs(kind)]).tobytes()
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

    def _opposite(self, g_key: tuple, g: FunctorData) -> FunctorData:
        """g between the opposite categories, built once per content of g."""

        g_op = self._opposites.get(g_key)
        if g_op is None:
            g_op = self._opposites[g_key] = fincat.opposite_functor(
                g, fincat.opposite(g.dom), fincat.opposite(g.cod))
        return g_op

    def _dual_of(self, p: Distributor) -> Distributor:
        """dual_distributor(p), built once while one weight's diagrams are asked in a row."""

        if self._dual[0] is not p:
            self._dual = (p, dual_distributor(p))
        return self._dual[1]
