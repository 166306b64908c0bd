"""The run-scoped census of weights, (co)limit existence, absoluteness and creation verdicts.

A suite run asks the same (co)limit and creation questions again and
again, across theorems, monads and roots.  DownstairsCensus answers them
per (weight class, diagram) position: whether the colimit exists and is
j-absolute, whether the limit exists, both creation modes' verdicts, and
whether g preserves the colimit.  It keeps no (co)limit of its own and
assembles none.  A weighted colimit is pointwise in x (Kelly, Basic
Concepts of Enriched Category Theory, 3.1), so each answer is a
conjunction, over the weight's columns p(-, x), of facts about one
(column, diagram) pair, read from the pointwise store.  The census keeps
each fact as one bit of an int per column, one fact for many diagrams,
as bit-parallel text search does (Baeza-Yates and Gonnet, "A new
approach to text searching", CACM 35(10), 1992); the class docstring
gives the layout.

Every answer is invariant under an isomorphism of weights, so a loop asks
about one weight per class.  A weighted colimit is functorial in its
weight (Kelly, 3.1): an isomorphism phi: p ~= p' sends each p-weighted
cocone to a p'-weighted one with the same apex (legs lam . phi^-1), one
to one and naturally in the apex.  So colimits exist for both or neither,
and j-absoluteness agrees (phi carries the canonical map from E(j, f)
(.) p); in the dual, so do limits; and preservation and both creation
modes, which quantify over cocones up- and downstairs and their g-images,
agree.

Questions name a weight by a handle from weights(X, Y, cap, budget), which
enumerates the distributors X -|-> Y once per census: a Weight holds p,
its position in that list, the list's cap and the number of its
isomorphism class there (_class_ids), so a caller cannot name a position
the census did not hand out; callers read the labelled p and index.
Questions name a diagram by a handle from diagrams(Z, g): a Diagram holds
f, d = f ; g, their positions, the census that made it and that census's
store entries for it, resolved once (colim.CreationEntry): the colimit
records of f and d and the creation records of (g, f), and their duals
for limits.  A handle cannot go stale: its entries are the store's own
dicts, keyed by content, which the store only adds to, and a census
refuses a handle made by another census or for another g.

Questions come as lists of (weight handle, diagram handles) pairs, the
weights of one weight list and the diagrams made for one g, in any order
and with repeats: colimits, limits, creations and preserved.  A list
checks each distinct diagram list once and answers each pair with a few
bit operations per column of its weight (prof.Distributor.columns, kept
per weight and per dual); the one-position questions (colimit, limit,
creation, preserves) are lists of one.  Loops ask about the first member
of each weight class (class_representatives, kept beside each list by
weight_classes).  A fact not yet known is decided once, by the search or
check a position walking its columns in x order would make.

The pointwise store holds one record per (diagram id, column id)
(colim._Column): the colimit at one x and the natural families there,
with their plan, shared by every weight whose column p(-, x) has the
same content.  It holds per (root, diagram id) the
j-absoluteness at each column (colim.first_failing_at), and per (diagram
id, g by content) the creation record at each column (colim._CreationAt),
which holds what both creation modes need at one x, strict creation over
every colimiting cocone and preservation included, so that a position
fetches its records once for all three.  Limits are answered in the
dual: g's and the diagram's opposites are built once per handle, and a
weight's dual is kept on it (prof.dual_distributor).

A suite run holds one census in its context for forgetful_creates,
preservation_conservativity, monadicity_crosscheck, density_necessity and
algebraic_tight_cells; a creation audit without one makes its own.  It is
dropped with the run or the audit, and with its pointwise store it is the
engine's only cache of colimits, natural families and weight lists.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

# the searches are called through their modules, so that instrumentation
# patching module attributes (bench/tracing.py) counts the census's calls
from . import colim, fincat, prof
from .errors import EndpointMismatch
from .fincat import FinCategory, FunctorData
from .prof import Distributor, dual_distributor


NO_COLIMIT, COLIMIT, ABSOLUTE_COLIMIT = 0, 1, 2  # how many of (exists, j-absolute) hold
# a creation byte: _CHECKED, plus _PASSED << i for each _MODES[i] whose check
# passed, plus _PRESERVED when g sends the upstairs (co)limit to one
_CHECKED, _PASSED, _PRESERVED = 1, 2, 8
_SETTLED = _CHECKED | _PASSED | _PASSED << 1
_MODES = colim.CREATION_MODES
# what a question returns for each creation byte b: (strict, nonstrict) passed, and preserved
_VERDICTS = tuple((bool(b & _PASSED), bool(b & _PASSED << 1)) for b in range(16))
_PRESERVES = tuple(bool(b & _PRESERVED) for b in range(16))


class Weight(NamedTuple):
    """A weight p: X -|-> Y at position index, and in class cls (_class_ids),
    of the list that DownstairsCensus.weights(X, Y, cap, budget) returned."""

    p: Distributor
    index: int
    cap: int
    cls: int


class Diagram(NamedTuple):
    """f: Z -> dom g at position index of enumerate_functors(Z, dom g), and
    its composite d = f ; g at position d_index of enumerate_functors(Z, cod g),
    with the census that made it and its store entries (colim.CreationEntry)
    for colimits and for limits of f, named by kind."""

    f: FunctorData
    index: int
    d: FunctorData
    d_index: int
    census: "DownstairsCensus"
    colimit: colim.CreationEntry
    limit: colim.CreationEntry


def _class_ids(ps: list) -> list[int]:
    """The isomorphism class of each weight X -|-> Y of ps, numbered in the
    order of the classes' first members.  Isomorphic weights differ by a
    renaming of each component's elements that commutes with both actions.
    A key holds the component sizes and each action on a component as
    indices into its target's elements; the swaps of two adjacent elements
    of one component generate the renamings, so a class is the orbit of
    its first member's key under them.  Each key of the list is reached
    once, with one image per swap: at most (cap - 1) * |components| images
    per weight listed, which the enumeration's budget bounds."""

    X, Y = ps[0].src, ps[0].tgt
    comps = {c: i for i, c in enumerate((y, x) for y in Y.objects for x in X.objects)}
    actions = ([(comps[(Y.cod(m), x)], comps[(Y.dom(m), x)], (m, x), "right_action")
                for m in Y.morphism_names() if not Y.is_identity(m) for x in X.objects]
               + [(comps[(y, X.dom(n))], comps[(y, X.cod(n))], (n, y), "left_action")
                  for n in X.morphism_names() if not X.is_identity(n) for y in Y.objects])

    def key(p: Distributor) -> tuple:
        els = [p.el(*c) for c in comps]
        return (tuple(map(len, els)), tuple(tuple(els[t].index(getattr(p, side)[a + (e,)]) for e in els[s])
                                            for s, t, a, side in actions))

    def swapped(k: tuple, c: int, i: int) -> tuple:
        move = list(range(k[0][c]))
        move[i:i + 2] = i + 1, i
        images = []
        for (s, t, _, _), values in zip(actions, k[1]):
            image = list(values)
            for e, v in enumerate(values):
                image[move[e] if s == c else e] = move[v] if t == c else v
            images.append(tuple(image))
        return k[0], tuple(images)

    classes, ids, numbers = {}, [], itertools.count()
    for p in ps:
        k = key(p)
        if k not in classes:
            classes[k], orbit = next(numbers), [k]
            for member in orbit:
                for c, i in [(c, i) for c, size in enumerate(k[0]) for i in range(size - 1)]:
                    image = swapped(member, c, i)
                    if image not in classes:
                        classes[image] = classes[k]
                        orbit.append(image)
        ids.append(classes[k])
    return ids


class DownstairsCensus:
    """(Co)limit existence, absoluteness and creation verdicts per (weight, diagram) position.

    A (co)limit depends only on the weight p: X -|-> Y and the diagram;
    j-absoluteness also on the root j: A -> E; a creation verdict on the
    functor g: W -> E, p and f: Z -> W.  None depends on which monad or
    candidate produced the question.

    Masks are keyed by content.  A mask [known, holds, goes on] of one
    column id holds bit i for the diagram at position i of an index space:
    d = f ; g among enumerate_functors(Z, C), or f among those into dom g,
    as diagrams(Z, g) records them.  A pair walks its weight's columns in
    x order (_walk), deciding the bits not yet known there, and the
    answer is the bits that hold at every column:
    * colimits, per (Z, C), whether d has a colimit at the column of p;
    * absoluteness, per (root j by content, Z, C), for a d with a colimit
      at every column, whether its canonical map at the column of p is a
      bijection at every a (colim.first_failing_at); as in j_absolute_at,
      a bit goes on unless the map fails at the first a;
    * limits, per (Z, C), whether the dual of d has a colimit at the
      column of the dual weight;
    * settled, per (g by content, kind, Z), whether f's creation record at
      the column of the question weight (computed there when not yet
      stored, as creation_records would) is strict, upstairs and closed,
      and then whether it is preserved too.  A position settled at
      every column passes both modes, as the all-strict and all-closed
      shortcuts of the two creation searches do.
    Any other creation position reads a byte in the row keyed (g by
    content, kind, X, Y, cap), at w.cls * n plus the index of f: _CHECKED,
    plus _PASSED << i for each mode _MODES[i] that passes, plus _PRESERVED
    when g sends f's (co)limit to one, set on its first question.
    preserved asks only where f ; g has a colimit, since the records exist
    only there.  No mask or row holds a (co)limit.
    """

    def __init__(self):
        self._colimits: dict[tuple, dict] = {}
        self._absolute: dict[tuple, dict] = {}
        self._limits: dict[tuple, dict] = {}
        self._settled: dict[tuple, dict] = {}
        self._creations: dict[tuple, tuple] = {}
        self._entries: dict[tuple, list] = {}
        self._positions: dict[tuple, dict] = {}
        self._diagrams: dict[tuple, list] = {}
        self._weights: dict[tuple, list] = {}
        self._pointwise: dict[tuple, dict] = {}

    def weights(self, X: FinCategory, Y: FinCategory, cap: int, budget: int) -> list[Weight]:
        """A handle for each of enumerate_distributors(X, Y, cap, budget)."""

        return self.weight_classes(X, Y, cap, budget)[0]

    def weight_classes(self, X: FinCategory, Y: FinCategory, cap: int, budget: int) -> tuple:
        """weights(X, Y, cap, budget) and its class_representatives, computed
        once per census and kept together.  The budget is part of the key
        because it decides whether the enumeration raises BudgetExceeded."""

        key = (X, Y, cap, budget)
        found = self._weights.get(key)
        if found is None:
            ps = prof.enumerate_distributors(X, Y, cap, budget)
            weights = [Weight(p, i, cap, cls) for i, (p, cls) in enumerate(zip(ps, _class_ids(ps)))]
            found = self._weights[key] = (weights, *class_representatives(weights))
        return found

    def diagrams(self, Z: FinCategory, g: FunctorData) -> list[Diagram]:
        """Every f: Z -> dom g in enumerate_functors order, with f ; g, its position and its
        store entries, once per (Z, g by content), recording both enumerations' positions."""

        handles = self._diagrams.get((Z, g))
        if handles is None:
            positions, E = self._positions, g.cod
            if (Z, E) not in positions:
                positions[(Z, E)] = {d.table(): i for i, d in enumerate(fincat.enumerate_functors(Z, E))}
            fs = list(fincat.enumerate_functors(Z, g.dom))
            if (Z, g.dom) not in positions:
                positions[(Z, g.dom)] = {f.table(): i for i, f in enumerate(fs)}
            down, store = positions[(Z, E)], self._pointwise
            entries = [colim.creation_entry(g, f, "colimit", store) for f in fs]
            handles = self._diagrams[(Z, g)] = [
                Diagram(f, i, e.d, down[e.d.table()], self, e, colim.creation_entry(g, f, "limit", store))
                for i, (f, e) in enumerate(zip(fs, entries))]
        return handles

    def colimits(self, j: FunctorData, asked: list) -> list[list[int]]:
        """NO_COLIMIT, COLIMIT (not j-absolute) or ABSOLUTE_COLIMIT for the w.p-weighted
        colimit of each diagram's d, per (w, diagrams) pair of asked, in the order given."""

        first = self._first(asked)
        if first is None:
            return [[] for _ in asked]
        if j.cod != first.d.cod:
            raise EndpointMismatch("colimit must live in the root's codomain")
        masks, n_a = self._absolute.setdefault((j, first.d.dom, first.d.cod), {}), len(j.dom.objects)

        def decide(p, x, column, i):
            d, records = entries[i].d, entries[i].down
            key = (j, d)
            failing = colim.first_failing_at(j, p, x, column, d, records[column].colimit(), self._entries.get(
                key) or self._entries.setdefault(key, colim.absolute_entry(j, d, self._pointwise)))
            return failing == n_a, failing > 0 or failing == n_a
        out = []
        for (w, diagrams), (exists, entries) in zip(asked, self._exists(asked, "colimit", first)):
            absolute = _walk(masks, w.p, exists, decide)[0] if exists else 0
            out.append([(exists >> diagram.d_index & 1) + (absolute >> diagram.d_index & 1) for diagram in diagrams])
        return out

    def limits(self, asked: list) -> list[list[bool]]:
        """Does the w.p-weighted limit of each diagram's d exist, per (w, diagrams) pair of asked?"""

        return [[bool(exists >> diagram.d_index & 1) for diagram in diagrams]
                for (_, diagrams), (exists, _) in zip(asked, self._exists(asked, "limit", self._first(asked)))]

    def creations(self, g: FunctorData, asked: list, kind: str) -> list[list[tuple]]:
        """check_creation(g, w.p, diagram.f, mode, kind).passed as (strict,
        nonstrict) per diagram, per (w, diagrams) pair of asked."""

        colim.check_choice("kind", kind, colim.CREATION_KINDS)
        return self._creation_bytes(g, asked, kind, _VERDICTS, self._first(asked, g))

    def preserved(self, g: FunctorData, asked: list) -> list[list[bool]]:
        """Do the w.p-weighted colimits of each diagram's f and d exist, and g send the first
        to a colimit, per (w, diagrams) pair?  Read from the creation byte where d has one."""

        exists = [[bool(found >> diagram.d_index & 1) for diagram in diagrams]
                  for (_, diagrams), (found, _) in zip(asked, self._exists(asked, "colimit", self._first(asked, g)))]
        asked = [(w, list(itertools.compress(diagrams, e))) for (w, diagrams), e in zip(asked, exists)]
        found = self._creation_bytes(g, asked, "colimit", _PRESERVES, next((ds[0] for _, ds in asked if ds), None))
        return [[e and next(answers) for e in es] for es, answers in zip(exists, map(iter, found))]

    # one-position questions: lists of one weight and one diagram

    def colimit(self, j: FunctorData, w: Weight, diagram: Diagram) -> int:
        return self.colimits(j, [(w, [diagram])])[0][0]

    def limit(self, w: Weight, diagram: Diagram) -> bool:
        return self.limits([(w, [diagram])])[0][0]

    def creation(self, g: FunctorData, w: Weight, diagram: Diagram, kind: str, mode: str) -> bool:
        colim.check_choice("mode", mode, _MODES)
        return self.creations(g, [(w, [diagram])], kind)[0][0][_MODES.index(mode)]

    def preserves(self, g: FunctorData, w: Weight, diagram: Diagram) -> bool:
        return self.preserved(g, [(w, [diagram])])[0][0]

    def _exists(self, asked: list, kind: str, first: Optional[Diagram]) -> list[tuple]:
        """Per (w, diagrams) pair of asked, first being its first diagram: the bits, by
        d_index, of the diagrams whose d has a w.p-weighted colimit (for kind "limit", a
        limit, read in the dual), and each diagram's store entry of kind by d_index."""

        if first is None:
            return [(0, {}) for _ in asked]
        masks = (self._colimits if kind == "colimit" else self._limits).setdefault((first.d.dom, first.d.cod), {})

        def decide(q, x, column, i):
            found = colim.colimit_at(entries[i].down, q, x, column, entries[i].d) is not None
            return found, found
        lists, out = {}, []
        for w, diagrams in asked:
            if id(diagrams) not in lists:
                lists[id(diagrams)] = (sum({1 << diagram.d_index for diagram in diagrams}),
                                       {diagram.d_index: getattr(diagram, kind) for diagram in diagrams})
            alive, entries = lists[id(diagrams)]
            q = w.p if kind == "colimit" else dual_distributor(w.p)
            out.append((_walk(masks, q, alive, decide)[0] if alive else 0, entries))
        return out

    def _creation_bytes(self, g: FunctorData, asked: list, kind: str, values: tuple,
                        first: Optional[Diagram]) -> list:
        """values[b] for the creation byte b of each position (first: the first diagram asked),
        from the settled masks where they settle it, else from its row byte, set on its first
        question from its creation records, fetched once, and one search per mode."""

        if first is None:
            return [[] for _ in asked]
        Z, w = first.f.dom, asked[0][0]
        handles, masks = self._diagrams[(Z, g)], self._settled.setdefault((g, kind, Z), {})
        key = (g, kind, w.p.src, w.p.tgt, w.cap)
        row, n = self._creations.get(key) or self._creations.setdefault(
            key, (bytearray(), len(self._positions[(Z, first.f.cod)])))
        end = (1 + max(v.cls for v, ds in asked if ds)) * n
        if len(row) < end:
            row.extend(bytes(end - len(row)))

        def decide(q, x, column, i):
            record = colim.creation_at(getattr(handles[i], kind), q, x, column)
            settled = record is not None and record.strict and record.upstairs and record.closed
            return settled and record.preserved, settled
        by_settled, out = (values[_SETTLED], values[_SETTLED | _PRESERVED]), []
        for w, diagrams in asked:
            if not diagrams:
                out.append([])
                continue
            q = w.p if kind == "colimit" else dual_distributor(w.p)
            preserved, settled = _walk(masks, q, sum({1 << diagram.index for diagram in diagrams}), decide)
            base = w.cls * n
            for diagram in diagrams:
                if not (settled >> diagram.index & 1 or row[base + diagram.index]):
                    found = colim.creation_records(g, w.p, diagram.f, kind, getattr(diagram, kind))
                    row[base + diagram.index] = _CHECKED | sum(
                        _PASSED << i for i, mode in enumerate(_MODES) if colim.creation_search(found, mode)[0]) | (
                        _PRESERVED if all(record.preserved for record in found.records) else 0)
            out.append([by_settled[preserved >> diagram.index & 1] if settled >> diagram.index & 1
                        else values[row[base + diagram.index]] for diagram in diagrams])
        return out

    def _first(self, asked: list, g: Optional[FunctorData] = None) -> Optional[Diagram]:
        """The first diagram asked about, or None when there is none.  Refuses (ValueError)
        diagrams this census did not make for one g (g when given), checking each distinct
        diagram list once, and weights from more than one list."""

        first = next((diagrams[0] for _, diagrams in asked if diagrams), None)
        if first is None:
            return None
        for diagram in itertools.chain.from_iterable({id(ds): ds for _, ds in asked}.values()):
            h = diagram.colimit.g
            if diagram.census is not self or (g is not None and h is not g and h != g):
                raise ValueError("a diagram handle is answered only by the census that made it, for its g")
            g = h
        p, cap = asked[0][0].p, asked[0][0].cap
        if not all(v.cap == cap and v.p.src is p.src and v.p.tgt is p.tgt for v, _ in asked) and any(
                (v.p.src, v.p.tgt, v.cap) != (p.src, p.tgt, cap) for v, _ in asked):
            raise ValueError("a census question asks about the weights of one list")
        return first


def _walk(masks: dict, q: Distributor, alive: int, decide) -> tuple[int, int]:
    """(bits of alive that hold at every column of q, bits that go on past each), walking
    the columns in x order with masks per column id; a bit unknown at a column is decided
    there by decide(q, x, column, bit index) as (holds, goes on)."""

    holds = alive
    for x, column in q.columns():
        mask = masks.get(column) or masks.setdefault(column, [0, 0, 0])
        unknown = alive & ~mask[0]
        while unknown:
            bit = unknown & -unknown
            unknown ^= bit
            holds_here, goes_on = decide(q, x, column, bit.bit_length() - 1)
            mask[0] |= bit
            mask[1] |= bit if holds_here else 0
            mask[2] |= bit if goes_on else 0
        holds &= mask[1]
        alive &= mask[2]
        if not alive:
            break
    return holds, alive


def class_representatives(weights: list) -> tuple[list, list]:
    """The first member of each weight class among weights, in list order, and for each
    weight the index of its class's: every census answer is invariant under weight
    isomorphism, so a loop asks about the first members and gives each weight their answers."""

    index = {}
    for w in weights:
        index.setdefault(w.cls, (len(index), w))
    return [w for _, w in index.values()], [index[w.cls][0] for w in weights]
