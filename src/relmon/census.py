"""The run-scoped census of weights, (co)limit existence, absoluteness and creation verdicts.

A suite run asks the same (co)limit and creation questions again and
again, across theorems, monads and roots.  DownstairsCensus answers each
one once per (weight class, diagram) position, in byte rows keyed by
content: whether the colimit exists and is j-absolute, whether the limit
exists, both creation modes' verdicts, and whether g preserves the
colimit.  It keeps no (co)limit of its own and assembles none: a weighted
colimit is pointwise in x (Kelly, Basic Concepts of Enriched Category
Theory, 3.1), so it exists exactly when it exists at every x, and the
colimit at each x is read from the pointwise store, where every search,
absoluteness check and creation check of the run reads and keeps it.  The
class docstring gives the row layout.

Every answer is invariant under an isomorphism of weights, so rows hold
one byte per weight class.  A weighted colimit is functorial in its
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
resolves its row once, then reads or fills one byte per diagram of each
pair; the one-position questions (colimit, limit, creation, preserves)
are lists of one.  Loops ask about the first member of each weight class
(class_representatives).  A cold position resolves no key either: it
reads its records by the weight's column ids (prof.Distributor.columns,
built once per weight and per dual) and checks only what spans two x's,
and a creation position whose records settle both modes runs no search
(colim.settled_records).

The pointwise store holds one record per (diagram id, column id)
(colim._Column): the colimit at one x and the natural families there,
with their plan, shared by every weight whose column p(-, x) has the
same content.  It holds per (root, diagram id) the
j-absoluteness at each column (colim.j_absolute_at), and per (diagram
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
from .fincat import FinCategory, FunctorData
from .prof import Distributor, dual_distributor


NO_COLIMIT, COLIMIT, ABSOLUTE_COLIMIT = 0, 1, 2
# a creation byte: _CHECKED, plus _PASSED << i for each _MODES[i] whose check
# passed, plus _PRESERVED when g sends the upstairs (co)limit to one
_CHECKED, _PASSED, _PRESERVED = 1, 2, 8
_MODES = colim.CREATION_MODES
# what a question returns for each byte b: colimits and limits, then creations
# ((strict, nonstrict) passed) and preserved
_COLIMITS, _EXISTS = (None, NO_COLIMIT, COLIMIT, ABSOLUTE_COLIMIT), (None, False, True)
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
    """(Co)limit existence, absoluteness and creation verdicts, one entry per (weight, diagram) position.

    A (co)limit depends only on the weight p: X -|-> Y and the diagram;
    j-absoluteness also on the root j: A -> E; a creation verdict on the
    functor g: W -> E, p and f: Z -> W.  None depends on which monad or
    candidate produced the question.  One census is held for one suite run
    or one creation audit and dropped with it.

    Rows are keyed by content, never by object identity, and indexed by
    weight class and position: the entry for a weight handle w and a
    diagram Z -> C sits at w.cls * n + i, where i is the diagram's position
    among the n functors of enumerate_functors(Z, C), as diagrams(Z, g)
    records them for C = cod g and C = dom g.  Every weight of a class
    reads the byte its first question there filled.

    * Absoluteness rows, keyed (root j: A -> E by content, X, Y, cap),
      hold one byte per colimit: NO_COLIMIT, COLIMIT or ABSOLUTE_COLIMIT,
      plus one.  The first question at a position reads the colimit at
      each x from the diagram's records and, when every x has one, its
      j-absoluteness per column (store entry resolved once per (j, d)).
    * Limit rows, keyed (C, X, Y, cap), hold one existence byte per
      limit of a diagram into C: 1 when it does not exist, 2 when it
      does, read from the dual colimit at each y.
    * Creation rows, keyed (g by content, kind, X, Y, cap) without the
      mode, hold one byte per position: _CHECKED, plus _PASSED << i for
      each mode _MODES[i] that passes, plus _PRESERVED when f has a
      (co)limit and g sends it to one.  The first creations or preserved
      question at a position reads preservation from the creation records
      at its x's, kept in the pointwise store per (g, diagram, column), and
      both modes from them alone when they settle both, else from each
      mode's search (colim.creation_search): no report is built.  preserved
      asks only where f ; g has a colimit, since the records exist only
      there.

    Zero means unknown everywhere.  No row holds a (co)limit, and no
    question assembles one.  A row keeps its n beside its bytes, so a list
    question builds and hashes one row key (_bytes) for all its pairs.
    """

    def __init__(self):
        self._absolute: dict[tuple, tuple] = {}
        self._entries: dict[tuple, list] = {}
        self._limits: dict[tuple, tuple] = {}
        self._creations: dict[tuple, tuple] = {}
        self._positions: dict[tuple, dict] = {}
        self._diagrams: dict[tuple, list] = {}
        self._weights: dict[tuple, list] = {}
        self._pointwise: dict[tuple, dict] = {}

    def weights(self, X: FinCategory, Y: FinCategory, cap: int, budget: int) -> list[Weight]:
        """A handle for each of enumerate_distributors(X, Y, cap, budget),
        computed once per census.  The budget is part of the key because it
        decides whether the enumeration raises BudgetExceeded."""

        key = (X, Y, cap, budget)
        weights = self._weights.get(key)
        if weights is None:
            ps = prof.enumerate_distributors(X, Y, cap, budget)
            weights = self._weights[key] = [Weight(p, i, cap, cls)
                                            for i, (p, cls) in enumerate(zip(ps, _class_ids(ps)))]
        return weights

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

        def fill(w: Weight, diagram: Diagram) -> int:
            d = diagram.d
            at = colim.pointwise_colimit(w.p, d, diagram.colimit.down)
            if at is None:
                return NO_COLIMIT + 1
            entry = self._entries.get((j, d)) or self._entries.setdefault(
                (j, d), colim.absolute_entry(j, d, self._pointwise))
            return (ABSOLUTE_COLIMIT if colim.j_absolute_at(j, w.p, d, at, entry)[0] else COLIMIT) + 1
        return self._bytes(self._absolute, (j,), asked, fill, _COLIMITS)

    def limits(self, asked: list) -> list[list[bool]]:
        """Does the w.p-weighted limit of each diagram's d exist, per (w, diagrams) pair of asked?"""

        def fill(w: Weight, diagram: Diagram) -> int:
            return 1 + (colim.pointwise_colimit(dual_distributor(w.p), diagram.limit.d, diagram.limit.down) is not None)
        C = next((diagrams[0].d.cod for _, diagrams in asked if diagrams), None)
        return self._bytes(self._limits, (C,), asked, fill, _EXISTS)

    def creations(self, g: FunctorData, asked: list, kind: str) -> list[list[tuple]]:
        """check_creation(g, w.p, diagram.f, mode, kind).passed as (strict,
        nonstrict) per diagram, per (w, diagrams) pair of asked."""

        return self._creation_bytes(g, asked, kind, _VERDICTS)

    def preserved(self, g: FunctorData, asked: list) -> list[list[bool]]:
        """Do the w.p-weighted colimits of each diagram's f and d exist, and g send the first
        to a colimit, per (w, diagrams) pair?  Read from the creation byte where d has one."""

        self._own((diagram for _, diagrams in asked for diagram in diagrams), g)
        exists = [[colim.pointwise_colimit(w.p, diagram.d, diagram.colimit.down) is not None
                   for diagram in diagrams] for w, diagrams in asked]
        found = self._creation_bytes(g, [(w, list(itertools.compress(diagrams, e)))
                                         for (w, diagrams), e in zip(asked, exists)], "colimit", _PRESERVES)
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

    def _creation_bytes(self, g: FunctorData, asked: list, kind: str, values: tuple) -> list:
        """values[b] for the creation byte b of each position, set on the first question there
        from the records stored at its columns when they settle both modes, else from its
        creation records, fetched once (for a limit, in the dual), and one search per mode."""

        colim.check_choice("kind", kind, colim.CREATION_KINDS)
        def fill(w: Weight, diagram: Diagram) -> int:
            entry = getattr(diagram, kind)
            records = colim.settled_records(entry, w.p, diagram.f, kind)
            if records is not None:
                verdicts = _CHECKED | _PASSED | _PASSED << 1
            else:
                found = colim.creation_records(g, w.p, diagram.f, kind, entry)
                records, verdicts = found.records, _CHECKED
                for i, mode in enumerate(_MODES):
                    if colim.creation_search(found, mode)[0]:
                        verdicts |= _PASSED << i
            return verdicts | (_PRESERVED if all(record.preserved for record in records) else 0)
        return self._bytes(self._creations, (g, kind), asked, fill, values, g, True)

    def _own(self, diagrams, g: Optional[FunctorData] = None) -> None:
        """Refuse diagrams unless this census made each of them for one g (g
        when given): a handle holds the store entries of its census and g."""

        for diagram in diagrams:
            h = diagram.colimit.g
            if diagram.census is not self or (g is not None and h is not g and h != g):
                raise ValueError("a diagram handle is answered only by the census that made it, for its g")
            g = h

    def _bytes(self, rows: dict, head: tuple, asked: list, fill, values, g=None, up=False) -> list:
        """For each (w, diagrams) pair of asked, values[b] for the byte b of w's class and each
        diagram (made for g, when given), in the order given, set by fill(w, diagram) where it
        is zero.  The weights come from one list, whose row, keyed head + (X, Y, cap), is
        resolved once and extended once to the last class asked.  A byte sits at w.cls * n
        plus the index of the diagram's f (up) or of its d, n counting
        enumerate_functors(dom, cod) of that f or d."""

        first = next((pair for pair in asked if pair[1]), None)
        if first is None:
            return [[] for _ in asked]
        self._own((diagram for _, diagrams in asked for diagram in diagrams), g)
        w, diagrams = first
        of = (w.p.src, w.p.tgt, w.cap)
        if any((v.p.src, v.p.tgt, v.cap) != of for v, _ in asked):
            raise ValueError("a census question asks about the weights of one list")
        F = getattr(diagrams[0], "f" if up else "d")
        key = head + of
        row, n = rows.get(key) or rows.setdefault(key, (bytearray(), len(self._positions[(F.dom, F.cod)])))
        end = (1 + max(v.cls for v, _ in asked)) * n
        if len(row) < end:
            row.extend(bytes(end - len(row)))
        out = []
        for v, diagrams in asked:
            base, answers = v.cls * n, []
            for diagram in diagrams:
                pos = base + (diagram.index if up else diagram.d_index)
                if not row[pos]:
                    row[pos] = fill(v, diagram)
                answers.append(values[row[pos]])
            out.append(answers)
        return out


def class_representatives(weights: list) -> tuple[list, list]:
    """The first member of each weight class among weights, in list order, and for each
    weight the index of its class's: every census answer is invariant under weight
    isomorphism, so a loop asks about the first members and gives each weight their answers."""

    index = {}
    for w in weights:
        index.setdefault(w.cls, (len(index), w))
    return [w for _, w in index.values()], [index[w.cls][0] for w in weights]
