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
enumerates the distributors X -|-> Y once per census (Weights): a Weight
holds p, its position in that list, the list's cap, the number of its
isomorphism class there (_class_ids) and the list, which keeps each
weight's columns and its dual's, numbered by an int id the census gives
a column's content (set on first use, meaningful in that census only).
Callers read the labelled p and index.  Questions name diagrams by the list diagrams(Z, g)
(Diagrams) and their positions there: a Diagram holds f, d = f ; g, their
positions, its list and its census's store entries for it
(colim.CreationEntry): the colimit records of f and d and the creation
records of (g, f), and their duals for limits, resolved for the whole
list on its first limit question.  A handle cannot go stale: its entries
are the store's own dicts, keyed by content, which the store only adds
to, and a census refuses a list made by another census or for another g.

Questions (colimits, limits, creations, preserved) take one diagram list,
the census's own diagrams(Z, g), and (weight handle, mask) pairs, the
weights of one of its lists in any order and with repeats, each list
checked by identity.  Masks and answers hold bit i for the diagram at
position i of the list.  A pair costs a few bit operations per column of
its weight, found by int id; the one-position questions (colimit, limit,
creation, preserves) ask one bit.  Loops ask about the first member of
each weight class (weight_classes) and count answers with int.bit_count
times the class size.  A fact not yet known is decided once, by the
search or check a position walking its columns in x order would make; a
creation row keeps verdicts only, so its strict search stops at a second
lift.

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

import functools
import itertools
from collections import Counter
from typing import NamedTuple, Optional

# the searches are called through their modules, so that instrumentation
# patching module attributes (bench/tracing.py) counts the census's calls
from . import colim, fincat, prof
from .errors import EndpointMismatch
from .fincat import FinCategory, FunctorData
from .prof import Distributor, dual_distributor


NO_COLIMIT, COLIMIT, ABSOLUTE_COLIMIT = 0, 1, 2  # how many of (exists, j-absolute) hold
_MODES = colim.CREATION_MODES


class Weight(NamedTuple):
    """A weight p: X -|-> Y at position index, and in class cls (_class_ids), of the list
    owner that DownstairsCensus.weights(X, Y, cap, budget) returned."""

    p: Distributor
    index: int
    cap: int
    cls: int
    owner: "Weights"


class Weights(list):
    """The Weight handles of one weights(X, Y, cap, budget) list, each holding it, and their census;
    columns holds, per position, p's and then its dual's (x, column, id) triples, each set by the
    first question that walks it."""

    def __init__(self, census: "DownstairsCensus", ps: list, cap: int):
        super().__init__(Weight(p, i, cap, k, self) for i, (p, k) in enumerate(zip(ps, _class_ids(ps))))
        self.census, self.columns = census, ([None] * len(self), [None] * len(self))

    def __repr__(self) -> str:      # a handle's repr shows its list this way, not handle by handle
        return f"Weights({len(self)} handles)"


class Diagram(NamedTuple):
    """f: Z -> dom g at position index of enumerate_functors(Z, dom g), and
    its composite d = f ; g at position d_index of enumerate_functors(Z, cod g),
    with the list diagrams(Z, g) that holds it (owner) and its store entries
    (colim.CreationEntry) for colimits and for limits of f, named by kind."""

    f: FunctorData
    index: int
    d: FunctorData
    d_index: int
    owner: "Diagrams"
    colimit: colim.CreationEntry
    limit = property(lambda self: self.owner.limits[self.index])


class Diagrams(list):
    """The Diagram handles of diagrams(Z, g) in f order, with their census, g, Z and the
    mask of every position.  Masks over the f positions and over the d positions of the
    composites are translated into each other once per distinct mask: several f may
    share one d, as when g is a forgetful functor and two algebras share a carrier."""

    def __init__(self, census: "DownstairsCensus", g: FunctorData, Z: FinCategory, handles):
        super().__init__(handles(self))     # handles(owner) makes the handles, which hold the list
        self.census, self.g, self.Z, self.every = census, g, Z, (1 << len(self)) - 1
        self.by_d, self._down, self._up = {h.d_index: h for h in self}, {}, {}

    # each diagram's limit store entry, built for the whole list on its first limit question
    limits = functools.cached_property(
        lambda self: [colim.creation_entry(self.g, h.f, "limit", self.census._pointwise) for h in self])

    def down(self, fs: int) -> int:
        """The d positions of the diagrams at the f positions of fs."""
        if fs not in self._down:
            self._down[fs] = sum({1 << self[i].d_index for i in bits(fs)})
        return self._down[fs]

    def up(self, ds: int) -> int:
        """The f positions of the diagrams whose d position is in ds."""
        if ds not in self._up:
            self._up[ds] = sum(1 << h.index for h in self if ds >> h.d_index & 1)
        return self._up[ds]


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

    Masks are keyed by the census's int id of a column's content
    (Weights.columns).  A mask [known, holds, goes on] of one column id
    holds bit i for the diagram at position i of an index space:
    d = f ; g among enumerate_functors(Z, C) for the first three, or f
    among those into dom g (Diagrams translates).  A pair walks its
    weight's columns in x order (_walk), deciding the bits not yet known
    there, and the answer is the bits that hold at every column:
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
    Creation answers are kept per (g by content, kind, X, Y, cap) and
    class, as one int of four masks over the n f positions, known,
    strict << n, nonstrict << 2n and preserved << 3n, set on a position's
    first question in its class: from the settled masks, or else from its
    creation records and one search per mode.  A class's later questions
    read the masks without a walk.
    preserved asks only where f ; g has a colimit, since the records exist
    only there.  No mask or row holds a (co)limit.
    """

    def __init__(self):
        self._colimits: dict[tuple, dict] = {}
        self._absolute: dict[tuple, dict] = {}
        self._limits: dict[tuple, dict] = {}
        self._settled: dict[tuple, dict] = {}
        self._creations: dict[tuple, dict] = {}
        self._entries: dict[tuple, list] = {}
        self._positions: dict[tuple, dict] = {}
        self._diagrams: dict[tuple, list] = {}
        self._weights: dict[tuple, list] = {}
        self._ids: dict[tuple, int] = {}
        self._pointwise: dict[tuple, dict] = {}

    def weights(self, X: FinCategory, Y: FinCategory, cap: int, budget: int) -> Weights:
        """A handle for each of enumerate_distributors(X, Y, cap, budget)."""

        return self.weight_classes(X, Y, cap, budget)[0]

    def weight_classes(self, X: FinCategory, Y: FinCategory, cap: int, budget: int) -> tuple:
        """weights(X, Y, cap, budget) and its class_representatives (firsts,
        of, sizes), computed once per census and kept together.  The budget
        is part of the key because it decides whether the enumeration raises
        BudgetExceeded."""

        key = (X, Y, cap, budget)
        found = self._weights.get(key)
        if found is None:
            weights = Weights(self, prof.enumerate_distributors(X, Y, cap, budget), cap)
            found = self._weights[key] = (weights, *class_representatives(weights))
        return found

    def diagrams(self, Z: FinCategory, g: FunctorData) -> Diagrams:
        """Every f: Z -> dom g in enumerate_functors order, with f ; g, its position and its
        store entries, once per (Z, g by content), recording the composites' positions."""

        handles = self._diagrams.get((Z, g))
        if handles is None:
            positions, E = self._positions, g.cod
            if (Z, E) not in positions:
                positions[(Z, E)] = {d.table(): i for i, d in enumerate(fincat.enumerate_functors(Z, E))}
            fs = list(fincat.enumerate_functors(Z, g.dom))
            down, store = positions[(Z, E)], self._pointwise
            entries = [colim.creation_entry(g, f, "colimit", store) for f in fs]
            handles = self._diagrams[(Z, g)] = Diagrams(self, g, Z, lambda owner: [
                Diagram(f, i, e.d, down[e.d.table()], owner, e) for i, (f, e) in enumerate(zip(fs, entries))])
        return handles

    def colimits(self, j: FunctorData, diagrams: Diagrams, asked: list) -> list[tuple[int, int]]:
        """(exists, absolute) per (w, mask) pair of asked: the positions of mask whose d has
        a w.p-weighted colimit, and those where it is j-absolute too."""

        if not self._asks(diagrams, asked):
            return [(0, 0)] * len(asked)
        if j.cod != diagrams.g.cod:
            raise EndpointMismatch("colimit must live in the root's codomain")
        masks, n_a = self._absolute.setdefault((j, diagrams.Z, diagrams.g.cod), {}), len(j.dom.objects)

        def decide(w, x, column, i):
            d, records = diagrams.by_d[i].colimit.d, diagrams.by_d[i].colimit.down
            key = (j, d)
            failing = colim.first_failing_at(j, w.p, x, column, d, records[column].colimit(), self._entries.get(
                key) or self._entries.setdefault(key, colim.absolute_entry(j, d, self._pointwise)))
            return failing == n_a, failing > 0 or failing == n_a
        return [(diagrams.up(exists) & m,
                 diagrams.up(_walk(masks, self._ids, w, 0, exists, decide)[0] if exists else 0) & m)
                for (w, m), exists in zip(asked, self._exists(diagrams, asked, "colimit"))]

    def limits(self, diagrams: Diagrams, asked: list) -> list[int]:
        """The positions of mask whose d has a w.p-weighted limit, per (w, mask) pair of asked."""

        if not self._asks(diagrams, asked):
            return [0] * len(asked)
        return [diagrams.up(exists) & m for (_, m), exists in zip(asked, self._exists(diagrams, asked, "limit"))]

    def creations(self, g: FunctorData, diagrams: Diagrams, asked: list, kind: str) -> list[tuple[int, int]]:
        """(strict, nonstrict) per (w, mask) pair of asked: the positions of mask where
        check_creation(g, w.p, diagram.f, mode, kind) passes in each mode."""

        colim.check_choice("kind", kind, colim.CREATION_KINDS)
        if not self._asks(diagrams, asked, g):
            return [(0, 0)] * len(asked)
        return [masks[:2] for masks in self._creation_masks(diagrams, asked, kind)]

    def preserved(self, g: FunctorData, diagrams: Diagrams, asked: list) -> list[int]:
        """The positions of mask where the w.p-weighted colimits of f and d exist and g sends
        the first to a colimit, per (w, mask) pair.  Read from the creation row where d has one."""

        if not self._asks(diagrams, asked, g):
            return [0] * len(asked)
        exists = [(w, diagrams.up(found) & m) for (w, m), found in zip(asked, self._exists(diagrams, asked, "colimit"))]
        return [masks[2] for masks in self._creation_masks(diagrams, exists, "colimit")]

    # one-position questions: one weight and the mask of one diagram in its list

    def colimit(self, j: FunctorData, w: Weight, diagram: Diagram) -> int:
        return sum(map(bool, self.colimits(j, diagram.owner, [(w, 1 << diagram.index)])[0]))

    def limit(self, w: Weight, diagram: Diagram) -> bool:
        return bool(self.limits(diagram.owner, [(w, 1 << diagram.index)])[0])

    def creation(self, g: FunctorData, w: Weight, diagram: Diagram, kind: str, mode: str) -> bool:
        colim.check_choice("mode", mode, _MODES)
        return bool(self.creations(g, diagram.owner, [(w, 1 << diagram.index)], kind)[0][_MODES.index(mode)])

    def preserves(self, g: FunctorData, w: Weight, diagram: Diagram) -> bool:
        return bool(self.preserved(g, diagram.owner, [(w, 1 << diagram.index)])[0])

    def _exists(self, diagrams: Diagrams, asked: list, kind: str) -> list[int]:
        """Per (w, mask) pair of asked: the d positions of the diagrams of mask whose d has a
        w.p-weighted colimit (for kind "limit", a limit, read in the dual)."""

        dual = kind == "limit"
        masks = (self._limits if dual else self._colimits).setdefault((diagrams.Z, diagrams.g.cod), {})

        def decide(w, x, column, i):
            entry = getattr(diagrams.by_d[i], kind)
            found = colim.colimit_at(entry.down, dual_distributor(w.p) if dual else w.p, x, column, entry.d) is not None
            return found, found
        return [_walk(masks, self._ids, w, dual, diagrams.down(m), decide)[0]
                if m else 0 for w, m in asked]

    def _creation_masks(self, diagrams: Diagrams, asked: list, kind: str) -> list[tuple[int, int, int]]:
        """(strict, nonstrict, preserved) masks per (w, mask) pair, read from w's class row; a
        position new to the row is set from the settled masks where they settle it, else from
        its creation records, fetched once, and one search per mode."""

        g, n, w, dual = diagrams.g, len(diagrams), asked[0][0], kind == "limit"
        masks = self._settled.setdefault((g, kind, diagrams.Z), {})
        key = (g, kind, w.p.src, w.p.tgt, w.cap)
        rows = self._creations.get(key) or self._creations.setdefault(key, {})

        def decide(w, x, column, i):
            record = colim.creation_at(getattr(diagrams[i], kind), dual_distributor(w.p) if dual else w.p, x, column)
            settled = record is not None and record.strict and record.upstairs and record.closed
            return settled and record.preserved, settled
        out = []
        for w, m in asked:
            row = rows.get(w.cls, 0)
            new = m & ~row
            if new:
                preserved, settled = _walk(masks, self._ids, w, dual, new, decide)
                row = rows[w.cls] = row | settled | settled << n | settled << 2 * n | preserved << 3 * n
                for i in bits(new & ~settled):
                    found = colim.creation_records(g, w.p, diagrams[i].f, kind, getattr(diagrams[i], kind))
                    for k, holds in enumerate([True] + [colim.creation_search(found, mode, True)[0] for mode in _MODES]
                                              + [all(record.preserved for record in found.records)]):
                        row |= holds << k * n + i
                    rows[w.cls] = row       # per position: a DownstairsMissing leaves the later ones unknown
            out.append((row >> n & m, row >> 2 * n & m, row >> 3 * n & m))
        return out

    def _asks(self, diagrams: Diagrams, asked: list, g: Optional[FunctorData] = None) -> bool:
        """Whether asked sets any position.  Refuses (ValueError) a diagram or weight list this
        census did not make (a diagram list for g when given), and weights of more than one
        list, each checked by identity."""

        if type(diagrams) is not Diagrams or diagrams.census is not self or (
                g is not None and diagrams.g is not g and diagrams.g != g):
            raise ValueError("a diagram handle is answered only by the census that made it, for its g")
        owner, alive = asked[0][0].owner if asked else None, 0
        for v, m in asked:
            if v.owner is not owner or owner.census is not self:
                raise ValueError("a census question asks about the weights of one list of its census")
            alive |= m
        return alive != 0


def _walk(masks: dict, ids: dict, w: Weight, dual: int, alive: int, decide) -> tuple[int, int]:
    """(bits of alive that hold at every column of w.p, or of its dual, bits that go on past each),
    walking the columns in x order with masks per column id, numbered in ids on first sight and
    kept in w's list; a bit unknown at a column is decided there by decide(w, x, column, bit
    index) as (holds, goes on)."""

    columns = w.owner.columns[dual][w.index]
    if columns is None:
        q = dual_distributor(w.p) if dual else w.p
        columns = w.owner.columns[dual][w.index] = tuple((x, c, ids.setdefault(c, len(ids))) for x, c in q.columns())
    holds = alive
    for x, column, key in columns:
        mask = masks.get(key) or masks.setdefault(key, [0, 0, 0])
        unknown = alive & ~mask[0]
        while unknown:
            bit = unknown & -unknown
            unknown ^= bit
            holds_here, goes_on = decide(w, x, column, bit.bit_length() - 1)
            mask[0] |= bit
            mask[1] |= bit if holds_here else 0
            mask[2] |= bit if goes_on else 0
        holds &= mask[1]
        alive &= mask[2]
        if not alive:
            break
    return holds, alive


def bits(mask: int):
    """The positions of the bits set in mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def class_representatives(weights: list) -> tuple[list, list, list]:
    """The first member of each weight class among weights, in list order, for each weight
    the index of its class's, and each class's size: every census answer is invariant under
    weight isomorphism, so a loop asks about the first members and counts each answer once
    per member, going back to the weights' order only to name them."""

    index = {}
    for w in weights:
        index.setdefault(w.cls, (len(index), w))
    of = [index[w.cls][0] for w in weights]
    return [w for _, w in index.values()], of, list(Counter(of).values())   # classes count up from 0 in of
