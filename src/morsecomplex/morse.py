"""Hasse diagrams, acyclic matchings and the discrete Morse complex.

A regular pair is a cover relation (source, target) of the face poset; a set
of pairs is a simplex of the Morse complex M(K) exactly when it is a matching
(no cell used twice) whose per-index gradient digraph is acyclic.  M(K) is
kept implicit: ``MorseComplex`` builds three cover-level bitmask tables
eagerly (quadratic in the number of covers) and decides everything on them:
``_conflict`` (pairs sharing a cell), ``_arc`` (gradient arcs) and ``_rev``
(their reverse), with ``_reach`` as the one reachability routine.  The
1-skeleton, the minimal non-faces, the face list and the facets are all
read off these tables on demand; the last three are ascending tuples of
pair indices, the form the isomorphism engine takes them in.

Facet enumeration is layered: covers are sorted by index, gradient arcs
never leave an index, and layers interact only through one interface (a
cell cannot be a target below and a source above).  So each layer's
matchings are enumerated once, on the global masks restricted to its block
of covers, each with its extendable set (the covers that extend it inside
the layer), which the search carries from parent to child instead of
testing every cover again.  A memoised count over interface states prices
the output before anything is listed; a state depends on a matching only
through its source mask, so the matchings of layers 2 and up are grouped by
it, and those of index 0 are folded into one state per target mask.  The
count is a sum of non-negative terms, one per matching of the index-1
layer, added as the walk of that layer yields it, so a listing is refused
partway through the walk as soon as the running total passes the facet
budget, while ``facet_count()`` counts to the end.  The listing walks the
index-1 matchings that the count kept.

For a graph or multigraph the index-0 layer is the only one, its acyclic
matchings are rooted forests (each matched vertex points along its edge) and
its facets are the maximal rooted forests (Chari & Joswig, Discrete Math.
302, 2005).  There a separate walk tracks each vertex's root instead of
walking gradient paths, keeps only the matchings that close a facet and cuts
every branch that cannot reach one, so it costs about the facets, not the
faces.  It records a node's closing covers as one bitmask, so a count builds
no tuple per facet; the listing expands them.

The engine's state lives in locals and in objects that refer to no cycle,
so it is freed by reference counting as soon as the call returns.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Union

from .budget import DEFAULT_BUDGET, Budget, _check_deadline
from .complexes import Multigraph, SimplicialComplex, gf2_rank, immediate_faces
from .errors import (EnumerationBudgetError, MalformedInputError,
                     TheoremContradictionError)

Source = Union[SimplicialComplex, Multigraph]


class RegularPair(NamedTuple):
    """A cover relation of the face poset, drawn as an arrow source -> target.

    ``index`` is the dimension of the source cell.  For simplicial complexes
    both cells are label tuples; for multigraphs the source is a single
    vertex label and the target a single edge id.
    """

    source: tuple[str, ...]
    target: tuple[str, ...]
    index: int

    def cells(self) -> tuple[tuple, tuple]:
        return (self.index, self.source), (self.index + 1, self.target)

    def __str__(self):
        return f"({','.join(self.source)} -> {','.join(self.target)})"


class HasseDiagram:
    """Cover relations of the face poset, in canonical order.

    ``cells`` are (dim, name) with name a label tuple; covers are index pairs
    into ``cells`` sorted by (index, source name, target name).
    """

    __slots__ = ("cells", "covers", "children")

    def __init__(self, cells: tuple[tuple[int, tuple[str, ...]], ...],
                 covers: tuple[tuple[int, int], ...]):
        self.cells = cells
        self.covers = covers
        children: dict[int, list[int]] = {}
        for s, t in covers:
            children.setdefault(t, []).append(s)
        self.children = {t: tuple(sorted(cs)) for t, cs in children.items()}

    @property
    def n_covers(self) -> int:
        return len(self.covers)

    def regular_pairs(self) -> list[RegularPair]:
        """One regular pair per cover, in cover order."""
        out = []
        for s, t in self.covers:
            dim, name = self.cells[s]
            out.append(RegularPair(name, self.cells[t][1], dim))
        return out

    def boundary_ranks(self) -> dict[int, int]:
        """Rank over GF(2) of the boundary map from the k-cells, for each
        dimension k >= 1 that has cells: one column per k-cell, with one bit
        per cell it covers."""
        columns: dict[int, list[int]] = {}
        for t, cs in self.children.items():
            columns.setdefault(self.cells[t][0], []).append(sum(1 << c for c in cs))
        return {k: gf2_rank(cols) for k, cols in sorted(columns.items())}


def hasse(obj: Source) -> HasseDiagram:
    """Hasse diagram of a simplicial complex or multigraph."""
    if isinstance(obj, SimplicialComplex):
        cells = sorted((len(s) - 1, obj.to_labels(s)) for s in obj.simplices)
        pos = {c: i for i, c in enumerate(cells)}
        covers = []
        for dim, name in cells:
            if dim >= 1:
                t = pos[(dim, name)]
                for face in immediate_faces(name):
                    covers.append((pos[(dim - 1, face)], t))
    elif isinstance(obj, Multigraph):
        cells = [(0, (lab,)) for lab in obj.labels]
        cells += [(1, (e,)) for e in obj.edge_ids]
        pos = {c: i for i, c in enumerate(cells)}
        covers = []
        for e, (u, v) in zip(obj.edge_ids, obj.boundary):
            t = pos[(1, (e,))]
            covers.append((pos[(0, (obj.labels[u],))], t))
            covers.append((pos[(0, (obj.labels[v],))], t))
    else:
        raise TypeError(f"no Hasse diagram for {type(obj).__name__}")
    covers.sort()
    return HasseDiagram(tuple(cells), tuple(covers))


def primitive_pairs(obj: Source) -> list[RegularPair]:
    """One regular pair per Hasse cover; the vertices of the Morse complex."""
    return hasse(obj).regular_pairs()


# -- standalone pair-set predicates ----------------------------------------
# These work directly on the label tuples, independently of the cover-mask
# machinery inside MorseComplex, and serve as its cross-check in tests.

def is_matching(pairs: Iterable[RegularPair]) -> bool:
    """True iff no cell occurs in two pairs (sources and targets all distinct)."""
    used: set = set()
    count = 0
    for p in pairs:
        a, b = p.cells()
        used.add(a)
        used.add(b)
        count += 2
    return len(used) == count


def _pair_arcs(pairs: list[RegularPair], G: Optional[Multigraph]):
    """Arc p -> q when q has p's index and q's source is an immediate face of
    p's target other than p's source; each pair's arcs in ascending order."""
    by_source: dict[tuple, list[int]] = {}
    for i, p in enumerate(pairs):
        by_source.setdefault((p.index, p.source), []).append(i)
    arcs: dict[int, list[int]] = {}
    for i, p in enumerate(pairs):
        if len(p.target) == len(p.source) + 1:
            below = set(immediate_faces(p.target))
        else:
            if G is None:
                raise MalformedInputError(
                    "multigraph regular pairs need the multigraph for face relations")
            u, v = G.endpoints(p.target[0])
            below = {(u,), (v,)}
        below.discard(p.source)
        arcs[i] = sorted(j for f in below for j in by_source.get((p.index, f), ()))
    return arcs


def is_acyclic(pairs: Iterable[RegularPair], G: Optional[Multigraph] = None) -> bool:
    """True iff no index has a closed non-stationary gradient path.

    Precondition: the pairs form a matching.
    """
    pairs = list(pairs)
    if not is_matching(pairs):
        raise MalformedInputError("pair set is not a matching")
    arcs = _pair_arcs(pairs, G)
    color = [0] * len(pairs)  # 0 new, 1 active, 2 done
    for root in range(len(pairs)):
        if color[root]:
            continue
        # depth-first with an explicit stack: gradient chains are as long as
        # the input, far beyond the interpreter's recursion limit
        color[root] = 1
        stack = [(root, iter(arcs[root]))]
        while stack:
            i, succ = stack[-1]
            for j in succ:
                if color[j] == 1:
                    return False
                if color[j] == 0:
                    color[j] = 1
                    stack.append((j, iter(arcs[j])))
                    break
            else:
                color[i] = 2
                stack.pop()
    return True


# -- the between-layer facet count -----------------------------------------

def _over_budget(count: int, limit: float) -> EnumerationBudgetError:
    return EnumerationBudgetError(
        f"Morse complex has at least {count} facets, over the budget of {limit}")


class _LayeredCount:
    """The facets of a complex with more than one layer, summed over the
    matchings of the index-1 layer as its walk
    (``MorseComplex._layer_matchings``) yields them.

    A layer's matching extends to a facet iff no cover of its avail stays
    addable: a cover whose source is a target of the layer below
    (``blocked``) is ruled out there, and any other one must have its target
    used as a source by the layer above (``need``).  Addable covers share no
    cell with the matching, so that depends on the matching's avail alone,
    and whether a matching fits a state (blocked, need) depends on its
    source mask alone.  In the last layer nothing lies above, so a matching
    closes a facet iff the source cells of its avail lie within
    ``blocked``.

    The index-0 layer has no layer below, so its whole avail is free: its
    members are folded once into states, one per target mask, each holding
    its members by pending targets (the targets of their avail) and the
    covers of index 1 it leaves free.  An index-1 member with source mask
    sm fits the states whose target mask misses sm, each weighted by its
    members whose pending targets lie within sm; these weights are filled
    per sm when a member first asks for them.  Against each such state the
    member's pending targets are the targets of its free avail, and it adds
    the weight times the count one layer up; where index 1 is the last
    layer, it adds the weight of each state whose free covers miss its
    avail.  Every term is non-negative, so the running total refuses at a
    limit partway through the walk.

    Layers 2 and up are grouped by source mask.  Of a state, only the test
    ``need`` within the source mask reads ``need``.  So each such layer
    indexes its source groups under each bit of their source mask, and each
    (layer, blocked) gets one view: the covers still free there, per lowest
    bit of ``need`` the groups under that bit that are disjoint from
    ``blocked``, and per source mask its total, the number of facet
    completions through its members.  Index and lists are filled when a
    state first asks for them.  A total depends on (layer, blocked, source
    mask) alone and is filled in when a state first selects the group: in
    the last layer, where each source group keeps its members by the source
    cells of their avail, as the members whose sources lie within
    ``blocked``; below it as the sum of the members' states one layer up.
    A state's count, the sum of the totals of the groups whose source mask
    contains ``need``, is memoised per layer under the int ``blocked | need
    << width``.  The pending targets of a member, the targets of its free
    avail, are read through per-layer byte tables, built only for layers
    with a layer above.  The object holds no reference to itself, so its
    views and memos are freed with it.
    """

    __slots__ = ("walk", "states", "weights", "kept", "last", "layers", "from_source",
                 "tables", "shifts", "by_bit", "deadline", "views", "memos")

    def __init__(self, walks: list, blocks: list[range], sbit: list[int], tbit: list[int],
                 deadline: float):
        self.deadline = deadline
        self.last = last = len(walks) - 1
        # per layer: its covers by source cell; below the last, its first
        # cover with the target bits of its byte tables, and the width of
        # the cell masks of the layer above
        self.from_source = []
        self.tables = []
        self.shifts = [0]
        for ki, block in enumerate(blocks):
            covers: dict[int, int] = {}
            cells = 0
            for c in block:
                covers[sbit[c]] = covers.get(sbit[c], 0) | 1 << c
                cells |= tbit[c]
            self.from_source.append(covers)
            if ki < last:
                self.tables.append((block.start, _byte_tables(block, tbit)))
                self.shifts.append(cells.bit_length())
        # the index-0 members folded into states: per target mask, the
        # covers of index 1 free there and its members by pending targets
        lo, byte_tables = self.tables[0]
        folded: dict[int, dict[int, list[int]]] = {}
        for mask, _, tm, avail in walks[0]:
            avail >>= lo
            pend = 0
            for tab in byte_tables:
                pend |= tab[avail & 255]
                avail >>= 8
            pends = folded.get(tm)
            if pends is None:
                folded[tm] = {pend: [mask]}
            elif pend in pends:
                pends[pend].append(mask)
            else:
                pends[pend] = [mask]
        self.states = [(tm, self.free(1, tm), list(pends.items()))
                       for tm, pends in folded.items()]
        self.weights: dict[int, list[tuple[int, int, list]]] = {}
        self.walk = walks[1]
        self.kept: list[tuple[int, int, int, int]] = []
        # layers 2 and up by source mask, the last one's members by the
        # source cells of their avail (index 0 and 1 are left empty)
        self.layers: list[dict[int, list]] = [{} for _ in walks]
        for ki in range(2, last + 1):
            groups = self.layers[ki]
            for member in walks[ki]:
                group = groups.get(member[1])
                if group is None:
                    groups[member[1]] = [member]
                else:
                    group.append(member)
        if last > 1:
            lo, source_tables = blocks[last].start, _byte_tables(blocks[last], sbit)
            closing = self.layers[last]
            for sm, members in closing.items():
                by_sources: dict[int, list[int]] = {}
                for mask, _, _, avail in members:
                    sources = _union(avail >> lo, source_tables)
                    group = by_sources.get(sources)
                    if group is None:
                        by_sources[sources] = [mask]
                    else:
                        group.append(mask)
                closing[sm] = list(by_sources.items())
        # per layer from 2, its groups under each bit of their source mask
        # (all of them under 0), filled as states ask
        self.by_bit: list[dict[int, list[tuple[int, list]]]] = [{} for _ in walks]
        self.views: list[dict[int, tuple[int, dict[int, list], dict[int, int]]]] = [
            {} for _ in walks]
        self.memos: list[dict[int, int]] = [{} for _ in walks]

    def free(self, ki: int, blocked: int) -> int:
        """The covers of layer ``ki`` whose source is not in ``blocked``."""
        covers = self.from_source[ki]
        free = -1
        while blocked:
            b = blocked & -blocked
            blocked ^= b
            free &= ~covers.get(b, 0)
        return free

    def fitting(self, sm: int) -> list[tuple[int, int, list[tuple[int, list[int]]]]]:
        """The states an index-1 member with source mask ``sm`` fits: those
        whose target mask misses ``sm`` with members whose pending targets
        lie within ``sm``, as (covers of index 1 free there, the number of
        those members, the state's members by pending targets)."""
        _check_deadline(self.deadline, "counting facets")
        out = self.weights[sm] = []
        for tm, free, pends in self.states:
            if tm & sm:
                continue
            weight = 0
            for pend, masks in pends:
                if not pend & ~sm:
                    weight += len(masks)
            if weight:
                out.append((free, weight, pends))
        return out

    def selected(self, ki: int, blocked: int, need: int) -> tuple[int, list, dict[int, int]]:
        """(free covers, the groups under the lowest bit of ``need`` that are
        disjoint from ``blocked``, the view's totals by source mask)."""
        view = self.views[ki].get(blocked)
        if view is None:
            free = self.free(ki, blocked) if ki < self.last else -1
            view = self.views[ki][blocked] = (free, {}, {})
        free, lists, totals = view
        low = need & -need
        groups = lists.get(low)
        if groups is None:
            under = self.by_bit[ki].get(low)
            if under is None:
                under = self.by_bit[ki][low] = [
                    g for g in self.layers[ki].items() if g[0] & low or not low]
            groups = lists[low] = [g for g in under if not g[0] & blocked]
        return free, groups, totals

    def count(self, ki: int, blocked: int, need: int) -> int:
        """Facet completions from layer ``ki`` >= 2 up, in state (blocked, need)."""
        memo = self.memos[ki]
        key = blocked | need << self.shifts[ki]
        got = memo.get(key)
        if got is not None:
            return got
        _check_deadline(self.deadline, "counting facets")
        free, groups, totals = self.selected(ki, blocked, need)
        total = 0
        for sm, group in groups:
            if need & ~sm:
                continue
            group_total = totals.get(sm)
            if group_total is None:
                group_total = 0
                if ki == self.last:
                    for sources, masks in group:
                        if not sources & ~blocked:
                            group_total += len(masks)
                else:
                    # the pending targets and the memo lookup inlined: this
                    # loop runs once per member of every selected group
                    up = ki + 1
                    memo_up, shift = self.memos[up], self.shifts[up]
                    lo, byte_tables = self.tables[ki]
                    for _, _, tm, avail in group:
                        avail = (avail & free) >> lo
                        pend = 0
                        for tab in byte_tables:
                            pend |= tab[avail & 255]
                            avail >>= 8
                        got = memo_up.get(tm | pend << shift)
                        if got is None:
                            got = self.count(up, tm, pend)
                        group_total += got
                totals[sm] = group_total
            total += group_total
        memo[key] = total
        return total

    def total(self, limit: float) -> int:
        """The number of facets, refused at the first member of index 1
        after which it passes ``limit``.  Under a finite limit the members
        with a term are kept for ``facets``: each term counts a facet, so at
        most ``limit`` of them."""
        weights, fitting, closing = self.weights, self.fitting, self.last == 1
        keep = self.kept.append if limit < math.inf else None
        if not closing:
            count, memo, shift = self.count, self.memos[2], self.shifts[2]
            lo, byte_tables = self.tables[1]
        total = 0
        for member in self.walk:
            _, sm, tm, avail = member
            states = weights.get(sm)
            if states is None:
                states = fitting(sm)
            term = 0
            if closing:
                for free, weight, _ in states:
                    if not avail & free:
                        term += weight
            else:
                # the pending targets and the memo lookup inlined: this loop
                # runs once per state each member fits
                for free, weight, _ in states:
                    a = (avail & free) >> lo
                    pend = 0
                    for tab in byte_tables:
                        pend |= tab[a & 255]
                        a >>= 8
                    got = memo.get(tm | pend << shift)
                    if got is None:
                        got = count(2, tm, pend)
                    term += weight * got
            if term:
                total += term
                if total > limit:
                    raise _over_budget(total, limit)
                if keep:
                    keep(member)
        return total

    def facets(self, deadline: float):
        """Yield the facets: per kept member of index 1, per state it fits
        with a completion, each of the state's fitting index-0 members with
        each completion from layer 2 up.  Call ``total`` under a finite
        limit first, which keeps the members and fills the view, totals and
        memo of every state visited here."""
        closing = self.last == 1
        if not closing:
            memo, shift = self.memos[2], self.shifts[2]
            lo, byte_tables = self.tables[1]
        # per mask, its ids; per index-1 source mask, the states it fits
        # with the ids of their fitting members
        ids: dict[int, tuple[int, ...]] = {}
        fits: dict[int, list[tuple[int, list[tuple[int, ...]]]]] = {}
        ids_of: dict[int, list[tuple[int, ...]]] = {}
        for mask, sm, tm, avail in self.kept:
            _check_deadline(deadline, "listing facets")
            states = fits.get(sm)
            if states is None:
                states = fits[sm] = [
                    (free, [_ids(m) for pend, masks in pends if not pend & ~sm for m in masks])
                    for free, _, pends in self.weights[sm]]
            head = _ids(mask)
            for free, lows in states:
                if closing:
                    ups = [head] if not avail & free else []
                else:
                    pend = _union((avail & free) >> lo, byte_tables)
                    if not memo[tm | pend << shift]:
                        continue
                    ups = list(self.completions(tm, pend, head, deadline, ids, ids_of))
                for low in lows:
                    for up in ups:
                        yield low + up

    def completions(self, blocked: int, need: int, prefix: tuple[int, ...], deadline: float,
                    ids: dict[int, tuple[int, ...]], ids_of: dict[int, list[tuple[int, ...]]]):
        """Yield ``prefix`` with each facet completion from layer 2 up in
        state (blocked, need), walking the views ``total`` filled and
        pruning the groups and members with no completion.  ``ids`` and
        ``ids_of`` cache the ids of each member of a middle layer, and of
        each last-layer list of closing members by (source mask, avail
        sources)."""
        last, views, memos, shifts, tables = (
            self.last, self.views, self.memos, self.shifts, self.tables)
        width = shifts[last]
        stack = [(2, blocked, need, prefix)]
        while stack:
            ki, blocked, need, prefix = stack.pop()
            _check_deadline(deadline, "listing facets")
            free, lists, totals = views[ki][blocked]
            groups = lists[need & -need]
            if ki == last:
                for sm, group in groups:
                    if need & ~sm or not totals[sm]:
                        continue
                    for sources, masks in group:
                        if not sources & ~blocked:
                            key = sources | sm << width
                            closers = ids_of.get(key)
                            if closers is None:
                                closers = ids_of[key] = [_ids(m) for m in masks]
                            for got in closers:
                                yield prefix + got
                continue
            up = ki + 1
            memo, shift = memos[up], shifts[up]
            lo, byte_tables = tables[ki]
            for sm, group in groups:
                if need & ~sm or not totals[sm]:
                    continue
                for mask, _, tm, avail in group:
                    avail = (avail & free) >> lo
                    pend = 0
                    for tab in byte_tables:
                        pend |= tab[avail & 255]
                        avail >>= 8
                    if memo[tm | pend << shift]:
                        got = ids.get(mask)
                        if got is None:
                            got = ids[mask] = _ids(mask)
                        stack.append((up, tm, pend, prefix + got))


def _byte_tables(block: range, bits: list[int]) -> list[list[int]]:
    """Per byte of ``block``, the union of ``bits`` over each subset of the
    byte's covers."""
    tables = []
    for lo in range(block.start, block.stop, 8):
        tab = [0]
        for c in range(lo, min(lo + 8, block.stop)):
            tab += [t | bits[c] for t in tab]
        tables.append(tab)
    return tables


def _union(covers: int, tables: list[list[int]]) -> int:
    """The union of the tables' bits over ``covers``, counted from the
    tables' first cover."""
    out = 0
    for tab in tables:
        out |= tab[covers & 255]
        covers >>= 8
    return out


def _ids(mask: int) -> tuple[int, ...]:
    """The cover ids of a mask, ascending."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


# -- the Morse complex -------------------------------------------------------

class MorseComplex:
    """The discrete Morse complex of a simplicial complex or multigraph.

    Vertices are the regular pairs (named p0..pN in canonical cover order);
    a set of vertices spans a simplex exactly when the pairs form an acyclic
    matching.  Stored implicitly; see module docstring.
    """

    def __init__(self, source: Source, budget: Optional[Budget] = None):
        self.source = source
        self.budget = budget or DEFAULT_BUDGET
        self.hasse = hasse(source)
        self.pairs: tuple[RegularPair, ...] = tuple(self.hasse.regular_pairs())
        n = len(self.pairs)
        width = len(str(n - 1)) if n > 1 else 1
        self.pair_ids: tuple[str, ...] = tuple(f"p{i:0{width}d}" for i in range(n))
        self._pair_index = {p: i for i, p in enumerate(self.pairs)}
        self._id_index = {pid: i for i, pid in enumerate(self.pair_ids)}

        covers = self.hasse.covers
        cells = self.hasse.cells
        conflict = [0] * n
        arc = [0] * n
        rev = [0] * n
        children = self.hasse.children
        src_of = [c[0] for c in covers]
        tgt_of = [c[1] for c in covers]
        by_source: dict[int, list[int]] = {}
        by_cell: dict[int, list[int]] = {}
        for i in range(n):
            by_source.setdefault(src_of[i], []).append(i)
            by_cell.setdefault(src_of[i], []).append(i)
            by_cell.setdefault(tgt_of[i], []).append(i)
        for members in by_cell.values():
            for i in members:
                for j in members:
                    if i != j:
                        conflict[i] |= 1 << j
        for i in range(n):
            for child in children.get(tgt_of[i], ()):
                if child != src_of[i]:
                    for j in by_source.get(child, ()):
                        arc[i] |= 1 << j
                        rev[j] |= 1 << i
        self._conflict = conflict
        self._arc = arc
        self._rev = rev
        self._indices = tuple(cells[s][0] for s, _ in covers)
        self._compat: Optional[list[int]] = None
        self._nonfaces: Optional[list[tuple[int, ...]]] = None
        self._quotient: Optional[list[int]] = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def pair_of_id(self, pid: str) -> RegularPair:
        return self.pairs[self._id_index[pid]]

    def id_of_pair(self, pair: RegularPair) -> str:
        return self.pair_ids[self._pair_index[pair]]

    def index_of_pair(self, pair: RegularPair) -> int:
        return self._pair_index[pair]

    def pair_table(self) -> list[tuple[str, RegularPair]]:
        return list(zip(self.pair_ids, self.pairs))

    # -- membership --------------------------------------------------------

    @staticmethod
    def _reach(frontier: int, within: int, adj: list[int], stop: int = 0) -> int:
        """Every pair one step along ``adj`` from the closure of ``frontier``
        inside ``within`` (the closure steps only onto pairs of ``within``;
        the returned successors may lie outside it).  Stops as soon as the
        successors meet ``stop``."""
        seen = out = 0
        while frontier:
            seen |= frontier
            f = frontier
            while f:
                b = f & -f
                f ^= b
                out |= adj[b.bit_length() - 1]
            if out & stop:
                break
            frontier = out & within & ~seen
        return out

    def _creates_cycle(self, c: int, mask: int) -> bool:
        target = 1 << c
        start = self._arc[c] & mask
        if not start or not (self._rev[c] & mask):
            return False
        return bool(self._reach(start, mask, self._arc, target) & target)

    def _is_simplex_mask(self, mask: int) -> bool:
        rest = mask
        while rest:
            b = rest & -rest
            rest ^= b
            c = b.bit_length() - 1
            if self._conflict[c] & mask:
                return False
            if self._creates_cycle(c, mask & ~b):
                return False
        return True

    def is_simplex(self, pairs: Iterable[RegularPair]) -> bool:
        """True iff the pair set spans a simplex of the Morse complex."""
        mask = 0
        for p in set(pairs):
            i = self._pair_index.get(p)
            if i is None:
                return False
            mask |= 1 << i
        return self._is_simplex_mask(mask)

    # -- one-skeleton --------------------------------------------------------

    def compatibility_adjacency(self) -> list[int]:
        """Per pair, bitmask of pairs compatible with it (edges of M(K))."""
        if self._compat is None:
            # {p, q} is a simplex unless the pairs share a cell or form a
            # 2-cycle p -> q -> p (only multigraphs have those)
            full = (1 << self.n_pairs) - 1
            self._compat = [full & ~(1 << p) & ~self._conflict[p] & ~(arc & self._rev[p])
                            for p, arc in enumerate(self._arc)]
        return self._compat

    def pair_degree(self, pair: RegularPair) -> int:
        """Degree of the pair in the 1-skeleton of the Morse complex."""
        return bin(self.compatibility_adjacency()[self._pair_index[pair]]).count("1")

    # -- minimal non-faces ---------------------------------------------------

    def minimal_nonfaces(self) -> list[tuple[int, ...]]:
        """Minimal pair sets that are not simplices, as ascending tuples of
        pair indices: conflicting 2-sets plus the chordless matching circuits
        of the gradient digraph (the minimal gradient cycles, of any
        length)."""
        if self._nonfaces is None:
            self._nonfaces = self._find_nonfaces()
        return self._nonfaces

    def _find_nonfaces(self) -> list[tuple[int, ...]]:
        n = self.n_pairs
        out = []
        for i in range(n):
            f = self._conflict[i] >> (i + 1) << (i + 1)
            while f:
                b = f & -f
                f ^= b
                out.append((i, b.bit_length() - 1))
        out.extend(self._chordless_circuits())
        return out

    def _chordless_circuits(self) -> list[tuple[int, ...]]:
        n = self.n_pairs
        arc, rev, conflict = self._arc, self._rev, self._conflict
        deadline = self.budget.deadline()
        # a pair of a circuit has arcs to and from pairs of it that it does not
        # conflict with; trimming the pairs without both among the untrimmed
        # keeps every circuit, found below in the same order
        cyclic = (1 << n) - 1
        trim = list(range(n))
        while trim:
            v = trim.pop()
            free = cyclic & ~conflict[v]
            if cyclic >> v & 1 and not (arc[v] & free and rev[v] & free):
                cyclic ^= 1 << v
                f = (arc[v] | rev[v]) & free
                while f:
                    b = f & -f
                    f ^= b
                    trim.append(b.bit_length() - 1)
        out = []
        steps = 0
        for s in range(n):
            if not cyclic >> s & 1:
                continue
            # circuits from their least pair s; a path carries its last pair
            # u, the mask of its pairs, the pairs conflicting with one of
            # them, the arcs out of all but u and the arcs into all but s, so
            # an extension is any later pair reached from u that none of these
            # excludes: no conflict and no chord to or from the path
            later = cyclic >> s << s
            stack = [(s, 1 << s, conflict[s], 0, 0)]
            while stack:
                u, mask, clash, outs, ins = stack.pop()
                steps += 1
                if steps % 4096 == 0:
                    _check_deadline(deadline, "enumerating gradient circuits")
                if (arc[u] >> s) & 1:  # never for u = s: no pair has an arc to itself
                    out.append(_ids(mask))
                    continue  # extending would leave the chord u -> start
                outs_u = outs | arc[u]
                f = arc[u] & later & ~(mask | clash | outs | ins)
                while f:
                    b = f & -f
                    f ^= b
                    v = b.bit_length() - 1
                    stack.append((v, mask | b, clash | conflict[v], outs_u, ins | rev[v]))
        return out

    # -- the quotient by non-adjacent pairs with equal links -------------------

    def quotient_map(self) -> list[int]:
        """Per pair index, the least index of its quotient class.

        Two pairs are related when they are non-adjacent in M(K) and have
        equal links, which holds iff the transposition swapping them maps the
        minimal non-faces onto themselves.  With R(i) = {S - i : S a minimal
        non-face containing i}, that is: {r, i} is a non-face and
        {T in R(r) : i not in T} = {T in R(i) : r not in T}.  Since {r, i} is
        a minimal non-face, the only residue of r containing i is {i}, so the
        condition reads R(r) - {{i}} = R(i) - {{r}}, i.e. R(r) + {{r}} equals
        R(i) + {{i}}; conversely equal keys put {r} in R(i).  So one pass
        buckets every pair by the key R(i) + {{i}}, and the first (least) pair
        of a bucket represents it.

        Each pair is re-checked against its representative r in the literal
        transposition form above.  That covers every pair of the class:
        (a b) = (r a)(r b)(r a), and (r a) carries the non-face {r, b} to
        {a, b}.  Only this map is cached, not non-faces computed for it.
        Residues are kept as bitmasks of pair indices.
        """
        if self._quotient is None:
            n = self.n_pairs
            nonfaces = self._nonfaces if self._nonfaces is not None else self._find_nonfaces()
            residues: list[set[int]] = [set() for _ in range(n)]
            for S in nonfaces:
                mask = 0
                for i in S:
                    mask |= 1 << i
                for i in S:
                    residues[i].add(mask ^ 1 << i)
            first: dict[frozenset[int], int] = {}
            rep = []
            for i in range(n):
                r = first.setdefault(frozenset(residues[i] | {1 << i}), i)
                if r != i and (1 << i not in residues[r]
                               or {T for T in residues[r] if not T >> i & 1}
                               != {T for T in residues[i] if not T >> r & 1}):
                    raise TheoremContradictionError(
                        f"pairs {self.pairs[r]} and {self.pairs[i]} share a quotient "
                        "class but are adjacent or have different links")
                rep.append(r)
            self._quotient = rep
        return self._quotient

    # -- layered facet enumeration -------------------------------------------

    def _layers(self) -> tuple[dict[int, range], list[int], list[int]]:
        """Per index its block of cover ids, plus per cover the bits of its
        source and target cell.

        Covers are sorted by index, so each layer is a contiguous block, and
        gradient arcs never leave their layer.  Cell bits are positions
        within the cell's dimension, so that the target bits of one layer
        line up with the source bits of the next.
        """
        cells = self.hasse.cells
        per_dim_count: dict[int, int] = {}
        cell_bit = []
        for d, _ in cells:
            pos = per_dim_count.get(d, 0)
            cell_bit.append(1 << pos)
            per_dim_count[d] = pos + 1
        blocks: dict[int, range] = {}
        for gi, k in enumerate(self._indices):
            lo = blocks[k].start if k in blocks else gi
            blocks[k] = range(lo, gi + 1)
        covers = self.hasse.covers
        return (blocks, [cell_bit[s] for s, _ in covers],
                [cell_bit[t] for _, t in covers])

    def _layer_matchings(self, block: range, sbit: list[int], tbit: list[int],
                         deadline: float, cap: int):
        """Yield the acyclic matchings of a single layer, on the global pair
        masks, as (cover mask, src mask, tgt mask, avail), where avail is
        the extendable set of the matching: the covers of the block that
        are not in it, share no cell with it and close no gradient cycle
        with it.  Each DFS node carries its avail.  Acyclic matchings form a
        simplicial complex, so a child's avail is the parent's less c, the
        covers conflicting with c, and the covers d that close a cycle with
        the child; that cycle runs through c (the parent is acyclic with d),
        so d is exactly a successor of c's forward closure and of its
        backward closure inside the parent, each searched only where c's
        arcs that way meet the parent.  The child's DFS candidates are its
        avail among the parent's remaining higher candidates, which keeps
        the enumeration order.  ``cap`` bounds the enumeration as a memory
        guard.
        """
        conflict, arc, rev = self._conflict, self._arc, self._rev
        reach = self._reach
        full = (1 << block.stop) - (1 << block.start)
        stack = [(0, 0, 0, full, full)]
        steps = 0
        while stack:
            mask, sm, tm, cand, avail = stack.pop()
            steps += 1
            if steps % 4096 == 0:
                _check_deadline(deadline, "enumerating layer matchings")
                if steps > cap:
                    raise EnumerationBudgetError(
                        f"a single index layer has over {cap} matchings")
            yield mask, sm, tm, avail
            f = cand
            while f:
                b = f & -f
                f ^= b
                c = b.bit_length() - 1
                fwd, bwd = arc[c], rev[c]
                if fwd & mask:
                    fwd = reach(b, mask, arc)
                if bwd & mask:
                    bwd = reach(b, mask, rev)
                child = avail & ~(b | conflict[c] | (fwd & bwd))
                stack.append((mask | b, sm | sbit[c], tm | tbit[c], child & f, child))

    def _forest_matchings(self, block: range, deadline: float, cap: int,
                          limit: float) -> tuple[list[tuple[int, int]], int]:
        """The facets of a complex whose only layer is the index-0 one (a
        graph or multigraph): its acyclic matchings that no cover of the
        layer extends, found by a walk over the matchings that can still
        reach one.

        Returns (records, count).  A record (mask, leaves) stands for the
        facets ``mask | b``, one per bit b of ``leaves``: a node of the walk
        with covers ``mask`` and the candidates whose addition closes a
        facet.  ``count`` is the sum of the popcounts of the leaves, the
        number of facets.

        At index 0 a gradient arc runs from (v, e) to every cover from the
        other end w of e, so an acyclic matching is a forest of rooted
        trees: each matched vertex points to the other end of its edge, and
        each unmatched vertex is a root.  Each node carries every vertex's
        root and, per root, ``into``: the covers whose other end lies in its
        tree.  Adding (v, e), v a root, joins v's tree to that of w's root
        r, and the covers that then close a cycle are exactly
        ``out[r] & into[v]`` (``out`` the covers from a vertex).

        The walk branches as Bron and Kerbosch's pivoting does (CACM 16,
        1973).  A cover u of the avail must be added or ruled out in every
        closing matching below the node, and only a candidate in conflict
        with u, or one from the root of the tree holding u's other end
        (re-rooting that tree), rules it out.  So the node branches only on
        those candidates and u itself, for a pivot u that leaves few (the
        first that leaves one, or else the fewest), and is cut when a u that
        is no candidate leaves none.  Branch i excludes the branches before
        it, so each facet is found once.  The walk stops with
        EnumerationBudgetError once the count passes ``limit``, or once over
        ``cap`` facets are stored (a memory guard, checked every 4,096
        nodes).
        """
        conflict = self._conflict
        covers, children = self.hasse.covers, self.hasse.children
        # per cover its source vertex and the other end of its edge, per
        # vertex the covers from it and those whose other end it is; cells
        # are sorted by dimension, so vertices are cells 0..n-1, and covers
        # by index, so the block starts at cover 0
        n_vertices = sum(1 for d, _ in self.hasse.cells if d == 0)
        src, far = [], []
        out = [0] * n_vertices
        into0 = [0] * n_vertices
        for c in block:
            s, t = covers[c]
            a, b = children[t]
            w = b if a == s else a
            src.append(s)
            far.append(w)
            out[s] |= 1 << c
            into0[w] |= 1 << c
        records = []
        full = (1 << block.stop) - (1 << block.start)
        # a node: its cover mask, candidates, avail, and the roots and
        # per-root ``into``; every node on the stack has candidates
        stack = [(0, full, full, list(range(n_vertices)), into0)]
        steps = stored = 0
        while stack:
            mask, cand, avail, root, into = stack.pop()
            steps += 1
            if steps % 4096 == 0:
                _check_deadline(deadline, "enumerating layer matchings")
                if stored > cap:
                    raise EnumerationBudgetError(
                        f"a single index layer has over {cap} matchings")
            # the pivot: a cover of the avail with few candidates that rule
            # it out, itself included
            branch, fewest = cand, cand.bit_count()
            u_rest = avail
            while u_rest and fewest > 1:
                bu = u_rest & -u_rest
                u_rest ^= bu
                u = bu.bit_length() - 1
                killers = (bu | conflict[u] | out[root[far[u]]]) & cand
                k = killers.bit_count()
                if k < fewest:
                    branch, fewest = killers, k
            rest = cand
            leaves = 0
            f = branch
            while f:
                b = f & -f
                f ^= b
                rest ^= b
                c = b.bit_length() - 1
                v = src[c]
                r = root[far[c]]
                child = avail & ~(b | conflict[c] | (out[r] & into[v]))
                sub = child & rest
                if sub:
                    # v's tree joins r's
                    sub_into = into[:]
                    sub_into[r] |= into[v]
                    stack.append((mask | b, sub, child,
                                  [r if x == v else x for x in root], sub_into))
                elif not child:
                    leaves |= b
            if leaves:
                records.append((mask, leaves))
                stored += leaves.bit_count()
                if stored > limit:
                    raise _over_budget(stored, limit)
        return records, stored

    def _facet_engine(self, budget: Budget, limit: float = math.inf):
        """Count the facets, then return (count, lister); the count stops
        with EnumerationBudgetError as soon as it passes ``limit``.

        A graph or multigraph has one layer, and its facets are counted and
        listed straight off ``_forest_matchings``.  Any other complex goes
        through ``_LayeredCount``, which adds up the facets one matching of
        the index-1 layer at a time, as that layer's walk yields them; every
        term is non-negative, so the running total can refuse at ``limit``
        before the rest of the walk is taken.

        ``lister(deadline)`` yields each facet once, as a sorted global
        cover id tuple; called only after a count within a finite
        ``limit``, under which the layered count keeps the index-1
        matchings the lister walks.
        """
        deadline = budget.deadline()
        blocks, sbit, tbit = self._layers()
        cap = max(10 * budget.max_facets, 10 ** 6)
        if list(blocks) == [0]:
            records, total = self._forest_matchings(blocks[0], deadline, cap, limit)

            def lister(deadline: float):
                listed = 0
                for mask, leaves in records:
                    ids = _ids(mask)
                    while leaves:
                        b = leaves & -leaves
                        leaves ^= b
                        c = b.bit_length() - 1
                        i = bisect_left(ids, c)
                        yield (*ids[:i], c, *ids[i:])
                        listed += 1
                        if listed % 4096 == 0:
                            _check_deadline(deadline, "listing facets")

            return total, lister
        ranges = [blocks[k] for k in sorted(blocks)]
        walks = [self._layer_matchings(block, sbit, tbit, deadline, cap) for block in ranges]
        count = _LayeredCount(walks, ranges, sbit, tbit, deadline)
        return count.total(limit), count.facets

    def facet_count(self) -> int:
        """Exact number of facets (maximal acyclic matchings), counted to the
        end: time-guarded but not bounded by the facet budget, since
        counting lists nothing.  A graph's count is the sum of the popcounts
        of its walk's leaf masks; the walk keeps at most 10 times the budget
        (and at least a million) facets in its records."""
        if self.n_pairs == 0:
            return 0
        total, _ = self._facet_engine(self.budget)
        return total

    def facets(self) -> tuple[tuple[int, ...], ...]:
        """All maximal acyclic matchings, as sorted tuples of pair indices.

        Raises EnumerationBudgetError as soon as the count passes
        ``budget.max_facets``, before anything is listed; the message gives
        the count reached so far, a lower bound on the number of facets."""
        budget = self.budget
        if self.n_pairs == 0:
            return ()
        total, lister = self._facet_engine(budget, budget.max_facets)
        facets = sorted(lister(budget.deadline()))
        if len(facets) != total:
            raise TheoremContradictionError(
                f"facet lister produced {len(facets)} facets but the count is {total}")
        return tuple(facets)

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Every acyclic matching (simplices of M(K)), the empty one excluded.

        Raises EnumerationBudgetError past the complex's ``budget.max_facets``
        faces: the facet cap is also the face cap."""
        budget = self.budget
        deadline = budget.deadline()
        out = []
        stack = [((), 0, (1 << self.n_pairs) - 1)]
        while stack:
            ids, mask, cand = stack.pop()
            if ids:
                out.append(ids)
                if len(out) > budget.max_facets:
                    raise EnumerationBudgetError(
                        f"Morse complex has more than {budget.max_facets} faces")
            if len(out) % 4096 == 0:
                _check_deadline(deadline, "materialising faces")
            f = cand
            while f:
                b = f & -f
                f ^= b
                c = b.bit_length() - 1
                if self._creates_cycle(c, mask):
                    continue
                stack.append((ids + (c,), mask | b, f & ~self._conflict[c]))
        return tuple(sorted(out))

    # -- views ---------------------------------------------------------------

    def as_complex(self, labels: Optional[tuple[str, ...]] = None) -> SimplicialComplex:
        """The Morse complex as an explicit SimplicialComplex.

        Vertices are the pair ids (or the given per-pair labels).  The full
        face list is materialised, so this runs under the complex's budget.
        """
        names = labels if labels is not None else self.pair_ids
        if len(names) != self.n_pairs or len(set(names)) != self.n_pairs:
            raise MalformedInputError(
                f"need {self.n_pairs} distinct pair labels, got {len(names)}")
        if self.n_pairs == 0:
            return SimplicialComplex((), frozenset())
        order = tuple(sorted(names))
        rank = {lab: i for i, lab in enumerate(order)}
        remap = [rank[names[i]] for i in range(self.n_pairs)]
        simplices = {tuple(sorted(remap[c] for c in ids)) for ids in self.faces()}
        return SimplicialComplex(order, frozenset(simplices))

    def induced_subcomplex(self, pairs: Iterable[RegularPair]) -> SimplicialComplex:
        """Full subcomplex of M(K) spanned by the given pairs (desk scale:
        enumerates subsets)."""
        idx = [self._pair_index[p] for p in pairs]
        names = [self.pair_ids[i] for i in idx]
        faces = [(n,) for n in names]
        for r in range(2, len(idx) + 1):
            for combo in combinations(range(len(idx)), r):
                mask = 0
                for c in combo:
                    mask |= 1 << idx[c]
                if self._is_simplex_mask(mask):
                    faces.append(tuple(names[c] for c in combo))
        return SimplicialComplex.closure(faces)

    def dimension(self, budget: Optional[Budget] = None) -> int:
        """dim M(K) = size of a maximum acyclic matching minus one.

        Branch and bound over covers in order, on an explicit stack; the
        bound counts the distinct source cells still free in the remaining
        suffix.  No acyclic matching has more pairs than r, the sum of the
        GF(2) ranks of the boundary maps (the weak Morse inequalities; Forman,
        Adv. Math. 1998): ordered along its gradient, a matching's pairs pick
        out a square submatrix of the boundary matrix that is triangular with
        ones on the diagonal.  So the search stops as soon as the best
        matching it has built has r pairs, as Joswig & Pfetsch (SIAM J.
        Discrete Math. 2006) end theirs; where none reaches r it stays
        exhaustive.  Either way the value returned is the size of a matching
        the search built and checked, less one.
        """
        n = self.n_pairs
        if n == 0:
            return -1
        budget = budget or self.budget
        deadline = budget.deadline()
        rank = sum(self.hasse.boundary_ranks().values())
        covers = self.hasse.covers
        conflict = self._conflict
        creates_cycle = self._creates_cycle
        suffix = [0] * (n + 1)  # source cells of the covers j..n-1
        for j in range(n - 1, -1, -1):
            suffix[j] = suffix[j + 1] | 1 << covers[j][0]
        best = 0
        steps = 1
        # one frame per chosen prefix: next cover to try, pair mask, source cells
        stack = [[0, 0, 0]]
        while stack:
            frame = stack[-1]
            j, mask, used = frame
            size = len(stack) - 1
            # the suffix bound never grows with j: once it fails, no later
            # cover extends this prefix to beat best
            while j < n and size + (suffix[j] & ~used).bit_count() > best:
                if not (conflict[j] & mask or creates_cycle(j, mask)):
                    break
                j += 1
            else:
                stack.pop()
                continue
            frame[0] = j + 1
            steps += 1
            if steps % 4096 == 0:
                _check_deadline(deadline, "computing the Morse complex dimension")
            if size + 1 > best:
                best = size + 1
                if best == rank:
                    break
            stack.append([j + 1, mask | 1 << j, used | 1 << covers[j][0]])
        return best - 1

    def __repr__(self):
        kind = type(self.source).__name__
        return f"MorseComplex<{self.n_pairs} pairs over {kind}>"


def morse_complex(obj: Source, budget: Optional[Budget] = None) -> MorseComplex:
    """The discrete Morse complex of a complex or multigraph."""
    return MorseComplex(obj, budget)


def minimal_gradient_cycles(M: MorseComplex) -> list[tuple[RegularPair, ...]]:
    """All minimal gradient cycles with exactly three pairs: triples that are
    pairwise compatible yet jointly incompatible (empty triangles of M(K))."""
    out = []
    for nf in M.minimal_nonfaces():
        if len(nf) == 3:
            out.append(tuple(sorted(M.pairs[i] for i in nf)))
    out.sort()
    return out

