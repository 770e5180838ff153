"""Hasse diagrams, acyclic matchings and the discrete Morse complex.

A regular pair is a cover relation (source, target) of the face poset; a set
of pairs is a simplex of the Morse complex M(K) exactly when it is a matching
(no cell used twice) whose per-index gradient digraph is acyclic.  M(K) is
kept implicit: ``MorseComplex`` builds three cover-level bitmask tables
eagerly (quadratic in the number of covers) and decides everything on them:
``_conflict`` (pairs sharing a cell), ``_arc`` (gradient arcs) and ``_rev``
(their reverse), with ``_reach`` as the one reachability routine.  The
1-skeleton, the minimal non-faces, the face list and the facets are all
read off these tables on demand.

Facet enumeration is layered: covers are sorted by index, gradient arcs
never leave an index, and layers interact only through one interface (a
cell cannot be a target below and a source above).  So each layer's
matchings are enumerated once, on the global masks restricted to its block
of covers, each with its extendable set (the covers that extend it inside
the layer), which the search carries from parent to child instead of
testing every cover again.  A memoised count over interface states prices
the output before anything is listed; a state depends on a matching only
through its source mask, so each layer's matchings are grouped by it.  The
count is exact, which lets the facet budget fail fast and loudly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Union

from .complexes import Multigraph, SimplicialComplex, immediate_faces
from .errors import (EnumerationBudgetError, MalformedInputError,
                     TheoremContradictionError)
from .isomorphism import twin_classes

Source = Union[SimplicialComplex, Multigraph]


@dataclass(frozen=True)
class Budget:
    """Resource guard for enumerations; exceeding raises, never truncates."""

    max_facets: int = 1_000_000
    max_seconds: float = 60.0

    def deadline(self) -> float:
        return time.monotonic() + self.max_seconds


DEFAULT_BUDGET = Budget()


def _check_deadline(deadline: float, what: str):
    if time.monotonic() > deadline:
        raise EnumerationBudgetError(f"time budget exceeded while {what}")


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


class GradientPath(NamedTuple):
    """A closed gradient path: same-index pairs, each source an immediate
    face of the previous target."""

    index: int
    steps: tuple[RegularPair, ...]
    closed: bool


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


def hasse(obj: Source) -> HasseDiagram:
    """Hasse diagram of a simplicial complex or multigraph."""
    if isinstance(obj, SimplicialComplex):
        cells = sorted(((len(s) - 1, obj.to_labels(s)) for s in obj.simplices),
                       key=lambda c: (c[0], c[1]))
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
    covers.sort(key=lambda st: (cells[st[0]][0], cells[st[0]][1], cells[st[1]][1]))
    return HasseDiagram(tuple(cells), tuple(covers))


def primitive_pairs(obj: Source) -> list[RegularPair]:
    """One regular pair per Hasse cover; the vertices of the Morse complex."""
    diagram = hasse(obj)
    out = []
    for s, t in diagram.covers:
        dim, name = diagram.cells[s]
        _, tname = diagram.cells[t]
        out.append(RegularPair(name, tname, dim))
    return out


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


def compatible(p: RegularPair, q: RegularPair, G: Optional[Multigraph] = None) -> bool:
    """True iff {p, q} is an acyclic matching, i.e. an edge of the Morse complex."""
    if not is_matching([p, q]):
        return False
    return is_acyclic([p, q], G)


def critical_cells(obj: Source, pairs: Iterable[RegularPair]) -> list[tuple[int, tuple[str, ...]]]:
    """Cells of the complex not used by any pair, as (dim, name)."""
    used = set()
    for p in pairs:
        a, b = p.cells()
        used.add(a)
        used.add(b)
    return [c for c in hasse(obj).cells if c not in used]


def gradient_cycles(pairs: Iterable[RegularPair],
                    G: Optional[Multigraph] = None) -> list[GradientPath]:
    """All closed non-stationary gradient paths within a pair set.

    Gradient paths live inside a discrete vector field, so only cycles whose
    pairs form a matching count; the set itself need not be one.  Cycles are
    elementary (no pair repeats), rotated to start at their least pair and
    sorted canonically.
    """
    pairs = sorted(set(pairs))
    arcs = _pair_arcs(pairs, G)
    cells = [set(p.cells()) for p in pairs]
    cycles = []
    n = len(pairs)
    for start in range(n):
        stack = [([start], 1 << start, set(cells[start]))]
        while stack:
            path, mask, used = stack.pop()
            u = path[-1]
            for v in arcs[u]:
                if v == start and len(path) >= 2:
                    cycles.append(tuple(path))
                elif v > start and not (mask >> v) & 1 and not (cells[v] & used):
                    stack.append((path + [v], mask | (1 << v), used | cells[v]))
    out = [GradientPath(pairs[c[0]].index, tuple(pairs[i] for i in c), True)
           for c in cycles]
    out.sort(key=lambda gp: (gp.index, gp.steps))
    return out


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
        self.pairs: tuple[RegularPair, ...] = tuple(primitive_pairs(source))
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
        self._nonfaces: Optional[list[frozenset[int]]] = None
        self._quotient: Optional[list[int]] = None
        self._facets: Optional[tuple[tuple[int, ...], ...]] = None
        self._faces: Optional[tuple[tuple[int, ...], ...]] = None

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

    def minimal_nonfaces(self) -> list[frozenset[int]]:
        """Minimal pair sets that are not simplices: conflicting 2-sets plus
        the chordless matching circuits of the gradient digraph (the minimal
        gradient cycles, of any length)."""
        if self._nonfaces is None:
            self._nonfaces = self._find_nonfaces()
        return self._nonfaces

    def _find_nonfaces(self) -> list[frozenset[int]]:
        n = self.n_pairs
        out = []
        for i in range(n):
            f = self._conflict[i] >> (i + 1)
            j = i + 1
            while f:
                if f & 1:
                    out.append(frozenset((i, j)))
                f >>= 1
                j += 1
        out.extend(self._chordless_circuits())
        return out

    def _chordless_circuits(self) -> list[frozenset[int]]:
        n = self.n_pairs
        arc, rev, conflict = self._arc, self._rev, self._conflict
        deadline = self.budget.deadline()
        out = []
        steps = 0
        for s in range(n):
            stack = [((s,), 1 << s)]
            while stack:
                path, mask = stack.pop()
                steps += 1
                if steps % 4096 == 0:
                    _check_deadline(deadline, "enumerating gradient circuits")
                u = path[-1]
                if len(path) >= 2 and (arc[u] >> s) & 1:
                    out.append(frozenset(path))
                    continue  # extending would leave the chord u -> start
                f = arc[u] & ~mask
                while f:
                    b = f & -f
                    f ^= b
                    v = b.bit_length() - 1
                    if v < s or conflict[v] & mask:
                        continue
                    if rev[v] & (mask & ~(1 << u)):
                        continue
                    if arc[v] & (mask & ~(1 << s)):
                        continue
                    stack.append((path + (v,), mask | b))
        return out

    def iso_structure(self) -> tuple[tuple[str, ...], list[frozenset[int]]]:
        """Vertex labels plus the family of minimal non-faces, which determine
        the complex exactly; used by find_isomorphism without materialising
        the (possibly enormous) facet list."""
        return self.pair_ids, self.minimal_nonfaces()

    # -- the quotient by non-adjacent pairs with equal links -------------------

    def quotient_map(self) -> list[int]:
        """Per pair index, the least index of its quotient class.

        Two pairs are related when they are non-adjacent in M(K) and have
        equal links, which holds iff the transposition swapping them maps the
        minimal non-faces onto themselves.  So the classes are the twin
        classes of the minimal non-faces whose members are pairwise
        non-adjacent (within a twin class adjacency is uniform); every pair
        of each class is re-checked in that non-face form.  Only this map is
        cached, not non-faces computed for it.
        """
        if self._quotient is None:
            nonfaces = self._nonfaces if self._nonfaces is not None else self._find_nonfaces()
            twin = twin_classes(self.n_pairs, nonfaces)
            nf_set = set(nonfaces)
            rep = [r if frozenset((r, i)) in nf_set else i for i, r in enumerate(twin)]
            members: dict[int, list[int]] = {}
            for i, r in enumerate(rep):
                members.setdefault(r, []).append(i)
            containing: list[list[frozenset[int]]] = [[] for _ in range(self.n_pairs)]
            for S in nonfaces:
                for i in S:
                    containing[i].append(S)
            for cls in members.values():
                for a, b in combinations(cls, 2):
                    swap = {a: b, b: a}
                    if frozenset((a, b)) not in nf_set or any(
                            frozenset(swap.get(i, i) for i in S) not in nf_set
                            for S in containing[a] + containing[b]):
                        raise TheoremContradictionError(
                            f"pairs {self.pairs[a]} and {self.pairs[b]} share a quotient "
                            "class but are adjacent or have different links")
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
                         deadline: float, cap: int
                         ) -> dict[int, list[tuple[tuple[int, ...], int, int]]]:
        """All acyclic matchings of a single layer, on the global pair masks,
        grouped by source cell mask.

        Returns {src mask: [(cover ids, tgt mask, avail), ...]}, where avail
        is the extendable set of the matching: the covers of the block that
        are not in it, share no cell with it and close no gradient cycle
        with it.  Each DFS node carries its avail.  Acyclic matchings form a
        simplicial complex, so a child's avail is the parent's less c, the
        covers conflicting with c, and the covers d that close a cycle with
        the child; that cycle runs through c (the parent is acyclic with d),
        so d is exactly a successor of c's forward closure and of its
        backward closure inside the parent.  The child's DFS candidates are
        its avail among the parent's remaining higher candidates, which
        keeps the enumeration order.  ``cap`` bounds the enumeration as a
        memory guard.
        """
        conflict, arc, rev = self._conflict, self._arc, self._rev
        reach = self._reach
        groups: dict[int, list[tuple[tuple[int, ...], int, int]]] = {}
        full = (1 << block.stop) - (1 << block.start)
        stack = [((), 0, 0, 0, full, full)]
        steps = 0
        while stack:
            ids, mask, sm, tm, cand, avail = stack.pop()
            steps += 1
            if steps % 4096 == 0:
                _check_deadline(deadline, "enumerating layer matchings")
                if steps > cap:
                    raise EnumerationBudgetError(
                        f"a single index layer has over {cap} matchings")
            group = groups.get(sm)
            if group is None:
                group = groups[sm] = []
            group.append((ids, tm, avail))
            f = cand
            while f:
                b = f & -f
                f ^= b
                c = b.bit_length() - 1
                fwd = arc[c]
                if fwd & mask:
                    fwd = reach(b, mask, arc)
                bwd = rev[c]
                if bwd & mask:
                    bwd = reach(b, mask, rev)
                child = avail & ~(b | conflict[c] | (fwd & bwd))
                stack.append((ids + (c,), mask | b, sm | sbit[c], tm | tbit[c],
                              child & f, child))
        return groups

    def _facet_engine(self, budget: Budget):
        """Count facets exactly, then return (count, lister).

        A layer's matching extends to a facet iff no cover of its avail stays
        addable: a cover whose source is a target of the layer below
        (``blocked``) is ruled out there, and any other one must have its
        target used as a source by the layer above (``need``).  Addable
        covers share no cell with the matching, so that depends on the
        matching's avail alone, and whether a matching fits a state
        (blocked, need) depends on its source mask alone: each state tests
        each source group once.  In the last layer nothing lies above, so a
        matching closes a facet iff its avail lies within the covers from
        blocked sources.

        lister() yields facets as sorted global cover id tuples; never called
        when count exceeds the facet budget.
        """
        deadline = budget.deadline()
        blocks, sbit, tbit = self._layers()
        ks = sorted(blocks)
        cap = max(10 * budget.max_facets, 10 ** 6)
        layers = []
        from_source = []
        for k in ks:
            groups = self._layer_matchings(blocks[k], sbit, tbit, deadline, cap)
            layers.append(groups)
            covers: dict[int, int] = {}
            for c in blocks[k]:
                covers[sbit[c]] = covers.get(sbit[c], 0) | 1 << c
            from_source.append(covers)
        last = len(ks) - 1

        def ruled_out(ki: int, blocked: int) -> int:
            """Covers of layer ki whose source is a target below."""
            covers = from_source[ki]
            out = 0
            while blocked:
                b = blocked & -blocked
                blocked ^= b
                out |= covers.get(b, 0)
            return out

        def pending(avail: int) -> int:
            need = 0
            while avail:
                b = avail & -avail
                avail ^= b
                need |= tbit[b.bit_length() - 1]
            return need

        memo: dict[tuple[int, int, int], int] = {}

        def count(ki: int, blocked: int, need: int) -> int:
            key = (ki, blocked, need)
            got = memo.get(key)
            if got is not None:
                return got
            _check_deadline(deadline, "counting facets")
            free = ~ruled_out(ki, blocked)
            total = 0
            for sm, members in layers[ki].items():
                if sm & blocked or need & ~sm:
                    continue
                if ki == last:
                    for _, _, avail in members:
                        if not avail & free:
                            total += 1
                else:
                    for _, tm, avail in members:
                        total += count(ki + 1, tm, pending(avail & free))
            memo[key] = total
            return total

        total = count(0, 0, 0)

        def lister():
            out_deadline = budget.deadline()

            def rec(ki: int, blocked: int, need: int, prefix: tuple[int, ...]):
                _check_deadline(out_deadline, "listing facets")
                free = ~ruled_out(ki, blocked)
                for sm, members in layers[ki].items():
                    if sm & blocked or need & ~sm:
                        continue
                    for ids, tm, avail in members:
                        if ki == last:
                            if not avail & free:
                                yield prefix + ids
                            continue
                        pend = pending(avail & free)
                        if count(ki + 1, tm, pend):
                            yield from rec(ki + 1, tm, pend, prefix + ids)

            yield from rec(0, 0, 0, ())

        return total, lister

    def facet_count(self, budget: Optional[Budget] = None) -> int:
        """Exact number of facets (maximal acyclic matchings); time-guarded
        but not bounded by the facet budget, since counting never lists."""
        if self.n_pairs == 0:
            return 0
        total, _ = self._facet_engine(budget or self.budget)
        return total

    def facets(self, budget: Optional[Budget] = None) -> tuple[tuple[int, ...], ...]:
        """All maximal acyclic matchings, as sorted tuples of pair indices."""
        if self._facets is None:
            budget = budget or self.budget
            if self.n_pairs == 0:
                self._facets = ()
                return self._facets
            total, lister = self._facet_engine(budget)
            if total > budget.max_facets:
                raise EnumerationBudgetError(
                    f"Morse complex has {total} facets, over the budget of {budget.max_facets}")
            facets = sorted(lister())
            if len(facets) != total:
                raise TheoremContradictionError(
                    f"facet lister produced {len(facets)} facets but the count is {total}")
            self._facets = tuple(facets)
        return self._facets

    def faces(self, budget: Optional[Budget] = None) -> tuple[tuple[int, ...], ...]:
        """Every acyclic matching (simplices of M(K)), the empty one excluded."""
        if self._faces is None:
            budget = budget or self.budget
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
            self._faces = tuple(sorted(out))
        return self._faces

    # -- views ---------------------------------------------------------------

    def as_complex(self, budget: Optional[Budget] = None,
                   labels: Optional[tuple[str, ...]] = None) -> SimplicialComplex:
        """The Morse complex as an explicit SimplicialComplex.

        Vertices are the pair ids (or the given per-pair labels).  The full
        face list is materialised, so this is budget-guarded.
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
        simplices = {tuple(sorted(remap[c] for c in ids)) for ids in self.faces(budget)}
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

        Branch and bound over covers; the bound counts distinct source cells
        still available in the remaining suffix.  It is not read off the
        layered facet DP yet: that pays for the full layer enumeration
        before anything else (about 1 s on K7, where this search takes
        0.2 s), while this search is exponential instead on complexes with
        many layers, such as the boundary of the 4-simplex.
        """
        n = self.n_pairs
        if n == 0:
            return -1
        budget = budget or self.budget
        deadline = budget.deadline()
        covers = self.hasse.covers
        suffix_sources = [set() for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            suffix_sources[i] = suffix_sources[i + 1] | {covers[i][0]}
        best = 0
        steps = 0

        def rec(i: int, mask: int, size: int, used_sources: frozenset):
            nonlocal best, steps
            steps += 1
            if steps % 4096 == 0:
                _check_deadline(deadline, "computing the Morse complex dimension")
            if size > best:
                best = size
            if i == n:
                return
            bound = size + len(suffix_sources[i] - used_sources)
            if bound <= best:
                return
            for j in range(i, n):
                if self._conflict[j] & mask or self._creates_cycle(j, mask):
                    continue
                if size + len(suffix_sources[j] - used_sources) <= best:
                    break
                rec(j + 1, mask | (1 << j), size + 1,
                    used_sources | {covers[j][0]})

        rec(0, 0, 0, frozenset())
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


def adjacent_cycles(c1: Iterable[RegularPair], c2: Iterable[RegularPair]) -> bool:
    """Two minimal gradient cycles are adjacent when they share exactly one pair."""
    return len(set(c1) & set(c2)) == 1
