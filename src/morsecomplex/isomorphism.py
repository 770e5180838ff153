"""Exact isomorphism search for complexes, set families and multigraphs.

There is one engine, ``set_family_isomorphisms``: it decides whether two
finite set families (over labelled vertex sets) are related by a vertex
bijection mapping one family onto the other.  A family is any sequence of
collections of vertex ids; the library's own are ascending int tuples.  A
simplicial complex is handled through its facet family, a Morse complex (far
too large to materialise) through its minimal non-faces; the two are never
compared with each other.  A multigraph becomes a plain set family too: one
marker vertex per distinct edge multiplicity, numbered before the
multigraph's vertices and pinned by the chain {c1}, {c1, c2}, ..., and one
set {c_rank(m), u, v} per parallel class of multiplicity m on (u, v).  The
markers come first, so each class's multiplicity is checked as soon as both
of its ends are assigned.

The search assigns vertices in canonical label order and tries candidates in
ascending order, so the first witness found is the lexicographically least
one.  Each family is indexed once: its member tuples, the sets through each
vertex, the 2-set neighbourhoods and the members' bitmasks, against which
every image is checked.  Iterated partition refinement over incidence
profiles colours both sides first; a round re-keys only the sets and
vertices its last splits touched.  Between two Morse complexes it reads the
2-element non-faces alone, which every isomorphism maps onto the other
side's: the stable colouring does not depend on the labelling, so the
coarser colouring only keeps images that no isomorphism uses.  For a
complex those 2-sets are the line graph of its Hasse diagram, which
determines the diagram (Whitney, Amer. J. Math. 54, 1932), so little
pruning is lost, while refining on every circuit costs more than it saves.
Then each vertex of A keeps a domain: a bitmask of the vertices of B it may
still map to, which starts as its colour class (Ullmann's bit-vector
domains, J. Exp. Algorithmics 15, 2010).
Assigning v -> w removes w from every later domain and intersects it with
the 2-set neighbourhood of w where the later vertex is a 2-set neighbour of
v, else with its complement.  A domain left with one vertex forces it and
filters the others the same way; an emptied domain rejects w.  The filtering
is sparse: per vertex of B the search keeps its holders, the vertices of A
whose domain contains it, so forcing t -> w visits only t's later
neighbours and the holders of w and of its neighbours, the only domains it
can change; and a vertex forced by an earlier assignment is not propagated
again when its own depth comes.  Each set of A, every non-face included
where refinement read the 2-sets alone, is checked when its largest vertex
is assigned; the families have equal size, so a bijection passing every
check maps one onto the other.  Domains only cut subtrees that yield
nothing, so the bijections found, their order and the lexicographically
least witness are exactly those of the plain backtracking search.
The search runs on an explicit stack, so its depth (the vertex count) is not
bounded by the interpreter's recursion limit, and under a ``Budget``
deadline, checked on ``budget.py``'s clock once per refinement round, at
every search node and at every forced assignment: Morse complexes carry
their own budgets and a search between two of them runs under the tighter;
simplicial complexes get the default.  Intended for desk-scale inputs,
exact always.
"""

from __future__ import annotations

from itertools import islice
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .budget import DEFAULT_BUDGET, Budget, _check_deadline
from .complexes import Multigraph, SimplicialComplex, VertexBijection
from .errors import MalformedInputError, TheoremContradictionError
from .morse import MorseComplex


def _iso_structure(obj) -> tuple[tuple[str, ...], Sequence[tuple[int, ...]]]:
    """(labels, defining family) of an object, by which isomorphism is
    decided: a Morse complex's pair ids and minimal non-faces, which
    determine it without materialising its (possibly enormous) facet list,
    or a simplicial complex's vertex labels and facets.  Both families are
    ascending int tuples, as the objects store them."""
    if isinstance(obj, MorseComplex):
        return obj.pair_ids, obj.minimal_nonfaces()
    if isinstance(obj, SimplicialComplex):
        return obj.labels, obj.facets()
    raise TypeError(f"cannot search isomorphisms of {type(obj).__name__}")


def _index(n: int, family: Iterable[Collection[int]], pairs_only: bool = False
           ) -> tuple[list[tuple[int, ...]], list[list[int]], list[int], dict[int, int]]:
    """A family indexed once: the distinct members refinement reads, as
    tuples (every one, or the 2-sets alone when pairs_only), per vertex the
    ids of those through it, per vertex its 2-set neighbourhood as a bitmask,
    and each distinct member's bitmask mapped to its id."""
    ids: dict[int, int] = {}
    sets: list[tuple[int, ...]] = []
    rows: list[list[int]] = [[] for _ in range(n)]
    nbr = [0] * n
    for S in family:
        mask = 0
        for u in S:
            mask |= 1 << u
        if mask in ids:
            continue
        ids[mask] = len(ids)
        members = tuple(S)
        if len(members) == 2:
            x, y = members
            nbr[x] |= 1 << y
            nbr[y] |= 1 << x
        elif pairs_only:
            continue
        for u in members:
            rows[u].append(len(sets))
        sets.append(members)
    return sets, rows, nbr, ids


def _refine(sets_a: list[tuple[int, ...]], rows_a: list[list[int]],
            sets_b: list[tuple[int, ...]], rows_b: list[list[int]],
            deadline: float) -> Optional[tuple[list[int], list[int]]]:
    """Joint iterated refinement of two indexed families (member tuples and
    per-vertex set ids, as ``_index`` gives them); None if the colour
    histograms ever disagree.  Checks the deadline once per round.

    A round splits each class by its vertices' multisets of set keys, a set's
    key being the sorted classes of its members (with the vertex's own class
    fixed, the key of S carries what that of S - v does).  The largest part
    keeps the class id (Hopcroft), so only the sets through a vertex of
    another part get new keys, only their vertices new signatures, and one
    unaffected vertex stands for the rest of its class.  The parts are those
    of re-splitting every class; colours are numbered by first appearance,
    A before B.
    """
    n_a = len(rows_a)
    sets = sets_a + [tuple([n_a + u for u in S]) for S in sets_b]
    rows = rows_a + [[len(sets_a) + i for i in row] for row in rows_b]
    n = len(rows)
    col = [0] * n
    members = {0: set(range(n))}  # class id -> its vertices
    from_a = {0: n_a}  # class id -> how many of its vertices are A's
    keys: dict[tuple[int, ...], int] = {}
    num = [keys.setdefault((0,) * len(S), len(keys)) for S in sets]
    affected: set[int] = set(range(n))
    rounds = 0
    while True:
        rounds += 1
        _check_deadline(deadline, "searching isomorphisms (refinement round %d)", rounds)
        by_class: dict[int, list[int]] = {}
        for v in affected:
            by_class.setdefault(col[v], []).append(v)
        changed: list[int] = []
        for c, vs in by_class.items():
            cls = members[c]
            rest = len(cls) - len(vs)  # unaffected vertices, all in the first part
            groups: dict[tuple[int, ...], list[int]] = {}
            if rest:
                rep = next(u for u in cls if u not in affected)
                groups[tuple(sorted([num[i] for i in rows[rep]]))] = []
            for v in vs:
                groups.setdefault(tuple(sorted([num[i] for i in rows[v]])), []).append(v)
            if len(groups) == 1:
                continue
            parts = list(groups.values())
            sizes = [len(part) for part in parts]
            sizes[0] += rest
            keep = sizes.index(max(sizes))
            if rest and keep != 0:
                moved = {v for part in parts[1:] for v in part}
                parts[0] = [v for v in cls if v not in moved]
            for j, part in enumerate(parts):
                if j == keep:
                    continue
                d = len(members)
                members[d] = set(part)
                cls -= members[d]
                for v in part:
                    col[v] = d
                changed += part
                from_a[d] = sum(1 for v in part if v < n_a)
                from_a[c] -= from_a[d]
                if 2 * from_a[d] != len(part):
                    return None
            if 2 * from_a[c] != len(cls):
                return None
        if not changed:
            break
        touched = {i for v in changed for i in rows[v]}
        for i in touched:
            num[i] = keys.setdefault(tuple(sorted([col[u] for u in sets[i]])), len(keys))
        affected = {u for i in touched for u in sets[i]}
    colour: dict[int, int] = {}
    out = [colour.setdefault(c, len(colour)) for c in col]
    return out[:n_a], out[n_a:]


def set_family_isomorphisms(n_a: int, fams_a: Sequence[Collection[int]],
                            n_b: int, fams_b: Sequence[Collection[int]], *,
                            budget: Budget = DEFAULT_BUDGET,
                            _pairs_only: bool = False) -> Iterator[tuple[int, ...]]:
    """Yield every bijection (as a tuple image) mapping fams_a onto fams_b.

    A family is any sequence of collections of vertex ids in range(n), such
    as tuples or frozensets; the order within a member does not matter.
    Bijections appear in lexicographic order of their image tuples.  The
    search raises EnumerationBudgetError once it runs past the budget's
    deadline, counted from its start.  The colour refinement reads every
    member, or, for minimal non-faces of Morse complexes (``find_isomorphism``
    and ``all_isomorphisms`` set the internal ``_pairs_only``), the 2-sets
    alone; either way every member is checked, so the bijections and their
    order are the same.
    """
    deadline = budget.deadline()
    if n_a != n_b:
        return
    if sorted(map(len, fams_a)) != sorted(map(len, fams_b)):
        return
    if n_a == 0:
        # with no vertices every member is empty, and the sizes agree
        yield ()
        return
    sets_a, rows_a, nbr_a, masks_a = _index(n_a, fams_a, _pairs_only)
    sets_b, rows_b, nbr_b, masks_b = _index(n_b, fams_b, _pairs_only)
    if len(masks_a) != len(masks_b):
        return
    refined = _refine(sets_a, rows_a, sets_b, rows_b, deadline)
    if refined is None:
        return
    col_a, col_b = refined

    # A is assigned in order, so a set of A becomes fully assigned exactly
    # when its largest member is; every member is checked, also where
    # refinement read the 2-sets alone
    closing_a: list[list[Collection[int]]] = [[] for _ in range(n_a)]
    for S in fams_a:
        if S:
            closing_a[max(S)].append(S)

    def assign(state, v: int, w: int):
        """The state after v -> w and every assignment it forces, or None
        when a domain empties."""
        dom, hold, done = state
        dom = dom[:]
        hold = hold[:]
        dom[v] = 1 << w
        later = -2 << v
        forced = [v]
        for t in forced:
            _check_deadline(deadline, "searching isomorphisms (depth %d of %d)", v, n_a)
            bit = dom[t]
            inside = nbr_b[bit.bit_length() - 1]
            adj = nbr_a[t] & later
            # the later non-neighbours of t lose t's image and its
            # neighbours: only their holders can change
            rest = later & ~adj & ~(1 << t)
            hit = 0
            f = inside | bit
            while f:
                b = f & -f
                f ^= b
                y = b.bit_length() - 1
                h = hold[y]
                if h & rest:
                    hit |= h
                    hold[y] = h & ~rest
            # the later neighbours of t keep only neighbours of its image
            lost = 0
            f = adj
            while f:
                b = f & -f
                f ^= b
                u = b.bit_length() - 1
                d = dom[u]
                new = d & inside
                if new != d:
                    if not new:
                        return None
                    dom[u] = new
                    lost |= d
                    if not new & (new - 1):
                        forced.append(u)
            lost &= ~inside
            while lost:
                b = lost & -lost
                lost ^= b
                hold[b.bit_length() - 1] &= ~adj
            keep = ~(inside | bit)
            f = hit & rest
            while f:
                b = f & -f
                f ^= b
                u = b.bit_length() - 1
                new = dom[u] & keep
                if not new:
                    return None
                dom[u] = new
                if not new & (new - 1):
                    forced.append(u)
        for t in forced:
            done |= 1 << t
        return dom, hold, done

    def image_mask(S: Collection[int]) -> int:
        mask = 0
        for u in S:
            mask |= 1 << fwd[u]
        return mask

    def verify() -> bool:
        return {image_mask(S) for S in fams_a} == masks_b.keys()

    # a domain starts as the vertex's colour class, and each vertex of B is
    # held by the vertices of A whose domain contains it
    class_a: dict[int, int] = {}
    class_b: dict[int, int] = {}
    for cls, col in ((class_a, col_a), (class_b, col_b)):
        for v, c in enumerate(col):
            cls[c] = cls.get(c, 0) | 1 << v

    # depth-first over v = 0..n_a-1 on an explicit stack: per depth, the
    # state before v is assigned (the domains, their holders and the vertices
    # whose assignment is already propagated) and the candidates for v not
    # yet tried; a propagated vertex has one candidate and nothing to filter
    states: list = [([class_b[c] for c in col_a], [class_a[c] for c in col_b], 0)]
    states += [None] * n_a
    untried = [0] * n_a
    untried[0] = states[0][0][0]
    fwd = [0] * n_a
    v = 0
    while v >= 0:
        _check_deadline(deadline, "searching isomorphisms (depth %d of %d)", v, n_a)
        if v == n_a:
            if verify():
                yield tuple(fwd)
            v -= 1
            continue
        state = states[v]
        cand = untried[v]
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            fwd[v] = w
            if all(image_mask(S) in masks_b for S in closing_a[v]):
                after = state if state[2] >> v & 1 else assign(state, v, w)
                if after is not None:
                    break
        else:
            v -= 1
            continue
        untried[v] = cand
        v += 1
        states[v] = after
        if v < n_a:
            untried[v] = after[0][v]


def _search_inputs(K, L):
    """Both sides' ``_iso_structure`` and the search's keywords: the budget
    it runs under, the tighter of two Morse complexes' budgets, else the
    default; and for Morse complexes, refinement on the 2-sets alone.  Raises
    TypeError when K and L are of different kinds, whose defining families
    (minimal non-faces against facets) are not comparable."""
    morse = isinstance(K, MorseComplex)
    if morse != isinstance(L, MorseComplex):
        raise TypeError(f"cannot search isomorphisms between a {type(K).__name__} "
                        f"and a {type(L).__name__}")
    budget = min(K.budget, L.budget, key=lambda b: b.max_seconds) if morse else DEFAULT_BUDGET
    return _iso_structure(K), _iso_structure(L), {"budget": budget, "_pairs_only": morse}


def _certificate(labels, fams):
    # members are ascending tuples, so the sorted family is canonical
    return labels, tuple(sorted(fams))


def find_isomorphism(K, L) -> Optional[VertexBijection]:
    """A vertex bijection inducing an isomorphism, or None.

    Accepts two simplicial complexes (decided on facet families) or two
    Morse complexes (decided on minimal non-faces, refined on the 2-element
    ones and each checked in the search); TypeError for anything else, a
    mixed pair included.  The search runs from the side with the
    smaller structure certificate, each side's computed once, and returns the
    lexicographically least witness there, inverted when that side is L; so
    the two directions always agree.  Raises EnumerationBudgetError when the
    search outlasts the tighter budget of two Morse complexes (the default
    budget for simplicial complexes).
    """
    (labels_a, fams_a), (labels_b, fams_b), options = _search_inputs(K, L)
    backwards = _certificate(labels_b, fams_b) < _certificate(labels_a, fams_a)
    if backwards:
        labels_a, fams_a, labels_b, fams_b = labels_b, fams_b, labels_a, fams_a
    for image in set_family_isomorphisms(len(labels_a), fams_a, len(labels_b), fams_b,
                                         **options):
        bij = VertexBijection({labels_a[v]: labels_b[w] for v, w in enumerate(image)})
        return bij.inverse() if backwards else bij
    return None


def all_isomorphisms(K, L, limit: Optional[int] = None) -> list[VertexBijection]:
    """Every isomorphism K -> L in lexicographic order, or the first ``limit``
    of them; MalformedInputError for a negative limit."""
    if limit is not None and limit < 0:
        raise MalformedInputError(f"limit must be at least 0, got {limit}")
    (labels_a, fams_a), (labels_b, fams_b), options = _search_inputs(K, L)
    images = set_family_isomorphisms(len(labels_a), fams_a, len(labels_b), fams_b, **options)
    return [VertexBijection({labels_a[v]: labels_b[w] for v, w in enumerate(image)})
            for image in islice(images, limit)]


def find_multigraph_isomorphism(
        G: Multigraph, H: Multigraph) -> Optional[tuple[VertexBijection, dict[str, str]]]:
    """Multigraph isomorphism: the lexicographically least vertex bijection
    preserving every parallel-class size, plus the edge bijection of
    ``multigraph_edge_map``.  Decided by ``set_family_isomorphisms`` on the
    marker encoding described in the module docstring.
    """
    if G.n_vertices != H.n_vertices or G.n_edges != H.n_edges:
        return None
    classes_g, classes_h = G.parallel_classes(), H.parallel_classes()
    mults = sorted({len(es) for es in classes_g.values()})
    if mults != sorted({len(es) for es in classes_h.values()}):
        return None
    k, n = len(mults), G.n_vertices
    rank = {m: c for c, m in enumerate(mults)}

    def family(classes):
        return ([tuple(range(c + 1)) for c in range(k)]
                + [(rank[len(es)], k + u, k + v) for (u, v), es in classes.items()])

    for image in set_family_isomorphisms(k + n, family(classes_g), k + n, family(classes_h)):
        bij = VertexBijection({G.labels[v]: H.labels[w - k] for v, w in enumerate(image[k:])})
        return bij, multigraph_edge_map(G, H, bij)
    return None


def multigraph_edge_map(G: Multigraph, H: Multigraph, f: VertexBijection) -> dict[str, str]:
    """The edge bijection G -> H over a vertex bijection f of multigraphs with
    equal edge counts: each parallel class of G is matched, in edge id order,
    with the class joining the images of its ends.

    Raises TheoremContradictionError when the two classes differ in size.
    """
    theirs = {(H.labels[a], H.labels[b]): es for (a, b), es in H.parallel_classes().items()}
    edge_map: dict[str, str] = {}
    for (a, b), mine in sorted(G.parallel_classes().items()):
        u, v = G.labels[a], G.labels[b]
        target = theirs.get(tuple(sorted((f(u), f(v)))), ())
        if len(target) != len(mine):
            raise TheoremContradictionError(
                f"parallel class sizes differ: |E({u},{v})| = {len(mine)} "
                f"but |E({f(u)},{f(v)})| = {len(target)}")
        edge_map.update(zip(mine, target))
    return edge_map
