"""Exact isomorphism search for complexes, set families and multigraphs.

There is one engine, ``set_family_isomorphisms``: it decides whether two
finite set families (over labelled vertex sets) are related by a vertex
bijection mapping one family onto the other.  A simplicial complex is handled
through its facet family; objects that expose ``iso_structure()`` (notably
Morse complexes, which are far too large to materialise) supply their own
defining family instead.  A multigraph becomes a plain set family too: one
marker vertex per distinct edge multiplicity, numbered before the
multigraph's vertices and pinned by the chain {c1}, {c1, c2}, ..., and one
set {c_rank(m), u, v} per parallel class of multiplicity m on (u, v).  The
markers come first, so each class's multiplicity is checked as soon as both
of its ends are assigned.

The search assigns vertices in canonical label order and tries candidates in
ascending order, so the first witness found is the lexicographically least
one.  Iterated partition refinement over incidence profiles colours both
sides first; a round re-keys only the sets and vertices its last splits
touched.  Then each vertex of A keeps a domain: a bitmask of the vertices
of B it may still map to, which starts as its colour class (Ullmann's
bit-vector domains, J. Exp. Algorithmics 15, 2010).  Assigning v -> w removes
w from every later domain and intersects it with the 2-set neighbourhood of w
where the later vertex is a 2-set neighbour of v, else with its complement.
A domain left with one vertex forces it and filters the others the same way;
an emptied domain rejects w.  Each set of A is checked when its largest
vertex is assigned; the families have equal size, so a bijection passing
every check maps one onto the other.  Domains only cut subtrees that yield
nothing, so the bijections found, their order and the lexicographically
least witness are exactly those of the plain backtracking search.
The search runs on an explicit stack, so its depth (the vertex count) is not
bounded by the interpreter's recursion limit, and under a ``Budget``
deadline, checked once per refinement round, at every search node and at
every forced assignment: Morse
complexes carry their own budgets and a search between two of them runs
under the tighter; anything else gets the default.  Intended for desk-scale
inputs, exact always.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Optional

from .budget import DEFAULT_BUDGET, Budget, _check_deadline
from .complexes import Multigraph, SimplicialComplex, VertexBijection
from .errors import EnumerationBudgetError, TheoremContradictionError
from .morse import MorseComplex


def _iso_structure(obj) -> tuple[tuple[str, ...], list[frozenset[int]]]:
    """(labels, defining family) of an object, by which isomorphism is decided."""
    if hasattr(obj, "iso_structure"):
        return obj.iso_structure()
    if isinstance(obj, SimplicialComplex):
        return obj.labels, [frozenset(f) for f in obj.facets()]
    raise TypeError(f"cannot search isomorphisms of {type(obj).__name__}")


def _incidence(n: int, family: Iterable[frozenset[int]]) -> list[list[frozenset[int]]]:
    """Per vertex, the sets of the family containing it."""
    inc: list[list[frozenset[int]]] = [[] for _ in range(n)]
    for S in family:
        for v in S:
            inc[v].append(S)
    return inc


def _refine(n_a: int, inc_a: list[list[frozenset[int]]],
            n_b: int, inc_b: list[list[frozenset[int]]],
            deadline: float) -> Optional[tuple[list[int], list[int]]]:
    """Joint iterated refinement on incidence lists; None if the colour
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
    if n_a != n_b:
        return None
    sets: list[tuple[int, ...]] = []
    rows: list[list[int]] = []
    for offset, inc in ((0, inc_a), (n_a, inc_b)):
        index: dict[frozenset[int], int] = {}
        base = len(sets)
        rows += [[base + index.setdefault(S, len(index)) for S in row] for row in inc]
        sets += [tuple([offset + u for u in S]) for S in index]
    n = n_a + n_b
    col = [0] * n
    members = {0: set(range(n))}  # class id -> its vertices
    from_a = {0: n_a}  # class id -> how many of its vertices are A's
    keys: dict[tuple[int, ...], int] = {}
    num = [keys.setdefault((0,) * len(S), len(keys)) for S in sets]
    affected: set[int] = set(range(n))
    rounds = 0
    while True:
        rounds += 1
        _check_deadline(deadline, f"searching isomorphisms (refinement round {rounds})")
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


def set_family_isomorphisms(n_a: int, fams_a: list[frozenset[int]],
                            n_b: int, fams_b: list[frozenset[int]], *,
                            budget: Budget = DEFAULT_BUDGET) -> Iterator[tuple[int, ...]]:
    """Yield every bijection (as a tuple image) mapping fams_a onto fams_b.

    Bijections appear in lexicographic order of their image tuples.  The
    search raises EnumerationBudgetError once it runs past the budget's
    deadline, counted from its start.
    """
    deadline = budget.deadline()
    if n_a != n_b:
        return
    if sorted(map(len, fams_a)) != sorted(map(len, fams_b)):
        return
    if n_a == 0:
        if fams_a == fams_b == []:
            yield ()
        return
    fam_a_set = set(fams_a)
    fam_b_set = set(fams_b)
    if len(fam_a_set) != len(fam_b_set):
        return
    inc_a = _incidence(n_a, fam_a_set)
    inc_b = _incidence(n_b, fam_b_set)
    refined = _refine(n_a, inc_a, n_b, inc_b, deadline)
    if refined is None:
        return
    col_a, col_b = refined

    # 2-set neighbourhoods as bitmasks
    nbr_a = [0] * n_a
    nbr_b = [0] * n_b
    for nbr, fam in ((nbr_a, fam_a_set), (nbr_b, fam_b_set)):
        for S in fam:
            if len(S) == 2:
                x, y = S
                nbr[x] |= 1 << y
                nbr[y] |= 1 << x

    # A is assigned in order, so a set of A becomes fully assigned exactly
    # when its largest member is
    closing_a: list[list[frozenset[int]]] = [[] for _ in range(n_a)]
    for S in fam_a_set:
        if S:
            closing_a[max(S)].append(S)

    def check_time(depth: int):
        if time.monotonic() > deadline:
            raise EnumerationBudgetError(
                f"time budget exceeded while searching isomorphisms (depth {depth} of {n_a})")

    def assign(dom: list[int], v: int, w: int) -> Optional[list[int]]:
        """The domains after v -> w and every assignment it forces, or None
        when a domain empties."""
        dom = dom[:]
        dom[v] = 1 << w
        forced = [v]
        for t in forced:
            check_time(v)
            bit = dom[t]
            inside = nbr_b[bit.bit_length() - 1]
            outside = ~(inside | bit)
            adj = nbr_a[t]
            for u in range(v + 1, n_a):
                d = dom[u]
                new = d & (inside if adj >> u & 1 else outside)
                if new != d and u != t:
                    if not new:
                        return None
                    dom[u] = new
                    if not new & (new - 1):
                        forced.append(u)
        return dom

    def verify(image: tuple[int, ...]) -> bool:
        return {frozenset([image[u] for u in S]) for S in fam_a_set} == fam_b_set

    # a domain starts as the vertex's colour class
    colour_b: dict[int, int] = {}
    for w in range(n_b):
        colour_b[col_b[w]] = colour_b.get(col_b[w], 0) | 1 << w

    # depth-first over v = 0..n_a-1 on an explicit stack: per depth, the
    # domains before v is assigned and the candidates for v not yet tried
    doms: list[list[int]] = [[colour_b[c] for c in col_a]] + [[]] * n_a
    untried = [0] * n_a
    untried[0] = doms[0][0]
    fwd = [0] * n_a
    v = 0
    while v >= 0:
        check_time(v)
        if v == n_a:
            image = tuple(fwd)
            if verify(image):
                yield image
            v -= 1
            continue
        cand = untried[v]
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            fwd[v] = w
            if all(frozenset([fwd[u] for u in S]) in fam_b_set for S in closing_a[v]):
                dom = assign(doms[v], v, w)
                if dom is not None:
                    break
        else:
            v -= 1
            continue
        untried[v] = cand
        v += 1
        doms[v] = dom
        if v < n_a:
            untried[v] = dom[v]


def _search_budget(K, L) -> Budget:
    """The tighter budget of K and L where they are Morse complexes, else the default."""
    budgets = [X.budget for X in (K, L) if isinstance(X, MorseComplex)]
    return min(budgets, key=lambda b: b.max_seconds, default=DEFAULT_BUDGET)


def _certificate(labels, fams):
    return labels, tuple(sorted(tuple(sorted(s)) for s in fams))


def find_isomorphism(K, L) -> Optional[VertexBijection]:
    """A vertex bijection inducing an isomorphism, or None.

    Accepts simplicial complexes (decided on facet families) and any object
    exposing ``iso_structure()``.  The search runs from the side with the
    smaller structure certificate, each side's computed once, and returns the
    lexicographically least witness there, inverted when that side is L; so
    the two directions always agree.  Raises EnumerationBudgetError when the
    search outlasts the tighter budget of two Morse complexes (the default
    budget for other objects).
    """
    labels_a, fams_a = _iso_structure(K)
    labels_b, fams_b = _iso_structure(L)
    backwards = _certificate(labels_b, fams_b) < _certificate(labels_a, fams_a)
    if backwards:
        labels_a, fams_a, labels_b, fams_b = labels_b, fams_b, labels_a, fams_a
    for image in set_family_isomorphisms(len(labels_a), fams_a, len(labels_b), fams_b,
                                         budget=_search_budget(K, L)):
        bij = VertexBijection({labels_a[v]: labels_b[w] for v, w in enumerate(image)})
        return bij.inverse() if backwards else bij
    return None


def all_isomorphisms(K, L, limit: Optional[int] = None) -> list[VertexBijection]:
    """Every isomorphism K -> L in lexicographic order (optionally capped)."""
    labels_a, fams_a = _iso_structure(K)
    labels_b, fams_b = _iso_structure(L)
    out = []
    for image in set_family_isomorphisms(len(labels_a), fams_a, len(labels_b), fams_b,
                                         budget=_search_budget(K, L)):
        out.append(VertexBijection({labels_a[v]: labels_b[w] for v, w in enumerate(image)}))
        if limit is not None and len(out) >= limit:
            break
    return out


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
        return ([frozenset(range(c + 1)) for c in range(k)]
                + [frozenset((rank[len(es)], k + u, k + v)) for (u, v), es in classes.items()])

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
