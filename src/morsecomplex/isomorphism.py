"""Exact isomorphism search for complexes, set families and multigraphs.

The core engine decides whether two finite set families (over labelled
vertex sets) are related by a vertex bijection mapping one family onto the
other.  A simplicial complex is handled through its facet family; objects
that expose ``iso_structure()`` (notably Morse complexes, which are far too
large to materialise) supply their own defining family instead.

The search assigns vertices in canonical label order and tries candidates in
ascending order, so the first witness found is the lexicographically least
one; iterated partition refinement over incidence profiles does the pruning.
Twin pruning removes the rest of the waste on symmetric families: two
vertices are twins when swapping them maps the family onto itself, so once a
candidate's subtree dies, its unassigned twins would die too and are skipped.
Twins are computed lazily, at a search's first dead end and only within
refined colour classes, so searches that never backtrack pay nothing; the
skipped subtrees yield nothing, so the bijections found, their order and the
lexicographically least witness are exactly those of the unpruned search.
Intended for desk-scale inputs (a few dozen vertices), exact always.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .complexes import Multigraph, SimplicialComplex, VertexBijection
from .errors import TheoremContradictionError


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


def _signatures(cols: list[int], inc: list[list[frozenset[int]]]) -> list[tuple]:
    """Per vertex, its colour and the sorted colour multisets of its sets.

    With the vertex's own colour fixed, the multiset of a set S through v
    carries what that of S - v does, so each set's key is computed once.
    """
    key: dict[frozenset[int], tuple[int, ...]] = {}
    sigs = []
    for v, sets in enumerate(inc):
        keys = []
        for S in sets:
            k = key.get(S)
            if k is None:
                k = key[S] = tuple(sorted([cols[u] for u in S]))
            keys.append(k)
        keys.sort()
        sigs.append((cols[v], tuple(keys)))
    return sigs


def _refine(n_a: int, inc_a: list[list[frozenset[int]]],
            n_b: int, inc_b: list[list[frozenset[int]]]) -> Optional[tuple[list[int], list[int]]]:
    """Joint iterated refinement on incidence lists; None if the colour
    histograms ever disagree."""
    col_a = [0] * n_a
    col_b = [0] * n_b
    n_classes = 1
    while True:
        table: dict = {}
        sig_a = _signatures(col_a, inc_a)
        sig_b = _signatures(col_b, inc_b)
        for s in sig_a + sig_b:
            if s not in table:
                table[s] = len(table)
        col_a = [table[s] for s in sig_a]
        col_b = [table[s] for s in sig_b]
        hist_a = sorted(col_a)
        hist_b = sorted(col_b)
        if hist_a != hist_b:
            return None
        new_classes = len(set(hist_a))
        if new_classes == n_classes:
            return col_a, col_b
        n_classes = new_classes


def twin_classes(n: int, family: Iterable[frozenset[int]],
                 colours: Optional[list[int]] = None) -> list[int]:
    """Per vertex, the least vertex of its twin class.

    Vertices w, w' are twins when the transposition (w w') maps the family
    onto itself, i.e. {S - w : w in S, w' not in S} equals
    {S - w' : w' in S, w not in S}.  Twinship is an equivalence relation
    (conjugating one transposition by another gives the third), so comparing
    each vertex with one representative per class suffices.  Automorphisms
    preserve refined colours, so only vertices of equal colour are compared.
    """
    residues: list[set[frozenset[int]]] = [set() for _ in range(n)]
    for S in family:
        for w in S:
            residues[w].add(S - {w})
    rep = list(range(n))
    reps_by_colour: dict[int, list[int]] = {}
    for w in range(n):
        reps = reps_by_colour.setdefault(colours[w] if colours else 0, [])
        for r in reps:
            if (len(residues[r]) == len(residues[w])
                    and {T for T in residues[r] if w not in T}
                    == {T for T in residues[w] if r not in T}):
                rep[w] = r
                break
        else:
            reps.append(w)
    return rep


def set_family_isomorphisms(n_a: int, fams_a: list[frozenset[int]],
                            n_b: int, fams_b: list[frozenset[int]]) -> Iterator[tuple[int, ...]]:
    """Yield every bijection (as a tuple image) mapping fams_a onto fams_b.

    Bijections appear in lexicographic order of their image tuples.
    """
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
    refined = _refine(n_a, inc_a, n_b, inc_b)
    if refined is None:
        return
    col_a, col_b = refined

    adj_a = [set() for _ in range(n_a)]
    adj_b = [set() for _ in range(n_b)]
    for S in fam_a_set:
        if len(S) == 2:
            x, y = S
            adj_a[x].add(y)
            adj_a[y].add(x)
    for S in fam_b_set:
        if len(S) == 2:
            x, y = S
            adj_b[x].add(y)
            adj_b[y].add(x)

    # A is assigned in order, so a set of A becomes fully assigned exactly
    # when its largest member is
    closing_a: list[list[frozenset[int]]] = [[] for _ in range(n_a)]
    for S in fam_a_set:
        if S:
            closing_a[max(S)].append(S)

    fwd: list[Optional[int]] = [None] * n_a
    bwd: list[Optional[int]] = [None] * n_b

    def consistent(v: int, w: int) -> bool:
        # A is assigned in order, so 0..v-1 are its assigned vertices: the
        # assigned 2-set neighbours of v must map onto those of w
        if ({fwd[u] for u in adj_a[v] if u < v}
                != {x for x in adj_b[w] if bwd[x] is not None}):
            return False
        for S in closing_a[v]:
            if frozenset([w if u == v else fwd[u] for u in S]) not in fam_b_set:
                return False
        for S in inc_b[w]:
            pre = []
            for u in S:
                if bwd[u] is None and u != w:
                    break
                pre.append(v if u == w else bwd[u])
            else:
                if frozenset(pre) not in fam_a_set:
                    return False
        return True

    def verify(image: tuple[int, ...]) -> bool:
        return {frozenset(image[u] for u in S) for S in fam_a_set} == fam_b_set

    # candidates for v are the B vertices of v's colour, in ascending order
    by_colour: dict[int, list[int]] = {}
    for w in range(n_b):
        by_colour.setdefault(col_b[w], []).append(w)
    twin_b: Optional[list[int]] = None
    twinned: set[int] = set()  # least members of twin classes of size > 1

    def search(v: int) -> Iterator[tuple[int, ...]]:
        nonlocal twin_b, twinned
        if v == n_a:
            image = tuple(fwd)  # type: ignore[arg-type]
            if verify(image):
                yield image
            return
        # twin classes of candidates whose subtree yielded nothing: a twin w'
        # of such a w is unassigned too, so (w w') fixes the partial map and
        # would carry any extension through w' to one through w
        dead: set[int] = set()
        for w in by_colour[col_a[v]]:
            if bwd[w] is not None:
                continue
            if dead and twin_b[w] in dead:  # type: ignore[index]
                continue
            if not consistent(v, w):
                continue
            fwd[v] = w
            bwd[w] = v
            found = False
            for image in search(v + 1):
                found = True
                yield image
            fwd[v] = None
            bwd[w] = None
            if not found:
                if twin_b is None:
                    twin_b = twin_classes(n_b, fam_b_set, col_b)
                    twinned = {r for u, r in enumerate(twin_b) if r != u}
                if twin_b[w] in twinned:
                    dead.add(twin_b[w])

    yield from search(0)


def _certificate(labels, fams):
    return labels, tuple(sorted(tuple(sorted(s)) for s in fams))


def find_isomorphism(K, L) -> Optional[VertexBijection]:
    """A vertex bijection inducing an isomorphism, or None.

    Accepts simplicial complexes (decided on facet families) and any object
    exposing ``iso_structure()``.  The search runs from the side with the
    smaller structure certificate and returns the lexicographically least
    witness there; the swapped call returns exactly the inverse map, so the
    two directions always agree.
    """
    labels_a, fams_a = _iso_structure(K)
    labels_b, fams_b = _iso_structure(L)
    if _certificate(labels_b, fams_b) < _certificate(labels_a, fams_a):
        got = find_isomorphism(L, K)
        return None if got is None else got.inverse()
    for image in set_family_isomorphisms(len(labels_a), fams_a, len(labels_b), fams_b):
        return VertexBijection({labels_a[v]: labels_b[w] for v, w in enumerate(image)})
    return None


def all_isomorphisms(K, L, limit: Optional[int] = None) -> list[VertexBijection]:
    """Every isomorphism K -> L in lexicographic order (optionally capped)."""
    labels_a, fams_a = _iso_structure(K)
    labels_b, fams_b = _iso_structure(L)
    out = []
    for image in set_family_isomorphisms(len(labels_a), fams_a, len(labels_b), fams_b):
        out.append(VertexBijection({labels_a[v]: labels_b[w] for v, w in enumerate(image)}))
        if limit is not None and len(out) >= limit:
            break
    return out


def find_multigraph_isomorphism(
        G: Multigraph, H: Multigraph) -> Optional[tuple[VertexBijection, dict[str, str]]]:
    """Multigraph isomorphism: vertex bijection preserving all parallel-class
    sizes, plus an edge bijection (lexicographic within each class).
    """
    n = G.n_vertices
    if n != H.n_vertices or G.n_edges != H.n_edges:
        return None
    mult_g = {}
    for (u, v), es in G.parallel_classes().items():
        mult_g[(u, v)] = len(es)
    mult_h = {}
    for (u, v), es in H.parallel_classes().items():
        mult_h[(u, v)] = len(es)
    if sorted(mult_g.values()) != sorted(mult_h.values()):
        return None

    def profile(mult, n_):
        degs = [sorted(m for (u, v), m in mult.items() if w in (u, v)) for w in range(n_)]
        return degs

    prof_g = profile(mult_g, n)
    prof_h = profile(mult_h, n)
    if sorted(map(tuple, prof_g)) != sorted(map(tuple, prof_h)):
        return None

    fwd: list[Optional[int]] = [None] * n
    used = [False] * n

    def search(v: int) -> Optional[list[int]]:
        if v == n:
            return list(fwd)  # type: ignore[arg-type]
        for w in range(n):
            if used[w] or prof_g[v] != prof_h[w]:
                continue
            ok = True
            for u in range(v):
                mu = mult_g.get(tuple(sorted((u, v))), 0)
                mw = mult_h.get(tuple(sorted((fwd[u], w))), 0)
                if mu != mw:
                    ok = False
                    break
            if not ok:
                continue
            fwd[v] = w
            used[w] = True
            got = search(v + 1)
            if got is not None:
                return got
            fwd[v] = None
            used[w] = False
        return None

    image = search(0)
    if image is None:
        return None
    bij = VertexBijection({G.labels[v]: H.labels[w] for v, w in enumerate(image)})
    edge_map: dict[str, str] = {}
    for (u, v), es in G.parallel_classes().items():
        target = H.edges_between(bij(G.labels[u]), bij(G.labels[v]))
        if len(target) != len(es):
            raise TheoremContradictionError(
                f"parallel class sizes differ under the vertex map: {es} vs {target}")
        edge_map.update(zip(es, target))
    return bij, edge_map
