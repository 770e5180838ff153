"""Desk-scale test corpora: standard complexes and exhaustive generation of
small connected graphs, simplicial complexes and multigraphs up to
isomorphism, plus seeded random variants.

Exhaustive generators enumerate labelled objects, each an int bitmask over a
fixed universe (subsets of the vertices, vertex pairs, or (pair,
multiplicity) slots), and deduplicate with an orbit table: the first
labelled member of a class adds its whole orbit to the table, and every
later member costs one lookup (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  Each labelled object is met exactly
once, so a member found in the table is removed from it, which keeps the
table to the orbits still ahead of the search.  Every vertex permutation is precomputed
once as an image-bit table, 1 << (position of the image) per universe
position, so an image is sum(map(table.__getitem__, bits)).

Complexes and multigraphs are emitted in canonical min-permutation form,
the least sorted facet (or (pair, multiplicity)) list over all
permutations, and it is read off the orbit itself: the orbit table numbers
the universe backwards in tuple order, so that a higher bit is a smaller
tuple.  All members of an orbit have equally many bits, so the least sorted
list holds the least tuple where two members differ, and the canonical form
is the orbit's max, decoded once.  Each class thus costs about two passes
over its orbit.

Complexes are the connected antichains of the subset universe, found by a
depth-first search in which each node carries its addable set: a bitmask
of the later subsets incomparable with everything it has chosen.  Its
children are its set bits, each child's addable set the bits above its own
minus the subsets comparable with it.

All randomness flows through an explicit random.Random, so runs are
reproducible from a seed.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable

from .complexes import Multigraph, SimplicialComplex, VertexBijection
from .errors import MalformedInputError


def _labels(n: int, prefix: str = "v") -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def full_simplex(labels: Iterable[str]) -> SimplicialComplex:
    """The full simplex on the given vertices."""
    return SimplicialComplex.closure([list(labels)])


def boundary_simplex(labels: Iterable[str]) -> SimplicialComplex:
    """The boundary of the simplex on the given vertices."""
    labels = list(labels)
    if len(labels) < 2:
        raise MalformedInputError("a simplex boundary needs at least 2 vertices")
    return SimplicialComplex.closure([labels[:i] + labels[i + 1:] for i in range(len(labels))])


def cycle_graph(n: int, prefix: str = "v") -> SimplicialComplex:
    if n < 3:
        raise MalformedInputError("a cycle graph needs at least 3 vertices")
    labs = _labels(n, prefix)
    return SimplicialComplex.closure([[labs[i], labs[(i + 1) % n]] for i in range(n)])


def path_graph(n: int) -> SimplicialComplex:
    if n < 1:
        raise MalformedInputError("a path graph needs at least 1 vertex")
    labs = _labels(n)
    if n == 1:
        return SimplicialComplex.closure([labs])
    return SimplicialComplex.closure([[labs[i], labs[i + 1]] for i in range(n - 1)])


def star_graph(leaves: int) -> SimplicialComplex:
    labs = _labels(leaves + 1)
    return SimplicialComplex.closure([[labs[0], labs[i]] for i in range(1, leaves + 1)])


def complete_graph(n: int) -> SimplicialComplex:
    labs = _labels(n)
    if n == 1:
        return SimplicialComplex.closure([labs])
    return SimplicialComplex.closure([[a, b] for a, b in combinations(labs, 2)])


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> SimplicialComplex:
    labs = _labels(n)
    faces = [[lab] for lab in labs]
    faces += [[labs[u], labs[v]] for u, v in edges]
    return SimplicialComplex.closure(faces)


def _image_tables(items: list[tuple[int, ...]],
                  perms: list[tuple[int, ...]]) -> list[list[int]]:
    """Each vertex permutation as an image-bit table on items, a list of
    sorted vertex tuples closed under relabelling: entry i is 1 << j, where
    items[j] is the image of items[i]."""
    bit = {s: 1 << i for i, s in enumerate(items)}
    return [[bit[tuple(sorted(p[v] for v in s))] for s in items] for p in perms]


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _orbit(bits: list[int], tables: list[list[int]]) -> set[int]:
    """The images, as bitmasks, of the object with the given bit positions
    under every image-bit table."""
    return {sum(map(table.__getitem__, bits)) for table in tables}


def _connected_cover(parts: list[int], full: int) -> bool:
    """True iff the vertex bitmasks in parts cover full and the hypergraph
    they form is connected."""
    if not parts:
        return False
    reach = parts[0]
    grown = True
    while grown:
        grown = False
        for p in parts:
            if p & reach and p & ~reach:
                reach |= p
                grown = True
    return reach == full


def _require_size(n: int, least: int, what: str) -> None:
    if n < least:
        raise MalformedInputError(f"{what} must be at least {least}; got {n}")


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[SimplicialComplex, ...]:
    """All connected simple graphs on n vertices, up to isomorphism: the
    first labelled member of each class in edge-mask order.

    Each class's orbit goes into the table once, so every later member costs
    one lookup; the n! permutations make this practical for n <= 6.
    """
    _require_size(n, 0, "a graph's vertex count")
    if n == 1:
        return (path_graph(1),)
    pairs = list(combinations(range(n), 2))
    edge_bits = [1 << u | 1 << v for u, v in pairs]
    tables = _image_tables(pairs, list(permutations(range(n))))
    full = (1 << n) - 1
    seen: set[int] = set()
    out: list[SimplicialComplex] = []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            seen.remove(mask)
            continue
        bits = _bits(mask)
        if not _connected_cover([edge_bits[i] for i in bits], full):
            continue
        seen |= _orbit(bits, tables)
        out.append(graph_from_edges(n, [pairs[i] for i in bits]))
    return tuple(out)


def random_connected_graph(n: int, rng: random.Random) -> SimplicialComplex:
    """A uniformly edge-sampled connected graph on n labelled vertices."""
    _require_size(n, 1, "a connected graph's vertex count")
    all_edges = list(combinations(range(n), 2))
    while True:
        edges = [e for e in all_edges if rng.random() < 0.5]
        G = graph_from_edges(n, edges)
        if G.n_vertices == n and G.is_connected():
            return G


@lru_cache(maxsize=None)
def connected_complexes(max_vertices: int = 5) -> tuple[SimplicialComplex, ...]:
    """All connected simplicial complexes on at most max_vertices vertices,
    up to isomorphism (canonical min-permutation form)."""
    _require_size(max_vertices, 0, "a corpus's vertex count")
    out = []
    for k in range(1, max_vertices + 1):
        # the search runs over universe, the orbit table over back; from two
        # vertices up a singleton facet is an isolated vertex, so the search
        # would find only disconnected families below it and leaves it out
        universe = [s for r in range(min(2, k), k + 1) for s in combinations(range(k), r)]
        back = sorted(universe, reverse=True)
        position = {s: i for i, s in enumerate(back)}
        bit = [1 << position[s] for s in universe]
        vmask = [sum(1 << v for v in s) for s in back]
        umask = [sum(1 << v for v in s) for s in universe]
        incomparable = [sum(1 << j for j, b in enumerate(umask) if (a & b) not in (a, b))
                        for a in umask]
        tables = _image_tables(back, list(permutations(range(k))))
        full = (1 << k) - 1
        labs = _labels(k)
        seen: set[int] = set()
        # facet families are the antichains of the universe, listed in the
        # order of a search that leaves each subset out before taking it; a
        # node is (chosen, addable): the chosen subsets as a mask over back,
        # the later subsets incomparable with all of them as one over universe
        stack = [(0, (1 << len(universe)) - 1)]
        while stack:
            mask, addable = stack.pop()
            while addable:
                low = addable & -addable
                addable ^= low
                j = low.bit_length() - 1
                stack.append((mask | bit[j], addable & incomparable[j]))
            if mask in seen:
                seen.remove(mask)
                continue
            bits = _bits(mask)
            if not _connected_cover([vmask[i] for i in bits], full):
                continue
            orbit = _orbit(bits, tables)
            seen |= orbit
            # all members of an orbit have equally many facets, so the least
            # sorted facet list holds the least facet where two differ: the
            # highest differing bit over back
            out.append(SimplicialComplex.closure(
                [[labs[v] for v in back[i]] for i in reversed(_bits(max(orbit)))]))
    return tuple(out)


@lru_cache(maxsize=None)
def connected_multigraphs(max_vertices: int = 4, max_multiplicity: int = 3) -> tuple[Multigraph, ...]:
    """All connected multigraphs with at most max_vertices vertices and at
    most max_multiplicity parallel edges per class, up to isomorphism
    (canonical min-permutation form)."""
    _require_size(max_vertices, 0, "a corpus's vertex count")
    _require_size(max_multiplicity, 0, "a corpus's edge multiplicity")
    out: list[Multigraph] = []
    mm = max_multiplicity
    for n in range(1, max_vertices + 1):
        if n == 1:
            out.append(Multigraph.from_edges([], isolated=["v0"]))
            continue
        pairs = list(combinations(range(n), 2))
        edge_bits = [1 << u | 1 << v for u, v in pairs]
        # slot e * mm + m - 1 stands for m parallel edges on pair e, and the
        # orbit table numbers slot s as top - s, so that a higher bit is an
        # earlier (pair, multiplicity); t.bit_length() - 1 is the index of
        # the image of pair e under one permutation
        top = len(pairs) * mm - 1
        tables = [[1 << top - (t.bit_length() - 1) * mm - r
                   for t in reversed(table) for r in reversed(range(mm))]
                  for table in _image_tables(pairs, list(permutations(range(n))))]
        full = (1 << n) - 1
        labs = _labels(n)
        seen: set[int] = set()
        for support in range(1 << len(pairs)):
            ids = _bits(support)
            if not _connected_cover([edge_bits[e] for e in ids], full):
                continue
            for mults in product(range(mm), repeat=len(ids)):
                bits = [top - e * mm - r for e, r in zip(ids, mults)]
                mask = sum(1 << i for i in bits)
                if mask in seen:
                    seen.remove(mask)
                    continue
                orbit = _orbit(bits, tables)
                seen |= orbit
                triples = []
                for i in reversed(_bits(max(orbit))):
                    e, r = divmod(top - i, mm)
                    u, v = pairs[e]
                    for _ in range(r + 1):
                        triples.append((f"e{len(triples)}", labs[u], labs[v]))
                out.append(Multigraph.from_edges(triples))
    return tuple(out)


def permuted_copy(K: SimplicialComplex,
                  rng: random.Random) -> tuple[SimplicialComplex, VertexBijection]:
    """A relabelled copy of K under a random permutation of its own labels,
    together with the inducing bijection K -> copy."""
    labs = list(K.labels)
    image = labs[:]
    rng.shuffle(image)
    bij = VertexBijection(dict(zip(labs, image)))
    copy = SimplicialComplex.closure(
        [bij.map_face(K.to_labels(f)) for f in K.facets()])
    return copy, bij
