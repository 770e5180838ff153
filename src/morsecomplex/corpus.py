"""Desk-scale test corpora: standard complexes and exhaustive generation of
small connected graphs, simplicial complexes and multigraphs up to
isomorphism, plus seeded random variants.

Exhaustive generators enumerate labelled objects, each an int bitmask over a
fixed universe (subsets of the vertices, vertex pairs, or (pair,
multiplicity) slots), and deduplicate with an orbit table: every vertex
permutation is precomputed once as an index map on the universe, the first
labelled member of a class adds its whole orbit to the table, and every
later member costs one lookup (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  Complexes and multigraphs are emitted in
canonical min-permutation form, computed for first members only.  All
randomness flows through an explicit random.Random, so runs are
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


def path_graph(n: int, prefix: str = "v") -> SimplicialComplex:
    if n < 1:
        raise MalformedInputError("a path graph needs at least 1 vertex")
    labs = _labels(n, prefix)
    if n == 1:
        return SimplicialComplex.closure([labs])
    return SimplicialComplex.closure([[labs[i], labs[i + 1]] for i in range(n - 1)])


def star_graph(leaves: int, prefix: str = "v") -> SimplicialComplex:
    labs = _labels(leaves + 1, prefix)
    return SimplicialComplex.closure([[labs[0], labs[i]] for i in range(1, leaves + 1)])


def complete_graph(n: int, prefix: str = "v") -> SimplicialComplex:
    labs = _labels(n, prefix)
    if n == 1:
        return SimplicialComplex.closure([labs])
    return SimplicialComplex.closure([[a, b] for a, b in combinations(labs, 2)])


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]], prefix: str = "v") -> SimplicialComplex:
    labs = _labels(n, prefix)
    faces = [[lab] for lab in labs]
    faces += [[labs[u], labs[v]] for u, v in edges]
    return SimplicialComplex.closure(faces)


def _index_maps(items: list[tuple[int, ...]],
                perms: list[tuple[int, ...]]) -> list[list[int]]:
    """Each vertex permutation as a map on positions in items, a list of
    sorted vertex tuples closed under relabelling."""
    index = {s: i for i, s in enumerate(items)}
    return [[index[tuple(sorted(p[v] for v in s))] for s in items] for p in perms]


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _orbit(bits: list[int], maps: list[list[int]]) -> set[int]:
    """The images, as bitmasks, of the object with the given bit positions
    under every index map."""
    return {sum(1 << m[i] for i in bits) for m in maps}


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


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[SimplicialComplex, ...]:
    """All connected simple graphs on n vertices, up to isomorphism: the
    first labelled member of each class in edge-mask order.

    Each class's orbit goes into the table once, so every later member costs
    one lookup; the n! permutations make this practical for n <= 6.
    """
    if n == 1:
        return (path_graph(1),)
    pairs = list(combinations(range(n), 2))
    edge_bits = [1 << u | 1 << v for u, v in pairs]
    maps = _index_maps(pairs, list(permutations(range(n))))
    full = (1 << n) - 1
    seen: set[int] = set()
    out: list[SimplicialComplex] = []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        bits = _bits(mask)
        if not _connected_cover([edge_bits[i] for i in bits], full):
            continue
        seen |= _orbit(bits, maps)
        out.append(graph_from_edges(n, [pairs[i] for i in bits]))
    return tuple(out)


def random_connected_graph(n: int, rng: random.Random) -> SimplicialComplex:
    """A uniformly edge-sampled connected graph on n labelled vertices."""
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
    out = []
    for k in range(1, max_vertices + 1):
        universe = [s for r in range(1, k + 1) for s in combinations(range(k), r)]
        vmask = [sum(1 << v for v in s) for s in universe]
        comparable = [sum(1 << j for j, b in enumerate(vmask) if (a & b) in (a, b))
                      for a in vmask]
        perms = list(permutations(range(k)))
        maps = _index_maps(universe, perms)
        full = (1 << k) - 1
        labs = _labels(k)
        seen: set[int] = set()
        # facet families are the antichains of the universe, listed in the
        # order of a search that leaves each subset out before taking it
        stack = [(0, 0)]
        while stack:
            mask, start = stack.pop()
            stack.extend((mask | 1 << j, j + 1) for j in range(start, len(universe))
                         if not mask & comparable[j])
            if mask in seen:
                continue
            bits = _bits(mask)
            if not _connected_cover([vmask[i] for i in bits], full):
                continue
            seen |= _orbit(bits, maps)
            chosen = [universe[i] for i in bits]
            canon = min(tuple(sorted(tuple(sorted(p[v] for v in fs)) for fs in chosen))
                        for p in perms)
            out.append(SimplicialComplex.closure(
                [[labs[v] for v in fs] for fs in canon]))
    return tuple(out)


@lru_cache(maxsize=None)
def connected_multigraphs(max_vertices: int = 4, max_multiplicity: int = 3) -> tuple[Multigraph, ...]:
    """All connected multigraphs with at most max_vertices vertices and at
    most max_multiplicity parallel edges per class, up to isomorphism."""
    out: list[Multigraph] = []
    mm = max_multiplicity
    for n in range(1, max_vertices + 1):
        if n == 1:
            out.append(Multigraph.from_edges([], isolated=["v0"]))
            continue
        pairs = list(combinations(range(n), 2))
        edge_bits = [1 << u | 1 << v for u, v in pairs]
        perms = list(permutations(range(n)))
        # slot e * mm + m - 1 stands for m parallel edges on pair e
        maps = [[e * mm + r for e in m for r in range(mm)]
                for m in _index_maps(pairs, perms)]
        full = (1 << n) - 1
        labs = _labels(n)
        seen: set[int] = set()
        for support in range(1 << len(pairs)):
            ids = _bits(support)
            if not _connected_cover([edge_bits[e] for e in ids], full):
                continue
            edges = [pairs[e] for e in ids]
            for mults in product(range(1, mm + 1), repeat=len(ids)):
                bits = [e * mm + m - 1 for e, m in zip(ids, mults)]
                if sum(1 << i for i in bits) in seen:
                    continue
                seen |= _orbit(bits, maps)
                canon = min(
                    tuple(sorted((tuple(sorted((p[u], p[v]))), m)
                                 for (u, v), m in zip(edges, mults)))
                    for p in perms)
                triples = []
                for (u, v), m in canon:
                    for _ in range(m):
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
