"""Desk-scale test corpora: standard complexes and exhaustive generation of
small connected graphs, simplicial complexes and multigraphs up to
isomorphism, plus seeded random variants.

Exhaustive generators enumerate labelled objects and deduplicate with
canonical forms (small vertex counts) or invariant buckets refined by the
exact isomorphism search (graphs on 6 vertices).  All randomness flows
through an explicit random.Random, so runs are reproducible from a seed.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable

from .complexes import Multigraph, SimplicialComplex, VertexBijection
from .isomorphism import find_isomorphism


def _labels(n: int, prefix: str = "v") -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def full_simplex(labels: Iterable[str]) -> SimplicialComplex:
    """The full simplex on the given vertices."""
    return SimplicialComplex.closure([list(labels)])


def boundary_simplex(labels: Iterable[str]) -> SimplicialComplex:
    """The boundary of the simplex on the given vertices."""
    labels = list(labels)
    assert len(labels) >= 2
    return SimplicialComplex.closure([labels[:i] + labels[i + 1:] for i in range(len(labels))])


def cycle_graph(n: int, prefix: str = "v") -> SimplicialComplex:
    assert n >= 3
    labs = _labels(n, prefix)
    return SimplicialComplex.closure([[labs[i], labs[(i + 1) % n]] for i in range(n)])


def path_graph(n: int, prefix: str = "v") -> SimplicialComplex:
    assert n >= 1
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


def _connected_edge_sets(n: int):
    """All connected labelled graphs on n vertices, as edge index sets."""
    all_edges = list(combinations(range(n), 2))
    m = len(all_edges)
    for mask in range(1 << m):
        edges = [all_edges[i] for i in range(m) if (mask >> i) & 1]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            a, b = find(u), find(v)
            if a != b:
                parent[a] = b
        if len({find(v) for v in range(n)}) == 1:
            yield edges


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[SimplicialComplex, ...]:
    """All connected simple graphs on n vertices, up to isomorphism.

    Deduplication buckets labelled graphs by degree-based invariants and
    settles collisions with the exact search; practical for n <= 6.
    """
    if n == 1:
        return (path_graph(1),)
    out: list[SimplicialComplex] = []
    buckets: dict[tuple, list[int]] = {}
    for edges in _connected_edge_sets(n):
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        degs = sorted(len(a) for a in adj)
        nbr = sorted(tuple(sorted(len(adj[w]) for w in adj[v])) for v in range(n))
        tris = sum(1 for a, b, c in combinations(range(n), 3)
                   if b in adj[a] and c in adj[a] and c in adj[b])
        key = (len(edges), tuple(degs), tuple(nbr), tris)
        G = graph_from_edges(n, edges)
        known = False
        for idx in buckets.get(key, ()):
            if find_isomorphism(G, out[idx]) is not None:
                known = True
                break
        if not known:
            buckets.setdefault(key, []).append(len(out))
            out.append(G)
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
        universe = [frozenset(c) for r in range(1, k + 1)
                    for c in combinations(range(k), r)]
        universe.sort(key=lambda s: (len(s), sorted(s)))
        perms = list(permutations(range(k)))
        seen = set()
        chosen: list[frozenset] = []

        def emit():
            used = set().union(*chosen) if chosen else set()
            if len(used) != k:
                return
            parent = list(range(k))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for fs in chosen:
                members = sorted(fs)
                for b in members[1:]:
                    ra, rb = find(members[0]), find(b)
                    if ra != rb:
                        parent[ra] = rb
            if len({find(v) for v in range(k)}) != 1:
                return
            canon = min(tuple(sorted(tuple(sorted(p[v] for v in fs)) for fs in chosen))
                        for p in perms)
            if canon not in seen:
                seen.add(canon)
                labs = _labels(k)
                out.append(SimplicialComplex.closure(
                    [[labs[v] for v in fs] for fs in canon]))

        def rec(i: int):
            if i == len(universe):
                emit()
                return
            rec(i + 1)
            s = universe[i]
            if all(not (s <= t or t <= s) for t in chosen):
                chosen.append(s)
                rec(i + 1)
                chosen.pop()

        rec(0)
    return tuple(out)


@lru_cache(maxsize=None)
def connected_multigraphs(max_vertices: int = 4, max_multiplicity: int = 3) -> tuple[Multigraph, ...]:
    """All connected multigraphs with at most max_vertices vertices and at
    most max_multiplicity parallel edges per class, up to isomorphism."""
    out: list[Multigraph] = []
    for n in range(1, max_vertices + 1):
        perms = list(permutations(range(n)))
        seen = set()
        if n == 1:
            out.append(Multigraph.from_edges([], isolated=["v0"]))
            continue
        for edges in _connected_edge_sets(n):
            for mults in product(range(1, max_multiplicity + 1), repeat=len(edges)):
                matrix = {}
                for (u, v), m in zip(edges, mults):
                    matrix[(u, v)] = m
                canon = min(
                    tuple(sorted((tuple(sorted((p[u], p[v]))), m)
                                 for (u, v), m in matrix.items()))
                    for p in perms)
                if canon in seen:
                    continue
                seen.add(canon)
                labs = _labels(n)
                triples = []
                count = 0
                for (u, v), m in canon:
                    for _ in range(m):
                        triples.append((f"e{count}", labs[u], labs[v]))
                        count += 1
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
