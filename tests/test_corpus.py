"""Exhaustive corpora: pinned contents, known counts and an independent
cross-check by the isomorphism search."""

import hashlib
import random
from itertools import combinations, permutations, product

import pytest

from morsecomplex import Multigraph, SimplicialComplex, find_isomorphism
from morsecomplex.corpus import (boundary_simplex, connected_complexes,
                                 connected_graphs, connected_multigraphs,
                                 cycle_graph, graph_from_edges, path_graph,
                                 random_connected_graph)
from morsecomplex.errors import MalformedInputError


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def complex_lines(corpus):
    return [repr((K.labels, K.label_facets())) for K in corpus]


def multigraph_lines(corpus):
    return [repr((G.labels, G.edge_ids, G.boundary)) for G in corpus]


def test_connected_complexes_pinned():
    corpus = connected_complexes(5)
    assert len(corpus) == 176
    assert digest(complex_lines(corpus)) == (
        "e7482886eb6645ee19ee60bd49029d792b2b3a8e0fab333b4785707e60b36166")


def test_connected_multigraphs_pinned():
    corpus = connected_multigraphs(4, 3)
    assert len(corpus) == 270
    assert digest(repr((G.labels, G.edge_ids, G.boundary)) for G in corpus) == (
        "d65f6eeb1902b0f62cb0e62f29f232c1a756c7e111fa779233d362b4bb271cdb")


GRAPH_DIGESTS = {
    1: "13d00c035c5da9bd70bd23cb817625ec905d82aec62905f39d5717dd0444c3ec",
    2: "89af0f57494d5fb35b3eac01898ed6b436e5be1d6dc6e0ca377e877e49a0adb9",
    3: "c3d27c1a7a221fcc6cda2e157aaaf04b9e3e45c018abbd1a9aae0e1ef6f9d672",
    4: "2e3ec8ea1026cfef3a76b0a3abfa7886801eaa558a0310e4e085bbfaaed601c2",
    5: "705486037f405b3bde00d8a3f3bae4384971695c45dbaf7f61876ee75cbefc0f",
    6: "6e188b9afb9e67c8ac08fcc28d6e0593c288292198d6dfc8717245aa241787d5",
}


def test_connected_graphs_pinned_and_counted():
    # OEIS A001349: connected graphs on n unlabelled vertices
    counts = [len(connected_graphs(n)) for n in range(1, 7)]
    assert counts == [1, 1, 2, 6, 21, 112]
    for n, expected in GRAPH_DIGESTS.items():
        assert digest(complex_lines(connected_graphs(n))) == expected


def test_connected_graphs_against_the_search():
    # the search, not the orbit table, decides: members are pairwise
    # non-isomorphic and every labelled connected graph matches exactly one
    members = connected_graphs(5)
    for G, H in combinations(members, 2):
        assert find_isomorphism(G, H) is None
    all_edges = list(combinations(range(5), 2))
    n_labelled = 0
    for mask in range(1 << len(all_edges)):
        G = graph_from_edges(5, [e for i, e in enumerate(all_edges) if mask >> i & 1])
        if not G.is_connected():
            continue
        n_labelled += 1
        matches = [H for H in members if find_isomorphism(G, H) is not None]
        assert len(matches) == 1
    assert n_labelled == 728  # OEIS A001187


def test_generators_reject_bad_sizes():
    with pytest.raises(MalformedInputError):
        boundary_simplex(["a"])
    with pytest.raises(MalformedInputError):
        cycle_graph(2)
    with pytest.raises(MalformedInputError):
        path_graph(0)
    # no connected graph has 0 vertices, so a draw could never succeed
    for n in (0, -1):
        with pytest.raises(MalformedInputError):
            random_connected_graph(n, random.Random(0))
    for call in (lambda: connected_graphs(-1), lambda: connected_complexes(-1),
                 lambda: connected_multigraphs(-1), lambda: connected_multigraphs(3, -1)):
        with pytest.raises(MalformedInputError):
            call()
    assert connected_graphs(0) == connected_complexes(0) == connected_multigraphs(0) == ()


# The generators as first written, kept as an oracle: a search that scans
# every later subset, orbits as sums of shifts over index maps, and the
# canonical form as a minimum over all permutations.

def _index_maps(items, perms):
    index = {s: i for i, s in enumerate(items)}
    return [[index[tuple(sorted(p[v] for v in s))] for s in items] for p in perms]


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _orbit(bits, maps):
    return {sum(1 << m[i] for i in bits) for m in maps}


def _connected(parts, full):
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


def oracle_complexes(max_vertices):
    out = []
    for k in range(1, max_vertices + 1):
        universe = [s for r in range(1, k + 1) for s in combinations(range(k), r)]
        vmask = [sum(1 << v for v in s) for s in universe]
        comparable = [sum(1 << j for j, b in enumerate(vmask) if (a & b) in (a, b))
                      for a in vmask]
        perms = list(permutations(range(k)))
        maps = _index_maps(universe, perms)
        labs = [f"v{i}" for i in range(k)]
        seen = set()
        stack = [(0, 0)]
        while stack:
            mask, start = stack.pop()
            stack.extend((mask | 1 << j, j + 1) for j in range(start, len(universe))
                         if not mask & comparable[j])
            if mask in seen:
                continue
            bits = _bits(mask)
            if not _connected([vmask[i] for i in bits], (1 << k) - 1):
                continue
            seen |= _orbit(bits, maps)
            chosen = [universe[i] for i in bits]
            canon = min(tuple(sorted(tuple(sorted(p[v] for v in fs)) for fs in chosen))
                        for p in perms)
            out.append(SimplicialComplex.closure([[labs[v] for v in fs] for fs in canon]))
    return out


def oracle_multigraphs(max_vertices, mm):
    out = []
    for n in range(1, max_vertices + 1):
        if n == 1:
            out.append(Multigraph.from_edges([], isolated=["v0"]))
            continue
        pairs = list(combinations(range(n), 2))
        edge_bits = [1 << u | 1 << v for u, v in pairs]
        perms = list(permutations(range(n)))
        maps = [[e * mm + r for e in m for r in range(mm)]
                for m in _index_maps(pairs, perms)]
        labs = [f"v{i}" for i in range(n)]
        seen = set()
        for support in range(1 << len(pairs)):
            ids = _bits(support)
            if not _connected([edge_bits[e] for e in ids], (1 << n) - 1):
                continue
            edges = [pairs[e] for e in ids]
            for mults in product(range(1, mm + 1), repeat=len(ids)):
                bits = [e * mm + m - 1 for e, m in zip(ids, mults)]
                if sum(1 << i for i in bits) in seen:
                    continue
                seen |= _orbit(bits, maps)
                canon = min(tuple(sorted((tuple(sorted((p[u], p[v]))), m)
                                         for (u, v), m in zip(edges, mults)))
                            for p in perms)
                triples = []
                for (u, v), m in canon:
                    for _ in range(m):
                        triples.append((f"e{len(triples)}", labs[u], labs[v]))
                out.append(Multigraph.from_edges(triples))
    return out



def test_generators_match_the_oracle():
    # parameters no pin covers: the same members, in the same order and form
    assert complex_lines(connected_complexes(4)) == complex_lines(oracle_complexes(4))
    for n, mm in ((3, 4), (4, 2)):
        assert multigraph_lines(connected_multigraphs(n, mm)) == (
            multigraph_lines(oracle_multigraphs(n, mm)))
