"""Exhaustive corpora: pinned contents, known counts and an independent
cross-check by the isomorphism search."""

import hashlib
from itertools import combinations

import pytest

from morsecomplex import find_isomorphism
from morsecomplex.corpus import (boundary_simplex, connected_complexes,
                                 connected_graphs, connected_multigraphs,
                                 cycle_graph, graph_from_edges, path_graph)
from morsecomplex.errors import MalformedInputError


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def complex_lines(corpus):
    return [repr((K.labels, K.label_facets())) for K in corpus]


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
