"""Invariant computations: f-vectors, Euler characteristic, mod-2 Betti
numbers and greedy collapsing."""

import hashlib

import pytest

from morsecomplex import betti_mod2, greedy_collapse, invariants, morse_complex
from morsecomplex.corpus import (boundary_simplex, connected_complexes,
                                 connected_graphs, cycle_graph, full_simplex,
                                 path_graph)
from morsecomplex.errors import MalformedInputError, TheoremContradictionError
from morsecomplex.morse import HasseDiagram
from morsecomplex import SimplicialComplex


def test_full_simplex_invariants():
    for labels in ("ab", "abc", "abcd"):
        rep = invariants(full_simplex(labels))
        assert rep.euler == 1
        assert rep.betti_mod2 == (1,) + (0,) * (len(labels) - 1)
        assert rep.components == 1
        assert rep.collapsible


def test_sphere_betti():
    rep = invariants(boundary_simplex("abcd"))
    assert rep.euler == 2
    assert rep.betti_mod2 == (1, 0, 1)
    assert not rep.collapsible
    circ = invariants(cycle_graph(5))
    assert circ.euler == 0
    assert circ.betti_mod2 == (1, 1)


def test_graph_first_betti_is_cycle_rank():
    # for a connected graph, b1 = |E| - |V| + 1
    for K in connected_complexes(4):
        if K.dim != 1:
            continue
        rep = invariants(K)
        assert rep.betti_mod2[0] == 1
        expected = len(K.edges()) - K.n_vertices + 1
        assert rep.betti_mod2[1] == expected


def test_euler_consistency_on_corpus():
    for K in connected_complexes(4):
        rep = invariants(K)
        from_f = sum((-1) ** k * c for k, c in enumerate(rep.f_vector))
        from_b = sum((-1) ** k * b for k, b in enumerate(rep.betti_mod2))
        assert rep.euler == from_f == from_b


def test_greedy_collapse_trees():
    for T in (path_graph(2), path_graph(5)):
        seq = greedy_collapse(T)
        assert seq is not None
        assert len(seq) == (len(T.simplices) - 1) // 2


def test_greedy_collapse_point():
    assert greedy_collapse(full_simplex("a")) == []


def test_greedy_collapse_fails_on_cycle():
    assert greedy_collapse(cycle_graph(3)) is None


def test_collapse_implies_trivial_betti():
    for K in connected_complexes(4):
        if greedy_collapse(K) is not None:
            assert betti_mod2(K) == (1,) + (0,) * K.dim


def test_morse_complex_of_triangle_wedge_data():
    rep = invariants(morse_complex(full_simplex("abc")).as_complex())
    assert rep.euler == -3
    assert rep.betti_mod2 == (1, 4, 0)
    rep1 = invariants(morse_complex(full_simplex("ab")).as_complex())
    assert rep1.components == 2
    assert rep1.euler == 2
    assert rep1.betti_mod2 == (2,)


def test_inflated_boundary_ranks_raise(monkeypatch):
    # b_0 is checked against union-find, and every b_k against zero
    ranks = HasseDiagram.boundary_ranks
    triangle = full_simplex("abc")
    for inflate in ({1: 1}, {2: 1}):
        monkeypatch.setattr(HasseDiagram, "boundary_ranks", lambda self: {
            k: r + inflate.get(k, 0) for k, r in ranks(self).items()})
        with pytest.raises(TheoremContradictionError):
            invariants(triangle)


def test_empty_complex_rejected():
    with pytest.raises(MalformedInputError):
        invariants(SimplicialComplex((), frozenset()))


def test_collapses_and_betti_numbers_pinned(grid_facets):
    # greedy collapse sequences and mod-2 Betti numbers, pinned before the
    # invariants moved onto the Hasse diagram
    complexes = list(connected_complexes(5))
    assert len(complexes) == 176
    graphs = [G for n in range(2, 7) for G in connected_graphs(n)]
    assert len(graphs) == 142
    grid = SimplicialComplex.closure(grid_facets(20))
    assert grid.n_vertices == 441
    others = [morse_complex(full_simplex("abc")).as_complex(),
              morse_complex(full_simplex("ab")).as_complex(),
              full_simplex("abcdefgh"), boundary_simplex("abcdefg"), grid]
    h = hashlib.sha256()
    for K in complexes + graphs + others:
        seq = greedy_collapse(K)
        h.update(repr((seq, betti_mod2(K))).encode() + b"\n")
    assert len(seq) == 1240  # the grid's, last in the list
    assert h.hexdigest() == (
        "f11041bd5313376e852b7676715c9e7495f8a12a070361a82fcf578a146ee58b")


def test_betti_numbers_of_surfaces():
    # the 6-vertex RP^2: mod-2 and rational Betti numbers differ
    rp2 = SimplicialComplex.closure(
        ["123", "134", "145", "156", "162", "235", "346", "452", "563", "624"])
    assert betti_mod2(rp2) == (1, 1, 1)
    assert greedy_collapse(rp2) is None
    # the 7-vertex torus
    torus = SimplicialComplex.closure(
        [[str(i), str((i + 1) % 7), str((i + 3) % 7)] for i in range(7)]
        + [[str(i), str((i + 2) % 7), str((i + 3) % 7)] for i in range(7)])
    assert betti_mod2(torus) == (1, 2, 1)
