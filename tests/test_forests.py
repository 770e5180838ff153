"""Directed forest complexes and the identity with graph Morse complexes."""

import hashlib

import pytest

from morsecomplex import Budget, morse_complex
from morsecomplex.corpus import (complete_graph, connected_graphs, cycle_graph,
                                 path_graph, star_graph)
from morsecomplex.errors import EnumerationBudgetError
from morsecomplex.forests import (DirectedGraph, arrow_name, directed_forest_complex,
                                  double, forest_identity_holds, morse_arrow_labels)


def test_single_arc():
    D = DirectedGraph.from_arcs([("a", "u", "v")])
    C = directed_forest_complex(D)
    assert C.f_vector() == (1,)


def test_two_cycle_excluded():
    D = DirectedGraph.from_arcs([("f", "u", "v"), ("g", "v", "u")])
    C = directed_forest_complex(D)
    assert C.f_vector() == (2,)  # two vertices, no edge


def test_shared_tail_excluded():
    D = DirectedGraph.from_arcs([("f", "u", "v"), ("g", "u", "w")])
    C = directed_forest_complex(D)
    assert C.f_vector() == (2,)


def test_shared_head_allowed():
    D = DirectedGraph.from_arcs([("f", "v", "u"), ("g", "w", "u")])
    C = directed_forest_complex(D)
    assert C.f_vector() == (2, 1)


def test_double_of_path():
    D = double(path_graph(3))
    assert D.n_arcs == 4
    assert set(D.arc_names) == {"v0>v1", "v1>v0", "v1>v2", "v2>v1"}


def test_identity_on_triangle():
    G = cycle_graph(3)
    M = morse_complex(G)
    lhs = M.as_complex(labels=morse_arrow_labels(M))
    rhs = directed_forest_complex(double(G))
    assert lhs == rhs


def test_identity_on_path():
    G = path_graph(3)
    assert forest_identity_holds(G, morse_complex(G))


def test_identity_on_assorted_graphs():
    for G in (star_graph(3), complete_graph(4), cycle_graph(5)):
        assert forest_identity_holds(G, morse_complex(G))
    for G in connected_graphs(4):
        assert forest_identity_holds(G, morse_complex(G))


def test_arrow_name():
    assert arrow_name("u", "v") == "u>v"


def test_forest_complexes_of_doubles_pinned():
    h = hashlib.sha256()
    for G in connected_graphs(5):
        F = directed_forest_complex(double(G))
        h.update(repr((F.labels, sorted(F.simplices))).encode())
    assert h.hexdigest() == (
        "e59eff50615ab2c2287e0051aa263b3ec5f0b17ea82624524453bd785370e514")


def test_forest_complex_time_budget_error():
    # the double of K7 has 262,143 forests, so the listing reaches a
    # deadline check and must stop on the expired budget
    with pytest.raises(EnumerationBudgetError, match="directed forests"):
        directed_forest_complex(double(complete_graph(7)), Budget(max_seconds=0))
