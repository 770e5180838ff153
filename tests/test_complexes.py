"""Core complex and multigraph representation tests."""

import types

import pytest

import morsecomplex
from morsecomplex import (Multigraph, SimplicialComplex, VertexBijection,
                          closure, immediate_faces, is_boundary_simplex)
from morsecomplex.corpus import (boundary_simplex, complete_graph,
                                 connected_complexes, cycle_graph, full_simplex,
                                 path_graph)
from morsecomplex.errors import MalformedInputError, NotAFaceError


def test_closure_of_triangle():
    K = closure([["a", "b", "c"]])
    assert sorted(K.label_simplices()) == [
        ("a",), ("a", "b"), ("a", "b", "c"), ("a", "c"),
        ("b",), ("b", "c"), ("c",)]


def test_closure_single_vertex():
    K = closure([["a"]])
    assert K.label_simplices() == [("a",)]
    assert K.dim == 0


def test_closure_of_cycle_edges_is_triangle_boundary():
    K = closure([["a", "b"], ["b", "c"], ["a", "c"]])
    assert len(K.simplices) == 6
    assert K == boundary_simplex("abc")


def test_closure_rejects_duplicate_vertex():
    with pytest.raises(MalformedInputError):
        closure([["a", "a", "b"]])


def test_closure_idempotent():
    for K in connected_complexes(4):
        again = SimplicialComplex.closure(K.label_simplices())
        assert again == K


def test_skeleton_of_triangle():
    K = full_simplex("abc")
    S = K.skeleton(1)
    assert S.f_vector() == (3, 3)
    assert K.skeleton(0).f_vector() == (3,)
    assert K.skeleton(5) == K


def test_skeleton_of_boundary_tetrahedron_is_k4():
    S = boundary_simplex("abcd").skeleton(1)
    from morsecomplex import find_isomorphism
    assert find_isomorphism(S, complete_graph(4)) is not None
    assert S.f_vector() == (4, 6)


def test_link_examples():
    K = full_simplex("abc")
    L = K.link(["a"])
    assert L.label_simplices() == [("b",), ("b", "c"), ("c",)]
    assert boundary_simplex("abc").link(["a", "b"]).simplices == frozenset()
    for n in (3, 4, 6):
        Cn = cycle_graph(n)
        lk = Cn.link(["v0"])
        assert lk.f_vector() == (2,)


def test_link_is_face_closed():
    for K in connected_complexes(4):
        for s in K.simplices:
            lk = K.link(K.to_labels(s))
            for t in lk.simplices:
                for f in immediate_faces(t):
                    assert f in lk.simplices


def test_link_requires_a_face():
    with pytest.raises(NotAFaceError):
        closure([["a", "b"], ["b", "c"]]).link(["a", "c"])


def test_immediate_faces():
    assert immediate_faces(("a", "b", "c")) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert immediate_faces(("a", "b")) == [("a",), ("b",)]
    assert immediate_faces(("a",)) == []
    assert len(immediate_faces(("a", "b", "c", "d"))) == 4


def test_immediate_faces_count_property():
    for K in connected_complexes(4):
        for s in K.simplices:
            assert len(immediate_faces(s)) == (len(s) - 1 + 1 if len(s) > 1 else 0)


def test_connectivity():
    assert full_simplex("abcde").is_connected()
    assert cycle_graph(5).is_connected()
    assert not closure([["a"], ["b"]]).is_connected()
    assert not SimplicialComplex((), frozenset()).is_connected()
    assert closure([["a"]]).is_connected()


def test_multigraph_connectivity():
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v")])
    assert G.is_connected()
    H = Multigraph.from_edges([("e1", "u", "v")], isolated=["w"])
    assert not H.is_connected()


def test_multigraph_rejects_loops_and_duplicate_ids():
    with pytest.raises(MalformedInputError):
        Multigraph.from_edges([("e1", "u", "u")])
    with pytest.raises(MalformedInputError):
        Multigraph.from_edges([("e1", "u", "v"), ("e1", "v", "w")])


def test_multigraph_parallel_classes():
    G = Multigraph.from_edges([("a", "u", "v"), ("b", "v", "u"), ("c", "v", "w")])
    assert G.edges_between("u", "v") == ("a", "b")
    assert G.multiplicity("v", "w") == 1
    assert G.degree("v") == 3
    assert not G.is_simple()


def test_is_boundary_simplex():
    assert is_boundary_simplex(boundary_simplex("abcd")) == 3
    assert is_boundary_simplex(cycle_graph(3)) == 2
    assert is_boundary_simplex(full_simplex("abc")) is None
    assert is_boundary_simplex(closure([["a"], ["b"]])) == 1
    assert is_boundary_simplex(path_graph(3)) is None
    assert is_boundary_simplex(closure([["a"]])) is None


def test_cycle_length():
    assert cycle_graph(4).cycle_length() == 4
    assert path_graph(4).cycle_length() is None
    assert full_simplex("abc").cycle_length() is None
    assert full_simplex("abc").skeleton(1).cycle_length() == 3


def test_vertex_bijection_checks():
    K = path_graph(3)
    ident = VertexBijection({lab: lab for lab in K.labels})
    assert ident.is_simplicial_isomorphism(K, K)
    swap = VertexBijection({"v0": "v2", "v1": "v1", "v2": "v0"})
    assert swap.is_simplicial_isomorphism(K, K)
    bad = VertexBijection({"v0": "v1", "v1": "v0", "v2": "v2"})
    assert not bad.is_simplicial_isomorphism(K, K)
    with pytest.raises(MalformedInputError):
        VertexBijection({"a": "x", "b": "x"})


def test_constructors_reject_malformed_tables():
    with pytest.raises(MalformedInputError):
        SimplicialComplex(("b", "a"), frozenset({(0,), (1,)}))
    with pytest.raises(MalformedInputError):
        SimplicialComplex(("a", "b"), frozenset({(0,)}))
    with pytest.raises(MalformedInputError):
        SimplicialComplex(("a",), frozenset())
    with pytest.raises(MalformedInputError):
        Multigraph(("a", "b"), ("e1",), ((1, 0),))
    with pytest.raises(MalformedInputError):
        Multigraph(("a", "b"), ("e1", "e2"), ((0, 1),))


def test_public_names_resolve_and_are_not_modules():
    assert len(set(morsecomplex.__all__)) == len(morsecomplex.__all__)
    for name in morsecomplex.__all__:
        assert not isinstance(getattr(morsecomplex, name), types.ModuleType), name
