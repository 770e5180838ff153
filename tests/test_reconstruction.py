"""Reconstruction machinery: quotients, graph and multigraph theorems, the
index-anomaly guard and the full complex reconstruction."""

import hashlib
import random
import time
from itertools import combinations
from typing import Iterable, Optional

import pytest

from morsecomplex import (MorseIso, Multigraph, RegularPair, SimplicialComplex,
                          VertexBijection, closure, detect_index_anomaly,
                          find_isomorphism, find_morse_isomorphism,
                          morse_complex, parallel_by_definition, parallel_pairs, quotient,
                          reconstruct_complex_iso, reconstruct_cycle,
                          reconstruct_graph_iso, reconstruct_multigraph_iso,
                          simplify)
from morsecomplex.corpus import (boundary_simplex, connected_complexes,
                                 cycle_graph, full_simplex, path_graph,
                                 permuted_copy, star_graph)
from morsecomplex.errors import (HypothesisViolationError,
                                 InvalidIsomorphismError,
                                 TheoremContradictionError)
from morsecomplex.isomorphism import (all_isomorphisms, find_multigraph_isomorphism,
                                      multigraph_edge_map)


# -- MorseIso ---------------------------------------------------------------

def test_functorial_morse_iso_roundtrip():
    K = star_graph(3)
    rng = random.Random(11)
    Kp, h = permuted_copy(K, rng)
    F = MorseIso.functorial(morse_complex(K), morse_complex(Kp), h)
    f = reconstruct_graph_iso(F)
    assert f.forward == h.forward


def test_invalid_morse_iso_rejected():
    K = path_graph(3)
    M = morse_complex(K)
    # swapping only one compatible pair of pairs breaks the structure
    p0, p1, p2, p3 = M.pairs
    mapping = {p0: p0, p1: p2, p2: p1, p3: p3}
    with pytest.raises(InvalidIsomorphismError):
        MorseIso(M, M, [M.index_of_pair(mapping[p]) for p in M.pairs])


def test_morse_iso_image_must_be_a_permutation():
    M = morse_complex(path_graph(3))
    assert MorseIso(M, M, range(4)).image == (0, 1, 2, 3)
    for image in ([0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 1, 3], [0, 0, 2, 3]):
        with pytest.raises(InvalidIsomorphismError):
            MorseIso(M, M, image)


def test_functorial_rejects_a_map_that_is_not_simplicial():
    # h sends the edge bc to xz, a non-edge of the path x-y-z, or leaves c
    # unmapped
    M = morse_complex(closure([["a", "b"], ["b", "c"]]))
    Mp = morse_complex(closure([["x", "y"], ["y", "z"]]))
    for h in ({"a": "y", "b": "x", "c": "z"}, {"a": "x", "b": "y"}):
        with pytest.raises(InvalidIsomorphismError):
            MorseIso.functorial(M, Mp, VertexBijection(h))


# -- quotient machinery -------------------------------------------------------

def test_quotient_of_two_points():
    K = closure([["a"], ["b"]])
    Q = quotient(K)
    assert Q.classes == (("a", "b"),)
    assert Q.quotient.f_vector() == (1,)
    assert Q.projection == {"a": "a", "b": "a"}


def test_quotient_identity_when_links_differ():
    K = path_graph(4)
    Q = quotient(K)
    assert all(len(c) == 1 for c in Q.classes)
    assert Q.quotient == K


def test_quotient_identifies_path_leaves():
    # the two leaves of the 3-path are non-adjacent with equal links
    Q = quotient(path_graph(3))
    assert Q.classes == (("v0", "v2"), ("v1",))
    assert Q.quotient.f_vector() == (2, 1)


def test_quotient_idempotent():
    for K in connected_complexes(4):
        Q = quotient(K)
        Q2 = quotient(Q.quotient)
        assert all(len(c) == 1 for c in Q2.classes)
        assert Q2.quotient == Q.quotient


def test_quotient_of_parallel_bundle_morse_complex():
    # the classes of the Morse complex of a multigraph are its parallel classes
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v"), ("e3", "v", "w")])
    M = morse_complex(G)
    Q = quotient(M.as_complex())
    classes_as_pairs = [tuple(M.pair_of_id(pid) for pid in cls) for cls in Q.classes]
    for cls in classes_as_pairs:
        srcs = {p.source for p in cls}
        bounds = {G.boundary[G.edge_ids.index(p.target[0])] for p in cls}
        assert len(srcs) == 1 and len(bounds) == 1
    assert len(Q.classes) == 2 * len(set(G.boundary))


def test_simplify():
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v")])
    assert simplify(G).f_vector() == (2, 1)
    H = Multigraph.from_edges([("a", "x", "y"), ("b", "y", "z")])
    assert simplify(H).f_vector() == (3, 2)
    theta = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v")])
    assert simplify(theta).f_vector() == (2, 1)


# -- parallel pairs -----------------------------------------------------------

def test_parallel_pairs_definition_and_characterization_agree():
    G = Multigraph.from_edges(
        [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "v", "w"), ("e4", "u", "w")])
    M = morse_complex(G)
    for p, q in combinations(M.pairs, 2):
        assert parallel_pairs(p, q, M) == parallel_by_definition(p, q, G)


def test_parallel_pairs_on_simple_graph_is_false():
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "v", "w"), ("e3", "u", "w")])
    M = morse_complex(G)
    for p, q in combinations(M.pairs, 2):
        assert not parallel_pairs(p, q, M)


def test_parallel_pairs_hypothesis():
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v")])
    M = morse_complex(G)
    with pytest.raises(HypothesisViolationError):
        parallel_pairs(M.pairs[0], M.pairs[1], M)


def test_parallel_pairs_check_connectivity_once(monkeypatch):
    # the multigraph is immutable, so its connectivity is computed on first
    # use; the hypothesis is still checked, and refused, on every call
    import morsecomplex.complexes as complexes
    union_find = complexes.union_find
    runs = []

    def counting_union_find(n, edges):
        runs.append(n)
        return union_find(n, edges)

    monkeypatch.setattr(complexes, "union_find", counting_union_find)
    G = Multigraph.from_edges(
        [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "v", "w"), ("e4", "u", "w")])
    M = morse_complex(G)
    for p, q in combinations(M.pairs, 2):
        assert parallel_pairs(p, q, M) == parallel_by_definition(p, q, G)
    assert runs == [3]
    apart = morse_complex(Multigraph.from_edges(
        [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "w", "x")]))
    for _ in range(3):
        with pytest.raises(HypothesisViolationError):
            parallel_pairs(apart.pairs[0], apart.pairs[1], apart)
    assert runs == [3, 4]


# -- graph reconstruction ------------------------------------------------------

def test_reconstruct_star_from_brute_forced_iso():
    S = star_graph(3)
    T = closure([["c", "x"], ["c", "y"], ["c", "z"]])
    M_S, M_T = morse_complex(S), morse_complex(T)
    F = find_morse_isomorphism(M_S, M_T)
    assert F is not None
    f = reconstruct_graph_iso(F)
    assert f.is_simplicial_isomorphism(S, T)
    assert f("v0") == "c"  # the centre must map to the centre


def test_reconstruct_path_automorphisms_swap_leaves():
    P = path_graph(3)
    M = morse_complex(P)
    autos = all_isomorphisms(M, M)
    assert len(autos) == 2
    maps = []
    for a in autos:
        F = MorseIso.from_vertex_bijection(M, M, a)
        maps.append(reconstruct_graph_iso(F).forward)
    assert {"v0": "v0", "v1": "v1", "v2": "v2"} in maps
    assert {"v0": "v2", "v1": "v1", "v2": "v0"} in maps


def test_graph_reconstruction_maps_pinned():
    # which map the graph route returns: every automorphism of M(G) for the
    # non-cycle graphs on 2-5 vertices, one relabelling of each on 6
    from morsecomplex.corpus import connected_graphs
    h = hashlib.sha256()

    def line(F):
        h.update(repr(reconstruct_graph_iso(F).items()).encode())
        h.update(b"\n")

    n_autos = 0
    for n in range(2, 6):
        for G in connected_graphs(n):
            if G.cycle_length() is None:
                M = morse_complex(G)
                for a in all_isomorphisms(M, M):
                    line(MorseIso.from_vertex_bijection(M, M, a))
                    n_autos += 1
    rng = random.Random(2015)
    n_relabelled = 0
    for G in connected_graphs(6):
        if G.cycle_length() is None:
            Gp, _ = permuted_copy(G, rng)
            line(find_morse_isomorphism(morse_complex(G), morse_complex(Gp)))
            n_relabelled += 1
    assert (n_autos, n_relabelled) == (274, 111)
    assert h.hexdigest() == (
        "e310b078d4b77c5140a98e51e40247bb177481a82b5c1da14e129a273b3b9881")


def test_reconstruct_graph_iso_rejects_cycles():
    C = cycle_graph(3)
    M = morse_complex(C)
    F = find_morse_isomorphism(M, M)
    with pytest.raises(HypothesisViolationError):
        reconstruct_graph_iso(F)


def test_reconstruct_cycle():
    assert reconstruct_cycle(cycle_graph(4), cycle_graph(4, prefix="w")) == 4
    assert reconstruct_cycle(cycle_graph(3), path_graph(3)) is None
    assert reconstruct_cycle(cycle_graph(5), cycle_graph(5)) == 5
    assert reconstruct_cycle(cycle_graph(3), cycle_graph(4)) is None
    with pytest.raises(HypothesisViolationError):
        reconstruct_cycle(path_graph(3), cycle_graph(3))

    # a connected graph with n vertices, n edges and no leaf is the n-cycle
    def by_counting(n, H):
        if H.dim > 1 or not H.is_connected():
            return None
        if H.n_vertices != n or len(H.edges()) != n:
            return None
        if any(H.degree(v) == 1 for v in range(H.n_vertices)):
            return None
        return n

    others = [*connected_complexes(4),
              closure([["a", "b"], ["c", "d"], ["d", "e"], ["c", "e"]])]
    for n in (3, 4, 5):
        C = cycle_graph(n)
        for H in others + [cycle_graph(3), cycle_graph(4), cycle_graph(5)]:
            assert reconstruct_cycle(C, H) == by_counting(n, H)


def test_reconstruct_cycle_is_linear():
    # one degree count per graph; a scan of every simplex per vertex took
    # about 5 s on a 2-vCPU machine
    C, D = cycle_graph(4000), cycle_graph(4000, prefix="w")
    start = time.process_time()
    assert reconstruct_cycle(C, D) == 4000
    assert time.process_time() - start < 1


# -- index anomaly -------------------------------------------------------------

def test_functorial_iso_has_no_anomaly():
    K = full_simplex("abc")
    rng = random.Random(5)
    Kp, h = permuted_copy(K, rng)
    F = MorseIso.functorial(morse_complex(K), morse_complex(Kp), h)
    assert detect_index_anomaly(F) is None


def test_boundary_tetrahedron_anomalous_automorphisms():
    # the Morse complex of the tetrahedron boundary has twice as many
    # automorphisms as the complex itself; the extra ones mix indices and
    # the guard must route every one of them through the boundary case
    B = boundary_simplex("abcd")
    M = morse_complex(B)
    autos = all_isomorphisms(M, M)
    assert len(autos) == 48
    anomalous = 0
    for a in autos:
        F = MorseIso.from_vertex_bijection(M, M, a)
        w = detect_index_anomaly(F)
        if w is not None:
            anomalous += 1
            assert w.pair.index == 0 and w.image.index >= 1
        f = reconstruct_complex_iso(F)
        assert f.is_simplicial_isomorphism(B, B)
    assert anomalous == 24


# -- full reconstruction --------------------------------------------------------

def test_complementation_duality_is_the_index_mixer():
    # on the boundary of a simplex, complementing both cells of a pair is a
    # Morse-complex automorphism that mixes indices; the guard must route it
    from morsecomplex.corpus import boundary_simplex as bd
    for labels in ("abcd", "abcde"):
        B = bd(labels)
        M = morse_complex(B)
        V = set(labels)
        fwd = {}
        for p in M.pairs:
            s = tuple(sorted(V - set(p.target)))
            t = tuple(sorted(V - set(p.source)))
            fwd[p] = RegularPair(s, t, len(s) - 1)
        F = MorseIso(M, M, [M.index_of_pair(fwd[p]) for p in M.pairs])
        w = detect_index_anomaly(F)
        assert w is not None and w.pair.index == 0 and w.image.index == len(labels) - 3
        f = reconstruct_complex_iso(F)
        assert f.is_simplicial_isomorphism(B, B)


def test_reconstruct_random_six_vertex_complexes():
    # beyond the exhaustive corpus scale: random relabelled 6-vertex complexes
    from morsecomplex import find_morse_isomorphism as find_mi
    from morsecomplex import is_boundary_simplex
    rng = random.Random(99)
    labs = [f"v{i}" for i in range(6)]

    def random_connected(n):
        while True:
            faces = [rng.sample(labs, rng.randint(2, 4))
                     for _ in range(rng.randint(2, 7))]
            K = SimplicialComplex.closure(faces + [[l] for l in labs])
            if K.is_connected() and K.n_vertices == n:
                return K

    for _ in range(15):
        K = random_connected(6)
        M = morse_complex(K)
        Kp, h = permuted_copy(K, rng)
        Mp = morse_complex(Kp)
        if is_boundary_simplex(K) is None and K.skeleton(1).cycle_length() is None:
            f = reconstruct_complex_iso(MorseIso.functorial(M, Mp, h))
            assert f.forward == h.forward
        F = find_mi(M, Mp)
        assert F is not None
        f2 = reconstruct_complex_iso(F)
        assert f2.is_simplicial_isomorphism(K, Kp)


def test_reconstruct_triangle_permutation():
    K = full_simplex("abc")
    rng = random.Random(2)
    Kp, h = permuted_copy(K, rng)
    F = MorseIso.functorial(morse_complex(K), morse_complex(Kp), h)
    f = reconstruct_complex_iso(F)
    assert f.is_simplicial_isomorphism(K, Kp)


def test_reconstruct_triangle_with_pendant_edge():
    K = closure([["a", "b", "c"], ["a", "d"]])
    M = morse_complex(K)
    autos = all_isomorphisms(M, M)
    assert autos
    for a in autos:
        F = MorseIso.from_vertex_bijection(M, M, a)
        f = reconstruct_complex_iso(F)
        assert f.is_simplicial_isomorphism(K, K)


def test_reconstruct_relabelled_complexes():
    rng = random.Random(17)
    for K in connected_complexes(4):
        Kp, _ = permuted_copy(K, rng)
        F = find_morse_isomorphism(morse_complex(K), morse_complex(Kp))
        assert F is not None
        f = reconstruct_complex_iso(F)
        assert f.is_simplicial_isomorphism(K, Kp)


def test_complex_reconstruction_builds_no_morse_complex(monkeypatch):
    # the vertex map is read off F's index-0 pairs: neither route builds a
    # Morse complex (of a 1-skeleton or a simplification) or a second MorseIso
    import morsecomplex.morse as morse
    import morsecomplex.reconstruction as reconstruction
    K = closure([["a", "b", "c"], ["c", "d"], ["d", "e", "f"], ["b", "f"]])
    Kp, _ = permuted_copy(K, random.Random(5))
    G = Multigraph.from_edges(
        [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v"), ("e4", "v", "w")])
    H = _relabelled_multigraph(G, random.Random(5))
    F_K = find_morse_isomorphism(morse_complex(K), morse_complex(Kp))
    F_G = find_morse_isomorphism(morse_complex(G), morse_complex(H))
    built = []

    def counting(init):
        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        return counting_init

    for cls in (morse.MorseComplex, reconstruction.MorseIso):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    f = reconstruct_complex_iso(F_K)
    assert f.is_simplicial_isomorphism(K, Kp)
    f, emap = reconstruct_multigraph_iso(F_G)
    assert emap == multigraph_edge_map(G, H, f)
    assert built == []


def test_reconstruction_maps_pinned():
    # which map each route returns, not only that it is an isomorphism
    from morsecomplex.corpus import connected_multigraphs
    h = hashlib.sha256()

    def line(x):
        h.update(repr(x).encode())
        h.update(b"\n")

    rng = random.Random(2015)
    for K in connected_complexes(5):
        Kp, g = permuted_copy(K, rng)
        M_K, M_Kp = morse_complex(K), morse_complex(Kp)
        line(reconstruct_complex_iso(find_morse_isomorphism(M_K, M_Kp)).items())
        line(reconstruct_complex_iso(find_morse_isomorphism(M_Kp, M_K)).items())
        line(reconstruct_complex_iso(MorseIso.functorial(M_K, M_Kp, g)).items())
    for G in connected_multigraphs(4, 3):
        if G.n_edges:
            H = _relabelled_multigraph(G, rng)
            f, emap = reconstruct_multigraph_iso(
                find_morse_isomorphism(morse_complex(G), morse_complex(H)))
            line((f.items(), sorted(emap.items())))
    assert h.hexdigest() == (
        "f2a37939cde513829ff0049d87212d68ec3fdfc67f10678b452248023ab2b089")


def test_multigraph_reconstruction_pinned_on_automorphisms():
    # the maps returned for up to eight automorphisms of every member, where
    # test_reconstruction_maps_pinned sees one isomorphism per member
    from morsecomplex.corpus import connected_multigraphs
    h = hashlib.sha256()
    n_maps = 0
    for G in connected_multigraphs(4, 3):
        if G.n_edges:
            M = morse_complex(G)
            for a in all_isomorphisms(M, M, limit=8):
                f, emap = reconstruct_multigraph_iso(MorseIso.from_vertex_bijection(M, M, a))
                h.update(repr((f.items(), sorted(emap.items()))).encode())
                h.update(b"\n")
                n_maps += 1
    assert n_maps == 2106
    assert h.hexdigest() == (
        "0605204d28e6a372fa721087ee18a96ee8edce20a4d0d2932d2f2406cdaf250f")


def test_induced_automorphisms_recovered_exactly():
    # every automorphism h of every member comes back exactly from the Morse
    # isomorphism it induces, the swaps of the full triangle and the
    # rotations and reflections of the cycles included
    n_maps = 0
    for K in connected_complexes(5):
        M = morse_complex(K)
        for h in all_isomorphisms(K, K):
            f = reconstruct_complex_iso(MorseIso.functorial(M, M, h))
            assert f.forward == h.forward, (K, h.forward)
            n_maps += 1
    assert n_maps == 1418


def test_reconstruct_cycle_complex():
    C = cycle_graph(4)
    D = cycle_graph(4, prefix="w")
    F = find_morse_isomorphism(morse_complex(C), morse_complex(D))
    f = reconstruct_complex_iso(F)
    assert f.is_simplicial_isomorphism(C, D)


def test_reconstruct_single_vertex_and_edge():
    for K in (full_simplex("a"), full_simplex("ab")):
        F = find_morse_isomorphism(morse_complex(K), morse_complex(K))
        f = reconstruct_complex_iso(F)
        assert f.is_simplicial_isomorphism(K, K)


def test_forced_branches_check_their_map(monkeypatch):
    # a single vertex, an anomalous automorphism of a simplex boundary and an
    # automorphism of M(C4) that no vertex map induces take the engine's least
    # isomorphism, and the full triangle takes the general route; each must
    # still check the map it returns
    B = boundary_simplex("abcd")
    M_B = morse_complex(B)
    anomalous = next(F for F in (MorseIso.from_vertex_bijection(M_B, M_B, a)
                                 for a in all_isomorphisms(M_B, M_B))
                     if detect_index_anomaly(F) is not None)
    C = cycle_graph(4)
    M_C = morse_complex(C)
    induced = [MorseIso.functorial(M_C, M_C, h).image for h in all_isomorphisms(C, C)]
    non_induced = next(F for F in (MorseIso.from_vertex_bijection(M_C, M_C, a)
                                   for a in all_isomorphisms(M_C, M_C))
                       if F.image not in induced)
    assert reconstruct_complex_iso(non_induced).forward == find_isomorphism(C, C).forward
    cases = [find_morse_isomorphism(morse_complex(K), morse_complex(K))
             for K in (full_simplex("a"), full_simplex("abc"))] + [anomalous, non_induced]
    monkeypatch.setattr(VertexBijection, "is_simplicial_isomorphism",
                        lambda self, K, L: False)
    for F in cases:
        with pytest.raises(TheoremContradictionError):
            reconstruct_complex_iso(F)


def test_formula_failure_falls_back_on_cycles_only(monkeypatch):
    # the engine replaces a failed source formula only where F may be induced
    # by no vertex map: a cycle, or a multigraph that simplifies to one
    from morsecomplex import reconstruction

    def fail(F):
        raise TheoremContradictionError("formula fails")

    def iso(X):
        return find_morse_isomorphism(morse_complex(X), morse_complex(X))

    monkeypatch.setattr(reconstruction, "_source_formula", fail)
    square = Multigraph.from_edges([("e1", "a", "b"), ("e2", "a", "b"),
                                    ("e3", "b", "c"), ("e4", "c", "d"), ("e5", "a", "d")])
    doubled_path = Multigraph.from_edges(
        [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "v", "w")])
    assert reconstruct_complex_iso(iso(cycle_graph(4))).is_simplicial_isomorphism(
        cycle_graph(4), cycle_graph(4))
    assert reconstruct_multigraph_iso(iso(square)) == find_multigraph_isomorphism(square, square)
    with pytest.raises(TheoremContradictionError, match="formula fails"):
        reconstruct_complex_iso(iso(path_graph(3)))
    with pytest.raises(TheoremContradictionError, match="formula fails"):
        reconstruct_multigraph_iso(iso(doubled_path))


def test_reconstruct_requires_connected():
    K = closure([["a"], ["b"]])
    M = morse_complex(K)
    F = find_morse_isomorphism(M, M)
    with pytest.raises(HypothesisViolationError):
        reconstruct_complex_iso(F)


# -- multigraph reconstruction ---------------------------------------------------

def test_reconstruct_theta_graph():
    G = Multigraph.from_edges(
        [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v"), ("e4", "v", "w")])
    H = Multigraph.from_edges(
        [("f1", "b", "c"), ("f2", "a", "b"), ("f3", "a", "b"), ("f4", "a", "b")])
    F = find_morse_isomorphism(morse_complex(G), morse_complex(H))
    assert F is not None
    f, emap = reconstruct_multigraph_iso(F)
    for x in G.labels:
        for y in G.labels:
            if x < y:
                assert G.multiplicity(x, y) == H.multiplicity(f(x), f(y))
    assert sorted(emap) == ["e1", "e2", "e3", "e4"]
    for e, g in emap.items():
        u1, v1 = G.endpoints(e)
        u2, v2 = H.endpoints(g)
        assert {f(u1), f(v1)} == {u2, v2}


def test_multiplicity_mismatch_has_no_morse_iso():
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v")])
    H = Multigraph.from_edges([("f1", "u", "v"), ("f2", "v", "w")])
    assert find_morse_isomorphism(morse_complex(G), morse_complex(H)) is None


def test_reconstruct_two_vertex_bundle():
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v")])
    H = Multigraph.from_edges([("f1", "x", "y"), ("f2", "x", "y")])
    F = find_morse_isomorphism(morse_complex(G), morse_complex(H))
    f, emap = reconstruct_multigraph_iso(F)
    assert f.forward == {"u": "x", "v": "y"}
    assert emap == {"e1": "f1", "e2": "f2"}


def test_reconstruct_multigraph_cycle_simplification():
    # simplification is a cycle: route through the dihedral search
    G = Multigraph.from_edges(
        [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c"), ("e4", "a", "c")])
    H = Multigraph.from_edges(
        [("f1", "p", "q"), ("f2", "q", "r"), ("f3", "q", "r"), ("f4", "p", "r")])
    F = find_morse_isomorphism(morse_complex(G), morse_complex(H))
    assert F is not None
    f, _ = reconstruct_multigraph_iso(F)
    for x in G.labels:
        for y in G.labels:
            if x < y:
                assert G.multiplicity(x, y) == H.multiplicity(f(x), f(y))


def test_counting_consequence_of_morse_isomorphism():
    # whenever the Morse complexes are isomorphic, vertex and edge counts agree
    rng = random.Random(23)
    from morsecomplex.corpus import connected_graphs
    for G in connected_graphs(5)[:8]:
        Gp, _ = permuted_copy(G, rng)
        assert find_morse_isomorphism(morse_complex(G), morse_complex(Gp)) is not None
        assert G.n_vertices == Gp.n_vertices
        assert len(G.edges()) == len(Gp.edges())


def test_simple_multigraph_degenerates_to_graph_case():
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "v", "w"), ("e3", "v", "x")])
    F = find_morse_isomorphism(morse_complex(G), morse_complex(G))
    f, emap = reconstruct_multigraph_iso(F)
    assert f.is_simplicial_isomorphism(simplify(G), simplify(G))
    assert sorted(emap) == ["e1", "e2", "e3"]


def test_reconstruct_random_five_vertex_multigraphs():
    # beyond the exhaustive corpus scale: random relabelled 5-vertex multigraphs
    rng = random.Random(7)
    labs = [f"v{i}" for i in range(5)]
    from itertools import combinations as combos
    for _ in range(10):
        while True:
            triples = []
            count = 0
            for u, v in combos(labs, 2):
                for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
                    triples.append((f"e{count}", u, v))
                    count += 1
            G = Multigraph.from_edges(triples)
            if G.n_vertices == 5 and G.is_connected():
                break
        image = labs[:]
        rng.shuffle(image)
        relabel = dict(zip(labs, image))
        H = Multigraph.from_edges(
            [(f"f{i}", relabel[u], relabel[v])
             for i, (eid, u, v) in enumerate(
                 (e, G.labels[a], G.labels[b])
                 for e, (a, b) in zip(G.edge_ids, G.boundary))])
        F = find_morse_isomorphism(morse_complex(G), morse_complex(H))
        assert F is not None
        f, emap = reconstruct_multigraph_iso(F)
        for u in G.labels:
            for v in G.labels:
                if u < v:
                    assert G.multiplicity(u, v) == H.multiplicity(f(u), f(v))
        assert sorted(emap) == sorted(G.edge_ids)


def test_morse_quotient_on_nonfaces_matches_explicit_quotient():
    # quotient() on the materialised Morse complex is the independent oracle
    from morsecomplex.corpus import connected_multigraphs
    for X in list(connected_multigraphs(4, 3)) + list(connected_complexes(4)):
        M = morse_complex(X)
        groups = {}
        for i, r in enumerate(M.quotient_map()):
            groups.setdefault(r, []).append(M.pair_ids[i])
        expected = quotient(M.as_complex()).classes
        assert tuple(sorted(tuple(g) for g in groups.values())) == expected


def _relabelled_multigraph(G, rng):
    """G under a random vertex relabelling, with renamed, reordered edges."""
    labs = list(G.labels)
    image = labs[:]
    rng.shuffle(image)
    vmap = dict(zip(labs, image))
    triples = [(f"f{e}", vmap[G.labels[u]], vmap[G.labels[v]])
               for e, (u, v) in zip(G.edge_ids, G.boundary)]
    rng.shuffle(triples)
    H = Multigraph.from_edges(triples, isolated=image)
    assert H.n_vertices == G.n_vertices
    return H


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


def _twin_route_quotient_map(M):
    # the quotient map read off twin classes: the twin classes of the minimal
    # non-faces, each pair kept apart from a twin adjacent to it
    nonfaces = list(map(frozenset, M.minimal_nonfaces()))
    twin = twin_classes(M.n_pairs, nonfaces)
    nf_set = set(nonfaces)
    return [r if frozenset((r, i)) in nf_set else i for i, r in enumerate(twin)]


def test_quotient_map_equals_the_twin_route():
    from morsecomplex.corpus import connected_multigraphs
    rng = random.Random(5)
    multigraphs = list(connected_multigraphs(4, 3))
    complexes = list(connected_complexes(5))
    relabelled = ([_relabelled_multigraph(G, rng) for G in multigraphs]
                  + [permuted_copy(K, rng)[0] for K in complexes])
    n_merged = 0
    for X in multigraphs + complexes + relabelled:
        M = morse_complex(X)
        rep = M.quotient_map()
        assert rep == _twin_route_quotient_map(M)
        n_merged += sum(r != i for i, r in enumerate(rep))
    assert n_merged


def test_quotient_of_a_large_parallel_bundle():
    # 80 parallel u-v edges and one v-w edge: the pairs at u on the bundle,
    # those at v on the bundle, and one class per pair on v-w
    bundle = [f"e{k:02d}" for k in range(80)]
    G = Multigraph.from_edges([(e, "u", "v") for e in bundle] + [("f", "v", "w")])
    M = morse_complex(G)
    classes: dict[int, set] = {}
    for i, r in enumerate(M.quotient_map()):
        classes.setdefault(r, set()).add(M.pairs[i])
    assert sorted(map(frozenset, classes.values()), key=sorted) == sorted([
        frozenset(RegularPair(("u",), (e,), 0) for e in bundle),
        frozenset(RegularPair(("v",), (e,), 0) for e in bundle),
        frozenset({RegularPair(("v",), ("f",), 0)}),
        frozenset({RegularPair(("w",), ("f",), 0)})], key=sorted)
    H = _relabelled_multigraph(G, random.Random(0))
    F = find_morse_isomorphism(M, morse_complex(H))
    f, emap = reconstruct_multigraph_iso(F)
    assert emap == multigraph_edge_map(G, H, f)
    for u, v in combinations(G.labels, 2):
        assert G.multiplicity(u, v) == H.multiplicity(f(u), f(v))


def test_reconstruct_most_symmetric_relabelled_multigraphs():
    # the members with the most edges have the largest parallel classes, whose
    # interchangeable pairs made the unpruned search take seconds per member
    from morsecomplex.corpus import connected_multigraphs
    rng = random.Random(31)
    corpus = sorted(connected_multigraphs(4, 3), key=lambda G: -G.n_edges)[:10]
    for G in corpus:
        H = _relabelled_multigraph(G, rng)
        F = find_morse_isomorphism(morse_complex(G), morse_complex(H))
        assert F is not None
        f, emap = reconstruct_multigraph_iso(F)
        for u, v in combinations(G.labels, 2):
            assert G.multiplicity(u, v) == H.multiplicity(f(u), f(v))
        for e, g in emap.items():
            assert {f(x) for x in G.endpoints(e)} == set(H.endpoints(g))


def test_theorem_checks_are_not_asserts():
    # python -O strips assert statements; checks must raise instead
    import ast
    import importlib
    import inspect
    import pkgutil
    import morsecomplex
    names = [info.name for info in pkgutil.iter_modules(morsecomplex.__path__)]
    assert {"complexes", "corpus", "forests", "invariants", "isomorphism"} <= set(names)
    for name in names:
        module = importlib.import_module(f"morsecomplex.{name}")
        tree = ast.parse(inspect.getsource(module))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], name


def test_verify_checks_survive_python_O():
    # with one facet dropped from every listing, the power-set cross-check
    # must still fail when the interpreter strips assert statements
    import os
    import subprocess
    import sys

    import morsecomplex
    script = (
        "from morsecomplex import morse, verify\n"
        "listing = morse.MorseComplex.facets\n"
        "morse.MorseComplex.facets = lambda self: listing(self)[1:]\n"
        "r = verify.criterion_oracle(6, 3)\n"
        "print(__debug__, r.passed)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(morsecomplex.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"
