"""Reconstruction machinery: quotients, graph and multigraph theorems, the
index-anomaly guard and the full complex reconstruction."""

import random
from itertools import combinations

import pytest

from morsecomplex import (MorseIso, Multigraph, RegularPair, SimplicialComplex,
                          VertexBijection, closure, detect_index_anomaly,
                          find_isomorphism, find_morse_isomorphism,
                          induced_quotient_iso, morse_complex,
                          parallel_by_definition, parallel_pairs, quotient,
                          reconstruct_complex_iso, reconstruct_cycle,
                          reconstruct_graph_iso, reconstruct_multigraph_iso,
                          simplify)
from morsecomplex.corpus import (boundary_simplex, connected_complexes,
                                 cycle_graph, full_simplex, path_graph,
                                 permuted_copy, star_graph)
from morsecomplex.errors import (HypothesisViolationError,
                                 InvalidIsomorphismError,
                                 TheoremContradictionError)
from morsecomplex.isomorphism import all_isomorphisms


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
        MorseIso(M, M, mapping)


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


def test_induced_quotient_iso_identity():
    K = closure([["a"], ["b"]])
    ident = VertexBijection({"a": "a", "b": "b"})
    f = induced_quotient_iso(ident, K, K)
    assert f.forward == {"a": "a"}


def test_induced_quotient_iso_on_triangle_morse_automorphisms():
    # all links in M(C3) differ, so the quotient is trivial and every
    # automorphism passes through unchanged
    M = morse_complex(cycle_graph(3))
    C = M.as_complex()
    Q = quotient(C)
    assert all(len(cls) == 1 for cls in Q.classes)
    for a in all_isomorphisms(C, C, limit=4):
        f = induced_quotient_iso(a, C, C)
        assert f.forward == a.forward


def test_induced_quotient_iso_rejects_non_iso():
    K = path_graph(3)
    bad = VertexBijection({"v0": "v1", "v1": "v0", "v2": "v2"})
    with pytest.raises(InvalidIsomorphismError):
        induced_quotient_iso(bad, K, K)


def test_simplify():
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v")])
    sG, emap = simplify(G)
    assert sG.f_vector() == (2, 1)
    assert emap == {"e1": ("u", "v"), "e2": ("u", "v")}
    H = Multigraph.from_edges([("a", "x", "y"), ("b", "y", "z")])
    sH, emap_h = simplify(H)
    assert sH.f_vector() == (3, 2)
    assert emap_h == {"a": ("x", "y"), "b": ("y", "z")}
    theta = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v")])
    s_theta, _ = simplify(theta)
    assert s_theta.f_vector() == (2, 1)


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
        F = MorseIso(M, M, fwd)
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
    # the quotient map read off non-faces agrees with the explicit route
    explicit = induced_quotient_iso(F.as_pair_id_bijection(),
                                    F.M_K.as_complex(), F.M_L.as_complex())
    assert induced_quotient_iso(F) == explicit
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
    assert f.is_simplicial_isomorphism(simplify(G)[0], simplify(G)[0])
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


def test_reconstruct_most_symmetric_relabelled_multigraphs():
    # the members with the most edges have the largest parallel classes, whose
    # interchangeable pairs made the unpruned search take seconds per member
    from morsecomplex.corpus import connected_multigraphs
    rng = random.Random(31)
    corpus = sorted(connected_multigraphs(4, 3), key=lambda G: -G.n_edges)[:10]
    for G in corpus:
        labs = list(G.labels)
        image = labs[:]
        rng.shuffle(image)
        vmap = dict(zip(labs, image))
        triples = [(f"f{e}", vmap[G.labels[u]], vmap[G.labels[v]])
                   for e, (u, v) in zip(G.edge_ids, G.boundary)]
        rng.shuffle(triples)
        H = Multigraph.from_edges(triples)
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
        "morse.MorseComplex.facets = lambda self, budget=None: listing(self, budget)[1:]\n"
        "r = verify.criterion_oracle(6, 3)\n"
        "print(__debug__, r.passed)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(morsecomplex.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"
