"""Cross-checks between independent enumeration routes.

The layered facet engine, the flat face enumeration, the standalone pair
predicates and the minimal non-face structure are four separate code paths
describing one object; these tests pin them against each other on corpora
larger than the power-set oracle can reach.
"""

from fractions import Fraction
from itertools import combinations

from morsecomplex import (Budget, HasseDiagram, Multigraph, closure, is_acyclic,
                          is_matching, morse_complex)
from morsecomplex.corpus import (boundary_simplex, connected_complexes,
                                 connected_graphs, connected_multigraphs,
                                 cycle_graph, full_simplex, graph_from_edges,
                                 path_graph, star_graph)

BIG = Budget(max_facets=10**7, max_seconds=300.0)


def maximal_faces_by_extension(M):
    """Second facet route: flat face enumeration plus one-pair extension."""
    faces = set(map(frozenset, M.faces()))
    out = set()
    for f in faces:
        if not any(c not in f and (f | {c}) in faces for c in range(M.n_pairs)):
            out.add(f)
    return out


def brute_minimal_nonfaces_powerset(M, G=None):
    """Fully independent route (small only): test every subset of pairs with
    the standalone predicates and keep the minimal failures."""
    ok = {}
    for r in range(M.n_pairs + 1):
        for combo in combinations(range(M.n_pairs), r):
            chosen = [M.pairs[i] for i in combo]
            ok[frozenset(combo)] = is_matching(chosen) and is_acyclic(chosen, G)
    return {s for s, good in ok.items()
            if not good and all(ok[s - {x}] for x in s)}


def brute_minimal_nonfaces(M):
    """Scaled route: a minimal non-face is a face plus one pair whose proper
    subsets are all faces, so faces and their one-pair extensions suffice."""
    faces = set(map(frozenset, M.faces()))
    faces.add(frozenset())
    out = set()
    for f in faces:
        for c in range(M.n_pairs):
            if c in f:
                continue
            s = f | {c}
            if s in faces or s in out:
                continue
            if all(s - {x} in faces for x in s):
                out.add(s)
    return out


def test_facet_engine_against_face_filter_on_complexes():
    checked = 0
    for K in connected_complexes(4):
        M = morse_complex(K, BIG)
        assert set(map(frozenset, M.facets())) == maximal_faces_by_extension(M)
        checked += 1
    assert checked == 19


def test_facet_engine_against_face_filter_on_larger_complexes():
    # five-vertex members with a mid-size cover count, beyond the power-set oracle
    count = 0
    for K in connected_complexes(5):
        M = morse_complex(K, BIG)
        if not 12 < M.n_pairs <= 26:
            continue
        assert set(map(frozenset, M.facets())) == maximal_faces_by_extension(M)
        count += 1
    assert count > 20


def test_facet_engine_against_face_filter_on_multigraphs():
    for G in connected_multigraphs(4, 2):
        M = morse_complex(G, BIG)
        if M.n_pairs > 20:
            continue
        assert set(map(frozenset, M.facets())) == maximal_faces_by_extension(M)


def test_path_cycle_and_star_facets_against_independent_counts():
    # a graph has one layer, which the facet engine prunes to the matchings
    # that close a facet; the face filter and the stars' closed form (a
    # facet roots a spanning tree, and the star's roots are its n + 1
    # vertices) count them without that pruning
    for n in range(2, 13):
        for G in [path_graph(n)] + ([cycle_graph(n)] if n >= 3 else []):
            M = morse_complex(G, BIG)
            expected = maximal_faces_by_extension(M)
            assert M.facet_count() == len(expected)
            assert set(map(frozenset, M.facets())) == expected
    for n in range(1, 13):
        assert morse_complex(star_graph(n)).facet_count() == n + 1


def rooted_spanning_trees(n, edges):
    """n times the number of spanning trees of the multigraph on vertices
    0..n-1 with the given (u, v) edges, a parallel edge listed once per
    copy: n times the determinant of its Laplacian less row and column 0
    (Kirchhoff, 1847), by elimination in exact rationals."""
    L = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        L[u][u] += 1
        L[v][v] += 1
        L[u][v] -= 1
        L[v][u] -= 1
    A = [row[1:] for row in L[1:]]
    det = Fraction(1)
    for i in range(n - 1):
        p = next((r for r in range(i, n - 1) if A[r][i]), None)
        if p is None:
            return 0
        if p != i:
            A[i], A[p] = A[p], A[i]
            det = -det
        det *= A[i][i]
        for r in range(i + 1, n - 1):
            f = A[r][i] / A[i][i]
            for c in range(i, n - 1):
                A[r][c] -= f * A[i][c]
    return n * det


def test_facet_counts_against_closed_forms():
    # closed forms that share no code with the facet engine.  A facet of a
    # connected graph is a rooted forest with no root adjacent to a vertex
    # of another tree; in a complete multipartite graph two roots in one
    # part are adjacent to every vertex outside it, and two in different
    # parts to each other, so every facet is a rooted spanning tree: n *
    # tau(G).  A parallel copy of a forest edge closes a gradient cycle, so
    # a complete multigraph's facets are its rooted spanning trees too, one
    # per choice of edge in each class.  Gradient paths stay inside a
    # component, so M(K + L) is the join M(K) * M(L) and the counts multiply
    for sizes, count in (((3, 4), 3_024), ((2, 2, 2), 2_304)):
        part = [k for k, size in enumerate(sizes) for _ in range(size)]
        n = len(part)
        edges = [(u, v) for u, v in combinations(range(n), 2) if part[u] != part[v]]
        assert rooted_spanning_trees(n, edges) == count
        assert morse_complex(graph_from_edges(n, edges)).facet_count() == count
    classes = [(u, v, 1 + (u + 2 * v) % 3) for u, v in combinations(range(5), 2)]
    G = Multigraph.from_edges((f"e{u}{v}{i}", f"v{u}", f"v{v}")
                              for u, v, m in classes for i in range(m))
    assert rooted_spanning_trees(5, [(u, v) for u, v, m in classes for _ in range(m)]) == 16_640
    assert morse_complex(G).facet_count() == 16_640
    bd3, d3 = boundary_simplex("abcd"), full_simplex("efgh")
    union = closure(bd3.label_facets() + d3.label_facets())
    assert morse_complex(bd3).facet_count() == 352
    assert morse_complex(d3).facet_count() == 784
    assert morse_complex(union).facet_count() == 352 * 784 == 275_968


def test_minimal_nonfaces_against_brute_force():
    for K in connected_complexes(4):
        M = morse_complex(K, BIG)
        assert set(map(frozenset, M.minimal_nonfaces())) == brute_minimal_nonfaces(M)
    M = morse_complex(full_simplex("abcd"), BIG)
    assert set(map(frozenset, M.minimal_nonfaces())) == brute_minimal_nonfaces(M)


def test_minimal_nonfaces_against_powerset():
    for K in connected_complexes(4):
        M = morse_complex(K, BIG)
        if M.n_pairs > 12:
            continue
        assert set(map(frozenset, M.minimal_nonfaces())) == brute_minimal_nonfaces_powerset(M)


def test_minimal_nonfaces_against_brute_force_multigraphs():
    for G in connected_multigraphs(3, 3):
        M = morse_complex(G, BIG)
        if M.n_pairs > 14:
            continue
        assert (set(map(frozenset, M.minimal_nonfaces()))
                == brute_minimal_nonfaces_powerset(M, G))


def test_faces_are_independence_system_of_nonfaces():
    for K in connected_complexes(4):
        M = morse_complex(K, BIG)
        nonfaces = list(map(frozenset, M.minimal_nonfaces()))
        faces = set(map(frozenset, M.faces()))
        for r in (1, 2, 3):
            for combo in combinations(range(M.n_pairs), r):
                s = frozenset(combo)
                expected = not any(nf <= s for nf in nonfaces)
                assert (s in faces) == expected


def test_faces_match_standalone_predicates():
    for G in connected_graphs(4):
        M = morse_complex(G, BIG)
        faces = set(map(frozenset, M.faces()))
        for r in (1, 2, 3):
            for combo in combinations(M.pairs, r):
                expected = is_matching(combo) and is_acyclic(combo)
                got = frozenset(M.index_of_pair(p) for p in combo) in faces
                assert got == expected


def test_compatibility_adjacency_matches_standalone_predicate():
    # the mask formula against the standalone predicates; the multigraphs
    # carry 2-cycles
    sources = [(K, None) for K in connected_complexes(4)]
    sources += [(G, G) for G in connected_multigraphs(4, 3)]
    for obj, G in sources:
        M = morse_complex(obj, BIG)
        adj = M.compatibility_adjacency()
        for i, j in combinations(range(M.n_pairs), 2):
            p, q = M.pairs[i], M.pairs[j]
            expected = is_matching([p, q]) and is_acyclic([p, q], G)
            assert bool((adj[i] >> j) & 1) == expected
            assert bool((adj[j] >> i) & 1) == expected
        assert not any((adj[i] >> i) & 1 for i in range(M.n_pairs))


def check_dimension_against_max_facet():
    for obj in connected_complexes(4) + connected_multigraphs(3, 3):
        M = morse_complex(obj, BIG)
        facets = M.facets()
        expected = max((len(f) for f in facets), default=0) - 1
        assert M.dimension(BIG) == expected


def test_dimension_matches_max_facet():
    check_dimension_against_max_facet()


def test_exhaustive_dimension_matches_max_facet(monkeypatch):
    # a rank no matching reaches switches the early stop off
    monkeypatch.setattr(HasseDiagram, "boundary_ranks", lambda self: {1: self.n_covers + 1})
    check_dimension_against_max_facet()


def test_disconnected_sources_work():
    # nothing in the Morse machinery assumes connectivity
    from morsecomplex import closure
    K = closure([["a", "b", "c"], ["x", "y"]])
    M = morse_complex(K, BIG)
    assert M.n_pairs == 9 + 2
    assert set(map(frozenset, M.facets())) == maximal_faces_by_extension(M)
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v")], isolated=["z"])
    M = morse_complex(G, BIG)
    assert M.n_pairs == 4
    assert all(len(f) == 1 for f in M.facets())
