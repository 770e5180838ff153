"""Hasse diagrams, matchings, acyclicity and Morse complex enumeration."""

from itertools import combinations

import pytest

from morsecomplex import (Budget, Multigraph, RegularPair, adjacent_cycles,
                          compatible, critical_cells, gradient_cycles, hasse,
                          is_acyclic, is_matching, minimal_gradient_cycles,
                          morse_complex, primitive_pairs)
from morsecomplex.corpus import (boundary_simplex, complete_graph,
                                 connected_complexes, connected_graphs,
                                 connected_multigraphs, cycle_graph,
                                 full_simplex, path_graph)
from morsecomplex.errors import EnumerationBudgetError, MalformedInputError
from morsecomplex.verify import brute_force_morse_facets


def pair(src, tgt):
    """Build a pair from label sequences ("ab" means the edge {a, b})."""
    return RegularPair(tuple(src), tuple(tgt), len(src) - 1)


def test_hasse_counts():
    d1 = hasse(full_simplex("ab"))
    assert [(d1.cells[s][1], d1.cells[t][1]) for s, t in d1.covers] == \
        [(("a",), ("a", "b")), (("b",), ("a", "b"))]
    assert hasse(full_simplex("abc")).n_covers == 9
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v")])
    assert hasse(G).n_covers == 4
    # cover count formula: sum of dim+1 over simplices of dim >= 1
    for K in connected_complexes(4):
        expected = sum(len(s) for s in K.simplices if len(s) >= 2)
        assert hasse(K).n_covers == expected


def test_primitive_pairs():
    assert len(primitive_pairs(full_simplex("ab"))) == 2
    assert len(primitive_pairs(full_simplex("abc"))) == 9
    for G in connected_graphs(4):
        assert len(primitive_pairs(G)) == 2 * len(G.edges())


def test_is_matching():
    a_ab = pair("a", "ab")
    b_ab = pair("b", "ab")
    assert not is_matching([a_ab, b_ab])  # shared target
    assert is_matching([pair("a", "ab"), pair("c", "bc")])
    assert is_matching([])
    # cross-index sharing: edge as target of one pair and source of another
    assert not is_matching([pair("a", "ab"), pair("ab", "abc")])


def test_is_acyclic_requires_matching():
    with pytest.raises(MalformedInputError):
        is_acyclic([pair("a", "ab"), pair("b", "ab")])


def oriented_triangle_pairs():
    return [pair(("v0",), ("v0", "v1")), pair(("v1",), ("v1", "v2")),
            pair(("v2",), ("v0", "v2"))]


def test_is_acyclic_on_oriented_triangle():
    pairs = oriented_triangle_pairs()
    assert is_matching(pairs)
    assert not is_acyclic(pairs)
    for p, q in combinations(pairs, 2):
        assert is_acyclic([p, q])
    assert is_acyclic([pairs[0]])


def test_compatible():
    e = ("v", "w")
    assert not compatible(pair("v", e), pair("w", e))  # shared edge
    assert not compatible(pair(("v",), ("v", "a")), pair(("v",), ("v", "b")))
    P = path_graph(4)  # a tree: disjoint pairs are compatible
    pairs = primitive_pairs(P)
    for p, q in combinations(pairs, 2):
        disjoint = not ({p.source, p.target} & {q.source, q.target})
        assert compatible(p, q) == disjoint
    assert compatible(pair("a", "ab"), pair("a", "ab")) is False


def test_compatible_symmetric():
    for G in connected_graphs(4)[:6]:
        pairs = primitive_pairs(G)
        for p, q in combinations(pairs, 2):
            assert compatible(p, q) == compatible(q, p)


def test_multigraph_two_cycle():
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v")])
    p = pair("u", ("e1",))
    q = pair("v", ("e2",))
    assert is_matching([p, q])
    assert not is_acyclic([p, q], G)
    assert not compatible(p, q, G)
    # the Morse complex of a parallel bundle is discrete
    M = morse_complex(G)
    assert M.n_pairs == 4
    assert all(len(f) == 1 for f in M.facets())


def test_morse_complex_of_edge():
    M = morse_complex(full_simplex("ab"))
    assert M.n_pairs == 2
    assert M.facets() == ((0,), (1,))
    C = M.as_complex()
    assert C.f_vector() == (2,)
    assert C.components() == 2


def test_morse_complex_of_triangle():
    M = morse_complex(full_simplex("abc"))
    assert M.n_pairs == 9
    assert len(M.facets()) == 9
    assert M.dimension() == 2
    C = M.as_complex()
    assert C.f_vector() == (9, 21, 9)


def test_graph_morse_dimension():
    for G in connected_graphs(5):
        assert morse_complex(G).dimension() == G.n_vertices - 2


def test_oracle_equivalence_complexes():
    checked = 0
    for K in connected_complexes(4):
        M = morse_complex(K)
        if M.n_pairs > 12:
            continue
        assert {frozenset(f) for f in M.facets()} == brute_force_morse_facets(K)
        checked += 1
    assert checked >= 10


def test_oracle_equivalence_multigraphs():
    checked = 0
    for G in connected_multigraphs(3, 2):
        M = morse_complex(G)
        if M.n_pairs > 12:
            continue
        assert {frozenset(f) for f in M.facets()} == brute_force_morse_facets(G)
        checked += 1
    assert checked >= 4


def test_simplex_characterization_not_pairwise():
    # the oriented triangle pairs are pairwise compatible yet not a simplex
    M = morse_complex(cycle_graph(3))
    oriented = []
    for i in range(3):
        v, w = f"v{i}", f"v{(i + 1) % 3}"
        oriented.append(next(p for p in M.pairs if p.source == (v,) and w in p.target))
    for p, q in combinations(oriented, 2):
        assert M.is_simplex((p, q))
    assert not M.is_simplex(oriented)
    # and the exact characterization: simplex <=> matching and acyclic
    for r in (1, 2, 3):
        for combo in combinations(M.pairs, r):
            expected = is_matching(combo) and is_acyclic(combo)
            assert M.is_simplex(combo) == expected


def test_gradient_cycles_on_triangle():
    pairs = oriented_triangle_pairs()
    cycles = gradient_cycles(pairs)
    assert len(cycles) == 1
    assert cycles[0].index == 0 and cycles[0].closed
    assert set(cycles[0].steps) == set(pairs)
    # the other orientation is a different pair set with its own single cycle
    other = [pair(("v1",), ("v0", "v1")), pair(("v2",), ("v1", "v2")),
             pair(("v0",), ("v0", "v2"))]
    assert len(gradient_cycles(other)) == 1
    # trees have no cycles of index 0
    assert gradient_cycles(primitive_pairs(path_graph(4))) == []


def test_minimal_gradient_cycles_span_complete_skeleton():
    # targets of a minimal cycle of index k span k+2 vertices, complete 1-skeleton
    K = full_simplex("abcd")
    M = morse_complex(K)
    minimal = minimal_gradient_cycles(M)
    assert minimal
    for tri in minimal:
        k = tri[0].index + 1
        verts = sorted(set().union(*(p.target for p in tri)))
        assert len(verts) == k + 2
        for u, v in combinations(verts, 2):
            assert K.has_labels((u, v))


def test_adjacent_cycles():
    M = morse_complex(boundary_simplex("abcd"))
    tris = minimal_gradient_cycles(M)
    found = False
    for a, b in combinations(tris, 2):
        if adjacent_cycles(a, b):
            found = True
            assert len(set(a) & set(b)) == 1
    assert found


def test_tree_has_full_facet():
    # a tree admits a matching using every edge
    for T in (path_graph(4), path_graph(5)):
        M = morse_complex(T)
        n_edges = len(T.edges())
        assert max(len(f) for f in M.facets()) == n_edges


def test_facet_budget_error():
    M = morse_complex(full_simplex("abcd"), Budget(max_facets=10, max_seconds=60))
    with pytest.raises(EnumerationBudgetError):
        M.facets()
    # counting alone stays possible
    assert M.facet_count() == 784


def test_time_budget_error():
    K = full_simplex("abcde")
    M = morse_complex(K, Budget(max_facets=10**9, max_seconds=0.0))
    with pytest.raises(EnumerationBudgetError):
        M.facets()


def test_circuit_search_time_budget_error():
    # K7's chordless-circuit search takes more than 4096 steps, so it reaches
    # a deadline check and must stop on the expired budget
    M = morse_complex(complete_graph(7), Budget(max_seconds=0.0))
    with pytest.raises(EnumerationBudgetError):
        M.minimal_nonfaces()


def test_critical_cells():
    K = full_simplex("ab")
    pairs = primitive_pairs(K)
    crit = critical_cells(K, [pairs[0]])
    assert crit == [(0, ("b",))]


def test_empty_morse_complex():
    K = full_simplex("a")
    M = morse_complex(K)
    assert M.n_pairs == 0
    assert M.facets() == ()
    assert M.as_complex().simplices == frozenset()


def test_is_acyclic_on_long_gradient_chains():
    # the chain v0 -> v0v1, v1 -> v1v2, ... is deeper than the recursion limit
    n = 1200
    labs = [f"v{i:04d}" for i in range(n)]
    chain = [RegularPair((labs[i],), (labs[i], labs[i + 1]), 0) for i in range(n - 1)]
    assert is_acyclic(chain)
    closing = RegularPair((labs[-1],), (labs[0], labs[-1]), 0)
    assert not is_acyclic(chain + [closing])


def test_facet_count_of_complete_graphs_is_cayley():
    for n in range(2, 7):
        assert morse_complex(complete_graph(n)).facet_count() == n ** (n - 1)


def test_facet_count_of_full_4_simplex():
    # the number given in the paper
    assert morse_complex(full_simplex("abcde")).facet_count() == 16_369_045


def check_extendable_sets(M):
    """Each layer's matchings and extendable sets against a recomputation
    from scratch: every member is an acyclic matching with the right cell
    masks and extendable set, no matching repeats, and the list is closed
    under adding a higher extendable cover, so no matching is missing."""
    blocks, sbit, tbit = M._layers()
    for block in blocks.values():
        groups = M._layer_matchings(block, sbit, tbit, float("inf"), 10 ** 7)
        seen = set()
        for sm, members in groups.items():
            for ids, tm, avail in members:
                mask = sum(1 << c for c in ids)
                assert list(ids) == sorted(ids) and mask not in seen
                seen.add(mask)
                assert M._is_simplex_mask(mask)
                assert sm == sum(sbit[c] for c in ids)
                assert tm == sum(tbit[c] for c in ids)
                expected = sum(1 << c for c in block
                               if not (mask >> c) & 1 and not M._conflict[c] & mask
                               and not M._creates_cycle(c, mask))
                assert avail == expected
        assert 0 in seen
        for members in groups.values():
            for ids, _, avail in members:
                mask = sum(1 << c for c in ids)
                for c in block:
                    if (avail >> c) & 1 and c > max(ids, default=-1):
                        assert mask | 1 << c in seen


def test_layer_extendable_sets_from_scratch():
    for obj in connected_complexes(4) + connected_multigraphs(4, 2):
        check_extendable_sets(morse_complex(obj))


def pair_arcs_by_definition(pairs, G):
    """Arcs p -> q by comparing every two pairs of an index."""
    arcs = {}
    for i, p in enumerate(pairs):
        if len(p.target) == len(p.source) + 1:
            below = {p.target[:k] + p.target[k + 1:] for k in range(len(p.target))}
        else:
            below = {(v,) for v in G.endpoints(p.target[0])}
        arcs[i] = [j for j, q in enumerate(pairs)
                   if j != i and q.index == p.index and q.source != p.source
                   and q.source in below]
    return arcs


def test_pair_arcs_equal_quadratic_definition():
    from morsecomplex.morse import _pair_arcs
    sources = [(K, None) for K in connected_complexes(4)]
    sources += [(G, G) for G in connected_multigraphs(4, 3)]
    for X, G in sources:
        pairs = primitive_pairs(X)
        for order in (pairs, pairs[::-1]):
            assert _pair_arcs(order, G) == pair_arcs_by_definition(order, G)
