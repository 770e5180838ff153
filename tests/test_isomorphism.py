"""Isomorphism search tests."""

import gc
import hashlib
import random
import time
from itertools import combinations, permutations

import pytest

from morsecomplex import (Budget, find_isomorphism, find_multigraph_isomorphism,
                          morse_complex, Multigraph, VertexBijection)
from morsecomplex.corpus import (connected_complexes, connected_graphs, cycle_graph,
                                 full_simplex, path_graph, permuted_copy, star_graph)
from morsecomplex.errors import (EnumerationBudgetError, MalformedInputError,
                                 TheoremContradictionError)
from morsecomplex.isomorphism import all_isomorphisms, multigraph_edge_map


def test_cycle_relabelled():
    C = cycle_graph(4)
    D = cycle_graph(4, prefix="w")
    bij = find_isomorphism(C, D)
    assert bij is not None
    assert bij.is_simplicial_isomorphism(C, D)


def test_cycle_vs_path_absent():
    assert find_isomorphism(cycle_graph(3), path_graph(3)) is None


def test_symmetry_and_inverse():
    rng = random.Random(7)
    for K in connected_complexes(4):
        for _ in range(3):
            Kp, _ = permuted_copy(K, rng)
            fwd = find_isomorphism(K, Kp)
            back = find_isomorphism(Kp, K)
            assert fwd is not None and back is not None
            assert fwd.inverse().forward == back.forward
            assert back.is_simplicial_isomorphism(Kp, K)
    # a self-comparison returns the identity, its own inverse
    for K in connected_complexes(3):
        auto = find_isomorphism(K, K)
        assert auto.forward == {lab: lab for lab in K.labels}


def test_f_vector_preserved():
    rng = random.Random(3)
    for K in connected_complexes(4):
        Kp, _ = permuted_copy(K, rng)
        bij = find_isomorphism(K, Kp)
        assert bij is not None
        assert K.f_vector() == Kp.f_vector()


def test_all_isomorphisms_limit():
    # the cap counts the maps returned: none at 0, and a negative cap is
    # refused rather than read as one
    S = star_graph(3)
    assert len(all_isomorphisms(S, S)) == 6
    assert all_isomorphisms(S, S, limit=0) == []
    assert all_isomorphisms(S, S, limit=2) == all_isomorphisms(S, S)[:2]
    assert len(all_isomorphisms(S, S, limit=7)) == 6
    with pytest.raises(MalformedInputError, match="limit"):
        all_isomorphisms(S, S, limit=-1)


def test_lexicographically_least_witness():
    # the star has automorphisms permuting leaves; least witness fixes order
    S = star_graph(3)
    bij = find_isomorphism(S, S)
    assert bij.items() == [(lab, lab) for lab in S.labels]


def test_all_isomorphisms_of_star():
    S = star_graph(3)
    autos = all_isomorphisms(S, S)
    assert len(autos) == 6  # leaves permute freely
    images = {tuple(b(lab) for lab in S.labels) for b in autos}
    assert len(images) == 6


def test_nonisomorphic_same_f_vector():
    # two trees on 5 vertices: path P5 vs the spider (star with one long leg)
    P5 = path_graph(5)
    spider = star_graph(3)
    from morsecomplex import closure
    spider = closure([["v0", "v1"], ["v0", "v2"], ["v0", "v3"], ["v3", "v4"]])
    assert P5.f_vector() == spider.f_vector()
    assert find_isomorphism(P5, spider) is None


def test_multigraph_isomorphism():
    G = Multigraph.from_edges([("a", "u", "v"), ("b", "u", "v"), ("c", "v", "w")])
    H = Multigraph.from_edges([("x", "p", "q"), ("y", "q", "r"), ("z", "q", "r")])
    got = find_multigraph_isomorphism(G, H)
    assert got is not None
    bij, emap = got
    assert bij("v") == "q"  # the doubled class must align
    assert sorted(emap) == ["a", "b", "c"]
    for e, f in emap.items():
        u1, v1 = G.endpoints(e)
        u2, v2 = H.endpoints(f)
        assert {bij(u1), bij(v1)} == {u2, v2}


def test_multigraph_isomorphism_absent_on_multiplicity_mismatch():
    G = Multigraph.from_edges([("a", "u", "v"), ("b", "u", "v")])
    H = Multigraph.from_edges([("x", "p", "q"), ("y", "q", "r")])
    assert find_multigraph_isomorphism(G, H) is None


def test_empty_and_point():
    from morsecomplex import SimplicialComplex
    empty = SimplicialComplex((), frozenset())
    assert find_isomorphism(empty, empty) is not None
    assert find_isomorphism(empty, full_simplex("a")) is None


def test_set_family_isomorphisms_on_zero_vertices():
    # over no vertices the empty bijection maps a family onto another exactly
    # when their member sizes agree, so when both hold the empty set or
    # neither does
    from morsecomplex.isomorphism import set_family_isomorphisms
    assert list(set_family_isomorphisms(0, [()], 0, [()])) == [()]
    assert list(set_family_isomorphisms(0, [], 0, [])) == [()]
    assert list(set_family_isomorphisms(0, [], 0, [()])) == []
    assert list(set_family_isomorphisms(0, [()], 0, [])) == []


def test_contractible_morse_complexes_still_distinguished():
    # both Morse complexes collapse to a point, yet they are not isomorphic:
    # the complexes themselves force the negative verdict
    from morsecomplex import closure, morse_complex
    from morsecomplex.invariants import greedy_collapse
    G = closure([["u", "v"], ["u", "w"]])
    Gp = closure([["a", "b"], ["b", "c"], ["a", "c"], ["a", "d"]])
    MG, MGp = morse_complex(G), morse_complex(Gp)
    assert greedy_collapse(MG.as_complex()) is not None
    assert greedy_collapse(MGp.as_complex()) is not None
    assert find_isomorphism(MG, MGp) is None
    assert find_isomorphism(G, Gp) is None


# -- domain pruning -----------------------------------------------------------

def _small_morse_families():
    """Minimal non-face families of small Morse complexes, <= 8 pairs: some
    with interchangeable pairs, and those of P4 and C4, on which assignments
    force others."""
    from morsecomplex import morse_complex
    bundles = [
        Multigraph.from_edges([(f"e{i}", "u", "v") for i in range(k)]) for k in (2, 3)]
    theta = Multigraph.from_edges(
        [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v"), ("e4", "v", "w")])
    cherry = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v"), ("e3", "v", "w")])
    out = []
    for G in bundles + [theta, cherry, star_graph(3), path_graph(4), cycle_graph(4)]:
        M = morse_complex(G)
        out.append((M.n_pairs, M.minimal_nonfaces()))
    return out


def _marker_families():
    """The marker encodings of the multigraphs of ``connected_multigraphs(4, 3)``
    with two or three edge multiplicities, built as the module docstring
    describes them: the chain {c1}, {c1, c2}, ... and one 3-set per parallel
    class."""
    from morsecomplex.corpus import connected_multigraphs
    out = []
    for G in connected_multigraphs(4, 3):
        classes = G.parallel_classes()
        mults = sorted({len(es) for es in classes.values()})
        k = len(mults)
        if k < 2:
            continue
        fam = [frozenset(range(c + 1)) for c in range(k)]
        fam += [frozenset((mults.index(len(es)), k + u, k + v))
                for (u, v), es in classes.items()]
        out.append((k + G.n_vertices, fam))
    return out


def test_set_family_isomorphisms_equal_brute_force_in_order():
    # the domain-pruned search yields exactly the filtered permutations, in
    # lexicographic order, also towards a relabelled copy, on Morse complexes
    # (refined on every member and on the 2-sets alone, as Morse searches
    # are) and on the chain sets and 3-sets of multigraph marker encodings
    from itertools import permutations
    from morsecomplex.isomorphism import set_family_isomorphisms
    rng = random.Random(4)
    cases = [(n, fam, (False, True)) for n, fam in _small_morse_families()]
    cases += [(n, fam, (False,)) for n, fam in _marker_families()]
    for n, fam, modes in cases:
        perm = list(range(n))
        rng.shuffle(perm)
        for target in (fam, [frozenset(perm[i] for i in S) for S in fam]):
            target_set = set(map(frozenset, target))
            # a bijection maps the family into an equal-sized family only onto it
            brute = [img for img in permutations(range(n))
                     if all(frozenset(img[i] for i in S) in target_set for S in fam)]
            for pairs_only in modes:
                assert list(set_family_isomorphisms(n, fam, n, target,
                                                    _pairs_only=pairs_only)) == brute
            assert brute


def test_pairs_only_refinement_leaves_the_3_sets_to_the_checks():
    # the 2-sets of all three families form the path 0-1-2-3, so refining
    # on them splits the ends from the middle alike and rejects nothing; the
    # 3-sets decide, checked as their largest vertex is assigned
    from morsecomplex.isomorphism import set_family_isomorphisms
    path = [(0, 1), (1, 2), (2, 3)]
    A, B, C = path + [(0, 1, 2)], path + [(0, 1, 3)], path + [(1, 2, 3)]
    for pairs_only in (False, True):
        assert list(set_family_isomorphisms(4, A, 4, B, _pairs_only=pairs_only)) == []
        assert list(set_family_isomorphisms(4, A, 4, C, _pairs_only=pairs_only)) == [(3, 2, 1, 0)]


def _incidence(n, family):
    """Per vertex, the sets of the family containing it."""
    inc = [[] for _ in range(n)]
    for S in family:
        for v in S:
            inc[v].append(S)
    return inc


def _refine_by_definition(n_a, inc_a, n_b, inc_b):
    """Joint refinement with each vertex signed by its colour and, per set
    through it, the set's size and the colours of its other members."""
    col_a = [0] * n_a
    col_b = [0] * n_b
    n_classes = 1
    while True:
        def signature(v, cols, inc):
            profile = sorted((len(S), tuple(sorted(cols[u] for u in S if u != v)))
                             for S in inc[v])
            return (cols[v], tuple(profile))

        sig_a = [signature(v, col_a, inc_a) for v in range(n_a)]
        sig_b = [signature(v, col_b, inc_b) for v in range(n_b)]
        table: dict = {}
        for s in sig_a + sig_b:
            table.setdefault(s, len(table))
        col_a = [table[s] for s in sig_a]
        col_b = [table[s] for s in sig_b]
        if sorted(col_a) != sorted(col_b):
            return None
        new_classes = len(set(col_a))
        if new_classes == n_classes:
            return col_a, col_b
        n_classes = new_classes


def test_refine_equals_signature_definition():
    # colours and their numbering match, against the family itself and
    # against a seeded relabelling, and so do the rejections
    from morsecomplex import morse_complex
    from morsecomplex.corpus import connected_multigraphs
    from morsecomplex.isomorphism import _index, _refine
    deadline = Budget().deadline()
    rng = random.Random(9)
    sources = list(connected_complexes(5)) + list(connected_multigraphs(4, 3))
    sources += [path_graph(50), path_graph(80)]
    families = {}
    for X in sources:
        M = morse_complex(X)
        n, fam = M.n_pairs, set(M.minimal_nonfaces())
        families.setdefault(n, []).append(fam)
        perm = list(range(n))
        rng.shuffle(perm)
        for other in (fam, {frozenset(perm[v] for v in S) for S in fam}):
            got = _refine(*_index(n, fam)[:2], *_index(n, other)[:2], deadline)
            assert got == _refine_by_definition(n, _incidence(n, fam), n, _incidence(n, other))
    n_rejected = 0
    for n, fams in families.items():
        for fam, other in zip(fams, fams[1:4]):
            got = _refine(*_index(n, fam)[:2], *_index(n, other)[:2], deadline)
            assert got == _refine_by_definition(n, _incidence(n, fam), n, _incidence(n, other))
            n_rejected += got is None
    assert n_rejected


# -- one engine, no recursion ---------------------------------------------------

def _multigraph_path(n):
    return Multigraph.from_edges([(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])


def test_long_path_search_needs_no_recursion(shallow_stack):
    P = path_graph(400)
    Q, h = permuted_copy(P, random.Random(0))
    bij = find_isomorphism(P, Q)
    assert bij is not None and bij.is_simplicial_isomorphism(P, Q)


def test_long_multigraph_path_search_needs_no_recursion(shallow_stack):
    G = _multigraph_path(400)
    got = find_multigraph_isomorphism(G, G)
    assert got is not None
    bij, emap = got
    assert bij.forward == {lab: lab for lab in G.labels}
    assert emap == {e: e for e in G.edge_ids}


def test_mixed_kinds_raise():
    # M(edge) is two points and the edge is connected: minimal non-faces and
    # facets are not comparable, so no map may come back
    K = full_simplex("ab")
    M = morse_complex(K)
    for A, B in ((M, K), (K, M)):
        with pytest.raises(TypeError):
            find_isomorphism(A, B)
        with pytest.raises(TypeError):
            all_isomorphisms(A, B)
    with pytest.raises(TypeError):
        find_isomorphism(K, Multigraph.from_edges([("e", "a", "b")]))


def test_search_stops_at_the_tighter_budget():
    # all pairs of a cycle share one colour class, so every forced pair
    # filters every later domain: the search between two relabellings of a
    # 2,000-cycle, over 4,000 pairs, takes some 6 s after 0.1 s of listing
    # non-faces, and the deadline stops it
    C = cycle_graph(2000)
    P, _ = permuted_copy(C, random.Random(1))
    Q, _ = permuted_copy(C, random.Random(0))
    M_P, M_Q = morse_complex(P), morse_complex(Q, Budget(max_seconds=0.5))
    for A, B in ((M_P, M_Q), (M_Q, M_P)):
        start = time.monotonic()
        with pytest.raises(EnumerationBudgetError,
                           match=r"searching isomorphisms "
                                 r"\((depth \d+ of 4000|refinement round \d+)\)"):
            find_isomorphism(A, B)
        assert time.monotonic() - start < 2


def test_long_relabelled_path_reconstructs_in_budget():
    # singleton domains force their vertices, and forcing filters only the
    # domains it can change; without either this search runs past the budget
    from morsecomplex.reconstruction import (MorseIso, find_morse_isomorphism,
                                             reconstruct_complex_iso)
    P = path_graph(3000)
    Q, _ = permuted_copy(P, random.Random(0))
    F = find_morse_isomorphism(morse_complex(P, Budget(max_seconds=5)),
                               morse_complex(Q, Budget(max_seconds=5)))
    assert isinstance(F, MorseIso)
    assert reconstruct_complex_iso(F).is_simplicial_isomorphism(P, Q)


def test_positive_searches_leave_no_reference_cycles():
    rng = random.Random(0)
    pairs = []
    for K in connected_complexes(4):
        Kp, _ = permuted_copy(K, rng)
        pairs.append((morse_complex(K), morse_complex(Kp)))
    gc.collect()
    gc.disable()
    try:
        for M, Mp in pairs:
            assert find_isomorphism(M, Mp) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_morse_witnesses_pinned():
    # the raw witnesses between each member's Morse complex and that of a
    # seeded relabelling, both ways round, and between the two complexes:
    # which side the search runs from is decided by comparing the sides'
    # structure certificates, so these pin that direction rule too
    members = list(connected_complexes(5)) + list(connected_graphs(6))
    morse = [morse_complex(K) for K in members]
    h = hashlib.sha256()
    count = 0
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        for K, M in zip(members, morse):
            Kp, _ = permuted_copy(K, rng)
            Mp = morse_complex(Kp)
            for a, b in ((M, Mp), (Mp, M), (K, Kp)):
                h.update(repr(find_isomorphism(a, b).items()).encode() + b"\n")
                count += 1
    assert count == 2592
    assert h.hexdigest() == (
        "af38de747cd417d81e234afece08227ca13e247d79130fa6297395f167c243bc")


def _relabelled_multigraph(G, rng):
    labs = list(G.labels)
    image = labs[:]
    rng.shuffle(image)
    vmap = dict(zip(labs, image))
    ids = [f"f{i}" for i in range(G.n_edges)]
    rng.shuffle(ids)
    return Multigraph.from_edges(
        [(f, vmap[G.labels[u]], vmap[G.labels[v]])
         for f, (u, v) in zip(ids, G.boundary)], isolated=image)


def _least_multiplicity_preserving(G, H):
    """Brute force: the first permutation, in lexicographic order, keeping
    every edge multiplicity, as a label map; None if there is none."""
    def mult(X):
        out = {}
        for u, v in X.boundary:
            out[(u, v)] = out.get((u, v), 0) + 1
        return out

    mg, mh = mult(G), mult(H)
    if G.n_vertices != H.n_vertices or len(mg) != len(mh):
        return None
    for p in permutations(range(G.n_vertices)):
        if all(mh.get(tuple(sorted((p[u], p[v]))), 0) == m for (u, v), m in mg.items()):
            return {G.labels[v]: H.labels[w] for v, w in enumerate(p)}
    return None


def test_multigraph_isomorphism_equals_brute_force():
    from morsecomplex.corpus import connected_multigraphs
    small = connected_multigraphs(3, 3)
    rng = random.Random(1)
    cases = [(G, H) for G in small for H in small]
    cases += [(G, _relabelled_multigraph(G, rng)) for G in connected_multigraphs(4, 3)]
    disconnected = Multigraph.from_edges(
        [("a", "u", "v"), ("b", "w", "x"), ("c", "w", "x"), ("d", "x", "y")])
    isolated = Multigraph.from_edges(
        [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "w")], isolated=["z", "t"])
    for G in (disconnected, isolated):
        cases += [(G, _relabelled_multigraph(G, rng)) for _ in range(3)]
    cases.append((disconnected, _multigraph_path(5)))
    n_found = 0
    for G, H in cases:
        expected = _least_multiplicity_preserving(G, H)
        got = find_multigraph_isomorphism(G, H)
        if expected is None:
            assert got is None
            continue
        n_found += 1
        bij, emap = got
        assert bij.forward == expected
        zipped = {}
        for u, v in combinations(G.labels, 2):
            zipped.update(zip(G.edges_between(u, v), H.edges_between(bij(u), bij(v))))
        assert emap == zipped
    assert n_found > len(small)


def test_multigraph_morse_witnesses_pinned():
    # the raw witnesses between the Morse complexes of each member of
    # connected_multigraphs(4, 3) and of a seeded relabelling, both ways
    # round: the reconstruction inputs whose searches the colour refinement
    # shapes most
    from morsecomplex.corpus import connected_multigraphs
    rng = random.Random(0)
    h = hashlib.sha256()
    count = 0
    for G in connected_multigraphs(4, 3):
        M, Mp = morse_complex(G), morse_complex(_relabelled_multigraph(G, rng))
        for a, b in ((M, Mp), (Mp, M)):
            h.update(repr(find_isomorphism(a, b).items()).encode() + b"\n")
            count += 1
    assert count == 540
    assert h.hexdigest() == (
        "a6e92e5c06397bc638e54e6b21ef95b86a55d6cddb14ebf062c21ac3ce295cc7")


def test_edge_map_raises_on_unequal_classes():
    G = Multigraph.from_edges([("a", "u", "v"), ("b", "u", "v"), ("c", "v", "w")])
    swap = VertexBijection({"u": "u", "v": "w", "w": "v"})
    with pytest.raises(TheoremContradictionError,
                       match=r"\|E\(u,v\)\| = 2 but \|E\(u,w\)\| = 0"):
        multigraph_edge_map(G, G, swap)
