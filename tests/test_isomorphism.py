"""Isomorphism search tests."""

import random

from morsecomplex import find_isomorphism, find_multigraph_isomorphism, Multigraph
from morsecomplex.corpus import (connected_complexes, cycle_graph, full_simplex,
                                 path_graph, permuted_copy, star_graph)
from morsecomplex.isomorphism import all_isomorphisms


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


# -- twin pruning -------------------------------------------------------------

def _symmetric_morse_families():
    """Minimal non-face families of Morse complexes with twins, <= 8 pairs."""
    from morsecomplex import morse_complex
    bundles = [
        Multigraph.from_edges([(f"e{i}", "u", "v") for i in range(k)]) for k in (2, 3)]
    theta = Multigraph.from_edges(
        [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v"), ("e4", "v", "w")])
    cherry = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v"), ("e3", "v", "w")])
    out = []
    for G in bundles + [theta, cherry, star_graph(3)]:
        M = morse_complex(G)
        out.append((M.n_pairs, M.minimal_nonfaces()))
    return out


def test_twin_classes_match_the_definition():
    from itertools import combinations
    from morsecomplex.isomorphism import twin_classes
    n_twinned = 0
    for n, fam in _symmetric_morse_families():
        fam_set = set(fam)
        rep = twin_classes(n, fam)
        for a, b in combinations(range(n), 2):
            swap = {a: b, b: a}
            is_twin = {frozenset(swap.get(i, i) for i in S) for S in fam} == fam_set
            assert (rep[a] == rep[b]) == is_twin
        assert all(rep[w] <= w for w in range(n))
        n_twinned += sum(rep[w] != w for w in range(n))
    assert n_twinned


def test_set_family_isomorphisms_equal_brute_force_in_order():
    # the twin-pruned search yields exactly the filtered permutations, in
    # lexicographic order, also towards a relabelled copy
    from itertools import permutations
    from morsecomplex.isomorphism import set_family_isomorphisms
    rng = random.Random(4)
    for n, fam in _symmetric_morse_families():
        perm = list(range(n))
        rng.shuffle(perm)
        for target in (fam, [frozenset(perm[i] for i in S) for S in fam]):
            target_set = set(target)
            # a bijection maps the family into an equal-sized family only onto it
            brute = [img for img in permutations(range(n))
                     if all(frozenset(img[i] for i in S) in target_set for S in fam)]
            assert list(set_family_isomorphisms(n, fam, n, target)) == brute
            assert brute


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
    from morsecomplex.isomorphism import _incidence, _refine
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
            args = (n, _incidence(n, fam), n, _incidence(n, other))
            assert _refine(*args) == _refine_by_definition(*args)
    n_rejected = 0
    for n, fams in families.items():
        for fam, other in zip(fams, fams[1:4]):
            args = (n, _incidence(n, fam), n, _incidence(n, other))
            got = _refine(*args)
            assert got == _refine_by_definition(*args)
            n_rejected += got is None
    assert n_rejected
