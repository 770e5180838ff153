"""Hasse diagrams, matchings, acyclicity and Morse complex enumeration."""

import gc
import hashlib
import math
import sys
from itertools import combinations

import pytest

from morsecomplex import (Budget, Multigraph, RegularPair, greedy_collapse,
                          hasse, is_acyclic, is_matching, minimal_gradient_cycles,
                          morse_complex, primitive_pairs)
from morsecomplex.complexes import union_find
from morsecomplex.corpus import (boundary_simplex, complete_graph,
                                 connected_complexes, connected_graphs,
                                 connected_multigraphs, cycle_graph,
                                 full_simplex, graph_from_edges, path_graph,
                                 star_graph)
from morsecomplex.errors import EnumerationBudgetError, MalformedInputError
from morsecomplex.morse import MorseComplex, _LayeredCount
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


def test_multigraph_two_cycle():
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v")])
    p = pair("u", ("e1",))
    q = pair("v", ("e2",))
    assert is_matching([p, q])
    assert not is_acyclic([p, q], G)
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


ONE_SECOND = Budget(max_seconds=1)


def test_dimension_closed_forms_within_one_second():
    # a maximum acyclic matching leaves b_0 + b_1 + ... critical cells
    cases = [(complete_graph(n), n - 2) for n in (5, 6, 7)]
    cases += [(cycle_graph(12), 10), (star_graph(12), 11),
              (boundary_simplex("abcd"), 5), (full_simplex("abcd"), 6),
              (boundary_simplex("abcde"), 13), (full_simplex("abcde"), 14)]
    for K, expected in cases:
        assert morse_complex(K).dimension(ONE_SECOND) == expected


def test_dimension_of_collapsible_complexes():
    # homology-free oracle: a collapse sequence down to a vertex is a perfect
    # acyclic matching on all cells but one
    collapsible = [K for K in connected_complexes(5) if greedy_collapse(K) is not None]
    assert len(collapsible) == 42
    for K in collapsible:
        cells = len(K.simplices)
        assert morse_complex(K).dimension(ONE_SECOND) == (cells - 1) // 2 - 1


def test_long_path_dimension_needs_no_recursion(shallow_stack):
    assert morse_complex(path_graph(1200)).dimension(ONE_SECOND) == 1198


def test_one_skeleton_morse_complex_is_the_index_0_block():
    # M(K^1) is the full subcomplex of M(K) on the index-0 pairs, which is
    # what lets reconstruction read the graph step off F itself
    for K in connected_complexes(5) + (full_simplex("abcdef"), boundary_simplex("abcdef")):
        M, M1 = morse_complex(K), morse_complex(K.skeleton(1))
        n0 = sum(1 for p in M.pairs if p.index == 0)
        assert M1.pairs == M.pairs[:n0]
        block = frozenset(range(n0))
        assert (set(map(frozenset, M1.minimal_nonfaces()))
                == {nf for nf in map(frozenset, M.minimal_nonfaces()) if nf <= block})


def test_boundary_rank_equals_betti_route():
    # a multigraph has b_0 = components, so its rank is n - b_0
    graphs = list(connected_multigraphs(4, 3))
    graphs.append(Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v"),
                                         ("e3", "x", "y")], isolated=["z"]))
    for G in graphs:
        components = len(set(union_find(G.n_vertices, G.boundary)))
        assert sum(hasse(G).boundary_ranks().values()) == G.n_vertices - components


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


def test_face_budget_error():
    # the facet cap is also the face cap; M(full triangle) has 39 faces
    M = morse_complex(full_simplex("abc"), Budget(max_facets=39))
    for _ in range(2):
        assert len(M.faces()) == 39
    M = morse_complex(full_simplex("abc"), Budget(max_facets=38))
    for _ in range(2):
        with pytest.raises(EnumerationBudgetError):
            M.faces()


def test_time_budget_error():
    K = full_simplex("abcde")
    M = morse_complex(K, Budget(max_facets=10**9, max_seconds=0.0))
    with pytest.raises(EnumerationBudgetError):
        M.facets()


def test_nan_time_budget_is_refused():
    # no clock reading compares greater than NaN, so it would switch every
    # deadline off
    with pytest.raises(MalformedInputError):
        Budget(max_seconds=float("nan"))


def test_facet_count_time_budget_error():
    # counting alone, without a listing, must stop on the expired budget
    M = morse_complex(full_simplex("abcde"), Budget(max_seconds=0.0))
    with pytest.raises(EnumerationBudgetError):
        M.facet_count()


def test_circuit_search_time_budget_error():
    # K7's chordless-circuit search takes more than 4096 steps, so it reaches
    # a deadline check and must stop on the expired budget
    M = morse_complex(complete_graph(7), Budget(max_seconds=0.0))
    with pytest.raises(EnumerationBudgetError):
        M.minimal_nonfaces()


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


def test_facet_budget_boundary():
    # the listing runs at exactly max_facets facets and is refused one below,
    # for a graph (one layer) and for a complex with more layers
    for K, n in ((complete_graph(5), 625), (full_simplex("abcd"), 784)):
        assert len(morse_complex(K, Budget(max_facets=n)).facets()) == n
        M = morse_complex(K, Budget(max_facets=n - 1))
        with pytest.raises(EnumerationBudgetError,
                           match=f"at least {n} facets, over the budget of {n - 1}"):
            M.facets()
        assert M.facet_count() == n


def test_facets_refused_before_the_count_ends():
    # the boundary of the 4-simplex and the paper's full 4-simplex: facets()
    # stops counting once the budget is passed, facet_count() stays exact;
    # the lower bound reached depends on the order in which the index-1
    # walk yields its matchings
    for K, n, reached in ((boundary_simplex("abcde"), 8_328_325, 1_000_137),
                          (full_simplex("abcde"), 16_369_045, 1_000_261)):
        M = morse_complex(K)
        with pytest.raises(EnumerationBudgetError) as err:
            M.facets()
        assert str(err.value) == (
            f"Morse complex has at least {reached} facets, over the budget of 1000000")
        assert M.facet_count() == n


def test_refusals_stop_partway_through_the_index_1_walk(monkeypatch):
    # bd4's and D4's refusals at the default budget walk fewer than a
    # quarter of the 46,128 index-1 matchings; the count walks them all
    walk = MorseComplex._layer_matchings
    walked = {}

    def counted(self, block, *args):
        walked[block] = 0
        for member in walk(self, block, *args):
            walked[block] += 1
            yield member

    monkeypatch.setattr(MorseComplex, "_layer_matchings", counted)
    for K in (boundary_simplex("abcde"), full_simplex("abcde")):
        M = morse_complex(K)
        index_1 = M._layers()[0][1]
        with pytest.raises(EnumerationBudgetError):
            M.facets()
        assert 0 < walked[index_1] < 46_128 / 4
        M.facet_count()
        assert walked[index_1] == 46_128


def test_facet_engine_keeps_no_state_after_return():
    # the engine's views, memo and walk records must be freed on return by
    # reference counting alone: with the cycle collector off, state held by
    # a reference cycle stays behind as tracked objects (13 MiB for bd4)
    cases = [(boundary_simplex("abcde"), "facet_count"), (boundary_simplex("abcde"), "facets"),
             (complete_graph(7), "facet_count")]
    for K, method in cases:
        M = morse_complex(K)
        gc.collect()
        gc.disable()
        try:
            before = gc.get_objects()
            old = set(map(id, before))
            try:
                getattr(M, method)()
            except EnumerationBudgetError:
                assert method == "facets"
            after = gc.get_objects()
            old.update((id(before), id(old), id(after)))
            retained = sum(sys.getsizeof(o) for o in after if id(o) not in old)
        finally:
            gc.enable()
        assert retained < 2 ** 20, (method, retained)


def test_morse_complex_keeps_no_listing():
    # faces() and facets() compute their listing per call: once they return,
    # no attribute of M holds it
    M = morse_complex(full_simplex("abc"))
    listings = (M.faces(), M.facets())
    assert all(listings)
    assert not any(v is L for v in vars(M).values() for L in listings)


def test_graph_facet_listing_time_budget_error():
    # K7's walk takes more than 4096 steps, so it stops on an expired budget
    M = morse_complex(complete_graph(7), Budget(max_seconds=0))
    with pytest.raises(EnumerationBudgetError):
        M.facets()
    # the lister itself checks its deadline at least every 4,096 facets
    total, lister = morse_complex(complete_graph(7))._facet_engine(Budget())
    assert total == 117_649
    listed = 0
    with pytest.raises(EnumerationBudgetError, match="listing facets"):
        for _ in lister(-math.inf):
            listed += 1
    assert listed <= 4096


def test_facet_counts_and_listings_pinned():
    # every count of both exhaustive corpora, and each listing of at most
    # 100,000 facets: a faster facet engine must reproduce them exactly
    h = hashlib.sha256()
    for X in connected_complexes(5) + connected_multigraphs(4, 3):
        M = morse_complex(X)
        n = M.facet_count()
        h.update(repr(n).encode() + b"\n")
        if n <= 100_000:
            h.update(repr(M.facets()).encode() + b"\n")
    assert h.hexdigest() == (
        "b5c97e3d25d180ab7cc618e6b59cde21ea2230400b757c16f3395c3f542fde7f")


def check_extendable_sets(M):
    """Each layer's matchings and extendable sets against a recomputation
    from scratch: every member is an acyclic matching of the layer's covers
    with the right cell masks and extendable set, no matching repeats, and
    the list is closed under adding a higher extendable cover, so no
    matching is missing."""
    blocks, sbit, tbit = M._layers()
    for block in blocks.values():
        full = (1 << block.stop) - (1 << block.start)
        members = list(M._layer_matchings(block, sbit, tbit, float("inf"), 10 ** 7))
        seen = set()
        for mask, sm, tm, avail in members:
            assert not mask & ~full and mask not in seen
            seen.add(mask)
            assert M._is_simplex_mask(mask)
            ids = [c for c in block if (mask >> c) & 1]
            assert sm == sum(sbit[c] for c in ids)
            assert tm == sum(tbit[c] for c in ids)
            expected = sum(1 << c for c in block
                           if not (mask >> c) & 1 and not M._conflict[c] & mask
                           and not M._creates_cycle(c, mask))
            assert avail == expected
        assert 0 in seen
        for mask, _, _, avail in members:
            for c in block:
                if (avail >> c) & 1 and c >= mask.bit_length():
                    assert mask | 1 << c in seen


def test_layer_extendable_sets_from_scratch():
    for obj in connected_complexes(4) + connected_multigraphs(4, 2):
        check_extendable_sets(morse_complex(obj))


def check_closing_members(M):
    """The only layer of a graph, as the walk's records, against a
    recomputation from scratch and the full enumeration: every facet a
    record stands for is an acyclic matching to which no cover of the layer
    can be added, none repeats, the count is their number, the listing gives
    each as its sorted cover ids, and the set is exactly the maximal members
    of the full enumeration, found by containment."""
    blocks, sbit, tbit = M._layers()
    assert list(blocks) == [0]
    block = blocks[0]
    records, count = M._forest_matchings(block, float("inf"), 10 ** 7, math.inf)
    stored = set()
    for mask, leaves in records:
        assert leaves and not leaves & mask
        for c in block:
            if not (leaves >> c) & 1:
                continue
            facet = mask | 1 << c
            assert facet not in stored
            stored.add(facet)
            assert M._is_simplex_mask(facet)
            assert all((facet >> d) & 1 or M._conflict[d] & facet
                       or M._creates_cycle(d, facet) for d in block)
    assert count == len(stored)
    listed = M.facets()
    assert all(list(ids) == sorted(ids) for ids in listed)
    assert {sum(1 << c for c in ids) for ids in listed} == stored
    full = {mask for mask, _, _, _ in M._layer_matchings(block, sbit, tbit, float("inf"), 10 ** 7)}
    maximal = {mask for mask in full
               if not any(not (mask >> c) & 1 and mask | 1 << c in full for c in block)}
    assert stored == maximal


def test_closing_layer_members_from_scratch():
    graphs = [K for K in connected_complexes(4) if max(map(len, K.simplices)) == 2]
    assert len(graphs) == 9
    for obj in graphs + list(connected_graphs(5)) + list(connected_multigraphs(4, 2)):
        M = morse_complex(obj)
        if M.n_pairs:
            check_closing_members(M)


def check_closing_multiplicities(M, limit=math.inf):
    """The layered count's weights, last-layer totals and memoised states,
    against the members recounted one by one.  An index-0 member fits an
    index-1 source mask iff its target mask misses it and its pending
    targets (the targets of its avail) lie within it.  In the last layer a
    member closes a facet iff each cover of its avail has its source in
    ``blocked``, and fits a state iff its source mask contains ``need`` and
    misses ``blocked``; where index 1 is the last layer, that makes the
    count the number of fitting pairs of an index-0 and an index-1 member
    that close.  Returns the number of weights and views checked."""
    blocks, sbit, tbit = M._layers()
    ranges = [blocks[k] for k in sorted(blocks)]
    walks = [list(M._layer_matchings(block, sbit, tbit, math.inf, 10 ** 7)) for block in ranges]
    count = _LayeredCount(walks, ranges, sbit, tbit, math.inf)
    try:
        total = count.total(limit)
    except EnumerationBudgetError:
        assert limit < math.inf
        total = None
    last = count.last

    def cells(avail, block, bits):
        return [bits[c] for c in block if (avail >> c) & 1]

    # per index-0 member its target mask and pending targets, per target
    # mask the covers of index 1 whose source it leaves free
    index_0 = [(tm, sum(set(cells(avail, ranges[0], tbit)))) for _, _, tm, avail in walks[0]]
    free = {tm: ~sum(1 << c for c in ranges[1] if sbit[c] & tm) for tm, _ in index_0}
    for sm, states in count.weights.items():
        got, expected = {}, {}
        for f, weight, _ in states:
            got[f] = got.get(f, 0) + weight
        for tm, pend in index_0:
            if not tm & sm and not pend & ~sm:
                expected[free[tm]] = expected.get(free[tm], 0) + 1
        assert got == expected
    checked = len(count.weights)

    # per source mask of the last layer, per member the source bit of each
    # cover of its avail
    sources = {}
    for _, sm, _, avail in walks[-1]:
        sources.setdefault(sm, []).append(cells(avail, ranges[-1], sbit))

    def closing(sm, blocked):
        return sum(1 for bits in sources[sm] if all(b & blocked for b in bits))

    if last == 1:
        if total is not None:
            assert total == sum(closing(sm, tm) for tm, pend in index_0 for sm in sources
                                if not tm & sm and not pend & ~sm)
        return checked
    for blocked, (_, _, totals) in count.views[last].items():
        for sm, total in totals.items():
            assert total == closing(sm, blocked)
    shift = count.shifts[last]
    for key, total in count.memos[last].items():
        blocked, need = key & ((1 << shift) - 1), key >> shift
        assert total == sum(closing(sm, blocked) for sm in sources
                            if not need & ~sm and not sm & blocked)
    return checked + len(count.views[last])


def test_closing_multiplicities_recounted():
    layered = [K for K in connected_complexes(4) if max(map(len, K.simplices)) > 2]
    assert len(layered) == 9
    for K in layered + [boundary_simplex("abcd"), full_simplex("abcd")]:
        assert check_closing_multiplicities(morse_complex(K)) > 0
    # the views that bd4's refusal at the default budget reaches
    assert check_closing_multiplicities(morse_complex(boundary_simplex("abcde")),
                                        limit=1_000_000) > 0


def test_closing_walk_time_budget_error():
    # the pruned walk over C20's only layer takes far more than 4096 steps,
    # so it reaches a deadline check and must stop on the expired budget
    M = morse_complex(cycle_graph(20), Budget(max_seconds=0))
    with pytest.raises(EnumerationBudgetError, match="enumerating layer matchings"):
        M.facet_count()


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


def test_morse_does_not_import_isomorphism():
    # the isomorphism search imports morse for MorseComplex, so morse must
    # not import isomorphism back; the package is stubbed so that its
    # __init__, which imports every module, stays out of the way
    import os
    import subprocess
    import sys

    import morsecomplex
    script = (
        "import importlib.util, sys, types\n"
        "pkg = types.ModuleType('morsecomplex')\n"
        "pkg.__path__ = list(importlib.util.find_spec('morsecomplex')"
        ".submodule_search_locations)\n"
        "sys.modules['morsecomplex'] = pkg\n"
        "import morsecomplex.morse\n"
        "print('morsecomplex.isomorphism' in sys.modules)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(morsecomplex.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def _grid(rows, cols):
    """The rows x cols grid graph."""
    def at(r, c):
        return r * cols + c
    edges = [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return graph_from_edges(rows * cols, edges)


def test_minimal_nonfaces_pinned_in_order():
    # the non-faces of both exhaustive corpora, a path, a grid and a ladder,
    # in the order returned: the isomorphism search and the quotient read
    # them in this order, so a faster circuit enumeration must keep it; each
    # is an ascending tuple, which the structure certificate sorts as it is
    h = hashlib.sha256()
    sources = list(connected_complexes(5) + connected_multigraphs(4, 3))
    sources += [path_graph(80), _grid(5, 5), _grid(2, 10)]
    for X in sources:
        nonfaces = morse_complex(X).minimal_nonfaces()
        assert all(type(S) is tuple and list(S) == sorted(set(S)) for S in nonfaces)
        h.update(repr([sorted(S) for S in nonfaces]).encode() + b"\n")
    assert h.hexdigest() == (
        "864228354a4ba14325d57a52cac831eef5bcd999e07f2b0e9c48b9f06b1c63f7")
