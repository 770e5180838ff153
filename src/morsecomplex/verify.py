"""Acceptance suites: every criterion as a runnable check.

Each runner returns a CriterionResult; the CLI ``verify corpus`` command and
the acceptance tests share these.  Scales default to the full contract and
can be lowered for quick runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .budget import Budget
from .complexes import SimplicialComplex, is_boundary_simplex
from .corpus import (boundary_simplex, connected_complexes, connected_graphs,
                     connected_multigraphs, cycle_graph, full_simplex,
                     permuted_copy, random_connected_graph)
from .errors import EnumerationBudgetError, MorseError
from .forests import forest_identity_holds
from .invariants import greedy_collapse, invariants
from .isomorphism import (all_isomorphisms, find_isomorphism,
                          find_multigraph_isomorphism)
from .morse import (is_acyclic, is_matching, minimal_gradient_cycles,
                    morse_complex, primitive_pairs)
from .reconstruction import (MorseIso, detect_index_anomaly,
                             find_morse_isomorphism, parallel_by_definition,
                             parallel_pairs, reconstruct_complex_iso,
                             reconstruct_multigraph_iso)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


class CriterionFailure(MorseError):
    """A criterion's claim does not hold; raised instead of ``assert`` so
    that ``python -O`` cannot switch the check off."""


def _result(name: str, check: Callable[[], str]) -> CriterionResult:
    try:
        return CriterionResult(name, True, check())
    except EnumerationBudgetError:
        raise  # an exhausted budget is no verdict on the criterion
    except CriterionFailure as e:
        return CriterionResult(name, False, str(e))
    except MorseError as e:
        return CriterionResult(name, False, f"{type(e).__name__}: {e}")


def _graph_corpus(max_exhaustive: int, sample_7: int, seed: int):
    graphs = []
    for n in range(3, max_exhaustive + 1):
        graphs.extend(connected_graphs(n))
    rng = random.Random(seed)
    if max_exhaustive >= 6 and sample_7 > 0:
        graphs.extend(random_connected_graph(7, rng) for _ in range(sample_7))
    return graphs


def criterion_graph_counts(max_exhaustive: int = 6, sample_7: int = 200,
                           seed: int = 0, budget: Optional[Budget] = None) -> CriterionResult:
    """Vertex count and dimension of the Morse complex of connected graphs."""

    def check():
        graphs = _graph_corpus(max_exhaustive, sample_7, seed)
        for G in graphs:
            M = morse_complex(G, budget)
            n_edges = len(G.edges())
            if M.n_pairs != 2 * n_edges:
                raise CriterionFailure(
                    f"{G!r}: {M.n_pairs} pairs, expected {2 * n_edges}")
            dim = M.dimension()
            if dim != G.n_vertices - 2:
                raise CriterionFailure(
                    f"{G!r}: Morse dimension {dim}, expected {G.n_vertices - 2}")
        return f"{len(graphs)} graphs: pair count 2|E| and dimension |V|-2 exact"

    return _result("graph-counts", check)


def criterion_forest_identity(max_vertices: int = 6, budget: Optional[Budget] = None) -> CriterionResult:
    """Labelled equality of M(G) with the forest complex of the double."""

    def check():
        count = 0
        for n in range(2, max_vertices + 1):
            for G in connected_graphs(n):
                M = morse_complex(G, budget)
                if not forest_identity_holds(G, M):
                    raise CriterionFailure(f"identity fails on {G!r}")
                count += 1
        return f"{count} graphs: Morse complex equals forest complex of the double"

    return _result("forest-identity", check)


def criterion_leaf_degree(max_exhaustive: int = 6, sample_7: int = 200,
                          seed: int = 0, budget: Optional[Budget] = None) -> CriterionResult:
    """v is a leaf iff any of its pairs has degree 2|E|-2 in the 1-skeleton."""

    def check():
        graphs = _graph_corpus(max_exhaustive, sample_7, seed)
        for G in graphs:
            M = morse_complex(G, budget)
            full = 2 * len(G.edges()) - 2
            for pair in M.pairs:
                v = pair.source[0]
                is_leaf = G.degree(G.labels.index(v)) == 1
                if (M.pair_degree(pair) == full) != is_leaf:
                    raise CriterionFailure(
                        f"{G!r}: degree of {pair} disagrees with leaf status of {v}")
        return f"{len(graphs)} graphs: leaf <=> pair degree 2|E|-2"

    return _result("leaf-degree", check)


def criterion_wedge_datum(budget: Optional[Budget] = None) -> CriterionResult:
    """Invariants of the Morse complexes of the 2-simplex and the 1-simplex."""

    def check():
        M2 = morse_complex(full_simplex("abc"), budget).as_complex()
        rep = invariants(M2)
        if rep.euler != -3:
            raise CriterionFailure(f"euler {rep.euler} != -3")
        if rep.betti_mod2 != (1, 4, 0):
            raise CriterionFailure(f"betti {rep.betti_mod2} != (1, 4, 0)")
        M1 = morse_complex(full_simplex("ab"), budget).as_complex()
        rep1 = invariants(M1)
        if rep1.components != 2:
            raise CriterionFailure(f"components {rep1.components} != 2")
        if rep1.euler != 2:
            raise CriterionFailure(f"euler {rep1.euler} != 2")
        return "euler(M(triangle)) = -3, betti (1,4,0); M(edge) has 2 components"

    return _result("wedge-datum", check)


def criterion_counterexample(budget: Optional[Budget] = None) -> CriterionResult:
    """Contractible Morse complexes of non-homotopy-equivalent graphs."""

    def check():
        G = SimplicialComplex.closure([["u", "v"], ["u", "w"]])
        Gp = SimplicialComplex.closure([["a", "b"], ["b", "c"], ["a", "c"], ["a", "d"]])
        MG = morse_complex(G, budget).as_complex()
        MGp = morse_complex(Gp, budget).as_complex()
        if greedy_collapse(MG) is None:
            raise CriterionFailure("M(G) should collapse to a point")
        if greedy_collapse(MGp) is None:
            raise CriterionFailure("M(G') should collapse to a point")
        if find_isomorphism(G, Gp) is not None:
            raise CriterionFailure("G and G' must not be isomorphic")
        eG = invariants(G).euler
        eGp = invariants(Gp).euler
        if (eG, eGp) != (1, 0):
            raise CriterionFailure(f"euler {eG}, {eGp} != 1, 0")
        return "both Morse complexes collapse; the graphs differ (euler 1 vs 0)"

    return _result("counterexample", check)


def criterion_complex_determination(max_vertices: int = 5, budget: Optional[Budget] = None) -> CriterionResult:
    """Morse complexes distinguish connected complexes; found isomorphisms
    reconstruct."""

    def check():
        corpus = connected_complexes(max_vertices)
        morse = [morse_complex(K, budget) for K in corpus]
        amb = verified = 0
        for i, j in combinations(range(len(corpus)), 2):
            morse_iso = find_isomorphism(morse[i], morse[j])
            complex_iso = find_isomorphism(corpus[i], corpus[j])
            if complex_iso is not None:
                raise CriterionFailure(
                    f"corpus members {i}, {j} should be non-isomorphic")
            if morse_iso is not None:
                raise CriterionFailure(
                    f"Morse complexes of non-isomorphic members {i}, {j} are isomorphic")
        for i, K in enumerate(corpus):
            M = morse[i]
            if is_boundary_simplex(K) is None:
                automorphisms = [find_morse_isomorphism(M, M)]
            else:
                # only here may an automorphism move index-0 pairs: take all
                automorphisms = [MorseIso.from_vertex_bijection(M, M, a)
                                 for a in all_isomorphisms(M, M)]
            for F in automorphisms:
                if F is None:
                    raise CriterionFailure(f"no automorphism found for member {i}")
                f = reconstruct_complex_iso(F)
                if not f.is_simplicial_isomorphism(K, K):
                    raise CriterionFailure(
                        f"reconstruction of member {i} is not an isomorphism")
                verified += 1
                if detect_index_anomaly(F) is not None:
                    amb += 1
        return (f"{len(corpus)} complexes: Morse iso <=> complex iso on all pairs; "
                f"all {verified} reconstructions verified "
                f"({amb} anomalous automorphisms encountered)")

    return _result("complex-determination", check)


def criterion_multigraph_determination(max_vertices: int = 4, max_multiplicity: int = 3,
                        budget: Optional[Budget] = None) -> CriterionResult:
    """Same double implication for multigraphs, through the quotient route,
    with the parallel-pair characterization checked literally."""

    def check():
        corpus = connected_multigraphs(max_vertices, max_multiplicity)
        morse = [morse_complex(G, budget) for G in corpus]
        for i, j in combinations(range(len(corpus)), 2):
            morse_iso = find_isomorphism(morse[i], morse[j])
            graph_iso = find_multigraph_isomorphism(corpus[i], corpus[j])
            if graph_iso is not None:
                raise CriterionFailure(f"members {i}, {j} should be non-isomorphic")
            if morse_iso is not None:
                raise CriterionFailure(
                    f"Morse complexes of non-isomorphic multigraphs {i}, {j} are isomorphic")
        checked_pairs = 0
        for i, G in enumerate(corpus):
            F = find_morse_isomorphism(morse[i], morse[i])
            if F is None:
                raise CriterionFailure(f"no automorphism found for member {i}")
            f, edge_map = reconstruct_multigraph_iso(F)
            for u in G.labels:
                for v in G.labels:
                    if u < v:
                        if G.multiplicity(u, v) != G.multiplicity(f(u), f(v)):
                            raise CriterionFailure(
                                f"reconstruction of member {i} changes the "
                                f"multiplicity of {u}-{v}")
            if sorted(edge_map) != list(G.edge_ids):
                raise CriterionFailure(
                    f"edge map of member {i} does not cover its edges")
            if G.n_vertices >= 3:
                M = morse[i]
                for p, q in combinations(M.pairs, 2):
                    if parallel_pairs(p, q, M) != parallel_by_definition(p, q, G):
                        raise CriterionFailure(
                            f"parallel-pair characterization fails on {G!r}: {p}, {q}")
                    checked_pairs += 1
        return (f"{len(corpus)} multigraphs: Morse iso <=> multigraph iso; "
                f"reconstructions verified; parallel characterization exact "
                f"on {checked_pairs} pair-pairs")

    return _result("multigraph-determination", check)


def criterion_functoriality(samples: int = 1000, seed: int = 0,
                            max_vertices: int = 5,
                            budget: Optional[Budget] = None) -> CriterionResult:
    """Recover a random relabelling exactly from its induced Morse isomorphism."""

    def check():
        corpus = connected_complexes(max_vertices)
        eligible = [K for K in corpus
                    if is_boundary_simplex(K) is None
                    and K.cycle_length() is None]
        rng = random.Random(seed)
        morse_cache = {}
        for _ in range(samples):
            K = rng.choice(eligible)
            if K not in morse_cache:
                morse_cache[K] = morse_complex(K, budget)
            M_K = morse_cache[K]
            Kp, h = permuted_copy(K, rng)
            M_Kp = morse_complex(Kp, budget)
            F = MorseIso.functorial(M_K, M_Kp, h)
            f = reconstruct_complex_iso(F)
            if f.forward != h.forward:
                raise CriterionFailure(
                    f"recovered map differs from the inducing permutation on {K!r}")
        return f"{samples} relabellings recovered exactly from their Morse isomorphisms"

    return _result("functoriality-roundtrip", check)


def brute_force_morse_facets(obj) -> set[frozenset]:
    """Independent oracle: filter the power set of the primitive pairs by the
    standalone matching and acyclicity predicates, keep the maximal ones."""
    pairs = primitive_pairs(obj)
    G = obj if not isinstance(obj, SimplicialComplex) else None
    simplices = set()
    for r in range(len(pairs) + 1):
        for combo in combinations(range(len(pairs)), r):
            chosen = [pairs[i] for i in combo]
            if is_matching(chosen) and is_acyclic(chosen, G):
                simplices.add(frozenset(combo))
    n = len(pairs)
    maximal = {s for s in simplices
               if s and not any(c not in s and (s | {c}) in simplices for c in range(n))}
    return maximal


def criterion_oracle(max_covers: int = 12, max_vertices: int = 5,
                     budget: Optional[Budget] = None) -> CriterionResult:
    """Layered facet enumeration equals the power-set oracle on small complexes."""

    def check():
        count = 0
        for K in connected_complexes(max_vertices):
            M = morse_complex(K, budget)
            if M.n_pairs > max_covers:
                continue
            mine = {frozenset(f) for f in M.facets()}
            oracle = brute_force_morse_facets(K)
            if mine != oracle:
                raise CriterionFailure(f"facet lists disagree on {K!r}")
            count += 1
        return f"{count} complexes with <= {max_covers} covers match the power-set oracle"

    return _result("oracle-equivalence", check)


def criterion_minimal_cycle_law(budget: Optional[Budget] = None) -> CriterionResult:
    """The consistently oriented pairs around the triangle are pairwise
    compatible, jointly incompatible, and span an empty triangle."""

    def check():
        C3 = cycle_graph(3)
        M = morse_complex(C3, budget)
        oriented = []
        for i in range(3):
            v, w = f"v{i}", f"v{(i + 1) % 3}"
            oriented.append(next(p for p in M.pairs
                                 if p.source == (v,) and w in p.target))
        for p, q in combinations(oriented, 2):
            if not M.is_simplex((p, q)):
                raise CriterionFailure(f"{p} and {q} should be compatible")
        if M.is_simplex(oriented):
            raise CriterionFailure("the three oriented pairs should be incompatible")
        if tuple(sorted(oriented)) not in minimal_gradient_cycles(M):
            raise CriterionFailure("the oriented pairs should be a minimal gradient cycle")
        span = M.induced_subcomplex(oriented)
        expected = boundary_simplex([M.id_of_pair(p) for p in oriented])
        if span != expected:
            raise CriterionFailure("spanned subcomplex should be the empty triangle")
        return "oriented triangle pairs: pairwise compatible, jointly not; span is a 2-sphere boundary"

    return _result("minimal-cycle-law", check)


def run_all(max_complex_vertices: int = 5, max_graph_vertices: int = 6,
            sample_7: int = 200, max_multigraph_vertices: int = 4,
            functoriality_samples: int = 1000,
            seed: int = 0, budget: Optional[Budget] = None) -> list[CriterionResult]:
    return [
        criterion_graph_counts(max_graph_vertices, sample_7, seed, budget),
        criterion_forest_identity(max_graph_vertices, budget),
        criterion_leaf_degree(max_graph_vertices, sample_7, seed, budget),
        criterion_wedge_datum(budget),
        criterion_counterexample(budget),
        criterion_complex_determination(max_complex_vertices, budget),
        criterion_multigraph_determination(max_multigraph_vertices, budget=budget),
        criterion_functoriality(functoriality_samples, seed, max_complex_vertices, budget),
        criterion_oracle(12, max_complex_vertices, budget),
        criterion_minimal_cycle_law(budget),
    ]
