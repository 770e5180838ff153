"""Reconstruction of a complex from an isomorphism of Morse complexes.

Given a simplicial isomorphism F between Morse complexes, these operations
produce an explicit isomorphism of the underlying objects: general complexes
by the source-vertex formula f(v) = source(F(v, e)) on the 1-skeleton,
extended skeleton by skeleton, and multigraphs via the same formula plus
parallel-class counting for the edges.  A simple graph is the 1-dimensional
case of the complex route, which it takes once the graph hypotheses hold.
Both routes read the formula off F's own index-0 pairs.  For a complex,
M(K^1) is the full subcomplex of M(K) on them, so F restricted there is
already validated and no Morse complex of a 1-skeleton is built.  For a
multigraph, the quotient by parallel pairs (read off the minimal non-faces,
never off the faces) keeps each pair's source, so no Morse complex of a
simplification is built.  Every step the theory guarantees is re-checked at
run time; a failed check raises TheoremContradictionError rather than
returning a wrong map.

Where F fixes no vertex map, each route falls back on the one isomorphism
engine: ``find_isomorphism`` for complexes, whose least map is then checked
with ``is_simplicial_isomorphism``, and ``find_multigraph_isomorphism`` for
multigraphs, whose edge map checks every parallel-class size.  Each fallback
is forced by a fact, which is checked before it is taken:

- an F that moves index-0 pairs to higher index: both complexes are then
  boundaries of simplices of one dimension (``detect_index_anomaly`` guards
  this case);
- a single vertex: its Morse complex is empty, so F carries nothing;
- a cycle, or a multigraph that simplifies to one, where the formula
  fails: some isomorphisms of a cycle's Morse complex are induced by no
  vertex map.  A cycle tries the formula first, so an induced F gives back
  its own vertex map; ``reconstruct_cycle`` confirms the cycle lengths;
- a multigraph bundle on at most two vertices: its Morse complex is
  discrete, so F carries nothing beyond the counts.

On a boundary, a single vertex or a bundle every vertex bijection is an
isomorphism, and the engine's least one pairs the labels in sorted order.
Every other complex, the full triangle included, takes the formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

from .complexes import (Multigraph, SimplicialComplex, VertexBijection,
                        is_boundary_simplex, union_find)
from .errors import (HypothesisViolationError, InvalidIsomorphismError,
                     TheoremContradictionError)
from .isomorphism import (find_isomorphism, find_multigraph_isomorphism,
                          multigraph_edge_map)
from .morse import MorseComplex, RegularPair


class MorseIso:
    """A simplicial isomorphism F: M(K) -> M(L) of Morse complexes, as a
    permutation of pair indices: ``image[i]`` is the M_L index of the image
    of pair i of M_K.

    Validated at construction: ``image`` must be a permutation of the pair
    indices, and it must map the minimal non-faces of one side exactly onto
    those of the other, which is equivalent to being simplicial in both
    directions and never touches the facet lists.
    """

    def __init__(self, M_K: MorseComplex, M_L: MorseComplex, image: Iterable[int]):
        self.M_K = M_K
        self.M_L = M_L
        self.image = tuple(image)
        n = M_K.n_pairs
        if M_L.n_pairs != n or sorted(self.image) != list(range(n)):
            raise InvalidIsomorphismError("pair map is not a bijection of the pair sets")
        # non-faces as bitmasks: the pair map is a bijection, so the sum of
        # the image bits of a non-face is the mask of its image
        bit = [1 << i for i in range(n)]
        image_bit = [1 << j for j in self.image]
        nf_K = {sum(map(image_bit.__getitem__, nf)) for nf in M_K.minimal_nonfaces()}
        nf_L = {sum(map(bit.__getitem__, nf)) for nf in M_L.minimal_nonfaces()}
        if nf_K != nf_L:
            raise InvalidIsomorphismError(
                "mapping does not preserve the minimal non-faces; not simplicial both ways")

    @classmethod
    def from_vertex_bijection(cls, M_K: MorseComplex, M_L: MorseComplex,
                              bij: VertexBijection) -> "MorseIso":
        """Lift a bijection of pair ids to a MorseIso."""
        return cls(M_K, M_L, [M_L.index_of_pair(M_L.pair_of_id(bij(pid)))
                              for pid in M_K.pair_ids])

    @classmethod
    def functorial(cls, M_K: MorseComplex, M_L: MorseComplex,
                   h: VertexBijection) -> "MorseIso":
        """The pairwise image of an isomorphism h of the underlying complexes:
        (source, target) -> (h source, h target)."""
        image = []
        for p in M_K.pairs:
            try:
                q = RegularPair(h.map_face(p.source), h.map_face(p.target), p.index)
                image.append(M_L.index_of_pair(q))
            except KeyError:
                raise InvalidIsomorphismError(f"h sends {p} to no pair of M_L") from None
        return cls(M_K, M_L, image)

    def __repr__(self):
        return f"MorseIso<{self.M_K.n_pairs} pairs>"


def find_morse_isomorphism(M_K: MorseComplex, M_L: MorseComplex) -> Optional[MorseIso]:
    """Search for a simplicial isomorphism between two Morse complexes."""
    bij = find_isomorphism(M_K, M_L)
    if bij is None:
        return None
    return MorseIso.from_vertex_bijection(M_K, M_L, bij)


class AnomalyWitness(NamedTuple):
    direction: str  # "forward" or "backward"
    pair: RegularPair
    image: RegularPair


def detect_index_anomaly(F: MorseIso) -> Optional[AnomalyWitness]:
    """First index-0 pair of M_K whose image has index >= 1, else the first
    index-0 pair of M_L whose preimage has; both are read off ``F.image``.

    A witness forces both complexes to be simplex boundaries; the caller must
    confirm that via is_boundary_simplex.
    """
    pairs_K, pairs_L = F.M_K.pairs, F.M_L.pairs
    for p, j in zip(pairs_K, F.image):
        if p.index == 0 and pairs_L[j].index >= 1:
            return AnomalyWitness("forward", p, pairs_L[j])
    preimage = sorted(range(len(F.image)), key=F.image.__getitem__)
    for q, i in zip(pairs_L, preimage):
        if q.index == 0 and pairs_K[i].index >= 1:
            return AnomalyWitness("backward", q, pairs_K[i])
    return None


# -- multigraph machinery ----------------------------------------------------

def parallel_by_definition(p: RegularPair, q: RegularPair, G: Multigraph) -> bool:
    """Literal parallelism: same source vertex, distinct parallel target edges."""
    if p.source != q.source or p.target == q.target:
        return False
    eb = G.boundary[G.edge_ids.index(p.target[0])]
    fb = G.boundary[G.edge_ids.index(q.target[0])]
    return eb == fb


def parallel_pairs(p: RegularPair, q: RegularPair, M: MorseComplex) -> bool:
    """Parallelism read off the Morse complex alone: the pairs are
    incompatible and have equal links in M(G), i.e. they are distinct and
    share a class of ``M.quotient_map()``, which is computed on the minimal
    non-faces of M(G).

    Requires a connected multigraph with at least three vertices.
    """
    G = M.source
    if not isinstance(G, Multigraph):
        raise HypothesisViolationError("parallel_pairs needs the Morse complex of a multigraph")
    if not G.is_connected() or G.n_vertices < 3:
        raise HypothesisViolationError(
            "parallel-pair characterization requires a connected multigraph "
            "with more than two vertices")
    i, j = M.index_of_pair(p), M.index_of_pair(q)
    classes = M.quotient_map()
    return i != j and classes[i] == classes[j]


@dataclass(frozen=True)
class QuotientComplex:
    """Vertex classes under the identify-non-adjacent-vertices-with-equal-links
    relation, plus the resulting quotient complex."""

    classes: tuple[tuple[str, ...], ...]
    quotient: SimplicialComplex
    projection: dict[str, str]  # vertex label -> representative label


def quotient(K: SimplicialComplex) -> QuotientComplex:
    """Identify vertices that are non-adjacent and have equal links."""
    n = K.n_vertices
    links = [K.link([K.labels[v]]) for v in range(n)]
    roots = union_find(n, ((v, w) for v in range(n) for w in range(v + 1, n)
                           if (v, w) not in K.simplices and links[v] == links[w]))
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(roots[v], []).append(v)
    classes = sorted(tuple(K.labels[v] for v in sorted(g)) for g in groups.values())
    # the relation is transitive for equal links; check the classes anyway
    for cls in classes:
        ids = sorted(K.labels.index(lab) for lab in cls)
        for a, b in combinations(ids, 2):
            if (a, b) in K.simplices or links[a] != links[b]:
                raise TheoremContradictionError(
                    f"{K.labels[a]} and {K.labels[b]} share a quotient class but are "
                    "adjacent or have different links")
    projection = {}
    for cls in classes:
        rep = cls[0]  # lexicographically least member
        for lab in cls:
            projection[lab] = rep
    faces = []
    for s in K.simplices:
        image = {projection[lab] for lab in K.to_labels(s)}
        if len(image) != len(s):
            raise TheoremContradictionError("related vertices share a simplex")
        faces.append(sorted(image))
    return QuotientComplex(tuple(classes), SimplicialComplex.closure(faces), projection)


def simplify(G: Multigraph) -> SimplicialComplex:
    """Identify parallel edges: the simple graph on the same vertices."""
    faces = [[lab] for lab in G.labels]
    faces += [[G.labels[u], G.labels[v]] for u, v in G.parallel_classes()]
    return SimplicialComplex.closure(faces)


# -- graph reconstruction ----------------------------------------------------

def _require_graph(K: SimplicialComplex, name: str):
    if K.dim > 1:
        raise HypothesisViolationError(f"{name} must be a graph (dimension <= 1)")
    if not K.is_connected():
        raise HypothesisViolationError(f"{name} must be connected")


def _source_formula(F: MorseIso) -> VertexBijection:
    """The vertex map f(v) = source(F(v, e)) read off the index-0 pairs of F,
    each paired with its image through ``F.image``; F keeps them at index 0
    when it has no index anomaly, and every pair of a multigraph is one
    (vertex, edge) at index 0.  The independence from the chosen edge is
    verified, as is injectivity."""
    by_source: dict[str, list[tuple[RegularPair, RegularPair]]] = {}
    pairs_L = F.M_L.pairs
    for p, j in zip(F.M_K.pairs, F.image):
        if p.index == 0:
            by_source.setdefault(p.source[0], []).append((p, pairs_L[j]))
    forward = {}
    for v in F.M_K.source.labels:
        incident = by_source.get(v, ())
        if not incident:
            raise TheoremContradictionError(
                f"{v} has no pair, yet a connected graph with >= 2 vertices "
                "has no isolated vertex")
        images = {q.source[0] for _, q in incident}
        if len(images) != 1:
            witness = {q.source[0]: p for p, q in incident}
            w1, w2 = sorted(witness)[:2]
            raise TheoremContradictionError(
                f"f({v}) depends on the incident edge: {witness[w1]} maps to "
                f"source {w1} but {witness[w2]} maps to source {w2}")
        forward[v] = images.pop()
    if len(set(forward.values())) != len(forward):
        raise TheoremContradictionError("reconstructed vertex map is not injective")
    return VertexBijection(forward)


def reconstruct_graph_iso(F: MorseIso) -> VertexBijection:
    """Explicit isomorphism between connected simple non-cycle graphs from an
    isomorphism of their Morse complexes: each vertex goes to the source of
    the image of any of its pairs.  Once the graph hypotheses are checked,
    this is ``reconstruct_complex_iso``, whose formula, consistency loop and
    final check cover the graph case."""
    G, H = F.M_K.source, F.M_L.source
    if not isinstance(G, SimplicialComplex) or not isinstance(H, SimplicialComplex):
        raise HypothesisViolationError("graph reconstruction expects simple graphs "
                                       "(1-dimensional simplicial complexes)")
    _require_graph(G, "G")
    _require_graph(H, "G'")
    if G.cycle_length() is not None or H.cycle_length() is not None:
        raise HypothesisViolationError(
            "the graph reconstruction theorem excludes cycles; use reconstruct_cycle")
    return reconstruct_complex_iso(F)


def reconstruct_cycle(G: SimplicialComplex, H: SimplicialComplex) -> Optional[int]:
    """Confirm by counting invariants that a graph Morse-equivalent to the
    n-cycle is the n-cycle: a connected graph with n vertices, n edges and
    no leaf has every degree 2, which is what ``cycle_length`` checks."""
    n = G.cycle_length()
    if n is None:
        raise HypothesisViolationError("reconstruct_cycle expects a cycle as first input")
    return n if H.cycle_length() == n else None


# -- full reconstruction -----------------------------------------------------

def reconstruct_complex_iso(F: MorseIso) -> VertexBijection:
    """Explicit isomorphism K -> L from an isomorphism of Morse complexes.

    Route: read the vertex map off F's index-0 pairs (the graph case on the
    1-skeletons), then check the skeleton-by-skeleton extension on every
    regular pair.  The boundary-of-a-simplex anomaly, a single vertex and a
    cycle on which that fails take the engine's least isomorphism instead.
    Either map is verified to be an isomorphism of the full complexes.
    """
    K, L = F.M_K.source, F.M_L.source
    if not isinstance(K, SimplicialComplex) or not isinstance(L, SimplicialComplex):
        raise HypothesisViolationError(
            "complex reconstruction expects simplicial complexes; "
            "use reconstruct_multigraph_iso for multigraphs")
    if not K.is_connected() or not L.is_connected():
        raise HypothesisViolationError("both complexes must be connected")

    witness = detect_index_anomaly(F)
    f = None
    if witness is not None:
        m, mL = is_boundary_simplex(K), is_boundary_simplex(L)
        if m is None or mL != m:
            raise TheoremContradictionError(
                f"index anomaly {witness} outside boundaries of simplices")
    elif K.n_vertices == 1:
        if L.n_vertices != 1:
            raise TheoremContradictionError("empty Morse complex forces a single vertex")
    else:
        cycle = K.cycle_length() is not None
        if cycle and reconstruct_cycle(K, L) is None:
            raise TheoremContradictionError("cycle must map to a cycle of the same length")
        try:
            f = _source_formula(F)
            # skeleton-by-skeleton consistency: F must act on every pair as f does
            for p, j in zip(F.M_K.pairs, F.image):
                expected = RegularPair(f.map_face(p.source), f.map_face(p.target), p.index)
                got = F.M_L.pairs[j]
                if got != expected:
                    raise TheoremContradictionError(
                        f"inductive extension fails at index {p.index}: "
                        f"F{p} = {got}, expected {expected}")
        except TheoremContradictionError:
            # only a cycle has Morse isomorphisms that no vertex map induces
            if not cycle:
                raise
            f = None
    if f is None:
        # F fixes no vertex map: take the least isomorphism the engine finds
        f = find_isomorphism(K, L)
    if f is None or not f.is_simplicial_isomorphism(K, L):
        raise TheoremContradictionError("reconstructed map is not an isomorphism of complexes")
    return f


def reconstruct_multigraph_iso(F: MorseIso) -> tuple[VertexBijection, dict[str, str]]:
    """Explicit multigraph isomorphism from an isomorphism of Morse complexes.

    Route: each vertex goes to the source of the image of any of its pairs,
    the formula of the simple-graph case.  It holds for F itself because the
    quotient by parallel pairs keeps each pair's source, so no Morse complex
    of a simplification is built.  Bundles on at most two vertices, and
    multigraphs that simplify to a cycle where the formula fails, take
    ``find_multigraph_isomorphism`` instead: the least vertex map keeping
    every parallel-class size.  Either way the edge bijection is
    ``multigraph_edge_map``, lexicographic within each class; its class-size
    check, with equal vertex and edge counts, verifies the pair of maps as a
    multigraph isomorphism.
    """
    G, H = F.M_K.source, F.M_L.source
    if not isinstance(G, Multigraph) or not isinstance(H, Multigraph):
        raise HypothesisViolationError("multigraph reconstruction expects multigraphs")
    if not G.is_connected() or not H.is_connected():
        raise HypothesisViolationError("both multigraphs must be connected")
    if H.n_vertices != G.n_vertices or H.n_edges != G.n_edges:
        raise TheoremContradictionError("pair counts force equal vertex and edge counts")

    if G.n_vertices > 2:
        sG = simplify(G)
        simple_cycle = sG.cycle_length() is not None
        if simple_cycle and reconstruct_cycle(sG, simplify(H)) is None:
            raise TheoremContradictionError("simplified cycle must map to an equal cycle")
        try:
            f = _source_formula(F)
            return f, multigraph_edge_map(G, H, f)
        except TheoremContradictionError:
            if not simple_cycle:
                raise
    # F fixes no vertex map: take the least isomorphism the engine finds; its
    # edge map checks every parallel-class size
    found = find_multigraph_isomorphism(G, H)
    if found is None:
        raise TheoremContradictionError("Morse-equivalent multigraphs must be isomorphic")
    return found
