"""Complexes of directed forests.

For a loop-free directed multigraph D, the forest complex has one vertex per
arc; a set of arcs spans a simplex when no two arcs share a tail and the arcs
contain no directed cycle (each component is then a tree whose arcs all point
toward its root).  For a simple graph G, doubling every edge and taking the
forest complex reproduces the Morse complex of G under the identification of
the pair (v, e) with the arc leaving v along e.

This module deliberately avoids the matching machinery in ``morse``; it is
the independent side of that identity.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import SimplicialComplex
from .errors import HypothesisViolationError, MalformedInputError
from .morse import MorseComplex


class DirectedGraph:
    """Loop-free directed multigraph with named arcs."""

    __slots__ = ("labels", "arc_names", "arcs", "_index")

    def __init__(self, labels: tuple[str, ...], arc_names: tuple[str, ...],
                 arcs: tuple[tuple[int, int], ...]):
        if list(labels) != sorted(labels):
            raise MalformedInputError("label table must be sorted")
        if not len(arc_names) == len(set(arc_names)) == len(arcs):
            raise MalformedInputError("arc names must be distinct, one per arc")
        for t, h in arcs:
            if t == h:
                raise MalformedInputError("loop arc in directed graph")
        self.labels = labels
        self.arc_names = arc_names
        self.arcs = arcs
        self._index = {lab: i for i, lab in enumerate(labels)}

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple[str, str, str]]) -> "DirectedGraph":
        """Build from (name, tail, head) triples."""
        arcs = [(str(n), str(t), str(h)) for n, t, h in arcs]
        labels = tuple(sorted({v for _, t, h in arcs for v in (t, h)}))
        index = {lab: i for i, lab in enumerate(labels)}
        order = sorted(arcs)
        return cls(labels,
                   tuple(n for n, _, _ in order),
                   tuple((index[t], index[h]) for _, t, h in order))

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)


def arrow_name(tail: str, head: str) -> str:
    return f"{tail}>{head}"


def double(G: SimplicialComplex) -> DirectedGraph:
    """The double of a simple graph: one arc in each direction per edge."""
    if G.dim > 1:
        raise MalformedInputError("double is defined for graphs (dimension <= 1)")
    arcs = []
    for e in G.edges():
        u, v = G.to_labels(e)
        arcs.append((arrow_name(u, v), u, v))
        arcs.append((arrow_name(v, u), v, u))
    if not arcs:
        return DirectedGraph(G.labels, (), ())
    D = DirectedGraph.from_arcs(arcs)
    if set(D.labels) != set(G.labels):
        # isolated vertices carry no arcs but stay in the vertex set
        D = DirectedGraph(G.labels, D.arc_names,
                          tuple((G.labels.index(D.labels[t]), G.labels.index(D.labels[h]))
                                for t, h in D.arcs))
    return D


def directed_forest_complex(D: DirectedGraph) -> SimplicialComplex:
    """All directed forests of D, as an explicit complex on the arc names.

    A subset of arcs is a face when tails are pairwise distinct and following
    arcs never returns to a starting vertex.  With distinct tails the chosen
    arcs form a partial function vertex -> vertex, so the cycle test just
    walks that function.
    """
    m = D.n_arcs
    faces = []
    succ: dict[int, int] = {}

    def closes_cycle(tail: int, head: int) -> bool:
        x = head
        while x in succ:
            x = succ[x]
            if x == tail:
                return True
        return x == tail

    def rec(start: int, chosen: list[int]):
        if chosen:
            faces.append(tuple(D.arc_names[i] for i in chosen))
        for i in range(start, m):
            t, h = D.arcs[i]
            if t in succ or closes_cycle(t, h):
                continue
            succ[t] = h
            chosen.append(i)
            rec(i + 1, chosen)
            chosen.pop()
            del succ[t]

    rec(0, [])
    if not faces:
        return SimplicialComplex((), frozenset())
    return SimplicialComplex.closure(faces)


def morse_arrow_labels(M: MorseComplex) -> tuple[str, ...]:
    """Arrow names for the pairs of a graph's Morse complex: the pair with
    source v along edge vw becomes the arc v -> w."""
    out = []
    for p in M.pairs:
        if p.index != 0 or len(p.target) != 2:
            raise HypothesisViolationError("arrow labels exist for graph pairs only")
        v = p.source[0]
        w = p.target[0] if p.target[1] == v else p.target[1]
        out.append(arrow_name(v, w))
    return tuple(out)


def forest_identity_holds(G: SimplicialComplex, M: MorseComplex) -> bool:
    """Exact labelled equality of the Morse complex of a simple graph with the
    forest complex of its double."""
    lhs = M.as_complex(labels=morse_arrow_labels(M))
    rhs = directed_forest_complex(double(G))
    return lhs == rhs
