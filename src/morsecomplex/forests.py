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

from .budget import DEFAULT_BUDGET, Budget, _check_deadline
from .complexes import SimplicialComplex
from .errors import HypothesisViolationError, MalformedInputError
from .morse import MorseComplex


class DirectedGraph:
    """Loop-free directed multigraph with named arcs."""

    __slots__ = ("labels", "arc_names", "arcs")

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
    for u, v in G.edges():
        arcs.append((arrow_name(G.labels[u], G.labels[v]), u, v))
        arcs.append((arrow_name(G.labels[v], G.labels[u]), v, u))
    arcs.sort()
    # over G's own label table, so isolated vertices stay in the vertex set
    return DirectedGraph(G.labels, tuple(n for n, _, _ in arcs),
                         tuple((t, h) for _, t, h in arcs))


def directed_forest_complex(D: DirectedGraph,
                            budget: Budget = DEFAULT_BUDGET) -> SimplicialComplex:
    """All directed forests of D, as an explicit complex on the arc names.

    A subset of arcs is a face when tails are pairwise distinct and following
    arcs never returns to a starting vertex.  With distinct tails the chosen
    arcs form a partial function vertex -> vertex, so the cycle test just
    walks that function.  Every subset of a forest is a forest, so the
    forests listed are the simplices themselves, with no closure to take.
    The listing checks the budget's deadline every 4,096 faces.
    """
    deadline = budget.deadline()
    names = tuple(sorted(D.arc_names))
    # the arcs in name order, so that each chosen index tuple is a simplex
    arcs = [D.arcs[i] for i in sorted(range(D.n_arcs), key=D.arc_names.__getitem__)]
    m = len(arcs)
    faces = []
    succ: dict[int, int] = {}

    def closes_cycle(tail: int, head: int) -> bool:
        x = head
        while x in succ:
            x = succ[x]
            if x == tail:
                return True
        return x == tail

    # depth-first over arc subsets in increasing order, on an explicit stack:
    # chosen[d] is the arc added at depth d, resume[d] the next arc to try
    chosen: list[int] = []
    resume = [0]
    while resume:
        i = resume[-1]
        while i < m and (arcs[i][0] in succ or closes_cycle(*arcs[i])):
            i += 1
        if i == m:
            resume.pop()
            if chosen:
                del succ[arcs[chosen.pop()][0]]
            continue
        resume[-1] = i + 1
        t, h = arcs[i]
        succ[t] = h
        chosen.append(i)
        faces.append(tuple(chosen))
        if len(faces) % 4096 == 0:
            _check_deadline(deadline, "enumerating directed forests")
        resume.append(i + 1)
    if not faces:
        return SimplicialComplex((), frozenset())
    return SimplicialComplex(names, frozenset(faces))


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
    forest complex of its double, the latter under M's budget."""
    lhs = M.as_complex(labels=morse_arrow_labels(M))
    rhs = directed_forest_complex(double(G), M.budget)
    return lhs == rhs
