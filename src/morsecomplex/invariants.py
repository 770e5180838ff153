"""Cheap topological invariants: f-vector, Euler characteristic, connected
components, mod-2 Betti numbers and a greedy collapsibility witness, the last
two on the Hasse diagram that the Morse engine uses.  Betti numbers are over
the two-element field; no torsion bookkeeping, by design.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex
from .errors import MalformedInputError, TheoremContradictionError
from .morse import hasse


@dataclass(frozen=True)
class InvariantReport:
    f_vector: tuple[int, ...]
    euler: int
    components: int
    betti_mod2: tuple[int, ...]
    collapsible: bool


def betti_mod2(K: SimplicialComplex) -> tuple[int, ...]:
    """Mod-2 Betti numbers b_0..b_dim: b_k = f_k - r_k - r_{k+1}, with r_k
    the GF(2) rank of the boundary map from the k-cells of the Hasse diagram
    (r_0 = r_{dim+1} = 0)."""
    if not K.simplices:
        raise MalformedInputError("empty complex has no invariants")
    ranks = hasse(K).boundary_ranks()
    return tuple(f - ranks.get(k, 0) - ranks.get(k + 1, 0)
                 for k, f in enumerate(K.f_vector()))


def greedy_collapse(K: SimplicialComplex) -> Optional[list[tuple[tuple[str, ...], tuple[str, ...]]]]:
    """Greedy sequence of elementary collapses down to a single vertex.

    At each step the lexicographically least free face (a simplex properly
    contained in exactly one other simplex) is removed together with its
    unique coface.  Success certifies contractibility; failure proves nothing.

    A face is free exactly when it has one codimension-1 coface still present
    and that coface is maximal, so each cell of the Hasse diagram keeps its
    up-degree.  A heap keyed by label tuple holds the faces that
    may be free: a face goes in when its up-degree drops to 1 or when its one
    coface becomes maximal, and is checked when it comes out.
    """
    if not K.simplices:
        return None
    H = hasse(K)
    cells = H.cells
    parents: list[list[int]] = [[] for _ in cells]
    for s, t in H.covers:
        parents[s].append(t)
    up = [len(ps) for ps in parents]
    alive = [True] * len(cells)
    heap = [(cells[c][1], c) for c in range(len(cells)) if up[c] == 1]
    heapq.heapify(heap)

    def release(x):
        """Lower the up-degrees of the faces of x, which has just gone."""
        for c in H.children.get(x, ()):
            if not alive[c]:
                continue
            up[c] -= 1
            if up[c] == 1:
                heapq.heappush(heap, (cells[c][1], c))
            elif up[c] == 0:  # c is now maximal
                for g in H.children.get(c, ()):
                    if up[g] == 1:
                        heapq.heappush(heap, (cells[g][1], g))

    sequence = []
    while 2 * len(sequence) < len(cells) - 1:
        while heap:
            name, sigma = heapq.heappop(heap)
            if alive[sigma] and up[sigma] == 1:
                tau = next(t for t in parents[sigma] if alive[t])
                if up[tau] == 0:
                    break
        else:
            return None
        alive[sigma] = alive[tau] = False
        release(tau)
        release(sigma)
        sequence.append((name, cells[tau][1]))
    if cells[alive.index(True)][0] != 0:
        raise TheoremContradictionError("a collapse sequence must end at a vertex")
    return sequence


def invariants(K: SimplicialComplex) -> InvariantReport:
    """Exact invariant report; requires a nonempty complex.

    The Betti numbers are checked against what the boundary ranks cannot
    fake: b_0 against the components found by union-find on the edges, and
    every b_k >= 0, which holds because the boundary of a boundary is zero.
    """
    if not K.simplices:
        raise MalformedInputError("empty complex has no invariants")
    f_vec = K.f_vector()
    betti = betti_mod2(K)
    components = K.components()
    if betti[0] != components:
        raise TheoremContradictionError(
            f"b_0 of the mod-2 Betti numbers {betti} differs from the "
            f"{components} connected components")
    if min(betti) < 0:
        raise TheoremContradictionError(f"negative mod-2 Betti number in {betti}")
    return InvariantReport(
        f_vector=f_vec,
        euler=sum((-1) ** k * c for k, c in enumerate(f_vec)),
        components=components,
        betti_mod2=betti,
        collapsible=greedy_collapse(K) is not None,
    )
