"""Cheap topological invariants: f-vector, Euler characteristic, connected
components, mod-2 Betti numbers and a greedy collapsibility witness.

Betti numbers are computed over the two-element field by boundary-matrix
elimination on integer bitmasks; no torsion bookkeeping, by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, gf2_rank, immediate_faces
from .errors import MalformedInputError, TheoremContradictionError


@dataclass(frozen=True)
class InvariantReport:
    f_vector: tuple[int, ...]
    euler: int
    components: int
    betti_mod2: tuple[int, ...]
    collapsible: bool


def betti_mod2(K: SimplicialComplex) -> tuple[int, ...]:
    """Mod-2 Betti numbers b_0..b_dim."""
    if not K.simplices:
        raise MalformedInputError("empty complex has no invariants")
    dim = K.dim
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(dim + 1)]
    for s in K.simplices:
        by_dim[len(s) - 1].append(s)
    for level in by_dim:
        level.sort()
    pos = [{s: i for i, s in enumerate(level)} for level in by_dim]

    ranks = [0] * (dim + 2)  # ranks[k] = rank of boundary C_k -> C_{k-1}
    for k in range(1, dim + 1):
        cols = []
        for s in by_dim[k]:
            mask = 0
            for f in immediate_faces(s):
                mask |= 1 << pos[k - 1][f]
            cols.append(mask)
        ranks[k] = gf2_rank(cols)

    betti = []
    for k in range(dim + 1):
        betti.append(len(by_dim[k]) - ranks[k] - ranks[k + 1])
    return tuple(betti)


def greedy_collapse(K: SimplicialComplex) -> Optional[list[tuple[tuple[str, ...], tuple[str, ...]]]]:
    """Greedy sequence of elementary collapses down to a single vertex.

    At each step the lexicographically least free face (a simplex properly
    contained in exactly one other simplex) is removed together with its
    unique coface, and the scan restarts.  Success certifies contractibility;
    failure proves nothing.
    """
    from itertools import combinations

    simplices = set(K.simplices)
    if not simplices:
        return None
    # proper-coface counts, kept current as pairs are removed; a free face
    # has count 1, and its unique coface then has codimension 1
    cnt = {s: 0 for s in simplices}
    for t in simplices:
        for r in range(1, len(t)):
            for f in combinations(t, r):
                cnt[f] += 1
    order = sorted(simplices, key=K.to_labels)
    sequence = []

    def remove(x):
        simplices.discard(x)
        for r in range(1, len(x)):
            for f in combinations(x, r):
                cnt[f] -= 1

    while len(simplices) > 1:
        sigma = next((s for s in order if s in simplices and cnt[s] == 1), None)
        if sigma is None:
            return None
        tau = None
        for v in range(K.n_vertices):
            if v not in sigma:
                cand = tuple(sorted(sigma + (v,)))
                if cand in simplices:
                    tau = cand
                    break
        if tau is None:
            raise TheoremContradictionError(
                f"free face {K.to_labels(sigma)} has no codimension-1 coface")
        remove(sigma)
        remove(tau)
        sequence.append((K.to_labels(sigma), K.to_labels(tau)))
    (last,) = simplices
    if len(last) != 1:
        raise TheoremContradictionError("a collapse sequence must end at a vertex")
    return sequence


def invariants(K: SimplicialComplex) -> InvariantReport:
    """Exact invariant report; requires a nonempty complex."""
    if not K.simplices:
        raise MalformedInputError("empty complex has no invariants")
    f_vec = K.f_vector()
    euler = sum((-1) ** k * c for k, c in enumerate(f_vec))
    betti = betti_mod2(K)
    if euler != sum((-1) ** k * b for k, b in enumerate(betti)):
        raise TheoremContradictionError(
            f"Euler characteristic {euler} differs from the alternating Betti sum {betti}")
    return InvariantReport(
        f_vector=f_vec,
        euler=euler,
        components=K.components(),
        betti_mod2=betti,
        collapsible=greedy_collapse(K) is not None,
    )
