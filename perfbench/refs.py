"""Reference answers, computed without the library's decision code.

Each check reads only the plain data of an input (labels, simplices, edge
boundaries), uses a closed form, or runs the library's standalone oracle
predicates (``is_matching``, ``is_acyclic``, ``parallel_by_definition``).
Where no independent reference exists the answer is compared with a value
recorded when the benchmark was defined; those live in ``REGRESSION`` and
are reported as regression references.
"""

from __future__ import annotations

import hashlib
from itertools import permutations

# The facet count of M(Δ4) stated in the paper.
PAPER_D4_FACETS = 16_369_045

# Values with no independent reference, recorded from the library when the
# benchmark was defined.  Regression references: a change to them is a change
# of behaviour, not proof of a fault.
REGRESSION = {
    "facet_count:bd4": 8_328_325,
    "build_sha256:K6": "d837e561de9493ebccb26adaa2610870b41ce1207fdfbeed9180458cc6294b97",
    "build_sha256:K7": "26ab7eea5d32a1301175c507eeb4ce0f44698d95d4622bed255ef8d5ee0c25a3",
    "build_sha256:C12": "448f92529ddf6172c5ef13d3f5d4d2f6b2ae1f54d45fdda4c1c9eaa3a186843b",
    "build_sha256:star12": "baced93f150a0881ee177f1cc648ae735fe6f30f25ac439d32e6a4b2e7b97306",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- complexes ---------------------------------------------------------------

def label_facets(K) -> frozenset:
    """Maximal simplices of K as frozensets of labels, from its simplex set."""
    simplices = K.simplices
    out = []
    for s in simplices:
        present = set(s)
        if not any(tuple(sorted(present | {v})) in simplices
                   for v in range(len(K.labels)) if v not in present):
            out.append(frozenset(K.labels[v] for v in s))
    return frozenset(out)


def canonical_form(K) -> tuple:
    """Least relabelled facet list over every vertex permutation (n <= 6)."""
    n = len(K.labels)
    if n > 6:
        raise ValueError("brute-force canonical forms are for at most 6 vertices")
    index = {lab: i for i, lab in enumerate(K.labels)}
    facets = [tuple(index[v] for v in f) for f in label_facets(K)]
    return min(tuple(sorted(tuple(sorted(p[v] for v in f)) for f in facets))
               for p in permutations(range(n)))


def maps_complex(forward: dict, K, L) -> bool:
    """True iff ``forward`` is a bijection of vertex labels carrying the facet
    set of K exactly onto that of L."""
    if set(forward) != set(K.labels) or set(forward.values()) != set(L.labels):
        return False
    image = frozenset(frozenset(forward[v] for v in f) for f in label_facets(K))
    return image == label_facets(L)


def maps_multigraph(forward: dict, edge_map: dict, A, B) -> bool:
    """True iff the vertex and edge bijections carry multigraph A onto B."""
    if set(forward) != set(A.labels) or set(forward.values()) != set(B.labels):
        return False
    if set(edge_map) != set(A.edge_ids) or set(edge_map.values()) != set(B.edge_ids):
        return False
    ends_b = {e: {B.labels[u], B.labels[v]} for e, (u, v) in zip(B.edge_ids, B.boundary)}
    return all(ends_b[edge_map[e]] == {forward[A.labels[u]], forward[A.labels[v]]}
               for e, (u, v) in zip(A.edge_ids, A.boundary))


# -- facets of Morse complexes -----------------------------------------------

def oracle_facets(morse, K) -> frozenset:
    """Facets of M(K) as sets of regular pairs.

    The power-set oracle of ``verify.brute_force_morse_facets``, with the same
    standalone ``is_matching``/``is_acyclic`` predicates, pruned by downward
    closure: a set extending a non-simplex is never a simplex, so the search
    skips it without changing the answer.
    """
    pairs = morse.primitive_pairs(K)
    faces = set()

    def grow(chosen: list, start: int):
        faces.add(frozenset(chosen))
        for j in range(start, len(pairs)):
            trial = chosen + [pairs[j]]
            if morse.is_matching(trial) and morse.is_acyclic(trial):
                grow(trial, j + 1)

    grow([], 0)
    return frozenset(f for f in faces
                     if f and not any(p not in f and (f | {p}) in faces for p in pairs))


def parse_build_output(text: str) -> list:
    """Facets of a ``morsecx build`` listing as lists of (source, target,
    index) triples, which compare equal to regular pairs."""
    table = {}
    facets = []
    for line in text.splitlines():
        if line.startswith("# "):
            pid, index, source, _, target = line[2:].split()
            table[pid] = (tuple(source.split(",")), tuple(target.split(",")), int(index))
        elif line.strip():
            facets.append(line.split())
    return [[table[pid] for pid in f] for f in facets]


def facets_digest(facets) -> str:
    """Digest of a facet family, independent of the order of facets and of
    pairs within them.  Kept in place of the family itself, so stored answers
    add nothing to the heap the garbage collector walks during later ops."""
    rows = sorted(";".join(sorted(f"{p[2]}|{','.join(p[0])}|{','.join(p[1])}" for p in f))
                  for f in facets)
    return sha256("\n".join(rows))


def complete_graph_facets(n: int) -> int:
    """Facets of M(K_n): the rooted spanning trees, n * n^(n-2) by Cayley."""
    return n ** (n - 1)


def cycle_facets(n: int) -> int:
    """Facets of M(C_n).  Cells as nodes and pairs as edges form a 2n-cycle,
    so pair sets using no cell twice are its matchings; the maximal ones
    number Perrin(2n).  The two perfect matchings are the two gradient
    cycles, replaced by their 2n maximal acyclic subsets."""
    perrin = [3, 0, 2]
    while len(perrin) <= 2 * n:
        perrin.append(perrin[-2] + perrin[-3])
    return perrin[2 * n] - 2 + 2 * n


def star_facets(leaves: int) -> int:
    """Facets of M(star): every leaf matched to its edge except the one whose
    edge the centre takes, or the centre unmatched."""
    return leaves + 1


def morse_dimension(n_cells: int, n_critical: int) -> int:
    """dim M(K) = (#cells - #critical)/2 - 1 for an optimal acyclic matching.

    Graphs, simplices and their boundaries have perfect discrete Morse
    functions, so the least number of critical cells is the sum of the
    mod-2 Betti numbers."""
    return (n_cells - n_critical) // 2 - 1
