"""Finite simplicial complexes, multigraphs and their face combinatorics.

Vertex labels are arbitrary strings at the API boundary; internally a complex
stores a sorted label table and works with dense integer ids so that canonical
orderings are stable and reproducible.  Simplices are strictly increasing
tuples of vertex ids.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from .errors import MalformedInputError, NotAFaceError

Simplex = tuple[int, ...]


def immediate_faces(simplex: tuple) -> list[tuple]:
    """All codimension-1 faces of a simplex, in lexicographic order.

    A vertex (dim 0) has no immediate faces; returns the empty list.
    """
    if len(simplex) <= 1:
        return []
    return sorted(simplex[:i] + simplex[i + 1:] for i in range(len(simplex)))


def union_find(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Per element of 0..n-1, the root of its class under the equivalence
    relation generated by the given pairs."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
    return [find(v) for v in range(n)]


def gf2_rank(columns: Iterable[int]) -> int:
    """Rank of a set of column bitmasks over GF(2)."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            lead = col.bit_length() - 1
            if lead in pivots:
                col ^= pivots[lead]
            else:
                pivots[lead] = col
                rank += 1
                break
    return rank


class SimplicialComplex:
    """Immutable finite abstract simplicial complex.

    ``labels`` maps internal vertex ids (positions) to string labels and is
    always sorted; ``simplices`` holds every face as an id tuple.  The empty
    complex (no vertices) is representable.
    """

    __slots__ = ("labels", "simplices", "_facets", "_index")

    def __init__(self, labels: tuple[str, ...], simplices: frozenset[Simplex]):
        if list(labels) != sorted(labels):
            raise MalformedInputError("label table must be sorted")
        self.labels = labels
        self.simplices = simplices
        self._facets: Optional[tuple[Simplex, ...]] = None
        self._index = {lab: i for i, lab in enumerate(labels)}
        if simplices:
            used = set()
            for s in simplices:
                used.update(s)
            if used != set(range(len(labels))):
                raise MalformedInputError("vertex set must equal union of simplices")
        elif labels != ():
            raise MalformedInputError("the empty complex has no vertices")

    # -- construction ----------------------------------------------------

    @classmethod
    def closure(cls, faces: Iterable[Iterable[str]]) -> "SimplicialComplex":
        """Smallest face-closed complex containing the given label simplices."""
        face_lists = []
        vocab = set()
        for face in faces:
            face = [str(v) for v in face]
            if len(set(face)) != len(face):
                raise MalformedInputError(f"duplicate vertex in simplex {face!r}")
            if not face:
                raise MalformedInputError("empty simplex in input")
            face_lists.append(face)
            vocab.update(face)
        labels = tuple(sorted(vocab))
        index = {lab: i for i, lab in enumerate(labels)}
        simplices = set()
        for face in face_lists:
            ids = tuple(sorted(index[v] for v in face))
            for r in range(1, len(ids) + 1):
                simplices.update(combinations(ids, r))
        return cls(labels, frozenset(simplices))

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        return max((len(s) for s in self.simplices), default=0) - 1

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def f_vector(self) -> tuple[int, ...]:
        """Simplex counts per dimension 0..dim."""
        counts = [0] * (self.dim + 1)
        for s in self.simplices:
            counts[len(s) - 1] += 1
        return tuple(counts)

    def to_ids(self, face: Iterable[str]) -> Simplex:
        try:
            return tuple(sorted(self._index[str(v)] for v in face))
        except KeyError as e:
            raise NotAFaceError(f"unknown vertex label {e.args[0]!r}") from None

    def to_labels(self, simplex: Simplex) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in simplex)

    def has_labels(self, face: Iterable[str]) -> bool:
        face = [str(v) for v in face]
        if any(v not in self._index for v in face):
            return False
        return tuple(sorted(self._index[v] for v in face)) in self.simplices

    def facets(self) -> tuple[Simplex, ...]:
        """Maximal simplices, sorted lexicographically as label tuples."""
        if self._facets is None:
            nonmax = set()
            for s in self.simplices:
                for f in immediate_faces(s):
                    nonmax.add(f)
            facets = [s for s in self.simplices if s not in nonmax]
            facets.sort(key=self.to_labels)
            self._facets = tuple(facets)
        return self._facets

    def label_facets(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.to_labels(f) for f in self.facets())

    def label_simplices(self) -> list[tuple[str, ...]]:
        return sorted(self.to_labels(s) for s in self.simplices)

    def edges(self) -> list[Simplex]:
        return sorted(s for s in self.simplices if len(s) == 2)

    def degree(self, v: int) -> int:
        """Degree of a vertex in the 1-skeleton."""
        return sum(1 for s in self.simplices if len(s) == 2 and v in s)

    # -- derived complexes -----------------------------------------------

    def skeleton(self, k: int) -> "SimplicialComplex":
        """Subcomplex of all simplices of dimension <= k."""
        if k < 0:
            raise MalformedInputError("skeleton dimension must be >= 0")
        kept = frozenset(s for s in self.simplices if len(s) <= k + 1)
        return SimplicialComplex(self.labels, kept)

    def link(self, face: Iterable[str]) -> "SimplicialComplex":
        """Link of a face: simplices disjoint from it whose union with it is a face."""
        sigma = self.to_ids(face)
        if sigma not in self.simplices:
            raise NotAFaceError(f"{tuple(face)!r} is not a face of the complex")
        sset = set(sigma)
        members = []
        for tau in self.simplices:
            if sset.isdisjoint(tau) and tuple(sorted(set(tau) | sset)) in self.simplices:
                members.append(self.to_labels(tau))
        if not members:
            return SimplicialComplex((), frozenset())
        return SimplicialComplex.closure(members)

    def components(self) -> int:
        """Number of connected components of the 1-skeleton."""
        return len(set(union_find(len(self.labels),
                                  (s for s in self.simplices if len(s) == 2))))

    def is_connected(self) -> bool:
        """True iff the 1-skeleton has exactly one component; empty complex is not connected."""
        return self.components() == 1

    def cycle_length(self) -> Optional[int]:
        """n if the complex is the simple cycle on n >= 3 vertices, else None."""
        if self.dim != 1 or not self.is_connected():
            return None
        n = self.n_vertices
        if n < 3:
            return None
        deg = [0] * n
        for s in self.simplices:
            if len(s) == 2:
                deg[s[0]] += 1
                deg[s[1]] += 1
        return n if all(d == 2 for d in deg) else None

    # -- equality and display ---------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.labels == other.labels
                and self.simplices == other.simplices)

    def __hash__(self):
        return hash((self.labels, self.simplices))

    def __len__(self):
        return len(self.simplices)

    def __repr__(self):
        facets = [",".join(f) for f in self.label_facets()]
        return f"SimplicialComplex<{' '.join(facets) or 'empty'}>"


class Multigraph:
    """Finite multigraph: labelled vertices, identified parallel edges, no loops."""

    __slots__ = ("labels", "edge_ids", "boundary", "_index", "_eindex", "_connected")

    def __init__(self, labels: tuple[str, ...], edge_ids: tuple[str, ...],
                 boundary: tuple[tuple[int, int], ...]):
        if list(labels) != sorted(labels):
            raise MalformedInputError("label table must be sorted")
        if list(edge_ids) != sorted(edge_ids):
            raise MalformedInputError("edge id table must be sorted")
        if len(edge_ids) != len(boundary):
            raise MalformedInputError("every edge needs exactly one boundary")
        for u, v in boundary:
            if not 0 <= u < v < len(labels):
                raise MalformedInputError("edge boundary must be two distinct vertices")
        self.labels = labels
        self.edge_ids = edge_ids
        self.boundary = boundary
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._eindex = {e: i for i, e in enumerate(edge_ids)}
        self._connected: Optional[bool] = None  # filled on first use

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str, str]],
                   isolated: Iterable[str] = ()) -> "Multigraph":
        """Build from (edge_id, u, v) triples plus isolated vertex labels."""
        edges = [(str(e), str(u), str(v)) for e, u, v in edges]
        seen = set()
        vocab = {str(v) for v in isolated}
        for e, u, v in edges:
            if u == v:
                raise MalformedInputError(f"loop edge {e!r} at vertex {u!r}")
            if e in seen:
                raise MalformedInputError(f"duplicate edge id {e!r}")
            seen.add(e)
            vocab.update((u, v))
        labels = tuple(sorted(vocab))
        index = {lab: i for i, lab in enumerate(labels)}
        order = sorted(edges)
        edge_ids = tuple(e for e, _, _ in order)
        boundary = tuple(tuple(sorted((index[u], index[v]))) for _, u, v in order)
        return cls(labels, edge_ids, boundary)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    def endpoints(self, edge_id: str) -> tuple[str, str]:
        u, v = self.boundary[self._eindex[edge_id]]
        return self.labels[u], self.labels[v]

    def edges_between(self, u: str, v: str) -> tuple[str, ...]:
        """Ids of the parallel edges joining two vertices (the parallel class)."""
        a, b = sorted((self._index[u], self._index[v]))
        return tuple(e for e, bd in zip(self.edge_ids, self.boundary) if bd == (a, b))

    def parallel_classes(self) -> dict[tuple[int, int], tuple[str, ...]]:
        classes: dict[tuple[int, int], list[str]] = {}
        for e, bd in zip(self.edge_ids, self.boundary):
            classes.setdefault(bd, []).append(e)
        return {bd: tuple(sorted(es)) for bd, es in classes.items()}

    def degree(self, v: str) -> int:
        i = self._index[v]
        return sum(1 for bd in self.boundary if i in bd)

    def is_simple(self) -> bool:
        return len(set(self.boundary)) == len(self.boundary)

    def is_connected(self) -> bool:
        if self._connected is None:
            self._connected = len(set(union_find(len(self.labels), self.boundary))) == 1
        return self._connected

    def multiplicity(self, u: str, v: str) -> int:
        return len(self.edges_between(u, v))

    def as_complex(self) -> SimplicialComplex:
        """The underlying 1-complex; requires a simple multigraph."""
        if not self.is_simple():
            raise MalformedInputError("multigraph with parallel edges is not a simplicial complex")
        faces = [[self.labels[u], self.labels[v]] for u, v in self.boundary]
        faces += [[lab] for lab in self.labels]
        return SimplicialComplex.closure(faces)

    def __eq__(self, other):
        return (isinstance(other, Multigraph)
                and self.labels == other.labels
                and self.edge_ids == other.edge_ids
                and self.boundary == other.boundary)

    def __hash__(self):
        return hash((self.labels, self.edge_ids, self.boundary))

    def __repr__(self):
        parts = [f"{e}:{self.labels[u]}-{self.labels[v]}"
                 for e, (u, v) in zip(self.edge_ids, self.boundary)]
        return f"Multigraph<{' '.join(parts) or 'empty'}>"


class VertexBijection:
    """A bijection between the vertex label sets of two complexes."""

    __slots__ = ("forward", "backward")

    def __init__(self, forward: dict[str, str]):
        self.forward = dict(forward)
        self.backward = {w: v for v, w in self.forward.items()}
        if len(self.backward) != len(self.forward):
            raise MalformedInputError("mapping is not injective")

    def __call__(self, label: str) -> str:
        return self.forward[label]

    def inverse(self) -> "VertexBijection":
        return VertexBijection(self.backward)

    def map_face(self, face: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(self.forward[v] for v in face))

    def items(self):
        return sorted(self.forward.items())

    def is_simplicial_isomorphism(self, K: SimplicialComplex, L: SimplicialComplex) -> bool:
        """True iff the bijection maps the face set of K exactly onto that of L."""
        if set(self.forward) != set(K.labels) or set(self.backward) != set(L.labels):
            return False
        if len(K.simplices) != len(L.simplices):
            return False
        return all(L.has_labels(self.map_face(K.to_labels(s))) for s in K.simplices)

    def __eq__(self, other):
        return isinstance(other, VertexBijection) and self.forward == other.forward

    def __repr__(self):
        pairs = ", ".join(f"{v}->{w}" for v, w in self.items())
        return f"VertexBijection<{pairs}>"


# -- module-level operation surface ---------------------------------------

def closure(faces: Iterable[Iterable[str]]) -> SimplicialComplex:
    return SimplicialComplex.closure(faces)


def is_boundary_simplex(K: SimplicialComplex) -> Optional[int]:
    """m if K is (isomorphic to) the boundary of an m-simplex, m >= 1, else None.

    The boundary of an m-simplex has m+1 vertices and consists of every
    nonempty proper subset of them, so the check is purely by counting plus
    membership; no search is involved.
    """
    n = K.n_vertices
    if n < 2:
        return None
    if len(K.simplices) != 2 ** n - 2:
        return None
    full = tuple(range(n))
    if full in K.simplices:
        return None
    # all proper nonempty subsets must be present
    for r in range(1, n):
        for s in combinations(range(n), r):
            if s not in K.simplices:
                return None
    return n - 1
