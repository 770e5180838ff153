"""Plain-text formats.

Complex files: one maximal simplex per line as whitespace-separated vertex
labels, ``#`` to end of line is comment, complex = closure of the lines.
Multigraph files: ``edge <id> <u> <v>`` and ``vertex <v>`` lines.  Canonical
serialization is byte-stable: equal objects produce identical files.
"""

from __future__ import annotations

from typing import Union

from .complexes import Multigraph, SimplicialComplex
from .errors import ParseError
from .morse import MorseComplex


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_complex(text: str) -> SimplicialComplex:
    faces = []
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if len(set(tokens)) != len(tokens):
            raise ParseError("duplicate vertex in simplex", line=lineno)
        faces.append(tokens)
    if not faces:
        return SimplicialComplex((), frozenset())
    return SimplicialComplex.closure(faces)


def serialize_complex(K: SimplicialComplex) -> str:
    return "".join(" ".join(f) + "\n" for f in K.label_facets())


def parse_multigraph(text: str) -> Multigraph:
    edges = []
    isolated = []
    ids = set()
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if tokens[0] == "edge":
            if len(tokens) != 4:
                raise ParseError("edge lines read: edge <id> <u> <v>", line=lineno)
            _, eid, u, v = tokens
            if u == v:
                raise ParseError(f"loop edge {eid!r} at vertex {u!r}", line=lineno)
            if eid in ids:
                raise ParseError(f"duplicate edge id {eid!r}", line=lineno)
            ids.add(eid)
            edges.append((eid, u, v))
        elif tokens[0] == "vertex":
            if len(tokens) != 2:
                raise ParseError("vertex lines read: vertex <v>", line=lineno)
            isolated.append(tokens[1])
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", line=lineno)
    return Multigraph.from_edges(edges, isolated=isolated)


def serialize_multigraph(G: Multigraph) -> str:
    incident = set()
    for u, v in G.boundary:
        incident.add(u)
        incident.add(v)
    lines = [f"vertex {lab}\n" for i, lab in enumerate(G.labels) if i not in incident]
    for e, (u, v) in zip(G.edge_ids, G.boundary):
        lines.append(f"edge {e} {G.labels[u]} {G.labels[v]}\n")
    return "".join(lines)


def sniff_and_parse(text: str) -> Union[SimplicialComplex, Multigraph]:
    """Multigraph when the first content line starts with edge/vertex, else complex."""
    for _, line in _content_lines(text):
        head = line.split()[0]
        if head in ("edge", "vertex"):
            return parse_multigraph(text)
        return parse_complex(text)
    return parse_complex(text)


def pair_table_lines(M: MorseComplex) -> list[str]:
    """Rows ``<pair-id> <index> <source> -> <target>`` of the pair table."""
    out = []
    for pid, pair in M.pair_table():
        src = ",".join(pair.source)
        tgt = ",".join(pair.target)
        out.append(f"{pid} {pair.index} {src} -> {tgt}")
    return out


def serialize_morse_complex(M: MorseComplex) -> str:
    """The Morse complex as a complex file over pair ids, with the pair table
    riding in trailing comments (so the output stays a valid complex file)."""
    # the facets are sorted index tuples and the pair ids share one width,
    # so their names come out in the same order
    ids = M.pair_ids
    lines = [" ".join([ids[i] for i in f]) + "\n" for f in M.facets()]
    lines.extend(f"# {row}\n" for row in pair_table_lines(M))
    return "".join(lines)
