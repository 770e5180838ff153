"""Text format round trips and parse errors."""

import pytest

from morsecomplex import Multigraph, morse_complex
from morsecomplex.corpus import connected_complexes, full_simplex
from morsecomplex.errors import ParseError
from morsecomplex.formats import (morse_complex_chunks, pair_table_lines,
                                  parse_complex, parse_multigraph,
                                  serialize_complex, serialize_multigraph,
                                  sniff_and_parse)


def test_parse_complex_closure():
    K = parse_complex("a b c\n")
    assert K == full_simplex("abc")


def test_parse_complex_comments_and_blanks():
    K = parse_complex("# header\n\na b  # inline\nb c\n")
    assert sorted(K.label_facets()) == [("a", "b"), ("b", "c")]


def test_parse_complex_duplicate_vertex():
    with pytest.raises(ParseError) as e:
        parse_complex("x y\na a b\n")
    assert e.value.line == 2


def test_complex_round_trip():
    for K in connected_complexes(4):
        assert parse_complex(serialize_complex(K)) == K


def test_serialization_canonical():
    a = parse_complex("b c\na b\n")
    b = parse_complex("a b\nb c\n")
    assert serialize_complex(a) == serialize_complex(b)


def test_empty_complex_round_trip():
    assert serialize_complex(parse_complex("")) == ""


def test_parse_multigraph():
    G = parse_multigraph("edge e1 u v\nedge e2 u v\nvertex w\n")
    assert G.n_vertices == 3
    assert G.edges_between("u", "v") == ("e1", "e2")


def test_parse_multigraph_errors():
    with pytest.raises(ParseError) as e:
        parse_multigraph("edge e1 u u\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_multigraph("edge e1 u v\nedge e1 v w\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_multigraph("edgy e1 u v\n")
    with pytest.raises(ParseError):
        parse_multigraph("edge e1 u\n")


def test_multigraph_round_trip():
    G = Multigraph.from_edges([("e1", "u", "v"), ("e2", "u", "v")], isolated=["z"])
    assert parse_multigraph(serialize_multigraph(G)) == G


def test_sniffing():
    assert isinstance(sniff_and_parse("edge e1 u v\n"), Multigraph)
    assert not isinstance(sniff_and_parse("a b c\n"), Multigraph)
    assert sniff_and_parse("").simplices == frozenset()


def test_pair_table_lines():
    M = morse_complex(full_simplex("ab"))
    assert pair_table_lines(M) == ["p0 0 a -> a,b", "p1 0 b -> a,b"]


def test_morse_file_is_valid_complex_file():
    M = morse_complex(full_simplex("abc"))
    text = "".join(morse_complex_chunks(M))
    K = parse_complex(text)
    assert K == M.as_complex()
    # pair table rows survive in the comments
    assert "# p0 0 a -> a,b" in text
