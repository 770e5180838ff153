"""Deadline checks under a counting clock.

Every deadline is set by ``Budget.deadline`` and checked by
``_check_deadline``, both on ``budget.py``'s clock.  Replacing that module's
``time`` with a clock that advances one unit per read makes a budget of s
seconds run out at the (s + 1)-th check after its deadline was set, on any
machine.  Each test raises its budget from 0 until the path stops in the
phase it covers, and checks the phases named on the way.
"""

import ast
import itertools
import pathlib
import random
import types

import pytest

import morsecomplex
from morsecomplex import Budget, closure, find_isomorphism, morse_complex
from morsecomplex.corpus import (boundary_simplex, complete_graph, cycle_graph,
                                 full_simplex, permuted_copy)
from morsecomplex.errors import EnumerationBudgetError
from morsecomplex.forests import directed_forest_complex, double
from morsecomplex.invariants import betti_mod2

PREFIX = "time budget exceeded while "


@pytest.fixture(autouse=True)
def counting_clock(monkeypatch):
    reads = itertools.count()
    clock = types.SimpleNamespace(monotonic=lambda: next(reads))
    monkeypatch.setattr(morsecomplex.budget, "time", clock)


def stops(run, phase, limit=64):
    """The phases run(s) stops in for budgets s = 0, 1, 2, ..., up to the
    first naming ``phase``; fails when run completes first, or when no
    budget below ``limit`` names it."""
    seen = []
    for s in range(limit):
        with pytest.raises(EnumerationBudgetError) as e:
            run(s)
        message = str(e.value)
        assert message.startswith(PREFIX), message
        seen.append(message[len(PREFIX):])
        if phase in seen[-1]:
            return seen
    pytest.fail(f"no budget below {limit} stops in {phase!r}: {seen[-1]!r}")


def test_facet_dp_deadline():
    # the sum over D4's index-1 walk reads the clock, for the first member's
    # weights, before the walk reaches its first check at step 4,096
    assert stops(lambda s: morse_complex(full_simplex("abcde"), Budget(max_seconds=s))
                 .facet_count(), "counting facets") == ["counting facets"]
    # the walk alone, driven with a deadline already past, stops there
    M = morse_complex(full_simplex("abcde"))
    blocks, sbit, tbit = M._layers()
    walked = 0
    with pytest.raises(EnumerationBudgetError) as e:
        for _ in M._layer_matchings(blocks[1], sbit, tbit, -1, 10 ** 7):
            walked += 1
    assert str(e.value) == PREFIX + "enumerating layer matchings"
    assert walked == 4095


def test_layered_lister_deadline():
    # bd3's count reads the clock before its listing does; the lister is
    # reached only under a budget long enough for the whole count
    seen = stops(lambda s: morse_complex(boundary_simplex("abcd"), Budget(max_seconds=s))
                 .facets(), "listing facets")
    assert set(seen[:-1]) == {"counting facets"}


def test_single_layer_lister_deadline():
    # K7's graph walk counts before the lister lists; the lister is reached
    # only under a budget long enough for the whole walk
    seen = stops(lambda s: morse_complex(complete_graph(7), Budget(max_seconds=s))
                 .facets(), "listing facets")
    assert set(seen[:-1]) == {"enumerating layer matchings"}


def test_dimension_deadline():
    # mod-2 Betti numbers (1, 1, 0): no maximum acyclic matching reaches the
    # GF(2) rank, so the branch and bound stays exhaustive, past 5 s of wall
    # time
    K = closure([list(t) for t in (
        "124 125 126 134 137 138 157 168 235 236 238 247 278 345 367 456 468 478 "
        "567 578").split()])
    assert betti_mod2(K) == (1, 1, 0)
    assert stops(lambda s: morse_complex(K, Budget(max_seconds=s)).dimension(),
                 "computing the Morse complex dimension") == [
        "computing the Morse complex dimension"]


def test_circuit_deadline():
    assert stops(lambda s: morse_complex(complete_graph(7), Budget(max_seconds=s))
                 .minimal_nonfaces(), "gradient circuits") == ["enumerating gradient circuits"]


def test_graph_walk_deadline():
    assert stops(lambda s: morse_complex(cycle_graph(20), Budget(max_seconds=s))
                 .facet_count(), "layer matchings") == ["enumerating layer matchings"]


def test_faces_deadline():
    assert stops(lambda s: morse_complex(full_simplex("abc"), Budget(max_seconds=s))
                 .faces(), "materialising faces") == ["materialising faces"]


def test_forest_oracle_deadline():
    assert stops(lambda s: directed_forest_complex(double(complete_graph(6)),
                                                   Budget(max_seconds=s)),
                 "directed forests") == ["enumerating directed forests"]


def relabelled_cycles(s):
    C = cycle_graph(60)
    P, _ = permuted_copy(C, random.Random(1))
    Q, _ = permuted_copy(C, random.Random(0))
    return find_isomorphism(morse_complex(P, Budget(max_seconds=s)),
                            morse_complex(Q, Budget(max_seconds=s)))


def test_refinement_deadline():
    assert stops(relabelled_cycles, "refinement round") == [
        "searching isomorphisms (refinement round 1)"]


def test_search_deadline():
    # refinement reads the clock before the search does
    seen = stops(relabelled_cycles, "searching isomorphisms (depth")
    assert seen[-1] == "searching isomorphisms (depth 0 of 120)"
    assert all("refinement round" in phase for phase in seen[:-1])


def test_only_budget_reads_the_clock():
    # one clock for every deadline: no other module may import time
    package = pathlib.Path(morsecomplex.__file__).parent
    readers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "time" in names:
                readers.append(path.name)
    assert readers == ["budget.py"]
