"""Acceptance suite: every criterion at its contract scale, one test each.

Each test prints a PASS/FAIL line (run pytest with -s or check the captured
output) and fails hard if its criterion does not hold exactly.  The heavyweight
corpus criteria are marked slow-ish but stay within their stated runtimes.
"""

import pytest

from morsecomplex import verify


def _run(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_graph_counts():
    # exhaustive on 3..6 vertices, 200 seeded samples on 7
    _run(verify.criterion_graph_counts(max_exhaustive=6, sample_7=200, seed=0))


def test_criterion_2_forest_identity():
    _run(verify.criterion_forest_identity(max_vertices=6))


def test_criterion_3_leaf_degree():
    _run(verify.criterion_leaf_degree(max_exhaustive=6, sample_7=200, seed=0))


def test_criterion_4_wedge_datum():
    _run(verify.criterion_wedge_datum())


def test_criterion_5_counterexample():
    _run(verify.criterion_counterexample())


def test_criterion_6_complex_determination():
    # every automorphism of the boundaries of the triangle, the tetrahedron
    # and the 4-simplex is reconstructed: 0 + 24 + 120 of them mix indices;
    # with one automorphism of each of the other 173 members, 473 in all
    result = verify.criterion_complex_determination(max_vertices=5)
    _run(result)
    assert result.detail.endswith("all 473 reconstructions verified "
                                  "(144 anomalous automorphisms encountered)")


def test_criterion_7_multigraph_determination():
    _run(verify.criterion_multigraph_determination(max_vertices=4, max_multiplicity=3))


def test_criterion_8_functoriality_roundtrip():
    _run(verify.criterion_functoriality(samples=1000, seed=0, max_vertices=5))


def test_criterion_9_oracle_equivalence():
    _run(verify.criterion_oracle(max_covers=12, max_vertices=5))


def test_criterion_10_minimal_cycle_law():
    _run(verify.criterion_minimal_cycle_law())
