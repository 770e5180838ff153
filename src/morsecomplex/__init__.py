"""Discrete Morse complexes of simplicial complexes and multigraphs, and
reconstruction of the underlying object from its Morse complex."""

from .budget import Budget
from .complexes import (Multigraph, SimplicialComplex, VertexBijection,
                        closure, immediate_faces, is_boundary_simplex)
from .errors import (EnumerationBudgetError, HypothesisViolationError,
                     InvalidIsomorphismError, MalformedInputError, MorseError,
                     NotAFaceError, ParseError, TheoremContradictionError)
from .forests import (DirectedGraph, directed_forest_complex, double,
                      forest_identity_holds)
from .invariants import InvariantReport, betti_mod2, greedy_collapse, invariants
from .isomorphism import all_isomorphisms, find_isomorphism, find_multigraph_isomorphism
from .morse import (HasseDiagram, MorseComplex, RegularPair, hasse, is_acyclic,
                    is_matching, minimal_gradient_cycles, morse_complex,
                    primitive_pairs)
from .reconstruction import (AnomalyWitness, MorseIso, QuotientComplex,
                             detect_index_anomaly, find_morse_isomorphism,
                             parallel_by_definition, parallel_pairs, quotient,
                             reconstruct_complex_iso, reconstruct_cycle,
                             reconstruct_graph_iso, reconstruct_multigraph_iso,
                             simplify)

__version__ = "0.1.0"

__all__ = [
    # budget
    "Budget",
    # complexes
    "Multigraph", "SimplicialComplex", "VertexBijection", "closure",
    "immediate_faces", "is_boundary_simplex",
    # errors
    "EnumerationBudgetError", "HypothesisViolationError",
    "InvalidIsomorphismError", "MalformedInputError", "MorseError",
    "NotAFaceError", "ParseError", "TheoremContradictionError",
    # forests
    "DirectedGraph", "directed_forest_complex", "double",
    "forest_identity_holds",
    # invariants
    "InvariantReport", "betti_mod2", "greedy_collapse", "invariants",
    # isomorphism
    "all_isomorphisms", "find_isomorphism", "find_multigraph_isomorphism",
    # morse
    "HasseDiagram", "MorseComplex", "RegularPair", "hasse", "is_acyclic",
    "is_matching", "minimal_gradient_cycles", "morse_complex",
    "primitive_pairs",
    # reconstruction
    "AnomalyWitness", "MorseIso", "QuotientComplex", "detect_index_anomaly",
    "find_morse_isomorphism", "parallel_by_definition", "parallel_pairs",
    "quotient", "reconstruct_complex_iso", "reconstruct_cycle",
    "reconstruct_graph_iso", "reconstruct_multigraph_iso", "simplify",
]
