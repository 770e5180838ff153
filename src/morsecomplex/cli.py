"""Command-line surface.

Exit codes: 0 success, 1 negative verdict (no isomorphism / failed check),
2 enumeration budget exceeded, 3 theorem hypothesis violated, 4 bad input
(usage errors included), 5 internal contradiction or any other error
(RecursionError, MemoryError, ...), reported as one stderr line.  Output is
deterministic for fixed inputs, flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .budget import Budget
from .complexes import Multigraph
from .errors import (EnumerationBudgetError, HypothesisViolationError,
                     InvalidIsomorphismError, MalformedInputError,
                     NotAFaceError, ParseError, TheoremContradictionError)
from .forests import forest_identity_holds
from .formats import serialize_morse_complex, sniff_and_parse
from .invariants import invariants
from .isomorphism import find_isomorphism, find_multigraph_isomorphism
from .morse import morse_complex
from .reconstruction import (find_morse_isomorphism, reconstruct_complex_iso,
                             reconstruct_multigraph_iso)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_HYPOTHESIS = 3
EXIT_INPUT = 4
EXIT_CONTRADICTION = 5


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 4): argparse's own exit 2 would read
    as "budget exceeded"."""

    def error(self, message):
        raise MalformedInputError(message)


def _seconds(text: str) -> float:
    """A time budget in seconds.  NaN is refused: no time compares greater
    than it, so it would switch every deadline off."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if math.isnan(seconds):
        raise MalformedInputError(f"time budget is not a number of seconds: {text!r}")
    return seconds


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--budget-facets", type=int, default=Budget.max_facets,
                   help="facet budget for Morse enumerations, also the cap on "
                        "materialised faces (default %(default)s)")
    p.add_argument("--budget-seconds", type=_seconds, default=None,
                   help="time budget per enumeration in seconds "
                        "(default 60, or MORSE_BUDGET_SECONDS)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized corpus generation")
    p.add_argument("--max-vertices", type=int, default=None,
                   help="refuse inputs (or cap corpora) above this vertex count")


def _budget(args) -> Budget:
    seconds = args.budget_seconds
    if seconds is None:
        seconds = _seconds(os.environ.get("MORSE_BUDGET_SECONDS", str(Budget.max_seconds)))
    return Budget(max_facets=args.budget_facets, max_seconds=seconds)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise MalformedInputError(f"{path} is not UTF-8 text: {e}") from None
    return sniff_and_parse(text)


def _guard_size(obj, args):
    if args.max_vertices is None:
        return
    n = obj.n_vertices
    if n > args.max_vertices:
        raise EnumerationBudgetError(
            f"input has {n} vertices, over the --max-vertices guard of {args.max_vertices}")


def cmd_build(args) -> int:
    obj = _load(args.file)
    _guard_size(obj, args)
    M = morse_complex(obj, _budget(args))
    sys.stdout.write(serialize_morse_complex(M))
    return EXIT_OK


def cmd_stats(args) -> int:
    K = _load(args.file)
    if isinstance(K, Multigraph):
        raise MalformedInputError("stats reports on complex files; got a multigraph")
    _guard_size(K, args)
    rep = invariants(K)
    print(f"f_vector={','.join(map(str, rep.f_vector))}")
    print(f"euler={rep.euler}")
    print(f"components={rep.components}")
    print(f"betti_mod2={','.join(map(str, rep.betti_mod2))}")
    print(f"collapsible={'true' if rep.collapsible else 'false'}")
    return EXIT_OK


def _load_pair(args):
    A = _load(args.a)
    B = _load(args.b)
    _guard_size(A, args)
    _guard_size(B, args)
    if isinstance(A, Multigraph) != isinstance(B, Multigraph):
        raise MalformedInputError("inputs must both be complexes or both multigraphs")
    return A, B


def _print_map(bij, edge_map=None):
    for v, w in bij.items():
        print(f"{v} -> {w}")
    for e, f in sorted((edge_map or {}).items()):
        print(f"# edge {e} -> {f}")


def cmd_iso(args) -> int:
    A, B = _load_pair(args)
    if isinstance(A, Multigraph):
        got = find_multigraph_isomorphism(A, B)
    else:
        bij = find_isomorphism(A, B)
        got = None if bij is None else (bij, None)
    if got is None:
        print("not isomorphic", file=sys.stderr)
        return EXIT_NEGATIVE
    _print_map(*got)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    A, B = _load_pair(args)
    budget = _budget(args)
    F = find_morse_isomorphism(morse_complex(A, budget), morse_complex(B, budget))
    if F is None:
        print("Morse complexes are not isomorphic", file=sys.stderr)
        return EXIT_NEGATIVE
    if isinstance(A, Multigraph):
        _print_map(*reconstruct_multigraph_iso(F))
    else:
        _print_map(reconstruct_complex_iso(F))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.what != "corpus":
        raise MalformedInputError(f"unknown verification target {args.what!r}")
    cap = args.max_vertices
    if cap is not None and cap < 1:
        raise MalformedInputError(
            f"--max-vertices caps the corpus scales and must be at least 1; got {cap}")
    for flag, count in (("--samples", args.samples), ("--sample7", args.sample7)):
        if count < 0:
            raise MalformedInputError(f"{flag} must be at least 0; got {count}")
    kwargs = dict(seed=args.seed, budget=_budget(args))
    if cap is not None:
        kwargs.update(
            max_complex_vertices=min(5, cap),
            max_graph_vertices=min(6, cap),
            sample_7=args.sample7 if cap >= 7 else 0,
            max_multigraph_vertices=min(4, cap),
        )
    else:
        kwargs.update(sample_7=args.sample7)
    kwargs.update(functoriality_samples=args.samples)
    results = verify_mod.run_all(**kwargs)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_NEGATIVE


def cmd_kozlov(args) -> int:
    obj = _load(args.file)
    _guard_size(obj, args)
    if isinstance(obj, Multigraph):
        if not obj.is_simple():
            raise HypothesisViolationError(
                "the forest-complex identity is for simple graphs; input has parallel edges")
        G = obj.as_complex()
    else:
        G = obj
        if G.dim > 1:
            raise HypothesisViolationError(
                "the forest-complex identity is for graphs; input has higher simplices")
    M = morse_complex(G, _budget(args))
    if forest_identity_holds(G, M):
        print(f"identity holds: {M.n_pairs} directed edges, {M.facet_count()} facets")
        return EXIT_OK
    print("identity FAILS", file=sys.stderr)
    return EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than a
    small command does."""
    ap = _Parser(
        prog="morsecx",
        description="Discrete Morse complexes of complexes and multigraphs, "
                    "and reconstruction of the underlying object from them.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit the Morse complex as a complex file plus pair table")
    p.add_argument("file")
    _common_flags(p)

    p = sub.add_parser("stats", help="invariant report of a complex file, one key=value per line")
    p.add_argument("file")
    _common_flags(p)

    p = sub.add_parser("iso", help="find an isomorphism between two inputs")
    p.add_argument("a")
    p.add_argument("b")
    _common_flags(p)

    p = sub.add_parser("reconstruct",
                       help="find a Morse isomorphism and reconstruct the vertex map")
    p.add_argument("a")
    p.add_argument("b")
    _common_flags(p)

    p = sub.add_parser("verify", help="run the acceptance suites")
    p.add_argument("what", choices=["corpus"])
    p.add_argument("--samples", type=int, default=1000,
                   help="functoriality roundtrip samples (default %(default)s)")
    p.add_argument("--sample7", type=int, default=200,
                   help="random 7-vertex graphs (default %(default)s)")
    _common_flags(p)

    p = sub.add_parser("kozlov",
                       help="check the Morse complex of a simple graph against "
                            "the forest complex of its double")
    p.add_argument("file")
    _common_flags(p)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # the command is looked up by name at call time, not bound into the
        # parser, so that the module's command functions can be replaced
        return globals()[f"cmd_{args.command}"](args)
    except EnumerationBudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except HypothesisViolationError as e:
        print(f"hypothesis violated: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ParseError, MalformedInputError, NotAFaceError, OSError) as e:
        print(f"bad input: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (TheoremContradictionError, InvalidIsomorphismError) as e:
        print(f"internal contradiction: {e}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except Exception as e:  # exit 1 means a negative verdict, never a crash
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_CONTRADICTION


if __name__ == "__main__":
    sys.exit(main())
