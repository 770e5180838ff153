"""Mutation check: each entry breaks one place of the library on purpose and
names tests that must then fail.

For each entry the script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, applies the edit there and runs only the named
tests.  A mutant is killed when one of them fails and survives when all
pass.  The script exits 1 when a mutant survives, when an entry's old text
no longer occurs exactly once in its file, or when the named tests do not
pass on the unmutated copy; the working tree is never edited.

Run from anywhere, with pytest installed:  python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids; at least one must fail


MUTANTS = (
    Mutant("orbit-least-member", "src/morsecomplex/corpus.py",
           "for i in reversed(_bits(max(orbit)))]))",
           "for i in reversed(_bits(min(orbit)))]))",
           ("tests/test_corpus.py::test_connected_complexes_pinned",
            "tests/test_corpus.py::test_generators_match_the_oracle")),
    Mutant("graph-walk-killers", "src/morsecomplex/morse.py",
           "killers = (bu | conflict[u] | out[root[far[u]]]) & cand",
           "killers = (conflict[u] | out[root[far[u]]]) & cand",
           ("tests/test_morse.py::test_morse_complex_of_edge",
            "tests/test_morse.py::test_facet_count_of_complete_graphs_is_cayley",
            "tests/test_budget.py::test_graph_walk_deadline")),
    Mutant("graph-walk-tree-join", "src/morsecomplex/morse.py",
           "                    sub_into[r] |= into[v]\n", "",
           ("tests/test_morse.py::test_facet_count_of_complete_graphs_is_cayley",
            "tests/test_morse.py::test_oracle_equivalence_complexes")),
    Mutant("closing-multiplicity-inverted", "src/morsecomplex/morse.py",
           "                        if not avail & free:\n"
           "                            group_total += 1\n",
           "                        if avail & free:\n"
           "                            group_total += 1\n",
           ("tests/test_morse.py::test_closing_multiplicities_recounted",
            "tests/test_morse.py::test_facet_count_of_full_4_simplex")),
    Mutant("last-layer-view-all-free", "src/morsecomplex/morse.py",
           "            free = self.free(ki, blocked)\n",
           "            free = self.free(ki, blocked) if ki < self.last else -1\n",
           ("tests/test_morse.py::test_closing_multiplicities_recounted",)),
    Mutant("lister-last-layer-closure-inverted", "src/morsecomplex/morse.py",
           "                        if not avail & free:\n"
           "                            got = ids.get(mask)\n",
           "                        if avail & free:\n"
           "                            got = ids.get(mask)\n",
           ("tests/test_morse.py::test_facet_budget_boundary",
            "tests/test_morse.py::test_facet_counts_and_listings_pinned")),
    Mutant("layer-walk-no-backward-closure", "src/morsecomplex/morse.py",
           "                if bwd & mask:\n                    bwd = reach(b, mask, rev)\n",
           "",
           ("tests/test_morse.py::test_layer_extendable_sets_from_scratch",)),
    Mutant("circuit-drops-start-pair", "src/morsecomplex/morse.py",
           "out.append(_ids(mask))", "out.append(_ids(mask ^ 1 << s))",
           ("tests/test_morse.py::test_minimal_nonfaces_pinned_in_order",)),
    Mutant("index-0-pending-read-as-zero", "src/morsecomplex/morse.py",
           "                pend |= tab[avail & 255]\n                avail >>= 8\n"
           "            pends = folded.get(tm)\n",
           "                avail >>= 8\n            pends = folded.get(tm)\n",
           ("tests/test_morse.py::test_facet_count_of_full_4_simplex",
            "tests/test_morse.py::test_facet_counts_and_listings_pinned")),
    Mutant("fit-ignores-target-mask", "src/morsecomplex/morse.py",
           "            if tm & sm:\n                continue\n", "",
           ("tests/test_morse.py::test_closing_multiplicities_recounted",
            "tests/test_morse.py::test_facet_count_of_full_4_simplex")),
    Mutant("fit-weight-one-per-pending-set", "src/morsecomplex/morse.py",
           "                    weight += len(masks)\n", "                    weight += 1\n",
           ("tests/test_morse.py::test_closing_multiplicities_recounted",
            "tests/test_morse.py::test_facet_count_of_full_4_simplex")),
    Mutant("index-1-closing-inverted", "src/morsecomplex/morse.py",
           "                    if not avail & free:\n                        term += weight\n",
           "                    if avail & free:\n                        term += weight\n",
           ("tests/test_morse.py::test_closing_multiplicities_recounted",
            "tests/test_morse.py::test_facet_budget_boundary")),
    Mutant("index-1-stream-reversed", "src/morsecomplex/morse.py",
           "        for member in self.walk:\n",
           "        for member in reversed(list(self.walk)):\n",
           ("tests/test_morse.py::test_facets_refused_before_the_count_ends",)),
    Mutant("lister-keeps-no-member", "src/morsecomplex/morse.py",
           "                if keep:\n                    keep(member)\n", "",
           ("tests/test_morse.py::test_facet_budget_boundary",
            "tests/test_morse.py::test_facet_counts_and_listings_pinned")),
    Mutant("graph-records-kept-for-a-count", "src/morsecomplex/morse.py",
           "        keep = records.append if limit < math.inf else None\n",
           "        keep = records.append\n",
           ("tests/test_morse.py::test_closing_layer_members_from_scratch",)),
    Mutant("graph-listing-on-a-fresh-clock", "src/morsecomplex/morse.py",
           "            def lister():\n                listed = 0\n",
           "            def lister():\n                deadline = budget.deadline()\n"
           "                listed = 0\n",
           ("tests/test_budget.py::test_count_and_listing_share_one_deadline",)),
    Mutant("build-written-as-one-string", "src/morsecomplex/cli.py",
           "    for chunk in morse_complex_chunks(M):\n        sys.stdout.write(chunk)\n",
           "    sys.stdout.write(\"\".join(morse_complex_chunks(M)))\n",
           ("tests/test_cli.py::test_build_writes_in_chunks",)),
    Mutant("layered-count-references-itself", "src/morsecomplex/morse.py",
           "        self.memos: list[dict[int, int]] = [{} for _ in walks]\n",
           "        self.memos: list[dict[int, int]] = [{} for _ in walks]\n"
           "        self.views.append(self)\n",
           ("tests/test_morse.py::test_facet_engine_keeps_no_state_after_return",)),
    Mutant("facets-kept-on-the-complex", "src/morsecomplex/morse.py",
           "        return tuple(facets)\n",
           "        self._facets = tuple(facets)\n        return self._facets\n",
           ("tests/test_morse.py::test_morse_complex_keeps_no_listing",)),
    Mutant("conflict-ignores-target-cell", "src/morsecomplex/morse.py",
           "(at_cell[src_of[i]] | at_cell[tgt_of[i]])", "(at_cell[src_of[i]])",
           ("tests/test_cross_validation.py"
            "::test_compatibility_adjacency_matches_standalone_predicate",)),
    Mutant("is-matching-always", "src/morsecomplex/morse.py",
           "    return len(used) == count\n", "    return True\n",
           ("tests/test_morse.py::test_is_matching",
            "tests/test_morse.py::test_is_acyclic_requires_matching")),
    Mutant("is-acyclic-never-closes", "src/morsecomplex/morse.py",
           "                if color[j] == 1:\n                    return False\n",
           "                if False:\n                    return False\n",
           ("tests/test_morse.py::test_is_acyclic_on_oriented_triangle",
            "tests/test_morse.py::test_multigraph_two_cycle")),
    Mutant("search-direction-fixed", "src/morsecomplex/isomorphism.py",
           "    backwards = _certificate(labels_b, fams_b) < _certificate(labels_a, fams_a)\n",
           "    backwards = False\n",
           ("tests/test_isomorphism.py::test_morse_witnesses_pinned",)),
    Mutant("multigraph-multiplicity-short", "src/morsecomplex/corpus.py",
           "for _ in range(r + 1):", "for _ in range(r):",
           ("tests/test_corpus.py::test_connected_multigraphs_pinned",)),
    Mutant("morse-iso-skips-nonfaces", "src/morsecomplex/reconstruction.py",
           "        if nf_K != nf_L:\n", "        if False:\n",
           ("tests/test_reconstruction.py::test_invalid_morse_iso_rejected",)),
    Mutant("morse-iso-not-a-permutation", "src/morsecomplex/reconstruction.py",
           "        if M_L.n_pairs != n or sorted(self.image) != list(range(n)):\n",
           "        if False:\n",
           ("tests/test_reconstruction.py::test_morse_iso_image_must_be_a_permutation",)),
    Mutant("source-formula-ignores-F", "src/morsecomplex/reconstruction.py",
           "        images = {q.source[0] for _, q in incident}\n",
           "        images = {p.source[0] for p, _ in incident}\n",
           ("tests/test_reconstruction.py::test_reconstruct_triangle_permutation",
            "tests/test_reconstruction.py::test_induced_automorphisms_recovered_exactly")),
    Mutant("fallback-skips-final-check", "src/morsecomplex/reconstruction.py",
           "    if f is None or not f.is_simplicial_isomorphism(K, L):\n",
           "    if f is None:\n",
           ("tests/test_reconstruction.py::test_forced_branches_check_their_map",)),
    Mutant("complex-fallback-beyond-cycles", "src/morsecomplex/reconstruction.py",
           "            if not cycle:\n                raise\n",
           "            if False:\n                raise\n",
           ("tests/test_reconstruction.py::test_formula_failure_falls_back_on_cycles_only",)),
    Mutant("multigraph-fallback-beyond-cycles", "src/morsecomplex/reconstruction.py",
           "            if not simple_cycle:\n                raise\n",
           "            if False:\n                raise\n",
           ("tests/test_reconstruction.py::test_formula_failure_falls_back_on_cycles_only",)),
    Mutant("oracle-keeps-non-maximal", "src/morsecomplex/verify.py",
           "if s and not any(c not in s and (s | {c}) in simplices for c in range(n))}",
           "if s}",
           ("tests/test_morse.py::test_oracle_equivalence_complexes",
            "tests/test_morse.py::test_oracle_equivalence_multigraphs")),
    Mutant("forest-never-closes-cycle", "src/morsecomplex/forests.py",
           "    def closes_cycle(tail: int, head: int) -> bool:\n",
           "    def closes_cycle(tail: int, head: int) -> bool:\n        return False\n",
           ("tests/test_forests.py::test_two_cycle_excluded",
            "tests/test_forests.py::test_identity_on_triangle")),
)

_IGNORE = shutil.ignore_patterns("__pycache__", ".pytest_cache")


def _copy(src: Path, dst: Path):
    for part in ("src", "tests"):
        shutil.copytree(src / part, dst / part, ignore=_IGNORE)
    shutil.copy2(src / "pyproject.toml", dst / "pyproject.toml")


def _pytest(root: Path, tests) -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    stale = []
    for m in MUTANTS:
        n = (ROOT / m.path).read_text().count(m.old)
        if n != 1:
            stale.append(f"{m.name}: old text occurs {n} times in {m.path}, not once")
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(ROOT, base)
        named = sorted({t for m in MUTANTS for t in m.tests})
        rc = _pytest(base, named)
        if rc != 0:
            print(f"the named tests fail on the unmutated copy (pytest exit {rc})",
                  file=sys.stderr)
            return 1

        bad = 0
        for m in MUTANTS:
            work = Path(tmp) / m.name
            _copy(base, work)
            target = work / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            start = time.monotonic()
            rc = _pytest(work, m.tests)
            verdict = {1: "killed", 0: "SURVIVED"}.get(rc, f"ERROR (pytest exit {rc})")
            bad += rc != 1
            print(f"{verdict:<9} {m.name}  {m.path}  ({time.monotonic() - start:.1f} s)")
            shutil.rmtree(work)
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
