"""The benchmark's workloads.

A workload builds its inputs from the seed in ``setup`` and lists its ops in
``schedule``; ``run`` performs one op through the library's public surface and
returns its answer.  ``keep`` shrinks an answer to what ``check`` needs, and
``check`` compares it with a reference from ``refs``; ``outcome`` tells a
documented refusal from a failure.  ``limits`` gives each op kind its
wall-clock limit, and ``discard`` rebuilds every object an op touched, after
the op was cut off by that limit.

All library access goes through module attributes at call time
(``lib.morse.morse_complex``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from itertools import combinations

import refs


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()
    limits: dict[str, float] = {}  # op kind -> wall-clock limit per op, in s

    def __init__(self, lib, seed: int, smoke: bool, workdir: str):
        self.lib = lib
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.schedule: list[tuple] = []
        self.wrong_reference = False

    def keep(self, op, answer):
        return answer

    def outcome(self, op, kept) -> str:
        """"ok", "refused" (a documented refusal, correct) or "failed"."""
        return "ok"


def _relabel(rng: random.Random, labels) -> dict:
    image = list(labels)
    rng.shuffle(image)
    return dict(zip(labels, image))


def _complex_text(facets) -> str:
    return "".join(" ".join(sorted(f)) + "\n" for f in facets)


class IsoCorpus(Workload):
    """Every pair of the connected-complex corpus, plus relabelled copies."""

    name = "iso-corpus"
    kinds = ("negative-pair", "relabelled-reconstruct", "functorial-roundtrip")
    limits = dict.fromkeys(kinds, 5.0)
    functorial_samples = 200

    def setup(self):
        lib = self.lib
        rng = random.Random(self.seed)
        self.corpus = list(lib.corpus.connected_complexes(3 if self.smoke else 5))
        self.M = [self._warm(K) for K in self.corpus]
        self.copies = [self._copy(K, rng) for K in self.corpus]
        eligible = [i for i, K in enumerate(self.corpus)
                    if lib.complexes.is_boundary_simplex(K) is None
                    and K.skeleton(1).cycle_length() is None]
        draws = [rng.choice(eligible) for _ in range(self.functorial_samples)]
        self.samples = [(i, *self._copy(self.corpus[i], rng)) for i in draws]
        n = len(self.corpus)
        ops = [("negative-pair", i, j) for i, j in combinations(range(n), 2)]
        ops += [("relabelled-reconstruct", i) for i in range(n)]
        ops += [("functorial-roundtrip", s) for s in range(len(self.samples))]
        rng.shuffle(ops)
        self.schedule = ops

    def _warm(self, K):
        M = self.lib.morse.morse_complex(K)
        M.minimal_nonfaces()
        return M

    def _copy(self, K, rng):
        h = _relabel(rng, K.labels)
        facets = [[h[v] for v in f] for f in refs.label_facets(K)]
        return self.lib.complexes.SimplicialComplex.closure(facets), h

    def run(self, op):
        lib = self.lib
        kind = op[0]
        if kind == "negative-pair":
            return lib.isomorphism.find_isomorphism(self.M[op[1]], self.M[op[2]]) is None
        if kind == "relabelled-reconstruct":
            i = op[1]
            Kp, _ = self.copies[i]
            F = lib.reconstruction.find_morse_isomorphism(
                self.M[i], lib.morse.morse_complex(Kp))
            if F is None:
                return None
            return dict(lib.reconstruction.reconstruct_complex_iso(F).forward)
        i, Kp, h = self.samples[op[1]]
        F = lib.reconstruction.MorseIso.functorial(
            self.M[i], lib.morse.morse_complex(Kp), lib.complexes.VertexBijection(h))
        return dict(lib.reconstruction.reconstruct_complex_iso(F).forward)

    def discard(self, op):
        lib = self.lib
        members = {op[1], op[2]} if op[0] == "negative-pair" else (
            {op[1]} if op[0] == "relabelled-reconstruct" else {self.samples[op[1]][0]})
        for i in members:
            K = self.corpus[i]
            self.corpus[i] = lib.complexes.SimplicialComplex(K.labels, K.simplices)
            self.M[i] = self._warm(self.corpus[i])
        if op[0] == "relabelled-reconstruct":
            Kp, h = self.copies[op[1]]
            self.copies[op[1]] = (lib.complexes.SimplicialComplex(Kp.labels, Kp.simplices), h)
        elif op[0] == "functorial-roundtrip":
            i, Kp, h = self.samples[op[1]]
            self.samples[op[1]] = (i, lib.complexes.SimplicialComplex(Kp.labels, Kp.simplices), h)

    def check(self, op, answer):
        kind = op[0]
        if kind == "negative-pair":
            if not hasattr(self, "_canon"):
                self._canon = [refs.canonical_form(K) for K in self.corpus]
            i, j = op[1], op[2]
            expected = self._canon[i] != self._canon[j]
            if self.wrong_reference and (i, j) == (0, 1):
                expected = not expected
            if answer != expected:
                return f"find_isomorphism(M{i}, M{j}) negative={answer}, expected {expected}"
            return None
        if kind == "relabelled-reconstruct":
            i = op[1]
            K, (Kp, _) = self.corpus[i], self.copies[i]
            if answer is None or not refs.maps_complex(answer, K, Kp):
                return f"member {i}: reconstructed map {answer} is not an isomorphism"
            return None
        i, Kp, h = self.samples[op[1]]
        if answer != h or not refs.maps_complex(answer, self.corpus[i], Kp):
            return f"functorial sample {op[1]} on member {i}: got {answer}, expected {h}"
        return None


class ReconstructSymmetric(Workload):
    """``morsecx reconstruct A B`` inputs, B a seeded relabelling of A."""

    name = "reconstruct-symmetric"
    kinds = ("reconstruct-multigraph", "reconstruct-path", "parallel-sample")
    # About 10 of the 270 members search for over 1 s (up to 40 s) under a
    # given relabelling; they read as timeouts.  Few members sit near 1 s, so
    # how many time out depends on the seed rather than on the CPU's speed.
    # Paths up to P80 take at most a few seconds and are always timed.
    limits = {"reconstruct-multigraph": 1.0, "reconstruct-path": 30.0,
              "parallel-sample": 5.0}
    couples_per_member = 16
    path_lengths = (50, 60, 70, 80)

    def setup(self):
        lib = self.lib
        rng = random.Random(self.seed)
        corpus = lib.corpus.connected_multigraphs(4, 3)
        self.graphs = list(corpus[:40] if self.smoke else corpus)
        self.texts = [self._multigraph_texts(G, rng) for G in self.graphs]
        self.inputs = [self._parse(pair) for pair in self.texts]
        lengths = (6, 8) if self.smoke else self.path_lengths
        self.path_texts = [self._path_texts(n, rng) for n in lengths]
        self.paths = [self._parse(pair) for pair in self.path_texts]
        self.couples = {}
        self.parallel_M = {}
        for i, G in enumerate(self.graphs):
            if len(G.labels) >= 3:
                self.parallel_M[i] = self._warm(G)
                pairs = self.parallel_M[i].pairs
                all_couples = list(combinations(range(len(pairs)), 2))
                k = min(self.couples_per_member, len(all_couples))
                self.couples[i] = rng.sample(all_couples, k)
        ops = [("reconstruct-multigraph", i) for i in range(len(self.graphs))]
        ops += [("reconstruct-path", i) for i in range(len(self.paths))]
        ops += [("parallel-sample", i) for i in sorted(self.couples)]
        rng.shuffle(ops)
        self.schedule = ops

    @staticmethod
    def _multigraph_texts(G, rng):
        """G as a multigraph file, and the same file with vertex and edge ids
        shuffled and lines reordered."""
        vmap = _relabel(rng, G.labels)
        emap = _relabel(rng, G.edge_ids)

        def text(vm, em):
            incident = {v for bd in G.boundary for v in bd}
            lines = [f"vertex {vm[lab]}\n" for i, lab in enumerate(G.labels)
                     if i not in incident]
            lines += [f"edge {em[e]} {vm[G.labels[u]]} {vm[G.labels[v]]}\n"
                      for e, (u, v) in zip(G.edge_ids, G.boundary)]
            return lines

        a = text({v: v for v in G.labels}, {e: e for e in G.edge_ids})
        b = text(vmap, emap)
        rng.shuffle(b)
        return "".join(a), "".join(b)

    @staticmethod
    def _path_texts(n, rng):
        labels = [f"v{i}" for i in range(n)]
        h = _relabel(rng, labels)
        a = [[labels[i], labels[i + 1]] for i in range(n - 1)]
        b = [[h[u], h[v]] for u, v in a]
        rng.shuffle(b)
        return _complex_text(a), _complex_text(b)

    def _parse(self, texts):
        parse = self.lib.formats.sniff_and_parse
        return parse(texts[0]), parse(texts[1])

    def _warm(self, G):
        M = self.lib.morse.morse_complex(G)
        M.faces()
        return M

    def run(self, op):
        lib = self.lib
        kind, i = op
        if kind == "parallel-sample":
            M = self.parallel_M[i]
            pairs = M.pairs
            return tuple(lib.reconstruction.parallel_pairs(pairs[a], pairs[b], M)
                         for a, b in self.couples[i])
        A, B = self.inputs[i] if kind == "reconstruct-multigraph" else self.paths[i]
        F = lib.reconstruction.find_morse_isomorphism(
            lib.morse.morse_complex(A), lib.morse.morse_complex(B))
        if F is None:
            return None
        if kind == "reconstruct-path":
            return dict(lib.reconstruction.reconstruct_complex_iso(F).forward)
        f, edge_map = lib.reconstruction.reconstruct_multigraph_iso(F)
        return dict(f.forward), dict(edge_map)

    def discard(self, op):
        kind, i = op
        if kind == "reconstruct-multigraph":
            self.inputs[i] = self._parse(self.texts[i])
        elif kind == "reconstruct-path":
            self.paths[i] = self._parse(self.path_texts[i])
        else:
            self.graphs[i] = self.lib.formats.sniff_and_parse(self.texts[i][0])
            self.parallel_M[i] = self._warm(self.graphs[i])

    def check(self, op, answer):
        kind, i = op
        if kind == "parallel-sample":
            M = self.parallel_M[i]
            by_definition = self.lib.reconstruction.parallel_by_definition
            expected = tuple(by_definition(M.pairs[a], M.pairs[b], M.source)
                             for a, b in self.couples[i])
            if self.wrong_reference and i == min(self.couples):
                expected = (not expected[0],) + expected[1:]
            if answer != expected:
                return f"parallel_pairs on member {i}: {answer}, expected {expected}"
            return None
        if answer is None:
            return f"{kind} {i}: no Morse isomorphism found between relabelled copies"
        if kind == "reconstruct-path":
            A, B = self.paths[i]
            ok = refs.maps_complex(answer, A, B)
        else:
            A, B = self.inputs[i]
            ok = refs.maps_multigraph(answer[0], answer[1], A, B)
        return None if ok else f"{kind} {i}: reconstructed map is not an isomorphism"


def _facets_inputs(smoke: bool) -> dict:
    """name -> (facet label lists, #cells, least #critical cells)."""
    def vs(n):
        return [f"v{i}" for i in range(n)]

    def graph(n, edges):
        return edges, n + len(edges), len(edges) - n + 2

    def complete(n):
        return graph(n, [[a, b] for a, b in combinations(vs(n), 2)])

    def simplex(n, boundary):
        labels = vs(n)
        facets = [[v for v in labels if v != w] for w in labels] if boundary else [labels]
        return facets, 2 ** n - 1 - boundary, 1 + boundary

    cycle = [[f"v{i}", f"v{(i + 1) % 12}"] for i in range(12)]
    star = [["v0", f"v{i}"] for i in range(1, 13)]
    out = {
        "K5": complete(5), "K6": complete(6), "K7": complete(7),
        "C12": graph(12, cycle), "star12": graph(13, star),
        "bd3": simplex(4, True), "D3": simplex(4, False),
        "bd4": simplex(5, True), "D4": simplex(5, False),
    }
    if smoke:
        out = {k: out[k] for k in ("K5", "bd3", "D3")}
    return out


class Facets(Workload):
    """``morsecx build``, ``facet_count`` and ``dimension`` on fixed complexes,
    each input once per round, written as a file with a seeded line order."""

    name = "facets"
    kinds = ("build", "facet-count", "dimension")
    limits = dict.fromkeys(kinds, 60.0)
    dimension_budget_s = 1.0
    refused = {"bd4", "D4"}  # over the default facet budget: build exits 2
    small = {"K5", "bd3", "D3"}  # listings small enough for the oracle

    def setup(self):
        rng = random.Random(self.seed)
        self.spec = _facets_inputs(self.smoke)
        self.paths = {}
        self.complexes = {}
        for name, (facets, _, _) in self.spec.items():
            lines = _complex_text(facets).splitlines(keepends=True)
            rng.shuffle(lines)
            path = os.path.join(self.workdir, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(lines))
            self.paths[name] = path
            self.complexes[name] = self._parse(path)
        # A fixed order: an op's time depends on the op run just before it, and
        # with one op per input a seeded order would put that into every run.
        self.schedule = [(kind, name) for name in self.paths for kind in self.kinds]

    def _parse(self, path):
        with open(path, encoding="utf-8") as fh:
            return self.lib.formats.sniff_and_parse(fh.read())

    def run(self, op):
        lib = self.lib
        kind, name = op
        if kind == "build":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.main(["build", self.paths[name]])
            return code, out.getvalue()
        M = lib.morse.morse_complex(self.complexes[name])
        if kind == "facet-count":
            return M.facet_count()
        return M.dimension(lib.morse.Budget(max_seconds=self.dimension_budget_s))

    def keep(self, op, answer):
        if op[0] != "build":
            return answer
        code, text = answer
        facet_lines = sum(1 for line in text.splitlines()
                          if line.strip() and not line.startswith("#"))
        listing = (refs.facets_digest(refs.parse_build_output(text))
                   if op[1] in self.small else None)
        return code, facet_lines, refs.sha256(text), listing

    def outcome(self, op, kept) -> str:
        if op[0] == "build" and kept[0] == 2:
            return "refused" if op[1] in self.refused else "failed"
        return "ok"

    def discard(self, op):
        self.complexes[op[1]] = self._parse(self.paths[op[1]])

    def expected_count(self, name):
        """(count, source) for the facet count of M(name)."""
        if name in ("K5", "K6", "K7"):
            return refs.complete_graph_facets(int(name[1:])), "Cayley n^(n-1)"
        if name == "C12":
            return refs.cycle_facets(12), "Perrin closed form"
        if name == "star12":
            return refs.star_facets(12), "star closed form"
        if name == "D4":
            return refs.PAPER_D4_FACETS, "paper"
        if name == "bd4":
            return refs.REGRESSION["facet_count:bd4"], "regression"
        return len(self._oracle(name)), "power-set oracle"

    def _oracle(self, name):
        cache = self.__dict__.setdefault("_oracles", {})
        if name not in cache:
            cache[name] = refs.oracle_facets(self.lib.morse, self.complexes[name])
        return cache[name]

    def check(self, op, answer):
        kind, name = op
        if kind == "dimension":
            _, cells, critical = self.spec[name]
            expected = refs.morse_dimension(cells, critical)
            return None if answer == expected else f"dimension of {name}: {answer}, expected {expected}"
        count, source = self.expected_count(name)
        if self.wrong_reference and name == "K5":
            count += 1
        if kind == "facet-count":
            return None if answer == count else \
                f"facet_count of {name}: {answer}, expected {count} ({source})"
        code, lines, digest, listing = answer
        if name in self.refused:
            return None if code == 2 and lines == 0 else \
                f"build {name}: exit {code}, expected the exit-2 refusal ({count} facets)"
        if code != 0 or lines != count:
            return f"build {name}: exit {code} with {lines} facets, expected {count} ({source})"
        recorded = refs.REGRESSION.get(f"build_sha256:{name}")
        if recorded and digest != recorded:
            return f"build {name}: output digest {digest} differs from the regression reference"
        if listing is not None and listing != refs.facets_digest(self._oracle(name)):
            return f"build {name}: facet list differs from the power-set oracle"
        return None


WORKLOADS = {cls.name: cls for cls in (IsoCorpus, ReconstructSymmetric, Facets)}
