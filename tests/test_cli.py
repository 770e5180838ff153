"""Command-line behaviour: outputs, determinism and the exit-code contract."""

import hashlib
import itertools
import random
import sys
import time

import pytest

from morsecomplex.cli import main
from morsecomplex.complexes import Multigraph
from morsecomplex.corpus import (complete_graph, connected_multigraphs, cycle_graph,
                                 permuted_copy, star_graph)
from morsecomplex.formats import CHUNK_LINES, serialize_complex
from morsecomplex.reconstruction import simplify


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_edge(tmp_path, capsys):
    f = write(tmp_path, "edge.cx", "a b\n")
    code, out, err = run(capsys, "build", f)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p0"
    assert lines[1] == "p1"
    assert lines[2] == "# p0 0 a -> a,b"
    assert lines[3] == "# p1 0 b -> a,b"


def test_build_deterministic(tmp_path, capsys):
    f = write(tmp_path, "tri.cx", "a b c\n")
    code1, out1, _ = run(capsys, "build", f)
    code2, out2, _ = run(capsys, "build", f)
    assert code1 == code2 == 0
    assert out1 == out2


def test_build_budget_exit(tmp_path, capsys):
    f = write(tmp_path, "d4.cx", "a b c d e\n")
    code, out, err = run(capsys, "build", f, "--budget-seconds", "60",
                         "--budget-facets", "1000000")
    assert code == 2
    assert "budget" in err


def test_build_writes_in_chunks(tmp_path, monkeypatch):
    # K7's 117,649 facet lines and 42 pair rows reach stdout in several
    # writes of at most CHUNK_LINES lines each, not as one string
    f = write(tmp_path, "k7.cx", serialize_complex(complete_graph(7)))
    writes = []

    class Stdout:
        def write(self, text):
            writes.append(text.count("\n"))
            return len(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["build", f]) == 0
    assert len(writes) > 1 and max(writes) <= CHUNK_LINES
    assert sum(writes) == 117_649 + 42


def test_reconstruct_search_budget_exit(tmp_path, capsys):
    # two relabellings of a cycle whose isomorphism search runs for some 6 s
    C = cycle_graph(2000)
    P, _ = permuted_copy(C, random.Random(1))
    Q, _ = permuted_copy(C, random.Random(0))
    files = [write(tmp_path, name, "".join(" ".join(K.to_labels(f)) + "\n" for f in K.facets()))
             for name, K in (("p.cx", P), ("q.cx", Q))]
    code, out, err = run(capsys, "reconstruct", *files, "--budget-seconds", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith("budget exceeded: ") and len(err.splitlines()) == 1
    assert "searching isomorphisms" in err


def test_budget_seconds_env_var(tmp_path, capsys, monkeypatch):
    f = write(tmp_path, "d4.cx", "a b c d e\n")
    monkeypatch.setenv("MORSE_BUDGET_SECONDS", "0.0")
    code, _, err = run(capsys, "build", f)
    assert code == 2 and "time budget" in err
    # an explicit flag wins over the environment
    monkeypatch.setenv("MORSE_BUDGET_SECONDS", "0.0")
    g = write(tmp_path, "tri.cx", "a b c\n")
    code, out, _ = run(capsys, "build", g, "--budget-seconds", "60")
    assert code == 0 and out.startswith("p0")


@pytest.mark.parametrize("content, args, env", [
    (None, [], None),
    (b"a b c\n", ["--budget-seconds", "abc"], None),
    # no time compares greater than NaN, so it would switch every deadline off
    (b"a b c\n", ["--budget-seconds", "nan"], None),
    (b"a b c\n", [], "abc"),
    ("caf\xe9 b\n".encode("latin-1"), [], None),
], ids=["missing-file-argument", "budget-abc", "budget-nan", "env-budget-abc", "not-utf8"])
def test_bad_input_exits_4(tmp_path, capsys, monkeypatch, content, args, env):
    # exit 2 means "budget exceeded", so argparse's own exit 2 is not used
    argv = ["build"]
    if content is not None:
        p = tmp_path / "in.cx"
        p.write_bytes(content)
        argv.append(str(p))
    if env is not None:
        monkeypatch.setenv("MORSE_BUDGET_SECONDS", env)
    code, out, err = run(capsys, *argv, *args)
    assert (code, out) == (4, "")
    assert err.startswith("bad input: ") and len(err.splitlines()) == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_stats_on_morse_of_triangle(tmp_path, capsys):
    f = write(tmp_path, "tri.cx", "a b c\n")
    code, out, _ = run(capsys, "build", f)
    g = write(tmp_path, "morse.cx", out)
    code, out, _ = run(capsys, "stats", g)
    assert code == 0
    assert "euler=-3" in out.splitlines()
    assert "betti_mod2=1,4,0" in out.splitlines()


def test_stats_on_60_by_60_grid_is_fast(tmp_path, capsys, grid_facets):
    # the collapse and Betti ranks run on the Hasse diagram; the all-subsets
    # count with a restarting scan took 13-23 s of process time on a 2-vCPU
    # machine
    f = write(tmp_path, "grid.cx", "".join(" ".join(t) + "\n" for t in grid_facets(60)))
    start = time.process_time()
    code, out, _ = run(capsys, "stats", f)
    elapsed = time.process_time() - start
    assert code == 0
    assert out == ("f_vector=3721,10920,7200\neuler=1\ncomponents=1\n"
                   "betti_mod2=1,0,0\ncollapsible=true\n")
    assert elapsed < 5.0


def test_iso_found_and_absent(tmp_path, capsys):
    a = write(tmp_path, "a.cx", "x y\ny z\n")
    b = write(tmp_path, "b.cx", "p q\nq r\n")
    code, out, _ = run(capsys, "iso", a, b)
    assert code == 0
    assert [l for l in out.splitlines()] == ["x -> p", "y -> q", "z -> r"]
    c = write(tmp_path, "c.cx", "p q\nq r\np r\n")
    code, out, err = run(capsys, "iso", a, c)
    assert code == 1
    assert out == ""


def test_reconstruct_star_relabelling(tmp_path, capsys):
    a = write(tmp_path, "a.cx", "c x\nc y\nc z\n")
    b = write(tmp_path, "b.cx", "m p\nm q\nm r\n")
    code, out, _ = run(capsys, "reconstruct", a, b)
    assert code == 0
    assert "c -> m" in out.splitlines()


def test_reconstruct_absent(tmp_path, capsys):
    a = write(tmp_path, "a.cx", "x y\ny z\n")
    b = write(tmp_path, "b.cx", "p q\nq r\np r\n")
    code, out, err = run(capsys, "reconstruct", a, b)
    assert code == 1


def test_reconstruct_multigraphs(tmp_path, capsys):
    a = write(tmp_path, "a.mg", "edge e1 u v\nedge e2 u v\nedge e3 v w\n")
    b = write(tmp_path, "b.mg", "edge f1 b c\nedge f2 a b\nedge f3 a b\n")
    code, out, _ = run(capsys, "reconstruct", a, b)
    assert code == 0
    assert any("->" in line for line in out.splitlines())


def test_reconstruct_multigraph_stdout_pinned(tmp_path, capsys):
    # the printed vertex and edge maps on relabelled, line-shuffled files: the
    # 2-vertex bundles, every member whose simplification is a cycle, the
    # theta graph and 20 seeded other members
    rng = random.Random(1509)
    corpus = [G for G in connected_multigraphs(4, 3) if G.n_edges]
    special = [G.n_vertices == 2 or simplify(G).cycle_length() is not None
               for G in corpus]
    theta = Multigraph.from_edges(
        [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v"), ("e4", "v", "w")])
    others = rng.sample([G for G, s in zip(corpus, special) if not s], 20)
    inputs = [G for G, s in zip(corpus, special) if s] + [theta] + others
    h = hashlib.sha256()
    for k, G in enumerate(inputs):
        image = [f"x{i}" for i in range(G.n_vertices)]
        rng.shuffle(image)
        vmap = dict(zip(G.labels, image))
        ids = [f"g{i}" for i in range(G.n_edges)]
        rng.shuffle(ids)
        lines_a, lines_b = [], []
        for e, g, (u, v) in zip(G.edge_ids, ids, G.boundary):
            lines_a.append(f"edge {e} {G.labels[u]} {G.labels[v]}\n")
            ends = [vmap[G.labels[u]], vmap[G.labels[v]]]
            rng.shuffle(ends)
            lines_b.append(f"edge {g} {ends[0]} {ends[1]}\n")
        rng.shuffle(lines_a)
        rng.shuffle(lines_b)
        a = write(tmp_path, f"a{k}.mg", "".join(lines_a))
        b = write(tmp_path, f"b{k}.mg", "".join(lines_b))
        code, out, err = run(capsys, "reconstruct", a, b)
        assert (code, err) == (0, "")
        h.update(out.encode())
    assert len(inputs) == 21 + sum(special)
    assert h.hexdigest() == (
        "b3a681e111833c223b22dd6a95590a251444ece9d9f9049e6013aaf2b7c60542")


def test_kozlov_ok(tmp_path, capsys):
    f = write(tmp_path, "tri.cx", "a b\nb c\na c\n")
    code, out, _ = run(capsys, "kozlov", f)
    assert code == 0
    assert "identity holds" in out


def test_kozlov_stdout_pinned(tmp_path, capsys):
    graphs = {"tri": complete_graph(3), "k4": complete_graph(4), "k5": complete_graph(5),
              "c6": cycle_graph(6), "star5": star_graph(5)}
    outs = {}
    for name, G in graphs.items():
        code, outs[name], err = run(capsys, "kozlov", write(tmp_path, name, serialize_complex(G)))
        assert (code, err) == (0, "")
    assert outs == {
        "tri": "identity holds: 6 directed edges, 9 facets\n",
        "k4": "identity holds: 12 directed edges, 64 facets\n",
        "k5": "identity holds: 20 directed edges, 625 facets\n",
        "c6": "identity holds: 12 directed edges, 39 facets\n",
        "star5": "identity holds: 10 directed edges, 6 facets\n",
    }


def test_kozlov_hypothesis_violation(tmp_path, capsys):
    f = write(tmp_path, "par.mg", "edge e1 u v\nedge e2 u v\n")
    code, _, err = run(capsys, "kozlov", f)
    assert code == 3
    assert "hypothesis" in err


def test_parse_error_exit(tmp_path, capsys):
    f = write(tmp_path, "bad.cx", "a a b\n")
    code, _, err = run(capsys, "stats", f)
    assert code == 4
    assert "line 1" in err


def test_max_vertices_guard(tmp_path, capsys):
    f = write(tmp_path, "tri.cx", "a b c\n")
    code, _, err = run(capsys, "build", f, "--max-vertices", "2")
    assert code == 2


def test_mixed_inputs_rejected(tmp_path, capsys):
    a = write(tmp_path, "a.cx", "x y\n")
    b = write(tmp_path, "b.mg", "edge e1 u v\n")
    code, _, err = run(capsys, "iso", a, b)
    assert code == 4


def test_morse_files_chain_and_compare(tmp_path, capsys):
    # the build output is a valid complex file: Morse complexes of Morse
    # complexes work, and two relabellings give isomorphic Morse files
    a = write(tmp_path, "a.cx", "a b\nb c\n")
    b = write(tmp_path, "b.cx", "p q\nq r\n")
    _, out_a, _ = run(capsys, "build", a)
    _, out_b, _ = run(capsys, "build", b)
    ma = write(tmp_path, "ma.cx", out_a)
    mb = write(tmp_path, "mb.cx", out_b)
    code, out, _ = run(capsys, "iso", ma, mb)
    assert code == 0
    code, out, _ = run(capsys, "build", ma)  # M(M(path))
    assert code == 0
    assert any(not line.startswith("#") for line in out.splitlines())


def test_verify_tiny(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "corpus", "--max-vertices", "3",
                       "--samples", "5", "--sample7", "0")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("PASS")) == 10
    assert lines[-1].endswith("criteria passed")


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_verify_cap_below_one_exits_4(capsys, cap):
    # below one vertex every corpus is empty and there is nothing to sample
    code, out, err = run(capsys, "verify", "corpus", "--max-vertices", cap)
    assert (code, out) == (4, "")
    assert err.startswith("bad input: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--samples", "--sample7"])
def test_verify_negative_sample_count_exits_4(capsys, flag):
    # a negative count samples nothing, so it would pass vacuously
    code, out, err = run(capsys, "verify", "corpus", "--max-vertices", "3", flag, "-5")
    assert (code, out) == (4, "")
    assert err.startswith("bad input: ") and len(err.splitlines()) == 1


def test_verify_exhausted_budget_exits_2(capsys):
    # an exhausted budget is no verdict: exit 1 would report failed criteria
    code, out, err = run(capsys, "verify", "corpus", "--max-vertices", "3",
                         "--budget-seconds", "0")
    assert (code, out) == (2, "")
    assert err.startswith("budget exceeded: ") and len(err.splitlines()) == 1


def test_unexpected_error_exits_5_without_traceback(tmp_path, capsys, monkeypatch):
    # exit 1 means a negative verdict, so a crash must not end with exit 1
    from morsecomplex import cli

    def deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_build", deep)
    f = write(tmp_path, "edge.cx", "a b\n")
    code, out, err = run(capsys, "build", f)
    assert code == 5
    assert out == ""
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


def test_iso_of_long_paths_exits_0(tmp_path, capsys, shallow_stack):
    # the search's depth is the vertex count, past the recursion limit here
    n = 400
    cx = write(tmp_path, "path.cx", "".join(f"v{i} v{i + 1}\n" for i in range(n - 1)))
    mg = write(tmp_path, "path.mg",
               "".join(f"edge e{i} v{i} v{i + 1}\n" for i in range(n - 1)))
    for f, n_lines in ((cx, n), (mg, 2 * n - 1)):
        code, out, err = run(capsys, "iso", f, f)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == n_lines
        assert all(line.split()[-3] == line.split()[-1] for line in lines)


def test_cli_transcript_pinned(tmp_path, capsys, monkeypatch):
    # one sha256 over (argv, exit code, stdout) of in-process runs: build and
    # stats on small corpus members, iso and reconstruct both ways on
    # relabelled, line-shuffled copies, on negatives with equal counts and on
    # mixed kinds, kozlov, a small verify and the bad-input exits; no run
    # depends on timing, and the files are named relative to the run directory
    from morsecomplex.corpus import connected_complexes, connected_graphs
    from morsecomplex.formats import serialize_multigraph
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MORSE_BUDGET_SECONDS", raising=False)
    rng = random.Random(3101)

    def put(name, text):
        (tmp_path / name).write_text(text)
        return name

    def shuffled(lines):
        lines = list(lines)
        rng.shuffle(lines)
        return "".join(lines)

    def relabelled_complex(K):
        image = [f"y{i}" for i in range(len(K.labels))]
        rng.shuffle(image)
        lines = []
        for f in K.label_facets():
            face = [image[K.labels.index(v)] for v in f]
            rng.shuffle(face)
            lines.append(" ".join(face) + "\n")
        return shuffled(lines)

    def relabelled_multigraph(G):
        image = [f"y{i}" for i in range(G.n_vertices)]
        rng.shuffle(image)
        ids = [f"g{i}" for i in range(G.n_edges)]
        rng.shuffle(ids)
        lines = []
        for g, (u, v) in zip(ids, G.boundary):
            ends = [image[u], image[v]]
            rng.shuffle(ends)
            lines.append(f"edge {g} {ends[0]} {ends[1]}\n")
        return shuffled(lines)

    argvs = []
    complexes = connected_complexes(5)[::11]
    for k, K in enumerate(complexes):
        a = put(f"a{k}.cx", shuffled(serialize_complex(K).splitlines(keepends=True)))
        b = put(f"b{k}.cx", relabelled_complex(K))
        argvs += [["build", a], ["stats", b]]
        argvs += [[cmd, x, y] for cmd in ("iso", "reconstruct") for x, y in ((a, b), (b, a))]
    multigraphs = [G for G in connected_multigraphs(4, 3) if G.n_edges][::23]
    for k, G in enumerate(multigraphs):
        a = put(f"a{k}.mg", shuffled(serialize_multigraph(G).splitlines(keepends=True)))
        b = put(f"b{k}.mg", relabelled_multigraph(G))
        argvs += [["build", a]]
        argvs += [[cmd, x, y] for cmd in ("iso", "reconstruct") for x, y in ((a, b), (b, a))]
    # negatives: non-isomorphic members with equal vertex and facet (edge) counts
    seen = {}
    for K in connected_complexes(5):
        seen.setdefault((len(K.labels), len(K.facets()), K.f_vector()), []).append(K)
    negatives = [ks[:2] for ks in seen.values() if len(ks) > 1][::5]
    for k, (K, L) in enumerate(negatives):
        a = put(f"n{k}a.cx", serialize_complex(K))
        b = put(f"n{k}b.cx", relabelled_complex(L))
        argvs += [[cmd, x, y] for cmd in ("iso", "reconstruct") for x, y in ((a, b), (b, a))]
    seen = {}
    for G in connected_multigraphs(4, 3):
        seen.setdefault((G.n_vertices, G.n_edges), []).append(G)
    negatives = [gs[:2] for gs in seen.values() if len(gs) > 1][::3]
    for k, (G, H) in enumerate(negatives):
        a = put(f"n{k}a.mg", serialize_multigraph(G))
        b = put(f"n{k}b.mg", relabelled_multigraph(H))
        argvs += [[cmd, x, y] for cmd in ("iso", "reconstruct") for x, y in ((a, b), (b, a))]
    argvs += [[cmd, "a0.cx", "a1.mg"] for cmd in ("iso", "reconstruct")]
    argvs += [["reconstruct", "a1.mg", "a0.cx"]]
    for k, G in enumerate(connected_graphs(4)):
        argvs += [["kozlov", put(f"k{k}.cx", serialize_complex(G))]]
    argvs += [["verify", "corpus", "--max-vertices", "3"]]
    # the exit-2 guard, the exit-3 hypotheses and the exit-4 bad inputs
    argvs += [["build", "a5.cx", "--max-vertices", "3"],
              ["kozlov", put("par.mg", "edge e1 u v\nedge e2 u v\n")],
              ["kozlov", put("tri.cx", "a b c\n")],
              ["build"], ["build", "missing.cx"], ["frobnicate", "a0.cx"],
              ["stats", put("bad.cx", "a a b\n")], ["stats", "a0.mg"],
              ["build", put("bad.mg", "edge e1 u u\n")],
              ["build", "a0.cx", "--budget-seconds", "abc"],
              ["build", "a0.cx", "--budget-seconds", "nan"],
              ["verify", "graphs"], ["iso", "a0.cx"]]
    (tmp_path / "latin.cx").write_bytes("caf\xe9 b\n".encode("latin-1"))
    argvs += [["build", "latin.cx"]]
    h = hashlib.sha256()
    codes = []
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        codes.append(code)
        h.update(repr((argv, code, out)).encode() + b"\n")
    assert {c: codes.count(c) for c in sorted(set(codes))} == {0: 162, 1: 60, 2: 2, 3: 2, 4: 14}
    assert h.hexdigest() == (
        "6bc3c6db42fe123b9872be865fe74e5683c93a1d2cdc5a508b594ed3ad7d4bc5")


def test_cli_transcript_small_corpus_and_facets_inputs(tmp_path, capsys, monkeypatch):
    # one sha256 over (argv, exit code, stdout): build and stats on every
    # member of connected_complexes(4), and build on the facet inputs K5, K6,
    # C12, star12, bd3 and D3, each written with a seeded line order
    from morsecomplex.corpus import connected_complexes
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MORSE_BUDGET_SECONDS", raising=False)
    rng = random.Random(3201)

    def put(name, lines):
        lines = list(lines)
        rng.shuffle(lines)
        (tmp_path / name).write_text("".join(lines))
        return name

    argvs = []
    for k, K in enumerate(connected_complexes(4)):
        name = put(f"c{k}.cx", serialize_complex(K).splitlines(keepends=True))
        argvs += [["build", name], ["stats", name]]
    vs = [f"v{i}" for i in range(13)]
    inputs = {
        "K5": list(itertools.combinations(vs[:5], 2)),
        "K6": list(itertools.combinations(vs[:6], 2)),
        "C12": [(vs[i], vs[(i + 1) % 12]) for i in range(12)],
        "star12": [(vs[0], vs[i]) for i in range(1, 13)],
        "bd3": [[v for v in vs[:4] if v != w] for w in vs[:4]],
        "D3": [vs[:4]],
    }
    for name, facets in inputs.items():
        argvs += [["build", put(f"{name}.cx", (" ".join(f) + "\n" for f in facets))]]
    h = hashlib.sha256()
    codes = []
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        codes.append(code)
        h.update(repr((argv, code, out)).encode() + b"\n")
    assert codes == [0] * 44
    assert h.hexdigest() == (
        "e8d7b1f9dbdf9b84937e42f3ee73f56e00a845a1d0e443573326415472250475")


def test_build_of_larger_facet_inputs_pinned(tmp_path, capsys, monkeypatch):
    # one sha256 over (argv, exit code, stdout) of build on K7, the path P16,
    # the cycle C16 (graphs, whose facets are the maximal rooted forests) and
    # the boundary of the 4-simplex, whose 8,328,325 facets are over the
    # default budget (exit 2); pinned before index-0 layers were pruned to
    # the matchings that close a facet
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MORSE_BUDGET_SECONDS", raising=False)
    rng = random.Random(3401)

    def put(name, lines):
        lines = list(lines)
        rng.shuffle(lines)
        (tmp_path / name).write_text("".join(lines))
        return name

    vs = [f"v{i}" for i in range(16)]
    inputs = {
        "K7": list(itertools.combinations(vs[:7], 2)),
        "P16": [(vs[i], vs[i + 1]) for i in range(15)],
        "C16": [(vs[i], vs[(i + 1) % 16]) for i in range(16)],
        "bd4": [[v for v in vs[:5] if v != w] for w in vs[:5]],
    }
    h = hashlib.sha256()
    codes = []
    for name, facets in inputs.items():
        argv = ["build", put(f"{name}.cx", (" ".join(f) + "\n" for f in facets))]
        code, out, _ = run(capsys, *argv)
        codes.append(code)
        h.update(repr((argv, code, out)).encode() + b"\n")
    assert codes == [0, 0, 0, 2]
    assert h.hexdigest() == (
        "5b52f82525b41e294c753749aac579d72efa94e7aa3907fcb07d55e5fabbd9a8")


def test_build_of_full_4_simplex_refused_pinned(tmp_path, capsys, monkeypatch):
    # the paper's example: M(D4) has 16,369,045 facets, over the default
    # facet budget, so build prints nothing and exits 2 with one stderr line
    monkeypatch.delenv("MORSE_BUDGET_SECONDS", raising=False)
    f = write(tmp_path, "d4.cx", "v0 v1 v2 v3 v4\n")
    code, out, err = run(capsys, "build", f)
    assert (code, out) == (2, "")
    assert err.startswith("budget exceeded: ") and len(err.splitlines()) == 1
    assert err.endswith("facets, over the budget of 1000000\n")
