"""Seeded fuzzing of the command line's exit-code contract.

``main()`` runs in-process on random bytes, random complex and multigraph
files and random flags, every time budget at most 0.5 s.  A second batch
gives ``iso`` and ``reconstruct`` a relabelled, line-shuffled copy of the
first file as the second, so that they reach exit 0 too.  Each run must exit
0-5; a non-zero exit leaves stdout empty and writes exactly one stderr line;
running the same arguments again gives the same exit code and stdout.  The
driver records violations instead of asserting, so that it checks the same
under ``python -O``, which strips ``assert``; run as a script it fuzzes in
the directory given and exits 1 on a violation.
"""

import contextlib
import io
import os
import random
import subprocess
import sys

from morsecomplex.cli import main

SEED = 2015
CASES = 120
COPIED_CASES = 60
LABELS = "abcdeuvw"


def _random_bytes(rng):
    return bytes(rng.randrange(256) for _ in range(rng.randrange(40)))


def _complex_text(rng):
    lines = []
    for _ in range(rng.randrange(5)):
        face = [rng.choice(LABELS[:4]) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.8:
            face = sorted(set(face))  # mostly valid; duplicates are a parse error
        lines.append(" ".join(face) + (" # note" if rng.random() < 0.2 else ""))
    return "\n".join(lines) + "\n"


def _multigraph_text(rng):
    lines = []
    for k in range(rng.randrange(6)):
        u, v = rng.sample(LABELS[5:] + "a", 2)
        if rng.random() < 0.05:
            v = u  # a loop: a parse error
        eid = f"e{rng.randrange(4) if rng.random() < 0.05 else k}"
        lines.append(f"edge {eid} {u} {v}")
    if rng.random() < 0.3:
        lines.append(rng.choice(["vertex z", "vertex", "edge e9 u", "loop u"]))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _flags(rng):
    r = rng.random()
    seconds = "0.5" if r < 0.8 else rng.choice(["0", "-1"] if r < 0.95 else ["nan", "x"])
    out = ["--budget-seconds", seconds]
    if rng.random() < 0.2:
        out += ["--budget-facets", rng.choice(["1", "10", "1000", "-3", "ten"])]
    if rng.random() < 0.3:
        out += ["--max-vertices", str(rng.randrange(6))]
    if rng.random() < 0.2:
        out += ["--seed", str(rng.randrange(100))]
    if rng.random() < 0.02:
        out.append("--no-such-flag")
    return out


def _relabelled_copy(text, rng):
    """The same file under one random renaming of its labels and edge ids,
    with comments dropped, lines shuffled and the labels of each simplex or
    edge reordered."""
    heads = ("edge", "vertex", "loop")
    rows = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    names = sorted({w for words in rows for w in words} - set(heads))
    image = [f"x{i}" for i in range(len(names))]
    rng.shuffle(image)
    rename = dict(zip(names, image))
    lines = []
    for words in rows:
        words = [rename.get(w, w) for w in words]
        if words[:1] == ["edge"] and len(words) == 4:
            words[2:] = rng.sample(words[2:], 2)
        elif not words or words[0] not in heads:
            rng.shuffle(words)
        lines.append(" ".join(words) + "\n")
    rng.shuffle(lines)
    return "".join(lines)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _write(workdir, name, data):
    path = os.path.join(workdir, name)
    with open(path, "wb") as fh:
        fh.write(data if isinstance(data, bytes) else data.encode())
    return path


def _random_cases(workdir):
    rng = random.Random(SEED)
    makers = (_random_bytes, _complex_text, _complex_text, _multigraph_text,
              _multigraph_text)
    for case in range(CASES):
        paths = []
        maker = rng.choice(makers)
        for j in range(2):
            data = (maker if rng.random() < 0.9 else rng.choice(makers))(rng)
            paths.append(_write(workdir, f"case{case}-{j}.txt", data))
        if rng.random() < 0.05:
            paths[0] = os.path.join(workdir, "missing.txt")
        command = rng.choice(["build", "stats", "iso", "reconstruct", "kozlov"])
        files = paths if command in ("iso", "reconstruct") else paths[:1]
        argv = [command, *files, *_flags(rng)]
        if rng.random() < 0.03:
            argv = argv[:1]  # a usage error: the file is missing
        yield argv


def _copied_cases(workdir):
    rng = random.Random(SEED + 1)
    for case in range(COPIED_CASES):
        text = rng.choice((_complex_text, _multigraph_text))(rng)
        paths = [_write(workdir, f"copy{case}-0.txt", text),
                 _write(workdir, f"copy{case}-1.txt", _relabelled_copy(text, rng))]
        yield [rng.choice(["iso", "reconstruct"]), *paths, *_flags(rng)]


def fuzz_contract(workdir):
    """Violations of the exit-code contract, as readable lines."""
    violations = []
    succeeded = set()
    for argv in [*_random_cases(workdir), *_copied_cases(workdir)]:
        code, out, err = _run(argv)
        if code not in range(6):
            violations.append(f"{argv}: exit {code}")
        if code and (out or len(err.splitlines()) != 1):
            violations.append(f"{argv}: exit {code} with stdout {out!r}, stderr {err!r}")
        again = _run(argv)
        if again[:2] != (code, out):
            violations.append(f"{argv}: rerun gave exit {again[0]}, other stdout")
        if code == 0:
            succeeded.add(argv[0])
    if not {"iso", "reconstruct"} <= succeeded:
        violations.append(f"only {sorted(succeeded)} ever exited 0")
    return violations


def test_exit_code_contract_fuzz(tmp_path):
    assert fuzz_contract(str(tmp_path)) == []


def test_exit_code_contract_fuzz_under_optimize(tmp_path):
    import morsecomplex
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(morsecomplex.__file__)))
    done = subprocess.run([sys.executable, "-O", __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    found = fuzz_contract(sys.argv[1])
    print("\n".join(found))
    sys.exit(1 if found else 0)
