"""Seeded fuzzing of the command line's exit-code contract.

``main()`` runs in-process on random bytes, random complex and multigraph
files and random flags, every time budget at most 0.5 s.  Each run must exit
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


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fuzz_contract(workdir):
    """Violations of the exit-code contract, as readable lines."""
    rng = random.Random(SEED)
    makers = (_random_bytes, _complex_text, _complex_text, _multigraph_text,
              _multigraph_text)
    violations = []
    for case in range(CASES):
        paths = []
        maker = rng.choice(makers)
        for j in range(2):
            data = (maker if rng.random() < 0.9 else rng.choice(makers))(rng)
            path = os.path.join(workdir, f"case{case}-{j}.txt")
            with open(path, "wb") as fh:
                fh.write(data if isinstance(data, bytes) else data.encode())
            paths.append(path)
        if rng.random() < 0.05:
            paths[0] = os.path.join(workdir, "missing.txt")
        command = rng.choice(["build", "stats", "iso", "reconstruct", "kozlov"])
        files = paths if command in ("iso", "reconstruct") else paths[:1]
        argv = [command, *files, *_flags(rng)]
        if rng.random() < 0.03:
            argv = argv[:1]  # a usage error: the file is missing
        code, out, err = _run(argv)
        if code not in range(6):
            violations.append(f"{argv}: exit {code}")
        if code and (out or len(err.splitlines()) != 1):
            violations.append(f"{argv}: exit {code} with stdout {out!r}, stderr {err!r}")
        again = _run(argv)
        if again[:2] != (code, out):
            violations.append(f"{argv}: rerun gave exit {again[0]}, other stdout")
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
