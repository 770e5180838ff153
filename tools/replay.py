"""Replay a fixed list of ``morsecx`` commands under several interpreters and
two hash seeds, and check that every run prints the same thing.

The script writes its inputs (two relabelled complexes, two relabelled
multigraphs, a graph, a tetrahedron, the full 4-simplex and its boundary, the
complete graph K7 and the 6-vertex real projective plane) to a temporary
directory.  It runs each command as ``<python> -m morsecomplex.cli ...`` with
``src/`` on PYTHONPATH, under every interpreter named on its command line
(default: the one running the script), once with PYTHONHASHSEED 0 and once
with 1.  It exits 1 when any run's exit code, stdout or stderr differs from
the first run of the same command.  It uses the standard library only, so it
runs under interpreters that have no pytest.

Run from anywhere:  python tools/replay.py [PYTHON ...]
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a relabelled, line-shuffled copy of each input, so that reconstruct and iso
# print a map that is not the identity
INPUTS = {
    "k.cx": "a b c\nb c d\nd e\ne f\n",
    "l.cx": "r q\nt s p\nu r\ns p q\n",
    "g.mg": "edge e1 u v\nedge e2 u v\nedge e3 v w\nedge e4 w x\nedge e5 x u\nedge e6 x u\n",
    "h.mg": "edge f1 d a\nedge f2 a b\nedge f3 b c\nedge f4 c d\nedge f5 a b\nedge f6 d a\n",
    "graph.cx": "a b\nb c\nc d\nd a\na c\nd e\n",
    # three layers: its facets are listed through the layered count
    "tetra.cx": "a b c d\n",
    # refused with exit 2: the "at least N facets" line on stderr depends on
    # the order in which the index-1 walk yields its matchings
    "d4.cx": "a b c d e\n",
    "bd4.cx": "a b c d\na b c e\na b d e\na c d e\nb c d e\n",
    # 117,649 facets: build writes them in several chunks
    "k7.cx": "".join(f"v{i} v{j}\n" for i, j in combinations(range(7), 2)),
    # refused with exit 2 under --budget-facets 100000: two layers, so the
    # refusal comes in the branch of the count where index 1 is the last
    "rp2.cx": "1 2 3\n1 3 4\n1 4 5\n1 5 6\n1 6 2\n2 3 5\n3 4 6\n4 5 2\n5 6 3\n6 2 4\n",
}

COMMANDS = (
    ("build", "k.cx"),
    ("build", "g.mg"),
    ("build", "tetra.cx"),
    ("build", "d4.cx"),
    ("build", "bd4.cx"),
    ("build", "k7.cx"),
    ("build", "rp2.cx", "--budget-facets", "100000"),
    ("reconstruct", "k.cx", "l.cx"),
    ("reconstruct", "g.mg", "h.mg"),
    ("iso", "k.cx", "l.cx"),
    ("iso", "g.mg", "h.mg"),
    ("stats", "k.cx"),
    ("kozlov", "graph.cx"),
    ("verify", "corpus", "--max-vertices", "4"),
)

HASH_SEEDS = ("0", "1")


def _run(python: str, argv, cwd: str, hash_seed: str) -> tuple[int, str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MORSE_BUDGET_SECONDS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed,
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([python, "-m", "morsecomplex.cli", *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return done.returncode, done.stdout, done.stderr


def main(pythons) -> int:
    pythons = pythons or [sys.executable]
    for python in pythons:
        version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                                 stdout=subprocess.PIPE, text=True).stdout.strip()
        print(f"python {version or '?'}  {python}")
    differ = 0
    with tempfile.TemporaryDirectory(prefix="replay-") as tmp:
        for name, text in INPUTS.items():
            Path(tmp, name).write_text(text)
        for argv in COMMANDS:
            runs = [_run(python, argv, tmp, seed) for python in pythons for seed in HASH_SEEDS]
            same = all(run == runs[0] for run in runs)
            differ += not same
            lines = runs[0][1].count("\n")
            print(f"{'same' if same else 'DIFFERS':<8} exit {runs[0][0]}, {lines:>6} lines  "
                  f"morsecx {' '.join(argv)}")
    runs = len(pythons) * len(HASH_SEEDS)
    print(f"{len(COMMANDS) - differ}/{len(COMMANDS)} commands identical over {runs} runs each")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
