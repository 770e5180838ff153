"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, from the root of a checkout:

1. a reduced run (``--smoke``) of each workload exits 0 and prints every
   ``end_to_end`` metric of BENCHMARK.json with its unit, on its own stdout
   line and in the final JSON; with ``--trace 1`` the same for ``per_layer``;
2. each reduced run writes a results record with the Python version, nproc,
   commit, seed and per-op outcome counts;
3. a reduced run with ``--wrong-reference`` exits non-zero, for each workload;
4. the benchmark's pruned power-set oracle equals
   ``verify.brute_force_morse_facets`` on complexes small enough for the
   unpruned one.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def metric_problems(proc, wanted: list) -> list[str]:
    problems = []
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{m['name']} [{m['unit']}] missing from the JSON result")
        if not any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line
                   for line in lines[:-1]):
            problems.append(f"{m['name']} [{m['unit']}] has no stdout line")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def record_problems(workload: str, trace: int) -> list[str]:
    path = HERE / "results" / f"{workload}-seed7-trace{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    need = ("python", "nproc", "commit", "seed", "outcomes")
    problems = [f"results record lacks {k}" for k in need if k not in record]
    for kind, counts in record.get("outcomes", {}).items():
        if not {"ok", "refused", "failed"} <= set(counts):
            problems.append(f"outcomes of {kind} lack ok/refused/failed")
    return problems


def oracle_problems() -> list[str]:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import refs
    from morsecomplex import closure, morse
    from morsecomplex.verify import brute_force_morse_facets
    problems = []
    for facets in (["ab", "bc", "ca"], ["abc"], ["ab", "bc", "cd"], ["ab", "ac", "ad"],
                   ["ab", "ac", "ad", "bc", "bd", "cd"], ["abc", "cd"]):
        K = closure([list(f) for f in facets])
        pairs = morse.primitive_pairs(K)
        brute = {frozenset(pairs[i] for i in s) for s in brute_force_morse_facets(K)}
        if brute != refs.oracle_facets(morse, K):
            problems.append(f"pruned oracle disagrees with brute force on {facets}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(name, trace)
            if proc.returncode != 0:
                problems.append(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            problems += [f"{name} trace {trace}: {p}" for p in metric_problems(proc, spec[key])]
            problems += [f"{name} trace {trace}: {p}" for p in record_problems(name, trace)]
        proc = run(name, 0, "--wrong-reference")
        if proc.returncode == 0:
            problems.append(f"{name}: a wrong reference did not fail the run")
    problems += oracle_problems()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
