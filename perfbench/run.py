"""Benchmark of the morsecomplex library: one closed-loop client in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.  The
seed makes the inputs; the library receives only those inputs.  A run sets
up several times (``SETUP_REPEATS``), each from a fresh import, and reports
the median as ``setup_s``, then issues the workload's ops one after another, in whole
rounds of its schedule, until at least ``--seconds`` of ops have run.  Every
op runs under a wall-clock limit.  After each round every answer is checked
against its reference; a wrong answer ends the run with exit code 1.

A shared CPU's speed drifts, within a run and between runs.  So a fixed
pure-Python snippet is timed every ``CAL_EVERY_S`` of CPU time, inside ops
too, and every gated time is reported at a reference speed: the measured time
times ``CAL_REF_S`` over the snippet's mean time while it ran (during the op,
or over the whole phase for an op too short to hold a timing).  The time
spent on the snippet is left out of every measured time.  The raw times are
printed and recorded beside them.

``--trace 1`` sets up once with the layer modules wrapped (see tracer.py),
runs one traced round and one untraced round of the same schedule, and
reports per-layer metrics plus the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A results record goes to ``perfbench/results/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PACKAGE = "morsecomplex"
MODULES = ("corpus", "morse", "isomorphism", "reconstruction", "complexes",
           "formats", "cli", "errors")
SETUP_REPEATS = (3, 9)  # at least 3 set-ups and SETUP_SECONDS of them, at most 9
SETUP_SECONDS = 2.0
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many completed ops beyond it
FAILED = ("timeout", "budget", "failed")
CAL_REF_S = 0.002  # the snippet's time at the reference speed
CAL_EVERY_S = 0.02  # CPU time between two timings of the snippet

sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# metric -> (span, statistic); units follow from the statistic
PER_LAYER = {
    "corpus.connected_complexes.total_s": ("corpus.connected_complexes", "total_s"),
    "corpus.connected_multigraphs.total_s": ("corpus.connected_multigraphs", "total_s"),
    "morse.morse_complex.calls": ("morse.morse_complex", "calls"),
    "morse.morse_complex.total_s": ("morse.morse_complex", "total_s"),
    "morse.minimal_nonfaces.calls": ("morse.MorseComplex.minimal_nonfaces", "calls"),
    "morse.minimal_nonfaces.total_s": ("morse.MorseComplex.minimal_nonfaces", "total_s"),
    "morse.minimal_nonfaces.nonfaces": ("morse.MorseComplex.minimal_nonfaces", "nonfaces"),
    "morse.facet_count.calls": ("morse.MorseComplex.facet_count", "calls"),
    "morse.facet_count.total_s": ("morse.MorseComplex.facet_count", "total_s"),
    "morse.facet_count.facets": ("morse.MorseComplex.facet_count", "facets"),
    "morse.facets.calls": ("morse.MorseComplex.facets", "calls"),
    "morse.facets.total_s": ("morse.MorseComplex.facets", "total_s"),
    "morse.facets.listed": ("morse.MorseComplex.facets", "listed"),
    "morse.dimension.calls": ("morse.MorseComplex.dimension", "calls"),
    "morse.dimension.total_s": ("morse.MorseComplex.dimension", "total_s"),
    "morse.dimension.budget_errors": ("morse.MorseComplex.dimension", "budget_errors"),
    "morse.faces.calls": ("morse.MorseComplex.faces", "calls"),
    "morse.faces.total_s": ("morse.MorseComplex.faces", "total_s"),
    "morse.faces.faces": ("morse.MorseComplex.faces", "faces"),
    "isomorphism.find_isomorphism.calls": ("isomorphism.find_isomorphism", "calls"),
    "isomorphism.find_isomorphism.self_s": ("isomorphism.find_isomorphism", "self_s"),
    "isomorphism.find_isomorphism.positives": ("isomorphism.find_isomorphism", "positives"),
    "isomorphism.find_isomorphism.negatives": ("isomorphism.find_isomorphism", "negatives"),
    "isomorphism.set_family_isomorphisms.calls":
        ("isomorphism.set_family_isomorphisms", "calls"),
    "isomorphism.set_family_isomorphisms.self_s":
        ("isomorphism.set_family_isomorphisms", "self_s"),
    "isomorphism.set_family_isomorphisms.yields":
        ("isomorphism.set_family_isomorphisms", "yields"),
    "reconstruction.MorseIso.calls": ("reconstruction.MorseIso", "calls"),
    "reconstruction.MorseIso.total_s": ("reconstruction.MorseIso", "total_s"),
    "reconstruction.quotient.calls": ("reconstruction.quotient", "calls"),
    "reconstruction.quotient.self_s": ("reconstruction.quotient", "self_s"),
    "reconstruction.quotient.classes": ("reconstruction.quotient", "classes"),
    "reconstruction.induced_quotient_iso.total_s":
        ("reconstruction.induced_quotient_iso", "total_s"),
    "complexes.SimplicialComplex.link.calls": ("complexes.SimplicialComplex.link", "calls"),
    "complexes.SimplicialComplex.link.total_s": ("complexes.SimplicialComplex.link", "total_s"),
    "reconstruction.parallel_pairs.calls": ("reconstruction.parallel_pairs", "calls"),
    "reconstruction.parallel_pairs.total_s": ("reconstruction.parallel_pairs", "total_s"),
    "reconstruction.reconstruct_complex_iso.calls":
        ("reconstruction.reconstruct_complex_iso", "calls"),
    "reconstruction.reconstruct_complex_iso.self_s":
        ("reconstruction.reconstruct_complex_iso", "self_s"),
    "reconstruction.reconstruct_multigraph_iso.calls":
        ("reconstruction.reconstruct_multigraph_iso", "calls"),
    "reconstruction.reconstruct_multigraph_iso.self_s":
        ("reconstruction.reconstruct_multigraph_iso", "self_s"),
    "complexes.VertexBijection.is_simplicial_isomorphism.total_s":
        ("complexes.VertexBijection.is_simplicial_isomorphism", "total_s"),
    "formats.serialize_morse_complex.total_s": ("formats.serialize_morse_complex", "total_s"),
    "formats.serialize_morse_complex.bytes": ("formats.serialize_morse_complex", "bytes"),
    "cli.main.calls": ("cli.main", "calls"),
    "cli.main.total_s": ("cli.main", "total_s"),
    "cli.main.exit_2": ("cli.main", "exit_2"),
}
OVERHEAD = "trace.overhead_ratio"


def layer_unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


class OpTimeout(BaseException):
    """Raised into an op that outran its wall-clock limit.  A BaseException,
    so no handler in the library can swallow it."""


class _Alarm:
    armed = False


def _on_alarm(signum, frame):
    if _Alarm.armed:
        raise OpTimeout


def call_with_limit(fn, arg, limit_s: float):
    _Alarm.armed = True
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn(arg)
    finally:
        _Alarm.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- the CPU's speed -------------------------------------------------------------

def _snippet():
    acc = {}
    for i in range(1500):
        key = frozenset((i % 17, i % 23, i % 31))
        acc[key] = acc.get(key, 0) + i
    return sorted(acc.items(), key=lambda kv: (len(kv[0]), kv[1]))


class Speed:
    """Timings of the snippet, taken every CAL_EVERY_S of CPU time by a SIGPROF
    handler, so inside long ops as well as between ops."""

    def __init__(self):
        self.timings: list[float] = []
        self.spent = 0.0  # seconds spent in the handler, left out of every time

    def _tick(self, signum, frame):
        t = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # the collector's cost grows with the heap, not with the CPU's speed
        try:
            _snippet()
            self.timings.append(time.perf_counter() - t)
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - t

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, first: int = 0):
        """Seconds at the reference speed per measured second, from the
        timings since ``first``; None if there are none."""
        timings = self.timings[first:]
        return CAL_REF_S * len(timings) / sum(timings) if timings else None


def load_library() -> SimpleNamespace:
    """Import the package afresh, dropping any earlier import and its caches."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


# -- the closed loop -----------------------------------------------------------

class Phase:
    """Ops issued by one timed phase: (op, status, latency, kept answer,
    reference-speed seconds per second during the op or None)."""

    def __init__(self):
        self.records: list[tuple] = []
        self.seconds = 0.0
        self.rounds = 0
        self.errors: list[str] = []
        self.speed = Speed()


def check_round(wl, phase: Phase, first: int):
    for op, status, _, kept, _ in phase.records[first:]:
        if status not in FAILED:
            error = wl.check(op, kept)
            if error is not None:
                phase.errors.append(error)


def run_rounds(wl, seconds: float, max_rounds: float, tracer=None) -> Phase:
    """Whole rounds of the schedule until ``seconds`` of ops have run.  Answers
    are checked after each round, except under a tracer, whose caller checks
    once the wrappers are gone.  Without a tracer the CPU's speed is sampled
    meanwhile; with one, times stay raw, as the snippet would land in spans."""
    phase = Phase()
    budget_error = wl.lib.errors.EnumerationBudgetError
    speed = phase.speed
    if tracer is None:
        speed.start()
    while phase.rounds < max_rounds and not phase.errors:
        first = len(phase.records)
        aside = 0.0  # time spent keeping answers and discarding, not in ops
        start = time.perf_counter()
        for op in wl.schedule:
            if tracer is not None:
                tracer.op = len(phase.records)
            t, spent, timed = time.perf_counter(), speed.spent, len(speed.timings)
            try:
                answer = call_with_limit(wl.run, op, wl.limits[op[0]])
                status = "ok"
            except OpTimeout:
                status = "timeout"
            except budget_error:
                status = "budget"
            latency = time.perf_counter() - t - (speed.spent - spent)
            kept = None
            if status == "ok":
                kept = wl.keep(op, answer)
                status = wl.outcome(op, kept)
            elif status == "timeout":
                if tracer is not None:
                    tracer.unwind()
                wl.discard(op)
            phase.records.append((op, status, latency, kept, speed.scale(timed)))
            aside += time.perf_counter() - t - latency
        phase.seconds += time.perf_counter() - start - aside
        phase.rounds += 1
        if tracer is None:
            check_round(wl, phase, first)
        if phase.seconds >= seconds:
            break
    speed.stop()
    return phase


def summarize(wl, phase: Phase) -> dict:
    """Counts, raw rates and latencies, and their values at the reference speed."""
    attempted = len(phase.records)
    failed = sum(1 for r in phase.records if r[1] in FAILED)
    completed = attempted - failed
    # a failed op misses every latency limit; the tail is read among completed
    # ops only, since failed ops, 2% on reconstruct-symmetric, would fill it
    scale = phase.speed.scale() or 1.0
    ref = [r[2] * (r[4] or scale) for r in phase.records]
    lat = sorted(math.inf if r[1] in FAILED else r[2] for r in phase.records)
    ref_lat = sorted(math.inf if r[1] in FAILED else x for r, x in zip(phase.records, ref))
    ok_share = []
    for kind in wl.kinds:
        statuses = [r[1] for r in phase.records if r[0][0] == kind]
        if statuses:
            ok_share.append(sum(1 for st in statuses if st not in FAILED) / len(statuses))
    out = {
        "attempted": attempted,
        "failed": failed,
        "completed": completed,
        "speed_scale": scale,
        "raw_ops_per_s": completed / phase.seconds,
        "raw_op_p50_ms": lat[(attempted + 1) // 2 - 1] * 1e3,
        "ops_per_s": completed / sum(ref),
        "op_p50_ms": ref_lat[(attempted + 1) // 2 - 1] * 1e3,
        "ok_ratio": statistics.fmean(ok_share),
        "fail_ratio": failed / attempted,
    }
    if completed > TAIL_BEYOND:
        rank = completed - TAIL_BEYOND  # nearest rank, 1-based
        out["tail_percentile"] = 100 * rank / completed
        out["raw_op_tail_ms"] = lat[rank - 1] * 1e3
        out["op_tail_ms"] = ref_lat[rank - 1] * 1e3
    return out


def outcome_counts(wl, phase: Phase) -> dict:
    counts = {kind: {"attempted": 0, "ok": 0, "refused": 0, "failed": 0, "timeout": 0,
                     "budget": 0, "latency_s": 0.0} for kind in wl.kinds}
    for op, status, latency, _, _ in phase.records:
        c = counts[op[0]]
        c["attempted"] += 1
        if status in ("timeout", "budget"):
            c["failed"] += 1
        c[status] += 1
        c["latency_s"] += latency
    return counts


# -- run description -----------------------------------------------------------

def commit() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    return lines[1] if len(lines) == 2 and Path(lines[0]).resolve() == ROOT else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def write_record(args, record: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


# -- modes -----------------------------------------------------------------------

def timed_run(args, workdir: str):
    cls = WORKLOADS[args.workload]
    setups = []
    speed = Speed()
    speed.start()
    while (len(setups) < SETUP_REPEATS[0] or sum(setups) < SETUP_SECONDS) \
            and len(setups) < SETUP_REPEATS[1]:
        if setups:
            wl = None
            gc.collect()
        t, spent = time.perf_counter(), speed.spent
        wl = cls(load_library(), args.seed, args.smoke, workdir)
        wl.wrong_reference = args.wrong_reference
        wl.setup()
        setups.append(time.perf_counter() - (t if setups else T0) - (speed.spent - spent))
    speed.stop()
    phase = run_rounds(wl, args.seconds, max_rounds=math.inf)
    s = summarize(wl, phase)
    s["raw_setup_s"] = statistics.median(setups)
    s["setup_s"] = s["raw_setup_s"] * (speed.scale() or 1.0)
    values = {
        "ops_per_s": s["ops_per_s"],
        "op_p50_ms": s["op_p50_ms"],
        "op_tail_ms": s.get("op_tail_ms"),
        "ok_ratio": s["ok_ratio"],
        "setup_s": s["setup_s"],
        "peak_rss_mb": peak_rss_mib(),
    }
    counts = outcome_counts(wl, phase)
    print(f"workload {args.workload}  seed {args.seed}  rounds {phase.rounds}  "
          f"timed {phase.seconds:.3f} s  op limits {wl.limits} s")
    print(f"speed: {len(phase.speed.timings)} snippet timings in the timed phase, "
          f"{len(speed.timings)} in set-up; reference-speed seconds per second: "
          f"{s['speed_scale']:.4f} timed, {speed.scale() or 1.0:.4f} set-up")
    print(f"ops_per_s {values['ops_per_s']:.6g} 1/s  ({s['completed']} completed ops; "
          f"raw {s['raw_ops_per_s']:.6g})")
    print(f"op_p50_ms {values['op_p50_ms']:.6g} ms  (raw {s['raw_op_p50_ms']:.6g})")
    if "op_tail_ms" in s:
        print(f"op_tail_ms {s['op_tail_ms']:.6g} ms  (p{s['tail_percentile']:.4g} of "
              f"{s['completed']} completed ops, {TAIL_BEYOND} beyond it; "
              f"raw {s['raw_op_tail_ms']:.6g})")
    else:
        print(f"op_tail_ms left out: {s['completed']} completed ops, "
              f"not more than {TAIL_BEYOND}")
    print(f"fail_ratio {s['fail_ratio']:.6g}  ({s['failed']} failed / {s['attempted']} attempted)")
    print(f"ok_ratio {s['ok_ratio']:.6g} ratio  (mean over op kinds of completed / attempted: "
          + ", ".join(f"{k} {c['attempted'] - c['failed']}/{c['attempted']}"
                      for k, c in counts.items()) + ")")
    print(f"setup_s {values['setup_s']:.6g} s  (raw median of "
          + ", ".join(f"{x:.3f}" for x in setups) + ")")
    print(f"peak_rss_mb {values['peak_rss_mb']:.6g} MiB")
    record = {"setup_s_each": setups, "setup_speed_scale": speed.scale() or 1.0,
              "rounds": phase.rounds, "timed_s": phase.seconds,
              "op_limit_s": wl.limits, "summary": s,
              "outcomes": counts, "errors": phase.errors[:20]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END if values[name] is not None}
    return phase, s, metrics, record


def traced_run(args, workdir: str):
    cls = WORKLOADS[args.workload]
    lib = load_library()
    tracer = Tracer()
    tracer.install(PACKAGE)
    wl = cls(lib, args.seed, args.smoke, workdir)
    wl.wrong_reference = args.wrong_reference
    wl.setup()
    traced = run_rounds(wl, 0, max_rounds=1, tracer=tracer)
    tracer.uninstall()
    check_round(wl, traced, 0)
    plain = run_rounds(wl, 0, max_rounds=1)
    phase = Phase()
    phase.records = traced.records + plain.records
    phase.errors = traced.errors + plain.errors
    phase.seconds = traced.seconds + plain.seconds
    t_sum, p_sum = summarize(wl, traced), summarize(wl, plain)
    overhead = t_sum["raw_ops_per_s"] / p_sum["raw_ops_per_s"]
    metrics = {}
    for name, (span, stat) in PER_LAYER.items():
        st = tracer.stats.get(span)
        if st is None:
            value = 0
        elif stat in ("calls", "total_s", "self_s"):
            value = getattr(st, stat)
        else:
            value = st.counters.get(stat, 0)
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    metrics[OVERHEAD] = {"value": overhead, "unit": "ratio"}
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.tsv"
    tracer.write_spans(spans_path, T0)
    print(f"workload {args.workload}  seed {args.seed}  traced round "
          f"{traced.seconds:.3f} s, untraced round {plain.seconds:.3f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"tracing overhead: traced/untraced raw ops_per_s = {overhead:.4f} "
          f"({t_sum['raw_ops_per_s']:.6g} / {p_sum['raw_ops_per_s']:.6g} 1/s)")
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    record = {"traced": t_sum, "untraced": p_sum, "spans": len(tracer.spans),
              "op_limit_s": wl.limits, "outcomes": outcome_counts(wl, phase),
              "errors": phase.errors[:20],
              "per_layer_all": {name: {"calls": st.calls, "total_s": st.total_s,
                                       "self_s": st.self_s, **st.counters}
                                for name, st in sorted(tracer.stats.items())}}
    phase.speed = plain.speed
    return phase, summarize(wl, phase), metrics, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs, for the benchmark's self-test")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="corrupt one reference; the run must then exit 1")
    args = ap.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no library sources at {SRC / PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("MORSE_BUDGET_SECONDS", None)  # the CLI's own defaults apply
    signal.signal(signal.SIGALRM, _on_alarm)
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"inputs-{os.getpid()}"
    workdir.mkdir()
    try:
        mode = traced_run if args.trace else timed_run
        phase, s, metrics, record = mode(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = not phase.errors
    for error in phase.errors[:20]:
        print(f"WRONG ANSWER: {error}", file=sys.stderr)
    record.update(environment(args), correct=correct, metrics=metrics)
    print(f"results record: {write_record(args, record).relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
