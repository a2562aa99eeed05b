"""End-to-end benchmark of the subintegral CLI.

One client in one process, no threads, in a closed loop: each query is a
command-language program handed to the CLI in-process (``cli.main`` with
``--json``), and the next query is sent when the report is back.  Reports are
checked after the timed loop against computations made apart from the
program (see checks.py).

    python3 bench/run.py --workload refute --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of a separate traced run and
writes its spans to bench/out/.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# The first import of a run writes the package's bytecode cache if it is
# missing, so that every timed import reads a warm cache, whatever the
# environment says about writing bytecode.
sys.dont_write_bytecode = False

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

PACKAGE = "subintegral"
SETUPS = 11
# A run stops starting rounds after this much wall time, so that it ends
# within its time limit even when the program has become much slower.
WALL_LIMIT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
COUNT_METRICS = [
    "poly.compose.calls", "poly.mul.calls",
    "arcs.pairs", "arcs.witnesses", "arcs.pullback.calls",
    "arcs.module.cache_hits", "arcs.module.cache_misses", "arcs.module.lookups",
    "linalg.add_row.calls", "linalg.add_row.useful", "linalg.contains.calls",
    "linalg.solve.calls", "linalg.solve.equations", "linalg.solve.unknowns",
    "newton.extreme_rays.calls", "newton.rees_valuations.calls",
    "closure.box_points", "ideals.power.calls",
    "rrs.search_at.calls", "cover.deep_roots.calls", "reductions.star.calls",
]
SELF_METRICS = [
    "poly.compose.self_s", "poly.mul.self_s",
    "arcs.pullback.self_s", "arcs.membership.self_s", "arcs.module.self_s",
    "linalg.add_row.self_s", "linalg.contains.self_s", "linalg.solve.self_s",
    "newton.extreme_rays.self_s",
    "closure.integral_closure.self_s", "closure.i_greater.self_s",
    "closure.membership.self_s", "ideals.colength.self_s", "ideals.power.self_s",
    "rrs.search_at.self_s", "rrs.construct.self_s", "rrs.verify.self_s",
    "cover.deep_roots.self_s", "reductions.star.self_s",
    "reductions.dim_igt.self_s", "reductions.multiplicity.self_s",
    "parser.parse.self_s", "cli.run.self_s", "query.self_s",
]
RATIO_METRICS = {
    # name: (numerator, base)
    "linalg.add_row.useful_ratio": ("linalg.add_row.useful", "linalg.add_row.calls"),
    "arcs.module.hit_ratio": ("arcs.module.cache_hits", "arcs.module.lookups"),
    "arcs.pairs_per_witness": ("arcs.pairs", "arcs.witnesses"),
}


class OpTimeout(Exception):
    """Raised by the alarm when a query outlives its time limit."""


def _alarm(signum, frame):
    raise OpTimeout()


def reference_loop():
    """Fixed pure-Python Fraction work, timed between queries: its median
    tells host drift apart from a change in the program."""
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    return acc


def _package_modules():
    return [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]


# One set-up in a fresh interpreter: import the package and build the round.
# The benchmark's own modules are imported before the clock starts.
SETUP_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
start = time.perf_counter()
import subintegral.cli
workloads.ROUNDS[sys.argv[3]](int(sys.argv[4]))
print(time.perf_counter() - start)
"""


def setup_seconds(src, workload, seed):
    """Median set-up time over SETUPS fresh interpreters.  Each reads the
    bytecode cache that the import in this process has just filled, and each
    draws its own hash seed and memory layout, which move an import by as
    much as a fifth from one process to the next."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(src), str(HERE), workload, str(seed)]
    times = []
    for _ in range(SETUPS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_query(main, query, tracer=None, qid=0):
    buf = io.StringIO()
    code = error = None
    signal.setitimer(signal.ITIMER_REAL, query.limit_s)
    start = perf_counter()
    if tracer is not None:
        tracer.query_span(qid)
    try:
        with redirect_stdout(buf):
            code = main(query.argv())
    except OpTimeout:
        error = f"no answer within {query.limit_s} s"
    except Exception as exc:  # a crash of the program is a failed query
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.close()
        elapsed = perf_counter() - start
    return elapsed, code, buf.getvalue(), error


def run_round(cli, queries, caches, tracer=None, ref_times=None):
    """One round with the module caches emptied first, as in a fresh CLI
    process.  Returns [(seconds, exit code, stdout, error)] per query."""
    for cache in caches:
        cache.cache_clear()
    out = []
    for qid, query in enumerate(queries):
        out.append(run_query(cli.main, query, tracer, qid))
        if ref_times is not None:
            t = perf_counter()
            reference_loop()
            ref_times.append(perf_counter() - t)
    return out


def check_rounds(queries, rounds):
    """Failure reason (or None) per query per round; each distinct answer is
    checked once."""
    seen = {}
    verdicts = []
    for results in rounds:
        row = []
        for i, (_, code, stdout, error) in enumerate(results):
            if error is not None:
                row.append(error)
                continue
            key = (i, code, stdout)
            if key not in seen:
                seen[key] = workloads.check(queries[i], code, stdout)
            row.append(seen[key])
        verdicts.append(row)
    return verdicts


def load_program(seed, workload):
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no {PACKAGE} sources under {src}")
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _alarm)
    cli = importlib.import_module(f"{PACKAGE}.cli")  # also fills the bytecode cache
    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"error: imported {PACKAGE} from {where}, not from {src}")
    setup_s = setup_seconds(src, workload, seed)
    queries = workloads.ROUNDS[workload](seed)
    caches = {}
    for key in _package_modules():
        for value in vars(sys.modules[key]).values():
            if callable(getattr(value, "cache_clear", None)):
                caches[id(value)] = value
    return cli, queries, list(caches.values()), setup_s


def measure(cli, queries, caches, seconds, ref_times):
    """Whole rounds until the time spent in queries reaches `seconds`."""
    rounds, busy = [], 0.0
    wall_start = perf_counter()
    while True:
        results = run_round(cli, queries, caches, ref_times=ref_times)
        rounds.append(results)
        busy += sum(r[0] for r in results)
        if busy >= seconds or perf_counter() - wall_start > WALL_LIMIT_S:
            return rounds, busy


def timed_run(args):
    cli, queries, caches, setup_s = load_program(args.seed, args.workload)
    ref_times = []
    rounds, busy = measure(cli, queries, caches, args.seconds, ref_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = check_rounds(queries, rounds)
    ok_times = [
        results[i][0]
        for results, row in zip(rounds, verdicts)
        for i, reason in enumerate(row)
        if reason is None
    ]
    # Rounds are identical, so the median over rounds drops a round that a
    # burst of load on the host slowed, without dropping any query.
    per_round_ops = [
        sum(1 for reason in row if reason is None) / sum(r[0] for r in results)
        for results, row in zip(rounds, verdicts)
    ]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(per_round_ops),
        "latency_p50_ms": statistics.median(ok_times) * 1e3 if ok_times else 0.0,
        "latency_p90_ms": statistics.quantiles(ok_times, n=10)[8] * 1e3 if len(ok_times) > 1 else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"busy_s": round(busy, 3), "ref_loop_ms": statistics.median(ref_times) * 1e3}
    return queries, rounds, verdicts, metrics, dict(END_TO_END), info


def traced_run(args):
    """Untraced and traced rounds alternate, so that host drift hits both
    alike; the per-layer figures come from the traced ones."""
    cli, queries, caches, _ = load_program(args.seed, args.workload)
    tracer = tracing.Tracer()
    tracer.install(PACKAGE)
    if tracer.missing:
        print(f"# not traced (missing): {', '.join(tracer.missing)}", file=sys.stderr)
    ref_times, rounds, snapshots, plain_s, traced_s = [], [], [], [], []
    wall_start = perf_counter()
    while True:
        tracer.enable(False)
        plain_s.append(sum(r[0] for r in run_round(cli, queries, caches, ref_times=ref_times)))
        tracer.enable(True)
        tracer.keep = not rounds  # keep the spans of the first traced round
        results = run_round(cli, queries, caches, tracer, ref_times)
        rounds.append(results)
        snapshots.append(tracer.snapshot())
        traced_s.append(sum(r[0] for r in results))
        busy = sum(plain_s) + sum(traced_s)
        if busy >= args.seconds or perf_counter() - wall_start > WALL_LIMIT_S:
            break
    verdicts = check_rounds(queries, rounds)
    n = len(rounds)
    per_round = [
        {k: v - prev.get(k, 0) for k, v in snap.items()}
        for prev, snap in zip([{}] + snapshots, snapshots)
    ]
    if all(r == per_round[0] for r in per_round):
        counts = dict(per_round[0])
    else:
        print("# warning: counts differ between traced rounds", file=sys.stderr)
        counts = {k: v / n for k, v in snapshots[-1].items()}
    counts["arcs.module.lookups"] = counts.get("arcs.module.cache_hits", 0) + counts.get(
        "arcs.module.cache_misses", 0)
    selfs = tracer.self_seconds()
    metrics, units = {}, {}
    for name in COUNT_METRICS:
        metrics[name], units[name] = counts.get(name, 0), "count"
    for name in SELF_METRICS:
        metrics[name], units[name] = selfs.get(name, 0.0) / n, "s"
    for name, (num, base_name) in RATIO_METRICS.items():
        denom = counts.get(base_name, 0)
        metrics[name], units[name] = (counts.get(num, 0) / denom if denom else 0.0), "ratio"
    metrics["trace.overhead_s"], units["trace.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(plain_s), "s")
    metrics["ref.loop_ms"], units["ref.loop_ms"] = statistics.median(ref_times) * 1e3, "ms"
    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"trace-{args.workload}-{args.seed}.tsv"
    tracer.write(span_file)
    info = {"busy_s": round(busy, 3), "untraced_rounds": n,
            "spans_file": str(span_file.relative_to(ROOT))}
    return queries, rounds, verdicts, metrics, units, info


def run_all(args):
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.ROUNDS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
            merged["metrics"][f"{workload}.{name}"] = m
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.ROUNDS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run = traced_run if args.trace else timed_run
    queries, rounds, verdicts, metrics, units, info = run(args)
    info.update(workload=args.workload, seed=args.seed, rounds=len(rounds),
                queries_per_round=len(queries))
    reasons = {}
    for row in verdicts:
        for query, reason in zip(queries, row):
            if reason is not None:
                key = (query.family, query.program, reason)
                reasons[key] = reasons.get(key, 0) + 1
    for (family, prog, reason), n in sorted(reasons.items()):
        print(f"# failed x{n} [{family}] {prog}: {reason}", file=sys.stderr)
    failed = sum(reasons.values())
    # Only the named faults may fail; any other failure is a wrong answer.
    unexpected = any(not family.startswith("fault/") for family, _, _ in reasons)
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(queries) * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
