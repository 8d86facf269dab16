"""Benchmark of maninforge: deg/cong computations from the library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Workloads: global-scan, local-diag, level-431, cli-cache (see README.md);
`--workload all` runs each of them in a fresh process, one after another.

With --trace 0 the run repeats whole rounds of its workload's requests for
about S seconds and reports the end-to-end metrics.  With --trace 1 it runs
one round with spans around the program's public functions between two
untraced rounds, and reports per-layer metrics and the tracing overhead.  Every
output is checked; the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "global-scan": workloads.GlobalScan,
    "local-diag": workloads.LocalDiag,
    "level-431": workloads.Level431,
    "cli-cache": workloads.CliCache,
}
SETUP_REPEATS = 7
TAIL_MIN_REQUESTS = 40  # below this a run reports the median as its tail
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
STATE_DIR = os.path.join(HERE, ".state")  # scratch caches and traces


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(root):
    """Import maninforge from the checkout and note its functools caches."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "maninforge", "__init__.py")):
        fail(f"no maninforge sources under {src}; run from a checkout's root")
    sys.path.insert(0, src)
    import importlib

    prog = types.SimpleNamespace(cache_clears=[])
    for short in tracing.MODULES:
        mod = importlib.import_module(f"maninforge.{short}")
        setattr(prog, short, mod)
        if os.path.dirname(os.path.abspath(mod.__file__)) != os.path.join(src, "maninforge"):
            fail(f"maninforge.{short} was imported from outside {src}")
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and getattr(obj, "__module__", None) == mod.__name__:
                prog.cache_clears.append(clear)
    return prog


def make_workload(name, root, prog, scratch):
    if name == "cli-cache":
        return workloads.CliCache(root, scratch)
    return WORKLOADS[name](prog)


# ---------------------------------------------------------------------------
# set-up time: a fresh process up to the first request


def setup_probe(name, seed):
    """What a fresh process does before its first request."""
    prog = import_program(os.getcwd())
    make_workload(name, os.getcwd(), prog, None).levels(seed)


def measure_setup(name, seed, root):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    if name == "cli-cache":
        argv = [sys.executable, "-m", "maninforge.cli", "--help"]
    else:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
                "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=root,
                              timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe exited {proc.returncode}: "
                 f"{proc.stderr.decode(errors='replace')[-400:]}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# rounds


class Tally:
    """Timed passes, attempted and failed operations, and check results."""

    def __init__(self):
        self.timings = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rounds = 0

    def _attempt(self, passes, fn):
        before = len(self.timings)
        try:
            fn()
        except workloads.CheckError as exc:
            self.correct = False
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
        except Exception:  # the run goes on; the passes not made failed
            self.failed += passes - (len(self.timings) - before)
            traceback.print_exc(file=sys.stderr)
        self.attempted += passes

    def serve(self, work, item, tracer=None, **kw):
        """One request (its cold and warm passes); failures are counted."""
        self._attempt(work.passes,
                      lambda: work.run(item, tracer, self.timings, **kw))

    def verify(self, work):
        """The workload's untimed checks against published values."""
        for n in getattr(work, "VERIFY", ()):
            self._attempt(1, lambda: work.verify(n))

    def round(self, work, items, tracer=None, **kw):
        for item in items:
            self.serve(work, item, tracer, **kw)
        self.rounds += 1


def run_rounds(work, items, seconds):
    """Whole rounds while the next one is expected to end within `seconds`."""
    tally = Tally()
    tally.verify(work)
    t0 = time.perf_counter()
    while True:
        tally.round(work, items)
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / tally.rounds > seconds:
            return tally


def tail(latencies, per_round):
    """(percentile, value): the highest whole percentile that leaves at least
    TAIL_BEYOND samples of a round above it; the median below
    TAIL_MIN_REQUESTS requests a round."""
    if per_round < TAIL_MIN_REQUESTS:
        return 50, statistics.median(latencies)
    q = math.floor(100 * (per_round - TAIL_BEYOND) / per_round)
    ordered = sorted(latencies)
    return q, ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(name, tally, per_round, setup_s):
    cold = [t.seconds for t in tally.timings if not t.warm]
    warm = [t.seconds for t in tally.timings if t.warm]
    # a CLI request is one invocation, cold or warm; a library request is a
    # cold pass, its warm repeat being measured on its own
    reqs = cold + warm if name == "cli-cache" else cold
    who = resource.RUSAGE_CHILDREN if name == "cli-cache" else resource.RUSAGE_SELF
    q, tail_s = tail(reqs, per_round * (2 if name == "cli-cache" else 1))
    print(f"{name}: {tally.rounds} round(s), {len(reqs)} requests, tail = p{q}"
          f"{' (median: fewer than %d requests a round)' % TAIL_MIN_REQUESTS if q == 50 else ''}, "
          f"{len(cold)} cold / {len(warm)} warm passes, "
          f"attempted {tally.attempted}, failed {tally.failed}")
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(reqs) / sum(reqs), "req/s"),
        "request_p50_s": (statistics.median(reqs), "s"),
        "request_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "cold_request_p50_s": (statistics.median(cold), "s"),
        "warm_request_p50_s": (statistics.median(warm), "s"),
    }


def traced(name, work, items, trace_path, scratch):
    """A traced round between two untraced ones; per-layer metrics.

    The overhead compares the traced round with the mean of the untraced
    rounds, so that a drift along the run does not read as overhead."""
    plain = Tally()
    plain.verify(work)
    plain.round(work, items)
    traced_tally = Tally()
    if name == "cli-cache":
        trace_dir = os.path.join(scratch, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        traced_tally.round(work, items, trace_dir=trace_dir)
        spans, counts = merge_traces(trace_dir)
    else:
        tracer = tracing.Tracer().install()
        try:
            traced_tally.round(work, items, tracer)
        finally:
            tracer.uninstall()
        spans, counts = tracer.spans, tracer.counts
    plain.round(work, items)
    tracing.write(trace_path, spans, counts)
    warm = {r for r in {s[4] for s in spans} if str(r).endswith(":warm")}
    metrics = tracing.layer_metrics(spans, counts, warm)
    base = sum(t.seconds for t in plain.timings) / plain.rounds
    with_spans = sum(t.seconds for t in traced_tally.timings)
    metrics["trace.overhead_pct"] = (100 * (with_spans - base) / base, "%")
    print_layer_summary(name, metrics, base, with_spans, trace_path)
    return plain, traced_tally, metrics


def merge_traces(trace_dir):
    spans, counts = [], {}
    for fname in sorted(os.listdir(trace_dir)):
        part, part_counts = tracing.load(os.path.join(trace_dir, fname))
        offset = len(spans)
        for rec in part:
            if rec[3] is not None:
                rec[3] += offset
            spans.append(rec)
        for k, v in part_counts.items():
            counts[k] = counts.get(k, 0) + v
    return spans, counts


def print_layer_summary(name, metrics, base, with_spans, trace_path):
    print(f"{name}: traced round {with_spans:.3f} s, untraced {base:.3f} s "
          "(mean of two), "
          f"tracing overhead {metrics['trace.overhead_pct'][0]:.1f} % "
          f"(of the mean untraced round); {metrics['trace.spans'][0]} spans in "
          f"{os.path.relpath(trace_path)}")
    width = max(len(k) for k in metrics)
    for key in sorted(metrics):
        value, unit = metrics[key]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {key:<{width}}  {shown:>12} {unit}")
    print(f"  cli.cache_hit_ratio base: {metrics['cli.warm_operator_requests'][0]} "
          "operator requests in warm CLI invocations")


# ---------------------------------------------------------------------------


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_all(args):
    """Every workload in a fresh process of its own, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv):
    args = parse(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    root = os.getcwd()
    prog = import_program(root)
    scratch = os.path.join(STATE_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        work = make_workload(args.workload, root, prog,
                             os.path.join(scratch, "cache"))
        items = work.levels(args.seed)
        if args.trace:
            trace_path = os.path.join(STATE_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
            plain, with_spans, metrics = traced(args.workload, work, items,
                                                trace_path, scratch)
            tallies = (plain, with_spans)
        else:
            setup_s = measure_setup(args.workload, args.seed, root)
            tally = run_rounds(work, items, args.seconds)
            metrics = end_to_end(args.workload, tally, len(items), setup_s)
            tallies = (tally,)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": all(t.correct for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
