"""Run one workload over several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 20]

For every end-to-end metric it prints the median of the runs and the
distance between their first and third quartiles (`statistics.quantiles`,
n=4) as a share of that median, next to the metric's bound in
BENCHMARK.json.  Runs go one after another from the current directory,
which must be a checkout's root; the raw results are kept in
perfbench/.state/spread-NAME.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"], result["wall_s"] = seed, wall
        runs.append(result)
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
    os.makedirs(os.path.join(HERE, ".state"), exist_ok=True)
    with open(os.path.join(HERE, ".state", f"spread-{args.workload}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    print(f"{'metric':<20} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>7} {'bound':>6}")
    for spec in bench["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        print(f"{spec['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{(q3 - q1) / med:>7.3f} {spec['bound']:>6}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}; max wall {max(r['wall_s'] for r in runs):.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
