#!/usr/bin/env python3
"""Noise report for the perf benchmark.

Runs the command of BENCHMARK.json `--runs` times per workload, each run
with another seed, in `--sets` sets, and prints for every end-to-end metric
the median, the quartiles (statistics.quantiles(values, n=4)), the spread
(IQR / median) and how far the sets' medians lie apart -- the same numbers
the driver judges the benchmark by -- next to the metric's bound.

Run it from the repository root:

    python3 perfbench/noise.py                 # 2 sets x 10 runs, all workloads
    python3 perfbench/noise.py --runs 5 --workloads read-cold mixed-paced
    python3 perfbench/noise.py --trace 1       # per-layer metrics (no bounds)

Exit code 1 if a run fails, a spread exceeds its bound, or the second set's
median is worse than the first's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1][:200]}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def spread_of(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0, q1, med, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 2)")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workloads", nargs="*", help="default: all of BENCHMARK.json")
    parser.add_argument("--command", nargs="+", help="default: BENCHMARK.json's command")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = args.command or bench["command"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    walls = []
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                values, wall = run_once(
                    command, workload, s * args.runs + i + 1, bench["run_seconds"], args.trace
                )
                runs.append(values)
                walls.append(wall)
                print(f"  {workload} set {s + 1} run {i + 1}: {wall:.1f} s", file=sys.stderr)
            sets.append(runs)
        print(f"\n## {workload} ({args.sets} sets x {args.runs} runs, seeds 1..{args.sets * args.runs})")
        print(f"{'metric':<32} {'unit':<8} {'bound':>6}  " + "  ".join(
            f"{'q1':>11} {'median':>11} {'q3':>11} {'spread':>7}" for _ in sets) + "  set2/set1")
        for metric in declared:
            name = metric["name"]
            bound = metric.get("bound")
            cells, medians, flags = [], [], []
            for runs in sets:
                spread, q1, med, q3 = spread_of([r[name] for r in runs])
                medians.append(med)
                cells.append(f"{q1:>11.4g} {med:>11.4g} {q3:>11.4g} {spread:>6.1%}")
                if bound is not None and name != "setup_s" and spread > bound:
                    flags.append("SPREAD>BOUND")
                elif bound is not None and name != "setup_s" and spread > bound / 3:
                    flags.append("spread>bound/3")
            shift = ""
            if len(medians) > 1 and medians[0]:
                change = (medians[1] - medians[0]) / abs(medians[0])
                shift = f"{change:>+8.1%}"
                worse = -change if metric["better"] == "higher" else change
                if bound is not None and worse > bound:
                    flags.append("SET2 WORSE>BOUND")
            if any(flag.isupper() for flag in flags):
                ok = False
            bound_text = f"{bound:>6.3g}" if bound is not None else f"{'-':>6}"
            print(f"{name:<32} {metric['unit']:<8} {bound_text}  " + "  ".join(cells)
                  + f"  {shift} {' '.join(sorted(set(flags)))}")
    print(f"\nwall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s, "
          f"total {sum(walls):.0f} s over {len(walls)} runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
