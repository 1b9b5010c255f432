#!/usr/bin/env python3
"""Repeatability study of the ledger: runs every workload `--runs` times,
each time with another seed, and prints per end-to-end metric x workload
the median, the quartiles, the quartile spread as a share of the median
(what the driver gates on) and the largest deviation from the median.

    python3 crates/bench/src/bin/ledger/repeat.py --runs 10 --out runs.jsonl

Builds the ledger once, then calls the binary directly. `--out` keeps one
JSON line per run; `--from` re-reads such a file instead of running."""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "../../../../.."))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest], check=True)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(target, "release", "ledger")


def run(binary, workload, seed, seconds, trace):
    start = time.time()
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall, **result}


def summarize(rows):
    print(f"{'workload':16} {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'maxdev':>8}")
    for workload in WORKLOADS:
        mine = [r for r in rows if r["workload"] == workload and r["trace"] == 0]
        if len(mine) < 2:
            continue
        for metric in mine[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in mine]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            maxdev = max(abs(v - med) for v in values) / med
            print(f"{workload:16} {metric:20} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:8.4f} {maxdev:8.4f}")
        walls = [r["wall_s"] for r in mine]
        print(f"{workload:16} {'(wall seconds)':20} {statistics.median(walls):12.3f} {min(walls):12.3f} {max(walls):12.3f}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true", help="repeat one seed instead of stepping it")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--from", dest="source")
    args = parser.parse_args()
    if args.source:
        rows = [json.loads(line) for line in open(args.source)]
    else:
        binary = build()
        rows = []
        out = open(args.out, "a") if args.out else None
        for i in range(args.runs):
            for workload in args.workload or WORKLOADS:
                seed = args.first_seed + (0 if args.same_seed else i)
                row = run(binary, workload, seed, args.seconds, args.trace)
                rows.append(row)
                if out:
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                print(f"# {workload} seed {seed}: {row['wall_s']:.1f} s, correct={row['correct']}", file=sys.stderr)
    summarize(rows)


if __name__ == "__main__":
    main()
