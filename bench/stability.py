#!/usr/bin/env python3
"""Run workloads on several seeds and report each metric's spread.

    python3 bench/stability.py --seeds 1-10 --seconds 15 [--workload decide-mix ...]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread, which is
(Q3 - Q1) / median. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    for name in names:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.setdefault(name, []).append(dict(result, seed=seed))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    print(f"{'workload':<16} {'metric':<12} {'median':>10} {'Q1':>10} {'Q3':>10} {'spread':>7} {'bound':>6}")
    for name, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"{name:<16} {metric:<12} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{(q3 - q1) / med:>7.3f} {bounds[metric]:>6}")
        print(f"{name:<16} correct in {sum(r['correct'] for r in results)}/{len(results)} runs, "
              f"failed shares {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
