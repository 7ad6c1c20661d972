#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload decide-mix --seed 1 --seconds 15 --trace 0

With --trace 0 the last line holds the end-to-end metrics (ops_per_s,
op_p50_ms, op_tail_ms, setup_s, peak_rss_mb); with --trace 1 it holds the
per-layer metrics of a traced run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
CLI_PROBES = 5  # fresh interpreters per cli.interpreter_ms / cli.import_ms


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def set_up(name: str, seed: int):
    """Import the program, build the inputs, warm up; returns (workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import fixfnm

    if Path(fixfnm.__file__).resolve().parent != SRC / "fixfnm":
        raise SystemExit(f"error: imported fixfnm from {fixfnm.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    workload.warm_up()
    return workload, time.perf_counter() - start


def setup_sample(args) -> float:
    """One set-up in a fresh process."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up sample failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def run_rounds(workload, ops, seconds: float | None, rounds: int | None, min_ops: int = 0):
    """Whole rounds of `ops`, until `rounds` are done, or until `seconds`
    have passed and at least `min_ops` operations were attempted.

    Returns (latencies, attempted, failed, elapsed, problems). The first
    output of each op gets the full checks; later ones must repeat it.
    """
    latencies: list[float] = []
    first: dict[int, object] = {}
    problems: list[str] = []
    attempted = failed = done = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # counted in `failed`; checks cover the rest
                failed += 1
                if failed <= 5:
                    print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - t0)
            if i not in first:
                first[i] = out
            elif workload.outcome(out) != workload.outcome(first[i]):
                problems.append(f"op {i} gave a different answer on a later round")
        done += 1
        elapsed = time.perf_counter() - start
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and elapsed >= seconds and attempted >= min_ops:
            break
    for i, out in first.items():
        problems += workload.check(i, out)
    return latencies, attempted, failed, elapsed, problems


def interpreter_probes() -> dict[str, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    bare, imports = [], []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append(time.perf_counter() - t0)
        code = "import time; t = time.perf_counter(); import fixfnm; print(time.perf_counter() - t)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        imports.append(float(out.stdout))
    return {"cli.interpreter_ms": statistics.median(bare) * 1e3,
            "cli.import_ms": statistics.median(imports) * 1e3}


def traced_run(args, workload):
    """Fixed rounds of the workload with spans on, then one probe round of
    the other workloads for the layers this one does not exercise."""
    import spans
    import workloads

    own_ops = workload.traced_ops()  # before install: it may import fixfnm.cli
    probes = []
    for name, cls in workloads.WORKLOADS.items():
        if name != args.workload:
            probe = cls(args.seed, **cls.probe_size)
            probes.append((probe, probe.traced_ops()[:cls.probe_ops]))
    own, other = spans.Tracer(), spans.Tracer()
    restore = own.install()
    try:
        lat, attempted, failed, elapsed, problems = run_rounds(
            workload, own_ops, None, workload.trace_rounds)
    finally:
        restore()
    restore = other.install()
    try:
        for probe, ops in probes:
            problems += run_rounds(probe, ops, None, 1)[4]
            probe.close()
    finally:
        restore()
    metrics, unreached = spans.layer_metrics(own, other, interpreter_probes(), workload.probe_layers)
    detail = {"traced_ops": len(lat), "traced_op_p50_ms": statistics.median(lat) * 1e3,
              "from_probe": [n for n in metrics if spans.from_probe(n, workload.probe_layers)],
              "unreached": unreached, "own": own.report(), "probe": other.report()}
    return metrics, attempted, failed, problems, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("decide-mix", "subgroup-fold", "crosscheck-ball", "cli-intersect"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fixfnm" / "__init__.py").is_file():
        print(f"error: no fixfnm sources under {SRC}", file=sys.stderr)
        return 2
    workload, setup = set_up(args.workload, args.seed)
    try:
        if args.setup_only:
            print(setup)
            return 0
        detail: dict = {}
        if args.trace:
            metrics, attempted, failed, problems, detail = traced_run(args, workload)
        else:
            samples = [setup] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
            # enough operations that ten lie beyond the tail percentile
            min_ops = round(10 / (1 - workload.tail_pct / 100))
            lat, attempted, failed, elapsed, problems = run_rounds(
                workload, workload.ops, args.seconds, None, min_ops)
            beyond = len(lat) - math.ceil(workload.tail_pct / 100 * len(lat))
            detail = {"setup_samples_s": samples, "ops": len(lat), "tail_pct": workload.tail_pct,
                      "samples_beyond_tail": beyond, "elapsed_s": elapsed,
                      "percentiles_ms": {p: percentile(lat, p) * 1e3 for p in (50, 80, 90, 95, 97, 99, 99.9)}}
            metrics = {
                "ops_per_s": {"value": len(lat) / elapsed, "unit": "1/s"},
                "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
                "op_tail_ms": {"value": percentile(lat, workload.tail_pct) * 1e3, "unit": "ms"},
                "setup_s": {"value": statistics.median(samples), "unit": "s"},
                "peak_rss_mb": {"value": workload.peak_rss_mb(), "unit": "MB"},
            }
        problems += workload.final_check()
    finally:
        workload.close()
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, problems=problems, detail=detail)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
