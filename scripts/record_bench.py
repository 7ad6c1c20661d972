#!/usr/bin/env python3
"""Record benchmark rows for a parent revision and for this checkout.

    python3 scripts/record_bench.py --parent REV --out BENCH_<n>.json \
        [--seed 1] [--seconds SECONDS]

The parent revision is exported with `git archive` into a temporary
directory; the change is this checkout as it stands, uncommitted edits
included. Every measurement below is made in PAIRS (10) pairs, one run per
tree, and the side that runs first alternates from pair to pair, so drift
of the host hits both trees alike. Pair k uses seed `--seed` + k on both
sides.

  - End to end: for each workload that `BENCHMARK.json` names, PAIRS
    pairs of `bench/run.py --trace 0` runs, each `--seconds` long
    (`BENCHMARK.json`'s `run_seconds` unless given). Every run is kept;
    each side gets the median and quartiles of each metric, and a
    comparison block counts the pairs the change wins (ties count for
    neither) next to the parent's interquartile range.
  - Per label: PAIRS pairs of `bench/run.py --workload decide-mix
    --trace 1` runs (fixed rounds; `--seconds` does not apply), keeping
    the 16 `decision.label.*.p50_us` rows of each, with medians and
    quartiles.
  - Per layer: PAIRS pairs of `bench/run.py --workload subgroup-fold
    --trace 1` runs (fixed rounds), keeping the `self_ms` rows of
    `stallings.from_generators`, `stallings.intersect`, `stallings.basis`
    and `stallings.express`, with medians and quartiles and the same
    comparison block as the end-to-end rows.
  - Fold and ball curves: PAIRS pairs of `bench/reference.py` runs,
    keeping its fold/express table (best of 3 at 402, 802 and 1602 wedge
    edges) and its ball table (`common_fixed_points` on the curated
    nontrivial 1.8 pair, best of 3 at radius 4, 5 and 6), and the median
    per size.
  - Timed blocks (large fold, small graphs, classify curve, lattice
    calls): PAIRS pairs of one process per tree and block, with that
    tree's `src/` on the path, each printing the best of its rounds, per
    call, of each of its rows, and the median per row.
  - Large fold: `from_generators` on (a1 a2)^2500, (a1 a2)^2501 (row
    10002, the wedge edges, past the end of the `bench/reference.py`
    curve) as the best of 3, in ms.
  - Small graphs: the best of 5 rounds of 1,000 calls, in µs per call, of
    `from_generators([a1 a2])`, of `intersect` of <a1 a2, a2 a1> (3
    vertices) and <a1^2, a2> (2 vertices) with `basis` of the result, and
    of `FixOracle().fix(inner_hom(a2 a1))`.
  - Classify curve: `ProductEndo` construction from the four blocks and
    `classify` of the result together, on the shape I map with bases
    a1 a2 and b1 b2^-1 b1 whose eight block images are rho^k for their
    coordinate's base rho, at k = 1,260, 2,520, 5,040 and 10,080 (one
    row per k), as the best of 5 rounds of 10 calls, in ms.
    Construction validates the blocks with the power test that `classify`
    reads, so the pair is timed as one.
  - Lattice calls: the best of 5 rounds of 1,000 calls, in µs per call, of
    `TypeI.fixed_exponents` on a shape I map whose exponent matrix is
    singular, and of `IntLattice2.intersect` of <(2, 1), (0, 6)> and
    <(3, 2), (0, 4)>.
  - Drag curve: PAIRS pairs of one process per tree per point, with that
    tree's `src/` on the path, running `fixfnm intersect` of the identity
    diagonal with the shape III drag file `a1 -> (a1^N, 1)`,
    `a2 -> (1, 1)`, `b1 -> (a1, b1)`, `b2 -> (1, b2)` (label 1.3) at
    N = 1,250, 2,500, 5,000 and 10,000, and the median wall time and
    child `ru_maxrss` per N.
  - Tier-1: one timed run of the tier-1 suite per tree.
  - Imports: per tree, the median wall time of 7 fresh processes each for
    the bare interpreter, `import fixfnm`, the Stallings imports (`from
    fixfnm import from_generators, express_in_generators`), `import
    fixfnm.cli` and `fixfnm intersect --json`; the fixfnm modules that
    each of these loads, read from one `-X importtime` run; and the median
    `-X importtime` cumulative time of every fixfnm module that
    `intersect` loads. The 7 rounds alternate between the trees like the
    pairs above, so drift of the host hits both alike.

Everything is written to one JSON file, named relative to the repository
root, with the host it was measured on.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_RUNS = 7
FOLD_LAYERS = tuple(
    f"stallings.{layer}.self_ms" for layer in ("from_generators", "intersect", "basis", "express")
)
PAIRS = 10  # the fewest pairs a 9-in-10 win count can be read from
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")  # ROADMAP's tier-1 command
INTERSECT = (
    "-m", "fixfnm", "intersect", "scripts/data/diag.endo", "scripts/data/swap.endo", "--json"
)
# block name -> the setup that defines `rows` (row name -> call), the rounds, the calls per
# round and the unit of the per-call times that TIMING prints
TIMED = {
    "large_fold": dict(rounds=3, calls=1, unit="ms", setup=(
        "a1, a2 = F.Alphabet(2, 'a').generators()\n"
        "gens = [(a1 * a2) ** 2500, (a1 * a2) ** 2501]\n"
        "rows = {'10002': lambda: F.from_generators(gens)}\n"
    )),
    "small_graph": dict(rounds=5, calls=1000, unit="us", setup=(
        "a1, a2 = F.Alphabet(2, 'a').generators()\n"
        "h, k = F.from_generators([a1 * a2, a2 * a1]), F.from_generators([a1 * a1, a2])\n"
        "inner = F.inner_hom(a2 * a1)\n"
        "rows = {'from_generators': lambda: F.from_generators([a1 * a2]),\n"
        "        'intersect_basis': lambda: h.intersect(k).basis(),\n"
        "        'fix_inner': lambda: F.FixOracle().fix(inner)}\n"
    )),
    "classify_curve": dict(rounds=5, calls=10, unit="ms", setup=(
        "a, b = F.Alphabet(2, 'a'), F.Alphabet(2, 'b')\n"
        "u, v = F.parse_word('a1 a2', a), F.parse_word('b1 b2^-1 b1', b)\n"
        "def row(k):\n"
        "    e = F.TypeI(u, v, (k, k), (k, k), (k, k), (k, k)).as_endo()\n"
        "    blocks = (e.first_from_first, e.first_from_second, e.second_from_first,\n"
        "              e.second_from_second)\n"
        "    return lambda: F.classify(F.ProductEndo(*blocks))\n"
        "rows = {str(k): row(k) for k in (1260, 2520, 5040, 10080)}\n"
    )),
    "lattice_calls": dict(rounds=5, calls=1000, unit="us", setup=(
        "a, b = F.Alphabet(2, 'a'), F.Alphabet(2, 'b')\n"
        "shape = F.TypeI(F.parse_word('a1', a), F.parse_word('b1', b), (2, 0), (1, 0), (1, 0), (2, 0))\n"
        "first = F.IntLattice2.from_rows([(2, 1), (0, 6)])\n"
        "second = F.IntLattice2.from_rows([(3, 2), (0, 4)])\n"
        "rows = {'fixed_exponents': shape.fixed_exponents,\n"
        "        'intersect': lambda: first.intersect(second)}\n"
    )),
}
TIMING = """import json, time, fixfnm as F
{setup}best = {{}}
for name, call in rows.items():
    best[name] = float('inf')
    for _ in range({rounds}):
        started = time.perf_counter()
        for _ in range({calls}):
            call()
        best[name] = min(best[name], time.perf_counter() - started)
scale = {{'ms': 1e3, 'us': 1e6}}['{unit}'] / {calls}
print(json.dumps({{name: t * scale for name, t in best.items()}}))
"""
DRAG_SIZES = (1250, 2500, 5000, 10000)
IDENTITY_ENDO = "endo 2 2\na1 -> ( a1 , 1 )\na2 -> ( a2 , 1 )\nb1 -> ( 1 , b1 )\nb2 -> ( 1 , b2 )\n"
DRAG_ENDO = "endo 2 2\na1 -> ( a1^{n} , 1 )\na2 -> ( 1 , 1 )\nb1 -> ( a1 , b1 )\nb2 -> ( 1 , b2 )\n"
IMPORT_COMMANDS = {
    "interpreter": ("-c", "pass"),
    "import_fixfnm": ("-c", "import fixfnm"),
    "import_stallings": ("-c", "from fixfnm import from_generators, express_in_generators"),
    "import_fixfnm_cli": ("-c", "import fixfnm.cli"),
    "intersect_json": INTERSECT,
}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def export(rev: str, into: Path) -> None:
    """Write the files of ``rev`` under ``into``."""
    archive = into / "tree.tar"
    subprocess.run(["git", "archive", "--output", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree")
    archive.unlink()


def src_env(tree: Path) -> dict[str, str]:
    """The environment of a process that imports ``tree``'s fixfnm."""
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def run(tree: Path, *args: str, exits: tuple[int, ...] = (0,),
        src: bool = True) -> subprocess.CompletedProcess:
    """One Python process in ``tree``, with its `src/` on the path unless ``src`` is false (the
    `bench/` scripts put it there and pass PYTHONPATH on to their children as they find it).
    An exit code outside ``exits`` raises with the tail of the child's stderr."""
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=src_env(tree) if src else None,
                          capture_output=True, text=True)
    if proc.returncode not in exits:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise RuntimeError(f"{' '.join(args)[:120]} in {tree} exited {proc.returncode}:\n{tail}")
    return proc


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last line of one `bench/run.py` run, parsed."""
    proc = run(tree, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), src=False)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_rows(tree: Path, workload: str, seed: int, keep) -> dict[str, float]:
    """The rows of one traced run whose names ``keep`` accepts."""
    metrics = bench_run(tree, workload, seed, 0, trace=1)["metrics"]
    return {name: row["value"] for name, row in metrics.items() if keep(name)}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the runs of one side."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(ours: list[float], theirs: list[float], direction: str) -> dict:
    """Pairs won by each side (ties count for neither), medians, the parent's IQR."""
    sign = 1 if direction == "higher" else -1
    base = spread(theirs)
    return {
        "better": direction,
        "change_wins": sum(sign * (c - p) > 0 for c, p in zip(ours, theirs)),
        "parent_wins": sum(sign * (c - p) < 0 for c, p in zip(ours, theirs)),
        "parent_median": base["median"],
        "change_median": statistics.median(ours),
        "parent_iqr": base["q3"] - base["q1"],
    }


def spread_and_compare(rows: dict[str, list[dict[str, float]]], better: dict[str, str]):
    """Each side's spread of each column of its ``rows`` (one per pair), and for each column
    that ``better`` gives a direction, the comparison of the change with the parent."""
    values = {side: {c: [row[c] for row in runs] for c in runs[0]} for side, runs in rows.items()}
    spreads = {side: {c: spread(v) for c, v in columns.items()} for side, columns in values.items()}
    return spreads, {c: compare(values["change"][c], values["parent"][c], direction)
                     for c, direction in better.items()}


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    """The median of each column of ``rows``, which share their columns."""
    return {column: statistics.median(row[column] for row in rows) for column in rows[0]}


def median_per_size(tables: list[list[dict]], size: str) -> list[dict]:
    """Per value of the ``size`` column, ascending, the medians of the rows that have it."""
    by_size: dict[int, list[dict]] = defaultdict(list)
    for table in tables:
        for row in table:
            by_size[row[size]].append(row)
    return [{**medians(rows), size: n} for n, rows in sorted(by_size.items())]


REFERENCE_TABLES = {"fold": "edges  fold_ms  express_ms", "ball": "radius  elements  hits  ms"}


def reference_tables(tree: Path) -> dict[str, list[dict]]:
    """The fold and ball tables of one `bench/reference.py` run, by their REFERENCE_TABLES key."""
    lines = run(tree, "bench/reference.py", src=False).stdout.splitlines()
    tables = {}
    for name, header in REFERENCE_TABLES.items():
        columns, rows = header.split(), []
        for line in lines[lines.index(header) + 1:]:
            if not line.strip():
                break
            rows.append({c: float(v) if "." in v else int(v) for c, v in zip(columns, line.split())})
        tables[name] = rows
    return tables


def drag_point(tree: Path, files: Path, n: int) -> dict[str, float]:
    """Wall time and maximum RSS of one `fixfnm intersect` process on the drag file at N = n."""
    cmd = [sys.executable, "-m", "fixfnm", "intersect",
           str(files / "identity.endo"), str(files / f"drag{n}.endo")]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tree, env=src_env(tree),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 1:  # label 1.3 is nontrivial
        raise RuntimeError(f"intersect on drag{n}.endo exited {proc.returncode}")
    return {"wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024}


def tier1(tree: Path) -> dict:
    """Wall time and summary line of one run of the tier-1 suite."""
    started = time.perf_counter()
    proc = run(tree, *TIER1, exits=(0, 1, 2, 3, 4, 5))  # pytest's exit codes, kept
    wall = time.perf_counter() - started
    return {"wall_s": wall, "exit": proc.returncode, "summary": proc.stdout.strip().splitlines()[-1]}


def fixfnm_importtime(stderr: str) -> dict[str, float]:
    """Cumulative ms of each fixfnm module in the `-X importtime` rows of ``stderr``."""
    rows = {}
    # rows read `import time: self [us] | cumulative | name`
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, total, module = line.split("|")
            module = module.strip()
            if module == "fixfnm" or module.startswith("fixfnm."):
                rows[module] = int(total) / 1e3
    return rows


def in_turn(trees: dict[str, Path], k: int) -> list[tuple[str, Path]]:
    """The trees in the order of round ``k``: as given in even rounds, reversed in odd ones."""
    order = list(trees.items())
    return order if k % 2 == 0 else order[::-1]


def pairs(trees: dict[str, Path], what: str, measure, first_seed: int, rounds: int = PAIRS):
    """Per tree, the rows ``measure(tree, seed)`` of ``rounds`` rounds that alternate between
    the trees (see in_turn), with round k at seed ``first_seed`` + k on both sides."""
    runs: dict[str, list] = {side: [] for side in trees}
    for k in range(rounds):
        for place, (side, tree) in enumerate(in_turn(trees, k)):
            print(f"round {k + 1}/{rounds} {side}: {what}", file=sys.stderr)
            row = measure(tree, first_seed + k)
            runs[side].append(dict(row, seed=first_seed + k, first=place == 0))
    return runs


def import_block(trees: dict[str, Path]) -> dict[str, dict]:
    """Per tree: process wall times and fixfnm's `-X importtime` rows, medians of
    IMPORT_RUNS rounds that alternate between the trees, and the fixfnm modules
    that each IMPORT_COMMANDS row loads."""

    def importtime(tree: Path, args: tuple[str, ...]) -> dict[str, float]:
        return fixfnm_importtime(run(tree, "-X", "importtime", *args, exits=(0, 1)).stderr)

    def measure(tree: Path, seed: int) -> dict[str, dict[str, float]]:
        wall_ms = {}
        for name, args in IMPORT_COMMANDS.items():  # interleaved, so drift hits every row
            started = time.perf_counter()
            run(tree, *args, exits=(0, 1))  # intersect exits 1 on a nontrivial verdict
            wall_ms[name] = (time.perf_counter() - started) * 1e3
        return {"wall_ms": wall_ms, "cumulative_ms": importtime(tree, INTERSECT)}

    runs = pairs(trees, "import block", measure, 0, IMPORT_RUNS)
    return {
        side: {
            "runs": IMPORT_RUNS,
            "wall_ms": medians([r["wall_ms"] for r in runs[side]]),
            "loaded": {name: sorted(importtime(tree, args)) for name, args in IMPORT_COMMANDS.items()},
            "importtime_cumulative_ms": dict(
                sorted(medians([r["cumulative_ms"] for r in runs[side]]).items())),
        }
        for side, tree in trees.items()
    }


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                        help="length of each end-to-end run")
    parser.add_argument("--out", required=True, help="output file, relative to the repository root")
    args = parser.parse_args()

    parent_sha = git("rev-parse", args.parent).strip()
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    report = {
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor() or "unknown",
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            # when set, every process compiles fixfnm from source, which the import rows include
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "recorded": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
        },
        "settings": {"pairs": PAIRS, "first_seed": args.seed, "seconds": args.seconds,
                     "workloads": workloads},
        "parent": {"rev": parent_sha},
        "change": {
            "rev": git("rev-parse", "HEAD").strip(),
            "uncommitted_edits": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
        },
        "comparison": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        export(parent_sha, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        paired = functools.partial(pairs, trees, first_seed=args.seed)

        for workload in workloads:
            runs = paired(workload, lambda tree, seed: bench_run(tree, workload, seed, args.seconds, 0))
            spreads, report["comparison"][workload] = spread_and_compare(
                {side: [{name: r["metrics"][name]["value"] for name in better} for r in runs[side]]
                 for side in trees}, better)
            for side in trees:
                report[side].setdefault("end_to_end", {})[workload] = {
                    "runs": runs[side], "metrics": spreads[side]}

        runs = paired("decide-mix per label", lambda tree, seed: {"p50_us": traced_rows(
            tree, "decide-mix", seed, lambda name: name.startswith("decision.label."))})
        spreads, _ = spread_and_compare({side: [r["p50_us"] for r in runs[side]] for side in trees}, {})
        for side in trees:
            report[side]["decide_per_label"] = {"runs": runs[side], "p50_us": spreads[side]}

        runs = paired("subgroup-fold per layer", lambda tree, seed: {
            "self_ms": traced_rows(tree, "subgroup-fold", seed, FOLD_LAYERS.__contains__)})
        spreads, report["comparison"]["subgroup-fold per layer"] = spread_and_compare(
            {side: [r["self_ms"] for r in runs[side]] for side in trees},
            dict.fromkeys(FOLD_LAYERS, "lower"))
        for side in trees:
            report[side]["fold_layers"] = {"runs": runs[side], "self_ms": spreads[side]}

        runs = paired("bench/reference.py", lambda tree, seed: reference_tables(tree))
        for side in trees:
            for block, table, size in (("fold_curve", "fold", "edges"), ("ball_curve", "ball", "radius")):
                tables = [r[table] for r in runs[side]]
                report[side][block] = {"runs": tables, "median": median_per_size(tables, size)}

        for block, timed in TIMED.items():
            program, unit = TIMING.format(**timed), timed["unit"]
            runs = paired(block, lambda tree, seed: {unit: json.loads(run(tree, "-c", program).stdout)})
            for side in trees:
                report[side][block] = {"runs": runs[side],
                                       "median": medians([r[unit] for r in runs[side]])}

        files = Path(tmp) / "drag"
        files.mkdir()
        (files / "identity.endo").write_text(IDENTITY_ENDO)
        for n in DRAG_SIZES:
            (files / f"drag{n}.endo").write_text(DRAG_ENDO.format(n=n))
        runs = paired("drag curve", lambda tree, seed: {
            "points": {n: drag_point(tree, files, n) for n in DRAG_SIZES}})
        for side in trees:
            points = [[{"N": n, **point} for n, point in r["points"].items()] for r in runs[side]]
            report[side]["drag_curve"] = {"runs": runs[side], "median": median_per_size(points, "N")}

        for side, tree in in_turn(trees, 0):
            print(f"{side}: tier-1", file=sys.stderr)
            report[side]["tier1"] = tier1(tree)
        for side, block in import_block(trees).items():
            report[side]["imports"] = block
    out = ROOT / args.out
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
