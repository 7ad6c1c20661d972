#!/usr/bin/env python3
"""Record benchmark rows for a parent revision and for this checkout.

    python3 scripts/record_bench.py --parent REV --out BENCH_<n>.json [--seed 1] [--seconds 30]

The parent revision is exported with `git archive` into a temporary
directory; the change is this checkout as it stands, uncommitted edits
included. For each of `decide-mix`, `subgroup-fold` and `cli-intersect`
the two trees run `bench/run.py` once each, in alternation, and the
end-to-end line of each run is kept. Each tree then runs
`bench/reference.py` and its fold/express table is kept (best of 3 at
402, 802 and 1602 wedge edges). Last comes an import block per tree: the
median wall time of 7 fresh processes each for the bare interpreter,
`import fixfnm`, `import fixfnm.cli` and `fixfnm intersect --json`, and
the median `-X importtime` cumulative time of every fixfnm module that
`intersect` loads. Everything is written to one JSON file, named relative
to the repository root, with the host it was measured on.
"""

from __future__ import annotations

import argparse
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
WORKLOADS = ("decide-mix", "subgroup-fold", "cli-intersect")
IMPORT_RUNS = 7
INTERSECT = (
    "-m", "fixfnm", "intersect", "scripts/data/diag.endo", "scripts/data/swap.endo", "--json"
)
IMPORT_COMMANDS = {
    "interpreter": ("-c", "pass"),
    "import_fixfnm": ("-c", "import fixfnm"),
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


def end_to_end(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one `bench/run.py --trace 0` run, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fold_curve(tree: Path) -> list[dict]:
    """The `edges  fold_ms  express_ms` table of `bench/reference.py`."""
    proc = subprocess.run([sys.executable, "bench/reference.py"], cwd=tree,
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    start = lines.index("edges  fold_ms  express_ms") + 1
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        edges, fold_ms, express_ms = line.split()
        rows.append({"edges": int(edges), "fold_ms": float(fold_ms), "express_ms": float(express_ms)})
    return rows


def import_block(tree: Path) -> dict:
    """Process wall times and fixfnm's `-X importtime` rows, medians of IMPORT_RUNS."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))

    def run(*args: str) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True
        )
        if proc.returncode not in (0, 1):  # intersect exits 1 on a nontrivial verdict
            raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr}")
        return proc

    wall: dict[str, list[float]] = defaultdict(list)
    cumulative: dict[str, list[float]] = defaultdict(list)
    for _ in range(IMPORT_RUNS):
        for name, args in IMPORT_COMMANDS.items():  # interleaved, so drift hits every row
            started = time.perf_counter()
            run(*args)
            wall[name].append(time.perf_counter() - started)
        # rows read `import time: self [us] | cumulative | name`
        for line in run("-X", "importtime", *INTERSECT).stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, total, module = line.split("|")
                module = module.strip()
                if module == "fixfnm" or module.startswith("fixfnm."):
                    cumulative[module].append(int(total) / 1e3)
    return {
        "runs": IMPORT_RUNS,
        "wall_ms": {name: statistics.median(ts) * 1e3 for name, ts in wall.items()},
        "importtime_cumulative_ms": {
            module: statistics.median(ts) for module, ts in sorted(cumulative.items())
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of each run")
    parser.add_argument("--out", required=True, help="output file, relative to the repository root")
    args = parser.parse_args()

    parent_sha = git("rev-parse", args.parent).strip()
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
        "settings": {"seed": args.seed, "seconds": args.seconds, "workloads": list(WORKLOADS)},
        "parent": {"rev": parent_sha, "end_to_end": {}},
        "change": {
            "rev": git("rev-parse", "HEAD").strip(),
            "uncommitted_edits": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
            "end_to_end": {},
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        export(parent_sha, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        for workload in WORKLOADS:
            for side, tree in trees.items():
                print(f"{side}: {workload}", file=sys.stderr)
                report[side]["end_to_end"][workload] = end_to_end(tree, workload, args.seed, args.seconds)
        for side, tree in trees.items():
            print(f"{side}: bench/reference.py", file=sys.stderr)
            report[side]["fold_curve"] = fold_curve(tree)
        for side, tree in trees.items():
            print(f"{side}: import block", file=sys.stderr)
            report[side]["imports"] = import_block(tree)
    out = ROOT / args.out
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
